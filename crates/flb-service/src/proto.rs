//! The length-prefixed request/response protocol.
//!
//! Every message is one frame:
//!
//! ```text
//! magic  u32 LE  = 0x464C_4231  ("FLB1")
//! length u32 LE  (payload bytes, <= MAX_FRAME)
//! payload        kind byte + body, encoded with flb_sched::io::wire
//! ```
//!
//! Requests: `schedule` (algorithm + deadline + machine + graph +
//! tenant), `stats`, `ping`, `shutdown`. Responses: `schedule` (cached
//! flag + service time + schedule), `busy` (backpressure, with a retry
//! hint), `expired`, `overloaded` (policy shed, with a retry hint),
//! `breaker-open` (the tenant's circuit breaker rejected the request),
//! `stats`, `error`, `pong`, `shutting-down`. The codec is symmetric and
//! pure, so both ends round-trip through the same functions.
//!
//! Extension fields ride at the *end* of their frames (the tenant name
//! after the graph, the overload counters after the per-algorithm
//! table), so a decoder reading an older peer's frame sees them absent
//! and fills in defaults — old field order is never disturbed.

use crate::fingerprint::{edge_records, ScheduleFields};
use crate::metrics::{StatsSnapshot, TenantStat};
use crate::overload::{OverloadState, MAX_TENANT_NAME};
use flb_core::{AlgorithmId, ScheduleRequest};
use flb_kernel::FlatGraph;
use flb_sched::io::wire::{self, Reader, WireError, Writer};
use flb_sched::{Machine, Schedule};
use std::io::{self, Read, Write};

/// Frame magic: `"FLB1"`.
pub const MAGIC: u32 = 0x464C_4231;

/// Largest accepted payload (64 MiB) — bounds allocation on corrupt or
/// hostile length prefixes.
pub const MAX_FRAME: u32 = 64 << 20;

/// The error every decode path returns for a request whose times could
/// overflow (see `check_time_ceiling`).
pub const TIME_OVERFLOW: &str = "task times may overflow u64: \
     (total computation x largest slowdown + total communication) x 4 x processors \
     exceeds u64::MAX";

/// Rejects a schedule request whose times could overflow `u64`.
///
/// `C = Σ comp · max slowdown + Σ comm` bounds every start and finish
/// time of every schedule a registered scheduler builds: a task starts
/// when its processor frees up or a message arrives, so following those
/// causes back from any start walks a chain of distinct tasks and
/// distinct edges. The other quantities they compute are sums of two
/// such terms, at most `2C` — an arrival `finish + comm`, a candidate
/// EST/EFT on a processor the task does not get, a top level plus a
/// bottom level — except HEFT's upward ranks, which are scaled by the
/// processor count `P` to stay integral and reach `P·C`. So a request is
/// accepted when `4·P·C` fits in `u64`: the largest quantity with a
/// further factor of 2 to spare. Every sum here is checked, so a ceiling
/// that itself overflows is rejected too.
pub(crate) fn check_time_ceiling(
    procs: usize,
    max_slowdown: u64,
    comp: impl IntoIterator<Item = u64>,
    comm: impl IntoIterator<Item = u64>,
) -> Result<(), WireError> {
    comp.into_iter()
        .try_fold(0u64, u64::checked_add)
        .and_then(|c| c.checked_mul(max_slowdown))
        .and_then(|c| comm.into_iter().try_fold(c, u64::checked_add))
        .and_then(|c| c.checked_mul(4 * procs as u64))
        .map(drop)
        .ok_or_else(|| WireError::Malformed(TIME_OVERFLOW.to_owned()))
}

/// A request frame.
#[derive(Clone, Debug)]
pub enum Request {
    /// Schedule a graph; `deadline_ms == 0` means no deadline.
    Schedule {
        /// What/where/how to schedule (boxed: it dwarfs every other
        /// variant, and `Request` values move through queues).
        request: Box<ScheduleRequest>,
        /// Give up when not finished within this budget (0 = none).
        deadline_ms: u64,
        /// Tenant name for quota accounting; empty means anonymous
        /// (the server buckets the connection by itself).
        tenant: String,
    },
    /// Return a [`StatsSnapshot`].
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop the daemon.
    Shutdown,
}

/// A response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The schedule, where it came from, and how long it took.
    Schedule {
        /// Whether the fingerprint cache answered it.
        cached: bool,
        /// End-to-end service time in microseconds.
        micros: u64,
        /// The schedule itself.
        schedule: Schedule,
    },
    /// The queue is full; retry after the hinted delay.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired while it was queued.
    Expired,
    /// The request was shed by overload policy (over quota, or beyond
    /// the emergency share); retry after the hinted delay.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The tenant's circuit breaker is open; not worth retrying before
    /// the hinted delay.
    BreakerOpen {
        /// Remaining cooldown in milliseconds.
        retry_after_ms: u64,
    },
    /// Live counters (boxed: the snapshot dwarfs every other variant).
    Stats(Box<StatsSnapshot>),
    /// The request could not be served; human-readable reason.
    Error(String),
    /// Liveness answer.
    Pong,
    /// Shutdown acknowledged; the daemon is stopping.
    ShuttingDown,
}

pub(crate) const REQ_SCHEDULE: u8 = 1;
const REQ_STATS: u8 = 2;
const REQ_PING: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;

pub(crate) const RESP_SCHEDULE: u8 = 1;
pub(crate) const RESP_BUSY: u8 = 2;
pub(crate) const RESP_EXPIRED: u8 = 3;
pub(crate) const RESP_STATS: u8 = 4;
pub(crate) const RESP_ERROR: u8 = 5;
pub(crate) const RESP_PONG: u8 = 6;
pub(crate) const RESP_SHUTTING_DOWN: u8 = 7;
pub(crate) const RESP_OVERLOADED: u8 = 8;
pub(crate) const RESP_BREAKER_OPEN: u8 = 9;

impl Response {
    /// The stable wire kind code of this response (the byte that leads
    /// its payload). Journal records store it so replay knows which
    /// recorded replies are deterministic.
    #[must_use]
    pub fn kind_code(&self) -> u8 {
        match self {
            Response::Schedule { .. } => RESP_SCHEDULE,
            Response::Busy { .. } => RESP_BUSY,
            Response::Expired => RESP_EXPIRED,
            Response::Stats(_) => RESP_STATS,
            Response::Error(_) => RESP_ERROR,
            Response::Pong => RESP_PONG,
            Response::ShuttingDown => RESP_SHUTTING_DOWN,
            Response::Overloaded { .. } => RESP_OVERLOADED,
            Response::BreakerOpen { .. } => RESP_BREAKER_OPEN,
        }
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Encodes a request payload (kind byte + body).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    match req {
        Request::Schedule {
            request,
            deadline_ms,
            tenant,
        } => {
            w.put_u8(REQ_SCHEDULE);
            w.put_u8(request.algorithm.code());
            w.put_u64(*deadline_ms);
            wire::put_machine(&mut w, &request.machine);
            wire::put_graph(&mut w, &request.graph);
            w.put_str(tenant);
        }
        Request::Stats => w.put_u8(REQ_STATS),
        Request::Ping => w.put_u8(REQ_PING),
        Request::Shutdown => w.put_u8(REQ_SHUTDOWN),
    }
    w.into_bytes()
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        REQ_SCHEDULE => {
            let code = r.u8()?;
            let algorithm = AlgorithmId::from_code(code)
                .ok_or_else(|| WireError::Malformed(format!("unknown algorithm code {code}")))?;
            let deadline_ms = r.u64()?;
            let machine = wire::get_machine(&mut r)?;
            let graph = wire::get_graph(&mut r)?;
            check_time_ceiling(
                machine.num_procs(),
                machine
                    .procs()
                    .map(|p| machine.slowdown(p))
                    .max()
                    .unwrap_or(1),
                graph.tasks().map(|t| graph.comp(t)),
                graph
                    .tasks()
                    .flat_map(|t| graph.succs(t).iter().map(|&(_, c)| c)),
            )?;
            // The tenant field rides behind the graph; a frame from an
            // older encoder simply ends here and means "anonymous".
            let tenant = if r.remaining() == 0 {
                String::new()
            } else {
                r.str()?
            };
            if tenant.len() > MAX_TENANT_NAME {
                return Err(WireError::Malformed(format!(
                    "tenant name of {} bytes exceeds {MAX_TENANT_NAME}",
                    tenant.len()
                )));
            }
            Request::Schedule {
                request: Box::new(ScheduleRequest::new(algorithm, graph, machine)),
                deadline_ms,
                tenant,
            }
        }
        REQ_STATS => Request::Stats,
        REQ_PING => Request::Ping,
        REQ_SHUTDOWN => Request::Shutdown,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown request kind {other}"
            )))
        }
    };
    if r.remaining() != 0 {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after request",
            r.remaining()
        )));
    }
    Ok(req)
}

/// An FLB schedule request decoded straight into the kernel's CSR form.
#[derive(Clone, Debug)]
pub struct FlatScheduleRequest {
    /// The task graph, as the kernel schedules it.
    pub graph: FlatGraph,
    /// The target machine.
    pub machine: Machine,
    /// Give up when not finished within this budget (0 = none).
    pub deadline_ms: u64,
    /// Tenant name for quota accounting; empty means anonymous.
    pub tenant: String,
}

/// Decodes an FLB schedule request into [`FlatGraph`] form, with no
/// `TaskGraph` in between: `flat_request` of the payload's split.
///
/// Accepts exactly the FLB payloads [`decode_request`] accepts, in any
/// edge order, and builds the same request. The fields around the
/// machine and graph are checked as the cache-key peek checks them
/// (`ScheduleFields::split`), the machine as `wire::get_machine` checks
/// it, and the graph by [`FlatGraph::from_sorted_edges`], which rejects
/// everything the graph builder rejects. Requests for other algorithms
/// are declined.
#[must_use]
pub fn decode_flat_request(payload: &[u8]) -> Option<FlatScheduleRequest> {
    flat_request(&ScheduleFields::split(payload)?)
}

/// Builds the FLB request a split payload holds, or `None` when it asks
/// for another algorithm or does not decode. The daemon then answers
/// with [`decode_request`]'s error, so every error reply is its.
pub(crate) fn flat_request(f: &ScheduleFields<'_>) -> Option<FlatScheduleRequest> {
    if f.algorithm != AlgorithmId::Flb {
        return None;
    }
    let le_u64 = |b: &[u8]| Some(u64::from_le_bytes(b.try_into().ok()?));
    let slowdowns: Vec<u64> = f.slowdowns.chunks_exact(8).map_while(le_u64).collect();
    if slowdowns.is_empty() || slowdowns.contains(&0) {
        return None;
    }
    let comp: Vec<u64> = f.costs.chunks_exact(8).map_while(le_u64).collect();
    let max_slowdown = slowdowns.iter().copied().max().unwrap_or(1);
    let comm = edge_records(&f.edges).map(|x| (x >> 64) as u64);
    check_time_ceiling(slowdowns.len(), max_slowdown, comp.iter().copied(), comm).ok()?;
    let edges = edge_records(&f.edges).map(|x| (x as u32, (x >> 32) as u32, (x >> 64) as u64));
    let graph = FlatGraph::from_sorted_edges(f.name, comp, f.edges.len() / 16, edges).ok()?;
    Some(FlatScheduleRequest {
        graph,
        machine: Machine::related(slowdowns),
        deadline_ms: f.deadline_ms,
        tenant: f.tenant.to_owned(),
    })
}

fn put_stats(w: &mut Writer, s: &StatsSnapshot) {
    for v in [
        s.requests,
        s.schedule_requests,
        s.cache_hits,
        s.cache_misses,
        s.scheduler_invocations,
        s.rejected,
        s.expired,
        s.errors,
        s.io_timeouts,
        s.evicted_slow,
        s.worker_panics,
        s.worker_respawns,
        s.snapshot_saves,
        s.snapshot_loaded,
        s.snapshot_quarantined,
        s.queue_depth,
        s.workers,
        s.cache_entries,
        s.open_connections,
        s.p50_us,
        s.p99_us,
    ] {
        w.put_u64(v);
    }
    w.put_u32(s.per_algorithm.len() as u32);
    for (alg, n) in &s.per_algorithm {
        w.put_u8(alg.code());
        w.put_u64(*n);
    }
    // Overload extension: appended after the legacy fields so decoders
    // of the old frame layout keep working unchanged.
    w.put_u64(s.shed);
    w.put_u64(s.breaker_rejected);
    w.put_u64(s.overload_transitions);
    w.put_u64(s.overload_state.code());
    w.put_u64(s.tenants_tracked);
    w.put_u32(s.per_tenant.len() as u32);
    for t in &s.per_tenant {
        w.put_str(&t.name);
        w.put_u64(t.admitted);
        w.put_u64(t.shed);
        w.put_u64(t.breaker_rejected);
        w.put_u8(u8::from(t.breaker_open));
        w.put_u64(t.wait_p50_us);
        w.put_u64(t.wait_p99_us);
    }
    // Journal extension: appended after the overload extension, same
    // contract — decoders of older layouts see it absent and default.
    for v in [
        s.journal_appended,
        s.journal_dropped,
        s.journal_bytes,
        s.journal_segments,
        s.journal_recovered,
        s.journal_truncated_bytes,
        s.journal_quarantined,
        s.quarantine_pruned,
    ] {
        w.put_u64(v);
    }
}

fn get_stats(r: &mut Reader<'_>) -> Result<StatsSnapshot, WireError> {
    let mut vals = [0u64; 21];
    for v in &mut vals {
        *v = r.u64()?;
    }
    let n = r.len("algorithm counter", 9)?;
    let mut per_algorithm = Vec::with_capacity(n);
    for _ in 0..n {
        let code = r.u8()?;
        let alg = AlgorithmId::from_code(code)
            .ok_or_else(|| WireError::Malformed(format!("unknown algorithm code {code}")))?;
        per_algorithm.push((alg, r.u64()?));
    }
    // Overload extension (absent in frames from older encoders).
    let (mut shed, mut breaker_rejected, mut overload_transitions) = (0, 0, 0);
    let mut overload_state = OverloadState::Healthy;
    let mut tenants_tracked = 0;
    let mut per_tenant = Vec::new();
    if r.remaining() > 0 {
        shed = r.u64()?;
        breaker_rejected = r.u64()?;
        overload_transitions = r.u64()?;
        overload_state = OverloadState::from_code(r.u64()?);
        tenants_tracked = r.u64()?;
        let n = r.len("tenant counter", 14)?;
        per_tenant.reserve(n);
        for _ in 0..n {
            per_tenant.push(TenantStat {
                name: r.str()?,
                admitted: r.u64()?,
                shed: r.u64()?,
                breaker_rejected: r.u64()?,
                breaker_open: r.u8()? != 0,
                wait_p50_us: r.u64()?,
                wait_p99_us: r.u64()?,
            });
        }
    }
    // Journal extension (absent in frames from older encoders).
    let mut journal = [0u64; 8];
    if r.remaining() > 0 {
        for v in &mut journal {
            *v = r.u64()?;
        }
    }
    let [journal_appended, journal_dropped, journal_bytes, journal_segments, journal_recovered, journal_truncated_bytes, journal_quarantined, quarantine_pruned] =
        journal;
    let [requests, schedule_requests, cache_hits, cache_misses, scheduler_invocations, rejected, expired, errors, io_timeouts, evicted_slow, worker_panics, worker_respawns, snapshot_saves, snapshot_loaded, snapshot_quarantined, queue_depth, workers, cache_entries, open_connections, p50_us, p99_us] =
        vals;
    Ok(StatsSnapshot {
        requests,
        schedule_requests,
        cache_hits,
        cache_misses,
        scheduler_invocations,
        rejected,
        expired,
        errors,
        io_timeouts,
        evicted_slow,
        worker_panics,
        worker_respawns,
        snapshot_saves,
        snapshot_loaded,
        snapshot_quarantined,
        queue_depth,
        workers,
        cache_entries,
        open_connections,
        p50_us,
        p99_us,
        per_algorithm,
        shed,
        breaker_rejected,
        overload_transitions,
        overload_state,
        tenants_tracked,
        per_tenant,
        journal_appended,
        journal_dropped,
        journal_bytes,
        journal_segments,
        journal_recovered,
        journal_truncated_bytes,
        journal_quarantined,
        quarantine_pruned,
    })
}

/// Encodes a response payload (kind byte + body).
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    put_response(&mut w, resp);
    w.into_bytes()
}

/// Appends a schedule reply's payload.
fn put_schedule_reply(w: &mut Writer, cached: bool, micros: u64, schedule: &Schedule) {
    w.put_u8(RESP_SCHEDULE);
    w.put_u8(u8::from(cached));
    w.put_u64(micros);
    wire::put_schedule(w, schedule);
}

fn put_response(w: &mut Writer, resp: &Response) {
    match resp {
        Response::Schedule {
            cached,
            micros,
            schedule,
        } => put_schedule_reply(w, *cached, *micros, schedule),
        Response::Busy { retry_after_ms } => {
            w.put_u8(RESP_BUSY);
            w.put_u64(*retry_after_ms);
        }
        Response::Expired => w.put_u8(RESP_EXPIRED),
        Response::Overloaded { retry_after_ms } => {
            w.put_u8(RESP_OVERLOADED);
            w.put_u64(*retry_after_ms);
        }
        Response::BreakerOpen { retry_after_ms } => {
            w.put_u8(RESP_BREAKER_OPEN);
            w.put_u64(*retry_after_ms);
        }
        Response::Stats(s) => {
            w.put_u8(RESP_STATS);
            put_stats(w, s);
        }
        Response::Error(msg) => {
            w.put_u8(RESP_ERROR);
            w.put_str(msg);
        }
        Response::Pong => w.put_u8(RESP_PONG),
        Response::ShuttingDown => w.put_u8(RESP_SHUTTING_DOWN),
    }
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let resp = match r.u8()? {
        RESP_SCHEDULE => {
            let cached = r.u8()? != 0;
            let micros = r.u64()?;
            let schedule = wire::get_schedule(&mut r)?;
            Response::Schedule {
                cached,
                micros,
                schedule,
            }
        }
        RESP_BUSY => Response::Busy {
            retry_after_ms: r.u64()?,
        },
        RESP_EXPIRED => Response::Expired,
        RESP_OVERLOADED => Response::Overloaded {
            retry_after_ms: r.u64()?,
        },
        RESP_BREAKER_OPEN => Response::BreakerOpen {
            retry_after_ms: r.u64()?,
        },
        RESP_STATS => Response::Stats(Box::new(get_stats(&mut r)?)),
        RESP_ERROR => Response::Error(r.str()?),
        RESP_PONG => Response::Pong,
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown response kind {other}"
            )))
        }
    };
    if r.remaining() != 0 {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after response",
            r.remaining()
        )));
    }
    Ok(resp)
}

/// Bytes of the frame header (magic, length).
const FRAME_HEADER: usize = 8;

/// Largest read issued while receiving a payload. The payload buffer
/// grows by at most this much ahead of the bytes received.
const READ_STEP: usize = 64 * 1024;

/// Builds a whole frame in one buffer: the header, then the payload
/// `body` appends (`capacity` is a size hint for it).
fn build_frame(capacity: usize, body: impl FnOnce(&mut Writer)) -> io::Result<Vec<u8>> {
    let mut w = Writer::with_capacity(FRAME_HEADER + capacity);
    w.put_u32(MAGIC);
    w.put_u32(0); // the length, filled in below
    body(&mut w);
    let mut frame = w.into_bytes();
    let len = frame.len() - FRAME_HEADER;
    if len > MAX_FRAME as usize {
        return Err(invalid(format!("frame of {len} bytes too large")));
    }
    if let Some(slot) = frame.get_mut(4..FRAME_HEADER) {
        slot.copy_from_slice(&(len as u32).to_le_bytes());
    }
    Ok(frame)
}

/// Sends a built frame with a single write and flushes.
fn send_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Writes one frame (magic, length, payload) in a single write and
/// flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    send_frame(w, &build_frame(payload.len(), |f| f.put_bytes(payload))?)
}

/// Reads one frame's payload; `Ok(None)` on clean end-of-stream (the peer
/// closed between frames).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut head = [0u8; FRAME_HEADER];
    match r.read(&mut head)? {
        0 => return Ok(None),
        mut n => {
            while n < head.len() {
                // flb-analyze: allow(no-panic-in-request-path, reason="n < head.len() is the loop condition; slicing a [u8; 8] past-start is in bounds")
                let m = r.read(&mut head[n..])?;
                if m == 0 {
                    return Err(invalid("EOF inside frame header"));
                }
                n += m;
            }
        }
    }
    let [m0, m1, m2, m3, l0, l1, l2, l3] = head;
    let magic = u32::from_le_bytes([m0, m1, m2, m3]);
    if magic != MAGIC {
        return Err(invalid(format!("bad frame magic {magic:#010x}")));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME {
        return Err(invalid(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    // Grow with the bytes actually received instead of trusting the
    // header: a hostile 8-byte header claiming MAX_FRAME then costs its
    // sender the bytes, not this process 64 MiB up front. Each read goes
    // straight into the payload, at most READ_STEP past what arrived.
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(filled + (len - filled).min(READ_STEP), 0);
        // flb-analyze: allow(no-panic-in-request-path, reason="the resize on the previous line makes payload.len() > filled")
        let n = r.read(&mut payload[filled..])?;
        if n == 0 {
            return Err(invalid("EOF inside frame payload"));
        }
        payload.truncate(filled + n);
    }
    Ok(Some(payload))
}

/// Writes a request as one frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    write_frame(w, &encode_request(req))
}

/// Reads a request frame; `Ok(None)` on clean end-of-stream.
pub fn read_request(r: &mut impl Read) -> io::Result<Option<Request>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => decode_request(&payload)
            .map(Some)
            .map_err(|e| invalid(e.to_string())),
    }
}

/// Writes a response as one frame, encoded straight into the frame
/// buffer and sent with a single write.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    send_frame(w, &build_frame(0, |f| put_response(f, resp))?)
}

/// Writes a schedule reply from a borrowed schedule: the same bytes as
/// [`write_response`] of `Response::Schedule { cached, micros, schedule }`
/// without cloning the schedule into a [`Response`].
pub fn write_schedule_reply(
    w: &mut impl Write,
    cached: bool,
    micros: u64,
    schedule: &Schedule,
) -> io::Result<()> {
    let size = 10 + wire::schedule_len(schedule);
    send_frame(
        w,
        &build_frame(size, |f| put_schedule_reply(f, cached, micros, schedule))?,
    )
}

/// Reads a response frame; errors on end-of-stream (a response is always
/// owed once a request was sent).
pub fn read_response(r: &mut impl Read) -> io::Result<Response> {
    match read_frame(r)? {
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed while awaiting a response",
        )),
        Some(payload) => decode_response(&payload).map_err(|e| invalid(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_core::AlgorithmId;
    use flb_graph::paper::fig1;
    use flb_sched::{Machine, Scheduler};

    fn sample_schedule() -> Schedule {
        flb_core::Flb::default().schedule(&fig1(), &Machine::new(2))
    }

    #[test]
    fn request_payloads_roundtrip() {
        let reqs = [
            Request::Schedule {
                request: Box::new(ScheduleRequest::new(
                    AlgorithmId::Heft,
                    fig1(),
                    Machine::related(vec![1, 2]),
                )),
                deadline_ms: 250,
                tenant: "team-a".into(),
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).unwrap();
            match (&req, &back) {
                (
                    Request::Schedule {
                        request: a,
                        deadline_ms: da,
                        tenant: ta,
                    },
                    Request::Schedule {
                        request: b,
                        deadline_ms: db,
                        tenant: tb,
                    },
                ) => {
                    assert_eq!(a.algorithm, b.algorithm);
                    assert_eq!(a.machine, b.machine);
                    assert_eq!(a.graph.num_tasks(), b.graph.num_tasks());
                    assert_eq!(da, db);
                    assert_eq!(ta, tb);
                }
                (Request::Stats, Request::Stats)
                | (Request::Ping, Request::Ping)
                | (Request::Shutdown, Request::Shutdown) => {}
                other => panic!("mismatched roundtrip: {other:?}"),
            }
        }
    }

    #[test]
    fn response_payloads_roundtrip() {
        let stats = StatsSnapshot {
            requests: 10,
            schedule_requests: 8,
            cache_hits: 3,
            cache_misses: 5,
            scheduler_invocations: 5,
            rejected: 1,
            expired: 0,
            errors: 1,
            io_timeouts: 2,
            evicted_slow: 1,
            worker_panics: 1,
            worker_respawns: 1,
            snapshot_saves: 3,
            snapshot_loaded: 7,
            snapshot_quarantined: 1,
            queue_depth: 2,
            workers: 4,
            cache_entries: 5,
            open_connections: 2,
            p50_us: 128,
            p99_us: 4096,
            per_algorithm: vec![(AlgorithmId::Flb, 6), (AlgorithmId::Etf, 2)],
            shed: 4,
            breaker_rejected: 2,
            overload_transitions: 3,
            overload_state: OverloadState::Shedding,
            tenants_tracked: 2,
            per_tenant: vec![
                TenantStat {
                    name: "team-a".into(),
                    admitted: 7,
                    shed: 4,
                    breaker_rejected: 2,
                    breaker_open: true,
                    wait_p50_us: 64,
                    wait_p99_us: 2048,
                },
                TenantStat {
                    name: "(anon)".into(),
                    admitted: 1,
                    ..TenantStat::default()
                },
            ],
            journal_appended: 40,
            journal_dropped: 2,
            journal_bytes: 9_000,
            journal_segments: 3,
            journal_recovered: 17,
            journal_truncated_bytes: 13,
            journal_quarantined: 1,
            quarantine_pruned: 4,
        };
        let resps = [
            Response::Schedule {
                cached: true,
                micros: 42,
                schedule: sample_schedule(),
            },
            Response::Busy { retry_after_ms: 50 },
            Response::Expired,
            Response::Overloaded {
                retry_after_ms: 120,
            },
            Response::BreakerOpen {
                retry_after_ms: 900,
            },
            Response::Stats(Box::new(stats)),
            Response::Error("boom".into()),
            Response::Pong,
            Response::ShuttingDown,
        ];
        for resp in resps {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    /// A stats frame truncated to the legacy layout (everything up to
    /// and including the per-algorithm table) must still decode, with
    /// the overload extension defaulted — the "old field order is kept"
    /// compatibility contract.
    #[test]
    fn legacy_stats_frames_without_the_extension_still_decode() {
        let mut w = flb_sched::io::wire::Writer::new();
        for v in 1..=21u64 {
            w.put_u64(v);
        }
        w.put_u32(1);
        w.put_u8(AlgorithmId::Flb.code());
        w.put_u64(99);
        let mut payload = vec![RESP_STATS];
        payload.extend_from_slice(&w.into_bytes());
        let Response::Stats(s) = decode_response(&payload).unwrap() else {
            panic!("not a stats response");
        };
        assert_eq!(s.requests, 1);
        assert_eq!(s.p99_us, 21);
        assert_eq!(s.per_algorithm, vec![(AlgorithmId::Flb, 99)]);
        assert_eq!(s.shed, 0);
        assert_eq!(s.overload_state, OverloadState::Healthy);
        assert!(s.per_tenant.is_empty());
        assert_eq!(s.journal_appended, 0);
        assert_eq!(s.quarantine_pruned, 0);
    }

    /// A frame carrying the overload extension but stopping before the
    /// journal extension (the PR-5-era layout) must still decode, with
    /// the journal counters defaulted.
    #[test]
    fn overload_only_stats_frames_still_decode() {
        let mut w = flb_sched::io::wire::Writer::new();
        for v in 1..=21u64 {
            w.put_u64(v);
        }
        w.put_u32(0); // no per-algorithm rows
        for v in [7u64, 8, 9, 1, 2] {
            w.put_u64(v); // shed, breaker, transitions, state, tenants
        }
        w.put_u32(0); // no per-tenant rows
        let mut payload = vec![RESP_STATS];
        payload.extend_from_slice(&w.into_bytes());
        let Response::Stats(s) = decode_response(&payload).unwrap() else {
            panic!("not a stats response");
        };
        assert_eq!(s.shed, 7);
        assert_eq!(s.breaker_rejected, 8);
        assert_eq!(s.tenants_tracked, 2);
        assert_eq!(s.journal_appended, 0);
        assert_eq!(s.journal_dropped, 0);
        assert_eq!(s.quarantine_pruned, 0);
    }

    #[test]
    fn empty_tenant_means_anonymous_and_long_names_are_rejected() {
        let mk = |tenant: &str| Request::Schedule {
            request: Box::new(ScheduleRequest::new(
                AlgorithmId::Flb,
                fig1(),
                Machine::new(2),
            )),
            deadline_ms: 0,
            tenant: tenant.into(),
        };
        let back = decode_request(&encode_request(&mk(""))).unwrap();
        let Request::Schedule { tenant, .. } = back else {
            panic!("not a schedule");
        };
        assert!(tenant.is_empty());
        assert!(decode_request(&encode_request(&mk(&"x".repeat(65)))).is_err());
        assert!(decode_request(&encode_request(&mk(&"x".repeat(64)))).is_ok());
    }

    #[test]
    fn frames_roundtrip_over_a_byte_pipe() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        write_request(&mut buf, &Request::Stats).unwrap();
        let mut r = &buf[..];
        assert!(matches!(read_request(&mut r).unwrap(), Some(Request::Ping)));
        assert!(matches!(
            read_request(&mut r).unwrap(),
            Some(Request::Stats)
        ));
        assert!(read_request(&mut r).unwrap().is_none()); // clean EOF
    }

    #[test]
    fn frame_reader_rejects_garbage() {
        // Wrong magic.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
        // Oversized length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
        // EOF mid-header.
        let buf = MAGIC.to_le_bytes();
        assert!(read_frame(&mut &buf[..3]).is_err());
        // Unknown request kind.
        assert!(decode_request(&[99]).is_err());
        // Trailing junk.
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }
}
