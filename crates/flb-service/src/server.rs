//! The daemon: listener, per-connection protocol loops, and the bounded
//! worker pool behind the fingerprint cache.
//!
//! Request flow for `schedule`:
//!
//! 1. the connection thread splits the payload once, reads the cache key
//!    straight off its bytes (as
//!    [`peek_request_key`](crate::peek_request_key) does) and probes the
//!    cache. A hit is
//!    answered immediately: no decode, no graph, no queue. The reply is
//!    encoded from the cached schedule into one frame and sent with one
//!    write (this is the "repeated workloads skip scheduling entirely"
//!    path, and it keeps working even while the queue is saturated);
//! 2. otherwise the miss is offered to the bounded queue; when the
//!    queue is full the client gets a `busy` response with a retry hint
//!    instead of blocking the daemon (backpressure, never a hang). The
//!    request, whatever its algorithm, is built from the same split the
//!    key was read from (`proto::split_request`), its graph straight into
//!    the CSR arrays the schedulers read. A payload that does not build
//!    gets [`decode_request`]'s error reply;
//! 3. an admitted miss that finds the queue otherwise empty and fewer
//!    than `workers` schedules running runs on the connection thread
//!    itself; any other waits for a worker. Whichever thread runs the
//!    job drops it with an `expired` response if its deadline passed
//!    while it queued, otherwise runs the scheduler and populates the
//!    cache; a worker then hands the schedule back to the connection
//!    thread. Every job runs through [`schedule_request`], whose FLB
//!    engine is `flb-kernel`'s kernel. Pool and inline runs share one
//!    count of running schedules, so never more than `workers` run at
//!    once.
//!
//! Two concurrent misses on the same fingerprint may both run the
//! scheduler; the algorithms are deterministic, so both compute the same
//! schedule and the second cache insert is a no-op refresh. That trade
//! keeps the hot path free of per-fingerprint locks.
//!
//! # Resilience
//!
//! The serving layer is built to degrade gracefully rather than hang,
//! leak, or die:
//!
//! * **Deadline-aware I/O** — every connection reads and writes through a
//!   [`DeadlineConn`] that combines per-call socket timeouts with a total
//!   per-frame deadline, so a slow-loris client trickling one byte per
//!   timeout window is still evicted once the frame budget is spent
//!   (`io_timeouts` / `evicted_slow` counters).
//! * **Panic isolation** — scheduler invocations run under
//!   `catch_unwind`; a panicking scheduler produces a structured `error`
//!   response (`worker_panics` counter) and the connection keeps serving.
//!   A worker thread that dies anyway is respawned by a supervisor so the
//!   pool returns to full strength (`worker_respawns`).
//! * **Crash-safe warm restart** — with a cache file configured, the
//!   schedule cache is snapshotted (checksummed, written atomically) on a
//!   configurable interval and on graceful shutdown, and reloaded on
//!   boot; a corrupt snapshot is quarantined, never fatal.

use crate::cache::ShardedLru;
use crate::fingerprint::ScheduleFields;
use crate::journal::{self, SyncPolicy};
use crate::metrics::{Gauges, Metrics};
use crate::overload::{Decision, OverloadConfig, OverloadCtl, Popped, ShedPolicy, TenantId};
use crate::packed::PackedSchedule;
use crate::proto::{
    decode_request, read_frame, split_request, write_response, write_schedule_reply, Request,
    Response, RESP_SCHEDULE,
};
use crate::snapshot::{self, SnapshotError};
use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
use flb_sched::io::wire::WireError;
use parking_lot::{Condvar, Mutex};
use std::io::{self, Read as _};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Graph name that makes a worker panic inside the isolation boundary
/// when [`ServiceConfig::panic_injection`] is enabled (chaos testing).
pub const PANIC_MARKER: &str = "__chaos_panic";

/// Graph name that makes the worker thread *die* after replying when
/// [`ServiceConfig::panic_injection`] is enabled, exercising the
/// supervisor's respawn path (chaos testing).
pub const HARD_PANIC_MARKER: &str = "__chaos_panic_hard";

/// Tuning knobs of a service instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Scheduler worker threads.
    pub workers: usize,
    /// Bounded queue capacity; a full queue answers `busy`.
    pub queue_capacity: usize,
    /// Total schedule-cache entries (split across shards).
    pub cache_capacity: usize,
    /// Cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Backoff hint attached to `busy` responses, in milliseconds.
    pub retry_after_ms: u64,
    /// Per-socket-call read timeout in milliseconds (0 = none).
    pub read_timeout_ms: u64,
    /// Per-socket-call write timeout in milliseconds (0 = none).
    pub write_timeout_ms: u64,
    /// Total budget for receiving one request frame or sending one
    /// response, in milliseconds (0 = none). This is what defeats
    /// slow-loris clients: per-call timeouts reset on every byte, the
    /// frame deadline does not.
    pub frame_deadline_ms: u64,
    /// How long a connection may sit idle between requests before it is
    /// evicted, in milliseconds (0 = keep idle connections forever).
    pub idle_timeout_ms: u64,
    /// Warm-restart snapshot of the schedule cache: loaded on boot,
    /// written on graceful shutdown and every `snapshot_interval_ms`.
    pub cache_file: Option<PathBuf>,
    /// Periodic snapshot interval in milliseconds (0 = only write the
    /// snapshot on graceful shutdown).
    pub snapshot_interval_ms: u64,
    /// Honor the [`PANIC_MARKER`] / [`HARD_PANIC_MARKER`] graph names.
    /// For chaos harnesses and tests only; off by default.
    pub panic_injection: bool,
    /// Per-tenant admission rate in requests/second (token bucket);
    /// 0 = unlimited (legacy behaviour: no quotas).
    pub tenant_rate: f64,
    /// Per-tenant burst allowance; 0 = one second's worth of rate.
    pub tenant_burst: f64,
    /// What happens to over-quota work under load.
    pub shed_policy: ShedPolicy,
    /// Queue slots over-quota work may never occupy (reserved minimum
    /// share for within-quota tenants); 0 = `queue_capacity / 8`.
    pub reserved_slots: usize,
    /// Most jobs one tenant may hold queued at once; 0 =
    /// `queue_capacity / 2`.
    pub tenant_backlog_cap: usize,
    /// Consecutive failures (panics, blown deadlines) that trip a
    /// tenant's circuit breaker; 0 disables the breaker.
    pub breaker_threshold: u32,
    /// Breaker cooldown before the half-open probe, in milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Journal directory for durable request recording (`--record`);
    /// `None` disables journaling entirely.
    pub record_dir: Option<PathBuf>,
    /// When the journal writer fsyncs.
    pub journal_sync: SyncPolicy,
    /// Journal segment rotation threshold in bytes.
    pub journal_segment_bytes: u64,
    /// Bounded hand-off queue between connections and the journal
    /// writer; when full, events are dropped and counted.
    pub journal_queue: usize,
    /// Test-only simulated per-record disk stall in milliseconds (chaos
    /// rigs; proves the journal sheds instead of blocking clients).
    pub journal_stall_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            queue_capacity: 64,
            cache_capacity: 512,
            cache_shards: 8,
            retry_after_ms: 25,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            frame_deadline_ms: 60_000,
            idle_timeout_ms: 0,
            cache_file: None,
            snapshot_interval_ms: 0,
            panic_injection: false,
            tenant_rate: 0.0,
            tenant_burst: 0.0,
            shed_policy: ShedPolicy::Graduated,
            reserved_slots: 0,
            tenant_backlog_cap: 0,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            record_dir: None,
            journal_sync: SyncPolicy::default(),
            journal_segment_bytes: 8 << 20,
            journal_queue: 1024,
            journal_stall_ms: 0,
        }
    }
}

/// Where the daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7171`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint string: `unix:PATH` selects a Unix socket,
    /// anything else is a TCP `host:port`.
    #[must_use]
    pub fn parse(s: &str) -> Endpoint {
        match s.strip_prefix("unix:") {
            Some(path) => Endpoint::Unix(PathBuf::from(path)),
            None => Endpoint::Tcp(s.to_owned()),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => f.write_str(addr),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A connected stream of either flavour: what the daemon serves, and
/// what the client, the replay and the chaos rig connect with.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Connects to `endpoint` (TCP with Nagle off), with `timeout` as the
    /// per-call read and write timeout (`None` blocks indefinitely).
    pub(crate) fn connect(endpoint: &Endpoint, timeout: Option<Duration>) -> io::Result<Stream> {
        let stream = match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        };
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(stream)
    }

    /// Sets the per-call read timeout (`None` blocks indefinitely).
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Sets the per-call write timeout (`None` blocks indefinitely).
    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            Stream::Unix(s) => s.set_write_timeout(t),
        }
    }
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

fn timeout_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, format!("{what} deadline exceeded"))
}

/// Whether an I/O error is a socket timeout (Linux reports `WouldBlock`
/// for `SO_RCVTIMEO`/`SO_SNDTIMEO` expiry, other platforms `TimedOut`).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Non-zero milliseconds as a `Duration`, 0 as "no limit".
fn ms(v: u64) -> Option<Duration> {
    (v > 0).then(|| Duration::from_millis(v))
}

/// Bytes a connection reads ahead: one `read(2)` takes a small request
/// frame whole, header and payload.
const READ_AHEAD: usize = 8 * 1024;

/// A stream wrapper enforcing deadline-aware I/O.
///
/// Per-call socket timeouts bound each `read(2)`/`write(2)`, but a client
/// trickling one byte per window resets them forever. The wrapper
/// additionally tracks when the current frame started (first byte read,
/// or `begin_write`) and shrinks the per-call timeout to the remaining
/// frame budget, so the *total* time per frame is bounded.
///
/// A socket timeout is set only when its value changes: outside the last
/// per-call window of a frame's budget, a connection's reads and writes
/// run under the same values from one request to the next. That holds
/// between frames too: a connection waiting for a frame's first byte
/// reads under the in-frame per-call timeout whenever the idle timeout
/// is none or longer, and retries on its expiry until the idle budget,
/// if any, is spent. Reads go through a [`READ_AHEAD`] buffer, so bytes
/// of the next frame that arrive with this one are kept for it.
struct DeadlineConn {
    inner: Stream,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    frame_deadline: Option<Duration>,
    idle_timeout: Option<Duration>,
    /// The read and write timeouts the socket carries now (an accepted
    /// socket starts with none).
    armed_read: Option<Duration>,
    armed_write: Option<Duration>,
    /// When the first byte of the in-flight request frame arrived.
    read_start: Option<Instant>,
    /// When the in-flight response write started.
    write_start: Option<Instant>,
    /// Read-ahead buffer; `ahead[pos..filled]` is not yet consumed.
    ahead: Box<[u8; READ_AHEAD]>,
    pos: usize,
    filled: usize,
    /// `set_read_timeout` calls so far.
    #[cfg(test)]
    read_arms: usize,
}

impl DeadlineConn {
    fn new(inner: Stream, cfg: &ServiceConfig) -> Self {
        DeadlineConn {
            inner,
            read_timeout: ms(cfg.read_timeout_ms),
            write_timeout: ms(cfg.write_timeout_ms),
            frame_deadline: ms(cfg.frame_deadline_ms),
            idle_timeout: ms(cfg.idle_timeout_ms),
            armed_read: None,
            armed_write: None,
            read_start: None,
            write_start: None,
            ahead: Box::new([0; READ_AHEAD]),
            pos: 0,
            filled: 0,
            #[cfg(test)]
            read_arms: 0,
        }
    }

    /// Arms the next request frame: the frame clock starts at its first
    /// byte, and until then only the idle timeout applies. Bytes already
    /// read ahead start the clock now.
    fn begin_read(&mut self) {
        self.read_start = (self.pos < self.filled).then(Instant::now);
        self.write_start = None;
    }

    /// Arms a response write: the frame clock starts now.
    fn begin_write(&mut self) {
        self.write_start = Some(Instant::now());
    }

    /// Remaining per-call budget for a frame started at `t0`, or a
    /// `TimedOut` error once the frame deadline is spent.
    fn call_budget(
        &self,
        t0: Instant,
        per_call: Option<Duration>,
        what: &str,
    ) -> io::Result<Option<Duration>> {
        let Some(deadline) = self.frame_deadline else {
            return Ok(per_call);
        };
        let remaining = deadline
            .checked_sub(t0.elapsed())
            .filter(|r| !r.is_zero())
            .ok_or_else(|| timeout_err(what))?;
        Ok(Some(per_call.map_or(remaining, |p| p.min(remaining))))
    }

    /// The read timeout while waiting `waited` for a frame's first byte:
    /// the per-call timeout a frame starts under, unless what is left of
    /// the idle budget is shorter.
    fn wait_timeout(&self, waited: Duration) -> Option<Duration> {
        let window = [self.read_timeout, self.frame_deadline]
            .into_iter()
            .flatten()
            .min();
        // A well-behaved client may sit here forever.
        let Some(idle) = self.idle_timeout else {
            return window;
        };
        let left = idle.saturating_sub(waited);
        Some(window.filter(|&w| w <= left).unwrap_or(left))
    }

    /// Sets the socket's read timeout for the next `read(2)`: while
    /// waiting for a frame to start, [`wait_timeout`](Self::wait_timeout),
    /// otherwise the frame's remaining per-call budget.
    fn arm_read(&mut self, waited: Duration) -> io::Result<()> {
        let t = match self.read_start {
            None => self.wait_timeout(waited),
            Some(t0) => self.call_budget(t0, self.read_timeout, "read frame")?,
        };
        if t != self.armed_read {
            self.inner.set_read_timeout(t)?;
            self.armed_read = t;
            #[cfg(test)]
            {
                self.read_arms += 1;
            }
        }
        Ok(())
    }

    /// One `read(2)`, into `buf` or, when `buf` is None, into the
    /// emptied read-ahead buffer; the frame clock starts at its first
    /// byte. While no byte of the frame has arrived, a timeout is retried
    /// until the idle budget, if any, is spent.
    fn read_socket(&mut self, mut buf: Option<&mut [u8]>) -> io::Result<usize> {
        let since = Instant::now();
        let mut waited = Duration::ZERO;
        loop {
            self.arm_read(waited)?;
            let got = match buf.as_deref_mut() {
                Some(buf) => self.inner.read(buf),
                None => self.inner.read(self.ahead.as_mut_slice()).inspect(|&n| {
                    (self.pos, self.filled) = (0, n);
                }),
            };
            match got {
                Err(e) if self.read_start.is_none() && is_timeout(&e) => {
                    waited = since.elapsed();
                    if self.idle_timeout.is_some_and(|idle| waited >= idle) {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
                Ok(n) => {
                    if n > 0 && self.read_start.is_none() {
                        self.read_start = Some(Instant::now());
                    }
                    return Ok(n);
                }
            }
        }
    }
}

impl io::Read for DeadlineConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.filled {
            // A read at least the buffer's size gains nothing from it.
            if buf.len() >= READ_AHEAD {
                return self.read_socket(Some(buf));
            }
            self.read_socket(None)?;
        }
        let mut ahead = self.ahead.get(self.pos..self.filled).unwrap_or_default();
        let n = ahead.read(buf)?;
        self.pos += n;
        Ok(n)
    }
}

impl io::Write for DeadlineConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let budget = match self.write_start {
            Some(t0) => self.call_budget(t0, self.write_timeout, "write frame")?,
            None => self.write_timeout,
        };
        if budget != self.armed_write {
            self.inner.set_write_timeout(budget)?;
            self.armed_write = budget;
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The outcome of running one job, on a worker (sent back to the waiting
/// connection thread) or inline on the connection thread itself.
enum WorkerReply {
    Done {
        schedule: Arc<PackedSchedule>,
        micros: u64,
    },
    Expired,
    /// The scheduler panicked; the message is the panic payload.
    Panicked(String),
}

/// One queued scheduling job.
struct Job {
    request: Box<ScheduleRequest>,
    fingerprint: u64,
    accepted_at: Instant,
    deadline: Option<Duration>,
    reply: mpsc::Sender<WorkerReply>,
}

/// The tenant-fair queue and the schedules running now. Both change
/// under one lock, so a job starts only while fewer than `workers`
/// schedules run, whether on a pool worker or on the connection thread
/// that received it.
struct JobQueue {
    ctl: OverloadCtl<Job>,
    /// Schedules running now.
    running: usize,
}

impl JobQueue {
    /// Pops the next job tenant-fairly and takes a schedule slot for it,
    /// or `None` when nothing is queued or all `workers` slots are taken.
    fn start(&mut self, workers: usize, now_us: u64) -> Option<Popped<Job>> {
        if self.running >= workers {
            return None;
        }
        let popped = self.ctl.pop(now_us)?;
        self.running += 1;
        Some(popped)
    }
}

/// Most per-tenant rows a `stats` reply carries (overflow folds into an
/// aggregate row, so the frame stays bounded under tenant churn).
const STATS_TENANT_ROWS: usize = 16;

/// State shared by the listener, connections, workers and supervisor.
struct Shared {
    cfg: ServiceConfig,
    /// The resolved endpoint (actual port for TCP binds of port 0); used
    /// to nudge the blocking accept loop awake on shutdown.
    endpoint: Endpoint,
    cache: ShardedLru<Arc<PackedSchedule>>,
    metrics: Metrics,
    /// Admission control + tenant-fair queue (replaces the old FIFO),
    /// with the count of running schedules.
    /// Named lock class: acquisition order is checked by `lockcheck`
    /// builds and the flb-analyze `lock-order` rule.
    queue: Mutex<JobQueue>,
    job_ready: Condvar,
    shutdown: AtomicBool,
    open_connections: AtomicU64,
    /// Clock origin for the overload layer's microsecond timestamps.
    epoch: Instant,
    /// Source of per-connection anonymous tenant identities.
    next_anon: AtomicU64,
    /// Worker threads currently alive (the supervisor tops this up).
    live_workers: AtomicU64,
    /// Join handles of every worker ever spawned (original + respawned).
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Bounded hand-off to the journal writer thread (`--record`).
    journal: Option<journal::Appender<Arc<PackedSchedule>>>,
}

impl Shared {
    /// Microseconds since the service started (the overload layer's
    /// monotone clock).
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Sets the shutdown flag and wakes every thread waiting on
    /// `job_ready` to look at it. The flag changes under the queue lock,
    /// so no waiter misses the wake-up and no miss is queued or started
    /// after it (`schedule_miss` reads it under the same lock).
    fn begin_shutdown(&self) {
        let _q = self.queue.lock();
        self.shutdown.store(true, Ordering::SeqCst);
        self.job_ready.notify_all();
    }

    /// Gauges plus the per-tenant stats rows, read under one queue lock
    /// so the pair is a consistent snapshot.
    fn stats_view(&self) -> (Gauges, Vec<crate::metrics::TenantStat>) {
        let now = self.now_us();
        let q = self.queue.lock();
        let q = &q.ctl;
        let gauges = Gauges {
            queue_depth: q.depth() as u64,
            workers: self.live_workers.load(Ordering::SeqCst),
            cache_entries: self.cache.len() as u64,
            open_connections: self.open_connections.load(Ordering::SeqCst),
            overload_state: q.state(),
            overload_transitions: q.transitions(),
            tenants_tracked: q.tenants_tracked() as u64,
        };
        let per_tenant = q.tenant_stats(now, STATS_TENANT_ROWS);
        (gauges, per_tenant)
    }

    /// Writes the warm-restart snapshot if a cache file is configured.
    fn save_snapshot(&self) {
        let Some(path) = &self.cfg.cache_file else {
            return;
        };
        match snapshot::save_atomic(path, &self.cache.entries()) {
            Ok(()) => Metrics::bump(&self.metrics.snapshot_saves),
            Err(e) => eprintln!(
                "flb-service: snapshot write to {} failed: {e}",
                path.display()
            ),
        }
    }
}

/// Renders a `catch_unwind` payload (panics carry `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Decrements the live-worker gauge when its thread exits — including by
/// unwind, so the supervisor sees dead workers no matter how they died.
struct WorkerSlot(Arc<Shared>);

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Worker loop: start the next queued job once a schedule slot is free,
/// run it, reply.
fn worker_loop(shared: &Arc<Shared>) {
    let _slot = WorkerSlot(Arc::clone(shared));
    loop {
        let popped = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(popped) = q.start(shared.cfg.workers, shared.now_us()) {
                    break popped;
                }
                if shared.shutdown.load(Ordering::SeqCst) && q.ctl.depth() == 0 {
                    return;
                }
                shared.job_ready.wait(&mut q);
            }
        };
        let job = popped.item;
        let hard_kill = is_hard_kill(shared, &job.request);
        // The client may have hung up while waiting; its problem.
        let _ = job.reply.send(run_job(shared, &popped.tenant, &job));
        if hard_kill {
            // Chaos hook: die after replying so the supervisor's respawn
            // path is exercised end-to-end.
            return;
        }
    }
}

/// Whether `request` asks its worker thread to die after replying
/// ([`HARD_PANIC_MARKER`]). Such a job always runs on the pool.
fn is_hard_kill(shared: &Shared, request: &ScheduleRequest) -> bool {
    shared.cfg.panic_injection && request.graph.name() == HARD_PANIC_MARKER
}

/// Runs a started job on the calling thread: drops it as expired if its
/// deadline passed while it queued, otherwise runs the scheduler
/// (panic-isolated) and populates the cache. Frees the job's schedule
/// slot before returning the reply.
fn run_job(shared: &Shared, tenant: &TenantId, job: &Job) -> WorkerReply {
    let waited = job.accepted_at.elapsed();
    if job.deadline.is_some_and(|d| waited > d) {
        Metrics::bump(&shared.metrics.expired);
        // A deadline blown while queued counts against the tenant's
        // breaker: a tenant whose work always expires is wasting slots.
        finish(shared, tenant, false);
        return WorkerReply::Expired;
    }
    let inject = shared.cfg.panic_injection;
    Metrics::bump(&shared.metrics.scheduler_invocations);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject && job.request.graph.name() == PANIC_MARKER {
            // flb-analyze: allow(no-panic-in-request-path, reason="chaos injection, gated by cfg.panic_injection and confined by the catch_unwind below")
            panic!("injected scheduler panic ({PANIC_MARKER})");
        }
        schedule_request(&job.request)
    }));
    match outcome {
        Ok(schedule) => {
            let schedule = Arc::new(PackedSchedule::from_schedule(&schedule));
            shared.cache.insert(job.fingerprint, Arc::clone(&schedule));
            let micros = job.accepted_at.elapsed().as_micros() as u64;
            shared.metrics.latency.record(micros);
            finish(shared, tenant, true);
            WorkerReply::Done { schedule, micros }
        }
        Err(payload) => {
            Metrics::bump(&shared.metrics.worker_panics);
            finish(shared, tenant, false);
            WorkerReply::Panicked(panic_message(payload.as_ref()))
        }
    }
}

/// Feeds a job's outcome into its tenant's breaker and frees its
/// schedule slot, waking a worker for any job queued behind the slot.
fn finish(shared: &Shared, tenant: &TenantId, ok: bool) {
    let mut q = shared.queue.lock();
    q.ctl.outcome(tenant, ok, shared.now_us());
    q.running -= 1;
    if shared.shutdown.load(Ordering::SeqCst) {
        // Every waiter has something to re-check: an idle worker whether
        // the queue is drained and it may exit, `join` whether the
        // inline runs are done.
        shared.job_ready.notify_all();
    } else if q.ctl.depth() > 0 {
        shared.job_ready.notify_one();
    }
}

/// Spawns one worker thread and registers it with the pool.
fn spawn_worker(shared: &Arc<Shared>) {
    shared.live_workers.fetch_add(1, Ordering::SeqCst);
    let worker = {
        let shared = Arc::clone(shared);
        thread::spawn(move || worker_loop(&shared))
    };
    shared.worker_handles.lock().push(worker);
}

/// Supervisor loop: tops the worker pool back up when a worker died.
fn supervisor_loop(shared: &Arc<Shared>) {
    let want = shared.cfg.workers as u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let live = shared.live_workers.load(Ordering::SeqCst);
        for _ in live..want {
            Metrics::bump(&shared.metrics.worker_respawns);
            spawn_worker(shared);
        }
        thread::sleep(Duration::from_millis(15));
    }
}

/// Periodic snapshot loop: writes the cache to disk every interval while
/// it keeps changing. The final shutdown snapshot is written by
/// [`ServiceHandle::join`] after the workers have drained.
fn snapshot_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.cfg.snapshot_interval_ms.max(1));
    let mut saved_version = shared.cache.version();
    let mut last_save = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(
            20.min(shared.cfg.snapshot_interval_ms.max(1)),
        ));
        if last_save.elapsed() < interval {
            continue;
        }
        let v = shared.cache.version();
        if v != saved_version {
            shared.save_snapshot();
            saved_version = v;
        }
        last_save = Instant::now();
    }
}

/// A connection's answer to one request.
enum Reply {
    /// A schedule, still shared with the cache and the journal: it is
    /// unpacked straight from the cache entry into the frame, never
    /// cloned.
    Schedule {
        cached: bool,
        micros: u64,
        schedule: Arc<PackedSchedule>,
    },
    /// Any other response.
    Other(Response),
}

impl Reply {
    /// The wire kind code of the response this reply encodes to.
    fn kind_code(&self) -> u8 {
        match self {
            Reply::Schedule { .. } => RESP_SCHEDULE,
            Reply::Other(resp) => resp.kind_code(),
        }
    }

    /// The schedule the journal digests, if any.
    fn schedule(&self) -> Option<Arc<PackedSchedule>> {
        match self {
            Reply::Schedule { schedule, .. } => Some(Arc::clone(schedule)),
            Reply::Other(_) => None,
        }
    }

    /// Writes the reply as one frame.
    fn write(&self, w: &mut impl io::Write) -> io::Result<()> {
        match self {
            Reply::Schedule {
                cached,
                micros,
                schedule,
            } => write_schedule_reply(w, *cached, *micros, schedule),
            Reply::Other(resp) => write_response(w, resp),
        }
    }
}

/// Counts a schedule request of algorithm `alg`.
fn count_schedule_request(shared: &Shared, alg: AlgorithmId) {
    Metrics::bump(&shared.metrics.schedule_requests);
    shared.metrics.count_algorithm(alg);
}

/// Answers a cache hit on a request whose service started at `t0`.
fn cache_hit(shared: &Shared, schedule: Arc<PackedSchedule>, t0: Instant) -> Reply {
    Metrics::bump(&shared.metrics.cache_hits);
    let micros = t0.elapsed().as_micros() as u64;
    shared.metrics.latency.record(micros);
    Reply::Schedule {
        cached: true,
        micros,
        schedule,
    }
}

/// The tenant a request is accounted to: its name, or else the
/// connection it came in on.
fn tenant_id(tenant: &str, conn_id: u64) -> TenantId {
    if tenant.is_empty() {
        TenantId::Anon(conn_id)
    } else {
        TenantId::Named(tenant.to_owned())
    }
}

/// Answers a split schedule request whose service started at `t0`: from
/// the cache on a hit, otherwise by building its request from the split
/// and queueing it. `Err` is [`decode_request`]'s verdict on a payload
/// that splits but does not build; nothing is counted then.
fn schedule_reply(
    shared: &Shared,
    f: &ScheduleFields<'_>,
    payload: &[u8],
    conn_id: u64,
    t0: Instant,
) -> Result<Reply, WireError> {
    let key = f.key();
    if let Some(schedule) = shared.cache.get(key) {
        Metrics::bump(&shared.metrics.requests);
        count_schedule_request(shared, f.algorithm);
        return Ok(cache_hit(shared, schedule, t0));
    }
    let Some(request) = split_request(f) else {
        // The build rejects what decoding rejects; decoding says why.
        return Err(decode_request(payload)
            .err()
            .unwrap_or_else(|| WireError::Malformed("schedule request does not build".into())));
    };
    Metrics::bump(&shared.metrics.requests);
    let tenant = tenant_id(f.tenant, conn_id);
    Ok(serve_schedule(
        shared,
        Box::new(request),
        key,
        f.deadline_ms,
        &tenant,
    ))
}

/// Serves one cache miss end-to-end under cache key `key`.
///
/// Cache hits never get here: they bypass admission entirely — answering
/// from memory costs the daemon almost nothing, so quotas only govern
/// the expensive path.
fn serve_schedule(
    shared: &Shared,
    request: Box<ScheduleRequest>,
    key: u64,
    deadline_ms: u64,
    tenant: &TenantId,
) -> Reply {
    let t0 = Instant::now();
    count_schedule_request(shared, request.algorithm);
    Metrics::bump(&shared.metrics.cache_misses);

    let busy = Reply::Other(Response::Busy {
        retry_after_ms: shared.cfg.retry_after_ms,
    });
    let hard_kill = is_hard_kill(shared, &request);
    let (tx, rx) = mpsc::channel();
    let job = Job {
        request,
        fingerprint: key,
        accepted_at: t0,
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        reply: tx,
    };
    // Admission is decided as for any miss. An admitted job that finds
    // the queue otherwise empty and a schedule slot free then runs right
    // here: handing it to a worker would cost a wake-up and a reply
    // channel round trip, and change nothing else.
    let (decision, inline) = {
        let mut q = shared.queue.lock();
        if shared.shutdown.load(Ordering::SeqCst) {
            // The workers may be gone, and `join` may have seen the last
            // inline run end: a job taken now might never run.
            drop(q);
            Metrics::bump(&shared.metrics.rejected);
            return busy;
        }
        let now = shared.now_us();
        let decision = q.ctl.offer(tenant, job, now);
        let alone = decision == Decision::Admitted && q.ctl.depth() == 1;
        let inline = if alone && !hard_kill {
            q.start(shared.cfg.workers, now)
        } else {
            None
        };
        (decision, inline)
    };
    match decision {
        Decision::Admitted => {
            if inline.is_none() {
                shared.job_ready.notify_one();
            }
        }
        Decision::Busy => {
            Metrics::bump(&shared.metrics.rejected);
            return busy;
        }
        Decision::Shed { retry_after_ms } => {
            Metrics::bump(&shared.metrics.shed);
            return Reply::Other(Response::Overloaded { retry_after_ms });
        }
        Decision::BreakerOpen { retry_after_ms } => {
            Metrics::bump(&shared.metrics.breaker_rejected);
            return Reply::Other(Response::BreakerOpen { retry_after_ms });
        }
    }
    let reply = match inline {
        Some(popped) => Ok(run_job(shared, &popped.tenant, &popped.item)),
        None => rx.recv(),
    };
    match reply {
        Ok(WorkerReply::Done { schedule, micros }) => Reply::Schedule {
            cached: false,
            micros,
            schedule,
        },
        Ok(WorkerReply::Expired) => Reply::Other(Response::Expired),
        Ok(WorkerReply::Panicked(msg)) => {
            Metrics::bump(&shared.metrics.errors);
            Reply::Other(Response::Error(format!("scheduler panicked: {msg}")))
        }
        // All workers gone: shutdown raced the request.
        Err(_) => Reply::Other(Response::ShuttingDown),
    }
}

/// Counts an erroneous request and answers it with `msg`; the caller
/// then closes the connection.
fn reject(shared: &Shared, conn: &mut DeadlineConn, msg: impl ToString) {
    Metrics::bump(&shared.metrics.errors);
    conn.begin_write();
    let _ = write_response(conn, &Response::Error(msg.to_string()));
}

/// Protocol loop for one accepted connection. `conn_id` seeds the
/// anonymous tenant identity for requests that carry no tenant name.
fn connection_loop(shared: &Arc<Shared>, conn: &mut DeadlineConn, conn_id: u64) {
    loop {
        conn.begin_read();
        // The frame is read raw and decoded separately so the payload
        // bytes can move into the journal without a second encode.
        let payload = match read_frame(conn) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean disconnect
            Err(e) if is_timeout(&e) => {
                // Slow sender: evict. The goodbye is best-effort and
                // itself bounded by the write budget.
                Metrics::bump(&shared.metrics.io_timeouts);
                Metrics::bump(&shared.metrics.evicted_slow);
                conn.begin_write();
                let _ = write_response(conn, &Response::Error("i/o deadline exceeded".into()));
                return;
            }
            Err(e) => return reject(shared, conn, e),
        };
        let t0 = Instant::now();
        let ts_us = shared.now_us();
        // A schedule request is split once: its key, the cache lookup
        // and a miss's request all come from that split.
        let (reply, journal_this) = match ScheduleFields::split(&payload) {
            Some(f) => match schedule_reply(shared, &f, &payload, conn_id, t0) {
                Ok(reply) => (reply, true),
                Err(e) => return reject(shared, conn, e),
            },
            None => {
                let request = match decode_request(&payload) {
                    Ok(req) => req,
                    Err(e) => return reject(shared, conn, e),
                };
                Metrics::bump(&shared.metrics.requests);
                match request {
                    Request::Ping => (Reply::Other(Response::Pong), false),
                    Request::Stats => {
                        let (gauges, per_tenant) = shared.stats_view();
                        let stats = shared.metrics.snapshot(gauges, per_tenant);
                        (Reply::Other(Response::Stats(Box::new(stats))), false)
                    }
                    Request::Shutdown => {
                        // Answer the client *before* tearing the daemon
                        // down: once the flag is set, the accept loop and
                        // workers exit and the process may finish before a
                        // late write reaches the wire.
                        conn.begin_write();
                        let _ = write_response(conn, &Response::ShuttingDown);
                        shared.begin_shutdown();
                        nudge_accept_loop(&shared.endpoint);
                        return;
                    }
                    // Every schedule payload that decodes also splits.
                    Request::Schedule { .. } => {
                        return reject(shared, conn, "schedule request does not split")
                    }
                }
            }
        };
        // Journal the served request (schedule traffic only — that is
        // the replayable stream). `append` is a bounded try_send: it
        // never blocks this thread, whatever the disk is doing.
        if journal_this {
            if let Some(j) = &shared.journal {
                j.append(journal::JournalEvent {
                    ts_us,
                    conn_id,
                    reply_kind: reply.kind_code(),
                    reply: reply.schedule(),
                    request: payload,
                });
            }
        }
        conn.begin_write();
        if let Err(e) = reply.write(conn) {
            if is_timeout(&e) {
                // Unresponsive reader: evict.
                Metrics::bump(&shared.metrics.io_timeouts);
                Metrics::bump(&shared.metrics.evicted_slow);
            }
            return; // client went away (or stopped draining) mid-reply
        }
    }
}

/// Generalises over the two listener flavours.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Waits for the next connection; a TCP one gets Nagle off.
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l, _) => Ok(Stream::Unix(l.accept()?.0)),
        }
    }
}

/// A running service instance.
///
/// Dropping the handle does *not* stop the daemon; call
/// [`shutdown`](Self::shutdown) (or send a protocol `shutdown` request)
/// and then [`join`](Self::join).
pub struct ServiceHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    snapshotter: Option<JoinHandle<()>>,
    journal: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The endpoint the daemon is reachable on. For TCP binds this
    /// carries the *actual* port (useful after binding port 0).
    #[must_use]
    pub fn endpoint(&self) -> Endpoint {
        self.shared.endpoint.clone()
    }

    /// Requests shutdown from within the process.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        nudge_accept_loop(&self.shared.endpoint);
    }

    /// Waits until the daemon has stopped (after a [`shutdown`] call or a
    /// protocol `shutdown` request), joins its threads, and writes the
    /// final warm-restart snapshot when a cache file is configured.
    ///
    /// [`shutdown`]: Self::shutdown
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The supervisor exits on the shutdown flag; joining it first
        // guarantees no new workers appear while we drain the pool.
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        loop {
            let handles: Vec<_> = self.shared.worker_handles.lock().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for w in handles {
                let _ = w.join();
            }
        }
        // Misses running on connection threads insert into the cache
        // too; the final snapshot waits for them as for the workers.
        // Each of them signals `job_ready` as it finishes.
        {
            let mut q = self.shared.queue.lock();
            while q.running > 0 {
                self.shared.job_ready.wait(&mut q);
            }
        }
        if let Some(snapshotter) = self.snapshotter.take() {
            let _ = snapshotter.join();
        }
        // The journal writer drains its queue on shutdown; joining it
        // here makes every acknowledged-and-enqueued record durable
        // before the caller sees the daemon as stopped.
        if let Some(journal) = self.journal.take() {
            let _ = journal.join();
        }
        // All cache writers are gone: the final snapshot is complete.
        self.shared.save_snapshot();
        // Connection threads are detached; give in-flight responses a
        // bounded grace period to flush before the caller exits.
        for _ in 0..200 {
            if self.shared.open_connections.load(Ordering::SeqCst) == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Connections currently open (a gauge, for diagnostics).
    #[must_use]
    pub fn open_connections(&self) -> u64 {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Worker threads currently alive (a gauge; the supervisor keeps it
    /// at the configured pool size).
    #[must_use]
    pub fn live_workers(&self) -> u64 {
        self.shared.live_workers.load(Ordering::SeqCst)
    }
}

/// Pokes the (blocking) accept loop so it observes the shutdown flag.
fn nudge_accept_loop(endpoint: &Endpoint) {
    let _ = Stream::connect(endpoint, None);
}

fn spawn_connection(shared: &Arc<Shared>, stream: Stream) {
    let shared = Arc::clone(shared);
    shared.open_connections.fetch_add(1, Ordering::SeqCst);
    let conn_id = shared.next_anon.fetch_add(1, Ordering::SeqCst);
    thread::spawn(move || {
        let mut conn = DeadlineConn::new(stream, &shared.cfg);
        connection_loop(&shared, &mut conn, conn_id);
        shared.open_connections.fetch_sub(1, Ordering::SeqCst);
    });
}

/// Binds a Unix socket, handling a stale file left by a crashed daemon:
/// the file is only removed if nothing answers on it, so a *live*
/// server's socket (and, transitively, its snapshot file) is never
/// clobbered by a second instance.
fn bind_unix(path: &PathBuf) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a live server is already listening on {}", path.display()),
                ));
            }
            std::fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

/// Loads the warm-restart snapshot into the cache; a corrupt file is
/// quarantined and boot continues with an empty cache.
fn load_snapshot_on_boot(shared: &Shared) {
    let Some(path) = &shared.cfg.cache_file else {
        return;
    };
    match snapshot::load(path) {
        Ok(entries) => {
            let n = entries.len() as u64;
            for (fp, schedule) in entries {
                shared.cache.insert(fp, Arc::new(schedule));
            }
            shared.metrics.snapshot_loaded.store(n, Ordering::Relaxed);
        }
        Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {} // fresh start
        Err(SnapshotError::Io(e)) => {
            eprintln!(
                "flb-service: cannot read snapshot {}: {e}; starting cold",
                path.display()
            );
        }
        Err(SnapshotError::Corrupt(msg)) => {
            Metrics::bump(&shared.metrics.snapshot_quarantined);
            match snapshot::quarantine_capped(path, snapshot::QUARANTINE_KEEP) {
                Ok((q, pruned)) => {
                    shared
                        .metrics
                        .journal
                        .pruned
                        .fetch_add(pruned, Ordering::Relaxed);
                    eprintln!(
                        "flb-service: {msg}; quarantined {} -> {}",
                        path.display(),
                        q.display()
                    );
                }
                Err(e) => eprintln!(
                    "flb-service: {msg}; quarantine of {} failed: {e}",
                    path.display()
                ),
            }
        }
    }
}

/// Binds the endpoint and starts the daemon: one accept thread, the
/// (self-healing) worker pool, the snapshotter, and a thread per
/// accepted connection.
pub fn serve(endpoint: &Endpoint, cfg: ServiceConfig) -> io::Result<ServiceHandle> {
    let cfg = ServiceConfig {
        workers: cfg.workers.max(1),
        queue_capacity: cfg.queue_capacity.max(1),
        ..cfg
    };
    let listener = match endpoint {
        Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
        Endpoint::Unix(path) => Listener::Unix(bind_unix(path)?, path.clone()),
    };
    let resolved = match &listener {
        Listener::Tcp(l) => Endpoint::Tcp(l.local_addr()?.to_string()),
        Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
    };

    let overload = OverloadConfig {
        queue_capacity: cfg.queue_capacity,
        tenant_rate: cfg.tenant_rate,
        tenant_burst: cfg.tenant_burst,
        shed_policy: cfg.shed_policy,
        reserved_slots: cfg.reserved_slots,
        tenant_backlog_cap: cfg.tenant_backlog_cap,
        breaker_threshold: cfg.breaker_threshold,
        breaker_cooldown_ms: cfg.breaker_cooldown_ms,
        retry_after_ms: cfg.retry_after_ms,
        ..OverloadConfig::default()
    };
    let metrics = Metrics::default();

    // Journal recovery happens *before* the listener starts serving so
    // a crashed run's torn tail is healed exactly once, with no writer
    // racing the scan. Recovery never refuses to start: a broken
    // journal directory simply means we serve without recording.
    let mut journal_writer_parts = None;
    let mut journal_appender = None;
    if let Some(dir) = &cfg.record_dir {
        match journal::recover_dir(dir) {
            Ok(rec) => {
                metrics
                    .journal
                    .recovered
                    .store(rec.records, Ordering::Relaxed);
                metrics
                    .journal
                    .truncated_bytes
                    .store(rec.truncated_bytes, Ordering::Relaxed);
                metrics
                    .journal
                    .quarantined
                    .store(rec.quarantined, Ordering::Relaxed);
                metrics.journal.pruned.store(rec.pruned, Ordering::Relaxed);
                let (appender, rx) =
                    journal::channel(cfg.journal_queue, Arc::clone(&metrics.journal));
                journal_appender = Some(appender);
                journal_writer_parts = Some((
                    journal::WriterConfig {
                        dir: dir.clone(),
                        sync: cfg.journal_sync,
                        segment_bytes: cfg.journal_segment_bytes,
                        stall_ms: cfg.journal_stall_ms,
                    },
                    rx,
                    rec.next_index,
                ));
            }
            Err(e) => {
                eprintln!(
                    "flb-service: journal recovery in {} failed: {e}; serving without recording",
                    dir.display()
                );
            }
        }
    }

    let shared = Arc::new(Shared {
        endpoint: resolved,
        cache: ShardedLru::new(cfg.cache_capacity, cfg.cache_shards),
        metrics,
        queue: Mutex::named(
            "queue",
            JobQueue {
                ctl: OverloadCtl::new(overload),
                running: 0,
            },
        ),
        job_ready: Condvar::new(),
        shutdown: AtomicBool::new(false),
        open_connections: AtomicU64::new(0),
        epoch: Instant::now(),
        next_anon: AtomicU64::new(1),
        live_workers: AtomicU64::new(0),
        worker_handles: Mutex::named("worker-handles", Vec::new()),
        journal: journal_appender,
        cfg,
    });

    load_snapshot_on_boot(&shared);

    let journal_thread = journal_writer_parts.map(|(wcfg, rx, start_index)| {
        let counters = Arc::clone(&shared.metrics.journal);
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            journal::writer_loop(&wcfg, &rx, &counters, start_index, &|| {
                shared.shutdown.load(Ordering::SeqCst)
            });
        })
    });

    for _ in 0..shared.cfg.workers {
        spawn_worker(&shared);
    }
    let supervisor = {
        let shared = Arc::clone(&shared);
        Some(thread::spawn(move || supervisor_loop(&shared)))
    };
    let snapshotter = if shared.cfg.cache_file.is_some() && shared.cfg.snapshot_interval_ms > 0 {
        let shared = Arc::clone(&shared);
        Some(thread::spawn(move || snapshot_loop(&shared)))
    } else {
        None
    };

    let accept = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            loop {
                let stream = listener.accept();
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(s) = stream {
                    spawn_connection(&shared, s);
                }
            }
            if let Listener::Unix(_, path) = &listener {
                let _ = std::fs::remove_file(path);
            }
            // Wake every worker so they observe the flag and exit.
            shared.begin_shutdown();
        })
    };

    Ok(ServiceHandle {
        shared,
        accept: Some(accept),
        supervisor,
        snapshotter,
        journal: journal_thread,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_sched::Machine;

    #[test]
    fn endpoint_parse_and_display() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:7171"),
            Endpoint::Tcp("127.0.0.1:7171".into())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/flb.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/flb.sock"))
        );
        assert_eq!(Endpoint::parse("unix:/a b").to_string(), "unix:/a b");
        assert_eq!(Endpoint::parse("[::1]:80").to_string(), "[::1]:80");
    }

    #[test]
    fn config_default_is_sane() {
        let cfg = ServiceConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.queue_capacity >= 1);
        assert!(cfg.cache_capacity >= 1);
        assert!(!cfg.panic_injection, "injection must be off by default");
        assert!(cfg.cache_file.is_none());
        assert!(cfg.frame_deadline_ms > 0, "loris defence on by default");
    }

    #[test]
    fn timeout_classification() {
        assert!(is_timeout(&io::Error::from(io::ErrorKind::TimedOut)));
        assert!(is_timeout(&io::Error::from(io::ErrorKind::WouldBlock)));
        assert!(!is_timeout(&io::Error::from(io::ErrorKind::BrokenPipe)));
        assert_eq!(ms(0), None);
        assert_eq!(ms(250), Some(Duration::from_millis(250)));
    }

    /// Under the default timeouts a connection's socket keeps one read
    /// timeout from frame to frame: ten 40 KB frames, each larger than
    /// the read-ahead buffer, cost at most one `set_read_timeout`.
    #[test]
    fn large_frames_keep_one_read_timeout() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut conn = DeadlineConn::new(Stream::Unix(a), &ServiceConfig::default());
        let payload: Vec<u8> = (0..40 * 1024).map(|i| (i % 251) as u8).collect();
        let writer = {
            let payload = payload.clone();
            thread::spawn(move || {
                for _ in 0..10 {
                    crate::proto::write_frame(&mut b, &payload).unwrap();
                }
            })
        };
        for _ in 0..10 {
            conn.begin_read();
            assert_eq!(read_frame(&mut conn).unwrap(), Some(payload.clone()));
        }
        writer.join().unwrap();
        assert!(conn.read_arms <= 1, "{} read timeouts set", conn.read_arms);
    }

    /// Waiting for a frame under a per-call timeout shorter than the
    /// wait: with no idle timeout the connection is kept and the late
    /// frame read; with one, the wait ends once the idle budget is spent.
    #[test]
    fn idle_waits_outlast_the_per_call_timeout() {
        let cfg = ServiceConfig {
            read_timeout_ms: 20,
            ..ServiceConfig::default()
        };
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut conn = DeadlineConn::new(Stream::Unix(a), &cfg);
        let writer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(120));
            crate::proto::write_frame(&mut b, b"late").unwrap();
        });
        conn.begin_read();
        assert_eq!(read_frame(&mut conn).unwrap(), Some(b"late".to_vec()));
        writer.join().unwrap();

        let (a, _b) = UnixStream::pair().unwrap();
        let mut conn = DeadlineConn::new(
            Stream::Unix(a),
            &ServiceConfig {
                idle_timeout_ms: 90,
                ..cfg
            },
        );
        let t0 = Instant::now();
        conn.begin_read();
        let err = read_frame(&mut conn).unwrap_err();
        assert!(is_timeout(&err), "{err}");
        assert!(
            t0.elapsed() >= Duration::from_millis(90),
            "{:?}",
            t0.elapsed()
        );
    }

    /// More concurrent slow misses than workers: runs on the pool and on
    /// connection threads together never exceed `workers` schedules, and
    /// a job queued behind full slots starts as soon as one frees.
    #[test]
    fn slow_misses_never_run_more_than_workers_schedules_at_once() {
        use crate::client::{Client, Submission};
        use flb_graph::costs::CostModel;
        use flb_graph::gen::Family;
        use std::sync::Barrier;

        const WORKERS: usize = 2;
        const CLIENTS: usize = 6;
        let handle = serve(
            &Endpoint::parse("127.0.0.1:0"),
            ServiceConfig {
                workers: WORKERS,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (shared, done) = (Arc::clone(&handle.shared), Arc::clone(&done));
            thread::spawn(move || {
                // Most schedules seen running, and the longest stretch a
                // job sat queued while a slot was free.
                let (mut peak, mut stalled, mut since) = (0, Duration::ZERO, None);
                while !done.load(Ordering::SeqCst) {
                    let (running, depth) = {
                        let q = shared.queue.lock();
                        (q.running, q.ctl.depth())
                    };
                    peak = peak.max(running);
                    if depth > 0 && running < WORKERS {
                        let t0: Instant = *since.get_or_insert_with(Instant::now);
                        stalled = stalled.max(t0.elapsed());
                    } else {
                        since = None;
                    }
                    thread::sleep(Duration::from_micros(200));
                }
                (peak, stalled)
            })
        };
        let start = Arc::new(Barrier::new(CLIENTS));
        let (tx, rx) = mpsc::channel();
        let mut clients = Vec::new();
        for seed in 0..CLIENTS as u64 {
            let (endpoint, start, tx) = (handle.endpoint(), Arc::clone(&start), tx.clone());
            clients.push(thread::spawn(move || {
                // ETF on distinct mid-sized graphs: every request misses
                // and keeps its slot for a while.
                let graph = CostModel::paper_default(1.0).apply(&Family::Lu.topology(1000), seed);
                let mut client = Client::connect(&endpoint).unwrap();
                start.wait();
                let reply = client.schedule(AlgorithmId::Etf, graph, Machine::new(8), 0);
                let _ = tx.send(matches!(reply, Ok(Submission::Done(ref r)) if !r.cached));
            }));
        }
        for _ in 0..CLIENTS {
            let served = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("every miss is answered; a queued one must not wait for ever");
            assert!(served, "every miss is scheduled");
        }
        for client in clients {
            client.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        let (peak, stalled) = sampler.join().unwrap();
        assert_eq!(
            peak, WORKERS,
            "at most `workers` schedules at once, and all slots used"
        );
        assert!(
            stalled < Duration::from_millis(500),
            "a queued job waited {stalled:?} behind a free slot"
        );
        handle.shutdown();
        handle.join();
    }

    /// Shutdown while a miss is queued behind inline runs that hold
    /// every slot: the pool drains the queue and `join` returns. Both
    /// workers wait for a slot when shutdown wakes them; the one that
    /// does not get the queued job must be woken again to exit.
    #[test]
    fn shutdown_behind_inline_runs_that_hold_every_slot_joins() {
        const WORKERS: usize = 2;
        let handle = serve(
            &Endpoint::parse("127.0.0.1:0"),
            ServiceConfig {
                workers: WORKERS,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let shared = Arc::clone(&handle.shared);
        let tenant = TenantId::Named("t".into());
        // Two inline runs hold both slots, as `schedule_miss` takes
        // them, and a third miss is queued behind them.
        let (tx, rx) = mpsc::channel();
        {
            let mut q = shared.queue.lock();
            q.running = WORKERS;
            let request =
                ScheduleRequest::new(AlgorithmId::Flb, flb_graph::paper::fig1(), Machine::new(2));
            let job = Job {
                request: Box::new(request),
                fingerprint: 1,
                accepted_at: Instant::now(),
                deadline: None,
                reply: tx,
            };
            let admitted = q.ctl.offer(&tenant, job, shared.now_us());
            assert!(admitted == Decision::Admitted);
        }
        shared.job_ready.notify_one();
        handle.shutdown();
        // Give both workers time to find the slots taken and wait again.
        thread::sleep(Duration::from_millis(50));
        // The first inline run ends and a worker runs the queued job;
        // the second inline run then ends with nothing queued.
        finish(&shared, &tenant, true);
        let reply = rx.recv_timeout(Duration::from_secs(30));
        assert!(
            matches!(reply, Ok(WorkerReply::Done { .. })),
            "the queued job runs during shutdown"
        );
        finish(&shared, &tenant, true);
        let (joined_tx, joined) = mpsc::channel();
        thread::spawn(move || {
            handle.join();
            let _ = joined_tx.send(());
        });
        joined
            .recv_timeout(Duration::from_secs(30))
            .expect("join returns once the queue is drained");
    }
}
