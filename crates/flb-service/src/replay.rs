//! Trace replay: drives a live daemon with recorded request frames.
//!
//! A recorded journal (see [`crate::journal`]) holds the raw request
//! payloads exactly as they arrived on the wire, plus a digest of each
//! schedule reply. Replay re-sends those payloads — optionally paced by
//! the recorded timestamps — and, for records whose recorded reply was
//! deterministic (a schedule, not a busy/shed answer), verifies that
//! the daemon produces a byte-identical schedule today.
//!
//! Load-dependent fields (`cached`, `micros`) and load-dependent
//! outcomes (busy, overloaded, breaker-open) are never compared:
//! equivalence is checked on the schedule bytes alone.
//!
//! This module is on the lint-checked request path (`flb analyze`
//! `no-panic-in-request-path`): it must stay free of panics so a
//! hostile or stale trace can never crash the replay rig.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::journal::{self, JournalRecord};
use crate::metrics::LatencyHistogram;
use crate::proto::{read_frame, write_frame, Response};
use crate::server::Endpoint;

/// How many times a busy/overloaded/breaker answer is retried before
/// the record is counted as an error.
const MAX_RETRIES: u32 = 50;

/// Per-attempt backoff ceiling, so a hostile `retry_after_ms` hint in
/// a reply cannot stall the replay.
const MAX_BACKOFF_MS: u64 = 50;

/// At most this many failure messages are kept (all are counted).
const MAX_FAILURES: usize = 10;

/// Replay configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Time dilation: `1.0` replays at recorded speed, `2.0` twice as
    /// fast, `0.0` (or negative) as fast as the daemon answers.
    pub speed: f64,
    /// Verify schedule replies against the recorded digests.
    pub check: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            speed: 0.0,
            check: true,
        }
    }
}

/// What happened during a replay run.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Records sent to the daemon.
    pub sent: u64,
    /// Deterministic records whose schedule digest matched the recording.
    pub matched: u64,
    /// Deterministic records whose schedule digest did NOT match.
    pub mismatched: u64,
    /// Records with a load-dependent recorded reply (busy/shed/...):
    /// replayed for load, skipped for equivalence.
    pub skipped: u64,
    /// Records that could not be served (I/O errors, expired, error
    /// replies, retries exhausted).
    pub errors: u64,
    /// Wall-clock time of the whole replay.
    pub elapsed: Duration,
    /// p50 service latency over successful replies, in microseconds.
    pub p50_us: u64,
    /// p99 service latency over successful replies, in microseconds.
    pub p99_us: u64,
    /// First few failure descriptions (mismatches and errors).
    pub failures: Vec<String>,
}

impl ReplayReport {
    /// True when every deterministic record matched and nothing errored.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.mismatched == 0 && self.errors == 0
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < MAX_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "replay report");
        let _ = writeln!(out, "  sent        {}", self.sent);
        let _ = writeln!(out, "  matched     {}", self.matched);
        let _ = writeln!(out, "  mismatched  {}", self.mismatched);
        let _ = writeln!(out, "  skipped     {}", self.skipped);
        let _ = writeln!(out, "  errors      {}", self.errors);
        let _ = writeln!(out, "  elapsed_ms  {}", self.elapsed.as_millis());
        let _ = writeln!(out, "  p50_us      {}", self.p50_us);
        let _ = writeln!(out, "  p99_us      {}", self.p99_us);
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL: {f}");
        }
        out
    }
}

/// A raw frame-level connection (the replay sends recorded payloads
/// verbatim, so the typed [`crate::Client`] is the wrong tool).
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        let conn = match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(Duration::from_secs(10)))?;
                s.set_write_timeout(Some(Duration::from_secs(10)))?;
                Conn::Tcp(s)
            }
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(Some(Duration::from_secs(10)))?;
                s.set_write_timeout(Some(Duration::from_secs(10)))?;
                Conn::Unix(s)
            }
        };
        Ok(conn)
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// One request/response exchange; decodes the response payload.
fn exchange(conn: &mut Conn, payload: &[u8]) -> io::Result<Response> {
    write_frame(conn, payload)?;
    conn.flush()?;
    match read_frame(conn)? {
        Some(resp) => crate::proto::decode_response(&resp)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection mid-replay",
        )),
    }
}

/// The outcome of replaying a single record.
enum One {
    /// A schedule reply, with the digest of its schedule bytes.
    Schedule { digest: u64, micros: u64 },
    /// A terminal non-schedule reply (expired / error / shutdown).
    Refused(String),
    /// Transport trouble; the caller should reconnect.
    Io(io::Error),
}

/// Replays one record, absorbing bounded busy/shed backpressure.
fn replay_one(conn: &mut Conn, rec: &JournalRecord) -> One {
    for _ in 0..=MAX_RETRIES {
        let started = Instant::now();
        let resp = match exchange(conn, &rec.request) {
            Ok(r) => r,
            Err(e) => return One::Io(e),
        };
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        match resp {
            Response::Schedule { schedule, .. } => {
                let digest = journal::schedule_digest(&schedule);
                return One::Schedule { digest, micros };
            }
            Response::Busy { retry_after_ms }
            | Response::Overloaded { retry_after_ms }
            | Response::BreakerOpen { retry_after_ms } => {
                std::thread::sleep(Duration::from_millis(
                    retry_after_ms.clamp(1, MAX_BACKOFF_MS),
                ));
            }
            Response::Expired => return One::Refused("deadline expired".into()),
            Response::Error(msg) => return One::Refused(format!("error reply: {msg}")),
            Response::ShuttingDown => return One::Refused("daemon shutting down".into()),
            Response::Stats(_) | Response::Pong => {
                return One::Refused("unexpected reply kind for a schedule frame".into())
            }
        }
    }
    One::Refused(format!("still shed after {MAX_RETRIES} retries"))
}

/// Replays `records` against the daemon at `endpoint`.
///
/// Pacing follows the recorded inter-arrival gaps scaled by
/// [`ReplayConfig::speed`]; with `speed <= 0` records are sent
/// back-to-back. Transport errors reconnect once per record before the
/// record is counted as an error — a flaky daemon degrades the report,
/// it never aborts the run.
#[must_use]
pub fn replay_records(
    endpoint: &Endpoint,
    records: &[JournalRecord],
    cfg: &ReplayConfig,
) -> ReplayReport {
    let mut report = ReplayReport::default();
    let latency = LatencyHistogram::default();
    let started = Instant::now();
    let base_ts = records.first().map_or(0, |r| r.ts_us);
    let mut conn = match Conn::connect(endpoint) {
        Ok(c) => Some(c),
        Err(e) => {
            report.errors = records.len() as u64;
            report.fail(format!("cannot connect to {endpoint}: {e}"));
            report.elapsed = started.elapsed();
            return report;
        }
    };
    for (i, rec) in records.iter().enumerate() {
        if cfg.speed > 0.0 {
            let gap_us = rec.ts_us.saturating_sub(base_ts) as f64 / cfg.speed;
            let target = Duration::from_micros(gap_us as u64);
            let elapsed = started.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
        // One reconnect attempt per record: a daemon restart mid-trace
        // costs the in-flight record, not the rest of the run.
        let mut outcome = match conn.as_mut() {
            Some(c) => replay_one(c, rec),
            None => One::Io(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        };
        if let One::Io(_) = outcome {
            conn = Conn::connect(endpoint).ok();
            if let Some(c) = conn.as_mut() {
                outcome = replay_one(c, rec);
            }
        }
        report.sent += 1;
        match outcome {
            One::Schedule { digest, micros } => {
                latency.record(micros);
                if rec.is_deterministic() && cfg.check {
                    if digest == rec.reply_digest {
                        report.matched += 1;
                    } else {
                        report.mismatched += 1;
                        report.fail(format!(
                            "record {i}: schedule digest {digest:#018x} != recorded {:#018x}",
                            rec.reply_digest
                        ));
                    }
                } else {
                    report.skipped += 1;
                }
            }
            One::Refused(why) => {
                report.errors += 1;
                report.fail(format!("record {i}: {why}"));
            }
            One::Io(e) => {
                report.errors += 1;
                report.fail(format!("record {i}: i/o failure: {e}"));
                conn = None;
            }
        }
    }
    report.elapsed = started.elapsed();
    report.p50_us = latency.quantile(0.50);
    report.p99_us = latency.quantile(0.99);
    report
}

/// Reads a trace (journal directory or single segment file) and replays
/// it against `endpoint`.
pub fn replay_trace(
    endpoint: &Endpoint,
    trace: &Path,
    cfg: &ReplayConfig,
) -> io::Result<ReplayReport> {
    let records = journal::read_trace(trace)?;
    if records.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace {} holds no records", trace.display()),
        ));
    }
    Ok(replay_records(endpoint, &records, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServiceConfig};
    use flb_core::{AlgorithmId, ScheduleRequest};
    use flb_graph::paper::fig1;
    use flb_sched::Machine;

    fn schedule_payload(procs: u32) -> Vec<u8> {
        crate::proto::encode_request(&crate::proto::Request::Schedule {
            request: Box::new(ScheduleRequest {
                algorithm: AlgorithmId::Flb,
                graph: fig1(),
                machine: Machine::new(procs as usize),
            }),
            deadline_ms: 0,
            tenant: String::new(),
        })
    }

    fn record_for(procs: u32, ts_us: u64) -> JournalRecord {
        let payload = schedule_payload(procs);
        let req = match crate::proto::decode_request(&payload) {
            Ok(crate::proto::Request::Schedule { request, .. }) => request,
            _ => unreachable!("payload we just encoded"),
        };
        let schedule = flb_core::schedule_request(&req);
        JournalRecord {
            ts_us,
            conn_id: 1,
            reply_kind: crate::proto::RESP_SCHEDULE,
            reply_digest: journal::schedule_digest(&schedule),
            request: payload,
        }
    }

    #[test]
    fn replay_matches_deterministic_records_against_a_live_daemon() {
        let handle = serve(&Endpoint::parse("127.0.0.1:0"), ServiceConfig::default()).unwrap();
        let endpoint = handle.endpoint();
        let records: Vec<JournalRecord> = (0..6u64)
            .map(|i| record_for(2 + (i % 3) as u32, i * 500))
            .collect();
        let report = replay_records(&endpoint, &records, &ReplayConfig::default());
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.sent, 6);
        assert_eq!(report.matched, 6);
        assert_eq!(report.mismatched, 0);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn replay_flags_a_digest_mismatch() {
        let handle = serve(&Endpoint::parse("127.0.0.1:0"), ServiceConfig::default()).unwrap();
        let endpoint = handle.endpoint();
        let mut rec = record_for(2, 0);
        rec.reply_digest ^= 0xDEAD_BEEF; // pretend the recording saw something else
        let report = replay_records(&endpoint, &[rec], &ReplayConfig::default());
        assert_eq!(report.mismatched, 1);
        assert!(!report.ok());
        assert!(
            report.failures.iter().any(|f| f.contains("digest")),
            "failures: {:?}",
            report.failures
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn nondeterministic_records_are_skipped_not_compared() {
        let handle = serve(&Endpoint::parse("127.0.0.1:0"), ServiceConfig::default()).unwrap();
        let endpoint = handle.endpoint();
        let mut rec = record_for(2, 0);
        rec.reply_kind = crate::proto::RESP_BUSY; // recorded under load
        rec.reply_digest = 0;
        let report = replay_records(&endpoint, &[rec], &ReplayConfig::default());
        assert_eq!(report.skipped, 1);
        assert_eq!(report.mismatched, 0);
        assert!(report.ok());
        handle.shutdown();
        handle.join();
    }
}
