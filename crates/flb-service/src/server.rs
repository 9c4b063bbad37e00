//! The daemon: listener, per-connection protocol loops, and the bounded
//! worker pool behind the fingerprint cache.
//!
//! Request flow for `schedule`:
//!
//! 1. the connection thread reads the cache key straight off the payload
//!    bytes ([`peek_request_key`]) and probes the cache. A hit is
//!    answered immediately: no decode, no graph, no queue. The reply is
//!    encoded from the cached schedule into one frame and sent with one
//!    write (this is the "repeated workloads skip scheduling entirely"
//!    path, and it keeps working even while the queue is saturated);
//! 2. otherwise the payload is decoded, and the miss is pushed onto the
//!    bounded queue; when the queue is full the client gets a `busy`
//!    response with a retry hint instead of blocking the daemon
//!    (backpressure, never a hang). An FLB request is decoded straight
//!    into the kernel's CSR form ([`decode_flat_request`]); everything
//!    else, and any payload that decoder declines, goes through
//!    [`decode_request`] into a `TaskGraph` (a payload the peek declined
//!    is keyed by [`request_fingerprint`] now, and may still hit);
//! 3. a worker pops the job, drops it with an `expired` response if its
//!    deadline passed while it queued, otherwise runs the scheduler,
//!    populates the cache and hands the schedule back to the connection
//!    thread. FLB always runs on `flb-kernel`'s [`FlbKernel`]; the
//!    baselines run through [`schedule_request`].
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
use crate::fingerprint::{peek_request_key, request_fingerprint};
use crate::journal::{self, SyncPolicy};
use crate::metrics::{Gauges, Metrics};
use crate::overload::{Decision, OverloadConfig, OverloadCtl, ShedPolicy, TenantId};
use crate::proto::{
    decode_flat_request, decode_request, read_frame, write_response, write_schedule_reply, Request,
    Response, RESP_SCHEDULE,
};
use crate::snapshot::{self, SnapshotError};
use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
use flb_kernel::{FlatGraph, FlbKernel};
use flb_sched::{Machine, Schedule};
use parking_lot::{Condvar, Mutex};
use std::io;
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

/// The two stream flavours the daemon serves, with timeout control.
pub(crate) trait Transport: io::Read + io::Write + Send + 'static {
    /// Sets the per-call read timeout (`None` blocks indefinitely).
    fn set_read_deadline(&self, t: Option<Duration>) -> io::Result<()>;
    /// Sets the per-call write timeout (`None` blocks indefinitely).
    fn set_write_deadline(&self, t: Option<Duration>) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn set_read_deadline(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_write_deadline(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(t)
    }
}

impl Transport for UnixStream {
    fn set_read_deadline(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_write_deadline(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(t)
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

/// A transport wrapper enforcing deadline-aware I/O.
///
/// Per-call socket timeouts bound each `read(2)`/`write(2)`, but a client
/// trickling one byte per window resets them forever. The wrapper
/// additionally tracks when the current frame started (first byte read,
/// or `begin_write`) and shrinks the per-call timeout to the remaining
/// frame budget, so the *total* time per frame is bounded.
struct DeadlineConn<S: Transport> {
    inner: S,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    frame_deadline: Option<Duration>,
    idle_timeout: Option<Duration>,
    /// When the first byte of the in-flight request frame arrived.
    read_start: Option<Instant>,
    /// When the in-flight response write started.
    write_start: Option<Instant>,
}

impl<S: Transport> DeadlineConn<S> {
    fn new(inner: S, cfg: &ServiceConfig) -> Self {
        DeadlineConn {
            inner,
            read_timeout: ms(cfg.read_timeout_ms),
            write_timeout: ms(cfg.write_timeout_ms),
            frame_deadline: ms(cfg.frame_deadline_ms),
            idle_timeout: ms(cfg.idle_timeout_ms),
            read_start: None,
            write_start: None,
        }
    }

    /// Arms the next request frame: the frame clock starts at its first
    /// byte, and until then only the idle timeout applies.
    fn begin_read(&mut self) {
        self.read_start = None;
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
}

impl<S: Transport> io::Read for DeadlineConn<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.read_start {
            None => {
                // Waiting for a frame to start: only the idle timeout
                // applies, and a well-behaved client may sit here forever.
                self.inner.set_read_deadline(self.idle_timeout)?;
                let n = self.inner.read(buf)?;
                if n > 0 {
                    self.read_start = Some(Instant::now());
                }
                Ok(n)
            }
            Some(t0) => {
                let budget = self.call_budget(t0, self.read_timeout, "read frame")?;
                self.inner.set_read_deadline(budget)?;
                self.inner.read(buf)
            }
        }
    }
}

impl<S: Transport> io::Write for DeadlineConn<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let budget = match self.write_start {
            Some(t0) => self.call_budget(t0, self.write_timeout, "write frame")?,
            None => self.write_timeout,
        };
        self.inner.set_write_deadline(budget)?;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What a worker sends back to the waiting connection thread.
enum WorkerReply {
    Done {
        schedule: Arc<Schedule>,
        micros: u64,
    },
    Expired,
    /// The scheduler panicked; the message is the panic payload.
    Panicked(String),
}

/// What a job schedules.
enum Work {
    /// An FLB request decoded straight into the kernel's CSR form.
    Flat {
        graph: Box<FlatGraph>,
        machine: Machine,
    },
    /// A request decoded into a `TaskGraph`: the baselines, and FLB
    /// requests whose edges were not in canonical wire order.
    Graph(Box<ScheduleRequest>),
}

impl Work {
    fn algorithm(&self) -> AlgorithmId {
        match self {
            Work::Flat { .. } => AlgorithmId::Flb,
            Work::Graph(request) => request.algorithm,
        }
    }

    fn graph_name(&self) -> &str {
        match self {
            Work::Flat { graph, .. } => graph.name(),
            Work::Graph(request) => request.graph.name(),
        }
    }

    /// Runs the scheduler. FLB always runs on the kernel, which is
    /// bit-identical to `flb_core`'s reference run.
    fn schedule(&self) -> Schedule {
        match self {
            Work::Flat { graph, machine } => FlbKernel::new().schedule_flat(graph, machine),
            Work::Graph(request) if request.algorithm == AlgorithmId::Flb => {
                let graph = FlatGraph::from_task_graph(&request.graph);
                FlbKernel::new().schedule_flat(&graph, &request.machine)
            }
            Work::Graph(request) => schedule_request(request),
        }
    }
}

/// One queued scheduling job.
struct Job {
    work: Work,
    fingerprint: u64,
    accepted_at: Instant,
    deadline: Option<Duration>,
    reply: mpsc::Sender<WorkerReply>,
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
    cache: ShardedLru<Arc<Schedule>>,
    metrics: Metrics,
    /// Admission control + weighted-fair queue (replaces the old FIFO).
    /// Named lock class: acquisition order is checked by `lockcheck`
    /// builds and the flb-analyze `lock-order` rule.
    queue: Mutex<OverloadCtl<Job>>,
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
    journal: Option<journal::Appender>,
}

impl Shared {
    /// Microseconds since the service started (the overload layer's
    /// monotone clock).
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Gauges plus the per-tenant stats rows, read under one queue lock
    /// so the pair is a consistent snapshot.
    fn stats_view(&self) -> (Gauges, Vec<crate::metrics::TenantStat>) {
        let now = self.now_us();
        let q = self.queue.lock();
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

/// Worker loop: pop, check deadline, schedule (panic-isolated), cache,
/// reply.
fn worker_loop(shared: &Arc<Shared>) {
    let _slot = WorkerSlot(Arc::clone(shared));
    loop {
        let popped = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(popped) = q.pop(shared.now_us()) {
                    break popped;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                shared.job_ready.wait(&mut q);
            }
        };
        let (tenant, job) = (popped.tenant, popped.item);
        let waited = job.accepted_at.elapsed();
        if job.deadline.is_some_and(|d| waited > d) {
            Metrics::bump(&shared.metrics.expired);
            // A deadline blown while queued counts against the tenant's
            // breaker: a tenant whose work always expires is wasting slots.
            shared.queue.lock().outcome(&tenant, false, shared.now_us());
            let _ = job.reply.send(WorkerReply::Expired);
            continue;
        }
        let inject = shared.cfg.panic_injection;
        let hard_kill = inject && job.work.graph_name() == HARD_PANIC_MARKER;
        Metrics::bump(&shared.metrics.scheduler_invocations);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject && job.work.graph_name() == PANIC_MARKER {
                // flb-analyze: allow(no-panic-in-request-path, reason="chaos injection, gated by cfg.panic_injection and confined by the catch_unwind below")
                panic!("injected scheduler panic ({PANIC_MARKER})");
            }
            job.work.schedule()
        }));
        match outcome {
            Ok(schedule) => {
                let schedule = Arc::new(schedule);
                shared.cache.insert(job.fingerprint, Arc::clone(&schedule));
                let micros = job.accepted_at.elapsed().as_micros() as u64;
                shared.metrics.latency.record(micros);
                shared.queue.lock().outcome(&tenant, true, shared.now_us());
                // The client may have hung up while waiting; its problem.
                let _ = job.reply.send(WorkerReply::Done { schedule, micros });
            }
            Err(payload) => {
                Metrics::bump(&shared.metrics.worker_panics);
                shared.queue.lock().outcome(&tenant, false, shared.now_us());
                let _ = job
                    .reply
                    .send(WorkerReply::Panicked(panic_message(payload.as_ref())));
            }
        }
        if hard_kill {
            // Chaos hook: die after replying so the supervisor's respawn
            // path is exercised end-to-end.
            return;
        }
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
    /// encoded straight from the `Arc`, never cloned.
    Schedule {
        cached: bool,
        micros: u64,
        schedule: Arc<Schedule>,
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
    fn schedule(&self) -> Option<Arc<Schedule>> {
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
fn cache_hit(shared: &Shared, schedule: Arc<Schedule>, t0: Instant) -> Reply {
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
fn tenant_id(tenant: String, conn_id: u64) -> TenantId {
    if tenant.is_empty() {
        TenantId::Anon(conn_id)
    } else {
        TenantId::Named(tenant)
    }
}

/// Serves one decoded schedule request end-to-end under cache key
/// `key`. The peek has already probed the cache under that key and
/// missed, unless `probe` is set: the peek declined the payload, and the
/// key was computed from the decoded request.
///
/// Cache hits bypass admission entirely — answering from memory costs
/// the daemon almost nothing, so quotas only govern the expensive path.
fn serve_schedule(
    shared: &Shared,
    work: Work,
    key: u64,
    probe: bool,
    deadline_ms: u64,
    tenant: &TenantId,
) -> Reply {
    let t0 = Instant::now();
    count_schedule_request(shared, work.algorithm());
    if probe {
        if let Some(schedule) = shared.cache.get(key) {
            return cache_hit(shared, schedule, t0);
        }
    }
    Metrics::bump(&shared.metrics.cache_misses);

    let busy = Reply::Other(Response::Busy {
        retry_after_ms: shared.cfg.retry_after_ms,
    });
    if shared.shutdown.load(Ordering::SeqCst) {
        Metrics::bump(&shared.metrics.rejected);
        return busy;
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        work,
        fingerprint: key,
        accepted_at: t0,
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        reply: tx,
    };
    let decision = shared.queue.lock().offer(tenant, job, shared.now_us());
    match decision {
        Decision::Admitted => shared.job_ready.notify_one(),
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
    match rx.recv() {
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

/// Protocol loop for one accepted connection. `conn_id` seeds the
/// anonymous tenant identity for requests that carry no tenant name.
fn connection_loop<S: Transport>(shared: &Arc<Shared>, conn: &mut DeadlineConn<S>, conn_id: u64) {
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
            Err(e) => {
                Metrics::bump(&shared.metrics.errors);
                conn.begin_write();
                let _ = write_response(conn, &Response::Error(e.to_string()));
                return;
            }
        };
        // The hit path: key the payload bytes and answer from the cache
        // before anything is decoded.
        let t0 = Instant::now();
        let peeked = peek_request_key(&payload);
        let hit = peeked.and_then(|p| Some((p.algorithm, shared.cache.get(p.key)?)));
        // An FLB miss the peek keyed decodes straight into CSR.
        let flat = match peeked {
            Some(p) if hit.is_none() && p.algorithm == AlgorithmId::Flb => {
                decode_flat_request(&payload).map(|req| (p.key, req))
            }
            _ => None,
        };
        let (reply, ts_us, journal_this) = if let Some((alg, schedule)) = hit {
            Metrics::bump(&shared.metrics.requests);
            let ts_us = shared.now_us();
            count_schedule_request(shared, alg);
            (cache_hit(shared, schedule, t0), ts_us, true)
        } else if let Some((key, req)) = flat {
            Metrics::bump(&shared.metrics.requests);
            let ts_us = shared.now_us();
            let work = Work::Flat {
                graph: Box::new(req.graph),
                machine: req.machine,
            };
            let id = tenant_id(req.tenant, conn_id);
            let reply = serve_schedule(shared, work, key, false, req.deadline_ms, &id);
            (reply, ts_us, true)
        } else {
            let request = match decode_request(&payload) {
                Ok(req) => req,
                Err(e) => {
                    Metrics::bump(&shared.metrics.errors);
                    conn.begin_write();
                    let _ = write_response(conn, &Response::Error(e.to_string()));
                    return;
                }
            };
            Metrics::bump(&shared.metrics.requests);
            let ts_us = shared.now_us();
            match request {
                Request::Ping => (Reply::Other(Response::Pong), ts_us, false),
                Request::Stats => {
                    let (gauges, per_tenant) = shared.stats_view();
                    let stats = shared.metrics.snapshot(gauges, per_tenant);
                    (Reply::Other(Response::Stats(Box::new(stats))), ts_us, false)
                }
                Request::Shutdown => {
                    // Answer the client *before* tearing the daemon down:
                    // once the flag is set, the accept loop and workers
                    // exit and the process may finish before a late write
                    // reaches the wire.
                    conn.begin_write();
                    let _ = write_response(conn, &Response::ShuttingDown);
                    shared.shutdown.store(true, Ordering::SeqCst);
                    shared.job_ready.notify_all();
                    nudge_accept_loop(&shared.endpoint);
                    return;
                }
                Request::Schedule {
                    request,
                    deadline_ms,
                    tenant,
                } => {
                    let id = tenant_id(tenant, conn_id);
                    let (key, probe) = match peeked {
                        Some(p) => (p.key, false),
                        None => {
                            let r = &request;
                            (request_fingerprint(r.algorithm, &r.graph, &r.machine), true)
                        }
                    };
                    let work = Work::Graph(request);
                    let reply = serve_schedule(shared, work, key, probe, deadline_ms, &id);
                    (reply, ts_us, true)
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
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.job_ready.notify_all();
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

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
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
    match endpoint {
        Endpoint::Tcp(addr) => {
            let _ = TcpStream::connect(addr);
        }
        Endpoint::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
    }
}

fn spawn_connection<S: Transport>(shared: &Arc<Shared>, stream: S) {
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
        queue: Mutex::named("queue", OverloadCtl::new(overload)),
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
            match listener {
                Listener::Tcp(listener) => {
                    for stream in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        match stream {
                            Ok(s) => {
                                let _ = s.set_nodelay(true);
                                spawn_connection(&shared, s);
                            }
                            Err(_) => continue,
                        }
                    }
                }
                Listener::Unix(listener, path) => {
                    for stream in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        match stream {
                            Ok(s) => spawn_connection(&shared, s),
                            Err(_) => continue,
                        }
                    }
                    let _ = std::fs::remove_file(path);
                }
            }
            // Wake every worker so they observe the flag and exit.
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.job_ready.notify_all();
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
}
