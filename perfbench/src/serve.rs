//! The daemon workloads: a fresh `flb serve` child per run, a closed-loop
//! generator of at most two connections, exact client-side latencies, and
//! a traced pass that replays each request through the layers' public
//! functions outside its round trip.

use crate::gen::{self, Entry, MixStream, DAEMON_CACHE, DAEMON_SHARDS};
use crate::report::Outcome;
use crate::stats::{self, median, percentile, sorted};
use crate::trace::{self_times, Tracer, ROOT};
use crate::{procfs, Args};
use flb_core::{schedule_request, AlgorithmId};
use flb_kernel::{FlatGraph, FlbKernel};
use flb_sched::io::wire;
use flb_sched::{Schedule, Scheduler};
use flb_service::cache::ShardedLru;
use flb_service::fingerprint::request_fingerprint;
use flb_service::journal::{self, encode_record, schedule_digest, JournalEvent, JournalRecord};
use flb_service::overload::{Decision, OverloadConfig, OverloadCtl, TenantId};
use flb_service::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, Response,
};
use flb_service::{JournalCounters, StatsSnapshot};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The three daemon workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every request misses the cache and runs FLB.
    Miss,
    /// Every timed request hits the primed cache.
    Hit,
    /// Recorded-trace traffic with journaling on; almost all hits.
    Mix,
}

/// Fresh daemons set up per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Warm-up requests of serve-miss (distinct graphs, all misses).
const MISS_WARMUP: usize = 16;
/// Warm-up requests of serve-mix (drawn from a derived seed).
const MIX_WARMUP: usize = 256;
/// Journal hand-off slots of the serve-mix daemon. The default 1024 holds
/// about 50 ms of serve-mix traffic (~20k requests/s on 2 vCPUs), and a
/// segment-rotation fsync on a shared disk outlasts that: one run in 60
/// dropped 1845 records. 65536 slots cover seconds of writer stall;
/// a writer slower than the request rate still drops and fails the run.
const JOURNAL_QUEUE: usize = 65536;
/// Connection id the traced replay gives the warm-up requests.
const WARMUP_CONN: u64 = 0xFFFF;
/// Wire kind byte of `Response::Schedule` (checked by a test).
const SCHEDULE_KIND: u8 = 1;
/// Reply bytes before the schedule: kind, cached flag, service micros.
const REPLY_HEADER: usize = 10;
/// Frame header bytes: magic and length.
const FRAME_HEADER: usize = 8;

/// A running `flb serve` child.
pub struct Daemon {
    child: Child,
    // Held open so the daemon's last stdout line does not hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    record_dir: Option<PathBuf>,
}

impl Daemon {
    /// Spawns `flb serve` on an ephemeral loopback port with two workers
    /// and returns once it prints its listening line.
    pub fn spawn(flb: &Path, record_dir: Option<PathBuf>) -> io::Result<Daemon> {
        let mut cmd = Command::new(flb);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
            .args(["--cache", &DAEMON_CACHE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = &record_dir {
            cmd.arg("--record").arg(dir);
            cmd.args(["--journal-queue", &JOURNAL_QUEUE.to_string()]);
        }
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
            record_dir,
        };
        read?;
        if daemon.addr.is_empty() {
            return Err(io::Error::other(format!(
                "daemon did not report a listening address (got {line:?})"
            )));
        }
        Ok(daemon)
    }

    /// The daemon's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A new `TCP_NODELAY` connection.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.addr)
    }

    /// The daemon's counters.
    pub fn stats(&self) -> io::Result<StatsSnapshot> {
        match self.connect()?.request(&Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(io::Error::other(format!("stats answered {other:?}"))),
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = self
            .connect()
            .and_then(|mut c| c.request(&Request::Shutdown));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return asked.map(drop);
            }
            thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other(
            "daemon did not exit within 10 s of shutdown",
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(dir) = &self.record_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One client connection with buffered, `TCP_NODELAY` I/O.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // Without it a warm-up's small frames wait on Nagle plus delayed
        // ACK (tens of ms each).
        stream.set_nodelay(true)?;
        // A wedged daemon fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: BufWriter::with_capacity(1 << 16, stream),
        })
    }

    /// Sends one request payload and reads the reply payload.
    pub fn round_trip(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.writer, payload)?;
        read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })
    }

    /// Sends one request and decodes the reply.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        let reply = self.round_trip(&encode_request(req))?;
        decode_response(&reply).map_err(|e| io::Error::other(e.to_string()))
    }
}

/// How a reply compares with the expected one.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    /// Not a schedule reply (busy, overloaded, breaker-open, error, ...).
    Refused,
    /// A schedule that differs from the local one, or the wrong cache flag.
    Mismatch,
}

/// Checks a reply against its entry. The schedule bytes must equal the
/// locally encoded schedule, so the reply's `journal::schedule_digest`
/// (FNV-1a of exactly those bytes) equals the entry's expected digest.
fn check_reply(reply: &[u8], e: &Entry, expect_cached: Option<bool>) -> Verdict {
    if reply.first() != Some(&SCHEDULE_KIND) || reply.len() < REPLY_HEADER {
        return Verdict::Refused;
    }
    let cached = reply[1] != 0;
    if reply[REPLY_HEADER..] != e.schedule[..] || expect_cached.is_some_and(|c| c != cached) {
        return Verdict::Mismatch;
    }
    Verdict::Ok
}

/// Where one connection's next request comes from.
enum Cursor {
    Cycle { order: Vec<usize>, pos: usize },
    Mix(MixStream),
}

impl Cursor {
    fn next_index(&mut self) -> usize {
        match self {
            Cursor::Cycle { order, pos } => {
                let i = order[*pos % order.len()];
                *pos += 1;
                i
            }
            Cursor::Mix(s) => s.next_index(),
        }
    }
}

/// Everything generated before the daemon starts.
struct Plan {
    workload: Workload,
    entries: Vec<Entry>,
    /// Entries sent during set-up, in order.
    warm: Vec<usize>,
    /// One request source per connection.
    cursors: Vec<Cursor>,
    /// The timed stream's defining requests (digest, byte and count
    /// metrics are taken over these).
    stream: Vec<usize>,
    expect_cached: Option<bool>,
    record: bool,
}

impl Plan {
    fn new(workload: Workload, seed: u64) -> Plan {
        match workload {
            Workload::Miss => {
                let mut entries = gen::miss_pool(seed);
                let pool = entries.len();
                entries.extend(gen::miss_warmup(seed, MISS_WARMUP));
                let half = |c: usize| (c..pool).step_by(2).collect::<Vec<_>>();
                Plan {
                    workload,
                    warm: (pool..entries.len()).collect(),
                    cursors: (0..2)
                        .map(|c| Cursor::Cycle {
                            order: half(c),
                            pos: 0,
                        })
                        .collect(),
                    stream: (0..pool).collect(),
                    entries,
                    expect_cached: Some(false),
                    record: false,
                }
            }
            Workload::Hit => {
                let entries = gen::hit_pool(seed);
                let all: Vec<usize> = (0..entries.len()).collect();
                Plan {
                    workload,
                    warm: all.clone(),
                    cursors: vec![Cursor::Cycle {
                        order: all.clone(),
                        pos: 0,
                    }],
                    stream: all,
                    entries,
                    expect_cached: Some(true),
                    record: false,
                }
            }
            Workload::Mix => {
                let mut warm = MixStream::new(gen::mix64(seed ^ 0x5EED));
                let mut prefix = MixStream::new(seed);
                Plan {
                    workload,
                    entries: gen::mix_table(),
                    warm: (0..MIX_WARMUP).map(|_| warm.next_index()).collect(),
                    cursors: vec![Cursor::Mix(MixStream::new(seed))],
                    stream: (0..gen::MIX_DIGEST_PREFIX)
                        .map(|_| prefix.next_index())
                        .collect(),
                    expect_cached: None,
                    record: true,
                }
            }
        }
    }

    fn stream_digest(&self) -> u64 {
        gen::stream_digest(
            self.stream
                .iter()
                .map(|&i| self.entries[i].payload.as_slice()),
        )
    }
}

/// One completed request.
#[derive(Clone, Copy)]
struct Sample {
    /// Send time, ns since the phase started.
    start_ns: u64,
    lat_ns: u64,
    tasks: u32,
}

/// What one connection did in one phase.
#[derive(Default)]
struct Drive {
    samples: Vec<Sample>,
    /// Entry index of every request sent, in order.
    sent: Vec<usize>,
    refused: u64,
    mismatched: u64,
    io_error: Option<String>,
}

/// A `Write` sink that counts `write` calls, as a socket would see them.
#[derive(Default)]
struct CountingSink {
    writes: u32,
    bytes: usize,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The daemon's request path rebuilt from its public parts: a cache at
/// the daemon's capacity and shard count, an admission controller with
/// its default configuration, and (serve-mix) a journal hand-off.
struct Layers {
    cache: ShardedLru<Arc<Schedule>>,
    ctl: Mutex<OverloadCtl<()>>,
    journal: Option<(journal::Appender, Mutex<Receiver<JournalEvent>>)>,
    epoch: Instant,
}

/// Per-thread trace state.
struct LayerThread {
    tracer: Tracer,
    writes_per_frame: Vec<u32>,
    journal_bytes: Vec<f64>,
    problems: Vec<String>,
}

impl LayerThread {
    fn new(origin: Instant) -> LayerThread {
        LayerThread {
            tracer: Tracer::new(origin),
            writes_per_frame: Vec::new(),
            journal_bytes: Vec::new(),
            problems: Vec::new(),
        }
    }
}

impl Layers {
    fn new(journaled: bool, epoch: Instant) -> Layers {
        Layers {
            cache: ShardedLru::new(DAEMON_CACHE, DAEMON_SHARDS),
            ctl: Mutex::new(OverloadCtl::new(OverloadConfig::default())),
            journal: journaled.then(|| {
                let (tx, rx) = journal::channel(1024, Arc::new(JournalCounters::default()));
                (tx, Mutex::new(rx))
            }),
            epoch,
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Brings the mirror cache to the daemon's state after `seq`.
    fn prime(&self, entries: &[Entry], seq: impl IntoIterator<Item = usize>) {
        for i in seq {
            let e = &entries[i];
            if self.cache.get(e.fingerprint).is_none() {
                let s = wire::decode_schedule(&e.schedule).expect("locally encoded schedule");
                self.cache.insert(e.fingerprint, Arc::new(s));
            }
        }
    }

    /// Runs one request through the daemon's layers in request-path
    /// order, one span per layer under a `request` root. Off-path work
    /// (the journal writer's encoding, the flat kernel on the same graph)
    /// gets root spans of its own.
    fn replay(&self, th: &mut LayerThread, e: &Entry, req: u64, conn_id: u64) {
        let tr = &mut th.tracer;
        let journal_copy = self.journal.as_ref().map(|_| e.payload.clone());
        let root = tr.open("request", ROOT, req);
        let s = tr.open("proto.decode", root, req);
        let decoded = decode_request(&e.payload);
        tr.close(s);
        let Ok(Request::Schedule {
            request, tenant, ..
        }) = decoded
        else {
            th.problems
                .push(format!("request {req}: payload does not decode"));
            return;
        };
        let s = tr.open("fingerprint", root, req);
        let fp = request_fingerprint(request.algorithm, &request.graph, &request.machine);
        tr.close(s);
        let s = tr.open("cache.get", root, req);
        let hit = self.cache.get(fp);
        tr.close(s);
        let cached = hit.is_some();
        let schedule = match hit {
            Some(s) => s,
            None => {
                let id = if tenant.is_empty() {
                    TenantId::Anon(conn_id)
                } else {
                    TenantId::Named(tenant)
                };
                let s = tr.open("overload.offer_pop", root, req);
                let admitted = {
                    let mut q = self.ctl.lock().expect("admission lock");
                    let d = q.offer(&id, (), self.now_us());
                    d == Decision::Admitted && q.pop(self.now_us()).is_some()
                };
                tr.close(s);
                let s = tr.open_tagged(
                    "core.schedule",
                    root,
                    req,
                    u32::from(request.algorithm.code()),
                );
                let computed = Arc::new(schedule_request(&request));
                tr.close(s);
                self.ctl
                    .lock()
                    .expect("admission lock")
                    .outcome(&id, true, self.now_us());
                if !admitted {
                    th.problems
                        .push(format!("request {req}: admission refused"));
                }
                let s = tr.open("cache.insert", root, req);
                self.cache.insert(fp, Arc::clone(&computed));
                tr.close(s);
                computed
            }
        };
        let s = tr.open("cache.reply_clone", root, req);
        let body = (*schedule).clone();
        tr.close(s);
        let resp = Response::Schedule {
            cached,
            micros: 0,
            schedule: body,
        };
        let s = tr.open("proto.encode", root, req);
        let bytes = encode_response(&resp);
        tr.close(s);
        let mut sink = CountingSink::default();
        let s = tr.open("proto.write_frame", root, req);
        let wrote = write_frame(&mut sink, &bytes);
        tr.close(s);
        if let (Some((appender, _)), Some(payload)) = (&self.journal, journal_copy) {
            let s = tr.open("journal.append", root, req);
            appender.append(JournalEvent {
                ts_us: self.now_us(),
                conn_id,
                reply_kind: resp.kind_code(),
                reply: Some(Arc::clone(&schedule)),
                request: payload,
            });
            tr.close(s);
        }
        tr.close(root);

        if wrote.is_err() || sink.bytes != bytes.len() + FRAME_HEADER {
            th.problems
                .push(format!("request {req}: write_frame failed"));
        }
        th.writes_per_frame.push(sink.writes);
        if bytes.get(REPLY_HEADER..) != Some(&e.schedule[..]) {
            th.problems.push(format!(
                "request {req}: replayed layers disagree with the daemon"
            ));
        }
        if let Some((_, rx)) = &self.journal {
            // The writer thread's share: digest and frame the record.
            for ev in rx.lock().expect("journal receiver").try_iter() {
                let s = tr.open("journal.encode", ROOT, req);
                let rec = JournalRecord {
                    ts_us: ev.ts_us,
                    conn_id: ev.conn_id,
                    reply_kind: ev.reply_kind,
                    reply_digest: ev.reply.as_deref().map_or(0, schedule_digest),
                    request: ev.request,
                };
                let framed = encode_record(&rec);
                tr.close(s);
                th.journal_bytes.push(framed.len() as f64);
            }
        }
        if !cached && request.algorithm == AlgorithmId::Flb {
            // The flat kernel on the same graph: not on the daemon's path
            // today, the baseline for moving it there.
            let s = tr.open("kernel.convert", ROOT, req);
            let flat = FlatGraph::from_task_graph(&request.graph);
            tr.close(s);
            std::hint::black_box(flat);
            let s = tr.open("kernel.flb", ROOT, req);
            let k = FlbKernel::new().schedule(&request.graph, &request.machine);
            tr.close(s);
            if k.placements() != schedule.placements() {
                th.problems
                    .push(format!("request {req}: flat kernel differs from FlbRun"));
            }
        }
    }
}

/// Sends requests on one connection until `until`.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: &mut Conn,
    cursor: &mut Cursor,
    entries: &[Entry],
    expect_cached: Option<bool>,
    start: Instant,
    until: Instant,
    conn_id: u64,
    mut layers: Option<(&Layers, &mut LayerThread)>,
) -> Drive {
    let mut d = Drive::default();
    while Instant::now() < until {
        let i = cursor.next_index();
        let e = &entries[i];
        let t = Instant::now();
        let reply = match conn.round_trip(&e.payload) {
            Ok(r) => r,
            Err(err) => {
                d.io_error = Some(err.to_string());
                break;
            }
        };
        let done = Instant::now();
        d.sent.push(i);
        match check_reply(&reply, e, expect_cached) {
            Verdict::Ok => d.samples.push(Sample {
                start_ns: (t - start).as_nanos() as u64,
                lat_ns: (done - t).as_nanos() as u64,
                tasks: e.tasks,
            }),
            Verdict::Refused => d.refused += 1,
            Verdict::Mismatch => d.mismatched += 1,
        }
        if let Some((l, th)) = layers.as_mut() {
            let req = (conn_id << 48) | d.sent.len() as u64;
            l.replay(th, e, req, conn_id);
        }
    }
    d
}

/// Runs every connection for one phase (connection 0 on this thread).
fn phase(
    conns: &mut [Conn],
    cursors: &mut [Cursor],
    plan_entries: &[Entry],
    expect_cached: Option<bool>,
    dur: Duration,
    layers: Option<(&Layers, &mut [LayerThread])>,
) -> (Vec<Drive>, Duration) {
    let start = Instant::now();
    let until = start + dur;
    let (l, mut ths): (_, Vec<Option<&mut LayerThread>>) = match layers {
        Some((l, ths)) => (Some(l), ths.iter_mut().map(Some).collect()),
        None => (None, (0..conns.len()).map(|_| None).collect()),
    };
    let drives = thread::scope(|s| {
        let mut work = conns.iter_mut().zip(cursors.iter_mut()).zip(ths.iter_mut());
        let (first, rest): (_, Vec<_>) = (work.next().expect("one connection"), work.collect());
        let handles: Vec<_> = rest
            .into_iter()
            .enumerate()
            .map(|(k, ((c, cur), th))| {
                s.spawn(move || {
                    let lt = l.zip(th.as_deref_mut());
                    drive(
                        c,
                        cur,
                        plan_entries,
                        expect_cached,
                        start,
                        until,
                        k as u64 + 1,
                        lt,
                    )
                })
            })
            .collect();
        let ((c, cur), th) = first;
        let lt = l.zip(th.as_deref_mut());
        let mut out = vec![drive(
            c,
            cur,
            plan_entries,
            expect_cached,
            start,
            until,
            0,
            lt,
        )];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread")),
        );
        out
    });
    (drives, start.elapsed())
}

/// End-to-end figures of one phase.
struct PhaseStats {
    ops: usize,
    /// Sum over connections of 1 / (median send-to-send cycle).
    throughput_rps: f64,
    /// `throughput_rps` times the mean tasks per request sent.
    tasks_per_s: f64,
    /// Requests completed per wall-clock second of the phase.
    completed_rps: f64,
    lat_us: Vec<f64>,
}

impl PhaseStats {
    /// Throughput is the closed loop's rate at its median cycle: each
    /// connection's median time from sending one request to sending the
    /// next, inverted and summed. Host steal stretches a minority of
    /// cycles by milliseconds; a mean-based rate follows those stalls, the
    /// median cycle does not. The mean-based rate is `completed_rps`.
    fn of(drives: &[Drive], elapsed: Duration) -> PhaseStats {
        let samples: Vec<Sample> = drives
            .iter()
            .flat_map(|d| d.samples.iter().copied())
            .collect();
        let throughput_rps: f64 = drives
            .iter()
            .filter(|d| d.samples.len() > 1)
            .map(|d| {
                let cycles: Vec<f64> = d
                    .samples
                    .windows(2)
                    .map(|w| (w[1].start_ns - w[0].start_ns) as f64)
                    .collect();
                1e9 / median(&cycles)
            })
            .sum();
        let tasks: f64 = samples.iter().map(|s| f64::from(s.tasks)).sum();
        PhaseStats {
            ops: samples.len(),
            throughput_rps,
            tasks_per_s: throughput_rps * tasks / samples.len().max(1) as f64,
            completed_rps: samples.len() as f64 / elapsed.as_secs_f64(),
            lat_us: sorted(samples.iter().map(|s| s.lat_ns as f64 / 1e3).collect()),
        }
    }

    fn p(&self, pct: usize) -> f64 {
        percentile(&self.lat_us, pct)
    }
}

/// Median self time in µs of the spans named `name` (tag-filtered).
fn span_median_us(tr: &Tracer, selfs: &[u64], name: &str, tag: Option<u32>) -> f64 {
    let v: Vec<f64> = tr
        .spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name && tag.is_none_or(|t| s.tag == t))
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Checks the daemon's counters against the workload's design.
fn reconcile(plan: &Plan, stats: &StatsSnapshot, sent: &[usize], problems: &mut Vec<String>) {
    let n = (plan.warm.len() + sent.len()) as u64;
    let mut check = |what: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!("stats: {what} = {got}, expected {want}"));
        }
    };
    check("schedule_requests", stats.schedule_requests, n);
    check(
        "refusals (busy + shed + breaker + expired + errors + panics)",
        stats.rejected
            + stats.shed
            + stats.breaker_rejected
            + stats.expired
            + stats.errors
            + stats.worker_panics,
        0,
    );
    // The exact miss count: the same sequence through a cache of the
    // daemon's shape.
    let mirror: ShardedLru<()> = ShardedLru::new(DAEMON_CACHE, DAEMON_SHARDS);
    let mut misses = 0;
    for &i in plan.warm.iter().chain(sent) {
        let fp = plan.entries[i].fingerprint;
        if mirror.get(fp).is_none() {
            misses += 1;
            mirror.insert(fp, ());
        }
    }
    match plan.workload {
        Workload::Miss => check("cache_hits", stats.cache_hits, 0),
        Workload::Hit => check("cache_misses", stats.cache_misses, plan.warm.len() as u64),
        Workload::Mix => {
            check("journal_appended", stats.journal_appended, n);
            check("journal_dropped", stats.journal_dropped, 0);
        }
    }
    check("cache_misses", stats.cache_misses, misses);
    check("cache_hits", stats.cache_hits, n - misses);
    check("scheduler_invocations", stats.scheduler_invocations, misses);
}

/// Polls `stats` until the journal writer has accounted for `n` records.
fn settled_stats(daemon: &Daemon, n: u64, journaled: bool) -> io::Result<StatsSnapshot> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = daemon.stats()?;
        if !journaled || s.journal_appended + s.journal_dropped >= n || Instant::now() > deadline {
            return Ok(s);
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// Sends the warm-up entries on a fresh connection; returns failures.
fn warm_up(daemon: &Daemon, plan: &Plan) -> io::Result<u64> {
    let mut conn = daemon.connect()?;
    let mut failed = 0;
    for &i in &plan.warm {
        let e = &plan.entries[i];
        let want = (plan.workload != Workload::Mix).then_some(false);
        if check_reply(&conn.round_trip(&e.payload)?, e, want) != Verdict::Ok {
            failed += 1;
        }
    }
    Ok(failed)
}

/// Spawns fresh daemon number `k` and warms it up; returns it with the
/// set-up time (spawn to ready plus warm-up).
fn set_up(args: &Args, plan: &Plan, k: usize, out: &mut Outcome) -> io::Result<(Daemon, f64)> {
    let record = plan.record.then(|| {
        args.out_dir
            .join(format!("journal-{}-{k}", std::process::id()))
    });
    let t = Instant::now();
    let daemon = Daemon::spawn(&args.flb, record)?;
    let failed = warm_up(&daemon, plan)?;
    let secs = t.elapsed().as_secs_f64();
    out.attempted += plan.warm.len() as u64;
    if failed > 0 {
        out.failed += failed;
        out.problem(format!(
            "{failed} warm-up replies on daemon {k} were wrong or refused"
        ));
    }
    Ok((daemon, secs))
}

/// Runs one serve workload.
pub fn run(workload: Workload, args: &Args, out: &mut Outcome) -> io::Result<()> {
    let mut plan = Plan::new(workload, args.seed);
    out.info("stream_digest", format!("{:#018x}", plan.stream_digest()));
    if workload == Workload::Miss {
        let pool: std::collections::HashSet<u64> = plan
            .stream
            .iter()
            .map(|&i| plan.entries[i].fingerprint)
            .collect();
        if pool.len() != plan.stream.len()
            || plan
                .warm
                .iter()
                .any(|&i| pool.contains(&plan.entries[i].fingerprint))
        {
            out.problem("serve-miss pool has repeated fingerprints".into());
        }
    }

    // Set-up time is sampled on fresh daemons before and after the timed
    // phase, so one slow stretch of the host does not decide the median.
    let mut setups = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS / 2 {
        let (daemon, secs) = set_up(args, &plan, k, out)?;
        setups.push(secs);
        daemon.stop()?;
    }
    let (daemon, secs) = set_up(args, &plan, SETUPS / 2, out)?;
    setups.push(secs);
    let pid = Some(daemon.pid());

    let mut conns = (0..plan.cursors.len())
        .map(|_| daemon.connect())
        .collect::<io::Result<Vec<_>>>()?;
    let total = Duration::from_secs(args.seconds);
    let untraced = if args.trace { total / 2 } else { total };
    let cpu0 = procfs::cpu_ticks(pid)?;
    let (drives_a, elapsed_a) = phase(
        &mut conns,
        &mut plan.cursors,
        &plan.entries,
        plan.expect_cached,
        untraced,
        None,
    );
    let cpu1 = procfs::cpu_ticks(pid)?;

    let mut traced = None;
    if args.trace {
        let layers = Layers::new(plan.record, Instant::now());
        let mut ths: Vec<LayerThread> = (0..conns.len())
            .map(|_| LayerThread::new(layers.epoch))
            .collect();
        // The warm-up is where serve-mix (and serve-hit's priming) miss,
        // so it is replayed through the traced layers; the untraced half
        // only brings the mirror cache up to date.
        for (k, &i) in plan.warm.iter().enumerate() {
            layers.replay(
                &mut ths[0],
                &plan.entries[i],
                (WARMUP_CONN << 48) | k as u64,
                WARMUP_CONN,
            );
        }
        layers.prime(
            &plan.entries,
            drives_a.iter().flat_map(|d| &d.sent).copied(),
        );
        let (drives_b, elapsed_b) = phase(
            &mut conns,
            &mut plan.cursors,
            &plan.entries,
            plan.expect_cached,
            total - untraced,
            Some((&layers, &mut ths)),
        );
        traced = Some((drives_b, elapsed_b, ths));
    }
    drop(conns);

    let mut sent: Vec<usize> = Vec::new();
    let all_drives = drives_a.iter().chain(traced.iter().flat_map(|t| &t.0));
    for d in all_drives {
        sent.extend(&d.sent);
        out.failed += d.refused + d.mismatched;
        if d.mismatched > 0 {
            out.problem(format!(
                "{} replies differ from the local schedule",
                d.mismatched
            ));
        }
        if d.refused > 0 {
            out.problem(format!("{} requests were refused", d.refused));
        }
        if let Some(e) = &d.io_error {
            out.failed += 1;
            out.problem(format!("connection failed: {e}"));
        }
    }
    // The kept daemon's warm-up is already counted by `set_up`.
    out.attempted += sent.len() as u64;
    let measured = (plan.warm.len() + sent.len()) as u64;
    let stats = settled_stats(&daemon, measured, plan.record)?;
    let peak_kb = procfs::peak_rss_kb(pid)?;
    daemon.stop()?;
    reconcile(&plan, &stats, &sent, &mut out.problems);
    for k in SETUPS / 2 + 1..SETUPS {
        let (daemon, secs) = set_up(args, &plan, k, out)?;
        setups.push(secs);
        daemon.stop()?;
    }

    let a = PhaseStats::of(&drives_a, elapsed_a);
    if a.ops == 0 {
        out.problem("no request completed".into());
        return Ok(());
    }
    let cpu_us = (cpu1 - cpu0) as f64 * 1e6 / procfs::TICKS_PER_SEC as f64;
    out.e2e("throughput_rps", a.throughput_rps);
    out.e2e("tasks_per_s", a.tasks_per_s);
    out.e2e("latency_p50_us", a.p(50));
    out.e2e("cpu_us_per_op", cpu_us / a.ops as f64);
    out.e2e("peak_rss_mb", peak_kb as f64 / 1024.0);
    out.e2e("setup_s", median(&setups));
    out.info("setup_samples_s", format!("{setups:?}"));
    out.latency_counts(&a.lat_us);

    // Per-layer figures that need no tracing.
    let stream: Vec<&Entry> = plan.stream.iter().map(|&i| &plan.entries[i]).collect();
    let bytes = |f: &dyn Fn(&Entry) -> usize| {
        median(&stream.iter().map(|e| f(e) as f64).collect::<Vec<_>>())
    };
    out.layer(
        "proto.req_bytes",
        bytes(&|e| e.payload.len() + FRAME_HEADER),
    );
    out.layer(
        "proto.resp_bytes",
        bytes(&|e| e.schedule.len() + REPLY_HEADER + FRAME_HEADER),
    );
    let flb: Vec<_> = stream.iter().filter_map(|e| e.flb_stats).collect();
    if !flb.is_empty() {
        let mean = |f: &dyn Fn(&flb_core::RunStats) -> usize| {
            flb.iter().map(|s| f(s) as f64).sum::<f64>() / flb.len() as f64
        };
        out.layer("core.ep_selections", mean(&|s| s.ep_selections));
        out.layer("core.non_ep_selections", mean(&|s| s.non_ep_selections));
        out.layer("core.demotions", mean(&|s| s.demotions));
        out.layer("core.list_insertions", mean(&|s| s.list_insertions()));
        out.layer("core.max_ready", mean(&|s| s.max_ready));
    }
    let lookups = stats.cache_hits + stats.cache_misses;
    out.layer(
        "cache.hit_ratio",
        stats.cache_hits as f64 / lookups.max(1) as f64,
    );
    out.layer(
        "overload.refused",
        (stats.rejected + stats.shed + stats.breaker_rejected) as f64,
    );
    out.layer("journal.appended", stats.journal_appended as f64);
    out.layer("journal.dropped", stats.journal_dropped as f64);
    out.layer("client.latency_p99_us", a.p(99));
    out.layer(
        "client.beyond_p99",
        stats::beyond(&a.lat_us, a.p(99)) as f64,
    );
    out.layer("client.samples", a.ops as f64);
    out.layer("client.completed_rps", a.completed_rps);
    out.layer("client.latency_p90_us", a.p(90));

    if let Some((drives_b, elapsed_b, ths)) = traced {
        let b = PhaseStats::of(&drives_b, elapsed_b);
        let mut tracer = Tracer::new(Instant::now());
        let mut writes = Vec::new();
        let mut jbytes = Vec::new();
        for th in ths {
            tracer.absorb(th.tracer);
            writes.extend(th.writes_per_frame);
            jbytes.extend(th.journal_bytes);
            for p in th.problems {
                out.problem(p);
            }
        }
        let selfs = self_times(tracer.spans());
        let med = |name: &str| span_median_us(&tracer, &selfs, name, None);
        for (metric, span) in [
            ("proto.decode_us", "proto.decode"),
            ("proto.encode_us", "proto.encode"),
            ("fingerprint.us", "fingerprint"),
            ("cache.get_us", "cache.get"),
            ("cache.insert_us", "cache.insert"),
            ("cache.reply_clone_us", "cache.reply_clone"),
            ("overload.offer_pop_us", "overload.offer_pop"),
            ("core.schedule_us", "core.schedule"),
            ("kernel.convert_us", "kernel.convert"),
            ("kernel.flb_us", "kernel.flb"),
            ("journal.encode_us", "journal.encode"),
            ("journal.append_us", "journal.append"),
        ] {
            out.layer(metric, med(span));
        }
        for (metric, alg) in [
            ("core.flb_us", AlgorithmId::Flb),
            ("core.etf_us", AlgorithmId::Etf),
            ("core.mcp_us", AlgorithmId::Mcp),
        ] {
            let tag = Some(u32::from(alg.code()));
            out.layer(
                metric,
                span_median_us(&tracer, &selfs, "core.schedule", tag),
            );
        }
        let path: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        if !path.is_empty() {
            out.layer("server.residual_us", a.p(50) - median(&path));
        }
        if let (Some(&lo), Some(&hi)) = (writes.iter().min(), writes.iter().max()) {
            if lo != hi {
                out.problem(format!("write_frame issued {lo} to {hi} writes per frame"));
            }
            out.layer("proto.writes_per_frame", f64::from(hi));
        }
        if !jbytes.is_empty() {
            out.layer("journal.bytes_per_req", median(&jbytes));
        }
        if b.ops > 0 {
            out.layer("trace.overhead_latency_p50_us", b.p(50) - a.p(50));
            out.layer(
                "trace.overhead_throughput_rps",
                a.throughput_rps - b.throughput_rps,
            );
        }
        let name = match workload {
            Workload::Miss => "serve-miss",
            Workload::Hit => "serve-hit",
            Workload::Mix => "serve-mix",
        };
        let path = args.out_dir.join(format!("spans-{name}.tsv"));
        tracer.write_tsv(&path)?;
        out.info(
            "spans",
            format!("{} written to {}", tracer.spans().len(), path.display()),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_service::{serve, Endpoint, ServiceConfig};

    #[test]
    fn reply_layout_constants_match_the_protocol() {
        let e = &gen::mix_table()[0];
        let schedule = wire::decode_schedule(&e.schedule).unwrap();
        let reply = encode_response(&Response::Schedule {
            cached: true,
            micros: 42,
            schedule,
        });
        assert_eq!(reply[0], SCHEDULE_KIND);
        assert_eq!(check_reply(&reply, e, Some(true)), Verdict::Ok);
        assert_eq!(check_reply(&reply, e, Some(false)), Verdict::Mismatch);
        let busy = encode_response(&Response::Busy { retry_after_ms: 1 });
        assert_eq!(check_reply(&busy, e, None), Verdict::Refused);
        let mut bad = reply.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(check_reply(&bad, e, None), Verdict::Mismatch);
    }

    /// The reconciliation on a tiny serve-mix stream against an
    /// in-process daemon: exact counts pass, a perturbed count fails.
    #[test]
    fn stats_reconcile_on_a_tiny_stream() {
        let handle = serve(
            &Endpoint::parse("127.0.0.1:0"),
            ServiceConfig {
                workers: 2,
                cache_capacity: DAEMON_CACHE,
                cache_shards: DAEMON_SHARDS,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let mut plan = Plan::new(Workload::Mix, 11);
        plan.record = false;
        plan.warm.truncate(8);
        let mut conn = Conn::open(&handle.endpoint().to_string()).unwrap();
        for &i in &plan.warm {
            let reply = conn.round_trip(&plan.entries[i].payload).unwrap();
            assert_eq!(check_reply(&reply, &plan.entries[i], None), Verdict::Ok);
        }
        let mut sent = Vec::new();
        for _ in 0..40 {
            let i = plan.cursors[0].next_index();
            let reply = conn.round_trip(&plan.entries[i].payload).unwrap();
            assert_eq!(check_reply(&reply, &plan.entries[i], None), Verdict::Ok);
            sent.push(i);
        }
        let Response::Stats(stats) = conn.request(&Request::Stats).unwrap() else {
            panic!("no stats");
        };
        // Journaling is off in this rig: only the journal checks differ.
        let mut problems = Vec::new();
        reconcile(&plan, &stats, &sent, &mut problems);
        assert_eq!(
            problems,
            vec![format!("stats: journal_appended = 0, expected 48")]
        );
        let mut problems = Vec::new();
        reconcile(&plan, &stats, &sent[1..], &mut problems);
        assert!(problems.iter().any(|p| p.contains("schedule_requests")));
        conn.request(&Request::Shutdown).unwrap();
        handle.join();
    }

    #[test]
    fn replayed_layers_match_the_expected_reply() {
        let plan = Plan::new(Workload::Mix, 5);
        let layers = Layers::new(true, Instant::now());
        let mut th = LayerThread::new(layers.epoch);
        for (k, &i) in plan.stream.iter().take(50).enumerate() {
            layers.replay(&mut th, &plan.entries[i], k as u64, 0);
        }
        assert!(th.problems.is_empty(), "{:?}", th.problems);
        assert!(th.writes_per_frame.iter().all(|&w| w == 3));
        assert_eq!(th.journal_bytes.len(), 50);
        let roots = th
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "request")
            .count();
        assert_eq!(roots, 50);
    }
}
