//! A seeded chaos harness for the daemon's transport and worker layers.
//!
//! The harness hurls deterministic (per-seed) streams of hostile traffic
//! at a *running* daemon — torn frames, byte corruption, mid-request
//! disconnects, connection floods, deadline storms, oversize frames and
//! (when the server was started with panic injection enabled) scheduler
//! panics and hard worker kills — while periodically verifying, over the
//! same endpoint, that a well-formed client is still served correctly.
//!
//! Invariants checked (violations land in [`ChaosReport::failures`]):
//!
//! * the server keeps answering well-formed probes throughout the run;
//! * an injected scheduler panic yields a structured `error` response and
//!   the connection stays usable for the next request;
//! * after the run the worker pool is back at full strength, the queue
//!   drains, and the counters are self-consistent
//!   (`cache_hits + cache_misses == schedule_requests`).
//!
//! Every scenario is derived from one [`StdRng`] stream, so a failing
//! run is reproducible from its seed alone.

use crate::client::{Client, Submission};
use crate::journal;
use crate::proto::{encode_request, read_response, write_frame, Request, MAGIC, MAX_FRAME};
use crate::server::{Endpoint, Stream, HARD_PANIC_MARKER, PANIC_MARKER};
use flb_core::{AlgorithmId, ScheduleRequest};
use flb_graph::{gen, TaskGraph, TaskGraphBuilder};
use flb_sched::Machine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// RNG seed; the whole run is deterministic per seed.
    pub seed: u64,
    /// Hostile scenarios to run.
    pub scenarios: u32,
    /// Connections opened per flood scenario.
    pub flood_connections: usize,
    /// Run a well-formed probe every this many scenarios.
    pub probe_every: u32,
    /// Include panic-injection scenarios (requires a server started with
    /// `panic_injection: true`; against a production server leave this
    /// off — the markers would just be scheduled as ordinary graphs).
    pub inject_panics: bool,
    /// Assert the pool is back at this size after the run.
    pub expect_workers: Option<u64>,
    /// Run the tenant-overload scenarios (floods, quota edges, breaker
    /// flapping, priority inversion) and the end-of-run isolation
    /// experiment with its machine-checked invariants.
    pub tenant_chaos: bool,
    /// Threads tight-looping as the flooding tenant in the isolation
    /// experiment.
    pub flood_threads: usize,
    /// Upper bound on the flood's duration, in milliseconds.
    pub flood_ms: u64,
    /// Paced probe-tenant requests per isolation measurement phase.
    pub probe_requests: u32,
    /// Floor under the baseline p99 used by the isolation bound, in
    /// microseconds: the invariant is
    /// `flooded_p99 <= 3 * max(baseline_p99, floor)`, so a near-zero
    /// unloaded baseline does not make the bound impossibly tight.
    pub isolation_floor_us: u64,
    /// Recorded trace (journal directory or single segment) used as the
    /// mutation corpus: the torn/partial/disconnect/corruption scenarios
    /// then maul *real recorded traffic* instead of synthetic frames.
    pub trace: Option<PathBuf>,
    /// Run the stalled-journal scenario and require the daemon's journal
    /// drop counter to move. Only meaningful against a daemon started
    /// with `--record` and a deliberately slowed writer
    /// (`--journal-stall-ms`): it proves the journal sheds records under
    /// disk stall while every client request keeps being served.
    pub expect_journal_drops: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xF1B,
            scenarios: 500,
            flood_connections: 16,
            probe_every: 25,
            inject_panics: false,
            expect_workers: None,
            tenant_chaos: false,
            flood_threads: 4,
            flood_ms: 2_000,
            probe_requests: 30,
            isolation_floor_us: 50_000,
            trace: None,
            expect_journal_drops: false,
        }
    }
}

/// What a chaos run did and found.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Scenarios executed, by kind.
    pub torn_frames: u64,
    /// Frames written in trickled chunks and abandoned mid-frame.
    pub partial_writes: u64,
    /// Valid requests whose connection was dropped before the reply.
    pub disconnects: u64,
    /// Valid frames with random bytes flipped before sending.
    pub corruptions: u64,
    /// Connection-flood scenarios.
    pub floods: u64,
    /// Deadline-storm scenarios (batches of 1 ms deadlines).
    pub deadline_storms: u64,
    /// Oversize length-prefix frames sent.
    pub oversize_frames: u64,
    /// Scheduler panics injected via the soft marker.
    pub panics_injected: u64,
    /// Worker threads killed via the hard marker.
    pub hard_kills: u64,
    /// Tenant-flood scenarios (one tenant bursting past any sane quota).
    pub tenant_floods: u64,
    /// Quota-edge scenarios (a hog bursting while a bystander submits).
    pub quota_edges: u64,
    /// Breaker-flap scenarios (panic until open, verify half-open heal).
    pub breaker_flaps: u64,
    /// Priority-inversion scenarios (elephant backlog vs. a small job).
    pub priority_inversions: u64,
    /// Probe-tenant p99 latency with the service unloaded, microseconds.
    pub baseline_p99_us: u64,
    /// Probe-tenant p99 latency while one tenant floods, microseconds.
    pub flooded_p99_us: u64,
    /// Probe-tenant requests shed during the flood (must be zero).
    pub probe_shed: u64,
    /// Well-formed probes that were served correctly.
    pub probes_ok: u64,
    /// Recorded frames loaded as the mutation corpus (0 = synthetic).
    pub trace_frames: u64,
    /// Stalled-journal probe bursts executed.
    pub journal_probes: u64,
    /// The daemon's journal drop counter after the stalled-journal burst.
    pub journal_dropped_seen: u64,
    /// Invariant violations; an empty list means the run passed.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total hostile scenarios executed.
    #[must_use]
    pub fn scenarios_run(&self) -> u64 {
        self.torn_frames
            + self.partial_writes
            + self.disconnects
            + self.corruptions
            + self.floods
            + self.deadline_storms
            + self.oversize_frames
            + self.panics_injected
            + self.hard_kills
            + self.tenant_floods
            + self.quota_edges
            + self.breaker_flaps
            + self.priority_inversions
    }

    /// Renders the report as an aligned key/value block.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "scenarios       {}", self.scenarios_run());
        let _ = writeln!(out, "torn frames     {}", self.torn_frames);
        let _ = writeln!(out, "partial writes  {}", self.partial_writes);
        let _ = writeln!(out, "disconnects     {}", self.disconnects);
        let _ = writeln!(out, "corruptions     {}", self.corruptions);
        let _ = writeln!(out, "floods          {}", self.floods);
        let _ = writeln!(out, "deadline storms {}", self.deadline_storms);
        let _ = writeln!(out, "oversize frames {}", self.oversize_frames);
        let _ = writeln!(out, "panics injected {}", self.panics_injected);
        let _ = writeln!(out, "hard kills      {}", self.hard_kills);
        let _ = writeln!(out, "tenant floods   {}", self.tenant_floods);
        let _ = writeln!(out, "quota edges     {}", self.quota_edges);
        let _ = writeln!(out, "breaker flaps   {}", self.breaker_flaps);
        let _ = writeln!(out, "prio inversions {}", self.priority_inversions);
        let _ = writeln!(out, "baseline p99 us {}", self.baseline_p99_us);
        let _ = writeln!(out, "flooded p99 us  {}", self.flooded_p99_us);
        let _ = writeln!(out, "probe shed      {}", self.probe_shed);
        let _ = writeln!(out, "probes ok       {}", self.probes_ok);
        let _ = writeln!(out, "trace frames    {}", self.trace_frames);
        let _ = writeln!(out, "journal probes  {}", self.journal_probes);
        let _ = writeln!(out, "journal dropped {}", self.journal_dropped_seen);
        let _ = writeln!(out, "failures        {}", self.failures.len());
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL: {f}");
        }
        out
    }

    /// Renders the report as a single stable-schema JSON object
    /// (`flb-chaos/v1`), for machine consumption in CI.
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{CHAOS_SCHEMA}\",");
        let _ = writeln!(out, "  \"scenarios\": {},", self.scenarios_run());
        let _ = writeln!(out, "  \"torn_frames\": {},", self.torn_frames);
        let _ = writeln!(out, "  \"partial_writes\": {},", self.partial_writes);
        let _ = writeln!(out, "  \"disconnects\": {},", self.disconnects);
        let _ = writeln!(out, "  \"corruptions\": {},", self.corruptions);
        let _ = writeln!(out, "  \"floods\": {},", self.floods);
        let _ = writeln!(out, "  \"deadline_storms\": {},", self.deadline_storms);
        let _ = writeln!(out, "  \"oversize_frames\": {},", self.oversize_frames);
        let _ = writeln!(out, "  \"panics_injected\": {},", self.panics_injected);
        let _ = writeln!(out, "  \"hard_kills\": {},", self.hard_kills);
        let _ = writeln!(out, "  \"tenant_floods\": {},", self.tenant_floods);
        let _ = writeln!(out, "  \"quota_edges\": {},", self.quota_edges);
        let _ = writeln!(out, "  \"breaker_flaps\": {},", self.breaker_flaps);
        let _ = writeln!(
            out,
            "  \"priority_inversions\": {},",
            self.priority_inversions
        );
        let _ = writeln!(out, "  \"baseline_p99_us\": {},", self.baseline_p99_us);
        let _ = writeln!(out, "  \"flooded_p99_us\": {},", self.flooded_p99_us);
        let _ = writeln!(out, "  \"probe_shed\": {},", self.probe_shed);
        let _ = writeln!(out, "  \"probes_ok\": {},", self.probes_ok);
        let _ = writeln!(out, "  \"trace_frames\": {},", self.trace_frames);
        let _ = writeln!(out, "  \"journal_probes\": {},", self.journal_probes);
        let _ = writeln!(
            out,
            "  \"journal_dropped_seen\": {},",
            self.journal_dropped_seen
        );
        let _ = writeln!(out, "  \"passed\": {},", self.passed());
        let _ = write!(out, "  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", crate::metrics::json_str(f));
        }
        let _ = writeln!(out, "]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Stable identifier of the chaos JSON schema.
pub const CHAOS_SCHEMA: &str = "flb-chaos/v1";

/// Per-call read and write timeout of the rig's raw connections.
const RAW_TIMEOUT: Duration = Duration::from_secs(2);

/// A full protocol frame (header + payload) for `req`.
fn frame_bytes(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &encode_request(req)).expect("a chaos request fits one frame");
    out
}

/// A chain graph whose comp costs sit far outside anything the normal
/// chaos traffic generates, so marker fingerprints never collide with a
/// cached ordinary schedule (the fingerprint ignores the graph *name*,
/// and a cache hit would bypass the worker — and the injected panic).
fn marker_graph(name: &str, tasks: usize) -> TaskGraph {
    let mut b = TaskGraphBuilder::named(name);
    let mut prev = None;
    for i in 0..tasks.max(1) {
        let t = b.add_task(1_000_003 + i as u64);
        if let Some(p) = prev {
            b.add_edge(p, t, 3).expect("chain edge");
        }
        prev = Some(t);
    }
    b.build().expect("marker graph")
}

/// A small ordinary request with rng-varied shape (so some repeat and
/// exercise the cache while others miss).
fn ordinary_request(rng: &mut StdRng, deadline_ms: u64) -> Request {
    let graph = match rng.random_range(0..3u32) {
        0 => gen::chain(rng.random_range(2..8usize)),
        1 => gen::fork_join(rng.random_range(2..5usize), rng.random_range(1..3usize)),
        _ => gen::independent(rng.random_range(2..6usize)),
    };
    let alg = AlgorithmId::ALL[rng.random_range(0..AlgorithmId::ALL.len())];
    let machine = Machine::new(rng.random_range(1..5usize));
    Request::Schedule {
        request: Box::new(ScheduleRequest::new(alg, graph, machine)),
        deadline_ms,
        tenant: String::new(),
    }
}

/// Monotone source of globally unique comp costs for [`unique_graph`].
static UNIQUE_COST: AtomicU64 = AtomicU64::new(0);

/// A chain graph with globally unique comp costs, so every submission
/// misses the fingerprint cache and must traverse the admission-
/// controlled queue — a cache hit would bypass the overload layer and
/// make the tenant scenarios toothless. Costs start at 10M, far above
/// both ordinary traffic and the 1M-range marker graphs.
fn unique_graph(name: &str, tasks: usize) -> TaskGraph {
    let serial = UNIQUE_COST.fetch_add(1, Ordering::Relaxed);
    let base = 10_000_000 + serial * 1_000;
    let mut b = TaskGraphBuilder::named(name);
    let mut prev = None;
    for i in 0..tasks.clamp(1, 999) {
        let t = b.add_task(base + i as u64);
        if let Some(p) = prev {
            b.add_edge(p, t, 2).expect("chain edge");
        }
        prev = Some(t);
    }
    b.build().expect("unique graph")
}

/// A base frame for the byte-mutation scenarios: a recorded production
/// frame when a trace corpus is loaded, a synthetic request otherwise.
fn corpus_frame(rng: &mut StdRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    if corpus.is_empty() {
        frame_bytes(&ordinary_request(rng, 0))
    } else {
        corpus[rng.random_range(0..corpus.len())].clone()
    }
}

fn scenario_torn_frame(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    corpus: &[Vec<u8>],
) -> io::Result<()> {
    let bytes = corpus_frame(rng, corpus);
    let cut = rng.random_range(1..bytes.len());
    let mut conn = Stream::connect(endpoint, Some(RAW_TIMEOUT))?;
    conn.write_all(&bytes[..cut])?;
    Ok(()) // dropped mid-frame
}

fn scenario_partial_write(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    corpus: &[Vec<u8>],
) -> io::Result<()> {
    let bytes = corpus_frame(rng, corpus);
    let cut = rng.random_range(1..bytes.len());
    let mut conn = Stream::connect(endpoint, Some(RAW_TIMEOUT))?;
    let mut sent = 0;
    while sent < cut {
        let chunk = rng.random_range(1..=4usize).min(cut - sent);
        conn.write_all(&bytes[sent..sent + chunk])?;
        sent += chunk;
        if rng.random_bool(0.3) {
            std::thread::sleep(Duration::from_millis(rng.random_range(0..2u64)));
        }
    }
    Ok(()) // trickled, then abandoned
}

fn scenario_disconnect(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    corpus: &[Vec<u8>],
) -> io::Result<()> {
    let bytes = corpus_frame(rng, corpus);
    let mut conn = Stream::connect(endpoint, Some(RAW_TIMEOUT))?;
    conn.write_all(&bytes)?;
    // Hang up without reading the reply: the server's write hits a
    // closed socket and must shrug, not die.
    Ok(())
}

fn scenario_corruption(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    corpus: &[Vec<u8>],
) -> io::Result<()> {
    let mut bytes = corpus_frame(rng, corpus);
    for _ in 0..rng.random_range(1..=4u32) {
        let i = rng.random_range(0..bytes.len());
        bytes[i] ^= 1 << rng.random_range(0..8u32);
    }
    let mut conn = Stream::connect(endpoint, Some(RAW_TIMEOUT))?;
    conn.write_all(&bytes)?;
    let _ = read_response(&mut conn); // error response or disconnect; both fine
    Ok(())
}

fn scenario_flood(rng: &mut StdRng, endpoint: &Endpoint, connections: usize) -> io::Result<()> {
    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections {
        conns.push(Stream::connect(endpoint, Some(RAW_TIMEOUT))?);
    }
    let ping = frame_bytes(&Request::Ping);
    for conn in &mut conns {
        if rng.random_bool(0.5) {
            conn.write_all(&ping)?;
            if rng.random_bool(0.5) {
                let _ = read_response(conn);
            }
        }
    }
    Ok(()) // all dropped at once
}

fn scenario_deadline_storm(rng: &mut StdRng, endpoint: &Endpoint) -> io::Result<()> {
    let mut conn = Stream::connect(endpoint, Some(RAW_TIMEOUT))?;
    for _ in 0..8 {
        conn.write_all(&frame_bytes(&ordinary_request(rng, 1)))?;
    }
    for _ in 0..8 {
        let _ = read_response(&mut conn)?; // schedule, expired or busy
    }
    Ok(())
}

fn scenario_oversize(rng: &mut StdRng, endpoint: &Endpoint) -> io::Result<()> {
    let mut conn = Stream::connect(endpoint, Some(RAW_TIMEOUT))?;
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&(MAX_FRAME + rng.random_range(1..=1024u32)).to_le_bytes());
    conn.write_all(&header)?;
    let _ = read_response(&mut conn); // must be rejected without allocating
    Ok(())
}

/// Injects a soft scheduler panic and asserts the contract: a structured
/// error response naming the panic, on a connection that stays usable.
fn scenario_panic(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    failures: &mut Vec<String>,
) -> io::Result<()> {
    let mut client = Client::connect(endpoint)?;
    let graph = marker_graph(PANIC_MARKER, rng.random_range(1..6usize));
    match client.schedule(AlgorithmId::Flb, graph, Machine::new(2), 0) {
        Err(e) if e.to_string().contains("panicked") => {}
        other => failures.push(format!(
            "injected panic: expected a 'scheduler panicked' error, got {other:?}"
        )),
    }
    // The error must not have poisoned the connection.
    if let Err(e) = client.ping() {
        failures.push(format!("connection unusable after injected panic: {e}"));
    }
    Ok(())
}

/// Kills a worker thread via the hard marker; the reply must still arrive
/// (the worker dies *after* responding) and the supervisor refills the
/// pool, which the end-of-run worker check verifies.
fn scenario_hard_kill(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    failures: &mut Vec<String>,
) -> io::Result<()> {
    let mut client = Client::connect(endpoint)?;
    let graph = marker_graph(HARD_PANIC_MARKER, rng.random_range(6..12usize));
    match client.schedule(AlgorithmId::Flb, graph, Machine::new(2), 0) {
        Ok(crate::client::Submission::Done(_)) => {}
        other => failures.push(format!(
            "hard kill: expected a served schedule before the worker died, got {other:?}"
        )),
    }
    Ok(())
}

/// One named tenant bursts far past any sane quota on a single
/// connection. Every reply must be structured — schedule, busy,
/// overloaded or expired, never a protocol error — and the connection
/// must stay usable afterwards.
fn scenario_tenant_flood(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    failures: &mut Vec<String>,
) -> io::Result<()> {
    let mut client = Client::connect_as(endpoint, "chaos-burst")?;
    for _ in 0..24 {
        let graph = unique_graph("flood-burst", rng.random_range(3..9usize));
        match client.schedule(AlgorithmId::Flb, graph, Machine::new(2), 0) {
            Ok(_) => {}
            Err(e) => {
                failures.push(format!("tenant flood: unstructured failure: {e}"));
                return Ok(());
            }
        }
    }
    if let Err(e) = client.ping() {
        failures.push(format!("connection unusable after tenant flood: {e}"));
    }
    Ok(())
}

/// A hog tenant bursts while a bystander tenant submits one request:
/// the bystander must never be *shed* (global `busy` backpressure is
/// legal, quota punishment for someone else's burst is not).
fn scenario_quota_edge(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    failures: &mut Vec<String>,
) -> io::Result<()> {
    let mut hog = Client::connect_as(endpoint, "chaos-hog")?;
    for _ in 0..16 {
        let graph = unique_graph("hog", rng.random_range(3..7usize));
        let _ = hog.schedule(AlgorithmId::Etf, graph, Machine::new(2), 0);
    }
    let mut bystander = Client::connect_as(endpoint, "chaos-bystander")?;
    let graph = unique_graph("bystander", 4);
    match bystander.schedule_with_retry(AlgorithmId::Flb, &graph, &Machine::new(2), 0, 6)? {
        Submission::Done(_) | Submission::Busy { .. } => {}
        other => failures.push(format!(
            "quota edge: within-quota bystander punished for the hog's burst: {other:?}"
        )),
    }
    Ok(())
}

/// Panics as one tenant until its breaker opens, then verifies the
/// quarantine is per-tenant (a steady tenant is still served) and heals
/// (the half-open probe readmits the flapping tenant after cooldown).
fn scenario_breaker_flap(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    failures: &mut Vec<String>,
) -> io::Result<()> {
    let mut flappy = Client::connect_as(endpoint, "chaos-flappy")?;
    let mut opened = false;
    for _ in 0..12 {
        let graph = marker_graph(PANIC_MARKER, rng.random_range(1..6usize));
        match flappy.schedule(AlgorithmId::Flb, graph, Machine::new(2), 0) {
            Err(e) if e.to_string().contains("circuit breaker") => {
                opened = true;
                break;
            }
            Err(e) if e.to_string().contains("panicked") => {}
            other => {
                failures.push(format!(
                    "breaker flap: expected panic error or breaker-open, got {other:?}"
                ));
                return Ok(());
            }
        }
    }
    let mut steady = Client::connect_as(endpoint, "chaos-steady")?;
    let graph = unique_graph("steady", 4);
    match steady.schedule_with_retry(AlgorithmId::Flb, &graph, &Machine::new(2), 0, 6)? {
        Submission::Done(_) => {}
        other => failures.push(format!(
            "breaker flap: steady tenant caught in flappy's quarantine: {other:?}"
        )),
    }
    if opened {
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            let graph = unique_graph("flappy-heal", 4);
            match flappy.schedule(AlgorithmId::Flb, graph, Machine::new(2), 0) {
                Ok(Submission::Done(_)) => break,
                _ if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                other => {
                    failures.push(format!(
                        "breaker flap: no half-open recovery after cooldown: {other:?}"
                    ));
                    break;
                }
            }
        }
    }
    Ok(())
}

/// Parks a backlog of expensive jobs from an elephant tenant on idle
/// connections, then checks a small job from another tenant still
/// completes promptly — the fair queue must interleave, not FIFO the
/// mouse behind the herd.
fn scenario_priority_inversion(
    rng: &mut StdRng,
    endpoint: &Endpoint,
    failures: &mut Vec<String>,
) -> io::Result<()> {
    let mut parked = Vec::new();
    for _ in 0..10 {
        let mut conn = Stream::connect(endpoint, Some(RAW_TIMEOUT))?;
        let req = Request::Schedule {
            request: Box::new(ScheduleRequest::new(
                AlgorithmId::Etf,
                unique_graph("elephant", rng.random_range(60..120usize)),
                Machine::new(4),
            )),
            deadline_ms: 0,
            tenant: "chaos-elephant".into(),
        };
        conn.write_all(&frame_bytes(&req))?;
        parked.push(conn);
    }
    let t0 = Instant::now();
    let mut mouse = Client::connect_as(endpoint, "chaos-mouse")?;
    let graph = unique_graph("mouse", 4);
    match mouse.schedule_with_retry(AlgorithmId::Flb, &graph, &Machine::new(2), 0, 8)? {
        Submission::Done(_) => {
            if t0.elapsed() > Duration::from_secs(3) {
                failures.push(format!(
                    "priority inversion: small job took {:?} behind the elephant backlog",
                    t0.elapsed()
                ));
            }
        }
        other => failures.push(format!(
            "priority inversion: small job not served behind the backlog: {other:?}"
        )),
    }
    // Dropping the parked connections mid-service is the disconnect
    // scenario all over again; the server is known to tolerate it.
    drop(parked);
    Ok(())
}

/// Latencies and shed count from one paced probe-tenant measurement.
struct ProbeStats {
    latencies: Vec<u64>,
    shed: u64,
}

/// Submits `n` paced, cache-missing small jobs as the probe tenant,
/// riding out transient `busy` with short sleeps, and records the end-
/// to-end latency of each.
fn paced_probes(endpoint: &Endpoint, n: u32) -> io::Result<ProbeStats> {
    let mut client = Client::connect_as(endpoint, "chaos-probe")?;
    let mut out = ProbeStats {
        latencies: Vec::with_capacity(n as usize),
        shed: 0,
    };
    for _ in 0..n {
        let graph = unique_graph("probe", 5);
        let t0 = Instant::now();
        let mut attempts = 0u32;
        loop {
            match client.schedule(AlgorithmId::Flb, graph.clone(), Machine::new(2), 0)? {
                Submission::Done(_) => {
                    out.latencies.push(t0.elapsed().as_micros() as u64);
                    break;
                }
                Submission::Busy { retry_after_ms } => {
                    attempts += 1;
                    if attempts > 8 {
                        // Count the stall against the latency rather than
                        // dropping the sample.
                        out.latencies.push(t0.elapsed().as_micros() as u64);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 25)));
                }
                Submission::Overloaded { .. } => {
                    out.shed += 1;
                    break;
                }
                Submission::Expired => break,
            }
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    Ok(out)
}

/// The p99 of a latency sample (0 for an empty sample).
fn p99_us(latencies: &mut [u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let idx = (latencies.len() * 99 / 100).min(latencies.len() - 1);
    latencies[idx]
}

/// The machine-checked isolation invariant: measure the probe tenant's
/// p99 unloaded, then again while `flood_threads` threads tight-loop as
/// one flooding tenant; the probe p99 must stay within 3x the (floored)
/// baseline and not one probe request may be shed.
fn isolation_experiment(endpoint: &Endpoint, cfg: &ChaosConfig, report: &mut ChaosReport) {
    let mut baseline = match paced_probes(endpoint, cfg.probe_requests) {
        Ok(s) => s,
        Err(e) => {
            report
                .failures
                .push(format!("isolation baseline probes failed: {e}"));
            return;
        }
    };
    report.baseline_p99_us = p99_us(&mut baseline.latencies);

    let stop = Arc::new(AtomicBool::new(false));
    let flood_cap = Duration::from_millis(cfg.flood_ms.max(1));
    let mut floods = Vec::new();
    for _ in 0..cfg.flood_threads.max(1) {
        let endpoint = endpoint.clone();
        let stop = Arc::clone(&stop);
        floods.push(std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut conn = Client::connect_as(&endpoint, "chaos-flood").ok();
            while !stop.load(Ordering::Relaxed) && t0.elapsed() < flood_cap {
                let Some(client) = conn.as_mut() else {
                    conn = Client::connect_as(&endpoint, "chaos-flood").ok();
                    continue;
                };
                let graph = unique_graph("flood", 40);
                if client
                    .schedule(AlgorithmId::Etf, graph, Machine::new(4), 0)
                    .is_err()
                {
                    conn = None; // evicted or breaker-open: reconnect
                }
            }
        }));
    }
    // Let the flood saturate admission before measuring.
    std::thread::sleep(Duration::from_millis(100));
    let flooded = paced_probes(endpoint, cfg.probe_requests);
    stop.store(true, Ordering::Relaxed);
    for f in floods {
        let _ = f.join();
    }
    let mut flooded = match flooded {
        Ok(s) => s,
        Err(e) => {
            report
                .failures
                .push(format!("isolation probes under flood failed: {e}"));
            return;
        }
    };
    report.flooded_p99_us = p99_us(&mut flooded.latencies);
    report.probe_shed = flooded.shed;

    let bound = 3 * report.baseline_p99_us.max(cfg.isolation_floor_us.max(1));
    if report.flooded_p99_us > bound {
        report.failures.push(format!(
            "isolation violated: probe p99 {} us under flood exceeds the 3x bound {} us \
             (baseline p99 {} us)",
            report.flooded_p99_us, bound, report.baseline_p99_us
        ));
    }
    if report.probe_shed > 0 {
        report.failures.push(format!(
            "isolation violated: {} within-quota probe requests were shed during the flood",
            report.probe_shed
        ));
    }
}

/// The stalled-journal invariant: against a daemon whose journal writer
/// is deliberately slowed (`--journal-stall-ms`), a burst of journaled
/// schedule requests must all be served — the bounded hand-off sheds
/// *records*, visibly in the drop counter, never *clients*.
fn scenario_stalled_journal(rng: &mut StdRng, endpoint: &Endpoint, report: &mut ChaosReport) {
    report.journal_probes += 1;
    let outcome = (|| -> io::Result<()> {
        let mut client = Client::connect_as(endpoint, "chaos-journal")?;
        let t0 = Instant::now();
        for _ in 0..48 {
            let graph = unique_graph("journal-stall", rng.random_range(3..7usize));
            if let Err(e) = client.schedule(AlgorithmId::Flb, graph, Machine::new(2), 0) {
                report
                    .failures
                    .push(format!("stalled journal: request failed: {e}"));
                return Ok(());
            }
        }
        if t0.elapsed() > Duration::from_secs(5) {
            report.failures.push(format!(
                "stalled journal: 48 requests took {:?} — journaling is on the request path",
                t0.elapsed()
            ));
        }
        let stats = Client::connect(endpoint).and_then(|mut c| c.stats())?;
        report.journal_dropped_seen = stats.journal_dropped;
        if stats.journal_dropped == 0 {
            report.failures.push(
                "stalled journal: drop counter never moved — the stall was not absorbed \
                 by the bounded queue"
                    .to_string(),
            );
        }
        Ok(())
    })();
    if let Err(e) = outcome {
        report
            .failures
            .push(format!("stalled-journal probe failed outright: {e}"));
    }
}

/// A well-formed client doing a full ping + schedule round trip; its
/// success is the "keeps serving legitimate traffic" invariant.
fn probe(endpoint: &Endpoint, report: &mut ChaosReport) {
    let outcome = (|| -> io::Result<()> {
        let mut client = Client::connect(endpoint)?;
        client.ping()?;
        let graph = gen::fork_join(3, 2);
        match client.schedule_with_retry(AlgorithmId::Flb, &graph, &Machine::new(2), 0, 6)? {
            crate::client::Submission::Done(reply) => {
                if reply.schedule.makespan() == 0 {
                    return Err(io::Error::other("probe schedule has zero makespan"));
                }
                Ok(())
            }
            other => Err(io::Error::other(format!("probe not served: {other:?}"))),
        }
    })();
    match outcome {
        Ok(()) => report.probes_ok += 1,
        Err(e) => report
            .failures
            .push(format!("well-formed probe failed: {e}")),
    }
}

/// Polls `stats` until the pool is back at `expect` workers and the queue
/// is empty, or the budget runs out.
fn await_recovery(endpoint: &Endpoint, expect: Option<u64>, report: &mut ChaosReport) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = match Client::connect(endpoint).and_then(|mut c| c.stats()) {
            Ok(stats) => stats,
            Err(e) => {
                report
                    .failures
                    .push(format!("stats probe failed during recovery wait: {e}"));
                return;
            }
        };
        let healed = expect.is_none_or(|want| stats.workers == want);
        if healed && stats.queue_depth == 0 {
            if stats.cache_hits + stats.cache_misses != stats.schedule_requests {
                report.failures.push(format!(
                    "counter drift: hits {} + misses {} != schedule requests {}",
                    stats.cache_hits, stats.cache_misses, stats.schedule_requests
                ));
            }
            return;
        }
        if Instant::now() >= deadline {
            report.failures.push(format!(
                "pool did not recover: workers {} (want {expect:?}), queue depth {}",
                stats.workers, stats.queue_depth
            ));
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs the chaos campaign against a live daemon. `Err` means the daemon
/// was unreachable outright; invariant violations are collected in the
/// returned report instead.
pub fn run(endpoint: &Endpoint, cfg: &ChaosConfig) -> io::Result<ChaosReport> {
    // Fail fast (and loudly) if there is no server at all.
    Client::connect(endpoint)?.ping()?;

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = ChaosReport::default();

    // With a trace configured, the byte-mutation scenarios maul real
    // recorded frames instead of synthetic ones. An unreadable trace is
    // a usage error, reported loudly rather than silently degraded.
    let corpus: Vec<Vec<u8>> = match &cfg.trace {
        Some(path) => journal::read_trace(path)?
            .into_iter()
            .map(|rec| {
                let mut f = Vec::with_capacity(8 + rec.request.len());
                f.extend_from_slice(&MAGIC.to_le_bytes());
                f.extend_from_slice(&(rec.request.len() as u32).to_le_bytes());
                f.extend_from_slice(&rec.request);
                f
            })
            .collect(),
        None => Vec::new(),
    };
    if cfg.trace.is_some() && corpus.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "chaos trace holds no records",
        ));
    }
    report.trace_frames = corpus.len() as u64;

    for i in 0..cfg.scenarios {
        let kinds = if cfg.inject_panics { 9 } else { 7 };
        // Hostile-client I/O errors are expected (the server is allowed to
        // hang up on us); only invariant checks record failures.
        let _ = match rng.random_range(0..kinds as u32) {
            0 => {
                report.torn_frames += 1;
                scenario_torn_frame(&mut rng, endpoint, &corpus)
            }
            1 => {
                report.partial_writes += 1;
                scenario_partial_write(&mut rng, endpoint, &corpus)
            }
            2 => {
                report.disconnects += 1;
                scenario_disconnect(&mut rng, endpoint, &corpus)
            }
            3 => {
                report.corruptions += 1;
                scenario_corruption(&mut rng, endpoint, &corpus)
            }
            4 => {
                report.floods += 1;
                scenario_flood(&mut rng, endpoint, cfg.flood_connections)
            }
            5 => {
                report.deadline_storms += 1;
                scenario_deadline_storm(&mut rng, endpoint)
            }
            6 => {
                report.oversize_frames += 1;
                scenario_oversize(&mut rng, endpoint)
            }
            7 => {
                report.panics_injected += 1;
                scenario_panic(&mut rng, endpoint, &mut report.failures)
            }
            _ => {
                report.hard_kills += 1;
                scenario_hard_kill(&mut rng, endpoint, &mut report.failures)
            }
        };
        if cfg.probe_every > 0 && i % cfg.probe_every == 0 {
            probe(endpoint, &mut report);
        }
    }
    if cfg.tenant_chaos {
        // Tenant-overload scenarios run as a deterministic block after
        // the transport chaos (their invariants assume the service is
        // reachable, which the main loop just demonstrated).
        let rounds = (cfg.scenarios / 100).max(1);
        for _ in 0..rounds {
            report.tenant_floods += 1;
            let _ = scenario_tenant_flood(&mut rng, endpoint, &mut report.failures);
            report.quota_edges += 1;
            let _ = scenario_quota_edge(&mut rng, endpoint, &mut report.failures);
            report.priority_inversions += 1;
            let _ = scenario_priority_inversion(&mut rng, endpoint, &mut report.failures);
            if cfg.inject_panics {
                report.breaker_flaps += 1;
                let _ = scenario_breaker_flap(&mut rng, endpoint, &mut report.failures);
            }
            probe(endpoint, &mut report);
        }
        isolation_experiment(endpoint, cfg, &mut report);
    }
    if cfg.expect_journal_drops {
        scenario_stalled_journal(&mut rng, endpoint, &mut report);
    }
    probe(endpoint, &mut report);
    await_recovery(endpoint, cfg.expect_workers, &mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::request_fingerprint;

    #[test]
    fn marker_graphs_never_collide_with_ordinary_traffic() {
        // The whole injection scheme rests on marker fingerprints missing
        // the cache; comp costs of 1_000_003+ guarantee it against every
        // graph `ordinary_request` can produce.
        let mut rng = StdRng::seed_from_u64(1);
        let marker = marker_graph(PANIC_MARKER, 3);
        for _ in 0..200 {
            if let Request::Schedule { request, .. } = ordinary_request(&mut rng, 0) {
                let key =
                    |g: &TaskGraph| request_fingerprint(request.algorithm, g, &request.machine);
                assert_ne!(key(&marker), key(&request.graph));
            }
        }
    }

    #[test]
    fn frame_bytes_carry_magic_and_length() {
        let bytes = frame_bytes(&Request::Ping);
        assert_eq!(u32::from_le_bytes(bytes[..4].try_into().unwrap()), MAGIC);
        let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 8);
    }

    #[test]
    fn default_config_is_cautious() {
        let cfg = ChaosConfig::default();
        assert!(!cfg.inject_panics, "markers are opt-in");
        assert!(cfg.scenarios >= 500, "the acceptance floor");
    }

    #[test]
    fn report_bookkeeping() {
        let mut r = ChaosReport::default();
        assert!(r.passed());
        r.torn_frames = 2;
        r.floods = 1;
        r.tenant_floods = 1;
        r.breaker_flaps = 1;
        assert_eq!(r.scenarios_run(), 5);
        r.failures.push("x".into());
        assert!(!r.passed());
        assert!(r.render().contains("FAIL: x"));
        assert!(r.render().contains("probe shed      0"));
    }

    #[test]
    fn json_report_is_stable_and_escapes_failures() {
        let mut r = ChaosReport {
            torn_frames: 3,
            trace_frames: 12,
            journal_dropped_seen: 7,
            ..ChaosReport::default()
        };
        r.failures.push("quote \" and \\ slash".into());
        let json = r.render_json();
        assert!(json.contains("\"schema\": \"flb-chaos/v1\""));
        assert!(json.contains("\"torn_frames\": 3"));
        assert!(json.contains("\"trace_frames\": 12"));
        assert!(json.contains("\"journal_dropped_seen\": 7"));
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
    }

    #[test]
    fn corpus_frames_are_used_verbatim_when_present() {
        let mut rng = StdRng::seed_from_u64(9);
        let recorded = vec![vec![1u8, 2, 3, 4, 5, 6, 7, 8, 9]];
        for _ in 0..8 {
            assert_eq!(corpus_frame(&mut rng, &recorded), recorded[0]);
        }
        // And without a corpus, frames are synthesized with the magic.
        let synth = corpus_frame(&mut rng, &[]);
        assert_eq!(u32::from_le_bytes(synth[..4].try_into().unwrap()), MAGIC);
    }

    #[test]
    fn unique_graphs_never_repeat_a_fingerprint() {
        let key = |g: &TaskGraph| request_fingerprint(AlgorithmId::Flb, g, &Machine::new(2));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let g = unique_graph("u", 5);
            assert!(seen.insert(key(&g)), "fingerprint collision");
        }
        // And they stay clear of the marker-graph cost range.
        let marker = marker_graph(PANIC_MARKER, 5);
        assert!(!seen.contains(&key(&marker)));
    }

    #[test]
    fn p99_of_sorted_sample_is_near_the_top() {
        let mut lat: Vec<u64> = (1..=100).collect();
        assert_eq!(p99_us(&mut lat), 100);
        let mut one = vec![42];
        assert_eq!(p99_us(&mut one), 42);
        assert_eq!(p99_us(&mut []), 0);
    }
}
