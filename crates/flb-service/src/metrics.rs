//! Live service counters: lock-free atomics updated on every request,
//! snapshotted on demand by the `stats` protocol request.

use crate::journal::JournalCounters;
use crate::overload::OverloadState;
use flb_core::AlgorithmId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::overload::TenantStat;

const N_ALGS: usize = AlgorithmId::ALL.len();

/// Power-of-two latency histogram: bucket `i` counts samples whose
/// microsecond latency has `i` significant bits, i.e. lies in
/// `[2^(i-1), 2^i)`. 64 buckets cover every `u64`, and quantiles are read
/// back as the upper bound of the containing bucket — a ≤ 2× systematic
/// overestimate, which is plenty for p50/p99 service dashboards.
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The power-of-two bucket holding `micros`: bucket `i > 0` holds
/// `[2^(i-1), 2^i)`, bucket 0 holds 0. Shared with the queue-wait
/// histograms of `overload`.
pub(crate) fn bucket(micros: u64) -> usize {
    (64 - micros.leading_zeros() as usize).min(63)
}

/// The `q`-quantile of power-of-two bucket counts, as the upper bound of
/// the bucket holding that sample; 0 when no samples were recorded.
pub(crate) fn quantile(counts: &[u64; 64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return if i == 0 { 0 } else { 1u64 << i };
        }
    }
    u64::MAX
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&self, micros: u64) {
        self.buckets[bucket(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds, as the upper bound
    /// of the bucket holding that sample; 0 when no samples were recorded.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        quantile(
            &std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            q,
        )
    }
}

/// All live counters of a running service.
#[derive(Default)]
pub struct Metrics {
    /// Protocol requests of any kind.
    pub requests: AtomicU64,
    /// Schedule requests specifically.
    pub schedule_requests: AtomicU64,
    /// Schedule requests answered from the fingerprint cache.
    pub cache_hits: AtomicU64,
    /// Schedule requests that missed the cache and were enqueued.
    pub cache_misses: AtomicU64,
    /// Actual scheduler invocations by the worker pool.
    pub scheduler_invocations: AtomicU64,
    /// Requests rejected with a backpressure (busy) response.
    pub rejected: AtomicU64,
    /// Requests shed by overload policy (`overloaded` responses).
    pub shed: AtomicU64,
    /// Requests rejected by an open per-tenant circuit breaker.
    pub breaker_rejected: AtomicU64,
    /// Requests whose deadline expired while queued.
    pub expired: AtomicU64,
    /// Requests answered with a protocol error.
    pub errors: AtomicU64,
    /// Socket read/write timeouts observed on connections.
    pub io_timeouts: AtomicU64,
    /// Connections evicted for exceeding an I/O deadline (slow-loris
    /// senders, unresponsive readers).
    pub evicted_slow: AtomicU64,
    /// Scheduler panics caught and converted into `error` responses.
    pub worker_panics: AtomicU64,
    /// Dead worker threads replaced by the supervisor.
    pub worker_respawns: AtomicU64,
    /// Cache snapshots written (periodic and shutdown).
    pub snapshot_saves: AtomicU64,
    /// Cache entries loaded from a snapshot at boot.
    pub snapshot_loaded: AtomicU64,
    /// Corrupt snapshots quarantined instead of loaded.
    pub snapshot_quarantined: AtomicU64,
    /// Schedule requests per algorithm, indexed by wire code.
    pub per_algorithm: [AtomicU64; N_ALGS],
    /// End-to-end latency of answered schedule requests.
    pub latency: LatencyHistogram,
    /// Request-journal counters, shared with the journal writer thread
    /// and boot recovery (hence the `Arc`).
    pub journal: Arc<JournalCounters>,
}

impl Metrics {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one schedule request for `alg`.
    pub fn count_algorithm(&self, alg: AlgorithmId) {
        Self::bump(&self.per_algorithm[alg.code() as usize]);
    }

    /// A consistent point-in-time copy of every counter. The [`Gauges`]
    /// are instantaneous values owned by the server and passed in, as
    /// are the per-tenant rows (aggregated by the admission controller).
    #[must_use]
    pub fn snapshot(&self, gauges: Gauges, per_tenant: Vec<TenantStat>) -> StatsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            requests: get(&self.requests),
            schedule_requests: get(&self.schedule_requests),
            cache_hits: get(&self.cache_hits),
            cache_misses: get(&self.cache_misses),
            scheduler_invocations: get(&self.scheduler_invocations),
            rejected: get(&self.rejected),
            shed: get(&self.shed),
            breaker_rejected: get(&self.breaker_rejected),
            expired: get(&self.expired),
            errors: get(&self.errors),
            io_timeouts: get(&self.io_timeouts),
            evicted_slow: get(&self.evicted_slow),
            worker_panics: get(&self.worker_panics),
            worker_respawns: get(&self.worker_respawns),
            snapshot_saves: get(&self.snapshot_saves),
            snapshot_loaded: get(&self.snapshot_loaded),
            snapshot_quarantined: get(&self.snapshot_quarantined),
            queue_depth: gauges.queue_depth,
            workers: gauges.workers,
            cache_entries: gauges.cache_entries,
            open_connections: gauges.open_connections,
            overload_state: gauges.overload_state,
            overload_transitions: gauges.overload_transitions,
            tenants_tracked: gauges.tenants_tracked,
            p50_us: self.latency.quantile(0.50),
            p99_us: self.latency.quantile(0.99),
            per_algorithm: AlgorithmId::ALL
                .into_iter()
                .map(|a| (a, get(&self.per_algorithm[a.code() as usize])))
                .collect(),
            per_tenant,
            journal_appended: get(&self.journal.appended),
            journal_dropped: get(&self.journal.dropped),
            journal_bytes: get(&self.journal.bytes),
            journal_segments: get(&self.journal.segments),
            journal_recovered: get(&self.journal.recovered),
            journal_truncated_bytes: get(&self.journal.truncated_bytes),
            journal_quarantined: get(&self.journal.quarantined),
            quarantine_pruned: get(&self.journal.pruned),
        }
    }
}

/// Instantaneous values measured by the server at snapshot time (as
/// opposed to the monotonic counters in [`Metrics`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    /// Jobs waiting in the queue.
    pub queue_depth: u64,
    /// Live worker threads (the self-healing pool keeps this at the
    /// configured size).
    pub workers: u64,
    /// Entries in the schedule cache.
    pub cache_entries: u64,
    /// Connection threads currently open.
    pub open_connections: u64,
    /// The overload governor's current state.
    pub overload_state: OverloadState,
    /// Governor state transitions since boot.
    pub overload_transitions: u64,
    /// Tenants currently tracked by the admission controller.
    pub tenants_tracked: u64,
}

/// A point-in-time copy of the service counters, as carried by the
/// `stats` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Protocol requests of any kind.
    pub requests: u64,
    /// Schedule requests specifically.
    pub schedule_requests: u64,
    /// Schedule requests answered from the fingerprint cache.
    pub cache_hits: u64,
    /// Schedule requests that missed the cache.
    pub cache_misses: u64,
    /// Actual scheduler invocations by the worker pool.
    pub scheduler_invocations: u64,
    /// Requests rejected with a backpressure response.
    pub rejected: u64,
    /// Requests shed by overload policy (`overloaded` responses).
    pub shed: u64,
    /// Requests rejected by an open per-tenant circuit breaker.
    pub breaker_rejected: u64,
    /// Requests whose deadline expired while queued.
    pub expired: u64,
    /// Requests answered with a protocol error.
    pub errors: u64,
    /// Socket read/write timeouts observed on connections.
    pub io_timeouts: u64,
    /// Connections evicted for exceeding an I/O deadline.
    pub evicted_slow: u64,
    /// Scheduler panics caught and answered with an `error` response.
    pub worker_panics: u64,
    /// Dead worker threads replaced by the supervisor.
    pub worker_respawns: u64,
    /// Cache snapshots written (periodic and shutdown).
    pub snapshot_saves: u64,
    /// Cache entries loaded from a snapshot at boot.
    pub snapshot_loaded: u64,
    /// Corrupt snapshots quarantined instead of loaded.
    pub snapshot_quarantined: u64,
    /// Jobs waiting in the queue at snapshot time.
    pub queue_depth: u64,
    /// Live worker threads at snapshot time.
    pub workers: u64,
    /// Entries in the schedule cache at snapshot time.
    pub cache_entries: u64,
    /// Connection threads open at snapshot time.
    pub open_connections: u64,
    /// The overload governor's state at snapshot time.
    pub overload_state: OverloadState,
    /// Governor state transitions since boot.
    pub overload_transitions: u64,
    /// Tenants tracked by the admission controller at snapshot time.
    pub tenants_tracked: u64,
    /// Approximate median schedule-request latency (µs).
    pub p50_us: u64,
    /// Approximate 99th-percentile schedule-request latency (µs).
    pub p99_us: u64,
    /// Schedule requests per algorithm.
    pub per_algorithm: Vec<(AlgorithmId, u64)>,
    /// Per-tenant admission counters, aggregated by display name.
    pub per_tenant: Vec<TenantStat>,
    /// Journal records durably written.
    pub journal_appended: u64,
    /// Journal events shed (full queue or failing disk) — never blocks
    /// a client.
    pub journal_dropped: u64,
    /// Journal bytes written, framing included.
    pub journal_bytes: u64,
    /// Journal segment files opened since boot.
    pub journal_segments: u64,
    /// Intact records found by journal boot recovery.
    pub journal_recovered: u64,
    /// Torn-tail bytes truncated by journal boot recovery.
    pub journal_truncated_bytes: u64,
    /// Corrupt journal segments quarantined at boot.
    pub journal_quarantined: u64,
    /// Old quarantine files (snapshot and journal) pruned under the
    /// evidence cap.
    pub quarantine_pruned: u64,
}

impl StatsSnapshot {
    /// Cache hit rate over answered schedule lookups, in `0.0..=1.0`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let looked_up = self.cache_hits + self.cache_misses;
        if looked_up == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked_up as f64
        }
    }

    /// Renders the snapshot as the CLI's aligned key/value block.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "requests        {}", self.requests);
        let _ = writeln!(out, "schedule reqs   {}", self.schedule_requests);
        let _ = writeln!(out, "cache hits      {}", self.cache_hits);
        let _ = writeln!(out, "cache misses    {}", self.cache_misses);
        let _ = writeln!(out, "hit rate        {:.3}", self.hit_rate());
        let _ = writeln!(out, "invocations     {}", self.scheduler_invocations);
        let _ = writeln!(out, "rejected (busy) {}", self.rejected);
        let _ = writeln!(out, "expired         {}", self.expired);
        let _ = writeln!(out, "errors          {}", self.errors);
        let _ = writeln!(out, "io timeouts     {}", self.io_timeouts);
        let _ = writeln!(out, "evicted slow    {}", self.evicted_slow);
        let _ = writeln!(out, "worker panics   {}", self.worker_panics);
        let _ = writeln!(out, "worker respawns {}", self.worker_respawns);
        let _ = writeln!(out, "snapshot saves  {}", self.snapshot_saves);
        let _ = writeln!(out, "snapshot loaded {}", self.snapshot_loaded);
        let _ = writeln!(out, "snapshot quar.  {}", self.snapshot_quarantined);
        let _ = writeln!(out, "queue depth     {}", self.queue_depth);
        let _ = writeln!(out, "workers         {}", self.workers);
        let _ = writeln!(out, "cache entries   {}", self.cache_entries);
        let _ = writeln!(out, "open conns      {}", self.open_connections);
        let _ = writeln!(out, "latency p50     {} us", self.p50_us);
        let _ = writeln!(out, "latency p99     {} us", self.p99_us);
        for (alg, n) in &self.per_algorithm {
            if *n > 0 {
                let _ = writeln!(out, "  {:<13} {n}", alg.name());
            }
        }
        let _ = writeln!(out, "shed (overload) {}", self.shed);
        let _ = writeln!(out, "breaker reject  {}", self.breaker_rejected);
        let _ = writeln!(out, "overload state  {}", self.overload_state.name());
        let _ = writeln!(out, "state changes   {}", self.overload_transitions);
        let _ = writeln!(out, "tenants tracked {}", self.tenants_tracked);
        for t in &self.per_tenant {
            let _ = writeln!(
                out,
                "  tenant {:<12} adm {} shed {} brk {}{} wait p99 {} us",
                t.name,
                t.admitted,
                t.shed,
                t.breaker_rejected,
                if t.breaker_open { " OPEN" } else { "" },
                t.wait_p99_us
            );
        }
        let _ = writeln!(out, "jrnl appended   {}", self.journal_appended);
        let _ = writeln!(out, "jrnl dropped    {}", self.journal_dropped);
        let _ = writeln!(out, "jrnl bytes      {}", self.journal_bytes);
        let _ = writeln!(out, "jrnl segments   {}", self.journal_segments);
        let _ = writeln!(out, "jrnl recovered  {}", self.journal_recovered);
        let _ = writeln!(out, "jrnl truncated  {}", self.journal_truncated_bytes);
        let _ = writeln!(out, "jrnl quarantine {}", self.journal_quarantined);
        let _ = writeln!(out, "quar. pruned    {}", self.quarantine_pruned);
        out
    }

    /// Renders the snapshot as the stable `flb-service-stats/v1` JSON
    /// document (`flb stats --format json`).
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{STATS_SCHEMA}\",");
        let fields: &[(&str, u64)] = &[
            ("requests", self.requests),
            ("schedule_requests", self.schedule_requests),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("scheduler_invocations", self.scheduler_invocations),
            ("rejected", self.rejected),
            ("shed", self.shed),
            ("breaker_rejected", self.breaker_rejected),
            ("expired", self.expired),
            ("errors", self.errors),
            ("io_timeouts", self.io_timeouts),
            ("evicted_slow", self.evicted_slow),
            ("worker_panics", self.worker_panics),
            ("worker_respawns", self.worker_respawns),
            ("snapshot_saves", self.snapshot_saves),
            ("snapshot_loaded", self.snapshot_loaded),
            ("snapshot_quarantined", self.snapshot_quarantined),
            ("queue_depth", self.queue_depth),
            ("workers", self.workers),
            ("cache_entries", self.cache_entries),
            ("open_connections", self.open_connections),
            ("overload_transitions", self.overload_transitions),
            ("tenants_tracked", self.tenants_tracked),
            ("p50_us", self.p50_us),
            ("p99_us", self.p99_us),
            ("journal_appended", self.journal_appended),
            ("journal_dropped", self.journal_dropped),
            ("journal_bytes", self.journal_bytes),
            ("journal_segments", self.journal_segments),
            ("journal_recovered", self.journal_recovered),
            ("journal_truncated_bytes", self.journal_truncated_bytes),
            ("journal_quarantined", self.journal_quarantined),
            ("quarantine_pruned", self.quarantine_pruned),
        ];
        for (k, v) in fields {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        let _ = writeln!(out, "  \"hit_rate\": {:.6},", self.hit_rate());
        let _ = writeln!(
            out,
            "  \"overload_state\": {},",
            json_str(self.overload_state.name())
        );
        out.push_str("  \"per_algorithm\": [");
        let mut first = true;
        for (alg, n) in &self.per_algorithm {
            if *n == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\": {}, \"count\": {n}}}",
                json_str(alg.name())
            );
        }
        out.push_str("],\n");
        out.push_str("  \"per_tenant\": [");
        for (i, t) in self.per_tenant.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"admitted\": {}, \"shed\": {}, \"breaker_rejected\": {}, \"breaker_open\": {}, \"wait_p50_us\": {}, \"wait_p99_us\": {}}}",
                json_str(&t.name),
                t.admitted,
                t.shed,
                t.breaker_rejected,
                t.breaker_open,
                t.wait_p50_us,
                t.wait_p99_us
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Schema identifier of [`StatsSnapshot::render_json`] documents.
pub const STATS_SCHEMA: &str = "flb-service-stats/v1";

/// Minimal JSON string quoting (the service crate deliberately has no
/// JSON dependency; tenant names are the only free-form strings here).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for _ in 0..99 {
            h.record(100); // bucket [64, 128) -> reported as 128
        }
        h.record(10_000); // bucket [8192, 16384) -> reported as 16384
        assert_eq!(h.quantile(0.50), 128);
        assert_eq!(h.quantile(0.99), 128);
        assert_eq!(h.quantile(1.0), 16_384);
        // The reported value is within 2x above the true sample.
        assert!(h.quantile(0.5) >= 100 && h.quantile(0.5) < 200);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn snapshot_copies_counters() {
        let m = Metrics::default();
        Metrics::bump(&m.requests);
        Metrics::bump(&m.requests);
        Metrics::bump(&m.cache_hits);
        m.count_algorithm(AlgorithmId::Etf);
        Metrics::bump(&m.worker_panics);
        Metrics::bump(&m.io_timeouts);
        Metrics::bump(&m.shed);
        Metrics::bump(&m.breaker_rejected);
        let s = m.snapshot(
            Gauges {
                queue_depth: 3,
                workers: 4,
                cache_entries: 5,
                open_connections: 2,
                overload_state: OverloadState::Shedding,
                overload_transitions: 1,
                tenants_tracked: 2,
            },
            vec![TenantStat {
                name: "team-a".into(),
                admitted: 7,
                shed: 1,
                breaker_open: true,
                ..TenantStat::default()
            }],
        );
        assert_eq!(s.requests, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.workers, 4);
        assert_eq!(s.cache_entries, 5);
        assert_eq!(s.open_connections, 2);
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.io_timeouts, 1);
        assert!(s.render().contains("worker panics   1"));
        assert_eq!(
            s.per_algorithm
                .iter()
                .find(|(a, _)| *a == AlgorithmId::Etf)
                .unwrap()
                .1,
            1
        );
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.shed, 1);
        assert_eq!(s.breaker_rejected, 1);
        assert_eq!(s.overload_state, OverloadState::Shedding);
        assert_eq!(s.tenants_tracked, 2);
        let rendered = s.render();
        assert!(rendered.contains("cache hits      1"));
        assert!(rendered.contains("shed (overload) 1"));
        assert!(rendered.contains("overload state  shedding"));
        assert!(rendered.contains("tenant team-a"));
        assert!(rendered.contains("OPEN"));
    }

    #[test]
    fn journal_counters_flow_into_the_snapshot_and_renderings() {
        let m = Metrics::default();
        m.journal.appended.store(5, Ordering::Relaxed);
        m.journal.dropped.store(2, Ordering::Relaxed);
        m.journal.pruned.store(3, Ordering::Relaxed);
        let s = m.snapshot(Gauges::default(), vec![]);
        assert_eq!(s.journal_appended, 5);
        assert_eq!(s.journal_dropped, 2);
        assert_eq!(s.quarantine_pruned, 3);
        let text = s.render();
        assert!(text.contains("jrnl appended   5"));
        assert!(text.contains("jrnl dropped    2"));
        assert!(text.contains("quar. pruned    3"));
        let json = s.render_json();
        assert!(json.contains("\"schema\": \"flb-service-stats/v1\""));
        assert!(json.contains("\"journal_appended\": 5"));
        assert!(json.contains("\"quarantine_pruned\": 3"));
    }

    #[test]
    fn json_strings_escape_hostile_tenant_names() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\ny\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
