//! Seeded request generators. The program only ever sees the encoded
//! requests these produce; each entry carries the locally computed
//! expected reply so every reply the daemon sends can be checked.

use flb_core::{schedule_request, AlgorithmId, Flb, FlbRun, RunStats, ScheduleRequest};
use flb_graph::costs::CostModel;
use flb_graph::gen::{self, Family};
use flb_graph::TaskGraph;
use flb_sched::io::wire;
use flb_sched::Machine;
use flb_service::fingerprint::{request_fingerprint, Fnv64};
use flb_service::proto::{encode_request, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Approximate task count of the paper-family graphs.
pub const PAPER_TASKS: usize = 1000;
/// The daemon's schedule-cache capacity (`flb serve --cache`).
pub const DAEMON_CACHE: usize = 512;
/// The daemon's cache shard count (its built-in default).
pub const DAEMON_SHARDS: usize = 8;
/// serve-miss pool: four times the cache, cycled, so LRU always misses.
pub const MISS_POOL: usize = 4 * DAEMON_CACHE;
/// serve-hit pool, primed during set-up.
pub const HIT_POOL: usize = 64;
/// Processor counts of the paper-family requests.
pub const PROCS: [usize; 8] = [2, 3, 4, 6, 8, 12, 16, 32];
/// The paper's two granularities.
pub const CCRS: [f64; 2] = [0.2, 5.0];
/// Tenant names of the two serve-miss connections.
pub const TENANTS: [&str; 2] = ["compiler-a", "runtime-b"];

/// One distinct request with its expected reply.
pub struct Entry {
    /// `proto::encode_request` payload, as sent.
    pub payload: Vec<u8>,
    /// `wire::encode_schedule` of the locally computed schedule: the
    /// exact bytes a correct reply carries after its 10-byte header.
    pub schedule: Vec<u8>,
    /// `request_fingerprint`, the daemon's cache key.
    pub fingerprint: u64,
    /// Tasks in the graph.
    pub tasks: u32,
    /// FLB run counters (FLB requests only).
    pub flb_stats: Option<RunStats>,
}

impl Entry {
    /// Encodes `req` for `tenant` and schedules it locally.
    #[must_use]
    pub fn new(req: ScheduleRequest, tenant: &str) -> Entry {
        let (schedule, flb_stats) = if req.algorithm == AlgorithmId::Flb {
            // `Flb::schedule` is exactly this loop; running it here keeps
            // the run counters.
            let mut run = FlbRun::new(&req.graph, &req.machine, Flb::default().tie_break);
            while run.step().is_some() {}
            let stats = run.stats();
            (run.finish(), Some(stats))
        } else {
            (schedule_request(&req), None)
        };
        Entry {
            schedule: wire::encode_schedule(&schedule),
            fingerprint: request_fingerprint(req.algorithm, &req.graph, &req.machine),
            tasks: req.graph.num_tasks() as u32,
            flb_stats,
            payload: encode_request(&Request::Schedule {
                request: Box::new(req),
                deadline_ms: 0,
                tenant: tenant.to_owned(),
            }),
        }
    }
}

/// splitmix64: independent per-entry seeds from one run seed.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `n` paper-family FLB requests. Family, CCR and P are stratified over
/// the index (`stride` consecutive entries share them), so every seed
/// gives the same mix; the seed draws the costs.
fn paper_requests(seed: u64, n: usize, stride: usize) -> Vec<ScheduleRequest> {
    let topologies: Vec<TaskGraph> = Family::ALL
        .iter()
        .map(|f| f.topology(PAPER_TASKS))
        .collect();
    (0..n)
        .map(|i| {
            let j = i / stride;
            let family = j % Family::ALL.len();
            let ccr = CCRS[(j / 4) % CCRS.len()];
            let procs = PROCS[(j / 8) % PROCS.len()];
            let instance = mix64(seed ^ mix64(i as u64));
            let graph = CostModel::paper_default(ccr).apply(&topologies[family], instance);
            ScheduleRequest::new(AlgorithmId::Flb, graph, Machine::new(procs))
        })
        .collect()
}

/// The serve-miss pool: entry `i` is sent by connection `i % 2` as
/// tenant `TENANTS[i % 2]`.
#[must_use]
pub fn miss_pool(seed: u64) -> Vec<Entry> {
    paper_requests(seed, MISS_POOL, 2)
        .into_iter()
        .enumerate()
        .map(|(i, r)| Entry::new(r, TENANTS[i % 2]))
        .collect()
}

/// serve-miss warm-up requests: same distribution, disjoint instances.
#[must_use]
pub fn miss_warmup(seed: u64, n: usize) -> Vec<Entry> {
    paper_requests(mix64(seed ^ 0x3A3A_3A3A), n, 1)
        .into_iter()
        .map(|r| Entry::new(r, TENANTS[0]))
        .collect()
}

/// The serve-hit pool (anonymous tenant).
#[must_use]
pub fn hit_pool(seed: u64) -> Vec<Entry> {
    paper_requests(seed, HIT_POOL, 1)
        .into_iter()
        .map(|r| Entry::new(r, ""))
        .collect()
}

/// Number of distinct `flb record --offline` graphs: chain 3..12,
/// fork-join 2..6 × 1..4, independent 3..9.
const MIX_GRAPHS: usize = 9 + 4 * 3 + 6;
/// The three algorithms of the recorded traffic.
const MIX_ALGS: [AlgorithmId; 3] = [AlgorithmId::Flb, AlgorithmId::Etf, AlgorithmId::Mcp];
/// Processor counts 2..5 of the recorded traffic.
const MIX_PROCS: usize = 3;

fn mix_graph(g: usize) -> TaskGraph {
    match g {
        0..9 => gen::chain(g + 3),
        9..21 => gen::fork_join((g - 9) / 3 + 2, (g - 9) % 3 + 1),
        _ => gen::independent(g - 21 + 3),
    }
}

/// Every distinct request of the serve-mix distribution, indexed by
/// `(graph * 3 + algorithm) * 3 + (procs - 2)`.
#[must_use]
pub fn mix_table() -> Vec<Entry> {
    let mut out = Vec::with_capacity(MIX_GRAPHS * MIX_ALGS.len() * MIX_PROCS);
    for g in 0..MIX_GRAPHS {
        let graph = mix_graph(g);
        for alg in MIX_ALGS {
            for p in 0..MIX_PROCS {
                let req = ScheduleRequest::new(alg, graph.clone(), Machine::new(p + 2));
                out.push(Entry::new(req, ""));
            }
        }
    }
    out
}

/// The serve-mix request stream: the same draws, in the same order, as
/// `flb record --offline --seed S`, mapped to `mix_table` indices.
pub struct MixStream {
    rng: StdRng,
}

impl MixStream {
    /// The stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        MixStream {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next request's table index.
    pub fn next_index(&mut self) -> usize {
        let rng = &mut self.rng;
        let g = match rng.random_range(0..3u32) {
            0 => rng.random_range(3..12usize) - 3,
            1 => {
                let width = rng.random_range(2..6usize);
                let stages = rng.random_range(1..4usize);
                9 + (width - 2) * 3 + (stages - 1)
            }
            _ => 21 + rng.random_range(3..9usize) - 3,
        };
        let alg = rng.random_range(0..3u32) as usize;
        let procs = rng.random_range(2..5usize);
        (g * MIX_ALGS.len() + alg) * MIX_PROCS + (procs - 2)
    }
}

/// Requests covered by the serve-mix stream digest.
pub const MIX_DIGEST_PREFIX: usize = 4096;

/// FNV-1a digest of a request stream's payloads, in sending order.
#[must_use]
pub fn stream_digest<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = Fnv64::new();
    for p in payloads {
        h.write_u64(p.len() as u64);
        h.write(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_service::journal::schedule_digest;
    use flb_service::proto::decode_request;

    #[test]
    fn mix_table_indexing_matches_the_recorded_generator() {
        let table = mix_table();
        assert_eq!(table.len(), 243);
        // Independent draws of the same generator `flb record` uses, in
        // its order: kind, size(s), algorithm, processors.
        let mut rng = StdRng::seed_from_u64(1999);
        let mut s = MixStream::new(1999);
        for _ in 0..500 {
            let graph = match rng.random_range(0..3u32) {
                0 => gen::chain(rng.random_range(3..12usize)),
                1 => gen::fork_join(rng.random_range(2..6usize), rng.random_range(1..4usize)),
                _ => gen::independent(rng.random_range(3..9usize)),
            };
            let alg = MIX_ALGS[rng.random_range(0..3u32) as usize];
            let machine = Machine::new(rng.random_range(2..5usize));
            let e = &table[s.next_index()];
            assert_eq!(e.fingerprint, request_fingerprint(alg, &graph, &machine));
        }
    }

    fn mix_stream_digest(table: &[Entry], seed: u64) -> u64 {
        let mut s = MixStream::new(seed);
        stream_digest((0..MIX_DIGEST_PREFIX).map(|_| table[s.next_index()].payload.as_slice()))
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let table = mix_table();
        assert_eq!(mix_stream_digest(&table, 7), mix_stream_digest(&table, 7));
        assert_ne!(mix_stream_digest(&table, 7), mix_stream_digest(&table, 8));
        let a = hit_pool(7);
        let b = hit_pool(7);
        let c = hit_pool(8);
        let d = |p: &[Entry]| stream_digest(p.iter().map(|e| e.payload.as_slice()));
        assert_eq!(d(&a), d(&b));
        assert_ne!(d(&a), d(&c));
    }

    #[test]
    fn hit_pool_is_stratified_and_distinct() {
        let pool = hit_pool(3);
        assert_eq!(pool.len(), HIT_POOL);
        let mut fps: Vec<u64> = pool.iter().map(|e| e.fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), HIT_POOL);
        for (i, e) in pool.iter().enumerate() {
            let Request::Schedule { request, .. } = decode_request(&e.payload).unwrap() else {
                panic!("not a schedule request");
            };
            assert_eq!(request.machine.num_procs(), PROCS[(i / 8) % PROCS.len()]);
            assert!(e.tasks as usize > PAPER_TASKS / 2 && (e.tasks as usize) < 2 * PAPER_TASKS);
            assert!(e.flb_stats.is_some());
        }
    }

    /// Replies are checked byte for byte against `Entry::schedule`; that
    /// implies the digest check, since `journal::schedule_digest` is FNV-1a
    /// over exactly those bytes.
    #[test]
    fn expected_bytes_carry_the_schedule_digest() {
        for e in mix_table().iter().step_by(17) {
            let Request::Schedule { request, .. } = decode_request(&e.payload).unwrap() else {
                panic!("not a schedule request");
            };
            let mut h = Fnv64::new();
            h.write(&e.schedule);
            assert_eq!(h.finish(), schedule_digest(&schedule_request(&request)));
        }
    }
}
