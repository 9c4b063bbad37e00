//! The schedule cache's key, computed from a request or straight from
//! its wire bytes.
//!
//! A schedule request is cacheable because [`flb_core::schedule_request`]
//! is deterministic: equal (algorithm, graph, machine) triples yield equal
//! schedules. The key hashes exactly those inputs, as three
//! length-prefixed sections of the request's canonical wire encoding:
//!
//! 1. the algorithm byte;
//! 2. the machine, as `wire::put_machine` writes it (processor count,
//!    slowdowns);
//! 3. the graph as `wire::put_graph` writes it *after* the name: task
//!    count, costs, edge count, edges.
//!
//! The graph name, the deadline and the tenant are left out: two
//! identically shaped workloads with different labels are the same
//! scheduling problem.
//!
//! Two functions compute the key, and they agree on every payload
//! [`decode_request`](crate::proto::decode_request) accepts:
//!
//! * [`request_fingerprint`] feeds a decoded request's fields into the
//!   hasher;
//! * [`peek_request_key`] hashes the same bytes in place, reading only the
//!   length fields. It declines (returns `None`) on anything it cannot
//!   vouch for, and the daemon then decodes as usual.
//!
//! [`Fnv64`] is the byte-wise checksum of the snapshot and journal
//! formats; it is not the cache key.

use crate::overload::MAX_TENANT_NAME;
use crate::proto::REQ_SCHEDULE;
use flb_core::AlgorithmId;
use flb_graph::TaskGraph;
use flb_sched::io::wire::Reader;
use flb_sched::Machine;

/// 64-bit FNV-1a, the classic offset/prime pair.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The word-at-a-time hasher behind the cache key.
///
/// Input is a byte stream consumed as little-endian 64-bit words. Each
/// step `s ← m ^ (m >> 32)` with `m = (s ^ w)·K` is a bijection of the
/// state for every word `w`, so two inputs of equal length that differ in
/// a single word never collide. Every section is prefixed with its byte
/// length and zero-padded to a word boundary, so no two section layouts
/// can produce the same stream. A splitmix64 finalizer makes every output
/// bit depend on every input bit; [`ShardedLru`](crate::ShardedLru) picks
/// shards from the low bits.
struct KeyHasher {
    state: u64,
    /// Bytes of the word being assembled, little-endian.
    word: u64,
    /// How many bytes of `word` are filled (always `< 8`).
    fill: u32,
}

impl KeyHasher {
    fn new() -> Self {
        KeyHasher {
            state: 0x243F_6A88_85A3_08D3,
            word: 0,
            fill: 0,
        }
    }

    fn mix(&mut self, w: u64) {
        let m = (self.state ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.state = m ^ (m >> 32);
    }

    /// Feeds the low `n` bytes of `v` (`1 ≤ n ≤ 8`, `v < 2^(8n)`).
    fn put(&mut self, v: u64, n: u32) {
        self.word |= v << (8 * self.fill);
        self.fill += n;
        if self.fill >= 8 {
            self.mix(self.word);
            self.fill -= 8;
            // What did not fit in the finished word starts the next one.
            self.word = if self.fill == 0 {
                0
            } else {
                v >> (8 * (n - self.fill))
            };
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.put(u64::from(v), 1);
    }

    fn write_u32(&mut self, v: u32) {
        self.put(u64::from(v), 4);
    }

    fn write_u64(&mut self, v: u64) {
        self.put(v, 8);
    }

    /// Feeds raw bytes: byte by byte up to a word boundary, then a whole
    /// word per step.
    fn write(&mut self, mut bytes: &[u8]) {
        while self.fill != 0 {
            let Some((&b, rest)) = bytes.split_first() else {
                return;
            };
            self.write_u8(b);
            bytes = rest;
        }
        while let Some((w, rest)) = bytes.split_first_chunk::<8>() {
            self.mix(u64::from_le_bytes(*w));
            bytes = rest;
        }
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Hashes one section: its byte length, then the `len` bytes `body`
    /// feeds, zero-padded to a word boundary.
    fn section(&mut self, len: usize, body: impl FnOnce(&mut Self)) {
        debug_assert_eq!(self.fill, 0, "sections start on a word boundary");
        self.mix(len as u64);
        body(self);
        if self.fill != 0 {
            self.mix(self.word);
            self.word = 0;
            self.fill = 0;
        }
    }

    /// splitmix64's output mix.
    fn finish(self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Cache key of a full request: algorithm, machine and graph, hashed as
/// the sections their wire encoding would hold (see the module docs).
#[must_use]
pub fn request_fingerprint(alg: AlgorithmId, g: &TaskGraph, m: &Machine) -> u64 {
    let mut h = KeyHasher::new();
    h.section(1, |h| h.write_u8(alg.code()));
    h.section(4 + 8 * m.num_procs(), |h| {
        h.write_u32(m.num_procs() as u32);
        for p in m.procs() {
            h.write_u64(m.slowdown(p));
        }
    });
    h.section(8 + 8 * g.num_tasks() + 16 * g.num_edges(), |h| {
        h.write_u32(g.num_tasks() as u32);
        for t in g.tasks() {
            h.write_u64(g.comp(t));
        }
        h.write_u32(g.num_edges() as u32);
        for t in g.tasks() {
            for &(s, c) in g.succs(t) {
                h.write_u32(t.0 as u32);
                h.write_u32(s.0 as u32);
                h.write_u64(c);
            }
        }
    });
    h.finish()
}

/// A schedule request's cache key, read off its payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeekedKey {
    /// The requested algorithm.
    pub algorithm: AlgorithmId,
    /// Equal to [`request_fingerprint`] of the decoded request.
    pub key: u64,
}

/// Finds a schedule request's cache key without decoding it.
///
/// Reads the length fields to locate the hashed sections, and hashes
/// them in place. Two invariants let the daemon answer a cache hit from
/// this alone:
///
/// * **One key.** The edges must be in the canonical order `put_graph`
///   writes (strictly ascending source, then target), so the bytes are
///   exactly those decoding and re-encoding would produce, and the key
///   equals `request_fingerprint` of the decoded request. Any other order
///   is declined and keyed after decoding.
/// * **A hit is never a request decoding would reject.** The fields
///   outside the hashed sections are checked as
///   [`decode_request`](crate::proto::decode_request) checks them: the
///   kind byte, the algorithm code, the graph name (UTF-8), the tenant
///   (UTF-8, at most [`MAX_TENANT_NAME`] bytes), no trailing bytes. The
///   hashed sections are not validated here: only keys of payloads that
///   decoded are ever cached, so a hit means they match such a payload.
///
/// Returns `None` for any other payload, including every one decoding
/// would reject for a reason this function can see.
#[must_use]
pub fn peek_request_key(payload: &[u8]) -> Option<PeekedKey> {
    let f = ScheduleFields::split(payload)?;
    let mut h = KeyHasher::new();
    h.section(1, |h| h.write_u8(f.algorithm.code()));
    h.section(4 + f.slowdowns.len(), |h| {
        h.write_u32((f.slowdowns.len() / 8) as u32);
        h.write(f.slowdowns);
    });
    h.section(8 + f.costs.len() + f.edges.len(), |h| {
        h.write_u32((f.costs.len() / 8) as u32);
        h.write(f.costs);
        h.write_u32((f.edges.len() / 16) as u32);
        h.write(f.edges);
    });
    Some(PeekedKey {
        algorithm: f.algorithm,
        key: h.finish(),
    })
}

/// A schedule-request payload split into its fields without decoding
/// the machine or the graph: the layout both [`peek_request_key`] and
/// [`decode_flat_request`](crate::proto::decode_flat_request) read.
pub(crate) struct ScheduleFields<'a> {
    pub(crate) algorithm: AlgorithmId,
    pub(crate) deadline_ms: u64,
    /// Little-endian `u64` slowdowns, one per processor.
    pub(crate) slowdowns: &'a [u8],
    pub(crate) name: &'a str,
    /// Little-endian `u64` costs, one per task.
    pub(crate) costs: &'a [u8],
    /// 16-byte edge records (source u32, target u32, cost u64), in
    /// canonical order.
    pub(crate) edges: &'a [u8],
    pub(crate) tenant: &'a str,
}

impl<'a> ScheduleFields<'a> {
    /// Splits `payload`, checking what
    /// [`decode_request`](crate::proto::decode_request) checks outside the
    /// machine and graph contents: the kind byte, the algorithm code, the
    /// length fields, the graph name (UTF-8), the tenant (UTF-8, at most
    /// [`MAX_TENANT_NAME`] bytes) and no trailing bytes. The edges must
    /// also be in canonical order. `None` for anything else.
    pub(crate) fn split(payload: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        if r.u8().ok()? != REQ_SCHEDULE {
            return None;
        }
        let algorithm = AlgorithmId::from_code(r.u8().ok()?)?;
        let deadline_ms = r.u64().ok()?;
        let procs = r.len("processor", 8).ok()?;
        let slowdowns = r.bytes(8 * procs).ok()?;
        let name = r.str_ref().ok()?;
        let tasks = r.len("task", 8).ok()?;
        let costs = r.bytes(8 * tasks).ok()?;
        let edge_count = r.len("edge", 16).ok()?;
        let edges = r.bytes(16 * edge_count).ok()?;
        if !edges_canonical(edges) {
            return None;
        }
        let tenant = if r.remaining() == 0 {
            ""
        } else {
            r.str_ref().ok()?
        };
        if tenant.len() > MAX_TENANT_NAME || r.remaining() != 0 {
            return None;
        }
        Some(ScheduleFields {
            algorithm,
            deadline_ms,
            slowdowns,
            name,
            costs,
            edges,
            tenant,
        })
    }
}

/// Whether 16-byte edge records (source u32, target u32, cost u64) run in
/// strictly ascending (source, target) order.
fn edges_canonical(edges: &[u8]) -> bool {
    let mut prev = None;
    for rec in edges.chunks_exact(16) {
        let Some((ends, _)) = rec.split_first_chunk::<8>() else {
            return false;
        };
        // Little-endian source then target; swapping the halves makes
        // the source the high word, so integer order is (source, target).
        let pair = u64::from_le_bytes(*ends).rotate_left(32);
        if prev.is_some_and(|p| pair <= p) {
            return false;
        }
        prev = Some(pair);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, Request};
    use flb_core::ScheduleRequest;
    use flb_graph::paper::fig1;
    use flb_graph::{TaskGraphBuilder, TaskId};

    fn chain(weights: &[u64]) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        for &w in weights {
            b.add_task(w);
        }
        for i in 1..weights.len() {
            b.add_edge(TaskId(i - 1), TaskId(i), 1).unwrap();
        }
        b.build().unwrap()
    }

    fn payload(alg: AlgorithmId, g: &TaskGraph, m: &Machine, tenant: &str) -> Vec<u8> {
        encode_request(&Request::Schedule {
            request: Box::new(ScheduleRequest::new(alg, g.clone(), m.clone())),
            deadline_ms: 7,
            tenant: tenant.into(),
        })
    }

    #[test]
    fn equal_graphs_hash_equal_names_ignored() {
        let a = fig1();
        let m = Machine::new(2);
        let key = |g: &TaskGraph| request_fingerprint(AlgorithmId::Flb, g, &m);
        assert_eq!(key(&a), key(&fig1()));

        let mut named = TaskGraphBuilder::named("something-else");
        for t in a.tasks() {
            named.add_task(a.comp(t));
        }
        for t in a.tasks() {
            for &(s, c) in a.succs(t) {
                named.add_edge(t, s, c).unwrap();
            }
        }
        let named = named.build().unwrap();
        assert_eq!(key(&a), key(&named));
    }

    #[test]
    fn weights_topology_machine_and_algorithm_all_matter() {
        let m2 = Machine::new(2);
        let key = |g: &TaskGraph| request_fingerprint(AlgorithmId::Flb, g, &m2);
        let g1 = chain(&[1, 2, 3]);
        assert_ne!(key(&g1), key(&chain(&[1, 2, 4]))); // different weight
        assert_ne!(key(&g1), key(&chain(&[1, 2]))); // different topology

        let m4 = Machine::new(4);
        let het = Machine::related(vec![1, 2]);
        let base = request_fingerprint(AlgorithmId::Flb, &g1, &m2);
        assert_ne!(base, request_fingerprint(AlgorithmId::Flb, &g1, &m4));
        assert_ne!(base, request_fingerprint(AlgorithmId::Flb, &g1, &het));
        assert_ne!(base, request_fingerprint(AlgorithmId::Etf, &g1, &m2));
        assert_eq!(base, request_fingerprint(AlgorithmId::Flb, &g1, &m2));
    }

    #[test]
    fn the_peek_declines_what_it_cannot_vouch_for() {
        let p = payload(AlgorithmId::Flb, &fig1(), &Machine::new(2), "t");
        assert!(peek_request_key(&p).is_some());
        // Other request kinds and unknown algorithms.
        assert_eq!(peek_request_key(&encode_request(&Request::Ping)), None);
        let mut bad_alg = p.clone();
        bad_alg[1] = 200;
        assert_eq!(peek_request_key(&bad_alg), None);
        // Trailing bytes and truncations.
        let mut trailing = p.clone();
        trailing.push(0);
        assert_eq!(peek_request_key(&trailing), None);
        for cut in 0..p.len() {
            // Cutting exactly the tenant off leaves a valid anonymous
            // request; every other cut is malformed.
            let tenant_start = p.len() - 5;
            assert_eq!(
                peek_request_key(&p[..cut]).is_some(),
                cut == tenant_start,
                "cut {cut}"
            );
        }
        // An over-long tenant.
        let long = payload(AlgorithmId::Flb, &fig1(), &Machine::new(2), &"x".repeat(65));
        assert_eq!(peek_request_key(&long), None);
    }

    #[test]
    fn non_canonical_edge_order_is_declined() {
        // Two tasks, edges 0→2 then 0→1: the decoded graph re-encodes
        // them the other way round, so the raw bytes are not its key.
        let mut w = flb_sched::io::wire::Writer::new();
        w.put_u8(REQ_SCHEDULE);
        w.put_u8(AlgorithmId::Flb.code());
        w.put_u64(0);
        flb_sched::io::wire::put_machine(&mut w, &Machine::new(2));
        w.put_str("g");
        w.put_u32(3);
        for c in [1u64, 2, 3] {
            w.put_u64(c);
        }
        w.put_u32(2);
        for (s, d) in [(0u32, 2u32), (0, 1)] {
            w.put_u32(s);
            w.put_u32(d);
            w.put_u64(1);
        }
        let p = w.into_bytes();
        assert!(crate::proto::decode_request(&p).is_ok());
        assert_eq!(peek_request_key(&p), None);
        assert!(edges_canonical(&[]));
    }

    #[test]
    fn streamed_and_word_fed_bytes_hash_alike() {
        let bytes: Vec<u8> = (0..=40u8).collect();
        for split in 0..bytes.len() {
            let mut a = KeyHasher::new();
            a.section(bytes.len(), |h| {
                h.write(&bytes[..split]);
                h.write(&bytes[split..]);
            });
            let mut b = KeyHasher::new();
            b.section(bytes.len(), |h| {
                for &x in &bytes {
                    h.write_u8(x);
                }
            });
            assert_eq!(a.finish(), b.finish(), "split {split}");
        }
        let mut a = KeyHasher::new();
        a.section(12, |h| {
            h.write_u32(0x0403_0201);
            h.write_u64(0x0c0b_0a09_0807_0605);
        });
        let mut b = KeyHasher::new();
        b.section(12, |h| h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn low_key_bits_spread_over_cache_shards() {
        // 4096 chains of distinct lengths over 8 shards (the daemon's
        // default): each shard should get close to 512.
        let m = Machine::new(2);
        let mut shards = [0u32; 8];
        for n in 1..=4096u64 {
            let g = chain(&[n]);
            shards[(request_fingerprint(AlgorithmId::Flb, &g, &m) & 7) as usize] += 1;
        }
        assert!(
            shards.iter().all(|&c| (400..=624).contains(&c)),
            "{shards:?}"
        );
    }
}
