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
//!    count, costs, edge count, edges in ascending (source, target)
//!    order.
//!
//! The graph name, the deadline and the tenant are left out: two
//! identically shaped workloads with different labels are the same
//! scheduling problem.
//!
//! Two functions compute the key, and they agree on every payload
//! [`decode_request`](crate::proto::decode_request) accepts:
//!
//! * [`request_fingerprint`] feeds a decoded request's fields into the
//!   hasher; it is the reference the tests hold the peek to;
//! * [`peek_request_key`] hashes the same sections off the payload,
//!   reading only the length fields and sorting edge records that arrive
//!   out of order. It accepts every schedule payload decoding accepts,
//!   and declines (returns `None`) some that decoding rejects.
//!
//! [`Fnv64`] is the byte-wise checksum of the snapshot and journal
//! formats; it is not the cache key.

use crate::overload::MAX_TENANT_NAME;
use crate::proto::REQ_SCHEDULE;
use flb_core::AlgorithmId;
use flb_graph::TaskGraph;
use flb_sched::io::wire::Reader;
use flb_sched::Machine;
use std::borrow::Cow;

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
/// Input is a byte stream consumed as little-endian 64-bit words. Word
/// `k` of the stream goes to lane `k mod 4`, and each lane takes the
/// step `s ← m ^ (m >> 32)` with `m = (s ^ w)·K`. The four lanes form
/// four independent multiply chains, so a long section hashes about as
/// fast as the core can issue multiplies rather than one multiply's
/// latency per word. After `n` words, [`finish`](Self::finish) folds the
/// lane states into one state with the same step, in the order the next
/// words would reach them: lane `n mod 4` first.
///
/// The step is a bijection of the state for every word `w`, and of `w`
/// for every state. So two inputs of equal length that differ in a
/// single word change exactly one lane's final state, every later fold
/// step maps that difference to a different state, and they never
/// collide. Every section is prefixed with its byte length and
/// zero-padded to a word boundary, so no two section layouts can produce
/// the same stream. A splitmix64 finalizer makes every output bit depend
/// on every input bit; [`ShardedLru`](crate::ShardedLru) picks shards
/// from the low bits.
struct KeyHasher {
    /// Lane states, rotated so the next word always goes to `lanes[0]`:
    /// after `k` words, `lanes[i]` is lane `(k + i) mod 4`.
    lanes: [u64; 4],
    /// Bytes of the word being assembled, little-endian.
    word: u64,
    /// How many bytes of `word` are filled (always `< 8`).
    fill: u32,
}

/// Initial lane states: the first fractional words of π.
const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// The state the lanes are folded into: π's next word.
const FOLD_SEED: u64 = 0x4528_21E6_38D0_1377;

/// One hash step: a bijection of `s` for each `w`, and of `w` for each
/// `s`.
fn step(s: u64, w: u64) -> u64 {
    let m = (s ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    m ^ (m >> 32)
}

impl KeyHasher {
    fn new() -> Self {
        KeyHasher {
            lanes: LANE_SEEDS,
            word: 0,
            fill: 0,
        }
    }

    /// Hashes one word into the next lane.
    fn mix(&mut self, w: u64) {
        let [a, b, c, d] = self.lanes;
        self.lanes = [b, c, d, step(a, w)];
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

    /// Feeds raw bytes: the bytes up to a word boundary, then whole
    /// words, then the bytes left over.
    fn write(&mut self, mut bytes: &[u8]) {
        if self.fill != 0 {
            let (head, rest) = bytes.split_at(bytes.len().min(8 - self.fill as usize));
            self.write_short(head);
            bytes = rest;
        }
        // One word per iteration: the compiler unrolls this loop after its
        // vectorizer has run, so the four chains stay scalar. A body of
        // four steps can be packed into SSE2 vectors instead, which have
        // no 64-bit multiply; measured, that hashed at half the speed.
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().unwrap_or_default()));
        }
        self.write_short(words.remainder());
    }

    /// Feeds fewer than 8 bytes in one [`put`](Self::put).
    fn write_short(&mut self, bytes: &[u8]) {
        if !bytes.is_empty() {
            let v = bytes.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b));
            self.put(v, bytes.len() as u32);
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

    /// Folds the lanes in rotation order, then applies the output mix.
    fn finish(self) -> u64 {
        let [l0, l1, l2, l3] = self.lanes;
        finalize(step(step(step(step(FOLD_SEED, l0), l1), l2), l3))
    }
}

/// splitmix64's output mix.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
            for (s, c) in g.succs(t) {
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
/// * **One key.** Edge records are hashed in the canonical order
///   `put_graph` writes (strictly ascending source, then target), sorted
///   into it when the payload has them in another order, so the key
///   equals `request_fingerprint` of the decoded request. Two records
///   for the same (source, target) pair, which decoding rejects, are
///   declined.
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
    Some(PeekedKey {
        algorithm: f.algorithm,
        key: f.key(),
    })
}

/// A schedule-request payload split into its fields without decoding
/// the machine or the graph: what the daemon keys, looks up and, on a
/// miss, builds the request from
/// ([`split_request`](crate::proto::split_request)).
pub(crate) struct ScheduleFields<'a> {
    pub(crate) algorithm: AlgorithmId,
    pub(crate) deadline_ms: u64,
    /// Little-endian `u64` slowdowns, one per processor.
    pub(crate) slowdowns: &'a [u8],
    pub(crate) name: &'a str,
    /// Little-endian `u64` costs, one per task.
    pub(crate) costs: &'a [u8],
    /// 16-byte edge records (source u32, target u32, cost u64), in
    /// canonical order: the payload's own bytes when it sent them that
    /// way, a sorted copy otherwise.
    pub(crate) edges: Cow<'a, [u8]>,
    pub(crate) tenant: &'a str,
}

impl<'a> ScheduleFields<'a> {
    /// Splits `payload`, checking what
    /// [`decode_request`](crate::proto::decode_request) checks outside the
    /// machine and graph contents: the kind byte, the algorithm code, the
    /// length fields, the graph name (UTF-8), the tenant (UTF-8, at most
    /// [`MAX_TENANT_NAME`] bytes) and no trailing bytes. Edge records are
    /// put in canonical order; a repeated (source, target) pair is
    /// declined. `None` for anything else.
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
        let edges = canonical_edges(r.bytes(16 * edge_count).ok()?)?;
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

    /// The cache key: [`request_fingerprint`] of the request these fields
    /// decode to.
    pub(crate) fn key(&self) -> u64 {
        let mut h = KeyHasher::new();
        h.section(1, |h| h.write_u8(self.algorithm.code()));
        h.section(4 + self.slowdowns.len(), |h| {
            h.write_u32((self.slowdowns.len() / 8) as u32);
            h.write(self.slowdowns);
        });
        h.section(8 + self.costs.len() + self.edges.len(), |h| {
            h.write_u32((self.costs.len() / 8) as u32);
            h.write(self.costs);
            h.write_u32((self.edges.len() / 16) as u32);
            h.write(&self.edges);
        });
        h.finish()
    }
}

/// 16-byte edge records (source u32, target u32, cost u64), each read
/// as one little-endian `u128`.
pub(crate) fn edge_records(edges: &[u8]) -> impl Iterator<Item = u128> + Clone + '_ {
    edges
        .chunks_exact(16)
        .map_while(|rec| Some(u128::from_le_bytes(rec.try_into().ok()?)))
}

/// The (source, target) pair of an edge record, with the source in the
/// high half so integer order is (source, target) order.
fn edge_ends(rec: u128) -> u64 {
    (rec as u64).rotate_left(32)
}

/// Edge records in strictly ascending (source, target) order: `edges`
/// itself when it already is, a sorted copy otherwise. `None` when two
/// records share a pair.
fn canonical_edges(edges: &[u8]) -> Option<Cow<'_, [u8]>> {
    let mut prev = None;
    if edge_records(edges).map(edge_ends).all(|ends| {
        let ascending = prev < Some(ends);
        prev = Some(ends);
        ascending
    }) {
        return Some(Cow::Borrowed(edges));
    }
    let mut sorted: Vec<u128> = edge_records(edges).collect();
    sorted.sort_unstable_by_key(|&rec| edge_ends(rec));
    let ends = sorted.iter().map(|&rec| edge_ends(rec));
    if ends.clone().zip(ends.skip(1)).any(|(a, b)| a == b) {
        return None;
    }
    let mut bytes = Vec::with_capacity(edges.len());
    for rec in sorted {
        bytes.extend_from_slice(&rec.to_le_bytes());
    }
    Some(Cow::Owned(bytes))
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
            for (s, c) in a.succs(t) {
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

    /// A three-task FLB payload with unit-cost edges in the given order.
    fn with_edges(edges: &[(u32, u32)]) -> Vec<u8> {
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
        w.put_u32(edges.len() as u32);
        for &(s, d) in edges {
            w.put_u32(s);
            w.put_u32(d);
            w.put_u64(1);
        }
        w.into_bytes()
    }

    #[test]
    fn non_canonical_edge_order_is_keyed_as_decoded() {
        // Edges 1→2, 0→2, 0→1: the decoded graph re-encodes them as
        // 0→1, 0→2, 1→2, and the peek sorts them into that order.
        let shuffled = with_edges(&[(1, 2), (0, 2), (0, 1)]);
        let Ok(Request::Schedule { request: r, .. }) = crate::proto::decode_request(&shuffled)
        else {
            panic!("the shuffled payload decodes");
        };
        let key = request_fingerprint(r.algorithm, &r.graph, &r.machine);
        assert_eq!(peek_request_key(&shuffled).map(|p| p.key), Some(key));
        let canonical = with_edges(&[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(peek_request_key(&canonical).map(|p| p.key), Some(key));
        // A repeated (source, target) pair does not decode; the peek
        // declines it in any order.
        for dup in [[(0, 1), (0, 1), (1, 2)], [(1, 2), (0, 1), (0, 1)]] {
            let p = with_edges(&dup);
            assert!(crate::proto::decode_request(&p).is_err());
            assert_eq!(peek_request_key(&p), None);
        }
        assert!(matches!(canonical_edges(&[]), Some(Cow::Borrowed(_))));
    }

    /// Feeds `bytes` as little-endian `u32`s (`wide` false) or `u64`s
    /// (`wide` true), and the tail that does not fill one byte by byte.
    fn feed_words(h: &mut KeyHasher, bytes: &[u8], wide: bool) {
        let n = if wide { 8 } else { 4 };
        let mut chunks = bytes.chunks_exact(n);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w[..n].copy_from_slice(c);
            let v = u64::from_le_bytes(w);
            if wide {
                h.write_u64(v);
            } else {
                h.write_u32(v as u32);
            }
        }
        for &b in chunks.remainder() {
            h.write_u8(b);
        }
    }

    #[test]
    fn streamed_and_word_fed_bytes_hash_alike() {
        // A prefix of 0–40 bytes puts the body at every byte offset and
        // every lane phase; the 11-word, 5-byte body gives `write` a
        // partial first word, runs of whole words longer than four and a
        // partial last word.
        for prefix in 0..=40usize {
            let bytes: Vec<u8> = (0..prefix + 93).map(|i| (i * 37 + 11) as u8).collect();
            let hash = |feed: &dyn Fn(&mut KeyHasher)| {
                let mut h = KeyHasher::new();
                h.section(bytes.len(), feed);
                h.finish()
            };
            let reference = hash(&|h| {
                for &x in &bytes {
                    h.write_u8(x);
                }
            });
            for split in 0..=bytes.len() {
                let (head, tail) = bytes.split_at(split);
                let tails: [&dyn Fn(&mut KeyHasher); 4] = [
                    &|h| h.write(tail),
                    &|h| tail.iter().for_each(|&x| h.write_u8(x)),
                    &|h| feed_words(h, tail, false),
                    &|h| feed_words(h, tail, true),
                ];
                for (mode, feed_tail) in tails.iter().enumerate() {
                    let by_slice = hash(&|h| {
                        h.write(head);
                        feed_tail(h);
                    });
                    let by_byte = hash(&|h| {
                        head.iter().for_each(|&x| h.write_u8(x));
                        feed_tail(h);
                    });
                    let at = format!("prefix {prefix} split {split} mode {mode}");
                    assert_eq!([by_slice, by_byte], [reference; 2], "{at}");
                }
            }
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

    /// The key as specified, one word at a time: word `k` of the stream
    /// steps lane `k mod 4`, and after `n` words the lanes fold starting
    /// with lane `n mod 4`.
    fn lane_model(words: &[u64]) -> u64 {
        let mut lanes = LANE_SEEDS;
        for (k, &w) in words.iter().enumerate() {
            lanes[k % 4] = step(lanes[k % 4], w);
        }
        let n = words.len();
        finalize((0..4).fold(FOLD_SEED, |s, i| step(s, lanes[(n + i) % 4])))
    }

    #[test]
    fn the_key_follows_the_lane_model() {
        // Sections of 0–80 bytes: every lane phase at the fold, with and
        // without a zero-padded last word.
        for len in 0..=80usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 101 + 7) as u8).collect();
            let mut h = KeyHasher::new();
            h.section(1, |h| h.write_u8(3));
            h.section(len, |h| h.write(&bytes));
            let mut words = vec![1, 3, len as u64];
            words.extend(bytes.chunks(8).map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(w)
            }));
            assert_eq!(h.finish(), lane_model(&words), "len {len}");
        }
        // Version-3 snapshots hold keys of this hash: a change to it must
        // bump `SNAPSHOT_VERSION` and this value together.
        assert_eq!(
            request_fingerprint(AlgorithmId::Flb, &fig1(), &Machine::new(2)),
            0x62ad_caae_7971_61bf
        );
    }

    #[test]
    fn one_word_changed_in_any_lane_changes_the_key() {
        // A ~1000-task stencil payload. Each variant changes one word of the
        // hashed stream: the low byte of task costs 500–503 lies in four
        // consecutive words (one per lane), and the last edge's cost is
        // the last word, one of two left over after the edges' last
        // whole group of four.
        let g = flb_graph::costs::CostModel::paper_default(5.0)
            .apply(&flb_graph::gen::Family::Stencil.topology(1010), 7);
        assert_eq!(g.num_edges() % 2, 1, "the edges end in two trailing words");
        let m = Machine::new(8);
        let p = payload(AlgorithmId::Flb, &g, &m, "");
        let f = ScheduleFields::split(&p).unwrap();
        let offset = |s: &[u8]| s.as_ptr() as usize - p.as_ptr() as usize;
        let costs = offset(f.costs);
        let last_edge_cost = offset(&f.edges) + f.edges.len() - 8;
        let mut keys = vec![request_fingerprint(AlgorithmId::Flb, &g, &m)];
        for at in (500..504).map(|t| costs + 8 * t).chain([last_edge_cost]) {
            let mut v = p.clone();
            v[at] ^= 1;
            let Ok(Request::Schedule { request: r, .. }) = crate::proto::decode_request(&v) else {
                panic!("the variant at byte {at} decodes");
            };
            let key = request_fingerprint(r.algorithm, &r.graph, &r.machine);
            assert_eq!(peek_request_key(&v).map(|k| k.key), Some(key));
            keys.push(key);
        }
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), keys.len(), "{keys:x?}");
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
