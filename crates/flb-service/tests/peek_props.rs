//! Properties of the cache key read straight off a request payload
//! (`fingerprint::peek_request_key`), the key the daemon answers cache
//! hits with before decoding anything:
//!
//! * (a) over generated graphs and machines — edge lists in canonical
//!   order and interleaved across sources — the peeked key equals
//!   `request_fingerprint` of the decoded request whenever decoding
//!   succeeds, and every canonical payload is peeked;
//! * (b) a mutated payload (bit flip, truncation, extension) that the
//!   peek maps onto a cached key always decodes, and schedules to the
//!   cached schedule: a hit never answers what decoding would reject;
//! * (c) the hit path's reply frame is byte-identical to
//!   `write_response` of the equivalent `Response::Schedule`.

use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
use flb_graph::{TaskGraph, TaskGraphBuilder, TaskId};
use flb_sched::{Machine, Schedule};
use flb_service::fingerprint::{peek_request_key, request_fingerprint};
use flb_service::proto::{
    decode_request, encode_request, write_response, write_schedule_reply, Request, Response,
};
use flb_service::ShardedLru;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random request: a DAG of 1–24 tasks (edges only go forward in id
/// order), a related machine of 1–5 processors, any algorithm, a tenant
/// of 0–64 bytes.
fn random_request(seed: u64) -> (ScheduleRequest, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..25usize);
    let mut b = TaskGraphBuilder::named(format!("g{}", rng.random_range(0..1000u32)));
    for _ in 0..n {
        b.add_task(rng.random_range(1..50u64));
    }
    for i in 0..n {
        for j in i + 1..n {
            if rng.random_range(0..100u32) < 20 {
                b.add_edge(TaskId(i), TaskId(j), rng.random_range(0..40u64))
                    .unwrap();
            }
        }
    }
    let graph = b.build().unwrap();
    let procs = rng.random_range(1..6usize);
    let machine = Machine::related((0..procs).map(|_| rng.random_range(1..4u64)).collect());
    let algs = AlgorithmId::ALL;
    let alg = algs[rng.random_range(0..algs.len())];
    let tenant = "t".repeat(rng.random_range(0..65usize));
    (ScheduleRequest::new(alg, graph, machine), tenant)
}

fn payload_of(req: &ScheduleRequest, tenant: &str, deadline_ms: u64) -> Vec<u8> {
    encode_request(&Request::Schedule {
        request: Box::new(req.clone()),
        deadline_ms,
        tenant: tenant.into(),
    })
}

/// The same request with its edge records reordered by `perm_seed`
/// (interleaved across sources). The edges sit right before the tenant
/// field: 16 bytes each, then the 4-byte tenant length and its bytes.
fn shuffled_edges(payload: &[u8], g: &TaskGraph, tenant: &str, perm_seed: u64) -> Vec<u8> {
    let e = g.num_edges();
    let end = payload.len() - 4 - tenant.len();
    let start = end - 16 * e;
    let mut recs: Vec<&[u8]> = payload[start..end].chunks_exact(16).collect();
    let mut rng = StdRng::seed_from_u64(perm_seed);
    for i in (1..recs.len()).rev() {
        recs.swap(i, rng.random_range(0..i + 1));
    }
    let mut out = payload[..start].to_vec();
    for r in recs {
        out.extend_from_slice(r);
    }
    out.extend_from_slice(&payload[end..]);
    out
}

fn decoded_key(payload: &[u8]) -> Option<(AlgorithmId, u64, ScheduleRequest)> {
    match decode_request(payload).ok()? {
        Request::Schedule { request, .. } => {
            let key = request_fingerprint(request.algorithm, &request.graph, &request.machine);
            Some((request.algorithm, key, *request))
        }
        _ => None,
    }
}

/// One mutation of a valid payload, chosen by `pick`.
fn mutate(payload: &[u8], pick: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(pick);
    let mut out = payload.to_vec();
    match rng.random_range(0..3u32) {
        0 => {
            let pos = rng.random_range(0..out.len());
            out[pos] ^= 1 << rng.random_range(0..8u32);
        }
        1 => out.truncate(rng.random_range(0..out.len())),
        _ => {
            for _ in 0..rng.random_range(1..9usize) {
                out.push(rng.random_range(0..256u32) as u8);
            }
        }
    }
    out
}

fn frame(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
    let mut out = Vec::new();
    write(&mut out).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn peeked_key_equals_the_decoded_key(seed in any::<u64>(), perm in any::<u64>()) {
        let (req, tenant) = random_request(seed);
        let canonical = payload_of(&req, &tenant, seed % 1000);
        let (alg, key, _) = decoded_key(&canonical).unwrap();
        let peeked = peek_request_key(&canonical);
        prop_assert!(peeked.is_some(), "a canonical payload must be peeked");
        let peeked = peeked.unwrap();
        prop_assert_eq!(peeked.key, key);
        prop_assert_eq!(peeked.algorithm, alg);
        // Interleaved edge lists decode to the same graph; the peek
        // either declines them or agrees.
        let shuffled = shuffled_edges(&canonical, &req.graph, &tenant, perm);
        let (_, shuffled_key, _) = decoded_key(&shuffled).unwrap();
        prop_assert_eq!(shuffled_key, key);
        if let Some(p) = peek_request_key(&shuffled) {
            prop_assert_eq!(p.key, key);
            prop_assert_eq!(&shuffled, &canonical);
        }
    }

    #[test]
    fn a_peeked_hit_always_decodes_to_the_cached_problem(
        seeds in proptest::collection::vec(any::<u64>(), 1..5),
        picks in proptest::collection::vec(any::<u64>(), 16..48)
    ) {
        let cache: ShardedLru<Arc<Schedule>> = ShardedLru::new(64, 4);
        let mut originals = Vec::new();
        for &s in &seeds {
            let (req, tenant) = random_request(s);
            let p = payload_of(&req, &tenant, 0);
            let (_, key, decoded) = decoded_key(&p).unwrap();
            cache.insert(key, Arc::new(schedule_request(&decoded)));
            originals.push(p);
        }
        for (i, &pick) in picks.iter().enumerate() {
            let m = mutate(&originals[i % originals.len()], pick);
            let Some(peeked) = peek_request_key(&m) else { continue };
            let Some(cached) = cache.get(peeked.key) else { continue };
            let decoded = decoded_key(&m);
            prop_assert!(decoded.is_some(), "a hit on a payload decoding rejects: {m:?}");
            let (alg, key, request) = decoded.unwrap();
            prop_assert_eq!(alg, peeked.algorithm);
            prop_assert_eq!(key, peeked.key);
            prop_assert_eq!(&schedule_request(&request), &*cached);
        }
    }

    #[test]
    fn the_hit_reply_frame_matches_write_response(seed in any::<u64>(), micros in any::<u64>()) {
        let (req, _) = random_request(seed);
        let schedule = schedule_request(&req);
        let direct = frame(|w| write_schedule_reply(w, true, micros, &schedule));
        let via_response = frame(|w| {
            write_response(w, &Response::Schedule { cached: true, micros, schedule: schedule.clone() })
        });
        prop_assert_eq!(direct, via_response);
    }
}

/// Every single-bit flip and every truncation of one payload, checked
/// exhaustively; flips in the deadline, name and tenant bytes keep the
/// key, so this sweep is sure to exercise real hits.
#[test]
fn exhaustive_flips_and_truncations_of_one_payload() {
    let (req, tenant) = random_request(42);
    let original = payload_of(&req, &tenant, 5);
    let (_, key, decoded) = decoded_key(&original).unwrap();
    let cached = schedule_request(&decoded);
    let mut variants = Vec::new();
    for pos in 0..original.len() {
        for bit in 0..8 {
            let mut m = original.clone();
            m[pos] ^= 1 << bit;
            variants.push(m);
        }
    }
    variants.extend((0..original.len()).map(|cut| original[..cut].to_vec()));
    let mut hits = 0;
    for m in &variants {
        if peek_request_key(m).is_some_and(|p| p.key == key) {
            hits += 1;
            let (_, k, request) = decoded_key(m).expect("a hit must decode");
            assert_eq!(k, key);
            assert_eq!(schedule_request(&request), cached);
        }
    }
    assert!(hits >= 64, "only {hits} variants kept the key");
}
