//! Properties of the cache key read straight off a request payload
//! (`fingerprint::peek_request_key`), the key the daemon answers cache
//! hits with before decoding anything:
//!
//! * (a) over generated graphs and machines — edge lists in canonical
//!   order and shuffled across sources — every payload that decodes is
//!   peeked, with `request_fingerprint` of the decoded request as its
//!   key, and a payload with a duplicate edge is declined;
//! * (b) a mutated payload (bit flip, truncation, extension) that the
//!   peek maps onto a cached key always decodes, and schedules to the
//!   cached schedule: a hit never answers what decoding would reject;
//! * (c) the hit path's reply frame, unpacked from the cache entry, is
//!   byte-identical to `write_response` of the equivalent
//!   `Response::Schedule`.

mod common;

use common::{duplicated_edge, mutate, payload_of, random_request, shuffled_edges};
use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
use flb_sched::Schedule;
use flb_service::fingerprint::{peek_request_key, request_fingerprint};
use flb_service::proto::{decode_request, write_response, write_schedule_reply, Request, Response};
use flb_service::{PackedSchedule, ShardedLru};
use proptest::prelude::*;
use std::sync::Arc;

fn decoded_key(payload: &[u8]) -> Option<(AlgorithmId, u64, ScheduleRequest)> {
    match decode_request(payload).ok()? {
        Request::Schedule { request, .. } => {
            let key = request_fingerprint(request.algorithm, &request.graph, &request.machine);
            Some((request.algorithm, key, *request))
        }
        _ => None,
    }
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
        let edges = req.graph.num_edges();
        let canonical = payload_of(&req, &tenant, seed % 1000);
        let shuffled = shuffled_edges(&canonical, edges, &tenant, perm);
        let (_, key, _) = decoded_key(&canonical).unwrap();
        // Whatever the edge order, a payload that decodes is peeked with
        // the decoded request's key.
        for payload in [&canonical, &shuffled] {
            let (alg, decoded, _) = decoded_key(payload).unwrap();
            prop_assert_eq!(decoded, key);
            let peeked = peek_request_key(payload);
            prop_assert!(peeked.is_some(), "a payload that decodes must be peeked");
            let peeked = peeked.unwrap();
            prop_assert_eq!(peeked.key, key);
            prop_assert_eq!(peeked.algorithm, alg);
        }
        if edges > 0 {
            let duplicate = duplicated_edge(&shuffled, edges, &tenant);
            prop_assert!(decode_request(&duplicate).is_err());
            prop_assert_eq!(peek_request_key(&duplicate), None);
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
        let packed = PackedSchedule::from_schedule(&schedule);
        let direct = frame(|w| write_schedule_reply(w, true, micros, &packed));
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
