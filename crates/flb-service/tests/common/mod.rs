//! Request generators shared by the payload property tests
//! (`peek_props.rs`, `flat_decode_props.rs`).

use flb_core::{AlgorithmId, ScheduleRequest};
use flb_graph::{TaskGraphBuilder, TaskId};
use flb_sched::Machine;
use flb_service::proto::{encode_request, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random request: a DAG of 1–24 tasks whose ids are a random
/// permutation of a topological order, a related machine of 1–5
/// processors, FLB three times in four (any other algorithm otherwise),
/// a tenant of 0–64 bytes.
pub fn random_request(seed: u64) -> (ScheduleRequest, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..25usize);
    let mut id_of: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        id_of.swap(i, rng.random_range(0..i + 1));
    }
    let mut b = TaskGraphBuilder::named(format!("g{}", rng.random_range(0..1000u32)));
    for _ in 0..n {
        b.add_task(rng.random_range(1..50u64));
    }
    for i in 0..n {
        for j in i + 1..n {
            if rng.random_range(0..100u32) < 20 {
                let (s, d) = (TaskId(id_of[i]), TaskId(id_of[j]));
                b.add_edge(s, d, rng.random_range(0..40u64)).unwrap();
            }
        }
    }
    let graph = b.build().unwrap();
    let procs = rng.random_range(1..6usize);
    let machine = Machine::related((0..procs).map(|_| rng.random_range(1..4u64)).collect());
    let alg = if rng.random_range(0..4u32) == 0 {
        AlgorithmId::ALL[rng.random_range(1..AlgorithmId::ALL.len())]
    } else {
        AlgorithmId::Flb
    };
    let tenant = "t".repeat(rng.random_range(0..65usize));
    (ScheduleRequest::new(alg, graph, machine), tenant)
}

pub fn payload_of(req: &ScheduleRequest, tenant: &str, deadline_ms: u64) -> Vec<u8> {
    encode_request(&Request::Schedule {
        request: Box::new(req.clone()),
        deadline_ms,
        tenant: tenant.into(),
    })
}

/// The same request with its edge records reordered by `perm_seed`. The
/// edges sit right before the tenant field: 16 bytes each, then the
/// 4-byte tenant length and its bytes.
pub fn shuffled_edges(payload: &[u8], edges: usize, tenant: &str, perm_seed: u64) -> Vec<u8> {
    let end = payload.len() - 4 - tenant.len();
    let start = end - 16 * edges;
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

/// One mutation of a valid payload, chosen by `pick`.
pub fn mutate(payload: &[u8], pick: u64) -> Vec<u8> {
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

/// `payload` with its first edge record sent a second time, after the
/// others (`edges >= 1`): a request decoding rejects for the duplicate.
pub fn duplicated_edge(payload: &[u8], edges: usize, tenant: &str) -> Vec<u8> {
    let end = payload.len() - 4 - tenant.len();
    let start = end - 16 * edges;
    let mut out = payload[..start - 4].to_vec();
    out.extend_from_slice(&(edges as u32 + 1).to_le_bytes());
    out.extend_from_slice(&payload[start..end]);
    out.extend_from_slice(&payload[start..start + 16]);
    out.extend_from_slice(&payload[end..]);
    out
}
