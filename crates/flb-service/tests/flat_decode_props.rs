//! The flat decoder (`proto::decode_flat_request`) is never more
//! permissive than `proto::decode_request`, and what it decodes schedules
//! exactly as the `flb_core` oracle does:
//!
//! * (a) over generated graphs (ids in any order), machines and tenants,
//!   with edges in canonical and shuffled order: whenever the flat decode
//!   accepts a payload, `decode_request` accepts it too, the peeked key is
//!   `request_fingerprint` of the decoded request, and the daemon's
//!   schedule equals `schedule_request` of it;
//! * (b) bit flips, truncations and extensions of valid payloads: whenever
//!   the flat decode accepts one, `decode_request` accepts the same bytes
//!   with the same costs, edges, machine, deadline and tenant;
//! * (c) end to end, invalid FLB requests (a cycle, a self-loop, a
//!   duplicate edge, an unknown task, an empty graph, zero processors, a
//!   zero slowdown, an over-long tenant) get the error reply bytes of
//!   `decode_request`'s error;
//! * (d) an FLB graph named with the panic marker, sent through the flat
//!   path, answers `scheduler panicked`, and the pool respawns a worker
//!   the hard marker kills.

use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
use flb_graph::{TaskGraphBuilder, TaskId};
use flb_kernel::FlbKernel;
use flb_sched::io::wire::Writer;
use flb_sched::{Machine, Schedule};
use flb_service::fingerprint::{peek_request_key, request_fingerprint};
use flb_service::proto::{
    decode_flat_request, decode_request, decode_response, encode_request, encode_response,
    read_frame, write_frame, FlatScheduleRequest, Request, Response,
};
use flb_service::{serve, Client, Endpoint, ServiceConfig, HARD_PANIC_MARKER, PANIC_MARKER};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A random request: a DAG of 1–24 tasks whose ids are a random
/// permutation of a topological order, a related machine of 1–5
/// processors, FLB three times in four (any other algorithm otherwise),
/// a tenant of 0–64 bytes.
fn random_request(seed: u64) -> (ScheduleRequest, String) {
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

fn payload_of(req: &ScheduleRequest, tenant: &str, deadline_ms: u64) -> Vec<u8> {
    encode_request(&Request::Schedule {
        request: Box::new(req.clone()),
        deadline_ms,
        tenant: tenant.into(),
    })
}

/// The same request with its edge records reordered by `perm_seed`. The
/// edges sit right before the tenant field: 16 bytes each, then the
/// 4-byte tenant length and its bytes.
fn shuffled_edges(payload: &[u8], edges: usize, tenant: &str, perm_seed: u64) -> Vec<u8> {
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

/// The decoded schedule request behind `payload`, if `decode_request`
/// accepts it as one.
fn decoded(payload: &[u8]) -> Option<(ScheduleRequest, u64, String)> {
    match decode_request(payload).ok()? {
        Request::Schedule {
            request,
            deadline_ms,
            tenant,
        } => Some((*request, deadline_ms, tenant)),
        _ => None,
    }
}

/// Asserts that `flat` holds exactly the request `decode_request` makes
/// of the same bytes.
fn assert_same_request(flat: &FlatScheduleRequest, payload: &[u8]) -> ScheduleRequest {
    let Some((req, deadline_ms, tenant)) = decoded(payload) else {
        panic!("the flat decode accepted what decode_request rejects: {payload:?}");
    };
    assert_eq!(req.algorithm, AlgorithmId::Flb);
    assert_eq!(flat.deadline_ms, deadline_ms);
    assert_eq!(flat.tenant, tenant);
    assert_eq!(flat.machine, req.machine);
    let g = &req.graph;
    let fg = &flat.graph;
    assert_eq!(fg.name(), g.name());
    assert_eq!(fg.num_tasks(), g.num_tasks());
    assert_eq!(fg.num_edges(), g.num_edges());
    for t in g.tasks() {
        let v = t.0 as u32;
        assert_eq!(fg.comp(v), g.comp(t));
        let succs: Vec<(u32, u64)> = g.succs(t).iter().map(|&(s, c)| (s.0 as u32, c)).collect();
        assert_eq!(fg.succs(v).collect::<Vec<_>>(), succs);
        let preds: Vec<(u32, u64)> = g.preds(t).iter().map(|&(p, c)| (p.0 as u32, c)).collect();
        assert_eq!(fg.preds(v).collect::<Vec<_>>(), preds);
    }
    req
}

/// What the daemon's worker runs on a flat-decoded request.
fn daemon_schedule(flat: &FlatScheduleRequest) -> Schedule {
    FlbKernel::new().schedule_flat(&flat.graph, &flat.machine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_flat_decode_is_the_decoded_request(seed in any::<u64>(), perm in any::<u64>()) {
        let (req, tenant) = random_request(seed);
        let canonical = payload_of(&req, &tenant, seed % 1000);
        let shuffled = shuffled_edges(&canonical, req.graph.num_edges(), &tenant, perm);
        for (payload, is_canonical) in [(&canonical, true), (&shuffled, shuffled == canonical)] {
            let flat = decode_flat_request(payload);
            if req.algorithm != AlgorithmId::Flb || !is_canonical {
                prop_assert!(flat.is_none(), "only canonical FLB payloads decode flat");
                continue;
            }
            prop_assert!(flat.is_some(), "a canonical FLB payload must decode flat");
            let flat = flat.unwrap();
            let request = assert_same_request(&flat, payload);
            let peeked = peek_request_key(payload).expect("a flat payload is peeked");
            prop_assert_eq!(
                peeked.key,
                request_fingerprint(request.algorithm, &request.graph, &request.machine)
            );
            prop_assert_eq!(daemon_schedule(&flat), schedule_request(&request));
        }
    }

    #[test]
    fn a_mutated_flat_decode_is_the_decoded_request(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u64>(), 16..48)
    ) {
        let (mut req, tenant) = random_request(seed);
        req.algorithm = AlgorithmId::Flb;
        let original = payload_of(&req, &tenant, 3);
        for &pick in &picks {
            let m = mutate(&original, pick);
            if let Some(flat) = decode_flat_request(&m) {
                assert_same_request(&flat, &m);
            }
        }
    }
}

/// Every single-bit flip, every truncation and a few extensions of one
/// payload, checked exhaustively. Flips in the deadline, name, costs and
/// tenant bytes keep the payload valid, so the sweep exercises real
/// accepts as well as rejects.
#[test]
fn exhaustive_flips_truncations_and_extensions_of_one_payload() {
    let (mut req, tenant) = (42..)
        .map(random_request)
        .find(|(r, _)| r.graph.num_edges() >= 5)
        .unwrap();
    req.algorithm = AlgorithmId::Flb;
    let original = payload_of(&req, &tenant, 5);
    let mut variants = Vec::new();
    for pos in 0..original.len() {
        for bit in 0..8 {
            let mut m = original.clone();
            m[pos] ^= 1 << bit;
            variants.push(m);
        }
    }
    variants.extend((0..original.len()).map(|cut| original[..cut].to_vec()));
    for extra in [&[0u8][..], &[1, 0, 0, 0, b'x'], &[0; 16]] {
        let mut m = original.clone();
        m.extend_from_slice(extra);
        variants.push(m);
    }
    let mut accepted = 0;
    for m in &variants {
        if let Some(flat) = decode_flat_request(m) {
            accepted += 1;
            assert_same_request(&flat, m);
        }
    }
    assert!(accepted > 100, "only {accepted} variants decoded");
}

/// A raw FLB schedule payload: `put_machine` of the slowdowns (as given,
/// so zero processors and zero slowdowns can be written), then the graph.
fn raw_flb_payload(slowdowns: &[u64], comp: &[u64], edges: &[(u32, u32, u64)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(1); // schedule request
    w.put_u8(AlgorithmId::Flb.code());
    w.put_u64(0);
    w.put_u32(slowdowns.len() as u32);
    for &s in slowdowns {
        w.put_u64(s);
    }
    w.put_str("raw");
    w.put_u32(comp.len() as u32);
    for &c in comp {
        w.put_u64(c);
    }
    w.put_u32(edges.len() as u32);
    for &(s, d, c) in edges {
        w.put_u32(s);
        w.put_u32(d);
        w.put_u64(c);
    }
    w.put_str("tenant");
    w.into_bytes()
}

fn local_server(cfg: ServiceConfig) -> flb_service::ServiceHandle {
    serve(&Endpoint::parse("127.0.0.1:0"), cfg).expect("bind loopback")
}

/// Sends one payload on a fresh connection and returns the reply payload.
fn round_trip(endpoint: &Endpoint, payload: &[u8]) -> Vec<u8> {
    let Endpoint::Tcp(addr) = endpoint else {
        panic!("loopback server is TCP");
    };
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, payload).unwrap();
    read_frame(&mut s).unwrap().expect("a reply frame")
}

#[test]
fn invalid_flb_requests_get_decode_requests_error_reply() {
    let handle = local_server(ServiceConfig::default());
    let endpoint = handle.endpoint();
    // The "tenant" field (4-byte length, 6 bytes) swapped for 65 bytes.
    let mut long_tenant = raw_flb_payload(&[1], &[1, 2], &[(0, 1, 1)]);
    long_tenant.truncate(long_tenant.len() - 10);
    long_tenant.extend_from_slice(&65u32.to_le_bytes());
    long_tenant.extend_from_slice(&[b'x'; 65]);
    let cases: [(&str, Vec<u8>, &str); 8] = [
        (
            "cycle",
            raw_flb_payload(&[1, 1], &[1, 2, 3], &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
            "invalid graph: task graph contains a cycle",
        ),
        (
            "self-loop",
            raw_flb_payload(&[1], &[1, 2], &[(0, 1, 1), (1, 1, 1)]),
            "invalid graph: self-loop on task t1",
        ),
        (
            "duplicate edge",
            raw_flb_payload(&[1], &[1, 2], &[(0, 1, 1), (0, 1, 2)]),
            "invalid graph: duplicate edge t0 -> t1",
        ),
        (
            "out-of-range id",
            raw_flb_payload(&[1], &[1, 2], &[(0, 5, 1)]),
            "invalid graph: edge references unknown task t5",
        ),
        (
            "empty graph",
            raw_flb_payload(&[1], &[], &[]),
            "invalid graph: task graph has no tasks",
        ),
        (
            "zero processors",
            raw_flb_payload(&[], &[1, 2], &[(0, 1, 1)]),
            "a machine needs at least one processor",
        ),
        (
            "zero slowdown",
            raw_flb_payload(&[1, 0], &[1, 2], &[(0, 1, 1)]),
            "slowdown factors must be at least 1",
        ),
        (
            "tenant too long",
            long_tenant,
            "tenant name of 65 bytes exceeds 64",
        ),
    ];
    for (what, payload, reason) in &cases {
        assert!(decode_flat_request(payload).is_none(), "{what}");
        let message = format!("malformed wire data: {reason}");
        let err = decode_request(payload).expect_err(what);
        assert_eq!(err.to_string(), message, "{what}");
        let reply = round_trip(&endpoint, payload);
        assert_eq!(
            reply,
            encode_response(&Response::Error(message)),
            "{what}: {:?}",
            decode_response(&reply)
        );
    }
    // The same shapes, made valid, are served.
    let valid = raw_flb_payload(&[1, 2], &[1, 2, 3], &[(0, 1, 1), (1, 2, 1)]);
    let flat = decode_flat_request(&valid).expect("valid payload decodes flat");
    match decode_response(&round_trip(&endpoint, &valid)).unwrap() {
        Response::Schedule { schedule, .. } => assert_eq!(schedule, daemon_schedule(&flat)),
        other => panic!("expected a schedule, got {other:?}"),
    }
    let mut client = Client::connect(&endpoint).unwrap();
    assert_eq!(client.stats().unwrap().errors, cases.len() as u64);
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn the_daemon_serves_generated_requests_as_the_oracle_schedules_them() {
    let handle = local_server(ServiceConfig::default());
    let endpoint = handle.endpoint();
    let Endpoint::Tcp(addr) = &endpoint else {
        panic!("loopback server is TCP");
    };
    let mut s = TcpStream::connect(addr).unwrap();
    let (mut flat, mut graph) = (0, 0);
    for seed in 0..48u64 {
        let (req, tenant) = random_request(seed);
        let canonical = payload_of(&req, &tenant, 0);
        let payload = if seed % 3 == 0 {
            shuffled_edges(&canonical, req.graph.num_edges(), &tenant, seed)
        } else {
            canonical
        };
        if decode_flat_request(&payload).is_some() {
            flat += 1;
        } else {
            graph += 1;
        }
        write_frame(&mut s, &payload).unwrap();
        let reply = read_frame(&mut s).unwrap().expect("a reply frame");
        match decode_response(&reply).unwrap() {
            Response::Schedule { schedule, .. } => {
                assert_eq!(schedule, schedule_request(&req), "seed {seed}");
            }
            other => panic!("seed {seed}: expected a schedule, got {other:?}"),
        }
    }
    assert!(flat > 10 && graph > 10, "{flat} flat, {graph} graph");
    drop(s);
    let mut client = Client::connect(&endpoint).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn a_panic_marker_on_the_flat_path_is_isolated_and_a_killed_worker_respawns() {
    let handle = local_server(ServiceConfig {
        workers: 2,
        panic_injection: true,
        ..ServiceConfig::default()
    });
    let endpoint = handle.endpoint();
    let marker = |name: &str, tag: u64| {
        let mut b = TaskGraphBuilder::named(name);
        let a = b.add_task(3_000_019 + tag);
        let c = b.add_task(3_000_029 + tag);
        b.add_edge(a, c, 4).unwrap();
        let req = ScheduleRequest::new(AlgorithmId::Flb, b.build().unwrap(), Machine::new(2));
        payload_of(&req, "", 0)
    };

    let soft = marker(PANIC_MARKER, 0);
    assert!(
        decode_flat_request(&soft).is_some(),
        "the marker takes the flat path"
    );
    let reply = decode_response(&round_trip(&endpoint, &soft)).unwrap();
    match reply {
        Response::Error(msg) => assert!(msg.starts_with("scheduler panicked"), "{msg}"),
        other => panic!("expected the panic error, got {other:?}"),
    }

    let hard = marker(HARD_PANIC_MARKER, 1);
    assert!(
        decode_flat_request(&hard).is_some(),
        "the marker takes the flat path"
    );
    let reply = decode_response(&round_trip(&endpoint, &hard)).unwrap();
    assert!(matches!(reply, Response::Schedule { .. }), "{reply:?}");

    let mut client = Client::connect(&endpoint).unwrap();
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let stats = client.stats().unwrap();
        if stats.worker_respawns >= 1 && stats.workers == 2 {
            assert_eq!(stats.worker_panics, 1);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pool not refilled: {} workers, {} respawns",
            stats.workers,
            stats.worker_respawns
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    client.shutdown().unwrap();
    handle.join();
}
