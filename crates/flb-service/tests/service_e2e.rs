//! End-to-end acceptance tests for the scheduling daemon, covering the
//! contract the service substrate guarantees:
//!
//! * daemon-served schedules are bit-for-bit identical to direct
//!   `flb_core::schedule_request` calls;
//! * resubmitting the same graph is served from the cache (hit counter
//!   increments, no extra scheduler invocation);
//! * a full queue yields a backpressure response, never a hang;
//! * `stats` counters stay consistent under ≥ 4 concurrent clients;
//! * the Unix-domain transport serves the same protocol.

use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
use flb_graph::costs::CostModel;
use flb_graph::gen::Family;
use flb_graph::{TaskGraph, TaskGraphBuilder, TaskId};
use flb_sched::validate::validate;
use flb_sched::Machine;
use flb_service::{serve, Client, Endpoint, ServiceConfig, Submission};
use std::thread;

fn lu(tasks: usize, seed: u64) -> TaskGraph {
    CostModel::paper_default(1.0).apply(&Family::Lu.topology(tasks), seed)
}

fn local_server(cfg: ServiceConfig) -> flb_service::ServiceHandle {
    serve(&Endpoint::parse("127.0.0.1:0"), cfg).expect("bind loopback")
}

fn expect_done(s: Submission) -> flb_service::ScheduleReply {
    match s {
        Submission::Done(reply) => reply,
        other => panic!("expected a schedule, got {other:?}"),
    }
}

#[test]
fn served_schedule_is_bit_identical_to_direct_call_and_cached_on_resubmit() {
    let handle = local_server(ServiceConfig::default());
    let mut client = Client::connect(&handle.endpoint()).unwrap();

    let graph = lu(150, 7);
    let machine = Machine::new(8);
    for alg in [AlgorithmId::Flb, AlgorithmId::Mcp, AlgorithmId::Heft] {
        let direct = schedule_request(&ScheduleRequest::new(alg, graph.clone(), machine.clone()));
        let reply = expect_done(
            client
                .schedule(alg, graph.clone(), machine.clone(), 0)
                .unwrap(),
        );
        assert!(!reply.cached, "{alg}: first submission must miss");
        assert_eq!(
            reply.schedule, direct,
            "{alg}: daemon must match direct call"
        );
        assert_eq!(validate(&graph, &reply.schedule), Ok(()));
    }

    let before = client.stats().unwrap();
    let reply = expect_done(
        client
            .schedule(AlgorithmId::Flb, graph.clone(), machine.clone(), 0)
            .unwrap(),
    );
    let after = client.stats().unwrap();

    assert!(reply.cached, "resubmission must be served from cache");
    assert_eq!(
        reply.schedule,
        schedule_request(&ScheduleRequest::new(AlgorithmId::Flb, graph, machine))
    );
    assert_eq!(after.cache_hits, before.cache_hits + 1);
    assert_eq!(
        after.scheduler_invocations, before.scheduler_invocations,
        "a cache hit must not invoke the scheduler"
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn full_queue_answers_busy_instead_of_hanging() {
    // One worker and a one-slot queue, hammered by clients submitting
    // *distinct* graphs (distinct fingerprints, so no cache help): the
    // excess must come back as `busy` responses, and every call returns.
    let handle = local_server(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    });
    let endpoint = handle.endpoint();

    let mut rounds = 0;
    let mut saw_busy = false;
    while !saw_busy && rounds < 3 {
        rounds += 1;
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let endpoint = endpoint.clone();
                let seed = rounds * 100 + i;
                thread::spawn(move || {
                    let mut client = Client::connect(&endpoint).unwrap();
                    // ETF on a mid-sized graph keeps the single worker busy
                    // long enough for the queue to fill.
                    client
                        .schedule(AlgorithmId::Etf, lu(400, seed), Machine::new(8), 0)
                        .unwrap()
                })
            })
            .collect();
        for t in threads {
            match t.join().expect("no submission may hang or panic") {
                Submission::Busy { retry_after_ms } => {
                    assert!(retry_after_ms > 0);
                    saw_busy = true;
                }
                Submission::Done(reply) => assert!(!reply.cached),
                Submission::Expired => panic!("no deadline was set"),
                Submission::Overloaded { .. } => {
                    panic!("anonymous tenants are unquota'd: shedding must not replace busy")
                }
            }
        }
    }
    assert!(
        saw_busy,
        "8 concurrent distinct submissions onto a 1-slot queue never saw busy"
    );

    let mut client = Client::connect(&endpoint).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.rejected > 0);
    // Busy-rejected requests must still be answerable later.
    let reply = expect_done(
        client
            .schedule_with_retry(AlgorithmId::Flb, &lu(60, 999), &Machine::new(4), 0, 10)
            .unwrap(),
    );
    assert_eq!(reply.schedule.num_procs(), 4);

    client.shutdown().unwrap();
    handle.join();
}

/// Two graphs the old undelimited FNV-1a key hashed alike: costs [5, 9]
/// with edge 0→1 (cost 0), and costs [5, 1] with edge 1→0 (cost 9).
/// A shared key would answer B with A's schedule, which starts task 0
/// before its predecessor, task 1.
#[test]
fn distinct_graphs_never_share_a_cache_entry() {
    let graph = |costs: [u64; 2], (src, dst, comm): (usize, usize, u64)| {
        let mut b = TaskGraphBuilder::new();
        for c in costs {
            b.add_task(c);
        }
        b.add_edge(TaskId(src), TaskId(dst), comm).unwrap();
        b.build().unwrap()
    };
    let a = graph([5, 9], (0, 1, 0));
    let b = graph([5, 1], (1, 0, 9));
    let machine = Machine::new(2);

    let handle = local_server(ServiceConfig::default());
    let mut client = Client::connect(&handle.endpoint()).unwrap();
    expect_done(
        client
            .schedule(AlgorithmId::Flb, a, machine.clone(), 0)
            .unwrap(),
    );
    let reply = expect_done(
        client
            .schedule(AlgorithmId::Flb, b.clone(), machine.clone(), 0)
            .unwrap(),
    );
    assert!(!reply.cached, "B was never scheduled; it cannot be a hit");
    assert_eq!(
        reply.schedule,
        schedule_request(&ScheduleRequest::new(AlgorithmId::Flb, b.clone(), machine))
    );
    assert_eq!(validate(&b, &reply.schedule), Ok(()));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn tight_deadline_expires_in_queue() {
    let handle = local_server(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let endpoint = handle.endpoint();

    // Occupy the single worker with two genuinely slow requests (ETF on
    // a 2000-task LU graph takes tens of milliseconds even in release
    // builds), then queue a request whose 1 ms deadline will certainly
    // have passed by the time the worker gets to it. All three share one
    // tenant, whose backlog is served first in, first out.
    const TENANT: &str = "deadline-test";
    let slow: Vec<_> = [1u64, 2]
        .into_iter()
        .map(|seed| {
            let endpoint = endpoint.clone();
            thread::spawn(move || {
                let mut client = Client::connect_as(&endpoint, TENANT).unwrap();
                client.schedule(AlgorithmId::Etf, lu(2000, seed), Machine::new(8), 0)
            })
        })
        .collect();
    // Wait until the daemon itself shows one blocker running and the
    // other queued: the deadline request then queues behind a whole
    // blocker, however fast or slow the host is.
    let mut client = Client::connect_as(&endpoint, TENANT).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let stats = client.stats().unwrap();
        if stats.scheduler_invocations == 1 && stats.queue_depth == 1 {
            break;
        }
        assert!(
            stats.scheduler_invocations <= 1 && std::time::Instant::now() < deadline,
            "the blockers did not line up: {} invocations, queue depth {}",
            stats.scheduler_invocations,
            stats.queue_depth
        );
        thread::sleep(std::time::Duration::from_millis(1));
    }

    let outcome = client
        .schedule(AlgorithmId::Flb, lu(80, 2), Machine::new(4), 1)
        .unwrap();
    assert!(
        matches!(outcome, Submission::Expired),
        "a 1 ms deadline behind a busy worker must expire, got {outcome:?}"
    );
    for t in slow {
        expect_done(t.join().unwrap().unwrap());
    }
    assert!(client.stats().unwrap().expired >= 1);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn stats_stay_consistent_under_concurrent_clients() {
    let handle = local_server(ServiceConfig {
        workers: 4,
        queue_capacity: 256, // roomy: this test wants zero rejections
        ..ServiceConfig::default()
    });
    let endpoint = handle.endpoint();

    const CLIENTS: u64 = 6;
    const PER_CLIENT: u64 = 10;
    // 4 distinct workloads shared by all clients: plenty of repeats, so
    // the cache must serve a large share.
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let endpoint = endpoint.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                for i in 0..PER_CLIENT {
                    let seed = (c + i) % 4;
                    let reply = expect_done(
                        client
                            .schedule(AlgorithmId::Flb, lu(120, seed), Machine::new(8), 0)
                            .unwrap(),
                    );
                    assert_eq!(reply.schedule.num_procs(), 8);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let mut client = Client::connect(&endpoint).unwrap();
    let stats = client.stats().unwrap();
    let total = CLIENTS * PER_CLIENT;
    assert_eq!(stats.schedule_requests, total);
    assert_eq!(stats.cache_hits + stats.cache_misses, total);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.expired, 0);
    // Misses and invocations agree (no deadline drops in this test), and
    // only 4 distinct fingerprints existed — concurrent first-misses may
    // each invoke the scheduler, but hits must dominate heavily.
    assert_eq!(stats.scheduler_invocations, stats.cache_misses);
    assert!(
        stats.cache_hits >= total - 16,
        "expected hits to dominate: {stats:?}"
    );
    assert!(stats.cache_entries >= 4);
    assert!(stats.p99_us >= stats.p50_us);
    let flb_count = stats
        .per_algorithm
        .iter()
        .find(|(a, _)| *a == AlgorithmId::Flb)
        .unwrap()
        .1;
    assert_eq!(flb_count, total);
    assert_eq!(stats.hit_rate(), stats.cache_hits as f64 / total as f64);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn unix_socket_transport_serves_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("flb-service-e2e-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path.clone());
    let handle = serve(&endpoint, ServiceConfig::default()).expect("bind unix socket");

    let mut client = Client::connect(&handle.endpoint()).unwrap();
    client.ping().unwrap();
    let graph = lu(60, 3);
    let machine = Machine::new(4);
    let reply = expect_done(
        client
            .schedule(AlgorithmId::Flb, graph.clone(), machine.clone(), 0)
            .unwrap(),
    );
    assert_eq!(
        reply.schedule,
        schedule_request(&ScheduleRequest::new(AlgorithmId::Flb, graph, machine))
    );

    client.shutdown().unwrap();
    handle.join();
    assert!(!path.exists(), "socket file must be cleaned up on shutdown");
}

#[test]
fn in_process_shutdown_unblocks_everything() {
    let handle = local_server(ServiceConfig::default());
    let endpoint = handle.endpoint();
    let mut client = Client::connect(&endpoint).unwrap();
    client.ping().unwrap();
    handle.shutdown();
    handle.join();
    // New connections are refused or die immediately after join.
    let mut dead = match Client::connect(&endpoint) {
        Err(_) => return,
        Ok(c) => c,
    };
    assert!(dead.ping().is_err());
}

/// Frames that reach the daemon in one segment are each answered, in
/// order: a small request, one larger than the daemon's read-ahead
/// buffer, that one again (now a hit), and a ping.
#[test]
fn frames_sent_in_one_write_are_all_answered() {
    use flb_service::proto::{encode_request, read_response, write_frame, Request, Response};
    use std::io::Write;

    let handle = local_server(ServiceConfig::default());
    let Endpoint::Tcp(addr) = handle.endpoint() else {
        panic!("loopback server is TCP");
    };
    let machine = Machine::new(4);
    let request =
        |graph: &TaskGraph| ScheduleRequest::new(AlgorithmId::Flb, graph.clone(), machine.clone());
    let payload = |graph: &TaskGraph| {
        encode_request(&Request::Schedule {
            request: Box::new(request(graph)),
            deadline_ms: 0,
            tenant: String::new(),
        })
    };
    let (small, large) = (lu(10, 5), lu(600, 5));
    assert!(
        payload(&large).len() > 8 * 1024,
        "the large frame outgrows the read-ahead"
    );
    let mut bytes = Vec::new();
    for p in [
        payload(&small),
        payload(&large),
        payload(&large),
        encode_request(&Request::Ping),
    ] {
        write_frame(&mut bytes, &p).unwrap();
    }
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(&bytes).unwrap();

    for (graph, want_cached) in [(&small, false), (&large, false), (&large, true)] {
        match read_response(&mut stream).unwrap() {
            Response::Schedule {
                cached, schedule, ..
            } => {
                assert_eq!(cached, want_cached);
                assert_eq!(schedule, schedule_request(&request(graph)));
            }
            other => panic!("expected a schedule, got {other:?}"),
        }
    }
    assert!(matches!(
        read_response(&mut stream).unwrap(),
        Response::Pong
    ));

    handle.shutdown();
    handle.join();
}
