//! Resilience acceptance tests for the hardened daemon:
//!
//! * a slow-loris client (one byte per tick) is evicted by the frame
//!   deadline while concurrent fast clients are served unaffected;
//! * an injected scheduler panic becomes a structured `error` response on
//!   a connection that keeps working — for every registered algorithm,
//!   with post-panic schedules still bit-identical to direct invocation;
//! * a hard-killed worker thread is respawned by the supervisor and the
//!   pool returns to full strength.

use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
use flb_graph::{gen, TaskGraph, TaskGraphBuilder};
use flb_sched::Machine;
use flb_service::{
    serve, Client, Endpoint, ServiceConfig, Submission, HARD_PANIC_MARKER, PANIC_MARKER,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn local_server(cfg: ServiceConfig) -> flb_service::ServiceHandle {
    serve(&Endpoint::parse("127.0.0.1:0"), cfg).expect("bind loopback")
}

/// A marker-named chain with comp costs no ordinary test graph uses, so
/// its fingerprint can never be answered by a cached entry (which would
/// bypass the worker and the injected panic).
fn marker_graph(name: &str, tag: u64) -> TaskGraph {
    let mut b = TaskGraphBuilder::named(name);
    let mut prev = None;
    for i in 0..3 + (tag as usize % 3) {
        let t = b.add_task(2_000_017 + tag * 131 + i as u64);
        if let Some(p) = prev {
            b.add_edge(p, t, 5).unwrap();
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

fn expect_done(s: Submission) -> flb_service::ScheduleReply {
    match s {
        Submission::Done(reply) => reply,
        other => panic!("expected a schedule, got {other:?}"),
    }
}

#[test]
fn slow_loris_is_evicted_while_fast_clients_are_served() {
    let handle = local_server(ServiceConfig {
        workers: 2,
        read_timeout_ms: 200,
        write_timeout_ms: 200,
        frame_deadline_ms: 400,
        ..ServiceConfig::default()
    });
    let endpoint = handle.endpoint();
    let Endpoint::Tcp(addr) = endpoint.clone() else {
        panic!("loopback server is TCP");
    };

    // The attacker: a valid frame header claiming a 64-byte payload,
    // then one payload byte per 50 ms. Each byte resets a per-read
    // timeout, so only the total frame deadline can stop it.
    let loris = std::thread::spawn(move || {
        let mut s = TcpStream::connect(&addr).unwrap();
        let started = Instant::now();
        let mut header = Vec::new();
        header.extend_from_slice(&flb_service::proto::MAGIC.to_le_bytes());
        header.extend_from_slice(&64u32.to_le_bytes());
        s.write_all(&header).unwrap();
        let mut sent = 0u32;
        for _ in 0..100 {
            if s.write_all(&[0u8]).is_err() {
                return (sent, started.elapsed(), true);
            }
            sent += 1;
            std::thread::sleep(Duration::from_millis(50));
        }
        (sent, started.elapsed(), false)
    });

    // Meanwhile, legitimate traffic must be completely unaffected.
    let mut client = Client::connect(&endpoint).unwrap();
    for n in 2..22usize {
        let reply = expect_done(
            client
                .schedule(AlgorithmId::Flb, gen::chain(n), Machine::new(2), 0)
                .unwrap(),
        );
        assert!(reply.schedule.makespan() > 0);
        std::thread::sleep(Duration::from_millis(25));
    }

    let (sent, elapsed, evicted) = loris.join().unwrap();
    assert!(evicted, "slow-loris writes kept succeeding for 5 s");
    // 400 ms frame deadline; allow generous slack for TCP buffering of
    // the first post-eviction bytes and slow CI machines.
    assert!(
        elapsed < Duration::from_secs(3),
        "eviction took {elapsed:?} ({sent} bytes got through)"
    );

    let stats = client.stats().unwrap();
    assert!(stats.evicted_slow >= 1, "eviction must be counted");
    assert!(stats.io_timeouts >= 1, "timeout must be counted");

    client.shutdown().unwrap();
    handle.join();
}

/// A sender that trickles every byte of its frame, the header included,
/// is evicted once the frame deadline is spent, even though each byte
/// arrives well inside the per-read timeout.
#[test]
fn one_byte_at_a_time_sender_is_evicted_at_the_frame_deadline() {
    let handle = local_server(ServiceConfig {
        read_timeout_ms: 1_000,
        frame_deadline_ms: 300,
        ..ServiceConfig::default()
    });
    let Endpoint::Tcp(addr) = handle.endpoint() else {
        panic!("loopback server is TCP");
    };
    let mut frame = Vec::new();
    frame.extend_from_slice(&flb_service::proto::MAGIC.to_le_bytes());
    frame.extend_from_slice(&64u32.to_le_bytes());
    frame.resize(8 + 64, 0);
    let mut s = TcpStream::connect(&addr).unwrap();
    let started = Instant::now();
    let mut evicted = false;
    for byte in &frame {
        if s.write_all(std::slice::from_ref(byte)).is_err() {
            evicted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let elapsed = started.elapsed();
    assert!(
        evicted,
        "a 72-byte frame trickled over {elapsed:?} was never evicted"
    );
    assert!(
        elapsed >= Duration::from_millis(300) && elapsed < Duration::from_secs(1),
        "evicted after {elapsed:?}, not at the 300 ms frame deadline"
    );

    let mut client = Client::connect(&handle.endpoint()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.evicted_slow, 1, "eviction must be counted");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn injected_panics_conform_across_every_algorithm() {
    let handle = local_server(ServiceConfig {
        workers: 2,
        panic_injection: true,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&handle.endpoint()).unwrap();

    let machine = Machine::new(3);
    for alg in AlgorithmId::ALL {
        // A scheduler panic must surface as a structured error...
        let marker = marker_graph(PANIC_MARKER, u64::from(alg.code()));
        let err = client
            .schedule(alg, marker, machine.clone(), 0)
            .expect_err("injected panic must not produce a schedule");
        assert!(
            err.to_string().contains("panicked"),
            "{alg}: unexpected error {err}"
        );

        // ...and the connection must keep serving, with results still
        // bit-identical to direct invocation (the repair didn't bend the
        // scheduler's contract).
        let graph = gen::fork_join(4, 2);
        let direct = schedule_request(&ScheduleRequest::new(alg, graph.clone(), machine.clone()));
        let reply = expect_done(client.schedule(alg, graph, machine.clone(), 0).unwrap());
        assert_eq!(reply.schedule, direct, "{alg}: post-panic divergence");
        client.ping().unwrap();
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.worker_panics, AlgorithmId::ALL.len() as u64);
    assert_eq!(stats.workers, 2, "soft panics must not kill workers");
    assert_eq!(stats.worker_respawns, 0);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn hard_worker_death_is_respawned_by_the_supervisor() {
    let handle = local_server(ServiceConfig {
        workers: 2,
        panic_injection: true,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&handle.endpoint()).unwrap();

    // The hard marker schedules normally, replies, then kills its worker.
    // The queue is empty and a slot free, so any other miss would run on
    // the connection thread; a hard-marker job always goes to the pool,
    // or no worker would die and the respawn path would go untested.
    for tag in 0..2u64 {
        let reply = expect_done(
            client
                .schedule(
                    AlgorithmId::Flb,
                    marker_graph(HARD_PANIC_MARKER, tag),
                    Machine::new(2),
                    0,
                )
                .unwrap(),
        );
        assert!(reply.schedule.makespan() > 0, "reply precedes the death");
    }

    // The supervisor must refill the pool.
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let stats = client.stats().unwrap();
        if stats.worker_respawns >= 2 && stats.workers == 2 {
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
    assert_eq!(handle.live_workers(), 2);

    // And the refilled pool actually serves.
    let reply = expect_done(
        client
            .schedule(AlgorithmId::Etf, gen::chain(9), Machine::new(2), 0)
            .unwrap(),
    );
    assert!(reply.schedule.makespan() > 0);

    client.shutdown().unwrap();
    handle.join();
}
