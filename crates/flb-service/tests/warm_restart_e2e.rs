//! Warm-restart acceptance tests: the schedule cache survives a graceful
//! restart via its checksummed snapshot (≥ 90% hits on replay), interval
//! snapshots land on disk while the daemon runs (the crash-safety story),
//! a corrupt or outdated snapshot is quarantined rather than fatal, and the stale
//! Unix-socket handling never clobbers a *live* server.

use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
use flb_graph::gen;
use flb_sched::Machine;
use flb_service::fingerprint::Fnv64;
use flb_service::{
    request_fingerprint, serve, snapshot, Client, Endpoint, PackedSchedule, ServiceConfig,
    Submission,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flb-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn submit_workload(client: &mut Client, n: usize) {
    for i in 0..n {
        match client
            .schedule_with_retry(AlgorithmId::Flb, &gen::chain(i + 2), &Machine::new(2), 0, 8)
            .unwrap()
        {
            Submission::Done(_) => {}
            other => panic!("workload request {i} not served: {other:?}"),
        }
    }
}

#[test]
fn graceful_restart_replays_the_cache_from_the_snapshot() {
    let dir = temp_dir("warm");
    let cache_file = dir.join("cache.snap");
    let cfg = ServiceConfig {
        workers: 2,
        cache_file: Some(cache_file.clone()),
        ..ServiceConfig::default()
    };

    // Generation A: populate the cache, shut down gracefully.
    let handle = serve(&Endpoint::parse("127.0.0.1:0"), cfg.clone()).unwrap();
    let mut client = Client::connect(&handle.endpoint()).unwrap();
    submit_workload(&mut client, 20);
    assert_eq!(client.stats().unwrap().cache_entries, 20);
    client.shutdown().unwrap();
    handle.join(); // writes the final snapshot
    assert!(cache_file.exists(), "shutdown must leave a snapshot");

    // Generation B: boot from the snapshot, replay the same workload.
    let handle = serve(&Endpoint::parse("127.0.0.1:0"), cfg).unwrap();
    let mut client = Client::connect(&handle.endpoint()).unwrap();
    submit_workload(&mut client, 20);
    let stats = client.stats().unwrap();
    assert_eq!(stats.snapshot_loaded, 20, "all entries must reload");
    assert!(
        stats.cache_hits >= 18,
        "warm restart must serve >= 90% from cache, got {} hits",
        stats.cache_hits
    );
    assert_eq!(stats.snapshot_quarantined, 0);
    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interval_snapshots_land_on_disk_while_running() {
    let dir = temp_dir("interval");
    let cache_file = dir.join("cache.snap");
    let handle = serve(
        &Endpoint::parse("127.0.0.1:0"),
        ServiceConfig {
            workers: 2,
            cache_file: Some(cache_file.clone()),
            snapshot_interval_ms: 30,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(&handle.endpoint()).unwrap();
    submit_workload(&mut client, 5);

    // Without any shutdown, a complete snapshot must appear: this is what
    // an uncatchable `kill -9` would find on disk.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(entries) = snapshot::load(&cache_file) {
            if entries.len() == 5 {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no complete interval snapshot within 5s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(client.stats().unwrap().snapshot_saves >= 1);
    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_is_quarantined_and_the_server_boots_anyway() {
    let dir = temp_dir("quarantine");
    let cache_file = dir.join("cache.snap");
    std::fs::write(&cache_file, b"these are not the bytes you are looking for").unwrap();

    let handle = serve(
        &Endpoint::parse("127.0.0.1:0"),
        ServiceConfig {
            workers: 1,
            cache_file: Some(cache_file.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("corrupt snapshot must not prevent boot");
    let mut client = Client::connect(&handle.endpoint()).unwrap();
    client.ping().unwrap();
    submit_workload(&mut client, 3);

    let stats = client.stats().unwrap();
    assert_eq!(stats.snapshot_quarantined, 1);
    assert_eq!(stats.snapshot_loaded, 0);
    assert!(!cache_file.exists(), "corrupt file must be moved aside");
    let quarantined = dir.join("cache.snap.corrupt");
    assert!(quarantined.exists(), "evidence must be preserved");

    client.shutdown().unwrap();
    handle.join();
    // The graceful shutdown wrote a fresh, valid snapshot in its place.
    assert_eq!(snapshot::load(&cache_file).unwrap().len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-1 snapshot holds keys of the retired cache key. It is
/// refused as an unsupported version and quarantined; the daemon boots
/// cold once, then serves and re-caches under the current key.
/// Version 1 files are keyed by the retired byte-wise FNV-1a hash,
/// version 2 files by the retired one-lane word hash: serving from either
/// could answer a request with another request's schedule. Both are
/// refused and quarantined, and the daemon boots cold. The entries here
/// carry today's keys, so a file loaded by mistake would show up as hits.
#[test]
fn version_1_snapshot_is_quarantined_and_the_cache_refills() {
    for version in [1u32, 2] {
        let dir = temp_dir(&format!("snapshot-v{version}"));
        let cache_file = dir.join("cache.snap");
        let entries: Vec<_> = (0..3)
            .map(|i| {
                let request =
                    ScheduleRequest::new(AlgorithmId::Flb, gen::chain(i + 2), Machine::new(2));
                (
                    request_fingerprint(request.algorithm, &request.graph, &request.machine),
                    Arc::new(PackedSchedule::from_schedule(&schedule_request(&request))),
                )
            })
            .collect();
        let mut bytes = snapshot::encode(&entries);
        bytes.truncate(bytes.len() - 8);
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let mut h = Fnv64::new();
        h.write(&bytes);
        bytes.extend_from_slice(&h.finish().to_le_bytes());
        std::fs::write(&cache_file, &bytes).unwrap();

        let cfg = ServiceConfig {
            workers: 1,
            cache_file: Some(cache_file.clone()),
            ..ServiceConfig::default()
        };
        let handle = serve(&Endpoint::parse("127.0.0.1:0"), cfg).unwrap();
        let mut client = Client::connect(&handle.endpoint()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.snapshot_quarantined, 1, "version {version}");
        assert_eq!(stats.snapshot_loaded, 0, "version {version}");
        assert!(
            dir.join("cache.snap.corrupt").exists(),
            "evidence must be preserved"
        );
        let quarantined = std::fs::read(dir.join("cache.snap.corrupt")).unwrap();
        assert_eq!(quarantined, bytes, "the file is moved as it was");
        match snapshot::load(&dir.join("cache.snap.corrupt")) {
            Err(snapshot::SnapshotError::Corrupt(why)) => {
                assert_eq!(why, format!("unsupported version {version}"));
            }
            other => panic!("version {version} loaded: {other:?}"),
        }

        submit_workload(&mut client, 3);
        submit_workload(&mut client, 3);
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.cache_misses, 3,
            "the cold boot schedules each graph once (version {version})"
        );
        assert_eq!(
            stats.cache_hits, 3,
            "and answers the repeats from the cache (version {version})"
        );

        client.shutdown().unwrap();
        handle.join();
        // The shutdown snapshot is written in the current format.
        assert_eq!(snapshot::load(&cache_file).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn stale_unix_socket_is_reclaimed_but_a_live_server_is_refused() {
    let dir = temp_dir("sock");
    let sock = dir.join("flb.sock");

    // A crashed daemon leaves its socket file behind: binding must
    // detect that nothing answers and reclaim the path.
    drop(std::os::unix::net::UnixListener::bind(&sock).unwrap());
    assert!(sock.exists(), "dropped listener leaves a stale file");
    let endpoint = Endpoint::Unix(sock.clone());
    let handle = serve(&endpoint, ServiceConfig::default()).expect("stale socket reclaimed");
    let mut client = Client::connect(&endpoint).unwrap();
    client.ping().unwrap();

    // But a *live* server on the path must be refused, not clobbered —
    // a second instance would otherwise also steal its snapshot file.
    let err = match serve(&endpoint, ServiceConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("second bind on a live socket must refuse"),
    };
    assert!(err.to_string().contains("live server"), "{err}");
    client
        .ping()
        .expect("first server unaffected by refused bind");

    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
