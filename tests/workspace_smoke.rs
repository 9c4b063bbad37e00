//! Workspace coverage smoke test.
//!
//! `cargo test -q` at the repo root only tests the facade package — the
//! per-crate suites need `cargo test -q --workspace --offline` (or the
//! `cargo test-all` alias from `.cargo/config.toml`). This test makes the
//! facade run exercise at least one entry point of *every* workspace crate,
//! so a root-only run still smoke-tests the whole stack, and it fails to
//! compile if a crate drops out of the facade's dependency graph.

use flb::prelude::*;

#[test]
fn every_workspace_crate_is_reachable_and_sane() {
    // flb-graph: generate a workload.
    let graph = CostModel::paper_default(1.0).apply(&Family::Lu.topology(200), 9);
    assert!(graph.num_tasks() > 100);

    // flb-ds: the indexed heap underlying FLB's processor lists.
    let mut heap = flb::ds::IndexedMinHeap::new(4);
    heap.insert(0, 30u64);
    heap.insert(1, 10);
    heap.insert(2, 20);
    heap.update(2, 5);
    assert_eq!(heap.peek(), Some((2, &5)));

    // flb-core + flb-sched: schedule and validate.
    let machine = Machine::new(8);
    let schedule = Flb::default().schedule(&graph, &machine);
    assert!(validate(&graph, &schedule).is_ok());
    assert!(speedup(&graph, &schedule) > 1.0);

    // flb-baselines: an independent algorithm agrees on feasibility.
    let mcp = Mcp::default().schedule(&graph, &machine);
    assert!(validate(&graph, &mcp).is_ok());

    // flb-sim: the discrete-event replay reproduces the planned makespan.
    let sim = simulate(&graph, &schedule).expect("replay");
    assert_eq!(sim.makespan, schedule.makespan());

    // flb-workloads: the paper's suite specs are constructible.
    assert!(!SuiteSpec::paper().families.is_empty());

    // flb-service: daemon round-trip matches the direct entry point.
    let direct = schedule_request(&ScheduleRequest::new(
        AlgorithmId::Flb,
        graph.clone(),
        machine.clone(),
    ));
    let handle = serve(&Endpoint::parse("127.0.0.1:0"), ServiceConfig::default()).expect("serve");
    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    match client
        .schedule(AlgorithmId::Flb, graph, machine, 0)
        .expect("submit")
    {
        Submission::Done(reply) => assert_eq!(reply.schedule, direct),
        other => panic!("unexpected submission outcome: {other:?}"),
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn facade_reexports_every_crate() {
    // Compile-time assertion that the facade exposes all nine crates by
    // naming one item from each module re-export.
    fn _touch() {
        let _ = flb::graph::paper::fig1;
        let _ = flb::ds::IndexedMinHeap::<u64>::new;
        let _ = flb::sched::Machine::new;
        let _ = flb::core::schedule_request;
        let _ = flb::baselines::Etf;
        let _ = flb::sim::simulate;
        let _ = flb::workloads::SuiteSpec::paper;
        let _ = flb::service::serve;
    }
}

/// Dependency edges the workspace forbids: (crate, dependency, the
/// manifest sections it may not appear in).
///
/// `flb-core` runs FLB through `flb-kernel`, so the kernel may not
/// depend on `flb-core`, not even for tests. The CLI ships without the
/// bench harness; only its JSON-schema tests use it.
const FORBIDDEN_EDGES: [(&str, &str, &[&str]); 2] = [
    ("flb-kernel", "flb-core", ANY),
    ("flb-cli", "flb-bench", NORMAL),
];
const NORMAL: &[&str] = &["[dependencies]"];
const ANY: &[&str] = &["[dependencies]", "[dev-dependencies]"];

#[test]
fn forbidden_dependency_edges_are_absent() {
    for (krate, dep, sections) in FORBIDDEN_EDGES {
        let path = format!("{}/crates/{krate}/Cargo.toml", env!("CARGO_MANIFEST_DIR"));
        let manifest = std::fs::read_to_string(&path).expect("crate manifest");
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            }
            let name = line.split(['.', '=', ' ']).next();
            assert!(
                !(sections.contains(&section) && name == Some(dep)),
                "{krate} {section}: {line}"
            );
        }
    }
}
