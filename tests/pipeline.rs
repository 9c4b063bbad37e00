//! End-to-end integration: workload suite → every scheduler → validation →
//! simulation → metrics, exercising all crates through the `flb` facade.

use flb::prelude::*;
use flb::sched::metrics;

fn small_suite() -> Vec<TaskGraph> {
    let mut spec = SuiteSpec::small();
    spec.target_tasks = 120;
    spec.instances = 1;
    spec.generate().into_iter().map(|w| w.graph).collect()
}

fn all_schedulers() -> [Box<dyn Scheduler>; 5] {
    use AlgorithmId as A;
    [A::Mcp, A::Etf, A::DscLlb, A::Fcp, A::Flb].map(A::scheduler)
}

#[test]
fn full_pipeline_on_suite() {
    for graph in small_suite() {
        for p in [1usize, 3, 8] {
            let machine = Machine::new(p);
            for s in all_schedulers() {
                let schedule = s.schedule(&graph, &machine);
                validate(&graph, &schedule)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", s.name(), graph.name()));

                // Metrics are internally consistent.
                let sum = metrics::summarise(&graph, &schedule);
                assert!(sum.speedup > 0.0 && sum.speedup <= p as f64 + 1e-9);
                assert!((sum.efficiency - sum.speedup / p as f64).abs() < 1e-12);

                // The simulator replays list schedules to the same makespan.
                let sim = simulate(&graph, &schedule).expect("feasible");
                assert_eq!(sim.makespan, sum.makespan, "{}", s.name());
                assert_eq!(
                    sim.messages + sim.local_edges,
                    graph.num_edges(),
                    "every edge is a message or local"
                );
            }
        }
    }
}

#[test]
fn speedup_never_exceeds_processor_count() {
    for graph in small_suite() {
        for p in [2usize, 4] {
            let s = Flb::default().schedule(&graph, &Machine::new(p));
            assert!(metrics::speedup(&graph, &s) <= p as f64 + 1e-9);
        }
    }
}

#[test]
fn flb_quality_band_on_small_suite() {
    // Miniature of the paper's §6.2 claims, on the small suite: FLB within
    // a modest band of MCP/ETF, and at least as good as DSC-LLB in the
    // aggregate. (The paper-scale bands are measured by the fig4 harness.)
    let mut flb_total = 0.0f64;
    let mut mcp_total = 0.0f64;
    let mut etf_total = 0.0f64;
    let mut dsc_total = 0.0f64;
    for graph in small_suite() {
        for p in [4usize, 8] {
            let m = Machine::new(p);
            flb_total += Flb::default().schedule(&graph, &m).makespan() as f64;
            mcp_total += Mcp::default().schedule(&graph, &m).makespan() as f64;
            etf_total += Etf.schedule(&graph, &m).makespan() as f64;
            dsc_total += DscLlb::default().schedule(&graph, &m).makespan() as f64;
        }
    }
    assert!(
        flb_total < mcp_total * 1.15,
        "FLB {flb_total} vs MCP {mcp_total}: outside the comparable band"
    );
    assert!(
        flb_total < etf_total * 1.15,
        "FLB {flb_total} vs ETF {etf_total}: outside the comparable band"
    );
    assert!(
        flb_total <= dsc_total * 1.02,
        "FLB {flb_total} should not lose to DSC-LLB {dsc_total}"
    );
}

#[test]
fn serialization_roundtrip_through_facade() {
    use flb::graph::serialize::{parse_text, to_text};
    for graph in small_suite() {
        let text = to_text(&graph);
        let back = parse_text(&text).expect("roundtrip parses");
        assert_eq!(back.num_tasks(), graph.num_tasks());
        assert_eq!(back.num_edges(), graph.num_edges());
        // Schedules of the roundtripped graph are identical.
        let m = Machine::new(4);
        let a = Flb::default().schedule(&graph, &m);
        let b = Flb::default().schedule(&back, &m);
        assert_eq!(a.makespan(), b.makespan());
    }
}

#[test]
fn paper_example_through_facade() {
    let graph = flb::graph::paper::fig1();
    let schedule = Flb::default().schedule(&graph, &Machine::new(2));
    assert_eq!(schedule.makespan(), 14);
    let sim = simulate(&graph, &schedule).expect("feasible");
    assert_eq!(sim.makespan, 14);
}
