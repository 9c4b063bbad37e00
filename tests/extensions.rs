//! Integration tests for the extension systems: graph composition and
//! transforms feeding schedulers, the contention simulator, runtime
//! dispatch, and the duplication class — all through the `flb` facade.

use flb::baselines::duplication::{validate_dup, Cpd};
use flb::graph::compose::{parallel, replicate, series};
use flb::graph::gen;
use flb::graph::transform::{coarsen_chains, transitive_reduction};
use flb::prelude::*;
use flb::sim::{dynamic_schedule, simulate_with, Contention, DispatchPolicy, SimConfig};

#[test]
fn composed_program_schedules_end_to_end() {
    // A realistic phase program: FFT, then a stencil sweep, with a
    // replicated post-processing body in parallel with a reduction.
    let fft = gen::fft(4);
    let st = gen::stencil(8, 5);
    let phases = series(&fft, &st, 10).expect("compose");
    let post = replicate(&gen::chain(3), 4, 1, 1, 5).expect("replicate");
    let program = parallel(&phases, &post).expect("parallel");
    let weighted = CostModel::paper_default(1.0).apply(&program, 17);

    let machine = Machine::new(6);
    let schedule = Flb::default().schedule(&weighted, &machine);
    assert!(validate(&weighted, &schedule).is_ok());
    let sim = simulate(&weighted, &schedule).expect("feasible");
    assert_eq!(sim.makespan, schedule.makespan());
}

#[test]
fn transforms_shorten_or_preserve_flb_schedules() {
    // Transitive reduction drops messages, coarsening removes internal
    // messages and scheduling constraints can only relax on 1 processor;
    // on multiple processors quality may shift either way, but the
    // composition must stay valid and bounded.
    let topo = gen::random_layered(
        &gen::RandomLayeredSpec {
            tasks: 120,
            layers: 8,
            edge_prob: 0.3,
            max_skip: 3,
        },
        5,
    );
    let g = CostModel::paper_default(5.0).apply(&topo, 5);
    let reduced = transitive_reduction(&g);
    let coarse = coarsen_chains(&g).graph;
    let m = Machine::new(4);
    for variant in [&g, &reduced, &coarse] {
        let s = Flb::default().schedule(variant, &m);
        assert!(validate(variant, &s).is_ok());
        assert!(s.makespan() >= flb::sched::bounds::makespan_lower_bound(variant, 4));
    }
    // Reduction never *adds* edges/messages.
    assert!(reduced.num_edges() <= g.num_edges());
    assert!(coarse.num_tasks() <= g.num_tasks());
}

#[test]
fn contention_is_monotone_for_every_scheduler() {
    let g = CostModel::paper_default(5.0).apply(&gen::stencil(8, 8), 3);
    let m = Machine::new(4);
    use AlgorithmId as A;
    for s in [A::Flb, A::Etf, A::Mcp, A::Fcp, A::DscLlb].map(A::scheduler) {
        let sched = s.schedule(&g, &m);
        let free = simulate_with(&g, &sched, &SimConfig::default()).expect("feasible");
        let port = simulate_with(
            &g,
            &sched,
            &SimConfig {
                contention: Contention::OnePort,
                ..SimConfig::default()
            },
        )
        .expect("feasible");
        assert!(port.makespan >= free.makespan, "{}", s.name());
        assert_eq!(free.makespan, sched.makespan(), "{}", s.name());
    }
}

#[test]
fn message_log_is_consistent_with_census() {
    let g = CostModel::paper_default(1.0).apply(&gen::lu(10), 9);
    let m = Machine::new(3);
    let sched = Flb::default().schedule(&g, &m);
    let sim = simulate_with(
        &g,
        &sched,
        &SimConfig {
            log_messages: true,
            ..SimConfig::default()
        },
    )
    .expect("feasible");
    assert_eq!(sim.message_log.len(), sim.messages);
    let volume: u64 = sim.message_log.iter().map(|r| r.cost).sum();
    assert_eq!(volume, sim.comm_volume);
    for r in &sim.message_log {
        assert!(r.arrive >= r.depart);
        // The producing task finished no later than the departure.
        assert!(sched.finish(r.src_task) <= r.depart);
    }
}

#[test]
fn runtime_dispatch_is_feasible_and_never_magical() {
    // The runtime dispatcher cannot beat the best compile-time schedule by
    // more than tie-break noise on coarse-grained graphs, and must stay
    // above the universal lower bound.
    let g = CostModel::paper_default(0.2).apply(&gen::laplace(8), 21);
    for p in [2usize, 4, 8] {
        let m = Machine::new(p);
        for policy in [
            DispatchPolicy::BottomLevel,
            DispatchPolicy::Fifo,
            DispatchPolicy::LongestTask,
        ] {
            let rt = dynamic_schedule(&g, &m, policy);
            assert!(validate(&g, &rt).is_ok());
            assert!(rt.makespan() >= flb::sched::bounds::makespan_lower_bound(&g, p));
        }
    }
}

#[test]
fn duplication_class_through_facade() {
    let g = CostModel::paper_default(5.0).apply(&gen::fft(4), 2);
    let m = Machine::new(4);
    let dup = Cpd::new().schedule_dup(&g, &m);
    assert_eq!(validate_dup(&g, &dup), Ok(()));
    // Duplication never violates the computation critical-path bound.
    assert!(dup.makespan() >= flb::sched::bounds::critical_path_bound(&g));
    // Earliest finish of every task is consistent with its instances.
    for t in g.tasks() {
        let ef = dup.earliest_finish(t);
        assert!(dup.instances(t).iter().any(|i| i.finish == ef));
    }
}

#[test]
fn schedule_io_roundtrip_through_facade() {
    use flb::sched::io::{parse_text, to_text};
    let g = CostModel::paper_default(1.0).apply(&gen::stencil(5, 5), 4);
    let sched = Flb::default().schedule(&g, &Machine::new(3));
    let text = to_text(&sched);
    let back = parse_text(&text).expect("roundtrip");
    assert_eq!(back, sched);
    // The parsed schedule still validates and simulates identically.
    assert!(validate(&g, &back).is_ok());
    assert_eq!(
        simulate(&g, &back).expect("feasible").makespan,
        sched.makespan()
    );
}
