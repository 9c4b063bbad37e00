//! Cross-algorithm properties: every scheduler in the paper's comparison
//! produces valid schedules with sane bounds, on every graph family.

use flb_baselines::{DscLlb, Etf, LlbPriority, Mcp, McpTieBreak};
use flb_core::{AlgorithmId, Flb};
use flb_graph::costs::CostModel;
use flb_graph::levels::critical_path_comp_only;
use flb_graph::{gen, TaskGraph};
use flb_sched::validate::validate;
use flb_sched::{Machine, Scheduler};
use proptest::prelude::*;

/// Every wire algorithm, plus two tie-break variants.
fn schedulers() -> Vec<Box<dyn Scheduler>> {
    let variants: [Box<dyn Scheduler>; 2] = [
        Box::new(Mcp {
            tie_break: McpTieBreak::TaskId,
            insertion: false,
        }),
        Box::new(DscLlb::with_priority(LlbPriority::Least)),
    ];
    AlgorithmId::ALL
        .map(AlgorithmId::scheduler)
        .into_iter()
        .chain(variants)
        .collect()
}

fn arb_weighted_graph() -> impl Strategy<Value = TaskGraph> {
    let topo = prop_oneof![
        (2usize..12).prop_map(gen::lu),
        (1usize..6).prop_map(gen::laplace),
        (1usize..6, 1usize..5).prop_map(|(p, s)| gen::stencil(p, s)),
        (1u32..4).prop_map(gen::fft),
        (1usize..6, 1usize..4).prop_map(|(w, s)| gen::fork_join(w, s)),
        (1usize..9).prop_map(gen::chain),
        (1usize..9).prop_map(gen::independent),
        (8usize..36, 2usize..5, any::<u64>()).prop_map(|(v, l, seed)| gen::random_layered(
            &gen::RandomLayeredSpec {
                tasks: v,
                layers: l,
                edge_prob: 0.35,
                max_skip: 2
            },
            seed
        )),
    ];
    (topo, prop_oneof![Just(0.2), Just(5.0)], any::<u64>())
        .prop_map(|(t, ccr, seed)| CostModel::paper_default(ccr).apply(&t, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_scheduler_is_valid_and_bounded(
        g in arb_weighted_graph(),
        procs in 1usize..7,
    ) {
        let m = Machine::new(procs);
        let serial = g.total_comp();
        // Combined bound: computation critical path and load balance.
        let lower = critical_path_comp_only(&g)
            .max(flb_sched::bounds::makespan_lower_bound(&g, procs));
        for s in schedulers() {
            let sched = s.schedule(&g, &m);
            prop_assert_eq!(
                validate(&g, &sched),
                Ok(()),
                "{} produced an invalid schedule",
                s.name()
            );
            let span = sched.makespan();
            prop_assert!(span >= lower, "{} beat the critical-path bound", s.name());
            prop_assert!(
                span <= serial + g.total_comm(),
                "{} exceeded full serialisation: {span}",
                s.name()
            );
        }
    }

    /// On a single processor, list schedulers produce zero idle time.
    #[test]
    fn single_processor_no_idle(g in arb_weighted_graph()) {
        let m = Machine::new(1);
        for s in schedulers() {
            let sched = s.schedule(&g, &m);
            prop_assert_eq!(
                sched.makespan(),
                g.total_comp(),
                "{} idles on one processor",
                s.name()
            );
        }
    }

    /// Every scheduler stays correct on related (heterogeneous) machines:
    /// durations scale with the processor's slowdown and the machine-aware
    /// lower bound holds. (The paper's machines are homogeneous; this is
    /// the extension setting of experiment X9.)
    #[test]
    fn every_scheduler_valid_on_related_machines(
        g in arb_weighted_graph(),
        shape in prop_oneof![
            Just(vec![1u64, 2]),
            Just(vec![1, 1, 4]),
            Just(vec![2, 3, 5]),
            Just(vec![1, 1, 2, 2, 4, 4]),
        ],
    ) {
        let m = Machine::new(1); // exercise P=1 alongside the related one
        let hm = Machine::related(shape);
        for s in schedulers() {
            for machine in [&m, &hm] {
                let sched = s.schedule(&g, machine);
                prop_assert_eq!(
                    validate(&g, &sched),
                    Ok(()),
                    "{} on {:?}",
                    s.name(),
                    machine
                );
                prop_assert!(
                    sched.makespan()
                        >= flb_sched::bounds::makespan_lower_bound_on(&g, machine),
                    "{} beat the machine-aware bound",
                    s.name()
                );
            }
        }
    }

    /// Scheduling pre-pass transforms compose with every scheduler: the
    /// transformed graphs remain schedulable, and the makespan lower bound
    /// still holds.
    #[test]
    fn transforms_compose_with_scheduling(
        g in arb_weighted_graph(),
        procs in 1usize..6,
    ) {
        use flb_graph::transform::{coarsen_chains, transitive_reduction};
        let m = Machine::new(procs);
        for variant in [transitive_reduction(&g), coarsen_chains(&g).graph] {
            for s in schedulers() {
                let sched = s.schedule(&variant, &m);
                prop_assert_eq!(
                    validate(&variant, &sched),
                    Ok(()),
                    "{} on transformed {}",
                    s.name(),
                    variant.name()
                );
                prop_assert!(
                    sched.makespan() >= flb_sched::bounds::makespan_lower_bound(&variant, procs)
                );
            }
        }
    }

    /// FLB and ETF share the selection criterion: their makespans agree
    /// whenever no tie-break divergence occurs; in general they stay within
    /// a modest band of each other (§6.2 reports up to ~12% differences on
    /// real workloads; random micro-graphs can diverge further, so this only
    /// asserts both lie within the generic bounds — the quantitative band is
    /// measured by the fig4 harness).
    #[test]
    fn flb_and_etf_both_feasible(g in arb_weighted_graph(), procs in 1usize..7) {
        let m = Machine::new(procs);
        let f = Flb::default().schedule(&g, &m);
        let e = Etf.schedule(&g, &m);
        prop_assert_eq!(validate(&g, &f), Ok(()));
        prop_assert_eq!(validate(&g, &e), Ok(()));
    }
}
