//! HLFET — Highest Level First with Estimated Times (Adam, Chandy & Dickson
//! 1974; the form with communication delays as surveyed by Kwok & Ahmad,
//! the paper's reference [5]).
//!
//! The simplest classic list scheduler: tasks carry a *static* priority —
//! their computation-only bottom level ("static level") — and at each step
//! the highest-priority **ready** task is scheduled on the processor where
//! it starts the earliest. It is the natural floor for the comparison: every
//! other algorithm here refines either its task choice (ETF, DLS, FLB) or
//! its processor choice (FCP's two-processor rule, MCP's ALAP order).

use flb_ds::IndexedMinHeap;
use flb_graph::levels::bottom_levels_comp_only;
use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{Machine, ProcId, Schedule, ScheduleBuilder, Scheduler};
use std::cmp::Reverse;

/// The HLFET scheduling algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hlfet;

impl Scheduler for Hlfet {
    fn name(&self) -> &'static str {
        "HLFET"
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        let sl = bottom_levels_comp_only(graph);
        let mut builder = ScheduleBuilder::new(graph, machine);
        let mut missing: Vec<usize> = graph.tasks().map(|t| graph.in_degree(t)).collect();
        let mut ready: IndexedMinHeap<Reverse<Time>> = IndexedMinHeap::new(graph.num_tasks());
        for t in graph.entry_tasks() {
            ready.insert(t.0, Reverse(sl[t.0]));
        }

        while let Some((t, _)) = ready.pop() {
            let t = TaskId(t);
            let mut best: Option<(Time, ProcId)> = None;
            for p in machine.procs() {
                let est = builder.est(t, p);
                if best.is_none_or(|b| (est, p) < b) {
                    best = Some((est, p));
                }
            }
            let (est, proc) = best.expect("machine has processors");
            builder.place(t, proc, est);
            for s in graph.succ_ids(t) {
                missing[s.0] -= 1;
                if missing[s.0] == 0 {
                    ready.insert(s.0, Reverse(sl[s.0]));
                }
            }
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;
    use flb_graph::{gen, TaskGraphBuilder};
    use flb_sched::validate::validate;

    #[test]
    fn hlfet_fig1_is_valid() {
        let g = fig1();
        let s = Hlfet.schedule(&g, &Machine::new(2));
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn hlfet_priority_order_on_one_proc() {
        let mut gb = TaskGraphBuilder::new();
        let low = gb.add_task(1);
        let high0 = gb.add_task(1);
        let high1 = gb.add_task(30);
        gb.add_edge(high0, high1, 1).unwrap();
        let g = gb.build().unwrap();
        let s = Hlfet.schedule(&g, &Machine::new(1));
        assert!(s.start(high0) < s.start(low));
        assert_eq!(s.makespan(), g.total_comp());
    }

    #[test]
    fn hlfet_valid_on_random_graphs() {
        for seed in 0..6 {
            let topo = gen::random_layered(
                &gen::RandomLayeredSpec {
                    tasks: 50,
                    layers: 5,
                    edge_prob: 0.3,
                    max_skip: 2,
                },
                seed,
            );
            let g = flb_graph::costs::CostModel::paper_default(5.0).apply(&topo, seed);
            for p in [1, 2, 4] {
                let s = Hlfet.schedule(&g, &Machine::new(p));
                assert_eq!(validate(&g, &s), Ok(()), "seed {seed}, P {p}");
            }
        }
    }
}
