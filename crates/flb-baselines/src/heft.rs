//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri & Wu,
//! IEEE TPDS 2002).
//!
//! The reference list scheduler for related/heterogeneous machines, added
//! alongside DLS for the X9 experiment (the FLB authors' own follow-up
//! work targeted heterogeneous systems). Two phases:
//!
//! 1. **prioritising** — tasks are ranked by *upward rank*:
//!    `rank(t) = mean_exec(t) + max over succs (comm + rank(s))`, where
//!    `mean_exec` averages the task's execution time over all processors;
//!    tasks are scheduled in descending rank (a topological order).
//! 2. **processor selection** — each task goes to the processor minimising
//!    its *earliest finish time*, using insertion into idle slots.
//!
//! On a homogeneous machine HEFT degenerates to a bottom-level list
//! scheduler with insertion — close to the original MCP.

use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{Machine, ProcId, Schedule, ScheduleBuilder, Scheduler};

/// The HEFT scheduling algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct Heft;

impl Heft {
    /// Upward ranks (scaled by the processor count so all arithmetic stays
    /// in integers: `rank_scaled = P · comm-path + Σ exec` terms).
    ///
    /// Using `Σ_p exec(t, p)` instead of the mean (a constant factor of
    /// `P`) keeps ordering identical while avoiding floats.
    fn upward_ranks(graph: &TaskGraph, machine: &Machine) -> Vec<Time> {
        let p = machine.num_procs() as Time;
        let sum_exec = |t: TaskId| -> Time {
            machine
                .procs()
                .map(|q| machine.exec_time(graph.comp(t), q))
                .sum()
        };
        let mut rank = vec![0; graph.num_tasks()];
        for t in graph.topological_order().rev() {
            let tail = graph
                .succs(t)
                .map(|(s, c)| c * p + rank[s.0])
                .max()
                .unwrap_or(0);
            rank[t.0] = sum_exec(t) + tail;
        }
        rank
    }
}

impl Scheduler for Heft {
    fn name(&self) -> &'static str {
        "HEFT"
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        let rank = Self::upward_ranks(graph, machine);
        // Descending upward rank is a topological order: along every edge,
        // rank strictly decreases (exec sums are positive).
        let mut order: Vec<TaskId> = graph.tasks().collect();
        order.sort_by_key(|&t| (std::cmp::Reverse(rank[t.0]), t));

        let mut builder = ScheduleBuilder::new(graph, machine);
        for t in order {
            // Earliest finish over all processors, insertion allowed.
            let mut best: Option<(Time, Time, ProcId)> = None; // (eft, est, p)
            for q in machine.procs() {
                let est = builder.est_insertion(t, q);
                let eft = est + machine.exec_time(graph.comp(t), q);
                if best.is_none_or(|(b_eft, _, b_q)| (eft, q) < (b_eft, b_q)) {
                    best = Some((eft, est, q));
                }
            }
            let (_, est, q) = best.expect("machine has processors");
            builder.place_insert(t, q, est);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::costs::CostModel;
    use flb_graph::gen;
    use flb_graph::paper::fig1;
    use flb_sched::validate::validate;

    #[test]
    fn heft_fig1_is_valid() {
        let g = fig1();
        let s = Heft.schedule(&g, &Machine::new(2));
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.makespan() <= 20);
    }

    #[test]
    fn ranks_decrease_along_edges() {
        let g = gen::lu(7);
        for m in [Machine::new(3), Machine::related(vec![1, 2, 4])] {
            let rank = Heft::upward_ranks(&g, &m);
            for t in g.tasks() {
                for s in g.succ_ids(t) {
                    assert!(rank[t.0] > rank[s.0], "edge {t} -> {s} rank order");
                }
            }
        }
    }

    #[test]
    fn heft_prefers_fast_processors() {
        // A single chain on [1, 10]: everything must land on the fast
        // processor; makespan = total comp.
        let g = gen::chain(5);
        let m = Machine::related(vec![1, 10]);
        let s = Heft.schedule(&g, &m);
        assert_eq!(validate(&g, &s), Ok(()));
        for t in g.tasks() {
            assert_eq!(s.proc(t), ProcId(0), "{t} on the slow processor");
        }
        assert_eq!(s.makespan(), g.total_comp());
    }

    #[test]
    fn heft_uses_slow_processors_when_worthwhile() {
        // Many independent equal tasks: even a 2x-slower processor should
        // receive some work (finishing there still beats queueing).
        let g = gen::independent(12);
        let m = Machine::related(vec![1, 2]);
        let s = Heft.schedule(&g, &m);
        assert_eq!(validate(&g, &s), Ok(()));
        let slow_load = s.tasks_on(ProcId(1)).len();
        assert!(slow_load >= 2, "slow processor got {slow_load} tasks");
        // Optimal split of 12 unit tasks on speeds (1, 1/2): 8 fast + 4
        // slow gives makespan 8.
        assert_eq!(s.makespan(), 8);
    }

    #[test]
    fn heft_valid_on_paper_suite_and_hetero_machines() {
        for topo in [gen::lu(7), gen::stencil(4, 4), gen::fft(3)] {
            let g = CostModel::paper_default(5.0).apply(&topo, 23);
            for m in [
                Machine::new(1),
                Machine::new(4),
                Machine::related(vec![1, 1, 2, 4]),
            ] {
                let s = Heft.schedule(&g, &m);
                assert_eq!(validate(&g, &s), Ok(()), "{} on {m:?}", g.name());
                assert!(s.makespan() >= flb_sched::bounds::makespan_lower_bound_on(&g, &m));
            }
        }
    }

    #[test]
    fn heft_beats_speed_oblivious_flb_on_wide_spread() {
        use flb_core::Flb;
        let g = CostModel::paper_default(1.0).apply(&gen::stencil(6, 6), 4);
        let m = Machine::related(vec![1, 1, 8, 8]);
        let heft = Heft.schedule(&g, &m).makespan();
        let flb = Flb::default().schedule(&g, &m).makespan();
        assert!(
            heft <= flb,
            "HEFT ({heft}) should not lose to speed-oblivious FLB ({flb})"
        );
    }
}
