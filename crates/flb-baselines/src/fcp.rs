//! FCP — Fast Critical Path (Rădulescu & van Gemund, ICS 1999).
//!
//! FLB's immediate predecessor: FCP keeps *task* selection static (the
//! ready task with the largest bottom level — critical-path first) and
//! proved that *processor* selection needs only **two** candidates: the
//! task's enabling processor and the processor becoming idle the earliest.
//! Complexity `O(V log P + E)` modulo the ready-queue log factor.
//!
//! FLB strengthens the task selection to the dynamic earliest-start
//! criterion at the same asymptotic cost; FCP is benchmarked alongside FLB
//! in Figs. 2 and 4 of the paper.

use flb_ds::IndexedMinHeap;
use flb_graph::levels::bottom_levels;
use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{Machine, ProcId, Schedule, ScheduleBuilder, Scheduler};
use std::cmp::Reverse;

/// The FCP scheduling algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fcp;

impl Scheduler for Fcp {
    fn name(&self) -> &'static str {
        "FCP"
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        let bl = bottom_levels(graph);
        let mut builder = ScheduleBuilder::new(graph, machine);
        let mut missing: Vec<usize> = graph.tasks().map(|t| graph.in_degree(t)).collect();

        // Ready queue: largest bottom level first (critical path first).
        let mut ready: IndexedMinHeap<Reverse<Time>> = IndexedMinHeap::new(graph.num_tasks());
        for t in graph.entry_tasks() {
            ready.insert(t.0, Reverse(bl[t.0]));
        }
        // Processors by PRT (earliest idle first).
        let mut procs: IndexedMinHeap<Time> = IndexedMinHeap::new(machine.num_procs());
        for p in machine.procs() {
            procs.insert(p.0, 0);
        }

        while let Some((t, _)) = ready.pop() {
            let t = TaskId(t);
            // Two-processor rule: enabling processor vs earliest idle.
            let idle = ProcId(procs.peek().expect("non-empty machine").0);
            let (proc, start) = match builder.ep(t) {
                Some(ep) => {
                    let est_ep = builder.est(t, ep);
                    let est_idle = builder.est(t, idle);
                    // Ties favour the enabling processor (no message cost).
                    if est_ep <= est_idle {
                        (ep, est_ep)
                    } else {
                        (idle, est_idle)
                    }
                }
                None => (idle, builder.est(t, idle)),
            };
            builder.place(t, proc, start);
            procs.update(proc.0, builder.prt(proc));
            for s in graph.succ_ids(t) {
                missing[s.0] -= 1;
                if missing[s.0] == 0 {
                    ready.insert(s.0, Reverse(bl[s.0]));
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
    fn fcp_fig1_is_valid() {
        let g = fig1();
        let s = Fcp.schedule(&g, &Machine::new(2));
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.makespan() <= 20, "got {}", s.makespan());
    }

    #[test]
    fn fcp_schedules_critical_path_first() {
        // Two entry tasks; the one on the longer path must go first.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(1); // bl = 1
        let b0 = gb.add_task(1); // bl = 1 + 2 + 9 = 12
        let b1 = gb.add_task(9);
        gb.add_edge(b0, b1, 2).unwrap();
        let g = gb.build().unwrap();
        let s = Fcp.schedule(&g, &Machine::new(1));
        assert!(s.start(b0) < s.start(a));
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn fcp_uses_enabling_processor_when_beneficial() {
        // chain a -> c with huge comm: c must co-locate with a.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(2);
        let c = gb.add_task(2);
        gb.add_edge(a, c, 1000).unwrap();
        let g = gb.build().unwrap();
        let s = Fcp.schedule(&g, &Machine::new(4));
        assert_eq!(s.proc(c), s.proc(a));
        assert_eq!(s.start(c), 2);
    }

    #[test]
    fn fcp_spreads_independent_tasks() {
        let g = gen::independent(12);
        let s = Fcp.schedule(&g, &Machine::new(4));
        assert_eq!(validate(&g, &s), Ok(()));
        for p in 0..4 {
            assert_eq!(s.tasks_on(ProcId(p)).len(), 3);
        }
    }

    #[test]
    fn fcp_single_processor_is_serial() {
        let g = gen::laplace(5);
        let s = Fcp.schedule(&g, &Machine::new(1));
        assert_eq!(s.makespan(), g.total_comp());
    }
}
