//! ETF — Earliest Task First (Hwang, Chow, Anger & Lee, SIAM J. Computing
//! 1989).
//!
//! At each iteration ETF tentatively schedules **every** ready task on
//! **every** processor, then commits the task–processor pair with the
//! minimum estimated start time. Ties are broken by a *statically* computed
//! priority — here the bottom level, larger first, then the smaller task id
//! (paper §6.2: "ETF uses statically computed task priorities"; this static
//! tie-break is the one behavioural difference from FLB, whose tie-break
//! uses dynamic message-arrival times).
//!
//! Complexity: `O(W (E + V) P)` — the cost FLB eliminates. Kept exhaustive
//! on purpose: it is both the reference implementation of the selection
//! criterion (mirrored by `flb_core::oracle`) and the cost baseline of
//! Fig. 2.

use flb_graph::levels::bottom_levels;
use flb_graph::{TaskGraph, TaskId};
use flb_sched::{Machine, ProcId, Schedule, ScheduleBuilder, Scheduler};
use std::cmp::Reverse;

/// The ETF scheduling algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct Etf;

impl Scheduler for Etf {
    fn name(&self) -> &'static str {
        "ETF"
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        let bl = bottom_levels(graph);
        let mut builder = ScheduleBuilder::new(graph, machine);
        let mut missing: Vec<usize> = graph.tasks().map(|t| graph.in_degree(t)).collect();
        let mut ready: Vec<TaskId> = graph.entry_tasks().collect();

        while !ready.is_empty() {
            // Exhaustive scan: every ready task on every processor.
            let mut best: Option<(u64, Reverse<u64>, TaskId, ProcId)> = None;
            for &t in &ready {
                for p in machine.procs() {
                    let est = builder.est(t, p);
                    // Min EST; ties -> larger bottom level, then smaller
                    // task id, then smaller processor id.
                    let cand = (est, Reverse(bl[t.0]), t, p);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
            let (est, _, task, proc) = best.expect("ready set non-empty");

            builder.place(task, proc, est);
            ready.swap_remove(ready.iter().position(|&t| t == task).expect("in ready"));
            for s in graph.succ_ids(task) {
                missing[s.0] -= 1;
                if missing[s.0] == 0 {
                    ready.push(s);
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
    fn etf_fig1_is_valid_and_tight() {
        let g = fig1();
        let s = Etf.schedule(&g, &Machine::new(2));
        assert_eq!(validate(&g, &s), Ok(()));
        // ETF shares FLB's selection criterion; on Fig. 1 both reach 14.
        assert_eq!(s.makespan(), 14);
    }

    #[test]
    fn etf_single_processor_has_no_idle() {
        let g = gen::lu(7);
        let s = Etf.schedule(&g, &Machine::new(1));
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), g.total_comp());
    }

    #[test]
    fn etf_prefers_earliest_start_over_priority() {
        // Entry tasks a (huge bottom level) and b (tiny); both start at 0,
        // so the tie goes to a (priority). But if a's message pins a
        // successor, ETF still starts whatever can start earliest.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(4);
        let b = gb.add_task(1);
        let c = gb.add_task(10);
        gb.add_edge(a, c, 100).unwrap();
        let g = gb.build().unwrap();
        let s = Etf.schedule(&g, &Machine::new(2));
        assert_eq!(validate(&g, &s), Ok(()));
        // a and b at 0 on different processors; c co-located with a at 4.
        assert_eq!(s.start(a), 0);
        assert_eq!(s.start(b), 0);
        assert_eq!(s.start(c), 4);
        assert_eq!(s.proc(c), s.proc(a));
    }

    #[test]
    fn etf_tie_breaks_by_static_priority() {
        // Three ready tasks all able to start at 0; ETF must take the one
        // with the largest bottom level first (the paper's §6.2: "ETF uses
        // statically computed task priorities" on ties).
        let mut gb = TaskGraphBuilder::new();
        let small = gb.add_task(1); // bl 1
        let mid0 = gb.add_task(1); // bl 1+1+4 = 6
        let mid1 = gb.add_task(4);
        let big0 = gb.add_task(1); // bl 1+1+9 = 11
        let big1 = gb.add_task(9);
        gb.add_edge(mid0, mid1, 1).unwrap();
        gb.add_edge(big0, big1, 1).unwrap();
        let g = gb.build().unwrap();
        let s = Etf.schedule(&g, &Machine::new(1));
        assert!(s.start(big0) < s.start(mid0));
        assert!(s.start(mid0) < s.start(small));
    }

    #[test]
    fn etf_on_related_machine_is_speed_oblivious() {
        // A single entry task can start at 0 on either processor; ETF picks
        // the smaller id even though p0 is 5x slower — the documented
        // speed-obliviousness of start-time selection (X9).
        let mut gb = TaskGraphBuilder::new();
        gb.add_task(10);
        let g = gb.build().unwrap();
        let m = Machine::related(vec![5, 1]);
        let s = Etf.schedule(&g, &m);
        assert_eq!(s.proc(flb_graph::TaskId(0)), ProcId(0));
        assert_eq!(s.makespan(), 50);
    }

    #[test]
    fn etf_independent_tasks_balance_across_procs() {
        let g = gen::independent(8);
        let s = Etf.schedule(&g, &Machine::new(4));
        assert_eq!(validate(&g, &s), Ok(()));
        for p in 0..4 {
            assert_eq!(s.tasks_on(ProcId(p)).len(), 2);
        }
    }
}
