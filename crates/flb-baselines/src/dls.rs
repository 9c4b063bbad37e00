//! DLS — Dynamic Level Scheduling (Sih & Lee, IEEE TPDS 1993).
//!
//! Referenced by the FLB paper (§1, [10]) among the one-step,
//! non-duplicating algorithms for bounded processor counts. At each
//! iteration DLS evaluates the **dynamic level**
//!
//! ```text
//! DL(t, p) = SL(t) − EST(t, p) + Δ(t, p)
//! ```
//!
//! for every ready task `t` and processor `p`, where `SL(t)` is the *static
//! level* — the longest computation-only path from `t` to an exit task —
//! and commits the pair with the **largest** dynamic level. Early in the
//! run the `SL` term dominates (critical tasks first); as the schedule
//! fills, the `EST` term dominates (idle processors get work), blending
//! both concerns.
//!
//! `Δ(t, p) = E*(t) − E(t, p)` is Sih & Lee's heterogeneity adjustment:
//! the task's median execution time across processors minus its execution
//! time on `p`, rewarding placements on faster processors. On the paper's
//! homogeneous machines `Δ ≡ 0` and DLS reduces to its classic form; DLS
//! is the one algorithm in this collection that is natively speed-aware,
//! which the `hetero` harness (experiment X9) exploits.
//!
//! Complexity is `O(W (E + V) P)` like ETF — DLS is part of the "higher
//! cost" class FLB undercuts; it is included here for the extended
//! comparison in the `extended` harness and benches.

use flb_graph::levels::bottom_levels_comp_only;
use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{Machine, ProcId, Schedule, ScheduleBuilder, Scheduler};
use std::cmp::Reverse;

/// The DLS scheduling algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dls;

impl Scheduler for Dls {
    fn name(&self) -> &'static str {
        "DLS"
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        // Sih & Lee's static level excludes communication costs.
        let sl = bottom_levels_comp_only(graph);
        let mut builder = ScheduleBuilder::new(graph, machine);
        let mut missing: Vec<usize> = graph.tasks().map(|t| graph.in_degree(t)).collect();
        let mut ready: Vec<TaskId> = graph.entry_tasks().collect();

        // Median slowdown for the heterogeneity adjustment Δ(t, p) =
        // comp(t) · (median_slowdown − slowdown(p)); zero when homogeneous.
        let median_slow = {
            let mut slows: Vec<Time> = machine.procs().map(|p| machine.slowdown(p)).collect();
            slows.sort_unstable();
            slows[slows.len() / 2]
        };

        while !ready.is_empty() {
            // Maximise DL(t, p) = SL(t) - EST(t, p) + Δ(t, p). Levels and
            // starts are unsigned; compare as i128 to avoid underflow.
            let mut best: Option<(i128, Reverse<Time>, TaskId, ProcId)> = None;
            for &t in &ready {
                for p in machine.procs() {
                    let est = builder.est(t, p);
                    let delta =
                        graph.comp(t) as i128 * (median_slow as i128 - machine.slowdown(p) as i128);
                    let dl = sl[t.0] as i128 - est as i128 + delta;
                    // Ties: earlier start, then smaller task id, proc id.
                    let cand = (dl, Reverse(est), t, p);
                    let better = match &best {
                        None => true,
                        // Larger dl wins; then the Reverse(est) makes the
                        // smaller est win; then smaller ids.
                        Some(b) => {
                            (cand.0, cand.1, Reverse(cand.2), Reverse(cand.3))
                                > (b.0, b.1, Reverse(b.2), Reverse(b.3))
                        }
                    };
                    if better {
                        best = Some(cand);
                    }
                }
            }
            let (_, Reverse(est), task, proc) = best.expect("ready set non-empty");

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
    fn dls_fig1_is_valid() {
        let g = fig1();
        let s = Dls.schedule(&g, &Machine::new(2));
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.makespan() <= 20, "got {}", s.makespan());
    }

    #[test]
    fn dls_prefers_high_static_level_first() {
        // Two entry tasks, both can start at 0: the one heading the longer
        // computation chain has the larger SL and must be placed first.
        let mut gb = TaskGraphBuilder::new();
        let small = gb.add_task(1);
        let big0 = gb.add_task(1);
        let big1 = gb.add_task(50);
        gb.add_edge(big0, big1, 1).unwrap();
        let g = gb.build().unwrap();
        let s = Dls.schedule(&g, &Machine::new(1));
        assert!(s.start(big0) < s.start(small));
    }

    #[test]
    fn dls_single_processor_never_idles() {
        let g = gen::lu(7);
        let s = Dls.schedule(&g, &Machine::new(1));
        assert_eq!(s.makespan(), g.total_comp());
    }

    #[test]
    fn dls_balances_independent_tasks() {
        let g = gen::independent(9);
        let s = Dls.schedule(&g, &Machine::new(3));
        assert_eq!(validate(&g, &s), Ok(()));
        for p in 0..3 {
            assert_eq!(s.tasks_on(ProcId(p)).len(), 3);
        }
    }
}
