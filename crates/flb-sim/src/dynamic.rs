//! Runtime (online) scheduling — the dynamic load-balancing counterpoint.
//!
//! FLB is a *compile-time* scheduler: it knows the whole graph and can
//! overlap communication with computation by placing a task where its data
//! will already be. The classic alternative the paper's title alludes to is
//! *runtime* load balancing: a central dispatcher hands each task to an
//! idle processor the moment it becomes ready — no lookahead, and the
//! task's inputs are *pulled* after dispatch (the destination is unknown
//! before).
//!
//! [`dynamic_schedule`] simulates exactly that and returns an ordinary
//! [`Schedule`], so the standard validator, metrics and Gantt renderer all
//! apply. The `runtime` harness (experiment X6) quantifies the gap to
//! compile-time FLB: at low CCR the greedy dispatcher is close; at high CCR
//! it pays the full fetch latency on every cross-processor edge.

use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{Machine, Placement, ProcId, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the dispatcher orders ready tasks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Largest static bottom level first (critical-path-aware dispatcher).
    #[default]
    BottomLevel,
    /// First-come-first-served in readiness order (ties by task id).
    Fifo,
    /// Largest computation cost first (LPT-style).
    LongestTask,
}

/// Simulates online greedy dispatch of `g` on `machine`.
///
/// Rules:
///
/// * a task is dispatched only when **ready** (all predecessors finished);
/// * dispatch targets the idle processor with the cheapest input fetch
///   (ties: smallest id); the fetch — the maximum communication cost from
///   predecessors placed on *other* processors — is paid **after**
///   dispatch, because the destination was unknown earlier;
/// * among ready tasks the dispatcher picks by `policy`.
///
/// The result is a feasible schedule of the standard model (every start
/// time satisfies `FT(pred) + comm` for cross-processor edges), so it can
/// be compared directly against the compile-time algorithms.
#[must_use]
pub fn dynamic_schedule(g: &TaskGraph, machine: &Machine, policy: DispatchPolicy) -> Schedule {
    let v = g.num_tasks();
    let p = machine.num_procs();
    let bl = flb_graph::levels::bottom_levels(g);

    let priority = |t: TaskId| -> (Reverse<Time>, usize) {
        let key = match policy {
            DispatchPolicy::BottomLevel => bl[t.0],
            DispatchPolicy::Fifo => 0,
            DispatchPolicy::LongestTask => g.comp(t),
        };
        (Reverse(key), t.0) // max key first, then smallest id
    };

    let mut missing: Vec<usize> = (0..v).map(|i| g.in_degree(TaskId(i))).collect();
    let mut placements: Vec<Option<Placement>> = vec![None; v];
    let mut proc_free: Vec<Time> = vec![0; p]; // when each processor idles

    // Ready pool ordered by policy (small Vec: W is modest; re-sorting per
    // dispatch keeps this simple and obviously correct).
    let mut ready: Vec<TaskId> = g.entry_tasks().collect();
    // Completion events.
    let mut events: BinaryHeap<Reverse<(Time, TaskId)>> = BinaryHeap::new();
    let mut clock: Time = 0;

    let mut remaining = v;
    while remaining > 0 {
        // Dispatch as many ready tasks as there are idle processors at the
        // current time.
        while let Some(proc) = proc_free.iter().position(|&free| free <= clock) {
            if ready.is_empty() {
                break;
            }
            // Pick the task by policy.
            ready.sort_by_key(|&t| priority(t));
            let task = ready.remove(0);
            // Among *currently idle* processors choose the cheapest fetch.
            let fetch_on = |q: usize| -> Time {
                g.preds(task)
                    .map(|(pr, c)| {
                        let pl = placements[pr.0].expect("pred placed");
                        if pl.proc.0 == q {
                            0
                        } else {
                            c
                        }
                    })
                    .max()
                    .unwrap_or(0)
            };
            let best = (0..p)
                .filter(|&q| proc_free[q] <= clock)
                .min_by_key(|&q| (fetch_on(q), machine.slowdown(ProcId(q)), q))
                .unwrap_or(proc);
            let start = clock + fetch_on(best);
            let finish = start + machine.exec_time(g.comp(task), ProcId(best));
            placements[task.0] = Some(Placement {
                proc: ProcId(best),
                start,
                finish,
            });
            proc_free[best] = finish;
            events.push(Reverse((finish, task)));
        }

        // Advance to the next completion.
        let Some(Reverse((t_done, task))) = events.pop() else {
            unreachable!("tasks remain but nothing is running");
        };
        clock = t_done;
        remaining -= 1;
        for s in g.succ_ids(task) {
            missing[s.0] -= 1;
            if missing[s.0] == 0 {
                ready.push(s);
            }
        }
        // Drain every completion at the same timestamp so the next dispatch
        // round sees all of them.
        while let Some(&Reverse((t2, _))) = events.peek() {
            if t2 != clock {
                break;
            }
            let Reverse((_, task2)) = events.pop().expect("peeked");
            remaining -= 1;
            for s in g.succ_ids(task2) {
                missing[s.0] -= 1;
                if missing[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
    }

    Schedule::from_raw_on(
        machine.clone(),
        placements.into_iter().map(|x| x.expect("placed")).collect(),
    )
}

/// [`dynamic_schedule`] wrapped as a [`flb_sched::Scheduler`], so the
/// runtime dispatcher can stand in anywhere a compile-time algorithm does
/// (CLI, harnesses, comparisons).
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeDispatcher(pub DispatchPolicy);

impl flb_sched::Scheduler for RuntimeDispatcher {
    fn name(&self) -> &'static str {
        match self.0 {
            DispatchPolicy::BottomLevel => "runtime-bl",
            DispatchPolicy::Fifo => "runtime-fifo",
            DispatchPolicy::LongestTask => "runtime-lpt",
        }
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        dynamic_schedule(graph, machine, self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;
    use flb_graph::{gen, TaskGraphBuilder};
    use flb_sched::validate::validate;

    #[test]
    fn dynamic_schedules_are_valid() {
        for g in [fig1(), gen::lu(8), gen::laplace(5), gen::fft(3)] {
            for procs in [1usize, 2, 4] {
                for policy in [
                    DispatchPolicy::BottomLevel,
                    DispatchPolicy::Fifo,
                    DispatchPolicy::LongestTask,
                ] {
                    let s = dynamic_schedule(&g, &Machine::new(procs), policy);
                    assert_eq!(
                        validate(&g, &s),
                        Ok(()),
                        "{} P={procs} {policy:?}",
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dynamic_single_proc_is_serial() {
        let g = gen::stencil(4, 4);
        let s = dynamic_schedule(&g, &Machine::new(1), DispatchPolicy::BottomLevel);
        assert_eq!(s.makespan(), g.total_comp());
    }

    #[test]
    fn dynamic_pays_fetch_latency() {
        // a -> b with comm 10: compile-time can overlap nothing here either,
        // but with 2 procs the dispatcher may place b away from a and pay
        // the fetch; with data-affinity tie-breaking it should co-locate.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(2);
        gb.add_edge(a, b, 10).unwrap();
        let g = gb.build().unwrap();
        let s = dynamic_schedule(&g, &Machine::new(2), DispatchPolicy::BottomLevel);
        assert_eq!(s.proc(b), s.proc(a), "affinity should co-locate");
        assert_eq!(s.makespan(), 4);
    }

    #[test]
    fn dynamic_balances_independent_tasks() {
        let g = gen::independent(8);
        let s = dynamic_schedule(&g, &Machine::new(4), DispatchPolicy::Fifo);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), 2);
    }

    #[test]
    fn runtime_dispatcher_as_scheduler() {
        use flb_sched::Scheduler;
        let g = fig1();
        let m = Machine::new(2);
        for (policy, name) in [
            (DispatchPolicy::BottomLevel, "runtime-bl"),
            (DispatchPolicy::Fifo, "runtime-fifo"),
            (DispatchPolicy::LongestTask, "runtime-lpt"),
        ] {
            let d = RuntimeDispatcher(policy);
            assert_eq!(d.name(), name);
            let s = d.schedule(&g, &m);
            assert_eq!(validate(&g, &s), Ok(()));
            assert_eq!(s.makespan(), dynamic_schedule(&g, &m, policy).makespan());
        }
    }

    #[test]
    fn dynamic_on_related_machines_is_valid_and_speed_biased() {
        let g = gen::stencil(4, 6);
        let m = Machine::related(vec![1, 1, 6, 6]);
        let s = dynamic_schedule(&g, &m, DispatchPolicy::BottomLevel);
        assert_eq!(validate(&g, &s), Ok(()));
        // The fetch-tie speed bias sends the very first dispatches to the
        // fast processors.
        let first = g.entry_tasks().next().unwrap();
        assert!(s.proc(first).0 < 2, "entry task on a slow processor");
    }

    #[test]
    fn compile_time_flb_beats_runtime_on_fine_grain() {
        // At CCR 5 the compile-time schedule overlaps communication that
        // the runtime dispatcher must serialise after dispatch.
        use flb_sched::Scheduler;
        let topo = gen::stencil(10, 10);
        let g = flb_graph::costs::CostModel::paper_default(5.0).apply(&topo, 3);
        let m = Machine::new(4);
        let ct = flb_core::Flb::default().schedule(&g, &m).makespan();
        let rt = dynamic_schedule(&g, &m, DispatchPolicy::BottomLevel).makespan();
        assert!(
            ct <= rt,
            "compile-time ({ct}) should not lose to runtime ({rt}) at high CCR"
        );
    }
}
