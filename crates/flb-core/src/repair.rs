//! Online schedule repair after processor failures.
//!
//! Given a partially executed schedule (an [`ExecState`] produced by
//! `flb_sim`'s fault layer), three repair strategies re-plan the remaining
//! work on the surviving processors:
//!
//! * [`repair_flb`] — **warm-restart FLB** on the residual graph: finished
//!   outputs enter as zero-cost pseudo-entries pinned where they
//!   materialised, surviving processors start from ready-time floors
//!   derived from the execution, and the usual FLB loop schedules the
//!   unfinished tasks. This is the paper's algorithm reused as an online
//!   repair step — its `O(V (log W + log P) + E)` cost is what makes
//!   in-situ repair plausible at scale;
//! * [`naive_remap`] — the baseline a runtime without a scheduler would
//!   use: keep every surviving placement decision, push tasks stranded on
//!   failed processors round-robin onto survivors, and replay the
//!   original order eagerly;
//! * [`clairvoyant_flb`] — the reference lower line: FLB run from scratch
//!   on the surviving machine as if the failures had been known at time
//!   zero (no stranded work, no repair instant). Not achievable online;
//!   it bounds how much of the degradation is *structural* (lost capacity)
//!   versus *transient* (work already misplaced when the fault hit).
//!
//! All three return full schedules of the original graph that pass
//! [`flb_sched::repair::validate_repaired`] against the execution record.

use crate::{FlbRun, TieBreak};
use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::repair::{residual_graph, splice, ExecState};
use flb_sched::{Machine, Placement, ProcId, Schedule, ScheduleBuilder};

/// The executed placements alone, as a schedule (used when nothing is left
/// to repair).
fn executed_schedule(machine: &Machine, exec: &ExecState) -> Schedule {
    let placements = (0..exec.completed.len())
        .map(|i| Placement {
            proc: exec.proc[i],
            start: exec.start[i],
            finish: exec.finish[i],
        })
        .collect();
    Schedule::from_raw_on(machine.clone(), placements)
}

/// Warm-restarts FLB on the residual graph of `g` under `exec` and splices
/// the result into the executed prefix.
///
/// Pseudo-entries are pinned on the processor their original producer ran
/// on — *including failed processors*: no residual task is ever placed
/// there (the warm run masks them out), so every consumer of a stranded
/// output uniformly pays the communication cost of fetching the
/// checkpointed data. Surviving processors start from
/// [`ExecState::proc_floor`] (the repair instant, or later when a
/// committed task still occupies them).
///
/// # Panics
///
/// Panics when no processor is alive.
#[must_use]
pub fn repair_flb(
    g: &TaskGraph,
    machine: &Machine,
    exec: &ExecState,
    tie_break: TieBreak,
) -> Schedule {
    assert!(
        exec.alive.iter().any(|&a| a),
        "repair needs a surviving processor"
    );
    let Some(residual) = residual_graph(g, exec) else {
        return executed_schedule(machine, exec);
    };

    let mut b = ScheduleBuilder::new(&residual.graph, machine);
    // Pin pseudo-entries where their outputs materialised. Sorted by
    // (processor, finish, id) so same-processor pins append in time order.
    let mut pins: Vec<(TaskId, ProcId, Time)> = (0..residual.num_pseudo)
        .map(|i| {
            let (p, f) = residual.pin(TaskId(i), exec);
            (TaskId(i), p, f)
        })
        .collect();
    pins.sort_by_key(|&(t, p, f)| (p.0, f, t.0));
    for &(t, p, f) in &pins {
        b.place(t, p, f);
    }
    // Floors go after the pins: advance_prt only ever raises PRT.
    for p in exec.surviving_procs() {
        b.advance_prt(p, exec.proc_floor(p));
    }

    let mut run = FlbRun::warm(b, tie_break, exec.alive.clone());
    while run.step().is_some() {}
    splice(exec, &residual, &run.finish())
}

/// The no-scheduler baseline: every residual task keeps its original
/// processor when that processor survived; tasks stranded on failed
/// processors are remapped round-robin (in task-id order) onto the
/// survivors. The original start-time order is then replayed eagerly —
/// each task starts as soon as its processor is free, its messages have
/// arrived, and the repair instant has passed.
///
/// # Panics
///
/// Panics when no processor is alive.
#[must_use]
pub fn naive_remap(g: &TaskGraph, original: &Schedule, exec: &ExecState) -> Schedule {
    let machine = original.machine();
    assert!(
        exec.alive.iter().any(|&a| a),
        "repair needs a surviving processor"
    );
    let v = g.num_tasks();
    let survivors: Vec<ProcId> = exec.surviving_procs().collect();

    // Target processor per residual task.
    let mut target: Vec<ProcId> = (0..v).map(|i| original.proc(TaskId(i))).collect();
    let mut rr = 0usize;
    for (i, t) in target.iter_mut().enumerate() {
        if !exec.completed[i] && !exec.alive[t.0] {
            *t = survivors[rr % survivors.len()];
            rr += 1;
        }
    }

    // Replay order: original start times, topological index as tie-break
    // (original starts respect precedence, so this order does too).
    let mut topo_idx = vec![0usize; v];
    for (i, t) in g.topological_order().enumerate() {
        topo_idx[t.0] = i;
    }
    let mut order: Vec<usize> = (0..v).filter(|&i| !exec.completed[i]).collect();
    order.sort_by_key(|&i| (original.start(TaskId(i)), topo_idx[i]));

    // Eager replay: committed tasks contribute their executed times.
    let mut placements: Vec<Placement> = (0..v)
        .map(|i| Placement {
            proc: exec.proc[i],
            start: exec.start[i],
            finish: exec.finish[i],
        })
        .collect();
    let mut prt: Vec<Time> = (0..machine.num_procs())
        .map(|q| {
            if exec.alive[q] {
                exec.proc_floor(ProcId(q))
            } else {
                0
            }
        })
        .collect();
    for i in order {
        let t = TaskId(i);
        let p = target[i];
        let emt = g
            .preds(t)
            .map(|(u, c)| {
                let f = placements[u.0].finish;
                if placements[u.0].proc == p {
                    f
                } else {
                    f + c
                }
            })
            .max()
            .unwrap_or(0);
        let start = emt.max(prt[p.0]).max(exec.at);
        let finish = start + machine.exec_time(g.comp(t), p);
        placements[i] = Placement {
            proc: p,
            start,
            finish,
        };
        prt[p.0] = finish;
    }
    Schedule::from_raw_on(machine.clone(), placements)
}

/// The clairvoyant reference: FLB from scratch on the surviving machine,
/// as if the failures had been known at time zero. Wraps [`repair_flb`]
/// with a blank [`ExecState`] — nothing executed, repair instant 0.
///
/// # Panics
///
/// Panics when no processor is alive.
#[must_use]
pub fn clairvoyant_flb(
    g: &TaskGraph,
    machine: &Machine,
    alive: &[bool],
    tie_break: TieBreak,
) -> Schedule {
    let exec = ExecState::fresh(g.num_tasks(), alive.to_vec());
    repair_flb(g, machine, &exec, tie_break)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Flb;
    use flb_graph::paper::fig1;
    use flb_sched::repair::validate_repaired;
    use flb_sched::{validate::validate, Scheduler};

    /// fig1's Table 1 schedule with p1 failing at time 6: t0, t1, t3
    /// finished; t2 runs on p0 across the instant (commits); t4 was
    /// running on p1 (killed); t5..t7 never started.
    fn fig1_p1_fails_at_6() -> (TaskGraph, Schedule, ExecState) {
        let g = fig1();
        let s = Flb::default().schedule(&g, &Machine::new(2));
        assert_eq!(s.makespan(), 14);
        let mut exec = ExecState {
            completed: vec![true, true, true, true, false, false, false, false],
            start: (0..8).map(|t| s.start(TaskId(t))).collect(),
            finish: (0..8).map(|t| s.finish(TaskId(t))).collect(),
            proc: (0..8).map(|t| s.proc(TaskId(t))).collect(),
            alive: vec![true, false],
            at: 6,
        };
        // t2 [5,7) on p0 is running at the instant: it commits too.
        assert_eq!(exec.start[2], 5);
        exec.completed[2] = true;
        (g, s, exec)
    }

    #[test]
    fn repair_flb_validates_and_respects_survivors() {
        let (g, _, exec) = fig1_p1_fails_at_6();
        let repaired = repair_flb(&g, &Machine::new(2), &exec, TieBreak::BottomLevel);
        assert_eq!(validate_repaired(&g, &exec, &repaired), Ok(()));
        for t in [4usize, 5, 6, 7] {
            assert_eq!(
                repaired.proc(TaskId(t)),
                ProcId(0),
                "t{t} must avoid dead p1"
            );
            assert!(repaired.start(TaskId(t)) >= 6);
        }
        // Committed prefix untouched.
        for t in [0usize, 1, 2, 3] {
            assert_eq!(repaired.start(TaskId(t)), exec.start[t]);
        }
    }

    #[test]
    fn naive_remap_validates_and_is_no_better_than_repair() {
        let (g, s, exec) = fig1_p1_fails_at_6();
        let naive = naive_remap(&g, &s, &exec);
        assert_eq!(validate_repaired(&g, &exec, &naive), Ok(()));
        let repaired = repair_flb(&g, &Machine::new(2), &exec, TieBreak::BottomLevel);
        // Both serialise the residual onto the lone survivor here, so FLB
        // cannot lose; on richer machines it wins outright.
        assert!(repaired.makespan() <= naive.makespan());
    }

    #[test]
    fn clairvoyant_on_full_machine_is_plain_flb() {
        let g = fig1();
        let m = Machine::new(2);
        let cold = Flb::default().schedule(&g, &m);
        let clair = clairvoyant_flb(&g, &m, &[true, true], TieBreak::BottomLevel);
        assert_eq!(cold.placements(), clair.placements());
    }

    #[test]
    fn clairvoyant_masks_dead_processors() {
        let g = fig1();
        let m = Machine::new(2);
        let clair = clairvoyant_flb(&g, &m, &[true, false], TieBreak::BottomLevel);
        assert_eq!(validate(&g, &clair), Ok(()));
        for t in g.tasks() {
            assert_eq!(clair.proc(t), ProcId(0));
        }
        // One processor, no communication: makespan = total computation.
        assert_eq!(clair.makespan(), g.total_comp());
    }

    #[test]
    fn repair_of_complete_execution_returns_executed_schedule() {
        let g = fig1();
        let m = Machine::new(2);
        let s = Flb::default().schedule(&g, &m);
        let exec = ExecState {
            completed: vec![true; 8],
            start: (0..8).map(|t| s.start(TaskId(t))).collect(),
            finish: (0..8).map(|t| s.finish(TaskId(t))).collect(),
            proc: (0..8).map(|t| s.proc(TaskId(t))).collect(),
            alive: vec![true, true],
            at: s.makespan(),
        };
        let repaired = repair_flb(&g, &m, &exec, TieBreak::BottomLevel);
        assert_eq!(repaired.placements(), s.placements());
    }

    #[test]
    fn repair_on_larger_graphs_always_validates() {
        // Fail one processor halfway through a static schedule of each
        // generator family; both strategies must validate.
        for g in [flb_graph::gen::lu(8), flb_graph::gen::stencil(5, 6)] {
            let m = Machine::new(4);
            let s = Flb::default().schedule(&g, &m);
            let at = s.makespan() / 2;
            let dead = ProcId(1);
            let exec = ExecState {
                // Finished tasks commit; tasks still running at the
                // instant commit only on surviving processors (the dead
                // one kills its running task).
                completed: g
                    .tasks()
                    .map(|t| s.finish(t) <= at || (s.start(t) <= at && s.proc(t) != dead))
                    .collect(),
                start: g.tasks().map(|t| s.start(t)).collect(),
                finish: g.tasks().map(|t| s.finish(t)).collect(),
                proc: g.tasks().map(|t| s.proc(t)).collect(),
                alive: (0..4).map(|q| ProcId(q) != dead).collect(),
                at,
            };
            let repaired = repair_flb(&g, &m, &exec, TieBreak::BottomLevel);
            assert_eq!(validate_repaired(&g, &exec, &repaired), Ok(()));
            let naive = naive_remap(&g, &s, &exec);
            assert_eq!(validate_repaired(&g, &exec, &naive), Ok(()));
        }
    }
}
