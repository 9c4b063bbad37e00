//! Schedule surgery for online repair after faults.
//!
//! When a fault-injected execution leaves a schedule partially done (see
//! `flb-sim`'s fault layer), repair works on three primitives defined
//! here:
//!
//! * [`residual_graph`] — extract the *residual* problem: every unfinished
//!   task, plus one zero-cost **pseudo-entry** per finished producer whose
//!   output a residual task still needs. A pseudo-entry is pinned (by the
//!   repair scheduler) on the processor its original ran on, at its actual
//!   finish time, so the usual `EMT` machinery prices its outputs: free
//!   for co-located consumers, full communication cost otherwise. A
//!   producer that ran on a *failed* processor keeps its pseudo-entry on
//!   that dead processor — no repair task is ever placed there, so every
//!   consumer pays the transfer from the checkpointed output, uniformly;
//! * [`splice`] — merge a repair schedule of the residual graph back into
//!   the executed prefix, producing one full schedule of the original
//!   graph;
//! * [`validate_repaired`] — an end-to-end check of a spliced schedule,
//!   extending the invariants of [`crate::validate::validate`] with the
//!   repair-specific ones (executed prefix preserved, nothing scheduled on
//!   dead processors after the repair instant, repairs start no earlier
//!   than that instant).
//!
//! The executed prefix is described by [`ExecState`], which is plain data
//! so simulators at any layer can produce it.

use crate::{Machine, Placement, ProcId, Schedule};
use flb_graph::{TaskGraph, TaskGraphBuilder, TaskId, Time};
use std::fmt;

/// Snapshot of a partially executed schedule at the repair instant.
///
/// `start`/`finish` are *as executed* (stragglers and retried messages
/// included), valid where `completed` holds. A task counts as completed
/// when it either finished by the repair instant or was already running
/// then — non-preemptive execution lets it run out; everything else is
/// residual and will be re-placed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecState {
    /// Per task: committed (finished or running at the repair instant).
    pub completed: Vec<bool>,
    /// Executed start times (valid where `completed`).
    pub start: Vec<Time>,
    /// Executed finish times (valid where `completed`).
    pub finish: Vec<Time>,
    /// Executed processor per task (the original assignment).
    pub proc: Vec<ProcId>,
    /// Per processor: surviving (false = failed by the repair instant).
    pub alive: Vec<bool>,
    /// The repair instant: no repaired task may start earlier.
    pub at: Time,
}

impl ExecState {
    /// A blank state: nothing executed, repair instant 0 — rescheduling
    /// the whole graph on the surviving processors (the clairvoyant
    /// comparator).
    #[must_use]
    pub fn fresh(num_tasks: usize, alive: Vec<bool>) -> Self {
        ExecState {
            completed: vec![false; num_tasks],
            start: vec![0; num_tasks],
            finish: vec![0; num_tasks],
            proc: vec![ProcId(0); num_tasks],
            alive,
            at: 0,
        }
    }

    /// Number of committed tasks.
    #[must_use]
    pub fn num_completed(&self) -> usize {
        self.completed.iter().filter(|&&c| c).count()
    }

    /// Surviving processors, ascending.
    pub fn surviving_procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(p, _)| ProcId(p))
    }

    /// Earliest time processor `p` can take repaired work: the repair
    /// instant, or later when a committed task is still running on it.
    #[must_use]
    pub fn proc_floor(&self, p: ProcId) -> Time {
        let busy_until = (0..self.completed.len())
            .filter(|&i| self.completed[i] && self.proc[i] == p)
            .map(|i| self.finish[i])
            .max()
            .unwrap_or(0);
        self.at.max(busy_until)
    }
}

/// The residual scheduling problem extracted from a partial execution.
#[derive(Clone, Debug)]
pub struct ResidualGraph {
    /// Residual graph: pseudo-entries first (ids `0..num_pseudo`, zero
    /// computation), then every unfinished task, in original id order.
    pub graph: TaskGraph,
    /// Residual id → original id. Pseudo-entries map to the finished
    /// producer they stand for.
    pub to_orig: Vec<TaskId>,
    /// Number of pseudo-entry tasks (they occupy the lowest ids).
    pub num_pseudo: usize,
}

impl ResidualGraph {
    /// Whether residual task `t` is a pseudo-entry.
    #[must_use]
    pub fn is_pseudo(&self, t: TaskId) -> bool {
        t.0 < self.num_pseudo
    }

    /// Number of real (non-pseudo) residual tasks.
    #[must_use]
    pub fn num_residual(&self) -> usize {
        self.graph.num_tasks() - self.num_pseudo
    }

    /// Pin for pseudo-entry `t`: the processor its original producer ran
    /// on and the time its output materialised. Repair schedulers place
    /// the pseudo-entry exactly there (zero duration).
    #[must_use]
    pub fn pin(&self, t: TaskId, exec: &ExecState) -> (ProcId, Time) {
        debug_assert!(self.is_pseudo(t));
        let orig = self.to_orig[t.0];
        (exec.proc[orig.0], exec.finish[orig.0])
    }
}

/// Extracts the residual graph of `g` under `exec`, or `None` when every
/// task is committed (nothing to repair).
#[must_use]
pub fn residual_graph(g: &TaskGraph, exec: &ExecState) -> Option<ResidualGraph> {
    let v = g.num_tasks();
    // Finished producers still feeding an unfinished consumer.
    let mut needs_pseudo = vec![false; v];
    let mut any_residual = false;
    for t in g.tasks() {
        if exec.completed[t.0] {
            continue;
        }
        any_residual = true;
        for (u, _) in g.preds(t) {
            if exec.completed[u.0] {
                needs_pseudo[u.0] = true;
            }
        }
    }
    if !any_residual {
        return None;
    }

    let mut b = TaskGraphBuilder::named(format!("{}-residual", g.name()));
    let mut to_orig: Vec<TaskId> = Vec::new();
    let mut to_res: Vec<Option<TaskId>> = vec![None; v];
    for t in g.tasks().filter(|t| needs_pseudo[t.0]) {
        to_res[t.0] = Some(b.add_task(0));
        to_orig.push(t);
    }
    let num_pseudo = to_orig.len();
    for t in g.tasks().filter(|t| !exec.completed[t.0]) {
        to_res[t.0] = Some(b.add_task(g.comp(t)));
        to_orig.push(t);
    }
    for t in g.tasks().filter(|t| !exec.completed[t.0]) {
        let dst = to_res[t.0].expect("residual task mapped");
        for (u, c) in g.preds(t) {
            let src = to_res[u.0].expect("producer mapped (residual or pseudo)");
            b.add_edge(src, dst, c)
                .expect("subgraph of a DAG stays acyclic");
        }
    }
    let graph = b.build().expect("non-empty residual graph");
    Some(ResidualGraph {
        graph,
        to_orig,
        num_pseudo,
    })
}

/// Splices `repair` (a schedule of `residual.graph`) into the executed
/// prefix, yielding a schedule of the *original* graph: committed tasks
/// keep their executed placements, residual tasks take their repair
/// placements, pseudo-entries are dropped (their originals are already
/// covered by the executed prefix).
#[must_use]
pub fn splice(exec: &ExecState, residual: &ResidualGraph, repair: &Schedule) -> Schedule {
    let v = exec.completed.len();
    let mut placements = vec![
        Placement {
            proc: ProcId(0),
            start: 0,
            finish: 0
        };
        v
    ];
    for (i, slot) in placements.iter_mut().enumerate() {
        if exec.completed[i] {
            *slot = Placement {
                proc: exec.proc[i],
                start: exec.start[i],
                finish: exec.finish[i],
            };
        }
    }
    for r in residual.num_pseudo..residual.graph.num_tasks() {
        let orig = residual.to_orig[r];
        placements[orig.0] = repair.placement(TaskId(r));
    }
    Schedule::from_raw_on(repair.machine().clone(), placements)
}

/// A violation found by [`validate_repaired`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// The schedule covers a different number of tasks than the graph.
    WrongTaskCount {
        /// Tasks in the schedule.
        scheduled: usize,
        /// Tasks in the graph.
        expected: usize,
    },
    /// A task refers to a processor outside the machine.
    BadProcessor(TaskId, ProcId),
    /// A committed task's placement disagrees with the execution record.
    ExecutedMismatch(TaskId),
    /// A committed task ran shorter than its nominal execution time
    /// (faults can only lengthen a task, never shorten it).
    ShortDuration(TaskId),
    /// A repaired task's duration differs from its nominal execution time.
    BadDuration(TaskId),
    /// A repaired task is placed on a failed processor.
    DeadProcessor(TaskId, ProcId),
    /// A repaired task starts before the repair instant.
    BeforeRepairInstant {
        /// The offending task.
        task: TaskId,
        /// Its start time.
        start: Time,
        /// The repair instant.
        at: Time,
    },
    /// Two tasks overlap in time on one processor.
    Overlap(ProcId, TaskId, TaskId),
    /// A task starts before one of its messages arrives.
    Precedence {
        /// The predecessor whose message arrives late.
        pred: TaskId,
        /// The violating task.
        task: TaskId,
        /// Earliest legal start given that edge.
        required: Time,
        /// Actual start.
        actual: Time,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::WrongTaskCount {
                scheduled,
                expected,
            } => {
                write!(
                    f,
                    "repaired schedule has {scheduled} tasks, graph has {expected}"
                )
            }
            RepairError::BadProcessor(t, p) => write!(f, "task {t} on nonexistent {p}"),
            RepairError::ExecutedMismatch(t) => {
                write!(f, "committed task {t} diverges from the execution record")
            }
            RepairError::ShortDuration(t) => {
                write!(f, "committed task {t} ran shorter than its nominal time")
            }
            RepairError::BadDuration(t) => {
                write!(f, "repaired task {t}: finish != start + exec time")
            }
            RepairError::DeadProcessor(t, p) => {
                write!(f, "repaired task {t} placed on failed {p}")
            }
            RepairError::BeforeRepairInstant { task, start, at } => {
                write!(
                    f,
                    "repaired task {task} starts at {start}, before repair instant {at}"
                )
            }
            RepairError::Overlap(p, a, b) => write!(f, "tasks {a} and {b} overlap on {p}"),
            RepairError::Precedence {
                pred,
                task,
                required,
                actual,
            } => write!(
                f,
                "task {task} starts at {actual}, before message from {pred} arrives at {required}"
            ),
        }
    }
}

impl std::error::Error for RepairError {}

/// End-to-end check of a repaired schedule `s` of graph `g` against the
/// execution record `exec`:
///
/// 1. one placement per task, on an existing processor;
/// 2. committed tasks keep their executed placements verbatim, and their
///    durations are at least nominal (stragglers only lengthen);
/// 3. repaired (residual) tasks sit on surviving processors, start no
///    earlier than the repair instant, and have exactly nominal durations;
/// 4. no two tasks overlap on a processor;
/// 5. every task starts no earlier than each predecessor's finish plus
///    the edge's communication cost (zero when co-located) — committed
///    and repaired tasks are held to the same rule, which is what makes
///    the checkpointed-output model auditable end-to-end.
pub fn validate_repaired(g: &TaskGraph, exec: &ExecState, s: &Schedule) -> Result<(), RepairError> {
    if s.num_tasks() != g.num_tasks() {
        return Err(RepairError::WrongTaskCount {
            scheduled: s.num_tasks(),
            expected: g.num_tasks(),
        });
    }

    for t in g.tasks() {
        let pl = s.placement(t);
        if pl.proc.0 >= s.num_procs() {
            return Err(RepairError::BadProcessor(t, pl.proc));
        }
        let nominal = s.machine().exec_time(g.comp(t), pl.proc);
        if exec.completed[t.0] {
            if pl.proc != exec.proc[t.0]
                || pl.start != exec.start[t.0]
                || pl.finish != exec.finish[t.0]
            {
                return Err(RepairError::ExecutedMismatch(t));
            }
            if pl.finish - pl.start < nominal {
                return Err(RepairError::ShortDuration(t));
            }
        } else {
            if !exec.alive[pl.proc.0] {
                return Err(RepairError::DeadProcessor(t, pl.proc));
            }
            if pl.start < exec.at {
                return Err(RepairError::BeforeRepairInstant {
                    task: t,
                    start: pl.start,
                    at: exec.at,
                });
            }
            if pl.finish != pl.start + nominal {
                return Err(RepairError::BadDuration(t));
            }
        }
    }

    for p in 0..s.num_procs() {
        let p = ProcId(p);
        let mut row: Vec<TaskId> = s.tasks_on(p).to_vec();
        row.sort_by_key(|&t| (s.start(t), s.finish(t), t));
        for w in row.windows(2) {
            if s.finish(w[0]) > s.start(w[1]) {
                return Err(RepairError::Overlap(p, w[0], w[1]));
            }
        }
    }

    for t in g.tasks() {
        for (pred, comm) in g.preds(t) {
            let delay = if s.proc(pred) == s.proc(t) { 0 } else { comm };
            let required = s.finish(pred) + delay;
            if s.start(t) < required {
                return Err(RepairError::Precedence {
                    pred,
                    task: t,
                    required,
                    actual: s.start(t),
                });
            }
        }
    }

    Ok(())
}

/// Convenience: the fault-free degenerate check — with nothing executed
/// and every processor alive, [`validate_repaired`] must agree with
/// [`crate::validate::validate`] on any complete schedule.
#[must_use]
pub fn machine_alive(machine: &Machine) -> Vec<bool> {
    vec![true; machine.num_procs()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleBuilder;
    use flb_graph::paper::fig1;

    /// fig1's Table 1 schedule, executed fault-free to completion.
    fn full_exec() -> (TaskGraph, Schedule, ExecState) {
        let g = fig1();
        let placements = vec![
            Placement {
                proc: ProcId(0),
                start: 0,
                finish: 2,
            },
            Placement {
                proc: ProcId(1),
                start: 3,
                finish: 5,
            },
            Placement {
                proc: ProcId(0),
                start: 5,
                finish: 7,
            },
            Placement {
                proc: ProcId(0),
                start: 2,
                finish: 5,
            },
            Placement {
                proc: ProcId(1),
                start: 5,
                finish: 8,
            },
            Placement {
                proc: ProcId(0),
                start: 7,
                finish: 10,
            },
            Placement {
                proc: ProcId(1),
                start: 8,
                finish: 10,
            },
            Placement {
                proc: ProcId(0),
                start: 12,
                finish: 14,
            },
        ];
        let s = Schedule::from_raw(2, placements);
        let exec = ExecState {
            completed: vec![true; 8],
            start: (0..8).map(|t| s.start(TaskId(t))).collect(),
            finish: (0..8).map(|t| s.finish(TaskId(t))).collect(),
            proc: (0..8).map(|t| s.proc(TaskId(t))).collect(),
            alive: vec![true, true],
            at: 14,
        };
        (g, s, exec)
    }

    /// fig1 partially executed: p1 failed at 6 — t0, t1, t3 finished,
    /// t2 (running at 6 on p0) commits; t4 killed, t5..t7 residual.
    fn partial_exec() -> (TaskGraph, Schedule, ExecState) {
        let (g, s, mut exec) = full_exec();
        exec.alive = vec![true, false];
        exec.at = 6;
        for t in [4, 5, 6, 7] {
            exec.completed[t] = false;
        }
        (g, s, exec)
    }

    #[test]
    fn residual_extraction_builds_pseudo_entries() {
        let (g, _, exec) = partial_exec();
        let r = residual_graph(&g, &exec).unwrap();
        // Residual tasks: t4, t5, t6, t7. Pseudo producers: t1 (feeds t4
        // and t5), t2 (feeds t6), t3 (feeds t5). t0's consumers all
        // committed -> no pseudo.
        assert_eq!(r.num_residual(), 4);
        assert_eq!(r.num_pseudo, 3);
        assert_eq!(
            r.to_orig,
            vec![
                TaskId(1),
                TaskId(2),
                TaskId(3), // pseudo
                TaskId(4),
                TaskId(5),
                TaskId(6),
                TaskId(7), // residual
            ]
        );
        // Pseudo tasks cost nothing and are entries.
        for p in 0..r.num_pseudo {
            assert!(r.is_pseudo(TaskId(p)));
            assert_eq!(r.graph.comp(TaskId(p)), 0);
            assert_eq!(r.graph.in_degree(TaskId(p)), 0);
        }
        // t1's pseudo is pinned on dead p1 at its finish time 5.
        assert_eq!(r.pin(TaskId(0), &exec), (ProcId(1), 5));
        // Edge t1 -> t4 (comm 2) survives as pseudo(t1) -> res(t4).
        assert_eq!(r.graph.edge_comm(TaskId(0), TaskId(3)), Some(2));
        // Residual-residual edge t4 -> t7 (comm 1) survives too.
        assert_eq!(r.graph.edge_comm(TaskId(3), TaskId(6)), Some(1));
    }

    #[test]
    fn residual_of_complete_execution_is_none() {
        let (g, _, exec) = full_exec();
        assert!(residual_graph(&g, &exec).is_none());
    }

    #[test]
    fn splice_and_validate_round_trip() {
        let (g, _, exec) = partial_exec();
        let r = residual_graph(&g, &exec).unwrap();
        // Hand-build a repair schedule on the surviving p0: pin pseudos,
        // then run the four residual tasks serially after the floor.
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&r.graph, &m);
        let mut pins: Vec<(TaskId, ProcId, Time)> = (0..r.num_pseudo)
            .map(|i| {
                let (p, f) = r.pin(TaskId(i), &exec);
                (TaskId(i), p, f)
            })
            .collect();
        pins.sort_by_key(|&(t, p, f)| (p.0, f, t.0));
        for &(t, p, f) in &pins {
            b.place(t, p, f);
        }
        for p in exec.surviving_procs() {
            b.advance_prt(p, exec.proc_floor(p));
        }
        // proc_floor(p0) = max(at=6, t2 finishing at 7) = 7.
        assert_eq!(b.prt(ProcId(0)), 7);
        // Serial repair on p0 in topological order, at EST.
        for i in r.num_pseudo..r.graph.num_tasks() {
            let t = TaskId(i);
            let st = b.est(t, ProcId(0));
            b.place(t, ProcId(0), st);
        }
        let repair = b.build();
        let repaired = splice(&exec, &r, &repair);
        assert_eq!(validate_repaired(&g, &exec, &repaired), Ok(()));
        // Committed placements survive verbatim.
        for t in [0usize, 1, 2, 3] {
            assert_eq!(repaired.start(TaskId(t)), exec.start[t]);
            assert_eq!(repaired.proc(TaskId(t)), exec.proc[t]);
        }
        // Repaired tasks avoid dead p1 and respect the instant.
        for t in [4usize, 5, 6, 7] {
            assert_eq!(repaired.proc(TaskId(t)), ProcId(0));
            assert!(repaired.start(TaskId(t)) >= exec.at);
        }
    }

    #[test]
    fn validator_rejects_tampered_prefix_and_bad_repairs() {
        let (g, _, exec) = partial_exec();
        let r = residual_graph(&g, &exec).unwrap();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&r.graph, &m);
        let mut pins: Vec<(TaskId, ProcId, Time)> = (0..r.num_pseudo)
            .map(|i| {
                let (p, f) = r.pin(TaskId(i), &exec);
                (TaskId(i), p, f)
            })
            .collect();
        pins.sort_by_key(|&(t, p, f)| (p.0, f, t.0));
        for &(t, p, f) in &pins {
            b.place(t, p, f);
        }
        for p in exec.surviving_procs() {
            b.advance_prt(p, exec.proc_floor(p));
        }
        for i in r.num_pseudo..r.graph.num_tasks() {
            let t = TaskId(i);
            let st = b.est(t, ProcId(0));
            b.place(t, ProcId(0), st);
        }
        let good = splice(&exec, &r, &b.build());
        assert_eq!(validate_repaired(&g, &exec, &good), Ok(()));

        // Tamper with the committed prefix.
        let mut placements = good.placements().to_vec();
        placements[1].start += 1;
        placements[1].finish += 1;
        let bad = Schedule::from_raw(2, placements);
        assert_eq!(
            validate_repaired(&g, &exec, &bad),
            Err(RepairError::ExecutedMismatch(TaskId(1)))
        );

        // Move a repaired task onto the dead processor.
        let mut placements = good.placements().to_vec();
        placements[6].proc = ProcId(1);
        let bad = Schedule::from_raw(2, placements);
        assert_eq!(
            validate_repaired(&g, &exec, &bad),
            Err(RepairError::DeadProcessor(TaskId(6), ProcId(1)))
        );

        // Start a repaired task before the instant (keep duration right).
        let mut placements = good.placements().to_vec();
        let d = placements[4].finish - placements[4].start;
        placements[4].start = exec.at - 1;
        placements[4].finish = exec.at - 1 + d;
        let bad = Schedule::from_raw(2, placements);
        assert!(matches!(
            validate_repaired(&g, &exec, &bad),
            Err(RepairError::BeforeRepairInstant {
                task: TaskId(4),
                ..
            }) | Err(RepairError::Overlap(..))
                | Err(RepairError::Precedence { .. })
        ));
    }

    #[test]
    fn degenerate_validator_agrees_with_plain_validate() {
        // Nothing executed, everything alive: validate_repaired reduces to
        // the plain validator on a complete fresh schedule.
        let (g, s, _) = full_exec();
        let exec = ExecState::fresh(g.num_tasks(), vec![true, true]);
        assert_eq!(validate_repaired(&g, &exec, &s), Ok(()));
        assert_eq!(crate::validate::validate(&g, &s), Ok(()));
    }

    #[test]
    fn straggled_prefix_passes_short_prefix_fails() {
        let (g, _, mut exec) = partial_exec();
        // t3 straggled: executed [2, 9] instead of [2, 5]; shift t2 after.
        exec.finish[3] = 9;
        exec.start[2] = 9;
        exec.finish[2] = 11;
        exec.at = 9;
        let r = residual_graph(&g, &exec).unwrap();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&r.graph, &m);
        let mut pins: Vec<(TaskId, ProcId, Time)> = (0..r.num_pseudo)
            .map(|i| {
                let (p, f) = r.pin(TaskId(i), &exec);
                (TaskId(i), p, f)
            })
            .collect();
        pins.sort_by_key(|&(t, p, f)| (p.0, f, t.0));
        for &(t, p, f) in &pins {
            b.place(t, p, f);
        }
        for p in exec.surviving_procs() {
            b.advance_prt(p, exec.proc_floor(p));
        }
        for i in r.num_pseudo..r.graph.num_tasks() {
            let t = TaskId(i);
            let st = b.est(t, ProcId(0));
            b.place(t, ProcId(0), st);
        }
        let repaired = splice(&exec, &r, &b.build());
        assert_eq!(validate_repaired(&g, &exec, &repaired), Ok(()));

        // A committed task *shorter* than nominal is impossible -> error.
        let mut short = exec.clone();
        short.finish[0] = 1; // t0 comp 2 "ran" in 1 unit
        let mut placements = repaired.placements().to_vec();
        placements[0].finish = 1;
        let bad = Schedule::from_raw(2, placements);
        assert_eq!(
            validate_repaired(&g, &short, &bad),
            Err(RepairError::ShortDuration(TaskId(0)))
        );
    }

    #[test]
    fn error_display_strings() {
        assert_eq!(
            RepairError::DeadProcessor(TaskId(3), ProcId(1)).to_string(),
            "repaired task t3 placed on failed p1"
        );
        assert_eq!(
            RepairError::BeforeRepairInstant {
                task: TaskId(2),
                start: 4,
                at: 6
            }
            .to_string(),
            "repaired task t2 starts at 4, before repair instant 6"
        );
        assert_eq!(
            RepairError::ExecutedMismatch(TaskId(1)).to_string(),
            "committed task t1 diverges from the execution record"
        );
    }
}
