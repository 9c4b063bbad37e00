//! Schedules and the incremental schedule builder.
//!
//! [`ScheduleBuilder`] maintains every partial-schedule quantity defined in
//! paper §2 — `PRT(p)`, `FT(t)`, `LMT(t)`, `EP(t)`, `EMT(t,p)`, `EST(t,p)` —
//! so that FLB and all baseline algorithms share one implementation of the
//! scheduling semantics, and differ only in *which* task–processor pair they
//! pick each iteration.

use crate::{Machine, ProcId};
use flb_graph::{TaskGraph, TaskId, Time};
use std::sync::OnceLock;

/// Where and when one task executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Processor the task runs on (`PROC(t)`).
    pub proc: ProcId,
    /// Start time (`ST(t)`).
    pub start: Time,
    /// Finish time (`FT(t) = ST(t) + exec_time(comp(t), proc)`; on the
    /// paper's homogeneous machines simply `ST(t) + comp(t)`).
    pub finish: Time,
}

/// A complete schedule: a placement for every task of a graph on a machine.
///
/// Two schedules are equal when their machines, placements and
/// per-processor task rows are equal.
#[derive(Clone, Debug)]
pub struct Schedule {
    machine: Machine,
    placements: Vec<Placement>,
    /// Tasks per processor, ordered by start time. The builder fills it
    /// with its placement order; a raw schedule derives it from the
    /// placements on the first [`tasks_on`](Self::tasks_on) call, so
    /// callers that never read rows never pay for the sort.
    proc_tasks: OnceLock<Vec<Vec<TaskId>>>,
}

impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        self.machine == other.machine
            && self.placements == other.placements
            // Rows derived from equal placements are equal; only rows a
            // builder supplied can differ, so compare when one exists.
            && ((self.proc_tasks.get().is_none() && other.proc_tasks.get().is_none())
                || self.rows() == other.rows())
    }
}

impl Eq for Schedule {}

impl Schedule {
    /// Builds a schedule directly from raw placements (no validation; use
    /// [`crate::validate::validate`] to check it). Intended for tests,
    /// deserialisation and simulators.
    #[must_use]
    pub fn from_raw(procs: usize, placements: Vec<Placement>) -> Self {
        Self::from_raw_on(Machine::new(procs), placements)
    }

    /// [`from_raw`](Self::from_raw) for an explicit (possibly
    /// heterogeneous) machine.
    #[must_use]
    pub fn from_raw_on(machine: Machine, placements: Vec<Placement>) -> Self {
        Schedule {
            machine,
            placements,
            proc_tasks: OnceLock::new(),
        }
    }

    /// The per-processor rows, derived from the placements on first use:
    /// each row sorted by `(start, id)`. Out-of-range processor ids get
    /// rows too, so the validator can report them instead of this
    /// panicking.
    fn rows(&self) -> &[Vec<TaskId>] {
        self.proc_tasks.get_or_init(|| {
            let rows = self
                .placements
                .iter()
                .map(|p| p.proc.0 + 1)
                .max()
                .unwrap_or(0)
                .max(self.machine.num_procs());
            let mut proc_tasks: Vec<Vec<TaskId>> = vec![Vec::new(); rows];
            for (i, p) in self.placements.iter().enumerate() {
                proc_tasks[p.proc.0].push(TaskId(i));
            }
            // Ids were pushed in ascending order and the sort is stable,
            // so equal starts stay ordered by id.
            for row in &mut proc_tasks {
                row.sort_by_key(|t| self.placements[t.0].start);
            }
            proc_tasks
        })
    }

    /// The machine this schedule targets.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of processors of the machine this schedule targets.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.machine.num_procs()
    }

    /// Number of scheduled tasks.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.placements.len()
    }

    /// The placement of task `t`.
    #[must_use]
    pub fn placement(&self, t: TaskId) -> Placement {
        self.placements[t.0]
    }

    /// Processor of task `t`.
    #[must_use]
    pub fn proc(&self, t: TaskId) -> ProcId {
        self.placements[t.0].proc
    }

    /// Start time of task `t`.
    #[must_use]
    pub fn start(&self, t: TaskId) -> Time {
        self.placements[t.0].start
    }

    /// Finish time of task `t`.
    #[must_use]
    pub fn finish(&self, t: TaskId) -> Time {
        self.placements[t.0].finish
    }

    /// Tasks assigned to processor `p`, in start-time order.
    #[must_use]
    pub fn tasks_on(&self, p: ProcId) -> &[TaskId] {
        &self.rows()[p.0]
    }

    /// The parallel completion time `T_par = max_p PRT(p)`.
    #[must_use]
    pub fn makespan(&self) -> Time {
        self.placements.iter().map(|p| p.finish).max().unwrap_or(0)
    }

    /// All placements, indexed by task id.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }
}

/// Incremental schedule construction with the paper's partial-schedule
/// quantities.
///
/// Invariants enforced (with `assert!` on the cheap ones, `debug_assert!`
/// on the `O(preds)` ones):
///
/// * a task is placed at most once;
/// * appended placements never start before `PRT(p)` (no overlap);
/// * a task is placed only when every predecessor already is, no earlier
///   than its data-ready time on that processor.
#[derive(Clone, Debug)]
pub struct ScheduleBuilder<'g> {
    graph: &'g TaskGraph,
    machine: Machine,
    placed: Vec<Option<Placement>>,
    prt: Vec<Time>,
    proc_tasks: Vec<Vec<TaskId>>,
    n_placed: usize,
}

impl<'g> ScheduleBuilder<'g> {
    /// Starts an empty schedule of `graph` on `machine`.
    #[must_use]
    pub fn new(graph: &'g TaskGraph, machine: &Machine) -> Self {
        ScheduleBuilder {
            graph,
            machine: machine.clone(),
            placed: vec![None; graph.num_tasks()],
            prt: vec![0; machine.num_procs()],
            proc_tasks: vec![Vec::new(); machine.num_procs()],
            n_placed: 0,
        }
    }

    /// The task graph being scheduled.
    #[must_use]
    pub fn graph(&self) -> &'g TaskGraph {
        self.graph
    }

    /// The machine being scheduled onto.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of processors.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.machine.num_procs()
    }

    /// Number of tasks placed so far.
    #[must_use]
    pub fn num_placed(&self) -> usize {
        self.n_placed
    }

    /// Whether every task has been placed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.n_placed == self.graph.num_tasks()
    }

    /// Whether `t` has been placed.
    #[must_use]
    pub fn is_placed(&self, t: TaskId) -> bool {
        self.placed[t.0].is_some()
    }

    /// Processor ready time `PRT(p)`: finish time of the last task on `p`.
    #[must_use]
    pub fn prt(&self, p: ProcId) -> Time {
        self.prt[p.0]
    }

    /// The processor with the smallest `PRT` (ties: smallest id) — "the
    /// processor becoming idle the earliest". `O(P)`; algorithms that need
    /// this in `O(log P)` (FLB, FCP) keep their own processor heap.
    #[must_use]
    pub fn earliest_idle_proc(&self) -> ProcId {
        let i = self
            .prt
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .map(|(i, _)| i)
            .expect("machine has at least one processor");
        ProcId(i)
    }

    /// Finish time of a placed task.
    ///
    /// # Panics
    ///
    /// Panics if `t` is unplaced.
    #[must_use]
    pub fn ft(&self, t: TaskId) -> Time {
        self.placed[t.0].expect("FT of unplaced task").finish
    }

    /// Processor of a placed task, or `None` if unplaced.
    #[must_use]
    pub fn proc_of(&self, t: TaskId) -> Option<ProcId> {
        self.placed[t.0].map(|p| p.proc)
    }

    /// Whether every predecessor of `t` has been placed (paper §2: `t` is
    /// *ready*).
    #[must_use]
    pub fn is_ready(&self, t: TaskId) -> bool {
        !self.is_placed(t) && self.graph.preds(t).all(|(p, _)| self.is_placed(p))
    }

    /// Last message arrival time
    /// `LMT(t) = max over (t',t) in E of (FT(t') + comm(t',t))`; 0 for entry
    /// tasks. Requires all predecessors placed.
    #[must_use]
    pub fn lmt(&self, t: TaskId) -> Time {
        self.graph
            .preds(t)
            .map(|(p, c)| self.ft(p) + c)
            .max()
            .unwrap_or(0)
    }

    /// Enabling processor `EP(t)`: the processor the last message arrives
    /// from (`None` for entry tasks). Ties on the arrival time are broken
    /// toward the smallest processor id, then smallest predecessor id, which
    /// reproduces the paper's Table 1 trace.
    #[must_use]
    pub fn ep(&self, t: TaskId) -> Option<ProcId> {
        self.graph
            .preds(t)
            .map(|(p, c)| {
                let proc = self.proc_of(p).expect("predecessor placed");
                (self.ft(p) + c, proc, p)
            })
            // max by arrival; ties -> smallest proc id, then smallest pred id
            .max_by(|a, b| {
                (a.0, std::cmp::Reverse(a.1), std::cmp::Reverse(a.2)).cmp(&(
                    b.0,
                    std::cmp::Reverse(b.1),
                    std::cmp::Reverse(b.2),
                ))
            })
            .map(|(_, proc, _)| proc)
    }

    /// Effective message arrival time on `p`:
    /// `EMT(t,p) = max over preds of (FT(t') + comm·[PROC(t') ≠ p])`; 0 for
    /// entry tasks. Messages from predecessors already on `p` are free.
    #[must_use]
    pub fn emt(&self, t: TaskId, p: ProcId) -> Time {
        self.graph
            .preds(t)
            .map(|(q, c)| {
                let ft = self.ft(q);
                if self.proc_of(q) == Some(p) {
                    ft
                } else {
                    ft + c
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Estimated start time `EST(t,p) = max(EMT(t,p), PRT(p))`.
    #[must_use]
    pub fn est(&self, t: TaskId, p: ProcId) -> Time {
        self.emt(t, p).max(self.prt(p))
    }

    /// Earliest start of `t` on `p` allowing insertion into idle gaps
    /// (used by the insertion-based MCP ablation): the earliest time
    /// `>= EMT(t,p)` at which an idle interval of length `comp(t)` exists.
    #[must_use]
    pub fn est_insertion(&self, t: TaskId, p: ProcId) -> Time {
        let ready = self.emt(t, p);
        let need = self.machine.exec_time(self.graph.comp(t), p);
        let mut candidate = ready;
        for &other in &self.proc_tasks[p.0] {
            let pl = self.placed[other.0].expect("proc_tasks holds placed tasks");
            if pl.start >= candidate + need {
                return candidate; // gap before `other` fits
            }
            candidate = candidate.max(pl.finish);
        }
        candidate
    }

    /// Places `t` on `p` starting at `start`, appending after the
    /// processor's last task.
    ///
    /// # Panics
    ///
    /// Panics if `t` is already placed or `start < PRT(p)`; debug-asserts
    /// readiness and `start >= EMT(t,p)`.
    pub fn place(&mut self, t: TaskId, p: ProcId, start: Time) {
        assert!(self.placed[t.0].is_none(), "task {t} placed twice");
        assert!(
            start >= self.prt[p.0],
            "append of {t} on {p} at {start} before PRT {}",
            self.prt[p.0]
        );
        debug_assert!(self.is_ready(t), "placing non-ready task {t}");
        debug_assert!(
            start >= self.emt(t, p),
            "placing {t} on {p} at {start} before its data arrives at {}",
            self.emt(t, p)
        );
        let finish = start + self.machine.exec_time(self.graph.comp(t), p);
        self.placed[t.0] = Some(Placement {
            proc: p,
            start,
            finish,
        });
        self.prt[p.0] = finish;
        self.proc_tasks[p.0].push(t);
        self.n_placed += 1;
    }

    /// Places `t` on `p` at `start`, allowed to sit in an idle gap between
    /// already-placed tasks (insertion scheduling).
    ///
    /// # Panics
    ///
    /// Panics on double placement or overlap with an existing task on `p`;
    /// debug-asserts readiness and the data-arrival bound.
    pub fn place_insert(&mut self, t: TaskId, p: ProcId, start: Time) {
        assert!(self.placed[t.0].is_none(), "task {t} placed twice");
        debug_assert!(self.is_ready(t), "placing non-ready task {t}");
        debug_assert!(
            start >= self.emt(t, p),
            "placing {t} on {p} at {start} before its data arrives at {}",
            self.emt(t, p)
        );
        let finish = start + self.machine.exec_time(self.graph.comp(t), p);
        // Find the insertion point keeping proc_tasks sorted by
        // (start, finish, id) — the same order validation uses, so a
        // zero-duration task sharing its start with a longer one lands
        // before it instead of tripping the overlap asserts below.
        let placed = &self.placed;
        let row = &self.proc_tasks[p.0];
        let idx = row.partition_point(|&o| {
            let pl = placed[o.0].expect("placed");
            (pl.start, pl.finish, o) < (start, finish, t)
        });
        if idx > 0 {
            let before = placed[row[idx - 1].0].expect("placed");
            assert!(
                before.finish <= start,
                "insertion of {t} at {start} overlaps {} finishing at {}",
                row[idx - 1],
                before.finish
            );
        }
        if idx < row.len() {
            let after = placed[row[idx].0].expect("placed");
            assert!(
                finish <= after.start,
                "insertion of {t} finishing {finish} overlaps {} starting at {}",
                row[idx],
                after.start
            );
        }
        self.proc_tasks[p.0].insert(idx, t);
        self.placed[t.0] = Some(Placement {
            proc: p,
            start,
            finish,
        });
        self.prt[p.0] = self.prt[p.0].max(finish);
        self.n_placed += 1;
    }

    /// Raises `PRT(p)` to at least `floor` without placing a task.
    ///
    /// Schedule surgery uses this to forbid new work on a processor before
    /// a given instant — e.g. the repair time of a partially executed
    /// schedule, or the completion of an in-flight task whose placement is
    /// not part of the graph being (re)scheduled.
    pub fn advance_prt(&mut self, p: ProcId, floor: Time) {
        let prt = &mut self.prt[p.0];
        *prt = (*prt).max(floor);
    }

    /// Finalises the schedule.
    ///
    /// # Panics
    ///
    /// Panics unless every task has been placed.
    #[must_use]
    pub fn build(self) -> Schedule {
        assert!(
            self.is_complete(),
            "schedule incomplete: {}/{} tasks placed",
            self.n_placed,
            self.graph.num_tasks()
        );
        Schedule {
            machine: self.machine,
            placements: self
                .placed
                .into_iter()
                .map(|p| p.expect("placed"))
                .collect(),
            proc_tasks: OnceLock::from(self.proc_tasks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;
    use flb_graph::TaskGraphBuilder;

    #[test]
    fn place_insert_tolerates_zero_duration_neighbours() {
        // Found by the conformance fuzzer: a zero-computation task placed
        // at time 0 made est_insertion propose slot 0 for the next task,
        // which the old start-only insertion order then rejected as an
        // overlap. Zero-width intervals at a boundary are not overlaps
        // (validate agrees), so this must succeed.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(0);
        let b = gb.add_task(1);
        let g = gb.build().unwrap();
        let m = Machine::new(1);
        let mut sb = ScheduleBuilder::new(&g, &m);
        sb.place_insert(a, ProcId(0), 0);
        assert_eq!(sb.est_insertion(b, ProcId(0)), 0);
        sb.place_insert(b, ProcId(0), 0);
        let s = sb.build();
        assert_eq!(crate::validate::validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), 1);
        // The zero-width task sorts before the unit-width one.
        assert_eq!(s.tasks_on(ProcId(0)), &[a, b]);
    }

    fn pl(proc: usize, start: Time, finish: Time) -> Placement {
        Placement {
            proc: ProcId(proc),
            start,
            finish,
        }
    }

    #[test]
    fn raw_rows_are_sorted_by_start_then_id() {
        // Equal starts on p1 (tasks 1, 3, 4) and a zero-length task.
        let s = Schedule::from_raw(
            2,
            vec![
                pl(1, 5, 7),
                pl(1, 2, 2),
                pl(0, 4, 6),
                pl(1, 2, 5),
                pl(1, 2, 3),
                pl(0, 0, 4),
            ],
        );
        let by_start_then_id = |p: usize| {
            let mut row: Vec<TaskId> = (0..s.num_tasks())
                .map(TaskId)
                .filter(|&t| s.proc(t) == ProcId(p))
                .collect();
            row.sort_by_key(|&t| (s.start(t), t));
            row
        };
        assert_eq!(s.tasks_on(ProcId(0)), &[TaskId(5), TaskId(2)]);
        assert_eq!(
            s.tasks_on(ProcId(1)),
            &[TaskId(1), TaskId(3), TaskId(4), TaskId(0)]
        );
        for p in 0..2 {
            assert_eq!(s.tasks_on(ProcId(p)), by_start_then_id(p).as_slice());
        }
    }

    #[test]
    fn out_of_range_processors_get_rows_and_the_validator_reports_them() {
        let mut gb = TaskGraphBuilder::new();
        gb.add_task(2);
        gb.add_task(2);
        let g = gb.build().unwrap();
        let s = Schedule::from_raw(2, vec![pl(0, 0, 2), pl(5, 0, 2)]);
        assert_eq!(s.tasks_on(ProcId(5)), &[TaskId(1)]);
        assert!(s.tasks_on(ProcId(3)).is_empty());
        // A fresh copy, rows never read: validation must not panic either.
        let s = Schedule::from_raw(2, vec![pl(0, 0, 2), pl(5, 0, 2)]);
        assert_eq!(
            crate::validate::validate(&g, &s),
            Err(crate::validate::ScheduleError::BadProcessor(
                TaskId(1),
                ProcId(5)
            ))
        );
    }

    #[test]
    fn builder_and_raw_schedules_compare_as_before() {
        let g = fig1();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&g, &m);
        for (t, p, st) in [
            (0, 0, 0),
            (3, 0, 2),
            (1, 1, 3),
            (2, 0, 5),
            (4, 1, 5),
            (5, 0, 7),
            (6, 1, 8),
            (7, 0, 12),
        ] {
            b.place(TaskId(t), ProcId(p), st);
        }
        let built = b.build();
        let raw = || Schedule::from_raw_on(m.clone(), built.placements().to_vec());
        // Either side may have read its rows or not.
        assert_eq!(built, raw());
        assert_eq!(raw(), built);
        assert_eq!(raw(), raw());
        let read = raw();
        let _ = read.tasks_on(ProcId(0));
        assert_eq!(read, raw());
        assert_eq!(raw(), read);
        assert_eq!(read.clone(), built);
        // A different machine or placement still breaks equality.
        assert_ne!(Schedule::from_raw(3, built.placements().to_vec()), built);
        let mut moved = built.placements().to_vec();
        moved[7].start += 1;
        moved[7].finish += 1;
        assert_ne!(Schedule::from_raw(2, moved), built);

        // Rows are part of equality: a builder row whose order differs
        // from the `(start, id)` order is not equal to the raw schedule.
        let mut gb = TaskGraphBuilder::new();
        let z = gb.add_task(0);
        let a = gb.add_task(0);
        let g = gb.build().unwrap();
        let m = Machine::new(1);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place(a, ProcId(0), 0);
        b.place(z, ProcId(0), 0);
        let built = b.build();
        assert_eq!(built.tasks_on(ProcId(0)), &[a, z]);
        let raw = Schedule::from_raw_on(m, built.placements().to_vec());
        assert_eq!(raw.tasks_on(ProcId(0)), &[z, a]);
        assert_ne!(built, raw);
    }

    #[test]
    fn first_row_reads_from_two_threads_agree() {
        use std::sync::{Arc, Barrier};
        let placements: Vec<Placement> = (0..2000)
            .map(|i| {
                let start = ((i * 37) % 101) as Time;
                pl(i % 7, start, start + 1)
            })
            .collect();
        for _ in 0..8 {
            let s = Arc::new(Schedule::from_raw(7, placements.clone()));
            // Both threads pass the barrier before either reads a row, so
            // the two first `tasks_on` calls race on the empty cell.
            let start = Arc::new(Barrier::new(2));
            let rows = |s: Arc<Schedule>, start: Arc<Barrier>| {
                move || {
                    start.wait();
                    (0..7)
                        .map(|p| s.tasks_on(ProcId(p)).to_vec())
                        .collect::<Vec<_>>()
                }
            };
            let a = std::thread::spawn(rows(s.clone(), start.clone()));
            let b = std::thread::spawn(rows(s.clone(), start));
            let (a, b) = (a.join().unwrap(), b.join().unwrap());
            assert_eq!(a, b);
            assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 2000);
            for (p, row) in a.iter().enumerate() {
                assert_eq!(s.tasks_on(ProcId(p)), row.as_slice());
            }
        }
    }

    #[test]
    fn builder_places_and_tracks_prt() {
        let g = fig1();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&g, &m);
        assert!(!b.is_complete());
        assert_eq!(b.prt(ProcId(0)), 0);
        b.place(TaskId(0), ProcId(0), 0);
        assert_eq!(b.prt(ProcId(0)), 2);
        assert_eq!(b.ft(TaskId(0)), 2);
        assert_eq!(b.proc_of(TaskId(0)), Some(ProcId(0)));
        assert_eq!(b.num_placed(), 1);
    }

    #[test]
    fn lmt_emt_est_match_paper_trace_step1() {
        // After t0 on p0 at 0 (FT=2): LMT(t1)=3, LMT(t2)=6, LMT(t3)=3;
        // EMT on p0 is 2 for all three (same-processor message), on p1 the
        // full arrival; EP is p0.
        let g = fig1();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place(TaskId(0), ProcId(0), 0);
        assert_eq!(b.lmt(TaskId(1)), 3);
        assert_eq!(b.lmt(TaskId(2)), 6);
        assert_eq!(b.lmt(TaskId(3)), 3);
        for t in [1, 2, 3] {
            assert_eq!(b.emt(TaskId(t), ProcId(0)), 2);
            assert_eq!(b.ep(TaskId(t)), Some(ProcId(0)));
        }
        assert_eq!(b.emt(TaskId(1), ProcId(1)), 3);
        assert_eq!(b.emt(TaskId(2), ProcId(1)), 6);
        // EST = max(EMT, PRT).
        assert_eq!(b.est(TaskId(1), ProcId(0)), 2);
        assert_eq!(b.est(TaskId(1), ProcId(1)), 3);
    }

    #[test]
    fn entry_task_has_no_ep_and_zero_lmt() {
        let g = fig1();
        let m = Machine::new(2);
        let b = ScheduleBuilder::new(&g, &m);
        assert_eq!(b.lmt(TaskId(0)), 0);
        assert_eq!(b.ep(TaskId(0)), None);
        assert_eq!(b.emt(TaskId(0), ProcId(1)), 0);
        assert!(b.is_ready(TaskId(0)));
        assert!(!b.is_ready(TaskId(7)));
    }

    #[test]
    fn ep_tie_breaks_to_smallest_proc() {
        // Two predecessors on different processors, equal arrival times.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(2);
        let c = gb.add_task(2);
        let t = gb.add_task(1);
        gb.add_edge(a, t, 3).unwrap();
        gb.add_edge(c, t, 3).unwrap();
        let g = gb.build().unwrap();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place(a, ProcId(1), 0);
        b.place(c, ProcId(0), 0);
        // Both messages arrive at 5; EP must be p0.
        assert_eq!(b.lmt(t), 5);
        assert_eq!(b.ep(t), Some(ProcId(0)));
    }

    #[test]
    fn earliest_idle_proc_breaks_ties_by_id() {
        let g = fig1();
        let m = Machine::new(3);
        let mut b = ScheduleBuilder::new(&g, &m);
        assert_eq!(b.earliest_idle_proc(), ProcId(0));
        b.place(TaskId(0), ProcId(0), 0);
        assert_eq!(b.earliest_idle_proc(), ProcId(1));
    }

    #[test]
    fn build_produces_consistent_schedule() {
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(2);
        let c = gb.add_task(3);
        gb.add_edge(a, c, 5).unwrap();
        let g = gb.build().unwrap();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place(a, ProcId(0), 0);
        b.place(c, ProcId(1), 7);
        let s = b.build();
        assert_eq!(s.makespan(), 10);
        assert_eq!(s.proc(c), ProcId(1));
        assert_eq!(s.start(c), 7);
        assert_eq!(s.finish(c), 10);
        assert_eq!(s.tasks_on(ProcId(0)), &[a]);
        assert_eq!(s.tasks_on(ProcId(1)), &[c]);
        assert_eq!(s.num_procs(), 2);
        assert_eq!(s.num_tasks(), 2);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_place_panics() {
        let g = fig1();
        let m = Machine::new(1);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place(TaskId(0), ProcId(0), 0);
        b.place(TaskId(0), ProcId(0), 5);
    }

    #[test]
    #[should_panic(expected = "before PRT")]
    fn overlapping_append_panics() {
        let g = fig1();
        let m = Machine::new(1);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place(TaskId(0), ProcId(0), 0);
        // t3 is ready (its only pred t0 is placed) but 1 < PRT(p0) = 2.
        b.place(TaskId(3), ProcId(0), 1);
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn incomplete_build_panics() {
        let g = fig1();
        let m = Machine::new(1);
        let b = ScheduleBuilder::new(&g, &m);
        let _ = b.build();
    }

    #[test]
    fn insertion_into_gap() {
        // Three independent tasks; create a gap on p0 then insert into it.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(2);
        let c = gb.add_task(2);
        let d = gb.add_task(2);
        let g = gb.build().unwrap();
        let _ = (a, c, d);
        let m = Machine::new(1);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place_insert(TaskId(0), ProcId(0), 0);
        b.place_insert(TaskId(1), ProcId(0), 10);
        // Gap [2, 10): est_insertion finds 2.
        assert_eq!(b.est_insertion(TaskId(2), ProcId(0)), 2);
        b.place_insert(TaskId(2), ProcId(0), 2);
        let s = b.build();
        assert_eq!(s.tasks_on(ProcId(0)), &[TaskId(0), TaskId(2), TaskId(1)]);
        assert_eq!(s.makespan(), 12);
    }

    #[test]
    fn est_insertion_skips_too_small_gaps() {
        let mut gb = TaskGraphBuilder::new();
        gb.add_task(1); // t0
        gb.add_task(5); // t1
        gb.add_task(3); // t2: needs 3 units
        let g = gb.build().unwrap();
        let m = Machine::new(1);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place_insert(TaskId(0), ProcId(0), 2); // busy [2,3)
        b.place_insert(TaskId(1), ProcId(0), 5); // busy [5,10)
                                                 // Gaps: [0,2) too small for comp 3, [3,5) too small -> append at 10.
        assert_eq!(b.est_insertion(TaskId(2), ProcId(0)), 10);
        // But a 2-unit gap would fit a comp-2 task: t2 has comp 3, so check
        // with EMT pressure instead: ready time 0, first fitting slot 10.
        b.place_insert(TaskId(2), ProcId(0), 10);
        assert_eq!(b.build().makespan(), 13);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn insertion_overlap_panics() {
        let mut gb = TaskGraphBuilder::new();
        gb.add_task(4);
        gb.add_task(4);
        let g = gb.build().unwrap();
        let m = Machine::new(1);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place_insert(TaskId(0), ProcId(0), 0);
        b.place_insert(TaskId(1), ProcId(0), 2);
    }
}
