//! The FLB scheduling loop and its data structures.
//!
//! Direct implementation of the paper's §4.1 pseudocode (`ScheduleTask`,
//! `UpdateTaskLists`, `UpdateProcLists`, `UpdateReadyTasks`) on top of
//! [`flb_ds::IndexedMinHeap`]s:
//!
//! | paper list           | here                  | key                                   |
//! |----------------------|-----------------------|---------------------------------------|
//! | `EMT_EP_task_l[p]`   | `emt_ep[p]`           | `(EMT(t, EP(t)), ⁻bl(t))`             |
//! | `LMT_EP_task_l[p]`   | `lmt_ep[p]`           | `(LMT(t), ⁻bl(t))`                    |
//! | `nonEP_task_l`       | `non_ep`              | `(LMT(t), ⁻bl(t))`                    |
//! | `active_proc_l`      | `active_procs`        | `min EST of p's EP tasks`             |
//! | `all_proc_l`         | `all_procs`           | `PRT(p)`                              |
//!
//! (`⁻bl` = reversed static bottom level: ties on the time key go to the
//! task with the longest path to an exit, as in the paper; remaining ties go
//! to the smaller task id, provided by the heap itself.)

use flb_ds::IndexedMinHeap;
use flb_graph::{levels::bottom_levels, TaskGraph, TaskId, Time};
use flb_sched::{Machine, ProcId, RunStats, Schedule, ScheduleBuilder, TieBreak};
use std::cmp::Reverse;

/// Composite heap key: `(time, Reverse(bottom level))`; the heap adds the
/// task id as the final tie-break.
type TaskKey = (Time, Reverse<Time>);

/// One scheduling decision made by [`FlbRun::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The scheduled task.
    pub task: TaskId,
    /// Destination processor.
    pub proc: ProcId,
    /// Start time (this is the minimum EST over all ready task–processor
    /// pairs: Theorem 3).
    pub start: Time,
    /// Finish time.
    pub finish: Time,
    /// Whether the EP-pair (true) or the non-EP pair (false) was selected.
    pub from_ep_list: bool,
}

/// A resumable FLB execution: one [`step`](FlbRun::step) call schedules one
/// task, which lets tests and tracing observe every intermediate state.
pub struct FlbRun<'g> {
    builder: ScheduleBuilder<'g>,
    /// Per processor: eligible to receive tasks. All true on a cold start;
    /// warm restarts (schedule repair) mask out failed processors.
    alive: Vec<bool>,
    /// Static bottom levels (tie-break priority).
    bl: Vec<Time>,
    /// Remaining unplaced predecessors per task (readiness countdown).
    missing_preds: Vec<usize>,
    /// `LMT(t)` for ready tasks.
    lmt: Vec<Time>,
    /// `EMT(t, EP(t))` for ready tasks.
    emt_on_ep: Vec<Time>,
    /// `EP(t)` for ready tasks (`usize::MAX` = entry task, no EP).
    ep: Vec<usize>,
    /// Per processor: EP-type tasks it enables, keyed by `EMT(t, EP(t))`.
    emt_ep: Vec<IndexedMinHeap<TaskKey>>,
    /// Per processor: the same tasks keyed by `LMT(t)` (drives demotions).
    lmt_ep: Vec<IndexedMinHeap<TaskKey>>,
    /// Non-EP-type ready tasks keyed by `LMT(t)`.
    non_ep: IndexedMinHeap<TaskKey>,
    /// Active processors keyed by the minimum EST of their EP tasks.
    active_procs: IndexedMinHeap<Time>,
    /// All processors keyed by `PRT(p)`.
    all_procs: IndexedMinHeap<Time>,
    /// Run counters.
    stats: RunStats,
}

impl<'g> FlbRun<'g> {
    /// Initialises the lists: entry tasks are ready and non-EP-type (they
    /// have no enabling processor); every processor has `PRT = 0`.
    #[must_use]
    pub fn new(graph: &'g TaskGraph, machine: &Machine, tie_break: TieBreak) -> Self {
        let v = graph.num_tasks();
        let p = machine.num_procs();
        let bl = match tie_break {
            TieBreak::BottomLevel => bottom_levels(graph),
            TieBreak::TaskId => vec![0; v],
        };
        let mut run = FlbRun {
            builder: ScheduleBuilder::new(graph, machine),
            alive: vec![true; p],
            bl,
            missing_preds: (0..v).map(|i| graph.in_degree(TaskId(i))).collect(),
            lmt: vec![0; v],
            emt_on_ep: vec![0; v],
            ep: vec![usize::MAX; v],
            emt_ep: (0..p).map(|_| IndexedMinHeap::new(v)).collect(),
            lmt_ep: (0..p).map(|_| IndexedMinHeap::new(v)).collect(),
            non_ep: IndexedMinHeap::new(v),
            active_procs: IndexedMinHeap::new(p),
            all_procs: IndexedMinHeap::new(p),
            stats: RunStats::default(),
        };
        for t in graph.entry_tasks() {
            run.enqueue_ready(t);
        }
        run.stats.max_ready = run.ready_len();
        for q in 0..p {
            run.all_procs.insert(q, 0);
        }
        run
    }

    /// Warm restart over a pre-loaded partial schedule — the entry point of
    /// online repair (see `flb_core::repair`). `builder` may already hold
    /// placements (e.g. zero-cost pseudo-entries pinned where executed
    /// outputs materialised) and raised `PRT` floors
    /// ([`ScheduleBuilder::advance_prt`]); `alive[q] == false` masks
    /// processor `q` out of every candidate list, so the run never places a
    /// task on it. Tasks whose unplaced-predecessor count is already zero
    /// are enqueued immediately; the rest become ready as usual.
    ///
    /// With an empty builder and all processors alive this is exactly
    /// [`FlbRun::new`].
    ///
    /// # Panics
    ///
    /// Panics when no processor is alive or `alive.len()` disagrees with
    /// the machine.
    #[must_use]
    pub fn warm(builder: ScheduleBuilder<'g>, tie_break: TieBreak, alive: Vec<bool>) -> Self {
        let graph = builder.graph();
        let v = graph.num_tasks();
        let p = builder.num_procs();
        assert_eq!(alive.len(), p, "alive mask does not match the machine");
        assert!(
            alive.iter().any(|&a| a),
            "warm restart needs a surviving processor"
        );
        let bl = match tie_break {
            TieBreak::BottomLevel => bottom_levels(graph),
            TieBreak::TaskId => vec![0; v],
        };
        let missing_preds = (0..v)
            .map(|i| {
                graph
                    .preds(TaskId(i))
                    .filter(|&(q, _)| !builder.is_placed(q))
                    .count()
            })
            .collect();
        let mut run = FlbRun {
            builder,
            alive,
            bl,
            missing_preds,
            lmt: vec![0; v],
            emt_on_ep: vec![0; v],
            ep: vec![usize::MAX; v],
            emt_ep: (0..p).map(|_| IndexedMinHeap::new(v)).collect(),
            lmt_ep: (0..p).map(|_| IndexedMinHeap::new(v)).collect(),
            non_ep: IndexedMinHeap::new(v),
            active_procs: IndexedMinHeap::new(p),
            all_procs: IndexedMinHeap::new(p),
            stats: RunStats::default(),
        };
        for q in 0..p {
            if run.alive[q] {
                run.all_procs.insert(q, run.builder.prt(ProcId(q)));
            }
        }
        for i in 0..v {
            let t = TaskId(i);
            if !run.builder.is_placed(t) && run.missing_preds[i] == 0 {
                run.enqueue_ready(t);
            }
        }
        run.stats.max_ready = run.ready_len();
        run
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Current ready-set size (all lists).
    fn ready_len(&self) -> usize {
        self.non_ep.len() + self.emt_ep.iter().map(IndexedMinHeap::len).sum::<usize>()
    }

    fn task_key(&self, time: Time, t: TaskId) -> TaskKey {
        (time, Reverse(self.bl[t.0]))
    }

    /// The underlying partial schedule (read-only).
    #[must_use]
    pub fn builder(&self) -> &ScheduleBuilder<'g> {
        &self.builder
    }

    /// Currently ready, unscheduled tasks (across all three lists), in
    /// ascending id order. `O(W)`; intended for tests and tracing.
    #[must_use]
    pub fn ready_tasks(&self) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.ready_tasks_into(&mut out);
        out
    }

    /// [`ready_tasks`](Self::ready_tasks) into a caller-provided buffer —
    /// the allocation-free variant for per-step observation loops (the
    /// Theorem 3 oracle calls this once per scheduling decision).
    pub fn ready_tasks_into(&self, out: &mut Vec<TaskId>) {
        out.clear();
        out.extend(self.non_ep.iter().map(|(id, _)| TaskId(id)));
        for h in &self.emt_ep {
            out.extend(h.iter().map(|(id, _)| TaskId(id)));
        }
        out.sort_unstable();
    }

    /// EP-type tasks enabled by `p`, sorted ascending by `EMT(t, EP(t))`
    /// (the order of the paper's `EMT_EP_task_l`). For tracing.
    #[must_use]
    pub fn ep_tasks_of(&self, p: ProcId) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.ep_tasks_of_into(p, &mut out);
        out
    }

    /// [`ep_tasks_of`](Self::ep_tasks_of) into a caller-provided buffer.
    /// Unlike the owning variant's old implementation this never clones
    /// the heap: entries are copied and sorted in place by the heap key
    /// (then id, matching the heap's own tie-break).
    pub fn ep_tasks_of_into(&self, p: ProcId, out: &mut Vec<TaskId>) {
        let h = &self.emt_ep[p.0];
        out.clear();
        out.extend(h.iter().map(|(id, _)| TaskId(id)));
        out.sort_unstable_by_key(|t| (*h.key(t.0).expect("listed id is present"), t.0));
    }

    /// Non-EP-type ready tasks sorted ascending by `LMT(t)`. For tracing.
    #[must_use]
    pub fn non_ep_tasks(&self) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.non_ep_tasks_into(&mut out);
        out
    }

    /// [`non_ep_tasks`](Self::non_ep_tasks) into a caller-provided buffer
    /// (no heap clone).
    pub fn non_ep_tasks_into(&self, out: &mut Vec<TaskId>) {
        out.clear();
        out.extend(self.non_ep.iter().map(|(id, _)| TaskId(id)));
        out.sort_unstable_by_key(|t| (*self.non_ep.key(t.0).expect("listed id is present"), t.0));
    }

    /// `LMT(t)` of a ready task.
    #[must_use]
    pub fn lmt_of(&self, t: TaskId) -> Time {
        self.lmt[t.0]
    }

    /// `EMT(t, EP(t))` of a ready task (0 for entry tasks).
    #[must_use]
    pub fn emt_on_ep_of(&self, t: TaskId) -> Time {
        self.emt_on_ep[t.0]
    }

    /// Static bottom level of a task.
    #[must_use]
    pub fn bottom_level_of(&self, t: TaskId) -> Time {
        self.bl[t.0]
    }

    /// The paper's `ScheduleTask` + update procedures: selects between the
    /// two candidate pairs, schedules the winner, maintains all lists, and
    /// promotes newly ready tasks. Returns `None` once every task is placed.
    pub fn step(&mut self) -> Option<Step> {
        if self.builder.is_complete() {
            return None;
        }

        // Candidate (a): EP-type task with minimum EST on its enabling
        // processor — the head of the head-of-active-processors' EMT list.
        let ep_pair = self.active_procs.peek().map(|(p, &est)| {
            let (t, _) = self.emt_ep[p]
                .peek()
                .expect("active processor has EP tasks");
            debug_assert_eq!(
                est,
                self.emt_on_ep[t].max(self.builder.prt(ProcId(p))),
                "stale active-processor key"
            );
            (TaskId(t), ProcId(p), est)
        });

        // Candidate (b): non-EP-type task with minimum LMT on the processor
        // becoming idle the earliest.
        let non_ep_pair = self.non_ep.peek().map(|(t, &(lmt, _))| {
            let (p, &prt) = self.all_procs.peek().expect("machine has processors");
            (TaskId(t), ProcId(p), lmt.max(prt))
        });

        // The paper's comparison: the EP pair wins only with a strictly
        // smaller EST (ties favour the non-EP pair, whose communication is
        // already overlapped with computation).
        let (task, proc, start, from_ep_list) = match (ep_pair, non_ep_pair) {
            (Some((t1, p1, e1)), Some((_, _, e2))) if e1 < e2 => (t1, p1, e1, true),
            (_, Some((t2, p2, e2))) => (t2, p2, e2, false),
            (Some((t1, p1, e1)), None) => (t1, p1, e1, true),
            (None, None) => unreachable!("unscheduled tasks but no ready task"),
        };

        // Remove the winner from its lists.
        if from_ep_list {
            let removed = self.emt_ep[proc.0].remove(task.0);
            debug_assert!(removed.is_some());
            let removed = self.lmt_ep[proc.0].remove(task.0);
            debug_assert!(removed.is_some());
            self.stats.ep_selections += 1;
        } else {
            let removed = self.non_ep.remove(task.0);
            debug_assert!(removed.is_some());
            self.stats.non_ep_selections += 1;
        }

        self.builder.place(task, proc, start);
        let finish = self.builder.ft(task);

        // PRT(proc) changed: update the global processor list, demote EP
        // tasks that stopped satisfying the EP condition, and refresh the
        // active-processor entry.
        self.all_procs.update(proc.0, self.builder.prt(proc));
        self.update_task_lists(proc);
        self.update_proc_lists(proc);
        self.update_ready_tasks(task);

        Some(Step {
            task,
            proc,
            start,
            finish,
            from_ep_list,
        })
    }

    /// Paper's `UpdateTaskLists`: after `PRT(p)` grew, EP-type tasks whose
    /// `LMT < PRT(p)` are no longer EP-type; move them (in LMT order) to the
    /// non-EP list.
    fn update_task_lists(&mut self, p: ProcId) {
        let prt = self.builder.prt(p);
        while let Some((t, &(lmt, _))) = self.lmt_ep[p.0].peek() {
            if lmt >= prt {
                break;
            }
            self.lmt_ep[p.0].pop();
            let removed = self.emt_ep[p.0].remove(t);
            debug_assert!(removed.is_some());
            let key = self.task_key(lmt, TaskId(t));
            self.non_ep.insert(t, key);
            self.stats.demotions += 1;
        }
    }

    /// Paper's `UpdateProcLists`: recompute `p`'s priority in the active
    /// processor list (minimum EST of the EP tasks it enables), or drop it
    /// when it no longer enables any EP task.
    fn update_proc_lists(&mut self, p: ProcId) {
        match self.emt_ep[p.0].peek() {
            None => {
                self.active_procs.remove(p.0);
            }
            Some((t, _)) => {
                let est = self.emt_on_ep[t].max(self.builder.prt(p));
                self.active_procs.insert_or_update(p.0, est);
            }
        }
    }

    /// Paper's `UpdateReadyTasks`: successors of the scheduled task that
    /// became ready are classified as EP / non-EP and enqueued; enabling
    /// processors (possibly newly active) get their priorities refreshed.
    fn update_ready_tasks(&mut self, scheduled: TaskId) {
        let graph = self.builder.graph();
        for s in graph.succ_ids(scheduled) {
            self.missing_preds[s.0] -= 1;
            if self.missing_preds[s.0] > 0 {
                continue;
            }
            self.enqueue_ready(s);
        }
        self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
    }

    /// Classifies a ready task as EP / non-EP type and enqueues it — shared
    /// by the cold start (entry tasks), the warm start, and
    /// `UpdateReadyTasks`. LMT, EP and EMT-on-EP are computed once: the
    /// task's predecessors are all placed and will never move. A task whose
    /// enabling processor has failed goes to the non-EP list — its last
    /// message comes from a checkpointed output, which no surviving
    /// processor can overlap away, so the EP condition is unsatisfiable.
    fn enqueue_ready(&mut self, s: TaskId) {
        let lmt = self.builder.lmt(s);
        self.lmt[s.0] = lmt;
        match self.builder.ep(s) {
            Some(ep) if self.alive[ep.0] => {
                let emt = self.builder.emt(s, ep);
                self.ep[s.0] = ep.0;
                self.emt_on_ep[s.0] = emt;
                if lmt < self.builder.prt(ep) {
                    let key = self.task_key(lmt, s);
                    self.non_ep.insert(s.0, key);
                    self.stats.non_ep_promotions += 1;
                } else {
                    let emt_key = self.task_key(emt, s);
                    let lmt_key = self.task_key(lmt, s);
                    self.emt_ep[ep.0].insert(s.0, emt_key);
                    self.lmt_ep[ep.0].insert(s.0, lmt_key);
                    self.update_proc_lists(ep);
                    self.stats.ep_promotions += 1;
                }
            }
            // Entry task (no predecessors) or dead enabling processor.
            _ => {
                let key = self.task_key(lmt, s);
                self.non_ep.insert(s.0, key);
                self.stats.non_ep_promotions += 1;
            }
        }
    }

    /// Finishes the run.
    ///
    /// # Panics
    ///
    /// Panics if tasks remain unscheduled (call [`step`](Self::step) until
    /// it returns `None`).
    #[must_use]
    pub fn finish(self) -> Schedule {
        self.builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Flb;
    use flb_graph::paper::fig1;
    use flb_graph::TaskGraphBuilder;
    use flb_sched::validate::validate;
    use flb_sched::Scheduler;

    /// The full Table 1 check: every iteration's scheduling decision, start
    /// and finish time must match the paper's execution trace.
    #[test]
    fn fig1_reproduces_table1_decisions() {
        let g = fig1();
        let m = Machine::new(2);
        let mut run = FlbRun::new(&g, &m, TieBreak::BottomLevel);
        let expected = [
            // (task, proc, start, finish) rows of Table 1.
            (0, 0, 0, 2),
            (3, 0, 2, 5),
            (1, 1, 3, 5),
            (2, 0, 5, 7),
            (4, 1, 5, 8),
            (5, 0, 7, 10),
            (6, 1, 8, 10),
            (7, 0, 12, 14),
        ];
        for (i, &(t, p, st, ft)) in expected.iter().enumerate() {
            let step = run.step().expect("more steps expected");
            assert_eq!(
                (step.task.0, step.proc.0, step.start, step.finish),
                (t, p, st, ft),
                "iteration {i} diverged from Table 1"
            );
        }
        assert!(run.step().is_none());
        let s = run.finish();
        assert_eq!(s.makespan(), 14);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    /// Table 1's list contents at the second iteration: the three EP tasks
    /// enabled by p0 sorted t3, t1, t2 (equal EMT, bottom-level order).
    #[test]
    fn fig1_ep_list_order_after_first_step() {
        let g = fig1();
        let m = Machine::new(2);
        let mut run = FlbRun::new(&g, &m, TieBreak::BottomLevel);
        run.step(); // schedules t0 on p0
        assert_eq!(
            run.ep_tasks_of(ProcId(0)),
            vec![TaskId(3), TaskId(1), TaskId(2)]
        );
        assert!(run.ep_tasks_of(ProcId(1)).is_empty());
        assert!(run.non_ep_tasks().is_empty());
        assert_eq!(run.lmt_of(TaskId(1)), 3);
        assert_eq!(run.lmt_of(TaskId(2)), 6);
        assert_eq!(run.lmt_of(TaskId(3)), 3);
    }

    /// After t3 is scheduled on p0 (PRT = 5), t1 (LMT 3) must demote to the
    /// non-EP list while t2 (LMT 6) stays EP — Table 1, third row.
    #[test]
    fn fig1_demotion_to_non_ep() {
        let g = fig1();
        let m = Machine::new(2);
        let mut run = FlbRun::new(&g, &m, TieBreak::BottomLevel);
        run.step(); // t0
        run.step(); // t3
        assert_eq!(run.ep_tasks_of(ProcId(0)), vec![TaskId(2)]);
        assert_eq!(run.non_ep_tasks(), vec![TaskId(1)]);
    }

    #[test]
    fn single_processor_serialises_in_priority_order() {
        let g = fig1();
        let s = Flb::default().schedule(&g, &Machine::new(1));
        assert_eq!(validate(&g, &s), Ok(()));
        // On one processor there is no communication: makespan = total comp.
        assert_eq!(s.makespan(), g.total_comp());
    }

    #[test]
    fn more_processors_than_width_change_nothing_much() {
        let g = fig1();
        let s2 = Flb::default().schedule(&g, &Machine::new(2));
        let s8 = Flb::default().schedule(&g, &Machine::new(8));
        assert_eq!(validate(&g, &s8), Ok(()));
        // Extra processors can help or be ignored, but never break validity;
        // with width 3, 8 processors must not be worse than... the 2-proc
        // schedule by more than the extra communication they can introduce.
        assert!(s8.makespan() <= s2.makespan() + g.total_comm());
    }

    #[test]
    fn entry_task_tie_break_prefers_larger_bottom_level() {
        // Two entry chains of different lengths: the longer chain's head has
        // the larger bottom level and must be scheduled first.
        let mut b = TaskGraphBuilder::new();
        let short = b.add_task(1);
        let long0 = b.add_task(1);
        let long1 = b.add_task(5);
        b.add_edge(long0, long1, 1).unwrap();
        let g = b.build().unwrap();
        let m = Machine::new(1);
        let mut run = FlbRun::new(&g, &m, TieBreak::BottomLevel);
        let first = run.step().unwrap();
        assert_eq!(first.task, long0);
        let _ = short;
    }

    #[test]
    fn fifo_tie_break_prefers_smaller_id() {
        let mut b = TaskGraphBuilder::new();
        let short = b.add_task(1);
        let long0 = b.add_task(1);
        let long1 = b.add_task(5);
        b.add_edge(long0, long1, 1).unwrap();
        let g = b.build().unwrap();
        let m = Machine::new(1);
        let mut run = FlbRun::new(&g, &m, TieBreak::TaskId);
        let first = run.step().unwrap();
        assert_eq!(first.task, short);
    }

    #[test]
    fn flb_balances_independent_tasks() {
        let g = flb_graph::gen::independent(12);
        let m = Machine::new(4);
        let s = Flb::default().schedule(&g, &m);
        for p in 0..4 {
            assert_eq!(s.tasks_on(ProcId(p)).len(), 3);
        }
        assert_eq!(s.makespan(), 3);
    }

    #[test]
    fn demotion_cascade_in_one_update() {
        // Processor p0 enables three EP tasks with staggered LMTs; one long
        // task on p0 pushes PRT past two of them at once: both must demote
        // in the same UpdateTaskLists pass, the third stays EP.
        let mut b = TaskGraphBuilder::new();
        let root = b.add_task(1);
        let blocker = b.add_task(50); // scheduled on p0 right after root
        let e1 = b.add_task(1);
        let e2 = b.add_task(1);
        let e3 = b.add_task(1);
        b.add_edge(root, blocker, 1).unwrap();
        b.add_edge(root, e1, 5).unwrap(); // LMT 6
        b.add_edge(root, e2, 9).unwrap(); // LMT 10
        b.add_edge(root, e3, 100).unwrap(); // LMT 101 (stays EP)
        let g = b.build().unwrap();
        let m = Machine::new(1); // single proc: everything EP on p0
        let mut run = FlbRun::new(&g, &m, TieBreak::BottomLevel);
        run.step(); // root [0-1]; e1/e2/e3 + blocker become ready, EP on p0
        assert_eq!(run.ep_tasks_of(ProcId(0)).len(), 4);
        run.step(); // blocker [1-51]: PRT 51 > LMT(e1), LMT(e2)
        let still_ep = run.ep_tasks_of(ProcId(0));
        assert!(still_ep.contains(&e3));
        assert!(!still_ep.contains(&e1) && !still_ep.contains(&e2));
        assert_eq!(run.non_ep_tasks(), vec![e1, e2]);
        assert_eq!(run.stats().demotions, 2);
        while run.step().is_some() {}
        assert_eq!(run.finish().makespan(), g.total_comp());
    }

    #[test]
    fn flb_on_related_machine_is_valid() {
        // FLB is speed-oblivious but must stay correct on related machines
        // (durations come from the shared builder).
        let g = flb_graph::gen::lu(6);
        let m = Machine::related(vec![1, 3, 3]);
        let s = Flb::default().schedule(&g, &m);
        assert_eq!(validate(&g, &s), Ok(()));
        assert!(s.makespan() >= flb_sched::bounds::makespan_lower_bound_on(&g, &m));
    }

    #[test]
    fn steps_cover_every_task_exactly_once() {
        let g = flb_graph::gen::lu(8);
        let m = Machine::new(3);
        let mut run = FlbRun::new(&g, &m, TieBreak::BottomLevel);
        let mut seen = vec![false; g.num_tasks()];
        while let Some(step) = run.step() {
            assert!(!seen[step.task.0], "task scheduled twice");
            seen[step.task.0] = true;
            assert_eq!(step.finish, step.start + g.comp(step.task));
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(validate(&g, &run.finish()), Ok(()));
    }

    #[test]
    fn stats_account_for_every_task() {
        let g = fig1();
        let m = Machine::new(2);
        let mut run = FlbRun::new(&g, &m, TieBreak::BottomLevel);
        while run.step().is_some() {}
        let st = run.stats();
        // Every task was selected exactly once, from one of the two lists.
        assert_eq!(st.ep_selections + st.non_ep_selections, g.num_tasks());
        // Every task entered the ready set exactly once.
        assert_eq!(st.ep_promotions + st.non_ep_promotions, g.num_tasks());
        // The Table 1 trace: t3, t1, t2 + t4, t5, t6, t7 enter as EP (7);
        // t0 enters as non-EP; t1, t5, t6 are demoted along the way.
        assert_eq!(st.non_ep_promotions, 1);
        assert_eq!(st.ep_promotions, 7);
        assert_eq!(st.demotions, 3);
        // Ready set peaks at {t1, t2, t3} = width 3.
        assert_eq!(st.max_ready, 3);
        // EP selections per Table 1: t3, t2, t4, t7 = 4.
        assert_eq!(st.ep_selections, 4);
        assert_eq!(st.list_insertions(), 8 + 3);
    }

    #[test]
    fn max_ready_is_bounded_by_width() {
        let g = flb_graph::gen::stencil(6, 5);
        let w = flb_graph::width::max_antichain(&g);
        let m = Machine::new(3);
        let mut run = FlbRun::new(&g, &m, TieBreak::BottomLevel);
        while run.step().is_some() {}
        assert!(run.stats().max_ready <= w);
    }

    #[test]
    fn ready_tasks_view_is_consistent() {
        let g = fig1();
        let m = Machine::new(2);
        let mut run = FlbRun::new(&g, &m, TieBreak::BottomLevel);
        assert_eq!(run.ready_tasks(), vec![TaskId(0)]);
        run.step();
        assert_eq!(run.ready_tasks(), vec![TaskId(1), TaskId(2), TaskId(3)]);
    }
}
