//! The FLB inner loop over SoA arenas — allocation-free after construction.
//!
//! [`KernelRun`] is a re-implementation of `flb_core::FlbRun` (the paper's
//! §4.1 pseudocode) designed for million-task graphs. It makes exactly the
//! same scheduling decisions — same candidate pairs, same tie-breaks —
//! which the conformance registry and the bit-identity property tests
//! enforce. What differs is the representation:
//!
//! * task and processor ids are `u32`; per-task state (`bl`, `LMT`,
//!   `EMT(t, EP(t))`, `EP`, readiness countdown, placement) lives in
//!   struct-of-arrays arenas indexed by id;
//! * the per-processor `EMT_EP_task_l` lists are a [`PairingForest`] over
//!   flat link arrays (a task is enabled by at most one processor, so all
//!   `P` heaps fit one universe);
//! * the per-processor `LMT_EP_task_l` lists are [`RadixLists`]: radix
//!   buckets relative to a per-processor floor. They only ever answer
//!   "which EP tasks of `p` now have `LMT < PRT(p)`?", with `PRT(p)`
//!   non-decreasing and every insert at `LMT ≥ PRT(p)` — a monotone
//!   priority queue — so an insert and the EP winner's removal are O(1),
//!   a demotion check usually one comparison, and a task moves between
//!   buckets at most 64 times before it leaves: `O(V)` in total;
//! * demoted tasks leave the LMT lists in bucket order, not LMT order.
//!   That changes nothing: the non-EP heap orders its tasks by the strict
//!   total order `(LMT, −bl, id)`, whatever order they arrive in, and no
//!   decision or counter is read between two demotions of one step;
//! * a demoted task leaves only the LMT lists. Its EMT-heap node is
//!   deleted lazily: a live EP task of `p` has `LMT >= PRT(p)`, so dead
//!   nodes are recognised when they reach the root and popped there, and
//!   when `p` has no live EP task left its whole EMT heap is dropped;
//! * the non-EP list and both processor lists are [`FlatHeap`]s with
//!   capacity fixed at init; the processor just used is re-seated
//!   bottom-up after its `PRT` grows;
//! * there is no `ScheduleBuilder`: placements are three flat arrays, and
//!   every quantity (`LMT`, `EP`, `EMT`) is computed by a direct CSR scan.
//!
//! Each task still enters and leaves each list at most once — a lazily
//! deleted node leaves the EMT heap by one pop or with its whole heap,
//! and a bucket move is not a list entry — so the count of list
//! operations behind the `O(V (log W + log P) + E)` bound is unchanged,
//! and the LMT lists now contribute `O(V)` to it rather than
//! `O(V log W)`. One caveat on the log factor: a dead node can stay in
//! its EMT heap after its task has been scheduled, so that heap's size is
//! bounded by the tasks `p` enabled since the heap was last empty, not by
//! the ready-set width `W`.
//!
//! Everything is sized once from `V`, `E` and `P` in [`KernelRun::new`];
//! the steady-state loop performs **zero heap allocations** (verified by a
//! counting-allocator integration test).

use crate::graph::{FlatGraph, NONE};
use crate::list::{FlatHeap, PairingForest, RadixLists, SliceKeys};
use flb_graph::Time;
use flb_sched::{RunStats, TieBreak};
use std::cmp::Reverse;

/// Heap key of the non-EP list: `(LMT, Reverse(bottom level))`; the heap
/// itself breaks remaining ties toward the smaller id.
type TaskKey = (Time, Reverse<Time>);

/// One scheduling decision made by [`KernelRun::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelStep {
    /// The scheduled task.
    pub task: u32,
    /// Destination processor.
    pub proc: u32,
    /// Start time.
    pub start: Time,
    /// Finish time.
    pub finish: Time,
    /// Whether the EP pair (true) or the non-EP pair (false) won.
    pub from_ep_list: bool,
}

/// A resumable FLB execution over a [`FlatGraph`].
pub struct KernelRun<'g> {
    g: &'g FlatGraph,
    /// Per-processor slowdown factors (all 1 on homogeneous machines).
    slow: Vec<Time>,
    tie_break: TieBreak,
    /// Static bottom levels (tie-break priority).
    bl: Vec<Time>,
    /// Remaining unplaced predecessors per task.
    missing_preds: Vec<u32>,
    /// `LMT(t)` for ready tasks.
    lmt: Vec<Time>,
    /// `EMT(t, EP(t))` for ready tasks.
    emt_on_ep: Vec<Time>,
    /// `EP(t)` for ready tasks (`NONE` = entry task).
    ep: Vec<u32>,
    /// Placement arenas (`proc_of[t] == NONE` = unplaced).
    proc_of: Vec<u32>,
    start: Vec<Time>,
    finish: Vec<Time>,
    /// Processor ready times `PRT(p)`.
    prt: Vec<Time>,
    n_placed: usize,
    /// Per-processor EP lists keyed by `EMT(t, EP(t))` / by `LMT(t)`. The
    /// LMT lists hold exactly the live EP tasks; the EMT heap may also
    /// hold demoted ones below a live root (lazy deletion).
    emt_forest: PairingForest,
    emt_root: Vec<u32>,
    lmt_lists: RadixLists,
    /// Total tasks across all EP lists (for the `max_ready` counter).
    ep_in_lists: usize,
    /// Non-EP ready tasks keyed by `(LMT, ⁻bl)`.
    non_ep: FlatHeap<TaskKey>,
    /// Active processors keyed by the minimum EST of their EP tasks.
    active: FlatHeap<Time>,
    /// All processors keyed by `PRT(p)`.
    all_procs: FlatHeap<Time>,
    stats: RunStats,
}

impl<'g> KernelRun<'g> {
    /// Initialises every arena and list from `V`, `E` and `P`. This is the
    /// only allocating phase; `slow[p]` is processor `p`'s slowdown factor
    /// (use `&[1; P]`-style vectors for the paper's homogeneous machines).
    ///
    /// # Panics
    ///
    /// Panics if `slow` is empty.
    #[must_use]
    pub fn new(g: &'g FlatGraph, slow: &[Time], tie_break: TieBreak) -> Self {
        let v = g.num_tasks();
        let p = slow.len();
        assert!(p > 0, "a machine needs at least one processor");
        let bl = match tie_break {
            TieBreak::BottomLevel => g.bottom_levels(),
            TieBreak::TaskId => vec![0; v],
        };
        let mut run = KernelRun {
            g,
            slow: slow.to_vec(),
            tie_break,
            bl,
            missing_preds: (0..v).map(|i| g.in_degree(i as u32)).collect(),
            lmt: vec![0; v],
            emt_on_ep: vec![0; v],
            ep: vec![NONE; v],
            proc_of: vec![NONE; v],
            start: vec![0; v],
            finish: vec![0; v],
            prt: vec![0; p],
            n_placed: 0,
            emt_forest: PairingForest::new(v),
            emt_root: vec![NONE; p],
            lmt_lists: RadixLists::new(v, p),
            ep_in_lists: 0,
            non_ep: FlatHeap::new(v),
            active: FlatHeap::new(p),
            all_procs: FlatHeap::new(p),
            stats: RunStats::default(),
        };
        for t in 0..v as u32 {
            if run.missing_preds[t as usize] == 0 {
                run.enqueue_ready(t);
            }
        }
        run.stats.max_ready = run.ready_len();
        for q in 0..p as u32 {
            run.all_procs.insert(q, 0);
        }
        run
    }

    /// Counters accumulated so far (field-identical to the reference run).
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The tie-break rule this run uses.
    #[must_use]
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// Whether every task has been placed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.n_placed == self.g.num_tasks()
    }

    /// Processor of each task (`NONE` while unplaced).
    #[must_use]
    pub fn procs(&self) -> &[u32] {
        &self.proc_of
    }

    /// Start time of each task (valid once placed).
    #[must_use]
    pub fn starts(&self) -> &[Time] {
        &self.start
    }

    /// Finish time of each task (valid once placed).
    #[must_use]
    pub fn finishes(&self) -> &[Time] {
        &self.finish
    }

    /// Parallel completion time of the (complete) run.
    #[must_use]
    pub fn makespan(&self) -> Time {
        self.prt.iter().copied().max().unwrap_or(0)
    }

    fn ready_len(&self) -> usize {
        self.non_ep.len() + self.ep_in_lists
    }

    // flb-analyze: region(no-alloc)
    // The steady-state scheduling loop: everything from here to the
    // region-end runs once per task and must not allocate. The fence is
    // the single source of truth for the boundary — the static
    // `no-alloc-in-hot-loop` rule checks call sites inside it, and the
    // counting-allocator test in tests/alloc_free.rs asserts that
    // exactly these functions are fenced.

    /// Runs to completion. Allocation-free.
    pub fn run(&mut self) {
        while self.step().is_some() {}
    }

    /// Schedules one task — the paper's `ScheduleTask` plus the three
    /// update procedures. Returns `None` once every task is placed.
    /// Allocation-free.
    pub fn step(&mut self) -> Option<KernelStep> {
        if self.n_placed == self.g.num_tasks() {
            return None;
        }

        // Candidate (a): EP-type task with minimum EST on its enabling
        // processor — head of the head-of-active-processors' EMT list.
        let ep_pair = self.active.peek().map(|(p, est)| {
            let t = self.emt_root[p as usize];
            debug_assert_ne!(t, NONE, "active processor has EP tasks");
            debug_assert_eq!(
                est,
                self.emt_on_ep[t as usize].max(self.prt[p as usize]),
                "stale active-processor key"
            );
            (t, p, est)
        });

        // Candidate (b): non-EP-type task with minimum LMT on the
        // processor becoming idle the earliest.
        let non_ep_pair = self.non_ep.peek().map(|(t, (lmt, _))| {
            let (p, prt) = self.all_procs.peek().expect("machine has processors");
            (t, p, lmt.max(prt))
        });

        // The EP pair wins only with a strictly smaller EST.
        let (task, proc, start, from_ep_list) = match (ep_pair, non_ep_pair) {
            (Some((t1, p1, e1)), Some((_, _, e2))) if e1 < e2 => (t1, p1, e1, true),
            (_, Some((t2, p2, e2))) => (t2, p2, e2, false),
            (Some((t1, p1, e1)), None) => (t1, p1, e1, true),
            (None, None) => unreachable!("unscheduled tasks but no ready task"),
        };

        // Remove the winner from its lists. An EP winner is the root of
        // its processor's EMT heap; a non-EP winner is the non-EP root.
        if from_ep_list {
            let keys = SliceKeys {
                time: &self.emt_on_ep,
                bl: &self.bl,
            };
            debug_assert_eq!(self.emt_root[proc as usize], task);
            self.emt_root[proc as usize] = self.emt_forest.pop_min(&keys, task);
            self.lmt_lists.remove(proc, task, self.lmt[task as usize]);
            self.ep_in_lists -= 1;
            self.stats.ep_selections += 1;
        } else {
            let popped = self.non_ep.pop();
            debug_assert_eq!(popped.map(|(t, _)| t), Some(task));
            self.stats.non_ep_selections += 1;
        }

        // Place: append on `proc` (FLB never inserts into gaps).
        debug_assert!(start >= self.prt[proc as usize], "append before PRT");
        let finish = start + self.g.comp(task) * self.slow[proc as usize];
        self.proc_of[task as usize] = proc;
        self.start[task as usize] = start;
        self.finish[task as usize] = finish;
        self.prt[proc as usize] = finish;
        self.n_placed += 1;

        self.all_procs.update(proc, finish);
        self.update_task_lists(proc);
        self.update_proc_lists(proc);
        self.update_ready_tasks(task);

        Some(KernelStep {
            task,
            proc,
            start,
            finish,
            from_ep_list,
        })
    }

    /// Paper's `UpdateTaskLists`: demote EP tasks whose `LMT` fell below
    /// the grown `PRT(p)` to the non-EP list. They leave the LMT lists in
    /// bucket order, not LMT order; the non-EP heap orders them by
    /// `(LMT, −bl, id)` whatever order they arrive in.
    ///
    /// A demoted task leaves only the LMT lists. Its EMT-heap node is
    /// deleted lazily: live tasks of `p` are exactly those with
    /// `LMT >= PRT(p)`, so dead heads are popped until the EMT root is
    /// live, and once the LMT lists of `p` are empty the whole EMT heap is
    /// dead and is dropped by forgetting its root. Safe because a task
    /// never re-enters the EP lists, so no stale link is ever read again.
    fn update_task_lists(&mut self, p: u32) {
        let prt = self.prt[p as usize];
        let (lmt, bl, non_ep) = (&self.lmt, &self.bl, &mut self.non_ep);
        let demoted = self.lmt_lists.demote_below(p, prt, lmt, |t| {
            non_ep.insert(t, (lmt[t as usize], Reverse(bl[t as usize])));
        });
        self.ep_in_lists -= demoted;
        self.stats.demotions += demoted;
        if self.lmt_lists.is_empty_at(p) {
            self.emt_root[p as usize] = NONE;
            return;
        }
        let keys = SliceKeys {
            time: &self.emt_on_ep,
            bl: &self.bl,
        };
        loop {
            let head = self.emt_root[p as usize];
            if self.lmt[head as usize] >= prt {
                break;
            }
            self.emt_root[p as usize] = self.emt_forest.pop_min(&keys, head);
        }
    }

    /// Paper's `UpdateProcLists`: refresh `p`'s priority in the active
    /// list (minimum EST of its EP tasks) or drop it when empty.
    fn update_proc_lists(&mut self, p: u32) {
        let head = self.emt_root[p as usize];
        if head == NONE {
            self.active.remove(p);
        } else {
            let est = self.emt_on_ep[head as usize].max(self.prt[p as usize]);
            self.active.insert_or_update(p, est);
        }
    }

    /// Paper's `UpdateReadyTasks`: successors that became ready are
    /// classified EP / non-EP and enqueued.
    fn update_ready_tasks(&mut self, scheduled: u32) {
        let g = self.g;
        for (s, _) in g.succs(scheduled) {
            self.missing_preds[s as usize] -= 1;
            if self.missing_preds[s as usize] == 0 {
                self.enqueue_ready(s);
            }
        }
        self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
    }

    /// Classifies and enqueues a ready task. `LMT`, `EP` and `EMT` are
    /// computed by two predecessor CSR scans (the reference computes the
    /// same quantities through its `ScheduleBuilder`): the EP is the
    /// processor of the maximum arrival, ties toward the smallest
    /// processor id then the smallest predecessor id.
    fn enqueue_ready(&mut self, s: u32) {
        let g = self.g;
        // Scan 1: LMT and EP.
        let mut best: Option<(Time, Reverse<u32>, Reverse<u32>)> = None;
        for (q, w) in g.preds(s) {
            let arrival = self.finish[q as usize] + w;
            let cand = (arrival, Reverse(self.proc_of[q as usize]), Reverse(q));
            if best.is_none_or(|b| cand > b) {
                best = Some(cand);
            }
        }
        match best {
            // Entry task: no enabling processor, LMT = 0.
            None => {
                self.lmt[s as usize] = 0;
                self.non_ep.insert(s, (0, Reverse(self.bl[s as usize])));
                self.stats.non_ep_promotions += 1;
            }
            Some((lmt, Reverse(ep), _)) => {
                self.lmt[s as usize] = lmt;
                // Scan 2: EMT on the enabling processor (messages from
                // predecessors already on `ep` are free).
                let mut emt = 0;
                for (q, w) in g.preds(s) {
                    let ft = self.finish[q as usize];
                    let arrives = if self.proc_of[q as usize] == ep {
                        ft
                    } else {
                        ft + w
                    };
                    emt = emt.max(arrives);
                }
                self.ep[s as usize] = ep;
                self.emt_on_ep[s as usize] = emt;
                if lmt < self.prt[ep as usize] {
                    self.non_ep.insert(s, (lmt, Reverse(self.bl[s as usize])));
                    self.stats.non_ep_promotions += 1;
                } else {
                    let keys = SliceKeys {
                        time: &self.emt_on_ep,
                        bl: &self.bl,
                    };
                    let head = self.emt_root[ep as usize];
                    self.emt_root[ep as usize] = self.emt_forest.insert(&keys, head, s);
                    self.lmt_lists.insert(ep, s, lmt);
                    self.ep_in_lists += 1;
                    // `PRT(ep)` is unchanged, so the processor's key moves
                    // only if `s` became the new EMT head.
                    if self.emt_root[ep as usize] != head {
                        self.update_proc_lists(ep);
                    }
                    self.stats.ep_promotions += 1;
                }
            }
        }
    }

    // flb-analyze: region-end(no-alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlatGraph;
    use flb_graph::paper::fig1;

    /// The paper's Table 1 trace, decision for decision.
    #[test]
    fn fig1_reproduces_table1_decisions() {
        let g = FlatGraph::from_task_graph(&fig1());
        let mut run = KernelRun::new(&g, &[1, 1], TieBreak::BottomLevel);
        let expected = [
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
                (step.task, step.proc, step.start, step.finish),
                (t, p, st, ft),
                "iteration {i} diverged from Table 1"
            );
        }
        assert!(run.step().is_none());
        assert!(run.is_complete());
        assert_eq!(run.makespan(), 14);
    }

    #[test]
    fn stats_match_the_reference_counts() {
        let g = FlatGraph::from_task_graph(&fig1());
        let mut run = KernelRun::new(&g, &[1, 1], TieBreak::BottomLevel);
        run.run();
        let st = run.stats();
        assert_eq!(st.ep_selections, 4);
        assert_eq!(st.non_ep_selections, 4);
        assert_eq!(st.ep_promotions, 7);
        assert_eq!(st.non_ep_promotions, 1);
        assert_eq!(st.demotions, 3);
        assert_eq!(st.max_ready, 3);
    }

    #[test]
    fn related_machine_scales_execution_times() {
        let g = FlatGraph::from_task_graph(&fig1());
        let mut run = KernelRun::new(&g, &[2, 3], TieBreak::BottomLevel);
        run.run();
        for t in 0..g.num_tasks() as u32 {
            let p = run.procs()[t as usize] as usize;
            assert_eq!(
                run.finishes()[t as usize] - run.starts()[t as usize],
                g.comp(t) * [2, 3][p]
            );
        }
    }
}
