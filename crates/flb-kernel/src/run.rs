//! The FLB inner loop — allocation-free after construction.
//!
//! [`KernelRun`] is a re-implementation of `flb_core::FlbRun` (the paper's
//! §4.1 pseudocode) designed for million-task graphs. It makes exactly the
//! same scheduling decisions — same candidate pairs, same tie-breaks —
//! which the conformance registry and the bit-identity property tests
//! enforce. What differs is the representation:
//!
//! * task and processor ids are `u32`. Two arrays indexed by id hold
//!   what readiness and the output need, 12 bytes a task, each entry
//!   serving two lifetimes: a `u64` holds the bottom level until the task
//!   is placed and its finish time after, and a `u32` holds the count of
//!   unplaced predecessors until the task is ready, [`NONE`] while it
//!   waits in a list, and its processor once placed. A bottom level is
//!   read only when its task becomes ready (it is copied into the task's
//!   list key) and a finish time or processor only for placed tasks. A
//!   start time is `finish − comp·slow`, so [`KernelRun::starts`]
//!   computes the start array on its first call;
//! * what a task needs only while it sits in an EP list — `EMT(t, EP(t))`,
//!   `LMT(t)`, a copy of its bottom level and the links of both EP lists —
//!   is one 48-byte slot of a [`SlotArena`]. A task takes a slot when it
//!   enters an EP list and gives it back when its node leaves the EMT
//!   heap, so the arena holds as many slots as the EMT heaps ever held
//!   nodes at once ([`KernelRun::max_slots`]), not `V`; the enabling
//!   processor `EP(t)` is where the slot is queued;
//! * the per-processor `EMT_EP_task_l` lists are a [`PairingForest`] over
//!   the slots (a task is enabled by at most one processor, so all `P`
//!   heaps share the arena);
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
//!   when `p` has no live EP task left its whole EMT heap is emptied; a
//!   slot is released by the pop or with its heap;
//! * the non-EP list is a [`PlainHeap`], which only inserts and pops, and
//!   both processor lists are [`FlatHeap`]s, each with its capacity fixed
//!   at init; the processor just used is re-seated bottom-up after its
//!   `PRT` grows;
//! * there is no `ScheduleBuilder`: placements are two flat arrays, and
//!   every quantity (`LMT`, `EP`, `EMT`) is computed by a direct CSR scan.
//!
//! Each task still enters and leaves each list at most once — a lazily
//! deleted node leaves the EMT heap by one pop or with its whole heap,
//! and a bucket move is not a list entry — so the count of list
//! operations behind the `O(V (log W + log P) + E)` bound is unchanged,
//! and the LMT lists now contribute `O(V)` to it rather than
//! `O(V log W)`; a slot is taken and released once per EP-list entry.
//! One caveat on the log factor: a dead node can stay in its EMT heap
//! after its task has been scheduled, so that heap's size is bounded by
//! the tasks `p` enabled since the heap was last empty, not by the
//! ready-set width `W`. DESIGN.md records how many nodes the heaps held
//! against `W` on the measured graphs.
//!
//! Everything is sized once from `V`, `E` and `P` in [`KernelRun::new`];
//! the steady-state loop performs **zero heap allocations** (verified by a
//! counting-allocator integration test).

use crate::list::{FlatHeap, PairingForest, PlainHeap, RadixLists, SlotArena};
use crate::NONE;
use flb_graph::levels::bottom_levels;
use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{RunStats, TieBreak};
use std::cell::OnceCell;
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

/// A resumable FLB execution over a [`TaskGraph`].
pub struct KernelRun<'g> {
    g: &'g TaskGraph,
    /// Per-processor slowdown factors (all 1 on homogeneous machines).
    slow: Vec<Time>,
    tie_break: TieBreak,
    /// Per task: its static bottom level (the tie-break priority) until
    /// it is placed, its finish time after.
    level: Vec<Time>,
    /// Per task: its count of unplaced predecessors until it is ready,
    /// `NONE` while it is in a list, its processor once placed.
    state: Vec<u32>,
    /// Start times, computed from the finish times by the first
    /// `starts()` call.
    start: OnceCell<Vec<Time>>,
    /// Processor ready times `PRT(p)`.
    prt: Vec<Time>,
    n_placed: usize,
    /// The state of every task in an EP list, linked by both EP lists.
    slots: SlotArena,
    /// Per-processor EP lists keyed by `EMT(t, EP(t))` / by `LMT(t)`. The
    /// LMT lists hold exactly the live EP tasks; the EMT heap may also
    /// hold demoted ones below a live root (lazy deletion).
    emt_lists: PairingForest,
    lmt_lists: RadixLists,
    /// Total tasks across all EP lists (for the `max_ready` counter).
    ep_in_lists: usize,
    /// Non-EP ready tasks keyed by `(LMT, ⁻bl)`.
    non_ep: PlainHeap<TaskKey>,
    /// Active processors keyed by the minimum EST of their EP tasks.
    active: FlatHeap<Time>,
    /// All processors keyed by `PRT(p)`.
    all_procs: FlatHeap<Time>,
    stats: RunStats,
}

impl<'g> KernelRun<'g> {
    /// Initialises every array and list from `V`, `E` and `P`. This is the
    /// only allocating phase; `slow[p]` is processor `p`'s slowdown factor
    /// (use `&[1; P]`-style vectors for the paper's homogeneous machines).
    ///
    /// # Panics
    ///
    /// Panics if `slow` is empty.
    #[must_use]
    pub fn new(g: &'g TaskGraph, slow: &[Time], tie_break: TieBreak) -> Self {
        let v = g.num_tasks();
        let p = slow.len();
        assert!(p > 0, "a machine needs at least one processor");
        let level = match tie_break {
            TieBreak::BottomLevel => bottom_levels(g),
            TieBreak::TaskId => vec![0; v],
        };
        let mut run = KernelRun {
            g,
            slow: slow.to_vec(),
            tie_break,
            level,
            state: g.tasks().map(|t| g.in_degree(t) as u32).collect(),
            start: OnceCell::new(),
            prt: vec![0; p],
            n_placed: 0,
            slots: SlotArena::new(v),
            emt_lists: PairingForest::new(p),
            lmt_lists: RadixLists::new(p),
            ep_in_lists: 0,
            non_ep: PlainHeap::new(v),
            active: FlatHeap::new(p),
            all_procs: FlatHeap::new(p),
            stats: RunStats::default(),
        };
        for t in 0..v as u32 {
            if run.state[t as usize] == 0 {
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

    /// The most nodes the EMT heaps held at once so far, live and lazily
    /// deleted: the high-water mark of the slot arena.
    #[must_use]
    pub fn max_slots(&self) -> usize {
        self.slots.high_water()
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

    /// Processor of each task.
    ///
    /// # Panics
    ///
    /// Panics if the run is not complete: until a task is placed, its
    /// entry holds its readiness countdown.
    #[must_use]
    pub fn procs(&self) -> &[u32] {
        assert!(self.is_complete(), "procs() of an incomplete run");
        &self.state
    }

    /// Start time of each task, computed from the finish times on the
    /// first call.
    ///
    /// # Panics
    ///
    /// Panics if the run is not complete: the array is computed once.
    #[must_use]
    pub fn starts(&self) -> &[Time] {
        assert!(self.is_complete(), "starts() of an incomplete run");
        self.start
            .get_or_init(|| (0..self.g.num_tasks()).map(|t| self.start_of(t)).collect())
    }

    /// Start time of the placed task `t`: its finish time less its
    /// execution time on its processor.
    pub(crate) fn start_of(&self, t: usize) -> Time {
        let p = self.state[t] as usize;
        self.level[t] - self.g.comp(TaskId(t)) * self.slow[p]
    }

    /// Finish time of each task.
    ///
    /// # Panics
    ///
    /// Panics if the run is not complete: until a task is placed, its
    /// entry holds its bottom level.
    #[must_use]
    pub fn finishes(&self) -> &[Time] {
        assert!(self.is_complete(), "finishes() of an incomplete run");
        &self.level
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
            let s = self.emt_lists.root(p);
            debug_assert_ne!(s, NONE, "active processor has EP tasks");
            debug_assert_eq!(
                est,
                self.slots[s].emt.max(self.prt[p as usize]),
                "stale active-processor key"
            );
            (self.slots[s].task, p, est)
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
        // its processor's EMT heap: it leaves its bucket, then the heap,
        // which releases its slot. A non-EP winner is the non-EP root.
        if from_ep_list {
            let s = self.emt_lists.root(proc);
            self.lmt_lists.remove(&mut self.slots, proc, s);
            self.emt_lists.pop_min(&mut self.slots, proc);
            self.ep_in_lists -= 1;
            self.stats.ep_selections += 1;
        } else {
            let popped = self.non_ep.pop();
            debug_assert_eq!(popped.map(|(t, _)| t), Some(task));
            self.stats.non_ep_selections += 1;
        }

        // Place: append on `proc` (FLB never inserts into gaps).
        debug_assert!(start >= self.prt[proc as usize], "append before PRT");
        let finish = start + self.g.comp(TaskId(task as usize)) * self.slow[proc as usize];
        debug_assert_eq!(self.state[task as usize], NONE, "placed task was ready");
        self.state[task as usize] = proc;
        self.level[task as usize] = finish;
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
    /// dead and is emptied. Either way the node's slot is released.
    fn update_task_lists(&mut self, p: u32) {
        let prt = self.prt[p as usize];
        let non_ep = &mut self.non_ep;
        let demoted = self.lmt_lists.demote_below(&mut self.slots, p, prt, |s| {
            non_ep.insert(s.task, (s.lmt, Reverse(s.bl)));
        });
        self.ep_in_lists -= demoted;
        self.stats.demotions += demoted;
        if self.lmt_lists.is_empty_at(p) {
            self.emt_lists.clear(&mut self.slots, p);
            return;
        }
        while self.slots[self.emt_lists.root(p)].lmt < prt {
            self.emt_lists.pop_min(&mut self.slots, p);
        }
    }

    /// Paper's `UpdateProcLists`: refresh `p`'s priority in the active
    /// list (minimum EST of its EP tasks) or drop it when empty.
    fn update_proc_lists(&mut self, p: u32) {
        let head = self.emt_lists.root(p);
        if head == NONE {
            self.active.remove(p);
        } else {
            let est = self.slots[head].emt.max(self.prt[p as usize]);
            self.active.insert_or_update(p, est);
        }
    }

    /// Paper's `UpdateReadyTasks`: successors that became ready are
    /// classified EP / non-EP and enqueued.
    fn update_ready_tasks(&mut self, scheduled: u32) {
        let g = self.g;
        for s in g.succ_ids(TaskId(scheduled as usize)) {
            self.state[s.0] -= 1;
            if self.state[s.0] == 0 {
                self.enqueue_ready(s.0 as u32);
            }
        }
        self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
    }

    /// Classifies and enqueues a ready task. `LMT`, `EP` and `EMT` are
    /// computed by two predecessor CSR scans (the reference computes the
    /// same quantities through its `ScheduleBuilder`): the EP is the
    /// processor of the maximum arrival, ties toward the smallest
    /// processor id then the smallest predecessor id. The task's bottom
    /// level is read here, the last time before its placement overwrites
    /// it, and copied into its list key or slot.
    fn enqueue_ready(&mut self, s: u32) {
        let g = self.g;
        let bl = self.level[s as usize];
        self.state[s as usize] = NONE;
        // Scan 1: LMT and EP.
        let mut best: Option<(Time, Reverse<u32>, Reverse<TaskId>)> = None;
        for (q, w) in g.preds(TaskId(s as usize)) {
            let arrival = self.level[q.0] + w;
            let cand = (arrival, Reverse(self.state[q.0]), Reverse(q));
            if best.is_none_or(|b| cand > b) {
                best = Some(cand);
            }
        }
        match best {
            // Entry task: no enabling processor, LMT = 0.
            None => {
                self.non_ep.insert(s, (0, Reverse(bl)));
                self.stats.non_ep_promotions += 1;
            }
            Some((lmt, Reverse(ep), _)) if lmt < self.prt[ep as usize] => {
                self.non_ep.insert(s, (lmt, Reverse(bl)));
                self.stats.non_ep_promotions += 1;
            }
            Some((lmt, Reverse(ep), _)) => {
                // Scan 2: EMT on the enabling processor (messages from
                // predecessors already on `ep` are free).
                let mut emt = 0;
                for (q, w) in g.preds(TaskId(s as usize)) {
                    let ft = self.level[q.0];
                    let arrives = if self.state[q.0] == ep { ft } else { ft + w };
                    emt = emt.max(arrives);
                }
                let slot = self.slots.take(s, emt, lmt, bl);
                let became_root = self.emt_lists.insert(&mut self.slots, ep, slot);
                self.lmt_lists.insert(&mut self.slots, ep, slot);
                self.ep_in_lists += 1;
                // `PRT(ep)` is unchanged, so the processor's key moves
                // only if `s` became the new EMT head.
                if became_root {
                    self.update_proc_lists(ep);
                }
                self.stats.ep_promotions += 1;
            }
        }
    }

    // flb-analyze: region-end(no-alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;

    /// The paper's Table 1 trace, decision for decision.
    #[test]
    fn fig1_reproduces_table1_decisions() {
        let g = fig1();
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
        let g = fig1();
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
        let g = fig1();
        let mut run = KernelRun::new(&g, &[2, 3], TieBreak::BottomLevel);
        run.run();
        for t in g.tasks() {
            let p = run.procs()[t.0] as usize;
            assert_eq!(
                run.finishes()[t.0] - run.starts()[t.0],
                g.comp(t) * [2, 3][p]
            );
        }
    }

    #[test]
    #[should_panic(expected = "procs() of an incomplete run")]
    fn procs_of_a_half_run_panics() {
        let g = fig1();
        let mut run = KernelRun::new(&g, &[1, 1], TieBreak::BottomLevel);
        for _ in 0..4 {
            run.step();
        }
        let _ = run.procs();
    }

    #[test]
    #[should_panic(expected = "finishes() of an incomplete run")]
    fn finishes_of_a_half_run_panics() {
        let g = fig1();
        let mut run = KernelRun::new(&g, &[1, 1], TieBreak::BottomLevel);
        for _ in 0..4 {
            run.step();
        }
        let _ = run.finishes();
    }

    /// Every slot not holding an EMT-heap node is on the free list after
    /// every step, so after every wholesale drop too, and every slot is
    /// free once the run is complete. The graphs empty EP lists mid-run
    /// (P = 64 on a narrow LU) and keep them long (P = 2).
    #[test]
    fn every_slot_is_released_once() {
        use flb_graph::costs::CostModel;
        let lu = flb_graph::gen::lu(40);
        for (ccr, slow, tie) in [
            (0.2, vec![1; 64], TieBreak::BottomLevel),
            (5.0, vec![1; 2], TieBreak::BottomLevel),
            (1.0, vec![1, 2, 2, 3], TieBreak::TaskId),
        ] {
            let g = CostModel::paper_default(ccr).apply(&lu, 3);
            let mut run = KernelRun::new(&g, &slow, tie);
            while run.step().is_some() {
                let in_heaps: usize = (0..slow.len() as u32)
                    .map(|p| run.emt_lists.len_at(&run.slots, p))
                    .sum();
                assert_eq!(run.slots.free_len() + in_heaps, run.max_slots());
            }
            assert!(run.max_slots() > 0);
            assert_eq!(run.slots.free_len(), run.max_slots());
        }
    }
}
