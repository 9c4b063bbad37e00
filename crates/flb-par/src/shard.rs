//! One worker's shard: owned processors, local FLB lists, and the
//! resumable step machine shared by both execution modes.
//!
//! A shard owns a contiguous processor range and runs the paper's
//! two-candidate rule *locally*: the EP candidate comes from the owned
//! processors' pairing-heap EP lists (keyed by conservative LMT), the
//! non-EP candidate from the shard's work-stealing deque paired with the
//! owned processor of minimum ready time. Cross-shard interaction is
//! confined to four points — inbox routing of newly ready tasks toward
//! their enabling processor's shard, stealing from another shard's deque
//! on local exhaustion, rescuing a flagged inbox whose owner is not
//! draining it, and the shared placement arenas.
//!
//! [`Shard::step`] advances exactly one action and is the unit the
//! deterministic interleaver serializes; the OS-thread driver calls the
//! same function in a loop, so both modes execute identical code.

use crate::shared::{LmtKeys, Shared, StealCommit};
use crossbeam::deque::{Steal, StealToken};
use flb_graph::Time;
use flb_kernel::list::{FlatHeap, PairingForest};
use flb_kernel::NONE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::sync::atomic::Ordering;

/// After winning a split steal, take up to this many further tasks from
/// the same victim in the same step. One-at-a-time stealing spreads an
/// imbalanced frontier too slowly (each trip costs two steps plus the
/// race window); a small batch bootstraps a starved shard in a handful
/// of steps without hoarding.
const STEAL_BATCH: usize = 8;

/// EP-affinity routing gives way to balance: a newly ready task stays
/// on the enabling worker's own deque when the EP shard's deque is this
/// much longer than ours. Routing purely by EP feeds every task to the
/// most loaded shard — the max-arrival predecessor by definition lives
/// where finish times run highest — and starves the rest; the backlog
/// check breaks that feedback loop while leaving affinity routing
/// untouched whenever the destination is keeping up.
const ROUTE_BACKLOG_SLACK: usize = 32;

/// Counters one shard accumulates; merged into the run report.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Tasks this shard placed.
    pub placed: u64,
    /// Placements won by the EP candidate.
    pub ep_selections: u64,
    /// Placements won by the non-EP candidate.
    pub non_ep_selections: u64,
    /// EP tasks demoted to the deque after their processor's ready time
    /// overtook their LMT.
    pub demotions: u64,
    /// Successful steals from other shards.
    pub steals: u64,
    /// Steals lost to a race (owner pop or another thief).
    pub steal_retries: u64,
    /// Tasks received through the inbox.
    pub inbox_received: u64,
    /// Tasks routed to another shard's inbox.
    pub routed_out: u64,
    /// Exactly-once violations observed at placement (always 0 unless a
    /// broken steal commit is injected).
    pub duplicates: u64,
}

impl ShardStats {
    /// Field-wise sum of per-shard counters.
    #[must_use]
    pub fn merged(all: &[ShardStats]) -> ShardStats {
        let mut m = ShardStats::default();
        for s in all {
            m.placed += s.placed;
            m.ep_selections += s.ep_selections;
            m.non_ep_selections += s.non_ep_selections;
            m.demotions += s.demotions;
            m.steals += s.steals;
            m.steal_retries += s.steal_retries;
            m.inbox_received += s.inbox_received;
            m.routed_out += s.routed_out;
            m.duplicates += s.duplicates;
        }
        m
    }
}

/// What one [`Shard::step`] call accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A task was placed.
    Placed,
    /// Useful non-placement work (inbox drain, steal half, retry).
    Progress,
    /// Nothing to do locally and the attempted steal found nothing.
    Idle,
    /// The run is over (all tasks placed, or the run was poisoned).
    Done,
}

/// A begun-but-uncommitted steal, carried across steps so the
/// interleaver can inject an owner action between the two halves.
struct PendingSteal {
    victim: usize,
    tok: StealToken,
}

/// Per-worker state: owned processor range plus the shard-local views of
/// the five FLB lists.
pub struct Shard {
    /// Shard index (also its deque/inbox index).
    pub id: usize,
    lo: u32,
    hi: u32,
    /// Ready time of each owned processor (universe-sized, owner-valid).
    prt: Vec<Time>,
    /// Root of each owned processor's EP list (LMT-keyed pairing heap).
    lmt_root: Vec<u32>,
    forest: PairingForest,
    /// Owned processors keyed by ready time (the "all processors" list).
    prt_heap: FlatHeap<Time>,
    /// Owned processors with a non-empty EP list, keyed by the EST of
    /// their head task (the "active processors" list).
    active: FlatHeap<Time>,
    drain_buf: Vec<u32>,
    pending: Option<PendingSteal>,
    rng: StdRng,
    commit_mode: StealCommit,
    /// The most recent per-placement PRT increment (`comp × slowdown`).
    /// Used to classify borderline EP tasks: a task whose LMT the
    /// processor will overtake within about one placement goes straight
    /// to the deque instead of taking the forest-insert → demotion round
    /// trip (at CCR ≈ 1 the majority of tasks are exactly that
    /// marginal). Deliberately the raw last value, not a smoothed
    /// average: any divided accumulator would break the exact
    /// cost-scaling metamorphic relation (`(k·x)/8 ≠ k·(x/8)`), while a
    /// single increment scales exactly with the instance.
    last_inc: Time,
    /// Counters for the run report.
    pub stats: ShardStats,
}

impl Shard {
    /// A worker for shard `id` of `shared`, with victim selection driven
    /// by `seed` (per-shard stream) and the given steal-commit mode.
    #[must_use]
    pub fn new(shared: &Shared<'_>, id: usize, seed: u64, commit_mode: StealCommit) -> Self {
        let (lo, hi) = shared.proc_range[id];
        let v = shared.g.num_tasks();
        let p = shared.slow.len();
        let mut prt_heap = FlatHeap::new(p);
        for q in lo..hi {
            prt_heap.insert(q, 0);
        }
        Shard {
            id,
            lo,
            hi,
            prt: vec![0; p],
            lmt_root: vec![NONE; p],
            forest: PairingForest::new(v),
            prt_heap,
            active: FlatHeap::new(p),
            drain_buf: Vec::with_capacity(64),
            pending: None,
            last_inc: 0,
            rng: StdRng::seed_from_u64(
                seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)),
            ),
            commit_mode,
            stats: ShardStats::default(),
        }
    }

    #[inline]
    fn owns(&self, proc: u32) -> bool {
        (self.lo..self.hi).contains(&proc)
    }

    /// Whether this worker has a begun-but-uncommitted steal.
    #[must_use]
    pub fn has_pending_steal(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether this worker holds any locally queued ready task.
    #[must_use]
    pub fn has_local_work(&self, sh: &Shared<'_>) -> bool {
        !self.active.is_empty() || !sh.deques[self.id].is_empty()
    }

    /// Advances this shard by one action. The priority order — finish a
    /// pending steal, drain the inbox, place, then start a steal — keeps
    /// mail latency bounded and matches what the OS-thread loop does.
    pub fn step(&mut self, sh: &Shared<'_>) -> Step {
        if sh.poisoned.load(Ordering::Relaxed) || sh.is_complete() {
            return Step::Done;
        }
        if let Some(p) = self.pending.take() {
            self.commit_steal(sh, p);
            return Step::Progress;
        }
        if sh.inbox_flag[self.id].load(Ordering::Acquire) {
            self.drain_inbox(sh);
            return Step::Progress;
        }
        if self.try_place(sh) {
            return Step::Placed;
        }
        if self.try_steal_begin(sh) {
            return Step::Progress;
        }
        if self.try_rescue_remote_mail(sh) {
            return Step::Progress;
        }
        Step::Idle
    }

    /// Last resort before going idle: drain another shard's flagged
    /// inbox into our own lists. Routed mail normally waits for its
    /// destination worker, but on an oversubscribed machine that worker
    /// may be napping — and a task stuck in a sleeping shard's inbox can
    /// stall the whole frontier for a nap length. Rescue trades EP
    /// affinity (the tasks land here, classified non-EP) for progress,
    /// exactly on the path where affinity is worthless because the
    /// destination is not even running. Same clear-then-drain protocol
    /// as the owner; still never holds two inbox locks at once.
    fn try_rescue_remote_mail(&mut self, sh: &Shared<'_>) -> bool {
        let n = sh.num_shards();
        for off in 1..n {
            let j = (self.id + off) % n;
            if sh.inbox_flag[j].load(Ordering::Acquire) {
                self.drain_inbox_of(sh, j);
                return true;
            }
        }
        false
    }

    /// Second half of a split steal, using the configured commit mode.
    fn commit_steal(&mut self, sh: &Shared<'_>, p: PendingSteal) {
        let res = match self.commit_mode {
            StealCommit::Cas => sh.stealers[p.victim].steal_commit(p.tok),
            StealCommit::Blind => sh.stealers[p.victim].steal_commit_blind(p.tok),
        };
        match res {
            Steal::Success(t) => {
                self.stats.steals += 1;
                self.enqueue_local(sh, t);
                // Top up with a small batch (plain CAS steals) so a
                // starved shard reaches critical mass in one trip.
                for _ in 1..STEAL_BATCH {
                    match sh.stealers[p.victim].steal() {
                        Steal::Success(t) => {
                            self.stats.steals += 1;
                            self.enqueue_local(sh, t);
                        }
                        Steal::Retry | Steal::Empty => break,
                    }
                }
            }
            Steal::Retry => self.stats.steal_retries += 1,
            Steal::Empty => unreachable!("begun steals never observe empty"),
        }
    }

    /// Takes our own mailbox contents and enqueues them.
    fn drain_inbox(&mut self, sh: &Shared<'_>) {
        self.drain_inbox_of(sh, self.id);
    }

    /// Takes shard `who`'s mailbox contents (clear-flag-then-drain, so a
    /// racing publisher is at worst a spurious later drain) and enqueues
    /// them *here*.
    fn drain_inbox_of(&mut self, sh: &Shared<'_>, who: usize) {
        sh.inbox_flag[who].store(false, Ordering::Release);
        {
            let mut inbox = sh.inboxes[who].lock();
            std::mem::swap(&mut *inbox, &mut self.drain_buf);
        }
        // Enqueue outside the lock.
        for i in 0..self.drain_buf.len() {
            let t = self.drain_buf[i];
            self.stats.inbox_received += 1;
            self.enqueue_local(sh, t);
        }
        self.drain_buf.clear();
    }

    /// Classifies a ready task on this shard: into the enabling
    /// processor's EP list when we own the EP and the task's LMT has not
    /// been overtaken, otherwise onto the deque as a non-EP task.
    fn enqueue_local(&mut self, sh: &Shared<'_>, t: u32) {
        let ep = sh.ep[t as usize].load(Ordering::Relaxed);
        if ep != NONE && self.owns(ep) {
            let lmt = sh.lmt[t as usize].load(Ordering::Relaxed);
            // Predictive EP test: the processor's ready time advances by
            // roughly `last_inc` per placement, so a task the PRT would
            // overtake within one placement is non-EP in all but name —
            // sending it straight to the deque skips the forest-insert →
            // demotion round trip.
            if lmt >= self.prt[ep as usize] + self.last_inc {
                let keys = LmtKeys {
                    lmt: &sh.lmt,
                    bl: &sh.bl,
                };
                let old = self.lmt_root[ep as usize];
                let new = self.forest.insert(&keys, old, t);
                self.lmt_root[ep as usize] = new;
                if new != old {
                    // The head (and hence the EST key) changed.
                    self.refresh_active(sh, ep);
                }
                return;
            }
        }
        sh.deques[self.id].push(t);
    }

    /// Re-keys processor `p` in the active list from its EP-list head
    /// (EST = `max(LMT(head), PRT(p))`), or drops it when the list is
    /// empty.
    fn refresh_active(&mut self, sh: &Shared<'_>, p: u32) {
        let head = self.lmt_root[p as usize];
        if head == NONE {
            self.active.remove(p);
        } else {
            let est = sh.lmt[head as usize]
                .load(Ordering::Relaxed)
                .max(self.prt[p as usize]);
            self.active.insert_or_update(p, est);
        }
    }

    /// The two-candidate rule over this shard's lists; places one task
    /// if any candidate exists. The EP pair wins only with a strictly
    /// smaller EST, mirroring the sequential kernel.
    fn try_place(&mut self, sh: &Shared<'_>) -> bool {
        let ep_cand = self.active.peek();
        // The non-EP candidate is the deque's *oldest* task (FIFO): ready
        // order correlates with LMT order, so consuming from the top
        // approximates the paper's LMT-sorted non-EP list — owner-LIFO
        // would schedule deep, high-LMT tasks first and open idle gaps.
        let non_est = sh.deques[self.id].peek_top().map(|t| {
            let (_, qprt) = self.prt_heap.peek().expect("shard owns >= 1 processor");
            sh.lmt[t as usize].load(Ordering::Relaxed).max(qprt)
        });
        let ep_wins = match (ep_cand, non_est) {
            (Some((_, e1)), Some(e2)) => e1 < e2,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if ep_wins {
            let (p, _) = ep_cand.expect("ep candidate checked above");
            return self.place_ep_head(sh, p);
        }
        if non_est.is_some() {
            // The take may still lose its task to a thief that raced
            // between our peek and now; fall back to the EP candidate.
            if let Some(t) = sh.deques[self.id].take_top() {
                let (q, qprt) = self.prt_heap.peek().expect("shard owns >= 1 processor");
                let start = sh.lmt[t as usize].load(Ordering::Relaxed).max(qprt);
                self.stats.non_ep_selections += 1;
                self.place(sh, t, q, start);
                return true;
            }
            if let Some((p, _)) = self.active.peek() {
                return self.place_ep_head(sh, p);
            }
        }
        false
    }

    /// Places the head of processor `p`'s EP list on `p`.
    fn place_ep_head(&mut self, sh: &Shared<'_>, p: u32) -> bool {
        let head = self.lmt_root[p as usize];
        debug_assert_ne!(head, NONE, "active processor without EP tasks");
        let keys = LmtKeys {
            lmt: &sh.lmt,
            bl: &sh.bl,
        };
        self.lmt_root[p as usize] = self.forest.pop_min(&keys, head);
        let start = sh.lmt[head as usize]
            .load(Ordering::Relaxed)
            .max(self.prt[p as usize]);
        self.stats.ep_selections += 1;
        self.place(sh, head, p, start);
        true
    }

    /// Appends `t` on owned processor `p` at `start`, then runs the
    /// demotion sweep and the successor scan.
    fn place(&mut self, sh: &Shared<'_>, t: u32, p: u32, start: Time) {
        debug_assert!(self.owns(p));
        debug_assert!(start >= self.prt[p as usize], "append before PRT");
        // Exactly-once accounting first: a second placement of the same
        // task (possible only with a broken steal commit) poisons the
        // run before it can corrupt the placement arenas.
        if sh.times_placed[t as usize].fetch_add(1, Ordering::AcqRel) != 0 {
            self.stats.duplicates += 1;
            sh.poisoned.store(true, Ordering::Release);
            return;
        }
        let finish = start + sh.g.comp(t) * sh.slow[p as usize];
        self.last_inc = finish - start;
        sh.proc_of[t as usize].store(p, Ordering::Relaxed);
        sh.start[t as usize].store(start, Ordering::Relaxed);
        sh.finish[t as usize].store(finish, Ordering::Release);
        self.prt[p as usize] = finish;
        self.prt_heap.update(p, finish);
        self.stats.placed += 1;
        sh.n_placed.fetch_add(1, Ordering::AcqRel);

        // Demotion sweep (the paper's UpdateTaskLists): EP tasks whose
        // LMT fell below the grown PRT(p) become non-EP deque work.
        loop {
            let head = self.lmt_root[p as usize];
            if head == NONE {
                break;
            }
            if sh.lmt[head as usize].load(Ordering::Relaxed) >= finish {
                break;
            }
            let keys = LmtKeys {
                lmt: &sh.lmt,
                bl: &sh.bl,
            };
            self.lmt_root[p as usize] = self.forest.pop_min(&keys, head);
            sh.deques[self.id].push(head);
            self.stats.demotions += 1;
        }
        self.refresh_active(sh, p);

        // Successor scan (the paper's UpdateReadyTasks): the worker that
        // performs a task's final predecessor decrement computes its
        // conservative LMT + EP and routes it toward the EP's shard.
        for (s, _) in sh.g.succs(t) {
            if sh.missing[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.make_ready(sh, s);
            }
        }
    }

    /// Computes the conservative LMT and the enabling processor of a
    /// newly ready task (single predecessor scan; communication is
    /// charged even from the EP, which is why N>1 replay is `NoLater`
    /// rather than `Exact`), then routes the task to the EP's shard.
    fn make_ready(&mut self, sh: &Shared<'_>, s: u32) {
        let mut best: Option<(Time, Reverse<u32>, Reverse<u32>)> = None;
        for (q, w) in sh.g.preds(s) {
            let arrival = sh.finish[q as usize].load(Ordering::Acquire) + w;
            let cand = (
                arrival,
                Reverse(sh.proc_of[q as usize].load(Ordering::Relaxed)),
                Reverse(q),
            );
            if best.is_none_or(|b| cand > b) {
                best = Some(cand);
            }
        }
        let (lmt, Reverse(ep), _) = best.expect("make_ready is only called for tasks with preds");
        sh.lmt[s as usize].store(lmt, Ordering::Relaxed);
        sh.ep[s as usize].store(ep, Ordering::Relaxed);
        let dest = sh.shard_of_proc[ep as usize] as usize;
        if dest == self.id {
            self.enqueue_local(sh, s);
        } else if sh.deques[dest].len() > sh.deques[self.id].len() + ROUTE_BACKLOG_SLACK {
            // The EP's shard is drowning; keep the task here (it lands
            // on our deque — the EP is not ours, so `enqueue_local`
            // classifies it non-EP) instead of feeding the backlog.
            self.enqueue_local(sh, s);
        } else {
            self.stats.routed_out += 1;
            sh.push_inbox(dest, s);
        }
    }

    /// First half of a steal from a PRNG-chosen victim. The commit runs
    /// on the *next* step, which is exactly the window the interleaver
    /// widens to reproduce steal races.
    fn try_steal_begin(&mut self, sh: &Shared<'_>) -> bool {
        let n = sh.num_shards();
        if n == 1 {
            return false;
        }
        let r = self.rng.random_range(0..n - 1);
        let victim = if r >= self.id { r + 1 } else { r };
        match sh.stealers[victim].steal_begin() {
            Some(tok) => {
                self.pending = Some(PendingSteal { victim, tok });
                true
            }
            None => false,
        }
    }
}
