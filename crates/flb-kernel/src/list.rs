//! The five FLB lists as flat, preallocated, index-linked structures.
//!
//! Three shapes cover all of them:
//!
//! * [`FlatHeap`] — an indexed binary min-heap over a fixed universe of
//!   `u32` ids, every array sized once at construction. Each slot holds
//!   its `(key, id)` pair inline, so a sift reads only the slots it
//!   moves; comparisons fold to flag arithmetic (no data-dependent
//!   branch), and the minimum child is picked by index arithmetic. A
//!   root replacement — a pop, or a key increase such as the `PRT` of the
//!   processor just used — runs bottom-up: the hole walks the min-child
//!   path to a leaf with one comparison per level, then the displaced
//!   entry sifts up from there, which is short because it is usually
//!   large. Semantically a `u32` twin of
//!   `flb_ds::IndexedMinHeap` (ties on equal keys go to the smaller id),
//!   but with the guarantee that no operation ever allocates. Backs the
//!   global non-EP task list and both processor lists.
//! * [`PairingForest`] — `P` pairing heaps sharing three per-task link
//!   arrays (`child`/`sib`/`prev`). The per-processor `EMT_EP_task_l[p]`
//!   lists cannot each own a `V`-capacity binary heap (that would be
//!   `O(V·P)` memory), but a task is in at most one processor's list at a
//!   time, so all `P` heaps fit in one shared set of links with a root
//!   slot per processor. Keys are *not* stored: every operation takes the
//!   key array and the tie-break array as arguments and compares
//!   `(time[v], Reverse(bl[v]), v)` — a strict total order, so the
//!   minimum is unique and the forest is deterministic. A caller may drop
//!   a whole heap by forgetting its root: the dropped nodes keep stale
//!   links, which is safe as long as none of them is inserted again (the
//!   kernel's lazy EMT deletion relies on exactly this). Pairing heaps
//!   give O(1) insert/meld and amortised `O(log n)` delete-min and
//!   arbitrary delete.
//! * [`RadixLists`] — the per-processor `LMT_EP_task_l[p]` lists as radix
//!   buckets (Ahuja, Mehlhorn, Orlin & Tarjan, J. ACM 1990), sharing two
//!   per-task link arrays (`next`/`prev`). FLB asks those lists only
//!   which tasks fell below a threshold `PRT(p)` that never decreases,
//!   and inserts only at keys at or above it. A task sits on the doubly
//!   linked list of bucket `msb((LMT ^ floor[p]) | 1)`, a 64-bit mask per
//!   processor marks the non-empty buckets, and a lower bound on the
//!   queued keys settles most queries with one comparison. Insert and
//!   remove are O(1). A query that demotes empties every bucket below the
//!   threshold's bucket `k`, splits bucket `k` against the new floor
//!   (its remaining tasks fall to lower buckets) and leaves the buckets
//!   above `k` alone, since their index against the new floor is the
//!   same. A task only ever moves to a lower bucket, so it moves at most
//!   64 times: `O(V)` for all the lists over a whole run. Demoted tasks
//!   come out in bucket order, not key order; the caller's non-EP heap
//!   orders them.
//!
//! Together they meet the `O(V (log W + log P) + E)` bound of the paper
//! with a constant factor small enough for million-task graphs.

use crate::graph::NONE;
use flb_graph::Time;
use std::cmp::Reverse;

/// One heap slot: the key stored next to its id.
#[derive(Clone, Copy, Debug)]
struct Entry<K> {
    key: K,
    id: u32,
}

/// An indexed binary min-heap over ids `0..universe`, ties to the smaller
/// id. All storage is allocated in [`FlatHeap::new`]; no later operation
/// allocates.
#[derive(Clone, Debug)]
pub struct FlatHeap<K> {
    /// Heap slots, each holding its `(key, id)` inline.
    heap: Vec<Entry<K>>,
    /// id -> heap slot, or `NONE` when absent.
    pos: Vec<u32>,
}

impl<K: Copy + Ord> FlatHeap<K> {
    /// An empty heap over ids `0..universe`.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        FlatHeap {
            heap: Vec::with_capacity(universe),
            pos: vec![NONE; universe],
        }
    }

    // flb-analyze: region(no-alloc)
    // Every FlatHeap operation past construction is allocation-free;
    // tests/alloc_free.rs asserts the same boundary with a counting
    // allocator.

    /// Number of ids currently in the heap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `id` is in the heap.
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        self.pos[id as usize] != NONE
    }

    /// The key of `id`, if present.
    #[must_use]
    pub fn key_of(&self, id: u32) -> Option<K> {
        let slot = self.pos[id as usize];
        (slot != NONE).then(|| self.heap[slot as usize].key)
    }

    /// Minimum entry `(id, key)` without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<(u32, K)> {
        self.heap.first().map(|e| (e.id, e.key))
    }

    /// Inserts `id` with `key`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `id` is already present.
    pub fn insert(&mut self, id: u32, key: K) {
        debug_assert!(!self.contains(id), "duplicate insert of {id}");
        let entry = Entry { key, id };
        let slot = self.heap.len();
        // flb-analyze: allow(no-alloc-in-hot-loop, reason="heap was built with Vec::with_capacity(universe) in new(), and the duplicate-insert debug_assert keeps len <= universe, so this push never reallocates")
        self.heap.push(entry);
        self.sift_up(slot, entry);
    }

    /// Inserts `id` or replaces its key.
    pub fn insert_or_update(&mut self, id: u32, key: K) {
        if self.contains(id) {
            self.update(id, key);
        } else {
            self.insert(id, key);
        }
    }

    /// Replaces the key of a present `id` (any direction). A larger key
    /// re-seats the entry bottom-up.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `id` is absent.
    pub fn update(&mut self, id: u32, key: K) {
        debug_assert!(self.contains(id), "update of absent {id}");
        let slot = self.pos[id as usize] as usize;
        let old = self.heap[slot].key;
        if key == old {
            return;
        }
        let entry = Entry { key, id };
        if key < old {
            self.sift_up(slot, entry);
        } else {
            self.sift_down(slot, entry);
        }
    }

    /// Removes and returns the minimum entry; the last slot refills the
    /// root bottom-up.
    pub fn pop(&mut self) -> Option<(u32, K)> {
        let &min = self.heap.first()?;
        let last = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        self.pos[min.id as usize] = NONE;
        Some((min.id, min.key))
    }

    /// Removes `id`, returning its key if it was present.
    pub fn remove(&mut self, id: u32) -> Option<K> {
        let slot = self.pos[id as usize];
        if slot == NONE {
            return None;
        }
        let slot = slot as usize;
        let gone = self.heap[slot];
        let last = self.heap.pop()?;
        self.pos[id as usize] = NONE;
        if slot < self.heap.len() {
            // Re-seat the last entry in the vacated slot: it may belong
            // either above or below it.
            if Self::less(&last, &gone) {
                self.sift_up(slot, last);
            } else {
                self.sift_down(slot, last);
            }
        }
        Some(gone.key)
    }

    /// `(a.key, a.id) < (b.key, b.id)` without short-circuit branches:
    /// the comparisons are evaluated as flags and combined with bit ops,
    /// so the compiler can lower a sift step to conditional moves.
    #[inline(always)]
    fn less(a: &Entry<K>, b: &Entry<K>) -> bool {
        (a.key < b.key) | ((a.key == b.key) & (a.id < b.id))
    }

    /// Writes `entry` into `slot` and records its position.
    #[inline(always)]
    fn set(&mut self, slot: usize, entry: Entry<K>) {
        self.heap[slot] = entry;
        self.pos[entry.id as usize] = slot as u32;
    }

    /// Seats `entry` at `slot` or above it, moving larger parents down.
    fn sift_up(&mut self, mut slot: usize, entry: Entry<K>) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            let above = self.heap[parent];
            if !Self::less(&entry, &above) {
                break;
            }
            self.set(slot, above);
            slot = parent;
        }
        self.set(slot, entry);
    }

    /// Seats `entry` at `slot` or below it, bottom-up: the hole first
    /// descends the min-child path to a leaf (one branch-free comparison
    /// per level), then `entry` sifts up from there, never above `slot`.
    fn sift_down(&mut self, slot: usize, entry: Entry<K>) {
        let n = self.heap.len();
        let mut hole = slot;
        let mut child = 2 * hole + 1;
        while child + 1 < n {
            child += usize::from(Self::less(&self.heap[child + 1], &self.heap[child]));
            self.set(hole, self.heap[child]);
            hole = child;
            child = 2 * hole + 1;
        }
        if child + 1 == n {
            self.set(hole, self.heap[child]);
            hole = child;
        }
        while hole > slot {
            let parent = (hole - 1) / 2;
            let above = self.heap[parent];
            if !Self::less(&entry, &above) {
                break;
            }
            self.set(hole, above);
            hole = parent;
        }
        self.set(hole, entry);
    }

    // flb-analyze: region-end(no-alloc)
}

/// The comparison keys a [`PairingForest`] reads: `(time, bottom level)`
/// per node, compared as `(time[a], Reverse(bl[a]), a)` — a strict total
/// order. Keys must not change while a node is linked into a heap (the
/// usual heap contract).
#[derive(Clone, Copy, Debug)]
pub struct SliceKeys<'a> {
    /// Primary key per node.
    pub time: &'a [Time],
    /// Tie-break bottom level per node.
    pub bl: &'a [Time],
}

/// `P` pairing heaps over a shared universe of `V` nodes.
///
/// The caller owns the root of each heap (`NONE` = empty) and the key
/// source; every operation returns the new root. Nodes must be in at most
/// one heap of a forest at a time — exactly FLB's invariant that a task is
/// enabled by one processor.
#[derive(Clone, Debug)]
pub struct PairingForest {
    /// First child of a node, or `NONE`.
    child: Vec<u32>,
    /// Next sibling, or `NONE`. Doubles as the scratch stack link during
    /// the two-pass combine, so no auxiliary storage is ever needed.
    sib: Vec<u32>,
    /// Previous sibling — or the parent when the node is a first child
    /// (distinguished by `child[prev[v]] == v`). `NONE` for roots.
    prev: Vec<u32>,
}

/// `(time(a), Reverse(bl(a)), a) < (time(b), Reverse(bl(b)), b)` — the
/// paper's task ordering: earlier time first, then larger bottom level,
/// then smaller id.
#[inline]
fn task_less(keys: &SliceKeys<'_>, a: u32, b: u32) -> bool {
    let (ai, bi) = (a as usize, b as usize);
    (keys.time[ai], Reverse(keys.bl[ai]), a) < (keys.time[bi], Reverse(keys.bl[bi]), b)
}

impl PairingForest {
    /// A forest over nodes `0..universe`, all heaps empty.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        PairingForest {
            child: vec![NONE; universe],
            sib: vec![NONE; universe],
            prev: vec![NONE; universe],
        }
    }

    // flb-analyze: region(no-alloc)
    // Pairing-heap links live in the three arrays sized at new();
    // meld/insert/combine/pop/remove only rewrite indices.
    // Every operation is `#[inline]` so `KernelRun`'s loop, compiled in
    // another codegen unit, can inline them.

    /// Melds two non-`NONE` roots; returns the winner.
    #[inline]
    fn meld(&mut self, keys: &SliceKeys<'_>, a: u32, b: u32) -> u32 {
        let (top, bot) = if task_less(keys, a, b) {
            (a, b)
        } else {
            (b, a)
        };
        let c = self.child[top as usize];
        self.sib[bot as usize] = c;
        if c != NONE {
            self.prev[c as usize] = bot;
        }
        self.prev[bot as usize] = top;
        self.child[top as usize] = bot;
        top
    }

    /// Inserts node `v` into the heap rooted at `root` (`NONE` = empty);
    /// returns the new root. `v` must not be in any heap of the forest.
    #[inline]
    #[must_use]
    pub fn insert(&mut self, keys: &SliceKeys<'_>, root: u32, v: u32) -> u32 {
        debug_assert!(
            self.child[v as usize] == NONE
                && self.sib[v as usize] == NONE
                && self.prev[v as usize] == NONE,
            "insert of linked node {v}"
        );
        if root == NONE {
            v
        } else {
            self.meld(keys, root, v)
        }
    }

    /// Two-pass pairing combine of a sibling list starting at `first`
    /// (whose `prev` must already be cleared); returns the resulting root.
    #[inline]
    fn combine_siblings(&mut self, keys: &SliceKeys<'_>, first: u32) -> u32 {
        // Pass 1: meld adjacent pairs left to right, stacking the winners
        // through their (now free) `sib` links.
        let mut stack = NONE;
        let mut cur = first;
        while cur != NONE {
            let a = cur;
            let b = self.sib[a as usize];
            if b == NONE {
                self.prev[a as usize] = NONE;
                self.sib[a as usize] = stack;
                stack = a;
                break;
            }
            let next = self.sib[b as usize];
            self.sib[a as usize] = NONE;
            self.prev[a as usize] = NONE;
            self.sib[b as usize] = NONE;
            self.prev[b as usize] = NONE;
            let w = self.meld(keys, a, b);
            self.sib[w as usize] = stack;
            stack = w;
            cur = next;
        }
        // Pass 2: fold the stack right to left into one tree.
        let mut root = NONE;
        let mut cur = stack;
        while cur != NONE {
            let next = self.sib[cur as usize];
            self.sib[cur as usize] = NONE;
            root = if root == NONE {
                cur
            } else {
                self.meld(keys, root, cur)
            };
            cur = next;
        }
        root
    }

    /// Removes the minimum (the root itself); returns the new root.
    #[inline]
    #[must_use]
    pub fn pop_min(&mut self, keys: &SliceKeys<'_>, root: u32) -> u32 {
        debug_assert_ne!(root, NONE, "pop from empty heap");
        let c = self.child[root as usize];
        self.child[root as usize] = NONE;
        if c == NONE {
            return NONE;
        }
        self.prev[c as usize] = NONE;
        self.combine_siblings(keys, c)
    }

    /// Removes an arbitrary node `v` from the heap rooted at `root`;
    /// returns the new root.
    #[inline]
    #[must_use]
    pub fn remove(&mut self, keys: &SliceKeys<'_>, root: u32, v: u32) -> u32 {
        if v == root {
            return self.pop_min(keys, root);
        }
        // Unlink v from its sibling list (it has a prev: it is not a root).
        let p = self.prev[v as usize];
        let s = self.sib[v as usize];
        debug_assert_ne!(p, NONE, "non-root node without prev link");
        if self.child[p as usize] == v {
            self.child[p as usize] = s;
        } else {
            self.sib[p as usize] = s;
        }
        if s != NONE {
            self.prev[s as usize] = p;
        }
        self.sib[v as usize] = NONE;
        self.prev[v as usize] = NONE;
        let c = self.child[v as usize];
        self.child[v as usize] = NONE;
        if c == NONE {
            return root;
        }
        self.prev[c as usize] = NONE;
        let t = self.combine_siblings(keys, c);
        self.meld(keys, root, t)
    }

    // flb-analyze: region-end(no-alloc)
}

/// Bucket of a key whose bits differ from its processor's floor in
/// `diff = key ^ floor`: the index of the highest differing bit, with bit 0
/// folded into bucket 0 so that 64 buckets cover every `u64` key.
#[inline(always)]
fn bucket_of(diff: Time) -> usize {
    // `& 63` is a no-op that lets the compiler drop the bounds checks.
    (63 - (diff | 1).leading_zeros() as usize) & 63
}

/// The smallest key at or above `floor` that bucket `b` can hold.
#[inline(always)]
fn bucket_floor(floor: Time, b: usize) -> Time {
    ((floor >> b) | Time::from(b != 0)) << b
}

/// `P` monotone priority queues over a shared universe of `V` nodes, as
/// radix buckets (see the module docs).
///
/// Each processor has a floor and 64 buckets: bucket `b ≥ 1` holds the
/// keys that agree with the floor above bit `b` and have bit `b` set,
/// bucket 0 the floor and its bit-0 neighbour, so every key of a bucket
/// is below every key of a higher one. A mask marks the non-empty
/// buckets, and a lower bound on the queued keys answers most queries
/// with one comparison. Keys are
/// not stored: [`insert`](Self::insert) and [`remove`](Self::remove) take
/// the task's key, which must not change while it is queued, and
/// [`demote_below`](Self::demote_below) takes the key array.
#[derive(Clone, Debug)]
pub struct RadixLists {
    /// Next task on the same bucket list, or `NONE`.
    next: Vec<u32>,
    /// Previous task on the same bucket list, or `NONE` at the head.
    prev: Vec<u32>,
    /// One set of buckets per processor.
    procs: Vec<Buckets>,
}

/// One processor's buckets, with the floor, bound and mask next to the
/// low buckets' heads.
#[derive(Clone, Debug)]
#[repr(align(64))]
struct Buckets {
    /// The key every bucket index is relative to.
    floor: Time,
    /// No queued key is below it; meaningless when nothing is queued.
    lo: Time,
    /// Bit `b` set when bucket `b` is non-empty.
    mask: u64,
    /// First task of each bucket, or `NONE`.
    head: [u32; 64],
}

impl Buckets {
    // flb-analyze: region(no-alloc)

    /// Links task `v` in at the head of bucket `b`.
    #[inline(always)]
    fn link(&mut self, next: &mut [u32], prev: &mut [u32], b: usize, v: u32) {
        let h = self.head[b];
        self.head[b] = v;
        self.mask |= 1 << b;
        next[v as usize] = h;
        prev[v as usize] = NONE;
        if h != NONE {
            prev[h as usize] = v;
        }
    }

    // flb-analyze: region-end(no-alloc)
}

impl RadixLists {
    /// Empty lists for `procs` processors over nodes `0..universe`.
    #[must_use]
    pub fn new(universe: usize, procs: usize) -> Self {
        let empty = Buckets {
            floor: 0,
            lo: 0,
            mask: 0,
            head: [NONE; 64],
        };
        RadixLists {
            next: vec![NONE; universe],
            prev: vec![NONE; universe],
            procs: vec![empty; procs],
        }
    }

    // flb-analyze: region(no-alloc)
    // Bucket links live in the arrays sized at new(); insert, remove,
    // demote_below and split_below only rewrite indices, bounds and masks.

    /// Whether processor `p` has no queued task.
    #[must_use]
    #[inline]
    pub fn is_empty_at(&self, p: u32) -> bool {
        self.procs[p as usize].mask == 0
    }

    /// Queues task `v` on processor `p` with `key`, which must be no smaller
    /// than the last threshold passed to [`demote_below`](Self::demote_below)
    /// for `p`. `v` must not be queued anywhere.
    pub fn insert(&mut self, p: u32, v: u32, key: Time) {
        let buckets = &mut self.procs[p as usize];
        debug_assert!(key >= buckets.floor, "insert of {v} below the floor");
        buckets.lo = if buckets.mask == 0 {
            key
        } else {
            buckets.lo.min(key)
        };
        let b = bucket_of(key ^ buckets.floor);
        buckets.link(&mut self.next, &mut self.prev, b, v);
    }

    /// Unlinks task `v`, queued on processor `p` with `key`.
    pub fn remove(&mut self, p: u32, v: u32, key: Time) {
        let (prev, next) = (self.prev[v as usize], self.next[v as usize]);
        if next != NONE {
            self.prev[next as usize] = prev;
        }
        if prev != NONE {
            self.next[prev as usize] = next;
            return;
        }
        let buckets = &mut self.procs[p as usize];
        let b = bucket_of(key ^ buckets.floor);
        debug_assert_eq!(buckets.head[b], v, "{v} is not queued on {p}");
        buckets.head[b] = next;
        if next == NONE {
            buckets.mask &= !(1 << b);
        }
    }

    /// Dequeues every task of processor `p` whose key is below `threshold`,
    /// handing each to `demote` in no particular order, and returns how
    /// many there were. `threshold` must not decrease between calls for
    /// the same `p`; `keys[v]` is the key task `v` was queued with.
    ///
    /// Returns at once when `threshold` is at most the lower bound, and
    /// demotes a lone queued task without touching the buckets. Otherwise
    /// it runs `split_below`.
    #[inline]
    pub fn demote_below(
        &mut self,
        p: u32,
        threshold: Time,
        keys: &[Time],
        mut demote: impl FnMut(u32),
    ) -> usize {
        let buckets = &mut self.procs[p as usize];
        debug_assert!(threshold >= buckets.floor, "threshold fell on {p}");
        let mask = buckets.mask;
        if mask == 0 {
            // Nothing queued: move the floor up so later inserts land in
            // low buckets.
            buckets.floor = threshold;
            return 0;
        }
        if threshold <= buckets.lo {
            return 0;
        }
        if mask.is_power_of_two() {
            let b = mask.trailing_zeros() as usize;
            let v = buckets.head[b];
            if self.next[v as usize] == NONE && keys[v as usize] < threshold {
                buckets.head[b] = NONE;
                buckets.mask = 0;
                buckets.floor = threshold;
                demote(v);
                return 1;
            }
        }
        self.split_below(p, threshold, keys, demote)
    }

    /// The general case of [`demote_below`](Self::demote_below), kept out of
    /// line so the common cases stay small. With `k` the bucket `threshold`
    /// falls in, it empties every bucket below `k` (all of their keys are
    /// below `threshold`), splits bucket `k` into demoted tasks and tasks
    /// re-bucketed against the new floor `threshold` (all in buckets below
    /// `k`), and leaves the buckets above `k` as they are (their index
    /// against `threshold` is their index against the old floor).
    #[inline(never)]
    fn split_below(
        &mut self,
        p: u32,
        threshold: Time,
        keys: &[Time],
        mut demote: impl FnMut(u32),
    ) -> usize {
        let buckets = &mut self.procs[p as usize];
        let k = bucket_of(threshold ^ buckets.floor);
        buckets.floor = threshold;
        let mut n = 0;
        let below = (1u64 << k) - 1;
        let mut drain = buckets.mask & below;
        buckets.mask &= !below;
        while drain != 0 {
            let b = drain.trailing_zeros() as usize;
            drain &= drain - 1;
            let mut v = buckets.head[b];
            buckets.head[b] = NONE;
            while v != NONE {
                demote(v);
                n += 1;
                v = self.next[v as usize];
            }
        }
        // The lowest bucket above `k` bounds the keys it and the buckets
        // over it hold; the tasks re-bucketed from `k` are bounded one by
        // one.
        let above = buckets.mask & !(1 << k);
        let mut lo = if above == 0 {
            Time::MAX
        } else {
            bucket_floor(threshold, above.trailing_zeros() as usize)
        };
        if buckets.mask & (1 << k) != 0 {
            let mut v = buckets.head[k];
            buckets.head[k] = NONE;
            buckets.mask &= !(1 << k);
            while v != NONE {
                let next = self.next[v as usize];
                let key = keys[v as usize];
                if key < threshold {
                    demote(v);
                    n += 1;
                } else {
                    lo = lo.min(key);
                    let b = bucket_of(key ^ threshold);
                    buckets.link(&mut self.next, &mut self.prev, b, v);
                }
                v = next;
            }
        }
        buckets.lo = lo;
        n
    }

    // flb-analyze: region-end(no-alloc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_heap_orders_and_breaks_ties_by_id() {
        let mut h: FlatHeap<(Time, Reverse<Time>)> = FlatHeap::new(8);
        h.insert(3, (5, Reverse(0)));
        h.insert(1, (5, Reverse(0)));
        h.insert(7, (2, Reverse(0)));
        assert_eq!(h.peek(), Some((7, (2, Reverse(0)))));
        assert_eq!(h.pop().map(|(i, _)| i), Some(7));
        // Equal keys: smaller id first.
        assert_eq!(h.pop().map(|(i, _)| i), Some(1));
        assert_eq!(h.pop().map(|(i, _)| i), Some(3));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn flat_heap_larger_bottom_level_wins_time_ties() {
        let mut h: FlatHeap<(Time, Reverse<Time>)> = FlatHeap::new(4);
        h.insert(0, (5, Reverse(1)));
        h.insert(1, (5, Reverse(9)));
        assert_eq!(h.peek().map(|(i, _)| i), Some(1));
    }

    #[test]
    fn flat_heap_update_and_remove() {
        let mut h: FlatHeap<Time> = FlatHeap::new(5);
        for id in 0..5u32 {
            h.insert(id, 10 + Time::from(id));
        }
        h.update(4, 1);
        assert_eq!(h.peek(), Some((4, 1)));
        assert_eq!(h.remove(4), Some(1));
        assert_eq!(h.remove(4), None);
        assert!(!h.contains(4));
        h.insert_or_update(2, 0);
        assert_eq!(h.peek(), Some((2, 0)));
        h.insert_or_update(4, 99);
        assert_eq!(h.len(), 5);
        assert_eq!(h.key_of(4), Some(99));
    }

    /// A tiny LCG driving the model tests' operation sequences.
    fn lcg(seed: u64) -> impl FnMut() -> usize {
        let mut x = seed;
        move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        }
    }

    /// Drives a `FlatHeap` and a `BTreeSet<(key, id)>` model through the
    /// same random insert / update (up, down, at the root) / remove / pop
    /// sequence and checks they agree after every operation. Keys come
    /// from a small range so equal keys are common and must go to the
    /// smaller id.
    fn flat_heap_matches_model<K: Copy + Ord + std::fmt::Debug>(
        universe: usize,
        seed: u64,
        key: impl Fn(usize) -> K,
    ) {
        use std::collections::BTreeSet;
        let mut h: FlatHeap<K> = FlatHeap::new(universe);
        let mut model: BTreeSet<(K, u32)> = BTreeSet::new();
        let mut keys: Vec<Option<K>> = vec![None; universe];
        let mut rng = lcg(seed);
        for _ in 0..20_000 {
            let id = (rng() % universe) as u32;
            let k = key(rng());
            match rng() % 6 {
                0 | 1 => {
                    if let Some(old) = keys[id as usize] {
                        assert_eq!(h.key_of(id), Some(old));
                    } else {
                        h.insert(id, k);
                        model.insert((k, id));
                        keys[id as usize] = Some(k);
                    }
                }
                2 => {
                    // Update any present id, or the root itself half the
                    // time, in whichever direction the new key falls.
                    let id = match model.first() {
                        Some(&(_, root)) if rng().is_multiple_of(2) => root,
                        _ => id,
                    };
                    if let Some(old) = keys[id as usize] {
                        h.update(id, k);
                        model.remove(&(old, id));
                        model.insert((k, id));
                        keys[id as usize] = Some(k);
                    }
                }
                3 => {
                    h.insert_or_update(id, k);
                    if let Some(old) = keys[id as usize] {
                        model.remove(&(old, id));
                    }
                    model.insert((k, id));
                    keys[id as usize] = Some(k);
                }
                4 => {
                    let got = h.remove(id);
                    assert_eq!(got, keys[id as usize]);
                    if let Some(old) = keys[id as usize].take() {
                        model.remove(&(old, id));
                    }
                    assert!(!h.contains(id));
                }
                _ => {
                    let want = model.pop_first().map(|(k, id)| (id, k));
                    assert_eq!(h.pop(), want);
                    if let Some((id, _)) = want {
                        keys[id as usize] = None;
                    }
                }
            }
            assert_eq!(h.len(), model.len());
            assert_eq!(h.peek(), model.first().map(|&(k, id)| (id, k)));
        }
        let drained: Vec<_> = std::iter::from_fn(|| h.pop()).collect();
        let expect: Vec<_> = model.iter().map(|&(k, id)| (id, k)).collect();
        assert_eq!(drained, expect);
        assert!(h.is_empty());
    }

    #[test]
    fn flat_heap_matches_model_on_time_keys() {
        for (universe, seed) in [(3, 1), (64, 2), (300, 3)] {
            flat_heap_matches_model(universe, seed, |r| (r % 17) as Time);
        }
    }

    #[test]
    fn flat_heap_matches_model_on_task_keys() {
        for (universe, seed) in [(3, 4), (64, 5), (300, 6)] {
            flat_heap_matches_model(universe, seed, |r| {
                ((r % 5) as Time, Reverse((r / 5 % 3) as Time))
            });
        }
    }

    /// A heap dropped by forgetting its root leaves stale links on its
    /// nodes; the root slot must still take fresh nodes, and the stale
    /// nodes must not disturb the other heap of the forest.
    #[test]
    fn pairing_forest_reuses_a_root_slot_after_a_wholesale_drop() {
        let n = 64usize;
        let time: Vec<Time> = (0..n).map(|i| ((i * 29) % 13) as Time).collect();
        let bl: Vec<Time> = (0..n).map(|i| (i % 3) as Time).collect();
        let keys = SliceKeys {
            time: &time,
            bl: &bl,
        };
        let key = |v: u32| (time[v as usize], Reverse(bl[v as usize]), v);
        let mut f = PairingForest::new(n);
        let (mut dropped, mut other) = (NONE, NONE);
        // Build two heaps, pop a few to leave real structure behind.
        for v in 0..32u32 {
            dropped = f.insert(&keys, dropped, v);
        }
        for v in 32..48u32 {
            other = f.insert(&keys, other, v);
        }
        for _ in 0..5 {
            dropped = f.pop_min(&keys, dropped);
        }
        // Drop the first heap wholesale, then reuse its slot.
        let mut slot = NONE;
        let mut model: std::collections::BTreeSet<_> = (48..n as u32).map(key).collect();
        for v in 48..n as u32 {
            slot = f.insert(&keys, slot, v);
        }
        let mut other_model: std::collections::BTreeSet<_> = (32..48u32).map(key).collect();
        other = f.remove(&keys, other, 40);
        other_model.remove(&key(40));
        slot = f.remove(&keys, slot, 57);
        model.remove(&key(57));
        for (mut root, m) in [(slot, model), (other, other_model)] {
            let mut drained = Vec::new();
            while root != NONE {
                drained.push(key(root));
                root = f.pop_min(&keys, root);
            }
            assert_eq!(drained, m.into_iter().collect::<Vec<_>>());
        }
    }

    /// Differential test: the forest agrees with a sorted-set model under
    /// a long random-ish operation sequence, across two interleaved heaps.
    #[test]
    fn pairing_forest_matches_model() {
        let n = 200usize;
        let time: Vec<Time> = (0..n).map(|i| ((i * 37) % 23) as Time).collect();
        let bl: Vec<Time> = (0..n).map(|i| ((i * 11) % 7) as Time).collect();
        let key = |v: u32| (time[v as usize], Reverse(bl[v as usize]), v);

        let mut f = PairingForest::new(n);
        let mut roots = [NONE, NONE];
        let mut model: [std::collections::BTreeSet<_>; 2] = Default::default();
        let mut rng = lcg(12345);
        let mut present = vec![false; n];
        for _ in 0..5000 {
            let h = rng() % 2;
            match rng() % 4 {
                0 | 1 => {
                    let v = (rng() % n) as u32;
                    if !present[v as usize] {
                        roots[h] = f.insert(
                            &SliceKeys {
                                time: &time,
                                bl: &bl,
                            },
                            roots[h],
                            v,
                        );
                        model[h].insert(key(v));
                        present[v as usize] = true;
                    }
                }
                2 => {
                    if roots[h] != NONE {
                        let min = roots[h];
                        assert_eq!(key(min), *model[h].iter().next().unwrap());
                        roots[h] = f.pop_min(
                            &SliceKeys {
                                time: &time,
                                bl: &bl,
                            },
                            roots[h],
                        );
                        model[h].remove(&key(min));
                        present[min as usize] = false;
                    }
                }
                _ => {
                    // Remove an arbitrary present element of heap h.
                    if let Some(&k) = model[h].iter().nth(rng() % model[h].len().max(1)) {
                        let v = k.2;
                        roots[h] = f.remove(
                            &SliceKeys {
                                time: &time,
                                bl: &bl,
                            },
                            roots[h],
                            v,
                        );
                        model[h].remove(&k);
                        present[v as usize] = false;
                    }
                }
            }
            // The root is always the model minimum.
            for (r, m) in roots.iter().zip(&model) {
                match m.iter().next() {
                    None => assert_eq!(*r, NONE),
                    Some(&k) => assert_eq!(key(*r), k),
                }
            }
        }
        // Drain both heaps fully in sorted order.
        for h in 0..2 {
            let mut drained = Vec::new();
            while roots[h] != NONE {
                drained.push(key(roots[h]));
                roots[h] = f.pop_min(
                    &SliceKeys {
                        time: &time,
                        bl: &bl,
                    },
                    roots[h],
                );
            }
            let expect: Vec<_> = model[h].iter().copied().collect();
            assert_eq!(drained, expect);
        }
    }

    /// Walks processor `p`'s buckets, checks the structure's invariants
    /// (mask bits, back links, each task in the bucket its key and the
    /// floor give, the floor and the bound below every key) and returns
    /// the queued `(key, id)` pairs.
    fn radix_contents(rl: &RadixLists, p: usize, keys: &[Time]) -> Vec<(Time, u32)> {
        let buckets = &rl.procs[p];
        let mut out = Vec::new();
        for b in 0..64 {
            let mut v = buckets.head[b];
            assert_eq!(buckets.mask >> b & 1 == 1, v != NONE, "mask bit {b} of {p}");
            let mut prev = NONE;
            while v != NONE {
                let key = keys[v as usize];
                assert_eq!(rl.prev[v as usize], prev, "back link of {v}");
                assert_eq!(bucket_of(key ^ buckets.floor), b, "bucket of {v}");
                assert!(key >= buckets.floor && key >= buckets.lo, "bound above {v}");
                out.push((key, v));
                prev = v;
                v = rl.next[v as usize];
            }
        }
        out.sort_unstable();
        out
    }

    /// Differential test of `RadixLists` against one `BTreeSet<(key, id)>`
    /// per processor: random inserts at keys no smaller than the
    /// processor's last threshold, removes of arbitrary queued tasks, and
    /// `demote_below` at thresholds that never decrease. Keys repeat, and
    /// keys and thresholds cross bit 63 and reach `u64::MAX`. After every
    /// call the demoted set and every processor's contents match the model.
    #[test]
    fn radix_lists_match_model() {
        use std::collections::BTreeSet;
        const P: usize = 3;
        const N: usize = 300;
        let starts: [[Time; P]; 4] = [
            [0, 1, 1000],
            [(1 << 63) - 40, (1 << 63) - 1, 1 << 62],
            [Time::MAX - 200, Time::MAX - 1, Time::MAX],
            [0, (1 << 63) - 3, Time::MAX - 70],
        ];
        for (seed, start) in starts.into_iter().enumerate() {
            let mut rng = lcg(seed as u64 + 99);
            let mut rl = RadixLists::new(N, P);
            let mut keys = vec![0; N];
            let mut queued_on: Vec<Option<usize>> = vec![None; N];
            let mut model: Vec<BTreeSet<(Time, u32)>> = vec![BTreeSet::new(); P];
            let mut threshold = start;
            // A key or threshold at or above `base`: equal, a little above,
            // across the next bit boundary, far above, or the maximum.
            let above = |base: Time, r: usize| -> Time {
                match r % 7 {
                    0 => base,
                    1 | 2 => base.saturating_add((r / 7 % 5) as Time),
                    3 => base.saturating_add((r / 7 % 300) as Time),
                    4 => {
                        let bit = (r / 7 % 64) as u32;
                        (base | ((1 << bit) - 1)).saturating_add(1)
                    }
                    5 => base.saturating_add(1 << (r / 7 % 64)),
                    _ => Time::MAX,
                }
            };
            for _ in 0..20_000 {
                let p = rng() % P;
                match rng() % 9 {
                    0..=3 => {
                        let v = rng() % N;
                        if queued_on[v].is_none() {
                            let key = above(threshold[p], rng());
                            keys[v] = key;
                            rl.insert(p as u32, v as u32, key);
                            model[p].insert((key, v as u32));
                            queued_on[v] = Some(p);
                        }
                    }
                    4 | 5 => {
                        if !model[p].is_empty() {
                            let nth = rng() % model[p].len();
                            let (key, v) = *model[p].iter().nth(nth).unwrap();
                            rl.remove(p as u32, v, key);
                            model[p].remove(&(key, v));
                            queued_on[v as usize] = None;
                        }
                    }
                    _ => {
                        // Half the time, aim the threshold at a queued key
                        // or just past it.
                        let r = rng();
                        let target = match model[p].iter().nth(r % 8) {
                            Some(&(key, _)) if r.is_multiple_of(3) => key,
                            Some(&(key, _)) if r % 3 == 1 => key.saturating_add(1),
                            _ => above(threshold[p], rng()),
                        };
                        threshold[p] = threshold[p].max(target);
                        let mut got = Vec::new();
                        let n = rl.demote_below(p as u32, threshold[p], &keys, |v| got.push(v));
                        assert_eq!(n, got.len());
                        got.sort_unstable();
                        let keep = model[p].split_off(&(threshold[p], 0));
                        let mut want: Vec<u32> = model[p].iter().map(|&(_, v)| v).collect();
                        want.sort_unstable();
                        assert_eq!(got, want, "demoted set of {p} at {}", threshold[p]);
                        for &v in &got {
                            queued_on[v as usize] = None;
                        }
                        model[p] = keep;
                    }
                }
                for (q, m) in model.iter().enumerate() {
                    assert_eq!(
                        radix_contents(&rl, q, &keys),
                        m.iter().copied().collect::<Vec<_>>()
                    );
                    assert_eq!(rl.is_empty_at(q as u32), m.is_empty());
                }
            }
        }
    }
}
