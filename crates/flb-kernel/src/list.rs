//! The five FLB lists as flat, preallocated, index-linked structures.
//!
//! Two heaps hold entries by id; the per-processor EP lists link *slots*:
//!
//! * [`FlatHeap`] — an indexed binary min-heap over a fixed universe of
//!   `u32` ids, every array sized once at construction. Each heap entry
//!   holds its `(key, id)` pair inline, so a sift reads only the entries
//!   it moves; comparisons fold to flag arithmetic (no data-dependent
//!   branch), and the minimum child is picked by index arithmetic. A
//!   root replacement — a pop, or a key increase such as the `PRT` of the
//!   processor just used — runs bottom-up: the hole walks the min-child
//!   path to a leaf with one comparison per level, then the displaced
//!   entry sifts up from there, which is short because it is usually
//!   large. Semantically a `u32` twin of
//!   `flb_ds::IndexedMinHeap` (ties on equal keys go to the smaller id),
//!   but with the guarantee that no operation ever allocates. Backs both
//!   processor lists, which update and remove entries by id.
//! * [`PlainHeap`] — the same heap and sifts without the id-to-position
//!   map: it only inserts, peeks and pops. Backs the global non-EP task
//!   list, which never touches an entry below its root.
//! * [`SlotArena`] — the state of every task in an EP list, one 48-byte
//!   [`Slot`] each: both list keys (`EMT` and `LMT`), the bottom level
//!   that breaks `EMT` ties, the task id and the links of both lists. A
//!   task takes a slot from a free list when it enters an EP list and
//!   gives it back when its node leaves the EMT heap, so the arena holds
//!   as many slots as the EMT heaps ever held nodes at once, not one per
//!   task.
//! * [`PairingForest`] — the per-processor `EMT_EP_task_l[p]` lists as
//!   `P` pairing heaps over the arena's slots (child and sibling links).
//!   They cannot each own a `V`-capacity binary heap (that would be
//!   `O(V·P)` memory), but a task is in at most one processor's list at a
//!   time, so all `P` heaps share the one arena. Nodes compare by
//!   `(emt, Reverse(bl), task)` — a strict total order, so the minimum
//!   is unique and the forest is deterministic. A pop releases the root's
//!   slot, and a whole heap can be emptied at once, every slot released
//!   (the kernel's lazy EMT deletion relies on this). Pairing heaps give
//!   O(1) insert/meld and amortised `O(log n)` delete-min.
//! * [`RadixLists`] — the per-processor `LMT_EP_task_l[p]` lists as radix
//!   buckets (Ahuja, Mehlhorn, Orlin & Tarjan, J. ACM 1990) of slots,
//!   doubly linked through the slots. FLB asks those lists only
//!   which tasks fell below a threshold `PRT(p)` that never decreases,
//!   and inserts only at keys at or above it. A slot sits on the list of
//!   bucket `msb((LMT ^ floor[p]) | 1)`, a 64-bit mask per
//!   processor marks the non-empty buckets, and a lower bound on the
//!   queued keys settles most queries with one comparison. Insert and
//!   remove are O(1). A query that demotes empties every bucket below the
//!   threshold's bucket `k`, splits bucket `k` against the new floor
//!   (its remaining slots fall to lower buckets) and leaves the buckets
//!   above `k` alone, since their index against the new floor is the
//!   same. A slot only ever moves to a lower bucket, so it moves at most
//!   64 times: `O(V)` for all the lists over a whole run. Demoted tasks
//!   come out in bucket order, not key order; the caller's non-EP heap
//!   orders them.
//!
//! Together they meet the `O(V (log W + log P) + E)` bound of the paper
//! with a constant factor small enough for million-task graphs.

use crate::NONE;
use flb_graph::Time;
use std::cmp::Reverse;
use std::ops::Index;

/// One heap entry: the key stored next to its id.
#[derive(Clone, Copy, Debug)]
struct Entry<K> {
    key: K,
    id: u32,
}

// flb-analyze: region(no-alloc)
// The sifts both heaps share: they only move entries within the slice.

/// `(a.key, a.id) < (b.key, b.id)` without short-circuit branches:
/// the comparisons are evaluated as flags and combined with bit ops,
/// so the compiler can lower a sift step to conditional moves.
#[inline(always)]
fn less<K: Ord>(a: &Entry<K>, b: &Entry<K>) -> bool {
    (a.key < b.key) | ((a.key == b.key) & (a.id < b.id))
}

/// Seats `entry` at `slot` or above it, moving larger parents down.
/// `seated(id, slot)` is told where every written entry now sits.
#[inline(always)]
fn sift_up<K: Copy + Ord>(
    heap: &mut [Entry<K>],
    mut slot: usize,
    entry: Entry<K>,
    mut seated: impl FnMut(u32, usize),
) {
    while slot > 0 {
        let parent = (slot - 1) / 2;
        let above = heap[parent];
        if !less(&entry, &above) {
            break;
        }
        heap[slot] = above;
        seated(above.id, slot);
        slot = parent;
    }
    heap[slot] = entry;
    seated(entry.id, slot);
}

/// Seats `entry` at `slot` or below it, bottom-up: the hole first
/// descends the min-child path to a leaf (one branch-free comparison
/// per level), then `entry` sifts up from there, never above `slot`.
/// `seated` as for [`sift_up`].
#[inline(always)]
fn sift_down<K: Copy + Ord>(
    heap: &mut [Entry<K>],
    slot: usize,
    entry: Entry<K>,
    mut seated: impl FnMut(u32, usize),
) {
    let n = heap.len();
    let mut hole = slot;
    let mut child = 2 * hole + 1;
    while child + 1 < n {
        child += usize::from(less(&heap[child + 1], &heap[child]));
        heap[hole] = heap[child];
        seated(heap[hole].id, hole);
        hole = child;
        child = 2 * hole + 1;
    }
    if child + 1 == n {
        heap[hole] = heap[child];
        seated(heap[hole].id, hole);
        hole = child;
    }
    while hole > slot {
        let parent = (hole - 1) / 2;
        let above = heap[parent];
        if !less(&entry, &above) {
            break;
        }
        heap[hole] = above;
        seated(above.id, hole);
        hole = parent;
    }
    heap[hole] = entry;
    seated(entry.id, hole);
}

// flb-analyze: region-end(no-alloc)

/// An indexed binary min-heap over ids `0..universe`, ties to the smaller
/// id. All storage is allocated in [`FlatHeap::new`]; no later operation
/// allocates.
#[derive(Clone, Debug)]
pub struct FlatHeap<K> {
    /// Heap entries, each holding its `(key, id)` inline.
    heap: Vec<Entry<K>>,
    /// id -> heap position, or `NONE` when absent.
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
        let pos = &mut self.pos;
        sift_up(&mut self.heap, slot, entry, |id, at| {
            pos[id as usize] = at as u32
        });
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
        let pos = &mut self.pos;
        let seated = |id: u32, at: usize| pos[id as usize] = at as u32;
        if key < old {
            sift_up(&mut self.heap, slot, entry, seated);
        } else {
            sift_down(&mut self.heap, slot, entry, seated);
        }
    }

    /// Removes and returns the minimum entry; the last entry refills the
    /// root bottom-up.
    pub fn pop(&mut self) -> Option<(u32, K)> {
        let &min = self.heap.first()?;
        let last = self.heap.pop()?;
        if !self.heap.is_empty() {
            let pos = &mut self.pos;
            sift_down(&mut self.heap, 0, last, |id, at| {
                pos[id as usize] = at as u32
            });
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
            // Re-seat the last entry in the vacated position: it may
            // belong either above or below it.
            let pos = &mut self.pos;
            let seated = |id: u32, at: usize| pos[id as usize] = at as u32;
            if less(&last, &gone) {
                sift_up(&mut self.heap, slot, last, seated);
            } else {
                sift_down(&mut self.heap, slot, last, seated);
            }
        }
        Some(gone.key)
    }

    // flb-analyze: region-end(no-alloc)
}

/// A binary min-heap of `(key, id)` entries, ties to the smaller id, that
/// only inserts, peeks and pops: [`FlatHeap`] without the position map.
/// All storage is allocated in [`PlainHeap::new`]; no later operation
/// allocates while the heap holds at most its capacity.
#[derive(Clone, Debug)]
pub struct PlainHeap<K> {
    heap: Vec<Entry<K>>,
}

impl<K: Copy + Ord> PlainHeap<K> {
    /// An empty heap with room for `capacity` entries. Its pages are
    /// touched only up to the most entries it ever holds.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlainHeap {
            heap: Vec::with_capacity(capacity),
        }
    }

    // flb-analyze: region(no-alloc)

    /// Number of entries in the heap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Minimum entry `(id, key)` without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<(u32, K)> {
        self.heap.first().map(|e| (e.id, e.key))
    }

    /// Inserts `id` with `key`. An id may be in the heap more than once.
    pub fn insert(&mut self, id: u32, key: K) {
        let entry = Entry { key, id };
        let slot = self.heap.len();
        // flb-analyze: allow(no-alloc-in-hot-loop, reason="the kernel builds this heap with Vec::with_capacity(V) and inserts each task at most once, so this push never reallocates")
        self.heap.push(entry);
        sift_up(&mut self.heap, slot, entry, |_, _| {});
    }

    /// Removes and returns the minimum entry; the last entry refills the
    /// root bottom-up.
    pub fn pop(&mut self) -> Option<(u32, K)> {
        let &min = self.heap.first()?;
        let last = self.heap.pop()?;
        if !self.heap.is_empty() {
            sift_down(&mut self.heap, 0, last, |_, _| {});
        }
        Some((min.id, min.key))
    }

    // flb-analyze: region-end(no-alloc)
}

/// The state of one task while it sits in an EP list: the keys of both
/// lists, the EMT tie-break and the links of both lists. 48 bytes.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// `EMT(t, EP(t))`, the EMT heap's key.
    pub emt: Time,
    /// `LMT(t)`, the radix lists' key.
    pub lmt: Time,
    /// The task's bottom level: larger wins `emt` ties.
    pub bl: Time,
    /// The task.
    pub task: u32,
    /// Pairing heap: first child, or `NONE`.
    child: u32,
    /// Pairing heap: next sibling, or `NONE` for a root. Doubles as the
    /// scratch stack link of the two-pass combine and as the way back to
    /// the parent in [`PairingForest::clear`].
    sib: u32,
    /// Radix lists: next slot of the same bucket, or `NONE`. On the free
    /// list, the next free slot.
    next: u32,
    /// Radix lists: previous slot of the same bucket, or `NONE` at the
    /// head.
    prev: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 48);

/// The slots of every task in an EP list, recycled through a free list.
///
/// [`take`](Self::take) reuses the most recently released slot and
/// appends a new one only when none is free, so the arena's length is
/// the most slots ever taken at once. Index it with a slot number to
/// read a slot.
#[derive(Clone, Debug)]
pub struct SlotArena {
    slots: Vec<Slot>,
    /// First free slot, or `NONE`; the free list links through `next`.
    free: u32,
}

impl SlotArena {
    /// An empty arena with room for `capacity` slots. Its pages are
    /// touched only up to the most slots ever taken at once.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SlotArena {
            slots: Vec::with_capacity(capacity),
            free: NONE,
        }
    }

    /// The most slots ever taken at once.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots on the free list (a walk of the list).
    #[cfg(test)]
    pub(crate) fn free_len(&self) -> usize {
        let mut n = 0;
        let mut s = self.free;
        while s != NONE {
            n += 1;
            s = self.slots[s as usize].next;
        }
        n
    }

    // flb-analyze: region(no-alloc)

    /// A slot for `task` with its keys, linked nowhere.
    #[inline]
    #[must_use]
    pub fn take(&mut self, task: u32, emt: Time, lmt: Time, bl: Time) -> u32 {
        let slot = Slot {
            emt,
            lmt,
            bl,
            task,
            child: NONE,
            sib: NONE,
            next: NONE,
            prev: NONE,
        };
        let s = self.free;
        if s == NONE {
            // flb-analyze: allow(no-alloc-in-hot-loop, reason="the kernel builds the arena with Vec::with_capacity(V) and a task takes at most one slot, so this push never reallocates")
            self.slots.push(slot);
            return (self.slots.len() - 1) as u32;
        }
        self.free = self.slots[s as usize].next;
        self.slots[s as usize] = slot;
        s
    }

    /// Puts slot `s` back on the free list. It must be linked into no
    /// list, and it must not be read again until [`take`](Self::take)
    /// hands it out anew.
    #[inline]
    pub fn release(&mut self, s: u32) {
        self.slots[s as usize].next = self.free;
        self.free = s;
    }

    // flb-analyze: region-end(no-alloc)
}

impl Index<u32> for SlotArena {
    type Output = Slot;

    #[inline]
    fn index(&self, s: u32) -> &Slot {
        &self.slots[s as usize]
    }
}

/// `(emt, Reverse(bl), task)` of `a` below that of `b` — the paper's task
/// ordering: earlier time first, then larger bottom level, then smaller
/// id.
#[inline]
fn task_less(a: &Slot, b: &Slot) -> bool {
    (a.emt, Reverse(a.bl), a.task) < (b.emt, Reverse(b.bl), b.task)
}

/// `P` pairing heaps over the slots of one [`SlotArena`].
///
/// A slot must be in at most one heap of a forest at a time — exactly
/// FLB's invariant that a task is enabled by one processor — and its
/// `emt` and `bl` must not change while it is.
#[derive(Clone, Debug)]
pub struct PairingForest {
    /// Root slot of each heap, or `NONE` when empty.
    root: Vec<u32>,
}

impl PairingForest {
    /// `heaps` empty heaps.
    #[must_use]
    pub fn new(heaps: usize) -> Self {
        PairingForest {
            root: vec![NONE; heaps],
        }
    }

    /// Number of slots in heap `h`, walked with an explicit stack.
    #[cfg(test)]
    pub(crate) fn len_at(&self, arena: &SlotArena, h: u32) -> usize {
        let mut stack = vec![self.root(h)];
        let mut n = 0;
        while let Some(s) = stack.pop() {
            if s != NONE {
                n += 1;
                stack.push(arena[s].child);
                stack.push(arena[s].sib);
            }
        }
        n
    }

    // flb-analyze: region(no-alloc)
    // Pairing-heap links live in the arena's slots; meld, insert,
    // combine, pop and clear only rewrite indices. Every operation is
    // `#[inline]` so `KernelRun`'s loop, compiled in another codegen
    // unit, can inline them.

    /// The minimum slot of heap `h`, or `NONE` when it is empty.
    #[inline]
    #[must_use]
    pub fn root(&self, h: u32) -> u32 {
        self.root[h as usize]
    }

    /// Melds two roots; returns the winner.
    #[inline]
    fn meld(slots: &mut [Slot], a: u32, b: u32) -> u32 {
        let (top, bot) = if task_less(&slots[a as usize], &slots[b as usize]) {
            (a, b)
        } else {
            (b, a)
        };
        slots[bot as usize].sib = slots[top as usize].child;
        slots[top as usize].child = bot;
        top
    }

    /// Inserts slot `s`, fresh from [`SlotArena::take`], into heap `h`.
    /// Returns whether it became the heap's root.
    #[inline]
    pub fn insert(&mut self, arena: &mut SlotArena, h: u32, s: u32) -> bool {
        let slots = &mut arena.slots[..];
        debug_assert!(
            slots[s as usize].child == NONE && slots[s as usize].sib == NONE,
            "insert of linked slot {s}"
        );
        let root = self.root[h as usize];
        let top = if root == NONE {
            s
        } else {
            Self::meld(slots, root, s)
        };
        self.root[h as usize] = top;
        top == s
    }

    /// Two-pass pairing combine of a sibling list starting at `first`;
    /// returns the resulting root.
    #[inline]
    fn combine_siblings(slots: &mut [Slot], first: u32) -> u32 {
        // Pass 1: meld adjacent pairs left to right, stacking the winners
        // through their (now free) `sib` links.
        let mut stack = NONE;
        let mut cur = first;
        while cur != NONE {
            let a = cur;
            let b = slots[a as usize].sib;
            if b == NONE {
                slots[a as usize].sib = stack;
                stack = a;
                break;
            }
            let next = slots[b as usize].sib;
            slots[a as usize].sib = NONE;
            slots[b as usize].sib = NONE;
            let w = Self::meld(slots, a, b);
            slots[w as usize].sib = stack;
            stack = w;
            cur = next;
        }
        // Pass 2: fold the stack right to left into one tree.
        let mut root = NONE;
        let mut cur = stack;
        while cur != NONE {
            let next = slots[cur as usize].sib;
            slots[cur as usize].sib = NONE;
            root = if root == NONE {
                cur
            } else {
                Self::meld(slots, root, cur)
            };
            cur = next;
        }
        root
    }

    /// Removes the root of the non-empty heap `h` and releases its slot.
    #[inline]
    pub fn pop_min(&mut self, arena: &mut SlotArena, h: u32) {
        let root = self.root[h as usize];
        debug_assert_ne!(root, NONE, "pop from empty heap {h}");
        let c = arena.slots[root as usize].child;
        self.root[h as usize] = if c == NONE {
            NONE
        } else {
            Self::combine_siblings(&mut arena.slots, c)
        };
        arena.release(root);
    }

    /// Empties heap `h`, releasing every slot in it once. The walk needs
    /// no stack: it moves a node's first child in front of the node, with
    /// the child's `sib` leading back to it, and releases a node once it
    /// has no child left.
    #[inline]
    pub fn clear(&mut self, arena: &mut SlotArena, h: u32) {
        let mut cur = self.root[h as usize];
        self.root[h as usize] = NONE;
        while cur != NONE {
            let c = arena.slots[cur as usize].child;
            if c == NONE {
                let next = arena.slots[cur as usize].sib;
                arena.release(cur);
                cur = next;
            } else {
                arena.slots[cur as usize].child = arena.slots[c as usize].sib;
                arena.slots[c as usize].sib = cur;
                cur = c;
            }
        }
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

/// `P` monotone priority queues of the slots of one [`SlotArena`], keyed
/// by each slot's `lmt`, as radix buckets (see the module docs).
///
/// Each processor has a floor and 64 buckets: bucket `b ≥ 1` holds the
/// keys that agree with the floor above bit `b` and have bit `b` set,
/// bucket 0 the floor and its bit-0 neighbour, so every key of a bucket
/// is below every key of a higher one. A mask marks the non-empty
/// buckets, and a lower bound on the queued keys answers most queries
/// with one comparison. A slot's `lmt` must not change while it is
/// queued.
#[derive(Clone, Debug)]
pub struct RadixLists {
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
    /// First slot of each bucket, or `NONE`.
    head: [u32; 64],
}

impl Buckets {
    // flb-analyze: region(no-alloc)

    /// Links slot `s` in at the head of bucket `b`.
    #[inline(always)]
    fn link(&mut self, slots: &mut [Slot], b: usize, s: u32) {
        let h = self.head[b];
        self.head[b] = s;
        self.mask |= 1 << b;
        slots[s as usize].next = h;
        slots[s as usize].prev = NONE;
        if h != NONE {
            slots[h as usize].prev = s;
        }
    }

    // flb-analyze: region-end(no-alloc)
}

impl RadixLists {
    /// Empty lists for `procs` processors.
    #[must_use]
    pub fn new(procs: usize) -> Self {
        let empty = Buckets {
            floor: 0,
            lo: 0,
            mask: 0,
            head: [NONE; 64],
        };
        RadixLists {
            procs: vec![empty; procs],
        }
    }

    // flb-analyze: region(no-alloc)
    // Bucket links live in the arena's slots; insert, remove,
    // demote_below and split_below only rewrite indices, bounds and masks.

    /// Whether processor `p` has no queued slot.
    #[must_use]
    #[inline]
    pub fn is_empty_at(&self, p: u32) -> bool {
        self.procs[p as usize].mask == 0
    }

    /// Queues slot `s` on processor `p`. Its `lmt` must be no smaller
    /// than the last threshold passed to
    /// [`demote_below`](Self::demote_below) for `p`, and `s` must not be
    /// queued anywhere.
    pub fn insert(&mut self, arena: &mut SlotArena, p: u32, s: u32) {
        let key = arena.slots[s as usize].lmt;
        let buckets = &mut self.procs[p as usize];
        debug_assert!(key >= buckets.floor, "insert of {s} below the floor");
        buckets.lo = if buckets.mask == 0 {
            key
        } else {
            buckets.lo.min(key)
        };
        let b = bucket_of(key ^ buckets.floor);
        buckets.link(&mut arena.slots, b, s);
    }

    /// Unlinks slot `s`, queued on processor `p`.
    pub fn remove(&mut self, arena: &mut SlotArena, p: u32, s: u32) {
        let slots = &mut arena.slots[..];
        let Slot {
            prev, next, lmt, ..
        } = slots[s as usize];
        if next != NONE {
            slots[next as usize].prev = prev;
        }
        if prev != NONE {
            slots[prev as usize].next = next;
            return;
        }
        let buckets = &mut self.procs[p as usize];
        let b = bucket_of(lmt ^ buckets.floor);
        debug_assert_eq!(buckets.head[b], s, "{s} is not queued on {p}");
        buckets.head[b] = next;
        if next == NONE {
            buckets.mask &= !(1 << b);
        }
    }

    /// Dequeues every slot of processor `p` whose `lmt` is below
    /// `threshold`, handing each to `demote` in no particular order, and
    /// returns how many there were. `threshold` must not decrease between
    /// calls for the same `p`. A dequeued slot stays taken: its owner
    /// releases it.
    ///
    /// Returns at once when `threshold` is at most the lower bound, and
    /// demotes a lone queued slot without touching the buckets. Otherwise
    /// it runs `split_below`.
    #[inline]
    pub fn demote_below(
        &mut self,
        arena: &mut SlotArena,
        p: u32,
        threshold: Time,
        mut demote: impl FnMut(&Slot),
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
            let slot = &arena.slots[buckets.head[b] as usize];
            if slot.next == NONE && slot.lmt < threshold {
                buckets.head[b] = NONE;
                buckets.mask = 0;
                buckets.floor = threshold;
                demote(slot);
                return 1;
            }
        }
        self.split_below(arena, p, threshold, demote)
    }

    /// The general case of [`demote_below`](Self::demote_below), kept out of
    /// line so the common cases stay small. With `k` the bucket `threshold`
    /// falls in, it empties every bucket below `k` (all of their keys are
    /// below `threshold`), splits bucket `k` into demoted slots and slots
    /// re-bucketed against the new floor `threshold` (all in buckets below
    /// `k`), and leaves the buckets above `k` as they are (their index
    /// against `threshold` is their index against the old floor).
    #[inline(never)]
    fn split_below(
        &mut self,
        arena: &mut SlotArena,
        p: u32,
        threshold: Time,
        mut demote: impl FnMut(&Slot),
    ) -> usize {
        let slots = &mut arena.slots[..];
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
            let mut s = buckets.head[b];
            buckets.head[b] = NONE;
            while s != NONE {
                let slot = &slots[s as usize];
                demote(slot);
                n += 1;
                s = slot.next;
            }
        }
        // The lowest bucket above `k` bounds the keys it and the buckets
        // over it hold; the slots re-bucketed from `k` are bounded one by
        // one.
        let above = buckets.mask & !(1 << k);
        let mut lo = if above == 0 {
            Time::MAX
        } else {
            bucket_floor(threshold, above.trailing_zeros() as usize)
        };
        if buckets.mask & (1 << k) != 0 {
            let mut s = buckets.head[k];
            buckets.head[k] = NONE;
            buckets.mask &= !(1 << k);
            while s != NONE {
                let slot = &slots[s as usize];
                let (next, key) = (slot.next, slot.lmt);
                if key < threshold {
                    demote(slot);
                    n += 1;
                } else {
                    lo = lo.min(key);
                    let b = bucket_of(key ^ threshold);
                    buckets.link(slots, b, s);
                }
                s = next;
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

    /// Insert/pop sequences against a `BTreeSet<(key, id)>` model, with
    /// keys from a small range so that equal keys go to the smaller id.
    #[test]
    fn plain_heap_matches_model() {
        use std::collections::BTreeSet;
        let universe = 300;
        let mut h: PlainHeap<(Time, Reverse<Time>)> = PlainHeap::new(universe);
        let mut model = BTreeSet::new();
        let mut present = vec![false; universe];
        let mut rng = lcg(7);
        for _ in 0..20_000 {
            let id = (rng() % universe) as u32;
            if rng() % 5 < 3 {
                if !present[id as usize] {
                    let r = rng();
                    let key = ((r % 5) as Time, Reverse((r / 5 % 3) as Time));
                    h.insert(id, key);
                    model.insert((key, id));
                    present[id as usize] = true;
                }
            } else {
                let want = model.pop_first().map(|(k, id)| (id, k));
                assert_eq!(h.pop(), want);
                if let Some((id, _)) = want {
                    present[id as usize] = false;
                }
            }
            assert_eq!(h.len(), model.len());
            assert_eq!(h.peek(), model.first().map(|&(k, id)| (id, k)));
        }
        while let Some(got) = h.pop() {
            assert_eq!(Some(got), model.pop_first().map(|(k, id)| (id, k)));
        }
        assert!(h.is_empty() && model.is_empty());
    }

    /// A heap emptied wholesale gives every slot back once; its heap then
    /// takes fresh tasks in the released slots, and neither the released
    /// slots nor the fresh tasks disturb the other heap of the forest.
    #[test]
    fn pairing_forest_reuses_a_root_slot_after_a_wholesale_drop() {
        let n = 64usize;
        let time: Vec<Time> = (0..n).map(|i| ((i * 29) % 13) as Time).collect();
        let bl: Vec<Time> = (0..n).map(|i| (i % 3) as Time).collect();
        let key = |v: u32| (time[v as usize], Reverse(bl[v as usize]), v);
        let mut arena = SlotArena::new(n);
        let mut f = PairingForest::new(2);
        let add = |f: &mut PairingForest, arena: &mut SlotArena, h: u32, v: u32| {
            let s = arena.take(v, time[v as usize], 0, bl[v as usize]);
            f.insert(arena, h, s);
        };
        // Build two heaps, pop a few to leave real structure behind.
        for v in 0..32u32 {
            add(&mut f, &mut arena, 0, v);
        }
        for v in 32..48u32 {
            add(&mut f, &mut arena, 1, v);
        }
        for _ in 0..5 {
            f.pop_min(&mut arena, 0);
        }
        assert_eq!(f.len_at(&arena, 0), 27);
        // Drop the first heap wholesale, then reuse its root and slots.
        f.clear(&mut arena, 0);
        assert_eq!(f.root(0), NONE);
        assert_eq!(arena.free_len(), 32);
        for v in 48..n as u32 {
            add(&mut f, &mut arena, 0, v);
        }
        assert_eq!(arena.high_water(), 48, "fresh tasks reuse released slots");
        assert_eq!(arena.free_len(), 16);
        let models = [
            (48..n as u32).map(key).collect(),
            (32..48u32).map(key).collect(),
        ];
        for (h, m) in [0, 1].into_iter().zip(models) {
            let mut drained = Vec::new();
            while f.root(h) != NONE {
                drained.push(key(arena[f.root(h)].task));
                f.pop_min(&mut arena, h);
            }
            let m: std::collections::BTreeSet<_> = m;
            assert_eq!(drained, m.into_iter().collect::<Vec<_>>());
        }
        assert_eq!(arena.free_len(), 48);
    }

    /// Differential test: the forest agrees with a sorted-set model under
    /// a long random-ish sequence of inserts, pops and wholesale drops
    /// across two interleaved heaps, and every slot not in a heap is on
    /// the free list after every operation.
    #[test]
    fn pairing_forest_matches_model() {
        let n = 200usize;
        let time: Vec<Time> = (0..n).map(|i| ((i * 37) % 23) as Time).collect();
        let bl: Vec<Time> = (0..n).map(|i| ((i * 11) % 7) as Time).collect();
        let key = |v: u32| (time[v as usize], Reverse(bl[v as usize]), v);

        let mut arena = SlotArena::new(n);
        let mut f = PairingForest::new(2);
        let mut model: [std::collections::BTreeSet<_>; 2] = Default::default();
        let mut rng = lcg(12345);
        let mut present = vec![false; n];
        for _ in 0..5000 {
            let h = rng() % 2;
            match rng() % 40 {
                0 => {
                    f.clear(&mut arena, h as u32);
                    for &(_, _, v) in &model[h] {
                        present[v as usize] = false;
                    }
                    model[h].clear();
                }
                1..=26 => {
                    let v = (rng() % n) as u32;
                    if !present[v as usize] {
                        let s = arena.take(v, time[v as usize], 0, bl[v as usize]);
                        let became_root = f.insert(&mut arena, h as u32, s);
                        let was_min = model[h].first().is_none_or(|&m| key(v) < m);
                        assert_eq!(became_root, was_min);
                        model[h].insert(key(v));
                        present[v as usize] = true;
                    }
                }
                _ => {
                    if let Some(min) = model[h].pop_first() {
                        assert_eq!(key(arena[f.root(h as u32)].task), min);
                        f.pop_min(&mut arena, h as u32);
                        present[min.2 as usize] = false;
                    }
                }
            }
            // The root is always the model minimum.
            for (h, m) in model.iter().enumerate() {
                let root = f.root(h as u32);
                match m.first() {
                    None => assert_eq!(root, NONE),
                    Some(&k) => assert_eq!(key(arena[root].task), k),
                }
                assert_eq!(f.len_at(&arena, h as u32), m.len());
            }
            assert_eq!(
                arena.free_len() + model[0].len() + model[1].len(),
                arena.high_water()
            );
        }
        // Drain both heaps fully in sorted order.
        for h in 0..2 {
            let mut drained = Vec::new();
            while f.root(h) != NONE {
                drained.push(key(arena[f.root(h)].task));
                f.pop_min(&mut arena, h);
            }
            let expect: Vec<_> = model[h as usize].iter().copied().collect();
            assert_eq!(drained, expect);
        }
        assert_eq!(arena.free_len(), arena.high_water());
    }

    /// Walks processor `p`'s buckets, checks the structure's invariants
    /// (mask bits, back links, each slot in the bucket its key and the
    /// floor give, the floor and the bound below every key) and returns
    /// the queued `(key, task)` pairs.
    fn radix_contents(rl: &RadixLists, arena: &SlotArena, p: usize) -> Vec<(Time, u32)> {
        let buckets = &rl.procs[p];
        let mut out = Vec::new();
        for b in 0..64 {
            let mut s = buckets.head[b];
            assert_eq!(buckets.mask >> b & 1 == 1, s != NONE, "mask bit {b} of {p}");
            let mut prev = NONE;
            while s != NONE {
                let key = arena[s].lmt;
                assert_eq!(arena[s].prev, prev, "back link of {s}");
                assert_eq!(bucket_of(key ^ buckets.floor), b, "bucket of {s}");
                assert!(key >= buckets.floor && key >= buckets.lo, "bound above {s}");
                out.push((key, arena[s].task));
                prev = s;
                s = arena[s].next;
            }
        }
        out.sort_unstable();
        out
    }

    /// Differential test of `RadixLists` against one `BTreeSet<(key, id)>`
    /// per processor: random inserts at keys no smaller than the
    /// processor's last threshold, removes of arbitrary queued tasks, and
    /// `demote_below` at thresholds that never decrease. Keys repeat, and
    /// keys and thresholds cross bit 63 and reach `u64::MAX`. A task's slot
    /// is released when it leaves the lists, so slots are reused. After
    /// every call the demoted set and every processor's contents match the
    /// model.
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
            let mut arena = SlotArena::new(N);
            let mut rl = RadixLists::new(P);
            let mut slot_of: Vec<Option<u32>> = vec![None; N];
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
                        if slot_of[v].is_none() {
                            let key = above(threshold[p], rng());
                            let s = arena.take(v as u32, 0, key, 0);
                            rl.insert(&mut arena, p as u32, s);
                            model[p].insert((key, v as u32));
                            slot_of[v] = Some(s);
                        }
                    }
                    4 | 5 => {
                        if !model[p].is_empty() {
                            let nth = rng() % model[p].len();
                            let (key, v) = *model[p].iter().nth(nth).unwrap();
                            let s = slot_of[v as usize].take().unwrap();
                            rl.remove(&mut arena, p as u32, s);
                            arena.release(s);
                            model[p].remove(&(key, v));
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
                        let n = rl.demote_below(&mut arena, p as u32, threshold[p], |s| {
                            got.push(s.task);
                        });
                        assert_eq!(n, got.len());
                        got.sort_unstable();
                        let keep = model[p].split_off(&(threshold[p], 0));
                        let mut want: Vec<u32> = model[p].iter().map(|&(_, v)| v).collect();
                        want.sort_unstable();
                        assert_eq!(got, want, "demoted set of {p} at {}", threshold[p]);
                        for &v in &got {
                            arena.release(slot_of[v as usize].take().unwrap());
                        }
                        model[p] = keep;
                    }
                }
                for (q, m) in model.iter().enumerate() {
                    assert_eq!(
                        radix_contents(&rl, &arena, q),
                        m.iter().copied().collect::<Vec<_>>()
                    );
                    assert_eq!(rl.is_empty_at(q as u32), m.is_empty());
                }
            }
        }
    }
}
