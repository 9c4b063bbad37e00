//! Proves the steady-state inner loop performs zero heap allocations.
//!
//! A counting `GlobalAlloc` wraps the system allocator; the test snapshots
//! the allocation counter after `KernelRun::new` (the only allocating
//! phase) and asserts it is unchanged after running a ~20k-task LU graph
//! to completion. This file contains exactly one test so no concurrent
//! test thread can touch the counter mid-measurement.
//!
//! The same test also reads the `// flb-analyze: region(no-alloc)`
//! fences out of the kernel sources and asserts they enclose exactly
//! the functions this allocator measurement covers — the fence the
//! static `no-alloc-in-hot-loop` rule enforces and the dynamic check
//! here share one source of truth, so neither can silently drift.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_loop_never_allocates() {
    use flb_kernel::KernelRun;
    use flb_sched::TieBreak;

    // LU with m = 200 -> V = 20_100, E = 39_800: large enough to exercise
    // promotions, demotions, and deep heaps on several processors.
    let g = flb_graph::gen::lu(200);
    let slow = vec![1u64; 8];
    let mut run = KernelRun::new(&g, &slow, TieBreak::BottomLevel);

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    run.run();
    let after = ALLOC_CALLS.load(Ordering::SeqCst);

    assert!(run.is_complete());
    assert!(run.makespan() > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state loop allocated {} times",
        after - before
    );

    // Same guarantee on a related machine and the FIFO tie-break.
    let mut run2 = KernelRun::new(&g, &[1, 2, 2, 3], TieBreak::TaskId);
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    run2.run();
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "related-machine loop allocated");

    // And on 64 processors, where EP lists empty mid-run and their
    // lazily deleted EMT heaps are dropped wholesale.
    let mut run3 = KernelRun::new(&g, &[1; 64], TieBreak::BottomLevel);
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    run3.run();
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(run3.is_complete());
    assert_eq!(after - before, 0, "64-processor loop allocated");

    // The static fences cover exactly what this test just measured.
    // `run.run()` drives `step`, the three update procedures and
    // `enqueue_ready` through the FlatHeap, PlainHeap, SlotArena,
    // PairingForest and RadixLists operations; constructors stay outside
    // the fences because `new` is the allocating phase by design.
    let fenced = flb_analyze::fenced_functions(include_str!("../src/run.rs"), "no-alloc");
    assert_eq!(
        fenced,
        [
            "run",
            "step",
            "update_task_lists",
            "update_proc_lists",
            "update_ready_tasks",
            "enqueue_ready",
        ],
        "run.rs no-alloc fence drifted from the measured loop"
    );

    let fenced = flb_analyze::fenced_functions(include_str!("../src/list.rs"), "no-alloc");
    assert!(
        !fenced.contains(&"new".to_owned()),
        "constructors must stay outside the list.rs fences"
    );
    for op in [
        "len",
        "is_empty",
        "contains",
        "key_of",
        "peek",
        "less",
        "insert",
        "insert_or_update",
        "update",
        "pop",
        "remove",
        "sift_up",
        "sift_down",
        "take",
        "release",
        "root",
        "meld",
        "combine_siblings",
        "pop_min",
        "clear",
        "link",
        "is_empty_at",
        "demote_below",
        "split_below",
    ] {
        assert!(
            fenced.iter().any(|f| f == op),
            "list.rs no-alloc fence must cover `{op}`"
        );
    }
}
