//! End-to-end check of the kernel: the streaming LU generator's graphs
//! and suite graphs, scheduled by the kernel, must match the reference
//! FLB run on the same `TaskGraph` exactly — placements, start times and
//! makespan.

use flb_core::Flb;
use flb_graph::costs::{CostModel, Dist};
use flb_graph::gen::{self, RandomLayeredSpec};
use flb_graph::TaskGraph;
use flb_kernel::{FlbKernel, KernelRun};
use flb_sched::{Machine, RunStats, Scheduler, TieBreak};
use flb_workloads::million::{lu_flat, lu_order_for_tasks};

fn assert_kernel_matches_reference(g: &TaskGraph, machine: &Machine) {
    let kernel = FlbKernel::new().schedule(g, machine);
    let reference = Flb::default().schedule(g, machine);
    assert_eq!(kernel.placements(), reference.placements());
}

#[test]
fn lu_flat_schedules_match_reference() {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: 5.0,
    };
    let flat = lu_flat(25, &model, 1999);
    assert_kernel_matches_reference(&flat, &Machine::new(8));
}

#[test]
fn cholesky_flat_schedules_match_reference_on_related_machine() {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: 0.2,
    };
    let g = model.apply(&gen::cholesky(12), 7);
    assert_kernel_matches_reference(&g, &Machine::related(vec![1, 2, 2, 3]));
}

#[test]
fn random_layered_flat_schedules_match_reference() {
    let model = CostModel {
        comp: Dist::Exponential(50),
        ccr: 1.0,
    };
    let spec = RandomLayeredSpec {
        tasks: 400,
        layers: 12,
        edge_prob: 0.1,
        max_skip: 2,
    };
    let g = model.apply(&gen::random_layered(&spec, 3), 3);
    assert_kernel_matches_reference(&g, &Machine::new(4));
}

/// FNV-1a over every task's `(proc, start, finish)`, little-endian.
fn placement_digest(run: &KernelRun<'_>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in 0..run.procs().len() {
        for x in [
            u64::from(run.procs()[t]),
            run.starts()[t],
            run.finishes()[t],
        ] {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Pins the kernel's decisions and counters on a ~20k-task LU: the run
/// counters, the makespan and a digest of every placement. A change to
/// the kernel's list structures must leave all three exactly as they are.
#[test]
fn lu_flat_20k_counters_and_placements_are_pinned() {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: 1.0,
    };
    let g = lu_flat(200, &model, 1999);
    assert_eq!(g.num_tasks(), 20_100);
    let mut run = KernelRun::new(&g, &[1; 64], TieBreak::BottomLevel);
    run.run();
    assert_eq!(
        run.stats(),
        RunStats {
            ep_selections: 3437,
            non_ep_selections: 16_663,
            ep_promotions: 19_999,
            non_ep_promotions: 101,
            demotions: 16_562,
            max_ready: 199,
        }
    );
    assert_eq!(run.makespan(), 60_850);
    assert_eq!(placement_digest(&run), 0x70db_d516_37fa_a214);
}

/// The same pin on the million-task LU that perfbench's kernel-lu1m
/// workload schedules (seed 1). Ignored in the debug test run for its
/// size; CI's `perf-smoke` job runs it in release with `--ignored`. The
/// reference `FlbRun` is not run at this size.
#[test]
#[ignore = "million-task graph; run in release with --ignored"]
fn lu_flat_1m_counters_and_placements_are_pinned() {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: 1.0,
    };
    let g = lu_flat(lu_order_for_tasks(1_000_000), &model, 1);
    assert_eq!(g.num_tasks(), 1_000_405);
    let mut run = KernelRun::new(&g, &[1; 64], TieBreak::BottomLevel);
    run.run();
    assert_eq!(
        run.stats(),
        RunStats {
            ep_selections: 6020,
            non_ep_selections: 994_385,
            ep_promotions: 998_353,
            non_ep_promotions: 2052,
            demotions: 992_333,
            max_ready: 1413,
        }
    );
    assert_eq!(run.makespan(), 1_643_017);
    assert_eq!(placement_digest(&run), 0x7cbb_6034_45ff_7057);
}

/// How many nodes the lazily deleted EMT heaps hold at once, live and
/// dead (`max_slots`), against the ready-set width (`max_ready`), on the
/// 20k LU pin and on the paper families at V≈1000, P 2–32, both CCRs.
/// Both are deterministic, so the counts and the worst case are pinned.
/// The bound of twice the width is measured, not proven: DESIGN.md "The
/// kernel's lists" records the worst ratios of larger sweeps.
#[test]
fn emt_heap_nodes_stay_within_twice_the_ready_width() {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: 1.0,
    };
    let g = lu_flat(200, &model, 1999);
    let mut run = KernelRun::new(&g, &[1; 64], TieBreak::BottomLevel);
    run.run();
    assert_eq!((run.max_slots(), run.stats().max_ready), (272, 199));

    let mut worst = (0, 1, "", 0.0, 0);
    for family in gen::Family::ALL {
        let topology = family.topology(1000);
        for ccr in [0.2, 5.0] {
            let g = CostModel::paper_default(ccr).apply(&topology, 1999);
            for procs in [2, 3, 4, 6, 8, 12, 16, 32] {
                let mut run = KernelRun::new(&g, &vec![1; procs], TieBreak::BottomLevel);
                run.run();
                let (slots, ready) = (run.max_slots(), run.stats().max_ready);
                let case = (family.name(), ccr, procs);
                assert!(slots <= 2 * ready, "{case:?}: {slots} slots, width {ready}");
                if slots * worst.1 > worst.0 * ready {
                    worst = (slots, ready, case.0, ccr, procs);
                }
            }
        }
    }
    assert_eq!(worst, (66, 43, "LU", 5.0, 6));
}
