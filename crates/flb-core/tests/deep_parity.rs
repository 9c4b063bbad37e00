//! Bit-identity on graphs large enough for deep lists.
//!
//! `tests/parity.rs` draws small graphs: their heaps stay shallow and a
//! processor's EP list rarely empties while it still holds demoted
//! tasks. The kernel's bottom-up heap sifts and its lazy EMT-list
//! deletion (dead heads popped at the root, a fully dead heap dropped
//! wholesale) only run in earnest on wide graphs with many demotions.
//! These cases step `KernelRun` and `FlbRun` in lockstep on a few
//! thousand LU tasks and on ~1000-task Laplace and FFT graphs, at CCR
//! 0.2, 1 and 5, on 2, 8 and 64 processors, under both tie-breaks, and
//! compare every decision and every run counter after every step.

use flb_core::{FlbRun, TieBreak};
use flb_graph::costs::CostModel;
use flb_graph::{gen, TaskGraph};
use flb_kernel::{FlatGraph, KernelRun};
use flb_sched::Machine;

const CCRS: [f64; 3] = [0.2, 1.0, 5.0];
const PROCS: [usize; 3] = [2, 8, 64];
const TIES: [TieBreak; 2] = [TieBreak::BottomLevel, TieBreak::TaskId];

fn assert_lockstep(g: &TaskGraph, procs: usize, tie: TieBreak) {
    let fg = FlatGraph::from_task_graph(g);
    let m = Machine::new(procs);
    let slow = vec![1; procs];
    let mut reference = FlbRun::new(g, &m, tie);
    let mut kernel = KernelRun::new(&fg, &slow, tie);
    let ctx = format!("{} on P={procs} ({tie:?})", g.name());
    assert_eq!(reference.stats(), kernel.stats(), "{ctx}: initial counters");
    for step in 0..g.num_tasks() {
        let r = reference.step().expect("reference ended early");
        let k = kernel.step().expect("kernel ended early");
        assert_eq!(
            (r.task.0, r.proc.0, r.start, r.finish, r.from_ep_list),
            (
                k.task as usize,
                k.proc as usize,
                k.start,
                k.finish,
                k.from_ep_list
            ),
            "{ctx}: step {step} diverged"
        );
        assert_eq!(
            reference.stats(),
            kernel.stats(),
            "{ctx}: counters after step {step}"
        );
    }
    assert!(reference.step().is_none() && kernel.step().is_none());
    assert_eq!(reference.finish().makespan(), kernel.makespan(), "{ctx}");
}

fn sweep(topology: &TaskGraph, seed: u64) {
    for (i, &ccr) in CCRS.iter().enumerate() {
        let g = CostModel::paper_default(ccr).apply(topology, seed + i as u64);
        for procs in PROCS {
            for tie in TIES {
                assert_lockstep(&g, procs, tie);
            }
        }
    }
}

#[test]
fn lu_2k_matches_reference_step_by_step() {
    sweep(&gen::lu(64), 11);
}

#[test]
fn lu_4k_matches_reference_step_by_step() {
    sweep(&gen::lu(92), 23);
}

#[test]
fn laplace_1k_matches_reference_step_by_step() {
    sweep(&gen::laplace(32), 37);
}

#[test]
fn fft_1k_matches_reference_step_by_step() {
    sweep(&gen::fft(7), 41);
}
