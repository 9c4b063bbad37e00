//! Data-oriented, allocation-free FLB scheduling kernel.
//!
//! The reference implementation in `flb-core` follows the paper's §4.1
//! pseudocode closely and is the right place to read the algorithm — but
//! its per-step costs (a validating `ScheduleBuilder`, `usize` ids behind
//! newtypes, one `IndexedMinHeap` allocation per processor) put
//! million-task graphs out of reach. This crate is the same algorithm on a
//! different substrate:
//!
//! * [`FlatGraph`] — `u32`-indexed CSR in six flat arrays, with a
//!   streaming constructor so generators build straight into it;
//! * [`KernelRun`] — SoA arenas for per-task state and the five FLB lists
//!   as preallocated flat structures ([`list::FlatHeap`], a binary heap
//!   with inline keys and branch-free bottom-up sifts;
//!   [`list::PairingForest`] for the EMT lists, with demoted tasks
//!   deleted lazily; and [`list::RadixLists`], radix buckets for the LMT
//!   lists, where a demotion costs no heap operation); zero heap
//!   allocations after init;
//! * [`FlbKernel`] — a [`flb_sched::Scheduler`] adapter. It is the engine
//!   behind `flb_core::AlgorithmId::Flb`, so `schedule_request`, the CLI,
//!   the benches and the scheduler daemon all run FLB through it. Its
//!   [`schedule_flat`](FlbKernel::schedule_flat) runs a [`FlatGraph`]
//!   straight to a [`Schedule`].
//!
//! The kernel must be **bit-identical** to `flb_core::FlbRun`: same
//! `(task, processor, start)` triple at every step, same run counters.
//! This crate does not depend on `flb-core`, so the contract is enforced
//! downstream: by `flb-core`'s `tests/parity.rs`, which steps both engines
//! in lockstep over random graphs, machines and tie-breaks, and by the
//! conformance registry, which holds the `flb-kernel` entry to the `flb`
//! reference under every differential oracle (replay class `Exact`). The
//! unit tests here check the paper's Table 1 decisions and counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
pub mod list;
mod run;

pub use graph::{FlatGraph, SortedEdgesError, NONE};
pub use run::{KernelRun, KernelStep};

use flb_graph::{TaskGraph, Time};
use flb_sched::{Machine, Placement, ProcId, Schedule, Scheduler, TieBreak};

/// FLB on the flat kernel, as a drop-in [`Scheduler`].
///
/// Converts the graph to [`FlatGraph`] form, runs [`KernelRun`], and
/// re-wraps the placements — bit-identical to `flb_core::Flb` with the
/// same tie-break, and named "FLB" like it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlbKernel {
    /// Tie-break rule among tasks with equal time keys.
    pub tie_break: TieBreak,
}

impl FlbKernel {
    /// Kernel scheduler with the paper's bottom-level tie-break.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs [`KernelRun`] on `g` to completion and wraps its placements
    /// as a [`Schedule`] on `machine`.
    #[must_use]
    pub fn schedule_flat(&self, g: &FlatGraph, machine: &Machine) -> Schedule {
        let slow: Vec<Time> = machine.procs().map(|p| machine.slowdown(p)).collect();
        let mut run = KernelRun::new(g, &slow, self.tie_break);
        run.run();
        let placements = run
            .procs()
            .iter()
            .zip(run.starts().iter().zip(run.finishes()))
            .map(|(&proc, (&start, &finish))| Placement {
                proc: ProcId(proc as usize),
                start,
                finish,
            })
            .collect();
        Schedule::from_raw_on(machine.clone(), placements)
    }
}

impl Scheduler for FlbKernel {
    fn name(&self) -> &'static str {
        "FLB"
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        self.schedule_flat(&FlatGraph::from_task_graph(graph), machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_sched::validate::validate;

    #[test]
    fn kernel_handles_single_task_and_single_proc() {
        let mut b = flb_graph::TaskGraphBuilder::new();
        b.add_task(7);
        let g = b.build().unwrap();
        let s = FlbKernel::new().schedule(&g, &Machine::new(1));
        assert_eq!(s.makespan(), 7);
        assert_eq!(validate(&g, &s), Ok(()));
    }
}
