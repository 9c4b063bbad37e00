//! Data-oriented, allocation-free FLB scheduling kernel.
//!
//! The reference implementation in `flb-core` follows the paper's §4.1
//! pseudocode closely and is the right place to read the algorithm — but
//! its per-step costs (a validating `ScheduleBuilder`, `usize` ids behind
//! newtypes, one `IndexedMinHeap` allocation per processor) put
//! million-task graphs out of reach. This crate is the same algorithm on a
//! different substrate:
//!
//! * [`KernelRun`] — runs on [`flb_graph::TaskGraph`] itself, whose CSR
//!   arrays (`u32` offsets and endpoints, each weight once beside its
//!   predecessor entry) suit a million-task graph. It keeps 12 bytes per
//!   task (bottom level then finish time, readiness countdown then
//!   processor) and the five FLB lists
//!   in preallocated flat structures: [`list::FlatHeap`], a binary heap
//!   with inline keys and branch-free bottom-up sifts, for the processor
//!   lists; [`list::PlainHeap`], the same heap without a position map,
//!   for the non-EP list; and, for the per-processor EP lists, one
//!   48-byte [`list::Slot`] per queued task in a recycled
//!   [`list::SlotArena`], linked by [`list::PairingForest`] (the EMT
//!   lists, with demoted tasks deleted lazily) and [`list::RadixLists`]
//!   (radix buckets for the LMT lists, where a demotion costs no heap
//!   operation); zero heap allocations after init;
//! * [`FlbKernel`] — a [`flb_sched::Scheduler`] adapter. It is the engine
//!   behind `flb_core::AlgorithmId::Flb`, so `schedule_request`, the CLI,
//!   the benches and the scheduler daemon all run FLB through it, on the
//!   caller's graph with no conversion.
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

pub mod list;
mod run;

/// perfbench still imports the kernel's graph type under its former name.
#[doc(hidden)]
pub use flb_graph::TaskGraph as FlatGraph;
pub use run::{KernelRun, KernelStep};

/// Sentinel for "no node" in every `u32`-indexed structure of this crate.
pub const NONE: u32 = u32::MAX;

use flb_graph::{TaskGraph, Time};
use flb_sched::{Machine, Placement, ProcId, Schedule, Scheduler, TieBreak};

/// FLB on the flat kernel, as a drop-in [`Scheduler`].
///
/// Runs [`KernelRun`] on the graph and wraps its placements as a
/// [`Schedule`] — bit-identical to `flb_core::Flb` with the same
/// tie-break, and named "FLB" like it.
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
}

impl Scheduler for FlbKernel {
    fn name(&self) -> &'static str {
        "FLB"
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        let slow: Vec<Time> = machine.procs().map(|p| machine.slowdown(p)).collect();
        let mut run = KernelRun::new(graph, &slow, self.tie_break);
        run.run();
        let placements = run
            .procs()
            .iter()
            .zip(run.finishes())
            .enumerate()
            .map(|(t, (&proc, &finish))| Placement {
                proc: ProcId(proc as usize),
                start: run.start_of(t),
                finish,
            })
            .collect();
        Schedule::from_raw_on(machine.clone(), placements)
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
