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
//!   as preallocated flat structures ([`list::FlatHeap`],
//!   [`list::PairingForest`]); zero heap allocations after init;
//! * [`FlbKernel`] — a [`flb_sched::Scheduler`] adapter so the kernel sits
//!   in the conformance registry next to the reference scheduler and every
//!   differential oracle applies to it. Its
//!   [`schedule_flat`](FlbKernel::schedule_flat) runs a [`FlatGraph`]
//!   straight to a [`Schedule`]; the scheduler daemon serves FLB through
//!   it.
//!
//! The kernel must be **bit-identical** to `flb_core::FlbRun`: same
//! `(task, processor, start)` triple at every step, same run counters.
//! That contract is enforced three ways — the conformance registry (replay
//! class `Exact`), a property test over random graphs/machines/tie-breaks,
//! and the Table 1 trace test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
pub mod list;
mod run;

pub use graph::{FlatGraph, SortedEdgesError, NONE};
pub use run::{KernelRun, KernelStep};

use flb_core::TieBreak;
use flb_graph::{TaskGraph, Time};
use flb_sched::{Machine, Placement, ProcId, Schedule, Scheduler};

/// FLB on the flat kernel, as a drop-in [`Scheduler`].
///
/// Converts the graph to [`FlatGraph`] form, runs [`KernelRun`], and
/// re-wraps the placements — bit-identical to `flb_core::Flb` with the
/// same tie-break.
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
        "flb-kernel"
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        self.schedule_flat(&FlatGraph::from_task_graph(graph), machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_core::Flb;
    use flb_graph::paper::fig1;
    use flb_sched::validate::validate;

    #[test]
    fn kernel_schedule_is_valid_and_matches_reference() {
        let g = fig1();
        let m = Machine::new(2);
        let ours = FlbKernel::new().schedule(&g, &m);
        assert_eq!(validate(&g, &ours), Ok(()));
        let reference = Flb::default().schedule(&g, &m);
        assert_eq!(ours.placements(), reference.placements());
        assert_eq!(ours.makespan(), 14);
    }

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
