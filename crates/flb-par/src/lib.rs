//! Work-stealing parallel FLB over the `flb-kernel` flat layout.
//!
//! The paper's scheduler makes one global pass over five lists; this
//! crate partitions that pass across N shard workers (ROADMAP item 2,
//! grounded in Tchiboukdjian, Gast & Trystram's *Decentralized List
//! Scheduling*: distributed work-stealing list scheduling has bounded
//! makespan degradation against the sequential oracle). Each shard owns
//! a contiguous processor range with its own pairing-forest EP lists and
//! indexed heaps; ready tasks are routed to their enabling processor's
//! shard through named-lock inboxes; idle shards steal non-EP work from
//! each other's Chase–Lev deques.
//!
//! Scheduling relaxation: shards compute a task's *conservative* LMT
//! (one predecessor scan, communication charged from every predecessor)
//! and skip the EMT refinement scan entirely. Start times are therefore
//! never earlier than the data allows but may be later than the exact
//! kernel's — which is precisely the conformance registry's `NoLater`
//! replay class, and why N=1 delegates to the bit-exact sequential
//! [`flb_kernel::KernelRun`] instead of running one relaxed shard.
//!
//! Two execution modes drive identical [`shard::Shard::step`] machines:
//!
//! * [`ExecMode::Deterministic`] — the seeded virtual interleaver
//!   ([`virt::run_virtual`]): single real thread, PRNG-serialized steps,
//!   split-phase steals. Concurrency bugs reproduce from a `u64` seed
//!   and shrink through the ddmin corpus machinery.
//! * [`ExecMode::OsThreads`] — one scoped thread per shard
//!   ([`threads::run_threads`]) with the epoch-style termination
//!   detector; what the bench bin measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shard;
pub mod shared;
pub mod threads;
pub mod virt;

pub use shared::StealCommit;
pub use virt::RunReport;

use flb_graph::{TaskGraph, Time};
use flb_kernel::{FlatGraph, FlbKernel, NONE};
use flb_sched::{Machine, Placement, ProcId, Schedule, Scheduler};
use shard::Shard;
use shared::Shared;
use std::sync::atomic::Ordering;

/// How worker steps are executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Seeded virtual interleaver on one real thread — deterministic,
    /// used by the conformance registry and the race harness.
    #[default]
    Deterministic,
    /// One OS thread per shard — what production and the bench measure.
    OsThreads,
}

/// Knobs for one parallel run over a [`FlatGraph`].
#[derive(Clone, Copy, Debug)]
pub struct ParOptions {
    /// Requested worker count (clamped to the processor count; at least
    /// one).
    pub threads: usize,
    /// Seed for victim selection and, in deterministic mode, the
    /// interleaver.
    pub seed: u64,
    /// Execution mode.
    pub exec: ExecMode,
    /// Steal-commit mode (leave at the default unless validating the
    /// race harness).
    pub commit: StealCommit,
}

impl ParOptions {
    /// Deterministic-mode options with the given shard count and seed.
    #[must_use]
    pub fn deterministic(threads: usize, seed: u64) -> Self {
        ParOptions {
            threads,
            seed,
            exec: ExecMode::Deterministic,
            commit: StealCommit::Cas,
        }
    }

    /// OS-thread-mode options with the given shard count.
    #[must_use]
    pub fn threaded(threads: usize) -> Self {
        ParOptions {
            threads,
            seed: 0x51ED_BA1A,
            exec: ExecMode::OsThreads,
            commit: StealCommit::Cas,
        }
    }
}

/// The outcome of [`run_flat`]: flat placements plus the run report.
#[derive(Clone, Debug)]
pub struct ParRun {
    /// Processor of each task (`flb_kernel::NONE` iff the run failed).
    pub proc_of: Vec<u32>,
    /// Start time of each task.
    pub start: Vec<Time>,
    /// Finish time of each task.
    pub finish: Vec<Time>,
    /// Parallel completion time.
    pub makespan: Time,
    /// Counters and exactly-once verdict.
    pub report: RunReport,
}

/// Runs the sharded scheduler over a flat graph. This is the
/// bench-facing entry point; [`FlbPar`] wraps it for the [`Scheduler`]
/// trait. The shard count is `min(threads, num procs)` — every shard
/// must own a processor.
///
/// # Panics
///
/// Panics if `slow` is empty.
#[must_use]
pub fn run_flat(g: &FlatGraph, slow: &[Time], opts: &ParOptions) -> ParRun {
    let shards_n = opts.threads.clamp(1, slow.len());
    let sh = Shared::new(g, slow, shards_n);
    let mut shards: Vec<Shard> = (0..shards_n)
        .map(|i| Shard::new(&sh, i, opts.seed, opts.commit))
        .collect();
    let report = match opts.exec {
        ExecMode::Deterministic => virt::run_virtual(&sh, &mut shards, opts.seed),
        ExecMode::OsThreads => threads::run_threads(&sh, &mut shards),
    };
    let v = g.num_tasks();
    let proc_of: Vec<u32> = sh
        .proc_of
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    let start: Vec<Time> = sh.start.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    let finish: Vec<Time> = sh
        .finish
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    let makespan = (0..v)
        .filter(|&t| proc_of[t] != NONE)
        .map(|t| finish[t])
        .max()
        .unwrap_or(0);
    ParRun {
        proc_of,
        start,
        finish,
        makespan,
        report,
    }
}

/// Sharded work-stealing FLB as a drop-in [`Scheduler`].
///
/// `threads == 1` delegates to the bit-exact sequential kernel (replay
/// class `Exact`); `threads > 1` runs the relaxed sharded algorithm
/// under the deterministic interleaver (replay class `NoLater`), so
/// registry runs are reproducible and shrinkable.
#[derive(Clone, Copy, Debug)]
pub struct FlbPar {
    /// Worker count (also the registry-name suffix).
    pub threads: usize,
    /// Interleaver/victim seed for the deterministic mode.
    pub seed: u64,
    /// Execution mode for `threads > 1`.
    pub exec: ExecMode,
}

impl FlbPar {
    /// A deterministic (registry-grade) scheduler with `threads` shards.
    #[must_use]
    pub fn deterministic(threads: usize, seed: u64) -> Self {
        FlbPar {
            threads,
            seed,
            exec: ExecMode::Deterministic,
        }
    }

    /// An OS-thread scheduler with `threads` shards.
    #[must_use]
    pub fn threaded(threads: usize) -> Self {
        FlbPar {
            threads,
            seed: 0x51ED_BA1A,
            exec: ExecMode::OsThreads,
        }
    }
}

impl Scheduler for FlbPar {
    fn name(&self) -> &'static str {
        match self.threads {
            0 | 1 => "flb-par-1",
            2 => "flb-par-2",
            4 => "flb-par-4",
            8 => "flb-par-8",
            _ => "flb-par",
        }
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        let fg = FlatGraph::from_task_graph(graph);
        if self.threads <= 1 {
            // N=1 is the exact sequential kernel — same code, same bits.
            return FlbKernel::new().schedule_flat(&fg, machine);
        }
        let slow: Vec<Time> = (0..machine.num_procs())
            .map(|p| machine.slowdown(ProcId(p)))
            .collect();
        let opts = ParOptions {
            threads: self.threads,
            seed: self.seed,
            exec: self.exec,
            commit: StealCommit::Cas,
        };
        let run = run_flat(&fg, &slow, &opts);
        assert!(
            run.report.exactly_once(),
            "internal error: parallel FLB broke the exactly-once contract"
        );
        let placements = (0..graph.num_tasks())
            .map(|i| Placement {
                proc: ProcId(run.proc_of[i] as usize),
                start: run.start[i],
                finish: run.finish[i],
            })
            .collect();
        Schedule::from_raw_on(machine.clone(), placements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;
    use flb_sched::validate::validate;

    #[test]
    fn one_thread_matches_the_kernel_bit_for_bit() {
        let g = fig1();
        let m = Machine::new(2);
        let par = FlbPar::deterministic(1, 7).schedule(&g, &m);
        let kernel = flb_kernel::FlbKernel::new().schedule(&g, &m);
        assert_eq!(par.placements(), kernel.placements());
        assert_eq!(par.makespan(), 14);
    }

    #[test]
    fn sharded_run_is_valid_and_exactly_once() {
        let g = fig1();
        let m = Machine::new(2);
        for threads in [2, 4] {
            let s = FlbPar::deterministic(threads, 42).schedule(&g, &m);
            assert_eq!(validate(&g, &s), Ok(()), "threads={threads}");
        }
    }

    #[test]
    fn deterministic_mode_reproduces_from_its_seed() {
        let g = fig1();
        let m = Machine::new(2);
        let a = FlbPar::deterministic(2, 1234).schedule(&g, &m);
        let b = FlbPar::deterministic(2, 1234).schedule(&g, &m);
        assert_eq!(a.placements(), b.placements());
    }

    #[test]
    fn os_thread_mode_completes_and_validates() {
        let g = fig1();
        let m = Machine::new(2);
        let s = FlbPar::threaded(2).schedule(&g, &m);
        assert_eq!(validate(&g, &s), Ok(()));
    }
}
