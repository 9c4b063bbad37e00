//! FLB — Fast Load Balancing list scheduling for distributed-memory
//! machines (Rădulescu & van Gemund, ICPP 1999).
//!
//! FLB schedules, at every iteration, the ready task that can start the
//! earliest — the same criterion as ETF — but identifies that task in
//! `O(log W + log P)` per iteration instead of ETF's `O(W · P)`, for a total
//! complexity of `O(V (log W + log P) + E)`.
//!
//! # The two-pair theorem
//!
//! Given a partial schedule, call a ready task `t` **EP-type** when its last
//! message arrival time is no earlier than the ready time of its *enabling
//! processor* `EP(t)` (the processor the last message comes from):
//! `LMT(t) ≥ PRT(EP(t))`; otherwise `t` is **non-EP-type**. The paper proves
//! (appendix, Theorem 3) that the globally earliest-starting ready pair is
//! always one of just two candidates:
//!
//! 1. the EP-type task with minimum `EST(t, EP(t))` on its enabling
//!    processor, and
//! 2. the non-EP-type task with minimum `LMT(t)` on the processor that
//!    becomes idle the earliest,
//!
//! with the non-EP pair preferred on ties (its communication is already
//! overlapped with computation). [`oracle`] re-implements the exhaustive
//! ETF-style scan, and the test-suite checks the selected start time against
//! it on every step of every random graph — the Theorem 3 experiment (X1 in
//! DESIGN.md).
//!
//! # Example
//!
//! ```
//! use flb_core::Flb;
//! use flb_sched::{Machine, Scheduler, validate::validate};
//! use flb_graph::paper::fig1;
//!
//! let g = fig1();
//! let s = Flb::default().schedule(&g, &Machine::new(2));
//! assert_eq!(validate(&g, &s), Ok(()));
//! assert_eq!(s.makespan(), 14); // the paper's Table 1 result
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod run;

pub mod oracle;
pub mod repair;
pub mod request;
pub mod trace;

pub use flb_sched::{RunStats, TieBreak};
pub use repair::{clairvoyant_flb, naive_remap, repair_flb};
pub use request::{schedule_request, AlgorithmId, ScheduleRequest};
pub use run::{FlbRun, Step};

use flb_graph::TaskGraph;
use flb_sched::{Machine, Schedule, Scheduler};

/// The FLB scheduling algorithm on [`FlbRun`], the readable reference.
/// [`AlgorithmId::Flb`] runs `flb-kernel` instead, held bit-exact to this.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flb {
    /// How ties between equal-priority tasks are broken (ablation A2);
    /// the paper uses static bottom levels.
    pub tie_break: TieBreak,
}

impl Flb {
    /// FLB with a chosen tie-break rule.
    #[must_use]
    pub fn with_tie_break(tie_break: TieBreak) -> Self {
        Flb { tie_break }
    }
}

impl Scheduler for Flb {
    fn name(&self) -> &'static str {
        "FLB"
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        let mut run = FlbRun::new(graph, machine, self.tie_break);
        while run.step().is_some() {}
        run.finish()
    }
}
