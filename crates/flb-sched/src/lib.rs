//! Scheduling substrate: machine model, schedules, validation, metrics.
//!
//! The paper's target platform (§2) is a set of `P` homogeneous processors
//! in a clique topology with contention-free communication; once two tasks
//! are on the same processor their communication cost is zero. This crate
//! provides everything *around* a scheduling algorithm:
//!
//! * [`Machine`]/[`ProcId`] — the platform model;
//! * [`Schedule`] and [`ScheduleBuilder`] — building a schedule while
//!   maintaining the partial-schedule quantities the paper defines
//!   (`PRT`, `FT`, `LMT`, `EMT`, `EST`, enabling processor);
//! * [`validate`] — a full independent checker (precedence, communication
//!   delays, processor exclusivity) used by the tests of every algorithm;
//! * [`metrics`] — makespan, speedup, NSL, efficiency;
//! * [`bounds`] — machine-independent makespan lower bounds;
//! * [`io`] — schedule serialisation (data mirror, text format, wire codec);
//! * [`gantt`] — ASCII Gantt-chart rendering;
//! * [`Scheduler`] — the trait implemented by FLB and every baseline, with
//!   [`TieBreak`] and [`RunStats`], shared by FLB's two engines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod schedule;

pub mod bounds;
pub mod gantt;
pub mod io;
pub mod metrics;
pub mod repair;
pub mod validate;

pub use machine::{Machine, ProcId};
pub use schedule::{Placement, Schedule, ScheduleBuilder};

use flb_graph::TaskGraph;

/// A scheduling algorithm: maps a task graph onto a machine.
///
/// Implementations must produce a schedule that passes
/// [`validate::validate`]; this is enforced by the shared test-suite in the
/// workspace-level integration tests.
pub trait Scheduler {
    /// Short display name as used in the paper's figures ("FLB", "MCP", …).
    fn name(&self) -> &'static str;

    /// Computes a complete schedule of `graph` on `machine`.
    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule;
}

/// Tie-break rule among tasks whose primary (time) keys are equal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// Larger static bottom level first — the paper's rule ("the task with
    /// the longest path to any exit tasks").
    #[default]
    BottomLevel,
    /// Smaller task id first (effectively FIFO); ablation A2.
    TaskId,
}

/// Counters accumulated over an FLB run, used by the empirical-complexity
/// experiment (the `complexity` harness) and exposed for diagnostics. Both
/// FLB engines count the same events, so equal runs give equal stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Scheduling decisions that selected the EP-pair candidate.
    pub ep_selections: usize,
    /// Scheduling decisions that selected the non-EP-pair candidate.
    pub non_ep_selections: usize,
    /// Tasks that entered the ready set as EP-type.
    pub ep_promotions: usize,
    /// Tasks that entered the ready set as non-EP-type.
    pub non_ep_promotions: usize,
    /// EP-type tasks demoted to non-EP when their enabling processor's
    /// ready time overtook their `LMT` (in the paper's pseudocode each
    /// costs two heap removals and one insertion — the `UpdateTaskLists`
    /// work term; `flb-kernel` defers the EMT-list removal).
    pub demotions: usize,
    /// Largest ready-set size observed (bounded by the graph width `W`;
    /// FLB's per-step cost is `O(log max_ready + log P)`).
    pub max_ready: usize,
}

impl RunStats {
    /// Total ready-set insertions across all lists — the paper's
    /// "task lists operations" term, `O(V log W)` overall.
    #[must_use]
    pub fn list_insertions(&self) -> usize {
        self.ep_promotions + self.non_ep_promotions + self.demotions
    }
}
