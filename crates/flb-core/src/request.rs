//! Reusable schedule-request entry point: the one named algorithm registry
//! and a single dispatch function covering FLB and every `flb-baselines`
//! algorithm. FLB runs on `flb-kernel`'s [`FlbKernel`], the same engine the
//! daemon serves it with; the pointer-based [`crate::FlbRun`] stays the
//! readable paper oracle that conformance checks the kernel against.
//!
//! This is the serving surface that `flb-service` (the scheduler daemon)
//! and `flb-cli` both ride on: a request names an algorithm by a stable id,
//! carries a task graph and a machine, and [`schedule_request`] produces
//! the schedule deterministically — the same inputs always yield the same
//! bit-for-bit schedule, which is what makes fingerprint-keyed caching of
//! responses sound.

use flb_baselines::{Dls, DscLlb, Etf, Fcp, Heft, Hlfet, Mcp};
use flb_graph::TaskGraph;
use flb_kernel::FlbKernel;
use flb_sched::{Machine, Schedule, Scheduler};
use std::fmt;
use std::str::FromStr;

/// Stable identifier of a compile-time scheduling algorithm.
///
/// The discriminant doubles as the wire code of the service protocol, so
/// variants must never be renumbered — only appended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AlgorithmId {
    /// FLB with the paper's tie-breaking (static bottom level).
    Flb = 0,
    /// Earliest Task First (exhaustive ready × processor scan).
    Etf = 1,
    /// Modified Critical Path, end-of-list placement.
    Mcp = 2,
    /// MCP with idle-slot insertion (the original formulation).
    McpInsertion = 3,
    /// Fast Critical Path.
    Fcp = 4,
    /// DSC clustering followed by LLB cluster mapping.
    DscLlb = 5,
    /// Dynamic Level Scheduling.
    Dls = 6,
    /// Heterogeneous Earliest Finish Time.
    Heft = 7,
    /// Highest Level First with Estimated Times.
    Hlfet = 8,
}

impl AlgorithmId {
    /// Every registered algorithm, in wire-code order.
    pub const ALL: [AlgorithmId; 9] = [
        AlgorithmId::Flb,
        AlgorithmId::Etf,
        AlgorithmId::Mcp,
        AlgorithmId::McpInsertion,
        AlgorithmId::Fcp,
        AlgorithmId::DscLlb,
        AlgorithmId::Dls,
        AlgorithmId::Heft,
        AlgorithmId::Hlfet,
    ];

    /// Canonical lower-case name, as accepted by [`FromStr`] and the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmId::Flb => "flb",
            AlgorithmId::Etf => "etf",
            AlgorithmId::Mcp => "mcp",
            AlgorithmId::McpInsertion => "mcp-ins",
            AlgorithmId::Fcp => "fcp",
            AlgorithmId::DscLlb => "dsc-llb",
            AlgorithmId::Dls => "dls",
            AlgorithmId::Heft => "heft",
            AlgorithmId::Hlfet => "hlfet",
        }
    }

    /// The stable one-byte wire code.
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    #[must_use]
    pub fn from_code(code: u8) -> Option<AlgorithmId> {
        Self::ALL.get(code as usize).copied()
    }

    /// Instantiates the algorithm behind this id; FLB is the kernel.
    #[must_use]
    pub fn scheduler(self) -> Box<dyn Scheduler> {
        match self {
            AlgorithmId::Flb => Box::new(FlbKernel::new()),
            AlgorithmId::Etf => Box::new(Etf),
            AlgorithmId::Mcp => Box::new(Mcp::default()),
            AlgorithmId::McpInsertion => Box::new(Mcp::original()),
            AlgorithmId::Fcp => Box::new(Fcp),
            AlgorithmId::DscLlb => Box::new(DscLlb::default()),
            AlgorithmId::Dls => Box::new(Dls),
            AlgorithmId::Heft => Box::new(Heft),
            AlgorithmId::Hlfet => Box::new(Hlfet),
        }
    }
}

impl fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for an algorithm name outside the registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownAlgorithm(pub String);

impl fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown algorithm {:?}", self.0)
    }
}

impl std::error::Error for UnknownAlgorithm {}

impl FromStr for AlgorithmId {
    type Err = UnknownAlgorithm;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        // `dscllb` is a legacy CLI spelling kept for compatibility.
        if lower == "dscllb" {
            return Ok(AlgorithmId::DscLlb);
        }
        Self::ALL
            .into_iter()
            .find(|a| a.name() == lower)
            .ok_or_else(|| UnknownAlgorithm(s.to_owned()))
    }
}

/// A complete scheduling request: what to schedule, where, and how.
#[derive(Clone, Debug)]
pub struct ScheduleRequest {
    /// Which algorithm to run.
    pub algorithm: AlgorithmId,
    /// The task graph to schedule.
    pub graph: TaskGraph,
    /// The target machine.
    pub machine: Machine,
}

impl ScheduleRequest {
    /// Bundles a request.
    #[must_use]
    pub fn new(algorithm: AlgorithmId, graph: TaskGraph, machine: Machine) -> Self {
        ScheduleRequest {
            algorithm,
            graph,
            machine,
        }
    }
}

/// Schedules a request: dispatches to the named algorithm and returns its
/// schedule. Deterministic — equal requests produce equal schedules.
#[must_use]
pub fn schedule_request(req: &ScheduleRequest) -> Schedule {
    req.algorithm.scheduler().schedule(&req.graph, &req.machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;

    #[test]
    fn names_roundtrip_through_fromstr() {
        for alg in AlgorithmId::ALL {
            assert_eq!(alg.name().parse::<AlgorithmId>().unwrap(), alg);
            assert_eq!(
                alg.name().to_uppercase().parse::<AlgorithmId>().unwrap(),
                alg
            );
        }
        assert_eq!(
            "dscllb".parse::<AlgorithmId>().unwrap(),
            AlgorithmId::DscLlb
        );
        assert!("frob".parse::<AlgorithmId>().is_err());
    }

    #[test]
    fn codes_roundtrip() {
        for alg in AlgorithmId::ALL {
            assert_eq!(AlgorithmId::from_code(alg.code()), Some(alg));
        }
        assert_eq!(AlgorithmId::from_code(200), None);
    }

    #[test]
    fn dispatch_matches_direct_invocation() {
        let g = fig1();
        let m = Machine::new(2);
        for alg in AlgorithmId::ALL {
            let via_request = schedule_request(&ScheduleRequest::new(alg, g.clone(), m.clone()));
            let direct = alg.scheduler().schedule(&g, &m);
            assert_eq!(via_request, direct, "{alg}");
            assert_eq!(flb_sched::validate::validate(&g, &via_request), Ok(()));
        }
    }

    #[test]
    fn flb_request_matches_paper_table1() {
        let req = ScheduleRequest::new(AlgorithmId::Flb, fig1(), Machine::new(2));
        assert_eq!(schedule_request(&req).makespan(), 14);
    }
}
