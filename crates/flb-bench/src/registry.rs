//! The algorithm registry: the five schedulers of the paper's comparison,
//! drawn from [`AlgorithmId`], the workspace's one scheduler registry.

use flb_core::AlgorithmId::{self, DscLlb, Etf, Fcp, Flb, Mcp};
use flb_sched::Scheduler;

/// The paper's comparison, in the display order of its figures.
pub const PAPER: [AlgorithmId; 5] = [Mcp, Etf, DscLlb, Fcp, Flb];

/// Fresh instances of the five compared schedulers, in [`PAPER`] order,
/// each labelled with its display name.
///
/// A new set per call: the boxed schedulers are cheap to construct and this
/// keeps the registry usable from worker threads without `Sync` bounds.
#[must_use]
pub fn named_schedulers() -> Vec<(&'static str, Box<dyn Scheduler>)> {
    PAPER
        .map(|alg| {
            let s = alg.scheduler();
            (s.name(), s)
        })
        .into()
}

/// Just the display names, in figure order.
#[must_use]
pub fn scheduler_names() -> Vec<&'static str> {
    named_schedulers()
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_names() {
        assert_eq!(scheduler_names(), ["MCP", "ETF", "DSC-LLB", "FCP", "FLB"]);
    }
}
