//! Whole-graph analysis: the structural numbers that explain scheduling
//! behaviour.
//!
//! [`GraphStats`] bundles everything the experiment logs and the CLI's
//! `info` command report: size, degrees, depth, width, critical paths,
//! inherent-parallelism bounds and Gerasoulis–Yang granularity.

use crate::levels::{critical_path, critical_path_comp_only, depths};
use crate::width::{max_antichain, max_ready_width};
use crate::{Cost, TaskGraph, Time};

/// Summary statistics of a task graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of tasks `V`.
    pub tasks: usize,
    /// Number of edges `E`.
    pub edges: usize,
    /// Entry-task count.
    pub entries: usize,
    /// Exit-task count.
    pub exits: usize,
    /// Minimum / mean / maximum out-degree.
    pub out_degree: (usize, f64, usize),
    /// Minimum / mean / maximum in-degree.
    pub in_degree: (usize, f64, usize),
    /// Longest path in edges, plus one (number of "levels").
    pub depth: usize,
    /// Exact width (maximum antichain).
    pub width: usize,
    /// Maximum simultaneous-ready-set size (lower bound on width; the
    /// operative bound for FLB's list sizes).
    pub ready_width: usize,
    /// Total computation (`T_seq`).
    pub total_comp: Time,
    /// Total communication.
    pub total_comm: Cost,
    /// Measured CCR.
    pub ccr: f64,
    /// Critical path including communication.
    pub critical_path: Time,
    /// Critical path with free communication (makespan lower bound).
    pub critical_path_comp: Time,
    /// `T_seq / CP_comp` — the maximum achievable speedup on any machine.
    pub max_speedup: f64,
    /// Gerasoulis–Yang granularity: `min(comp) / max(comm)` (∞ if there
    /// are no edges). Coarse-grained graphs (`g ≥ 1`) lose little to
    /// communication; fine-grained ones (`g < 1`) are scheduling-hard.
    pub granularity: f64,
}

/// Computes [`GraphStats`]. Cost is dominated by the exact width
/// (`O(V·E_tc)` bitset work) — fine up to a few thousand tasks; pass
/// `exact_width = false` to substitute the ready-sweep bound for `width`.
///
/// ```
/// use flb_graph::{analyze::stats, paper::fig1};
///
/// let s = stats(&fig1(), true);
/// assert_eq!((s.tasks, s.edges, s.width), (8, 10, 3));
/// assert!(s.max_speedup < 2.0); // fig1 is nearly serial
/// ```
#[must_use]
pub fn stats(g: &TaskGraph, exact_width: bool) -> GraphStats {
    let v = g.num_tasks();
    let out: Vec<usize> = g.tasks().map(|t| g.out_degree(t)).collect();
    let inn: Vec<usize> = g.tasks().map(|t| g.in_degree(t)).collect();
    let degree_summary = |d: &[usize]| {
        (
            d.iter().copied().min().unwrap_or(0),
            d.iter().sum::<usize>() as f64 / v as f64,
            d.iter().copied().max().unwrap_or(0),
        )
    };
    let ready_width = max_ready_width(g);
    let width = if exact_width {
        max_antichain(g)
    } else {
        ready_width
    };
    let min_comp = g.tasks().map(|t| g.comp(t)).min().unwrap_or(0);
    let max_comm = g.tasks().flat_map(|t| g.preds(t).map(|(_, c)| c)).max();
    let cp_comp = critical_path_comp_only(g);

    GraphStats {
        tasks: v,
        edges: g.num_edges(),
        entries: g.entry_tasks().count(),
        exits: g.exit_tasks().count(),
        out_degree: degree_summary(&out),
        in_degree: degree_summary(&inn),
        depth: depths(g).into_iter().max().unwrap_or(0) + 1,
        width,
        ready_width,
        total_comp: g.total_comp(),
        total_comm: g.total_comm(),
        ccr: g.ccr(),
        critical_path: critical_path(g),
        critical_path_comp: cp_comp,
        max_speedup: g.total_comp() as f64 / cp_comp as f64,
        granularity: match max_comm {
            None | Some(0) => f64::INFINITY,
            Some(c) => min_comp as f64 / c as f64,
        },
    }
}

/// The parallelism profile: the ready-set size of each layer of a
/// breadth-first topological sweep — "how many processors could this phase
/// of the program use".
#[must_use]
pub fn parallelism_profile(g: &TaskGraph) -> Vec<usize> {
    let v = g.num_tasks();
    let mut indeg: Vec<usize> = (0..v).map(|i| g.in_degree(crate::TaskId(i))).collect();
    let mut layer: Vec<crate::TaskId> = g.entry_tasks().collect();
    let mut profile = Vec::new();
    while !layer.is_empty() {
        profile.push(layer.len());
        let mut next = Vec::new();
        for t in layer {
            for s in g.succ_ids(t) {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    next.push(s);
                }
            }
        }
        layer = next;
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, paper::fig1};

    #[test]
    fn fig1_stats() {
        let g = fig1();
        let s = stats(&g, true);
        assert_eq!(s.tasks, 8);
        assert_eq!(s.edges, 10);
        assert_eq!(s.entries, 1);
        assert_eq!(s.exits, 1);
        assert_eq!(s.width, 3);
        assert_eq!(s.ready_width, 3);
        assert_eq!(s.depth, 4);
        assert_eq!(s.total_comp, 19);
        assert_eq!(s.total_comm, 17);
        assert_eq!(s.critical_path, 15);
        assert_eq!(s.critical_path_comp, 10);
        assert!((s.max_speedup - 1.9).abs() < 1e-12);
        // min comp 2, max comm 4 -> granularity 0.5 (fine-grained).
        assert!((s.granularity - 0.5).abs() < 1e-12);
        assert_eq!(s.out_degree.2, 3); // t0 fans out to 3
        assert_eq!(s.in_degree.2, 3); // t7 joins 3
    }

    #[test]
    fn width_fallback_uses_ready_sweep() {
        let g = gen::laplace(4);
        let exact = stats(&g, true);
        let cheap = stats(&g, false);
        assert_eq!(exact.width, 4);
        assert_eq!(cheap.width, cheap.ready_width);
        assert!(cheap.width <= exact.width);
    }

    #[test]
    fn granularity_edge_cases() {
        let s = stats(&gen::independent(3), true);
        assert!(s.granularity.is_infinite()); // no edges
    }

    #[test]
    fn profile_shapes() {
        assert_eq!(parallelism_profile(&gen::chain(4)), vec![1, 1, 1, 1]);
        assert_eq!(parallelism_profile(&gen::independent(5)), vec![5]);
        // Diamond lattice widens then narrows.
        let p = parallelism_profile(&gen::laplace(3));
        assert_eq!(p, vec![1, 2, 3, 2, 1]);
        // Profile always sums to V.
        for g in [gen::lu(6), gen::fft(3), gen::stencil(3, 4)] {
            assert_eq!(parallelism_profile(&g).iter().sum::<usize>(), g.num_tasks());
        }
    }
}
