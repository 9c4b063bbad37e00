//! The streaming million-task LU generator.
//!
//! The suite generators in the crate root build [`flb_graph::TaskGraph`]s
//! through the validating builder — fine at the paper's `V ≈ 2000`, but at a
//! million tasks the builder's intermediate edge list and sort dominate.
//! [`lu_flat`] streams the LU topology straight into the CSR arrays via
//! [`TaskGraph::from_sorted_edges`]: task ids are assigned in the natural
//! construction order (which is topological), edge endpoints are computed
//! arithmetically in ascending `(src, dst)` order, and no per-task `Vec`
//! of handles and no edge list is ever materialised.
//!
//! Costs are drawn from a [`CostModel`] like [`CostModel::apply`] does:
//! computation costs in task-id order from a generator seeded with `seed`,
//! communication costs in edge-emission order from an independent stream.
//! The topology is bit-identical to [`flb_graph::gen::lu`] — the tests
//! check exactly that — while the cost *streams* are this module's own.

use flb_graph::costs::CostModel;
use flb_graph::{TaskGraph, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Decorrelates the communication-cost stream from the computation one
/// (golden-ratio constant, as in splitmix).
fn comm_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

fn sample_comps(model: &CostModel, seed: u64, v: usize) -> Vec<Time> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..v).map(|_| model.comp.sample(&mut rng)).collect()
}

/// Smallest LU matrix order `m` whose task count `m(m+1)/2` reaches `v`.
#[must_use]
pub fn lu_order_for_tasks(v: usize) -> usize {
    let mut m = (((8.0 * v as f64 + 1.0).sqrt() - 1.0) / 2.0)
        .floor()
        .max(1.0) as usize;
    while m * (m + 1) / 2 < v {
        m += 1;
    }
    m
}

/// Streams the LU-decomposition topology of [`flb_graph::gen::lu`] straight
/// into a weighted [`TaskGraph`]. `V = m(m+1)/2`, `E = m(m-1)`.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn lu_flat(m: usize, model: &CostModel, seed: u64) -> TaskGraph {
    assert!(m > 0, "LU needs at least a 1x1 matrix");
    let v = m * (m + 1) / 2;
    // id of task (k, j) for j >= k; j = k is the pivot task of step k.
    // Step k starts after sum_{s<k} (m - s) = k (2m - k + 1) / 2 tasks.
    let id = move |k: usize, j: usize| (k * (2 * m - k + 1) / 2 + (j - k)) as u32;
    let comm = model.comm_dist();
    let mut rng = StdRng::seed_from_u64(comm_seed(seed));
    // Step k's sources are P_k, then U_{k,j} by ascending j, and every
    // target of step k lies past them: ascending (src, dst) order.
    let edges = (0..m)
        .flat_map(move |k| {
            // P_k -> U_{k,j}
            let pivot = ((k + 1)..m).map(move |j| (id(k, k), id(k, j)));
            // U_{k,j} -> next task of column j at step k+1.
            let updates = ((k + 1)..m).map(move |j| (id(k, j), id(k + 1, j)));
            pivot.chain(updates)
        })
        .map(move |(src, dst)| (src, dst, comm.sample(&mut rng)));
    TaskGraph::from_sorted_edges(
        format!("lu-{m}-ccr{}-s{seed}", model.ccr),
        sample_comps(model, seed, v),
        m * (m - 1),
        edges,
    )
    .expect("LU edges are sorted, distinct and go forward")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::costs::Dist;
    use flb_graph::gen;

    fn model(ccr: f64) -> CostModel {
        CostModel {
            comp: Dist::UniformMean(100),
            ccr,
        }
    }

    /// Adjacency (ignoring weights) of a streamed graph equals the
    /// reference generator's, per task id.
    fn assert_same_topology(flat: &TaskGraph, reference: &TaskGraph) {
        assert_eq!(flat.num_tasks(), reference.num_tasks());
        assert_eq!(flat.num_edges(), reference.num_edges());
        for t in reference.tasks() {
            let got = flat.succ_ids(t);
            assert!(got.eq(reference.succ_ids(t)), "successors of {t} differ");
        }
    }

    #[test]
    fn lu_flat_matches_reference_topology() {
        for m in [1usize, 2, 3, 8, 20] {
            let flat = lu_flat(m, &model(1.0), 7);
            assert_same_topology(&flat, &gen::lu(m));
        }
    }

    /// The graph builder walks the edge stream twice and stores the
    /// weights from the second walk, on a clone of the generator: they
    /// must still be the communication stream's draws in edge-emission
    /// order, which is `(src, dst)` order.
    #[test]
    fn lu_flat_draws_comm_costs_in_edge_order() {
        let model = model(1.0);
        let g = lu_flat(25, &model, 3);
        let comm = model.comm_dist();
        let mut rng = StdRng::seed_from_u64(comm_seed(3));
        for t in g.tasks() {
            for (s, c) in g.succs(t) {
                assert_eq!(c, comm.sample(&mut rng), "edge {t} -> {s}");
            }
        }
    }

    #[test]
    fn generators_are_deterministic_and_seed_sensitive() {
        let a = lu_flat(30, &model(0.2), 11);
        let b = lu_flat(30, &model(0.2), 11);
        assert_eq!(a.total_comp(), b.total_comp());
        assert_eq!(a.total_comm(), b.total_comm());
        let c = lu_flat(30, &model(0.2), 12);
        assert!(a.total_comp() != c.total_comp() || a.total_comm() != c.total_comm());
    }

    #[test]
    fn generators_hit_target_ccr() {
        for ccr in [0.2, 5.0] {
            let g = lu_flat(60, &model(ccr), 5);
            let measured = g.total_comm() as f64 / g.total_comp() as f64 * g.num_tasks() as f64
                / g.num_edges() as f64;
            // Mean comm / mean comp ≈ ccr.
            assert!(
                (measured - ccr).abs() / ccr < 0.2,
                "target CCR {ccr}, measured {measured}"
            );
        }
    }

    #[test]
    fn sizing_helpers_bracket_the_target() {
        for v in [1usize, 100, 2000, 1_000_000] {
            let m = lu_order_for_tasks(v);
            assert!(m * (m + 1) / 2 >= v);
            assert!(m == 1 || (m - 1) * m / 2 < v);
        }
        // The 1M-task LU instance of perfbench's kernel-lu1m workload.
        assert_eq!(lu_order_for_tasks(1_000_000), 1414);
        assert_eq!(1414 * 1415 / 2, 1_000_405);
    }
}
