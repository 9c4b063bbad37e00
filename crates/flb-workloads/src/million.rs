//! The streaming million-task LU generator.
//!
//! The suite generators in the crate root build [`flb_graph::TaskGraph`]s
//! through the validating builder — fine at the paper's `V ≈ 2000`, but at a
//! million tasks the builder's intermediate edge lists, cycle check and
//! adjacency sort dominate. [`lu_flat`] streams the LU topology directly
//! into [`flb_kernel::FlatGraph`] CSR arrays via
//! [`FlatGraph::from_emitter`]: task ids are assigned in the natural
//! construction order (which is topological), edge endpoints are computed
//! arithmetically, and no per-task `Vec` of handles is ever materialised.
//!
//! Costs are drawn from a [`CostModel`] like [`CostModel::apply`] does:
//! computation costs in task-id order from a generator seeded with `seed`,
//! communication costs in edge-emission order from an independent stream
//! (the emitter runs twice, so the communication generator is reseeded per
//! pass). The topology is bit-identical to [`flb_graph::gen::lu`] — the
//! tests check exactly that — while the cost *streams* are this module's
//! own.

use flb_graph::costs::CostModel;
use flb_graph::Time;
use flb_kernel::FlatGraph;
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
/// into a weighted [`FlatGraph`]. `V = m(m+1)/2`, `E = m(m-1)`.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn lu_flat(m: usize, model: &CostModel, seed: u64) -> FlatGraph {
    assert!(m > 0, "LU needs at least a 1x1 matrix");
    let v = m * (m + 1) / 2;
    // id of task (k, j) for j >= k; j = k is the pivot task of step k.
    // Step k starts after sum_{s<k} (m - s) = k (2m - k + 1) / 2 tasks.
    let id = move |k: usize, j: usize| (k * (2 * m - k + 1) / 2 + (j - k)) as u32;
    let comm = model.comm_dist();
    FlatGraph::from_emitter(
        format!("lu-{m}-ccr{}-s{seed}", model.ccr),
        sample_comps(model, seed, v),
        m * (m - 1),
        move |sink| {
            let mut rng = StdRng::seed_from_u64(comm_seed(seed));
            for k in 0..m {
                for j in (k + 1)..m {
                    // P_k -> U_{k,j}
                    sink(id(k, k), id(k, j), comm.sample(&mut rng));
                }
                for j in (k + 1)..m {
                    // U_{k,j} -> next task of column j at step k+1.
                    sink(id(k, j), id(k + 1, j), comm.sample(&mut rng));
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::costs::Dist;
    use flb_graph::{gen, TaskGraph, TaskId};

    fn model(ccr: f64) -> CostModel {
        CostModel {
            comp: Dist::UniformMean(100),
            ccr,
        }
    }

    /// Adjacency (ignoring weights) of a flat graph equals the reference
    /// generator's, per task id.
    fn assert_same_topology(flat: &FlatGraph, reference: &TaskGraph) {
        assert_eq!(flat.num_tasks(), reference.num_tasks());
        assert_eq!(flat.num_edges(), reference.num_edges());
        for t in 0..reference.num_tasks() {
            let mut got: Vec<u32> = flat.succs(t as u32).map(|(s, _)| s).collect();
            got.sort_unstable();
            let want: Vec<u32> = reference
                .succs(TaskId(t))
                .iter()
                .map(|&(s, _)| s.0 as u32)
                .collect();
            assert_eq!(got, want, "successors of task {t} differ");
        }
    }

    #[test]
    fn lu_flat_matches_reference_topology() {
        for m in [1usize, 2, 3, 8, 20] {
            let flat = lu_flat(m, &model(1.0), 7);
            assert_same_topology(&flat, &gen::lu(m));
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
