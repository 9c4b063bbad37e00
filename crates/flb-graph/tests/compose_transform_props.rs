//! Property tests for the graph transformations and composition
//! combinators: the algebra the metamorphic conformance checks rely on.
//!
//! * Relabeling ([`transform::permute`]) is an isomorphism — every analysis
//!   quantity is preserved (per-task ones pull back through the map).
//! * Uniform cost scaling ([`transform::scale_costs`]) scales every
//!   time-valued quantity by exactly `k` and touches nothing structural.
//! * [`compose::series`] / [`compose::parallel`] / [`compose::replicate`]
//!   obey closed-form width and critical-path algebra.

use flb_graph::levels::{bottom_levels, critical_path, critical_path_comp_only, depths};
use flb_graph::width::max_antichain;
use flb_graph::{compose, gen, transform, TaskGraph, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    use flb_graph::costs::CostModel;
    let topo = prop_oneof![
        (1usize..8).prop_map(gen::chain),
        (1usize..8).prop_map(gen::independent),
        (1usize..6, 1usize..4).prop_map(|(w, s)| gen::fork_join(w, s)),
        (2usize..10).prop_map(gen::lu),
        (1usize..5).prop_map(gen::laplace),
        (1u32..4).prop_map(gen::fft),
        (2usize..20, any::<u64>()).prop_map(|(v, seed)| gen::random_dag(v, 0.3, seed)),
    ];
    (
        topo,
        prop_oneof![Just(0.5), Just(1.0), Just(5.0)],
        any::<u64>(),
    )
        .prop_map(|(t, ccr, seed)| CostModel::paper_default(ccr).apply(&t, seed))
}

/// A random permutation of `0..v` as a `new_id_of` table.
fn random_permutation(v: usize, seed: u64) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = (0..v).map(TaskId).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Relabeling preserves every analysis quantity; per-task quantities
    /// pull back through the permutation.
    #[test]
    fn relabeling_preserves_analysis(g in arb_graph(), seed in any::<u64>()) {
        let new_id_of = random_permutation(g.num_tasks(), seed);
        let p = transform::permute(&g, &new_id_of);

        prop_assert_eq!(p.num_tasks(), g.num_tasks());
        prop_assert_eq!(p.num_edges(), g.num_edges());
        prop_assert_eq!(p.total_comp(), g.total_comp());
        prop_assert_eq!(p.total_comm(), g.total_comm());
        prop_assert_eq!(critical_path(&p), critical_path(&g));
        prop_assert_eq!(critical_path_comp_only(&p), critical_path_comp_only(&g));
        prop_assert_eq!(max_antichain(&p), max_antichain(&g));

        let (bl_g, bl_p) = (bottom_levels(&g), bottom_levels(&p));
        let (d_g, d_p) = (depths(&g), depths(&p));
        for t in g.tasks() {
            let n = new_id_of[t.0];
            prop_assert_eq!(p.comp(n), g.comp(t));
            prop_assert_eq!(bl_p[n.0], bl_g[t.0]);
            prop_assert_eq!(d_p[n.0], d_g[t.0]);
            for (s, c) in g.succs(t) {
                prop_assert_eq!(p.edge_comm(n, new_id_of[s.0]), Some(c));
            }
        }

        // Applying the inverse permutation recovers the original.
        let mut inverse = vec![TaskId(0); new_id_of.len()];
        for (old, &new) in new_id_of.iter().enumerate() {
            inverse[new.0] = TaskId(old);
        }
        let back = transform::permute(&p, &inverse);
        for t in g.tasks() {
            prop_assert_eq!(back.comp(t), g.comp(t));
            prop_assert!(back.succs(t).eq(g.succs(t)));
        }
    }

    /// Uniform scaling multiplies every time quantity by `k` exactly
    /// (all-integer arithmetic) and preserves structure.
    #[test]
    fn scaling_scales_all_time_quantities(g in arb_graph(), k in 1u64..8) {
        let s = transform::scale_costs(&g, k);
        prop_assert_eq!(s.num_tasks(), g.num_tasks());
        prop_assert_eq!(s.num_edges(), g.num_edges());
        prop_assert_eq!(s.total_comp(), g.total_comp() * k);
        prop_assert_eq!(s.total_comm(), g.total_comm() * k);
        prop_assert_eq!(critical_path(&s), critical_path(&g) * k);
        prop_assert_eq!(
            critical_path_comp_only(&s),
            critical_path_comp_only(&g) * k
        );
        prop_assert_eq!(max_antichain(&s), max_antichain(&g));
        let (bl_g, bl_s) = (bottom_levels(&g), bottom_levels(&s));
        for t in g.tasks() {
            prop_assert_eq!(bl_s[t.0], bl_g[t.0] * k);
        }
    }

    /// Series composition: widths max out (the full bipartite bridge makes
    /// every cross pair comparable), critical paths chain through the
    /// bridge, totals add (plus the bridge edges).
    #[test]
    fn series_algebra(a in arb_graph(), b in arb_graph(), comm in 0u64..20) {
        let s = compose::series(&a, &b, comm).unwrap();
        prop_assert_eq!(s.num_tasks(), a.num_tasks() + b.num_tasks());
        let bridge = a.exit_tasks().count() * b.entry_tasks().count();
        prop_assert_eq!(s.num_edges(), a.num_edges() + b.num_edges() + bridge);
        prop_assert_eq!(
            max_antichain(&s),
            max_antichain(&a).max(max_antichain(&b))
        );
        prop_assert_eq!(
            critical_path(&s),
            critical_path(&a) + comm + critical_path(&b)
        );
        prop_assert_eq!(s.total_comp(), a.total_comp() + b.total_comp());
        prop_assert_eq!(
            s.total_comm(),
            a.total_comm() + b.total_comm() + bridge as u64 * comm
        );
    }

    /// Parallel composition: widths add, critical paths max out, totals add.
    #[test]
    fn parallel_algebra(a in arb_graph(), b in arb_graph()) {
        let p = compose::parallel(&a, &b).unwrap();
        prop_assert_eq!(p.num_tasks(), a.num_tasks() + b.num_tasks());
        prop_assert_eq!(p.num_edges(), a.num_edges() + b.num_edges());
        prop_assert_eq!(max_antichain(&p), max_antichain(&a) + max_antichain(&b));
        prop_assert_eq!(
            critical_path(&p),
            critical_path(&a).max(critical_path(&b))
        );
        prop_assert_eq!(p.total_comp(), a.total_comp() + b.total_comp());
        prop_assert_eq!(p.total_comm(), a.total_comm() + b.total_comm());
    }

    /// Replication: width multiplies by the copy count; the critical path
    /// threads fork → one copy → join.
    #[test]
    fn replicate_algebra(
        body in arb_graph(),
        copies in 1usize..5,
        fork in 1u64..6,
        join in 1u64..6,
        comm in 0u64..10,
    ) {
        let r = compose::replicate(&body, copies, fork, join, comm).unwrap();
        prop_assert_eq!(r.num_tasks(), copies * body.num_tasks() + 2);
        prop_assert_eq!(max_antichain(&r), copies * max_antichain(&body));
        prop_assert_eq!(
            critical_path(&r),
            fork + comm + critical_path(&body) + comm + join
        );
        prop_assert_eq!(
            r.total_comp(),
            copies as u64 * body.total_comp() + fork + join
        );
        prop_assert_eq!(r.entry_tasks().count(), 1);
        prop_assert_eq!(r.exit_tasks().count(), 1);
    }
}
