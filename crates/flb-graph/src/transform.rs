//! Task-graph transformations used as scheduling pre-passes.
//!
//! * [`transitive_reduction`] — removes edges implied by longer paths.
//!   Compilers commonly emit redundant dependence edges; removing one whose
//!   endpoints stay ordered through an intermediate path preserves every
//!   precedence constraint while deleting its message. Only edges whose
//!   communication cannot *lengthen* any path are safe to drop under
//!   communication-aware scheduling, so reduction here removes an edge
//!   `(u, v)` only when some alternative `u ⇝ v` path exists; the effect on
//!   schedule quality is workload-dependent and measured, not assumed.
//! * [`coarsen_chains`] — merges maximal linear chains (out-degree 1 →
//!   in-degree 1 runs) into single tasks, summing computation and dropping
//!   the internal messages: classic granularity coarsening. Returns the
//!   mapping from old to new task ids.
//! * [`permute`] — relabels tasks through a bijection. Task ids are an
//!   artefact of graph construction order, so every analysis quantity
//!   (width, critical path, totals) must be invariant under relabeling;
//!   the conformance harness uses this as a metamorphic relation.
//! * [`scale_costs`] — multiplies every computation and communication cost
//!   by a constant. All schedulers in this workspace compare integer
//!   quantities that are linear in the costs, so scaling by `k` must scale
//!   every schedule exactly by `k` — another metamorphic relation.

use crate::{Cost, TaskGraph, TaskGraphBuilder, TaskId};

/// Removes every edge `(u, v)` for which another `u ⇝ v` path exists.
///
/// The result has the same tasks and the same reachability relation (same
/// partial order, hence identical width and a critical path no longer than
/// the original).
///
/// ```
/// use flb_graph::{transform::transitive_reduction, TaskGraphBuilder};
///
/// let mut b = TaskGraphBuilder::new();
/// let (x, y, z) = (b.add_task(1), b.add_task(1), b.add_task(1));
/// b.add_edge(x, y, 1).unwrap();
/// b.add_edge(y, z, 1).unwrap();
/// b.add_edge(x, z, 9).unwrap(); // implied by x -> y -> z
/// let reduced = transitive_reduction(&b.build().unwrap());
/// assert_eq!(reduced.num_edges(), 2);
/// ```
#[must_use]
pub fn transitive_reduction(g: &TaskGraph) -> TaskGraph {
    let v = g.num_tasks();
    // Longest path (in edges) between adjacent pairs suffices: an edge
    // (u, w) is redundant iff some successor s != w of u reaches w.
    // Reachability bitsets, as in width computation.
    let words = v.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; v];
    for t in g.topological_order().rev() {
        // reach[t] = union over succs s of ({s} ∪ reach[s]).
        let mut row = std::mem::take(&mut reach[t.0]);
        for s in g.succ_ids(t) {
            row[s.0 / 64] |= 1 << (s.0 % 64);
            for (a, b) in row.iter_mut().zip(&reach[s.0]) {
                *a |= *b;
            }
        }
        reach[t.0] = row;
    }

    let mut b = TaskGraphBuilder::named(format!("{}-tr", g.name()));
    b.reserve(v, g.num_edges());
    for t in g.tasks() {
        b.add_task(g.comp(t));
    }
    for t in g.tasks() {
        for (s, c) in g.succs(t) {
            // Redundant iff some *other* direct successor of t reaches s.
            let redundant = g
                .succ_ids(t)
                .any(|mid| mid != s && (reach[mid.0][s.0 / 64] >> (s.0 % 64)) & 1 == 1);
            if !redundant {
                b.add_edge(t, s, c).expect("copying edges of a valid graph");
            }
        }
    }
    b.build().expect("subgraph of a DAG is a DAG")
}

/// Result of [`coarsen_chains`].
#[derive(Clone, Debug)]
pub struct Coarsening {
    /// The coarsened graph.
    pub graph: TaskGraph,
    /// `new_of[old]` = id of the coarse task containing the old task.
    pub new_of: Vec<TaskId>,
}

/// Merges maximal linear chains into single tasks.
///
/// A chain link is an edge `(u, v)` with `out_degree(u) == 1` and
/// `in_degree(v) == 1`: `v` can only ever run right after `u`, so any
/// scheduler may treat the pair as one task with summed computation and no
/// internal message. Communication costs of edges entering/leaving the
/// chain are preserved.
#[must_use]
pub fn coarsen_chains(g: &TaskGraph) -> Coarsening {
    let v = g.num_tasks();
    // Head of each chain: a task whose single predecessor doesn't chain to
    // it. Walk chains from heads in topological order.
    let chains_to = |u: TaskId, s: TaskId| g.out_degree(u) == 1 && g.in_degree(s) == 1;
    let mut new_of: Vec<Option<TaskId>> = vec![None; v];
    let mut b = TaskGraphBuilder::named(format!("{}-coarse", g.name()));

    for t in g.topological_order() {
        if new_of[t.0].is_some() {
            continue; // interior of an already-merged chain
        }
        // t is a chain head (or a solo task): accumulate the chain.
        let mut comp: Cost = g.comp(t);
        let mut members = vec![t];
        let mut cur = t;
        // `chains_to` holds only for a task's one successor.
        while let Some(next) = g.succ_ids(cur).next().filter(|&s| chains_to(cur, s)) {
            comp += g.comp(next);
            members.push(next);
            cur = next;
        }
        let id = b.add_task(comp);
        for m in members {
            new_of[m.0] = Some(id);
        }
    }

    // Re-add the surviving (cross-chain) edges.
    let new_of: Vec<TaskId> = new_of.into_iter().map(|x| x.expect("covered")).collect();
    for t in g.tasks() {
        for (s, c) in g.succs(t) {
            let (a, bb) = (new_of[t.0], new_of[s.0]);
            if a != bb {
                b.add_edge(a, bb, c).expect("cross-chain edge");
            }
        }
    }
    Coarsening {
        graph: b.build().expect("contraction of chains keeps acyclicity"),
        new_of,
    }
}

/// Relabels tasks through the bijection `new_id_of`: old task `t` becomes
/// task `new_id_of[t.0]` in the result, keeping its computation cost, and
/// every edge `(u, v, c)` becomes `(new_id_of[u], new_id_of[v], c)`.
///
/// The result is the same weighted partial order under different names, so
/// width, critical path, depth and cost totals are all preserved exactly.
///
/// # Panics
///
/// Panics when `new_id_of` is not a permutation of `0..g.num_tasks()`.
///
/// ```
/// use flb_graph::{transform::permute, TaskGraphBuilder, TaskId};
///
/// let mut b = TaskGraphBuilder::new();
/// let (x, y) = (b.add_task(3), b.add_task(5));
/// b.add_edge(x, y, 7).unwrap();
/// let g = b.build().unwrap();
/// let p = permute(&g, &[TaskId(1), TaskId(0)]); // swap the two tasks
/// assert_eq!(p.comp(TaskId(1)), 3);
/// assert_eq!(p.edge_comm(TaskId(1), TaskId(0)), Some(7));
/// ```
#[must_use]
pub fn permute(g: &TaskGraph, new_id_of: &[TaskId]) -> TaskGraph {
    let v = g.num_tasks();
    assert_eq!(new_id_of.len(), v, "permutation length mismatch");
    let mut seen = vec![false; v];
    for &n in new_id_of {
        assert!(n.0 < v && !seen[n.0], "new_id_of is not a permutation");
        seen[n.0] = true;
    }
    // comp[new] = comp of the old task mapped there.
    let mut comp = vec![0; v];
    for t in g.tasks() {
        comp[new_id_of[t.0].0] = g.comp(t);
    }
    let mut b = TaskGraphBuilder::named(format!("{}-perm", g.name()));
    b.reserve(v, g.num_edges());
    for c in comp {
        b.add_task(c);
    }
    for t in g.tasks() {
        for (s, c) in g.succs(t) {
            b.add_edge(new_id_of[t.0], new_id_of[s.0], c)
                .expect("relabeled edge of a valid graph");
        }
    }
    b.build().expect("relabeling preserves acyclicity")
}

/// Multiplies every computation and communication cost by `k ≥ 1`.
///
/// # Panics
///
/// Panics when `k == 0` (a zero-cost graph is not a scaled instance).
#[must_use]
pub fn scale_costs(g: &TaskGraph, k: Cost) -> TaskGraph {
    assert!(k >= 1, "scale factor must be at least 1");
    let mut b = TaskGraphBuilder::named(format!("{}-x{k}", g.name()));
    b.reserve(g.num_tasks(), g.num_edges());
    for t in g.tasks() {
        b.add_task(g.comp(t) * k);
    }
    for t in g.tasks() {
        for (s, c) in g.succs(t) {
            b.add_edge(t, s, c * k)
                .expect("scaled edge of a valid graph");
        }
    }
    b.build().expect("scaling preserves acyclicity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::critical_path;
    use crate::width::max_antichain;
    use crate::{gen, paper::fig1};

    #[test]
    fn reduction_removes_shortcut_edges() {
        // 0 -> 1 -> 2 plus the redundant shortcut 0 -> 2.
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task(1);
        let t1 = b.add_task(1);
        let t2 = b.add_task(1);
        b.add_edge(t0, t1, 5).unwrap();
        b.add_edge(t1, t2, 5).unwrap();
        b.add_edge(t0, t2, 99).unwrap();
        let g = b.build().unwrap();
        let r = transitive_reduction(&g);
        assert_eq!(r.num_edges(), 2);
        assert_eq!(r.edge_comm(t0, t2), None);
        assert_eq!(r.edge_comm(t0, t1), Some(5));
    }

    #[test]
    fn reduction_is_idempotent_and_preserves_order() {
        for g in [fig1(), gen::lu(8), gen::laplace(5), gen::fft(3)] {
            let r = transitive_reduction(&g);
            assert!(r.num_edges() <= g.num_edges());
            assert_eq!(max_antichain(&r), max_antichain(&g), "{}", g.name());
            let r2 = transitive_reduction(&r);
            assert_eq!(r2.num_edges(), r.num_edges());
            // Critical path cannot grow (only edges were removed).
            assert!(critical_path(&r) <= critical_path(&g));
        }
    }

    #[test]
    fn fig1_is_already_reduced() {
        let g = fig1();
        assert_eq!(transitive_reduction(&g).num_edges(), g.num_edges());
    }

    #[test]
    fn coarsen_merges_pure_chain() {
        let g = gen::chain(5);
        let c = coarsen_chains(&g);
        assert_eq!(c.graph.num_tasks(), 1);
        assert_eq!(c.graph.num_edges(), 0);
        assert_eq!(c.graph.comp(TaskId(0)), 5);
        assert!(c.new_of.iter().all(|&n| n == TaskId(0)));
    }

    #[test]
    fn coarsen_preserves_branching_structure() {
        // Diamond with a 2-chain on one arm:
        // 0 -> 1 -> 2 -> 3 and 0 -> 4 -> 3; (1,2) is the only chain link.
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task(1);
        let t1 = b.add_task(2);
        let t2 = b.add_task(3);
        let t3 = b.add_task(1);
        let t4 = b.add_task(9);
        b.add_edge(t0, t1, 1).unwrap();
        b.add_edge(t1, t2, 7).unwrap();
        b.add_edge(t2, t3, 1).unwrap();
        b.add_edge(t0, t4, 1).unwrap();
        b.add_edge(t4, t3, 1).unwrap();
        let g = b.build().unwrap();
        let c = coarsen_chains(&g);
        assert_eq!(c.graph.num_tasks(), 4);
        assert_eq!(c.graph.num_edges(), 4);
        // The merged task has comp 2 + 3.
        assert_eq!(c.new_of[t1.0], c.new_of[t2.0]);
        assert_eq!(c.graph.comp(c.new_of[t1.0]), 5);
        // Total computation conserved; internal message (cost 7) dropped.
        assert_eq!(c.graph.total_comp(), g.total_comp());
        assert_eq!(c.graph.total_comm(), g.total_comm() - 7);
    }

    #[test]
    fn permute_reverse_relabels_fig1() {
        let g = fig1();
        let v = g.num_tasks();
        let rev: Vec<TaskId> = (0..v).map(|i| TaskId(v - 1 - i)).collect();
        let p = permute(&g, &rev);
        assert_eq!(p.num_tasks(), v);
        assert_eq!(p.num_edges(), g.num_edges());
        for t in g.tasks() {
            assert_eq!(p.comp(rev[t.0]), g.comp(t));
            for (s, c) in g.succs(t) {
                assert_eq!(p.edge_comm(rev[t.0], rev[s.0]), Some(c));
            }
        }
        assert_eq!(max_antichain(&p), max_antichain(&g));
        assert_eq!(critical_path(&p), critical_path(&g));
        assert_eq!(p.total_comp(), g.total_comp());
        assert_eq!(p.total_comm(), g.total_comm());
        // Applying the inverse permutation restores the original labels.
        let mut inv = vec![TaskId(0); v];
        for (old, &new) in rev.iter().enumerate() {
            inv[new.0] = TaskId(old);
        }
        let back = permute(&p, &inv);
        for t in g.tasks() {
            assert_eq!(back.comp(t), g.comp(t));
            assert!(back.succs(t).eq(g.succs(t)));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_non_bijection() {
        let g = gen::chain(3);
        let _ = permute(&g, &[TaskId(0), TaskId(0), TaskId(1)]);
    }

    #[test]
    fn scale_costs_multiplies_everything() {
        let g = fig1();
        let s = scale_costs(&g, 7);
        for t in g.tasks() {
            assert_eq!(s.comp(t), 7 * g.comp(t));
            for (d, c) in g.succs(t) {
                assert_eq!(s.edge_comm(t, d), Some(7 * c));
            }
        }
        assert_eq!(s.total_comp(), 7 * g.total_comp());
        assert_eq!(critical_path(&s), 7 * critical_path(&g));
        assert_eq!(max_antichain(&s), max_antichain(&g));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn scale_costs_rejects_zero() {
        let _ = scale_costs(&gen::chain(2), 0);
    }

    #[test]
    fn coarsen_keeps_fig1_mostly_intact() {
        // Fig. 1 has no out-1/in-1 links except none — verify by counting.
        let g = fig1();
        let c = coarsen_chains(&g);
        // t2 -> t6 is a chain link (out(t2)=1, in(t6)=1): 8 -> 7 tasks.
        assert_eq!(c.graph.num_tasks(), 7);
        assert_eq!(c.graph.total_comp(), g.total_comp());
    }
}
