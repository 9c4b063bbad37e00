//! Metamorphic relations: transform the instance in a way whose effect on
//! the output is known exactly, and check that the implication holds.
//!
//! All scheduler arithmetic in this workspace is integral and linear in
//! the costs, so uniform scaling is an *exact* relation (same placements,
//! makespan × k), not an approximate one. Relabeling is checked through
//! label-independent analysis quantities and schedule pullback — scheduler
//! makespans are deliberately **not** compared across a relabel, because
//! task-id tie-breaks legitimately differ. Transitive-edge insertion only
//! adds constraints already implied by reachability, pinning width, the
//! computation-only critical path, and the (unique) transitive reduction.

use crate::{registry, Instance, Violation};
use flb_graph::transform::{permute, scale_costs, transitive_reduction};
use flb_graph::width::max_antichain;
use flb_graph::{compose, levels, Cost, TaskGraph, TaskGraphBuilder, TaskId};
use flb_sched::{validate, Schedule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Scales every computation and communication cost by `k` and checks each
/// scheduler reproduces the identical placement with all times × k.
#[must_use]
pub fn check_scaling(inst: &Instance, k: u64) -> Vec<Violation> {
    let k = k.max(1);
    let scaled = Instance::new(scale_costs(&inst.graph, k), inst.machine.clone());
    let mut out = Vec::new();
    for entry in registry::all() {
        let base = entry.scheduler.schedule(&inst.graph, &inst.machine);
        let big = entry.scheduler.schedule(&scaled.graph, &scaled.machine);
        for t in inst.graph.tasks() {
            let same = big.proc(t) == base.proc(t)
                && big.start(t) == base.start(t) * k
                && big.finish(t) == base.finish(t) * k;
            if !same {
                out.push(Violation::new(
                    "scaling",
                    entry.name,
                    format!(
                        "×{k}: {t} moved from {} [{}, {}] to {} [{}, {}] ({inst})",
                        base.proc(t),
                        base.start(t),
                        base.finish(t),
                        big.proc(t),
                        big.start(t),
                        big.finish(t)
                    ),
                ));
                break;
            }
        }
        if big.makespan() != base.makespan() * k {
            out.push(Violation::new(
                "scaling",
                entry.name,
                format!(
                    "×{k}: makespan {} != {} × {k} ({inst})",
                    big.makespan(),
                    base.makespan()
                ),
            ));
        }
    }
    out
}

/// Relabels tasks by a seeded random permutation and checks that every
/// label-independent analysis quantity transports along it, and that every
/// scheduler's output on the relabeled graph pulls back to a valid
/// schedule of the original.
#[must_use]
pub fn check_relabel(inst: &Instance, seed: u64) -> Vec<Violation> {
    let g = &inst.graph;
    let v = g.num_tasks();
    let mut ids: Vec<TaskId> = g.tasks().collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x05e1_abe1));
    let new_id_of = ids; // new_id_of[old.0] = new id
    let h = permute(g, &new_id_of);

    let mut out = Vec::new();
    let fail = |detail: String| Violation::new("relabel", "-", format!("{detail} ({inst})"));

    if levels::critical_path(&h) != levels::critical_path(g) {
        out.push(fail(format!(
            "critical path changed: {} -> {}",
            levels::critical_path(g),
            levels::critical_path(&h)
        )));
    }
    if levels::critical_path_comp_only(&h) != levels::critical_path_comp_only(g) {
        out.push(fail("computation-only critical path changed".into()));
    }
    if max_antichain(&h) != max_antichain(g) {
        out.push(fail(format!(
            "width changed: {} -> {}",
            max_antichain(g),
            max_antichain(&h)
        )));
    }
    if (h.total_comp(), h.total_comm()) != (g.total_comp(), g.total_comm()) {
        out.push(fail("total computation/communication changed".into()));
    }
    let (bl_g, bl_h) = (levels::bottom_levels(g), levels::bottom_levels(&h));
    let (d_g, d_h) = (levels::depths(g), levels::depths(&h));
    for t in g.tasks() {
        let n = new_id_of[t.0];
        if bl_h[n.0] != bl_g[t.0] {
            out.push(fail(format!(
                "bottom level of {t} changed under relabeling: {} -> {}",
                bl_g[t.0], bl_h[n.0]
            )));
            break;
        }
        if d_h[n.0] != d_g[t.0] {
            out.push(fail(format!("depth of {t} changed under relabeling")));
            break;
        }
    }

    // Pullback: a schedule of the relabeled graph, read through the
    // inverse permutation, must be a valid schedule of the original.
    for entry in registry::all() {
        let s = entry.scheduler.schedule(&h, &inst.machine);
        if validate::validate(&h, &s).is_err() {
            continue; // the validity check owns plain invalid output
        }
        let placements = (0..v).map(|old| s.placement(new_id_of[old])).collect();
        let pulled = Schedule::from_raw_on(inst.machine.clone(), placements);
        if let Err(e) = validate::validate(g, &pulled) {
            out.push(Violation::new(
                "relabel",
                entry.name,
                format!("pulled-back schedule invalid: {e} ({inst})"),
            ));
        }
    }
    out
}

/// True iff the two graphs have identical task costs and edge lists.
fn same_structure(a: &TaskGraph, b: &TaskGraph) -> bool {
    a.num_tasks() == b.num_tasks()
        && a.num_edges() == b.num_edges()
        && a.tasks()
            .all(|t| a.comp(t) == b.comp(t) && a.succs(t).eq(b.succs(t)))
}

/// Inserts up to `want` random transitive edges (endpoints already
/// connected by a path) and returns the augmented graph, or `None` when
/// the graph has no transitive pair to offer.
fn insert_transitive_edges(g: &TaskGraph, seed: u64, want: usize) -> Option<TaskGraph> {
    let v = g.num_tasks();
    // Reachability by DFS per source; conformance graphs are small.
    let mut reach = vec![vec![false; v]; v];
    for s in g.tasks() {
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for w in g.succ_ids(u) {
                if !reach[s.0][w.0] {
                    reach[s.0][w.0] = true;
                    stack.push(w);
                }
            }
        }
    }
    let mut pairs: Vec<(TaskId, TaskId)> = Vec::new();
    for s in g.tasks() {
        for t in g.tasks() {
            if reach[s.0][t.0] && g.edge_comm(s, t).is_none() {
                pairs.push((s, t));
            }
        }
    }
    if pairs.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x007a_a517);
    pairs.shuffle(&mut rng);
    pairs.truncate(want.max(1));

    let mut b = TaskGraphBuilder::named(format!("{}-aug", g.name()));
    b.reserve(v, g.num_edges() + pairs.len());
    for t in g.tasks() {
        b.add_task(g.comp(t));
    }
    for t in g.tasks() {
        for (s, c) in g.succs(t) {
            b.add_edge(t, s, c).expect("copied edge of a valid graph");
        }
    }
    for (s, t) in pairs {
        let comm: Cost = rng.random_range(1..=10);
        b.add_edge(s, t, comm)
            .expect("transitive pair is a new edge");
    }
    Some(b.build().expect("transitive edges preserve acyclicity"))
}

/// Inserts random transitive edges and checks the implied invariants:
/// width unchanged, computation-only critical path unchanged, full
/// critical path non-decreasing, unchanged transitive reduction, and
/// every scheduler's output on the augmented graph remains a valid
/// schedule of the original.
#[must_use]
pub fn check_transitive(inst: &Instance, seed: u64) -> Vec<Violation> {
    let g = &inst.graph;
    let Some(aug) = insert_transitive_edges(g, seed, 1 + g.num_tasks() / 8) else {
        return Vec::new(); // nothing transitive to insert (chains, antichains)
    };
    let mut out = Vec::new();
    let fail = |detail: String| Violation::new("transitive", "-", format!("{detail} ({inst})"));

    if max_antichain(&aug) != max_antichain(g) {
        out.push(fail(format!(
            "width changed by transitive edges: {} -> {}",
            max_antichain(g),
            max_antichain(&aug)
        )));
    }
    if levels::critical_path_comp_only(&aug) != levels::critical_path_comp_only(g) {
        out.push(fail("computation-only critical path changed".into()));
    }
    if levels::critical_path(&aug) < levels::critical_path(g) {
        out.push(fail(format!(
            "critical path shrank: {} -> {}",
            levels::critical_path(g),
            levels::critical_path(&aug)
        )));
    }
    if !same_structure(&transitive_reduction(&aug), &transitive_reduction(g)) {
        out.push(fail("transitive reduction changed".into()));
    }

    for entry in registry::all() {
        let s = entry.scheduler.schedule(&aug, &inst.machine);
        if validate::validate(&aug, &s).is_err() {
            continue; // the validity check owns plain invalid output
        }
        if let Err(e) = validate::validate(g, &s) {
            out.push(Violation::new(
                "transitive",
                entry.name,
                format!("augmented-graph schedule invalid on original: {e} ({inst})"),
            ));
        }
    }
    out
}

/// Composes the instance's graph with itself through every combinator and
/// checks the width / critical-path algebra, plus schedule validity on
/// the compositions for one append-style and one insertion-style
/// scheduler.
#[must_use]
pub fn check_composition(inst: &Instance) -> Vec<Violation> {
    let g = &inst.graph;
    let mut out = Vec::new();
    let fail = |detail: String| Violation::new("composition", "-", format!("{detail} ({inst})"));

    let (w, cp) = (max_antichain(g), levels::critical_path(g));
    let bridge: Cost = 3;

    let ser = match compose::series(g, g, bridge) {
        Ok(s) => s,
        Err(e) => return vec![fail(format!("series composition failed: {e}"))],
    };
    if max_antichain(&ser) != w {
        out.push(fail(format!(
            "series width {} != max({w}, {w})",
            max_antichain(&ser)
        )));
    }
    if levels::critical_path(&ser) != cp + bridge + cp {
        out.push(fail(format!(
            "series critical path {} != {cp} + {bridge} + {cp}",
            levels::critical_path(&ser)
        )));
    }

    let par = match compose::parallel(g, g) {
        Ok(p) => p,
        Err(e) => return vec![fail(format!("parallel composition failed: {e}"))],
    };
    if max_antichain(&par) != 2 * w {
        out.push(fail(format!(
            "parallel width {} != {w} + {w}",
            max_antichain(&par)
        )));
    }
    if levels::critical_path(&par) != cp {
        out.push(fail(format!(
            "parallel critical path {} != max({cp}, {cp})",
            levels::critical_path(&par)
        )));
    }
    if par.total_comp() != 2 * g.total_comp() || par.total_comm() != 2 * g.total_comm() {
        out.push(fail("parallel totals are not additive".into()));
    }

    let copies = 3;
    let (fork, join, fan) = (2, 5, 4);
    let rep = match compose::replicate(g, copies, fork, join, fan) {
        Ok(r) => r,
        Err(e) => return vec![fail(format!("replicate composition failed: {e}"))],
    };
    if max_antichain(&rep) != copies * w {
        out.push(fail(format!(
            "replicate width {} != {copies} × {w}",
            max_antichain(&rep)
        )));
    }
    if levels::critical_path(&rep) != fork + fan + cp + fan + join {
        out.push(fail(format!(
            "replicate critical path {} != {fork} + {fan} + {cp} + {fan} + {join}",
            levels::critical_path(&rep)
        )));
    }

    for name in ["flb", "mcp-ins"] {
        let entry = registry::by_name(name).expect("registered");
        for comp in [&ser, &par, &rep] {
            let s = entry.scheduler.schedule(comp, &inst.machine);
            if let Err(e) = validate::validate(comp, &s) {
                out.push(Violation::new(
                    "composition",
                    name,
                    format!("invalid schedule of {}: {e} ({inst})", comp.name()),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;
    use flb_sched::Machine;

    fn fig1_inst() -> Instance {
        Instance::new(fig1(), Machine::new(2))
    }

    #[test]
    fn fig1_passes_all_metamorphic_checks() {
        let inst = fig1_inst();
        for seed in 0..5u64 {
            assert_eq!(check_scaling(&inst, 1 + seed), vec![]);
            assert_eq!(check_relabel(&inst, seed), vec![]);
            assert_eq!(check_transitive(&inst, seed), vec![]);
        }
        assert_eq!(check_composition(&inst), vec![]);
    }

    #[test]
    fn transitive_insertion_skips_graphs_without_transitive_pairs() {
        // A 2-task chain has a single edge and no strictly transitive pair.
        let inst = Instance::new(flb_graph::gen::chain(2), Machine::new(2));
        assert_eq!(check_transitive(&inst, 7), vec![]);
    }

    #[test]
    fn augmentation_inserts_only_transitive_edges() {
        let g = fig1();
        let aug = insert_transitive_edges(&g, 3, 4).expect("fig1 has transitive pairs");
        assert!(aug.num_edges() > g.num_edges());
        // Same reachability: both reductions coincide structurally.
        assert!(same_structure(
            &transitive_reduction(&aug),
            &transitive_reduction(&g)
        ));
    }
}
