//! Delta-debugging counterexample reduction.
//!
//! [`shrink`] takes a failing [`Instance`] and a property (re-running the
//! check that tripped) and greedily minimises it: ddmin over tasks
//! (induced subgraph), ddmin over edges, weight shrinking toward 1/0, and
//! machine simplification (homogenise, drop processors). Each accepted
//! reduction must keep the property failing, so the result is a locally
//! minimal counterexample — typically a handful of tasks — ready to be
//! written to the corpus and replayed forever.

use crate::{Instance, Violation};
use flb_graph::{TaskGraph, TaskGraphBuilder, TaskId};
use flb_sched::{Machine, ProcId};

/// Outcome of a successful reduction.
#[derive(Debug)]
pub struct ShrinkResult {
    /// The minimised failing instance.
    pub instance: Instance,
    /// The violation the minimised instance still produces.
    pub violation: Violation,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Property evaluations spent.
    pub tests: usize,
}

/// The induced subgraph on the kept tasks (compact relabeling in id
/// order). Returns `None` when nothing is kept.
#[must_use]
pub fn induced(g: &TaskGraph, keep: &[bool]) -> Option<TaskGraph> {
    assert_eq!(keep.len(), g.num_tasks());
    let mut new_id = vec![usize::MAX; g.num_tasks()];
    let mut n = 0usize;
    for t in g.tasks() {
        if keep[t.0] {
            new_id[t.0] = n;
            n += 1;
        }
    }
    if n == 0 {
        return None;
    }
    let mut b = TaskGraphBuilder::named(g.name().to_owned());
    for t in g.tasks() {
        if keep[t.0] {
            b.add_task(g.comp(t));
        }
    }
    for t in g.tasks() {
        if !keep[t.0] {
            continue;
        }
        for (s, c) in g.succs(t) {
            if keep[s.0] {
                b.add_edge(TaskId(new_id[t.0]), TaskId(new_id[s.0]), c)
                    .expect("induced edge of a valid graph");
            }
        }
    }
    Some(b.build().expect("induced subgraph of a DAG is a DAG"))
}

/// Rebuilds `g` without the edges whose index (in `tasks × succs` order)
/// is marked dropped.
fn drop_edges(g: &TaskGraph, dropped: &[bool]) -> TaskGraph {
    let mut b = TaskGraphBuilder::named(g.name().to_owned());
    b.reserve(g.num_tasks(), g.num_edges());
    for t in g.tasks() {
        b.add_task(g.comp(t));
    }
    let mut idx = 0usize;
    for t in g.tasks() {
        for (s, c) in g.succs(t) {
            if !dropped[idx] {
                b.add_edge(t, s, c).expect("kept edge of a valid graph");
            }
            idx += 1;
        }
    }
    b.build().expect("edge subset of a DAG is a DAG")
}

/// Rebuilds `g` with explicit per-task computation and per-edge (in
/// `tasks × succs` order) communication costs.
fn with_costs(g: &TaskGraph, comp: &[u64], comm: &[u64]) -> TaskGraph {
    let mut b = TaskGraphBuilder::named(g.name().to_owned());
    b.reserve(g.num_tasks(), g.num_edges());
    for t in g.tasks() {
        b.add_task(comp[t.0]);
    }
    let mut idx = 0usize;
    for t in g.tasks() {
        for s in g.succ_ids(t) {
            b.add_edge(t, s, comm[idx]).expect("same edge, new cost");
            idx += 1;
        }
    }
    b.build().expect("same topology is a DAG")
}

/// ddmin over a boolean keep-mask: repeatedly tries discarding chunks of
/// the still-kept items, accepting any removal under which `fails` still
/// holds, until single-item granularity makes no progress.
fn ddmin(len: usize, mut fails: impl FnMut(&[bool]) -> bool, tests: &mut usize) -> Vec<bool> {
    let mut keep = vec![true; len];
    if len == 0 {
        return keep;
    }
    let mut granularity = 2usize.min(len);
    loop {
        let kept: Vec<usize> = (0..len).filter(|&i| keep[i]).collect();
        if kept.len() <= 1 {
            return keep;
        }
        let chunk = kept.len().div_ceil(granularity);
        let mut progressed = false;
        for start in (0..kept.len()).step_by(chunk) {
            let mut cand = keep.clone();
            for &i in &kept[start..(start + chunk).min(kept.len())] {
                cand[i] = false;
            }
            *tests += 1;
            if fails(&cand) {
                keep = cand;
                progressed = true;
            }
        }
        if progressed {
            granularity = 2;
        } else if chunk == 1 {
            return keep;
        } else {
            granularity = (granularity * 2).min(kept.len());
        }
    }
}

/// Reduces `start` to a locally minimal instance still failing `prop`.
///
/// `prop` returns the violation the instance produces, or `None` when the
/// instance passes. Returns `None` when `start` itself passes. A bounded
/// number of fixpoint rounds alternates task ddmin, edge ddmin, weight
/// shrinking, and machine simplification.
#[must_use]
pub fn shrink(
    start: &Instance,
    prop: &mut dyn FnMut(&Instance) -> Option<Violation>,
) -> Option<ShrinkResult> {
    let mut violation = prop(start)?;
    let mut cur = start.clone();
    let mut tests = 1usize;
    let mut rounds = 0usize;

    const MAX_ROUNDS: usize = 8;
    while rounds < MAX_ROUNDS {
        rounds += 1;
        let before = (
            cur.graph.num_tasks(),
            cur.graph.num_edges(),
            cur.graph.total_comp() + cur.graph.total_comm(),
            cur.machine.num_procs(),
        );

        // 1. Fewer tasks (induced subgraph).
        {
            let g = cur.graph.clone();
            let m = cur.machine.clone();
            let mut best: Option<(TaskGraph, Violation)> = None;
            let keep = ddmin(
                g.num_tasks(),
                |mask| {
                    let Some(sub) = induced(&g, mask) else {
                        return false;
                    };
                    match prop(&Instance::new(sub.clone(), m.clone())) {
                        Some(v) => {
                            best = Some((sub, v));
                            true
                        }
                        None => false,
                    }
                },
                &mut tests,
            );
            if keep.iter().any(|k| !k) {
                let (sub, v) = best.expect("an accepted reduction produced a violation");
                cur = Instance::new(sub, m);
                violation = v;
            }
        }

        // 2. Fewer edges.
        {
            let g = cur.graph.clone();
            let m = cur.machine.clone();
            let mut best: Option<(TaskGraph, Violation)> = None;
            let kept = ddmin(
                g.num_edges(),
                |mask| {
                    let dropped: Vec<bool> = mask.iter().map(|&k| !k).collect();
                    let sub = drop_edges(&g, &dropped);
                    match prop(&Instance::new(sub.clone(), m.clone())) {
                        Some(v) => {
                            best = Some((sub, v));
                            true
                        }
                        None => false,
                    }
                },
                &mut tests,
            );
            if kept.iter().any(|k| !k) {
                let (sub, v) = best.expect("an accepted reduction produced a violation");
                cur = Instance::new(sub, m);
                violation = v;
            }
        }

        // 3. Smaller weights: per cost, try 1 (comp) / 0 (comm), then halve.
        {
            let g = &cur.graph;
            let mut comp: Vec<u64> = g.tasks().map(|t| g.comp(t)).collect();
            let mut comm: Vec<u64> = g.tasks().flat_map(|t| g.succs(t).map(|(_, c)| c)).collect();
            let mut changed = false;
            for i in 0..comp.len() {
                for target in [1, comp[i] / 2] {
                    if target >= comp[i] {
                        continue;
                    }
                    let old = comp[i];
                    comp[i] = target;
                    let cand =
                        Instance::new(with_costs(&cur.graph, &comp, &comm), cur.machine.clone());
                    tests += 1;
                    if let Some(v) = prop(&cand) {
                        violation = v;
                        changed = true;
                        break;
                    }
                    comp[i] = old;
                }
            }
            for i in 0..comm.len() {
                for target in [0, comm[i] / 2] {
                    if target >= comm[i] {
                        continue;
                    }
                    let old = comm[i];
                    comm[i] = target;
                    let cand =
                        Instance::new(with_costs(&cur.graph, &comp, &comm), cur.machine.clone());
                    tests += 1;
                    if let Some(v) = prop(&cand) {
                        violation = v;
                        changed = true;
                        break;
                    }
                    comm[i] = old;
                }
            }
            if changed {
                cur = Instance::new(with_costs(&cur.graph, &comp, &comm), cur.machine.clone());
            }
        }

        // 4. Simpler machine: homogenise, then drop trailing processors.
        {
            if !cur.machine.is_homogeneous() {
                let cand = Instance::new(cur.graph.clone(), Machine::new(cur.machine.num_procs()));
                tests += 1;
                if let Some(v) = prop(&cand) {
                    violation = v;
                    cur = cand;
                }
            }
            while cur.machine.num_procs() > 1 {
                let p = cur.machine.num_procs() - 1;
                let m = if cur.machine.is_homogeneous() {
                    Machine::new(p)
                } else {
                    Machine::related((0..p).map(|i| cur.machine.slowdown(ProcId(i))).collect())
                };
                let cand = Instance::new(cur.graph.clone(), m);
                tests += 1;
                match prop(&cand) {
                    Some(v) => {
                        violation = v;
                        cur = cand;
                    }
                    None => break,
                }
            }
        }

        let after = (
            cur.graph.num_tasks(),
            cur.graph.num_edges(),
            cur.graph.total_comp() + cur.graph.total_comm(),
            cur.machine.num_procs(),
        );
        if after == before {
            break; // fixpoint
        }
    }

    Some(ShrinkResult {
        instance: cur,
        violation,
        rounds,
        tests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::gen;

    #[test]
    fn induced_drops_tasks_and_their_edges() {
        let g = gen::fork_join(3, 1); // entry, 3 middles, exit
        let mut keep = vec![true; g.num_tasks()];
        keep[2] = false;
        let sub = induced(&g, &keep).unwrap();
        assert_eq!(sub.num_tasks(), g.num_tasks() - 1);
        assert_eq!(sub.num_edges(), g.num_edges() - 2);
        assert!(induced(&g, &vec![false; g.num_tasks()]).is_none());
    }

    #[test]
    fn ddmin_finds_a_single_culprit() {
        // Property: fails iff item 7 is kept. ddmin must keep exactly {7}.
        let mut tests = 0;
        let keep = ddmin(20, |mask| mask[7], &mut tests);
        let kept: Vec<usize> = (0..20).filter(|&i| keep[i]).collect();
        assert_eq!(kept, vec![7]);
    }

    #[test]
    fn ddmin_keeps_a_required_pair() {
        // Fails iff both 3 and 12 are kept: the pair must survive.
        let mut tests = 0;
        let keep = ddmin(16, |mask| mask[3] && mask[12], &mut tests);
        let kept: Vec<usize> = (0..16).filter(|&i| keep[i]).collect();
        assert_eq!(kept, vec![3, 12]);
    }

    #[test]
    fn shrink_reduces_a_size_property_to_one_task() {
        // "Fails whenever it has >= 3 tasks": minimal failing size is 3.
        let start = Instance::new(gen::independent(12), Machine::new(4));
        let result = shrink(&start, &mut |i| {
            (i.graph.num_tasks() >= 3)
                .then(|| Violation::new("toy", "-", i.graph.num_tasks().to_string()))
        })
        .expect("start fails");
        assert_eq!(result.instance.graph.num_tasks(), 3);
        assert_eq!(result.instance.machine.num_procs(), 1);
        assert!(result.tests > 0);
    }

    #[test]
    fn shrink_returns_none_on_a_passing_instance() {
        let start = Instance::new(gen::chain(3), Machine::new(2));
        assert!(shrink(&start, &mut |_| None).is_none());
    }
}
