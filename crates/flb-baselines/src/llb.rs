//! LLB — List-based Load Balancing (Rădulescu, van Gemund & Lin,
//! IPPS/SPDP 1999).
//!
//! The second step of the multi-step method: maps the clusters produced by
//! [`crate::dsc`] onto the `P` physical processors while ordering tasks. A
//! cluster is *mapped* once any of its tasks has been scheduled; from then
//! on all its tasks must run on that processor.
//!
//! Each iteration (paper §3.3): the destination processor is the one
//! becoming idle the earliest; the candidates are (a) the highest-priority
//! ready task already mapped to that processor and (b) the highest-priority
//! unmapped ready task; whichever starts earlier is scheduled (scheduling an
//! unmapped task maps its whole cluster).
//!
//! **Priority ambiguity** (DESIGN.md item 6): the FLB paper's wording says
//! the candidates have "the least bottom level", while load-balancing a
//! critical path argues for the greatest. Both rules are provided as
//! [`LlbPriority`]; the default is [`LlbPriority::Greatest`], which is the
//! variant that lands in the paper's reported quality band (DSC-LLB within
//! ~20–40 % of MCP — measured in EXPERIMENTS.md; the `Least` variant is
//! part of ablation A2's sweep).
//!
//! When the earliest-idle processor has no candidate (no unmapped ready
//! task and none of its own mapped tasks ready), the next-earliest
//! processor with a candidate is used — the paper does not specify this
//! corner case; some processor always qualifies because the ready set is
//! non-empty.

use crate::dsc::Clustering;
use flb_ds::IndexedMinHeap;
use flb_graph::levels::bottom_levels;
use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{Machine, ProcId, Schedule, ScheduleBuilder};

/// Which bottom level wins among ready candidates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LlbPriority {
    /// Greatest bottom level first (critical tasks first) — default.
    #[default]
    Greatest,
    /// Least bottom level first — the FLB paper's literal wording.
    Least,
}

impl LlbPriority {
    /// Heap key so that the preferred task has the *smallest* key.
    fn key(self, bl: Time) -> Time {
        match self {
            LlbPriority::Greatest => Time::MAX - bl,
            LlbPriority::Least => bl,
        }
    }
}

/// Maps `clustering` onto `machine`, ordering tasks by LLB.
#[must_use]
pub fn map_clusters(
    graph: &TaskGraph,
    machine: &Machine,
    clustering: &Clustering,
    priority: LlbPriority,
) -> Schedule {
    let v = graph.num_tasks();
    let p = machine.num_procs();
    let bl = bottom_levels(graph);
    let mut builder = ScheduleBuilder::new(graph, machine);
    let mut missing: Vec<usize> = graph.tasks().map(|t| graph.in_degree(t)).collect();

    // Cluster -> processor once mapped.
    let mut cluster_proc: Vec<Option<ProcId>> = vec![None; clustering.num_clusters()];
    // Ready tasks of unmapped clusters, keyed by priority.
    let mut unmapped: IndexedMinHeap<Time> = IndexedMinHeap::new(v);
    // Ready tasks per cluster while the cluster is unmapped (so the whole
    // batch can be promoted on mapping).
    let mut unmapped_by_cluster: Vec<Vec<TaskId>> = vec![Vec::new(); clustering.num_clusters()];
    // Ready tasks whose cluster is mapped, one heap per processor.
    let mut mapped: Vec<IndexedMinHeap<Time>> = (0..p).map(|_| IndexedMinHeap::new(v)).collect();
    // Processors by PRT.
    let mut procs: IndexedMinHeap<Time> = IndexedMinHeap::new(p);
    for q in machine.procs() {
        procs.insert(q.0, 0);
    }

    // A task entering the ready set.
    let enqueue = |t: TaskId,
                   unmapped: &mut IndexedMinHeap<Time>,
                   unmapped_by_cluster: &mut Vec<Vec<TaskId>>,
                   mapped: &mut Vec<IndexedMinHeap<Time>>,
                   cluster_proc: &[Option<ProcId>]| {
        let c = clustering.cluster_of[t.0];
        match cluster_proc[c] {
            Some(q) => mapped[q.0].insert(t.0, priority.key(bl[t.0])),
            None => {
                unmapped.insert(t.0, priority.key(bl[t.0]));
                unmapped_by_cluster[c].push(t);
            }
        }
    };

    for t in graph.entry_tasks() {
        enqueue(
            t,
            &mut unmapped,
            &mut unmapped_by_cluster,
            &mut mapped,
            &cluster_proc,
        );
    }

    let mut placed = 0usize;
    while placed < v {
        // Destination: earliest-idle processor that has a candidate. Pop
        // processors (in PRT order) into a scratch list until one fits.
        let mut scratch: Vec<(usize, Time)> = Vec::new();
        let (dest, task, start) = loop {
            let (q, &prt) = procs.peek().expect("non-empty machine");
            let dest = ProcId(q);
            let cand_mapped = mapped[q].peek().map(|(t, _)| TaskId(t));
            let cand_unmapped = unmapped.peek().map(|(t, _)| TaskId(t));
            let choice = match (cand_mapped, cand_unmapped) {
                (None, None) => None,
                (Some(a), None) => Some((a, builder.est(a, dest))),
                (None, Some(b)) => Some((b, builder.est(b, dest))),
                (Some(a), Some(b)) => {
                    let (ea, eb) = (builder.est(a, dest), builder.est(b, dest));
                    // Earlier start wins; ties keep the cluster together.
                    if ea <= eb {
                        Some((a, ea))
                    } else {
                        Some((b, eb))
                    }
                }
            };
            match choice {
                Some((t, est)) => break (dest, t, est),
                None => {
                    // No candidate for this processor; try the next one.
                    scratch.push((q, prt));
                    procs.pop();
                }
            }
        };
        for (q, prt) in scratch {
            procs.insert(q, prt);
        }

        // Commit: map the cluster if needed, promote its ready tasks.
        let c = clustering.cluster_of[task.0];
        if cluster_proc[c].is_none() {
            cluster_proc[c] = Some(dest);
            for t in std::mem::take(&mut unmapped_by_cluster[c]) {
                let removed = unmapped.remove(t.0);
                debug_assert!(removed.is_some());
                mapped[dest.0].insert(t.0, priority.key(bl[t.0]));
            }
        }
        let removed = mapped[dest.0].remove(task.0);
        debug_assert!(removed.is_some(), "candidate came from a ready heap");

        builder.place(task, dest, start);
        placed += 1;
        procs.update(dest.0, builder.prt(dest));

        for s in graph.succ_ids(task) {
            missing[s.0] -= 1;
            if missing[s.0] == 0 {
                enqueue(
                    s,
                    &mut unmapped,
                    &mut unmapped_by_cluster,
                    &mut mapped,
                    &cluster_proc,
                );
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsc;
    use flb_graph::paper::fig1;
    use flb_graph::{gen, TaskGraph};
    use flb_sched::validate::validate;

    fn llb(g: &TaskGraph, p: usize, prio: LlbPriority) -> Schedule {
        let cl = dsc::cluster(g);
        map_clusters(g, &Machine::new(p), &cl, prio)
    }

    #[test]
    fn fig1_both_priorities_valid() {
        let g = fig1();
        for prio in [LlbPriority::Greatest, LlbPriority::Least] {
            let s = llb(&g, 2, prio);
            assert_eq!(validate(&g, &s), Ok(()), "{prio:?}");
        }
    }

    #[test]
    fn clusters_stay_together() {
        let g = gen::lu(8);
        let cl = dsc::cluster(&g);
        let s = map_clusters(&g, &Machine::new(3), &cl, LlbPriority::Greatest);
        assert_eq!(validate(&g, &s), Ok(()));
        for tasks in &cl.clusters {
            let procs: Vec<_> = tasks.iter().map(|&t| s.proc(t)).collect();
            assert!(
                procs.windows(2).all(|w| w[0] == w[1]),
                "cluster split across processors"
            );
        }
    }

    #[test]
    fn single_processor_serialises() {
        let g = gen::laplace(4);
        let s = llb(&g, 1, LlbPriority::Greatest);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), g.total_comp());
    }

    #[test]
    fn more_clusters_than_procs() {
        let g = gen::independent(10);
        let s = llb(&g, 3, LlbPriority::Greatest);
        assert_eq!(validate(&g, &s), Ok(()));
        // Load balancing: 10 unit tasks on 3 procs -> makespan 4.
        assert!(s.makespan() <= 4);
    }

    #[test]
    fn fallback_skips_idle_proc_without_candidates() {
        // A pure chain collapses into one DSC cluster. Once its head is on
        // p0, the earliest-idle processor is p1 — which can never run the
        // mapped tasks — so every iteration exercises the next-processor
        // fallback, and the whole chain must stay on p0 with no idle time.
        let g = gen::chain(5);
        let cl = dsc::cluster(&g);
        assert_eq!(cl.num_clusters(), 1);
        let s = map_clusters(&g, &Machine::new(3), &cl, LlbPriority::Greatest);
        assert_eq!(validate(&g, &s), Ok(()));
        let p = s.proc(flb_graph::TaskId(0));
        for t in g.tasks() {
            assert_eq!(s.proc(t), p, "chain split across processors");
        }
        assert_eq!(s.makespan(), g.total_comp());
    }

    #[test]
    fn random_graphs_all_valid() {
        for seed in 0..8 {
            let topo = gen::random_layered(
                &gen::RandomLayeredSpec {
                    tasks: 40,
                    layers: 5,
                    edge_prob: 0.3,
                    max_skip: 2,
                },
                seed,
            );
            let g = flb_graph::costs::CostModel::paper_default(5.0).apply(&topo, seed);
            for prio in [LlbPriority::Greatest, LlbPriority::Least] {
                for p in [1, 2, 4] {
                    let s = llb(&g, p, prio);
                    assert_eq!(validate(&g, &s), Ok(()), "seed {seed} p {p} {prio:?}");
                }
            }
        }
    }
}
