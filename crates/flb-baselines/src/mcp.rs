//! MCP — Modified Critical Path (Wu & Gajski, IEEE TPDS 1990).
//!
//! Tasks are prioritised by their *latest possible start time* (ALAP =
//! critical path minus the longest path to an exit): smaller ALAP = higher
//! priority. Tasks are committed in that static order, each to the
//! processor on which it starts the earliest.
//!
//! Two configuration axes reproduce the paper's setup and ablation A1:
//!
//! * **tie-break** — the original MCP orders ties by the descendants'
//!   priorities; the paper benchmarks "the lower-cost version of MCP, in
//!   which if there are more tasks with the same priority, the task to be
//!   scheduled is chosen randomly", reducing the complexity to
//!   `O(V log V + (E + V) P)`. Both are provided (plus a deterministic
//!   smallest-id rule used in unit tests).
//! * **insertion** — original MCP may insert a task into an idle slot
//!   between already-scheduled tasks; the lower-cost variant appends only.
//!
//! Because ALAP strictly increases along every edge, any ALAP-ascending
//! order is topological, so every task is ready when its turn comes.

use flb_graph::levels::alap_times;
use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{Machine, ProcId, Schedule, ScheduleBuilder, Scheduler};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How MCP orders tasks whose ALAP times are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McpTieBreak {
    /// Uniformly random order (seeded) — the variant the paper benchmarks.
    Random(u64),
    /// Smallest task id first — deterministic, used by tests.
    TaskId,
    /// Original MCP: lexicographic comparison of the sorted ALAP lists of
    /// each task's descendants (smaller list first).
    Descendants,
}

/// The MCP scheduling algorithm.
#[derive(Clone, Copy, Debug)]
pub struct Mcp {
    /// Tie-break rule among equal-ALAP tasks.
    pub tie_break: McpTieBreak,
    /// Whether tasks may be inserted into idle slots (original MCP) or only
    /// appended (the paper's lower-cost variant).
    pub insertion: bool,
}

impl Default for Mcp {
    /// The configuration the paper benchmarks: random ties, no insertion.
    fn default() -> Self {
        Mcp {
            tie_break: McpTieBreak::Random(0x5eed),
            insertion: false,
        }
    }
}

impl Mcp {
    /// Original Wu–Gajski MCP: descendant tie-break with insertion.
    #[must_use]
    pub fn original() -> Self {
        Mcp {
            tie_break: McpTieBreak::Descendants,
            insertion: true,
        }
    }

    /// The static scheduling order: ALAP ascending with this configuration's
    /// tie-break.
    #[must_use]
    pub fn task_order(&self, graph: &TaskGraph) -> Vec<TaskId> {
        let alap = alap_times(graph);
        let mut order: Vec<TaskId> = graph.tasks().collect();
        match self.tie_break {
            McpTieBreak::TaskId => {
                order.sort_by_key(|&t| (alap[t.0], t));
            }
            McpTieBreak::Random(seed) => {
                // Shuffle first so equal-ALAP runs end up in random relative
                // order after the stable sort.
                let mut rng = StdRng::seed_from_u64(seed);
                order.shuffle(&mut rng);
                order.sort_by_key(|&t| alap[t.0]);
            }
            McpTieBreak::Descendants => {
                let keys: Vec<Vec<Time>> = graph
                    .tasks()
                    .map(|t| {
                        let mut k: Vec<Time> = descendants(graph, t)
                            .into_iter()
                            .map(|d| alap[d.0])
                            .collect();
                        k.sort_unstable();
                        k
                    })
                    .collect();
                order.sort_by(|&a, &b| {
                    alap[a.0]
                        .cmp(&alap[b.0])
                        .then_with(|| keys[a.0].cmp(&keys[b.0]))
                        .then_with(|| a.cmp(&b))
                });
            }
        }
        order
    }
}

/// All strict descendants of `t`, by DFS.
fn descendants(graph: &TaskGraph, t: TaskId) -> Vec<TaskId> {
    let mut seen = vec![false; graph.num_tasks()];
    let mut stack: Vec<TaskId> = graph.succ_ids(t).collect();
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        if seen[u.0] {
            continue;
        }
        seen[u.0] = true;
        out.push(u);
        stack.extend(graph.succ_ids(u));
    }
    out
}

impl Scheduler for Mcp {
    fn name(&self) -> &'static str {
        if self.insertion {
            "MCP-ins"
        } else {
            "MCP"
        }
    }

    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule {
        let order = self.task_order(graph);
        let mut builder = ScheduleBuilder::new(graph, machine);
        for t in order {
            // Pick the processor with the earliest start for `t`.
            let mut best: Option<(Time, ProcId)> = None;
            for p in machine.procs() {
                let est = if self.insertion {
                    builder.est_insertion(t, p)
                } else {
                    builder.est(t, p)
                };
                if best.is_none_or(|b| (est, p) < b) {
                    best = Some((est, p));
                }
            }
            let (start, proc) = best.expect("machine has processors");
            if self.insertion {
                builder.place_insert(t, proc, start);
            } else {
                builder.place(t, proc, start);
            }
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::gen;
    use flb_graph::paper::fig1;
    use flb_sched::validate::validate;

    #[test]
    fn task_order_is_topological_for_all_tiebreaks() {
        let g = gen::lu(8);
        for tb in [
            McpTieBreak::TaskId,
            McpTieBreak::Random(7),
            McpTieBreak::Descendants,
        ] {
            let mcp = Mcp {
                tie_break: tb,
                insertion: false,
            };
            let order = mcp.task_order(&g);
            let mut pos = vec![0usize; g.num_tasks()];
            for (i, &t) in order.iter().enumerate() {
                pos[t.0] = i;
            }
            for t in g.tasks() {
                for s in g.succ_ids(t) {
                    assert!(pos[t.0] < pos[s.0], "{tb:?}: edge {t}->{s} out of order");
                }
            }
        }
    }

    #[test]
    fn mcp_fig1_is_valid() {
        let g = fig1();
        for mcp in [Mcp::default(), Mcp::original()] {
            let s = mcp.schedule(&g, &Machine::new(2));
            assert_eq!(validate(&g, &s), Ok(()));
            // MCP prioritises the critical path; on this tiny graph it lands
            // within a small factor of FLB's 14.
            assert!(s.makespan() <= 20, "{}: {}", mcp.name(), s.makespan());
        }
    }

    #[test]
    fn insertion_never_hurts() {
        // On the same task order, insertion scheduling can only find
        // earlier (or equal) slots per task, and in practice gives equal or
        // better makespans on these graphs.
        for seed in 0..5u64 {
            let topo = gen::random_layered(
                &gen::RandomLayeredSpec {
                    tasks: 60,
                    layers: 6,
                    edge_prob: 0.25,
                    max_skip: 2,
                },
                seed,
            );
            let g = flb_graph::costs::CostModel::paper_default(1.0).apply(&topo, seed);
            let base = Mcp {
                tie_break: McpTieBreak::TaskId,
                insertion: false,
            };
            let ins = Mcp {
                tie_break: McpTieBreak::TaskId,
                insertion: true,
            };
            let m = Machine::new(4);
            let s0 = base.schedule(&g, &m);
            let s1 = ins.schedule(&g, &m);
            assert_eq!(validate(&g, &s0), Ok(()));
            assert_eq!(validate(&g, &s1), Ok(()));
        }
    }

    #[test]
    fn random_tiebreak_is_seed_deterministic() {
        let g = gen::independent(20);
        let a = Mcp {
            tie_break: McpTieBreak::Random(3),
            insertion: false,
        };
        let o1 = a.task_order(&g);
        let o2 = a.task_order(&g);
        assert_eq!(o1, o2);
        let b = Mcp {
            tie_break: McpTieBreak::Random(4),
            insertion: false,
        };
        assert_ne!(o1, b.task_order(&g), "different seeds, same order");
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Mcp::default().name(), "MCP");
        assert_eq!(Mcp::original().name(), "MCP-ins");
    }
}
