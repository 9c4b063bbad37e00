//! Graph composition combinators: build large programs from sub-programs.
//!
//! Parallel programs are rarely authored as flat DAGs — they are phases
//! ([`series`]), independent kernels ([`parallel`]), and replicated
//! sub-structures ([`replicate`]). The combinators here compose validated
//! [`TaskGraph`]s into validated task graphs, re-indexing tasks
//! (left-operand ids first) and returning the id mappings where useful.

use crate::{Cost, GraphError, TaskGraph, TaskGraphBuilder, TaskId};

/// Copies `g` into `b`, returning the id offset mapping (old id + offset).
fn splice(b: &mut TaskGraphBuilder, g: &TaskGraph) -> usize {
    let offset = b.num_tasks();
    for t in g.tasks() {
        b.add_task(g.comp(t));
    }
    for t in g.tasks() {
        for (s, c) in g.succs(t) {
            b.add_edge(TaskId(t.0 + offset), TaskId(s.0 + offset), c)
                .expect("copied edge of a valid graph");
        }
    }
    offset
}

/// Sequential composition: every exit task of `first` feeds every entry
/// task of `second` with communication cost `comm` (a full barrier with
/// data exchange). Ids of `first` come first, then `second`'s shifted by
/// `first.num_tasks()`.
///
/// ```
/// use flb_graph::{compose::series, gen};
///
/// // FFT phase feeding a stencil sweep across a cost-10 exchange.
/// let program = series(&gen::fft(3), &gen::stencil(4, 3), 10).unwrap();
/// assert_eq!(
///     program.num_tasks(),
///     gen::fft(3).num_tasks() + gen::stencil(4, 3).num_tasks()
/// );
/// ```
pub fn series(first: &TaskGraph, second: &TaskGraph, comm: Cost) -> Result<TaskGraph, GraphError> {
    let mut b = TaskGraphBuilder::named(format!("{}>{}", first.name(), second.name()));
    b.reserve(
        first.num_tasks() + second.num_tasks(),
        first.num_edges() + second.num_edges(),
    );
    splice(&mut b, first);
    let off = splice(&mut b, second);
    for e in first.exit_tasks() {
        for s in second.entry_tasks() {
            b.add_edge(e, TaskId(s.0 + off), comm)?;
        }
    }
    b.build()
}

/// Parallel composition: the disjoint union of `a` and `b` (independent
/// phases). Ids of `a` first, then `b`'s shifted by `a.num_tasks()`.
pub fn parallel(a: &TaskGraph, b: &TaskGraph) -> Result<TaskGraph, GraphError> {
    let mut builder = TaskGraphBuilder::named(format!("{}|{}", a.name(), b.name()));
    builder.reserve(a.num_tasks() + b.num_tasks(), a.num_edges() + b.num_edges());
    splice(&mut builder, a);
    splice(&mut builder, b);
    builder.build()
}

/// Fork–join replication: a `fork` task fans out to `copies` instances of
/// `body`, whose exits all join into a `join` task. `fork`/`join` have the
/// given computation costs; all fan edges carry cost `comm`.
pub fn replicate(
    body: &TaskGraph,
    copies: usize,
    fork_comp: Cost,
    join_comp: Cost,
    comm: Cost,
) -> Result<TaskGraph, GraphError> {
    assert!(copies > 0, "replicate needs at least one copy");
    let mut b = TaskGraphBuilder::named(format!("{}x{copies}", body.name()));
    let fork = b.add_task(fork_comp);
    let mut offsets = Vec::with_capacity(copies);
    for _ in 0..copies {
        offsets.push(splice(&mut b, body));
    }
    let join = b.add_task(join_comp);
    for off in offsets {
        for e in body.entry_tasks() {
            b.add_edge(fork, TaskId(e.0 + off), comm)?;
        }
        for x in body.exit_tasks() {
            b.add_edge(TaskId(x.0 + off), join, comm)?;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::width::max_antichain;
    use crate::{gen, paper::fig1};

    #[test]
    fn series_connects_exits_to_entries() {
        let a = gen::fork_join(3, 1); // 1 entry, 1 exit, 5 tasks
        let c = gen::chain(2);
        let g = series(&a, &c, 7).unwrap();
        assert_eq!(g.num_tasks(), 7);
        // One new edge (single exit x single entry) with cost 7.
        assert_eq!(g.num_edges(), a.num_edges() + c.num_edges() + 1);
        assert_eq!(g.entry_tasks().count(), 1);
        assert_eq!(g.exit_tasks().count(), 1);
        // The bridge edge carries the requested cost.
        let exit_a = a.exit_tasks().next().unwrap();
        let entry_c = c.entry_tasks().next().unwrap();
        assert_eq!(
            g.edge_comm(exit_a, TaskId(entry_c.0 + a.num_tasks())),
            Some(7)
        );
    }

    #[test]
    fn series_of_multi_exit_graphs_is_a_full_bipartite_bridge() {
        let a = gen::independent(3);
        let c = gen::independent(2);
        let g = series(&a, &c, 1).unwrap();
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.entry_tasks().count(), 3);
        assert_eq!(g.exit_tasks().count(), 2);
    }

    #[test]
    fn parallel_is_disjoint_union() {
        let a = fig1();
        let c = gen::chain(4);
        let g = parallel(&a, &c).unwrap();
        assert_eq!(g.num_tasks(), 12);
        assert_eq!(g.num_edges(), a.num_edges() + c.num_edges());
        assert_eq!(max_antichain(&g), max_antichain(&a) + 1);
        assert_eq!(g.total_comp(), a.total_comp() + c.total_comp());
    }

    #[test]
    fn replicate_fans_out_and_joins() {
        let body = gen::chain(3);
        let g = replicate(&body, 4, 2, 5, 9).unwrap();
        assert_eq!(g.num_tasks(), 4 * 3 + 2);
        assert_eq!(g.entry_tasks().count(), 1);
        assert_eq!(g.exit_tasks().count(), 1);
        assert_eq!(max_antichain(&g), 4);
        // Fork has out-degree 4; join in-degree 4.
        let fork = g.entry_tasks().next().unwrap();
        assert_eq!(g.out_degree(fork), 4);
        assert_eq!(g.comp(fork), 2);
        let join = g.exit_tasks().next().unwrap();
        assert_eq!(g.in_degree(join), 4);
        assert_eq!(g.comp(join), 5);
    }

    #[test]
    fn compositions_remain_valid_dags() {
        let a = gen::lu(5);
        let b = gen::fft(3);
        let s = series(&a, &b, 3).unwrap();
        let p = parallel(&s, &gen::laplace(3)).unwrap();
        let r = replicate(&p, 2, 1, 1, 1).unwrap();
        // Builder validation already ran; spot-check the topological order.
        let order = r.topological_order();
        assert_eq!(order.len(), r.num_tasks());
    }
}
