//! Task-graph width `W`: the maximum number of tasks that are pairwise not
//! connected through a path (§2), i.e. the maximum antichain of the induced
//! partial order.
//!
//! Two computations are provided:
//!
//! * [`max_antichain`] — the exact width, via Dilworth's theorem: the maximum
//!   antichain equals `V` minus a maximum matching in the bipartite graph
//!   whose edges are the *reachability* pairs. Reachability is computed with
//!   per-task bitsets (`O(V·E/64)`), the matching with Hopcroft–Karp
//!   (`O(E_tc·√V)` on the transitive closure). Practical up to a few
//!   thousand tasks — exactly the scale of the paper's workloads.
//! * [`max_ready_width`] — the maximum number of simultaneously *ready*
//!   tasks over a topological sweep. Any set of simultaneously ready tasks
//!   is an antichain, so this is a lower bound on `W`; it is also precisely
//!   the quantity that bounds the ready-list sizes inside FLB, which is why
//!   experiment logs report both.

use crate::{TaskGraph, TaskId};

/// Dense bitset over task ids.
#[derive(Clone)]
struct BitRow(Vec<u64>);

impl BitRow {
    fn zeros(n: usize) -> Self {
        BitRow(vec![0; n.div_ceil(64)])
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn or_with(&mut self, other: &BitRow) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= *b;
        }
    }
    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }
}

/// Reachability bitsets: `reach[t]` has bit `s` set iff there is a non-empty
/// path `t ⇝ s`.
fn reachability(g: &TaskGraph) -> Vec<BitRow> {
    let v = g.num_tasks();
    let mut reach: Vec<BitRow> = vec![BitRow::zeros(v); v];
    for t in g.topological_order().rev() {
        // Split borrow: take the row out, OR successors in, put it back.
        let mut row = std::mem::replace(&mut reach[t.0], BitRow::zeros(0));
        for s in g.succ_ids(t) {
            row.set(s.0);
            row.or_with(&reach[s.0]);
        }
        reach[t.0] = row;
    }
    reach
}

/// Exact task-graph width `W` (maximum antichain) via Dilworth's theorem.
#[must_use]
pub fn max_antichain(g: &TaskGraph) -> usize {
    let v = g.num_tasks();
    let reach = reachability(g);
    let matching = hopcroft_karp(v, &reach);
    v - matching
}

/// Hopcroft–Karp maximum bipartite matching where left node `u` is adjacent
/// to right node `w` iff `reach[u]` has bit `w` set.
fn hopcroft_karp(v: usize, reach: &[BitRow]) -> usize {
    const NIL: usize = usize::MAX;
    let mut match_l = vec![NIL; v];
    let mut match_r = vec![NIL; v];
    let mut dist = vec![usize::MAX; v];
    let mut queue = Vec::with_capacity(v);
    let mut matching = 0;

    loop {
        // BFS from unmatched left vertices to build layers.
        queue.clear();
        for u in 0..v {
            if match_l[u] == NIL {
                dist[u] = 0;
                queue.push(u);
            } else {
                dist[u] = usize::MAX;
            }
        }
        let mut found = false;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for w in reach[u].iter_ones() {
                let next = match_r[w];
                if next == NIL {
                    found = true;
                } else if dist[next] == usize::MAX {
                    dist[next] = dist[u] + 1;
                    queue.push(next);
                }
            }
        }
        if !found {
            break;
        }
        // DFS augmenting paths along the layering.
        fn try_augment(
            u: usize,
            reach: &[BitRow],
            match_l: &mut [usize],
            match_r: &mut [usize],
            dist: &mut [usize],
        ) -> bool {
            for w in reach[u].iter_ones() {
                let next = match_r[w];
                let ok = if next == NIL {
                    true
                } else if dist[next] == dist[u] + 1 {
                    try_augment(next, reach, match_l, match_r, dist)
                } else {
                    false
                };
                if ok {
                    match_l[u] = w;
                    match_r[w] = u;
                    return true;
                }
            }
            dist[u] = usize::MAX;
            false
        }
        for u in 0..v {
            if match_l[u] == NIL
                && dist[u] == 0
                && try_augment(u, reach, &mut match_l, &mut match_r, &mut dist)
            {
                matching += 1;
            }
        }
    }
    matching
}

/// Maximum number of simultaneously ready tasks over a topological sweep in
/// which every ready task is "executed" as late as possible layer-wise:
/// repeatedly take the full current ready set as one antichain.
///
/// Lower bound on [`max_antichain`]; upper bound on FLB's ready-list sizes.
#[must_use]
pub fn max_ready_width(g: &TaskGraph) -> usize {
    let v = g.num_tasks();
    let mut indeg: Vec<usize> = (0..v).map(|i| g.in_degree(TaskId(i))).collect();
    let mut ready: Vec<TaskId> = g.entry_tasks().collect();
    let mut widest = ready.len();
    while !ready.is_empty() {
        let layer = std::mem::take(&mut ready);
        for t in layer {
            for s in g.succ_ids(t) {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
        widest = widest.max(ready.len());
    }
    widest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskGraphBuilder;

    fn build(v: usize, edges: &[(usize, usize)]) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let ids: Vec<_> = (0..v).map(|_| b.add_task(1)).collect();
        for &(s, d) in edges {
            b.add_edge(ids[s], ids[d], 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_has_width_one() {
        let g = build(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(max_antichain(&g), 1);
        assert_eq!(max_ready_width(&g), 1);
    }

    #[test]
    fn independent_tasks_have_full_width() {
        let g = build(6, &[]);
        assert_eq!(max_antichain(&g), 6);
        assert_eq!(max_ready_width(&g), 6);
    }

    #[test]
    fn diamond_width_two() {
        let g = build(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(max_antichain(&g), 2);
        assert_eq!(max_ready_width(&g), 2);
    }

    #[test]
    fn two_chains_width_two() {
        let g = build(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert_eq!(max_antichain(&g), 2);
        assert_eq!(max_ready_width(&g), 2);
    }

    #[test]
    fn fork_join_width_is_fanout() {
        // 0 -> {1..=4} -> 5
        let g = build(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 5),
                (2, 5),
                (3, 5),
                (4, 5),
            ],
        );
        assert_eq!(max_antichain(&g), 4);
        assert_eq!(max_ready_width(&g), 4);
    }

    #[test]
    fn antichain_can_exceed_ready_width() {
        // Staircase where the maximum antichain {1, 2} is never a ready set?
        // Build: 0 -> 1, 0 -> 2, 2 -> 3; antichain {1,2} size 2 and ready
        // sweep also sees {1,2}: use a shifted case instead:
        // 0 -> 1 -> 2, and 0 -> 3, 3 -> 4; antichain {1,3} and {2,4}.
        // Ready sweep: {0} -> {1,3} -> {2,4}: width 2 both ways. The general
        // inequality is checked by the cross-crate property tests; here we
        // assert the bound direction on a known-tricky shape.
        let g = build(7, &[(0, 2), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (1, 6)]);
        assert!(max_ready_width(&g) <= max_antichain(&g));
    }

    #[test]
    fn multiword_bitsets_are_correct() {
        // More than 64 tasks forces multi-word bitset rows; a graph of two
        // long chains plus independent tasks has a known width.
        let mut b = TaskGraphBuilder::new();
        let chain_a: Vec<_> = (0..40).map(|_| b.add_task(1)).collect();
        let chain_b: Vec<_> = (0..40).map(|_| b.add_task(1)).collect();
        for w in chain_a.windows(2).chain(chain_b.windows(2)) {
            b.add_edge(w[0], w[1], 1).unwrap();
        }
        for _ in 0..10 {
            b.add_task(1); // 10 isolated tasks
        }
        let g = b.build().unwrap(); // 90 tasks -> 2-word rows
        assert_eq!(max_antichain(&g), 2 + 10);
        assert_eq!(max_ready_width(&g), 12);
    }

    #[test]
    fn layered_random_bound_direction() {
        // For every generated shape, ready width <= antichain width.
        let shapes: &[&[(usize, usize)]] = &[
            &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)],
            &[(0, 3), (1, 3), (2, 3)],
            &[(0, 1), (1, 2), (0, 3), (3, 2)],
        ];
        for (i, edges) in shapes.iter().enumerate() {
            let v = edges.iter().flat_map(|&(a, b)| [a, b]).max().unwrap() + 1;
            let g = build(v, edges);
            assert!(
                max_ready_width(&g) <= max_antichain(&g),
                "shape {i}: ready width exceeded antichain"
            );
        }
    }
}
