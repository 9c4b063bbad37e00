//! Static level computations on task graphs.
//!
//! All schedulers in this system consume one or more of these `O(V + E)`
//! quantities:
//!
//! * **bottom level** `bl(t)` — longest path from `t` to any exit task,
//!   *including* `comp(t)` and the communication costs along the path. This
//!   is FLB's and FCP's static priority, and MCP's "longest path from the
//!   current task to any exit task".
//! * **top level** `tl(t)` — longest path from any entry task to `t`,
//!   *excluding* `comp(t)`, including communications. `tl(t) + bl(t)` is the
//!   length of the longest path through `t`; DSC priorities are built on it.
//! * **ALAP** (as-late-as-possible) start time — `CP - bl(t)`, where `CP` is
//!   the critical-path length: MCP's "latest possible start time".
//! * **computation-only** variants (communication ignored) used by lower
//!   bounds.

use crate::{TaskGraph, TaskId, Time};

/// Bottom levels: `bl(t) = comp(t) + max over (t,s) in E of (comm(t,s) + bl(s))`,
/// with `bl(t) = comp(t)` for exit tasks.
///
/// ```
/// use flb_graph::{levels::bottom_levels, paper::fig1};
///
/// // Table 1 of the paper annotates BL(t3) = 12 and BL(t7) = 2.
/// let bl = bottom_levels(&fig1());
/// assert_eq!(bl[3], 12);
/// assert_eq!(bl[7], 2);
/// ```
///
/// The sweep pushes rather than pulls: in reverse topological order, a
/// task's entry holds the largest `comm + bl(s)` its successors pushed,
/// gains `comp(t)`, and pushes `comm + bl(t)` to each predecessor. It
/// reads only the predecessor rows, where the graph keeps its costs.
#[must_use]
pub fn bottom_levels(g: &TaskGraph) -> Vec<Time> {
    let mut bl = vec![0; g.num_tasks()];
    for t in g.topological_order().rev() {
        let level = bl[t.0] + g.comp(t);
        bl[t.0] = level;
        for (p, c) in g.preds(t) {
            bl[p.0] = bl[p.0].max(c + level);
        }
    }
    bl
}

/// Bottom levels ignoring communication costs:
/// `bl0(t) = comp(t) + max over succ of bl0(s)`.
#[must_use]
pub fn bottom_levels_comp_only(g: &TaskGraph) -> Vec<Time> {
    let mut bl = vec![0; g.num_tasks()];
    for t in g.topological_order().rev() {
        let tail = g.succ_ids(t).map(|s| bl[s.0]).max().unwrap_or(0);
        bl[t.0] = g.comp(t) + tail;
    }
    bl
}

/// Top levels: `tl(t) = max over (p,t) in E of (tl(p) + comp(p) + comm(p,t))`,
/// with `tl(t) = 0` for entry tasks.
#[must_use]
pub fn top_levels(g: &TaskGraph) -> Vec<Time> {
    let mut tl = vec![0; g.num_tasks()];
    for t in g.topological_order() {
        tl[t.0] = g
            .preds(t)
            .map(|(p, c)| tl[p.0] + g.comp(p) + c)
            .max()
            .unwrap_or(0);
    }
    tl
}

/// Critical-path length (including communication): the maximum bottom level
/// over entry tasks, equivalently `max_t (tl(t) + bl(t))`.
#[must_use]
pub fn critical_path(g: &TaskGraph) -> Time {
    bottom_levels(g)
        .iter()
        .copied()
        .max()
        .expect("graph is non-empty")
}

/// Critical-path length ignoring communication: a lower bound on the
/// makespan of *any* schedule on *any* number of processors.
#[must_use]
pub fn critical_path_comp_only(g: &TaskGraph) -> Time {
    bottom_levels_comp_only(g)
        .iter()
        .copied()
        .max()
        .expect("graph is non-empty")
}

/// ALAP (latest possible) start times: `alap(t) = CP - bl(t)` where `CP` is
/// [`critical_path`]. Critical tasks have the smallest ALAP times; MCP
/// schedules in ascending ALAP order.
#[must_use]
pub fn alap_times(g: &TaskGraph) -> Vec<Time> {
    let bl = bottom_levels(g);
    let cp = bl.iter().copied().max().expect("graph is non-empty");
    bl.iter().map(|&b| cp - b).collect()
}

/// Depth of each task: number of edges on the longest edge-count path from
/// an entry task (entry tasks have depth 0).
#[must_use]
pub fn depths(g: &TaskGraph) -> Vec<usize> {
    let mut d = vec![0usize; g.num_tasks()];
    for t in g.topological_order() {
        d[t.0] = g.preds(t).map(|(p, _)| d[p.0] + 1).max().unwrap_or(0);
    }
    d
}

/// Tasks on a critical path (any one maximal path realising
/// [`critical_path`]), in execution order.
#[must_use]
pub fn critical_path_tasks(g: &TaskGraph) -> Vec<TaskId> {
    let bl = bottom_levels(g);
    let cp = bl.iter().copied().max().expect("non-empty");
    // Start from the entry task whose bottom level equals CP (smallest id on
    // ties, for determinism), then greedily follow the successor that
    // preserves the remaining path length.
    let mut cur = g
        .entry_tasks()
        .find(|&t| bl[t.0] == cp)
        .expect("an entry task realises the critical path");
    let mut path = vec![cur];
    loop {
        let need = bl[cur.0] - g.comp(cur);
        let next = g
            .succs(cur)
            .find(|(s, c)| c + bl[s.0] == need)
            .map(|(s, _)| s);
        match next {
            Some(s) => {
                path.push(s);
                cur = s;
            }
            None => break,
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskGraphBuilder;

    /// 0 -> {1, 2} -> 3 with asymmetric weights.
    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task(2);
        let t1 = b.add_task(3);
        let t2 = b.add_task(4);
        let t3 = b.add_task(5);
        b.add_edge(t0, t1, 10).unwrap();
        b.add_edge(t0, t2, 1).unwrap();
        b.add_edge(t1, t3, 1).unwrap();
        b.add_edge(t2, t3, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bottom_levels_diamond() {
        let g = diamond();
        // bl(3) = 5; bl(1) = 3+1+5 = 9; bl(2) = 4+2+5 = 11;
        // bl(0) = 2 + max(10+9, 1+11) = 2+19 = 21.
        assert_eq!(bottom_levels(&g), vec![21, 9, 11, 5]);
    }

    #[test]
    fn bottom_levels_comp_only_diamond() {
        let g = diamond();
        // bl0(3) = 5; bl0(1) = 8; bl0(2) = 9; bl0(0) = 2 + 9 = 11.
        assert_eq!(bottom_levels_comp_only(&g), vec![11, 8, 9, 5]);
    }

    #[test]
    fn top_levels_diamond() {
        let g = diamond();
        // tl(0) = 0; tl(1) = 0+2+10 = 12; tl(2) = 0+2+1 = 3;
        // tl(3) = max(12+3+1, 3+4+2) = 16.
        assert_eq!(top_levels(&g), vec![0, 12, 3, 16]);
    }

    #[test]
    fn critical_paths() {
        let g = diamond();
        assert_eq!(critical_path(&g), 21);
        assert_eq!(critical_path_comp_only(&g), 11);
        // tl + bl is constant (= CP) along the critical path 0 -> 1 -> 3.
        let (tl, bl) = (top_levels(&g), bottom_levels(&g));
        assert_eq!(tl[0] + bl[0], 21);
        assert_eq!(tl[1] + bl[1], 21);
        assert_eq!(tl[3] + bl[3], 21);
    }

    #[test]
    fn alap_diamond() {
        let g = diamond();
        // alap = CP - bl = [0, 12, 10, 16].
        assert_eq!(alap_times(&g), vec![0, 12, 10, 16]);
    }

    #[test]
    fn depths_diamond() {
        let g = diamond();
        assert_eq!(depths(&g), vec![0, 1, 1, 2]);
    }

    #[test]
    fn critical_path_tasks_diamond() {
        let g = diamond();
        assert_eq!(
            critical_path_tasks(&g),
            vec![TaskId(0), TaskId(1), TaskId(3)]
        );
    }

    #[test]
    fn chain_levels() {
        let mut b = TaskGraphBuilder::new();
        let t: Vec<_> = (0..4).map(|_| b.add_task(1)).collect();
        for w in t.windows(2) {
            b.add_edge(w[0], w[1], 5).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(bottom_levels(&g), vec![19, 13, 7, 1]);
        assert_eq!(top_levels(&g), vec![0, 6, 12, 18]);
        assert_eq!(critical_path(&g), 19);
        assert_eq!(critical_path_tasks(&g), t);
        assert_eq!(depths(&g), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_task_levels() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(7);
        let g = b.build().unwrap();
        assert_eq!(bottom_levels(&g), vec![7]);
        assert_eq!(top_levels(&g), vec![0]);
        assert_eq!(critical_path(&g), 7);
        assert_eq!(alap_times(&g), vec![0]);
    }
}
