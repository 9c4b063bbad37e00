//! The weighted task-DAG type and its builder.

use crate::packed::{self, Column};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Discrete time unit used throughout the system.
///
/// All computation and communication costs are integers, so every start and
/// finish time computed by a scheduler is exact. Ratios (speedup, NSL, CCR)
/// are formed in `f64` only when reporting.
pub type Time = u64;

/// A computation or communication cost (same unit as [`Time`]).
pub type Cost = u64;

/// Identifier of a task: a dense index in `0..graph.num_tasks()`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The dense index of this task.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Errors detected while building a [`TaskGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a task id that was never added.
    UnknownTask(TaskId),
    /// An edge from a task to itself.
    SelfLoop(TaskId),
    /// The same `(src, dst)` edge was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// The edge set contains a cycle, so the graph is not a DAG.
    Cycle,
    /// The graph has no tasks.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTask(t) => write!(f, "edge references unknown task {t}"),
            GraphError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::Cycle => write!(f, "task graph contains a cycle"),
            GraphError::Empty => write!(f, "task graph has no tasks"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`TaskGraph`].
///
/// ```
/// use flb_graph::TaskGraphBuilder;
///
/// let mut b = TaskGraphBuilder::new();
/// let a = b.add_task(2);
/// let c = b.add_task(3);
/// b.add_edge(a, c, 1).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_tasks(), 2);
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TaskGraphBuilder {
    name: String,
    comp: Vec<Cost>,
    edges: Vec<(TaskId, TaskId, Cost)>,
}

impl TaskGraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with a human-readable graph name.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Reserves space for `tasks` tasks and `edges` edges.
    pub fn reserve(&mut self, tasks: usize, edges: usize) {
        self.comp.reserve(tasks);
        self.edges.reserve(edges);
    }

    /// Adds a task with computation cost `comp`, returning its id.
    pub fn add_task(&mut self, comp: Cost) -> TaskId {
        let id = TaskId(self.comp.len());
        self.comp.push(comp);
        id
    }

    /// Number of tasks added so far.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.comp.len()
    }

    /// Adds a dependence edge `src -> dst` with communication cost `comm`.
    ///
    /// Fails fast on unknown endpoints and self-loops; duplicate edges and
    /// cycles are detected by [`build`](Self::build).
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, comm: Cost) -> Result<(), GraphError> {
        if src.0 >= self.comp.len() {
            return Err(GraphError::UnknownTask(src));
        }
        if dst.0 >= self.comp.len() {
            return Err(GraphError::UnknownTask(dst));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        self.edges.push((src, dst, comm));
        Ok(())
    }

    /// Validates and freezes the graph: sorts the edges into
    /// `(src, dst)` order and hands them to
    /// [`TaskGraph::from_sorted_edges`], which checks for at least one
    /// task, no duplicate edges and acyclicity.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let mut edges = self.edges;
        edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
        let sorted = edges.iter().map(|&(s, d, c)| (s.0 as u32, d.0 as u32, c));
        TaskGraph::from_sorted_edges(self.name, self.comp, edges.len(), sorted)
    }
}

/// An immutable weighted task DAG.
///
/// Tasks are identified by dense [`TaskId`]s. Adjacency is stored in
/// compressed sparse row form in both directions, as `u32` offsets and
/// `u32` endpoints. Each communication cost is stored once, beside its
/// predecessor entry. The computation and the communication costs are
/// two [`packed`] columns, each value in the fewest bytes that hold the
/// column's largest: 8 bytes per task and 8 per edge, plus one cost
/// width per task and one per edge (1 byte each for costs below 256),
/// plus 4 bytes per task for a topological order unless the ids already
/// are one. [`heap_bytes`](Self::heap_bytes) counts them.
/// Successor rows ascend by target and predecessor rows by source,
/// whatever constructor built the graph, so [`succs`](Self::succs) finds
/// each cost by a binary search of the target's predecessor row, in
/// O(log in-degree); [`succ_ids`](Self::succ_ids) is the successor row
/// without the costs.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    name: String,
    comp: Column,
    succ_off: Vec<u32>,
    succ_dst: Vec<u32>,
    pred_off: Vec<u32>,
    pred_src: Vec<u32>,
    /// `pred_w.get(i)` is the cost of the edge `pred_src[i] -> t` for
    /// the `t` whose predecessor row holds `i`.
    pred_w: Column,
    /// Kahn order, or empty when `0..V` is that order (every edge points
    /// from a smaller to a larger id).
    topo: Vec<u32>,
}

impl TaskGraph {
    /// The one CSR constructor, over `edges` in strictly ascending
    /// `(src, dst)` order, which it walks twice. The first pass checks the
    /// edges and fills the successor rows, the in-degrees and the largest
    /// cost, which sets the cost column's width; the second fills the
    /// predecessor rows and their costs through one cursor per task, so
    /// the costs are never held in successor order. `comp` is packed into
    /// its own column and freed before either pass. A clone of
    /// `edges` must yield the same edges as `edges`. `num_edges` sizes
    /// the arrays and should be the number of edges `edges` yields.
    ///
    /// Rejects what [`TaskGraphBuilder`] rejects, in its order of
    /// precedence: an edge naming an unknown task or a self-loop (the
    /// first one in the list), an empty graph, a duplicate edge and a
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics on an edge that comes before its predecessor in the list in
    /// `(src, dst)` order (the caller sorts), and when the graph does not
    /// fit `u32` ids and offsets.
    pub fn from_sorted_edges<I>(
        name: impl Into<String>,
        comp: Vec<Cost>,
        num_edges: usize,
        edges: I,
    ) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32, Cost)>,
        I::IntoIter: Clone,
    {
        let v = comp.len();
        assert!(v < u32::MAX as usize, "graph too large for u32 ids");
        let costs = Column::from_values(&comp);
        drop(comp);
        let edges = edges.into_iter();
        let mut succ_off = Vec::with_capacity(v + 1);
        let mut succ_dst = Vec::with_capacity(num_edges);
        // In-degrees, shifted by one for the prefix sum below.
        let mut pred_off = vec![0u32; v + 1];
        let mut duplicate = None;
        let mut prev = None;
        let mut max_w = 0;
        for (src, dst, w) in edges.clone() {
            for id in [src, dst] {
                if id as usize >= v {
                    return Err(GraphError::UnknownTask(TaskId(id as usize)));
                }
            }
            if src == dst {
                return Err(GraphError::SelfLoop(TaskId(src as usize)));
            }
            if prev == Some((src, dst)) {
                // Unknown tasks and self-loops later in the list still
                // take precedence, as the builder's eager checks do.
                duplicate.get_or_insert((src, dst));
                continue;
            }
            assert!(
                prev < Some((src, dst)),
                "edge {src} -> {dst} is out of (source, target) order"
            );
            prev = Some((src, dst));
            // Close the rows of every source up to and including `src`.
            while succ_off.len() <= src as usize {
                succ_off.push(succ_dst.len() as u32);
            }
            succ_dst.push(dst);
            pred_off[dst as usize + 1] += 1;
            max_w = max_w.max(w);
        }
        if v == 0 {
            return Err(GraphError::Empty);
        }
        if let Some((s, d)) = duplicate {
            return Err(GraphError::DuplicateEdge(
                TaskId(s as usize),
                TaskId(d as usize),
            ));
        }
        let e = succ_dst.len();
        assert!(e < u32::MAX as usize, "graph too large for u32 offsets");
        succ_off.resize(v + 1, e as u32);
        for i in 0..v {
            pred_off[i + 1] += pred_off[i];
        }
        // The first pass checked every edge, so the second only places
        // them; sources arrive in ascending order, so each predecessor
        // row ascends by source. The costs land out of order, which
        // `Column::set` allows.
        let mut pred_src = vec![0u32; e];
        let mut pred_w = Column::zeroed(e, packed::width(max_w));
        let mut cursor = pred_off[..v].to_vec();
        for (s, d, w) in edges {
            let at = cursor[d as usize] as usize;
            pred_src[at] = s;
            pred_w.set(at, w);
            cursor[d as usize] += 1;
        }
        // Freed before the topological order is allocated: at a million
        // tasks this keeps the peak at the graph's own arrays.
        drop(cursor);
        let mut graph = TaskGraph {
            name: name.into(),
            comp: costs,
            succ_off,
            succ_dst,
            pred_off,
            pred_src,
            pred_w,
            topo: Vec::new(),
        };
        graph.topo = graph.kahn_topo().ok_or(GraphError::Cycle)?;
        Ok(graph)
    }

    /// Human-readable name given at construction (may be empty).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks `V`.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.comp.len()
    }

    /// Number of edges `E`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.succ_dst.len()
    }

    /// Iterator over all task ids in index order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.comp.len()).map(TaskId)
    }

    /// Computation cost of `t`.
    #[inline]
    #[must_use]
    pub fn comp(&self, t: TaskId) -> Cost {
        self.comp.get(t.0)
    }

    fn succ_row(&self, t: TaskId) -> std::ops::Range<usize> {
        self.succ_off[t.0] as usize..self.succ_off[t.0 + 1] as usize
    }

    fn pred_row(&self, t: TaskId) -> std::ops::Range<usize> {
        self.pred_off[t.0] as usize..self.pred_off[t.0 + 1] as usize
    }

    /// Successors of `t`, in ascending id order, without the
    /// communication costs.
    #[inline]
    pub fn succ_ids(
        &self,
        t: TaskId,
    ) -> impl ExactSizeIterator<Item = TaskId> + DoubleEndedIterator + Clone + '_ {
        self.succ_dst[self.succ_row(t)]
            .iter()
            .map(|&s| TaskId(s as usize))
    }

    /// Successors of `t` with the communication cost of each edge, in
    /// ascending id order. Each cost is found in the successor's
    /// predecessor row, in O(log in-degree); callers that discard it
    /// read [`succ_ids`](Self::succ_ids).
    #[inline]
    pub fn succs(
        &self,
        t: TaskId,
    ) -> impl ExactSizeIterator<Item = (TaskId, Cost)> + DoubleEndedIterator + Clone + '_ {
        self.succ_ids(t).map(move |s| {
            let c = self
                .pred_cost(t, s)
                .expect("every successor has a predecessor entry");
            (s, c)
        })
    }

    /// Predecessors of `t` with the communication cost of each edge, in
    /// ascending id order.
    #[inline]
    pub fn preds(
        &self,
        t: TaskId,
    ) -> impl ExactSizeIterator<Item = (TaskId, Cost)> + DoubleEndedIterator + Clone + '_ {
        let r = self.pred_row(t);
        self.pred_src[r.clone()]
            .iter()
            .zip(self.pred_w.range(r))
            .map(|(&id, c)| (TaskId(id as usize), c))
    }

    /// The cost of `src -> dst`, searched in `dst`'s predecessor row.
    #[inline]
    fn pred_cost(&self, src: TaskId, dst: TaskId) -> Option<Cost> {
        let r = self.pred_row(dst);
        let i = u32::try_from(src.0).ok()?;
        self.pred_src[r.clone()]
            .binary_search(&i)
            .ok()
            .map(|k| self.pred_w.get(r.start + k))
    }

    /// Number of incoming edges of `t`.
    #[must_use]
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.pred_row(t).len()
    }

    /// Number of outgoing edges of `t`.
    #[must_use]
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.succ_row(t).len()
    }

    /// Communication cost of edge `src -> dst`, if the edge exists.
    #[must_use]
    pub fn edge_comm(&self, src: TaskId, dst: TaskId) -> Option<Cost> {
        if dst.0 >= self.num_tasks() {
            return None;
        }
        self.pred_cost(src, dst)
    }

    /// Tasks with no predecessors (§2: *entry tasks*).
    pub fn entry_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(|&t| self.in_degree(t) == 0)
    }

    /// Tasks with no successors (§2: *exit tasks*).
    pub fn exit_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(|&t| self.out_degree(t) == 0)
    }

    /// A topological order of the tasks (precomputed, deterministic:
    /// Kahn's algorithm with a smallest-id-first tie break).
    pub fn topological_order(
        &self,
    ) -> impl ExactSizeIterator<Item = TaskId> + DoubleEndedIterator + Clone + '_ {
        // An empty stored order stands for the identity.
        let stored = &self.topo;
        (0..self.num_tasks()).map(|i| TaskId(stored.get(i).map_or(i, |&t| t as usize)))
    }

    /// Sum of all computation costs — the sequential execution time `T_seq`.
    #[must_use]
    pub fn total_comp(&self) -> Time {
        self.comp.iter().sum()
    }

    /// Sum of all communication costs.
    #[must_use]
    pub fn total_comm(&self) -> Cost {
        self.pred_w.iter().sum()
    }

    /// Bytes the graph's arrays hold on the heap: the two cost columns,
    /// the id and offset arrays and the stored topological order.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let ids = [
            &self.succ_off,
            &self.succ_dst,
            &self.pred_off,
            &self.pred_src,
            &self.topo,
        ];
        self.comp.heap_bytes()
            + self.pred_w.heap_bytes()
            + ids.iter().map(|a| 4 * a.capacity()).sum::<usize>()
    }

    /// Average computation cost over tasks, as `f64`.
    #[must_use]
    pub fn avg_comp(&self) -> f64 {
        self.total_comp() as f64 / self.num_tasks() as f64
    }

    /// Average communication cost over edges, as `f64` (0 if no edges).
    #[must_use]
    pub fn avg_comm(&self) -> f64 {
        if self.num_edges() == 0 {
            0.0
        } else {
            self.total_comm() as f64 / self.num_edges() as f64
        }
    }

    /// Communication-to-computation ratio (§2): average communication cost
    /// over average computation cost.
    #[must_use]
    pub fn ccr(&self) -> f64 {
        self.avg_comm() / self.avg_comp()
    }

    /// A copy of `g`. perfbench only: it still calls the conversion the
    /// kernel's former graph type needed.
    #[doc(hidden)]
    #[must_use]
    pub fn from_task_graph(g: &TaskGraph) -> TaskGraph {
        g.clone()
    }

    /// A copy of `self`. perfbench only: it still calls the conversion the
    /// kernel's former graph type needed.
    #[doc(hidden)]
    #[must_use]
    pub fn to_task_graph(&self) -> TaskGraph {
        self.clone()
    }

    /// [`levels::bottom_levels`](crate::levels::bottom_levels) of `self`.
    /// perfbench only: it still calls the sweep as a method of the
    /// kernel's former graph type.
    #[doc(hidden)]
    #[must_use]
    pub fn bottom_levels(&self) -> Vec<Time> {
        crate::levels::bottom_levels(self)
    }

    /// Kahn's algorithm; `None` when a cycle exists. Deterministic: the
    /// smallest ready id goes first. When every edge points from a smaller
    /// to a larger id, that order is `0..V` itself (each task's
    /// predecessors all precede it), so no pass runs and the empty order
    /// that stands for it is returned.
    fn kahn_topo(&self) -> Option<Vec<u32>> {
        let v = self.num_tasks() as u32;
        // Successor rows are sorted, so the first entry is the smallest.
        let forward = self
            .tasks()
            .all(|t| self.succ_ids(t).next().is_none_or(|s| s > t));
        if forward {
            return Some(Vec::new());
        }
        let mut indeg: Vec<usize> = self.tasks().map(|t| self.in_degree(t)).collect();
        let mut order = Vec::with_capacity(v as usize);
        let mut ready: BinaryHeap<Reverse<u32>> = (0..v)
            .filter(|&i| indeg[i as usize] == 0)
            .map(Reverse)
            .collect();
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for s in self.succ_ids(TaskId(i as usize)) {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    ready.push(Reverse(s.0 as u32));
                }
            }
        }
        (order.len() == v as usize).then_some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // 0 -> {1, 2} -> 3
        let mut b = TaskGraphBuilder::named("diamond");
        let t0 = b.add_task(2);
        let t1 = b.add_task(3);
        let t2 = b.add_task(4);
        let t3 = b.add_task(5);
        b.add_edge(t0, t1, 10).unwrap();
        b.add_edge(t0, t2, 20).unwrap();
        b.add_edge(t1, t3, 30).unwrap();
        b.add_edge(t2, t3, 40).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_basics() {
        let g = diamond();
        assert_eq!(g.name(), "diamond");
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.comp(TaskId(2)), 4);
        let succs: Vec<_> = g.succs(TaskId(0)).collect();
        assert_eq!(succs, [(TaskId(1), 10), (TaskId(2), 20)]);
        let preds: Vec<_> = g.preds(TaskId(3)).collect();
        assert_eq!(preds, [(TaskId(1), 30), (TaskId(2), 40)]);
        assert_eq!(g.in_degree(TaskId(0)), 0);
        assert_eq!(g.out_degree(TaskId(0)), 2);
        assert_eq!(g.edge_comm(TaskId(0), TaskId(2)), Some(20));
        assert_eq!(g.edge_comm(TaskId(1), TaskId(2)), None);
    }

    #[test]
    fn entry_and_exit_tasks() {
        let g = diamond();
        assert_eq!(g.entry_tasks().collect::<Vec<_>>(), vec![TaskId(0)]);
        assert_eq!(g.exit_tasks().collect::<Vec<_>>(), vec![TaskId(3)]);
    }

    #[test]
    fn topological_order_is_valid_and_deterministic() {
        let g = diamond();
        let order: Vec<_> = g.topological_order().collect();
        assert_eq!(order, [TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
    }

    /// The sorted-`Vec` Kahn pass `kahn_topo` replaced, kept as its oracle.
    fn sorted_vec_kahn(g: &TaskGraph) -> Option<Vec<TaskId>> {
        let v = g.num_tasks();
        let mut indeg: Vec<usize> = (0..v).map(|i| g.in_degree(TaskId(i))).collect();
        let mut order = Vec::with_capacity(v);
        let mut ready: Vec<usize> = (0..v).filter(|&i| indeg[i] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a));
        while let Some(i) = ready.pop() {
            order.push(TaskId(i));
            for s in g.succ_ids(TaskId(i)) {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    let pos = ready.partition_point(|&x| x > s.0);
                    ready.insert(pos, s.0);
                }
            }
        }
        (order.len() == v).then_some(order)
    }

    #[test]
    fn topological_order_matches_the_sorted_vec_kahn() {
        let mut graphs = vec![
            diamond(),
            crate::gen::lu(9),
            crate::gen::fft(4),
            crate::gen::laplace(6),
        ];
        for seed in 0..20 {
            graphs.push(crate::gen::random_dag(40, 0.15, seed));
        }
        // Permuted copies break the forward-edge shortcut, so the heap
        // pass runs on them.
        let permuted: Vec<TaskGraph> = graphs
            .iter()
            .enumerate()
            .map(|(k, g)| {
                let n = g.num_tasks();
                let stride = (1..n).rev().find(|s| gcd(*s, n) == 1).unwrap_or(1);
                let perm: Vec<TaskId> = (0..n).map(|i| TaskId((i * stride + k) % n)).collect();
                crate::transform::permute(g, &perm)
            })
            .collect();
        let mut permuted_runs = 0;
        for g in graphs.iter().chain(&permuted) {
            let order: Vec<_> = g.topological_order().collect();
            let mut reversed: Vec<_> = g.topological_order().rev().collect();
            reversed.reverse();
            assert_eq!(reversed, order);
            assert_eq!(Some(order), sorted_vec_kahn(g));
            let forward = g.tasks().all(|t| g.succ_ids(t).all(|s| s > t));
            assert_eq!(
                g.topo.is_empty(),
                forward,
                "only the identity is not stored"
            );
            permuted_runs += usize::from(!forward);
        }
        assert_eq!(permuted_runs, permuted.len());
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn aggregates() {
        let g = diamond();
        assert_eq!(g.total_comp(), 14);
        assert_eq!(g.total_comm(), 100);
        assert!((g.avg_comp() - 3.5).abs() < 1e-12);
        assert!((g.avg_comm() - 25.0).abs() < 1e-12);
        assert!((g.ccr() - 25.0 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task(1);
        let t1 = b.add_task(1);
        let t2 = b.add_task(1);
        b.add_edge(t0, t1, 0).unwrap();
        b.add_edge(t1, t2, 0).unwrap();
        b.add_edge(t2, t0, 0).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn duplicate_edge_is_rejected() {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task(1);
        let t1 = b.add_task(1);
        b.add_edge(t0, t1, 1).unwrap();
        b.add_edge(t0, t1, 2).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateEdge(TaskId(0), TaskId(1))
        );
    }

    #[test]
    fn self_loop_is_rejected_eagerly() {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task(1);
        assert_eq!(b.add_edge(t0, t0, 1), Err(GraphError::SelfLoop(t0)));
    }

    #[test]
    fn unknown_task_is_rejected_eagerly() {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task(1);
        assert_eq!(
            b.add_edge(t0, TaskId(7), 1),
            Err(GraphError::UnknownTask(TaskId(7)))
        );
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(
            TaskGraphBuilder::new().build().unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn single_task_graph() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(5);
        let g = b.build().unwrap();
        assert_eq!(g.num_tasks(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_comm(), 0.0);
        assert_eq!(g.ccr(), 0.0);
        assert_eq!(g.topological_order().collect::<Vec<_>>(), [TaskId(0)]);
    }

    #[test]
    fn error_display() {
        assert_eq!(GraphError::Cycle.to_string(), "task graph contains a cycle");
        assert_eq!(
            GraphError::SelfLoop(TaskId(3)).to_string(),
            "self-loop on task t3"
        );
    }

    #[test]
    fn from_sorted_edges_builds_the_diamond() {
        // 0 -> {1, 2} -> 3
        let edges = [(0, 1, 5), (0, 2, 6), (1, 3, 7), (2, 3, 8)];
        let g = TaskGraph::from_sorted_edges("diamond", vec![1, 2, 3, 4], 4, edges).unwrap();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        let succs: Vec<_> = g.succs(TaskId(0)).collect();
        assert_eq!(succs, [(TaskId(1), 5), (TaskId(2), 6)]);
        let preds: Vec<_> = g.preds(TaskId(3)).collect();
        assert_eq!(preds, [(TaskId(1), 7), (TaskId(2), 8)]);
        assert_eq!(g.in_degree(TaskId(3)), 2);
        assert_eq!(g.total_comp(), 10);
        // bl(3)=4, bl(1)=2+7+4=13, bl(2)=3+8+4=15, bl(0)=1+6+15=22
        assert_eq!(crate::levels::bottom_levels(&g), [22, 13, 15, 4]);
    }

    /// Largest costs the width tests put in a column: the first and last
    /// value of each width the boundaries of `u8`, `u16`, `u32` and
    /// `u64` touch.
    const BOUNDARIES: [Cost; 8] = [
        1,
        0xFF,
        0x100,
        0xFFFF,
        0x1_0000,
        u32::MAX as Cost,
        u32::MAX as Cost + 1,
        Cost::MAX,
    ];

    /// Six tasks, eight edges in `(src, dst)` order. The second pass
    /// places their costs out of row order: `(0, 5)` lands at row index
    /// 5 before `(1, 3)` lands at 2.
    const BOUNDARY_EDGES: [(u32, u32); 8] = [
        (0, 1),
        (0, 2),
        (0, 5),
        (1, 3),
        (1, 5),
        (2, 3),
        (3, 4),
        (3, 5),
    ];

    /// `n` costs whose largest is `max`, at index `at`; the others are
    /// spread below it, zero included.
    fn costs_up_to(max: Cost, n: usize, at: usize) -> Vec<Cost> {
        (0..n)
            .map(|i| {
                if i == at % n {
                    max
                } else {
                    [max >> 1, max - 1, 0, max >> 8, 1, max / 3][i % 6]
                }
            })
            .collect()
    }

    /// Every accessor of `g` against a plain `Vec<u64>` model of the
    /// costs, and each column's size against the width of its largest
    /// cost.
    fn assert_matches_model(g: &TaskGraph, comp: &[Cost], edges: &[(u32, u32, Cost)]) {
        let case = format!("comp {comp:x?}, edges {edges:x?}");
        assert_eq!(g.num_tasks(), comp.len(), "{case}");
        assert_eq!(g.num_edges(), edges.len(), "{case}");
        for t in g.tasks() {
            assert_eq!(g.comp(t), comp[t.0], "{case}");
            let model_succs = edges
                .iter()
                .filter(|e| e.0 as usize == t.0)
                .map(|&(_, d, c)| (TaskId(d as usize), c));
            assert!(g.succs(t).eq(model_succs), "succs of {t}: {case}");
            let model_preds = edges
                .iter()
                .filter(|e| e.1 as usize == t.0)
                .map(|&(s, _, c)| (TaskId(s as usize), c));
            assert!(g.preds(t).eq(model_preds.clone()), "preds of {t}: {case}");
            assert!(g.preds(t).rev().eq(model_preds.rev()), "{case}");
        }
        for &(s, d, c) in edges {
            let (s, d) = (TaskId(s as usize), TaskId(d as usize));
            assert_eq!(g.edge_comm(s, d), Some(c), "{case}");
            assert_eq!(g.edge_comm(d, s), None, "{case}");
        }
        let weights: Vec<Cost> = edges.iter().map(|e| e.2).collect();
        let sum = |costs: &[Cost]| costs.iter().try_fold(0, |a: Cost, &c| a.checked_add(c));
        let (total_comp, total_comm) = (sum(comp), sum(&weights));
        // The sums overflow as `u64` near `u64::MAX`, for the model too.
        if let Some(total) = total_comp {
            assert_eq!(g.total_comp(), total, "{case}");
        }
        if let Some(total) = total_comm {
            assert_eq!(g.total_comm(), total, "{case}");
        }
        if let (Some(tc), Some(tw)) = (total_comp, total_comm) {
            let ccr = (tw as f64 / edges.len() as f64) / (tc as f64 / comp.len() as f64);
            assert_eq!(g.ccr().to_bits(), ccr.to_bits(), "{case}");
        }
        let width =
            |costs: &[Cost]| usize::from(packed::width(costs.iter().copied().max().unwrap_or(0)));
        let (comp_width, comm_width) = (width(comp), width(&weights));
        assert_eq!(
            g.comp.heap_bytes(),
            comp.len() * comp_width + packed::SLACK,
            "{case}"
        );
        assert_eq!(
            g.pred_w.heap_bytes(),
            edges.len() * comm_width + packed::SLACK,
            "{case}"
        );
    }

    /// Every pairing of the largest computation and the largest
    /// communication cost at the width boundaries, built by the builder
    /// (edges added in reverse) and by `from_sorted_edges`: the accessors
    /// return exactly what was put in, and each column takes the fewest
    /// bytes that hold its own largest cost.
    #[test]
    fn costs_at_every_width_boundary_read_back_exactly() {
        for (i, &comp_max) in BOUNDARIES.iter().enumerate() {
            for (j, &comm_max) in BOUNDARIES.iter().enumerate() {
                let comp = costs_up_to(comp_max, 6, i + j);
                let weights = costs_up_to(comm_max, BOUNDARY_EDGES.len(), i * 3 + j);
                let edges: Vec<(u32, u32, Cost)> = BOUNDARY_EDGES
                    .iter()
                    .zip(&weights)
                    .map(|(&(s, d), &c)| (s, d, c))
                    .collect();
                let direct =
                    TaskGraph::from_sorted_edges("", comp.clone(), edges.len(), edges.clone())
                        .unwrap();
                assert_matches_model(&direct, &comp, &edges);
                let mut b = TaskGraphBuilder::new();
                for &c in &comp {
                    b.add_task(c);
                }
                for &(s, d, c) in edges.iter().rev() {
                    b.add_edge(TaskId(s as usize), TaskId(d as usize), c)
                        .unwrap();
                }
                assert_matches_model(&b.build().unwrap(), &comp, &edges);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of (source, target) order")]
    fn from_sorted_edges_panics_on_out_of_order_edges() {
        let _ = TaskGraph::from_sorted_edges("bad", vec![1; 3], 2, [(0, 2, 1), (0, 1, 1)]);
    }

    /// Bottom levels are the same under any topological order: a
    /// permuted graph (heap Kahn pass) has the original's (forward-edge
    /// shortcut) levels, moved with its tasks.
    #[test]
    fn bottom_levels_match_reference() {
        use crate::levels::bottom_levels;
        let lu = crate::gen::lu(7);
        let n = lu.num_tasks();
        let perm: Vec<TaskId> = (0..n).map(|i| TaskId((i * 13 + 5) % n)).collect();
        let shuffled = crate::transform::permute(&lu, &perm);
        let (bl, shuffled_bl) = (bottom_levels(&lu), bottom_levels(&shuffled));
        for t in lu.tasks() {
            assert_eq!(bl[t.0], shuffled_bl[perm[t.0].0]);
        }
        assert_eq!(bottom_levels(&diamond()), [2 + 20 + 4 + 40 + 5, 38, 49, 5]);
    }

    /// Deterministic xorshift, enough to spray edge lists.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Same rows, costs and topological order.
    fn assert_same_csr(a: &TaskGraph, b: &TaskGraph) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.num_tasks(), b.num_tasks());
        for t in a.tasks() {
            assert_eq!(a.comp(t), b.comp(t));
            assert!(a.succs(t).eq(b.succs(t)));
            assert!(a.preds(t).eq(b.preds(t)));
        }
        assert!(a.topological_order().eq(b.topological_order()));
    }

    /// The direct constructor over a sorted list and the builder over the
    /// same edges give the same verdict: the daemon's request build and
    /// the wire decoder's accept the same graphs.
    #[test]
    fn from_sorted_edges_rejects_exactly_what_the_builder_rejects() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut accepted = 0;
        for _ in 0..3000 {
            let v = (xorshift(&mut rng) % 7) as u32;
            let e = xorshift(&mut rng) % 9;
            let mut edges: Vec<(u32, u32, Cost)> = (0..e)
                .map(|_| {
                    let s = (xorshift(&mut rng) % u64::from(v + 1)) as u32;
                    let d = (xorshift(&mut rng) % u64::from(v + 1)) as u32;
                    (s, d, xorshift(&mut rng) % 5)
                })
                .collect();
            edges.sort_by_key(|&(s, d, _)| (s, d));
            let comp: Vec<Cost> = (0..v).map(|i| u64::from(i) + 1).collect();
            let mut b = TaskGraphBuilder::new();
            for &c in &comp {
                b.add_task(c);
            }
            let built = edges
                .iter()
                .try_for_each(|&(s, d, w)| b.add_edge(TaskId(s as usize), TaskId(d as usize), w))
                .and_then(|()| b.build());
            let direct = TaskGraph::from_sorted_edges("", comp, edges.len(), edges.clone());
            match (&built, &direct) {
                (Ok(g), Ok(d)) => {
                    accepted += 1;
                    assert_same_csr(d, g);
                }
                (Err(be), Err(de)) => assert_eq!(be, de, "{edges:?}"),
                _ => panic!("builder {built:?} vs direct {direct:?} on {edges:?}"),
            }
        }
        assert!(accepted > 300, "{accepted}");
    }

    #[test]
    fn from_sorted_edges_names_each_rejection() {
        let build = |v: u32, edges: &[(u32, u32, Cost)]| {
            TaskGraph::from_sorted_edges("g", vec![1; v as usize], edges.len(), edges.to_vec())
                .map(|_| ())
        };
        assert_eq!(build(0, &[]), Err(GraphError::Empty));
        assert_eq!(
            build(2, &[(0, 2, 1)]),
            Err(GraphError::UnknownTask(TaskId(2)))
        );
        assert_eq!(build(2, &[(1, 1, 1)]), Err(GraphError::SelfLoop(TaskId(1))));
        assert_eq!(
            build(2, &[(0, 1, 1), (0, 1, 2)]),
            Err(GraphError::DuplicateEdge(TaskId(0), TaskId(1)))
        );
        assert_eq!(build(2, &[(0, 1, 1), (1, 0, 1)]), Err(GraphError::Cycle));
        // A later unknown task outranks an earlier duplicate, as the
        // builder's eager `add_edge` checks outrank its sort.
        assert_eq!(
            build(3, &[(0, 1, 1), (0, 1, 1), (0, 9, 1)]),
            Err(GraphError::UnknownTask(TaskId(9)))
        );
        assert_eq!(build(3, &[(0, 2, 1), (1, 2, 1)]), Ok(()));
    }
}
