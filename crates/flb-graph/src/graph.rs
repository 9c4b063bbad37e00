//! The weighted task-DAG type and its builder.

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

    /// Validates and freezes the graph.
    ///
    /// Checks: at least one task, no duplicate edges, acyclicity (Kahn's
    /// algorithm). The resulting [`TaskGraph`] stores successor and
    /// predecessor adjacency in CSR form plus a topological order.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let v = self.comp.len();
        if v == 0 {
            return Err(GraphError::Empty);
        }
        let mut edges = self.edges;
        // Sort by (src, dst) for CSR construction and duplicate detection.
        edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
        for w in edges.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(GraphError::DuplicateEdge(w[0].0, w[0].1));
            }
        }

        let e = edges.len();
        let mut succ_off = vec![0usize; v + 1];
        for &(s, _, _) in &edges {
            succ_off[s.0 + 1] += 1;
        }
        for i in 0..v {
            succ_off[i + 1] += succ_off[i];
        }
        let succ: Vec<(TaskId, Cost)> = edges.iter().map(|&(_, d, c)| (d, c)).collect();

        // Predecessor CSR: counting sort by destination.
        let mut pred_off = vec![0usize; v + 1];
        for &(_, d, _) in &edges {
            pred_off[d.0 + 1] += 1;
        }
        for i in 0..v {
            pred_off[i + 1] += pred_off[i];
        }
        let mut cursor = pred_off.clone();
        let mut pred = vec![(TaskId(0), 0); e];
        for &(s, d, c) in &edges {
            pred[cursor[d.0]] = (s, c);
            cursor[d.0] += 1;
        }

        let graph = TaskGraph {
            name: self.name,
            comp: self.comp,
            succ_off,
            succ,
            pred_off,
            pred,
            topo: Vec::new(),
        };
        let topo = graph.kahn_topo().ok_or(GraphError::Cycle)?;
        Ok(TaskGraph { topo, ..graph })
    }
}

/// An immutable weighted task DAG.
///
/// Tasks are identified by dense [`TaskId`]s; adjacency (successors with
/// their communication costs, and symmetrically predecessors) is stored in
/// compressed sparse row form, and a topological order is precomputed.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    name: String,
    comp: Vec<Cost>,
    succ_off: Vec<usize>,
    succ: Vec<(TaskId, Cost)>,
    pred_off: Vec<usize>,
    pred: Vec<(TaskId, Cost)>,
    topo: Vec<TaskId>,
}

impl TaskGraph {
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
        self.succ.len()
    }

    /// Iterator over all task ids in index order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.comp.len()).map(TaskId)
    }

    /// Computation cost of `t`.
    #[must_use]
    pub fn comp(&self, t: TaskId) -> Cost {
        self.comp[t.0]
    }

    /// Successors of `t` with the communication cost of each edge.
    #[must_use]
    pub fn succs(&self, t: TaskId) -> &[(TaskId, Cost)] {
        &self.succ[self.succ_off[t.0]..self.succ_off[t.0 + 1]]
    }

    /// Predecessors of `t` with the communication cost of each edge.
    #[must_use]
    pub fn preds(&self, t: TaskId) -> &[(TaskId, Cost)] {
        &self.pred[self.pred_off[t.0]..self.pred_off[t.0 + 1]]
    }

    /// Number of incoming edges of `t`.
    #[must_use]
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.pred_off[t.0 + 1] - self.pred_off[t.0]
    }

    /// Number of outgoing edges of `t`.
    #[must_use]
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.succ_off[t.0 + 1] - self.succ_off[t.0]
    }

    /// Communication cost of edge `src -> dst`, if the edge exists.
    #[must_use]
    pub fn edge_comm(&self, src: TaskId, dst: TaskId) -> Option<Cost> {
        let row = self.succs(src);
        row.binary_search_by_key(&dst, |&(d, _)| d)
            .ok()
            .map(|i| row[i].1)
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
    #[must_use]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Sum of all computation costs — the sequential execution time `T_seq`.
    #[must_use]
    pub fn total_comp(&self) -> Time {
        self.comp.iter().sum()
    }

    /// Sum of all communication costs.
    #[must_use]
    pub fn total_comm(&self) -> Cost {
        self.succ.iter().map(|&(_, c)| c).sum()
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

    /// Kahn's algorithm; `None` when a cycle exists. Deterministic: the
    /// smallest ready id goes first. When every edge points from a smaller
    /// to a larger id, that order is `0..V` itself (each task's
    /// predecessors all precede it), so it is returned without a pass.
    fn kahn_topo(&self) -> Option<Vec<TaskId>> {
        // Successor rows are sorted, so the first entry is the smallest.
        let forward = self
            .tasks()
            .all(|t| self.succs(t).first().is_none_or(|&(s, _)| s > t));
        if forward {
            return Some(self.tasks().collect());
        }
        let v = self.num_tasks();
        let mut indeg: Vec<usize> = (0..v).map(|i| self.in_degree(TaskId(i))).collect();
        let mut order = Vec::with_capacity(v);
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..v).filter(|&i| indeg[i] == 0).map(Reverse).collect();
        while let Some(Reverse(i)) = ready.pop() {
            order.push(TaskId(i));
            for &(s, _) in self.succs(TaskId(i)) {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    ready.push(Reverse(s.0));
                }
            }
        }
        (order.len() == v).then_some(order)
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
        assert_eq!(g.succs(TaskId(0)), &[(TaskId(1), 10), (TaskId(2), 20)]);
        assert_eq!(g.preds(TaskId(3)), &[(TaskId(1), 30), (TaskId(2), 40)]);
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
        assert_eq!(
            g.topological_order(),
            &[TaskId(0), TaskId(1), TaskId(2), TaskId(3)]
        );
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
            for &(s, _) in g.succs(TaskId(i)) {
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
            assert_eq!(Some(g.topological_order().to_vec()), sorted_vec_kahn(g));
            let forward = g.tasks().all(|t| g.succs(t).iter().all(|&(s, _)| s > t));
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
        assert_eq!(g.topological_order(), &[TaskId(0)]);
    }

    #[test]
    fn error_display() {
        assert_eq!(GraphError::Cycle.to_string(), "task graph contains a cycle");
        assert_eq!(
            GraphError::SelfLoop(TaskId(3)).to_string(),
            "self-loop on task t3"
        );
    }
}
