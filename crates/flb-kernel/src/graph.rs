//! `FlatGraph`: a dense, `u32`-indexed CSR task graph.
//!
//! The reference [`flb_graph::TaskGraph`] is built through a validating
//! builder (duplicate detection, cycle check, adjacency sort) and addresses
//! tasks with `usize` ids wrapped in [`TaskId`]. That is the right interface
//! for correctness work, but at a million tasks the kernel wants something
//! leaner: plain `u32` ids, two CSR halves (successors and predecessors)
//! in six flat arrays, and a construction path that streams edges straight
//! into those arrays with no intermediate edge list.
//!
//! Three ways in:
//!
//! * [`FlatGraph::from_emitter`] — streaming construction for generators:
//!   the emitter closure is invoked twice, once to count degrees and once
//!   to fill the CSR arrays (two-pass counting sort). Edges must point from
//!   a smaller to a larger id, so task ids double as a topological order
//!   and no cycle check or sort is needed.
//! * [`FlatGraph::from_sorted_edges`] — a validating constructor for an
//!   edge list in strictly ascending `(src, dst)` order, the order the
//!   wire format writes. It rejects everything [`TaskGraphBuilder::build`]
//!   rejects, so the daemon decodes requests straight into CSR.
//! * [`FlatGraph::from_task_graph`] — conversion from any validated
//!   [`TaskGraph`] (arbitrary id order; the topological order is copied).

use flb_graph::{GraphError, TaskGraph, TaskGraphBuilder, TaskId, Time};
use std::fmt;

/// Sentinel for "no node" in every `u32`-indexed structure of this crate.
pub const NONE: u32 = u32::MAX;

/// Why [`FlatGraph::from_sorted_edges`] refused its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SortedEdgesError {
    /// A graph [`TaskGraphBuilder::build`] rejects too.
    Graph(GraphError),
    /// The edge `src -> dst` comes before its predecessor in the list in
    /// `(src, dst)` order. A repeated edge is `Graph(DuplicateEdge)`.
    OutOfOrder(TaskId, TaskId),
}

impl fmt::Display for SortedEdgesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortedEdgesError::Graph(e) => e.fmt(f),
            SortedEdgesError::OutOfOrder(a, b) => write!(f, "edge {a} -> {b} is out of order"),
        }
    }
}

impl std::error::Error for SortedEdgesError {}

/// A weighted DAG in compressed-sparse-row form, both directions.
#[derive(Clone, Debug)]
pub struct FlatGraph {
    name: String,
    comp: Vec<Time>,
    succ_off: Vec<u32>,
    succ_dst: Vec<u32>,
    succ_w: Vec<Time>,
    pred_off: Vec<u32>,
    pred_src: Vec<u32>,
    pred_w: Vec<Time>,
    /// A topological order of the ids (identity for streamed graphs).
    topo: Vec<u32>,
}

impl FlatGraph {
    /// Streaming constructor. `emit` must be deterministic: it is called
    /// twice with an edge sink, first to count per-node degrees, then to
    /// fill the CSR arrays. Every edge must satisfy `src < dst` (ids are
    /// the topological order, which all regular workload generators
    /// produce naturally), and both passes must emit exactly `num_edges`
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics on an edge with `src >= dst` or out of range, on an edge
    /// count mismatch between the passes and `num_edges`, or when
    /// `num_edges` does not fit `u32` offsets.
    #[must_use]
    pub fn from_emitter(
        name: impl Into<String>,
        comp: Vec<Time>,
        num_edges: usize,
        emit: impl Fn(&mut dyn FnMut(u32, u32, Time)),
    ) -> Self {
        let v = comp.len();
        assert!(
            num_edges < NONE as usize && v < NONE as usize,
            "graph too large for u32 indices"
        );
        // Pass 1: count degrees into the (future) offset arrays.
        let mut succ_off = vec![0u32; v + 1];
        let mut pred_off = vec![0u32; v + 1];
        let mut seen = 0usize;
        emit(&mut |src, dst, _w| {
            assert!(
                (dst as usize) < v && src < dst,
                "edge {src} -> {dst} must go forward within {v} tasks"
            );
            succ_off[src as usize + 1] += 1;
            pred_off[dst as usize + 1] += 1;
            seen += 1;
        });
        assert_eq!(seen, num_edges, "first pass emitted a different edge count");
        for i in 0..v {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        // Pass 2: fill, using cursor copies of the offsets.
        let mut succ_dst = vec![0u32; num_edges];
        let mut succ_w = vec![0; num_edges];
        let mut pred_src = vec![0u32; num_edges];
        let mut pred_w = vec![0; num_edges];
        let mut succ_cur: Vec<u32> = succ_off[..v].to_vec();
        let mut pred_cur: Vec<u32> = pred_off[..v].to_vec();
        let mut seen2 = 0usize;
        emit(&mut |src, dst, w| {
            let si = succ_cur[src as usize] as usize;
            succ_dst[si] = dst;
            succ_w[si] = w;
            succ_cur[src as usize] += 1;
            let pi = pred_cur[dst as usize] as usize;
            pred_src[pi] = src;
            pred_w[pi] = w;
            pred_cur[dst as usize] += 1;
            seen2 += 1;
        });
        assert_eq!(seen2, num_edges, "emitter passes disagree on edge count");
        FlatGraph {
            name: name.into(),
            comp,
            succ_off,
            succ_dst,
            succ_w,
            pred_off,
            pred_src,
            pred_w,
            topo: (0..v as u32).collect(),
        }
    }

    /// Validating constructor over `edges` in strictly ascending
    /// `(src, dst)` order. The successor half is filled as the edges
    /// stream by, the predecessor half by a counting sort over it, so the
    /// adjacency rows come out exactly as [`from_task_graph`] would lay
    /// them out for the same graph. `num_edges` sizes the arrays and should
    /// be the number of edges `edges` yields.
    ///
    /// Rejects what [`TaskGraphBuilder::build`] rejects, in its order of
    /// precedence: an edge naming an unknown task, a self-loop, an empty
    /// graph, a duplicate edge and a cycle. It also rejects an edge list
    /// that is not sorted ([`SortedEdgesError::OutOfOrder`]), which the
    /// builder would sort.
    ///
    /// A FIFO Kahn pass finds cycles and yields the topological order
    /// [`bottom_levels`](Self::bottom_levels) sweeps.
    ///
    /// # Panics
    ///
    /// Panics when the graph does not fit `u32` indices.
    ///
    /// [`from_task_graph`]: Self::from_task_graph
    pub fn from_sorted_edges(
        name: impl Into<String>,
        comp: Vec<Time>,
        num_edges: usize,
        edges: impl IntoIterator<Item = (u32, u32, Time)>,
    ) -> Result<Self, SortedEdgesError> {
        let v = comp.len();
        assert!(v < NONE as usize, "graph too large for u32 indices");
        let mut succ_off = Vec::with_capacity(v + 1);
        let mut succ_dst = Vec::with_capacity(num_edges);
        let mut succ_w = Vec::with_capacity(num_edges);
        // In-degree counts, shifted by one for the prefix sum below.
        let mut pred_off = vec![0u32; v + 1];
        let mut order_error = None;
        let mut prev: Option<(u32, u32)> = None;
        for (src, dst, w) in edges {
            for id in [src, dst] {
                if id as usize >= v {
                    return Err(SortedEdgesError::Graph(GraphError::UnknownTask(TaskId(
                        id as usize,
                    ))));
                }
            }
            if src == dst {
                return Err(SortedEdgesError::Graph(GraphError::SelfLoop(TaskId(
                    src as usize,
                ))));
            }
            if order_error.is_some() {
                continue; // Only unknown tasks and self-loops still count.
            }
            let (s, d) = (TaskId(src as usize), TaskId(dst as usize));
            if prev == Some((src, dst)) {
                order_error = Some(SortedEdgesError::Graph(GraphError::DuplicateEdge(s, d)));
                continue;
            }
            if prev.is_some_and(|p| (src, dst) < p) {
                order_error = Some(SortedEdgesError::OutOfOrder(s, d));
                continue;
            }
            prev = Some((src, dst));
            // Close the rows of every source up to and including `src`.
            while succ_off.len() <= src as usize {
                succ_off.push(succ_dst.len() as u32);
            }
            succ_dst.push(dst);
            succ_w.push(w);
            pred_off[dst as usize + 1] += 1;
        }
        if v == 0 {
            return Err(SortedEdgesError::Graph(GraphError::Empty));
        }
        if let Some(e) = order_error {
            return Err(e);
        }
        let e = succ_dst.len();
        assert!(e < NONE as usize, "graph too large for u32 indices");
        succ_off.resize(v + 1, e as u32);
        for i in 0..v {
            pred_off[i + 1] += pred_off[i];
        }
        let mut pred_cur: Vec<u32> = pred_off[..v].to_vec();
        let mut pred_src = vec![0u32; e];
        let mut pred_w = vec![0; e];
        for s in 0..v {
            let row = succ_off[s] as usize..succ_off[s + 1] as usize;
            for (&d, &w) in succ_dst[row.clone()].iter().zip(&succ_w[row]) {
                let pi = pred_cur[d as usize] as usize;
                pred_src[pi] = s as u32;
                pred_w[pi] = w;
                pred_cur[d as usize] += 1;
            }
        }
        let mut fg = FlatGraph {
            name: name.into(),
            comp,
            succ_off,
            succ_dst,
            succ_w,
            pred_off,
            pred_src,
            pred_w,
            topo: Vec::new(),
        };
        fg.topo = fg
            .fifo_kahn()
            .ok_or(SortedEdgesError::Graph(GraphError::Cycle))?;
        Ok(fg)
    }

    /// A topological order by FIFO Kahn; `None` when a cycle exists.
    fn fifo_kahn(&self) -> Option<Vec<u32>> {
        let v = self.num_tasks() as u32;
        let mut missing: Vec<u32> = (0..v).map(|t| self.in_degree(t)).collect();
        let mut order = Vec::with_capacity(self.num_tasks());
        order.extend((0..v).filter(|&t| missing[t as usize] == 0));
        let mut head = 0;
        while let Some(&t) = order.get(head) {
            head += 1;
            for (s, _) in self.succs(t) {
                missing[s as usize] -= 1;
                if missing[s as usize] == 0 {
                    order.push(s);
                }
            }
        }
        (order.len() == self.num_tasks()).then_some(order)
    }

    /// Converts a validated [`TaskGraph`] (any id order).
    #[must_use]
    pub fn from_task_graph(g: &TaskGraph) -> Self {
        let v = g.num_tasks();
        let e = g.num_edges();
        assert!(
            e < NONE as usize && v < NONE as usize,
            "graph too large for u32 indices"
        );
        let mut fg = FlatGraph {
            name: g.name().to_string(),
            comp: (0..v).map(|i| g.comp(TaskId(i))).collect(),
            succ_off: Vec::with_capacity(v + 1),
            succ_dst: Vec::with_capacity(e),
            succ_w: Vec::with_capacity(e),
            pred_off: Vec::with_capacity(v + 1),
            pred_src: Vec::with_capacity(e),
            pred_w: Vec::with_capacity(e),
            topo: g.topological_order().iter().map(|t| t.0 as u32).collect(),
        };
        fg.succ_off.push(0);
        fg.pred_off.push(0);
        for i in 0..v {
            for &(s, w) in g.succs(TaskId(i)) {
                fg.succ_dst.push(s.0 as u32);
                fg.succ_w.push(w);
            }
            fg.succ_off.push(fg.succ_dst.len() as u32);
            for &(p, w) in g.preds(TaskId(i)) {
                fg.pred_src.push(p.0 as u32);
                fg.pred_w.push(w);
            }
            fg.pred_off.push(fg.pred_src.len() as u32);
        }
        fg
    }

    /// Graph name (carried into conversions and bench labels).
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

    /// Computation cost of task `v`.
    #[inline]
    #[must_use]
    pub fn comp(&self, v: u32) -> Time {
        self.comp[v as usize]
    }

    /// Successors of `v` with edge weights. Allocation-free.
    #[inline]
    pub fn succs(&self, v: u32) -> impl Iterator<Item = (u32, Time)> + '_ {
        let lo = self.succ_off[v as usize] as usize;
        let hi = self.succ_off[v as usize + 1] as usize;
        self.succ_dst[lo..hi]
            .iter()
            .copied()
            .zip(self.succ_w[lo..hi].iter().copied())
    }

    /// Predecessors of `v` with edge weights. Allocation-free.
    #[inline]
    pub fn preds(&self, v: u32) -> impl Iterator<Item = (u32, Time)> + '_ {
        let lo = self.pred_off[v as usize] as usize;
        let hi = self.pred_off[v as usize + 1] as usize;
        self.pred_src[lo..hi]
            .iter()
            .copied()
            .zip(self.pred_w[lo..hi].iter().copied())
    }

    /// In-degree of `v`.
    #[inline]
    #[must_use]
    pub fn in_degree(&self, v: u32) -> u32 {
        self.pred_off[v as usize + 1] - self.pred_off[v as usize]
    }

    /// Sum of all computation costs (sequential time on a unit machine).
    #[must_use]
    pub fn total_comp(&self) -> Time {
        self.comp.iter().sum()
    }

    /// Sum of all communication costs (for measured-CCR reporting).
    #[must_use]
    pub fn total_comm(&self) -> Time {
        self.succ_w.iter().sum()
    }

    /// Static bottom levels over the stored topological order:
    /// `bl(t) = comp(t) + max over (t,s) in E of (comm(t,s) + bl(s))` —
    /// identical values to [`flb_graph::levels::bottom_levels`].
    #[must_use]
    pub fn bottom_levels(&self) -> Vec<Time> {
        let mut bl = vec![0; self.num_tasks()];
        for &t in self.topo.iter().rev() {
            let tail = self
                .succs(t)
                .map(|(s, w)| w + bl[s as usize])
                .max()
                .unwrap_or(0);
            bl[t as usize] = self.comp(t) + tail;
        }
        bl
    }

    /// Converts back into a validated [`TaskGraph`] (used when a reference
    /// scheduler or checker needs the builder-based representation).
    ///
    /// # Panics
    ///
    /// Panics if the graph is somehow invalid — impossible for graphs built
    /// by this crate's constructors.
    #[must_use]
    pub fn to_task_graph(&self) -> TaskGraph {
        let mut b = TaskGraphBuilder::named(self.name.clone());
        b.reserve(self.num_tasks(), self.num_edges());
        for &c in &self.comp {
            b.add_task(c);
        }
        for v in 0..self.num_tasks() as u32 {
            for (s, w) in self.succs(v) {
                b.add_edge(TaskId(v as usize), TaskId(s as usize), w)
                    .expect("flat graph edges are valid");
            }
        }
        b.build().expect("flat graph is acyclic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::levels::bottom_levels;
    use flb_graph::paper::fig1;

    #[test]
    fn from_task_graph_round_trips() {
        let g = fig1();
        let fg = FlatGraph::from_task_graph(&g);
        assert_eq!(fg.num_tasks(), g.num_tasks());
        assert_eq!(fg.num_edges(), g.num_edges());
        for i in 0..g.num_tasks() {
            assert_eq!(fg.comp(i as u32), g.comp(TaskId(i)));
            let succs: Vec<_> = fg.succs(i as u32).collect();
            let expect: Vec<_> = g
                .succs(TaskId(i))
                .iter()
                .map(|&(s, w)| (s.0 as u32, w))
                .collect();
            assert_eq!(succs, expect);
            let preds: Vec<_> = fg.preds(i as u32).collect();
            assert_eq!(preds.len(), g.preds(TaskId(i)).len());
        }
        let back = fg.to_task_graph();
        assert_eq!(back.num_tasks(), g.num_tasks());
        assert_eq!(back.num_edges(), g.num_edges());
    }

    #[test]
    fn bottom_levels_match_reference() {
        let g = fig1();
        let fg = FlatGraph::from_task_graph(&g);
        assert_eq!(fg.bottom_levels(), bottom_levels(&g));
        // Also on a permuted (non-identity topological order) graph.
        let lu = flb_graph::gen::lu(7);
        let perm: Vec<TaskId> = (0..lu.num_tasks())
            .map(|i| TaskId((i * 13 + 5) % lu.num_tasks()))
            .collect();
        let shuffled = flb_graph::transform::permute(&lu, &perm);
        let fs = FlatGraph::from_task_graph(&shuffled);
        assert_eq!(fs.bottom_levels(), bottom_levels(&shuffled));
    }

    #[test]
    fn from_emitter_builds_the_diamond() {
        // 0 -> {1, 2} -> 3
        let edges = [(0u32, 1u32, 5u64), (0, 2, 6), (1, 3, 7), (2, 3, 8)];
        let fg = FlatGraph::from_emitter("diamond", vec![1, 2, 3, 4], edges.len(), |sink| {
            for &(s, d, w) in &edges {
                sink(s, d, w);
            }
        });
        assert_eq!(fg.num_tasks(), 4);
        assert_eq!(fg.num_edges(), 4);
        assert_eq!(fg.succs(0).collect::<Vec<_>>(), vec![(1, 5), (2, 6)]);
        assert_eq!(fg.preds(3).collect::<Vec<_>>(), vec![(1, 7), (2, 8)]);
        assert_eq!(fg.in_degree(0), 0);
        assert_eq!(fg.in_degree(3), 2);
        assert_eq!(fg.total_comp(), 10);
        // bl(3)=4, bl(1)=2+7+4=13, bl(2)=3+8+4=15, bl(0)=1+6+15=22
        assert_eq!(fg.bottom_levels(), vec![22, 13, 15, 4]);
    }

    /// Edges of `g` in the order the wire format writes them.
    fn wire_edges(g: &TaskGraph) -> Vec<(u32, u32, Time)> {
        g.tasks()
            .flat_map(|t| {
                g.succs(t)
                    .iter()
                    .map(move |&(s, w)| (t.0 as u32, s.0 as u32, w))
            })
            .collect()
    }

    fn assert_same_csr(a: &FlatGraph, b: &FlatGraph) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.num_tasks(), b.num_tasks());
        assert_eq!(a.num_edges(), b.num_edges());
        for t in 0..a.num_tasks() as u32 {
            assert_eq!(a.comp(t), b.comp(t));
            assert_eq!(
                a.succs(t).collect::<Vec<_>>(),
                b.succs(t).collect::<Vec<_>>()
            );
            assert_eq!(
                a.preds(t).collect::<Vec<_>>(),
                b.preds(t).collect::<Vec<_>>()
            );
        }
        assert_eq!(a.bottom_levels(), b.bottom_levels());
    }

    #[test]
    fn from_sorted_edges_lays_out_what_from_task_graph_does() {
        let lu = flb_graph::gen::lu(8);
        let perm: Vec<TaskId> = (0..lu.num_tasks())
            .map(|i| TaskId((i * 11 + 3) % lu.num_tasks()))
            .collect();
        let graphs = [
            fig1(),
            flb_graph::transform::permute(&lu, &perm),
            lu,
            flb_graph::gen::fft(3),
            flb_graph::gen::random_dag(60, 0.1, 7),
        ];
        for g in &graphs {
            let edges = wire_edges(g);
            let comp = g.tasks().map(|t| g.comp(t)).collect();
            let fs = FlatGraph::from_sorted_edges(g.name(), comp, edges.len(), edges)
                .expect("a built graph's wire edges are valid");
            assert_same_csr(&fs, &FlatGraph::from_task_graph(g));
            for (i, &t) in fs.topo.iter().enumerate() {
                assert!(fs.preds(t).all(|(p, _)| fs.topo[..i].contains(&p)));
            }
        }
    }

    /// Deterministic xorshift, enough to spray edge lists.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn from_sorted_edges_rejects_exactly_what_the_builder_rejects() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let (mut accepted, mut out_of_order) = (0, 0);
        for case in 0..3000 {
            let v = (xorshift(&mut rng) % 7) as u32;
            let e = xorshift(&mut rng) % 9;
            let mut edges: Vec<(u32, u32, Time)> = (0..e)
                .map(|_| {
                    let s = (xorshift(&mut rng) % u64::from(v + 1)) as u32;
                    let d = (xorshift(&mut rng) % u64::from(v + 1)) as u32;
                    (s, d, xorshift(&mut rng) % 5)
                })
                .collect();
            // Most cases feed sorted lists, as the wire does.
            if case % 4 != 0 {
                edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
            }
            let comp: Vec<Time> = (0..v).map(|i| u64::from(i) + 1).collect();
            let mut b = TaskGraphBuilder::new();
            for &c in &comp {
                b.add_task(c);
            }
            let built = edges
                .iter()
                .try_for_each(|&(s, d, w)| b.add_edge(TaskId(s as usize), TaskId(d as usize), w))
                .and_then(|()| b.build());
            let flat = FlatGraph::from_sorted_edges("", comp, edges.len(), edges.iter().copied());
            match (&built, &flat) {
                (Ok(g), Ok(fg)) => {
                    accepted += 1;
                    assert_same_csr(fg, &FlatGraph::from_task_graph(g));
                }
                (Err(be), Err(SortedEdgesError::Graph(fe))) => assert_eq!(be, fe, "{edges:?}"),
                (_, Err(SortedEdgesError::OutOfOrder(..))) => {
                    out_of_order += 1;
                    assert!(edges
                        .windows(2)
                        .any(|w| (w[1].0, w[1].1) < (w[0].0, w[0].1)));
                }
                _ => panic!("builder {built:?} vs flat {flat:?} on {edges:?}"),
            }
        }
        assert!(
            accepted > 300 && out_of_order > 10,
            "{accepted} {out_of_order}"
        );
    }

    #[test]
    fn from_sorted_edges_names_each_rejection() {
        let build = |v: u32, edges: &[(u32, u32, Time)]| {
            FlatGraph::from_sorted_edges("g", vec![1; v as usize], edges.len(), edges.to_vec())
                .map(|_| ())
        };
        let graph = |e| Err(SortedEdgesError::Graph(e));
        assert_eq!(build(0, &[]), graph(GraphError::Empty));
        assert_eq!(
            build(2, &[(0, 2, 1)]),
            graph(GraphError::UnknownTask(TaskId(2)))
        );
        assert_eq!(
            build(2, &[(1, 1, 1)]),
            graph(GraphError::SelfLoop(TaskId(1)))
        );
        assert_eq!(
            build(2, &[(0, 1, 1), (0, 1, 2)]),
            graph(GraphError::DuplicateEdge(TaskId(0), TaskId(1)))
        );
        assert_eq!(build(2, &[(0, 1, 1), (1, 0, 1)]), graph(GraphError::Cycle));
        assert_eq!(
            build(3, &[(0, 2, 1), (0, 1, 1)]),
            Err(SortedEdgesError::OutOfOrder(TaskId(0), TaskId(1)))
        );
        // A later unknown task outranks an earlier order problem, as the
        // builder's eager `add_edge` checks outrank its sort.
        assert_eq!(
            build(3, &[(0, 2, 1), (0, 1, 1), (0, 9, 1)]),
            graph(GraphError::UnknownTask(TaskId(9)))
        );
        assert_eq!(build(3, &[(0, 2, 1), (1, 2, 1)]), Ok(()));
    }

    #[test]
    #[should_panic(expected = "must go forward")]
    fn from_emitter_rejects_backward_edges() {
        let _ = FlatGraph::from_emitter("bad", vec![1, 1], 1, |sink| sink(1, 0, 1));
    }
}
