//! Property-based tests over generators, levels and width.

use flb_graph::costs::{CostModel, Dist};
use flb_graph::gen::{self, Family, RandomLayeredSpec};
use flb_graph::levels::{
    alap_times, bottom_levels, bottom_levels_comp_only, critical_path, critical_path_comp_only,
    critical_path_tasks, depths, top_levels,
};
use flb_graph::width::{max_antichain, max_ready_width};
use flb_graph::{transform, Cost, TaskGraph, TaskGraphBuilder, TaskId};
use flb_sched::io::wire::{self, Reader, Writer};
use flb_workloads::million::lu_flat;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy producing a diverse mix of small task graphs.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    prop_oneof![
        (1usize..12).prop_map(gen::chain),
        (1usize..12).prop_map(gen::independent),
        (1usize..8, 1usize..5).prop_map(|(w, s)| gen::fork_join(w, s)),
        (2usize..20).prop_map(gen::lu),
        (1usize..7).prop_map(gen::laplace),
        (1usize..6, 1usize..6).prop_map(|(p, s)| gen::stencil(p, s)),
        (1u32..5).prop_map(gen::fft),
        (1usize..4, 0u32..4).prop_map(|(a, h)| gen::out_tree(a, h)),
        (2usize..4, 0u32..4).prop_map(|(a, h)| gen::in_tree(a, h)),
        (10usize..60, 2usize..6, any::<u64>()).prop_map(|(v, l, seed)| {
            gen::random_layered(
                &RandomLayeredSpec {
                    tasks: v,
                    layers: l,
                    edge_prob: 0.3,
                    max_skip: 2,
                },
                seed,
            )
        }),
        (2usize..25, any::<u64>()).prop_map(|(v, seed)| gen::random_dag(v, 0.25, seed)),
    ]
}

/// `order` must list every task exactly once with all predecessors earlier.
fn assert_topological(g: &TaskGraph, order: &[TaskId]) {
    assert_eq!(order.len(), g.num_tasks());
    let mut pos = vec![usize::MAX; g.num_tasks()];
    for (i, &t) in order.iter().enumerate() {
        pos[t.0] = i;
    }
    for t in g.tasks() {
        assert_ne!(pos[t.0], usize::MAX, "task {t} missing from order");
        for s in g.succ_ids(t) {
            assert!(pos[t.0] < pos[s.0], "edge {t} -> {s} violates order");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generated_graphs_are_valid_dags(g in arb_graph()) {
        assert_topological(&g, &g.topological_order().collect::<Vec<_>>());
        // Edge count consistency between the two CSR directions.
        let out_sum: usize = g.tasks().map(|t| g.out_degree(t)).sum();
        let in_sum: usize = g.tasks().map(|t| g.in_degree(t)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
        // Every graph has at least one entry and one exit.
        prop_assert!(g.entry_tasks().next().is_some());
        prop_assert!(g.exit_tasks().next().is_some());
    }

    #[test]
    fn level_invariants(g in arb_graph()) {
        let bl = bottom_levels(&g);
        let bl0 = bottom_levels_comp_only(&g);
        let tl = top_levels(&g);
        let alap = alap_times(&g);
        let cp = critical_path(&g);
        let d = depths(&g);

        for t in g.tasks() {
            // Bottom level dominates its comp-only variant and comp itself.
            prop_assert!(bl[t.0] >= bl0[t.0]);
            prop_assert!(bl0[t.0] >= g.comp(t));
            // tl + bl never exceeds the critical path; ALAP >= tl is false in
            // general, but alap + bl == cp by construction.
            prop_assert!(tl[t.0] + bl[t.0] <= cp);
            prop_assert_eq!(alap[t.0] + bl[t.0], cp);
            // Monotonicity along edges.
            for (s, c) in g.succs(t) {
                prop_assert!(bl[t.0] >= g.comp(t) + c + bl[s.0]);
                prop_assert!(tl[s.0] >= tl[t.0] + g.comp(t) + c);
                prop_assert!(d[s.0] > d[t.0]);
            }
        }
        prop_assert!(cp >= critical_path_comp_only(&g));
        prop_assert!(cp <= g.total_comp() + g.total_comm());
    }

    #[test]
    fn critical_path_tasks_realise_cp(g in arb_graph()) {
        let path = critical_path_tasks(&g);
        prop_assert!(!path.is_empty());
        // Path length (comp + comm along it) equals the critical path.
        let mut len = 0;
        for w in path.windows(2) {
            len += g.comp(w[0]) + g.edge_comm(w[0], w[1]).expect("consecutive path edge");
        }
        len += g.comp(*path.last().unwrap());
        prop_assert_eq!(len, critical_path(&g));
        // Starts at an entry, ends at an exit.
        prop_assert_eq!(g.in_degree(path[0]), 0);
        prop_assert_eq!(g.out_degree(*path.last().unwrap()), 0);
    }

    /// The Dilworth/Hopcroft–Karp width agrees with a brute-force maximum
    /// antichain found by subset enumeration (small graphs only).
    #[test]
    fn exact_width_matches_brute_force(
        v in 2usize..12,
        p in 0.1f64..0.6,
        seed in any::<u64>(),
    ) {
        let g = gen::random_dag(v, p, seed);
        // Reachability by DFS per node.
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
        let mut best = 0usize;
        for mask in 1u32..(1 << v) {
            let members: Vec<usize> = (0..v).filter(|i| mask & (1 << i) != 0).collect();
            let antichain = members.iter().all(|&a| {
                members.iter().all(|&b| a == b || (!reach[a][b] && !reach[b][a]))
            });
            if antichain {
                best = best.max(members.len());
            }
        }
        prop_assert_eq!(max_antichain(&g), best);
    }

    #[test]
    fn width_bounds(g in arb_graph()) {
        let w = max_antichain(&g);
        let rw = max_ready_width(&g);
        prop_assert!(w >= 1);
        prop_assert!(rw >= 1);
        prop_assert!(rw <= w, "ready width {rw} exceeded antichain {w}");
        prop_assert!(w <= g.num_tasks());
    }

    #[test]
    fn reweighting_preserves_structure(
        topo in arb_graph(),
        seed in any::<u64>(),
        ccr in prop_oneof![Just(0.2), Just(1.0), Just(5.0)],
    ) {
        let model = CostModel { comp: Dist::UniformMean(50), ccr };
        let g = model.apply(&topo, seed);
        prop_assert_eq!(g.num_tasks(), topo.num_tasks());
        prop_assert_eq!(g.num_edges(), topo.num_edges());
        for t in g.tasks() {
            prop_assert!(g.comp(t) >= 1);
            for ((s, c), s0) in g.succs(t).zip(topo.succ_ids(t)) {
                prop_assert_eq!(s, s0);
                prop_assert!(c >= 1);
            }
        }
    }

    #[test]
    fn serde_and_text_roundtrip(g in arb_graph()) {
        use flb_graph::serialize::{parse_text, to_text, TaskGraphData};
        let text = to_text(&g);
        let g2 = parse_text(&text).unwrap();
        prop_assert_eq!(TaskGraphData::from(&g), TaskGraphData::from(&g2));
    }

    #[test]
    fn transitive_reduction_preserves_order(g in arb_graph()) {
        use flb_graph::transform::transitive_reduction;
        let r = transitive_reduction(&g);
        prop_assert_eq!(r.num_tasks(), g.num_tasks());
        prop_assert!(r.num_edges() <= g.num_edges());
        // The partial order is untouched: identical maximum antichain, and
        // every removed edge is still implied (depth strictly increases
        // along every original edge).
        prop_assert_eq!(max_antichain(&r), max_antichain(&g));
        let d = depths(&r);
        for t in g.tasks() {
            for s in g.succ_ids(t) {
                prop_assert!(d[s.0] > d[t.0], "original edge {t} -> {s} lost");
            }
        }
        // Idempotent.
        prop_assert_eq!(transitive_reduction(&r).num_edges(), r.num_edges());
    }

    #[test]
    fn chain_coarsening_conserves_work(g in arb_graph()) {
        use flb_graph::transform::coarsen_chains;
        let c = coarsen_chains(&g);
        prop_assert_eq!(c.graph.total_comp(), g.total_comp());
        prop_assert!(c.graph.num_tasks() <= g.num_tasks());
        prop_assert!(c.graph.total_comm() <= g.total_comm());
        // The mapping covers every old task and respects edges.
        prop_assert_eq!(c.new_of.len(), g.num_tasks());
        let d = depths(&c.graph);
        for t in g.tasks() {
            for s in g.succ_ids(t) {
                let (a, b) = (c.new_of[t.0], c.new_of[s.0]);
                if a != b {
                    prop_assert!(d[b.0] > d[a.0], "cross-chain edge order lost");
                }
            }
        }
        // Width can only shrink.
        prop_assert!(max_antichain(&c.graph) <= max_antichain(&g));
        // Coarsening is a fixpoint: no chain links remain.
        let again = coarsen_chains(&c.graph);
        prop_assert_eq!(again.graph.num_tasks(), c.graph.num_tasks());
    }

    #[test]
    fn family_topologies_scale(v in 50usize..500) {
        for fam in Family::ALL {
            let g = fam.topology(v);
            // Within a factor of 2.5 of the request (FFT is the coarsest).
            let n = g.num_tasks();
            prop_assert!(n * 2 >= v / 2, "{}: {n} tasks for target {v}", fam.name());
            prop_assert!(n <= v * 3, "{}: {n} tasks for target {v}", fam.name());
        }
    }
}

/// Successor rows ascend by target and predecessor rows by source.
fn assert_rows_ascend(g: &TaskGraph, what: &str) -> Result<(), TestCaseError> {
    for t in g.tasks() {
        let succs: Vec<TaskId> = g.succ_ids(t).collect();
        prop_assert!(
            succs.windows(2).all(|w| w[0] < w[1]),
            "{what}: succs of {t}"
        );
        let preds: Vec<TaskId> = g.preds(t).map(|(p, _)| p).collect();
        prop_assert!(
            preds.windows(2).all(|w| w[0] < w[1]),
            "{what}: preds of {t}"
        );
    }
    Ok(())
}

/// An edge list as `(source, target, cost)` triples.
type Edges = Vec<(u32, u32, Cost)>;

/// The graphs every constructor builds from `g`'s edges, each with the
/// edge list it was given: the builder fed shuffled edges, the
/// sorted-edge constructor, a wire round trip and the streaming LU
/// generator. `lu_flat` draws its own weights, so its list is the stored
/// predecessor copy.
fn constructed(g: &TaskGraph, seed: u64, m: usize) -> Vec<(&'static str, TaskGraph, Edges)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_tasks();
    let mut perm: Vec<TaskId> = (0..n).map(TaskId).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.random_range(0..i + 1));
    }
    let g = transform::permute(g, &perm);
    let mut edges: Vec<(u32, u32, Cost)> = g
        .tasks()
        .flat_map(|t| g.succs(t).map(move |(s, c)| (t.0 as u32, s.0 as u32, c)))
        .collect();
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.random_range(0..i + 1));
    }

    let mut b = TaskGraphBuilder::named(g.name());
    for t in g.tasks() {
        b.add_task(g.comp(t));
    }
    for &(s, d, c) in &edges {
        b.add_edge(TaskId(s as usize), TaskId(d as usize), c)
            .unwrap();
    }
    let built = b.build().unwrap();

    let mut sorted = edges.clone();
    sorted.sort_unstable_by_key(|&(s, d, _)| (s, d));
    let comp = g.tasks().map(|t| g.comp(t)).collect();
    let direct = TaskGraph::from_sorted_edges(g.name(), comp, sorted.len(), sorted).unwrap();

    let mut w = Writer::new();
    wire::put_graph(&mut w, &g);
    let bytes = w.into_bytes();
    let decoded = wire::get_graph(&mut Reader::new(&bytes)).unwrap();

    let model = CostModel {
        comp: Dist::UniformMean(10),
        ccr: 1.0,
    };
    let lu = lu_flat(m, &model, seed);
    let lu_edges = lu
        .tasks()
        .flat_map(|t| lu.preds(t).map(move |(p, c)| (p.0 as u32, t.0 as u32, c)))
        .collect();
    vec![
        ("builder", built, edges.clone()),
        ("sorted edges", direct, edges.clone()),
        ("wire", decoded, edges),
        ("lu_flat", lu, lu_edges),
    ]
}

/// Each edge's weight is stored once, and every accessor reports it:
/// `succs`, `preds` and `edge_comm` give each input edge its weight,
/// `succ_ids` is `succs` without the weights, and `total_comm` is the
/// input's sum.
fn assert_single_copy(
    g: &TaskGraph,
    edges: &[(u32, u32, Cost)],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.num_edges(), edges.len(), "{}", what);
    for &(s, d, c) in edges {
        let (s, d) = (TaskId(s as usize), TaskId(d as usize));
        prop_assert_eq!(
            g.edge_comm(s, d),
            Some(c),
            "{}: edge_comm {} -> {}",
            what,
            s,
            d
        );
        prop_assert!(g.succs(s).any(|x| x == (d, c)), "{}: succs of {}", what, s);
        prop_assert!(g.preds(d).any(|x| x == (s, c)), "{}: preds of {}", what, d);
    }
    for t in g.tasks() {
        prop_assert!(
            g.succ_ids(t).eq(g.succs(t).map(|(s, _)| s)),
            "{}: succ_ids of {}",
            what,
            t
        );
    }
    prop_assert_eq!(
        g.total_comm(),
        edges.iter().map(|e| e.2).sum::<Cost>(),
        "{}",
        what
    );
    Ok(())
}

proptest! {
    /// Every constructor lays rows out in ascending id order: the builder
    /// fed shuffled edges, the sorted-edge constructor, a wire round trip
    /// and the streaming LU generator. `edge_comm`'s binary search and
    /// the forward-edge topological shortcut rely on it.
    #[test]
    fn every_constructor_yields_ascending_rows(
        g in arb_graph(),
        seed in any::<u64>(),
        m in 1usize..30,
    ) {
        for (what, built, _) in constructed(&g, seed, m) {
            assert_rows_ascend(&built, what)?;
        }
    }

    /// The same constructors, over weighted graphs: each weight is stored
    /// once, in predecessor order, and read back from either direction.
    #[test]
    fn every_constructor_stores_each_weight_once(
        g in arb_graph(),
        seed in any::<u64>(),
        ccr in 0.2f64..5.0,
        m in 1usize..30,
    ) {
        let g = CostModel::paper_default(ccr).apply(&g, seed);
        for (what, built, edges) in constructed(&g, seed, m) {
            assert_single_copy(&built, &edges, what)?;
        }
    }
}

/// `bl(t) = comp(t) + max over successors (c + bl(s))`, by memoised
/// recursion over `succs`.
fn pull_bottom_level(g: &TaskGraph, t: TaskId, memo: &mut [Option<u64>]) -> u64 {
    if let Some(bl) = memo[t.0] {
        return bl;
    }
    let tail = g
        .succs(t)
        .map(|(s, c)| c + pull_bottom_level(g, s, memo))
        .max()
        .unwrap_or(0);
    let bl = g.comp(t) + tail;
    memo[t.0] = Some(bl);
    bl
}

/// `bottom_levels` pushes over the predecessor rows; the definition pulls
/// over the successors. They agree on seeded random DAGs, both on ids
/// that are a topological order and on shuffled ids, whose order Kahn's
/// pass stores.
#[test]
fn bottom_levels_match_the_pull_definition() {
    let mut shuffled_runs = 0;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = rng.random_range(1..60);
        let density = [0.05, 0.2, 0.5][seed as usize % 3];
        let ccr = [0.2, 1.0, 5.0][seed as usize / 3 % 3];
        let g = CostModel::paper_default(ccr).apply(&gen::random_dag(v, density, seed), seed);
        let mut perm: Vec<TaskId> = (0..v).map(TaskId).collect();
        for i in (1..v).rev() {
            perm.swap(i, rng.random_range(0..i + 1));
        }
        let shuffled = transform::permute(&g, &perm);
        for h in [&g, &shuffled] {
            let mut memo = vec![None; v];
            let pulled: Vec<u64> = h
                .tasks()
                .map(|t| pull_bottom_level(h, t, &mut memo))
                .collect();
            assert_eq!(bottom_levels(h), pulled, "{} (seed {seed})", h.name());
            shuffled_runs += usize::from(!h.topological_order().eq(h.tasks()));
        }
    }
    assert!(
        shuffled_runs > 100,
        "{shuffled_runs} runs took the stored Kahn order"
    );
}
