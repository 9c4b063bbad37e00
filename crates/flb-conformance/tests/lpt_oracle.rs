//! The LPT oracle (EXPERIMENTS X1). On an edge-free graph every task is a
//! non-EP entry task with `LMT = 0` whose bottom level is its own weight,
//! so FLB puts the largest remaining task on the earliest-idle processor:
//! Graham's LPT rule, within `4/3 − 1/(3P)` of the optimum.

use flb_conformance::registry::by_name;
use flb_core::AlgorithmId;
use flb_graph::TaskGraphBuilder;
use flb_sched::{Machine, Scheduler};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// 2000 seeded instances: 1–10 task weights in 1–20, and 2–4 processors.
fn instances() -> impl Iterator<Item = (Vec<u64>, usize)> {
    let mut rng = StdRng::seed_from_u64(0x1997_4C50);
    (0..2000).map(move |_| {
        let n = rng.random_range(1..=10usize);
        let weights = (0..n).map(|_| rng.random_range(1..=20u64)).collect();
        (weights, rng.random_range(2..=4usize))
    })
}

/// Schedules one edge-free task per weight on `procs` homogeneous processors.
fn makespan(s: &dyn Scheduler, weights: &[u64], procs: usize) -> u64 {
    let mut b = TaskGraphBuilder::new();
    for &w in weights {
        b.add_task(w);
    }
    let g = b.build().expect("edge-free graph");
    s.schedule(&g, &Machine::new(procs)).makespan()
}

fn largest_first(weights: &[u64]) -> Vec<u64> {
    let mut sorted = weights.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    sorted
}

/// Largest weight first onto the least-loaded processor.
fn lpt(weights: &[u64], procs: usize) -> u64 {
    let mut load = vec![0; procs];
    for w in largest_first(weights) {
        *load.iter_mut().min().expect("procs >= 2") += w;
    }
    load.into_iter().max().expect("procs >= 2")
}

/// The optimum, by branch and bound over largest-first placements. A task
/// never opens a second empty processor: empty processors are alike.
fn opt(weights: &[u64], procs: usize) -> u64 {
    fn place(rest: &[u64], load: &mut [u64], best: &mut u64) {
        let Some((&w, rest)) = rest.split_first() else {
            *best = load.iter().copied().max().unwrap_or(0);
            return;
        };
        for p in 0..load.len() {
            if load[p] + w < *best && (load[p] > 0 || !load[..p].contains(&0)) {
                load[p] += w;
                place(rest, load, best);
                load[p] -= w;
            }
        }
    }
    let mut best = lpt(weights, procs);
    place(&largest_first(weights), &mut vec![0; procs], &mut best);
    best
}

#[test]
fn flb_is_lpt_on_edge_free_graphs_and_meets_grahams_bound() {
    // The kernel behind the wire id, and the `FlbRun` reference.
    let engines = [
        AlgorithmId::Flb.scheduler(),
        by_name("flb").expect("registered").scheduler,
    ];
    let mut above_opt = 0;
    for (weights, procs) in instances() {
        let lpt = lpt(&weights, procs);
        for s in &engines {
            let span = makespan(s.as_ref(), &weights, procs);
            assert_eq!(span, lpt, "{weights:?}, P={procs}");
        }
        // LPT / OPT <= 4/3 - 1/(3P), in integers.
        let (opt, p) = (opt(&weights, procs), procs as u64);
        assert!(3 * p * lpt <= (4 * p - 1) * opt, "{weights:?}, P={procs}");
        above_opt += usize::from(lpt > opt);
    }
    assert!(
        above_opt > 0,
        "the bound was never tested above the optimum"
    );
}

/// The oracle bites: `flb-fifo` breaks ties by task id, which on an
/// edge-free graph is list scheduling in id order, not LPT.
#[test]
fn fifo_tie_break_fails_the_lpt_oracle() {
    let fifo = by_name("flb-fifo").expect("registered").scheduler;
    assert!(instances().any(|(w, procs)| makespan(fifo.as_ref(), &w, procs) != lpt(&w, procs)));
}
