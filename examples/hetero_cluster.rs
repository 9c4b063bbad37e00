//! Domain scenario: scheduling a signal-processing pipeline on a
//! big.LITTLE-style cluster — two fast cores and four half-speed cores —
//! comparing the paper's speed-oblivious algorithms with the speed-aware
//! ones (DLS with its Δ-term, HEFT) on the related-machines extension.
//!
//! Run: `cargo run --release --example hetero_cluster`

use flb::graph::compose::series;
use flb::graph::gen;
use flb::prelude::*;
use flb::sched::bounds::makespan_lower_bound_on;

fn main() {
    // An FFT front-end feeding a narrow stencil filter: 2-phase pipeline
    // whose limited width makes core speed matter.
    let program = series(&gen::fft(4), &gen::stencil(6, 24), 8).expect("compose");
    let graph = CostModel::paper_default(1.0).apply(&program, 77);
    println!(
        "pipeline: {} tasks, {} edges, CCR {:.2}",
        graph.num_tasks(),
        graph.num_edges(),
        graph.ccr()
    );

    // 2 fast cores + 4 cores running at a quarter speed.
    let cluster = Machine::related(vec![1, 1, 4, 4, 4, 4]);
    let bound = makespan_lower_bound_on(&graph, &cluster);
    println!(
        "machine: slowdowns {:?}, lower bound {bound}",
        [1, 1, 4, 4, 4, 4]
    );

    use AlgorithmId as A;
    let algorithms = [A::Flb, A::Etf, A::Mcp, A::Dls, A::Heft].map(A::scheduler);

    println!(
        "\n{:<8} {:>10} {:>12} {:>14}",
        "alg", "makespan", "vs bound", "fast-core load"
    );
    for a in &algorithms {
        let s = a.schedule(&graph, &cluster);
        validate(&graph, &s).expect("valid");
        // How much of the work landed on the two fast cores?
        let fast: u64 = (0..2)
            .flat_map(|p| s.tasks_on(ProcId(p)))
            .map(|&t| graph.comp(t))
            .sum();
        println!(
            "{:<8} {:>10} {:>11.2}x {:>13.1}%",
            a.name(),
            s.makespan(),
            s.makespan() as f64 / bound as f64,
            100.0 * fast as f64 / graph.total_comp() as f64
        );
    }

    println!("\nThe speed-oblivious EST algorithms treat a slow core that is free");
    println!("*now* as a bargain; DLS and HEFT weigh the finish time instead and");
    println!("keep the critical work on the fast cores.");
}
