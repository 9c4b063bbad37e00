//! Experiment X8 (extension): robustness of compile-time schedules to cost
//! estimation error.
//!
//! Compile-time scheduling (the paper's whole setting) trusts the cost
//! estimates in the task graph. Here, FLB schedules the *estimated* graph;
//! the resulting (assignment, per-processor order) is then executed — via
//! the discrete-event simulator, which derives times from scratch — on a
//! *perturbed* graph whose actual computation and communication costs
//! deviate by up to ±e% (uniform, seeded). The outcome is compared against
//! the clairvoyant schedule (FLB re-run on the true costs):
//!
//! ```text
//! degradation(e) = sim(schedule_from_estimates, true costs)
//!                / makespan(schedule_from_true_costs)
//! ```
//!
//! Run: `cargo run -p flb-bench --release --bin robustness [--quick]`

use flb_bench::report::{fmt_ratio, table};
use flb_bench::suite_from_args;
use flb_graph::{Cost, TaskGraph, TaskGraphBuilder};
use flb_kernel::FlbKernel;
use flb_sched::{validate::validate, Machine, Scheduler};
use flb_sim::simulate;
use flb_workloads::stats::geo_mean;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Multiplicative noise on one cost. A genuinely zero cost stays zero —
/// noise models estimation error on a real cost, not the appearance of
/// work (or a message) that does not exist; positive costs are clamped to
/// ≥ 1 so rounding cannot erase them.
fn noisy(c: Cost, factor: f64) -> Cost {
    if c == 0 {
        0
    } else {
        ((c as f64 * factor).round() as Cost).max(1)
    }
}

/// Returns `g` with every cost multiplied by an i.i.d. factor in
/// `[1-e, 1+e]`.
fn perturb(g: &TaskGraph, error: f64, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factor = move || 1.0 + rng.random_range(-error..=error);
    let mut b = TaskGraphBuilder::named(format!("{}-noisy", g.name()));
    b.reserve(g.num_tasks(), g.num_edges());
    for t in g.tasks() {
        let c = noisy(g.comp(t), factor());
        b.add_task(c);
    }
    for t in g.tasks() {
        for &(s, c) in g.succs(t) {
            b.add_edge(t, s, noisy(c, factor())).expect("same topology");
        }
    }
    b.build().expect("same topology is a DAG")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (spec, quick) = suite_from_args(&args);
    let suite = spec.generate();
    let procs: &[usize] = if quick { &[8] } else { &[8, 32] };
    let errors = [0.1, 0.25, 0.5];
    println!(
        "Robustness to cost estimation error ({} workloads, V ~ {}, P in {procs:?})\n",
        suite.len(),
        spec.target_tasks
    );

    let flb = FlbKernel::new();
    let mut rows = Vec::new();
    for &ccr in &spec.ccrs {
        for &p in procs {
            let machine = Machine::new(p);
            let mut row = vec![format!("{ccr}"), p.to_string()];
            for &e in &errors {
                let mut degradation = Vec::new();
                for (i, w) in suite.iter().filter(|w| w.ccr == ccr).enumerate() {
                    // Schedule on estimates.
                    let planned = flb.schedule(&w.graph, &machine);
                    validate(&w.graph, &planned).expect("valid on estimates");
                    // Execute on the true (perturbed) costs: the simulator
                    // keeps only assignment + order and re-derives times.
                    let truth = perturb(&w.graph, e, 0xC0FFEE ^ i as u64);
                    let executed = simulate(&truth, &planned)
                        .expect("same order remains feasible")
                        .makespan;
                    // Clairvoyant baseline: schedule the true costs.
                    let oracle = flb.schedule(&truth, &machine).makespan();
                    degradation.push(executed as f64 / oracle as f64);
                }
                row.push(fmt_ratio(geo_mean(&degradation)));
            }
            rows.push(row);
        }
    }

    let mut header = vec!["CCR".to_string(), "P".to_string()];
    header.extend(errors.iter().map(|e| format!("±{:.0}%", e * 100.0)));
    println!("{}", table(&header, &rows));
    println!("\nvalues are executed-makespan / clairvoyant-makespan (1.00 = estimation");
    println!("error costs nothing). Compile-time schedules are expected to degrade");
    println!("gracefully: the order is conservative, only the overlap is mistimed.");
}
