//! Experiment X5 (extension): the paper's comparison widened with the
//! other algorithms it cites — DLS (Sih & Lee, [10]), HLFET (the classic
//! static-level list scheduler) and the original insertion-based MCP — all
//! normalised against MCP like Fig. 4.
//!
//! Run: `cargo run -p flb-bench --release --bin extended [--quick]`

use flb_bench::report::{fmt_ratio, fmt_seconds, table};
use flb_bench::suite_from_args;
use flb_core::AlgorithmId::{self, Dls, DscLlb, Etf, Fcp, Flb, Heft, Hlfet, Mcp, McpInsertion};
use flb_sched::{validate::validate, Machine, Scheduler};
use flb_workloads::stats::{geo_mean, mean};
use std::time::Instant;

/// The compared algorithms, in table order.
const EXTENDED: [AlgorithmId; 9] = [Mcp, McpInsertion, Etf, Dls, Heft, Hlfet, DscLlb, Fcp, Flb];

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    EXTENDED.map(AlgorithmId::scheduler).into()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (spec, quick) = suite_from_args(&args);
    let suite = spec.generate();
    let procs: &[usize] = if quick { &[4, 16] } else { &[2, 4, 8, 16, 32] };
    println!(
        "Extended comparison ({} workloads, V ~ {}, P in {procs:?})\n",
        suite.len(),
        spec.target_tasks
    );

    // NSL vs MCP and mean scheduling time, aggregated over the suite.
    let mut rows = Vec::new();
    let names: Vec<&'static str> = schedulers().iter().map(|s| s.name()).collect();
    let mut nsls: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); names.len()];

    for w in &suite {
        for &p in procs {
            let machine = Machine::new(p);
            let mcp_span = Mcp.scheduler().schedule(&w.graph, &machine).makespan() as f64;
            for (i, s) in schedulers().iter().enumerate() {
                let t0 = Instant::now();
                let sched = s.schedule(&w.graph, &machine);
                let dt = t0.elapsed().as_secs_f64();
                validate(&w.graph, &sched)
                    .unwrap_or_else(|e| panic!("{} invalid on {}: {e}", s.name(), w.label()));
                nsls[i].push(sched.makespan() as f64 / mcp_span);
                times[i].push(dt);
            }
        }
    }

    for (i, name) in names.iter().enumerate() {
        rows.push(vec![
            name.to_string(),
            fmt_ratio(geo_mean(&nsls[i])),
            fmt_ratio(nsls[i].iter().copied().fold(f64::MIN, f64::max)),
            fmt_seconds(mean(&times[i])),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "algorithm".into(),
                "NSL (geo mean)".into(),
                "NSL (worst)".into(),
                "mean cost".into(),
            ],
            &rows
        )
    );
    println!("\nNSL < 1.00 beats MCP on average; 'mean cost' is scheduling wall time.");
}
