//! Experiment X7 (extension): the duplication class the paper's §1 cites
//! (DSH/BTDH/CPFD) versus the non-duplicating algorithms.
//!
//! The paper's taxonomy claims duplication buys schedule quality at a
//! significantly higher scheduling cost (plus redundant work). This harness
//! measures all three quantities for the CPD (critical-parent duplication)
//! scheduler against FLB: makespan ratio, scheduling-time ratio and the
//! fraction of extra computation executed.
//!
//! Run: `cargo run -p flb-bench --release --bin duplication [--quick]`

use flb_baselines::duplication::{validate_dup, Cpd};
use flb_bench::report::{fmt_ratio, table};
use flb_bench::suite_from_args;
use flb_kernel::FlbKernel;
use flb_sched::{validate::validate, Machine, Scheduler};
use flb_workloads::stats::geo_mean;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (mut spec, quick) = suite_from_args(&args);
    if !quick {
        // CPD is quadratic-ish in practice; the class point is visible at
        // moderate size without hour-long runs.
        spec.target_tasks = 500;
        spec.instances = 3;
    }
    let suite = spec.generate();
    let procs: &[usize] = if quick { &[4] } else { &[4, 16] };
    println!(
        "Duplication (CPD) vs non-duplicating (FLB)  ({} workloads, V ~ {}, P in {procs:?})\n",
        suite.len(),
        spec.target_tasks
    );

    let mut rows = Vec::new();
    for &ccr in &spec.ccrs {
        for &p in procs {
            let machine = Machine::new(p);
            let mut span_ratio = Vec::new();
            let mut time_ratio = Vec::new();
            let mut overhead = Vec::new();
            for w in suite.iter().filter(|w| w.ccr == ccr) {
                let t0 = Instant::now();
                let flb = FlbKernel::new().schedule(&w.graph, &machine);
                let t_flb = t0.elapsed().as_secs_f64();
                validate(&w.graph, &flb).expect("FLB valid");

                let t0 = Instant::now();
                let dup = Cpd::new().schedule_dup(&w.graph, &machine);
                let t_dup = t0.elapsed().as_secs_f64();
                validate_dup(&w.graph, &dup).expect("CPD valid");

                span_ratio.push(dup.makespan() as f64 / flb.makespan() as f64);
                time_ratio.push(t_dup / t_flb.max(1e-9));
                overhead.push(1.0 + dup.duplication_overhead(&w.graph));
            }
            rows.push(vec![
                format!("{ccr}"),
                p.to_string(),
                fmt_ratio(geo_mean(&span_ratio)),
                format!("{:.0}x", geo_mean(&time_ratio)),
                format!("{:+.1} %", (geo_mean(&overhead) - 1.0) * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &[
                "CCR".into(),
                "P".into(),
                "makespan CPD/FLB".into(),
                "sched-time CPD/FLB".into(),
                "extra work".into(),
            ],
            &rows
        )
    );
    println!("\nmakespan < 1.00: duplication shortens schedules (expected at high CCR),");
    println!("bought with the scheduling-time multiplier and the redundant computation");
    println!("shown — the trade-off that keeps FLB in the non-duplicating class (§1).");
}
