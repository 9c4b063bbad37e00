//! Experiment X6 (extension): compile-time scheduling vs runtime load
//! balancing — the trade-off the paper's whole setting rests on.
//!
//! A runtime dispatcher assigns each task to an idle processor only when it
//! becomes ready and pays its input-fetch communication *after* dispatch;
//! the compile-time schedulers know the graph and overlap those transfers.
//! This harness reports the makespan ratio runtime/FLB per CCR and `P`, for
//! the three dispatch policies.
//!
//! Run: `cargo run -p flb-bench --release --bin runtime [--quick]`

use flb_bench::mem::{fmt_peak_rss, peak_rss_kb};
use flb_bench::report::{fmt_ratio, table};
use flb_bench::suite_from_args;
use flb_kernel::FlbKernel;
use flb_sched::{validate::validate, Machine, Scheduler};
use flb_sim::{dynamic_schedule, DispatchPolicy};
use flb_workloads::stats::geo_mean;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (spec, quick) = suite_from_args(&args);
    let suite = spec.generate();
    let procs: &[usize] = if quick { &[4, 16] } else { &[4, 16, 32] };
    println!(
        "Compile-time (FLB) vs runtime dispatch ({} workloads, V ~ {}, P in {procs:?})\n",
        suite.len(),
        spec.target_tasks
    );

    let policies = [
        ("runtime/BL", DispatchPolicy::BottomLevel),
        ("runtime/FIFO", DispatchPolicy::Fifo),
        ("runtime/LPT", DispatchPolicy::LongestTask),
    ];

    let mut rows = Vec::new();
    for &ccr in &spec.ccrs {
        for &p in procs {
            let machine = Machine::new(p);
            let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
            for w in suite.iter().filter(|w| w.ccr == ccr) {
                let ct = FlbKernel::new().schedule(&w.graph, &machine);
                validate(&w.graph, &ct).expect("FLB valid");
                let ct_span = ct.makespan() as f64;
                for (i, (_, policy)) in policies.iter().enumerate() {
                    let rt = dynamic_schedule(&w.graph, &machine, *policy);
                    validate(&w.graph, &rt).expect("runtime dispatch valid");
                    ratios[i].push(rt.makespan() as f64 / ct_span);
                }
            }
            let mut row = vec![format!("{ccr}"), p.to_string()];
            for r in &ratios {
                row.push(fmt_ratio(geo_mean(r)));
            }
            rows.push(row);
        }
    }

    let mut header = vec!["CCR".to_string(), "P".to_string()];
    header.extend(policies.iter().map(|(n, _)| n.to_string()));
    println!("{}", table(&header, &rows));
    println!("\nvalues are runtime-dispatch makespan / compile-time FLB makespan (>1: FLB wins).");
    println!("The gap should widen with CCR: lookahead lets FLB overlap the very");
    println!("communication a runtime dispatcher can only start after dispatch.");
    println!("\npeak RSS: {}", fmt_peak_rss(peak_rss_kb()));
}
