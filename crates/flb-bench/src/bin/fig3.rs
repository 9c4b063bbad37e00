//! Experiment F3: regenerates the paper's Fig. 3 — FLB speedup versus the
//! number of processors, per problem family, at CCR 0.2 and 5.0.
//!
//! Run: `cargo run -p flb-bench --release --bin fig3` (add `--quick` for a
//! scaled-down suite). The paper's claims: the regular families (Stencil,
//! FFT) approach linear speedup; LU and Laplace, dominated by joins, level
//! off at larger `P`; CCR 5.0 yields lower speedups than CCR 0.2.

use flb_bench::report::table;
use flb_bench::suite_from_args;
use flb_graph::gen::Family;
use flb_kernel::FlbKernel;
use flb_sched::metrics::speedup;
use flb_sched::{Machine, Scheduler};
use flb_workloads::stats::mean;
use flb_workloads::PAPER_SPEEDUP_PROC_COUNTS;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (spec, quick) = suite_from_args(&args);
    let suite = spec.generate();
    println!(
        "Fig. 3: FLB speedup vs P  ({} workloads, V ~ {}, {})",
        suite.len(),
        spec.target_tasks,
        if quick { "quick suite" } else { "paper suite" }
    );

    let flb = FlbKernel::new();
    for &ccr in &spec.ccrs {
        println!("\nCCR = {ccr}");
        let mut header = vec!["P".to_string()];
        header.extend(spec.families.iter().map(|f| f.name().to_string()));
        let mut rows = Vec::new();
        // speedups[family][p-index] accumulated over instances.
        let mut series: Vec<Vec<f64>> = Vec::new();
        for &p in &PAPER_SPEEDUP_PROC_COUNTS {
            let machine = Machine::new(p);
            let mut row = vec![p.to_string()];
            let mut per_family = Vec::new();
            for &fam in &spec.families {
                let xs: Vec<f64> = suite
                    .iter()
                    .filter(|w| w.family == fam && w.ccr == ccr)
                    .map(|w| speedup(&w.graph, &flb.schedule(&w.graph, &machine)))
                    .collect();
                let s = mean(&xs);
                row.push(format!("{s:.2}"));
                per_family.push(s);
            }
            rows.push(row);
            series.push(per_family);
        }
        println!("{}", table(&header, &rows));

        // Shape checks per family: speedup is monotone-ish and the regular
        // families scale further than the join-heavy ones at max P.
        let last = series.last().expect("non-empty proc list");
        let fam_speedup = |f: Family| spec.families.iter().position(|&x| x == f).map(|i| last[i]);
        if let (Some(st), Some(lu)) = (fam_speedup(Family::Stencil), fam_speedup(Family::Lu)) {
            println!(
                "  Stencil outscales LU at P={}: {:.2} vs {:.2}  {}",
                PAPER_SPEEDUP_PROC_COUNTS.last().expect("non-empty"),
                st,
                lu,
                if st > lu {
                    "[matches paper]"
                } else {
                    "[DIVERGES]"
                }
            );
        }
        for (i, &fam) in spec.families.iter().enumerate() {
            let up = series
                .windows(2)
                .filter(|w| w[1][i] >= w[0][i] * 0.95)
                .count();
            println!(
                "  {} speedup non-decreasing in {}/{} steps (P=1 value {:.2})",
                fam.name(),
                up,
                series.len() - 1,
                series[0][i],
            );
        }
    }
}
