//! Ablation experiments A1–A3 of DESIGN.md: the design choices that the
//! paper leaves configurable or ambiguous, measured head-to-head.
//!
//! * **A1** — MCP idle-slot insertion (original Wu–Gajski) vs the paper's
//!   append-only lower-cost variant;
//! * **A2** — FLB tie-breaking: static bottom level (paper) vs task-id
//!   FIFO; and LLB candidate priority: greatest vs least bottom level (the
//!   wording ambiguity of §3.3);
//! * **A3** — cost distribution: uniform (`CV ≈ 0.58`) vs exponential
//!   (`CV = 1`, the literal "unit coefficient of variation").
//!
//! Run: `cargo run -p flb-bench --release --bin ablations [--quick]`

use flb_baselines::{DscLlb, LlbPriority, Mcp, McpTieBreak};
use flb_bench::report::{fmt_ratio, table};
use flb_bench::suite_from_args;
use flb_graph::costs::Dist;
use flb_kernel::FlbKernel;
use flb_sched::{Machine, Scheduler, TieBreak};
use flb_workloads::stats::geo_mean;
use flb_workloads::{SuiteSpec, Workload};

/// Geometric-mean makespan ratio of `b` vs `a` over the suite (`< 1` means
/// `b` is better).
fn ratio(suite: &[Workload], procs: &[usize], a: &dyn Scheduler, b: &dyn Scheduler) -> f64 {
    let mut ratios = Vec::new();
    for w in suite {
        for &p in procs {
            let m = Machine::new(p);
            let sa = a.schedule(&w.graph, &m).makespan() as f64;
            let sb = b.schedule(&w.graph, &m).makespan() as f64;
            ratios.push(sb / sa);
        }
    }
    geo_mean(&ratios)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (spec, quick) = suite_from_args(&args);
    let suite = spec.generate();
    let procs: &[usize] = if quick { &[2, 8] } else { &[2, 8, 32] };
    println!(
        "Ablations ({} workloads, V ~ {}, P in {procs:?})\n",
        suite.len(),
        spec.target_tasks
    );

    let mut rows = Vec::new();

    // A1: MCP insertion.
    let mcp_plain = Mcp {
        tie_break: McpTieBreak::TaskId,
        insertion: false,
    };
    let mcp_ins = Mcp {
        tie_break: McpTieBreak::TaskId,
        insertion: true,
    };
    rows.push(vec![
        "A1".into(),
        "MCP insertion vs append".into(),
        fmt_ratio(ratio(&suite, procs, &mcp_plain, &mcp_ins)),
    ]);

    // A2a: FLB tie-break.
    rows.push(vec![
        "A2a".into(),
        "FLB tie-break FIFO vs bottom-level".into(),
        fmt_ratio(ratio(
            &suite,
            procs,
            &FlbKernel::new(),
            &FlbKernel {
                tie_break: TieBreak::TaskId,
            },
        )),
    ]);

    // A2b: LLB candidate priority.
    rows.push(vec![
        "A2b".into(),
        "LLB priority Least vs Greatest".into(),
        fmt_ratio(ratio(
            &suite,
            procs,
            &DscLlb::with_priority(LlbPriority::Greatest),
            &DscLlb::with_priority(LlbPriority::Least),
        )),
    ]);

    // A3: exponential (CV = 1) vs uniform costs, same topologies and seeds.
    let mut exp_spec = SuiteSpec { ..spec.clone() };
    exp_spec.comp_dist = Dist::Exponential(100);
    let exp_suite = exp_spec.generate();
    let flb = FlbKernel::new();
    let mut uni = Vec::new();
    let mut exp = Vec::new();
    for (wu, we) in suite.iter().zip(&exp_suite) {
        for &p in procs {
            let m = Machine::new(p);
            uni.push(flb.schedule(&wu.graph, &m).makespan() as f64 / wu.graph.total_comp() as f64);
            exp.push(flb.schedule(&we.graph, &m).makespan() as f64 / we.graph.total_comp() as f64);
        }
    }
    rows.push(vec![
        "A3".into(),
        "FLB norm. makespan: exponential vs uniform costs".into(),
        fmt_ratio(geo_mean(&exp) / geo_mean(&uni)),
    ]);

    println!(
        "{}",
        table(
            &[
                "id".into(),
                "ablation".into(),
                "ratio (variant/baseline)".into()
            ],
            &rows
        )
    );
    println!("ratio < 1.00: the variant produces shorter schedules; > 1.00: longer.");
}
