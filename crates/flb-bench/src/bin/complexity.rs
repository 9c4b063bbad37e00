//! Experiment X3 (extension): empirical complexity scaling.
//!
//! The paper's headline is asymptotic: FLB runs in
//! `O(V (log W + log P) + E)` versus ETF's `O(W (E + V) P)`. This harness
//! measures both claims directly:
//!
//! 1. **V-scaling** — scheduling time and per-task time as the graph grows
//!    at fixed `P`: FLB's per-task time should stay near-constant (linear
//!    total), ETF's should grow with `V` (its `W` grows with the LU size);
//! 2. **P-scaling** — time vs processor count at fixed `V`: ETF grows
//!    linearly in `P`, FLB logarithmically (near-flat);
//! 3. **operation counts** — FLB's internal list operations per task
//!    (selections, promotions, demotions) are `O(1)` amortised, measured
//!    via `flb_sched::RunStats`.
//!
//! FLB runs on `flb-kernel`, the engine behind `AlgorithmId::Flb`.
//!
//! Run: `cargo run -p flb-bench --release --bin complexity [--quick]`

use flb_baselines::{Etf, Fcp, Mcp};
use flb_bench::mem::{fmt_peak_rss, peak_rss_kb};
use flb_bench::report::{fmt_seconds, table};
use flb_graph::costs::CostModel;
use flb_graph::gen::Family;
use flb_kernel::{FlbKernel, KernelRun};
use flb_sched::{Machine, Scheduler, TieBreak};
use std::time::Instant;

fn time_it(f: impl FnOnce() -> u64) -> (f64, u64) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[250, 500, 1000]
    } else {
        &[500, 1000, 2000, 4000, 8000, 16000]
    };
    let p_fixed = 8usize;

    println!("X3.1: scheduling time vs V (LU family, CCR 1.0, P = {p_fixed})\n");
    let mut rows = Vec::new();
    for &v in sizes {
        let g = CostModel::paper_default(1.0).apply(&Family::Lu.topology(v), 5);
        let machine = Machine::new(p_fixed);
        let (t_flb, _) = time_it(|| FlbKernel::new().schedule(&g, &machine).makespan());
        let (t_fcp, _) = time_it(|| Fcp.schedule(&g, &machine).makespan());
        let (t_mcp, _) = time_it(|| Mcp::default().schedule(&g, &machine).makespan());
        // ETF becomes painful beyond a few thousand tasks; cap it.
        let t_etf = if g.num_tasks() <= 4200 {
            Some(time_it(|| Etf.schedule(&g, &machine).makespan()).0)
        } else {
            None
        };
        rows.push(vec![
            g.num_tasks().to_string(),
            fmt_seconds(t_flb),
            format!("{:.0} ns", t_flb * 1e9 / g.num_tasks() as f64),
            fmt_seconds(t_fcp),
            fmt_seconds(t_mcp),
            t_etf.map_or("-".into(), fmt_seconds),
            t_etf.map_or("-".into(), |t| {
                format!("{:.0} ns", t * 1e9 / g.num_tasks() as f64)
            }),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "V".into(),
                "FLB".into(),
                "FLB/task".into(),
                "FCP".into(),
                "MCP".into(),
                "ETF".into(),
                "ETF/task".into(),
            ],
            &rows
        )
    );

    println!("X3.2: scheduling time vs P (LU, V ~ 2000)\n");
    let g = CostModel::paper_default(1.0).apply(&Family::Lu.topology(2000), 5);
    let p_list: &[usize] = if quick {
        &[2, 8, 32]
    } else {
        &[2, 8, 32, 128, 512]
    };
    let mut rows = Vec::new();
    for &p in p_list {
        let machine = Machine::new(p);
        let (t_flb, _) = time_it(|| FlbKernel::new().schedule(&g, &machine).makespan());
        let (t_mcp, _) = time_it(|| Mcp::default().schedule(&g, &machine).makespan());
        let (t_etf, _) = time_it(|| Etf.schedule(&g, &machine).makespan());
        rows.push(vec![
            p.to_string(),
            fmt_seconds(t_flb),
            fmt_seconds(t_mcp),
            fmt_seconds(t_etf),
        ]);
    }
    println!(
        "{}",
        table(
            &["P".into(), "FLB".into(), "MCP".into(), "ETF".into()],
            &rows
        )
    );

    println!("X3.3: FLB list operations per task (amortised O(1))\n");
    let mut rows = Vec::new();
    for &v in sizes {
        for fam in [Family::Lu, Family::Stencil] {
            let g = CostModel::paper_default(1.0).apply(&fam.topology(v), 5);
            let mut run = KernelRun::new(&g, &vec![1; p_fixed], TieBreak::BottomLevel);
            run.run();
            let st = run.stats();
            rows.push(vec![
                fam.name().to_string(),
                g.num_tasks().to_string(),
                format!("{:.3}", st.list_insertions() as f64 / g.num_tasks() as f64),
                format!("{:.3}", st.demotions as f64 / g.num_tasks() as f64),
                st.max_ready.to_string(),
                format!("{:.2}", st.ep_selections as f64 / g.num_tasks() as f64),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &[
                "family".into(),
                "V".into(),
                "insert/task".into(),
                "demote/task".into(),
                "max ready".into(),
                "EP-pick rate".into(),
            ],
            &rows
        )
    );
    println!(
        "insert/task stays O(1) and max ready tracks the graph width, independent of V's growth —"
    );
    println!("the measured basis of the O(V (log W + log P) + E) bound.");
    println!("\npeak RSS: {}", fmt_peak_rss(peak_rss_kb()));
}
