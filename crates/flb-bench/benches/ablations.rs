//! Criterion benches for the ablations' *cost* side: what MCP's insertion
//! machinery and FLB's tie-break bookkeeping cost in scheduling time (the
//! quality side is measured by `--bin ablations`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flb_baselines::{Mcp, McpTieBreak};
use flb_graph::costs::CostModel;
use flb_graph::gen::Family;
use flb_kernel::FlbKernel;
use flb_sched::{Machine, Scheduler, TieBreak};
use std::hint::black_box;

fn ablation_mcp_insertion(c: &mut Criterion) {
    let g = CostModel::paper_default(1.0).apply(&Family::Lu.topology(500), 3);
    let machine = Machine::new(8);
    let mut group = c.benchmark_group("ablation_mcp_insertion");
    group.sample_size(10);
    for (label, insertion) in [("append", false), ("insertion", true)] {
        let mcp = Mcp {
            tie_break: McpTieBreak::TaskId,
            insertion,
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &machine, |b, m| {
            b.iter(|| black_box(mcp.schedule(&g, m).makespan()));
        });
    }
    group.finish();
}

fn ablation_flb_tiebreak(c: &mut Criterion) {
    let g = CostModel::paper_default(1.0).apply(&Family::Stencil.topology(500), 4);
    let machine = Machine::new(8);
    let mut group = c.benchmark_group("ablation_flb_tiebreak");
    group.sample_size(10);
    for (label, tb) in [
        ("bottom_level", TieBreak::BottomLevel),
        ("fifo", TieBreak::TaskId),
    ] {
        let flb = FlbKernel { tie_break: tb };
        group.bench_with_input(BenchmarkId::from_parameter(label), &machine, |b, m| {
            b.iter(|| black_box(flb.schedule(&g, m).makespan()));
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_mcp_insertion, ablation_flb_tiebreak);
criterion_main!(benches);
