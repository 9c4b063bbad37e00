//! Criterion benches for the substrates: indexed-heap operations, graph
//! generation, level computation, width computation and the discrete-event
//! simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flb_ds::IndexedMinHeap;
use flb_graph::costs::CostModel;
use flb_graph::gen::Family;
use flb_graph::{levels, width};
use flb_kernel::FlbKernel;
use flb_sched::{Machine, Scheduler};
use std::hint::black_box;

fn heap_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("indexed_heap");
    for n in [64usize, 1024] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut h = IndexedMinHeap::new(n);
                for i in 0..n {
                    h.insert(i, (i as u64).wrapping_mul(2654435761) % 1000);
                }
                while let Some(x) = h.pop() {
                    black_box(x);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("update_churn", n), &n, |b, &n| {
            let mut h = IndexedMinHeap::new(n);
            for i in 0..n {
                h.insert(i, i as u64);
            }
            b.iter(|| {
                for i in 0..n {
                    h.update(i, ((i as u64) * 48271) % 4096);
                }
                black_box(h.peek());
            });
        });
    }
    group.finish();
}

fn graph_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    group.sample_size(10);
    group.bench_function("generate_lu_2000", |b| {
        b.iter(|| black_box(Family::Lu.topology(2000).num_tasks()));
    });
    let g = CostModel::paper_default(1.0).apply(&Family::Lu.topology(2000), 1);
    group.bench_function("bottom_levels_2000", |b| {
        b.iter(|| black_box(levels::bottom_levels(&g)));
    });
    group.bench_function("alap_2000", |b| {
        b.iter(|| black_box(levels::alap_times(&g)));
    });
    group.bench_function("width_exact_2000", |b| {
        b.iter(|| black_box(width::max_antichain(&g)));
    });
    group.bench_function("width_ready_2000", |b| {
        b.iter(|| black_box(width::max_ready_width(&g)));
    });
    group.finish();
}

fn simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    let g = CostModel::paper_default(1.0).apply(&Family::Stencil.topology(2000), 2);
    let s = FlbKernel::new().schedule(&g, &Machine::new(8));
    group.bench_function("replay_stencil_2000_p8", |b| {
        b.iter(|| black_box(flb_sim::simulate(&g, &s).expect("feasible").makespan));
    });
    group.finish();
}

criterion_group!(benches, heap_ops, graph_ops, simulator);
criterion_main!(benches);
