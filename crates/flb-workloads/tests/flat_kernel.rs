//! End-to-end check of the streaming path: graphs built by the flat
//! generators (identity topological order, emission-ordered CSR) scheduled
//! by the kernel must match the reference FLB run on the converted
//! `TaskGraph` exactly — placements, start times and makespan.

use flb_core::Flb;
use flb_graph::costs::{CostModel, Dist};
use flb_graph::gen::RandomLayeredSpec;
use flb_kernel::{FlatGraph, FlbKernel};
use flb_sched::{Machine, Scheduler};
use flb_workloads::million::{cholesky_flat, lu_flat, random_layered_flat};

fn assert_kernel_matches_reference(flat: &FlatGraph, machine: &Machine) {
    let kernel = FlbKernel::new().schedule_flat(flat, machine);
    let reference = Flb::default().schedule(&flat.to_task_graph(), machine);
    assert_eq!(kernel.placements(), reference.placements());
}

#[test]
fn lu_flat_schedules_match_reference() {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: 5.0,
    };
    let flat = lu_flat(25, &model, 1999);
    assert_kernel_matches_reference(&flat, &Machine::new(8));
}

#[test]
fn cholesky_flat_schedules_match_reference_on_related_machine() {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: 0.2,
    };
    let flat = cholesky_flat(12, &model, 7);
    assert_kernel_matches_reference(&flat, &Machine::related(vec![1, 2, 2, 3]));
}

#[test]
fn random_layered_flat_schedules_match_reference() {
    let model = CostModel {
        comp: Dist::Exponential(50),
        ccr: 1.0,
    };
    let spec = RandomLayeredSpec {
        tasks: 400,
        layers: 12,
        edge_prob: 0.1,
        max_skip: 2,
    };
    let flat = random_layered_flat(&spec, &model, 3);
    assert_kernel_matches_reference(&flat, &Machine::new(4));
}
