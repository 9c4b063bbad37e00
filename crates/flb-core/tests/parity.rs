//! Bit-identity: the kernel makes exactly the reference's decisions.
//!
//! `flb_kernel::KernelRun` and `flb_core::FlbRun` are stepped in lockstep
//! over random graphs (all generator families, random costs, relabeled
//! ids), machine sizes (homogeneous and related), and both tie-break rules;
//! every step must agree on `(task, proc, start, finish, from_ep_list)` and
//! the final run counters must be equal.

use flb_core::{Flb, FlbRun, TieBreak};
use flb_graph::costs::CostModel;
use flb_graph::gen::{self, RandomLayeredSpec};
use flb_graph::{TaskGraph, TaskId};
use flb_kernel::{FlbKernel, KernelRun};
use flb_sched::{validate::validate, Machine, Scheduler};
use proptest::prelude::*;

#[test]
fn kernel_schedule_is_valid_and_matches_reference() {
    let (g, m) = (flb_graph::paper::fig1(), Machine::new(2));
    let ours = FlbKernel::new().schedule(&g, &m);
    assert_eq!(validate(&g, &ours), Ok(()));
    assert_eq!(
        ours.placements(),
        Flb::default().schedule(&g, &m).placements()
    );
    assert_eq!(ours.makespan(), 14);
}

fn arb_topology() -> impl Strategy<Value = TaskGraph> {
    prop_oneof![
        (1usize..10).prop_map(gen::chain),
        (1usize..12).prop_map(gen::independent),
        (1usize..6, 1usize..4).prop_map(|(w, s)| gen::fork_join(w, s)),
        (2usize..12).prop_map(gen::lu),
        (1usize..6).prop_map(gen::laplace),
        (2usize..7).prop_map(gen::cholesky),
        (1usize..5, 1usize..5).prop_map(|(p, s)| gen::stencil(p, s)),
        (10usize..50, 2usize..5, any::<u64>()).prop_map(|(v, l, seed)| {
            gen::random_layered(
                &RandomLayeredSpec {
                    tasks: v,
                    layers: l,
                    edge_prob: 0.3,
                    max_skip: 2,
                },
                seed,
            )
        }),
        (2usize..25, any::<u64>()).prop_map(|(v, seed)| gen::random_dag(v, 0.3, seed)),
    ]
}

/// Topology, optionally re-weighted and optionally relabeled so the flat
/// conversion sees non-identity topological orders too.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (arb_topology(), any::<u64>(), 0u8..4).prop_map(|(topo, seed, mode)| {
        let g = match mode {
            0 => topo,
            1 => CostModel::paper_default(0.2).apply(&topo, seed),
            _ => CostModel::paper_default(5.0).apply(&topo, seed),
        };
        if mode == 3 {
            // A fixed-point-free-ish bijection: reverse the id space.
            let n = g.num_tasks();
            let perm: Vec<TaskId> = (0..n).map(|i| TaskId(n - 1 - i)).collect();
            flb_graph::transform::permute(&g, &perm)
        } else {
            g
        }
    })
}

fn arb_machine() -> impl Strategy<Value = Machine> {
    prop_oneof![
        (1usize..9).prop_map(Machine::new),
        proptest::collection::vec(1u64..4, 1..6).prop_map(Machine::related),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn kernel_steps_are_bit_identical_to_reference(
        g in arb_graph(),
        m in arb_machine(),
        fifo in proptest::strategy::any::<bool>(),
    ) {
        let tie = if fifo { TieBreak::TaskId } else { TieBreak::BottomLevel };
        let slow: Vec<u64> = (0..m.num_procs())
            .map(|p| m.slowdown(flb_sched::ProcId(p)))
            .collect();
        let mut reference = FlbRun::new(&g, &m, tie);
        let mut kernel = KernelRun::new(&g, &slow, tie);
        let mut steps = 0usize;
        loop {
            match (reference.step(), kernel.step()) {
                (None, None) => break,
                (r, k) => {
                    let r = r.unwrap_or_else(|| panic!("reference ended early at step {steps}"));
                    let k = k.unwrap_or_else(|| panic!("kernel ended early at step {steps}"));
                    prop_assert_eq!(
                        (r.task.0, r.proc.0, r.start, r.finish, r.from_ep_list),
                        (k.task as usize, k.proc as usize, k.start, k.finish, k.from_ep_list),
                        "step {} diverged", steps
                    );
                }
            }
            steps += 1;
        }
        prop_assert_eq!(steps, g.num_tasks());
        prop_assert_eq!(reference.stats(), kernel.stats());
        prop_assert_eq!(reference.finish().makespan(), kernel.makespan());
    }
}
