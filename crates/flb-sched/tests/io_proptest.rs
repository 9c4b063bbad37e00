//! Property tests for schedule/graph (de)serialisation: every codec in
//! `flb_sched::io` must round-trip arbitrary valid values to identity, and
//! the binary wire codec must never panic on corrupted bytes.

use flb_graph::{TaskGraph, TaskGraphBuilder, TaskId};
use flb_sched::io::{self, wire, ScheduleData};
use flb_sched::{Machine, Placement, ProcId, Schedule};
use proptest::prelude::*;

/// An arbitrary machine: 1–6 processors with slowdowns in 1..=8.
fn machine_strategy() -> impl Strategy<Value = Machine> {
    proptest::collection::vec(1u64..=8, 1..=6).prop_map(Machine::related)
}

/// An arbitrary (not necessarily precedence-feasible) schedule: the codecs
/// only promise to preserve placements, not to validate them against a
/// graph, so any `start <= finish` placement on a declared processor is a
/// legal document.
fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (machine_strategy(), 0usize..40).prop_flat_map(|(machine, tasks)| {
        let procs = machine.num_procs();
        proptest::collection::vec((0..procs, 0u64..10_000, 0u64..500), tasks).prop_map(
            move |triples| {
                let placements = triples
                    .into_iter()
                    .map(|(proc, start, dur)| Placement {
                        proc: ProcId(proc),
                        start,
                        finish: start + dur,
                    })
                    .collect();
                Schedule::from_raw_on(machine.clone(), placements)
            },
        )
    })
}

/// An arbitrary DAG: edges only ever point from a lower to a higher task
/// id, so any generated edge set is acyclic by construction.
fn graph_strategy() -> impl Strategy<Value = TaskGraph> {
    (2usize..30).prop_flat_map(|n| {
        let comps = proptest::collection::vec(0u64..1_000, n);
        let edges = proptest::collection::vec((0usize..n, 0usize..n, 0u64..200), 0..60);
        (comps, edges).prop_map(|(comps, edges)| {
            let mut b = TaskGraphBuilder::new();
            let ids: Vec<TaskId> = comps.into_iter().map(|c| b.add_task(c)).collect();
            let mut seen = std::collections::HashSet::new();
            for (a, z, comm) in edges {
                let (a, z) = (a.min(z), a.max(z));
                if a != z && seen.insert((a, z)) {
                    b.add_edge(ids[a], ids[z], comm).expect("fresh edge");
                }
            }
            b.build().expect("low-to-high edges are acyclic")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn text_roundtrip_is_identity(s in schedule_strategy()) {
        let parsed = io::parse_text(&io::to_text(&s)).expect("parse own output");
        prop_assert_eq!(parsed, s);
    }

    #[test]
    fn schedule_data_roundtrip_is_identity(s in schedule_strategy()) {
        let back = Schedule::from(ScheduleData::from(&s));
        prop_assert_eq!(back, s);
    }

    #[test]
    fn wire_schedule_roundtrip_is_identity(s in schedule_strategy()) {
        let bytes = wire::encode_schedule(&s);
        let back = wire::decode_schedule(&bytes).expect("decode own output");
        prop_assert_eq!(back, s);
    }

    #[test]
    fn wire_graph_roundtrip_is_identity(g in graph_strategy()) {
        let bytes = wire::encode_graph(&g);
        let back = wire::decode_graph(&bytes).expect("decode own output");
        prop_assert_eq!(back.name(), g.name());
        prop_assert_eq!(back.num_tasks(), g.num_tasks());
        prop_assert_eq!(back.num_edges(), g.num_edges());
        for t in g.tasks() {
            prop_assert_eq!(back.comp(t), g.comp(t));
            prop_assert!(back.succs(t).eq(g.succs(t)));
        }
    }

    #[test]
    fn wire_decode_never_panics_on_corruption(
        s in schedule_strategy(),
        cut in 0usize..4096,
        flip in 0usize..4096,
        xor in 1u8..=255,
    ) {
        // Truncations error cleanly...
        let bytes = wire::encode_schedule(&s);
        let cut = cut % bytes.len().max(1);
        prop_assert!(wire::decode_schedule(&bytes[..cut]).is_err());
        // ...and bit flips either error or decode to *some* schedule; the
        // decoder must never panic or loop.
        let mut mutated = bytes.clone();
        let at = flip % mutated.len();
        mutated[at] ^= xor;
        let _ = wire::decode_schedule(&mutated);
    }

    #[test]
    fn wire_graph_decode_never_panics_on_corruption(
        g in graph_strategy(),
        cut in 0usize..4096,
        flip in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let bytes = wire::encode_graph(&g);
        let cut = cut % bytes.len().max(1);
        prop_assert!(wire::decode_graph(&bytes[..cut]).is_err());
        let mut mutated = bytes.clone();
        let at = flip % mutated.len();
        mutated[at] ^= xor;
        let _ = wire::decode_graph(&mutated);
    }
}
