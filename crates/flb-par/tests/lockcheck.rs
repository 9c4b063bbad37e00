//! Dynamic lock-discipline tests for the shard inboxes.
//!
//! All cross-shard mailboxes share the single named lock class
//! `"flb-par.inbox"` (see `flb-par::shared`), and the crate's lock
//! discipline is *never hold two inboxes at once*: routing pushes into
//! exactly one inbox, draining swaps exactly one inbox's buffer. The
//! vendored `parking_lot` stub's `lockcheck` feature (enabled for all
//! flb-par test builds through dev-dependency feature unification)
//! panics on any same-thread re-entry of a held class, so simply
//! running both execution modes with real routing traffic under the
//! checker proves the discipline holds on every exercised path — and a
//! deliberate double-acquisition proves the checker is actually armed.

use flb_graph::costs::{CostModel, Dist};
use flb_graph::gen::RandomLayeredSpec;
use flb_par::shard::Shard;
use flb_par::shared::{Shared, StealCommit};
use flb_par::threads::run_threads;
use flb_par::{run_flat, ParOptions};
use flb_workloads::million::random_layered_flat;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn routed_graph(seed: u64) -> flb_kernel::FlatGraph {
    let spec = RandomLayeredSpec {
        tasks: 300,
        layers: 12,
        edge_prob: 0.25,
        max_skip: 2,
    };
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: 1.0,
    };
    random_layered_flat(&spec, &model, seed)
}

/// Virtual mode under lockcheck, with the assertion that inbox traffic
/// actually flowed (otherwise the discipline was never exercised).
#[test]
fn virtual_mode_routes_mail_clean_under_lockcheck() {
    let g = routed_graph(11);
    let slow = vec![1u64; 4];
    let run = run_flat(&g, &slow, &ParOptions::deterministic(4, 7));
    assert!(run.report.exactly_once());
    assert!(
        run.report.totals.routed_out > 0,
        "no cross-shard routing: the inbox locks were never taken"
    );
}

/// OS-thread mode: four workers hammering the inboxes concurrently must
/// stay clean under the checker (a re-entry would panic the worker,
/// which `run_threads` surfaces as a propagated panic).
///
/// Whether OS-thread workers route mail to each other depends on timing:
/// one worker can place every task before the others start. So the run
/// is built to need the inboxes: every entry task is mailed to another
/// shard's inbox instead of seeded on a deque, and no task can be placed
/// until a worker thread takes an inbox lock to drain one.
#[test]
fn os_thread_mode_routes_mail_clean_under_lockcheck() {
    let g = routed_graph(12);
    let slow = vec![1u64; 4];
    let sh = Shared::new(&g, &slow, 4);
    let mut mailed = 0;
    for (s, deque) in sh.deques.iter().enumerate() {
        while let Some(t) = deque.take_top() {
            sh.push_inbox((s + 1) % sh.num_shards(), t);
            mailed += 1;
        }
    }
    assert!(mailed > 0, "the graph has entry tasks");
    let mut shards: Vec<Shard> = (0..sh.num_shards())
        .map(|i| Shard::new(&sh, i, 7, StealCommit::Cas))
        .collect();
    let report = run_threads(&sh, &mut shards);
    assert!(report.exactly_once());
    assert!(
        report.totals.inbox_received >= mailed,
        "workers drained {} of {mailed} mailed tasks",
        report.totals.inbox_received
    );
}

/// The checker is armed for the real class: holding one
/// `"flb-par.inbox"` lock while acquiring another (the exact bug the
/// discipline forbids — e.g. a future "drain while routing" shortcut)
/// must panic with the self-deadlock diagnostic, not proceed.
#[test]
fn holding_two_inboxes_at_once_is_caught() {
    let a = Mutex::named("flb-par.inbox", Vec::<u32>::new());
    let b = Mutex::named("flb-par.inbox", Vec::<u32>::new());
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ga = a.lock();
        let _gb = b.lock();
    }))
    .expect_err("same-class re-entry must panic under lockcheck");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("flb-par.inbox"),
        "panic must name the inbox class, got: {msg}"
    );
}
