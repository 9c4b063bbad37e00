//! The schedulers under test.
//!
//! Every algorithm the workspace ships is registered here with the replay
//! fidelity the discrete-event simulator owes it: append-style list
//! schedulers (every task lands after everything already on its processor)
//! replay *exactly*; insertion schedulers (idle-slot backfilling) may only
//! replay equal-or-earlier, because the simulator is eager given the fixed
//! per-processor order.
//!
//! The wire algorithms come from [`AlgorithmId`], the workspace's one
//! scheduler registry. Only the `FlbRun` references (`flb`, `flb-fifo`)
//! are written out here.

use flb_core::{AlgorithmId, Flb, TieBreak};
use flb_sched::Scheduler;

/// How faithfully the simulator must reproduce a scheduler's static times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replay {
    /// Simulated start/finish times equal the static ones for every task.
    Exact,
    /// Simulated times are never later than the static ones (insertion
    /// schedules: the simulator is work-conserving given the fixed order).
    NoLater,
}

/// One registered scheduler.
pub struct Entry {
    /// Stable name, as corpus files spell it. Of these, `flb schedule
    /// --alg` accepts only the [`AlgorithmId`] names (plus its own
    /// `runtime-*` dispatchers), not `flb-kernel` or `flb-fifo`.
    pub name: &'static str,
    /// The algorithm.
    pub scheduler: Box<dyn Scheduler>,
    /// Replay fidelity class.
    pub replay: Replay,
}

/// All eleven registered schedulers, in comparison order.
#[must_use]
pub fn all() -> Vec<Entry> {
    fn e(name: &'static str, scheduler: Box<dyn Scheduler>, replay: Replay) -> Entry {
        Entry {
            name,
            scheduler,
            replay,
        }
    }
    // `flb` names the `FlbRun` reference, so the wire algorithm's engine,
    // the kernel, is registered as `flb-kernel`: it must be
    // indistinguishable from the reference under every differential and
    // metamorphic oracle, and the sim-replay check holds it to exact times.
    let [kernel, baselines @ ..] = AlgorithmId::ALL.map(|alg| {
        let name = match alg {
            AlgorithmId::Flb => "flb-kernel",
            _ => alg.name(),
        };
        let replay = match alg {
            AlgorithmId::McpInsertion | AlgorithmId::Heft => Replay::NoLater,
            _ => Replay::Exact,
        };
        e(name, alg.scheduler(), replay)
    });
    let mut entries = vec![
        e("flb", Box::new(Flb::default()), Replay::Exact),
        e(
            "flb-fifo",
            Box::new(Flb::with_tie_break(TieBreak::TaskId)),
            Replay::Exact,
        ),
        kernel,
    ];
    entries.extend(baselines);
    entries
}

/// Looks a registered scheduler up by its stable name.
#[must_use]
pub fn by_name(name: &str) -> Option<Entry> {
    all().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_eleven_schedulers_with_unique_names() {
        let entries = all();
        assert_eq!(entries.len(), 11);
        let mut names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "duplicate registry names");
    }

    /// The kernel, registered and behind the wire id, and the reference
    /// produce identical schedules (the fuzz suite enforces this across
    /// many instances; this pins the wiring).
    #[test]
    fn kernel_is_registered_and_matches_flb() {
        let g = flb_graph::paper::fig1();
        let m = flb_sched::Machine::new(2);
        let kernel = by_name("flb-kernel").expect("kernel registered");
        let reference = by_name("flb").expect("reference registered");
        assert_eq!(kernel.replay, Replay::Exact);
        let expected = reference.scheduler.schedule(&g, &m);
        for s in [kernel.scheduler, AlgorithmId::Flb.scheduler()] {
            assert_eq!(s.schedule(&g, &m).placements(), expected.placements());
        }
    }

    #[test]
    fn relaxed_schedulers_are_no_later() {
        // Insertion schedulers backfill idle slots, so they replay
        // equal-or-earlier.
        for e in all() {
            let expect = matches!(e.name, "mcp-ins" | "heft");
            assert_eq!(e.replay == Replay::NoLater, expect, "{}", e.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("flb").is_some());
        assert!(by_name("dsc-llb").is_some());
        assert!(by_name("nope").is_none());
    }
}
