//! Differential oracles: two independent computations of the same quantity
//! must agree.
//!
//! * validity — every scheduler's output passes [`flb_sched::validate`];
//! * theorem3 — every step of [`FlbRun`] achieves the brute-force
//!   [`flb_core::oracle::min_est`] minimum (the paper's Theorem 3);
//! * greedy-oracle — a generic harness for externally supplied greedy
//!   pickers ([`GreedyPick`]), checked step-by-step against the same
//!   brute-force scan. [`check_greedy_oracle_self`] feeds it [`TwoPairPick`],
//!   an independent re-derivation of FLB's two-candidate rule from the
//!   public [`ScheduleBuilder`] quantities;
//! * sim-replay — the discrete-event simulator reproduces each scheduler's
//!   static times at the fidelity its [`registry`](crate::registry) entry
//!   promises, and accounts for every edge as a message or a local hand-off;
//! * bounds — every makespan sits between the computation-only critical
//!   path and the fully serialised worst case.

use crate::{registry, Instance, Violation};
use flb_core::oracle::min_est;
use flb_core::{FlbRun, TieBreak};
use flb_graph::{levels, TaskId};
use flb_sched::{validate, ProcId, ScheduleBuilder};
use flb_sim::simulate;

/// A greedy scheduler expressed as a per-step choice: given the current
/// partial schedule and the ready set, name the task–processor pair to
/// schedule next (it is placed at `EST(t, p)`).
///
/// The conformance harness drives implementations to completion and
/// compares every choice against the brute-force minimum-EST scan — the
/// differential form of the paper's Theorem 3. The injected-bug test uses
/// this to prove the shrinker works on a scheduler that skips the EP-pair
/// comparison.
pub trait GreedyPick {
    /// Chooses the next (task, processor) pair from a non-empty ready set.
    fn pick(&self, builder: &ScheduleBuilder<'_>, ready: &[TaskId]) -> (TaskId, ProcId);
}

/// FLB's two-candidate rule re-derived from first principles: for each
/// ready task consider only its enabling processor and the earliest-idle
/// processor, then take the overall minimum EST.
///
/// This is an independent implementation of the paper's §3 argument — for
/// any processor other than `EP(t)` the effective message arrival time
/// equals `LMT(t)`, so `EST(t, p) = max(LMT(t), PRT(p))` is minimised by
/// the earliest-idle processor — and the greedy-oracle check verifies it
/// against the exhaustive scan on every step.
pub struct TwoPairPick;

impl GreedyPick for TwoPairPick {
    fn pick(&self, builder: &ScheduleBuilder<'_>, ready: &[TaskId]) -> (TaskId, ProcId) {
        let idle = builder.earliest_idle_proc();
        let mut best: Option<(flb_graph::Time, TaskId, ProcId)> = None;
        for &t in ready {
            let mut consider = |p: ProcId| {
                let cand = (builder.est(t, p), t, p);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            };
            if let Some(ep) = builder.ep(t) {
                consider(ep);
            }
            consider(idle);
        }
        let (_, t, p) = best.expect("non-empty ready set");
        (t, p)
    }
}

/// Drives `picker` to a complete schedule, reporting a violation whenever a
/// chosen pair's EST exceeds the brute-force minimum over all ready
/// task–processor pairs, and a final one if the finished schedule is
/// invalid. `name` labels the violations.
#[must_use]
pub fn check_greedy_min_est(
    inst: &Instance,
    name: &str,
    picker: &dyn GreedyPick,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut builder = ScheduleBuilder::new(&inst.graph, &inst.machine);
    let mut step = 0usize;
    while !builder.is_complete() {
        let ready: Vec<TaskId> = inst
            .graph
            .tasks()
            .filter(|&t| builder.is_ready(t))
            .collect();
        let (_, _, oracle_est) =
            min_est(&builder, &ready).expect("incomplete schedule has ready tasks");
        let (t, p) = picker.pick(&builder, &ready);
        let est = builder.est(t, p);
        if est != oracle_est {
            out.push(Violation::new(
                "greedy-oracle",
                name,
                format!(
                    "step {step}: picked {t} on {p} starting {est}, \
                     but the exhaustive scan starts at {oracle_est} ({inst})"
                ),
            ));
            return out; // the run has already diverged; later steps are noise
        }
        builder.place(t, p, est);
        step += 1;
    }
    let schedule = builder.build();
    if let Err(e) = validate::validate(&inst.graph, &schedule) {
        out.push(Violation::new(
            "greedy-oracle",
            name,
            format!("completed schedule invalid: {e} ({inst})"),
        ));
    }
    out
}

/// Runs every registered scheduler and validates its output.
#[must_use]
pub fn check_validity(inst: &Instance) -> Vec<Violation> {
    let mut out = Vec::new();
    for entry in registry::all() {
        let s = entry.scheduler.schedule(&inst.graph, &inst.machine);
        if let Err(e) = validate::validate(&inst.graph, &s) {
            out.push(Violation::new(
                "validity",
                entry.name,
                format!("{e} ({inst})"),
            ));
        }
    }
    out
}

/// Steps [`FlbRun`] under both tie-break policies, asserting each step
/// starts at the brute-force minimum EST (Theorem 3), and that the
/// finished schedule validates.
#[must_use]
pub fn check_theorem3(inst: &Instance) -> Vec<Violation> {
    let mut out = Vec::new();
    for (label, tb) in [
        ("flb", TieBreak::BottomLevel),
        ("flb-fifo", TieBreak::TaskId),
    ] {
        let mut run = FlbRun::new(&inst.graph, &inst.machine, tb);
        let mut step = 0usize;
        // Reused across steps: the ready set is re-derived every decision,
        // so this loop would otherwise allocate O(V) vectors per instance.
        let mut ready = Vec::new();
        loop {
            run.ready_tasks_into(&mut ready);
            let oracle = min_est(run.builder(), &ready);
            let Some(s) = run.step() else {
                break;
            };
            let (_, _, oracle_est) = oracle.expect("step succeeded, ready set was non-empty");
            if s.start != oracle_est {
                out.push(Violation::new(
                    "theorem3",
                    label,
                    format!(
                        "step {step}: FLB starts {} on {} at {}, \
                         exhaustive scan starts at {oracle_est} ({inst})",
                        s.task, s.proc, s.start
                    ),
                ));
                break;
            }
            step += 1;
        }
        // A diverged run is still a complete valid schedule candidate only
        // when every task was placed; skip validation after a break above.
        if out.iter().all(|v| v.scheduler != label) {
            let schedule = run.finish();
            if let Err(e) = validate::validate(&inst.graph, &schedule) {
                out.push(Violation::new(
                    "theorem3",
                    label,
                    format!("completed schedule invalid: {e} ({inst})"),
                ));
            }
        }
    }
    out
}

/// Self-test of the greedy harness: [`TwoPairPick`] (the independent
/// two-candidate re-derivation) must match the exhaustive scan on every
/// step.
#[must_use]
pub fn check_greedy_oracle_self(inst: &Instance) -> Vec<Violation> {
    check_greedy_min_est(inst, "two-pair", &TwoPairPick)
}

/// Simulates every scheduler's output fault-free and checks the replay
/// fidelity its registry entry promises, plus edge accounting
/// (`messages + local_edges == |E|`).
#[must_use]
pub fn check_sim_replay(inst: &Instance) -> Vec<Violation> {
    let mut out = Vec::new();
    for entry in registry::all() {
        let s = entry.scheduler.schedule(&inst.graph, &inst.machine);
        if validate::validate(&inst.graph, &s).is_err() {
            continue; // reported by the validity check
        }
        let sim = match simulate(&inst.graph, &s) {
            Ok(r) => r,
            Err(e) => {
                out.push(Violation::new(
                    "sim-replay",
                    entry.name,
                    format!("valid schedule failed to simulate: {e} ({inst})"),
                ));
                continue;
            }
        };
        if sim.messages + sim.local_edges != inst.graph.num_edges() {
            out.push(Violation::new(
                "sim-replay",
                entry.name,
                format!(
                    "{} messages + {} local edges != {} graph edges ({inst})",
                    sim.messages,
                    sim.local_edges,
                    inst.graph.num_edges()
                ),
            ));
        }
        for t in inst.graph.tasks() {
            let (st, fi) = (s.start(t), s.finish(t));
            let (sst, sfi) = (sim.start[t.0], sim.finish[t.0]);
            let ok = match entry.replay {
                registry::Replay::Exact => sst == st && sfi == fi,
                registry::Replay::NoLater => sst <= st && sfi <= fi,
            };
            if !ok {
                out.push(Violation::new(
                    "sim-replay",
                    entry.name,
                    format!(
                        "{t} static [{st}, {fi}] vs simulated [{sst}, {sfi}] \
                         breaks {:?} replay ({inst})",
                        entry.replay
                    ),
                ));
                break; // one task is enough per scheduler
            }
        }
        let span_ok = match entry.replay {
            registry::Replay::Exact => sim.makespan == s.makespan(),
            registry::Replay::NoLater => sim.makespan <= s.makespan(),
        };
        if !span_ok {
            out.push(Violation::new(
                "sim-replay",
                entry.name,
                format!(
                    "simulated makespan {} vs static {} breaks {:?} replay ({inst})",
                    sim.makespan,
                    s.makespan(),
                    entry.replay
                ),
            ));
        }
    }
    out
}

/// Sandwiches every scheduler's makespan between the computation-only
/// critical path (scaled by the fastest processor) and the fully
/// serialised worst case (slowest processor plus every message).
///
/// The upper bound holds for any scheduler that never delays a task past
/// its earliest start on the chosen processor: walking back from the
/// finish, every instant is covered by a distinct task execution or a
/// distinct message, charged once each.
#[must_use]
pub fn check_bounds(inst: &Instance) -> Vec<Violation> {
    let g = &inst.graph;
    let m = &inst.machine;
    let min_slow = m.min_slowdown();
    let max_slow = (0..m.num_procs())
        .map(|p| m.slowdown(ProcId(p)))
        .max()
        .expect("machine has processors");
    let lower = levels::critical_path_comp_only(g) * min_slow;
    let upper = g.total_comp() * max_slow + g.total_comm();
    let mut out = Vec::new();
    for entry in registry::all() {
        let s = entry.scheduler.schedule(&inst.graph, &inst.machine);
        let span = s.makespan();
        if span < lower || span > upper {
            out.push(Violation::new(
                "bounds",
                entry.name,
                format!("makespan {span} outside [{lower}, {upper}] ({inst})"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;
    use flb_sched::Machine;

    fn fig1_inst() -> Instance {
        Instance::new(fig1(), Machine::new(2))
    }

    #[test]
    fn fig1_passes_all_differential_checks() {
        let inst = fig1_inst();
        assert_eq!(check_validity(&inst), vec![]);
        assert_eq!(check_theorem3(&inst), vec![]);
        assert_eq!(check_greedy_oracle_self(&inst), vec![]);
        assert_eq!(check_sim_replay(&inst), vec![]);
        assert_eq!(check_bounds(&inst), vec![]);
    }

    #[test]
    fn greedy_harness_flags_a_worst_pick() {
        // A picker that always chooses the ready task/processor pair with
        // the *largest* EST must diverge from the oracle on fig. 1.
        struct WorstPick;
        impl GreedyPick for WorstPick {
            fn pick(&self, b: &ScheduleBuilder<'_>, ready: &[TaskId]) -> (TaskId, ProcId) {
                let mut worst = None;
                for &t in ready {
                    for p in 0..b.num_procs() {
                        let p = ProcId(p);
                        let cand = (b.est(t, p), t, p);
                        if worst.is_none_or(|w| cand > w) {
                            worst = Some(cand);
                        }
                    }
                }
                let (_, t, p) = worst.expect("non-empty ready set");
                (t, p)
            }
        }
        let inst = fig1_inst();
        let v = check_greedy_min_est(&inst, "worst", &WorstPick);
        assert_eq!(v.len(), 1, "worst-EST picker should trip the oracle");
        assert_eq!(v[0].check, "greedy-oracle");
        assert_eq!(v[0].scheduler, "worst");
    }
}
