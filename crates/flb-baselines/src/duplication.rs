//! Task-duplication scheduling — the third class of the paper's §1
//! taxonomy (DSH [4], BTDH [2], CPFD [1]).
//!
//! Duplication-based algorithms may run a task on *several* processors so
//! that consumers find its output locally instead of waiting for a
//! message; the paper cites them as the better-schedules/higher-cost
//! class it deliberately does not compete with. To make that trade-off
//! measurable in this repository, this module provides:
//!
//! * [`DupSchedule`] — a schedule in which every task has one or more
//!   placements, with its own independent validator ([`validate_dup`]):
//!   instances on one processor must not overlap, and every instance must
//!   receive each input from *some* instance of the predecessor (local
//!   copies at zero cost);
//! * [`Cpd`] — a DSH-style *critical-parent duplication* list scheduler:
//!   tasks are placed in descending static bottom-level order on the
//!   processor minimising their start time, and before committing, the
//!   chain of critical parents (the predecessor whose message arrives
//!   last) is greedily duplicated onto the target processor while doing so
//!   strictly lowers the start time. This is the simplest member of the
//!   class — one duplication chain, append-only timelines — documented as
//!   such; it already exhibits the class's signature behaviour (beats
//!   non-duplicating schedulers on high-CCR fork-dominated graphs, at a
//!   higher scheduling cost and extra work executed).

use flb_graph::levels::bottom_levels;
use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{Machine, Placement, ProcId};
use std::cmp::Reverse;
use std::fmt;

/// A schedule allowing multiple placements (instances) per task.
#[derive(Clone, Debug)]
pub struct DupSchedule {
    machine: Machine,
    /// `instances[t]` — all placements of task `t`, in creation order.
    instances: Vec<Vec<Placement>>,
}

impl DupSchedule {
    /// Number of processors.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.machine.num_procs()
    }

    /// The machine this schedule targets.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The slowdown factor of `p` (1 on homogeneous machines).
    #[must_use]
    pub fn slowdown_of(&self, p: ProcId) -> flb_graph::Time {
        self.machine.slowdown(p)
    }

    /// All instances of `t`.
    #[must_use]
    pub fn instances(&self, t: TaskId) -> &[Placement] {
        &self.instances[t.0]
    }

    /// Total number of placed instances (≥ number of tasks; the excess is
    /// the duplication overhead).
    #[must_use]
    pub fn total_instances(&self) -> usize {
        self.instances.iter().map(Vec::len).sum()
    }

    /// Schedule length: the latest finish over all instances.
    #[must_use]
    pub fn makespan(&self) -> Time {
        self.instances
            .iter()
            .flatten()
            .map(|p| p.finish)
            .max()
            .unwrap_or(0)
    }

    /// Earliest finish time of any instance of `t` (the time its result
    /// first exists anywhere).
    #[must_use]
    pub fn earliest_finish(&self, t: TaskId) -> Time {
        self.instances[t.0]
            .iter()
            .map(|p| p.finish)
            .min()
            .expect("every task has at least one instance")
    }

    /// Extra computation executed because of duplication, as a fraction of
    /// the graph's total computation (instance counts; speeds aside).
    #[must_use]
    pub fn duplication_overhead(&self, g: &TaskGraph) -> f64 {
        let executed: Time = g
            .tasks()
            .map(|t| g.comp(t) * self.instances[t.0].len() as Time)
            .sum();
        executed as f64 / g.total_comp() as f64 - 1.0
    }
}

/// A violation found by [`validate_dup`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DupError {
    /// A task has no instance at all.
    Unplaced(TaskId),
    /// Two instances overlap on one processor.
    Overlap(ProcId),
    /// An instance starts before one of its inputs can possibly arrive.
    Precedence {
        /// The consuming task.
        task: TaskId,
        /// The predecessor whose data is late.
        pred: TaskId,
        /// Earliest possible arrival over all of `pred`'s instances.
        required: Time,
        /// The instance's start.
        actual: Time,
    },
    /// `finish != start + comp` on some instance.
    BadDuration(TaskId),
}

impl fmt::Display for DupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DupError::Unplaced(t) => write!(f, "task {t} has no instance"),
            DupError::Overlap(p) => write!(f, "instances overlap on {p}"),
            DupError::Precedence {
                task,
                pred,
                required,
                actual,
            } => write!(
                f,
                "instance of {task} starts at {actual}, before {pred}'s data can arrive at {required}"
            ),
            DupError::BadDuration(t) => write!(f, "instance of {t}: finish != start + comp"),
        }
    }
}

impl std::error::Error for DupError {}

/// Validates a duplication schedule from first principles.
pub fn validate_dup(g: &TaskGraph, s: &DupSchedule) -> Result<(), DupError> {
    // Coverage and durations.
    for t in g.tasks() {
        if s.instances(t).is_empty() {
            return Err(DupError::Unplaced(t));
        }
        for inst in s.instances(t) {
            if inst.finish != inst.start + g.comp(t) * s.slowdown_of(inst.proc) {
                return Err(DupError::BadDuration(t));
            }
        }
    }
    // Exclusivity per processor.
    for p in 0..s.num_procs() {
        let mut intervals: Vec<(Time, Time)> = g
            .tasks()
            .flat_map(|t| s.instances(t))
            .filter(|i| i.proc.0 == p)
            .map(|i| (i.start, i.finish))
            .collect();
        intervals.sort_unstable();
        if intervals.windows(2).any(|w| w[0].1 > w[1].0) {
            return Err(DupError::Overlap(ProcId(p)));
        }
    }
    // Precedence: each instance of t, for each pred, must start no earlier
    // than the cheapest arrival over the pred's instances.
    for t in g.tasks() {
        for inst in s.instances(t) {
            for (pred, comm) in g.preds(t) {
                let required = s
                    .instances(pred)
                    .iter()
                    .map(|pi| {
                        if pi.proc == inst.proc {
                            pi.finish
                        } else {
                            pi.finish + comm
                        }
                    })
                    .min()
                    .expect("pred has instances");
                if inst.start < required {
                    return Err(DupError::Precedence {
                        task: t,
                        pred,
                        required,
                        actual: inst.start,
                    });
                }
            }
        }
    }
    Ok(())
}

/// The critical-parent duplication scheduler (DSH-style, simplified).
#[derive(Clone, Copy, Debug, Default)]
pub struct Cpd {
    /// Maximum length of the duplicated parent chain per placement
    /// (0 disables duplication, reducing Cpd to HLFET; default 8).
    pub max_chain: usize,
}

impl Cpd {
    /// Default configuration (duplication chains up to 8 parents).
    #[must_use]
    pub fn new() -> Self {
        Cpd { max_chain: 8 }
    }

    /// Schedules `g` on `machine`, returning a duplication schedule.
    #[must_use]
    pub fn schedule_dup(&self, g: &TaskGraph, machine: &Machine) -> DupSchedule {
        let v = g.num_tasks();
        let procs = machine.num_procs();
        let bl = bottom_levels(g);
        let mut sched = DupSchedule {
            machine: machine.clone(),
            instances: vec![Vec::new(); v],
        };
        let mut prt = vec![0 as Time; procs];

        // Earliest arrival of t's output on processor p given current
        // instances.
        let arrival = |sched: &DupSchedule, t: TaskId, comm: Time, p: usize| -> Time {
            sched.instances[t.0]
                .iter()
                .map(|i| {
                    if i.proc.0 == p {
                        i.finish
                    } else {
                        i.finish + comm
                    }
                })
                .min()
                .expect("instance exists")
        };
        // Data-ready time of t on p, and the critical parent (latest
        // arrival among cross-processor inputs), if any.
        let data_ready = |sched: &DupSchedule, t: TaskId, p: usize| -> (Time, Option<TaskId>) {
            let mut ready = 0;
            let mut critical: Option<(Time, TaskId)> = None;
            for (u, c) in g.preds(t) {
                let a = arrival(sched, u, c, p);
                ready = ready.max(a);
                // Only a cross-processor arrival can be improved by
                // duplicating u onto p.
                let local = sched.instances[u.0].iter().any(|i| i.proc.0 == p);
                if !local && critical.is_none_or(|(best, _)| a > best) {
                    critical = Some((a, u));
                }
            }
            let crit_task = critical
                .filter(|&(a, _)| a == ready && ready > 0)
                .map(|(_, u)| u);
            (ready, crit_task)
        };

        // Tasks in descending static bottom-level order (topological: bl
        // strictly decreases along edges).
        let mut order: Vec<TaskId> = g.tasks().collect();
        order.sort_by_key(|&t| (Reverse(bl[t.0]), t));

        for t in order {
            // Evaluate every processor: EST without duplication, then try
            // shrinking it by duplicating the critical-parent chain.
            let mut best: Option<(Time, usize, Vec<TaskId>)> = None;
            // `p` is a processor id used well beyond indexing `prt`.
            #[allow(clippy::needless_range_loop)]
            for p in 0..procs {
                let (mut ready, mut crit) = data_ready(&sched, t, p);
                let mut clock = prt[p];
                let mut chain = Vec::new();
                // Greedy chain duplication: append copies of critical
                // parents onto p while that strictly lowers t's start.
                while let Some(u) = crit {
                    if chain.len() >= self.max_chain {
                        break;
                    }
                    let (u_ready, _) = data_ready(&sched, u, p);
                    let u_start = u_ready.max(clock);
                    let u_finish = u_start + machine.exec_time(g.comp(u), ProcId(p));
                    let old_start = ready.max(clock);
                    // Tentatively add the copy, recompute t's readiness,
                    // keep the copy only on strict improvement.
                    sched.instances[u.0].push(Placement {
                        proc: ProcId(p),
                        start: u_start,
                        finish: u_finish,
                    });
                    let (new_ready, new_crit) = data_ready(&sched, t, p);
                    let new_start = new_ready.max(u_finish);
                    if new_start < old_start {
                        chain.push(u);
                        clock = u_finish;
                        ready = new_ready;
                        crit = new_crit;
                    } else {
                        sched.instances[u.0].pop();
                        break;
                    }
                }
                let start = ready.max(clock);
                // Undo this processor's trial duplications before moving
                // on; re-applied if p wins (recorded in `chain`).
                for &u in chain.iter().rev() {
                    sched.instances[u.0].pop();
                }
                if best
                    .as_ref()
                    .is_none_or(|&(b_start, b_p, _)| (start, p) < (b_start, b_p))
                {
                    best = Some((start, p, chain));
                }
            }

            let (_, p, chain) = best.expect("machine has processors");
            // Re-apply the winning chain, then place t.
            let mut clock = prt[p];
            for &u in &chain {
                let (u_ready, _) = data_ready(&sched, u, p);
                let u_start = u_ready.max(clock);
                let u_finish = u_start + machine.exec_time(g.comp(u), ProcId(p));
                sched.instances[u.0].push(Placement {
                    proc: ProcId(p),
                    start: u_start,
                    finish: u_finish,
                });
                clock = u_finish;
            }
            let (ready, _) = data_ready(&sched, t, p);
            let start = ready.max(clock);
            let finish = start + machine.exec_time(g.comp(t), ProcId(p));
            sched.instances[t.0].push(Placement {
                proc: ProcId(p),
                start,
                finish,
            });
            prt[p] = finish;
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::costs::CostModel;
    use flb_graph::paper::fig1;
    use flb_graph::{gen, TaskGraphBuilder};

    #[test]
    fn cpd_fig1_is_valid() {
        let g = fig1();
        let s = Cpd::new().schedule_dup(&g, &Machine::new(2));
        assert_eq!(validate_dup(&g, &s), Ok(()));
        // FLB reaches 14 without duplication; CPD must do at least as well
        // as plain HLFET and never violate the comp-only CP bound.
        assert!(s.makespan() >= 10);
        assert!(s.makespan() <= 20);
    }

    #[test]
    fn duplication_wins_on_expensive_fanout() {
        // One producer, huge messages, many consumers: without duplication
        // either everything serialises on one processor or consumers wait
        // out the comm; duplicating the producer on every processor lets
        // all consumers start at comp(root) locally.
        let mut b = TaskGraphBuilder::new();
        let root = b.add_task(2);
        for _ in 0..4 {
            let c = b.add_task(10);
            b.add_edge(root, c, 100).unwrap();
        }
        let g = b.build().unwrap();
        let m = Machine::new(4);

        let dup = Cpd::new().schedule_dup(&g, &m);
        assert_eq!(validate_dup(&g, &dup), Ok(()));
        // Duplicated root on every processor: makespan 2 + 2 + 10 = 14
        // (two consumers share the root's own processor at best 2+10).
        assert!(
            dup.makespan() <= 14,
            "duplication should avoid the 100-cost messages, got {}",
            dup.makespan()
        );
        assert!(dup.total_instances() > g.num_tasks(), "root was duplicated");

        use flb_sched::Scheduler;
        let flb = flb_core::Flb::default().schedule(&g, &m).makespan();
        assert!(
            dup.makespan() < flb,
            "CPD ({}) should beat non-duplicating FLB ({flb}) here",
            dup.makespan()
        );
    }

    #[test]
    fn max_chain_zero_disables_duplication() {
        let mut b = TaskGraphBuilder::new();
        let root = b.add_task(2);
        let c = b.add_task(1);
        b.add_edge(root, c, 50).unwrap();
        let g = b.build().unwrap();
        let s = Cpd { max_chain: 0 }.schedule_dup(&g, &Machine::new(2));
        assert_eq!(validate_dup(&g, &s), Ok(()));
        assert_eq!(s.total_instances(), 2);
        assert_eq!(s.duplication_overhead(&g), 0.0);
    }

    #[test]
    fn cpd_single_processor_is_serial() {
        let g = gen::lu(6);
        let s = Cpd::new().schedule_dup(&g, &Machine::new(1));
        assert_eq!(validate_dup(&g, &s), Ok(()));
        // On one processor duplication can never help: everything is local.
        assert_eq!(s.total_instances(), g.num_tasks());
        assert_eq!(s.makespan(), g.total_comp());
    }

    #[test]
    fn cpd_valid_on_paper_families() {
        for topo in [gen::lu(7), gen::stencil(4, 4), gen::fft(3), gen::laplace(4)] {
            for &ccr in &[0.2, 5.0] {
                let g = CostModel::paper_default(ccr).apply(&topo, 13);
                for p in [2usize, 4] {
                    let s = Cpd::new().schedule_dup(&g, &Machine::new(p));
                    assert_eq!(validate_dup(&g, &s), Ok(()), "{} ccr={ccr} P={p}", g.name());
                    assert!(s.makespan() >= flb_sched::bounds::critical_path_bound(&g));
                }
            }
        }
    }

    #[test]
    fn validator_catches_violations() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(2);
        let c = b.add_task(3);
        b.add_edge(a, c, 5).unwrap();
        let g = b.build().unwrap();

        // Missing instance.
        let s = DupSchedule {
            machine: Machine::new(1),
            instances: vec![vec![], vec![]],
        };
        assert_eq!(validate_dup(&g, &s), Err(DupError::Unplaced(a)));

        // Precedence: c starts before a's data can arrive cross-proc.
        let s = DupSchedule {
            machine: Machine::new(2),
            instances: vec![
                vec![Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 2,
                }],
                vec![Placement {
                    proc: ProcId(1),
                    start: 3,
                    finish: 6,
                }],
            ],
        };
        assert_eq!(
            validate_dup(&g, &s),
            Err(DupError::Precedence {
                task: c,
                pred: a,
                required: 7,
                actual: 3
            })
        );

        // A local duplicate of `a` on p1 makes the same start legal.
        let s = DupSchedule {
            machine: Machine::new(2),
            instances: vec![
                vec![
                    Placement {
                        proc: ProcId(0),
                        start: 0,
                        finish: 2,
                    },
                    Placement {
                        proc: ProcId(1),
                        start: 0,
                        finish: 2,
                    },
                ],
                vec![Placement {
                    proc: ProcId(1),
                    start: 3,
                    finish: 6,
                }],
            ],
        };
        assert_eq!(validate_dup(&g, &s), Ok(()));

        // Overlap.
        let s = DupSchedule {
            machine: Machine::new(1),
            instances: vec![
                vec![Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 2,
                }],
                vec![Placement {
                    proc: ProcId(0),
                    start: 1,
                    finish: 4,
                }],
            ],
        };
        assert_eq!(validate_dup(&g, &s), Err(DupError::Overlap(ProcId(0))));

        // Bad duration.
        let s = DupSchedule {
            machine: Machine::new(1),
            instances: vec![
                vec![Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 99,
                }],
                vec![Placement {
                    proc: ProcId(0),
                    start: 99,
                    finish: 102,
                }],
            ],
        };
        assert_eq!(validate_dup(&g, &s), Err(DupError::BadDuration(a)));
    }
}
