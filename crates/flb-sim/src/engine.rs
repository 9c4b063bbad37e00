//! The event-driven simulation engine.

use flb_graph::{Cost, TaskGraph, TaskId, Time};
use flb_sched::{ProcId, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Communication model of the simulated machine.
///
/// The paper assumes contention-free communication (§2): any number of
/// messages travel concurrently. [`Contention::OnePort`] is the classic
/// stricter model — each processor has a single send port that a message
/// occupies for its whole duration, so simultaneous sends serialise. It
/// quantifies how much the paper's assumption flatters the schedules (the
/// `contention` harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Contention {
    /// The paper's model: unlimited concurrent messages.
    #[default]
    None,
    /// Single-port sends: a processor transmits one message at a time, in
    /// the order the producing tasks finish (FIFO per sender).
    OnePort,
}

/// Simulation configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimConfig {
    /// Communication contention model.
    pub contention: Contention,
    /// Record a [`MessageRecord`] per cross-processor message in
    /// [`SimResult::message_log`] (off by default: the log is `O(E)`).
    pub log_messages: bool,
}

/// One cross-processor message, as observed by the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageRecord {
    /// Producing task (message source).
    pub src_task: TaskId,
    /// Consuming task (message destination).
    pub dst_task: TaskId,
    /// Sending processor.
    pub src_proc: ProcId,
    /// Receiving processor.
    pub dst_proc: ProcId,
    /// Time the transfer started (≥ producer finish; later under
    /// [`Contention::OnePort`] when the port was busy).
    pub depart: Time,
    /// Time the message arrived at the destination.
    pub arrive: Time,
    /// Communication cost of the edge.
    pub cost: Cost,
}

/// Outcome of a successful simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Simulated start time per task.
    pub start: Vec<Time>,
    /// Simulated finish time per task.
    pub finish: Vec<Time>,
    /// Simulated parallel completion time.
    pub makespan: Time,
    /// Number of cross-processor messages delivered.
    pub messages: usize,
    /// Number of edges whose endpoints shared a processor (no message).
    pub local_edges: usize,
    /// Total communication cost carried by actual messages.
    pub comm_volume: Cost,
    /// Busy time per processor.
    pub proc_busy: Vec<Time>,
    /// Per-message records (only when [`SimConfig::log_messages`] is set),
    /// in delivery-creation order.
    pub message_log: Vec<MessageRecord>,
}

impl SimResult {
    /// Simulated efficiency: busy time over `P × makespan`.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        let busy: Time = self.proc_busy.iter().sum();
        busy as f64 / (self.proc_busy.len() as Time * self.makespan) as f64
    }
}

/// Why a blocked task cannot start (part of a stall diagnosis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// An input from a task on another processor never arrived: the
    /// producer itself never finished. In a fault-free replay this means
    /// the producer is part of the same wait-for cycle.
    MissingInput {
        /// The unfinished producer.
        pred: TaskId,
        /// The processor the producer is assigned to (busy or blocked).
        pred_proc: ProcId,
    },
    /// A predecessor is queued *behind* the task on the same processor:
    /// the per-processor order contradicts the precedence constraints.
    OrderViolation {
        /// The mis-ordered predecessor.
        pred: TaskId,
    },
    /// The input can never arrive: the producer was killed by a processor
    /// failure, is queued on a failed processor, or its message exhausted
    /// every retransmission (fault-injected runs only).
    InputLost {
        /// The lost producer.
        pred: TaskId,
    },
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::MissingInput { pred, pred_proc } => {
                write!(f, "input from {pred} (on {pred_proc}) missing")
            }
            BlockReason::OrderViolation { pred } => {
                write!(
                    f,
                    "predecessor {pred} ordered behind it on the same processor"
                )
            }
            BlockReason::InputLost { pred } => {
                write!(f, "input from {pred} lost to a fault")
            }
        }
    }
}

/// One task that could not start when the simulation drained: the head of
/// a processor's remaining queue, with the reasons it is stuck. Any tasks
/// queued behind it are transitively blocked (the processor is busy as far
/// as they are concerned) and summarised by `queued_behind`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedTask {
    /// The blocked task.
    pub task: TaskId,
    /// The processor whose queue it heads.
    pub proc: ProcId,
    /// Every unsatisfied input, classified.
    pub reasons: Vec<BlockReason>,
    /// Tasks queued behind it on the same processor (blocked on it holding
    /// the processor's queue head).
    pub queued_behind: usize,
}

impl fmt::Display for BlockedTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {} blocked: ", self.task, self.proc)?;
        for (i, r) in self.reasons.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        if self.queued_behind > 0 {
            write!(f, " (+{} queued behind)", self.queued_behind)?;
        }
        Ok(())
    }
}

/// Diagnoses why execution drained with unfinished tasks: for each live
/// processor whose queue is non-empty, classify every unsatisfied input of
/// the queue's head. `input_lost(pred, consumer)` marks inputs that can
/// never arrive (fault paths); fault-free callers pass `|_, _| false`.
pub(crate) fn diagnose_stall(
    g: &TaskGraph,
    schedule: &Schedule,
    queues: &[&[TaskId]],
    next_idx: &[usize],
    done: &[bool],
    proc_dead: &[bool],
    input_lost: &dyn Fn(TaskId, TaskId) -> bool,
) -> Vec<BlockedTask> {
    let mut blocked = Vec::new();
    for (p, q) in queues.iter().enumerate() {
        if proc_dead[p] {
            continue;
        }
        let Some(&t) = q.get(next_idx[p]) else {
            continue;
        };
        let mut reasons = Vec::new();
        for (u, _) in g.preds(t) {
            // A lost input blocks even when its producer finished (the
            // message itself was abandoned), so check it before `done`.
            if input_lost(u, t) {
                reasons.push(BlockReason::InputLost { pred: u });
                continue;
            }
            if done[u.0] {
                continue;
            }
            if schedule.proc(u).0 == p && q[next_idx[p]..].contains(&u) {
                reasons.push(BlockReason::OrderViolation { pred: u });
            } else {
                reasons.push(BlockReason::MissingInput {
                    pred: u,
                    pred_proc: schedule.proc(u),
                });
            }
        }
        blocked.push(BlockedTask {
            task: t,
            proc: ProcId(p),
            reasons,
            queued_behind: q.len() - next_idx[p] - 1,
        });
    }
    blocked
}

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Execution stalled: tasks remain unfinished although every event has
    /// drained (infeasible per-processor orders, or — in fault-injected
    /// runs — inputs destroyed by failures).
    Stalled {
        /// Tasks that did complete before the stall.
        completed: usize,
        /// Per-processor diagnosis: the head of each stuck queue and why
        /// it cannot start.
        blocked: Vec<BlockedTask>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled { completed, blocked } => {
                write!(f, "simulation stalled after {completed} tasks")?;
                if blocked.is_empty() {
                    write!(f, " (no runnable queue head)")?;
                }
                for b in blocked.iter().take(3) {
                    write!(f, "; {b}")?;
                }
                if blocked.len() > 3 {
                    write!(f, "; …{} more blocked", blocked.len() - 3)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Event kinds, ordered so simultaneous events process deterministically:
/// finishes free processors before arrivals are considered at equal time —
/// both orders yield identical results because starting decisions are made
/// after the whole timestamp batch, but a fixed order keeps the heap
/// deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Task finished on its processor.
    Finish(TaskId),
    /// One incoming dependence of the task has been satisfied.
    Arrival(TaskId),
}

/// Replays `schedule` on the simulated machine under the paper's
/// contention-free model. See [`simulate_with`] for other models.
///
/// The schedule's *start times are ignored*: only the processor assignment
/// and each processor's task order matter. The simulator starts every task
/// as early as its dependences and processor allow (work-conserving), which
/// for append-style list schedules reproduces the static times exactly.
///
/// ```
/// use flb_core::Flb;
/// use flb_graph::paper::fig1;
/// use flb_sched::{Machine, Scheduler};
///
/// let g = fig1();
/// let schedule = Flb::default().schedule(&g, &Machine::new(2));
/// let sim = flb_sim::simulate(&g, &schedule).unwrap();
/// assert_eq!(sim.makespan, schedule.makespan()); // independent re-derivation
/// assert_eq!(sim.messages + sim.local_edges, g.num_edges());
/// ```
pub fn simulate(g: &TaskGraph, schedule: &Schedule) -> Result<SimResult, SimError> {
    simulate_with(g, schedule, &SimConfig::default())
}

/// Replays `schedule` under an explicit [`SimConfig`].
///
/// Under [`Contention::OnePort`] each cross-processor message must first
/// acquire its sender's port (FIFO), occupying it for the message's full
/// communication time; arrival = departure + `comm`. Makespans are
/// therefore never shorter than under [`Contention::None`].
pub fn simulate_with(
    g: &TaskGraph,
    schedule: &Schedule,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    let v = g.num_tasks();
    let procs = schedule.num_procs();

    // Per-processor execution queues (fixed order).
    let queues: Vec<&[TaskId]> = (0..procs).map(|p| schedule.tasks_on(ProcId(p))).collect();
    let mut next_idx = vec![0usize; procs];
    let mut proc_idle = vec![true; procs];
    let mut proc_clock = vec![0 as Time; procs]; // time the processor became free

    let mut pending_arrivals: Vec<usize> = (0..v).map(|i| g.in_degree(TaskId(i))).collect();
    let mut ready_time = vec![0 as Time; v]; // max arrival seen so far
    let mut start = vec![0 as Time; v];
    let mut finish = vec![0 as Time; v];
    let mut done = vec![false; v];
    let mut completed = 0usize;

    let mut messages = 0usize;
    let mut local_edges = 0usize;
    let mut comm_volume: Cost = 0;
    // One-port model: when each sender's port is next free.
    let mut port_free = vec![0 as Time; procs];
    let mut message_log: Vec<MessageRecord> = Vec::new();

    let mut heap: BinaryHeap<Reverse<(Time, Event)>> = BinaryHeap::new();

    // Try to start the next task of processor `p` at the current time.
    macro_rules! try_start {
        ($p:expr, $now:expr) => {{
            let p: usize = $p;
            if proc_idle[p] {
                if let Some(&t) = queues[p].get(next_idx[p]) {
                    if pending_arrivals[t.0] == 0 {
                        let st = ready_time[t.0].max(proc_clock[p]).max($now);
                        start[t.0] = st;
                        finish[t.0] = st + schedule.machine().exec_time(g.comp(t), ProcId(p));
                        proc_idle[p] = false;
                        next_idx[p] += 1;
                        heap.push(Reverse((finish[t.0], Event::Finish(t))));
                    }
                }
            }
        }};
    }

    for p in 0..procs {
        try_start!(p, 0);
    }

    while let Some(Reverse((now, ev))) = heap.pop() {
        match ev {
            Event::Finish(t) => {
                debug_assert!(!done[t.0]);
                done[t.0] = true;
                completed += 1;
                let p = schedule.proc(t).0;
                proc_idle[p] = true;
                proc_clock[p] = now;
                // Emit messages to successors.
                for (s, c) in g.succs(t) {
                    let arrival = if schedule.proc(s) == schedule.proc(t) {
                        local_edges += 1;
                        now
                    } else {
                        messages += 1;
                        comm_volume += c;
                        let (depart, arrive) = match config.contention {
                            Contention::None => (now, now + c),
                            Contention::OnePort => {
                                // Acquire the sender's port FIFO; hold it
                                // for the transfer's duration.
                                let departure = now.max(port_free[p]);
                                port_free[p] = departure + c;
                                (departure, departure + c)
                            }
                        };
                        if config.log_messages {
                            message_log.push(MessageRecord {
                                src_task: t,
                                dst_task: s,
                                src_proc: ProcId(p),
                                dst_proc: schedule.proc(s),
                                depart,
                                arrive,
                                cost: c,
                            });
                        }
                        arrive
                    };
                    heap.push(Reverse((arrival, Event::Arrival(s))));
                }
                try_start!(p, now);
            }
            Event::Arrival(t) => {
                pending_arrivals[t.0] -= 1;
                ready_time[t.0] = ready_time[t.0].max(now);
                if pending_arrivals[t.0] == 0 {
                    try_start!(schedule.proc(t).0, now);
                }
            }
        }
    }

    if completed != v {
        let blocked = diagnose_stall(
            g,
            schedule,
            &queues,
            &next_idx,
            &done,
            &vec![false; procs],
            &|_, _| false,
        );
        return Err(SimError::Stalled { completed, blocked });
    }

    let makespan = finish.iter().copied().max().unwrap_or(0);
    let mut proc_busy = vec![0 as Time; procs];
    for t in g.tasks() {
        let p = schedule.proc(t);
        proc_busy[p.0] += schedule.machine().exec_time(g.comp(t), p);
    }

    Ok(SimResult {
        start,
        finish,
        makespan,
        messages,
        local_edges,
        comm_volume,
        proc_busy,
        message_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;
    use flb_graph::TaskGraphBuilder;
    use flb_sched::{Machine, Placement, ScheduleBuilder};

    /// The Table 1 schedule replayed: the simulator must reproduce every
    /// start/finish time, including t7 waiting until 12 for its messages.
    #[test]
    fn table1_schedule_replays_exactly() {
        let g = fig1();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place(TaskId(0), ProcId(0), 0);
        b.place(TaskId(3), ProcId(0), 2);
        b.place(TaskId(1), ProcId(1), 3);
        b.place(TaskId(2), ProcId(0), 5);
        b.place(TaskId(4), ProcId(1), 5);
        b.place(TaskId(5), ProcId(0), 7);
        b.place(TaskId(6), ProcId(1), 8);
        b.place(TaskId(7), ProcId(0), 12);
        let s = b.build();
        let r = simulate(&g, &s).unwrap();
        for t in g.tasks() {
            assert_eq!(r.start[t.0], s.start(t), "start of {t}");
            assert_eq!(r.finish[t.0], s.finish(t), "finish of {t}");
        }
        assert_eq!(r.makespan, 14);
        // Cross-proc edges: t0->t1 (p0->p1), t1->t5 (p1->p0), t2->t6
        // (p0->p1), t4->t7 (p1->p0), t6->t7 (p1->p0) = 5 messages;
        // local: t0->t2, t0->t3, t3->t5, t5->t7, t1->t4 = 5.
        assert_eq!(r.messages, 5);
        assert_eq!(r.local_edges, 5);
        assert_eq!(r.comm_volume, 1 + 1 + 1 + 1 + 2);
        assert_eq!(r.proc_busy, vec![12, 7]);
    }

    #[test]
    fn simulator_is_eager_for_delayed_schedules() {
        // A schedule placing an entry task at time 100 replays at time 0:
        // only assignment + order matter.
        let mut gb = TaskGraphBuilder::new();
        gb.add_task(5);
        let g = gb.build().unwrap();
        let s = Schedule::from_raw(
            1,
            vec![Placement {
                proc: ProcId(0),
                start: 100,
                finish: 105,
            }],
        );
        let r = simulate(&g, &s).unwrap();
        assert_eq!(r.start[0], 0);
        assert_eq!(r.makespan, 5);
    }

    #[test]
    fn stalled_on_infeasible_order() {
        // a -> b, but the processor's queue runs b before a.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(1);
        let b = gb.add_task(1);
        gb.add_edge(a, b, 1).unwrap();
        let g = gb.build().unwrap();
        let s = Schedule::from_raw(
            1,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 5,
                    finish: 6,
                },
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 1,
                },
            ],
        );
        // The diagnosis names the mis-ordered queue head: b heads p0's
        // queue, its predecessor a sits behind it, nothing else queued.
        assert_eq!(
            simulate(&g, &s),
            Err(SimError::Stalled {
                completed: 0,
                blocked: vec![BlockedTask {
                    task: b,
                    proc: ProcId(0),
                    reasons: vec![BlockReason::OrderViolation { pred: a }],
                    queued_behind: 1,
                }],
            })
        );
    }

    #[test]
    fn efficiency_of_perfect_split() {
        let mut gb = TaskGraphBuilder::new();
        gb.add_task(3);
        gb.add_task(3);
        let g = gb.build().unwrap();
        let s = Schedule::from_raw(
            2,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 3,
                },
                Placement {
                    proc: ProcId(1),
                    start: 0,
                    finish: 3,
                },
            ],
        );
        let r = simulate(&g, &s).unwrap();
        assert_eq!(r.efficiency(), 1.0);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn one_port_serialises_fanout_sends() {
        // root on p0 fans out to two tasks on p1 with comm 10 each. Under
        // the contention-free model both messages arrive at 11; one-port
        // serialises the sends: arrivals 11 and 21.
        let mut gb = TaskGraphBuilder::new();
        let root = gb.add_task(1);
        let a = gb.add_task(1);
        let b = gb.add_task(1);
        gb.add_edge(root, a, 10).unwrap();
        gb.add_edge(root, b, 10).unwrap();
        let g = gb.build().unwrap();
        let s = Schedule::from_raw(
            2,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 1,
                },
                Placement {
                    proc: ProcId(1),
                    start: 11,
                    finish: 12,
                },
                Placement {
                    proc: ProcId(1),
                    start: 12,
                    finish: 13,
                },
            ],
        );
        let free = simulate(&g, &s).unwrap();
        assert_eq!(free.makespan, 13);
        let port = simulate_with(
            &g,
            &s,
            &SimConfig {
                contention: Contention::OnePort,
                ..SimConfig::default()
            },
        )
        .unwrap();
        // a's message departs at 1 (arrives 11); b's waits for the port
        // until 11 (arrives 21); b runs at 22 after a.
        assert_eq!(port.start[1], 11);
        assert_eq!(port.start[2], 21);
        assert_eq!(port.makespan, 22);
    }

    #[test]
    fn message_log_records_transfers() {
        // Table 1 schedule of fig1: 5 cross-processor messages; the log
        // must carry consistent departure/arrival pairs and costs.
        let g = fig1();
        let placements = vec![
            Placement {
                proc: ProcId(0),
                start: 0,
                finish: 2,
            },
            Placement {
                proc: ProcId(1),
                start: 3,
                finish: 5,
            },
            Placement {
                proc: ProcId(0),
                start: 5,
                finish: 7,
            },
            Placement {
                proc: ProcId(0),
                start: 2,
                finish: 5,
            },
            Placement {
                proc: ProcId(1),
                start: 5,
                finish: 8,
            },
            Placement {
                proc: ProcId(0),
                start: 7,
                finish: 10,
            },
            Placement {
                proc: ProcId(1),
                start: 8,
                finish: 10,
            },
            Placement {
                proc: ProcId(0),
                start: 12,
                finish: 14,
            },
        ];
        let s = Schedule::from_raw(2, placements);
        let r = simulate_with(
            &g,
            &s,
            &SimConfig {
                log_messages: true,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.message_log.len(), r.messages);
        assert_eq!(r.messages, 5);
        for m in &r.message_log {
            assert_ne!(m.src_proc, m.dst_proc);
            assert_eq!(m.arrive, m.depart + m.cost);
            assert_eq!(g.edge_comm(m.src_task, m.dst_task), Some(m.cost));
        }
        // The t0 -> t1 message leaves p0 at 2 and arrives at 3.
        let m01 = r
            .message_log
            .iter()
            .find(|m| m.src_task == TaskId(0) && m.dst_task == TaskId(1))
            .expect("t0 -> t1 crosses processors");
        assert_eq!((m01.depart, m01.arrive), (2, 3));
        // Default config keeps the log empty.
        let quiet = simulate(&g, &s).unwrap();
        assert!(quiet.message_log.is_empty());
    }

    #[test]
    fn one_port_never_beats_contention_free() {
        use flb_graph::gen;
        for seed in 0..6u64 {
            let topo = gen::random_layered(
                &gen::RandomLayeredSpec {
                    tasks: 40,
                    layers: 4,
                    edge_prob: 0.4,
                    max_skip: 2,
                },
                seed,
            );
            let g = flb_graph::costs::CostModel::paper_default(5.0).apply(&topo, seed);
            // Any feasible placement works: round-robin by topological
            // order, timed by a greedy replay under the free model first.
            let order: Vec<_> = g.topological_order().collect();
            let mut placements = vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 0
                };
                g.num_tasks()
            ];
            // Build a valid-order schedule via the free simulator itself:
            // assign round-robin, order by topological position.
            for (i, &t) in order.iter().enumerate() {
                placements[t.0] = Placement {
                    proc: ProcId(i % 3),
                    start: i as Time, // only the relative order matters
                    finish: i as Time + g.comp(t),
                };
            }
            let s = Schedule::from_raw(3, placements);
            let free = simulate(&g, &s).unwrap();
            let port = simulate_with(
                &g,
                &s,
                &SimConfig {
                    contention: Contention::OnePort,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            assert!(
                port.makespan >= free.makespan,
                "seed {seed}: contention shortened the run"
            );
            assert_eq!(port.messages, free.messages);
        }
    }

    #[test]
    fn hetero_replay_respects_slowdowns() {
        use flb_sched::Machine;
        // a -> b, comm 5, machine [1, 3]; a on the slow processor.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(4);
        let b = gb.add_task(6);
        gb.add_edge(a, b, 5).unwrap();
        let g = gb.build().unwrap();
        let m = Machine::related(vec![1, 3]);
        let s = Schedule::from_raw_on(
            m,
            vec![
                Placement {
                    proc: ProcId(1),
                    start: 0,
                    finish: 12,
                },
                Placement {
                    proc: ProcId(0),
                    start: 17,
                    finish: 23,
                },
            ],
        );
        let r = simulate(&g, &s).unwrap();
        assert_eq!(r.finish[a.0], 12); // 4 * slowdown 3
        assert_eq!(r.start[b.0], 17); // 12 + comm 5
        assert_eq!(r.finish[b.0], 23); // + 6 * slowdown 1
        assert_eq!(r.makespan, 23);
        assert_eq!(r.proc_busy, vec![6, 12]);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            SimError::Stalled {
                completed: 3,
                blocked: Vec::new()
            }
            .to_string(),
            "simulation stalled after 3 tasks (no runnable queue head)"
        );
        let e = SimError::Stalled {
            completed: 1,
            blocked: vec![BlockedTask {
                task: TaskId(4),
                proc: ProcId(1),
                reasons: vec![
                    BlockReason::MissingInput {
                        pred: TaskId(2),
                        pred_proc: ProcId(0),
                    },
                    BlockReason::InputLost { pred: TaskId(3) },
                ],
                queued_behind: 2,
            }],
        };
        assert_eq!(
            e.to_string(),
            "simulation stalled after 1 tasks; t4 on p1 blocked: \
             input from t2 (on p0) missing, input from t3 lost to a fault \
             (+2 queued behind)"
        );
    }

    #[test]
    fn stall_diagnosis_separates_cycle_members() {
        // Cross-processor wait-for cycle: a -> b on p1, c -> d on p0, with
        // p0's queue [a, d] and p1's queue [c, b] and extra edges d -> a?
        // Simpler: a depends on nothing but is queued behind d on p0, and
        // d depends on b (on p1) which is queued behind c, and c depends
        // on a. Each queue head reports a MissingInput on the other proc.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(1); // p0, second in queue
        let b = gb.add_task(1); // p1, second in queue
        let c = gb.add_task(1); // p1 head, needs a
        let d = gb.add_task(1); // p0 head, needs b
        gb.add_edge(a, c, 1).unwrap();
        gb.add_edge(b, d, 1).unwrap();
        gb.add_edge(c, b, 1).unwrap(); // forces b behind c on p1 legally
        let g = gb.build().unwrap();
        let s = Schedule::from_raw(
            2,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 1,
                    finish: 2,
                }, // a after d
                Placement {
                    proc: ProcId(1),
                    start: 1,
                    finish: 2,
                }, // b after c
                Placement {
                    proc: ProcId(1),
                    start: 0,
                    finish: 1,
                }, // c head of p1
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 1,
                }, // d head of p0
            ],
        );
        let Err(SimError::Stalled { completed, blocked }) = simulate(&g, &s) else {
            panic!("expected stall");
        };
        assert_eq!(completed, 0);
        assert_eq!(
            blocked,
            vec![
                BlockedTask {
                    task: d,
                    proc: ProcId(0),
                    reasons: vec![BlockReason::MissingInput {
                        pred: b,
                        pred_proc: ProcId(1)
                    }],
                    queued_behind: 1,
                },
                BlockedTask {
                    task: c,
                    proc: ProcId(1),
                    reasons: vec![BlockReason::MissingInput {
                        pred: a,
                        pred_proc: ProcId(0)
                    }],
                    queued_behind: 1,
                },
            ]
        );
    }
}
