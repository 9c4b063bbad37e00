//! Seeded, deterministic fault injection over the event engine.
//!
//! [`simulate_faulty`] replays a schedule exactly like
//! [`crate::simulate_with`], but under a [`FaultSpec`] describing three
//! fault classes:
//!
//! * **fail-stop processor failures** — at a configured simulated time the
//!   processor stops: the task running on it is killed, queued tasks never
//!   start, and no further messages depart from it. Outputs of tasks that
//!   *finished* before the failure are assumed checkpointed and survive
//!   (they become zero-cost pseudo-entries during schedule repair);
//! * **message loss** — every cross-processor transmission attempt is lost
//!   independently with a configured probability; the sender detects the
//!   loss after a timeout that doubles per attempt (exponential backoff in
//!   simulated time) and retransmits, up to a bounded number of retries;
//! * **stragglers** — per-task execution-time multipliers.
//!
//! All fault decisions are pure functions of the spec's seed and the
//! affected entity (edge, attempt number), never of host entropy or event
//! pop order, so a run is bit-for-bit reproducible from `(graph, schedule,
//! config, spec)` alone — and an *empty* spec reproduces the fault-free
//! engine exactly, event order included (asserted by the workspace
//! property tests).
//!
//! Unlike the fault-free engine, an incomplete execution is not an error
//! here: it is the expected outcome that schedule repair consumes. The
//! result carries each task's [`TaskOutcome`], a [`FaultEvent`] trace, and
//! a [`BlockedTask`] diagnosis of everything left stuck.

use crate::engine::{
    diagnose_stall, BlockedTask, Contention, MessageRecord, SimConfig, SimError, SimResult,
};
use flb_graph::{Cost, TaskGraph, TaskId, Time};
use flb_sched::{ProcId, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Fail-stop failure of one processor at a fixed simulated time.
///
/// Tasks finishing at exactly `at` still complete (and their messages
/// depart); a task started at or before `at` and unfinished is killed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcFailure {
    /// The processor that fails.
    pub proc: ProcId,
    /// Simulated time of the failure.
    pub at: Time,
}

/// Message-loss model for cross-processor transfers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MessageLoss {
    /// Independent loss probability per transmission attempt, in `[0, 1]`.
    pub prob: f64,
    /// Detection timeout of the first attempt; it doubles per retry
    /// (exponential backoff in simulated time).
    pub timeout: Time,
    /// Retransmissions allowed after the initial attempt. When the last
    /// one is lost the message is abandoned and the consumer can never
    /// become ready.
    pub max_retries: u32,
}

/// A straggling task: its execution time is multiplied by `factor`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Straggler {
    /// The slowed task.
    pub task: TaskId,
    /// Duration multiplier (≥ 1 for a true straggler; values in `(0, 1)`
    /// are accepted and model a task finishing early).
    pub factor: f64,
}

/// A deterministic fault scenario. `Default` is the empty spec: no faults,
/// and [`simulate_faulty`] then reproduces [`crate::simulate_with`]
/// bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed for the per-attempt message-loss decisions.
    pub seed: u64,
    /// Fail-stop processor failures.
    pub proc_failures: Vec<ProcFailure>,
    /// Message-loss model (`None` = reliable network).
    pub loss: Option<MessageLoss>,
    /// Straggling tasks.
    pub stragglers: Vec<Straggler>,
}

impl FaultSpec {
    /// An empty spec with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// Adds a fail-stop processor failure.
    #[must_use]
    pub fn fail(mut self, proc: ProcId, at: Time) -> Self {
        self.proc_failures.push(ProcFailure { proc, at });
        self
    }

    /// Sets the message-loss model.
    #[must_use]
    pub fn with_loss(mut self, prob: f64, timeout: Time, max_retries: u32) -> Self {
        self.loss = Some(MessageLoss {
            prob,
            timeout,
            max_retries,
        });
        self
    }

    /// Adds a straggling task.
    #[must_use]
    pub fn straggle(mut self, task: TaskId, factor: f64) -> Self {
        self.stragglers.push(Straggler { task, factor });
        self
    }

    /// Whether the spec injects no faults at all (loss with probability 0
    /// counts as no fault).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.proc_failures.is_empty()
            && self.stragglers.is_empty()
            && self.loss.is_none_or(|l| l.prob <= 0.0)
    }
}

/// What happened to one task in a fault-injected run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TaskOutcome {
    /// Ran to completion.
    Finished,
    /// Was running when its processor failed; its work is lost.
    Killed,
    /// Never started (processor dead, inputs lost, or blocked).
    #[default]
    NotStarted,
}

/// One entry of the per-run fault trace, in event-processing order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// A processor failed, killing at most one running task.
    ProcFailed {
        /// The failed processor.
        proc: ProcId,
        /// Failure time.
        at: Time,
        /// The task running on it at that instant, if any.
        killed: Option<TaskId>,
    },
    /// A straggling task started; its duration is inflated.
    Straggled {
        /// The slowed task.
        task: TaskId,
        /// Nominal execution time on its processor.
        nominal: Time,
        /// Inflated execution time actually simulated.
        actual: Time,
    },
    /// One transmission attempt was lost.
    MessageLost {
        /// Producing task.
        src: TaskId,
        /// Consuming task.
        dst: TaskId,
        /// Attempt number (0 = initial transmission).
        attempt: u32,
        /// Departure time of the lost attempt.
        at: Time,
    },
    /// A message was given up on: retries exhausted, or the sender died
    /// before it could retransmit.
    MessageAbandoned {
        /// Producing task.
        src: TaskId,
        /// Consuming task.
        dst: TaskId,
        /// Transmission attempts made in total.
        attempts: u32,
        /// Time the message was abandoned.
        at: Time,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::ProcFailed {
                proc,
                at,
                killed: Some(t),
            } => {
                write!(f, "[{at}] {proc} failed, killing {t}")
            }
            FaultEvent::ProcFailed {
                proc,
                at,
                killed: None,
            } => {
                write!(f, "[{at}] {proc} failed (idle)")
            }
            FaultEvent::Straggled {
                task,
                nominal,
                actual,
            } => {
                write!(f, "{task} straggles: {nominal} -> {actual}")
            }
            FaultEvent::MessageLost {
                src,
                dst,
                attempt,
                at,
            } => {
                write!(f, "[{at}] message {src} -> {dst} lost (attempt {attempt})")
            }
            FaultEvent::MessageAbandoned {
                src,
                dst,
                attempts,
                at,
            } => {
                write!(
                    f,
                    "[{at}] message {src} -> {dst} abandoned after {attempts} attempts"
                )
            }
        }
    }
}

/// Outcome of a fault-injected run. Mirrors [`SimResult`] plus the fault
/// trace and per-task outcomes; unfinished executions are a normal result
/// here, diagnosed in `blocked`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultySimResult {
    /// Simulated start time per task (meaningful where the outcome is not
    /// [`TaskOutcome::NotStarted`]).
    pub start: Vec<Time>,
    /// Simulated finish time per finished task.
    pub finish: Vec<Time>,
    /// Per-task outcome.
    pub outcome: Vec<TaskOutcome>,
    /// Number of finished tasks.
    pub completed: usize,
    /// Maximum finish time over finished tasks.
    pub makespan: Time,
    /// Cross-processor messages *delivered*.
    pub messages: usize,
    /// Edges whose endpoints shared a processor.
    pub local_edges: usize,
    /// Communication cost carried by delivered messages (lost attempts
    /// excluded; see the trace for those).
    pub comm_volume: Cost,
    /// Busy time per processor: full durations of finished tasks plus the
    /// partial execution of a task killed mid-run.
    pub proc_busy: Vec<Time>,
    /// Per-delivery records (only when [`SimConfig::log_messages`] is set).
    pub message_log: Vec<MessageRecord>,
    /// Every injected fault, in event-processing order.
    pub trace: Vec<FaultEvent>,
    /// Diagnosis of tasks left stuck on surviving processors (empty when
    /// the run completed).
    pub blocked: Vec<BlockedTask>,
    /// Time of the last processed event (the instant the machine went
    /// quiet).
    pub halted_at: Time,
}

impl FaultySimResult {
    /// Whether every task finished despite the injected faults.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed == self.outcome.len()
    }

    /// Lost transmission attempts recorded in the trace.
    #[must_use]
    pub fn lost_attempts(&self) -> usize {
        self.trace
            .iter()
            .filter(|e| matches!(e, FaultEvent::MessageLost { .. }))
            .count()
    }

    /// Messages abandoned (retries exhausted or sender dead).
    #[must_use]
    pub fn abandoned_messages(&self) -> usize {
        self.trace
            .iter()
            .filter(|e| matches!(e, FaultEvent::MessageAbandoned { .. }))
            .count()
    }

    /// Processor failures that took effect.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.trace
            .iter()
            .filter(|e| matches!(e, FaultEvent::ProcFailed { .. }))
            .count()
    }

    /// Converts into the fault-free result type: `Ok` when the run
    /// completed, otherwise the same [`SimError::Stalled`] the plain
    /// engine would report.
    pub fn into_sim_result(self) -> Result<SimResult, SimError> {
        if self.is_complete() {
            Ok(SimResult {
                start: self.start,
                finish: self.finish,
                makespan: self.makespan,
                messages: self.messages,
                local_edges: self.local_edges,
                comm_volume: self.comm_volume,
                proc_busy: self.proc_busy,
                message_log: self.message_log,
            })
        } else {
            Err(SimError::Stalled {
                completed: self.completed,
                blocked: self.blocked,
            })
        }
    }

    /// Extracts the execution state at instant `at` for schedule repair:
    /// tasks that finished in this run *and started no later than `at`*
    /// are committed (a task already running at the repair instant is
    /// allowed to complete; everything else is residual and will be
    /// re-placed), and processors failing at or before `at` are dead.
    #[must_use]
    pub fn exec_state_at(&self, schedule: &Schedule, spec: &FaultSpec, at: Time) -> ExecState {
        let v = self.outcome.len();
        let mut alive = vec![true; schedule.num_procs()];
        for f in &spec.proc_failures {
            if f.at <= at && f.proc.0 < alive.len() {
                alive[f.proc.0] = false;
            }
        }
        let mut completed = vec![false; v];
        let mut proc = vec![ProcId(0); v];
        for i in 0..v {
            completed[i] = self.outcome[i] == TaskOutcome::Finished && self.start[i] <= at;
            proc[i] = schedule.proc(TaskId(i));
        }
        ExecState {
            completed,
            start: self.start.clone(),
            finish: self.finish.clone(),
            proc,
            alive,
            at,
        }
    }
}

pub use flb_sched::repair::ExecState;

/// Splitmix64 finaliser: a high-quality 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic per-attempt loss decision: a pure hash of
/// `(seed, src, dst, attempt)`, independent of event order.
fn attempt_lost(seed: u64, src: TaskId, dst: TaskId, attempt: u32, prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    if prob >= 1.0 {
        return true;
    }
    let h = mix64(
        seed ^ mix64(src.0 as u64) ^ mix64((dst.0 as u64).rotate_left(32)) ^ u64::from(attempt),
    );
    // 53-bit mantissa -> uniform in [0, 1).
    let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < prob
}

/// A pending retransmission, ordered for the event heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Retry {
    src: TaskId,
    dst: TaskId,
    comm: Cost,
    attempt: u32,
}

/// Event kinds of the faulty engine. Variant order fixes processing order
/// at equal timestamps: finishes complete (and send) before a failure at
/// the same instant takes effect; a failed sender can no longer retry;
/// arrivals come last, exactly as in the fault-free engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum FEvent {
    Finish(TaskId),
    ProcFail(usize),
    Resend(Retry),
    Arrival(TaskId),
}

/// Replays `schedule` under `config` with the faults of `spec` injected.
///
/// With `spec.is_empty()` this reproduces [`crate::simulate_with`]
/// bit-for-bit (same event order, same result fields). Under faults the
/// run executes as far as the surviving processors and delivered messages
/// allow; the result is returned even when incomplete — repair layers
/// consume it via [`FaultySimResult::exec_state_at`].
#[must_use]
pub fn simulate_faulty(
    g: &TaskGraph,
    schedule: &Schedule,
    config: &SimConfig,
    spec: &FaultSpec,
) -> FaultySimResult {
    let v = g.num_tasks();
    let procs = schedule.num_procs();

    let queues: Vec<&[TaskId]> = (0..procs).map(|p| schedule.tasks_on(ProcId(p))).collect();
    let mut next_idx = vec![0usize; procs];
    let mut proc_idle = vec![true; procs];
    let mut proc_clock = vec![0 as Time; procs];
    let mut alive = vec![true; procs];
    let mut running: Vec<Option<TaskId>> = vec![None; procs];

    let mut pending_arrivals: Vec<usize> = (0..v).map(|i| g.in_degree(TaskId(i))).collect();
    let mut ready_time = vec![0 as Time; v];
    let mut start = vec![0 as Time; v];
    let mut finish = vec![0 as Time; v];
    let mut outcome = vec![TaskOutcome::NotStarted; v];
    let mut done = vec![false; v];
    let mut completed = 0usize;

    // Straggler factors, 1.0 = nominal.
    let mut factor = vec![1.0f64; v];
    for s in &spec.stragglers {
        if s.task.0 < v {
            factor[s.task.0] = s.factor;
        }
    }
    let loss = spec.loss.unwrap_or(MessageLoss {
        prob: 0.0,
        timeout: 0,
        max_retries: 0,
    });

    let mut messages = 0usize;
    let mut local_edges = 0usize;
    let mut comm_volume: Cost = 0;
    let mut port_free = vec![0 as Time; procs];
    let mut message_log: Vec<MessageRecord> = Vec::new();
    let mut trace: Vec<FaultEvent> = Vec::new();
    // Edges whose message was abandoned (consumer can never become ready).
    let mut abandoned: Vec<(TaskId, TaskId)> = Vec::new();
    let mut proc_busy = vec![0 as Time; procs];
    let mut halted_at: Time = 0;

    let mut heap: BinaryHeap<Reverse<(Time, FEvent)>> = BinaryHeap::new();
    for f in &spec.proc_failures {
        if f.proc.0 < procs {
            heap.push(Reverse((f.at, FEvent::ProcFail(f.proc.0))));
        }
    }

    macro_rules! try_start {
        ($p:expr, $now:expr) => {{
            let p: usize = $p;
            if proc_idle[p] && alive[p] {
                if let Some(&t) = queues[p].get(next_idx[p]) {
                    if pending_arrivals[t.0] == 0 {
                        let st = ready_time[t.0].max(proc_clock[p]).max($now);
                        let nominal = schedule.machine().exec_time(g.comp(t), ProcId(p));
                        let dur = if factor[t.0] == 1.0 {
                            nominal
                        } else {
                            let actual = (nominal as f64 * factor[t.0]).round().max(0.0) as Time;
                            trace.push(FaultEvent::Straggled {
                                task: t,
                                nominal,
                                actual,
                            });
                            actual
                        };
                        start[t.0] = st;
                        finish[t.0] = st + dur;
                        proc_idle[p] = false;
                        running[p] = Some(t);
                        next_idx[p] += 1;
                        heap.push(Reverse((finish[t.0], FEvent::Finish(t))));
                    }
                }
            }
        }};
    }

    // Transmit attempt `$attempt` of the message `$src -> $dst` no earlier
    // than `$earliest` (one-port senders additionally wait for — and then
    // hold — their port, lost attempts included: the transmission happens,
    // the delivery doesn't).
    macro_rules! send_msg {
        ($src:expr, $dst:expr, $comm:expr, $attempt:expr, $earliest:expr) => {{
            let (src, dst, comm, attempt): (TaskId, TaskId, Cost, u32) =
                ($src, $dst, $comm, $attempt);
            let sp = schedule.proc(src).0;
            let depart = match config.contention {
                Contention::None => $earliest,
                Contention::OnePort => {
                    let d = ($earliest as Time).max(port_free[sp]);
                    port_free[sp] = d + comm;
                    d
                }
            };
            if attempt_lost(spec.seed, src, dst, attempt, loss.prob) {
                trace.push(FaultEvent::MessageLost {
                    src,
                    dst,
                    attempt,
                    at: depart,
                });
                if attempt >= loss.max_retries {
                    trace.push(FaultEvent::MessageAbandoned {
                        src,
                        dst,
                        attempts: attempt + 1,
                        at: depart + (loss.timeout << attempt),
                    });
                    abandoned.push((src, dst));
                } else {
                    // Loss detected after the (backed-off) timeout; the
                    // retransmission is scheduled as its own event so a
                    // sender failing in between abandons the message.
                    heap.push(Reverse((
                        depart + (loss.timeout << attempt),
                        FEvent::Resend(Retry {
                            src,
                            dst,
                            comm,
                            attempt: attempt + 1,
                        }),
                    )));
                }
            } else {
                messages += 1;
                comm_volume += comm;
                let arrive = depart + comm;
                if config.log_messages {
                    message_log.push(MessageRecord {
                        src_task: src,
                        dst_task: dst,
                        src_proc: ProcId(sp),
                        dst_proc: schedule.proc(dst),
                        depart,
                        arrive,
                        cost: comm,
                    });
                }
                heap.push(Reverse((arrive, FEvent::Arrival(dst))));
            }
        }};
    }

    for p in 0..procs {
        try_start!(p, 0);
    }

    while let Some(Reverse((now, ev))) = heap.pop() {
        match ev {
            FEvent::Finish(t) => {
                let p = schedule.proc(t).0;
                if outcome[t.0] == TaskOutcome::Killed {
                    continue; // tombstone: its processor died mid-execution
                }
                halted_at = now;
                done[t.0] = true;
                outcome[t.0] = TaskOutcome::Finished;
                completed += 1;
                proc_busy[p] += now - start[t.0];
                proc_idle[p] = true;
                running[p] = None;
                proc_clock[p] = now;
                for (s, c) in g.succs(t) {
                    if schedule.proc(s) == schedule.proc(t) {
                        local_edges += 1;
                        heap.push(Reverse((now, FEvent::Arrival(s))));
                    } else {
                        send_msg!(t, s, c, 0, now);
                    }
                }
                try_start!(p, now);
            }
            FEvent::ProcFail(p) => {
                if !alive[p] {
                    continue; // duplicate failure in the spec
                }
                halted_at = now;
                alive[p] = false;
                let killed = running[p].take();
                if let Some(r) = killed {
                    outcome[r.0] = TaskOutcome::Killed;
                    proc_busy[p] += now - start[r.0];
                    finish[r.0] = 0;
                    proc_idle[p] = true;
                }
                trace.push(FaultEvent::ProcFailed {
                    proc: ProcId(p),
                    at: now,
                    killed,
                });
            }
            FEvent::Resend(r) => {
                halted_at = now;
                if alive[schedule.proc(r.src).0] {
                    send_msg!(r.src, r.dst, r.comm, r.attempt, now);
                } else {
                    trace.push(FaultEvent::MessageAbandoned {
                        src: r.src,
                        dst: r.dst,
                        attempts: r.attempt,
                        at: now,
                    });
                    abandoned.push((r.src, r.dst));
                }
            }
            FEvent::Arrival(t) => {
                halted_at = now;
                pending_arrivals[t.0] -= 1;
                ready_time[t.0] = ready_time[t.0].max(now);
                if pending_arrivals[t.0] == 0 {
                    try_start!(schedule.proc(t).0, now);
                }
            }
        }
    }

    let blocked = if completed == v {
        Vec::new()
    } else {
        let input_lost = |pred: TaskId, consumer: TaskId| {
            outcome[pred.0] == TaskOutcome::Killed
                || (!done[pred.0] && !alive[schedule.proc(pred).0])
                || abandoned.contains(&(pred, consumer))
        };
        diagnose_stall(
            g,
            schedule,
            &queues,
            &next_idx,
            &done,
            &dead_mask(&alive),
            &input_lost,
        )
    };

    let makespan = g
        .tasks()
        .filter(|t| outcome[t.0] == TaskOutcome::Finished)
        .map(|t| finish[t.0])
        .max()
        .unwrap_or(0);

    FaultySimResult {
        start,
        finish,
        outcome,
        completed,
        makespan,
        messages,
        local_edges,
        comm_volume,
        proc_busy,
        message_log,
        trace,
        blocked,
        halted_at,
    }
}

fn dead_mask(alive: &[bool]) -> Vec<bool> {
    alive.iter().map(|&a| !a).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_with;
    use flb_graph::paper::fig1;
    use flb_graph::TaskGraphBuilder;
    use flb_sched::Placement;

    /// The Table 1 schedule of fig1 as raw placements.
    fn table1() -> (TaskGraph, Schedule) {
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
        (g, Schedule::from_raw(2, placements))
    }

    #[test]
    fn empty_spec_matches_fault_free_engine_exactly() {
        let (g, s) = table1();
        for config in [
            SimConfig::default(),
            SimConfig {
                contention: Contention::OnePort,
                log_messages: true,
            },
        ] {
            let plain = simulate_with(&g, &s, &config).unwrap();
            let faulty = simulate_faulty(&g, &s, &config, &FaultSpec::default());
            assert!(faulty.is_complete());
            assert!(faulty.trace.is_empty());
            assert_eq!(faulty.clone().into_sim_result().unwrap(), plain);
        }
    }

    #[test]
    fn proc_failure_kills_running_task_and_strands_queue() {
        let (g, s) = table1();
        // p1 dies at 6: t4 (running, started 5) is killed; t1 finished at
        // 5 and survives; t6 never starts; t7 on p0 loses t4's and t6's
        // inputs.
        let spec = FaultSpec::new(1).fail(ProcId(1), 6);
        let r = simulate_faulty(&g, &s, &SimConfig::default(), &spec);
        assert!(!r.is_complete());
        assert_eq!(r.outcome[1], TaskOutcome::Finished);
        assert_eq!(r.outcome[4], TaskOutcome::Killed);
        assert_eq!(r.outcome[6], TaskOutcome::NotStarted);
        assert_eq!(r.outcome[7], TaskOutcome::NotStarted);
        // p0's chain t0, t3, t2, t5 is independent of p1 and completes.
        for t in [0, 2, 3, 5] {
            assert_eq!(r.outcome[t], TaskOutcome::Finished, "t{t}");
        }
        assert_eq!(r.completed, 5);
        assert_eq!(
            r.trace,
            vec![FaultEvent::ProcFailed {
                proc: ProcId(1),
                at: 6,
                killed: Some(TaskId(4))
            }]
        );
        // The stall diagnosis blames the lost inputs of t7.
        assert_eq!(r.blocked.len(), 1);
        assert_eq!(r.blocked[0].task, TaskId(7));
        assert!(r.blocked[0]
            .reasons
            .iter()
            .all(|x| matches!(x, crate::BlockReason::InputLost { .. })));
        // Partial work of the killed task counts as busy time: t1 (2) plus
        // one unit of t4 before the failure at 6.
        assert_eq!(r.proc_busy[1], 2 + 1);
    }

    #[test]
    fn failure_at_finish_instant_lets_task_complete() {
        let (g, s) = table1();
        // t1 finishes on p1 exactly at 5; a failure at 5 must not kill it,
        // but t4 (starting at 5) never runs.
        let spec = FaultSpec::new(0).fail(ProcId(1), 5);
        let r = simulate_faulty(&g, &s, &SimConfig::default(), &spec);
        assert_eq!(r.outcome[1], TaskOutcome::Finished);
        assert_eq!(r.outcome[4], TaskOutcome::NotStarted);
        // t5 consumes t1's message (sent at 5, before the failure bit).
        assert_eq!(r.outcome[5], TaskOutcome::Finished);
    }

    #[test]
    fn total_loss_blocks_cross_proc_consumers() {
        // a on p0 -> b on p1, comm 3; every attempt lost.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(2);
        gb.add_edge(a, b, 3).unwrap();
        let g = gb.build().unwrap();
        let s = Schedule::from_raw(
            2,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 2,
                },
                Placement {
                    proc: ProcId(1),
                    start: 5,
                    finish: 7,
                },
            ],
        );
        let spec = FaultSpec::new(7).with_loss(1.0, 4, 2);
        let r = simulate_faulty(&g, &s, &SimConfig::default(), &spec);
        assert_eq!(r.outcome[a.0], TaskOutcome::Finished);
        assert_eq!(r.outcome[b.0], TaskOutcome::NotStarted);
        assert_eq!(r.lost_attempts(), 3); // initial + 2 retries
        assert_eq!(r.abandoned_messages(), 1);
        // Backoff: attempts at 2, 2+4, 2+4+8; abandonment at 2+4+8+16.
        assert_eq!(
            r.trace.last(),
            Some(&FaultEvent::MessageAbandoned {
                src: a,
                dst: b,
                attempts: 3,
                at: 30
            })
        );
        assert_eq!(r.blocked.len(), 1);
        assert_eq!(
            r.blocked[0].reasons,
            vec![crate::BlockReason::InputLost { pred: a }]
        );
    }

    #[test]
    fn retried_message_arrives_late_but_run_completes() {
        // Loss probability 1 would abandon; instead check retries by
        // making only the first attempt lost: with prob ~0.5 and a fixed
        // seed we pick a seed where attempt 0 is lost and attempt 1 is
        // delivered.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(2);
        gb.add_edge(a, b, 3).unwrap();
        let g = gb.build().unwrap();
        let s = Schedule::from_raw(
            2,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 2,
                },
                Placement {
                    proc: ProcId(1),
                    start: 5,
                    finish: 7,
                },
            ],
        );
        let seed = (0u64..)
            .find(|&sd| attempt_lost(sd, a, b, 0, 0.5) && !attempt_lost(sd, a, b, 1, 0.5))
            .unwrap();
        let spec = FaultSpec {
            seed,
            loss: Some(MessageLoss {
                prob: 0.5,
                timeout: 4,
                max_retries: 3,
            }),
            ..FaultSpec::default()
        };
        let r = simulate_faulty(&g, &s, &SimConfig::default(), &spec);
        assert!(r.is_complete());
        // Attempt 0 departs at 2, lost; retry departs at 6, arrives 9.
        assert_eq!(r.start[b.0], 9);
        assert_eq!(r.lost_attempts(), 1);
        assert_eq!(r.makespan, 11);
    }

    #[test]
    fn dead_sender_abandons_pending_retry() {
        // a on p0 -> b on p1; first attempt lost, p0 dies before the
        // retry fires: the message must be abandoned, not resent.
        let mut gb = TaskGraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(2);
        gb.add_edge(a, b, 3).unwrap();
        let g = gb.build().unwrap();
        let s = Schedule::from_raw(
            2,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 2,
                },
                Placement {
                    proc: ProcId(1),
                    start: 5,
                    finish: 7,
                },
            ],
        );
        let seed = (0u64..).find(|&sd| attempt_lost(sd, a, b, 0, 0.5)).unwrap();
        let spec = FaultSpec {
            seed,
            loss: Some(MessageLoss {
                prob: 0.5,
                timeout: 10,
                max_retries: 3,
            }),
            proc_failures: vec![ProcFailure {
                proc: ProcId(0),
                at: 5,
            }],
            ..FaultSpec::default()
        };
        let r = simulate_faulty(&g, &s, &SimConfig::default(), &spec);
        assert_eq!(r.outcome[a.0], TaskOutcome::Finished);
        assert_eq!(r.outcome[b.0], TaskOutcome::NotStarted);
        assert_eq!(r.abandoned_messages(), 1);
        assert!(r.trace.contains(&FaultEvent::MessageAbandoned {
            src: a,
            dst: b,
            attempts: 1,
            at: 12
        }));
    }

    #[test]
    fn straggler_inflates_duration_and_delays_successors() {
        let (g, s) = table1();
        // t0 straggles 3x: 2 -> 6. Everything shifts; the run completes.
        let spec = FaultSpec::new(0).straggle(TaskId(0), 3.0);
        let r = simulate_faulty(&g, &s, &SimConfig::default(), &spec);
        assert!(r.is_complete());
        assert_eq!(r.finish[0], 6);
        assert!(r.trace.contains(&FaultEvent::Straggled {
            task: TaskId(0),
            nominal: 2,
            actual: 6
        }));
        assert!(r.makespan > 14);
    }

    #[test]
    fn same_seed_same_run_different_seed_may_differ() {
        let (g, s) = table1();
        let spec = FaultSpec::new(42)
            .with_loss(0.4, 2, 3)
            .straggle(TaskId(3), 2.0);
        let r1 = simulate_faulty(&g, &s, &SimConfig::default(), &spec);
        let r2 = simulate_faulty(&g, &s, &SimConfig::default(), &spec);
        assert_eq!(r1, r2);
    }

    #[test]
    fn exec_state_commits_running_tasks_at_instant() {
        let (g, s) = table1();
        let spec = FaultSpec::new(0).fail(ProcId(1), 6);
        let r = simulate_faulty(&g, &s, &SimConfig::default(), &spec);
        let exec = r.exec_state_at(&s, &spec, 6);
        // At 6: t0 [0-2], t3 [2-5], t1 [3-5] finished; t2 started at 5 on
        // p0 and is allowed to complete (committed); t4 was killed.
        for t in [0, 1, 3] {
            assert!(exec.completed[t], "t{t}");
        }
        assert!(exec.completed[2], "running task commits");
        assert!(!exec.completed[4]);
        assert!(!exec.completed[6] && !exec.completed[7]);
        assert_eq!(exec.alive, vec![true, false]);
        assert_eq!(exec.at, 6);
    }

    #[test]
    fn fault_display_strings() {
        assert_eq!(
            FaultEvent::ProcFailed {
                proc: ProcId(1),
                at: 6,
                killed: Some(TaskId(4))
            }
            .to_string(),
            "[6] p1 failed, killing t4"
        );
        assert_eq!(
            FaultEvent::ProcFailed {
                proc: ProcId(0),
                at: 3,
                killed: None
            }
            .to_string(),
            "[3] p0 failed (idle)"
        );
        assert_eq!(
            FaultEvent::Straggled {
                task: TaskId(2),
                nominal: 4,
                actual: 8
            }
            .to_string(),
            "t2 straggles: 4 -> 8"
        );
        assert_eq!(
            FaultEvent::MessageLost {
                src: TaskId(1),
                dst: TaskId(2),
                attempt: 0,
                at: 9
            }
            .to_string(),
            "[9] message t1 -> t2 lost (attempt 0)"
        );
        assert_eq!(
            FaultEvent::MessageAbandoned {
                src: TaskId(1),
                dst: TaskId(2),
                attempts: 4,
                at: 30
            }
            .to_string(),
            "[30] message t1 -> t2 abandoned after 4 attempts"
        );
    }
}
