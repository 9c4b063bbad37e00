//! Independent schedule validation.
//!
//! [`validate`] re-checks a finished schedule against the task graph and
//! machine model from first principles, sharing no code with
//! [`crate::ScheduleBuilder`]: every algorithm's output is audited by logic
//! it did not use to construct that output.

use crate::{ProcId, Schedule};
use flb_graph::{TaskGraph, TaskId, Time};
use std::fmt;

/// A violation found by [`validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule covers a different number of tasks than the graph.
    WrongTaskCount {
        /// Tasks in the schedule.
        scheduled: usize,
        /// Tasks in the graph.
        expected: usize,
    },
    /// A task refers to a processor outside the machine.
    BadProcessor(TaskId, ProcId),
    /// `finish != start + exec_time(comp, proc)`.
    BadDuration(TaskId),
    /// Two tasks overlap in time on one processor.
    Overlap(ProcId, TaskId, TaskId),
    /// A task starts before one of its messages arrives.
    Precedence {
        /// The predecessor whose message arrives late.
        pred: TaskId,
        /// The violating task.
        task: TaskId,
        /// Earliest legal start given that edge.
        required: Time,
        /// Actual start.
        actual: Time,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::WrongTaskCount {
                scheduled,
                expected,
            } => write!(f, "schedule has {scheduled} tasks, graph has {expected}"),
            ScheduleError::BadProcessor(t, p) => write!(f, "task {t} on nonexistent {p}"),
            ScheduleError::BadDuration(t) => write!(f, "task {t}: finish != start + comp"),
            ScheduleError::Overlap(p, a, b) => write!(f, "tasks {a} and {b} overlap on {p}"),
            ScheduleError::Precedence {
                pred,
                task,
                required,
                actual,
            } => write!(
                f,
                "task {task} starts at {actual}, before message from {pred} arrives at {required}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Checks that `s` is a feasible schedule of `g`:
///
/// 1. exactly one placement per task, on an existing processor;
/// 2. `finish = start + exec_time(comp, proc)` for every task (execution
///    times respect the machine's per-processor slowdowns);
/// 3. tasks on one processor never overlap (sequential, non-preemptive);
/// 4. every task starts no earlier than each predecessor's finish time plus
///    the edge's communication cost (zero when co-located).
pub fn validate(g: &TaskGraph, s: &Schedule) -> Result<(), ScheduleError> {
    if s.num_tasks() != g.num_tasks() {
        return Err(ScheduleError::WrongTaskCount {
            scheduled: s.num_tasks(),
            expected: g.num_tasks(),
        });
    }

    for t in g.tasks() {
        let pl = s.placement(t);
        if pl.proc.0 >= s.num_procs() {
            return Err(ScheduleError::BadProcessor(t, pl.proc));
        }
        if pl.finish != pl.start + s.machine().exec_time(g.comp(t), pl.proc) {
            return Err(ScheduleError::BadDuration(t));
        }
    }

    // Exclusivity: sort every processor's tasks by start and compare
    // neighbours.
    for p in 0..s.num_procs() {
        let p = ProcId(p);
        // Sort by finish before id so a zero-duration task sharing its
        // start with a longer one is not misreported as overlapping.
        let mut row: Vec<TaskId> = s.tasks_on(p).to_vec();
        row.sort_by_key(|&t| (s.start(t), s.finish(t), t));
        for w in row.windows(2) {
            if s.finish(w[0]) > s.start(w[1]) {
                return Err(ScheduleError::Overlap(p, w[0], w[1]));
            }
        }
    }

    // Precedence + communication delays.
    for t in g.tasks() {
        for (pred, comm) in g.preds(t) {
            let delay = if s.proc(pred) == s.proc(t) { 0 } else { comm };
            let required = s.finish(pred) + delay;
            if s.start(t) < required {
                return Err(ScheduleError::Precedence {
                    pred,
                    task: t,
                    required,
                    actual: s.start(t),
                });
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, Placement, ScheduleBuilder};
    use flb_graph::paper::fig1;
    use flb_graph::TaskGraphBuilder;

    fn two_task_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(2);
        let c = b.add_task(3);
        b.add_edge(a, c, 5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn valid_schedule_passes() {
        let g = two_task_graph();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place(TaskId(0), ProcId(0), 0);
        b.place(TaskId(1), ProcId(1), 7);
        assert_eq!(validate(&g, &b.build()), Ok(()));
    }

    #[test]
    fn same_proc_skips_comm_delay() {
        let g = two_task_graph();
        let s = Schedule::from_raw(
            1,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 2,
                },
                Placement {
                    proc: ProcId(0),
                    start: 2,
                    finish: 5,
                },
            ],
        );
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn detects_missing_comm_delay() {
        let g = two_task_graph();
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
                    start: 3,
                    finish: 6,
                },
            ],
        );
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::Precedence {
                pred: TaskId(0),
                task: TaskId(1),
                required: 7,
                actual: 3,
            })
        );
    }

    #[test]
    fn detects_overlap() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(4);
        b.add_task(4);
        let g = b.build().unwrap();
        let s = Schedule::from_raw(
            1,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 4,
                },
                Placement {
                    proc: ProcId(0),
                    start: 2,
                    finish: 6,
                },
            ],
        );
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::Overlap(ProcId(0), TaskId(0), TaskId(1)))
        );
    }

    #[test]
    fn detects_bad_duration() {
        let g = two_task_graph();
        let s = Schedule::from_raw(
            2,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 99,
                },
                Placement {
                    proc: ProcId(1),
                    start: 104,
                    finish: 107,
                },
            ],
        );
        assert_eq!(validate(&g, &s), Err(ScheduleError::BadDuration(TaskId(0))));
    }

    #[test]
    fn detects_bad_processor() {
        let g = two_task_graph();
        let s = Schedule::from_raw(
            1,
            vec![
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: 2,
                },
                Placement {
                    proc: ProcId(5),
                    start: 7,
                    finish: 10,
                },
            ],
        );
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::BadProcessor(TaskId(1), ProcId(5)))
        );
    }

    #[test]
    fn detects_wrong_task_count() {
        let g = two_task_graph();
        let s = Schedule::from_raw(
            1,
            vec![Placement {
                proc: ProcId(0),
                start: 0,
                finish: 2,
            }],
        );
        assert_eq!(
            validate(&g, &s),
            Err(ScheduleError::WrongTaskCount {
                scheduled: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn paper_table1_schedule_is_valid() {
        // The final schedule of Table 1:
        // p0: t0[0-2], t3[2-5], t2[5-7], t5[7-10], t7[12-14]
        // p1: t1[3-5], t4[5-8], t6[8-10]
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
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), 14);
    }

    #[test]
    fn error_display_strings() {
        let e = ScheduleError::Overlap(ProcId(1), TaskId(2), TaskId(3));
        assert_eq!(e.to_string(), "tasks t2 and t3 overlap on p1");
        let e = ScheduleError::WrongTaskCount {
            scheduled: 1,
            expected: 2,
        };
        assert_eq!(e.to_string(), "schedule has 1 tasks, graph has 2");
    }
}
