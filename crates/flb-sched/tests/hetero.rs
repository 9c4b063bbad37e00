//! Related-processors (heterogeneous) machine model: builder, validator and
//! metrics behaviour. The paper's machines are homogeneous; this extension
//! follows the authors' own follow-up direction and DLS's native setting.

use flb_graph::{TaskGraphBuilder, TaskId};
use flb_sched::validate::{validate, ScheduleError};
use flb_sched::{io, Machine, Placement, ProcId, Schedule, ScheduleBuilder};

fn two_chain() -> flb_graph::TaskGraph {
    let mut b = TaskGraphBuilder::new();
    let a = b.add_task(4);
    let c = b.add_task(6);
    b.add_edge(a, c, 5).unwrap();
    b.build().unwrap()
}

#[test]
fn builder_applies_slowdowns() {
    let g = two_chain();
    let m = Machine::related(vec![1, 3]);
    let mut b = ScheduleBuilder::new(&g, &m);
    b.place(TaskId(0), ProcId(1), 0);
    // comp 4 on a 3x slower processor runs 12 time units.
    assert_eq!(b.ft(TaskId(0)), 12);
    assert_eq!(b.prt(ProcId(1)), 12);
    // Successor on the fast processor: message arrives at 12 + 5 = 17,
    // executes in 6.
    let est = b.est(TaskId(1), ProcId(0));
    assert_eq!(est, 17);
    b.place(TaskId(1), ProcId(0), est);
    let s = b.build();
    assert_eq!(s.makespan(), 23);
    assert_eq!(validate(&g, &s), Ok(()));
}

#[test]
fn validator_checks_hetero_durations() {
    let g = two_chain();
    let m = Machine::related(vec![1, 3]);
    // Correct on p1: 4 * 3 = 12.
    let ok = Schedule::from_raw_on(
        m.clone(),
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
    assert_eq!(validate(&g, &ok), Ok(()));
    // Homogeneous duration on a slow processor must be rejected.
    let bad = Schedule::from_raw_on(
        m,
        vec![
            Placement {
                proc: ProcId(1),
                start: 0,
                finish: 4,
            },
            Placement {
                proc: ProcId(0),
                start: 9,
                finish: 15,
            },
        ],
    );
    assert_eq!(
        validate(&g, &bad),
        Err(ScheduleError::BadDuration(TaskId(0)))
    );
}

#[test]
fn speedup_uses_fastest_class() {
    // Two independent comp-6 tasks; machine [1, 2]. Best sequential = 12
    // (fast processor). Parallel: fast does one in 6, slow in 12 ->
    // makespan 12, speedup 1.0 (the slow processor adds nothing here).
    let mut b = TaskGraphBuilder::new();
    b.add_task(6);
    b.add_task(6);
    let g = b.build().unwrap();
    let m = Machine::related(vec![1, 2]);
    let mut sb = ScheduleBuilder::new(&g, &m);
    sb.place(TaskId(0), ProcId(0), 0);
    sb.place(TaskId(1), ProcId(1), 0);
    let s = sb.build();
    assert_eq!(s.makespan(), 12);
    assert_eq!(flb_sched::metrics::speedup(&g, &s), 1.0);
    // Idle accounting: p0 idles 6 of the 12 units.
    assert_eq!(flb_sched::metrics::total_idle(&g, &s), 6);
    assert_eq!(flb_sched::metrics::utilisation(&g, &s), vec![0.5, 1.0]);
}

#[test]
fn est_insertion_respects_speed() {
    // A gap of 8 time units fits comp 4 on the fast proc but not on a
    // 3x-slower one.
    let mut gb = TaskGraphBuilder::new();
    gb.add_task(1); // t0 creates the gap edge
    gb.add_task(1);
    gb.add_task(4); // t2: needs 4 (fast) or 12 (slow)
    let g = gb.build().unwrap();
    let m = Machine::related(vec![1, 3]);
    let mut b = ScheduleBuilder::new(&g, &m);
    b.place_insert(TaskId(0), ProcId(0), 0); // busy [0, 1)
    b.place_insert(TaskId(1), ProcId(0), 9); // busy [9, 10): gap [1, 9)
    assert_eq!(b.est_insertion(TaskId(2), ProcId(0)), 1); // 4 fits in 8
                                                          // On the slow processor the same task would need 12 units; the only
                                                          // slot is the end of its (empty) timeline: 0.
    assert_eq!(b.est_insertion(TaskId(2), ProcId(1)), 0);
}

#[test]
fn text_io_roundtrips_speeds() {
    let g = two_chain();
    let m = Machine::related(vec![1, 3]);
    let mut b = ScheduleBuilder::new(&g, &m);
    b.place(TaskId(0), ProcId(1), 0);
    b.place(TaskId(1), ProcId(0), 17);
    let s = b.build();
    let text = io::to_text(&s);
    assert!(text.contains("speeds 1 3"));
    let back = io::parse_text(&text).unwrap();
    assert_eq!(back, s);
    assert_eq!(validate(&g, &back), Ok(()));
    // The data mirror too.
    let data = io::ScheduleData::from(&s);
    assert_eq!(data.slowdowns, vec![1, 3]);
    let back2: Schedule = data.into();
    assert_eq!(back2, s);
}

#[test]
fn speeds_header_mismatch_rejected() {
    let r = io::parse_text("procs 2\nspeeds 1 2 3\ns 0 0 0 1\ns 1 1 1 2\n");
    assert!(r.is_err());
    let r = io::parse_text("procs 2\nspeeds 1 zero\ns 0 0 0 1\n");
    assert!(r.is_err());
}

#[test]
fn homogeneous_behaviour_is_unchanged() {
    // Machine::new must behave exactly as before the extension.
    let g = two_chain();
    let m = Machine::new(2);
    assert!(m.is_homogeneous());
    let mut b = ScheduleBuilder::new(&g, &m);
    b.place(TaskId(0), ProcId(0), 0);
    assert_eq!(b.ft(TaskId(0)), 4);
    b.place(TaskId(1), ProcId(0), 4);
    let s = b.build();
    assert_eq!(s.makespan(), 10);
    assert!(!io::to_text(&s).contains("speeds"));
}
