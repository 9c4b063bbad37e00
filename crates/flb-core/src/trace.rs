//! Execution tracing in the format of the paper's Table 1.
//!
//! Before every scheduling decision the tracer snapshots the three kinds of
//! ready-task lists exactly as Table 1 prints them:
//!
//! * per processor, the EP-type tasks it enables, ascending by
//!   `EMT(t, EP(t))`, each shown as `t[EST(t,p); BL/LMT]`;
//! * the non-EP-type tasks ascending by `LMT`, shown as `t[LMT]`;
//! * the decision `t -> p, [ST - FT]`.
//!
//! (Table 1's first bracketed figure for EP tasks is the start time the
//! task would get on its enabling processor at snapshot time, i.e.
//! `max(EMT, PRT)` — this reproduces the printed values.)

use crate::run::{FlbRun, Step};
use flb_graph::{TaskGraph, TaskId, Time};
use flb_sched::{Machine, Schedule, TieBreak};
use std::fmt::Write as _;

/// Snapshot of one EP-list entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpEntry {
    /// The task.
    pub task: TaskId,
    /// `EST(t, EP(t))` at snapshot time (Table 1's first figure).
    pub est_on_ep: Time,
    /// Static bottom level (Table 1's `BL`).
    pub bottom_level: Time,
    /// `LMT(t)` (Table 1's denominator).
    pub lmt: Time,
}

/// Snapshot of one non-EP-list entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NonEpEntry {
    /// The task.
    pub task: TaskId,
    /// `LMT(t)`.
    pub lmt: Time,
}

/// One row of the execution trace: the lists as seen just before a
/// scheduling decision, plus the decision itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRow {
    /// EP-type tasks per processor (index = processor id), in list order.
    pub ep_lists: Vec<Vec<EpEntry>>,
    /// Non-EP-type tasks in list order.
    pub non_ep: Vec<NonEpEntry>,
    /// The decision taken from this state.
    pub step: Step,
}

/// Runs FLB on `graph`/`machine` collecting a [`TraceRow`] per iteration.
#[must_use]
pub fn trace(
    graph: &TaskGraph,
    machine: &Machine,
    tie_break: TieBreak,
) -> (Schedule, Vec<TraceRow>) {
    let mut run = FlbRun::new(graph, machine, tie_break);
    let mut rows = Vec::with_capacity(graph.num_tasks());
    // One scratch buffer reused across every per-step snapshot, so the
    // tracing loop adds no per-step list allocations beyond the rows it
    // actually returns (the `_into` observer variants never clone a heap).
    let mut scratch: Vec<TaskId> = Vec::new();
    loop {
        let snapshot = snapshot_lists(&run, machine, &mut scratch);
        match run.step() {
            Some(step) => rows.push(TraceRow {
                ep_lists: snapshot.0,
                non_ep: snapshot.1,
                step,
            }),
            None => break,
        }
    }
    (run.finish(), rows)
}

fn snapshot_lists(
    run: &FlbRun<'_>,
    machine: &Machine,
    scratch: &mut Vec<TaskId>,
) -> (Vec<Vec<EpEntry>>, Vec<NonEpEntry>) {
    let ep_lists = machine
        .procs()
        .map(|p| {
            run.ep_tasks_of_into(p, scratch);
            scratch
                .iter()
                .map(|&t| EpEntry {
                    task: t,
                    est_on_ep: run.emt_on_ep_of(t).max(run.builder().prt(p)),
                    bottom_level: run.bottom_level_of(t),
                    lmt: run.lmt_of(t),
                })
                .collect()
        })
        .collect();
    run.non_ep_tasks_into(scratch);
    let non_ep = scratch
        .iter()
        .map(|&t| NonEpEntry {
            task: t,
            lmt: run.lmt_of(t),
        })
        .collect();
    (ep_lists, non_ep)
}

/// Renders the trace as a text table in the style of the paper's Table 1.
#[must_use]
pub fn render(rows: &[TraceRow]) -> String {
    let procs = rows.first().map_or(0, |r| r.ep_lists.len());
    let mut cols: Vec<String> = (0..procs).map(|p| format!("EP tasks on p{p}")).collect();
    cols.push("non-EP tasks".to_owned());
    cols.push("scheduling".to_owned());

    let mut table: Vec<Vec<String>> = vec![cols];
    for row in rows {
        let mut cells = Vec::with_capacity(procs + 2);
        for list in &row.ep_lists {
            let cell = list
                .iter()
                .map(|e| {
                    format!(
                        "t{}[{}; {}/{}]",
                        e.task.0, e.est_on_ep, e.bottom_level, e.lmt
                    )
                })
                .collect::<Vec<_>>()
                .join(" ");
            cells.push(if cell.is_empty() {
                "-".to_owned()
            } else {
                cell
            });
        }
        let non_ep = row
            .non_ep
            .iter()
            .map(|e| format!("t{}[{}]", e.task.0, e.lmt))
            .collect::<Vec<_>>()
            .join(" ");
        cells.push(if non_ep.is_empty() {
            "-".to_owned()
        } else {
            non_ep
        });
        cells.push(format!(
            "t{} -> p{}, [{} - {}]",
            row.step.task.0, row.step.proc.0, row.step.start, row.step.finish
        ));
        table.push(cells);
    }

    // Column widths.
    let ncols = table[0].len();
    let widths: Vec<usize> = (0..ncols)
        .map(|c| table.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for (i, row) in table.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", cell, w = widths[c]);
        }
        out.truncate(out.trim_end().len());
        out.push('\n');
        if i == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Renders the trace as CSV — one row per list entry per iteration, plus a
/// `decision` row — for external analysis tools.
///
/// Columns: `iteration,kind,task,proc,est,bottom_level,lmt,start,finish`
/// (`kind` ∈ `ep | non_ep | decision`; unused fields are empty).
#[must_use]
pub fn to_csv(rows: &[TraceRow]) -> String {
    let mut out = String::from("iteration,kind,task,proc,est,bottom_level,lmt,start,finish\n");
    for (i, row) in rows.iter().enumerate() {
        for (p, list) in row.ep_lists.iter().enumerate() {
            for e in list {
                let _ = writeln!(
                    out,
                    "{i},ep,t{},p{p},{},{},{},,",
                    e.task.0, e.est_on_ep, e.bottom_level, e.lmt
                );
            }
        }
        for e in &row.non_ep {
            let _ = writeln!(out, "{i},non_ep,t{},,,,{},,", e.task.0, e.lmt);
        }
        let _ = writeln!(
            out,
            "{i},decision,t{},p{},,,,{},{}",
            row.step.task.0, row.step.proc.0, row.step.start, row.step.finish
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;
    use flb_sched::ProcId;

    /// Full reproduction of Table 1: list contents (with EST/BL/LMT
    /// annotations) and decisions, row by row.
    #[test]
    fn table1_rows_match_paper() {
        let g = fig1();
        let m = Machine::new(2);
        let (s, rows) = trace(&g, &m, TieBreak::BottomLevel);
        assert_eq!(s.makespan(), 14);
        assert_eq!(rows.len(), 8);

        let ep = |t: usize, est: Time, bl: Time, lmt: Time| EpEntry {
            task: TaskId(t),
            est_on_ep: est,
            bottom_level: bl,
            lmt,
        };
        let ne = |t: usize, lmt: Time| NonEpEntry {
            task: TaskId(t),
            lmt,
        };

        // Row 1: only t0 ready (non-EP); schedule t0 -> p0 [0-2].
        assert!(rows[0].ep_lists[0].is_empty() && rows[0].ep_lists[1].is_empty());
        assert_eq!(rows[0].non_ep, vec![ne(0, 0)]);
        assert_eq!(rows[0].step.task, TaskId(0));

        // Row 2: t3[2;12/3] t1[2;11/3] t2[2;9/6] on p0; t3 -> p0 [2-5].
        assert_eq!(
            rows[1].ep_lists[0],
            vec![ep(3, 2, 12, 3), ep(1, 2, 11, 3), ep(2, 2, 9, 6)]
        );
        assert!(rows[1].non_ep.is_empty());
        assert_eq!(rows[1].step.task, TaskId(3));

        // Row 3: t2 stays EP on p0 (EST now 5); t1[3] non-EP; t1 -> p1 [3-5].
        assert_eq!(rows[2].ep_lists[0], vec![ep(2, 5, 9, 6)]);
        assert_eq!(rows[2].non_ep, vec![ne(1, 3)]);
        assert_eq!(rows[2].step.task, TaskId(1));
        assert_eq!(rows[2].step.proc, ProcId(1));

        // Row 4: p0: t2, t5; p1: t4; no non-EP; t2 -> p0 [5-7].
        assert_eq!(rows[3].ep_lists[0], vec![ep(2, 5, 9, 6), ep(5, 6, 8, 6)]);
        assert_eq!(rows[3].ep_lists[1], vec![ep(4, 5, 6, 7)]);
        assert!(rows[3].non_ep.is_empty());
        assert_eq!(rows[3].step.task, TaskId(2));

        // Row 5: p0: t6[7;6/8]; p1: t4[5;6/7]; non-EP t5[6]; t4 -> p1 [5-8].
        assert_eq!(rows[4].ep_lists[0], vec![ep(6, 7, 6, 8)]);
        assert_eq!(rows[4].ep_lists[1], vec![ep(4, 5, 6, 7)]);
        assert_eq!(rows[4].non_ep, vec![ne(5, 6)]);
        assert_eq!(rows[4].step.task, TaskId(4));

        // Row 6: p0: t6; non-EP t5[6]; tie at 7 prefers non-EP: t5 -> p0.
        assert_eq!(rows[5].ep_lists[0], vec![ep(6, 7, 6, 8)]);
        assert_eq!(rows[5].non_ep, vec![ne(5, 6)]);
        assert_eq!(rows[5].step.task, TaskId(5));
        assert_eq!(rows[5].step.proc, ProcId(0));
        assert!(!rows[5].step.from_ep_list);

        // Row 7: t6 demoted to non-EP (t6[8]); t6 -> p1 [8-10].
        assert!(rows[6].ep_lists[0].is_empty());
        assert_eq!(rows[6].non_ep, vec![ne(6, 8)]);
        assert_eq!(rows[6].step.task, TaskId(6));
        assert_eq!(rows[6].step.proc, ProcId(1));

        // Row 8: t7[12;2/13] EP on p0; t7 -> p0 [12-14].
        assert_eq!(rows[7].ep_lists[0], vec![ep(7, 12, 2, 13)]);
        assert!(rows[7].non_ep.is_empty());
        assert_eq!(rows[7].step.task, TaskId(7));
        assert_eq!((rows[7].step.start, rows[7].step.finish), (12, 14));
    }

    #[test]
    fn render_produces_readable_table() {
        let g = fig1();
        let m = Machine::new(2);
        let (_, rows) = trace(&g, &m, TieBreak::BottomLevel);
        let text = render(&rows);
        assert!(text.contains("EP tasks on p0"));
        assert!(text.contains("non-EP tasks"));
        assert!(text.contains("t3[2; 12/3]"));
        assert!(text.contains("t0 -> p0, [0 - 2]"));
        assert!(text.contains("t7 -> p0, [12 - 14]"));
        // Header + separator + 8 rows.
        assert_eq!(text.lines().count(), 10);
    }

    #[test]
    fn csv_export_covers_all_rows() {
        let g = fig1();
        let m = Machine::new(2);
        let (_, rows) = trace(&g, &m, TieBreak::BottomLevel);
        let csv = to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "iteration,kind,task,proc,est,bottom_level,lmt,start,finish"
        );
        // Exactly 8 decision rows, one per task.
        assert_eq!(csv.matches(",decision,").count(), 8);
        // Row 2's EP entries are present with their Table 1 annotations.
        assert!(csv.contains("1,ep,t3,p0,2,12,3,,"));
        assert!(csv.contains("1,ep,t1,p0,2,11,3,,"));
        // The final decision row.
        assert!(csv.contains("7,decision,t7,p0,,,,12,14"));
        // Every line has the same number of commas (well-formed CSV).
        assert!(lines.iter().all(|l| l.matches(',').count() == 8));
    }

    #[test]
    fn render_empty_trace() {
        assert_eq!(
            render(&[]),
            "non-EP tasks  scheduling\n------------------------\n"
        );
    }
}
