//! STG — the Standard Task Graph Set format (Kasahara Lab., Waseda
//! University), the de-facto benchmark interchange format of the task-
//! scheduling literature.
//!
//! An STG file is line-oriented:
//!
//! ```text
//! <number of tasks>
//! <id> <comp> <npred> [<pred id> ...]     (one line per task)
//! # trailing comment lines
//! ```
//!
//! Conventionally task 0 is a zero-cost dummy entry and the last task a
//! zero-cost dummy exit; ids are consecutive and predecessors precede their
//! consumers. STG carries **no communication costs** (the set targets
//! no-communication scheduling); [`parse_stg_with_comm`] assigns each edge
//! a cost from a caller-provided function (e.g. a [`crate::costs::Dist`]
//! sample), and [`parse_stg`] uses unit costs — re-weight with
//! [`crate::costs::CostModel::apply`] for CCR-controlled experiments.
//!
//! STG's zero-cost dummy entry/exit tasks are clamped to computation cost 1
//! (this system keeps all costs positive); at benchmark sizes the
//! distortion is far below the cost noise.

use crate::{Cost, GraphError, TaskGraph, TaskGraphBuilder, TaskId};
use std::fmt;

/// Errors from [`parse_stg`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StgError {
    /// A line failed to parse (1-based line number).
    Malformed(usize, String),
    /// The declared task count disagrees with the task lines present.
    CountMismatch {
        /// Count from the header line.
        declared: usize,
        /// Task lines actually parsed.
        found: usize,
    },
    /// The assembled graph failed validation.
    Graph(GraphError),
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::Malformed(line, msg) => write!(f, "line {line}: {msg}"),
            StgError::CountMismatch { declared, found } => {
                write!(f, "header declares {declared} tasks, file has {found}")
            }
            StgError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for StgError {}

impl From<GraphError> for StgError {
    fn from(e: GraphError) -> Self {
        StgError::Graph(e)
    }
}

/// Parses STG text with unit communication costs.
pub fn parse_stg(text: &str) -> Result<TaskGraph, StgError> {
    parse_stg_with_comm(text, |_, _| 1)
}

/// Parses STG text, assigning `comm(src, dst)` to each edge.
pub fn parse_stg_with_comm(
    text: &str,
    mut comm: impl FnMut(TaskId, TaskId) -> Cost,
) -> Result<TaskGraph, StgError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (lineno, header) = lines
        .next()
        .ok_or_else(|| StgError::Malformed(0, "empty file".into()))?;
    let declared: usize = header
        .split_ascii_whitespace()
        .next()
        .and_then(|x| x.parse().ok())
        .ok_or_else(|| StgError::Malformed(lineno, "expected task count header".into()))?;

    struct Row {
        comp: Cost,
        preds: Vec<usize>,
    }
    // The declared count is untrusted input: a forged header must not
    // size the allocation. Every real row takes at least two bytes of
    // text, so this clamp never shrinks a legitimate preallocation.
    let mut rows: Vec<Row> = Vec::with_capacity(declared.min(text.len() / 2));
    for (lineno, line) in lines {
        let mut it = line.split_ascii_whitespace();
        let parse_num = |s: Option<&str>, what: &str| -> Result<u64, StgError> {
            s.and_then(|x| x.parse().ok())
                .ok_or_else(|| StgError::Malformed(lineno, format!("expected {what}")))
        };
        let id = parse_num(it.next(), "task id")? as usize;
        if id != rows.len() {
            return Err(StgError::Malformed(
                lineno,
                format!(
                    "task ids must be consecutive: expected {}, got {id}",
                    rows.len()
                ),
            ));
        }
        let comp = parse_num(it.next(), "computation cost")?;
        let npred = parse_num(it.next(), "predecessor count")? as usize;
        // Untrusted count: each predecessor needs at least two bytes on
        // the line (digit + separator), so the clamp only rejects lies.
        let mut preds = Vec::with_capacity(npred.min(line.len() / 2));
        for _ in 0..npred {
            preds.push(parse_num(it.next(), "predecessor id")? as usize);
        }
        if it.next().is_some() {
            return Err(StgError::Malformed(lineno, "trailing fields".into()));
        }
        rows.push(Row {
            comp: comp.max(1), // clamp STG's zero-cost dummies
            preds,
        });
    }

    if rows.len() != declared {
        return Err(StgError::CountMismatch {
            declared,
            found: rows.len(),
        });
    }

    let mut b = TaskGraphBuilder::named("stg");
    b.reserve(rows.len(), rows.iter().map(|r| r.preds.len()).sum());
    for row in &rows {
        b.add_task(row.comp);
    }
    for (i, row) in rows.iter().enumerate() {
        let dst = TaskId(i);
        for &p in &row.preds {
            let src = TaskId(p);
            if p >= rows.len() {
                return Err(StgError::Graph(GraphError::UnknownTask(src)));
            }
            b.add_edge(src, dst, comm(src, dst))?;
        }
    }
    Ok(b.build()?)
}

/// Emits a graph in STG syntax (communication costs are not representable
/// and are dropped; a comment records that).
#[must_use]
pub fn to_stg(g: &TaskGraph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}", g.num_tasks());
    for t in g.tasks() {
        let _ = write!(out, "{} {} {}", t.0, g.comp(t), g.in_degree(t));
        for (p, _) in g.preds(t) {
            let _ = write!(out, " {}", p.0);
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "# exported by flb; communication costs omitted (STG has none)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    const SAMPLE: &str = "\
5
0 0 0
1 4 1 0
2 7 1 0
3 3 2 1 2
4 0 1 3
# a classic 5-node STG with dummy entry/exit
";

    #[test]
    fn parses_sample() {
        let g = parse_stg(SAMPLE).unwrap();
        assert_eq!(g.num_tasks(), 5);
        assert_eq!(g.num_edges(), 5);
        // Zero-cost dummies clamped to 1.
        assert_eq!(g.comp(TaskId(0)), 1);
        assert_eq!(g.comp(TaskId(4)), 1);
        assert_eq!(g.comp(TaskId(2)), 7);
        assert_eq!(g.preds(TaskId(3)).len(), 2);
        assert_eq!(g.entry_tasks().count(), 1);
        assert_eq!(g.exit_tasks().count(), 1);
    }

    #[test]
    fn custom_comm_function() {
        let g = parse_stg_with_comm(SAMPLE, |s, d| (s.0 + d.0) as Cost * 10).unwrap();
        assert_eq!(g.edge_comm(TaskId(1), TaskId(3)), Some(40));
        assert_eq!(g.edge_comm(TaskId(0), TaskId(2)), Some(20));
    }

    #[test]
    fn roundtrip_through_stg() {
        let original = gen::lu(6);
        let text = to_stg(&original);
        let back = parse_stg(&text).unwrap();
        assert_eq!(back.num_tasks(), original.num_tasks());
        assert_eq!(back.num_edges(), original.num_edges());
        for t in original.tasks() {
            assert_eq!(back.comp(t), original.comp(t));
            let p0: Vec<TaskId> = original.preds(t).map(|(p, _)| p).collect();
            let p1: Vec<TaskId> = back.preds(t).map(|(p, _)| p).collect();
            assert_eq!(p0, p1);
        }
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(parse_stg(""), Err(StgError::Malformed(0, _))));
        assert!(matches!(parse_stg("abc"), Err(StgError::Malformed(1, _))));
        // Non-consecutive id.
        assert!(matches!(
            parse_stg("2\n0 1 0\n5 1 0"),
            Err(StgError::Malformed(3, _))
        ));
        // Wrong npred arity.
        assert!(matches!(
            parse_stg("2\n0 1 0\n1 1 2 0"),
            Err(StgError::Malformed(3, _))
        ));
        // Trailing fields.
        assert!(matches!(
            parse_stg("1\n0 1 0 7"),
            Err(StgError::Malformed(2, _))
        ));
        // Count mismatch.
        assert!(matches!(
            parse_stg("3\n0 1 0\n1 1 1 0"),
            Err(StgError::CountMismatch {
                declared: 3,
                found: 2
            })
        ));
        // Predecessor id beyond the declared range.
        assert!(matches!(
            parse_stg("2\n0 1 0\n1 1 1 5"),
            Err(StgError::Graph(GraphError::UnknownTask(TaskId(5))))
        ));
        // A backward edge (task 0 depending on task 1) is structurally fine
        // for the parser and must simply build as a DAG.
        assert!(parse_stg("2\n0 1 1 1\n1 1 0").is_ok());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            StgError::CountMismatch {
                declared: 3,
                found: 2
            }
            .to_string(),
            "header declares 3 tasks, file has 2"
        );
    }
}
