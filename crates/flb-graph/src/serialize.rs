//! Serialisation of task graphs.
//!
//! Two forms:
//!
//! * **data** — [`TaskGraphData`] is a plain-old-data mirror of
//!   [`TaskGraph`], convertible in both directions (the way back
//!   re-validates through the builder);
//! * **text** — a minimal line-oriented format for CLI interchange:
//!
//!   ```text
//!   # comment
//!   name laplace-4
//!   t <comp>          (one per task, ids assigned in order)
//!   e <src> <dst> <comm>
//!   ```

use crate::{Cost, GraphError, TaskGraph, TaskGraphBuilder, TaskId};
use std::fmt;

/// Plain-old-data mirror of [`TaskGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskGraphData {
    /// Graph name.
    pub name: String,
    /// Computation cost per task, indexed by task id.
    pub comp: Vec<Cost>,
    /// Edge list `(src, dst, comm)`.
    pub edges: Vec<(usize, usize, Cost)>,
}

impl From<&TaskGraph> for TaskGraphData {
    fn from(g: &TaskGraph) -> Self {
        let mut edges = Vec::with_capacity(g.num_edges());
        for t in g.tasks() {
            for (s, c) in g.succs(t) {
                edges.push((t.0, s.0, c));
            }
        }
        TaskGraphData {
            name: g.name().to_owned(),
            comp: g.tasks().map(|t| g.comp(t)).collect(),
            edges,
        }
    }
}

impl TryFrom<TaskGraphData> for TaskGraph {
    type Error = GraphError;

    fn try_from(data: TaskGraphData) -> Result<Self, Self::Error> {
        let mut b = TaskGraphBuilder::named(data.name);
        b.reserve(data.comp.len(), data.edges.len());
        for c in data.comp {
            b.add_task(c);
        }
        for (s, d, c) in data.edges {
            b.add_edge(TaskId(s), TaskId(d), c)?;
        }
        b.build()
    }
}

/// Errors from [`parse_text`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TextError {
    /// A line could not be parsed; carries the 1-based line number.
    Malformed(usize, String),
    /// The parsed graph failed validation.
    Graph(GraphError),
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextError::Malformed(line, msg) => write!(f, "line {line}: {msg}"),
            TextError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for TextError {}

impl From<GraphError> for TextError {
    fn from(e: GraphError) -> Self {
        TextError::Graph(e)
    }
}

/// Emits the line-oriented text format.
#[must_use]
pub fn to_text(g: &TaskGraph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if !g.name().is_empty() {
        writeln!(out, "name {}", g.name()).expect("write to string");
    }
    for t in g.tasks() {
        writeln!(out, "t {}", g.comp(t)).expect("write to string");
    }
    for t in g.tasks() {
        for (s, c) in g.succs(t) {
            writeln!(out, "e {} {} {}", t.0, s.0, c).expect("write to string");
        }
    }
    out
}

/// Parses the line-oriented text format (see module docs). Blank lines and
/// `#` comments are ignored.
pub fn parse_text(text: &str) -> Result<TaskGraph, TextError> {
    let mut name = String::new();
    let mut comp: Vec<Cost> = Vec::new();
    let mut edges: Vec<(usize, usize, Cost)> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("name") => {
                name = parts.collect::<Vec<_>>().join(" ");
            }
            Some("t") => {
                let c: Cost = parts
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| TextError::Malformed(lineno, "expected `t <comp>`".into()))?;
                comp.push(c);
            }
            Some("e") => {
                let mut next_num = || -> Option<u64> { parts.next()?.parse().ok() };
                let (s, d, c) = match (next_num(), next_num(), next_num()) {
                    (Some(s), Some(d), Some(c)) => (s as usize, d as usize, c),
                    _ => {
                        return Err(TextError::Malformed(
                            lineno,
                            "expected `e <src> <dst> <comm>`".into(),
                        ))
                    }
                };
                edges.push((s, d, c));
            }
            Some(other) => {
                return Err(TextError::Malformed(
                    lineno,
                    format!("unknown directive {other:?}"),
                ));
            }
            None => unreachable!("non-empty trimmed line"),
        }
    }

    TaskGraph::try_from(TaskGraphData { name, comp, edges }).map_err(TextError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::fig1;

    #[test]
    fn data_roundtrip() {
        let g = fig1();
        let data = TaskGraphData::from(&g);
        assert_eq!(data.comp.len(), 8);
        assert_eq!(data.edges.len(), 10);
        let g2 = TaskGraph::try_from(data.clone()).unwrap();
        assert_eq!(TaskGraphData::from(&g2), data);
    }

    #[test]
    fn data_rejects_invalid() {
        let data = TaskGraphData {
            name: String::new(),
            comp: vec![1, 1],
            edges: vec![(0, 1, 1), (1, 0, 1)],
        };
        assert_eq!(TaskGraph::try_from(data).unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn text_roundtrip() {
        let g = fig1();
        let text = to_text(&g);
        let g2 = parse_text(&text).unwrap();
        assert_eq!(g2.name(), "paper-fig1");
        assert_eq!(g2.num_tasks(), g.num_tasks());
        assert_eq!(g2.num_edges(), g.num_edges());
        for t in g.tasks() {
            assert_eq!(g2.comp(t), g.comp(t));
            assert!(g2.succs(t).eq(g.succs(t)));
        }
    }

    #[test]
    fn text_parsing_tolerates_comments_and_blanks() {
        let g = parse_text("# a graph\n\nname tiny\nt 3\nt 4\n\ne 0 1 7\n").unwrap();
        assert_eq!(g.name(), "tiny");
        assert_eq!(g.num_tasks(), 2);
        assert_eq!(g.edge_comm(TaskId(0), TaskId(1)), Some(7));
    }

    #[test]
    fn text_parse_errors() {
        assert!(matches!(
            parse_text("t notanumber"),
            Err(TextError::Malformed(1, _))
        ));
        assert!(matches!(
            parse_text("t 1\ne 0"),
            Err(TextError::Malformed(2, _))
        ));
        assert!(matches!(
            parse_text("frobnicate 1"),
            Err(TextError::Malformed(1, _))
        ));
        assert!(matches!(
            parse_text("t 1\nt 1\ne 0 5 1"),
            Err(TextError::Graph(GraphError::UnknownTask(TaskId(5))))
        ));
    }

    #[test]
    fn text_error_display() {
        let e = TextError::Malformed(3, "boom".into());
        assert_eq!(e.to_string(), "line 3: boom");
        assert_eq!(
            TextError::Graph(GraphError::Cycle).to_string(),
            "invalid graph: task graph contains a cycle"
        );
    }
}
