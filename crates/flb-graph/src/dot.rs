//! Graphviz DOT export for task graphs.

use crate::TaskGraph;
use std::fmt::Write as _;

/// Renders the graph in Graphviz DOT syntax. Node labels show the task id
/// and computation cost; edge labels show the communication cost.
#[must_use]
pub fn to_dot(g: &TaskGraph) -> String {
    let mut out = String::new();
    let name = if g.name().is_empty() {
        "taskgraph"
    } else {
        g.name()
    };
    // DOT identifiers cannot contain '-' unless quoted.
    writeln!(out, "digraph \"{name}\" {{").expect("write to string");
    writeln!(out, "  rankdir=TB;").expect("write to string");
    for t in g.tasks() {
        writeln!(out, "  t{} [label=\"t{}\\n{}\"];", t.0, t.0, g.comp(t)).expect("write");
    }
    for t in g.tasks() {
        for (s, c) in g.succs(t) {
            writeln!(out, "  t{} -> t{} [label=\"{}\"];", t.0, s.0, c).expect("write");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::fig1;
    use crate::TaskGraphBuilder;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let g = fig1();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph \"paper-fig1\" {"));
        for i in 0..8 {
            assert!(dot.contains(&format!("t{i} [label=")));
        }
        assert!(dot.contains("t0 -> t2 [label=\"4\"];"));
        assert!(dot.contains("t5 -> t7 [label=\"3\"];"));
        assert!(dot.ends_with("}\n"));
        assert_eq!(dot.matches(" -> ").count(), g.num_edges());
    }

    #[test]
    fn unnamed_graph_gets_default_name() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(1);
        let g = b.build().unwrap();
        assert!(to_dot(&g).starts_with("digraph \"taskgraph\" {"));
    }
}
