//! ASCII Gantt-chart rendering of schedules.

use crate::{ProcId, Schedule};
use flb_graph::TaskGraph;
use std::fmt::Write as _;

/// Renders the schedule as an ASCII Gantt chart, one row per processor,
/// scaled to at most `width` character columns.
///
/// Each task paints its interval with its id (`[t12  ]`-style when room
/// allows, a bare `#` run otherwise); idle time is rendered as `.`.
#[must_use]
pub fn render(g: &TaskGraph, s: &Schedule, width: usize) -> String {
    let width = width.clamp(20, 400);
    let span = s.makespan().max(1);
    let scale = width as f64 / span as f64;
    let mut out = String::new();
    writeln!(out, "makespan = {span}").expect("write to string");
    let _ = g; // the graph parameter keeps the API uniform; ids are enough
    for p in 0..s.num_procs() {
        let mut row = vec![b'.'; width];
        for &t in s.tasks_on(ProcId(p)) {
            let pl = s.placement(t);
            let a = ((pl.start as f64 * scale) as usize).min(width - 1);
            let b = ((pl.finish as f64 * scale).ceil() as usize).clamp(a + 1, width);
            let label = format!("t{}", t.0);
            let cell = &mut row[a..b];
            for c in cell.iter_mut() {
                *c = b'#';
            }
            // Overlay the label if it fits inside the bar.
            if label.len() <= cell.len() {
                cell[..label.len()].copy_from_slice(label.as_bytes());
            }
        }
        writeln!(
            out,
            "p{p:<3}|{}|",
            String::from_utf8(row).expect("ASCII row")
        )
        .expect("write to string");
    }
    out
}

/// Renders the schedule as a standalone SVG document (one lane per
/// processor, one rectangle per task with an id label, a time axis along
/// the bottom). Suitable for reports; `width` is the drawing width in
/// pixels.
#[must_use]
pub fn render_svg(g: &TaskGraph, s: &Schedule, width: u32) -> String {
    const LANE_H: u32 = 28;
    const LANE_GAP: u32 = 6;
    const LEFT: u32 = 44;
    const TOP: u32 = 8;
    const AXIS_H: u32 = 24;

    let width = width.clamp(200, 4000);
    let span = s.makespan().max(1) as f64;
    let plot_w = (width - LEFT - 8) as f64;
    let scale = plot_w / span;
    let procs = s.num_procs() as u32;
    let height = TOP + procs * (LANE_H + LANE_GAP) + AXIS_H;

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="monospace" font-size="11">"#
    );
    let _ = writeln!(
        out,
        r#"<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>"#
    );

    // A small qualitative palette, cycled per task id.
    const PALETTE: [&str; 6] = [
        "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2",
    ];

    for p in 0..s.num_procs() {
        let y = TOP + p as u32 * (LANE_H + LANE_GAP);
        let _ = writeln!(
            out,
            r#"<text x="4" y="{}" dominant-baseline="middle">p{p}</text>"#,
            y + LANE_H / 2
        );
        let _ = writeln!(
            out,
            r##"<rect x="{LEFT}" y="{y}" width="{plot_w:.1}" height="{LANE_H}" fill="#f2f2f2"/>"##
        );
        for &t in s.tasks_on(ProcId(p)) {
            let pl = s.placement(t);
            let x = LEFT as f64 + pl.start as f64 * scale;
            let w = ((pl.finish - pl.start) as f64 * scale).max(1.0);
            let colour = PALETTE[t.0 % PALETTE.len()];
            let _ = writeln!(
                out,
                r#"<rect x="{x:.1}" y="{y}" width="{w:.1}" height="{LANE_H}" fill="{colour}" stroke="white"><title>t{}: [{} - {}] comp {}</title></rect>"#,
                t.0,
                pl.start,
                pl.finish,
                g.comp(t)
            );
            if w >= 22.0 {
                let _ = writeln!(
                    out,
                    r#"<text x="{:.1}" y="{}" fill="white" dominant-baseline="middle">t{}</text>"#,
                    x + 3.0,
                    y + LANE_H / 2,
                    t.0
                );
            }
        }
    }

    // Time axis: origin, midpoint, makespan.
    let axis_y = TOP + procs * (LANE_H + LANE_GAP) + 12;
    for (frac, label) in [(0.0, 0), (0.5, s.makespan() / 2), (1.0, s.makespan())] {
        let x = LEFT as f64 + plot_w * frac;
        let _ = writeln!(
            out,
            r#"<text x="{x:.1}" y="{axis_y}" text-anchor="middle">{label}</text>"#
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, ScheduleBuilder};
    use flb_graph::paper::fig1;
    use flb_graph::TaskId;

    #[test]
    fn renders_all_rows_and_labels() {
        let g = fig1();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&g, &m);
        // Table 1 final schedule.
        b.place(TaskId(0), ProcId(0), 0);
        b.place(TaskId(3), ProcId(0), 2);
        b.place(TaskId(1), ProcId(1), 3);
        b.place(TaskId(2), ProcId(0), 5);
        b.place(TaskId(4), ProcId(1), 5);
        b.place(TaskId(5), ProcId(0), 7);
        b.place(TaskId(6), ProcId(1), 8);
        b.place(TaskId(7), ProcId(0), 12);
        let s = b.build();
        let chart = render(&g, &s, 70);
        assert!(chart.starts_with("makespan = 14"));
        assert_eq!(chart.lines().count(), 3); // header + 2 processors
        assert!(chart.contains("p0"));
        assert!(chart.contains("p1"));
        assert!(chart.contains("t0"));
        assert!(chart.contains("t7"));
        // Idle gap before t7 on p0 shows as dots.
        assert!(chart.contains('.'));
    }

    #[test]
    fn svg_contains_all_tasks_and_axis() {
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
        let svg = render_svg(&g, &s, 600);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One titled rect per task.
        for t in 0..8 {
            assert!(svg.contains(&format!("<title>t{t}:")), "missing t{t}");
        }
        // Axis shows the makespan.
        assert!(svg.contains(">14</text>"));
        // Two processor lane labels.
        assert!(svg.contains(">p0</text>"));
        assert!(svg.contains(">p1</text>"));
    }

    #[test]
    fn svg_width_clamped_and_wellformed_for_tiny_input() {
        let g = fig1();
        let m = Machine::new(1);
        let mut b = ScheduleBuilder::new(&g, &m);
        for t in g.topological_order() {
            let start = b.est(t, ProcId(0));
            b.place(t, ProcId(0), start);
        }
        let svg = render_svg(&g, &b.build(), 1);
        assert!(svg.contains(r#"width="200""#)); // clamped lower bound
        assert_eq!(svg.matches("<svg ").count(), 1);
        assert_eq!(svg.matches("</svg>").count(), 1);
    }

    #[test]
    fn width_is_clamped() {
        let g = fig1();
        let m = Machine::new(1);
        let mut b = ScheduleBuilder::new(&g, &m);
        let mut clock = 0;
        for t in g.topological_order() {
            let start = b.est(t, ProcId(0)).max(clock);
            b.place(t, ProcId(0), start);
            clock = start + g.comp(t);
        }
        let s = b.build();
        let tiny = render(&g, &s, 1);
        // Row length = clamp(1, 20..400) + prefix "p0  |" + "|".
        let row = tiny.lines().nth(1).unwrap();
        assert_eq!(row.len(), 4 + 1 + 20 + 1);
    }
}
