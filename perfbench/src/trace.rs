//! In-memory spans recorded around calls into the program's public
//! functions. Nothing inside the program is instrumented: the benchmark
//! opens a span, calls the layer, closes the span.
//!
//! Spans stay in memory while the run measures and are written out as TSV
//! once it ends. A span's self time is its duration minus the part of its
//! interval covered by its children.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `proto.decode`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Request id shared by all spans of one request.
    pub req: u64,
    /// Free tag (the algorithm's wire code for `core.schedule`).
    pub tag: u32,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        self.open_tagged(name, parent, req, 0)
    }

    /// Opens a tagged span and returns its id.
    pub fn open_tagged(&mut self, name: &'static str, parent: u32, req: u64, tag: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
            tag,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Writes every span as a TSV line: name, start, end, parent, request,
    /// tag (times in ns since the origin; parent -1 for roots).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\treq\ttag")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.req, s.tag
            )?;
        }
        w.flush()
    }
}

/// Self time of every span in ns: its duration minus the union of its
/// children's intervals, clipped to its own interval.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("request", 0, 100, ROOT),
            span("a", 10, 30, 0),
            span("b", 30, 50, 0),
            // Overlaps b: only the uncovered 50..60 counts again.
            span("c", 40, 60, 0),
            span("a.inner", 12, 20, 1),
            // A child sticking out of its parent only covers the overlap.
            span("late", 90, 130, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - (50 + 10), 20 - 8, 20, 20, 8, 40]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let r = a.open("request", ROOT, 1);
        a.close(r);
        let mut b = Tracer::new(origin);
        let r = b.open("request", ROOT, 2);
        let c = b.open("child", r, 2);
        b.close(c);
        b.close(r);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[1].parent, ROOT);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
