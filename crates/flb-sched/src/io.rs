//! Schedule serialisation: a serde-friendly mirror, a line-oriented text
//! format for CLI interchange, and the binary [`wire`] codec the
//! `flb-service` protocol rides on.
//!
//! Text format:
//!
//! ```text
//! # comment
//! procs 4
//! speeds 1 1 2 4                       (optional: per-proc slowdowns)
//! s <task> <proc> <start> <finish>    (one line per task, any order)
//! ```

use crate::{Placement, ProcId, Schedule};
use flb_graph::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Serde-friendly mirror of [`Schedule`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleData {
    /// Per-processor slowdown factors of the target machine (all 1 on the
    /// paper's homogeneous machines); the length is the processor count.
    pub slowdowns: Vec<Time>,
    /// `(proc, start, finish)` per task, indexed by task id.
    pub placements: Vec<(usize, Time, Time)>,
}

impl From<&Schedule> for ScheduleData {
    fn from(s: &Schedule) -> Self {
        ScheduleData {
            slowdowns: s
                .machine()
                .procs()
                .map(|p| s.machine().slowdown(p))
                .collect(),
            placements: s
                .placements()
                .iter()
                .map(|p| (p.proc.0, p.start, p.finish))
                .collect(),
        }
    }
}

impl From<ScheduleData> for Schedule {
    fn from(d: ScheduleData) -> Self {
        let placements = d
            .placements
            .into_iter()
            .map(|(proc, start, finish)| Placement {
                proc: ProcId(proc),
                start,
                finish,
            })
            .collect();
        Schedule::from_raw_on(crate::Machine::related(d.slowdowns), placements)
    }
}

/// Errors from [`parse_text`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleTextError {
    /// A line could not be parsed (1-based line number).
    Malformed(usize, String),
    /// A task id appears twice or is missing.
    BadCoverage(String),
}

impl fmt::Display for ScheduleTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleTextError::Malformed(line, msg) => write!(f, "line {line}: {msg}"),
            ScheduleTextError::BadCoverage(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ScheduleTextError {}

/// Emits the text format.
#[must_use]
pub fn to_text(s: &Schedule) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "procs {}", s.num_procs());
    // `speeds` must be emitted whenever any slowdown differs from 1 — a
    // *uniformly slow* machine (e.g. all-3) is homogeneous but not unit.
    if s.machine().procs().any(|p| s.machine().slowdown(p) != 1) {
        let speeds: Vec<String> = s
            .machine()
            .procs()
            .map(|p| s.machine().slowdown(p).to_string())
            .collect();
        let _ = writeln!(out, "speeds {}", speeds.join(" "));
    }
    for (i, p) in s.placements().iter().enumerate() {
        let _ = writeln!(out, "s {} {} {} {}", i, p.proc.0, p.start, p.finish);
    }
    out
}

/// Parses the text format. Placement lines may appear in any order but must
/// cover task ids `0..n` exactly once.
pub fn parse_text(text: &str) -> Result<Schedule, ScheduleTextError> {
    let mut procs: usize = 0;
    let mut speeds: Option<Vec<Time>> = None;
    let mut entries: Vec<(usize, Placement)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("procs") => {
                procs = parts.next().and_then(|x| x.parse().ok()).ok_or_else(|| {
                    ScheduleTextError::Malformed(lineno, "expected `procs N`".into())
                })?;
            }
            Some("speeds") => {
                let parsed: Option<Vec<Time>> = parts.map(|x| x.parse().ok()).collect();
                match parsed {
                    Some(v) if !v.is_empty() && v.iter().all(|&x| x >= 1) => {
                        speeds = Some(v);
                    }
                    _ => {
                        return Err(ScheduleTextError::Malformed(
                            lineno,
                            "expected `speeds <s0> <s1> ...` (all >= 1)".into(),
                        ))
                    }
                }
            }
            Some("s") => {
                let mut num = || -> Option<u64> { parts.next()?.parse().ok() };
                match (num(), num(), num(), num()) {
                    (Some(t), Some(p), Some(st), Some(ft)) => entries.push((
                        t as usize,
                        Placement {
                            proc: ProcId(p as usize),
                            start: st,
                            finish: ft,
                        },
                    )),
                    _ => {
                        return Err(ScheduleTextError::Malformed(
                            lineno,
                            "expected `s <task> <proc> <start> <finish>`".into(),
                        ))
                    }
                }
            }
            Some(other) => {
                return Err(ScheduleTextError::Malformed(
                    lineno,
                    format!("unknown directive {other:?}"),
                ))
            }
            None => unreachable!("non-empty trimmed line"),
        }
    }

    let n = entries.len();
    let mut placements = vec![None; n];
    for (t, p) in entries {
        let slot = placements.get_mut(t).ok_or_else(|| {
            ScheduleTextError::BadCoverage(format!("task id {t} out of range 0..{n}"))
        })?;
        if slot.replace(p).is_some() {
            return Err(ScheduleTextError::BadCoverage(format!(
                "task id {t} appears twice"
            )));
        }
    }
    let placements: Vec<Placement> = placements
        .into_iter()
        .enumerate()
        .map(|(t, p)| {
            p.ok_or_else(|| ScheduleTextError::BadCoverage(format!("task id {t} missing")))
        })
        .collect::<Result<_, _>>()?;
    // Placements must target a declared processor; tolerating out-of-range
    // ids here would push a panic into every downstream consumer.
    let declared = match &speeds {
        Some(v) => v.len(),
        None => procs.max(1),
    };
    if let Some(p) = placements.iter().find(|p| p.proc.0 >= declared) {
        return Err(ScheduleTextError::BadCoverage(format!(
            "placement on {} but the header declares {declared} processor(s)",
            p.proc
        )));
    }
    let machine = match speeds {
        Some(v) => {
            if v.len() != procs {
                return Err(ScheduleTextError::BadCoverage(format!(
                    "speeds lists {} processors, header declares {procs}",
                    v.len()
                )));
            }
            crate::Machine::related(v)
        }
        None => crate::Machine::new(procs.max(1)),
    };
    Ok(Schedule::from_raw_on(machine, placements))
}

pub mod wire {
    //! Compact binary wire codec for task graphs and schedules.
    //!
    //! This is the payload format of the `flb-service` protocol: all
    //! integers are fixed-width little-endian, collections are
    //! length-prefixed, and decoding re-validates everything it can
    //! (graphs go through the checking builder, schedule placements must
    //! target a declared processor). The format carries no
    //! self-description beyond those lengths — framing and versioning are
    //! the transport's job.

    use crate::{Machine, Placement, ProcId, Schedule};
    use flb_graph::serialize::TaskGraphData;
    use flb_graph::TaskGraph;
    use std::fmt;

    /// Hard cap on decoded collection lengths: a corrupt or hostile
    /// length prefix must not drive a multi-gigabyte allocation.
    pub const MAX_ITEMS: usize = 1 << 24;

    /// Errors from decoding.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WireError {
        /// The buffer ended before the announced data did.
        Truncated,
        /// A field held an impossible value (message says which).
        Malformed(String),
    }

    impl fmt::Display for WireError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                WireError::Truncated => f.write_str("truncated wire data"),
                WireError::Malformed(msg) => write!(f, "malformed wire data: {msg}"),
            }
        }
    }

    impl std::error::Error for WireError {}

    fn malformed(msg: impl Into<String>) -> WireError {
        WireError::Malformed(msg.into())
    }

    /// Append-only encoder over a byte buffer.
    #[derive(Default)]
    pub struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        /// A fresh, empty writer.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// An empty writer with room for `bytes` bytes.
        #[must_use]
        pub fn with_capacity(bytes: usize) -> Self {
            Writer {
                buf: Vec::with_capacity(bytes),
            }
        }

        /// Appends one byte.
        pub fn put_u8(&mut self, v: u8) {
            self.buf.push(v);
        }

        /// Appends a `u32`, little-endian.
        pub fn put_u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a `u64`, little-endian.
        pub fn put_u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends raw bytes, without a length prefix.
        pub fn put_bytes(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }

        /// Appends a length-prefixed UTF-8 string.
        pub fn put_str(&mut self, s: &str) {
            self.put_u32(s.len() as u32);
            self.buf.extend_from_slice(s.as_bytes());
        }

        /// The encoded bytes.
        #[must_use]
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Cursor-style decoder over a byte slice.
    pub struct Reader<'a> {
        buf: &'a [u8],
    }

    impl<'a> Reader<'a> {
        /// A reader over `buf`.
        #[must_use]
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf }
        }

        /// Bytes not yet consumed.
        #[must_use]
        pub fn remaining(&self) -> usize {
            self.buf.len()
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
            if self.buf.len() < n {
                return Err(WireError::Truncated);
            }
            let (head, tail) = self.buf.split_at(n);
            self.buf = tail;
            Ok(head)
        }

        /// Reads one byte.
        pub fn u8(&mut self) -> Result<u8, WireError> {
            Ok(self.take(1)?[0])
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, WireError> {
            Ok(u32::from_le_bytes(
                self.take(4)?.try_into().expect("4 bytes"),
            ))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, WireError> {
            Ok(u64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))
        }

        /// Reads a length as `u32` and bounds-checks it against
        /// [`MAX_ITEMS`] and the bytes actually remaining (each item
        /// takes at least `min_item_bytes`).
        pub fn len(&mut self, what: &str, min_item_bytes: usize) -> Result<usize, WireError> {
            let n = self.u32()? as usize;
            if n > MAX_ITEMS || n.saturating_mul(min_item_bytes) > self.remaining() {
                return Err(malformed(format!("{what} count {n} exceeds the payload")));
            }
            Ok(n)
        }

        /// Reads `n` raw bytes without copying them.
        pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
            self.take(n)
        }

        /// Reads a length-prefixed UTF-8 string without copying it.
        pub fn str_ref(&mut self) -> Result<&'a str, WireError> {
            let n = self.len("string byte", 1)?;
            std::str::from_utf8(self.take(n)?).map_err(|_| malformed("string is not UTF-8"))
        }

        /// Reads a length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<String, WireError> {
            self.str_ref().map(str::to_owned)
        }
    }

    /// Encodes a task graph (name, computation costs, edge list). Edges
    /// are written grouped by ascending source, ascending target within a
    /// source — the order a built graph stores them in, so decoding and
    /// re-encoding reproduces the bytes exactly.
    pub fn put_graph(w: &mut Writer, g: &TaskGraph) {
        w.put_str(g.name());
        w.put_u32(g.num_tasks() as u32);
        for t in g.tasks() {
            w.put_u64(g.comp(t));
        }
        w.put_u32(g.num_edges() as u32);
        for t in g.tasks() {
            for (s, c) in g.succs(t) {
                w.put_u32(t.0 as u32);
                w.put_u32(s.0 as u32);
                w.put_u64(c);
            }
        }
    }

    /// Decodes a task graph, re-validating it through the checking builder
    /// (dangling edges and cycles are rejected).
    pub fn get_graph(r: &mut Reader<'_>) -> Result<TaskGraph, WireError> {
        let name = r.str()?;
        let v = r.len("task", 8)?;
        let mut comp = Vec::with_capacity(v);
        for _ in 0..v {
            comp.push(r.u64()?);
        }
        let e = r.len("edge", 16)?;
        let mut edges = Vec::with_capacity(e);
        for _ in 0..e {
            let s = r.u32()? as usize;
            let d = r.u32()? as usize;
            let c = r.u64()?;
            edges.push((s, d, c));
        }
        TaskGraph::try_from(TaskGraphData { name, comp, edges })
            .map_err(|e| malformed(format!("invalid graph: {e}")))
    }

    /// Encodes a machine (per-processor slowdowns).
    pub fn put_machine(w: &mut Writer, m: &Machine) {
        w.put_u32(m.num_procs() as u32);
        for p in m.procs() {
            w.put_u64(m.slowdown(p));
        }
    }

    /// Decodes a machine.
    pub fn get_machine(r: &mut Reader<'_>) -> Result<Machine, WireError> {
        let p = r.len("processor", 8)?;
        if p == 0 {
            return Err(malformed("a machine needs at least one processor"));
        }
        let mut slow = Vec::with_capacity(p);
        for _ in 0..p {
            let s = r.u64()?;
            if s == 0 {
                return Err(malformed("slowdown factors must be at least 1"));
            }
            slow.push(s);
        }
        Ok(Machine::related(slow))
    }

    /// One placement record: processor `u32`, start `u64`, finish `u64`.
    const PLACEMENT_BYTES: usize = 20;

    /// Bytes [`put_schedule`] writes for `s`.
    #[must_use]
    pub fn schedule_len(s: &Schedule) -> usize {
        4 + 8 * s.machine().num_procs() + 4 + PLACEMENT_BYTES * s.placements().len()
    }

    /// Encodes a schedule (machine plus per-task placements). The
    /// placements are written in one pass into records sized up front.
    pub fn put_schedule(w: &mut Writer, s: &Schedule) {
        put_machine(w, s.machine());
        let placements = s.placements();
        w.put_u32(placements.len() as u32);
        let at = w.buf.len();
        w.buf.resize(at + PLACEMENT_BYTES * placements.len(), 0);
        for (rec, p) in w.buf[at..]
            .chunks_exact_mut(PLACEMENT_BYTES)
            .zip(placements)
        {
            rec[..4].copy_from_slice(&(p.proc.0 as u32).to_le_bytes());
            rec[4..12].copy_from_slice(&p.start.to_le_bytes());
            rec[12..].copy_from_slice(&p.finish.to_le_bytes());
        }
    }

    /// Decodes a schedule; placements must target a declared processor.
    pub fn get_schedule(r: &mut Reader<'_>) -> Result<Schedule, WireError> {
        let machine = get_machine(r)?;
        let n = r.len("placement", 20)?;
        let mut placements = Vec::with_capacity(n);
        for _ in 0..n {
            let proc = r.u32()? as usize;
            let start = r.u64()?;
            let finish = r.u64()?;
            if proc >= machine.num_procs() {
                return Err(malformed(format!(
                    "placement on p{proc} but the machine has {} processor(s)",
                    machine.num_procs()
                )));
            }
            placements.push(Placement {
                proc: ProcId(proc),
                start,
                finish,
            });
        }
        Ok(Schedule::from_raw_on(machine, placements))
    }

    /// Convenience: a graph as a standalone byte buffer.
    #[must_use]
    pub fn encode_graph(g: &TaskGraph) -> Vec<u8> {
        let mut w = Writer::new();
        put_graph(&mut w, g);
        w.into_bytes()
    }

    /// Convenience: decodes a standalone graph buffer.
    pub fn decode_graph(buf: &[u8]) -> Result<TaskGraph, WireError> {
        get_graph(&mut Reader::new(buf))
    }

    /// Convenience: a schedule as a standalone byte buffer.
    #[must_use]
    pub fn encode_schedule(s: &Schedule) -> Vec<u8> {
        let mut w = Writer::with_capacity(schedule_len(s));
        put_schedule(&mut w, s);
        w.into_bytes()
    }

    /// Convenience: decodes a standalone schedule buffer.
    pub fn decode_schedule(buf: &[u8]) -> Result<Schedule, WireError> {
        get_schedule(&mut Reader::new(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, ScheduleBuilder};
    use flb_graph::paper::fig1;
    use flb_graph::TaskId;

    fn table1_schedule() -> Schedule {
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
        b.build()
    }

    #[test]
    fn data_roundtrip() {
        let s = table1_schedule();
        let d = ScheduleData::from(&s);
        let s2: Schedule = d.clone().into();
        assert_eq!(s2, s);
        assert_eq!(ScheduleData::from(&s2), d);
    }

    #[test]
    fn text_roundtrip() {
        let s = table1_schedule();
        let text = to_text(&s);
        let s2 = parse_text(&text).unwrap();
        assert_eq!(s2, s);
    }

    #[test]
    fn text_parses_out_of_order_and_comments() {
        let s = parse_text("# demo\nprocs 2\ns 1 1 3 5\ns 0 0 0 2\n").unwrap();
        assert_eq!(s.num_procs(), 2);
        assert_eq!(s.start(TaskId(0)), 0);
        assert_eq!(s.start(TaskId(1)), 3);
    }

    #[test]
    fn text_errors() {
        assert!(matches!(
            parse_text("procs x"),
            Err(ScheduleTextError::Malformed(1, _))
        ));
        assert!(matches!(
            parse_text("s 0 0 0"),
            Err(ScheduleTextError::Malformed(1, _))
        ));
        assert!(matches!(
            parse_text("wat"),
            Err(ScheduleTextError::Malformed(1, _))
        ));
        // Duplicate task id.
        assert!(matches!(
            parse_text("procs 1\ns 0 0 0 1\ns 0 0 2 3"),
            Err(ScheduleTextError::BadCoverage(_))
        ));
        // Gap in coverage (id 2 of 0..2 present, 0 missing).
        assert!(matches!(
            parse_text("procs 1\ns 1 0 0 1\ns 0 0 2 3\ns 5 0 4 5"),
            Err(ScheduleTextError::BadCoverage(_))
        ));
        // Placement on an undeclared processor.
        assert!(matches!(
            parse_text("procs 2\ns 0 9 0 1"),
            Err(ScheduleTextError::BadCoverage(_))
        ));
        assert!(matches!(
            parse_text("procs 2\nspeeds 1 2\ns 0 2 0 1"),
            Err(ScheduleTextError::BadCoverage(_))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one-pass placement records are exactly the bytes of writing
        /// every field in turn, after whatever the writer already holds.
        #[test]
        fn put_schedule_is_the_field_by_field_encoding(seed in proptest::prelude::any::<u64>()) {
            use rand::rngs::StdRng;
            use rand::{Rng, RngCore, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let procs = rng.random_range(1..9usize);
            let slow = (0..procs).map(|_| rng.random_range(1..=u64::MAX)).collect();
            let placements = (0..rng.random_range(0..300usize))
                .map(|_| Placement {
                    proc: ProcId(rng.random_range(0..procs)),
                    start: rng.next_u64(),
                    finish: rng.next_u64(),
                })
                .collect();
            let s = Schedule::from_raw_on(Machine::related(slow), placements);
            let prefix: Vec<u8> = (0..rng.random_range(0..5u8)).collect();

            let mut fields = wire::Writer::new();
            fields.put_bytes(&prefix);
            wire::put_machine(&mut fields, s.machine());
            fields.put_u32(s.placements().len() as u32);
            for p in s.placements() {
                fields.put_u32(p.proc.0 as u32);
                fields.put_u64(p.start);
                fields.put_u64(p.finish);
            }
            let mut one_pass = wire::Writer::new();
            one_pass.put_bytes(&prefix);
            wire::put_schedule(&mut one_pass, &s);
            let (fields, one_pass) = (fields.into_bytes(), one_pass.into_bytes());
            proptest::prop_assert_eq!(&one_pass, &fields);
            let alone = wire::encode_schedule(&s);
            proptest::prop_assert_eq!(alone.len(), wire::schedule_len(&s));
            proptest::prop_assert_eq!(&alone[..], &fields[prefix.len()..]);
        }
    }

    #[test]
    fn wire_schedule_roundtrip() {
        let s = table1_schedule();
        let bytes = wire::encode_schedule(&s);
        assert_eq!(wire::decode_schedule(&bytes).unwrap(), s);

        // Heterogeneous machine survives too.
        let het = Schedule::from_raw_on(Machine::related(vec![1, 3]), s.placements().to_vec());
        let bytes = wire::encode_schedule(&het);
        assert_eq!(wire::decode_schedule(&bytes).unwrap(), het);
    }

    #[test]
    fn wire_graph_roundtrip() {
        let g = fig1();
        let bytes = wire::encode_graph(&g);
        let g2 = wire::decode_graph(&bytes).unwrap();
        assert_eq!(g2.name(), g.name());
        assert_eq!(g2.num_tasks(), g.num_tasks());
        assert_eq!(g2.num_edges(), g.num_edges());
        for t in g.tasks() {
            assert_eq!(g2.comp(t), g.comp(t));
            assert!(g2.succs(t).eq(g.succs(t)));
        }
        // Encoding is canonical: decoding and re-encoding is the identity.
        assert_eq!(wire::encode_graph(&g2), bytes);
    }

    #[test]
    fn wire_graph_edges_come_out_sorted_whatever_order_they_went_in() {
        let mut w = wire::Writer::new();
        w.put_str("shuffled");
        w.put_u32(3);
        for c in [1u64, 2, 3] {
            w.put_u64(c);
        }
        w.put_u32(3);
        for (s, d, c) in [(1u32, 2u32, 9u64), (0, 2, 8), (0, 1, 7)] {
            w.put_u32(s);
            w.put_u32(d);
            w.put_u64(c);
        }
        let g = wire::decode_graph(&w.into_bytes()).unwrap();
        let again = wire::decode_graph(&wire::encode_graph(&g)).unwrap();
        let edges = |g: &flb_graph::TaskGraph| -> Vec<_> {
            g.tasks()
                .flat_map(|t| g.succs(t).map(move |(s, c)| (t.0, s.0, c)))
                .collect()
        };
        assert_eq!(edges(&g), [(0, 1, 7), (0, 2, 8), (1, 2, 9)]);
        assert_eq!(edges(&again), edges(&g));
    }

    #[test]
    fn wire_rejects_corruption() {
        use wire::WireError;
        let s = table1_schedule();
        let bytes = wire::encode_schedule(&s);
        // Any strict prefix fails to decode (either as a truncation or as
        // a length prefix that now overruns the payload).
        for cut in 0..bytes.len() {
            assert!(wire::decode_schedule(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A length prefix pointing past the payload is malformed, not an
        // allocation attempt.
        let mut huge = bytes.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            wire::decode_schedule(&huge),
            Err(WireError::Malformed(_))
        ));
        // A graph with a dangling edge is rejected by the builder.
        let mut w = wire::Writer::new();
        w.put_str("bad");
        w.put_u32(1); // one task
        w.put_u64(5);
        w.put_u32(1); // one edge to a task that does not exist
        w.put_u32(0);
        w.put_u32(7);
        w.put_u64(1);
        assert!(matches!(
            wire::decode_graph(&w.into_bytes()),
            Err(WireError::Malformed(_))
        ));
    }
}
