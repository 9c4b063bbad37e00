//! Cached schedules, packed.
//!
//! A cache entry holds a schedule as the wire bytes of its machine and
//! task count, then one fixed-size record per task: the processor, the
//! start time and `finish − start`, each column stored in the fewest
//! little-endian bytes that hold its largest value in this schedule. A
//! ~1000-task paper-family schedule needs 1 + 2 + 1 = 4 bytes per task,
//! where a [`Placement`](flb_sched::Placement) takes 24; a record is at
//! most 4 + 8 + 8 = 20 bytes, so an entry is never larger than its wire
//! form.
//!
//! The columns follow [`flb_graph::packed`]: each field is written in
//! exactly its column's width and read back as an 8-byte load masked to
//! it, so no read branches on a width, with [`SLACK`] zero bytes after
//! the last record for its loads. Every reply is unpacked from the
//! entry into exactly the bytes `wire::put_schedule` writes for the
//! source schedule.

use crate::fingerprint::Fnv64;
use flb_graph::packed::{load, mask, store, width, SLACK};
use flb_sched::io::wire;
use flb_sched::Schedule;
use std::sync::OnceLock;

/// Bytes of one wire placement record: processor `u32`, start `u64`,
/// finish `u64`.
const WIRE_RECORD: usize = 20;

/// Records unpacked into the stack buffer per `emit`.
const CHUNK: usize = 64;

/// A schedule as the cache keeps it: see the module docs.
pub struct PackedSchedule {
    /// The wire machine and task count, the records, then [`SLACK`]
    /// zero bytes.
    bytes: Box<[u8]>,
    /// Where the records start in `bytes`.
    records_at: usize,
    tasks: usize,
    /// Bytes per record of the processor, start and duration columns.
    widths: [u8; 3],
    /// [`crate::journal::schedule_digest`] of the source schedule,
    /// computed on first use.
    digest: OnceLock<u64>,
}

impl PackedSchedule {
    /// Packs `s`.
    #[must_use]
    pub fn from_schedule(s: &Schedule) -> Self {
        let placements = s.placements();
        let proc_of = |p: &flb_sched::Placement| u64::from(p.proc.0 as u32);
        let (mut procs, mut starts, mut spans) = (0u64, 0u64, 0u64);
        for p in placements {
            procs |= proc_of(p);
            starts |= p.start;
            spans |= p.finish.wrapping_sub(p.start);
        }
        let widths = [width(procs), width(starts), width(spans)];
        let [wp, ws, wd] = widths.map(usize::from);
        let record = wp + ws + wd;

        let tasks = placements.len();
        let mut w = wire::Writer::with_capacity(4 + 8 * s.machine().num_procs() + 4);
        wire::put_machine(&mut w, s.machine());
        w.put_u32(tasks as u32);
        let mut bytes = w.into_bytes();
        let records_at = bytes.len();
        bytes.resize(records_at + tasks * record + SLACK, 0);
        let mut at = records_at;
        for p in placements {
            store(&mut bytes, at, wp, proc_of(p));
            store(&mut bytes, at + wp, ws, p.start);
            store(&mut bytes, at + wp + ws, wd, p.finish.wrapping_sub(p.start));
            at += record;
        }
        PackedSchedule {
            bytes: bytes.into_boxed_slice(),
            records_at,
            tasks,
            widths,
            digest: OnceLock::new(),
        }
    }

    /// Bytes [`put_wire`](Self::put_wire) writes: `wire::schedule_len`
    /// of the source schedule.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.records_at + WIRE_RECORD * self.tasks
    }

    /// Appends the source schedule's wire encoding, the bytes
    /// `wire::put_schedule` writes.
    pub fn put_wire(&self, w: &mut wire::Writer) {
        self.unpack(|b| w.put_bytes(b));
    }

    /// [`crate::journal::schedule_digest`] of the source schedule,
    /// computed once per entry.
    #[must_use]
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = Fnv64::new();
            self.unpack(|b| h.write(b));
            h.finish()
        })
    }

    /// Feeds the wire encoding to `emit` in order: the machine prefix,
    /// then the records, [`CHUNK`] at a time through a stack buffer.
    fn unpack(&self, mut emit: impl FnMut(&[u8])) {
        let (prefix, records) = self
            .bytes
            .split_at_checked(self.records_at)
            .unwrap_or_default();
        emit(prefix);
        let [wp, ws, wd] = self.widths.map(usize::from);
        let record = wp + ws + wd;
        let (mp, ms, md) = (mask(wp), mask(ws), mask(wd));
        let mut out = [[0u8; WIRE_RECORD]; CHUNK];
        for first in (0..self.tasks).step_by(CHUNK) {
            let n = CHUNK.min(self.tasks - first);
            let Some(src) = records.get(first * record..(first + n) * record + SLACK) else {
                return;
            };
            // One window per record, long enough for its last 8-byte load.
            let windows = src.windows(record + SLACK).step_by(record);
            for (dst, r) in out.iter_mut().zip(windows) {
                let proc = load(r, 0) & mp;
                let start = load(r, wp) & ms;
                let finish = start.wrapping_add(load(r, wp + ws) & md);
                dst[..4].copy_from_slice(&(proc as u32).to_le_bytes());
                dst[4..12].copy_from_slice(&start.to_le_bytes());
                dst[12..].copy_from_slice(&finish.to_le_bytes());
            }
            emit(out.get(..n).unwrap_or_default().as_flattened());
        }
    }
}

impl PartialEq for PackedSchedule {
    fn eq(&self, other: &Self) -> bool {
        // The widths and layout follow from the schedule, so equal
        // schedules pack to equal entries.
        self.widths == other.widths && self.bytes == other.bytes
    }
}

impl Eq for PackedSchedule {}

impl std::fmt::Debug for PackedSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedSchedule")
            .field("tasks", &self.tasks)
            .field("widths", &self.widths)
            .field("wire_len", &self.wire_len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::schedule_digest;
    use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
    use flb_graph::costs::CostModel;
    use flb_graph::gen::Family;
    use flb_sched::{Machine, Placement, ProcId};
    use proptest::prelude::*;

    fn record_bytes(p: &PackedSchedule) -> usize {
        p.widths.iter().map(|&w| usize::from(w)).sum()
    }

    fn wire_of(p: &PackedSchedule) -> Vec<u8> {
        let mut w = wire::Writer::with_capacity(p.wire_len());
        p.put_wire(&mut w);
        w.into_bytes()
    }

    /// A time anywhere in `u64`, biased towards the edges a packer can
    /// get wrong: zero, byte boundaries and `u64::MAX`.
    fn time(r: u64, pick: u64) -> u64 {
        match pick % 4 {
            0 => r,
            1 => r >> (r % 64),
            2 => u64::MAX - (r % 3),
            _ => (1u64 << (r % 64)).wrapping_sub(r % 2),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `put_wire` is `wire::encode_schedule` of the source, and the
        /// digest its `schedule_digest`, over random placements: any
        /// `u64` times (`finish < start` and `u64::MAX` included) on
        /// 1–64 processors, homogeneous or related.
        #[test]
        fn put_wire_is_the_wire_encoding(
            procs in 1usize..=64,
            related in any::<bool>(),
            rows in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                0..=300,
            ),
        ) {
            let machine = if related {
                Machine::related((0..procs as u64).map(|p| 1 + p % 5).collect())
            } else {
                Machine::new(procs)
            };
            let placements: Vec<Placement> = rows
                .iter()
                .map(|&(p, a, b, pa, pb)| Placement {
                    proc: ProcId(p as usize % procs),
                    start: time(a, pa),
                    finish: time(b, pb),
                })
                .collect();
            let s = Schedule::from_raw_on(machine, placements);
            let packed = PackedSchedule::from_schedule(&s);
            let bytes = wire_of(&packed);
            prop_assert_eq!(packed.wire_len(), bytes.len());
            prop_assert_eq!(bytes, wire::encode_schedule(&s));
            prop_assert_eq!(packed.digest(), schedule_digest(&s));
            prop_assert!(record_bytes(&packed) <= WIRE_RECORD);
        }
    }

    /// ~1000-task paper-family schedules (each family at both of the
    /// paper's CCRs, on 2 or 32 processors) pack to 4 bytes per task
    /// plus the wire machine prefix, and unpack to their wire bytes.
    #[test]
    fn paper_family_schedules_take_four_bytes_per_task() {
        for (i, family) in Family::ALL.into_iter().enumerate() {
            let topology = family.topology(1000);
            for (j, ccr) in [0.2, 5.0].into_iter().enumerate() {
                let procs = [2, 32][(i + j) % 2];
                let graph = CostModel::paper_default(ccr).apply(&topology, (i * 2 + j) as u64);
                let s = schedule_request(&ScheduleRequest::new(
                    AlgorithmId::Flb,
                    graph,
                    Machine::new(procs),
                ));
                let packed = PackedSchedule::from_schedule(&s);
                let n = s.placements().len();
                assert!(n >= 900, "{} has {n} tasks", family.name());
                assert_eq!(
                    record_bytes(&packed),
                    4,
                    "{} CCR {ccr}: {packed:?}",
                    family.name()
                );
                let prefix = 4 + 8 * procs + 4;
                assert_eq!(packed.bytes.len(), prefix + 4 * n + SLACK);
                assert_eq!(wire_of(&packed), wire::encode_schedule(&s));
                assert_eq!(packed.digest(), schedule_digest(&s));
            }
        }
    }

    /// The widest record is the wire record: no entry outgrows its wire
    /// form.
    #[test]
    fn no_entry_exceeds_twenty_bytes_per_task() {
        let s = Schedule::from_raw(
            2,
            vec![
                Placement {
                    proc: ProcId(1),
                    start: u64::MAX,
                    finish: 0,
                },
                Placement {
                    proc: ProcId(0),
                    start: 0,
                    finish: u64::MAX,
                },
            ],
        );
        let packed = PackedSchedule::from_schedule(&s);
        assert_eq!(packed.widths, [1, 8, 8]);
        assert_eq!(wire_of(&packed), wire::encode_schedule(&s));
        let wide = Schedule::from_raw(
            1,
            vec![Placement {
                proc: ProcId(u32::MAX as usize),
                start: u64::MAX,
                finish: u64::MAX - 1,
            }],
        );
        let packed = PackedSchedule::from_schedule(&wide);
        assert_eq!(record_bytes(&packed), WIRE_RECORD);
        assert!(packed.bytes.len() <= wire::schedule_len(&wide) + SLACK);
        assert_eq!(wire_of(&packed), wire::encode_schedule(&wide));
    }

    #[test]
    fn an_empty_schedule_is_its_machine_prefix() {
        let s = Schedule::from_raw(3, Vec::new());
        let packed = PackedSchedule::from_schedule(&s);
        assert_eq!(packed.bytes.len(), 4 + 8 * 3 + 4 + SLACK);
        assert_eq!(wire_of(&packed), wire::encode_schedule(&s));
        assert_eq!(packed.digest(), schedule_digest(&s));
    }
}
