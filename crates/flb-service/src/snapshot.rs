//! Crash-safe warm-restart snapshots of the schedule cache.
//!
//! A snapshot is one file:
//!
//! ```text
//! magic    u32 LE = 0x464C_4253 ("FLBS")
//! version  u32 LE = 3
//! count    u32 LE
//! entries  count × (fingerprint u64 LE, len u32 LE, schedule wire bytes)
//! checksum u64 LE  (FNV-1a over every preceding byte)
//! ```
//!
//! Writes go to a temporary file in the same directory followed by an
//! atomic rename, so a crash mid-write can never leave a half-written file
//! at the snapshot path — the previous snapshot survives intact. Loads
//! validate magic, version, per-entry bounds and the trailing checksum;
//! anything that fails validation is reported as [`SnapshotError::Corrupt`]
//! so the server can quarantine the file instead of dying on it.

use crate::fingerprint::Fnv64;
use crate::packed::PackedSchedule;
use crate::proto::MAX_FRAME;
use flb_sched::io::wire;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot file magic: `"FLBS"`.
pub const SNAPSHOT_MAGIC: u32 = 0x464C_4253;

/// Current snapshot format version. Version 3 entries are keyed by the
/// four-lane word hash [`request_fingerprint`](crate::request_fingerprint)
/// over the canonical wire sections. Older files hold keys no request
/// produces any more: version 2 the retired one-lane word hash, version
/// 1 the retired byte-wise FNV-1a key. They are refused as
/// `unsupported version` and quarantined, and the daemon boots cold once.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read (missing, permissions, ...).
    Io(io::Error),
    /// The file was read but failed validation; safe to quarantine.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "cannot read snapshot: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// Serialises cache entries into the snapshot byte format: each entry's
/// schedule as its wire bytes, unpacked from the cache entry.
#[must_use]
pub fn encode(entries: &[(u64, Arc<PackedSchedule>)]) -> Vec<u8> {
    let body: usize = entries.iter().map(|(_, s)| 12 + s.wire_len()).sum();
    let mut w = wire::Writer::with_capacity(12 + body + 8);
    w.put_u32(SNAPSHOT_MAGIC);
    w.put_u32(SNAPSHOT_VERSION);
    w.put_u32(entries.len() as u32);
    for (fp, schedule) in entries {
        w.put_u64(*fp);
        w.put_u32(schedule.wire_len() as u32);
        schedule.put_wire(&mut w);
    }
    let mut out = w.into_bytes();
    let mut h = Fnv64::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Parses and validates snapshot bytes, packing each schedule as it is
/// decoded.
pub fn decode(bytes: &[u8]) -> Result<Vec<(u64, PackedSchedule)>, SnapshotError> {
    let Some((body, stored)) = bytes.split_last_chunk::<8>() else {
        return Err(corrupt(format!("{} bytes is too short", bytes.len())));
    };
    // Checksum first: it covers everything else, so all later parse
    // errors on a checksum-clean file indicate a version/logic mismatch
    // rather than bit rot.
    let mut h = Fnv64::new();
    h.write(body);
    if h.finish() != u64::from_le_bytes(*stored) {
        return Err(corrupt("checksum mismatch"));
    }

    let mut r = wire::Reader::new(body);
    let truncated = |e: wire::WireError| corrupt(e.to_string());
    let magic = r.u32().map_err(truncated)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(corrupt(format!("bad magic {magic:#010x}")));
    }
    let version = r.u32().map_err(truncated)?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let count = r.u32().map_err(truncated)? as usize;
    // Each entry needs at least its 12-byte header: bounds the loop
    // before any allocation on a hostile count.
    if count > r.remaining() / 12 {
        return Err(corrupt(format!("entry count {count} exceeds file size")));
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let fp = r.u64().map_err(truncated)?;
        let len = r.u32().map_err(truncated)? as usize;
        if len > MAX_FRAME as usize {
            return Err(corrupt(format!(
                "entry {i} of {len} bytes exceeds MAX_FRAME"
            )));
        }
        let raw = r.bytes(len).map_err(truncated)?;
        let schedule = wire::decode_schedule(raw)
            .map_err(|e| corrupt(format!("entry {i} does not decode: {e}")))?;
        entries.push((fp, PackedSchedule::from_schedule(&schedule)));
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the last entry",
            r.remaining()
        )));
    }
    Ok(entries)
}

/// Writes a snapshot via write-to-temp + atomic rename, so readers (and a
/// crash mid-write) only ever observe complete snapshots.
pub fn save_atomic(path: &Path, entries: &[(u64, Arc<PackedSchedule>)]) -> io::Result<()> {
    let bytes = encode(entries);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads and validates a snapshot file.
pub fn load(path: &Path) -> Result<Vec<(u64, PackedSchedule)>, SnapshotError> {
    let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
    decode(&bytes)
}

/// Moves a corrupt snapshot aside (same directory, `.corrupt` suffix) so
/// the server can boot with an empty cache while preserving the evidence.
/// Returns the quarantine path.
///
/// Repeated corruptions must not overwrite earlier evidence: when the
/// bare `.corrupt` name is taken, a monotonically increasing counter
/// suffix (`.corrupt.1`, `.corrupt.2`, ...) finds the first free slot.
pub fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let mut base = path.as_os_str().to_owned();
    base.push(".corrupt");
    let mut target = PathBuf::from(&base);
    let mut n = 0u64;
    while target.exists() {
        n += 1;
        let mut numbered = base.clone();
        numbered.push(format!(".{n}"));
        target = PathBuf::from(numbered);
    }
    std::fs::rename(path, &target)?;
    Ok(target)
}

/// How many quarantine files [`quarantine_capped`] keeps per source path.
pub const QUARANTINE_KEEP: usize = 8;

/// Quarantines like [`quarantine`], then prunes the *oldest* quarantine
/// files of the same source path down to `keep` — so repeated
/// corruptions (snapshot or journal) can never fill the disk with
/// evidence. Age is judged by file modification time (suffix number as
/// the tiebreak). Returns the quarantine path and how many old files
/// were deleted.
pub fn quarantine_capped(path: &Path, keep: usize) -> io::Result<(PathBuf, u64)> {
    let target = quarantine(path)?;
    let mut pruned = 0u64;

    // Siblings named `<file>.corrupt` or `<file>.corrupt.N`.
    let parent = path
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let Some(stem) = path.file_name().map(|n| {
        let mut s = n.to_os_string();
        s.push(".corrupt");
        s
    }) else {
        return Ok((target, 0));
    };
    let mut candidates: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(&parent)?.flatten() {
        let name = entry.file_name();
        let Some(name_str) = name.to_str() else {
            continue;
        };
        let Some(stem_str) = stem.to_str() else {
            continue;
        };
        let number = if name_str == stem_str {
            0u64
        } else {
            match name_str
                .strip_prefix(stem_str)
                .and_then(|rest| rest.strip_prefix('.'))
                .and_then(|digits| digits.parse().ok())
            {
                Some(n) => n,
                None => continue,
            }
        };
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        candidates.push((mtime, number, entry.path()));
    }
    if candidates.len() > keep.max(1) {
        candidates.sort();
        let excess = candidates.len() - keep.max(1);
        for (_, _, victim) in candidates.into_iter().take(excess) {
            if victim == target {
                continue; // never delete the evidence just captured
            }
            if std::fs::remove_file(&victim).is_ok() {
                pruned += 1;
            }
        }
    }
    Ok((target, pruned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_core::{schedule_request, AlgorithmId, ScheduleRequest};
    use flb_graph::paper::fig1;
    use flb_sched::{Machine, Schedule};

    fn sample_schedules() -> Vec<(u64, Schedule)> {
        [(AlgorithmId::Flb, 2usize), (AlgorithmId::Mcp, 3)]
            .into_iter()
            .enumerate()
            .map(|(i, (alg, procs))| {
                let s = schedule_request(&ScheduleRequest::new(alg, fig1(), Machine::new(procs)));
                (0x1000 + i as u64, s)
            })
            .collect()
    }

    fn sample_entries() -> Vec<(u64, Arc<PackedSchedule>)> {
        sample_schedules()
            .iter()
            .map(|(fp, s)| (*fp, Arc::new(PackedSchedule::from_schedule(s))))
            .collect()
    }

    /// Packed entries encode to the v3 layout built field by field from
    /// the schedules they were packed from.
    #[test]
    fn encode_is_the_v3_layout_of_the_source_schedules() {
        let schedules = sample_schedules();
        let mut want = Vec::new();
        want.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        want.extend_from_slice(&3u32.to_le_bytes());
        want.extend_from_slice(&(schedules.len() as u32).to_le_bytes());
        for (fp, s) in &schedules {
            let bytes = wire::encode_schedule(s);
            want.extend_from_slice(&fp.to_le_bytes());
            want.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            want.extend_from_slice(&bytes);
        }
        let mut h = Fnv64::new();
        h.write(&want);
        want.extend_from_slice(&h.finish().to_le_bytes());
        let got = encode(&sample_entries());
        assert_eq!(got, want);
        // Decoding packs the same entries, which encode to the same file.
        let back: Vec<_> = decode(&got)
            .unwrap()
            .into_iter()
            .map(|(fp, s)| (fp, Arc::new(s)))
            .collect();
        assert_eq!(encode(&back), want);
    }

    #[test]
    fn roundtrip_preserves_entries_and_order() {
        let entries = sample_entries();
        let decoded = decode(&encode(&entries)).unwrap();
        assert_eq!(decoded.len(), entries.len());
        for ((fp_in, s_in), (fp_out, s_out)) in entries.iter().zip(&decoded) {
            assert_eq!(fp_in, fp_out);
            assert_eq!(&**s_in, s_out);
        }
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        assert_eq!(decode(&encode(&[])).unwrap(), vec![]);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode(&sample_entries());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let bytes = encode(&sample_entries());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn hostile_count_does_not_allocate() {
        // A checksum-clean body claiming u32::MAX entries must fail on the
        // size bound, not attempt a huge Vec::with_capacity.
        let mut body = Vec::new();
        body.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        body.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut h = Fnv64::new();
        h.write(&body);
        body.extend_from_slice(&h.finish().to_le_bytes());
        assert!(matches!(decode(&body), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn save_load_quarantine_cycle() {
        let dir = std::env::temp_dir().join(format!("flb-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");

        let entries = sample_entries();
        save_atomic(&path, &entries).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), entries.len());

        // Corrupt it on disk; load must flag it, quarantine must move it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Corrupt(_))));
        let quarantined = quarantine(&path).unwrap();
        assert!(!path.exists());
        assert!(quarantined.exists());
        assert!(quarantined.to_string_lossy().ends_with(".corrupt"));

        // A second and third corruption must not clobber the evidence:
        // each quarantine lands on the next free counter suffix.
        std::fs::write(&path, b"also corrupt").unwrap();
        let second = quarantine(&path).unwrap();
        assert!(second.to_string_lossy().ends_with(".corrupt.1"));
        std::fs::write(&path, b"corrupt again").unwrap();
        let third = quarantine(&path).unwrap();
        assert!(third.to_string_lossy().ends_with(".corrupt.2"));
        assert!(quarantined.exists() && second.exists() && third.exists());

        // A missing file is Io, not Corrupt: a fresh boot, not an alarm.
        assert!(matches!(load(&path), Err(SnapshotError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Quarantine evidence is bounded: past the cap, the *oldest* files
    /// are deleted and counted, and the file just captured survives.
    #[test]
    fn quarantine_growth_is_capped() {
        let dir = std::env::temp_dir().join(format!("flb-quar-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");

        let keep = 3;
        let mut total_pruned = 0u64;
        let mut last = PathBuf::new();
        for i in 0..8 {
            std::fs::write(&path, format!("corrupt generation {i}")).unwrap();
            let (target, pruned) = quarantine_capped(&path, keep).unwrap();
            total_pruned += pruned;
            last = target;
        }
        let corrupt_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".corrupt"))
            .collect();
        assert!(
            corrupt_files.len() <= keep,
            "cap violated: {} quarantine files survive",
            corrupt_files.len()
        );
        assert_eq!(total_pruned as usize, 8 - keep);
        assert!(last.exists(), "the newest evidence must survive pruning");
        // An unrelated sibling (e.g. a journal segment) is never touched.
        let bystander = dir.join("journal-00000001.flbj");
        std::fs::write(&bystander, b"not evidence").unwrap();
        std::fs::write(&path, b"one more").unwrap();
        let _ = quarantine_capped(&path, keep).unwrap();
        assert!(bystander.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
