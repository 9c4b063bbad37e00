//! Durable append-only request journal: crash-safe recording of the
//! schedule-request stream for incident replay, capacity planning and
//! trace-driven chaos.
//!
//! A journal is a directory of segment files (`journal-00000001.flbj`,
//! `journal-00000002.flbj`, ...), each:
//!
//! ```text
//! magic    u32 LE = 0x464C_424A ("FLBJ")
//! version  u32 LE = 1
//! records  * (len u32 LE, checksum u64 LE, payload)
//! ```
//!
//! where `checksum` is FNV-1a over `payload` (the same hash the cache
//! snapshot uses) and `payload` is:
//!
//! ```text
//! kind         u8 = 1 (request record)
//! ts_us        u64 LE   microseconds since service start
//! conn_id      u64 LE   accepting connection's id
//! reply_kind   u8       wire kind code of the response sent
//! reply_digest u64 LE   FNV-1a over the encoded schedule (0 if none)
//! request      ...      `proto::encode_request` bytes, to end of payload
//! ```
//!
//! # Durability model
//!
//! Journaling is strictly off the request path: connection threads hand
//! events to a bounded queue ([`Appender::append`] never blocks, and
//! wakes no thread while traffic flows) and a dedicated writer thread
//! does all file I/O, one write per drain of the queue. When the disk
//! stalls or fills, the queue fills and further events are *dropped and
//! counted* ([`JournalCounters::dropped`]) — the journal is shed, never
//! the client. Fsync policy is configurable ([`SyncPolicy`]); segments
//! rotate at a size cap.
//!
//! # Recovery model
//!
//! [`recover_dir`] runs at boot and never refuses to start: a torn tail
//! (crash mid-append, including mid-length-header) is truncated to the
//! last whole record, a segment that fails validation outright (bad
//! header, checksum mismatch, garbage length) is quarantined via the
//! capped [`crate::snapshot::quarantine_capped`] helper, and writing
//! always resumes in a *fresh* segment one index past everything seen,
//! so a recovered journal is never appended to in place.

use crate::fingerprint::Fnv64;
use crate::packed::PackedSchedule;
use crate::proto::MAX_FRAME;
use flb_sched::io::wire;
use flb_sched::Schedule;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Segment file magic: `"FLBJ"`.
pub const JOURNAL_MAGIC: u32 = 0x464C_424A;

/// Current segment format version.
pub const JOURNAL_VERSION: u32 = 1;

/// Segment header length in bytes (magic + version).
pub const HEADER_LEN: usize = 8;

/// Bytes of framing per record ahead of the payload (length + checksum).
pub const RECORD_FRAMING: usize = 12;

/// Largest accepted record payload: a full protocol frame plus the
/// record prefix, with headroom. Bounds allocation on corrupt lengths.
pub const MAX_RECORD: u32 = MAX_FRAME + 64;

/// Fixed prefix of a record payload ahead of the request bytes.
const RECORD_PREFIX: usize = 1 + 8 + 8 + 1 + 8;

/// Record kind: a served schedule request.
const REC_REQUEST: u8 = 1;

/// The segment header bytes (magic then version, both LE).
#[must_use]
fn header_bytes() -> [u8; HEADER_LEN] {
    let [m0, m1, m2, m3] = JOURNAL_MAGIC.to_le_bytes();
    let [v0, v1, v2, v3] = JOURNAL_VERSION.to_le_bytes();
    [m0, m1, m2, m3, v0, v1, v2, v3]
}

/// When the journal writer calls `fsync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never explicitly — the OS flushes when it pleases. Fastest;
    /// a power loss may cost everything since the last OS writeback.
    None,
    /// At most every this-many milliseconds. The default trade: a crash
    /// costs at most one interval of records.
    Interval(u64),
    /// After every write: each record is synced before it counts as
    /// appended. Slowest; loses nothing that was acked.
    Always,
}

/// Default `Interval` period in milliseconds.
pub const DEFAULT_SYNC_INTERVAL_MS: u64 = 100;

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::Interval(DEFAULT_SYNC_INTERVAL_MS)
    }
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    /// Parses `none`, `interval`, `interval:MS`, or `always`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(SyncPolicy::None),
            "always" => Ok(SyncPolicy::Always),
            "interval" => Ok(SyncPolicy::Interval(DEFAULT_SYNC_INTERVAL_MS)),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse()
                    .map(SyncPolicy::Interval)
                    .map_err(|e| format!("bad interval {ms:?}: {e}")),
                None => Err(format!(
                    "unknown sync policy {other:?} (none|interval[:MS]|always)"
                )),
            },
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::None => f.write_str("none"),
            SyncPolicy::Interval(ms) => write!(f, "interval:{ms}"),
            SyncPolicy::Always => f.write_str("always"),
        }
    }
}

/// Live journal counters, shared between the writer thread, recovery,
/// and the `stats` endpoint (held as an `Arc` in `Metrics`).
#[derive(Debug, Default)]
pub struct JournalCounters {
    /// Records durably handed to the filesystem.
    pub appended: AtomicU64,
    /// Events shed because the hand-off queue was full or the writer
    /// could not write (stalled/full disk) — never blocks a client.
    pub dropped: AtomicU64,
    /// Record bytes written (framing included).
    pub bytes: AtomicU64,
    /// Segment files opened (recovered segments + fresh ones).
    pub segments: AtomicU64,
    /// Records found intact by boot recovery.
    pub recovered: AtomicU64,
    /// Torn-tail bytes truncated by boot recovery.
    pub truncated_bytes: AtomicU64,
    /// Corrupt segments quarantined by boot recovery.
    pub quarantined: AtomicU64,
    /// Old quarantine files deleted to honour the evidence cap (both
    /// journal and snapshot quarantines count here).
    pub pruned: AtomicU64,
}

/// One recorded (or to-be-recorded) request, as stored on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Microseconds since service start when the request arrived.
    pub ts_us: u64,
    /// Id of the connection that carried it.
    pub conn_id: u64,
    /// Wire kind code of the response that was sent.
    pub reply_kind: u8,
    /// FNV-1a digest of the encoded schedule in the reply; 0 when the
    /// reply carried no schedule.
    pub reply_digest: u64,
    /// The raw `proto::encode_request` payload bytes.
    pub request: Vec<u8>,
}

impl JournalRecord {
    /// Whether the recorded reply is deterministic and replay-checkable:
    /// only `schedule` replies are — every other kind (busy, overloaded,
    /// expired, ...) depends on load at recording time.
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        self.reply_kind == crate::proto::RESP_SCHEDULE
    }

    /// Builds a record for a served schedule reply — the deterministic,
    /// replay-checkable kind. Trace generators (`flb record`) use this
    /// so they never need the raw wire kind codes.
    #[must_use]
    pub fn served(ts_us: u64, conn_id: u64, schedule: &Schedule, request: Vec<u8>) -> Self {
        JournalRecord {
            ts_us,
            conn_id,
            reply_kind: crate::proto::RESP_SCHEDULE,
            reply_digest: schedule_digest(schedule),
            request,
        }
    }
}

/// FNV-1a digest over a schedule's canonical wire encoding — the
/// reply-equivalence check replay uses (`cached`/`micros` response
/// fields are load-dependent, the schedule bytes are not).
#[must_use]
pub fn schedule_digest(schedule: &Schedule) -> u64 {
    let mut h = Fnv64::new();
    h.write(&wire::encode_schedule(schedule));
    h.finish()
}

/// Encodes one record as its on-disk frame (length, checksum, payload).
#[must_use]
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_record(&mut out, rec);
    out
}

/// Appends one record's on-disk frame to `out`, the bytes
/// [`encode_record`] returns.
fn put_record(out: &mut Vec<u8>, rec: &JournalRecord) {
    let payload: [&[u8]; 6] = [
        &[REC_REQUEST],
        &rec.ts_us.to_le_bytes(),
        &rec.conn_id.to_le_bytes(),
        &[rec.reply_kind],
        &rec.reply_digest.to_le_bytes(),
        &rec.request,
    ];
    let mut h = Fnv64::new();
    for field in payload {
        h.write(field);
    }
    out.reserve(frame_len(rec));
    out.extend_from_slice(&((RECORD_PREFIX + rec.request.len()) as u32).to_le_bytes());
    out.extend_from_slice(&h.finish().to_le_bytes());
    for field in payload {
        out.extend_from_slice(field);
    }
}

/// Length of `rec`'s on-disk frame.
fn frame_len(rec: &JournalRecord) -> usize {
    RECORD_FRAMING + RECORD_PREFIX + rec.request.len()
}

/// Decodes one record payload (the bytes behind the framing).
///
/// # Errors
///
/// Returns a message naming the first structural problem.
pub fn decode_record(payload: &[u8]) -> Result<JournalRecord, String> {
    let mut r = wire::Reader::new(payload);
    let truncated = |e: wire::WireError| format!("record prefix: {e}");
    let kind = r.u8().map_err(truncated)?;
    if kind != REC_REQUEST {
        return Err(format!("unknown record kind {kind}"));
    }
    let ts_us = r.u64().map_err(truncated)?;
    let conn_id = r.u64().map_err(truncated)?;
    let reply_kind = r.u8().map_err(truncated)?;
    let reply_digest = r.u64().map_err(truncated)?;
    let request = r.bytes(r.remaining()).map_err(truncated)?.to_vec();
    if request.is_empty() {
        return Err("record carries no request bytes".to_string());
    }
    Ok(JournalRecord {
        ts_us,
        conn_id,
        reply_kind,
        reply_digest,
        request,
    })
}

/// How a segment scan ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanEnd {
    /// Every byte was a whole, valid record — the segment is intact.
    Clean,
    /// The scan hit an incomplete tail (crash mid-append): everything
    /// up to `Scan::valid_len` is good, the rest should be truncated.
    Torn,
    /// The scan hit bytes that cannot be a crash artefact (bad header,
    /// checksum mismatch, impossible length): quarantine the file.
    Corrupt(String),
}

/// The result of scanning segment bytes: the valid record prefix and
/// how the scan ended. Never panics, whatever the input.
#[derive(Debug)]
pub struct Scan {
    /// Records of the valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header included).
    pub valid_len: usize,
    /// What terminated the scan.
    pub end: ScanEnd,
}

/// Scans segment bytes into the longest valid record prefix.
#[must_use]
pub fn scan_segment(bytes: &[u8]) -> Scan {
    let mut r = wire::Reader::new(bytes);
    let header_fault = match (r.u32(), r.u32()) {
        (Ok(JOURNAL_MAGIC), Ok(JOURNAL_VERSION)) => None,
        // A partial header is a crash during segment creation (torn);
        // anything else in those first bytes is foreign data.
        _ if bytes.len() < HEADER_LEN => Some(if header_bytes().starts_with(bytes) {
            ScanEnd::Torn
        } else {
            ScanEnd::Corrupt("not a journal segment (bad header)".to_string())
        }),
        (Ok(JOURNAL_MAGIC), Ok(version)) => {
            Some(ScanEnd::Corrupt(format!("unsupported version {version}")))
        }
        (magic, _) => Some(ScanEnd::Corrupt(format!(
            "bad magic {:#010x}",
            magic.unwrap_or(0)
        ))),
    };
    if let Some(end) = header_fault {
        return Scan {
            records: Vec::new(),
            valid_len: 0,
            end,
        };
    }
    let mut records = Vec::new();
    let mut valid_len = HEADER_LEN;
    let end = loop {
        if r.remaining() == 0 {
            break ScanEnd::Clean;
        }
        // A record needs its 12-byte framing; fewer remaining bytes is a
        // torn tail — including the pinned case where the crash split
        // the length header itself.
        let Ok(len) = r.u32() else {
            break ScanEnd::Torn;
        };
        if len > MAX_RECORD {
            break ScanEnd::Corrupt(format!("record of {len} bytes exceeds MAX_RECORD"));
        }
        let (Ok(stored), Ok(payload)) = (r.u64(), r.bytes(len as usize)) else {
            break ScanEnd::Torn;
        };
        let mut h = Fnv64::new();
        h.write(payload);
        if h.finish() != stored {
            break ScanEnd::Corrupt("record checksum mismatch".to_string());
        }
        match decode_record(payload) {
            Ok(rec) => records.push(rec),
            Err(msg) => {
                break ScanEnd::Corrupt(format!("checksum-clean record does not decode: {msg}"))
            }
        }
        valid_len = bytes.len() - r.remaining();
    };
    Scan {
        records,
        valid_len,
        end,
    }
}

/// The canonical file name of segment `index`.
#[must_use]
pub fn segment_file_name(index: u64) -> String {
    format!("journal-{index:08}.flbj")
}

/// Parses a segment file name back to its index.
#[must_use]
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("journal-")?.strip_suffix(".flbj")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Segment files in a journal directory, sorted by index.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(index) = name.to_str().and_then(parse_segment_name) {
            segs.push((index, entry.path()));
        }
    }
    segs.sort_by_key(|(i, _)| *i);
    Ok(segs)
}

/// What boot recovery found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// First segment index free for new writes (one past everything
    /// seen — a recovered journal is never appended to in place).
    pub next_index: u64,
    /// Intact records across all surviving segments.
    pub records: u64,
    /// Surviving segments.
    pub segments: u64,
    /// Torn-tail bytes truncated (and bytes of removed header stubs).
    pub truncated_bytes: u64,
    /// Segments quarantined as corrupt.
    pub quarantined: u64,
    /// Old quarantine files pruned under the evidence cap.
    pub pruned: u64,
}

/// Recovers a journal directory in place: truncates torn tails,
/// quarantines corrupt segments (capped), and reports what it found.
/// Creates the directory when missing. Per-file I/O problems are
/// reported to stderr and skipped — recovery never refuses to proceed.
///
/// # Errors
///
/// Only when the directory itself cannot be created or listed.
pub fn recover_dir(dir: &Path) -> io::Result<Recovery> {
    std::fs::create_dir_all(dir)?;
    let mut out = Recovery::default();
    let mut max_index = 0u64;
    for (index, path) in list_segments(dir)? {
        max_index = max_index.max(index);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("flb-service: cannot read {}: {e}; skipped", path.display());
                continue;
            }
        };
        let scan = scan_segment(&bytes);
        match scan.end {
            ScanEnd::Clean => {
                out.records += scan.records.len() as u64;
                out.segments += 1;
            }
            ScanEnd::Torn => {
                let torn = (bytes.len() - scan.valid_len) as u64;
                if scan.valid_len < HEADER_LEN {
                    // A header stub has nothing worth keeping.
                    match std::fs::remove_file(&path) {
                        Ok(()) => out.truncated_bytes += bytes.len() as u64,
                        Err(e) => {
                            eprintln!("flb-service: cannot remove {}: {e}", path.display());
                        }
                    }
                    continue;
                }
                let truncated = std::fs::File::options()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(scan.valid_len as u64));
                match truncated {
                    Ok(()) => {
                        out.truncated_bytes += torn;
                        out.records += scan.records.len() as u64;
                        out.segments += 1;
                        eprintln!(
                            "flb-service: truncated {torn}-byte torn tail of {}",
                            path.display()
                        );
                    }
                    Err(e) => {
                        eprintln!(
                            "flb-service: cannot truncate {}: {e}; skipped",
                            path.display()
                        );
                    }
                }
            }
            ScanEnd::Corrupt(msg) => {
                match crate::snapshot::quarantine_capped(&path, crate::snapshot::QUARANTINE_KEEP) {
                    Ok((q, pruned)) => {
                        out.quarantined += 1;
                        out.pruned += pruned;
                        eprintln!(
                            "flb-service: {msg}; quarantined {} -> {}",
                            path.display(),
                            q.display()
                        );
                    }
                    Err(e) => {
                        eprintln!(
                            "flb-service: {msg}; quarantine of {} failed: {e}",
                            path.display()
                        );
                    }
                }
            }
        }
    }
    out.next_index = max_index + 1;
    Ok(out)
}

/// Reads every intact record of a trace — a journal directory or a
/// single segment file — in append order. Torn tails are ignored;
/// corrupt segments contribute their valid prefix.
///
/// # Errors
///
/// Only when the path cannot be read at all.
pub fn read_trace(path: &Path) -> io::Result<Vec<JournalRecord>> {
    let mut records = Vec::new();
    if path.is_dir() {
        for (_, seg) in list_segments(path)? {
            let bytes = std::fs::read(&seg)?;
            records.extend(scan_segment(&bytes).records);
        }
    } else {
        let bytes = std::fs::read(path)?;
        records.extend(scan_segment(&bytes).records);
    }
    Ok(records)
}

/// Writes records as a fresh journal directory (used by the offline
/// recorder): segments are rotated at `segment_bytes` and synced, so the
/// result is byte-for-byte reproducible from the same records.
///
/// # Errors
///
/// On any file I/O failure.
pub fn write_trace(dir: &Path, records: &[JournalRecord], segment_bytes: u64) -> io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut index = 1u64;
    let mut buf: Vec<u8> = header_bytes().to_vec();
    let mut segments = 0u64;
    let flush = |index: u64, buf: &mut Vec<u8>| -> io::Result<()> {
        let path = dir.join(segment_file_name(index));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(buf)?;
        f.sync_all()?;
        buf.clear();
        buf.extend_from_slice(&header_bytes());
        Ok(())
    };
    for rec in records {
        if buf.len() > HEADER_LEN && (buf.len() + frame_len(rec)) as u64 > segment_bytes.max(1) {
            flush(index, &mut buf)?;
            segments += 1;
            index += 1;
        }
        put_record(&mut buf, rec);
    }
    flush(index, &mut buf)?;
    Ok(segments + 1)
}

/// A reply the journal records: the writer takes a record's reply
/// digest from it.
pub trait ReplyDigest {
    /// [`schedule_digest`] of the schedule the reply carried.
    fn reply_digest(&self) -> u64;
}

/// The daemon's replies: the digest is computed once per cache entry,
/// however many records carry it.
impl ReplyDigest for Arc<PackedSchedule> {
    fn reply_digest(&self) -> u64 {
        self.digest()
    }
}

/// A plain schedule, digested per record.
impl ReplyDigest for Arc<Schedule> {
    fn reply_digest(&self) -> u64 {
        schedule_digest(self)
    }
}

/// One event handed from a connection thread to the writer thread. The
/// reply rides as an `Arc` so the digest is computed off the request
/// path, by the writer. The daemon sends its cache entries
/// (`R = Arc<PackedSchedule>`).
pub struct JournalEvent<R = Arc<Schedule>> {
    /// Microseconds since service start when the request arrived.
    pub ts_us: u64,
    /// Id of the connection that carried it.
    pub conn_id: u64,
    /// Wire kind code of the response that was sent.
    pub reply_kind: u8,
    /// The schedule the reply carried, if any.
    pub reply: Option<R>,
    /// The raw request payload bytes, as read off the wire.
    pub request: Vec<u8>,
}

/// The connection threads' handle to the journal: a bounded, never-
/// blocking hand-off to the writer thread.
pub struct Appender<R = Arc<Schedule>> {
    tx: SyncSender<JournalEvent<R>>,
    counters: Arc<JournalCounters>,
}

impl<R> Appender<R> {
    /// Offers one event to the writer. When the queue is full (stalled
    /// or slow disk) the event is dropped and counted — never blocks.
    pub fn append(&self, event: JournalEvent<R>) {
        if self.tx.try_send(event).is_err() {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Creates the bounded hand-off queue between connections and writer.
#[must_use]
pub fn channel<R>(
    capacity: usize,
    counters: Arc<JournalCounters>,
) -> (Appender<R>, Receiver<JournalEvent<R>>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(capacity.max(1));
    (Appender { tx, counters }, rx)
}

/// Writer-thread configuration.
#[derive(Clone, Debug)]
pub struct WriterConfig {
    /// The journal directory.
    pub dir: PathBuf,
    /// Fsync policy.
    pub sync: SyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Test-only simulated disk stall per record, in milliseconds —
    /// makes the bounded queue fill so the drop path is exercisable.
    pub stall_ms: u64,
}

/// How often the writer drains the queue while events keep arriving.
/// Between drains it sleeps instead of waiting on the queue, so an
/// `append` wakes no thread; one tick bounds how long an event waits.
const DRAIN_TICK: Duration = Duration::from_millis(1);

/// How long an idle writer blocks on the queue before it looks at the
/// shutdown flag again.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Buffered bytes past which a drain writes before taking more events.
const DRAIN_BYTES: usize = 1 << 20;

struct Segment {
    file: std::fs::File,
    /// Bytes of the segment, the writer's unwritten buffer included.
    bytes: u64,
}

fn open_segment(dir: &Path, index: u64, counters: &JournalCounters) -> io::Result<Segment> {
    let path = dir.join(segment_file_name(index));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(&header_bytes())?;
    counters.segments.fetch_add(1, Ordering::Relaxed);
    Ok(Segment {
        file,
        bytes: HEADER_LEN as u64,
    })
}

/// The writer thread's state: the open segment and the records encoded
/// for it but not yet written. Records reach the file in the order they
/// were pushed, and the segment files come out byte for byte as writing
/// each record on its own would leave them.
struct SegmentWriter<'a> {
    cfg: &'a WriterConfig,
    counters: &'a JournalCounters,
    index: u64,
    seg: Option<Segment>,
    /// Encoded records for `seg`, reused across drains.
    buf: Vec<u8>,
    /// Records in `buf`.
    buffered: u64,
}

impl SegmentWriter<'_> {
    /// Encodes one event into the buffer, first writing out the buffer
    /// and rotating when the record would push the segment past the cap
    /// (an empty segment never rotates: an oversized record still lands).
    fn push<R: ReplyDigest>(&mut self, ev: JournalEvent<R>) {
        if self.cfg.stall_ms > 0 {
            // Chaos hook: a disk that takes this long per record makes the
            // bounded queue fill, exercising the real drop path.
            std::thread::sleep(Duration::from_millis(self.cfg.stall_ms));
        }
        let rec = JournalRecord {
            ts_us: ev.ts_us,
            conn_id: ev.conn_id,
            reply_kind: ev.reply_kind,
            reply_digest: ev.reply.as_ref().map_or(0, ReplyDigest::reply_digest),
            request: ev.request,
        };
        let len = frame_len(&rec) as u64;
        let cap = self.cfg.segment_bytes.max(1);
        if self
            .seg
            .as_ref()
            .is_some_and(|s| s.bytes > HEADER_LEN as u64 && s.bytes + len > cap)
        {
            self.flush();
            if let Some(s) = self.seg.take() {
                let _ = s.file.sync_data();
            }
        }
        if self.seg.is_none() {
            // Either rotating, or recovering from an earlier write failure;
            // always move to a fresh index so a half-written file is never
            // appended to.
            self.index += 1;
            match open_segment(&self.cfg.dir, self.index, self.counters) {
                Ok(s) => self.seg = Some(s),
                Err(e) => {
                    eprintln!("flb-service: journal segment open failed: {e}");
                    self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        if let Some(s) = self.seg.as_mut() {
            s.bytes += len;
            put_record(&mut self.buf, &rec);
            self.buffered += 1;
        }
        if self.buf.len() >= DRAIN_BYTES {
            self.flush();
        }
    }

    /// Encodes queued events until the queue is empty or one
    /// [`DRAIN_TICK`] has passed, then writes them out in one flush.
    /// Returns whether the queue ran empty. The time bound keeps a
    /// writer that cannot catch up (a stalled disk under steady
    /// traffic) writing as it goes.
    fn drain<R: ReplyDigest>(&mut self, rx: &Receiver<JournalEvent<R>>) -> bool {
        let t0 = Instant::now();
        let emptied = loop {
            match rx.try_recv() {
                Ok(ev) => self.push(ev),
                Err(_) => break true,
            }
            if t0.elapsed() >= DRAIN_TICK {
                break false;
            }
        };
        self.flush();
        emptied
    }

    /// Writes the buffered records to the segment with one `write_all`,
    /// syncing under [`SyncPolicy::Always`]. A failed write drops them
    /// all (counted) and abandons the segment; the next record opens a
    /// fresh one.
    fn flush(&mut self) {
        if self.buffered == 0 {
            return;
        }
        let (n, bytes) = (self.buffered, self.buf.len() as u64);
        self.buffered = 0;
        let written = match self.seg.as_mut() {
            Some(s) => s.file.write_all(&self.buf),
            None => Err(io::Error::other("no open segment")),
        };
        self.buf.clear();
        match written {
            Ok(()) => {
                if let (SyncPolicy::Always, Some(s)) = (self.cfg.sync, self.seg.as_ref()) {
                    let _ = s.file.sync_data();
                }
                self.counters.appended.fetch_add(n, Ordering::Relaxed);
                self.counters.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!("flb-service: journal append failed: {e}");
                self.counters.dropped.fetch_add(n, Ordering::Relaxed);
                self.seg = None;
            }
        }
    }
}

/// The dedicated writer thread's loop. Idle, it blocks on the queue;
/// once an event arrives it drains the queue every [`DRAIN_TICK`] with
/// one write per drain (at once again if a drain left events queued),
/// until a tick brings nothing. It rotates segments
/// at the size cap and fsyncs per policy. Returns once `shutdown` reads
/// true (after draining what is queued) or every `Appender` is gone. A
/// failing disk costs records (counted as dropped), never progress.
pub fn writer_loop<R: ReplyDigest>(
    cfg: &WriterConfig,
    rx: &Receiver<JournalEvent<R>>,
    counters: &JournalCounters,
    start_index: u64,
    shutdown: &dyn Fn() -> bool,
) {
    let seg = match open_segment(&cfg.dir, start_index, counters) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!(
                "flb-service: cannot open journal segment in {}: {e}",
                cfg.dir.display()
            );
            None
        }
    };
    let mut w = SegmentWriter {
        cfg,
        counters,
        index: start_index,
        seg,
        buf: Vec::new(),
        buffered: 0,
    };
    let mut last_sync = Instant::now();
    let mut sync_due = |w: &SegmentWriter<'_>| {
        if let (SyncPolicy::Interval(ms), Some(s)) = (cfg.sync, w.seg.as_ref()) {
            if last_sync.elapsed() >= Duration::from_millis(ms.max(1)) {
                let _ = s.file.sync_data();
                last_sync = Instant::now();
            }
        }
    };
    loop {
        match rx.recv_timeout(IDLE_POLL) {
            Ok(ev) => {
                w.push(ev);
                // Traffic flows: drain once per tick until a tick brings
                // nothing.
                loop {
                    let emptied = w.drain(rx);
                    sync_due(&w);
                    if emptied {
                        std::thread::sleep(DRAIN_TICK);
                        match rx.try_recv() {
                            Ok(ev) => w.push(ev),
                            Err(_) => break,
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shutdown() {
                    break;
                }
                sync_due(&w);
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Shutdown: drain whatever the connections managed to enqueue.
    while !w.drain(rx) {}
    if let Some(s) = w.seg {
        let _ = s.file.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, Request};
    use flb_core::AlgorithmId;
    use flb_graph::paper::fig1;
    use flb_sched::Machine;

    fn sample_request_bytes(deadline_ms: u64) -> Vec<u8> {
        encode_request(&Request::Schedule {
            request: Box::new(flb_core::ScheduleRequest::new(
                AlgorithmId::Flb,
                fig1(),
                Machine::new(2),
            )),
            deadline_ms,
            tenant: "rec".into(),
        })
    }

    fn sample_record(i: u64) -> JournalRecord {
        JournalRecord {
            ts_us: 1_000 * i,
            conn_id: i,
            reply_kind: 1,
            reply_digest: 0xD1_6E57 + i,
            request: sample_request_bytes(i),
        }
    }

    fn segment_bytes(records: &[JournalRecord]) -> Vec<u8> {
        let mut out = header_bytes().to_vec();
        for r in records {
            out.extend_from_slice(&encode_record(r));
        }
        out
    }

    #[test]
    fn records_roundtrip() {
        for i in 0..4 {
            let rec = sample_record(i);
            let frame = encode_record(&rec);
            let mut r = wire::Reader::new(&frame);
            let len = r.u32().unwrap() as usize;
            let _sum = r.u64().unwrap();
            let payload = r.bytes(len).unwrap();
            assert_eq!(decode_record(payload).unwrap(), rec);
        }
    }

    #[test]
    fn clean_segment_scans_fully() {
        let recs: Vec<_> = (0..5).map(sample_record).collect();
        let bytes = segment_bytes(&recs);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.end, ScanEnd::Clean);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.records, recs);
    }

    #[test]
    fn torn_tail_yields_the_valid_prefix() {
        let recs: Vec<_> = (0..3).map(sample_record).collect();
        let bytes = segment_bytes(&recs);
        let two = segment_bytes(&recs[..2]);
        // Cut anywhere inside the third record: the first two survive.
        for cut in two.len() + 1..bytes.len() {
            let scan = scan_segment(&bytes[..cut]);
            assert_eq!(scan.end, ScanEnd::Torn, "cut at {cut}");
            assert_eq!(scan.valid_len, two.len());
            assert_eq!(scan.records.len(), 2);
        }
    }

    /// The pinned regression: a crash that splits the *length header*
    /// of the next record (fewer than 4 bytes of it written) must scan
    /// as a torn tail, not corrupt, and keep the whole prefix.
    #[test]
    fn torn_tail_splitting_a_length_header_is_truncatable() {
        let recs: Vec<_> = (0..2).map(sample_record).collect();
        let mut bytes = segment_bytes(&recs);
        let prefix = bytes.len();
        bytes.extend_from_slice(&[0x2A, 0x00]); // 2 of 4 length bytes
        let scan = scan_segment(&bytes);
        assert_eq!(scan.end, ScanEnd::Torn);
        assert_eq!(scan.valid_len, prefix);
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn bitflips_in_a_record_are_corrupt_not_torn() {
        let bytes = segment_bytes(&[sample_record(0)]);
        // Flip one payload byte: checksum catches it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(scan_segment(&bad).end, ScanEnd::Corrupt(_)));
        // A hostile length is corrupt too, not an allocation.
        let mut huge = header_bytes().to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0u8; 8]);
        assert!(matches!(scan_segment(&huge).end, ScanEnd::Corrupt(_)));
        // A foreign file is corrupt from byte zero.
        assert!(matches!(
            scan_segment(b"definitely not a journal").end,
            ScanEnd::Corrupt(_)
        ));
        // A header stub is torn (crash during segment creation).
        assert_eq!(scan_segment(&header_bytes()[..3]).end, ScanEnd::Torn);
    }

    #[test]
    fn sync_policy_parses_and_displays() {
        use std::str::FromStr as _;
        assert_eq!(SyncPolicy::from_str("none").unwrap(), SyncPolicy::None);
        assert_eq!(SyncPolicy::from_str("always").unwrap(), SyncPolicy::Always);
        assert_eq!(
            SyncPolicy::from_str("interval").unwrap(),
            SyncPolicy::Interval(DEFAULT_SYNC_INTERVAL_MS)
        );
        assert_eq!(
            SyncPolicy::from_str("interval:250").unwrap(),
            SyncPolicy::Interval(250)
        );
        assert!(SyncPolicy::from_str("sometimes").is_err());
        assert_eq!(SyncPolicy::Interval(250).to_string(), "interval:250");
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_file_name(7), "journal-00000007.flbj");
        assert_eq!(parse_segment_name("journal-00000007.flbj"), Some(7));
        assert_eq!(parse_segment_name("journal-7.flbj"), None);
        assert_eq!(parse_segment_name("cache.snap"), None);
    }

    #[test]
    fn write_read_recover_cycle() {
        let dir = std::env::temp_dir().join(format!("flb-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recs: Vec<_> = (0..20).map(sample_record).collect();
        // A small cap forces rotation across several segments.
        let segments = write_trace(&dir, &recs, 4096).unwrap();
        assert!(segments > 1, "expected rotation, got {segments} segment(s)");
        assert_eq!(read_trace(&dir).unwrap(), recs);

        // Tear the last segment mid-record; recovery truncates it.
        let (idx, last) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = std::fs::read(&last).unwrap();
        std::fs::write(&last, &bytes[..bytes.len() - 3]).unwrap();
        let r = recover_dir(&dir).unwrap();
        assert_eq!(r.next_index, idx + 1);
        assert!(r.truncated_bytes > 0);
        assert_eq!(r.quarantined, 0);
        let survivors = read_trace(&dir).unwrap();
        assert_eq!(survivors.len() as u64, r.records);
        assert_eq!(survivors.len(), recs.len() - 1);
        assert_eq!(survivors, recs[..recs.len() - 1]);

        // Corrupt a whole segment; recovery quarantines it and still
        // reports a usable journal.
        let (_, first) = list_segments(&dir).unwrap().remove(0);
        std::fs::write(&first, b"garbage, not a segment").unwrap();
        let r2 = recover_dir(&dir).unwrap();
        assert_eq!(r2.quarantined, 1);
        assert!(read_trace(&dir).unwrap().len() < survivors.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_loop_appends_rotates_and_drops_when_stalled() {
        let dir = std::env::temp_dir().join(format!("flb-journal-wr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let counters = Arc::new(JournalCounters::default());
        let (appender, rx) = channel::<Arc<Schedule>>(4, Arc::clone(&counters));
        let cfg = WriterConfig {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            segment_bytes: 2048,
            stall_ms: 0,
        };
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (cfg, counters, stop) = (cfg.clone(), Arc::clone(&counters), Arc::clone(&stop));
            std::thread::spawn(move || {
                writer_loop(&cfg, &rx, &counters, 1, &|| stop.load(Ordering::SeqCst))
            })
        };
        for i in 0..12 {
            appender.append(JournalEvent {
                ts_us: i,
                conn_id: i,
                reply_kind: 1,
                reply: None,
                request: sample_request_bytes(i),
            });
            // Wait for the writer to take each event, so a slow
            // `sync_data` on a busy disk cannot fill the 4-slot queue and
            // shed events this phase expects written.
            let deadline = Instant::now() + Duration::from_secs(10);
            while counters.appended.load(Ordering::Relaxed) <= i && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        assert_eq!(counters.appended.load(Ordering::Relaxed), 12);
        assert!(counters.segments.load(Ordering::Relaxed) > 1, "rotation");
        assert_eq!(read_trace(&dir).unwrap().len(), 12);

        // A stalled writer with a tiny queue must shed, not block: the
        // appends below return immediately and some are counted dropped.
        let counters2 = Arc::new(JournalCounters::default());
        let (appender2, rx2) = channel::<Arc<Schedule>>(2, Arc::clone(&counters2));
        let cfg2 = WriterConfig {
            dir: dir.clone(),
            sync: SyncPolicy::None,
            segment_bytes: 1 << 20,
            stall_ms: 50,
        };
        let stop2 = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer2 = {
            let (cfg2, counters2, stop2) =
                (cfg2.clone(), Arc::clone(&counters2), Arc::clone(&stop2));
            std::thread::spawn(move || {
                writer_loop(&cfg2, &rx2, &counters2, 100, &|| {
                    stop2.load(Ordering::SeqCst)
                })
            })
        };
        let t0 = Instant::now();
        for i in 0..20 {
            appender2.append(JournalEvent {
                ts_us: i,
                conn_id: i,
                reply_kind: 1,
                reply: None,
                request: sample_request_bytes(i),
            });
        }
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "append must never block on a stalled disk"
        );
        assert!(counters2.dropped.load(Ordering::Relaxed) > 0);
        stop2.store(true, Ordering::SeqCst);
        writer2.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Event `i`, with a schedule on every third so the writer computes
    /// reply digests too, and the record it must be written as.
    fn event_and_record(i: u64, schedule: &Arc<Schedule>) -> (JournalEvent, JournalRecord) {
        let reply = i.is_multiple_of(3).then(|| Arc::clone(schedule));
        let rec = JournalRecord {
            ts_us: 7 * i,
            conn_id: i % 4,
            reply_kind: 1,
            reply_digest: reply.as_deref().map_or(0, schedule_digest),
            request: sample_request_bytes(i),
        };
        let ev = JournalEvent {
            ts_us: rec.ts_us,
            conn_id: rec.conn_id,
            reply_kind: rec.reply_kind,
            reply,
            request: rec.request.clone(),
        };
        (ev, rec)
    }

    fn fig1_schedule() -> Arc<Schedule> {
        Arc::new(flb_core::schedule_request(&flb_core::ScheduleRequest::new(
            AlgorithmId::Flb,
            fig1(),
            Machine::new(2),
        )))
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flb-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every segment file of `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        list_segments(dir)
            .unwrap()
            .into_iter()
            .map(|(i, path)| (segment_file_name(i), std::fs::read(path).unwrap()))
            .collect()
    }

    /// Runs a writer over `events` in `dir`: handed over one at a time,
    /// each written before the next is sent, or all queued before the
    /// writer starts, so its first drain takes them all.
    fn write_with<R: ReplyDigest + Send + 'static>(
        dir: &Path,
        events: Vec<JournalEvent<R>>,
        one_by_one: bool,
    ) -> Arc<JournalCounters> {
        let counters = Arc::new(JournalCounters::default());
        let (appender, rx) = channel(events.len(), Arc::clone(&counters));
        let cfg = WriterConfig {
            dir: dir.to_path_buf(),
            sync: SyncPolicy::Always,
            segment_bytes: 2048,
            stall_ms: 0,
        };
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(!one_by_one));
        let (queued, handed) = if one_by_one {
            (Vec::new(), events)
        } else {
            (events, Vec::new())
        };
        for ev in queued {
            appender.append(ev);
        }
        let writer = {
            let (counters, stop) = (Arc::clone(&counters), Arc::clone(&stop));
            std::thread::spawn(move || {
                writer_loop(&cfg, &rx, &counters, 1, &|| stop.load(Ordering::SeqCst))
            })
        };
        for (i, ev) in handed.into_iter().enumerate() {
            appender.append(ev);
            let deadline = Instant::now() + Duration::from_secs(10);
            while counters.appended.load(Ordering::Relaxed) <= i as u64 && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        counters
    }

    /// A drain writes many records with one write, yet the segment files
    /// come out byte for byte as writing each record on its own, and as
    /// the offline recorder writes them: same rotation points, same bytes.
    #[test]
    fn drained_segments_match_one_at_a_time_writes() {
        let schedule = fig1_schedule();
        let events = || (0..24).map(|i| event_and_record(i, &schedule).0).collect();
        let records: Vec<_> = (0..24).map(|i| event_and_record(i, &schedule).1).collect();
        let (single, drained, offline) = (
            scratch_dir("single"),
            scratch_dir("drained"),
            scratch_dir("offline"),
        );
        let c1 = write_with(&single, events(), true);
        let c2 = write_with(&drained, events(), false);
        write_trace(&offline, &records, 2048).unwrap();
        for c in [&c1, &c2] {
            assert_eq!(c.appended.load(Ordering::Relaxed), 24);
            assert_eq!(c.dropped.load(Ordering::Relaxed), 0);
        }
        assert_eq!(
            c1.bytes.load(Ordering::Relaxed),
            c2.bytes.load(Ordering::Relaxed)
        );
        let want = dir_bytes(&offline);
        assert!(
            want.len() > 2,
            "expected rotations, got {} segment(s)",
            want.len()
        );
        assert!(dir_bytes(&single) == want, "one-at-a-time segments differ");
        assert!(dir_bytes(&drained) == want, "drained segments differ");
        assert_eq!(read_trace(&drained).unwrap(), records);
        for dir in [single, drained, offline] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Events carrying the daemon's packed cache entries, one entry
    /// shared by many records, write the segments that events carrying
    /// the schedules write.
    #[test]
    fn packed_replies_write_the_same_segments() {
        let schedule = fig1_schedule();
        let packed = Arc::new(PackedSchedule::from_schedule(&schedule));
        let events = (0..24).map(|i| event_and_record(i, &schedule).0);
        let packed_events: Vec<JournalEvent<Arc<PackedSchedule>>> = events
            .clone()
            .map(|ev| JournalEvent {
                reply: ev.reply.map(|_| Arc::clone(&packed)),
                ts_us: ev.ts_us,
                conn_id: ev.conn_id,
                reply_kind: ev.reply_kind,
                request: ev.request,
            })
            .collect();
        let (plain, packed_dir) = (scratch_dir("plain"), scratch_dir("packed"));
        write_with(&plain, events.collect(), false);
        write_with(&packed_dir, packed_events, false);
        let want = dir_bytes(&plain);
        assert!(want.len() > 2, "expected rotations, got {}", want.len());
        assert!(
            dir_bytes(&packed_dir) == want,
            "packed replies wrote other segments"
        );
        assert_eq!(packed.digest(), schedule_digest(&schedule));
        for dir in [plain, packed_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Events still queued when the writer sees the shutdown flag are all
    /// written, in order, before it returns.
    #[test]
    fn shutdown_drains_every_queued_event() {
        let dir = scratch_dir("shutdown");
        let counters = Arc::new(JournalCounters::default());
        let (appender, rx) = channel(64, Arc::clone(&counters));
        let cfg = WriterConfig {
            dir: dir.clone(),
            sync: SyncPolicy::None,
            segment_bytes: 1 << 20,
            stall_ms: 0,
        };
        let schedule = fig1_schedule();
        let (events, records): (Vec<_>, Vec<_>) =
            (0..40).map(|i| event_and_record(i, &schedule)).unzip();
        let writer = {
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                // The first shutdown poll finds the queue empty; it fills
                // the queue and raises the flag in one step, so only the
                // final drain can write these events.
                let events = std::sync::Mutex::new(Some(events));
                writer_loop(&cfg, &rx, &counters, 1, &|| {
                    for ev in events.lock().unwrap().take().into_iter().flatten() {
                        appender.append(ev);
                    }
                    true
                });
            })
        };
        writer.join().unwrap();
        assert_eq!(counters.appended.load(Ordering::Relaxed), 40);
        assert_eq!(counters.dropped.load(Ordering::Relaxed), 0);
        assert_eq!(read_trace(&dir).unwrap(), records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The simulated disk stall is paid per record, not per drain: five
    /// queued records cost five stalls.
    #[test]
    fn stall_is_paid_per_record() {
        let dir = scratch_dir("stall");
        let counters = Arc::new(JournalCounters::default());
        let (appender, rx) = channel(8, Arc::clone(&counters));
        let cfg = WriterConfig {
            dir: dir.clone(),
            sync: SyncPolicy::None,
            segment_bytes: 1 << 20,
            stall_ms: 20,
        };
        let schedule = fig1_schedule();
        for i in 0..5 {
            appender.append(event_and_record(i, &schedule).0);
        }
        let t0 = Instant::now();
        let writer = {
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || writer_loop(&cfg, &rx, &counters, 1, &|| true))
        };
        writer.join().unwrap();
        assert_eq!(counters.appended.load(Ordering::Relaxed), 5);
        assert!(
            t0.elapsed() >= Duration::from_millis(100),
            "5 records at 20 ms each took {:?}",
            t0.elapsed()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stalled writer under steady traffic still writes as it goes:
    /// records count as appended while events keep arriving, not only
    /// once the traffic stops.
    #[test]
    fn stalled_writer_writes_while_traffic_flows() {
        use std::sync::atomic::AtomicBool;
        let dir = scratch_dir("stall-flow");
        let counters = Arc::new(JournalCounters::default());
        let (appender, rx) = channel(16, Arc::clone(&counters));
        let cfg = WriterConfig {
            dir: dir.clone(),
            sync: SyncPolicy::None,
            segment_bytes: 1 << 20,
            stall_ms: 5,
        };
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let (counters, done) = (Arc::clone(&counters), Arc::clone(&done));
            std::thread::spawn(move || {
                writer_loop(&cfg, &rx, &counters, 1, &|| done.load(Ordering::SeqCst));
            })
        };
        // One event a millisecond for 200 ms: faster than the writer's
        // 5 ms a record, so the queue never runs empty.
        let schedule = fig1_schedule();
        let t0 = Instant::now();
        let mut i = 0;
        while t0.elapsed() < Duration::from_millis(200) {
            appender.append(event_and_record(i, &schedule).0);
            i += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        let meanwhile = counters.appended.load(Ordering::Relaxed);
        done.store(true, Ordering::SeqCst);
        drop(appender);
        writer.join().unwrap();
        assert!(
            meanwhile >= 10,
            "{meanwhile} records written during 200 ms of traffic at 5 ms each"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
