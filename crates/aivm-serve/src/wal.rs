//! Write-ahead log and checkpoints for the serving runtime.
//!
//! Durability follows the classic command-log design: every event that
//! changes runtime state — a DML ingest, a count ingest, a scheduler
//! tick, a forced (Fresh-read) flush of one view's sharing group, a
//! budget change — is appended to an append-only
//! log *after* it has been applied. Because the runtime is
//! deterministic given its event sequence (policies are pure functions
//! of `(t, pending)` and the engine applies modifications
//! deterministically), replaying the log reproduces the exact view
//! state, pending counts, accumulated cost and trace of an uncrashed
//! run. Periodic [`Checkpoint`]s bound replay time by snapshotting the
//! database (via `aivm-engine`'s codec) and the pending deltas of every
//! scheduling cell at a known log position.
//!
//! ## Log format
//!
//! ```text
//! header: magic "AWAL" | version u16
//! record: payload_len u32 | fxhash64(payload) u64 | payload
//! payload: kind u8 (0 dml, 1 tick, 3 count, 4 set-budget,
//!          5 forced-view) | kind fields
//! ```
//!
//! All integers little-endian. The per-record checksum makes torn tails
//! detectable: [`read_wal`] stops at the first incomplete or
//! checksum-failing record and reports the log as truncated, mirroring
//! how a real log is cut at the last durable record after a crash.
//! Structural damage *inside* a checksummed record is a hard
//! [`EngineError::Corrupt`] instead — the disk lied, not the crash.

use aivm_engine::codec::FRAME_HEADER_LEN as FRAME_LEN;
use aivm_engine::codec::{checksum, put_frame, put_modification, split_frame, Reader, Split};
use aivm_engine::{EngineError, Modification};
use bytes::BufMut;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const WAL_MAGIC: &[u8; 4] = b"AWAL";
const WAL_VERSION: u16 = 1;
const WAL_HEADER_LEN: usize = 6;

const CKPT_MAGIC: &[u8; 4] = b"ACKP";
const CKPT_VERSION: u16 = 1;

/// One durable event in the command log.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A DML modification ingested for base table `table` (the position
    /// on the runtime's ingest axis, not the database id).
    Dml {
        /// Base-table position on the ingest axis.
        table: usize,
        /// The ingested modification.
        m: Modification,
    },
    /// A scheduler tick (window close + policy flush).
    Tick,
    /// A counts-only ingest of `k` modifications for table `table`
    /// (runtimes without an engine).
    Count {
        /// Base-table position on the ingest axis.
        table: usize,
        /// Number of modifications ingested.
        k: u64,
    },
    /// A refresh-budget change (a shard coordinator rebalancing `C`
    /// across shards). Logged so recovery replays the exact flush
    /// schedule the live run executed: `Tick` records carry no action,
    /// so the policy must see the same budget at every replayed tick.
    SetBudget {
        /// The new refresh budget `C` for this runtime.
        budget: f64,
    },
    /// A forced flush of one view's sharing group (the second half of a
    /// Fresh read of that view; view 0 on a single-view runtime).
    ForcedView {
        /// The view whose group was refreshed.
        view: u32,
    },
}

impl WalRecord {
    /// Encodes the record payload (framing is added by [`WalWriter`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        self.put(&mut b);
        b
    }

    fn put(&self, b: &mut Vec<u8>) {
        match self {
            WalRecord::Dml { table, m } => {
                b.put_u8(0);
                b.put_u32_le(*table as u32);
                put_modification(b, m);
            }
            WalRecord::Tick => b.put_u8(1),
            WalRecord::Count { table, k } => {
                b.put_u8(3);
                b.put_u32_le(*table as u32);
                b.put_u64_le(*k);
            }
            WalRecord::SetBudget { budget } => {
                b.put_u8(4);
                b.put_f64_le(*budget);
            }
            WalRecord::ForcedView { view } => {
                b.put_u8(5);
                b.put_u32_le(*view);
            }
        }
    }

    /// Decodes one record payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, EngineError> {
        Self::read(&mut Reader::new(payload, "wal record"))
    }

    /// Decodes the record that runs to the end of `r`.
    fn read(r: &mut Reader<'_>) -> Result<WalRecord, EngineError> {
        let rec = match r.u8("kind")? {
            0 => WalRecord::Dml {
                table: r.u32("dml table")? as usize,
                m: r.modification()?,
            },
            1 => WalRecord::Tick,
            3 => WalRecord::Count {
                table: r.u32("count fields")? as usize,
                k: r.u64("count fields")?,
            },
            4 => WalRecord::SetBudget {
                budget: r.f64("budget")?,
            },
            5 => WalRecord::ForcedView {
                view: r.u32("view")?,
            },
            other => return Err(r.corrupt(format!("record kind {other}"))),
        };
        r.finish()?;
        Ok(rec)
    }
}

/// Backing storage for the write-ahead log.
///
/// Implementations must make `append` atomic with respect to
/// `read_all`: readers see a byte-prefix of everything appended (a torn
/// *tail* is fine and handled; interleaved partial writes are not).
pub trait WalStorage: Send {
    /// Appends bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> Result<(), EngineError>;
    /// Makes all appended bytes durable (fsync or equivalent).
    fn sync(&mut self) -> Result<(), EngineError>;
    /// Reads the entire log contents (recovery path).
    fn read_all(&self) -> Result<Vec<u8>, EngineError>;
}

/// In-memory log storage that survives a *simulated* crash: the buffer
/// lives behind a shared handle, so dropping the runtime (the "crash")
/// leaves the bytes readable through a clone. The chaos harness's
/// crash/recover cycles and most tests use this.
#[derive(Clone, Debug, Default)]
pub struct MemWal {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemWal {
    /// A new, empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the current log bytes.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.lock().expect("wal buffer poisoned").clone()
    }

    /// Truncates the log to `len` bytes (harness helper for simulating
    /// a crash torn mid-record).
    pub fn truncate(&self, len: usize) {
        self.buf.lock().expect("wal buffer poisoned").truncate(len);
    }
}

impl WalStorage for MemWal {
    fn append(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        self.buf
            .lock()
            .expect("wal buffer poisoned")
            .extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
    fn read_all(&self) -> Result<Vec<u8>, EngineError> {
        Ok(self.bytes())
    }
}

/// File-backed log storage.
#[derive(Debug)]
pub struct FileWal {
    file: std::fs::File,
    path: PathBuf,
}

impl FileWal {
    /// Creates (truncating) a log file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)
            .map_err(|e| EngineError::io(format!("creating wal {}", path.display()), e))?;
        Ok(FileWal { file, path })
    }

    /// Opens an existing log file for appending.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| EngineError::io(format!("opening wal {}", path.display()), e))?;
        Ok(FileWal { file, path })
    }
}

impl WalStorage for FileWal {
    fn append(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        self.file
            .write_all(bytes)
            .map_err(|e| EngineError::io(format!("wal append to {}", self.path.display()), e))
    }
    fn sync(&mut self) -> Result<(), EngineError> {
        self.file
            .sync_data()
            .map_err(|e| EngineError::io(format!("wal sync of {}", self.path.display()), e))
    }
    fn read_all(&self) -> Result<Vec<u8>, EngineError> {
        std::fs::read(&self.path)
            .map_err(|e| EngineError::io(format!("reading wal {}", self.path.display()), e))
    }
}

/// When the WAL forces durability (fsync) of appended records.
///
/// The policy trades the crash-loss window against append throughput:
/// `Always` bounds loss to zero records but pays one fsync per event;
/// `Interval(k)` bounds loss to at most `k` records (the
/// `wal_fsync_lag` metric shows the live window); `Never` leaves
/// durability to the OS page cache — a process crash loses nothing
/// (the kernel still holds the writes) but a machine crash can lose
/// the entire unflushed tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalSyncPolicy {
    /// fsync after every record (maximum durability, minimum throughput).
    Always,
    /// fsync every `n` records (bounded loss window).
    Interval(u64),
    /// Never fsync mid-run (OS decides; fastest).
    Never,
}

impl WalSyncPolicy {
    /// The [`WalWriter`] sync interval implementing this policy.
    pub fn sync_every(&self) -> u64 {
        match self {
            WalSyncPolicy::Always => 1,
            WalSyncPolicy::Interval(n) => (*n).max(1),
            WalSyncPolicy::Never => u64::MAX,
        }
    }

    /// Parses `always`, `never`, `interval` (default 64) or
    /// `interval:N`.
    pub fn parse(s: &str) -> Option<WalSyncPolicy> {
        match s {
            "always" => Some(WalSyncPolicy::Always),
            "never" => Some(WalSyncPolicy::Never),
            "interval" => Some(WalSyncPolicy::Interval(64)),
            other => {
                let n = other.strip_prefix("interval:")?.parse::<u64>().ok()?;
                (n > 0).then_some(WalSyncPolicy::Interval(n))
            }
        }
    }

    /// The canonical flag spelling of this policy.
    pub fn name(&self) -> String {
        match self {
            WalSyncPolicy::Always => "always".to_string(),
            WalSyncPolicy::Interval(n) => format!("interval:{n}"),
            WalSyncPolicy::Never => "never".to_string(),
        }
    }
}

impl std::fmt::Display for WalSyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Appender over a [`WalStorage`]: frames records, maintains the
/// per-record checksum, and syncs every `sync_every` records.
pub struct WalWriter {
    storage: Box<dyn WalStorage>,
    sync_every: u64,
    unsynced: u64,
    records: u64,
    /// The frame being appended, reused across records.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Starts a fresh log: writes the header and syncs it.
    /// `sync_every = 1` syncs after every record (maximum durability);
    /// larger values trade a bounded fsync lag (visible as
    /// `wal_fsync_lag` in metrics) for throughput.
    pub fn create(mut storage: Box<dyn WalStorage>, sync_every: u64) -> Result<Self, EngineError> {
        let mut header = WAL_MAGIC.to_vec();
        header.put_u16_le(WAL_VERSION);
        storage.append(&header)?;
        storage.sync()?;
        Ok(Self::resume(storage, 0, sync_every))
    }

    /// Resumes appending to a log that already holds `records` valid
    /// records (the recovery path, after [`read_wal`] validated them).
    pub fn resume(storage: Box<dyn WalStorage>, records: u64, sync_every: u64) -> Self {
        WalWriter {
            storage,
            sync_every: sync_every.max(1),
            unsynced: 0,
            records,
            frame: Vec::new(),
        }
    }

    /// Appends one record, syncing when the configured interval is hit.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), EngineError> {
        self.frame.clear();
        put_frame(&mut self.frame, |b| rec.put(b));
        self.storage.append(&self.frame)?;
        self.records += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces durability of everything appended so far.
    pub fn sync(&mut self) -> Result<(), EngineError> {
        self.storage.sync()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Total records appended over the log's lifetime.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records appended since the last sync (the fsync lag).
    pub fn unsynced(&self) -> u64 {
        self.unsynced
    }

    /// The configured sync interval (1 = every record).
    pub fn sync_every(&self) -> u64 {
        self.sync_every
    }
}

/// Result of scanning a log with [`read_wal`].
#[derive(Clone, Debug)]
pub struct WalReadOutcome {
    /// The decoded records, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset one past the last good record (a truncation point).
    pub consumed: usize,
    /// Whether a torn or checksum-failing tail was discarded.
    pub truncated: bool,
}

/// Scans a log image, tolerating a torn tail.
///
/// Returns every record whose frame is complete and whose checksum
/// matches; an incomplete or checksum-failing record ends the scan with
/// `truncated = true` (crash semantics: the tail was never durable). A
/// record that passes its checksum but fails to decode is a hard
/// [`EngineError::Corrupt`] carrying the absolute byte offset.
pub fn read_wal(bytes: &[u8]) -> Result<WalReadOutcome, EngineError> {
    Reader::new(bytes, "wal").header(WAL_MAGIC, WAL_VERSION)?;
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    while let Split::Frame(payload) = split_frame(&bytes[pos..]) {
        let start = pos + FRAME_LEN;
        pos = start + payload.len();
        // Error offsets count from the start of the log.
        let mut r = Reader::within(bytes, start..pos, "wal record");
        records.push(WalRecord::read(&mut r)?);
    }
    Ok(WalReadOutcome {
        records,
        consumed: pos,
        truncated: pos < bytes.len(),
    })
}

/// One batch of raw WAL record frames served to a tailing follower.
///
/// `bytes` holds `count` whole, checksum-valid record frames (length +
/// checksum + payload, exactly as they appear in the log, *without* the
/// log header) starting at record index `from_record`.
/// `leader_records` is the total number of checksum-valid records the
/// leader's log held at read time, so the receiver can compute its
/// replication lag as `leader_records - (from_record + count)`.
#[derive(Clone, Debug)]
pub struct WalSegment {
    /// Record index of the first frame in `bytes`.
    pub from_record: u64,
    /// Number of whole record frames in `bytes`.
    pub count: u64,
    /// Checksum-valid records in the leader's log at read time.
    pub leader_records: u64,
    /// The raw record frames (no log header).
    pub bytes: Vec<u8>,
}

/// A shared read handle over a leader's WAL, serving byte segments of
/// whole records to tailing followers.
///
/// The tail re-scans the log on every call (the log is the source of
/// truth, including after torn-tail truncation), so a segment never
/// contains a record the leader has not durably framed, and a follower
/// that reconnects after any cut can resume from its own applied count
/// with no gap and no duplicate.
#[derive(Clone)]
pub struct WalTail {
    storage: Arc<Mutex<Box<dyn WalStorage>>>,
}

impl WalTail {
    /// Wraps a log storage for tailing (typically a [`MemWal`] clone or
    /// a reopened [`FileWal`]).
    pub fn new(storage: Box<dyn WalStorage>) -> Self {
        WalTail {
            storage: Arc::new(Mutex::new(storage)),
        }
    }

    /// Reads a segment of whole records starting at `from_record`,
    /// bounded by `max_bytes` (at least one record is returned when any
    /// is available). `from_record` at or past the end of the log
    /// yields an empty segment carrying the current `leader_records`.
    pub fn segment(&self, from_record: u64, max_bytes: usize) -> Result<WalSegment, EngineError> {
        let bytes = self
            .storage
            .lock()
            .expect("wal tail storage poisoned")
            .read_all()?;
        Reader::new(&bytes, "wal tail").header(WAL_MAGIC, WAL_VERSION)?;
        // Where each whole, checksum-valid record ends, up to the first
        // torn or damaged one.
        let mut ends = Vec::new();
        let mut pos = WAL_HEADER_LEN;
        while let Split::Frame(payload) = split_frame(&bytes[pos..]) {
            pos += FRAME_LEN + payload.len();
            ends.push(pos);
        }
        let leader_records = ends.len() as u64;
        let skip = from_record.min(leader_records) as usize;
        let first = skip.checked_sub(1).map_or(WAL_HEADER_LEN, |i| ends[i]);
        let mut last = first;
        let mut count = 0u64;
        for &end in &ends[skip..] {
            if count > 0 && end - first > max_bytes {
                break;
            }
            last = end;
            count += 1;
        }
        Ok(WalSegment {
            from_record: skip as u64,
            count,
            leader_records,
            bytes: bytes[first..last].to_vec(),
        })
    }
}

/// Decodes a follower-received segment of raw record frames.
///
/// Unlike [`read_wal`], a segment has no header and no legitimate torn
/// tail — the leader only ships whole checksum-valid records — so any
/// framing or checksum failure is a hard [`EngineError::Corrupt`]
/// (transport damage; the follower should drop the connection and
/// re-subscribe from its applied count).
pub fn decode_segment(bytes: &[u8]) -> Result<Vec<WalRecord>, EngineError> {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let fault = match split_frame(&bytes[pos..]) {
            Split::Frame(payload) => {
                records.push(WalRecord::decode(payload)?);
                pos += FRAME_LEN + payload.len();
                continue;
            }
            Split::NeedMore(_) => "torn frame",
            Split::ChecksumMismatch => "record checksum mismatch",
        };
        return Err(EngineError::Corrupt {
            context: "wal segment".to_string(),
            offset: pos as u64,
            message: fault.to_string(),
        });
    }
    Ok(records)
}

/// A durability checkpoint: everything needed to rebuild runtime state
/// at a known log position without replaying the whole log.
///
/// Policy state, metrics, the trace and view flush seqs are *not*
/// stored — recovery rebuilds them deterministically by shadow-replaying
/// the log prefix with the engine detached (see
/// `MaintenanceRuntime::recover_registry`), which keeps the checkpoint
/// format independent of policy internals and of the view axis.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Number of log records this checkpoint covers: recovery replays
    /// records `[wal_records..]` against the restored state.
    pub wal_records: u64,
    /// The runtime's step counter at checkpoint time.
    pub t: u64,
    /// Pending modification counts per scheduling cell (the state
    /// vector; per base table for one view).
    pub pending: Vec<u64>,
    /// Engine payload: database snapshot plus the pending delta-table
    /// contents. `None` for counts-only runtimes.
    pub engine: Option<EngineCheckpoint>,
}

/// The engine-backend portion of a [`Checkpoint`].
#[derive(Clone, Debug, PartialEq)]
pub struct EngineCheckpoint {
    /// `aivm_engine::codec::snapshot` image of the database.
    pub db: Vec<u8>,
    /// Pending modifications per scheduling cell (per base table for
    /// one view), in arrival order.
    pub pending_mods: Vec<Vec<Modification>>,
}

impl Checkpoint {
    /// Serializes the checkpoint with a trailing content checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(256);
        b.put_slice(CKPT_MAGIC);
        b.put_u16_le(CKPT_VERSION);
        b.put_u64_le(self.wal_records);
        b.put_u64_le(self.t);
        b.put_u32_le(self.pending.len() as u32);
        for &p in &self.pending {
            b.put_u64_le(p);
        }
        match &self.engine {
            None => b.put_u8(0),
            Some(e) => {
                b.put_u8(1);
                b.put_u32_le(e.db.len() as u32);
                b.put_slice(&e.db);
                b.put_u32_le(e.pending_mods.len() as u32);
                for mods in &e.pending_mods {
                    b.put_u32_le(mods.len() as u32);
                    for m in mods {
                        put_modification(&mut b, m);
                    }
                }
            }
        }
        let sum = checksum(&b);
        b.put_u64_le(sum);
        b
    }

    /// Deserializes and verifies a checkpoint image.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, EngineError> {
        let body = bytes.len().saturating_sub(8);
        let mut r = Reader::new(bytes, "checkpoint");
        let body = r.bytes(body, "body")?;
        if r.u64("content checksum")? != checksum(body) {
            return Err(r.corrupt("content checksum"));
        }
        let mut r = Reader::new(body, "checkpoint");
        r.header(CKPT_MAGIC, CKPT_VERSION)?;
        let wal_records = r.u64("wal records")?;
        let t = r.u64("step")?;
        let pending = (0..r.count(8, "pending arity")?)
            .map(|_| r.u64("pending counts"))
            .collect::<Result<_, _>>()?;
        let engine = match r.u8("backend tag")? {
            0 => None,
            1 => {
                let db_len = r.u32("db snapshot length")? as usize;
                let db = r.bytes(db_len, "db snapshot body")?.to_vec();
                // A modification takes at least its tag and row arity.
                let pending_mods = (0..r.count(4, "pending table count")?)
                    .map(|_| {
                        (0..r.count(1 + 4, "pending mod count")?)
                            .map(|_| r.modification())
                            .collect()
                    })
                    .collect::<Result<_, _>>()?;
                Some(EngineCheckpoint { db, pending_mods })
            }
            other => return Err(r.corrupt(format!("backend tag {other}"))),
        };
        r.finish()?;
        Ok(Checkpoint {
            wal_records,
            t,
            pending,
            engine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivm_engine::row;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Dml {
                table: 0,
                m: Modification::Insert(row![1i64, "a"]),
            },
            WalRecord::Tick,
            WalRecord::Count { table: 1, k: 7 },
            WalRecord::Dml {
                table: 1,
                m: Modification::Update {
                    old: row![2i64],
                    new: row![3i64],
                },
            },
            WalRecord::ForcedView { view: 0 },
            WalRecord::SetBudget { budget: 12.5 },
            WalRecord::ForcedView { view: 3 },
        ]
    }

    fn write_log(records: &[WalRecord], sync_every: u64) -> MemWal {
        let mem = MemWal::new();
        let mut w = WalWriter::create(Box::new(mem.clone()), sync_every).unwrap();
        for r in records {
            w.append(r).unwrap();
        }
        mem
    }

    #[test]
    fn sync_policy_parsing_and_intervals() {
        assert_eq!(WalSyncPolicy::parse("always"), Some(WalSyncPolicy::Always));
        assert_eq!(WalSyncPolicy::parse("never"), Some(WalSyncPolicy::Never));
        assert_eq!(
            WalSyncPolicy::parse("interval"),
            Some(WalSyncPolicy::Interval(64))
        );
        assert_eq!(
            WalSyncPolicy::parse("interval:8"),
            Some(WalSyncPolicy::Interval(8))
        );
        assert_eq!(WalSyncPolicy::parse("interval:0"), None);
        assert_eq!(WalSyncPolicy::parse("sometimes"), None);
        assert_eq!(WalSyncPolicy::Always.sync_every(), 1);
        assert_eq!(WalSyncPolicy::Interval(8).sync_every(), 8);
        assert_eq!(WalSyncPolicy::Never.sync_every(), u64::MAX);
        for p in [
            WalSyncPolicy::Always,
            WalSyncPolicy::Interval(8),
            WalSyncPolicy::Never,
        ] {
            assert_eq!(WalSyncPolicy::parse(&p.name()), Some(p));
        }
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let recs = sample_records();
        let mem = write_log(&recs, 1);
        let out = read_wal(&mem.bytes()).unwrap();
        assert_eq!(out.records, recs);
        assert!(!out.truncated);
        assert_eq!(out.consumed, mem.bytes().len());
    }

    #[test]
    fn torn_tail_at_every_byte_is_tolerated() {
        let recs = sample_records();
        let mem = write_log(&recs, 1);
        let full = mem.bytes();
        for cut in WAL_HEADER_LEN..full.len() {
            let out = read_wal(&full[..cut]).unwrap();
            // The readable prefix is a prefix of the true record stream.
            assert!(out.records.len() < recs.len());
            assert_eq!(out.records[..], recs[..out.records.len()]);
            // A cut at an exact record boundary yields a shorter but
            // well-formed log; anywhere else the torn tail is reported.
            assert_eq!(
                out.truncated,
                cut != out.consumed,
                "cut at {cut} (consumed {})",
                out.consumed
            );
        }
    }

    #[test]
    fn checksum_failure_cuts_the_log() {
        let recs = sample_records();
        let mem = write_log(&recs, 1);
        let mut bytes = mem.bytes();
        // Flip a byte inside the second record's payload.
        let first_len = u32::from_le_bytes(
            bytes[WAL_HEADER_LEN..WAL_HEADER_LEN + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let second_payload = WAL_HEADER_LEN + FRAME_LEN + first_len + FRAME_LEN;
        bytes[second_payload] ^= 0xff;
        let out = read_wal(&bytes).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(out.truncated);
    }

    #[test]
    fn bad_header_is_corrupt() {
        assert!(matches!(
            read_wal(b"XXXX\x01\x00"),
            Err(EngineError::Corrupt { .. })
        ));
        assert!(matches!(
            read_wal(b"AWAL\x63\x00"),
            Err(EngineError::Unsupported { .. })
        ));
        assert!(read_wal(b"AW").is_err());
    }

    #[test]
    fn retired_forced_kind_is_corrupt() {
        // Kind 2 was the view-less forced flush; a forced flush is now
        // always `ForcedView` (kind 5), view 0 on a single-view runtime.
        assert_eq!(
            WalRecord::ForcedView { view: 0 }.encode().as_slice(),
            &[5, 0, 0, 0, 0]
        );
        let err = WalRecord::decode(&[2u8]).unwrap_err();
        assert!(
            matches!(&err, EngineError::Corrupt { message, .. } if message == "record kind 2"),
            "got {err:?}"
        );
        // Framed and checksummed, it is structural damage, not a torn
        // tail.
        let mem = write_log(&[WalRecord::Tick], 1);
        let mut w = WalWriter::resume(Box::new(mem.clone()), 1, 1);
        w.append(&WalRecord::Tick).unwrap();
        let mut bytes = mem.bytes();
        let payload = bytes.len() - 1;
        bytes[payload] = 2;
        let sum = checksum(&bytes[payload..]).to_le_bytes();
        bytes[payload - 8..payload].copy_from_slice(&sum);
        assert!(matches!(read_wal(&bytes), Err(EngineError::Corrupt { .. })));
    }

    #[test]
    fn resume_appends_after_existing_records() {
        let recs = sample_records();
        let mem = write_log(&recs[..3], 1);
        let mut w = WalWriter::resume(Box::new(mem.clone()), 3, 2);
        assert_eq!(w.records(), 3);
        for r in &recs[3..] {
            w.append(r).unwrap();
        }
        let out = read_wal(&mem.bytes()).unwrap();
        assert_eq!(out.records, recs);
    }

    #[test]
    fn fsync_lag_tracks_sync_interval() {
        let mem = MemWal::new();
        let mut w = WalWriter::create(Box::new(mem), 3).unwrap();
        w.append(&WalRecord::Tick).unwrap();
        w.append(&WalRecord::Tick).unwrap();
        assert_eq!(w.unsynced(), 2);
        w.append(&WalRecord::Tick).unwrap();
        assert_eq!(w.unsynced(), 0, "third append crossed the interval");
    }

    #[test]
    fn checkpoint_roundtrip_and_tamper_detection() {
        let ck = Checkpoint {
            wal_records: 42,
            t: 17,
            pending: vec![3, 0, 5],
            engine: Some(EngineCheckpoint {
                db: vec![1, 2, 3, 4],
                pending_mods: vec![
                    vec![Modification::Insert(row![1i64])],
                    vec![],
                    vec![Modification::Delete(row![9i64])],
                ],
            }),
        };
        let bytes = ck.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ck);
        // Any flipped byte is caught by the trailing checksum.
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 1;
            assert!(Checkpoint::decode(&bad).is_err(), "flip at {i}");
        }
        // Every truncated body under a recomputed checksum is corrupt.
        for cut in 0..bytes.len() - 8 {
            let mut short = bytes[..cut].to_vec();
            short.extend_from_slice(&checksum(&short).to_le_bytes());
            let got = Checkpoint::decode(&short);
            assert!(matches!(got, Err(EngineError::Corrupt { .. })), "{got:?}");
        }
        // Counts-only checkpoints omit the engine payload.
        let model = Checkpoint {
            wal_records: 1,
            t: 1,
            pending: vec![0, 0],
            engine: None,
        };
        assert_eq!(Checkpoint::decode(&model.encode()).unwrap(), model);
    }

    #[test]
    fn wal_tail_segments_resume_without_gap_or_duplicate() {
        let recs = sample_records();
        let mem = write_log(&recs, 1);
        let tail = WalTail::new(Box::new(mem.clone()));
        // Tiny max_bytes forces multi-segment paging; applied-count
        // resume must walk the whole log exactly once.
        let mut applied = Vec::new();
        let mut from = 0u64;
        loop {
            let seg = tail.segment(from, 1).unwrap();
            assert_eq!(seg.from_record, from);
            assert_eq!(seg.leader_records, recs.len() as u64);
            if seg.count == 0 {
                assert!(seg.bytes.is_empty());
                break;
            }
            applied.extend(decode_segment(&seg.bytes).unwrap());
            from += seg.count;
        }
        assert_eq!(applied, recs);
        // Past-the-end subscription is an empty segment, not an error.
        let seg = tail.segment(recs.len() as u64 + 10, 1 << 16).unwrap();
        assert_eq!(seg.count, 0);
        assert_eq!(seg.leader_records, recs.len() as u64);
    }

    #[test]
    fn wal_tail_never_serves_a_torn_record() {
        let recs = sample_records();
        let mem = write_log(&recs, 1);
        let full = mem.bytes();
        for cut in WAL_HEADER_LEN..full.len() {
            mem.truncate(cut);
            let tail = WalTail::new(Box::new(mem.clone()));
            let seg = tail.segment(0, 1 << 20).unwrap();
            let durable = read_wal(&full[..cut]).unwrap().records.len() as u64;
            assert_eq!(seg.leader_records, durable, "cut at {cut}");
            assert_eq!(seg.count, durable);
            assert_eq!(
                decode_segment(&seg.bytes).unwrap(),
                recs[..durable as usize]
            );
            // Restore for the next iteration.
            mem.truncate(0);
            let mut m = mem.clone();
            m.append(&full).unwrap();
        }
    }

    #[test]
    fn corrupted_segment_is_a_hard_error() {
        let recs = sample_records();
        let mem = write_log(&recs, 1);
        let tail = WalTail::new(Box::new(mem));
        let seg = tail.segment(0, 1 << 20).unwrap();
        for i in 0..seg.bytes.len() {
            let mut bad = seg.bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_segment(&bad).is_err(), "flip at byte {i}");
        }
        let torn = &seg.bytes[..seg.bytes.len() - 1];
        assert!(decode_segment(torn).is_err());
    }

    #[test]
    fn file_wal_roundtrip() {
        let dir = std::env::temp_dir().join(format!("aivm-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let recs = sample_records();
        {
            let mut w = WalWriter::create(Box::new(FileWal::create(&path).unwrap()), 2).unwrap();
            for r in &recs[..3] {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
        }
        {
            let mut w = WalWriter::resume(Box::new(FileWal::open_append(&path).unwrap()), 3, 2);
            for r in &recs[3..] {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
        }
        let out = read_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(out.records, recs);
        std::fs::remove_dir_all(&dir).ok();
    }
}
