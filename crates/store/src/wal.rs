//! The write-ahead log: an append-only stream of corpus mutations, each
//! record length-prefixed and FNV-1a-checksummed.
//!
//! ## File layout
//!
//! ```text
//! magic   "LCDDWAL1"  (8 bytes)
//! version u32 (currently 2)
//! records, each:
//!   payload_len  u32
//!   payload_hash u64 (FNV-1a over the payload bytes)
//!   payload:
//!     kind        u8  (1 insert | 2 remove | 3 compact | 4 reshard)
//!     epoch_after u64 (the engine epoch once this op is applied)
//!     body        (kind-specific, see [`WalOp`])
//! ```
//!
//! Insert bodies carry the **already-encoded** FCM delta as one `LCDDSEG2`
//! segment image of the inserted slots
//! ([`lcdd_engine::persist::EncodedTableBatch`] bytes) — the layout
//! checkpoints write, read back by the decoder eager opens use — so replay
//! splices cached encodings back in and never re-runs the encoder.
//! Version 1 logged them in a batch codec of their own; [`scan`] refuses a
//! version-1 log with an [`EngineError::Wal`] that names the migration
//! (open with the previous release, `DurableEngine::save`, then
//! `Engine::load` + `DurableEngine::create`).
//!
//! The log is the one store file that is not an [`lcdd_engine::frame`]
//! frame — it grows record by record, and a frame's length and checksum
//! cover a finished payload — but its bytes go through the same codec:
//! records are written with `frame::Put` and [`scan`] reads the header,
//! every record frame and every payload with `frame::Cursor`.
//!
//! ## Torn tails vs corruption
//!
//! A crash mid-append leaves an *incomplete* final record (the frame
//! promises more bytes than the file holds). [`scan`] reports it as a torn
//! tail: replay stops at the last complete record and the writer truncates
//! the tail away — that is normal crash recovery, not an error.
//!
//! A *complete* record whose checksum does not match, whose length prefix
//! is implausible, or whose payload does not parse, is corruption —
//! surfaced as [`EngineError::Wal`], never a panic. One narrow ambiguity
//! is inherent to the format: damage to the final record's length prefix
//! that keeps it plausible but pushes it past the end of the file is
//! indistinguishable from a genuine torn write, and is resolved in favor
//! of truncation (the choice every length-prefixed WAL makes).
//!
//! ## The chain of rotated logs
//!
//! A checkpoint hand-off rotates the log at a record boundary: the store
//! at epoch `E` starts `wal-<E>.log`, the previous file is never touched
//! again, and the checkpointer later commits `MANIFEST-<E>` naming the new
//! file. Until it does — or if it fails — the newest manifest names an
//! older log, so everything that reads "the WAL" reads the chain:
//! [`walk_chain`] replays a log to its end and continues in
//! `wal-<epoch reached>.log` while one exists. The torn-tail allowance
//! above applies to the chain's **final** log only; a non-final log that
//! is torn, or whose successor does not start at the epoch it reached, is
//! [`EngineError::Wal`].
//!
//! ## fsync discipline
//!
//! [`WalWriter::append`] with `sync = true` (the default store policy)
//! issues `fdatasync` after every record: an acknowledged op survives
//! power loss. With `sync = false` the OS page cache decides. A *process*
//! crash (the page cache survives) still recovers a clean prefix — a
//! suffix of acknowledged records may be lost, never reordered. Under
//! *power loss*, unsynced pages can persist out of order, which can leave
//! a complete-looking mid-file record with a bad checksum; recovery
//! reports that as a typed [`EngineError::Wal`] rather than silently
//! picking a prefix — choosing what to salvage is then the operator's
//! call (an older checkpoint remains on disk).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lcdd_engine::frame::{fnv1a64, Cursor, Put};
use lcdd_fcm::EngineError;
use lcdd_obs::registry::{Counter, Histogram};

use crate::codec::sync_dir;
use crate::fault::{FaultDecision, FaultHook, FaultPlan, FaultPoint};
use crate::instruments;
use crate::manifest::Manifest;

pub(crate) const WAL_MAGIC: &[u8; 8] = b"LCDDWAL1";
/// Version 1 logged insert bodies in a batch codec of their own; version 2
/// logs them as `LCDDSEG2` images.
pub(crate) const WAL_VERSION: u32 = 2;
/// Byte length of the WAL file header (magic + version).
pub const WAL_HEADER_LEN: u64 = 12;
/// Byte length of a record's frame before its payload (length + hash).
const RECORD_HEAD_LEN: usize = 12;

/// Largest accepted record payload. A corrupt length prefix beyond this is
/// classified by position: at EOF it is a torn tail, mid-file it is
/// corruption.
const MAX_RECORD_BYTES: usize = 1 << 31;

/// One logged corpus mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// Ingest of an encoded batch ([`lcdd_engine::persist::EncodedTableBatch`]
    /// bytes, an `LCDDSEG2` image — parsed lazily at replay).
    Insert { batch: Vec<u8> },
    /// Eviction by table id, with the auto-compaction threshold that was
    /// in effect (replay must compact at the same point).
    Remove { ids: Vec<u64>, threshold: f64 },
    /// Explicit compaction of every tombstoned shard.
    Compact,
    /// Redistribution across `n_shards`.
    Reshard { n_shards: usize },
}

/// A [`WalOp`] plus the epoch the engine reached by applying it — replay
/// pins recovered epochs to these values so recovered and uncrashed
/// engines agree epoch-for-epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    pub epoch_after: u64,
    pub op: WalOp,
}

impl WalRecord {
    /// Serializes the record to its WAL payload bytes (kind + epoch +
    /// body, **without** the length/checksum frame — the container adds
    /// its own). This is the wire format replication ships verbatim: a
    /// follower receiving these bytes appends and applies them without
    /// re-encoding anything.
    pub fn encode_payload(&self) -> Vec<u8> {
        self.payload()
    }

    /// Parses payload bytes produced by [`WalRecord::encode_payload`].
    /// Used by the replication transport, where the payload arrives in a
    /// stream frame rather than at a WAL file offset (error context
    /// therefore reports offset 0).
    pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, EngineError> {
        WalRecord::parse(payload, 0)
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let kind = match &self.op {
            WalOp::Insert { .. } => 1,
            WalOp::Remove { .. } => 2,
            WalOp::Compact => 3,
            WalOp::Reshard { .. } => 4,
        };
        p.put_u8(kind);
        p.put_u64(self.epoch_after);
        match &self.op {
            WalOp::Insert { batch } => p.extend_from_slice(batch),
            WalOp::Remove { ids, threshold } => {
                p.put_f64(*threshold);
                p.put_count(ids.len());
                for &id in ids {
                    p.put_u64(id);
                }
            }
            WalOp::Compact => {}
            WalOp::Reshard { n_shards } => p.put_count(*n_shards),
        }
        p
    }

    fn parse(payload: &[u8], offset: u64) -> Result<WalRecord, EngineError> {
        let wal_err = |m: String| EngineError::Wal(format!("record at offset {offset}: {m}"));
        let remap = |e: EngineError| match e {
            EngineError::Store(m) | EngineError::Snapshot(m) => wal_err(m),
            other => other,
        };
        if payload.is_empty() {
            return Err(wal_err("empty payload".into()));
        }
        let mut r2 = Cursor::new(payload);
        let kind = r2.u8().map_err(remap)?;
        let epoch_after = r2.u64().map_err(remap)?;
        let op = match kind {
            1 => WalOp::Insert {
                batch: r2.rest().to_vec(),
            },
            2 => {
                let threshold = r2.f64().map_err(remap)?;
                let n = r2.count().map_err(remap)?;
                if n > MAX_RECORD_BYTES / 8 {
                    return Err(wal_err(format!("implausible id count {n}")));
                }
                let mut ids = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    ids.push(r2.u64().map_err(remap)?);
                }
                if r2.remaining() != 0 {
                    return Err(wal_err(format!(
                        "{} trailing bytes in remove record",
                        r2.remaining()
                    )));
                }
                WalOp::Remove { ids, threshold }
            }
            3 => {
                if r2.remaining() != 0 {
                    return Err(wal_err(format!(
                        "{} trailing bytes in compact record",
                        r2.remaining()
                    )));
                }
                WalOp::Compact
            }
            4 => {
                let n_shards = r2.count().map_err(remap)?;
                if r2.remaining() != 0 {
                    return Err(wal_err(format!(
                        "{} trailing bytes in reshard record",
                        r2.remaining()
                    )));
                }
                WalOp::Reshard { n_shards }
            }
            other => return Err(wal_err(format!("unknown op kind {other}"))),
        };
        Ok(WalRecord { epoch_after, op })
    }
}

/// Append handle over a WAL file.
pub struct WalWriter {
    file: File,
    /// The log's file name within its directory — the writer is the one
    /// authority on which log is live (a manifest can lag it by any number
    /// of rotations).
    file_name: String,
    len: u64,
    sync: bool,
    /// Set when a failed append could not be rolled back: the file may
    /// hold a partial frame, so further appends would write garbage after
    /// it and corrupt the log. A poisoned writer refuses to append.
    poisoned: bool,
    /// Injected-failure schedule (tests only; `None` in production).
    fault: FaultHook,
    /// Process-wide append-latency histogram, held as a field so the hot
    /// append path never touches the registry lock.
    append_ns: Arc<Histogram>,
    /// Process-wide `fdatasync`-latency histogram.
    fsync_ns: Arc<Histogram>,
    /// Process-wide count of records durably appended.
    appends: Arc<Counter>,
}

impl WalWriter {
    /// Creates a fresh WAL at `path` (replacing any existing file): the
    /// header is written under a temp name and renamed into place, so a
    /// crash mid-creation never leaves a log shorter than its header for
    /// recovery to trip on. With `sync` the header and the directory entry
    /// are on stable storage when this returns.
    pub fn create(path: &Path, sync: bool) -> Result<WalWriter, EngineError> {
        let file_name = file_name_of(path)?;
        let tmp = path.with_file_name(format!(".tmp-{file_name}"));
        let mut head = WAL_MAGIC.to_vec();
        head.put_u32(WAL_VERSION);
        let mut file = File::create(&tmp)?;
        file.write_all(&head)?;
        if sync {
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if sync {
            if let Some(dir) = path.parent() {
                sync_dir(dir);
            }
        }
        Ok(WalWriter {
            file,
            file_name,
            len: WAL_HEADER_LEN,
            sync,
            poisoned: false,
            fault: None,
            append_ns: instruments::wal_append_ns(),
            fsync_ns: instruments::wal_fsync_ns(),
            appends: instruments::wal_appends_total(),
        })
    }

    /// Opens an existing WAL for appending at `valid_len`, truncating
    /// everything past it (the torn tail a [`scan`] identified).
    pub fn open(path: &Path, valid_len: u64, sync: bool) -> Result<WalWriter, EngineError> {
        let file_name = file_name_of(path)?;
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if valid_len < WAL_HEADER_LEN {
            return Err(EngineError::Wal(format!(
                "valid length {valid_len} is shorter than the header"
            )));
        }
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        if sync {
            file.sync_all()?;
        }
        Ok(WalWriter {
            file,
            file_name,
            len: valid_len,
            sync,
            poisoned: false,
            fault: None,
            append_ns: instruments::wal_append_ns(),
            fsync_ns: instruments::wal_fsync_ns(),
            appends: instruments::wal_appends_total(),
        })
    }

    /// Attaches an injected-failure schedule consulted on every append
    /// and fsync (see [`crate::fault::FaultPlan`]). `None` detaches.
    pub fn set_fault(&mut self, fault: FaultHook) {
        self.fault = fault;
    }

    /// The log's file name within its directory.
    pub fn file_name(&self) -> &str {
        &self.file_name
    }

    /// Bytes in the log up to and including the last appended record.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == WAL_HEADER_LEN
    }

    /// Appends one record; returns the log length after it. With
    /// `sync = true` the record is on stable storage when this returns —
    /// the durability point an acknowledged op gets.
    ///
    /// A failed append (short write, failed `fdatasync`) is rolled back by
    /// truncating the file to its pre-append length, so the log never
    /// accumulates a partial frame that a later successful append would
    /// bury mid-file. If even the rollback fails the writer poisons
    /// itself and refuses further appends.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, EngineError> {
        if self.poisoned {
            return Err(EngineError::Wal(
                "writer poisoned by an earlier failed append that could not be rolled back".into(),
            ));
        }
        let payload = record.payload();
        if payload.len() > MAX_RECORD_BYTES {
            return Err(EngineError::Wal(format!(
                "record payload of {} bytes exceeds the {MAX_RECORD_BYTES}-byte cap",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(RECORD_HEAD_LEN + payload.len());
        frame.put_u32(payload.len() as u32);
        frame.put_u64(fnv1a64(&payload));
        frame.extend_from_slice(&payload);
        let append_start = Instant::now();
        // Consult the fault schedule (tests only): a `Fail` decision
        // errors before any byte is written; a `ShortWrite` lands a
        // prefix of the frame — the torn shape a crash leaves — and then
        // errors, exercising the rollback path below for real.
        let append_decision = match self.fault.as_deref() {
            Some(plan) => plan.consult(FaultPoint::WalAppend),
            None => FaultDecision::Proceed,
        };
        let wrote = match append_decision {
            FaultDecision::Fail => Err(FaultPlan::injected_error(FaultPoint::WalAppend)),
            FaultDecision::ShortWrite { keep } => self
                .file
                .write_all(&frame[..keep.min(frame.len())])
                .and_then(|()| Err(FaultPlan::injected_error(FaultPoint::WalAppend))),
            FaultDecision::Proceed => self.file.write_all(&frame).and_then(|()| {
                if self.sync {
                    match self
                        .fault
                        .as_deref()
                        .map(|p| p.consult(FaultPoint::WalSync))
                    {
                        None | Some(FaultDecision::Proceed) => {
                            let fsync_start = Instant::now();
                            let synced = self.file.sync_data();
                            self.fsync_ns.record_duration(fsync_start.elapsed());
                            synced
                        }
                        Some(_) => Err(FaultPlan::injected_error(FaultPoint::WalSync)),
                    }
                } else {
                    Ok(())
                }
            }),
        };
        if let Err(e) = wrote {
            // Undo whatever partial frame (or unapplied complete frame —
            // a record whose fsync failed is never applied) hit the file.
            let rollback = self
                .file
                .set_len(self.len)
                .and_then(|()| self.file.seek(SeekFrom::End(0)).map(|_| ()));
            if rollback.is_err() {
                self.poisoned = true;
            }
            return Err(EngineError::Wal(format!("append failed: {e}")));
        }
        self.len += frame.len() as u64;
        self.append_ns.record_duration(append_start.elapsed());
        self.appends.inc();
        Ok(self.len)
    }
}

fn file_name_of(path: &Path) -> Result<String, EngineError> {
    path.file_name()
        .and_then(|n| n.to_str())
        .map(str::to_string)
        .ok_or_else(|| EngineError::Wal(format!("{}: not a WAL file path", path.display())))
}

/// Result of scanning a WAL from a byte offset.
#[derive(Debug)]
pub struct WalScan {
    /// Complete, checksum-valid records in log order, each with the log
    /// offset *after* its frame (the crash harness enumerates these as
    /// crash points).
    pub records: Vec<(u64, WalRecord)>,
    /// Log length through the last complete record — where an appender
    /// should truncate to.
    pub valid_len: u64,
    /// Present when the file ended inside a record (a torn tail cut off
    /// by a crash); describes what was dropped.
    pub torn: Option<String>,
}

/// Scans the WAL at `path` from byte offset `from` (typically a
/// manifest's WAL offset), validating the header and every record frame.
///
/// Complete-but-invalid records (checksum mismatch, unparseable payload)
/// are [`EngineError::Wal`]; an incomplete final record is a torn tail,
/// reported in [`WalScan::torn`] rather than as an error.
pub fn scan(path: &Path, from: u64) -> Result<WalScan, EngineError> {
    let mut bytes = Vec::new();
    File::open(path)
        .map_err(|e| EngineError::Wal(format!("cannot open WAL: {e}")))?
        .read_to_end(&mut bytes)?;
    if bytes.len() < WAL_HEADER_LEN as usize {
        return Err(EngineError::Wal(format!(
            "file of {} bytes is shorter than the header",
            bytes.len()
        )));
    }
    // Every read below is preceded by a check that its bytes are present,
    // so a cursor error here would be a bug in that check, not a bad log.
    let wal_err = |e: EngineError| match e {
        EngineError::Store(m) => EngineError::Wal(m),
        other => other,
    };
    let mut cur = Cursor::new(&bytes);
    if cur.take(WAL_MAGIC.len()).map_err(wal_err)? != WAL_MAGIC {
        return Err(EngineError::Wal("bad magic".into()));
    }
    let version = cur.u32().map_err(wal_err)?;
    if version == 1 {
        return Err(EngineError::Wal(
            "retired WAL version 1 (insert records in the batch codec): this release reads \
             only version 2, whose insert records are LCDDSEG2 images; open the store with \
             the previous release, export it with DurableEngine::save, then rebuild it here \
             with Engine::load + DurableEngine::create"
                .into(),
        ));
    }
    if version != WAL_VERSION {
        return Err(EngineError::Wal(format!(
            "unsupported version {version} (expected {WAL_VERSION})"
        )));
    }
    if from < WAL_HEADER_LEN || from as usize > bytes.len() {
        return Err(EngineError::Wal(format!(
            "replay offset {from} is outside the {}-byte log",
            bytes.len()
        )));
    }
    cur.take(from as usize - WAL_HEADER_LEN as usize)
        .map_err(wal_err)?;
    let mut valid_len = from;
    let mut records = Vec::new();
    let mut torn = None;
    while cur.remaining() > 0 {
        let pos = valid_len;
        if cur.remaining() < RECORD_HEAD_LEN {
            torn = Some(format!(
                "{}-byte partial frame at offset {pos} (crash mid-append)",
                cur.remaining()
            ));
            break;
        }
        let len = cur.u32().map_err(wal_err)? as usize;
        let expect_hash = cur.u64().map_err(wal_err)?;
        // A crash mid-append writes a prefix of one frame, so a record
        // with its whole length prefix present carries its true length; a
        // length beyond the cap is therefore corruption, not a tear.
        if len > MAX_RECORD_BYTES {
            return Err(EngineError::Wal(format!(
                "record at offset {pos}: implausible length prefix {len}"
            )));
        }
        if cur.remaining() < len {
            torn = Some(format!(
                "record at offset {pos} promises {len} payload bytes, {} remain (crash mid-append)",
                cur.remaining()
            ));
            break;
        }
        let payload = cur.take(len).map_err(wal_err)?;
        let got = fnv1a64(payload);
        if got != expect_hash {
            return Err(EngineError::Wal(format!(
                "record at offset {pos}: checksum mismatch: expected {expect_hash:#018x}, got {got:#018x}"
            )));
        }
        let record = WalRecord::parse(payload, pos)?;
        valid_len = (bytes.len() - cur.remaining()) as u64;
        records.push((valid_len, record));
    }
    Ok(WalScan {
        records,
        valid_len,
        torn,
    })
}

// ---- the chain of rotated logs ----------------------------------------------

/// `wal-<epoch as 16 hex digits>.log`: the log started when the engine
/// was at `epoch`, holding the records from `epoch + 1` on.
pub(crate) fn wal_file_name(epoch: u64) -> String {
    format!("wal-{epoch:016x}.log")
}

/// The epoch a [`wal_file_name`] embeds; `None` for any other name.
pub(crate) fn wal_file_epoch(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    (hex.len() == 16)
        .then(|| u64::from_str_radix(hex, 16).ok())
        .flatten()
}

/// The log that follows `file` in `dir`'s chain — the WAL file with the
/// smallest embedded epoch above `file`'s — with that epoch, or `None`
/// when `file` is the newest log there is.
pub(crate) fn chain_successor(
    dir: &Path,
    file: &str,
) -> Result<Option<(u64, String)>, EngineError> {
    let after = wal_file_epoch(file)
        .ok_or_else(|| EngineError::Wal(format!("unparseable WAL file name {file}")))?;
    let entries = std::fs::read_dir(dir)
        .map_err(|e| EngineError::Wal(format!("cannot list {}: {e}", dir.display())))?;
    Ok(entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let epoch = wal_file_epoch(&name)?;
            (epoch > after).then_some((epoch, name))
        })
        .min())
}

/// Where a [`walk_chain`] ended: the newest log of the chain — the one
/// an appender resumes — and the state replay reached.
#[derive(Clone, Debug)]
pub struct ChainEnd {
    /// File name of the chain's final log.
    pub file: String,
    /// That log's length through its last complete record.
    pub valid_len: u64,
    /// Present when the final log ended inside a record (a torn tail).
    pub torn: Option<String>,
    /// `epoch_after` of the last record walked (the starting epoch when
    /// the chain held none).
    pub epoch: u64,
    /// Log files walked.
    pub files: usize,
    /// Records visited, and the bytes their frames occupy.
    pub records: usize,
    pub bytes: u64,
}

/// Walks the chain of rotated logs in `dir`, starting at byte `offset`
/// of `file` with the engine at `epoch` (a manifest's `wal_file`,
/// `wal_offset` and `epoch`), handing every record to `visit` in log
/// order as `(file, offset just past the record, record)`.
///
/// A checkpoint hand-off rotates the log at a record boundary: the log
/// started at epoch `E` is `wal-<E>.log`, so a log that replays to epoch
/// `E` continues in `wal-<E>.log` when that file exists. The newest
/// manifest may trail the live log by any number of such rotations (its
/// checkpoint was still in flight, or failed, when the process died), so
/// recovery replays the whole chain. Only the **final** log may end in a
/// torn record; a torn or missing link anywhere earlier — a successor
/// log exists but does not start at the epoch this one reached — is
/// [`EngineError::Wal`], never a silently shortened history.
pub fn walk_chain(
    dir: &Path,
    file: &str,
    offset: u64,
    epoch: u64,
    mut visit: impl FnMut(&str, u64, WalRecord) -> Result<(), EngineError>,
) -> Result<ChainEnd, EngineError> {
    let mut end = ChainEnd {
        file: file.to_string(),
        valid_len: offset,
        torn: None,
        epoch,
        files: 0,
        records: 0,
        bytes: 0,
    };
    let mut offset = offset;
    loop {
        let scanned = scan(&dir.join(&end.file), offset).map_err(|e| chain_ctx(&end.file, e))?;
        end.files += 1;
        end.valid_len = scanned.valid_len;
        end.bytes += scanned.valid_len - offset;
        end.torn = scanned.torn;
        for (record_end, record) in scanned.records {
            end.epoch = record.epoch_after;
            end.records += 1;
            visit(&end.file, record_end, record)?;
        }
        let Some((next_epoch, next)) = chain_successor(dir, &end.file)? else {
            return Ok(end);
        };
        if let Some(torn) = &end.torn {
            return Err(EngineError::Wal(format!(
                "{}: torn record in a non-final log (its successor {next} exists): {torn}",
                end.file
            )));
        }
        if next_epoch != end.epoch {
            return Err(EngineError::Wal(format!(
                "WAL chain broken: {} ends at epoch {}, but the next log is {next}",
                end.file, end.epoch
            )));
        }
        end.file = next;
        offset = WAL_HEADER_LEN;
    }
}

/// [`walk_chain`] from `manifest`'s log without a visitor: which file the
/// live log is and the epoch a recovery from `manifest` would reach —
/// what a prober needs, at scan cost instead of a full engine assembly.
pub fn chain_end(dir: &Path, manifest: &Manifest) -> Result<ChainEnd, EngineError> {
    walk_chain(
        dir,
        &manifest.wal_file,
        manifest.wal_offset,
        manifest.epoch,
        |_, _, _| Ok(()),
    )
}

fn chain_ctx(file: &str, e: EngineError) -> EngineError {
    match e {
        EngineError::Wal(m) => EngineError::Wal(format!("{file}: {m}")),
        other => other,
    }
}
