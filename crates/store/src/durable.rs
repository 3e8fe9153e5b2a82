//! [`DurableEngine`]: the serving engine with a durability contract.
//!
//! Wraps a [`ServingEngine`] so that every corpus mutation is **logged
//! before it is published**: the op is applied to the serving engine's
//! unpublished writer copy, its record (with the already-encoded FCM
//! delta) is appended to the WAL and — under the default
//! [`StoreOptions`] — fsynced, and only then does the new epoch become
//! visible to readers. A process that crashes at any instant recovers its
//! exact corpus from {latest checkpoint segments + WAL tail}, without
//! re-running the encoder on a single resident table.
//!
//! The lock-free read path is untouched: [`DurableEngine::search`] /
//! `search_batch_at` delegate straight to the serving engine's epoch
//! snapshot machinery and never take the store lock or the serving
//! writer lock.
//!
//! ## Write path
//!
//! ```text
//! insert/remove/compact/reshard   (inserts encode their delta first, unlocked)
//!   '- store lock ─ serving writer lock   (ServingEngine::write)
//!        '- apply to the writer copy
//!             '- epoch moved? WAL append (+ fdatasync)   <- durability point
//!                  '- publish epoch                       <- visibility point
//!   '- checkpoint policy (ops/bytes since last hand-off)
//!        '- hand off: rotate WAL, pin state, enqueue
//! ```
//!
//! Every write — local, replicated — goes through one private commit
//! inside [`ServingEngine::write`]. A failed append or fsync makes the
//! write return `Err`, and the serving engine then restores its writer
//! copy from the published snapshot: the op was never visible. A write
//! that changes nothing (an insert of zero tables, a removal matching no
//! live id, a compact with no tombstones) does not move the epoch, so it
//! is not logged — by construction, with no per-op check. Hence every
//! logged record bumps the epoch by exactly one, which is what lets each
//! record carry `epoch_after` and recovery reproduce the uncrashed
//! engine's epoch numbering exactly.
//!
//! Lock order: follower state (`lcdd_repl`) → store → serving writer. The
//! serving writer lock is held across the WAL fsync; readers are
//! lock-free and never wait for it.
//!
//! ## Checkpoints
//!
//! Checkpoints run on a **checkpointer thread the store owns**, never on
//! a writer. When the policy fires (or [`DurableEngine::checkpoint`] is
//! called) the writer, still under the store lock, only *hands off*: it
//! rotates the WAL to `wal-<E>.log` at the record boundary for the
//! current epoch `E`, pins the published state (an `Arc` clone — epoch
//! publication is copy-on-write, so the pinned state never changes) and
//! enqueues it. The checkpointer, holding no lock, writes **only the
//! shards dirtied since the previous checkpoint** (detected by `Arc`
//! identity — the serving engine's copy-on-write mutation replaces the
//! `Arc` of every shard it touches) from one reused buffer, commits
//! `MANIFEST-<E>` — which names `wal-<E>.log` as its log — by atomic
//! rename, then takes the store lock just long enough to adopt the new
//! manifest and garbage-collect. Clean shards are carried forward by file
//! reference, so checkpoint cost is proportional to the write working
//! set, not the corpus. At most one checkpoint is in flight; hand-offs
//! that arrive meanwhile coalesce into a single follow-up at the newest
//! state. A failed checkpoint is stashed
//! ([`DurableEngine::last_checkpoint_error`]) and retried at the next
//! trigger; the ops it would have covered stay in the WAL chain.
//!
//! ## Recovery
//!
//! [`DurableEngine::open`] loads the newest valid manifest, reassembles
//! the engine from its segments and replays the **WAL chain**: the
//! manifest's log to its end, then `wal-<epoch reached>.log` while one
//! exists — the newest manifest may trail the live log by any number of
//! rotations (a checkpoint in flight or failed when the process died).
//! Records apply through the same function a replica uses for shipped
//! ones ([`DurableEngine::apply_replicated`]), which pins each replayed
//! epoch to the logged `epoch_after`; a torn
//! final record of the *last* log is truncated away, a torn or missing
//! link anywhere earlier is typed corruption. Corrupt files surface as
//! typed [`EngineError::Wal`] / [`EngineError::Store`] /
//! [`EngineError::Snapshot`] values — never a panic.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use lcdd_engine::persist::{
    self, assemble_engine, encode_batch, live_order, meta_bytes, segment_bytes_into,
    EncodedTableBatch, SegmentImage,
};
use lcdd_engine::{
    CacheStats, Engine, EngineError, EngineShard, EngineState, Query, SearchOptions,
    SearchResponse, ServingEngine, DEFAULT_COMPACTION_THRESHOLD,
};
use lcdd_obs::trace;
use lcdd_table::Table;

use crate::codec::{read_framed, sync_dir, write_framed, write_framed_parts};
use crate::fault::{FaultHook, FaultPoint};
use crate::instruments;
use crate::manifest::{
    latest_manifest, latest_manifest_impl, manifest_paths, read_manifest, write_manifest, Manifest,
    MANIFEST_PREFIX,
};
use crate::wal::{
    self, wal_file_epoch, wal_file_name, WalOp, WalRecord, WalWriter, WAL_HEADER_LEN,
};

pub(crate) const META_MAGIC: &[u8; 8] = b"LCDDMET1";
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"LCDDSEG1";
pub(crate) const STORE_FILE_VERSION: u32 = 1;
/// Segment files carry their own version: bumped to 2 when the payload
/// became the memory-mappable `LCDDSEG2` image (fixed-layout summary +
/// aligned f32 blob), which is what makes [`StoreOptions::cold_open`]
/// possible. Meta and manifest files stay at [`STORE_FILE_VERSION`].
pub(crate) const SEGMENT_VERSION: u32 = 2;
pub(crate) const META_FILE: &str = "meta.seg";

/// Durability policy knobs.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// `fdatasync` the WAL after every append (and `fsync` every
    /// checkpoint artifact). `true` — the default — makes an acknowledged
    /// op survive power loss; `false` trades that for append throughput
    /// while keeping *process-crash* consistency (recovery yields a clean
    /// op prefix). Under power loss without fsync, out-of-order page
    /// writeback can instead surface as a typed corruption error at
    /// recovery — never a silently wrong corpus.
    pub sync_writes: bool,
    /// Hand a checkpoint to the store's checkpointer thread after this
    /// many logged ops (0 disables the op trigger).
    pub checkpoint_every_ops: u64,
    /// Hand a checkpoint off once this many WAL bytes accumulate since
    /// the last hand-off (0 disables the byte trigger).
    pub checkpoint_every_bytes: u64,
    /// How many checkpoints (manifest + referenced files) to retain for
    /// fallback; older ones are garbage-collected. Clamped to at least 1.
    pub keep_checkpoints: usize,
    /// Injected-failure schedule for the robustness suites (see
    /// [`crate::fault::FaultPlan`]): fail or short-write the Nth WAL
    /// append/fsync, segment write or manifest write. `None` — the
    /// default and the only sensible production value — costs one
    /// `Option` test per instrumented operation.
    pub fault: FaultHook,
    /// Open checkpoint segments as memory-mapped cold tiers instead of
    /// decoding them into RAM. Recovery then costs one checksum pass per
    /// segment (after which the pages are handed back to the OS) plus the
    /// summary decode; table payloads page in on demand as queries score
    /// them. Search results are hit-for-hit identical to an eager open —
    /// only residency changes. `false` (the default) preserves the
    /// all-resident behaviour.
    pub cold_open: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync_writes: true,
            checkpoint_every_ops: 64,
            checkpoint_every_bytes: 8 << 20,
            keep_checkpoints: 2,
            fault: None,
            cold_open: false,
        }
    }
}

/// What one checkpoint wrote (and avoided writing): only dirty shards
/// are rewritten, clean ones are carried forward by reference.
#[derive(Clone, Debug)]
pub struct CheckpointStats {
    /// Epoch the checkpoint captured.
    pub epoch: u64,
    /// Shards in the captured state.
    pub shards_total: usize,
    /// Shards whose segment was rewritten (dirtied since the previous
    /// checkpoint).
    pub shards_written: usize,
    /// Bytes of segment payload written.
    pub bytes_written: u64,
    /// Bytes of clean segment files carried forward by reference.
    pub bytes_reused: u64,
}

/// What recovery found and did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// WAL records replayed on top of the checkpoint, across the whole
    /// chain of rotated logs.
    pub replayed_ops: usize,
    /// Log files the replay walked: 1 when the checkpoint's own log was
    /// the live one, more when the process died with checkpoints in
    /// flight or failing (each hand-off rotates the log).
    pub wal_files: usize,
    /// Epoch the recovered engine serves at (equals the crashed engine's
    /// last acknowledged epoch).
    pub recovered_epoch: u64,
    /// Present when a torn final record was truncated away; describes
    /// what was dropped.
    pub truncated_tail: Option<String>,
    /// True when the newest manifest failed validation and recovery
    /// started from an older checkpoint. Nothing acknowledged is lost:
    /// the ops the corrupt checkpoint covered, and every op logged after
    /// it, replay from the older checkpoint's WAL chain, which GC retains
    /// for as long as that checkpoint is retained. The flag says the
    /// recovery was longer than it should have been and that a manifest
    /// on disk is damaged (the next successful checkpoint sweeps it).
    pub fallback: bool,
}

/// A position in a store's WAL chain: the log file a reader has reached,
/// the byte offset just past the last record frame it consumed, and the
/// epoch the store was at there. Cursors are handed out by
/// [`DurableEngine::wal_tail_cursor`], [`DurableEngine::wal_cursor_for_epoch`]
/// and [`DurableEngine::export_snapshot`] and advanced by
/// [`DurableEngine::wal_records_since`], which resumes
/// [`wal::walk_chain`] — the walk recovery replays — from one. The leader
/// half of WAL-shipping replication uses them to resume a follower from
/// exactly where it left off.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalCursor {
    /// WAL file name within the store directory (`wal-<epoch>.log`).
    pub file: String,
    /// Byte offset just past the last consumed record frame.
    pub offset: u64,
    /// The epoch reached at `offset` — where the chain walk's link check
    /// starts.
    pub epoch: u64,
}

/// Outcome of [`DurableEngine::apply_replicated`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicatedApply {
    /// The record advanced this replica by exactly one epoch (logged to
    /// the replica's own WAL before it was published).
    Applied,
    /// The record's `epoch_after` was at or below the replica's epoch — a
    /// duplicate delivery, skipped idempotently without logging.
    AlreadyApplied,
}

struct StoreInner {
    /// The live log. Its [`WalWriter::file_name`] — not
    /// `current.wal_file` — says which file that is: the manifest trails
    /// it by one rotation per checkpoint in flight or failed.
    wal: WalWriter,
    /// Ops logged since the last checkpoint hand-off (policy counter).
    ops_since: u64,
    /// WAL bytes appended since the last hand-off (policy counter).
    bytes_since: u64,
    /// WAL rotations since this handle was opened, and the value it had
    /// when `current`'s log became the live one: the difference, plus
    /// one, is how many log files recovery would walk right now.
    rotations: u64,
    current_rotation: u64,
    /// The authoritative (newest committed) manifest.
    current: Manifest,
    /// The shard `Arc`s as of the last committed checkpoint —
    /// `Arc::ptr_eq` against a pinned state identifies dirty shards.
    /// `None` forces the next checkpoint to rewrite everything.
    ckpt_shards: Option<Vec<Arc<EngineShard>>>,
    /// The failure of the most recent checkpoint attempt, if any.
    /// Checkpoints are best-effort: the op that triggered one is already
    /// logged and durable, so its result must not report a checkpoint
    /// problem as an op failure (see [`DurableEngine::last_checkpoint_error`]).
    checkpoint_error: Option<String>,
}

impl StoreInner {
    /// The cursor one past the live log's last record, which the store at
    /// `epoch` has reached. Caller holds the store lock and read `epoch`
    /// under it.
    fn tail(&self, epoch: u64) -> WalCursor {
        WalCursor {
            file: self.wal.file_name().to_string(),
            offset: self.wal.len(),
            epoch,
        }
    }
}

/// One hand-off: the published state the writer pinned right after
/// rotating the log to `wal-<state.epoch()>.log`.
struct CheckpointJob {
    seq: u64,
    state: Arc<EngineState>,
    /// `StoreInner::rotations` at hand-off.
    rotation: u64,
    handed_off: Instant,
}

/// The hand-off slot between writers and the checkpointer thread.
#[derive(Default)]
struct CheckpointQueue {
    /// The newest hand-off not yet started. A later hand-off replaces it:
    /// its state is newer and its checkpoint covers the replaced one's.
    pending: Option<CheckpointJob>,
    in_flight: bool,
    /// Set by [`Checkpointer`]'s drop: the thread finishes the job in
    /// flight, discards `pending` and exits.
    closed: bool,
    /// Sequence number of the latest hand-off / the latest finished job.
    submitted: u64,
    finished: u64,
    /// Outcome of the latest finished job (error as its display string —
    /// it fans out to every waiter the job covered).
    outcome: Option<Result<CheckpointStats, String>>,
}

/// Everything the writers and the checkpointer thread share.
struct StoreShared {
    dir: PathBuf,
    opts: StoreOptions,
    inner: Mutex<StoreInner>,
    queue: Mutex<CheckpointQueue>,
    /// Signalled on every queue change: hand-off, job finished, close.
    queue_changed: Condvar,
}

/// Owns the checkpointer thread; dropping it closes the queue and joins,
/// so once a [`DurableEngine`] is gone nothing writes to its directory.
struct Checkpointer {
    shared: Arc<StoreShared>,
    thread: Option<JoinHandle<()>>,
}

impl Checkpointer {
    fn spawn(shared: Arc<StoreShared>) -> Result<Checkpointer, EngineError> {
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("lcdd-checkpointer".into())
            .spawn(move || worker.checkpointer_loop())?;
        Ok(Checkpointer {
            shared,
            thread: Some(thread),
        })
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.shared.queue().closed = true;
        self.shared.queue_changed.notify_all();
        if let Some(thread) = self.thread.take() {
            // The loop catches a panicking checkpoint itself; a join error
            // here has nothing left to report to.
            let _ = thread.join();
        }
    }
}

impl StoreShared {
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn queue(&self) -> MutexGuard<'_, CheckpointQueue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, queue: MutexGuard<'a, CheckpointQueue>) -> MutexGuard<'a, CheckpointQueue> {
        self.queue_changed
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The checkpointer thread: take the pending hand-off, write it with
    /// no lock held, publish the outcome, repeat until closed. One reused
    /// [`SegmentImage`] serves every segment of every checkpoint.
    fn checkpointer_loop(&self) {
        let mut image = SegmentImage::new();
        loop {
            let job = {
                let mut queue = self.queue();
                loop {
                    if queue.closed {
                        return;
                    }
                    if let Some(job) = queue.pending.take() {
                        queue.in_flight = true;
                        break job;
                    }
                    queue = self.wait(queue);
                }
            };
            instruments::checkpoint_inflight().add(1);
            let start = Instant::now();
            // A panic must not strand waiters on a job that never
            // finishes: it becomes that job's failure.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.write_checkpoint(&job, &mut image)
            }))
            .unwrap_or_else(|_| Err(EngineError::Store("checkpointer panicked".into())));
            let outcome = match outcome {
                Ok(stats) => {
                    instruments::checkpoints_total().inc();
                    instruments::checkpoint_bytes_written_total().add(stats.bytes_written);
                    instruments::checkpoint_duration_ms()
                        .record(start.elapsed().as_millis() as u64);
                    trace::ring().record(
                        trace::TraceId::mint(),
                        0,
                        trace::Stage::Checkpoint,
                        job.handed_off,
                        job.handed_off.elapsed(),
                        None,
                        stats.bytes_written,
                    );
                    Ok(stats)
                }
                Err(e) => {
                    instruments::checkpoint_failures_total().inc();
                    let message = e.to_string();
                    self.lock().checkpoint_error = Some(message.clone());
                    Err(message)
                }
            };
            instruments::checkpoint_inflight().sub(1);
            let mut queue = self.queue();
            queue.in_flight = false;
            queue.finished = job.seq;
            queue.outcome = Some(outcome);
            drop(queue);
            self.queue_changed.notify_all();
        }
    }

    /// Writes one checkpoint from the pinned state of `job`: dirty
    /// segments, then the manifest (the commit point), with no lock held
    /// — the state is immutable and only this thread ever replaces
    /// `current` / `ckpt_shards`. The store lock is taken twice, briefly:
    /// to read the base checkpoint, and to adopt the new one and collect
    /// garbage.
    fn write_checkpoint(
        &self,
        job: &CheckpointJob,
        image: &mut SegmentImage,
    ) -> Result<CheckpointStats, EngineError> {
        let state = &job.state;
        let epoch = state.epoch();
        let shards = state.shards();
        let mut stats = CheckpointStats {
            epoch,
            shards_total: shards.len(),
            shards_written: 0,
            bytes_written: 0,
            bytes_reused: 0,
        };
        let (base_epoch, base_segments, meta_file, base_shards) = {
            let inner = self.lock();
            (
                inner.current.epoch,
                inner.current.segments.clone(),
                inner.current.meta_file.clone(),
                inner.ckpt_shards.clone(),
            )
        };
        if epoch == base_epoch {
            // Nothing was logged since the last checkpoint captured this
            // epoch; the manifest on disk is already exact.
            self.lock().checkpoint_error = None;
            return Ok(stats);
        }
        let mut segments = Vec::with_capacity(shards.len());
        for (i, sh) in shards.iter().enumerate() {
            let clean = base_shards.as_ref().is_some_and(|old| {
                old.len() == shards.len()
                    && base_segments.len() == shards.len()
                    && Arc::ptr_eq(&old[i], sh)
            });
            if clean {
                let name = base_segments[i].clone();
                stats.bytes_reused += std::fs::metadata(self.dir.join(&name))
                    .map(|m| m.len())
                    .unwrap_or(0);
                segments.push(name);
            } else {
                let name = segment_file_name(epoch, i);
                segment_bytes_into(state, i, image)?;
                stats.bytes_written += write_framed_parts(
                    &self.dir.join(&name),
                    SEGMENT_MAGIC,
                    SEGMENT_VERSION,
                    &image.parts(),
                    &self.opts.fault,
                    FaultPoint::SegmentWrite,
                )?;
                stats.shards_written += 1;
                segments.push(name);
            }
        }
        // The hand-off already rotated the live log to `wal-<epoch>.log`,
        // so this manifest's replay starts at an empty file.
        let manifest = Manifest {
            epoch,
            meta_file,
            segments,
            wal_file: wal_file_name(epoch),
            wal_offset: WAL_HEADER_LEN,
            order: live_order(state)?,
        };
        write_manifest(&self.dir, &manifest, &self.opts.fault)?;
        let mut inner = self.lock();
        inner.current = manifest;
        inner.current_rotation = job.rotation;
        inner.ckpt_shards = Some(shards.to_vec());
        inner.checkpoint_error = None;
        instruments::wal_chain_files().set(inner.rotations - inner.current_rotation + 1);
        self.collect_garbage(&inner);
        Ok(stats)
    }

    /// Deletes manifests beyond the retention count and any `seg-` /
    /// `wal-` / temp file no retained manifest needs. Only manifests that
    /// *validate* count toward retention — an unreadable manifest cannot
    /// protect its data files, so keeping it would silently evict an
    /// older, still-usable fallback checkpoint. A retained manifest needs
    /// its segments and **every log from its own onward**: recovery from
    /// it replays the whole chain up to the live log, so no `wal-` file
    /// at or above the oldest retained manifest's log is ever deleted.
    /// Segments from epochs **newer** than the newest retained manifest
    /// are left alone too (after a manifest-corruption fallback they
    /// belong to the damaged checkpoint; the next checkpoint past that
    /// epoch sweeps them). Runs under the store lock (`inner` witnesses
    /// it): a rotation or a chain read never sees files vanish mid-way.
    /// Best effort: GC failures never fail the checkpoint that triggered
    /// them.
    fn collect_garbage(&self, inner: &StoreInner) {
        let keep = self.opts.keep_checkpoints.max(1);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let names: Vec<String> = entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect();
        let mut valid_manifests: Vec<(String, Manifest)> = names
            .iter()
            .filter(|n| n.starts_with(MANIFEST_PREFIX))
            .filter_map(|n| {
                read_manifest(&self.dir.join(n))
                    .ok()
                    .map(|m| (n.clone(), m))
            })
            .collect();
        // Newest first (names embed the epoch in fixed-width hex).
        valid_manifests.sort_by(|a, b| b.0.cmp(&a.0));
        let mut referenced: HashSet<String> = HashSet::new();
        referenced.insert(inner.current.meta_file.clone());
        let mut retained: HashSet<&String> = HashSet::new();
        let mut newest_retained_epoch = 0u64;
        let mut oldest_retained_wal = u64::MAX;
        if valid_manifests.is_empty() {
            // Nothing readable to measure staleness against.
            return;
        }
        for (name, man) in valid_manifests.iter().take(keep) {
            retained.insert(name);
            newest_retained_epoch = newest_retained_epoch.max(man.epoch);
            oldest_retained_wal =
                oldest_retained_wal.min(wal_file_epoch(&man.wal_file).unwrap_or(0));
            referenced.insert(man.meta_file.clone());
            referenced.extend(man.segments.iter().cloned());
        }
        let superseded = |name: &str| file_epoch(name).is_some_and(|e| e <= newest_retained_epoch);
        for name in &names {
            let stale_manifest =
                name.starts_with(MANIFEST_PREFIX) && !retained.contains(name) && superseded(name);
            let stale_segment =
                name.starts_with("seg-") && !referenced.contains(name) && superseded(name);
            let stale_wal = wal_file_epoch(name).is_some_and(|e| e < oldest_retained_wal);
            let stale_tmp = name.starts_with(".tmp-");
            if stale_manifest || stale_segment || stale_wal || stale_tmp {
                let _ = std::fs::remove_file(self.dir.join(name));
            }
        }
        sync_dir(&self.dir);
    }
}

/// A [`ServingEngine`] whose corpus mutations are durable: WAL-logged
/// before publication, checkpointed incrementally in the background,
/// crash-recoverable via [`DurableEngine::open`].
///
/// All mutation must go through this handle (the wrapped serving engine is
/// deliberately not exposed — a direct mutation would bypass the log and
/// silently void the recovery guarantee). Reads are lock-free exactly as
/// on [`ServingEngine`].
pub struct DurableEngine {
    serving: ServingEngine,
    shared: Arc<StoreShared>,
    /// Dropped with the engine: joins the checkpointer thread.
    checkpointer: Checkpointer,
}

impl DurableEngine {
    // ---- lifecycle -------------------------------------------------------

    /// Initialises a fresh store at `dir` (created if absent) around
    /// `engine`: writes the meta section, a full checkpoint of every
    /// shard, an empty WAL and the first manifest. Fails with
    /// [`EngineError::Store`] if `dir` already holds a store — use
    /// [`DurableEngine::open`] to recover one.
    pub fn create(
        dir: impl AsRef<Path>,
        engine: lcdd_engine::Engine,
        opts: StoreOptions,
    ) -> Result<DurableEngine, EngineError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if latest_manifest(&dir)?.is_some() {
            return Err(EngineError::Store(format!(
                "{} already holds a store; open it instead of creating over it",
                dir.display()
            )));
        }
        let epoch = engine.epoch();
        write_framed(
            &dir.join(META_FILE),
            META_MAGIC,
            STORE_FILE_VERSION,
            &meta_bytes(&engine),
            &opts.fault,
            FaultPoint::SegmentWrite,
        )?;
        let state = engine.state();
        let mut segments = Vec::with_capacity(state.shards().len());
        let mut image = SegmentImage::new();
        for i in 0..state.shards().len() {
            let name = segment_file_name(epoch, i);
            segment_bytes_into(state, i, &mut image)?;
            write_framed_parts(
                &dir.join(&name),
                SEGMENT_MAGIC,
                SEGMENT_VERSION,
                &image.parts(),
                &opts.fault,
                FaultPoint::SegmentWrite,
            )?;
            segments.push(name);
        }
        let wal_file = wal_file_name(epoch);
        let mut wal = WalWriter::create(&dir.join(&wal_file), opts.sync_writes)?;
        wal.set_fault(opts.fault.clone());
        let manifest = Manifest {
            epoch,
            meta_file: META_FILE.to_string(),
            segments,
            wal_file,
            wal_offset: WAL_HEADER_LEN,
            order: live_order(state)?,
        };
        write_manifest(&dir, &manifest, &opts.fault)?;
        let serving = ServingEngine::new(engine);
        let ckpt_shards = Some(serving.snapshot().shards().to_vec());
        DurableEngine::start(
            serving,
            dir,
            opts,
            StoreInner {
                wal,
                ops_since: 0,
                bytes_since: 0,
                rotations: 0,
                current_rotation: 0,
                current: manifest,
                ckpt_shards,
                checkpoint_error: None,
            },
        )
    }

    /// Wraps the pieces `create` / `open` assembled and starts the
    /// checkpointer thread (parked until the first hand-off; it allocates
    /// nothing before then).
    fn start(
        serving: ServingEngine,
        dir: PathBuf,
        opts: StoreOptions,
        inner: StoreInner,
    ) -> Result<DurableEngine, EngineError> {
        let shared = Arc::new(StoreShared {
            dir,
            opts,
            inner: Mutex::new(inner),
            queue: Mutex::new(CheckpointQueue::default()),
            queue_changed: Condvar::new(),
        });
        let checkpointer = Checkpointer::spawn(Arc::clone(&shared))?;
        Ok(DurableEngine {
            serving,
            shared,
            checkpointer,
        })
    }

    /// Recovers the store at `dir`: newest valid manifest → segments →
    /// WAL-chain replay ([`wal::walk_chain`]) → torn-tail truncation of
    /// the final log → serving. Replay splices the logged encodings back
    /// in without invoking the FCM encoder
    /// (`lcdd_fcm::table_encode_count` is flat across this call).
    ///
    /// Like [`lcdd_engine::Engine::load`], serving configuration is not
    /// corpus state: the recovered engine uses the oracle extractor and
    /// the default compaction threshold.
    pub fn open(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
    ) -> Result<(DurableEngine, RecoveryReport), EngineError> {
        let recovery_start = std::time::Instant::now();
        let dir = dir.as_ref().to_path_buf();
        let (_, manifest, fallback) = latest_manifest_impl(&dir)?.ok_or_else(|| {
            EngineError::Store(format!("{}: no manifest (not a store?)", dir.display()))
        })?;
        let meta = read_framed(
            &dir.join(&manifest.meta_file),
            META_MAGIC,
            STORE_FILE_VERSION,
        )?;
        let mut engine = if opts.cold_open {
            // Cold tier: segments are mapped, checksum-verified and
            // summary-parsed, but no slot payload is decoded here — nor
            // anywhere below: WAL replay splices logged encodings in as
            // *new* resident slots and only an eviction that crosses the
            // compaction threshold materializes a mapped shard.
            let paths: Vec<PathBuf> = manifest.segments.iter().map(|n| dir.join(n)).collect();
            persist::assemble_engine_mapped(
                &meta,
                manifest.order.clone(),
                &paths,
                manifest.epoch,
                SEGMENT_MAGIC,
                SEGMENT_VERSION,
            )?
        } else {
            let segments: Vec<Vec<u8>> = manifest
                .segments
                .iter()
                .map(|name| read_framed(&dir.join(name), SEGMENT_MAGIC, SEGMENT_VERSION))
                .collect::<Result<_, _>>()?;
            assemble_engine(&meta, manifest.order.clone(), &segments, manifest.epoch)?
        };
        // Captured *before* replay: these Arcs mirror the segment files on
        // disk, so the next checkpoint's dirty detection stays exact even
        // for the shards replay is about to touch.
        let ckpt_shards: Vec<Arc<EngineShard>> = engine.state().shards().to_vec();

        let chain = wal::walk_chain(
            &dir,
            &manifest.wal_file,
            manifest.wal_offset,
            manifest.epoch,
            |file, offset, record| {
                apply_record(&mut engine, &record).map_err(|e| match e {
                    EngineError::Wal(m) => EngineError::Wal(format!(
                        "{file}: replay of record ending at {offset}: {m}"
                    )),
                    other => other,
                })
            },
        )?;
        engine.set_compaction_threshold(DEFAULT_COMPACTION_THRESHOLD);
        let recovered_epoch = engine.epoch();
        let mut wal = WalWriter::open(&dir.join(&chain.file), chain.valid_len, opts.sync_writes)?;
        wal.set_fault(opts.fault.clone());
        let report = RecoveryReport {
            checkpoint_epoch: manifest.epoch,
            replayed_ops: chain.records,
            wal_files: chain.files,
            recovered_epoch,
            truncated_tail: chain.torn,
            fallback,
        };
        let rotations = chain.files as u64 - 1;
        instruments::recoveries_total().inc();
        instruments::replayed_records().set(report.replayed_ops as u64);
        instruments::recovery_ms().set(recovery_start.elapsed().as_millis() as u64);
        instruments::wal_chain_files().set(chain.files as u64);
        let durable = DurableEngine::start(
            ServingEngine::new(engine),
            dir,
            opts,
            StoreInner {
                wal,
                ops_since: chain.records as u64,
                bytes_since: chain.bytes,
                rotations,
                current_rotation: 0,
                current: manifest,
                ckpt_shards: Some(ckpt_shards),
                checkpoint_error: None,
            },
        )?;
        Ok((durable, report))
    }

    /// Tears the durable wrapper down to the inner serving engine (the
    /// store files stay on disk and can be [`DurableEngine::open`]ed
    /// again; further mutation through the returned engine is NOT logged).
    /// Joins the checkpointer first, exactly as dropping the handle does.
    pub fn into_serving(self) -> ServingEngine {
        let DurableEngine {
            serving,
            checkpointer,
            ..
        } = self;
        drop(checkpointer);
        serving
    }

    // ---- read side (lock-free, delegating to the serving engine) --------

    /// Answers one typed query against the current published snapshot.
    pub fn search(
        &self,
        query: &Query,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        self.serving.search(query, opts)
    }

    /// Pins the current corpus snapshot (see [`ServingEngine::snapshot`]).
    pub fn snapshot(&self) -> Arc<EngineState> {
        self.serving.snapshot()
    }

    /// Answers a query against a pinned snapshot (see
    /// [`ServingEngine::search_at`]).
    pub fn search_at(
        &self,
        state: &EngineState,
        query: &Query,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        self.serving.search_at(state, query, opts)
    }

    /// Answers a batch against a pinned snapshot, through the query cache
    /// (see [`ServingEngine::search_batch_at`] — the gateway's coalesced
    /// single-epoch batch path).
    pub fn search_batch_at(
        &self,
        state: &Arc<EngineState>,
        queries: &[Query],
        opts: &SearchOptions,
    ) -> Vec<Result<SearchResponse, EngineError>> {
        self.serving.search_batch_at(state, queries, opts)
    }

    /// Query-cache counters of the underlying serving engine (lock-free
    /// atomics — the gateway's `/metrics` path reads them on every scrape).
    pub fn cache_stats(&self) -> CacheStats {
        self.serving.cache_stats()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.serving.epoch()
    }

    /// Number of live tables in the published state.
    pub fn len(&self) -> usize {
        self.serving.len()
    }

    /// True when the published state holds no live tables.
    pub fn is_empty(&self) -> bool {
        self.serving.is_empty()
    }

    /// Current length of the live WAL file in bytes (including the file
    /// header). Drops back to the header length whenever a checkpoint
    /// hand-off rotates the log.
    pub fn wal_len(&self) -> u64 {
        self.lock().wal.len()
    }

    /// Exports the published state as an engine snapshot file (readable by
    /// [`lcdd_engine::Engine::load`] — a portable backup, independent of
    /// the store directory, holding the same meta and segment payloads).
    /// Atomic: a failed export leaves a previous backup at `path` intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        self.serving.save(path)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    // ---- write side ------------------------------------------------------

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.shared.lock()
    }

    /// The one durable write, run inside [`ServingEngine::write`] with
    /// the store lock held (`inner` witnesses it): `apply` runs on the
    /// unpublished writer copy and returns its result plus the op to log;
    /// if the epoch moved, the record is appended (and fsynced under the
    /// default options) before the serving engine publishes. An append
    /// failure is the write's `Err`, so the serving engine restores its
    /// writer copy and nothing becomes visible. A write that left the
    /// epoch alone is neither logged nor counted by the checkpoint policy.
    fn commit<T>(
        &self,
        inner: &mut StoreInner,
        apply: impl FnOnce(&mut Engine) -> Result<(T, WalOp), EngineError>,
    ) -> Result<T, EngineError> {
        let mut logged = false;
        let out = self.serving.write(|engine| -> Result<T, EngineError> {
            let epoch_before = engine.epoch();
            let (out, op) = apply(engine)?;
            if engine.epoch() != epoch_before {
                let len_before = inner.wal.len();
                inner.wal.append(&WalRecord {
                    epoch_after: engine.epoch(),
                    op,
                })?;
                inner.ops_since += 1;
                inner.bytes_since += inner.wal.len() - len_before;
                logged = true;
            }
            Ok(out)
        })?;
        if logged {
            self.maybe_checkpoint(inner);
        }
        Ok(out)
    }

    /// Runs the checkpoint policy: when it fires, hands a checkpoint to
    /// the checkpointer thread and returns — the write never waits for a
    /// segment or manifest to be written. Best-effort by design: the op
    /// that triggered it is already logged and durable, so a failure
    /// (here, rotating the log; later, on the checkpointer) is stashed
    /// (read it via [`DurableEngine::last_checkpoint_error`]) instead of
    /// being misreported as an op failure — the store keeps running
    /// WAL-heavy and retries at the next trigger.
    fn maybe_checkpoint(&self, inner: &mut StoreInner) {
        let opts = &self.shared.opts;
        let by_ops = opts.checkpoint_every_ops > 0 && inner.ops_since >= opts.checkpoint_every_ops;
        let by_bytes =
            opts.checkpoint_every_bytes > 0 && inner.bytes_since >= opts.checkpoint_every_bytes;
        if by_ops || by_bytes {
            if let Err(e) = self.hand_off(inner) {
                instruments::checkpoint_failures_total().inc();
                inner.checkpoint_error = Some(e.to_string());
            }
        }
    }

    /// Everything a checkpoint costs the write path. Under the store
    /// lock: rotate the log to `wal-<E>.log` at the record boundary for
    /// the published epoch `E` (so the manifest the checkpointer will
    /// commit for `E` replays from an empty log, and the rotated-out file
    /// stays untouched for recovery from the previous manifest), pin the
    /// published state, enqueue both. Returns the hand-off's sequence
    /// number.
    fn hand_off(&self, inner: &mut StoreInner) -> Result<u64, EngineError> {
        let start = Instant::now();
        let state = self.serving.snapshot();
        let wal_file = wal_file_name(state.epoch());
        // Already the live log's name: nothing was logged since the last
        // rotation, so there is no boundary to cut.
        if inner.wal.file_name() != wal_file {
            let opts = &self.shared.opts;
            let mut wal = WalWriter::create(&self.shared.dir.join(&wal_file), opts.sync_writes)?;
            wal.set_fault(opts.fault.clone());
            inner.wal = wal;
            inner.rotations += 1;
            instruments::wal_rotations_total().inc();
            instruments::wal_chain_files().set(inner.rotations - inner.current_rotation + 1);
        }
        inner.ops_since = 0;
        inner.bytes_since = 0;
        let seq = {
            let mut queue = self.shared.queue();
            queue.submitted += 1;
            queue.pending = Some(CheckpointJob {
                seq: queue.submitted,
                state,
                rotation: inner.rotations,
                handed_off: start,
            });
            queue.submitted
        };
        self.shared.queue_changed.notify_all();
        instruments::checkpoint_handoff_us().record(start.elapsed().as_micros() as u64);
        Ok(seq)
    }

    /// The failure message of the most recent checkpoint attempt, if it
    /// failed; cleared by the next successful checkpoint. Checkpoints
    /// finish on the checkpointer thread — call
    /// [`DurableEngine::wait_checkpoint_idle`] first to observe the
    /// outcome of one a write just triggered.
    pub fn last_checkpoint_error(&self) -> Option<String> {
        self.lock().checkpoint_error.clone()
    }

    /// True while a checkpoint is queued or being written.
    pub fn checkpoint_in_flight(&self) -> bool {
        let queue = self.shared.queue();
        queue.in_flight || queue.pending.is_some()
    }

    /// Logged ops the newest committed checkpoint does not cover — what
    /// recovery would replay from the WAL chain right now.
    pub fn ops_since_checkpoint(&self) -> u64 {
        // Every logged record bumps the epoch by exactly one.
        let inner = self.lock();
        self.serving.epoch().saturating_sub(inner.current.epoch)
    }

    /// Blocks until no checkpoint is queued or in flight: every hand-off
    /// made before this call has committed or failed (see
    /// [`DurableEngine::last_checkpoint_error`]), and the store directory
    /// is quiescent until the next write.
    pub fn wait_checkpoint_idle(&self) {
        let mut queue = self.shared.queue();
        while queue.in_flight || queue.pending.is_some() {
            queue = self.shared.wait(queue);
        }
    }

    /// Ingests new tables durably: encodes the delta, splices it in, logs
    /// the encoded batch, then publishes. Returns the assigned global
    /// positions. On error the corpus is unchanged.
    pub fn insert_tables(&self, tables: Vec<Table>) -> Result<Vec<usize>, EngineError> {
        // Encode outside both locks: the encoder reads only the immutable
        // model, and it dominates insert latency — other mutations and
        // wal_len()-style probes need not wait behind it.
        let batch = encode_batch(self.serving.model(), &tables);
        let bytes = batch.to_bytes()?;
        self.commit(&mut self.lock(), |engine| {
            Ok((engine.insert_encoded(batch), WalOp::Insert { batch: bytes }))
        })
    }

    /// Evicts live tables by id durably. Returns the number removed. A
    /// removal matching no live table is a no-op and is not logged.
    pub fn remove_tables(&self, ids: &[u64]) -> Result<usize, EngineError> {
        self.commit(&mut self.lock(), |engine| {
            // The record carries the threshold in effect, so replay
            // compacts exactly the shards this removal compacts.
            let threshold = engine.compaction_threshold();
            let ids = ids.to_vec();
            Ok((engine.remove_tables(&ids), WalOp::Remove { ids, threshold }))
        })
    }

    /// Compacts tombstoned shards durably. A compact with nothing to
    /// reclaim is a no-op and is not logged.
    pub fn compact(&self) -> Result<(), EngineError> {
        self.commit(&mut self.lock(), |engine| {
            engine.compact();
            Ok(((), WalOp::Compact))
        })
    }

    /// Redistributes the corpus across `n_shards` durably.
    pub fn reshard(&self, n_shards: usize) -> Result<(), EngineError> {
        self.commit(&mut self.lock(), |engine| {
            Ok((engine.reshard(n_shards)?, WalOp::Reshard { n_shards }))
        })
    }

    /// Sets the auto-compaction threshold for future removals. Not logged
    /// by itself — each removal record captures the threshold in effect.
    pub fn set_compaction_threshold(&self, frac: f64) {
        self.serving.set_compaction_threshold(frac);
    }

    /// Takes a checkpoint now and waits for it: hands the published state
    /// to the checkpointer (the same path the policy uses), which writes
    /// segments for every shard dirtied since the last checkpoint and
    /// commits a new manifest atomically. Old checkpoints beyond
    /// [`StoreOptions::keep_checkpoints`] are garbage-collected. Writers
    /// are not blocked while this waits.
    pub fn checkpoint(&self) -> Result<CheckpointStats, EngineError> {
        let seq = {
            let mut inner = self.lock();
            self.hand_off(&mut inner)?
        };
        let mut queue = self.shared.queue();
        // A later hand-off may have replaced this one in the slot; the
        // checkpoint that ran instead captured a newer state, so its
        // outcome answers this call too.
        while queue.finished < seq {
            queue = self.shared.wait(queue);
        }
        match queue.outcome.clone() {
            Some(Ok(stats)) => Ok(stats),
            Some(Err(e)) => Err(EngineError::Store(format!("checkpoint failed: {e}"))),
            None => Err(EngineError::Store(
                "checkpoint finished without an outcome".into(),
            )),
        }
    }

    // ---- replication side ------------------------------------------------
    //
    // The leader half of WAL shipping (`lcdd_repl`) tails this store's own
    // log files through the cursor APIs below; the follower half applies
    // shipped records through [`DurableEngine::apply_replicated`], so a
    // replica is itself a fully crash-recoverable store. Errors meaning
    // "this cursor or stream is unusable as-is — resync" are typed
    // [`EngineError::Replication`]; the shipping layer reacts with
    // resume-from-offset or a snapshot transfer, never a panic.

    /// The cursor one past the last durable record — where a freshly
    /// attached follower that is already at [`DurableEngine::epoch`]
    /// starts tailing.
    pub fn wal_tail_cursor(&self) -> WalCursor {
        self.lock().tail(self.serving.epoch())
    }

    /// Every record logged after `cursor`, in log order, each with the
    /// cursor just past it, and the cursor at the end of the chain. Walks
    /// the rotated logs with [`wal::walk_chain`], holding the store lock
    /// so rotation and GC cannot race the read; under that lock the chain
    /// ends at the writer's live log, because a rotation always starts
    /// `wal-<published epoch>.log`. A cursor the chain no longer covers
    /// (its file was garbage-collected, or its offset does not lie on a
    /// record boundary), or a chain recovery would reject (a torn
    /// non-final log, a broken link), is [`EngineError::Replication`] —
    /// the follower needs a snapshot transfer instead.
    pub fn wal_records_since(
        &self,
        cursor: &WalCursor,
    ) -> Result<(Vec<(WalRecord, WalCursor)>, WalCursor), EngineError> {
        let _inner = self.lock();
        let mut records = Vec::new();
        let end = wal::walk_chain(
            &self.shared.dir,
            &cursor.file,
            cursor.offset,
            cursor.epoch,
            |file, offset, record| {
                let past = WalCursor {
                    file: file.to_string(),
                    offset,
                    epoch: record.epoch_after,
                };
                records.push((record, past));
                Ok(())
            },
        )
        .map_err(tailing)?;
        let end = WalCursor {
            file: end.file,
            offset: end.valid_len,
            epoch: end.epoch,
        };
        Ok((records, end))
    }

    /// The cursor just past the record that produced `target` — where a
    /// follower already at epoch `target` resumes tailing. Walks the chain
    /// from the newest valid manifest at or below `target` to the live
    /// log, with the same walk and the same errors as
    /// [`DurableEngine::wal_records_since`]. [`EngineError::Replication`]
    /// when the history needed is gone (garbage-collected) or `target` is
    /// beyond this store's durable epoch.
    pub fn wal_cursor_for_epoch(&self, target: u64) -> Result<WalCursor, EngineError> {
        let _inner = self.lock();
        let dir = &self.shared.dir;
        let base = manifest_paths(dir)
            .map_err(tailing)?
            .iter()
            .find_map(|path| read_manifest(path).ok().filter(|m| m.epoch <= target))
            .ok_or_else(|| {
                EngineError::Replication(format!(
                    "no checkpoint at or below epoch {target} (history garbage-collected)"
                ))
            })?;
        let mut found = (base.epoch == target).then(|| WalCursor {
            file: base.wal_file.clone(),
            offset: base.wal_offset,
            epoch: target,
        });
        wal::walk_chain(
            dir,
            &base.wal_file,
            base.wal_offset,
            base.epoch,
            |file, offset, record| {
                if record.epoch_after == target {
                    found = Some(WalCursor {
                        file: file.to_string(),
                        offset,
                        epoch: target,
                    });
                }
                Ok(())
            },
        )
        .map_err(tailing)?;
        found.ok_or_else(|| {
            EngineError::Replication(format!(
                "epoch {target} is beyond this store's durable history"
            ))
        })
    }

    /// Writes the published state to `w` as one engine snapshot frame
    /// (`LCDDSNAP`, readable by [`lcdd_engine::Engine::load_from`]) and
    /// returns the WAL cursor at that state's epoch (`cursor.epoch`):
    /// tailing from it ships exactly the records the snapshot does not
    /// hold. State and cursor are pinned together under the store lock —
    /// every write commits under it — and the snapshot is written after
    /// the lock is released, so writers wait only for the pin. A snapshot
    /// names no store file, so no checkpoint or GC can race it. This is
    /// what a follower resync ships.
    pub fn export_snapshot(&self, w: impl std::io::Write) -> Result<WalCursor, EngineError> {
        let (state, cursor) = {
            let inner = self.lock();
            let state = self.serving.snapshot();
            let cursor = inner.tail(state.epoch());
            (state, cursor)
        };
        self.serving.save_state_to(&state, w)?;
        Ok(cursor)
    }

    /// Applies one record shipped from a leader through the same
    /// `apply_record` recovery uses, on the unpublished writer copy, then
    /// logs it to the replica's **own** WAL (so it is itself crash-
    /// recoverable) and publishes — the same log-before-publish
    /// discipline as local mutation. Neither apply nor replay re-runs the
    /// encoder: insert records carry the leader's already-encoded batch.
    ///
    /// Sequencing by `epoch_after` (every logged record bumps the epoch
    /// by exactly one): a duplicate delivery is skipped idempotently, a
    /// gap is [`EngineError::Replication`] — the caller resumes from its
    /// real offset or requests a snapshot transfer.
    pub fn apply_replicated(&self, record: &WalRecord) -> Result<ReplicatedApply, EngineError> {
        let mut inner = self.lock();
        // Every write to the serving engine holds the store lock, so this
        // epoch stays current until the commit below.
        let current = self.serving.epoch();
        if record.epoch_after <= current {
            return Ok(ReplicatedApply::AlreadyApplied);
        }
        if record.epoch_after != current + 1 {
            return Err(EngineError::Replication(format!(
                "sequence gap: replica at epoch {current}, record jumps to {}",
                record.epoch_after
            )));
        }
        // Applied before it is logged: a record that cannot apply never
        // enters this replica's WAL (replay would hit the same wall).
        self.commit(&mut inner, |engine| {
            apply_record(engine, record).map_err(|e| {
                EngineError::Replication(format!("shipped record does not apply: {e}"))
            })?;
            Ok(((), record.op.clone()))
        })?;
        Ok(ReplicatedApply::Applied)
    }
}

/// Applies one logged record — replayed at recovery, or shipped to a
/// replica — then pins the epoch to the logged value (apply semantics can
/// differ benignly — e.g. a logged `compact` that is a no-op on an
/// already-compacted state — but epochs must not).
fn apply_record(engine: &mut Engine, record: &WalRecord) -> Result<(), EngineError> {
    match &record.op {
        WalOp::Insert { batch } => {
            let embed_dim = engine.model().config.embed_dim;
            engine.insert_encoded(EncodedTableBatch::from_bytes(batch, embed_dim)?);
        }
        WalOp::Remove { ids, threshold } => {
            engine.set_compaction_threshold(*threshold);
            engine.remove_tables(ids);
        }
        WalOp::Compact => engine.compact(),
        WalOp::Reshard { n_shards } => {
            engine
                .reshard(*n_shards)
                .map_err(|e| EngineError::Wal(format!("reshard({n_shards}): {e}")))?;
        }
    }
    persist::force_epoch(engine, record.epoch_after);
    Ok(())
}

pub(crate) fn segment_file_name(epoch: u64, shard: usize) -> String {
    format!("seg-{epoch:016x}-{shard:04}.seg")
}

/// Relabels a chain walk's error for the shipping layer, which answers
/// [`EngineError::Replication`] with a snapshot transfer.
fn tailing(e: EngineError) -> EngineError {
    EngineError::Replication(format!("tailing the WAL chain: {e}"))
}

/// Extracts the 16-hex-digit epoch a segment or manifest file name embeds
/// (`seg-<epoch>-<shard>.seg`, `MANIFEST-<epoch>`; logs have
/// [`wal_file_epoch`]).
fn file_epoch(name: &str) -> Option<u64> {
    let hex = name
        .strip_prefix("seg-")
        .or_else(|| name.strip_prefix(MANIFEST_PREFIX))?;
    u64::from_str_radix(hex.get(..16)?, 16).ok()
}
