//! Crash-injection harness for the durable store: scripted op sequences,
//! serial-replay oracles, store-directory snapshots as simulated crash
//! points, and torn-write variants of the WAL tail.
//!
//! The central claim it proves (the recovery-equivalence acceptance bar):
//! for a random script of insert / remove / compact / reshard ops, a
//! process that crashes at **any record boundary** — including inside a
//! background checkpoint (after the WAL rotation, after the segments,
//! after the manifest), across a chain of logs rotated by failed
//! checkpoints, and with a torn final record — recovers to an engine
//! whose search results are hit-for-hit identical, with **bit-identical
//! scores**, to a serial replay of the op prefix that made it to the log.
//! Recovery replays cached encodings only: the FCM encoder runs zero
//! times during [`lcdd_store::DurableEngine::open`] (asserted via
//! `lcdd_fcm::table_encode_count`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use lcdd_engine::{Engine, EngineError, IndexStrategy, Query, SearchOptions};
use lcdd_store::{DurableEngine, FaultPlan, FaultPoint, StoreOptions};
use lcdd_table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{assert_same_hits_bitwise, corpus, query_like, tiny_engine, CorpusSpec};

/// One scripted corpus mutation — the testkit mirror of the ops the WAL
/// records, shared by the crash, replication and concurrent harnesses.
#[derive(Clone, Debug)]
pub enum ScriptedOp {
    Insert(Vec<Table>),
    Remove(Vec<u64>),
    Compact,
    Reshard(usize),
}

impl ScriptedOp {
    /// Short label for failure messages.
    pub fn label(&self) -> String {
        match self {
            ScriptedOp::Insert(t) => format!("insert x{}", t.len()),
            ScriptedOp::Remove(ids) => format!("remove {ids:?}"),
            ScriptedOp::Compact => "compact".into(),
            ScriptedOp::Reshard(n) => format!("reshard {n}"),
        }
    }
}

/// Generates a deterministic op script: ~45% inserts (1–3 fresh tables),
/// ~30% removals of previously inserted or base ids, ~13% compacts, ~12%
/// reshards (1–4 shards). Fresh table ids start at 10_000 and never
/// collide with a `0..n` base corpus.
pub fn random_script(seed: u64, n_ops: usize, base_ids: &[u64]) -> Vec<ScriptedOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5c71_9bd3_0f64_aa21);
    let mut live: Vec<u64> = base_ids.to_vec();
    let mut next_id = 10_000u64;
    let mut ops = Vec::with_capacity(n_ops);
    for k in 0..n_ops {
        let roll: u32 = rng.gen_range(0..100);
        if roll < 45 || live.is_empty() {
            let n: usize = rng.gen_range(1..4);
            let mut tables = corpus(&CorpusSpec {
                seed: seed ^ ((k as u64) << 32),
                n_tables: n,
                series_len: 64,
                near_dup_every: 0,
            });
            for t in &mut tables {
                t.id = next_id;
                t.name = format!("scripted-{next_id}");
                next_id += 1;
                live.push(t.id);
            }
            ops.push(ScriptedOp::Insert(tables));
        } else if roll < 75 {
            let n = rng.gen_range(1..=2usize).min(live.len());
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                let i: usize = rng.gen_range(0..live.len());
                ids.push(live.swap_remove(i));
            }
            ops.push(ScriptedOp::Remove(ids));
        } else if roll < 88 {
            ops.push(ScriptedOp::Compact);
        } else {
            ops.push(ScriptedOp::Reshard(rng.gen_range(1..5usize)));
        }
    }
    ops
}

/// Applies one op to a plain single-process engine — the serial-replay
/// oracle recovery is compared against, and (inside
/// [`lcdd_engine::ServingEngine::write`]) the concurrent harness's writer.
pub fn apply_serial(engine: &mut Engine, op: &ScriptedOp) {
    match op {
        ScriptedOp::Insert(tables) => {
            engine.insert_tables(tables.clone());
        }
        ScriptedOp::Remove(ids) => {
            engine.remove_tables(ids);
        }
        ScriptedOp::Compact => engine.compact(),
        ScriptedOp::Reshard(n) => {
            engine
                .reshard(*n)
                .expect("scripted reshard counts are >= 1");
        }
    }
}

/// Applies one op through the durable (WAL-logged) engine, returning
/// its outcome (the fault-injection suites expect some to fail).
pub fn try_apply_durable(engine: &DurableEngine, op: &ScriptedOp) -> Result<(), EngineError> {
    match op {
        ScriptedOp::Insert(tables) => engine.insert_tables(tables.clone()).map(|_| ()),
        ScriptedOp::Remove(ids) => engine.remove_tables(ids).map(|_| ()),
        ScriptedOp::Compact => engine.compact(),
        ScriptedOp::Reshard(n) => engine.reshard(*n),
    }
}

/// Applies one op through the durable (WAL-logged) engine; panics if it
/// fails.
pub fn apply_durable(engine: &DurableEngine, op: &ScriptedOp) {
    try_apply_durable(engine, op).unwrap_or_else(|e| panic!("durable {} failed: {e}", op.label()));
}

// ---- temp dirs + dir snapshots ---------------------------------------------

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique temp directory, removed (best effort) on drop. No
/// external tempfile crate in this workspace, so the testkit provides its
/// own.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `$TMPDIR/lcdd-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "lcdd-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("testkit: temp dir must be creatable");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh subdirectory path inside this temp dir (not yet created).
    pub fn subdir(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Byte-for-byte copy of a flat store directory — the "crash point"
/// snapshot: everything the dying process had on disk, nothing it held in
/// memory.
pub fn copy_dir(from: &Path, to: &Path) {
    copy_files(from, to, true);
}

fn copy_files(from: &Path, to: &Path, overwrite: bool) {
    std::fs::create_dir_all(to).expect("crash copy: create target dir");
    for entry in std::fs::read_dir(from).expect("crash copy: list source dir") {
        let entry = entry.expect("crash copy: read entry");
        let target = to.join(entry.file_name());
        if entry.path().is_file() && (overwrite || !target.exists()) {
            std::fs::copy(entry.path(), target).expect("crash copy: copy file");
        }
    }
}

/// Truncates `file` to `len` bytes — simulates a crash that left only a
/// prefix of the final append on disk.
pub fn truncate_file(file: &Path, len: u64) {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(file)
        .expect("truncate: open");
    f.set_len(len).expect("truncate: set_len");
}

/// Where things sit in an engine snapshot, recovered by walking its
/// documented layout: frame header, then `meta_len | meta | n_shards |
/// n_order | order pairs | per shard: image_len | image`. Panics if the
/// bytes do not add up — corruption suites walk a pristine snapshot and
/// aim their damage by these offsets.
pub struct SnapshotLayout {
    /// Offset of every u64 length / count prefix, in file order.
    pub prefixes: Vec<usize>,
    /// Byte range of the meta block (what a store keeps in `meta.seg`).
    pub meta: std::ops::Range<usize>,
    /// Byte range of each embedded `LCDDSEG2` image (a `seg-*` payload).
    pub images: Vec<std::ops::Range<usize>>,
}

impl SnapshotLayout {
    pub fn of(snap: &[u8]) -> SnapshotLayout {
        let u64_at = |off: usize| {
            let bytes = snap[off..off + 8].try_into().expect("8 bytes");
            u64::from_le_bytes(bytes) as usize
        };
        let mut at = lcdd_engine::frame::HEAD_LEN;
        assert_eq!(snap.len(), at + u64_at(12), "frame length");
        let mut prefixes = vec![at];
        let meta = at + 8..at + 8 + u64_at(at);
        at = meta.end;
        let (n_shards, n_order) = (u64_at(at), u64_at(at + 8));
        prefixes.extend([at, at + 8]);
        at += 16 + n_order * 8;
        let mut images = Vec::new();
        for _ in 0..n_shards {
            prefixes.push(at);
            images.push(at + 8..at + 8 + u64_at(at));
            at += 8 + u64_at(at);
        }
        assert_eq!(at, snap.len(), "the last image ends the payload");
        SnapshotLayout {
            prefixes,
            meta,
            images,
        }
    }
}

// ---- comparison -------------------------------------------------------------

/// A query battery covering the base corpus, scripted inserts and a probe
/// with no planted match.
pub fn battery(base: &[Table], script: &[ScriptedOp], n: usize) -> Vec<Query> {
    let mut queries: Vec<Query> = Vec::new();
    for t in base.iter().take(n) {
        queries.push(query_like(t));
    }
    for op in script {
        if let ScriptedOp::Insert(tables) = op {
            if let Some(t) = tables.first() {
                queries.push(query_like(t));
            }
        }
        if queries.len() >= 2 * n {
            break;
        }
    }
    queries.push(Query::from_series(vec![(0..64)
        .map(|j| ((j * j) as f64).sin() * 40.0 - 17.0)
        .collect()]));
    queries
}

/// Asserts a recovered durable engine answers exactly like the serial
/// oracle: same epoch, same live count, and for every battery query under
/// both `Hybrid` and `NoIndex`, hit-for-hit equality with bit-identical
/// scores.
pub fn assert_recovered_equals_serial(
    context: &str,
    recovered: &DurableEngine,
    serial: &Engine,
    queries: &[Query],
) {
    assert_eq!(
        recovered.epoch(),
        serial.epoch(),
        "{context}: epochs diverged"
    );
    assert_eq!(
        recovered.len(),
        serial.len(),
        "{context}: live table counts diverged"
    );
    let k = serial.len().max(1);
    for (qi, q) in queries.iter().enumerate() {
        for strategy in [IndexStrategy::Hybrid, IndexStrategy::NoIndex] {
            let opts = SearchOptions::top_k(k).with_strategy(strategy);
            let got = recovered.search(q, &opts);
            let want = serial.search(q, &opts);
            match (got, want) {
                (Ok(got), Ok(want)) => assert_same_hits_bitwise(
                    &format!("{context}: query {qi} ({strategy:?})"),
                    &got,
                    &want,
                ),
                (Err(g), Err(w)) => assert_eq!(
                    g.to_string(),
                    w.to_string(),
                    "{context}: query {qi} errors diverged"
                ),
                (got, want) => {
                    panic!("{context}: query {qi} diverged: recovered {got:?} vs serial {want:?}")
                }
            }
        }
    }
}

// ---- the full boundary sweep ------------------------------------------------

/// Every harness run (and any test asserting the encoder stayed idle)
/// serializes here: the encoder counter is process-global and a flatness
/// assertion must not see another test's churn.
pub fn encode_gate() -> MutexGuard<'static, ()> {
    static ENCODE_GATE: Mutex<()> = Mutex::new(());
    ENCODE_GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shape of one crash-recovery sweep.
#[derive(Clone, Debug)]
pub struct CrashCase {
    pub seed: u64,
    /// Base corpus size (ids `0..n_base`).
    pub n_base: usize,
    /// Shard count the engine is built with.
    pub n_shards: usize,
    /// Scripted ops applied after the store is created.
    pub n_ops: usize,
    /// Auto-checkpoint cadence in ops (0 = only the initial checkpoint),
    /// so sweeps cover recovery both from WAL-heavy and segment-heavy
    /// stores.
    pub checkpoint_every: u64,
    /// Kill background checkpoints part-way, cycling per attempt through
    /// *fail the first segment write* (the disk a crash right after the
    /// WAL rotation leaves), *fail the manifest write* (segments landed,
    /// nothing committed) and *succeed*. Two failures in a row leave a
    /// chain of rotated logs behind the newest manifest, which every
    /// later crash point must replay in full.
    pub fail_checkpoints: bool,
}

/// What one sweep exercised.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashSweep {
    /// Crash points recovered and compared against the serial oracle.
    pub points: usize,
    /// Of those, points whose store died inside a checkpoint: after the
    /// rotation, after the segments, or after the manifest but before GC.
    pub in_checkpoint_points: usize,
    /// The longest WAL chain any recovery walked (1 = the manifest's own
    /// log was the live one).
    pub max_wal_files: usize,
}

/// How the next checkpoint attempt of a `fail_checkpoints` sweep ends.
#[derive(Clone, Copy)]
enum Attempt {
    FailFirstSegment,
    FailManifest,
    Succeed,
}

/// Runs one full sweep: applies the script through a [`DurableEngine`],
/// snapshotting the store directory after creation and after every op
/// (= every record boundary; each snapshot waits for the checkpointer to
/// go idle first, because a directory copy racing a live writer is not a
/// crash image). When an op's checkpoint committed, the state *after the
/// manifest, before GC* is reconstructed as a further crash point: the
/// post-commit directory plus every file of the pre-op snapshot GC swept.
/// Every snapshot — plus torn-tail variants of the final live log — is
/// then recovered and compared with the serial oracle prefix, with the
/// FCM encoder asserted idle throughout.
pub fn run_crash_boundary_case(case: &CrashCase) -> CrashSweep {
    let _gate = encode_gate();
    let tmp = TempDir::new(&format!("crash-{:x}", case.seed));
    let live_dir = tmp.subdir("live");
    let base = corpus(&CorpusSpec::sized(case.seed, case.n_base));
    let plan = FaultPlan::new();
    let opts = StoreOptions {
        sync_writes: false, // throughput; crash *consistency* is what's under test
        checkpoint_every_ops: case.checkpoint_every,
        checkpoint_every_bytes: 0,
        keep_checkpoints: 2,
        ..StoreOptions::default()
    };
    let durable = DurableEngine::create(
        &live_dir,
        tiny_engine(base.clone(), case.n_shards),
        StoreOptions {
            fault: Some(plan.clone()),
            ..opts.clone()
        },
    )
    .expect("crash case: store creation");

    let base_ids: Vec<u64> = base.iter().map(|t| t.id).collect();
    let script = random_script(case.seed, case.n_ops, &base_ids);
    let queries = battery(&base, &script, 3);

    // Crash point = (store dir, number of script ops it holds, died inside
    // a checkpoint?). `effective` records which ops were actually logged
    // (no-op compacts/removals are not), so the torn-tail sweep can map
    // WAL records back to op indices.
    let mut crash_dirs: Vec<(PathBuf, usize, bool)> = Vec::with_capacity(case.n_ops + 1);
    let mut effective: Vec<usize> = Vec::with_capacity(case.n_ops);
    copy_dir(&live_dir, &tmp.subdir("crash-0"));
    crash_dirs.push((tmp.subdir("crash-0"), 0, false));
    let attempts = [
        Attempt::FailFirstSegment,
        Attempt::FailManifest,
        Attempt::Succeed,
    ];
    let mut attempt = 0usize;
    let mut armed = false;
    for (i, op) in script.iter().enumerate() {
        if case.fail_checkpoints && !armed {
            let next = |point| plan.count(point) + 1;
            match attempts[attempt % attempts.len()] {
                Attempt::FailFirstSegment => {
                    plan.fail_at(FaultPoint::SegmentWrite, next(FaultPoint::SegmentWrite));
                    armed = true;
                }
                Attempt::FailManifest => {
                    plan.fail_at(FaultPoint::ManifestWrite, next(FaultPoint::ManifestWrite));
                    armed = true;
                }
                Attempt::Succeed => {}
            }
        }
        let epoch_before = durable.epoch();
        let trips_before = plan.trips();
        let committed_before = committed_epoch(&live_dir);
        apply_durable(&durable, op);
        if durable.epoch() != epoch_before {
            effective.push(i);
        }
        durable.wait_checkpoint_idle();
        let snap = tmp.subdir(&format!("crash-{}", i + 1));
        copy_dir(&live_dir, &snap);
        let killed = plan.trips() != trips_before;
        let committed = committed_epoch(&live_dir) != committed_before;
        if committed {
            let pre_gc = tmp.subdir(&format!("crash-{}-pre-gc", i + 1));
            copy_dir(&snap, &pre_gc);
            copy_missing(&crash_dirs.last().expect("creation snapshot").0, &pre_gc);
            crash_dirs.push((pre_gc, i + 1, true));
        }
        if killed || committed {
            attempt += 1;
            armed = false;
        }
        crash_dirs.push((snap, i + 1, killed));
    }
    drop(durable);

    let mut sweep = CrashSweep::default();
    let mut serial = tiny_engine(base.clone(), case.n_shards);
    let mut applied = 0usize;
    for (dir, n_ops, in_checkpoint) in &crash_dirs {
        while applied < *n_ops {
            apply_serial(&mut serial, &script[applied]);
            applied += 1;
        }
        let ctx = format!(
            "seed {:#x}, {} shards, crash after {} of {} ops ({})",
            case.seed,
            case.n_shards,
            n_ops,
            script.len(),
            dir.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
        );
        let before = lcdd_fcm::table_encode_count();
        let (recovered, report) =
            DurableEngine::open(dir, opts.clone()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(
            lcdd_fcm::table_encode_count(),
            before,
            "{ctx}: recovery must not re-encode any table"
        );
        assert!(report.truncated_tail.is_none(), "{ctx}: clean boundary");
        assert_recovered_equals_serial(&ctx, &recovered, &serial, &queries);
        sweep.points += 1;
        sweep.in_checkpoint_points += usize::from(*in_checkpoint);
        sweep.max_wal_files = sweep.max_wal_files.max(report.wal_files);
    }

    // Torn tails: cut the final store's live log mid-record. Recovery
    // must land exactly on the surviving record prefix.
    let (final_dir, _, _) = crash_dirs.last().expect("at least the creation snapshot");
    sweep.points +=
        run_torn_tail_variants(&tmp, final_dir, &script, &effective, &base, case, &queries);
    sweep
}

/// Epoch of the newest valid manifest in `dir`.
fn committed_epoch(dir: &Path) -> u64 {
    lcdd_store::latest_manifest(dir)
        .expect("store dir must list")
        .expect("store dir must hold a manifest")
        .1
        .epoch
}

/// Copies every file of `from` that `to` lacks — resurrects what a GC
/// pass deleted between two snapshots of one store.
fn copy_missing(from: &Path, to: &Path) {
    copy_files(from, to, false);
}

/// For the final crash dir, produces mid-record truncations of the live
/// log — the last file of the WAL chain, which the newest manifest need
/// not name — and asserts each recovers to the longest surviving op
/// prefix.
fn run_torn_tail_variants(
    tmp: &TempDir,
    final_dir: &Path,
    script: &[ScriptedOp],
    effective: &[usize],
    base: &[Table],
    case: &CrashCase,
    queries: &[Query],
) -> usize {
    let (_, manifest) = lcdd_store::latest_manifest(final_dir)
        .expect("final dir must hold a store")
        .expect("final dir must hold a manifest");
    let mut ends: Vec<(String, u64)> = Vec::new();
    let chain = lcdd_store::wal::walk_chain(
        final_dir,
        &manifest.wal_file,
        manifest.wal_offset,
        manifest.epoch,
        |file, end, _| {
            ends.push((file.to_string(), end));
            Ok(())
        },
    )
    .expect("final WAL chain must walk clean");
    let live_file = chain.file;
    // (start, end) byte range of every record in the chain's final log.
    let mut boundary = if live_file == manifest.wal_file {
        manifest.wal_offset
    } else {
        lcdd_store::WAL_HEADER_LEN
    };
    let mut live: Vec<(u64, u64)> = Vec::new();
    for (_, end) in ends.iter().filter(|(file, _)| *file == live_file) {
        live.push((boundary, *end));
        boundary = *end;
    }
    // The live log holds the tail of *logged* ops; record j corresponds
    // to scripted op `effective[tail_start + j]`. Cutting inside record j
    // keeps every op strictly before it.
    let tail_start = effective.len() - live.len();

    let mut points = 0usize;
    for (j, &(start, end)) in live.iter().enumerate() {
        let survives = effective[tail_start + j];
        // A torn write can leave any strict prefix of the record's frame.
        for cut in [start + 1, start + (end - start) / 2, end - 1] {
            if cut <= start || cut >= end {
                continue;
            }
            let dir = tmp.subdir(&format!("torn-{j}-{cut}"));
            copy_dir(final_dir, &dir);
            truncate_file(&dir.join(&live_file), cut);
            let ctx = format!(
                "seed {:#x}, torn record {j} of {live_file} cut at byte {cut} (ops 0..{survives} survive)",
                case.seed,
            );
            let (recovered, report) = DurableEngine::open(
                &dir,
                StoreOptions {
                    sync_writes: false,
                    ..StoreOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(
                report.truncated_tail.is_some(),
                "{ctx}: the torn tail must be reported"
            );
            let mut serial = tiny_engine(base.to_vec(), case.n_shards);
            for op in &script[..survives] {
                apply_serial(&mut serial, op);
            }
            assert_recovered_equals_serial(&ctx, &recovered, &serial, queries);
            points += 1;
        }
    }
    points
}
