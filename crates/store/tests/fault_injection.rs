//! Fault-point injection on store I/O (via `StoreOptions::fault`):
//! proves that a failed WAL append/fsync, a short (torn) write, or a
//! failed checkpoint segment/manifest write surfaces as a **typed
//! error** — never a panic — and that the failure is *invisible*: the
//! serving epoch and cache stay untouched, the log stays clean for the
//! appends around the failure, and recovery replays exactly the
//! acknowledged ops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lcdd_engine::{persist, Engine, SearchOptions};
use lcdd_fcm::EngineError;
use lcdd_repl::Follower;
use lcdd_store::{latest_manifest, wal, DurableEngine, FaultPlan, FaultPoint, StoreOptions};
use lcdd_table::Table;
use lcdd_testkit::assert_same_hits_bitwise;
use lcdd_testkit::crash::{
    apply_durable, apply_serial, assert_recovered_equals_serial, try_apply_durable, ScriptedOp,
    TempDir,
};
use lcdd_testkit::{corpus, queries_for, query_like, tiny_engine, CorpusSpec};

fn opts_with(plan: &Arc<FaultPlan>, sync_writes: bool, checkpoint_every_ops: u64) -> StoreOptions {
    StoreOptions {
        sync_writes,
        checkpoint_every_ops,
        keep_checkpoints: 2,
        fault: Some(plan.clone()),
        ..StoreOptions::default()
    }
}

/// A small batch of fresh tables with ids disjoint from the base corpus.
fn fresh_tables(tag: u64, n: usize, next_id: &mut u64) -> Vec<Table> {
    let mut tables = corpus(&CorpusSpec {
        seed: 0xFA_u64 ^ (tag << 8),
        n_tables: n,
        series_len: 48,
        near_dup_every: 0,
    });
    for t in &mut tables {
        t.id = *next_id;
        t.name = format!("fresh{tag}-{}", t.id);
        *next_id += 1;
    }
    tables
}

/// The shape all single-fault tests share: op 1 (a removal under a
/// raised compaction threshold, leaving a tombstone) succeeds, op 2 —
/// `failing` — hits the armed fault and must be typed + invisible, op 3
/// succeeds, and recovery replays exactly ops 1 and 3 (the serial
/// oracle). Op 2 runs on the serving engine's writer copy before its
/// append fails, so "invisible" covers the rollback of the copy too.
fn run_invisible_failure_case(
    tag: &str,
    sync_writes: bool,
    failing: ScriptedOp,
    arm: impl Fn(&Arc<FaultPlan>),
) {
    const THRESHOLD: f64 = 0.9;
    let tmp = TempDir::new(tag);
    let base = corpus(&CorpusSpec::sized(0xF417, 6));
    let plan = FaultPlan::new();
    let opts = opts_with(&plan, sync_writes, 10_000);
    let dir = tmp.subdir("store");
    let store = DurableEngine::create(&dir, tiny_engine(base.clone(), 2), opts.clone())
        .expect("store create");
    let mut serial = tiny_engine(base.clone(), 2);
    store.set_compaction_threshold(THRESHOLD);
    serial.set_compaction_threshold(THRESHOLD);
    let mut next_id = 2000;

    // Op 1: clean. One dead slot of three stays below the threshold, so
    // its shard keeps a tombstone for a failing compact to reclaim.
    let op1 = ScriptedOp::Remove(vec![base[5].id]);
    apply_durable(&store, &op1);
    apply_serial(&mut serial, &op1);

    // Op 2: the armed fault. Typed error, nothing observable changes.
    arm(&plan);
    let epoch = store.epoch();
    let len = store.len();
    let wal_len = store.wal_len();
    let probe = query_like(&base[0]);
    let sopts = SearchOptions::default();
    let before = store.search(&probe, &sopts).expect("probe before");
    let err = try_apply_durable(&store, &failing).expect_err("the armed fault must fail the op");
    assert!(
        matches!(err, EngineError::Wal(_)),
        "{tag}: append-path faults must surface as EngineError::Wal, got {err:?}"
    );
    assert!(
        err.to_string().contains("injected fault"),
        "{tag}: unexpected error text {err}"
    );
    assert_eq!(plan.trips(), 1, "{tag}: exactly the armed fault fired");
    assert_eq!(
        store.epoch(),
        epoch,
        "{tag}: a failed append must not publish an epoch"
    );
    assert_eq!(store.len(), len, "{tag}: live count must be untouched");
    assert_eq!(
        store.wal_len(),
        wal_len,
        "{tag}: the log must be rolled back"
    );
    let after = store.search(&probe, &sopts).expect("probe after");
    assert_same_hits_bitwise(
        &format!("{tag}: cache untouched by failed append"),
        &before,
        &after,
    );

    // Op 3: the log accepts the next append, and replay reads it.
    let t3 = fresh_tables(3, 2, &mut next_id);
    store
        .insert_tables(t3.clone())
        .expect("append after the error");
    serial.insert_tables(t3);
    // Nothing since op 1 sets the threshold, so this reads what op 2
    // left behind.
    let engine = store.into_serving().into_engine();
    assert_eq!(
        engine.compaction_threshold(),
        THRESHOLD,
        "{tag}: a failed write must not move the compaction threshold"
    );
    drop(engine);
    let (recovered, report) = DurableEngine::open(&dir, opts).expect("recovery");
    assert_eq!(
        report.replayed_ops, 2,
        "{tag}: exactly the acknowledged ops replay"
    );
    assert!(
        report.truncated_tail.is_none(),
        "{tag}: rollback left no torn frame"
    );
    let queries = queries_for(&base, 4);
    assert_recovered_equals_serial(&format!("{tag}: recovered"), &recovered, &serial, &queries);
}

/// The insert op 2 of the append-fault cases tries.
fn failing_insert() -> ScriptedOp {
    ScriptedOp::Insert(fresh_tables(2, 2, &mut 1000))
}

#[test]
fn failed_wal_append_is_typed_and_invisible() {
    run_invisible_failure_case("fi-append", false, failing_insert(), |plan| {
        // The seed engine's create doesn't append; op 2 is the 2nd append.
        plan.fail_at(FaultPoint::WalAppend, 2);
    });
}

#[test]
fn failed_fsync_never_publishes_the_epoch() {
    run_invisible_failure_case("fi-fsync", true, failing_insert(), |plan| {
        plan.fail_at(FaultPoint::WalSync, 2);
    });
}

#[test]
fn short_write_rolls_back_to_a_clean_log() {
    run_invisible_failure_case("fi-short", false, failing_insert(), |plan| {
        // 7 bytes of the frame land before the error — the torn shape a
        // crash or full disk leaves mid-write.
        plan.short_write_at(2, 7);
    });
}

#[test]
fn failed_removal_is_typed_and_invisible() {
    run_invisible_failure_case("fi-remove", true, ScriptedOp::Remove(vec![1]), |plan| {
        plan.fail_at(FaultPoint::WalSync, 2);
    });
}

#[test]
fn failed_compact_over_tombstones_is_typed_and_invisible() {
    run_invisible_failure_case("fi-compact", false, ScriptedOp::Compact, |plan| {
        plan.fail_at(FaultPoint::WalAppend, 2);
    });
}

#[test]
fn failed_reshard_is_typed_and_invisible() {
    run_invisible_failure_case("fi-reshard", false, ScriptedOp::Reshard(3), |plan| {
        plan.short_write_at(2, 7);
    });
}

#[test]
fn short_write_leaves_no_partial_frame_buried_in_the_log() {
    // Beyond recovery equality: scan the log bytes directly and prove the
    // rolled-back partial frame is gone (a later append would otherwise
    // bury it mid-file where every replay would trip on it).
    let tmp = TempDir::new("fi-scan");
    let base = corpus(&CorpusSpec::sized(0x5CA9, 4));
    let plan = FaultPlan::new();
    let opts = opts_with(&plan, false, 10_000);
    let dir = tmp.subdir("store");
    let store =
        DurableEngine::create(&dir, tiny_engine(base.clone(), 2), opts).expect("store create");
    let mut next_id = 1000;
    store
        .insert_tables(fresh_tables(1, 1, &mut next_id))
        .expect("clean insert");
    plan.short_write_at(2, 9);
    store
        .insert_tables(fresh_tables(2, 1, &mut next_id))
        .expect_err("short write fails the op");
    store
        .insert_tables(fresh_tables(3, 1, &mut next_id))
        .expect("the log accepts the next append");
    let (_, manifest) = latest_manifest(dir.as_path())
        .expect("manifest readable")
        .expect("store has a manifest");
    let scan = wal::scan(&dir.join(&manifest.wal_file), manifest.wal_offset)
        .expect("the log must scan cleanly end to end");
    assert_eq!(
        scan.records.len(),
        2,
        "exactly the two acknowledged appends"
    );
    assert!(scan.torn.is_none(), "no torn frame mid-log");
    assert_eq!(scan.valid_len, store.wal_len(), "every byte accounted for");
}

#[test]
fn segment_write_fault_is_stashed_and_the_next_checkpoint_heals() {
    let tmp = TempDir::new("fi-segment");
    let base = corpus(&CorpusSpec::sized(0x5E6, 6));
    let plan = FaultPlan::new();
    // Checkpoint every op: each insert triggers the checkpoint policy.
    let opts = opts_with(&plan, false, 1);
    let dir = tmp.subdir("store");
    let store = DurableEngine::create(&dir, tiny_engine(base.clone(), 2), opts.clone())
        .expect("store create");
    let mut serial = tiny_engine(base.clone(), 2);
    let mut next_id = 1000;

    // Arm the next segment write (create already consumed a few).
    plan.fail_at(
        FaultPoint::SegmentWrite,
        plan.count(FaultPoint::SegmentWrite) + 1,
    );
    let manifest_epoch_before = latest_manifest(dir.as_path())
        .expect("manifest readable")
        .expect("manifest present")
        .1
        .epoch;
    let t1 = fresh_tables(1, 2, &mut next_id);
    // The op itself succeeds — it was logged and is durable; only the
    // best-effort checkpoint behind it failed (on the checkpointer
    // thread, so wait for it), and that is stashed.
    store.insert_tables(t1.clone()).expect("op must not fail");
    serial.insert_tables(t1);
    store.wait_checkpoint_idle();
    let stashed = store
        .last_checkpoint_error()
        .expect("failed checkpoint must be stashed");
    assert!(stashed.contains("injected fault"), "stashed: {stashed}");
    let manifest_epoch_after = latest_manifest(dir.as_path())
        .expect("manifest readable")
        .expect("manifest present")
        .1
        .epoch;
    assert_eq!(
        manifest_epoch_before, manifest_epoch_after,
        "a failed checkpoint must not commit a manifest"
    );

    // The next trigger retries and heals.
    let t2 = fresh_tables(2, 2, &mut next_id);
    store.insert_tables(t2.clone()).expect("next op");
    serial.insert_tables(t2);
    store.wait_checkpoint_idle();
    assert_eq!(
        store.last_checkpoint_error(),
        None,
        "a successful checkpoint clears the stash"
    );
    assert_eq!(
        latest_manifest(dir.as_path()).unwrap().unwrap().1.epoch,
        store.epoch(),
        "the healed checkpoint commits at the live epoch"
    );

    // The WAL-heavy window (op durable, checkpoint failed) must recover.
    drop(store);
    let (recovered, _) = DurableEngine::open(&dir, opts).expect("recovery");
    let queries = queries_for(&base, 4);
    assert_recovered_equals_serial("fi-segment: recovered", &recovered, &serial, &queries);
}

#[test]
fn manifest_write_fault_recovers_from_the_newest_valid_manifest() {
    let tmp = TempDir::new("fi-manifest");
    let base = corpus(&CorpusSpec::sized(0x3A11, 6));
    let plan = FaultPlan::new();
    let opts = opts_with(&plan, false, 1);
    let dir = tmp.subdir("store");
    let store = DurableEngine::create(&dir, tiny_engine(base.clone(), 2), opts.clone())
        .expect("store create");
    let mut serial = tiny_engine(base.clone(), 2);
    let mut next_id = 1000;

    // Op 1 checkpoints cleanly; its manifest is the fallback.
    let t1 = fresh_tables(1, 2, &mut next_id);
    store.insert_tables(t1.clone()).expect("clean op");
    serial.insert_tables(t1);
    store.wait_checkpoint_idle();
    assert_eq!(store.last_checkpoint_error(), None);

    // Op 2's checkpoint dies at the manifest write — after segments and
    // the fresh WAL already landed. Nothing may be half-committed: the
    // newest *valid* manifest is still op 1's, and op 2 lives in that
    // manifest's WAL.
    plan.fail_at(
        FaultPoint::ManifestWrite,
        plan.count(FaultPoint::ManifestWrite) + 1,
    );
    let t2 = fresh_tables(2, 2, &mut next_id);
    store
        .insert_tables(t2.clone())
        .expect("op is durable regardless");
    serial.insert_tables(t2);
    store.wait_checkpoint_idle();
    let stashed = store.last_checkpoint_error().expect("stashed failure");
    assert!(stashed.contains("injected fault"), "stashed: {stashed}");

    // Crash here: recovery must fall back to op 1's manifest and replay
    // op 2 from its WAL — the no-half-committed-manifest guarantee.
    drop(store);
    let (recovered, report) = DurableEngine::open(&dir, opts).expect("fallback recovery");
    assert!(
        report.replayed_ops >= 1,
        "op 2 must replay from the fallback manifest's WAL (report: {report:?})"
    );
    let queries = queries_for(&base, 4);
    assert_recovered_equals_serial("fi-manifest: recovered", &recovered, &serial, &queries);
}

/// A churn+checkpoint thread races snapshot exports (the follower resync
/// path). Every export must decode, install through the follower's
/// install path and open at exactly the epoch it was exported at. The
/// half-committed-manifest window this test was written for no longer
/// exists: an export pins the published state and reads no store file,
/// so no checkpoint commit or GC can race it. What it still checks is
/// that pin, observed concurrently rather than at rest.
#[test]
fn concurrent_checkpoints_never_expose_a_half_committed_manifest_to_resync() {
    let tmp = TempDir::new("fi-race");
    let base = corpus(&CorpusSpec::sized(0xACE5, 6));
    let opts = StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 3,
        keep_checkpoints: 2,
        ..StoreOptions::default()
    };
    let store = Arc::new(
        DurableEngine::create(
            tmp.subdir("store"),
            tiny_engine(base.clone(), 2),
            opts.clone(),
        )
        .expect("store create"),
    );
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let churner = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut next_id = 1000;
                let mut tag = 0;
                while !stop.load(Ordering::Acquire) {
                    tag += 1;
                    store
                        .insert_tables(fresh_tables(tag, 1, &mut next_id))
                        .expect("churn insert");
                    if tag % 5 == 0 {
                        store.checkpoint().expect("explicit checkpoint");
                    }
                }
            })
        };
        for i in 0..12 {
            let mut snapshot = Vec::new();
            let at = store
                .export_snapshot(&mut snapshot)
                .expect("export under churn");
            let mut engine = Engine::load_from(&snapshot[..]).expect("export decodes");
            persist::force_epoch(&mut engine, at.epoch);
            let replica =
                Follower::create(tmp.subdir(&format!("resync-{i}")), engine, opts.clone())
                    .expect("an exported snapshot must always install and open");
            assert_eq!(
                replica.epoch(),
                at.epoch,
                "resync {i}: installed store must land exactly at the exported epoch"
            );
        }
        stop.store(true, Ordering::Release);
        churner.join().expect("churn thread");
    });
}
