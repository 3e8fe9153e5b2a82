//! Fault-point injection on store I/O (via `StoreOptions::fault`):
//! proves that a failed WAL append/fsync, a short (torn) write, or a
//! failed checkpoint segment/manifest write surfaces as a **typed
//! error** — never a panic — and that the failure is *invisible*: the
//! serving epoch and cache stay untouched, the log stays clean for the
//! appends around the failure, and recovery replays exactly the
//! acknowledged ops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lcdd_engine::SearchOptions;
use lcdd_fcm::EngineError;
use lcdd_store::{latest_manifest, wal, DurableEngine, FaultPlan, FaultPoint, StoreOptions};
use lcdd_table::Table;
use lcdd_testkit::assert_same_hits_bitwise;
use lcdd_testkit::crash::{assert_recovered_equals_serial, TempDir};
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

/// The shape all single-fault tests share: op 1 succeeds, op 2 hits the
/// armed fault and must be typed + invisible, op 3 succeeds, and recovery
/// replays exactly ops 1 and 3 (the serial oracle).
fn run_invisible_failure_case(tag: &str, sync_writes: bool, arm: impl Fn(&Arc<FaultPlan>)) {
    let tmp = TempDir::new(tag);
    let base = corpus(&CorpusSpec::sized(0xF417, 6));
    let plan = FaultPlan::new();
    let opts = opts_with(&plan, sync_writes, 10_000);
    let dir = tmp.subdir("store");
    let store = DurableEngine::create(&dir, tiny_engine(base.clone(), 2), opts.clone())
        .expect("store create");
    let mut serial = tiny_engine(base.clone(), 2);
    let mut next_id = 1000;

    // Op 1: clean.
    let t1 = fresh_tables(1, 2, &mut next_id);
    store.insert_tables(t1.clone()).expect("clean insert");
    serial.insert_tables(t1);

    // Op 2: the armed fault. Typed error, nothing observable changes.
    arm(&plan);
    let epoch = store.epoch();
    let len = store.len();
    let wal_len = store.wal_len();
    let probe = query_like(&base[0]);
    let sopts = SearchOptions::default();
    let before = store.search(&probe, &sopts).expect("probe before");
    let t2 = fresh_tables(2, 2, &mut next_id);
    let err = store
        .insert_tables(t2)
        .expect_err("the armed fault must fail the op");
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
    drop(store);
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

#[test]
fn failed_wal_append_is_typed_and_invisible() {
    run_invisible_failure_case("fi-append", false, |plan| {
        // The seed engine's create doesn't append; op 2 is the 2nd append.
        plan.fail_at(FaultPoint::WalAppend, 2);
    });
}

#[test]
fn failed_fsync_never_publishes_the_epoch() {
    run_invisible_failure_case("fi-fsync", true, |plan| {
        plan.fail_at(FaultPoint::WalSync, 2);
    });
}

#[test]
fn short_write_rolls_back_to_a_clean_log() {
    run_invisible_failure_case("fi-short", false, |plan| {
        // 7 bytes of the frame land before the error — the torn shape a
        // crash or full disk leaves mid-write.
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

#[test]
fn concurrent_checkpoints_never_expose_a_half_committed_manifest_to_resync() {
    // A churn+checkpoint thread races checkpoint exports (the follower
    // resync path). Every exported package must install and open at
    // exactly its manifest's epoch — the newest-valid-manifest contract
    // observed concurrently, not just at rest.
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
            let package = store.export_checkpoint().expect("export under churn");
            let dir = tmp.subdir(&format!("resync-{i}"));
            DurableEngine::install_checkpoint(&dir, &package).expect("install");
            let (replica, _) = DurableEngine::open(&dir, opts.clone())
                .expect("an exported checkpoint must always open");
            assert_eq!(
                replica.epoch(),
                package.manifest.epoch,
                "resync {i}: installed store must land exactly at the packaged epoch"
            );
        }
        stop.store(true, Ordering::Release);
        churner.join().expect("churn thread");
    });
}
