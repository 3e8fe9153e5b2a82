//! Behavioural tests for the replication crate's building blocks:
//! transports, frames, the leader/follower shipping loop, fault
//! reactions (retry, gap resume, quarantine + resync), staleness
//! contracts, and failover election. The deeper scripted-schedule
//! property suite lives in `lcdd-testkit/tests/replication.rs`; this
//! file pins each mechanism in isolation.
//!
//! Every test that builds a store holds `encode_gate()`: the
//! zero-re-encode assertions read a process-wide counter, so a sibling
//! test's inserts must not run inside their window.

use std::sync::Arc;

use lcdd_engine::SearchOptions;
use lcdd_fcm::{table_encode_count, EngineError};
use lcdd_repl::{
    elect, probe, promote, sync_to_convergence, Attach, ChannelTransport, FaultAction,
    FaultyTransport, Follower, Frame, FrameOutcome, Leader, ReadConsistency, RetryPolicy,
    Transport,
};
use lcdd_store::{latest_manifest, DurableEngine, FaultPlan, FaultPoint, StoreOptions};
use lcdd_table::Table;
use lcdd_testkit::assert_same_hits_bitwise;
use lcdd_testkit::crash::{encode_gate, TempDir};
use lcdd_testkit::{corpus, queries_for, tiny_engine, CorpusSpec};

fn opts(checkpoint_every_ops: u64) -> StoreOptions {
    opts_keeping(checkpoint_every_ops, 2)
}

fn opts_keeping(checkpoint_every_ops: u64, keep_checkpoints: usize) -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops,
        keep_checkpoints,
        ..StoreOptions::default()
    }
}

/// A leader and a freshly-bootstrapped follower over the same seed
/// corpus (so the follower starts at the leader's epoch with identical
/// state — the `Follower::create` contract).
fn pair(tmp: &TempDir, store_opts: StoreOptions) -> (Leader, Follower, Vec<Table>) {
    let base = corpus(&CorpusSpec::sized(0x9e97, 6));
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), 2),
        store_opts.clone(),
    )
    .expect("leader store");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let follower = Follower::create(
        tmp.subdir("follower"),
        tiny_engine(base.clone(), 2),
        store_opts,
    )
    .expect("follower");
    (leader, follower, base)
}

/// One batch of mixed mutations against the leader: three fresh tables,
/// one removal, and (every other batch) a compaction — each a logged op.
fn churn_batch(store: &DurableEngine, batch: u64, next_id: &mut u64) {
    let mut tables = corpus(&CorpusSpec {
        seed: 0xC0FFEE ^ batch,
        n_tables: 3,
        series_len: 60,
        near_dup_every: 0,
    });
    let first = *next_id;
    for t in &mut tables {
        t.id = *next_id;
        t.name = format!("churn{batch}-{}", t.id);
        *next_id += 1;
    }
    store.insert_tables(tables).expect("churn insert");
    store.remove_tables(&[first]).expect("churn remove");
    if batch.is_multiple_of(2) {
        store.compact().expect("churn compact");
    }
}

/// Leader and follower must agree exactly: same epoch, same table count,
/// and bit-identical ranked hits on every probe.
fn assert_replica_matches(ctx: &str, leader: &Leader, follower: &Follower, probes: &[Table]) {
    assert_eq!(
        leader.store().epoch(),
        follower.epoch(),
        "{ctx}: epoch mismatch"
    );
    assert_eq!(
        leader.store().len(),
        follower.store().len(),
        "{ctx}: table count mismatch"
    );
    let sopts = SearchOptions::default();
    for (qi, q) in queries_for(probes, probes.len()).iter().enumerate() {
        let a = leader.store().search(q, &sopts).expect("leader search");
        let b = follower
            .search(q, &sopts, ReadConsistency::Any)
            .expect("follower search");
        assert_same_hits_bitwise(&format!("{ctx}: query {qi}"), &a, &b);
    }
}

// ---------------------------------------------------------------- transports

#[test]
fn channel_transport_is_fifo() {
    let t = ChannelTransport::default();
    assert_eq!(t.pending(), 0);
    t.send(b"one").unwrap();
    t.send(b"two").unwrap();
    assert_eq!(t.pending(), 2);
    assert_eq!(t.recv().unwrap().as_deref(), Some(&b"one"[..]));
    assert_eq!(t.recv().unwrap().as_deref(), Some(&b"two"[..]));
    assert_eq!(t.recv().unwrap(), None);
}

// ------------------------------------------------------------ happy path

#[test]
fn clean_stream_replicates_hit_for_hit_without_reencoding() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-clean");
    // Huge cadence: single WAL file, pure record streaming.
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    assert_eq!(
        leader.attach("f", follower.epoch()),
        Attach::Resumed,
        "fresh pair must resume from the shared seed epoch"
    );
    let transport = ChannelTransport::default();
    let mut next_id = 1000;
    let before_epoch = leader.store().epoch();
    for batch in 0..3 {
        churn_batch(leader.store(), batch, &mut next_id);
    }
    let shipped = leader.store().epoch() - before_epoch;
    let encodes_before = table_encode_count();
    let stats = sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("converge");
    assert_eq!(
        table_encode_count(),
        encodes_before,
        "a replica must never re-encode shipped batches"
    );
    assert_eq!(stats.records_applied, shipped, "every logged op ships once");
    assert_eq!(
        follower.stats().resyncs,
        0,
        "clean stream needs no snapshot"
    );
    assert_replica_matches("clean stream", &leader, &follower, &base);
}

#[test]
fn streaming_follows_the_wal_chain_across_checkpoints() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-chain");
    // Checkpoint every 2 ops: the leader rotates WAL files mid-stream and
    // the cursor has to walk the chain across rotations.
    let (leader, follower, base) = pair(&tmp, opts_keeping(2, 8));
    leader.attach("f", follower.epoch());
    let transport = ChannelTransport::default();
    let mut next_id = 1000;
    for batch in 0..4 {
        churn_batch(leader.store(), batch, &mut next_id);
        sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("converge");
        assert_replica_matches(&format!("after batch {batch}"), &leader, &follower, &base);
    }
    assert_eq!(
        follower.stats().resyncs,
        0,
        "a follower that syncs every batch stays on the record path"
    );
}

#[test]
fn gc_overtaken_follower_degrades_to_checkpoint_resync() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-gc");
    // Checkpoint every batch, keep 2: by the time the follower syncs, the
    // WAL history covering its epoch is garbage-collected.
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    assert_eq!(
        leader.attach("f", follower.epoch()),
        Attach::Resumed,
        "the cursor is honourable before history is collected"
    );
    let transport = ChannelTransport::default();
    let mut next_id = 1000;
    for batch in 0..3 {
        churn_batch(leader.store(), batch, &mut next_id);
        leader.store().checkpoint().expect("checkpoint");
    }
    let stats = sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("converge");
    assert!(
        follower.stats().resyncs >= 1,
        "history is gone; only a snapshot can catch this follower up (stats: {stats:?})"
    );
    assert_replica_matches("post-resync", &leader, &follower, &base);
}

#[test]
fn follower_tails_across_rotations_whose_manifests_have_not_committed() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-uncommitted");
    // Every op hands a checkpoint off and rotates the log; the follower
    // pumps right behind each op without waiting for the checkpointer, so
    // it tails logs the newest manifest does not name yet.
    let (leader, follower, base) = pair(&tmp, opts_keeping(1, 8));
    leader.attach("f", follower.epoch());
    let transport = ChannelTransport::default();
    let mut next_id = 1000;
    for batch in 0..4 {
        churn_batch(leader.store(), batch, &mut next_id);
        // The live log is the one the last hand-off rotated to, whatever
        // the manifest on disk says at this instant.
        assert_eq!(
            leader.store().wal_tail_cursor().file,
            format!("wal-{:016x}.log", leader.store().epoch()),
            "batch {batch}: the tail cursor must name the live log"
        );
        let encodes_before = table_encode_count();
        sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("converge");
        assert_eq!(table_encode_count(), encodes_before, "follower re-encoded");
        assert_replica_matches(&format!("after batch {batch}"), &leader, &follower, &base);
    }
    assert_eq!(follower.stats().resyncs, 0, "pure record streaming");
}

#[test]
fn follower_tails_across_a_rotation_whose_checkpoint_failed() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-failed-ckpt");
    let base = corpus(&CorpusSpec::sized(0x9e97, 6));
    let plan = FaultPlan::new();
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), 2),
        StoreOptions {
            fault: Some(plan.clone()),
            ..opts_keeping(4, 8)
        },
    )
    .expect("leader store");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let follower = Follower::create(
        tmp.subdir("follower"),
        tiny_engine(base.clone(), 2),
        opts(10_000),
    )
    .expect("follower");
    leader.attach("f", follower.epoch());
    let transport = ChannelTransport::default();
    let mut next_id = 1000;

    // The hand-off inside this batch rotates the log; its checkpoint dies
    // at the first segment write, so the manifest keeps naming the old log
    // while the writer is on the new one.
    plan.fail_at(
        FaultPoint::SegmentWrite,
        plan.count(FaultPoint::SegmentWrite) + 1,
    );
    for batch in 0..2 {
        churn_batch(leader.store(), batch, &mut next_id);
    }
    leader.store().wait_checkpoint_idle();
    let stashed = leader
        .store()
        .last_checkpoint_error()
        .expect("stashed failure");
    assert!(stashed.contains("injected fault"), "stashed: {stashed}");
    let (_, manifest) = latest_manifest(leader.store().dir())
        .expect("manifest readable")
        .expect("manifest present");
    let tail = leader.store().wal_tail_cursor();
    assert_ne!(
        tail.file, manifest.wal_file,
        "the failed checkpoint must leave the manifest behind the live log"
    );
    assert!(
        tail.offset > lcdd_store::WAL_HEADER_LEN,
        "ops landed in the rotated log"
    );

    let encodes_before = table_encode_count();
    sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("converge");
    assert_eq!(table_encode_count(), encodes_before, "follower re-encoded");
    assert_eq!(follower.stats().resyncs, 0, "the chain covers the follower");
    assert_replica_matches("across the failed rotation", &leader, &follower, &base);

    // A fresh attach at the follower's epoch resolves into the rotated
    // log too (the cursor lookup walks the same chain).
    assert_eq!(leader.attach("f", follower.epoch()), Attach::Resumed);
    churn_batch(leader.store(), 2, &mut next_id);
    sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("converge again");
    assert_replica_matches("after re-attach", &leader, &follower, &base);
}

// ------------------------------------------------------------ fault reactions

#[test]
fn duplicate_and_reordered_frames_are_absorbed() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-dup");
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    leader.attach("f", follower.epoch());
    let transport = FaultyTransport::new(
        ChannelTransport::default(),
        vec![(2, FaultAction::Duplicate), (4, FaultAction::ReorderNext)],
    );
    let mut next_id = 1000;
    for batch in 0..2 {
        churn_batch(leader.store(), batch, &mut next_id);
    }
    let stats = sync_to_convergence(&leader, "f", &transport, &follower, 32).expect("converge");
    assert_eq!(transport.faults_fired(), 2, "both faults must have fired");
    assert!(
        stats.duplicates + follower.stats().duplicates >= 1,
        "the duplicated frame must be skipped idempotently"
    );
    assert_eq!(follower.stats().resyncs, 0, "dup/reorder is not corruption");
    assert_replica_matches("dup+reorder", &leader, &follower, &base);
}

#[test]
fn dropped_frames_resume_from_offset() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-drop");
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    leader.attach("f", follower.epoch());
    let transport = FaultyTransport::new(
        ChannelTransport::default(),
        vec![(2, FaultAction::Drop), (7, FaultAction::Drop)],
    );
    let mut next_id = 1000;
    for batch in 0..2 {
        churn_batch(leader.store(), batch, &mut next_id);
    }
    let stats = sync_to_convergence(&leader, "f", &transport, &follower, 32).expect("converge");
    assert_eq!(transport.faults_fired(), 2);
    assert!(
        stats.gaps_resumed >= 1,
        "lost frames must surface as gap-resume, not resync (stats: {stats:?})"
    );
    assert_eq!(follower.stats().resyncs, 0, "loss is not corruption");
    assert_replica_matches("drops", &leader, &follower, &base);
}

#[test]
fn delayed_frames_arrive_after_ticks() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-delay");
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    leader.attach("f", follower.epoch());
    let transport = FaultyTransport::new(
        ChannelTransport::default(),
        vec![
            (1, FaultAction::Delay { rounds: 2 }),
            (3, FaultAction::Delay { rounds: 3 }),
        ],
    );
    let mut next_id = 1000;
    churn_batch(leader.store(), 0, &mut next_id);
    sync_to_convergence(&leader, "f", &transport, &follower, 32).expect("converge");
    assert_eq!(transport.faults_fired(), 2);
    assert_replica_matches("delays", &leader, &follower, &base);
}

#[test]
fn corrupt_frame_quarantines_then_resyncs() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-corrupt");
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    leader.attach("f", follower.epoch());
    let transport = FaultyTransport::new(
        ChannelTransport::default(),
        vec![(2, FaultAction::CorruptByte { offset: 20 })],
    );
    let mut next_id = 1000;
    for batch in 0..2 {
        churn_batch(leader.store(), batch, &mut next_id);
    }
    let stats = sync_to_convergence(&leader, "f", &transport, &follower, 32).expect("converge");
    assert!(
        follower.stats().quarantines >= 1,
        "a checksum-failing frame must quarantine"
    );
    assert!(
        follower.stats().resyncs >= 1 && stats.resyncs >= 1,
        "quarantine recovers through checkpoint resync (stats: {stats:?})"
    );
    assert!(
        follower.quarantine_reason().is_none(),
        "resync must lift the quarantine"
    );
    assert_replica_matches("corruption", &leader, &follower, &base);
}

#[test]
fn truncated_frame_quarantines_then_resyncs() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-trunc");
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    leader.attach("f", follower.epoch());
    let transport = FaultyTransport::new(
        ChannelTransport::default(),
        vec![(1, FaultAction::Truncate { keep: 9 })],
    );
    let mut next_id = 1000;
    churn_batch(leader.store(), 0, &mut next_id);
    sync_to_convergence(&leader, "f", &transport, &follower, 32).expect("converge");
    assert!(follower.stats().resyncs >= 1);
    assert_replica_matches("truncated frame", &leader, &follower, &base);
}

#[test]
fn transient_send_failures_retry_and_succeed() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-retry");
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    leader.attach("f", follower.epoch());
    let transport = FaultyTransport::new(
        ChannelTransport::default(),
        vec![(1, FaultAction::FailSend), (2, FaultAction::FailSend)],
    );
    let mut next_id = 1000;
    churn_batch(leader.store(), 0, &mut next_id);
    let pump = leader
        .pump("f", &transport)
        .expect("retries absorb transient failures");
    assert!(
        pump.retries >= 2,
        "two failed attempts must show up as retries (got {})",
        pump.retries
    );
    while let Some(bytes) = transport.recv().unwrap() {
        follower.apply_frame(&bytes).expect("clean frames apply");
    }
    assert_replica_matches("transient send failures", &leader, &follower, &base);
}

#[test]
fn permanent_send_failure_is_typed_and_recoverable() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-perm");
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    leader.attach("f", follower.epoch());
    // Fail every attempt the retry policy is willing to make (6), so the
    // first frame's send fails permanently.
    let schedule: Vec<_> = (1..=6).map(|n| (n, FaultAction::FailSend)).collect();
    let transport = FaultyTransport::new(ChannelTransport::default(), schedule);
    let mut next_id = 1000;
    churn_batch(leader.store(), 0, &mut next_id);
    let err = leader.pump("f", &transport).expect_err("all attempts fail");
    assert!(
        matches!(err, EngineError::Replication(_)),
        "permanent send failure must be a typed replication error, got {err}"
    );
    assert_eq!(follower.stats().applied, 0, "nothing was delivered");
    // The schedule is exhausted; the rolled-back cursor resumes cleanly.
    sync_to_convergence(&leader, "f", &transport, &follower, 32).expect("recovers");
    assert_replica_matches("after permanent failure", &leader, &follower, &base);
}

// ------------------------------------------------------------------- resync

/// The leader walks its WAL chain with recovery's rules: a log behind the
/// follower that recovery would reject (torn, with a successor) is not
/// shipped from — the follower is resynced by snapshot instead of being
/// fed the records around the tear and re-attached at the gap forever.
#[test]
fn torn_log_behind_a_follower_resyncs_by_snapshot() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-torn-chain");
    let (leader, follower, base) = pair(&tmp, opts_keeping(10_000, 8));
    leader.attach("f", follower.epoch());
    let transport = ChannelTransport::default();
    let mut next_id = 1000;
    churn_batch(leader.store(), 0, &mut next_id);
    leader.store().checkpoint().expect("checkpoint");
    churn_batch(leader.store(), 1, &mut next_id);
    // The oldest log is retained (keep 8) and rotated out: tearing its
    // last record breaks the chain the follower's cursor sits on.
    let oldest = std::fs::read_dir(leader.store().dir())
        .expect("list leader dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("wal-") && n.ends_with(".log"))
        .min()
        .expect("a WAL file");
    let path = leader.store().dir().join(oldest);
    let len = std::fs::metadata(&path).expect("stat log").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open log")
        .set_len(len - 5)
        .expect("tear log");
    let stats = sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("converge");
    assert!(
        stats.resyncs >= 1,
        "a torn link is resynced by snapshot (stats: {stats:?})"
    );
    assert_replica_matches("past the torn log", &leader, &follower, &base);
}

/// A snapshot frame that passes the transport checksum but carries a
/// damaged engine snapshot is refused: the follower stays quarantined on
/// its old generation and epoch, and the next good snapshot resyncs it.
#[test]
fn damaged_snapshot_keeps_the_follower_quarantined_until_a_good_one() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-bad-snapshot");
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    leader.attach("f", follower.epoch());
    let mut next_id = 1000;
    churn_batch(leader.store(), 0, &mut next_id);
    let old_epoch = follower.epoch();
    let old_dir = follower.store_dir();

    let mut bad = Frame::Heartbeat { leader_epoch: 1 }.encode();
    bad[10] ^= 0x40;
    follower.apply_frame(&bad).expect_err("checksum failure");
    assert!(follower.quarantine_reason().is_some());

    let transport = ChannelTransport::default();
    leader.ship_snapshot("f", &transport).expect("ship");
    let good = transport.recv().unwrap().expect("snapshot frame");
    let Frame::Snapshot {
        epoch,
        mut snapshot,
    } = Frame::decode(&good).expect("decodes")
    else {
        panic!("the first frame of a resync is the snapshot");
    };
    let mid = snapshot.len() / 2;
    snapshot[mid] ^= 0x40;
    let damaged = Frame::Snapshot { epoch, snapshot }.encode();
    let err = follower
        .apply_frame(&damaged)
        .expect_err("a damaged snapshot must not install");
    assert!(matches!(err, EngineError::Replication(_)), "got {err}");
    assert!(
        follower.quarantine_reason().is_some(),
        "still quarantined after a damaged snapshot"
    );
    assert_eq!(follower.epoch(), old_epoch);
    assert_eq!(follower.store_dir(), old_dir);
    assert_eq!(follower.stats().resyncs, 0);
    follower
        .search(
            &queries_for(&base, 1)[0],
            &SearchOptions::default(),
            ReadConsistency::Any,
        )
        .expect("the old generation keeps serving");

    assert_eq!(
        follower.apply_frame(&good).expect("good snapshot"),
        FrameOutcome::Resynced(epoch)
    );
    while let Some(bytes) = transport.recv().unwrap() {
        follower.apply_frame(&bytes).expect("tail frames apply");
    }
    assert!(follower.quarantine_reason().is_none());
    assert_ne!(follower.store_dir(), old_dir);
    assert_replica_matches("after the good snapshot", &leader, &follower, &base);
}

/// A follower that opens its stores cold serves a resynced generation
/// cold too: the install opens it with the follower's own options.
#[test]
fn resync_of_a_cold_follower_serves_the_new_generation_cold() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-cold-resync");
    let base = corpus(&CorpusSpec::sized(0x9e97, 6));
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), 2),
        opts(10_000),
    )
    .expect("leader store");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let follower = Follower::create(
        tmp.subdir("follower"),
        tiny_engine(base.clone(), 2),
        StoreOptions {
            cold_open: true,
            ..opts(10_000)
        },
    )
    .expect("follower");
    let mut next_id = 1000;
    for batch in 0..2 {
        churn_batch(leader.store(), batch, &mut next_id);
    }
    let transport = ChannelTransport::default();
    leader.ship_snapshot("f", &transport).expect("ship");
    let mut resynced = false;
    while let Some(bytes) = transport.recv().unwrap() {
        resynced |= matches!(
            follower.apply_frame(&bytes).expect("frames apply"),
            FrameOutcome::Resynced(_)
        );
    }
    assert!(resynced);
    let store = follower.store();
    assert_eq!(
        store.snapshot().tier_stats().mapped_tables,
        store.len() as u64,
        "the resynced generation is served from mapped segments"
    );
    assert_replica_matches("cold resync", &leader, &follower, &base);
}

/// A resync that dies before its manifest commits fails with a typed
/// error and leaves the old generation serving; a restart skips the
/// manifest-less generation and sweeps it.
#[test]
fn resync_dying_before_its_manifest_leaves_the_old_generation_serving() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-torn-install");
    let root = tmp.subdir("follower");
    let base = corpus(&CorpusSpec::sized(0x9e97, 6));
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), 2),
        opts(10_000),
    )
    .expect("leader store");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let plan = FaultPlan::new();
    let follower = Follower::create(
        &root,
        tiny_engine(base.clone(), 2),
        StoreOptions {
            fault: Some(plan.clone()),
            ..opts(10_000)
        },
    )
    .expect("follower");
    let mut next_id = 1000;
    churn_batch(leader.store(), 0, &mut next_id);
    let old_epoch = follower.epoch();
    let old_dir = follower.store_dir();

    plan.fail_at(
        FaultPoint::ManifestWrite,
        plan.count(FaultPoint::ManifestWrite) + 1,
    );
    let transport = ChannelTransport::default();
    leader.ship_snapshot("f", &transport).expect("ship");
    let snapshot = transport.recv().unwrap().expect("snapshot frame");
    let err = follower
        .apply_frame(&snapshot)
        .expect_err("the install dies at its manifest");
    assert!(
        matches!(err, EngineError::Io(_)) && err.to_string().contains("injected fault"),
        "got {err}"
    );
    assert_eq!(follower.epoch(), old_epoch);
    assert_eq!(follower.store_dir(), old_dir);
    follower
        .search(
            &queries_for(&base, 1)[0],
            &SearchOptions::default(),
            ReadConsistency::Any,
        )
        .expect("the old generation keeps serving");
    let torn = root.join("gen-0001");
    assert!(torn.is_dir(), "the install got as far as its data files");
    assert!(
        latest_manifest(&torn).expect("listable").is_none(),
        "but never committed a manifest"
    );

    drop(follower);
    let (follower, _) = Follower::open(&root, opts(10_000)).expect("restart");
    assert_eq!(follower.store_dir(), old_dir);
    assert_eq!(follower.epoch(), old_epoch);
    assert!(!torn.exists(), "the manifest-less generation is swept");
    assert_eq!(leader.attach("f", follower.epoch()), Attach::Resumed);
    let transport = ChannelTransport::default();
    sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("converge");
    assert_replica_matches("after the torn install", &leader, &follower, &base);
}

// ------------------------------------------------------- restart + staleness

#[test]
fn follower_restart_recovers_and_resumes_streaming() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-restart");
    let root = tmp.subdir("follower");
    let base = corpus(&CorpusSpec::sized(0x9e97, 6));
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), 2),
        opts(10_000),
    )
    .expect("leader store");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let follower =
        Follower::create(&root, tiny_engine(base.clone(), 2), opts(10_000)).expect("follower");
    leader.attach("f", follower.epoch());
    let transport = ChannelTransport::default();
    let mut next_id = 1000;
    churn_batch(leader.store(), 0, &mut next_id);
    sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("first sync");
    let epoch_at_shutdown = follower.epoch();
    drop(follower);

    // Restart: ordinary PR 5 recovery inside the live generation.
    let (follower, report) = Follower::open(&root, opts(10_000)).expect("reopen replica");
    assert_eq!(
        follower.epoch(),
        epoch_at_shutdown,
        "recovery report: {report:?}"
    );
    assert_eq!(
        leader.attach("f", follower.epoch()),
        Attach::Resumed,
        "recovered epoch must be resumable"
    );
    churn_batch(leader.store(), 1, &mut next_id);
    sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("post-restart sync");
    assert_replica_matches("after restart", &leader, &follower, &base);
}

#[test]
fn staleness_contracts_are_enforced() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-stale");
    let (leader, follower, base) = pair(&tmp, opts(10_000));
    leader.attach("f", follower.epoch());
    let transport = ChannelTransport::default();
    let mut next_id = 1000;
    churn_batch(leader.store(), 0, &mut next_id);
    let token = leader.store().epoch();
    let sopts = SearchOptions::default();
    let probe_q = &queries_for(&base, 1)[0];

    // Before syncing: Any serves, read-your-writes refuses.
    follower
        .search(probe_q, &sopts, ReadConsistency::Any)
        .expect("Any always serves");
    let err = follower
        .search(probe_q, &sopts, ReadConsistency::AtLeastEpoch(token))
        .expect_err("replica has not caught up to the write token");
    assert!(
        matches!(err, EngineError::Replication(_)),
        "typed refusal, got {err}"
    );

    // A heartbeat tells the replica how far behind it is: bounded lag now
    // has something to measure against.
    let lag = token - follower.epoch();
    follower
        .apply_frame(
            &Frame::Heartbeat {
                leader_epoch: token,
            }
            .encode(),
        )
        .expect("heartbeat");
    assert_eq!(follower.leader_epoch_seen(), token);
    follower
        .search(probe_q, &sopts, ReadConsistency::BoundedLag(lag))
        .expect("lag exactly at the bound serves");
    let err = follower
        .search(probe_q, &sopts, ReadConsistency::BoundedLag(lag - 1))
        .expect_err("lag beyond the bound refuses");
    assert!(matches!(err, EngineError::Replication(_)));

    // After syncing, every contract serves.
    sync_to_convergence(&leader, "f", &transport, &follower, 16).expect("converge");
    follower
        .search(probe_q, &sopts, ReadConsistency::AtLeastEpoch(token))
        .expect("caught up to the token");
    follower
        .search(probe_q, &sopts, ReadConsistency::BoundedLag(0))
        .expect("zero lag after convergence");
}

// ---------------------------------------------------------------- failover

#[test]
fn failover_elects_newest_recoverable_replica_and_promotes_it() {
    let _gate = encode_gate();
    let tmp = TempDir::new("repl-failover");
    let base = corpus(&CorpusSpec::sized(0x9e97, 6));
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), 2),
        opts(10_000),
    )
    .expect("leader store");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let fast = Follower::create(
        tmp.subdir("fast"),
        tiny_engine(base.clone(), 2),
        opts(10_000),
    )
    .expect("fast follower");
    let slow = Follower::create(
        tmp.subdir("slow"),
        tiny_engine(base.clone(), 2),
        opts(10_000),
    )
    .expect("slow follower");
    leader.attach("fast", fast.epoch());
    leader.attach("slow", slow.epoch());
    let t_fast = ChannelTransport::default();
    let t_slow = ChannelTransport::default();
    let mut next_id = 1000;

    // Both replicas see the first batch; only `fast` sees the second —
    // then the leader "dies" (we simply stop consulting it).
    churn_batch(leader.store(), 0, &mut next_id);
    sync_to_convergence(&leader, "fast", &t_fast, &fast, 16).expect("fast sync 1");
    sync_to_convergence(&leader, "slow", &t_slow, &slow, 16).expect("slow sync 1");
    churn_batch(leader.store(), 1, &mut next_id);
    sync_to_convergence(&leader, "fast", &t_fast, &fast, 16).expect("fast sync 2");
    assert!(fast.epoch() > slow.epoch());

    // Election ranks by recoverable epoch; `fast` must win.
    let fast_dir = fast.store_dir();
    let slow_dir = slow.store_dir();
    let probed = probe(&fast_dir).expect("probe fast");
    assert_eq!(
        probed.recoverable_epoch,
        fast.epoch(),
        "probe must count the WAL tail past the last checkpoint"
    );
    let ranking = elect(&[
        slow_dir.clone(),
        fast_dir.clone(),
        tmp.subdir("not-a-store"),
    ])
    .expect("electable field");
    assert_eq!(ranking.len(), 2, "the junk directory is skipped");
    assert_eq!(ranking[0].dir, fast_dir);
    assert_eq!(ranking[1].dir, slow_dir);

    // Promote the winner (drop its Follower handle first — promotion in
    // anger happens after the process holding it died).
    drop(fast);
    let (promoted, report) = promote(&ranking[0], opts(10_000)).expect("promote");
    assert_eq!(
        promoted.epoch(),
        ranking[0].recoverable_epoch,
        "report: {report:?}"
    );
    let new_leader = Leader::new(Arc::new(promoted), RetryPolicy::immediate());

    // The surviving replica re-attaches to the new leader, catches up on
    // the epochs it missed, and continues through fresh churn.
    let t_new = ChannelTransport::default();
    new_leader.attach("slow", slow.epoch());
    churn_batch(new_leader.store(), 2, &mut next_id);
    sync_to_convergence(&new_leader, "slow", &t_new, &slow, 32).expect("converge on new leader");
    assert_replica_matches("after failover", &new_leader, &slow, &base);
}
