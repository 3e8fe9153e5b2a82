//! The recovery-equivalence property: for random scripted op sequences,
//! crashing at **every record boundary** (clean boundaries, post-
//! checkpoint states, torn final records) and recovering from
//! {latest checkpoint + WAL chain} yields search results hit-for-hit
//! identical — with bit-identical scores — to a serial replay of the
//! surviving op prefix, for shard counts 1, 2 and 4. Recovery replays
//! cached encodings only: the FCM encoder runs zero times (asserted
//! inside the harness via `lcdd_fcm::table_encode_count`).
//!
//! Checkpoints run on the store's checkpointer thread, so the same bar
//! is held for stores that die *inside* one — after the WAL rotation
//! before any segment, after the segments before the manifest, after the
//! manifest before GC, with a chain of logs rotated by failed
//! checkpoints behind the newest manifest — and for handles dropped or
//! raced while a checkpoint is in flight.

use std::sync::atomic::{AtomicBool, Ordering};

use lcdd_engine::{persist, Engine};
use lcdd_repl::Follower;
use lcdd_store::{DurableEngine, StoreOptions};
use lcdd_testkit::crash::{
    apply_durable, apply_serial, assert_recovered_equals_serial, battery, encode_gate,
    random_script, run_crash_boundary_case, CrashCase, TempDir,
};
use lcdd_testkit::{corpus, tiny_engine, CorpusSpec};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 2 } else { 6 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn crash_recovery_equals_serial_replay(
        seed in 0u64..1_000_000,
        n_base in 3usize..7,
        n_ops in 4usize..8,
        checkpoint_every in 0u64..4,
        fail_checkpoints in 0u8..2,
    ) {
        for n_shards in [1usize, 2, 4] {
            let case = CrashCase {
                seed,
                n_base,
                n_shards,
                n_ops,
                checkpoint_every,
                fail_checkpoints: fail_checkpoints == 1,
            };
            let sweep = run_crash_boundary_case(&case);
            // Every op boundary plus the pre-op state must have been
            // exercised (torn variants come on top).
            prop_assert!(
                sweep.points > n_ops,
                "only {} crash points for {n_ops} ops",
                sweep.points
            );
        }
    }
}

/// One deterministic end-to-end pass (fast to run in isolation when
/// debugging a harness or store change).
#[test]
fn crash_recovery_smoke() {
    let sweep = run_crash_boundary_case(&CrashCase {
        seed: 0xc0ffee,
        n_base: 5,
        n_shards: 2,
        n_ops: 6,
        checkpoint_every: 2,
        fail_checkpoints: false,
    });
    assert!(sweep.points > 6);
    assert!(
        sweep.in_checkpoint_points > 0,
        "committed checkpoints must contribute their pre-GC crash point"
    );
}

/// Every op hands a checkpoint off and the attempts cycle fail-at-first-
/// segment → fail-at-manifest → succeed, so the sweep holds all three
/// in-checkpoint crash points and a chain of two rotated logs (plus the
/// live one) behind the newest manifest.
#[test]
fn crash_inside_a_background_checkpoint_recovers_the_serial_replay() {
    for n_shards in [1usize, 2, 4] {
        let sweep = run_crash_boundary_case(&CrashCase {
            seed: 0xbac6_c4ec,
            n_base: 5,
            n_shards,
            n_ops: 9,
            checkpoint_every: 1,
            fail_checkpoints: true,
        });
        assert!(sweep.points > 9);
        assert!(
            sweep.in_checkpoint_points >= 3,
            "{n_shards} shards: only {} in-checkpoint crash points",
            sweep.in_checkpoint_points
        );
        assert!(
            sweep.max_wal_files >= 3,
            "{n_shards} shards: two failed checkpoints in a row must leave a chain of \
             >= 2 rotated logs (longest chain walked: {})",
            sweep.max_wal_files
        );
    }
}

fn churn_opts() -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 2,
        checkpoint_every_bytes: 0,
        keep_checkpoints: 2,
        ..StoreOptions::default()
    }
}

/// Dropping the handle with a checkpoint queued or being written joins
/// the checkpointer first; whatever it had committed by then, the reopen
/// replays the rest from the WAL chain.
#[test]
fn drop_while_a_checkpoint_is_in_flight_then_reopen() {
    let _gate = encode_gate();
    let tmp = TempDir::new("drop-inflight");
    let base = corpus(&CorpusSpec::sized(0xd209, 6));
    let base_ids: Vec<u64> = base.iter().map(|t| t.id).collect();
    let script = random_script(0xd209, 24, &base_ids);
    let queries = battery(&base, &script, 3);
    let mut serial = tiny_engine(base.clone(), 2);
    let dir = tmp.subdir("store");
    let mut durable =
        DurableEngine::create(&dir, tiny_engine(base.clone(), 2), churn_opts()).expect("create");
    // Reopen after every few ops without ever waiting for the checkpointer:
    // each drop lands wherever the hand-offs of the ops before it got to.
    for (i, op) in script.iter().enumerate() {
        apply_durable(&durable, op);
        apply_serial(&mut serial, op);
        if i % 3 == 2 {
            drop(durable);
            let before = lcdd_fcm::table_encode_count();
            let (reopened, _) = DurableEngine::open(&dir, churn_opts()).expect("reopen");
            assert_eq!(lcdd_fcm::table_encode_count(), before, "reopen re-encoded");
            assert_recovered_equals_serial(
                &format!("reopen after op {i}"),
                &reopened,
                &serial,
                &queries,
            );
            durable = reopened;
        }
    }
}

/// A writer churning through the policy's hand-offs while other threads
/// call `checkpoint()` (enqueue-and-wait on the same path) and
/// `export_snapshot()`: every explicit checkpoint succeeds, every export
/// decodes, installs through the follower's install path and opens at
/// exactly the epoch it was exported at, and the store afterwards
/// recovers the serial replay with zero re-encodes.
#[test]
fn writer_churn_racing_explicit_checkpoints_and_exports() {
    let _gate = encode_gate();
    let tmp = TempDir::new("ckpt-race");
    let base = corpus(&CorpusSpec::sized(0x4ace, 6));
    let base_ids: Vec<u64> = base.iter().map(|t| t.id).collect();
    let script = random_script(0x4ace, 40, &base_ids);
    let queries = battery(&base, &script, 3);
    let dir = tmp.subdir("store");
    let durable =
        DurableEngine::create(&dir, tiny_engine(base.clone(), 2), churn_opts()).expect("create");
    let writing = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let checkpoints = scope.spawn(|| {
            let mut last_epoch = 0;
            while writing.load(Ordering::Acquire) {
                let stats = durable
                    .checkpoint()
                    .expect("explicit checkpoint under churn");
                assert!(stats.epoch >= last_epoch, "checkpoints went backwards");
                last_epoch = stats.epoch;
            }
        });
        let exports = scope.spawn(|| {
            let mut n = 0;
            while writing.load(Ordering::Acquire) {
                let mut snapshot = Vec::new();
                let at = durable
                    .export_snapshot(&mut snapshot)
                    .expect("export under churn");
                let mut engine = Engine::load_from(&snapshot[..]).expect("export decodes");
                persist::force_epoch(&mut engine, at.epoch);
                let replica =
                    Follower::create(tmp.subdir(&format!("export-{n}")), engine, churn_opts())
                        .expect("export installs and opens");
                assert_eq!(replica.epoch(), at.epoch);
                n += 1;
            }
        });
        for op in &script {
            apply_durable(&durable, op);
        }
        writing.store(false, Ordering::Release);
        checkpoints.join().expect("checkpoint thread");
        exports.join().expect("export thread");
    });
    let mut serial = tiny_engine(base, 2);
    for op in &script {
        apply_serial(&mut serial, op);
    }
    assert_recovered_equals_serial("live store after the race", &durable, &serial, &queries);
    drop(durable);
    let before = lcdd_fcm::table_encode_count();
    let (recovered, _) = DurableEngine::open(&dir, churn_opts()).expect("recovery");
    assert_eq!(
        lcdd_fcm::table_encode_count(),
        before,
        "recovery re-encoded"
    );
    assert_recovered_equals_serial("recovered after the race", &recovered, &serial, &queries);
}
