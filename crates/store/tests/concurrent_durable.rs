//! Readers race the durable write path: N reader threads search a
//! [`DurableEngine`] while one writer logs a scripted op sequence through
//! it and the store's checkpointer commits checkpoints in the background.
//! Every response must come from exactly one published epoch, and the
//! final state — live, and reopened from disk — must answer like a plain
//! engine that applied the same ops serially.

use lcdd_engine::SearchOptions;
use lcdd_store::{latest_manifest, DurableEngine, StoreOptions};
use lcdd_testkit::concurrent::{replay_serial, run_concurrent_session_with};
use lcdd_testkit::crash::{
    apply_durable, assert_recovered_equals_serial, battery, random_script, TempDir,
};
use lcdd_testkit::{corpus, tiny_engine, CorpusSpec};

#[test]
fn readers_stay_consistent_through_logged_writes_and_background_checkpoints() {
    let tables = corpus(&CorpusSpec::sized(0xd0ab, 10));
    let base_ids: Vec<u64> = tables.iter().map(|t| t.id).collect();
    let ops = random_script(0xd0ab, 12, &base_ids);
    let queries = battery(&tables, &ops, 4);
    let opts = SearchOptions::top_k(5);
    let tmp = TempDir::new("concurrent-durable");
    let dir = tmp.subdir("store");
    let store_opts = StoreOptions {
        checkpoint_every_ops: 2,
        ..StoreOptions::default()
    };
    let durable = DurableEngine::create(&dir, tiny_engine(tables.clone(), 2), store_opts.clone())
        .expect("create store");

    // Halfway through the script the writer waits for the checkpointer, so
    // at least one background checkpoint commits while readers search.
    let mut applied = 0;
    let mut mid_session_checkpoint = None;
    let report = run_concurrent_session_with(
        &durable,
        |op| {
            apply_durable(&durable, op);
            applied += 1;
            if applied == ops.len() / 2 {
                durable.wait_checkpoint_idle();
                mid_session_checkpoint = latest_manifest(&dir)
                    .expect("read manifests")
                    .map(|(_, m)| m.epoch);
            }
        },
        &ops,
        &queries,
        &opts,
        4,
        40,
    );
    assert!(report.responses > 0, "readers must complete searches");
    let final_epoch = durable.epoch();
    let checkpoint_epoch = mid_session_checkpoint.expect("the store has a manifest");
    assert!(
        checkpoint_epoch > 0 && checkpoint_epoch < final_epoch,
        "no background checkpoint landed mid-session: manifest epoch \
         {checkpoint_epoch}, final epoch {final_epoch}"
    );

    let mut serial = tiny_engine(tables, 2);
    replay_serial(&mut serial, &ops);
    assert_recovered_equals_serial("live after the session", &durable, &serial, &queries);

    durable.wait_checkpoint_idle();
    assert_eq!(durable.last_checkpoint_error(), None);
    drop(durable);
    let (reopened, _) = DurableEngine::open(&dir, store_opts).expect("reopen store");
    assert_recovered_equals_serial("reopened from disk", &reopened, &serial, &queries);
}
