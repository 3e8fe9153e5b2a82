//! Tier-1 reach into the engine and store formats: one corpus taken down
//! every persistence path — snapshot, durable store recovered eagerly,
//! durable store recovered cold — must answer bit-identically to the live
//! engine, and recovery must never re-run the dataset encoder.
//!
//! Alone in its own test binary on purpose: `table_encode_count` is
//! process-global, so the flatness assertion must not share a process
//! with tests that encode tables concurrently.

use lcdd_testkit::crash::TempDir;
use lcdd_testkit::{assert_same_hits_bitwise, corpus, query_like, tiny_engine, CorpusSpec};
use linechart_discovery::engine::{Engine, IndexStrategy, SearchOptions};
use linechart_discovery::fcm::table_encode_count;
use linechart_discovery::store::{DurableEngine, StoreOptions};

#[test]
fn persistence_paths_agree() {
    let tables = corpus(&CorpusSpec::sized(0x9e75, 7));
    let (base, extra) = tables.split_at(6);
    let mut live = tiny_engine(base.to_vec(), 2);

    // Snapshot → restore, then a durable store around the restored engine.
    let mut snap = Vec::new();
    live.save_to(&mut snap).unwrap();
    let mut restored = Engine::load_from(snap.as_slice()).unwrap();
    let tmp = TempDir::new("persistence-paths");
    let dir = tmp.subdir("store");
    let durable = DurableEngine::create(
        &dir,
        Engine::load_from(snap.as_slice()).unwrap(),
        StoreOptions::default(),
    )
    .unwrap();

    // The same insert + remove everywhere; the store only logs them.
    for engine in [&mut live, &mut restored] {
        engine.insert_tables(extra.to_vec());
        assert_eq!(engine.remove_tables(&[base[2].id]), 1);
    }
    durable.insert_tables(extra.to_vec()).unwrap();
    assert_eq!(durable.remove_tables(&[base[2].id]).unwrap(), 1);
    drop(durable);

    // Recover eagerly, then cold; neither may run the dataset encoder.
    let encodes = table_encode_count();
    let [eager, cold] = [false, true].map(|cold_open| {
        let opts = StoreOptions {
            cold_open,
            ..StoreOptions::default()
        };
        let (store, report) = DurableEngine::open(&dir, opts).unwrap();
        assert_eq!(report.replayed_ops, 2, "cold_open {cold_open}");
        store.into_serving()
    });
    assert_eq!(
        table_encode_count(),
        encodes,
        "recovery must splice logged encodings in, not re-encode"
    );

    for strategy in IndexStrategy::ALL {
        let opts = SearchOptions::top_k(6).with_strategy(strategy);
        for (qi, table) in tables.iter().enumerate() {
            let q = query_like(table);
            let want = live.search(&q, &opts).unwrap();
            for (path, got) in [
                ("snapshot-restored", restored.search(&q, &opts)),
                ("eager-recovered", eager.search(&q, &opts)),
                ("cold-recovered", cold.search(&q, &opts)),
            ] {
                let context = format!("{path}, {strategy:?}, query {qi}");
                assert_same_hits_bitwise(&context, &want, &got.unwrap());
            }
        }
    }
}
