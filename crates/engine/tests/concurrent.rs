//! Concurrent serving contract: N reader threads keep getting consistent,
//! correct answers while one writer inserts / removes / compacts /
//! reshards, and the final published state is equivalent to a serial
//! replay of the same ops.

use lcdd_engine::{IndexStrategy, SearchOptions, ServingEngine};
use lcdd_table::{Column, Table};
use lcdd_testkit::concurrent::{replay_serial, run_concurrent_session};
use lcdd_testkit::crash::ScriptedOp;
use lcdd_testkit::{assert_same_hits, corpus, queries_for, tiny_engine, CorpusSpec};

/// Fresh tables the writer ingests mid-session (ids disjoint from the
/// seeded corpus).
fn extra_tables(base_id: u64, n: usize) -> Vec<Table> {
    (0..n)
        .map(|i| {
            let id = base_id + i as u64;
            let vals: Vec<f64> = (0..90)
                .map(|j| ((j as f64 + id as f64 * 7.0) / 5.5).sin() * (1.0 + i as f64))
                .collect();
            Table::new(id, format!("live-{id}"), vec![Column::new("c", vals)])
        })
        .collect()
}

/// The scripted mutation mix: growth, eviction, maintenance, relayout.
fn op_script(spec: &CorpusSpec) -> Vec<ScriptedOp> {
    vec![
        ScriptedOp::Insert(extra_tables(100, 3)),
        ScriptedOp::Remove(vec![1, 4]),
        ScriptedOp::Insert(extra_tables(200, 2)),
        ScriptedOp::Compact,
        ScriptedOp::Reshard(3),
        ScriptedOp::Remove(vec![102, 2]),
        ScriptedOp::Insert(extra_tables(300, 2)),
        ScriptedOp::Reshard(2),
        ScriptedOp::Remove(vec![spec.n_tables as u64 - 1]),
        ScriptedOp::Compact,
    ]
}

#[test]
fn readers_stay_consistent_through_writer_churn() {
    let spec = CorpusSpec::sized(0xc0c0, 10);
    let tables = corpus(&spec);
    let queries = queries_for(&tables, 6);
    let opts = SearchOptions::top_k(5);
    let ops = op_script(&spec);

    let serving = ServingEngine::new(tiny_engine(tables.clone(), 2));
    let report = run_concurrent_session(&serving, &ops, &queries, &opts, 4, 40);
    assert!(report.responses > 0, "readers must complete searches");
    assert!(
        !report.epochs_observed.is_empty(),
        "readers must observe at least one epoch"
    );

    // Serial replay: the final published state answers every query
    // hit-for-hit like a plain engine that applied the same ops one by one.
    let mut serial = tiny_engine(tables, 2);
    replay_serial(&mut serial, &ops);
    assert_eq!(
        serving.epoch(),
        serial.epoch(),
        "same number of epoch bumps"
    );
    assert_eq!(serving.len(), serial.len());
    for (qi, q) in queries.iter().enumerate() {
        for strategy in IndexStrategy::ALL {
            let o = SearchOptions::top_k(5).with_strategy(strategy);
            let concurrent = serving.search(q, &o).expect("final-state search");
            let reference = serial.search(q, &o).expect("serial search");
            assert_same_hits(
                &format!("query {qi} under {strategy:?} after concurrent session"),
                &concurrent,
                &reference,
            );
        }
    }
}

#[test]
fn batch_is_served_from_one_epoch() {
    let tables = corpus(&CorpusSpec::sized(0xba7c, 8));
    let queries = queries_for(&tables, 8);
    let serving = ServingEngine::new(tiny_engine(tables, 2));

    // Race batches against continuous ingest; every response inside one
    // batch must report the same epoch even when publishes land mid-batch.
    std::thread::scope(|scope| {
        let serving = &serving;
        let writer = scope.spawn(move || {
            for round in 0..6 {
                serving.insert_tables(extra_tables(500 + round * 10, 1));
            }
        });
        for _ in 0..12 {
            let responses = serving.search_batch(&queries, &SearchOptions::top_k(3));
            let epochs: Vec<u64> = responses
                .iter()
                .map(|r| r.as_ref().expect("batch search").epoch)
                .collect();
            assert!(
                epochs.windows(2).all(|w| w[0] == w[1]),
                "one batch mixed epochs: {epochs:?}"
            );
        }
        writer.join().expect("writer thread");
    });
    assert_eq!(serving.epoch(), 6);
}

#[test]
fn snapshots_keep_serving_old_epochs() {
    let tables = corpus(&CorpusSpec::sized(0x5e1f, 8));
    let queries = queries_for(&tables, 3);
    let opts = SearchOptions::top_k(4);
    let serving = ServingEngine::new(tiny_engine(tables, 2));

    let epoch0 = serving.snapshot();
    let before: Vec<_> = queries
        .iter()
        .map(|q| {
            serving
                .search_at(&epoch0, q, &opts)
                .expect("epoch-0 search")
        })
        .collect();

    serving.insert_tables(extra_tables(700, 3));
    serving.remove_tables(&[0, 3]);

    // The pinned snapshot still answers exactly as it did at epoch 0.
    for (q, old) in queries.iter().zip(&before) {
        let again = serving
            .search_at(&epoch0, q, &opts)
            .expect("epoch-0 search after mutations");
        assert_same_hits("pinned epoch-0 snapshot", &again, old);
        assert_eq!(again.epoch, 0);
    }
    // While the live engine serves the new epoch.
    let live = serving.search(&queries[0], &opts).expect("live search");
    assert_eq!(live.epoch, 2);
}

#[test]
fn query_cache_hits_within_epoch_and_invalidates_on_publish() {
    let tables = corpus(&CorpusSpec::sized(0xcac4e, 8));
    let q = queries_for(&tables, 1).remove(0);
    let opts = SearchOptions::top_k(4);
    let serving = ServingEngine::new(tiny_engine(tables, 2));

    let first = serving.search(&q, &opts).expect("first search");
    assert!(!first.cached);
    let second = serving.search(&q, &opts).expect("repeat search");
    assert!(second.cached, "repeat query at same epoch must hit cache");
    assert_same_hits("cached response", &second, &first);
    assert_eq!(serving.cache_stats().hits, 1);

    // A publish invalidates: the same query recomputes at the new epoch.
    serving.insert_tables(extra_tables(900, 1));
    let third = serving.search(&q, &opts).expect("post-publish search");
    assert!(!third.cached, "publish must invalidate the cache");
    assert_eq!(third.epoch, 1);
    assert_eq!(third.counts.total, serving.len());
}
