//! The `lcdd_engine` facade end to end: build a corpus, train FCM briefly,
//! assemble a sharded engine (ingest → encode → shard → index), answer
//! typed queries with per-stage provenance, mutate the corpus live
//! (insert/remove without re-encoding the resident tables), snapshot it
//! (one `LCDDSEG2` image per shard), serve from the restored engine — then
//! wrap it in a `ServingEngine` and query from threads *while* a writer
//! keeps ingesting (lock-free, epoch-versioned serving). Finally, the
//! kill-and-recover walkthrough: run the corpus under a durable store
//! (`lcdd_store::DurableEngine`), kill the "process" mid-append (torn WAL
//! record included), and recover the exact corpus from
//! {checkpoint segments + WAL tail} without re-encoding a table — then
//! replicate it: a `lcdd_repl::Leader` ships the WAL to a follower
//! replica (read-your-writes via epoch tokens, zero re-encodes), the
//! leader is killed, and the replica is elected and promoted without
//! losing anything acknowledged. The finale serves the promoted store
//! over the network through the `lcdd_server` gateway: an insert over
//! HTTP answers with an epoch token, replaying it as `x-lcdd-min-epoch`
//! gives read-your-writes, and shutdown drains every admitted request.
//!
//! ```bash
//! cargo run --release --example search_engine
//! ```

use linechart_discovery::benchmark::{build_benchmark, train_fcm_on, BenchmarkConfig};
use linechart_discovery::engine::{
    Engine, EngineBuilder, IndexStrategy, Query, SearchOptions, SearchResponse, ServingEngine,
};
use linechart_discovery::fcm::{FcmConfig, FcmModel, TrainConfig};
use linechart_discovery::repl::{
    elect, promote, sync_to_convergence, ChannelTransport, Follower, Leader, ReadConsistency,
    RetryPolicy,
};
use linechart_discovery::store::{DurableEngine, StoreOptions};

fn show(label: &str, resp: &SearchResponse) {
    let c = &resp.counts;
    let stages = [
        c.after_interval.map(|n| format!("interval->{n}")),
        c.after_lsh.map(|n| format!("lsh->{n}")),
    ]
    .into_iter()
    .flatten()
    .collect::<Vec<_>>()
    .join(" ");
    println!(
        "  [{label}] strategy={:<13} scored {:>3}/{:<3} {} ({:.1} ms)",
        resp.strategy.name(),
        c.scored,
        c.total,
        if stages.is_empty() {
            "(no pruning)".to_string()
        } else {
            stages
        },
        resp.timings.total_s * 1e3,
    );
    for hit in resp.hits.iter().take(3) {
        println!(
            "      #{:<3} {:<24} score {:.4}",
            hit.index, hit.table_name, hit.score
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small synthetic benchmark: tables + charts + ground truth.
    println!("building benchmark corpus ...");
    let bench = build_benchmark(&BenchmarkConfig {
        n_train: 16,
        n_distractors: 12,
        n_query_tables: 4,
        noise_copies: 4,
        k_rel: 5,
        train_extractor: false,
        ..Default::default()
    });

    // 2. Train the relevance model briefly (CPU-scale).
    println!("training FCM ({} repo tables) ...", bench.repo.len());
    let mut model = FcmModel::new(FcmConfig::tiny());
    train_fcm_on(
        &bench,
        &mut model,
        &TrainConfig {
            epochs: 4,
            batch_size: 8,
            n_neg: 2,
            ..Default::default()
        },
        |_, _, _| 0.0,
    );

    // 3. Ingest -> encode -> shard -> index: one builder call chain. Four
    //    shards here; results are identical for any shard count.
    let mut engine = EngineBuilder::new(model)
        .shards(4)
        .ingest(&bench.repo)
        .build()?;
    println!(
        "engine ready: {} tables across {} shards under {:?}\n",
        engine.len(),
        engine.n_shards(),
        engine.hybrid_config()
    );

    // 4. A pre-extracted chart query, swept across every index strategy —
    //    the strategy is a per-query option; nothing is rebuilt.
    let extracted = bench.queries[0].input.extracted.clone();
    println!("pre-extracted chart query, all strategies:");
    for strategy in IndexStrategy::ALL {
        let resp = engine.search(
            &Query::Extracted(extracted.clone()),
            &SearchOptions::top_k(5).with_strategy(strategy),
        )?;
        show("chart", &resp);
    }

    // 5. A raw numeric series sketch — "find datasets shaped like this".
    let series: Vec<f64> = (0..120).map(|i| (i as f64 / 9.0).sin() * 4.0).collect();
    let resp = engine.search(&Query::from_series(vec![series]), &SearchOptions::top_k(5))?;
    println!("\nraw series sketch:");
    show("series", &resp);

    // 6. Batched serving across the work pool.
    let queries: Vec<Query> = bench
        .queries
        .iter()
        .map(|q| Query::Extracted(q.input.extracted.clone()))
        .collect();
    let batch = engine.search_batch(&queries, &SearchOptions::top_k(5));
    println!(
        "\nbatch of {}: {} answered",
        batch.len(),
        batch.iter().filter(|r| r.is_ok()).count()
    );

    // 7. Live mutation: evict two tables, ingest a fresh one. Only the
    //    new table is encoded — the resident corpus is untouched — and
    //    only the receiving shard's index is updated.
    let evicted = [engine.table_meta(0).id, engine.table_meta(1).id];
    let n_removed = engine.remove_tables(&evicted);
    let fresh: Vec<f64> = (0..120)
        .map(|i| (i as f64 / 7.0).cos() * 2.5 + 10.0)
        .collect();
    let new_table = linechart_discovery::table::Table::new(
        90_001,
        "live-ingested",
        vec![linechart_discovery::table::Column::new("c", fresh)],
    );
    let assigned = engine.insert_tables(vec![new_table]);
    println!(
        "\nlive mutation: removed {n_removed} tables, inserted 1 at global position {} -> {} tables",
        assigned[0],
        engine.len()
    );

    // 8. Sharded snapshot round-trip: one checksummed frame around the
    //    meta block and one LCDDSEG2 image per shard — the same bytes the
    //    durable store of step 10 writes as meta.seg and seg-* files.
    //    Serving restarts without re-encoding; the shard layout is
    //    preserved and can be changed after restore with `reshard` —
    //    answers stay identical.
    let path = std::env::temp_dir().join("lcdd_search_engine_example.snap");
    engine.save(&path)?;
    let mut restored = Engine::load(&path)?;
    restored.reshard(2)?;
    let again = restored.search(
        &Query::Extracted(extracted),
        &SearchOptions::top_k(5).with_strategy(IndexStrategy::Hybrid),
    )?;
    let reference = engine.search(
        &Query::Extracted(bench.queries[0].input.extracted.clone()),
        &SearchOptions::top_k(5).with_strategy(IndexStrategy::Hybrid),
    )?;
    assert_eq!(again.ranked_indices(), reference.ranked_indices());
    println!(
        "\nsnapshot round-trip OK: {} bytes ({} shards saved, resharded to {} after restore), \
         identical top-{} ranking",
        std::fs::metadata(&path)?.len(),
        engine.n_shards(),
        restored.n_shards(),
        again.hits.len()
    );
    std::fs::remove_file(&path).ok();

    // 9. Concurrent serving: wrap the engine in a ServingEngine and let
    //    reader threads hammer it while this thread keeps ingesting.
    //    `search` takes &self (lock-free snapshot of the current epoch);
    //    the writer publishes each mutation atomically, and repeat queries
    //    within an epoch come from the query cache.
    let serving = ServingEngine::new(engine);
    let sketch: Vec<f64> = (0..120).map(|i| (i as f64 / 9.0).sin() * 4.0).collect();
    println!("\nconcurrent serving: 3 readers querying during live ingest ...");
    std::thread::scope(|scope| {
        for reader in 0..3 {
            let (serving, sketch) = (&serving, &sketch);
            scope.spawn(move || {
                let opts = SearchOptions::top_k(3);
                let (mut served, mut cached, mut first, mut last) = (0u32, 0u32, u64::MAX, 0u64);
                for _ in 0..40 {
                    let resp = serving
                        .search(&Query::from_series(vec![sketch.clone()]), &opts)
                        .expect("concurrent search");
                    first = first.min(resp.epoch);
                    last = last.max(resp.epoch);
                    served += 1;
                    cached += u32::from(resp.cached);
                    // Pace the loop so the reads visibly span several
                    // published epochs (a real client thinks between
                    // queries; the cache would otherwise absorb the loop
                    // within one epoch).
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                println!(
                    "  reader {reader}: {served} responses ({cached} cached), \
                     epochs {first}..={last}"
                );
            });
        }
        // The writer: grow the corpus live, one publish per batch.
        for round in 0..5u64 {
            let vals: Vec<f64> = (0..120)
                .map(|i| ((i as f64 + round as f64 * 11.0) / 6.5).sin() * 3.0)
                .collect();
            serving.insert_tables(vec![linechart_discovery::table::Table::new(
                91_000 + round,
                format!("live-{round}"),
                vec![linechart_discovery::table::Column::new("c", vals)],
            )]);
        }
    });
    let stats = serving.cache_stats();
    println!(
        "writer done: {} tables at epoch {} | cache: {} hits, {} misses",
        serving.len(),
        serving.epoch(),
        stats.hits,
        stats.misses
    );

    // 10. Durability: run the same corpus under a DurableEngine. Every
    //     mutation is WAL-logged (with its already-encoded delta) before
    //     its epoch is published; checkpoints rewrite only dirty shards.
    let store_dir =
        std::env::temp_dir().join(format!("lcdd_search_engine_store_{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let durable = DurableEngine::create(
        &store_dir,
        serving.into_engine(),
        StoreOptions::default(), // fsync every append, auto-checkpoint
    )?;
    let mk = |id: u64, phase: f64| {
        let vals: Vec<f64> = (0..120)
            .map(|i| ((i as f64 + phase) / 5.5).sin() * 2.0)
            .collect();
        linechart_discovery::table::Table::new(
            id,
            format!("durable-{id}"),
            vec![linechart_discovery::table::Column::new("c", vals)],
        )
    };
    durable.insert_tables(vec![mk(95_000, 3.0), mk(95_001, 17.0)])?;
    durable.remove_tables(&[95_000])?;
    let ckpt = durable.checkpoint()?;
    // Probe for the shape just ingested durably (table 95_001).
    let sketch_query = Query::from_series(vec![(0..120)
        .map(|i| ((i as f64 + 17.0) / 5.5).sin() * 2.0)
        .collect()]);
    // NoIndex: rank the full corpus so the walkthrough shows real hits.
    let probe_opts = SearchOptions::top_k(5).with_strategy(IndexStrategy::NoIndex);
    let before_kill = durable.search(&sketch_query, &probe_opts)?;
    let (epoch_before, len_before) = (durable.epoch(), durable.len());
    println!(
        "\ndurable store at {}: epoch {epoch_before}, {len_before} tables \
         (checkpoint rewrote {}/{} shards)",
        store_dir.display(),
        ckpt.shards_written,
        ckpt.shards_total,
    );

    // Kill -9 simulation: one more insert lands in the WAL, then the
    // "process" dies mid-append — we tear 5 bytes off the final record the
    // way a crash would. Everything acknowledged before the torn append
    // survives; the torn record is truncated away on recovery.
    durable.insert_tables(vec![mk(95_002, 29.0)])?;
    drop(durable);
    let (_, manifest) = linechart_discovery::store::latest_manifest(&store_dir)?
        .expect("the store directory holds a manifest");
    let wal_path = store_dir.join(&manifest.wal_file);
    let wal_len = std::fs::metadata(&wal_path)?.len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)?
        .set_len(wal_len - 5)?;

    let encodes_before = linechart_discovery::fcm::table_encode_count();
    let (recovered, report) = DurableEngine::open(&store_dir, StoreOptions::default())?;
    println!(
        "recovered: checkpoint epoch {} + {} replayed ops -> epoch {} \
         ({} torn, {} tables re-encoded)",
        report.checkpoint_epoch,
        report.replayed_ops,
        report.recovered_epoch,
        if report.truncated_tail.is_some() {
            "tail"
        } else {
            "nothing"
        },
        linechart_discovery::fcm::table_encode_count() - encodes_before,
    );
    assert_eq!(recovered.epoch(), epoch_before);
    assert_eq!(recovered.len(), len_before);
    let after_kill = recovered.search(&sketch_query, &probe_opts)?;
    assert_eq!(after_kill.ranked_indices(), before_kill.ranked_indices());
    println!(
        "post-recovery top-5 identical to pre-kill: {:?}",
        after_kill.ranked_indices()
    );

    // 11. Replication: wrap the recovered store in a Leader and ship its
    //     WAL to a follower replica. Insert records carry the encoded
    //     delta, so the replica never runs the FCM encoder. Then the
    //     failover drill: kill the leader, elect the newest recoverable
    //     replica, promote it, and keep ingesting.
    let repl_root =
        std::env::temp_dir().join(format!("lcdd_search_engine_repl_{}", std::process::id()));
    std::fs::remove_dir_all(&repl_root).ok();
    let leader = Leader::new(std::sync::Arc::new(recovered), RetryPolicy::immediate());
    // Bootstrap the replica from the leader's engine snapshot (the bytes a
    // resync ships), pinned to the epoch it was exported at, then attach
    // its cursor so subsequent syncs stream WAL records.
    let mut snapshot = Vec::new();
    let at = leader.store().export_snapshot(&mut snapshot)?;
    let mut replica_engine = Engine::load_from(&snapshot[..])?;
    linechart_discovery::engine::persist::force_epoch(&mut replica_engine, at.epoch);
    let follower = Follower::create(
        repl_root.join("replica"),
        replica_engine,
        StoreOptions::default(),
    )?;
    leader.attach("replica", follower.epoch());
    let transport = ChannelTransport::default();
    leader.store().insert_tables(vec![mk(95_100, 41.0)])?;
    leader.store().insert_tables(vec![mk(95_101, 43.0)])?;
    let encodes_before = linechart_discovery::fcm::table_encode_count();
    let ship = sync_to_convergence(&leader, "replica", &transport, &follower, 64)?;
    assert_eq!(
        linechart_discovery::fcm::table_encode_count(),
        encodes_before,
        "the follower replays shipped encodings, it never re-encodes"
    );
    // Read-your-writes on the replica: the token is the epoch the leader
    // acknowledged; the replica refuses to answer from anything older.
    let ack = leader.store().epoch();
    let replica_view = follower.search(
        &sketch_query,
        &probe_opts,
        ReadConsistency::AtLeastEpoch(ack),
    )?;
    let leader_view = leader.store().search(&sketch_query, &probe_opts)?;
    assert_eq!(replica_view.ranked_indices(), leader_view.ranked_indices());
    println!(
        "\nreplication: {} WAL records shipped in {} rounds; replica at epoch {} \
         answers identically (0 re-encodes)",
        ship.records_applied,
        ship.rounds,
        follower.epoch()
    );

    // Kill the leader. The replica's store directory is a complete,
    // recoverable store: probe ranks it by recoverable epoch (manifest +
    // WAL-tail scan, without opening it) and promotion is just recovery.
    drop(leader);
    let replica_dir = follower.store_dir();
    drop(follower);
    let ranking = elect(&[replica_dir])?;
    let (promoted, _) = promote(&ranking[0], StoreOptions::default())?;
    assert_eq!(promoted.epoch(), ack, "nothing acknowledged was lost");
    let new_leader = Leader::new(std::sync::Arc::new(promoted), RetryPolicy::immediate());
    new_leader.store().insert_tables(vec![mk(95_102, 47.0)])?;
    println!(
        "failover: promoted the replica at epoch {ack} ({} candidate); \
         the new leader is live and ingesting at epoch {}",
        ranking.len(),
        new_leader.store().epoch()
    );

    // 12. Serve it over the network: the lcdd-server gateway wraps the
    //     promoted leader's durable store behind a plain HTTP/1.1 API.
    //     Concurrent searches are coalesced into single batch calls (one
    //     pinned epoch per batch, duplicate in-flight queries computed
    //     once), writes answer with an epoch token, and replaying that
    //     token as `x-lcdd-min-epoch` gives read-your-writes.
    use linechart_discovery::server::{Backend, Server, ServerConfig};
    let gateway = Server::start(
        Backend::Durable(std::sync::Arc::clone(new_leader.store())),
        ServerConfig::default(),
    )?;
    println!("\ngateway listening on {}", gateway.addr());
    let mut client = lcdd_testkit::load::HttpClient::connect(gateway.addr())?;
    // Write over the wire; the response carries the read-your-writes token.
    let wire_vals: Vec<f64> = (0..120)
        .map(|i| ((i as f64 + 53.0) / 5.5).sin() * 2.0)
        .collect();
    let ins = client.request(
        "POST",
        "/insert",
        &[],
        &lcdd_testkit::load::insert_body(95_103, &wire_vals),
    )?;
    let token = ins.header("x-lcdd-epoch").expect("epoch token").to_string();
    println!("  POST /insert -> {} (epoch token {token})", ins.status);
    // Search pinned at-or-after the write: the new table must be visible.
    let resp = client.request(
        "POST",
        "/search",
        &[("x-lcdd-min-epoch", &token)],
        &lcdd_testkit::load::search_body_with(&[wire_vals], 5, Some("none")),
    )?;
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"table_id\":95103"));
    println!(
        "  POST /search (x-lcdd-min-epoch: {token}) -> {} at epoch {} \
         (batch {})",
        resp.status,
        resp.json_u64("epoch").unwrap_or(0),
        resp.header("x-lcdd-batch-id").unwrap_or("?"),
    );
    let health = client.request("GET", "/healthz", &[], "")?;
    let metrics = client.request("GET", "/metrics", &[], "")?;
    println!(
        "  GET /healthz -> {}; GET /metrics -> {} ({} searches served)",
        health.status,
        metrics.status,
        metrics.json_u64("search").unwrap_or(0)
    );
    drop(client);
    // Graceful drain: every admitted request is answered before the
    // listener goes away.
    let report = gateway.shutdown();
    assert_eq!(report.jobs_enqueued, report.jobs_answered);
    println!(
        "gateway drained cleanly: {}/{} admitted searches answered",
        report.jobs_answered, report.jobs_enqueued
    );

    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&repl_root).ok();
    Ok(())
}
