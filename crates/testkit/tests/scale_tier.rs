//! The tiered-corpus contract: a store opened cold (`LCDDSEG2` segments
//! memory-mapped, payloads paged in on demand) serves **bit-identical**
//! search results to the same store decoded eagerly — same hits, same
//! score bits, same per-stage provenance — for every index strategy,
//! every shard layout, and with the quantized-scan + re-rank pipeline on
//! or off.
//!
//! Also pinned here: cold opens are actually lazy (no slot decoded until
//! a query touches it), and the tier survives live WAL mutations plus a
//! crash/reopen cycle (WAL replay onto a cold-opened engine).

use lcdd_engine::{Engine, EngineBuilder, IndexStrategy, SearchOptions, SearchResponse};
use lcdd_fcm::{FcmConfig, FcmModel};
use lcdd_store::{create_bulk, DurableEngine, StoreOptions};
use lcdd_table::{Column, Table};
use lcdd_testkit::assert_same_hits_bitwise;
use lcdd_testkit::crash::TempDir;
use lcdd_testkit::scale::{self, ScaleSpec};
use proptest::prelude::*;
use std::path::Path;

/// Template engine: supplies model weights + index configuration to
/// `create_bulk`; its (empty) corpus is ignored.
fn template() -> Engine {
    EngineBuilder::new(FcmModel::new(FcmConfig::tiny()))
        .build()
        .expect("tiny template engine must build")
}

/// Store options for suites: no fsync (speed), no auto-checkpoint (the
/// tier must survive on WAL + original segments alone), cold per `cold`.
fn opts(cold: bool) -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 0,
        checkpoint_every_bytes: 0,
        cold_open: cold,
        ..Default::default()
    }
}

fn fabricate(dir: &Path, spec: &ScaleSpec, n_shards: usize) {
    create_bulk(
        dir,
        &template(),
        n_shards,
        spec.n_tables,
        scale::generator(spec),
    )
    .expect("bulk store must fabricate");
}

fn probe(
    engine: &DurableEngine,
    spec: &ScaleSpec,
    n_queries: u64,
    k: usize,
) -> Vec<(String, SearchResponse)> {
    let mut out = Vec::new();
    for strategy in IndexStrategy::ALL {
        for rerank in [None, Some(8)] {
            let mut o = SearchOptions::top_k(k).with_strategy(strategy);
            if let Some(r) = rerank {
                o = o.with_rerank(r);
            }
            for q in 0..n_queries {
                let resp = engine
                    .search(&scale::query(spec, q), &o)
                    .expect("search must succeed");
                out.push((format!("{strategy:?} rerank={rerank:?} q{q}"), resp));
            }
        }
    }
    out
}

#[test]
fn cold_open_is_lazy_until_queried() {
    let spec = ScaleSpec::tiny(0xC01D, 60);
    let tmp = TempDir::new("tier-lazy");
    fabricate(tmp.path(), &spec, 3);

    let (engine, _) = DurableEngine::open(tmp.path(), opts(true)).expect("cold open");
    let stats = engine.snapshot().tier_stats();
    assert_eq!(
        stats.mapped_tables, 60,
        "every table must live in the cold tier"
    );
    assert_eq!(
        stats.resident_tables, 0,
        "cold open must not admit tables to the hot tier"
    );
    assert_eq!(
        stats.slots_paged_in, 0,
        "opening a mapped corpus must not decode any cold slot"
    );
    assert_eq!(stats.bytes_paged_in, 0);
    assert!(
        stats.mapped_bytes > 0,
        "blob bytes must be accounted to the mapped tier"
    );

    // One exhaustive query pages every candidate's payload in.
    let o = SearchOptions::top_k(5).with_strategy(IndexStrategy::NoIndex);
    engine.search(&scale::query(&spec, 0), &o).expect("search");
    let after = engine.snapshot().tier_stats();
    assert_eq!(
        after.slots_paged_in, 60,
        "NoIndex scores (and so pages in) every slot"
    );
    assert!(after.bytes_paged_in > 0);
    // Residency accounting is unchanged: materialization is transient.
    assert_eq!(after.mapped_tables, 60);
    assert_eq!(after.resident_tables, 0);

    // A quantized scan with re-rank touches only the survivors.
    let o = SearchOptions::top_k(5)
        .with_strategy(IndexStrategy::NoIndex)
        .with_rerank(8);
    let resp = engine.search(&scale::query(&spec, 1), &o).expect("search");
    assert_eq!(resp.counts.quant_scanned, Some(60));
    assert_eq!(resp.counts.reranked, Some(8));
    let reranked = engine.snapshot().tier_stats();
    assert_eq!(
        reranked.slots_paged_in - after.slots_paged_in,
        8,
        "re-rank must page in exactly the surviving candidates"
    );
}

#[test]
fn a_cold_rerank_pages_in_exactly_the_encodings_it_scores() {
    let spec = ScaleSpec::tiny(0x9A6E, 40);
    let tmp = TempDir::new("tier-pagein");
    fabricate(tmp.path(), &spec, 2);
    let (engine, _) = DurableEngine::open(tmp.path(), opts(true)).expect("cold open");

    // k = R: every re-ranked slot comes back as a hit.
    let o = SearchOptions::top_k(6)
        .with_strategy(IndexStrategy::NoIndex)
        .with_rerank(6);
    let resp = engine.search(&scale::query(&spec, 2), &o).expect("search");
    assert_eq!(resp.counts.reranked, Some(6));
    assert_eq!(resp.hits.len(), 6);
    let encoding_bytes: u64 = resp
        .hits
        .iter()
        .flat_map(|h| scale::slot(&spec, h.table_id).encodings)
        .map(|m| 4 * (m.rows() * m.cols()) as u64)
        .sum();
    let stats = engine.snapshot().tier_stats();
    assert_eq!(stats.slots_paged_in, 6, "each re-ranked slot pages in once");
    assert_eq!(
        stats.bytes_paged_in, encoding_bytes,
        "page-in bytes are the re-ranked slots' encodings, nothing else"
    );
}

#[test]
fn cold_equals_eager_bitwise_across_layouts() {
    for n_shards in [1usize, 2, 5] {
        let spec = ScaleSpec::tiny(0xBEEF ^ n_shards as u64, 48);
        let tmp = TempDir::new("tier-eq");
        fabricate(tmp.path(), &spec, n_shards);

        let eager = {
            let (engine, _) = DurableEngine::open(tmp.path(), opts(false)).expect("eager open");
            probe(&engine, &spec, 3, 10)
        };
        let (engine, _) = DurableEngine::open(tmp.path(), opts(true)).expect("cold open");
        let cold = probe(&engine, &spec, 3, 10);

        assert_eq!(eager.len(), cold.len());
        for ((ctx, a), (_, b)) in eager.iter().zip(&cold) {
            assert_same_hits_bitwise(&format!("{n_shards} shards, {ctx}"), a, b);
        }
    }
}

/// Raw tables for live-mutation checks; ids start at 10_000 so they never
/// collide with fabricated slot ids.
fn fresh_tables(n: usize) -> Vec<Table> {
    (0..n)
        .map(|i| {
            let vals: Vec<f64> = (0..70)
                .map(|j| ((j + 13 * i) as f64 / 5.0).sin() * (1.0 + i as f64 * 0.3))
                .collect();
            Table::new(
                10_000 + i as u64,
                format!("fresh-{i}"),
                vec![Column::new("c", vals)],
            )
        })
        .collect()
}

#[test]
fn cold_tier_survives_mutations_and_reopen() {
    let spec = ScaleSpec::tiny(0xFADE, 30);
    let tmp = TempDir::new("tier-mut");
    let (cold_dir, eager_dir) = (tmp.subdir("cold"), tmp.subdir("eager"));
    fabricate(&cold_dir, &spec, 2);
    fabricate(&eager_dir, &spec, 2);

    let mutate = |engine: &DurableEngine| {
        engine.insert_tables(fresh_tables(4)).expect("insert");
        engine.remove_tables(&[3, 17]).expect("remove");
    };
    {
        let (cold, _) = DurableEngine::open(&cold_dir, opts(true)).expect("cold open");
        let (eager, _) = DurableEngine::open(&eager_dir, opts(false)).expect("eager open");
        mutate(&cold);
        mutate(&eager);
        for ((ctx, a), (_, b)) in probe(&eager, &spec, 2, 8)
            .iter()
            .zip(&probe(&cold, &spec, 2, 8))
        {
            assert_same_hits_bitwise(&format!("post-mutation, {ctx}"), a, b);
        }
        let stats = cold.snapshot().tier_stats();
        assert_eq!(
            stats.mapped_tables, 30,
            "cold slots stay mapped through mutations"
        );
        assert_eq!(stats.resident_tables, 4, "WAL inserts land in the hot tier");
    }

    // Reopen: WAL replay onto a cold-opened engine must reproduce the
    // eager replay bit-for-bit, and must not decode the checkpoint.
    let (cold, _) = DurableEngine::open(&cold_dir, opts(true)).expect("cold reopen");
    let (eager, _) = DurableEngine::open(&eager_dir, opts(false)).expect("eager reopen");
    let stats = cold.snapshot().tier_stats();
    assert_eq!(
        stats.slots_paged_in, 0,
        "WAL replay must not page in cold slots"
    );
    assert_eq!(stats.mapped_tables, 30);
    assert_eq!(stats.resident_tables, 4);
    for ((ctx, a), (_, b)) in probe(&eager, &spec, 2, 8)
        .iter()
        .zip(&probe(&cold, &spec, 2, 8))
    {
        assert_same_hits_bitwise(&format!("post-reopen, {ctx}"), a, b);
    }
}

/// Property cases are store fabrications + two recoveries each —
/// expensive in debug, fine in release.
const CASES: u32 = if cfg!(debug_assertions) { 3 } else { 10 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn cold_equals_eager_property(
        seed in 0u64..1_000_000,
        n_tables in 8u64..40,
        n_shards in 1usize..5,
        k in 1usize..8,
        rerank_raw in 0usize..12,
    ) {
        // Below 2 means "no re-rank" (the vendored proptest stub has no
        // option strategy); 2..12 is the re-rank depth.
        let rerank = (rerank_raw >= 2).then_some(rerank_raw);
        let spec = ScaleSpec::tiny(seed, n_tables);
        let tmp = TempDir::new("tier-prop");
        fabricate(tmp.path(), &spec, n_shards);
        let mut o = SearchOptions::top_k(k);
        if let Some(r) = rerank {
            o = o.with_rerank(r);
        }
        let eager: Vec<SearchResponse> = {
            let (engine, _) = DurableEngine::open(tmp.path(), opts(false)).unwrap();
            IndexStrategy::ALL.iter().map(|&s| {
                engine.search(&scale::query(&spec, 0), &o.clone().with_strategy(s)).unwrap()
            }).collect()
        };
        let (engine, _) = DurableEngine::open(tmp.path(), opts(true)).unwrap();
        for (s, a) in IndexStrategy::ALL.iter().zip(&eager) {
            let b = engine.search(&scale::query(&spec, 0), &o.clone().with_strategy(*s)).unwrap();
            assert_same_hits_bitwise(
                &format!("seed {seed}, {n_tables} tables, {n_shards} shards, {s:?}, k {k}, rerank {rerank:?}"),
                a,
                &b,
            );
        }
    }
}
