//! Regression pinning the tombstone/compaction recovery semantics: an
//! engine saved (or checkpointed, or WAL-recovered) after `remove_tables`
//! but **before** `compact()` must serve identical results on every
//! recovery path, even though the paths disagree about physical layout —
//! WAL replay reconstructs the tombstoned engine, while snapshots and
//! checkpoint segments are live-only (tombstones compacted away on
//! write).
//!
//! Identical means: hit-for-hit, bit-identical scores, identical
//! per-stage provenance counts — and *staying* identical as further
//! mutations (including the deferred `compact`) land on each recovered
//! engine.

use lcdd_engine::{Engine, IndexStrategy, Query, SearchOptions, SearchResponse};
use lcdd_store::{DurableEngine, StoreOptions};
use lcdd_testkit::assert_same_hits_bitwise;
use lcdd_testkit::crash::{copy_dir, TempDir};
use lcdd_testkit::{corpus, query_like, tiny_engine, CorpusSpec};

const SEED: u64 = 0x0070_b570;
const N_BASE: usize = 8;
const N_SHARDS: usize = 2;

fn opts() -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 0,
        checkpoint_every_bytes: 0,
        ..StoreOptions::default()
    }
}

fn extras(n: usize) -> Vec<lcdd_table::Table> {
    let mut tables = corpus(&CorpusSpec::sized(SEED ^ 0xe11a, n));
    for (i, t) in tables.iter_mut().enumerate() {
        t.id = 500 + i as u64;
        t.name = format!("extra-{i}");
    }
    tables
}

fn battery(base: &[lcdd_table::Table], removed: &[u64]) -> Vec<Query> {
    let mut qs: Vec<Query> = base.iter().take(3).map(query_like).collect();
    // Queries shaped like removed tables are the sharp edge: a stale
    // index entry would surface them.
    for &id in removed {
        if let Some(t) = base.iter().find(|t| t.id == id) {
            qs.push(query_like(t));
        }
    }
    qs
}

fn respond(
    search: impl Fn(&Query, &SearchOptions) -> Result<SearchResponse, lcdd_fcm::EngineError>,
    queries: &[Query],
    k: usize,
) -> Vec<SearchResponse> {
    let mut out = Vec::new();
    for q in queries {
        for strategy in [
            IndexStrategy::Hybrid,
            IndexStrategy::IntervalOnly,
            IndexStrategy::LshOnly,
            IndexStrategy::NoIndex,
        ] {
            out.push(
                search(q, &SearchOptions::top_k(k).with_strategy(strategy))
                    .expect("regression battery queries are well-formed"),
            );
        }
    }
    out
}

fn assert_all_same(context: &str, a: &[SearchResponse], b: &[SearchResponse]) {
    assert_eq!(a.len(), b.len(), "{context}: response counts differ");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_same_hits_bitwise(&format!("{context}: response {i}"), ra, rb);
    }
}

#[test]
fn save_after_remove_before_compact_recovers_identically_on_every_path() {
    let tmp = TempDir::new("tombstone-regression");
    let live_dir = tmp.subdir("live");
    let base = corpus(&CorpusSpec::sized(SEED, N_BASE));
    let durable = DurableEngine::create(&live_dir, tiny_engine(base.clone(), N_SHARDS), opts())
        .expect("store creation");
    // Disable auto-compaction so the tombstones are guaranteed to be
    // pending when the saves happen.
    durable.set_compaction_threshold(1.0);

    durable.insert_tables(extras(3)).expect("insert extras");
    let removed = [base[1].id, 501u64];
    assert_eq!(durable.remove_tables(&removed).expect("remove"), 2);
    assert!(
        durable.snapshot().shards().iter().any(|sh| sh.n_dead() > 0),
        "the scenario requires pending tombstones"
    );

    // Serial oracle: same ops on a plain engine (keeps its tombstones).
    let mut oracle = tiny_engine(base.clone(), N_SHARDS);
    oracle.set_compaction_threshold(1.0);
    oracle.insert_tables(extras(3));
    oracle.remove_tables(&removed);

    let queries = battery(&base, &removed);
    let k = durable.len();
    let want = respond(|q, o| oracle.search(q, o), &queries, k);

    // Path A: crash here -> recovery goes through WAL replay (the
    // recovered engine carries the tombstones).
    let crash_dir = tmp.subdir("crash");
    copy_dir(&live_dir, &crash_dir);
    let (via_wal, report) = DurableEngine::open(&crash_dir, opts()).expect("WAL recovery");
    assert_eq!(report.replayed_ops, 2);
    assert_eq!(via_wal.epoch(), oracle.epoch(), "WAL recovery keeps epochs");

    // Path B: plain snapshot save/load (live-only bytes, tombstones
    // compacted away).
    let snap_path = tmp.subdir("snapshot.lcdd");
    durable.save(&snap_path).expect("snapshot save");
    let mut via_snapshot = Engine::load(&snap_path).expect("snapshot load");
    assert!(
        via_snapshot.shards().iter().all(|sh| sh.n_dead() == 0),
        "snapshots are live-only by design"
    );

    // Path C: checkpoint then recover from segments (live-only, empty WAL).
    durable.checkpoint().expect("checkpoint");
    let ckpt_dir = tmp.subdir("ckpt-crash");
    copy_dir(&live_dir, &ckpt_dir);
    let (via_ckpt, report) = DurableEngine::open(&ckpt_dir, opts()).expect("checkpoint recovery");
    assert_eq!(report.replayed_ops, 0);
    assert_eq!(via_ckpt.epoch(), oracle.epoch());

    assert_all_same(
        "WAL replay vs live",
        &respond(|q, o| via_wal.search(q, o), &queries, k),
        &want,
    );
    assert_all_same(
        "snapshot load vs live",
        &respond(|q, o| via_snapshot.search(q, o), &queries, k),
        &want,
    );
    assert_all_same(
        "checkpoint recovery vs live",
        &respond(|q, o| via_ckpt.search(q, o), &queries, k),
        &want,
    );

    // The deferred compact — and further churn — must keep all recovered
    // engines in lockstep even though their physical layouts differ
    // (tombstoned vs already-compacted).
    let more = {
        let mut t = extras(2);
        for (i, x) in t.iter_mut().enumerate() {
            x.id = 900 + i as u64;
            x.name = format!("late-{i}");
        }
        t
    };
    let churn = |d: &DurableEngine| {
        d.compact().expect("compact");
        d.insert_tables(more.clone()).expect("late insert");
        d.remove_tables(&[more[0].id]).expect("late remove");
    };
    let churn_plain = |e: &mut Engine| {
        e.compact();
        e.insert_tables(more.clone());
        e.remove_tables(&[more[0].id]);
    };
    churn(&via_wal);
    churn(&via_ckpt);
    churn_plain(&mut via_snapshot);
    churn_plain(&mut oracle);

    let k = oracle.len();
    let want = respond(|q, o| oracle.search(q, o), &queries, k);
    assert_all_same(
        "WAL replay after churn",
        &respond(|q, o| via_wal.search(q, o), &queries, k),
        &want,
    );
    assert_all_same(
        "checkpoint recovery after churn",
        &respond(|q, o| via_ckpt.search(q, o), &queries, k),
        &want,
    );
    assert_all_same(
        "snapshot load after churn",
        &respond(|q, o| via_snapshot.search(q, o), &queries, k),
        &want,
    );
}
