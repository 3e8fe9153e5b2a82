//! Thread-count invariance: the `assert_same_hits` suites with a thread
//! axis. Search results — hits, order, provenance counts, and score *bits*
//! — must be identical whether the pool runs 1, 2, 4 or 8 workers.
//!
//! Why this holds by construction: per-candidate scoring
//! (`QueryScorer::score_table`) is a pure function of
//! `(query encodings, candidate encodings, center)`; `pool::par_map`
//! assigns disjoint index ranges and writes results back by position; and
//! the parallel matmul band splits inside the kernels are proven
//! bit-identical to the serial sweep in `lcdd-tensor`'s own tests. A data
//! race, a worker-dependent accumulation order, or a non-aligned band
//! split would all surface here as a score-bit diff.
//!
//! `pool::force_threads` mutates process-global state, so every test takes
//! `THREAD_LOCK` and the sweep runs inside one test body rather than
//! across tests. The one property `force_threads` cannot reach — that a
//! *fresh* process resolves `LCDD_THREADS` to the intended width — is
//! checked by re-executing this test binary once per value.

use std::process::Command;
use std::sync::Mutex;

use lcdd_engine::{IndexStrategy, Query, SearchOptions, SearchResponse};
use lcdd_tensor::pool;
use lcdd_testkit::{
    assert_same_hits_bitwise, corpus, query_like, tiny_corpus, tiny_engine, tiny_query, CorpusSpec,
};

static THREAD_LOCK: Mutex<()> = Mutex::new(());

/// The swept worker counts: serial baseline, a mid split, and two
/// oversubscribed counts (the CI runner may have a single core — the
/// invariance must hold regardless of how many workers actually run).
const SWEEP: [usize; 4] = [1, 2, 4, 8];

#[test]
fn search_hits_bit_identical_across_thread_counts() {
    let _g = THREAD_LOCK.lock().unwrap();
    let tables = corpus(&CorpusSpec::sized(42, 8));
    let engine = tiny_engine(tables.clone(), 3);
    let queries = [query_like(&tables[0]), query_like(&tables[5])];
    let opts: Vec<SearchOptions> = IndexStrategy::ALL
        .iter()
        .map(|&s| SearchOptions::top_k(5).with_strategy(s))
        .collect();

    pool::force_threads(SWEEP[0]);
    let baseline: Vec<Vec<_>> = queries
        .iter()
        .map(|q| opts.iter().map(|o| engine.search(q, o).unwrap()).collect())
        .collect();

    for &threads in &SWEEP[1..] {
        pool::force_threads(threads);
        for (qi, q) in queries.iter().enumerate() {
            for (oi, o) in opts.iter().enumerate() {
                let r = engine.search(q, o).unwrap();
                assert_same_hits_bitwise(
                    &format!(
                        "threads {threads}, query {qi}, strategy {:?}",
                        IndexStrategy::ALL[oi]
                    ),
                    &baseline[qi][oi],
                    &r,
                );
            }
        }
    }
}

#[test]
fn search_batch_bit_identical_across_thread_counts() {
    let _g = THREAD_LOCK.lock().unwrap();
    let engine = tiny_engine(tiny_corpus(7), 2);
    let queries: Vec<Query> = (0..4).map(tiny_query).collect();
    let opts = SearchOptions::top_k(4);

    pool::force_threads(SWEEP[0]);
    let baseline = engine.search_batch(&queries, &opts);

    for &threads in &SWEEP[1..] {
        pool::force_threads(threads);
        let swept = engine.search_batch(&queries, &opts);
        assert_eq!(baseline.len(), swept.len());
        for (qi, (a, b)) in baseline.iter().zip(&swept).enumerate() {
            assert_same_hits_bitwise(
                &format!("threads {threads}, batch query {qi}"),
                a.as_ref().unwrap(),
                b.as_ref().unwrap(),
            );
        }
    }
}

#[test]
fn sharding_and_threading_compose_bitwise() {
    // The two layout axes at once: every (shard count, thread count) cell
    // must agree with the single-shard single-thread corner bit-for-bit.
    let _g = THREAD_LOCK.lock().unwrap();
    let tables = corpus(&CorpusSpec::sized(7, 6));
    let q = query_like(&tables[2]);
    let opts = SearchOptions::top_k(6).with_strategy(IndexStrategy::NoIndex);

    pool::force_threads(1);
    let mono = tiny_engine(tables.clone(), 1);
    let baseline = mono.search(&q, &opts).unwrap();

    for n_shards in [1usize, 3, 5] {
        let engine = tiny_engine(tables.clone(), n_shards);
        for &threads in &SWEEP {
            pool::force_threads(threads);
            let r = engine.search(&q, &opts).unwrap();
            assert_same_hits_bitwise(
                &format!("{n_shards} shards, {threads} threads"),
                &baseline,
                &r,
            );
        }
    }
    pool::force_threads(1);
}

/// Marks a re-executed child of the fresh-process test below.
const CHILD_ENV: &str = "LCDD_THREADS_TEST_CHILD";
const FRESH_TEST: &str = "fresh_processes_honour_lcdd_threads_and_agree_bitwise";

fn hit_bits(r: &SearchResponse) -> Vec<(u64, u32)> {
    r.hits
        .iter()
        .map(|h| (h.table_id, h.score.to_bits()))
        .collect()
}

/// The child's half: resolve the pool width from the inherited
/// `LCDD_THREADS` before any parallel work, then print it and the hit
/// bits of every strategy plus one `search_batch`.
fn fresh_process_child() {
    let threads = pool::resolve_threads();
    let tables = corpus(&CorpusSpec::sized(42, 8));
    let engine = tiny_engine(tables.clone(), 3);
    let queries = [query_like(&tables[0]), query_like(&tables[5])];
    let mut hits = Vec::new();
    for q in &queries {
        for s in IndexStrategy::ALL {
            let opts = SearchOptions::top_k(5).with_strategy(s);
            hits.push(hit_bits(&engine.search(q, &opts).unwrap()));
        }
    }
    for r in engine.search_batch(&queries, &SearchOptions::top_k(5)) {
        hits.push(hit_bits(&r.unwrap()));
    }
    println!("{CHILD_ENV} threads={threads}");
    println!("{CHILD_ENV} hits={hits:?}");
}

#[test]
fn fresh_processes_honour_lcdd_threads_and_agree_bitwise() {
    // The pool freezes its width at first touch, so `force_threads` can
    // sweep scoring but never exercises the `LCDD_THREADS` parse itself:
    // each value gets its own process.
    if std::env::var_os(CHILD_ENV).is_some() {
        fresh_process_child();
        return;
    }
    let detected = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(pool::MAX_THREADS);
    let cases = [
        ("1", 1),
        ("4", 4),
        ("99", pool::MAX_THREADS),
        ("0", detected),
        ("x", detected),
    ];
    let exe = std::env::current_exe().unwrap();
    let mut first_hits: Option<String> = None;
    for (value, expected) in cases {
        let out = Command::new(&exe)
            .args(["--exact", FRESH_TEST, "--nocapture"])
            .env("LCDD_THREADS", value)
            .env(CHILD_ENV, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "child with LCDD_THREADS={value} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let field = |key: &str| -> String {
            let tag = format!("{CHILD_ENV} {key}=");
            stdout
                .lines()
                .find_map(|l| l.find(&tag).map(|i| l[i + tag.len()..].to_string()))
                .unwrap_or_else(|| panic!("child with LCDD_THREADS={value} printed no {key}"))
        };
        assert_eq!(
            field("threads").parse::<usize>().unwrap(),
            expected,
            "LCDD_THREADS={value} resolved to the wrong pool width"
        );
        let hits = field("hits");
        match &first_hits {
            None => {
                assert!(hits.contains('('), "children scored no hits: {hits}");
                first_hits = Some(hits);
            }
            Some(first) => assert_eq!(
                &hits, first,
                "hits at LCDD_THREADS={value} differ from LCDD_THREADS=1"
            ),
        }
    }
}
