//! Concurrent-serving benchmark emitter: measures read throughput under a
//! live writer and writes `BENCH_serving.json`.
//!
//! Three scenarios, same corpus, same reader threads, same query mix:
//!
//! * **idle** — N reader threads over a [`ServingEngine`] with no writer
//!   (the ceiling),
//! * **ingest** — the same readers while one writer continuously inserts
//!   and evicts tables (the lock-free claim: reads must stay within ~2x
//!   of idle, because publishes never block readers),
//! * **stop-the-world baseline** — the same workload over a plain
//!   `RwLock<Engine>` where the writer's exclusive lock stalls every
//!   reader for the whole mutation (what PR 3's `&mut` API forced a
//!   deployment into).
//!
//! Plus a cached-read measurement (repeat-query throughput through the
//! epoch-tagged LRU), and a **thread sweep**: single-query p50/p95/p99 and
//! batch-scoring throughput at 1/4/N pool workers, each point in a child
//! process (the pool freezes its count at first touch, so in-process
//! sweeps would silently measure one configuration three times). Children
//! report a hits digest the parent asserts identical across counts.
//!
//! Usage: `cargo run --release -p lcdd-bench --bin bench_serving [-- out.json]`
//! (defaults to `BENCH_serving.json` in the current directory).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use lcdd_bench::threadsweep::{self, HitsDigest};
use lcdd_engine::{Engine, Query, SearchOptions, ServingEngine};
use lcdd_obs::registry::Histogram;
use lcdd_table::Table;
use lcdd_tensor::pool;
use lcdd_testkit::{corpus, queries_for, tiny_engine, CorpusSpec};

const N_TABLES: usize = 64;
const N_READERS: usize = 4;
const MEASURE: Duration = Duration::from_millis(1200);
/// Per-phase measurement window inside a sweep child (two phases per
/// child: single-query latency and batch throughput).
const CHILD_MEASURE: Duration = Duration::from_millis(700);

/// Churn batch the writer cycles: insert 2 fresh tables, remove them.
fn churn_tables(round: u64) -> Vec<Table> {
    let mut batch = corpus(&CorpusSpec::sized(0xc0de ^ round, 2));
    for (i, t) in batch.iter_mut().enumerate() {
        t.id = 10_000 + round * 10 + i as u64;
    }
    batch
}

/// Runs `readers` query loops for `MEASURE`, returning total queries
/// answered. `run_writer`, when set, churns inserts/removals concurrently
/// for the whole window.
fn throughput(
    queries: &[Query],
    search: impl Fn(&Query) -> u64 + Sync,
    run_writer: Option<&(dyn Fn(&AtomicBool) + Sync)>,
) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let search = &search;
    std::thread::scope(|scope| {
        for reader in 0..N_READERS {
            let (stop, total) = (&stop, &total);
            scope.spawn(move || {
                let mut n = 0u64;
                let mut i = reader;
                while !stop.load(SeqCst) {
                    std::hint::black_box(search(&queries[i % queries.len()]));
                    i += 1;
                    n += 1;
                }
                total.fetch_add(n, SeqCst);
            });
        }
        if let Some(writer) = run_writer {
            let (stop, writes) = (&stop, &writes);
            scope.spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(SeqCst) {
                    writer(stop);
                    rounds += 1;
                }
                writes.store(rounds, SeqCst);
            });
        }
        std::thread::sleep(MEASURE);
        stop.store(true, SeqCst);
    });
    let qps = total.load(SeqCst) as f64 / MEASURE.as_secs_f64();
    (qps, writes.load(SeqCst))
}

/// The shared corpus + pre-extracted query mix. Sweep children rebuild
/// exactly this (same seeds), so their hit digests are comparable.
fn bench_world() -> (Vec<Table>, Vec<Query>) {
    let tables = corpus(&CorpusSpec {
        seed: 0x5e4e,
        n_tables: N_TABLES,
        series_len: 120,
        near_dup_every: 5,
    });
    // Pre-extract the query sketches outside the measured loops so all
    // scenarios time pruning + scoring, not chart rasterisation.
    let queries: Vec<Query> = queries_for(&tables, 16)
        .into_iter()
        .map(|q| match q {
            Query::Series(data) => {
                let chart = lcdd_chart::render(&data, &lcdd_chart::ChartStyle::default());
                Query::Extracted(lcdd_vision::VisualElementExtractor::oracle().extract(&chart))
            }
            other => other,
        })
        .collect();
    (tables, queries)
}

/// One sweep point, run in a re-exec'd child: single-query latency
/// distribution and batch-scoring throughput at the inherited
/// `LCDD_THREADS`, plus the hits digest proving results did not move.
fn child_main() {
    let threads = pool::resolve_threads();
    let (tables, queries) = bench_world();
    let engine = tiny_engine(tables, 4);
    let opts = SearchOptions::top_k(10);

    // Warmup pass doubles as the digest pass.
    let mut digest = HitsDigest::default();
    for q in &queries {
        let r = engine.search(q, &opts).expect("search");
        for h in &r.hits {
            digest.fold(h.table_id, h.score);
        }
    }

    // Single-query latency: the gateway-facing tail-latency figure.
    let hist = Histogram::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed() < CHILD_MEASURE {
        let q = &queries[i % queries.len()];
        let s = Instant::now();
        std::hint::black_box(engine.search(q, &opts).expect("search"));
        hist.record_duration(s.elapsed());
        i += 1;
    }

    // Batch scoring: the request-coalescing payoff — one `search_batch`
    // fans the whole query set across the pool.
    let t0 = Instant::now();
    let mut batches = 0u64;
    while t0.elapsed() < CHILD_MEASURE {
        let out = engine.search_batch(&queries, &opts);
        assert!(out.iter().all(|r| r.is_ok()));
        batches += 1;
    }
    let batch_qps = (batches * queries.len() as u64) as f64 / t0.elapsed().as_secs_f64();

    println!("threads={threads}");
    println!("single_p50_ns={}", hist.percentile(0.50));
    println!("single_p95_ns={}", hist.percentile(0.95));
    println!("single_p99_ns={}", hist.percentile(0.99));
    println!("single_mean_ns={:.0}", hist.mean());
    println!("single_queries={}", hist.count());
    println!("batch_qps={batch_qps:.1}");
    println!("digest={}", digest.finish());
}

fn main() {
    if threadsweep::is_child() {
        child_main();
        return;
    }
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serving.json".to_string());
    eprintln!("[bench_serving] pool threads: {}", pool::resolve_threads());

    let (tables, queries) = bench_world();
    let opts = SearchOptions::top_k(10);

    // ---- lock-free serving engine ---------------------------------------
    // Cache disabled here: idle vs ingest must compare full recomputes.
    let serving = ServingEngine::with_cache_capacity(tiny_engine(tables.clone(), 4), 0);
    let (idle_qps, _) = throughput(
        &queries,
        |q| {
            serving
                .search(q, &opts)
                .map(|r| r.hits.len() as u64)
                .unwrap_or(0)
        },
        None,
    );
    eprintln!("[bench_serving] serving idle: {idle_qps:>8.1} q/s");

    let churn_round = AtomicU64::new(0);
    let writer = |_stop: &AtomicBool| {
        let round = churn_round.fetch_add(1, SeqCst);
        let batch = churn_tables(round);
        let ids: Vec<u64> = batch.iter().map(|t| t.id).collect();
        serving.insert_tables(batch);
        serving.remove_tables(&ids);
    };
    let (ingest_qps, ingest_rounds) = throughput(
        &queries,
        |q| {
            serving
                .search(q, &opts)
                .map(|r| r.hits.len() as u64)
                .unwrap_or(0)
        },
        Some(&writer),
    );
    let final_epoch = serving.epoch();
    eprintln!(
        "[bench_serving] serving under ingest: {ingest_qps:>8.1} q/s \
         ({ingest_rounds} insert+remove rounds, {final_epoch} epochs)"
    );

    // Cached reads: warm the LRU with the query mix, then measure repeats.
    let cached_serving = ServingEngine::new(serving.into_engine());
    for q in &queries {
        let _ = cached_serving.search(q, &opts);
    }
    let (cached_qps, _) = throughput(
        &queries,
        |q| {
            cached_serving
                .search(q, &opts)
                .map(|r| u64::from(r.cached))
                .unwrap_or(0)
        },
        None,
    );
    let cache_stats = cached_serving.cache_stats();
    eprintln!(
        "[bench_serving] cached reads: {cached_qps:>8.1} q/s (hits {}, misses {})",
        cache_stats.hits, cache_stats.misses
    );

    // ---- stop-the-world baseline ----------------------------------------
    let locked: RwLock<Engine> = RwLock::new(tiny_engine(tables.clone(), 4));
    let (baseline_idle_qps, _) = throughput(
        &queries,
        |q| {
            let engine = locked.read().expect("read lock");
            engine
                .search(q, &opts)
                .map(|r| r.hits.len() as u64)
                .unwrap_or(0)
        },
        None,
    );
    let baseline_round = AtomicU64::new(0);
    let baseline_writer = |_stop: &AtomicBool| {
        let round = baseline_round.fetch_add(1, SeqCst);
        let batch = churn_tables(round);
        let ids: Vec<u64> = batch.iter().map(|t| t.id).collect();
        // The &mut API forces exclusive access: every reader stalls for
        // the full encode + index update.
        let mut engine = locked.write().expect("write lock");
        engine.insert_tables(batch);
        engine.remove_tables(&ids);
    };
    let (baseline_ingest_qps, baseline_rounds) = throughput(
        &queries,
        |q| {
            let engine = locked.read().expect("read lock");
            engine
                .search(q, &opts)
                .map(|r| r.hits.len() as u64)
                .unwrap_or(0)
        },
        Some(&baseline_writer),
    );
    eprintln!(
        "[bench_serving] rwlock baseline: idle {baseline_idle_qps:>8.1} q/s, \
         under ingest {baseline_ingest_qps:>8.1} q/s ({baseline_rounds} rounds)"
    );

    let ingest_ratio = idle_qps / ingest_qps.max(1e-9);
    let baseline_ratio = baseline_idle_qps / baseline_ingest_qps.max(1e-9);
    eprintln!(
        "[bench_serving] read slowdown under ingest: lock-free {ingest_ratio:.2}x, \
         rwlock {baseline_ratio:.2}x"
    );

    // ---- thread sweep (child process per count) --------------------------
    let points = threadsweep::run_children();
    let digest = threadsweep::assert_same_digest(&points);
    for p in &points {
        eprintln!(
            "[bench_serving] threads {:>2}: single p50 {:>8.1} us  p95 {:>8.1} us  \
             p99 {:>8.1} us  batch {:>8.1} q/s",
            p.threads,
            p.f64("single_p50_ns") / 1e3,
            p.f64("single_p95_ns") / 1e3,
            p.f64("single_p99_ns") / 1e3,
            p.f64("batch_qps"),
        );
    }
    let base_qps = points[0].f64("batch_qps");
    let peak = points.last().expect("sweep points");
    let scaling = peak.f64("batch_qps") / base_qps.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "[bench_serving] batch scaling {scaling:.2}x at {} threads ({cores} cores), \
         hits digest {digest}",
        peak.threads
    );
    // The scaling floor only means something when the hardware can
    // actually run the workers; on a 1-core host the sweep still proves
    // invariance but measures oversubscription, not speedup.
    if cores >= 4 && scaling < 2.5 {
        eprintln!(
            "[bench_serving] WARNING: batch scaling {scaling:.2}x below the 2.5x target \
             on a {cores}-core host"
        );
        if std::env::var_os("LCDD_BENCH_STRICT").is_some() {
            panic!("batch scaling {scaling:.2}x < 2.5x on a {cores}-core host");
        }
    }

    let mut sweep_json = String::from("  \"thread_sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        sweep_json.push_str(&format!(
            "    {{\"threads\": {}, \"single_p50_us\": {:.1}, \"single_p95_us\": {:.1}, \
             \"single_p99_us\": {:.1}, \"single_mean_us\": {:.1}, \"batch_qps\": {:.1}}}{}\n",
            p.threads,
            p.f64("single_p50_ns") / 1e3,
            p.f64("single_p95_ns") / 1e3,
            p.f64("single_p99_ns") / 1e3,
            p.f64("single_mean_ns") / 1e3,
            p.f64("batch_qps"),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    sweep_json.push_str("  ],\n");
    sweep_json.push_str(&format!("  \"batch_scaling_x\": {scaling:.3},\n"));
    sweep_json.push_str(&format!("  \"host_cores\": {cores},\n"));
    sweep_json.push_str(&format!("  \"hits_digest\": \"{digest}\",\n"));

    let json = format!(
        "{{\n  \"group\": \"bench_serving\",\n  \"pool_threads\": {},\n  \
         \"repo_tables\": {N_TABLES},\n  \"reader_threads\": {N_READERS},\n  \
         \"measure_ms\": {},\n{sweep_json}  \"serving\": {{\n    \"idle_qps\": {idle_qps:.1},\n    \
         \"under_ingest_qps\": {ingest_qps:.1},\n    \"ingest_slowdown_x\": {ingest_ratio:.3},\n    \
         \"ingest_rounds\": {ingest_rounds},\n    \"cached_qps\": {cached_qps:.1}\n  }},\n  \
         \"rwlock_baseline\": {{\n    \"idle_qps\": {baseline_idle_qps:.1},\n    \
         \"under_ingest_qps\": {baseline_ingest_qps:.1},\n    \
         \"ingest_slowdown_x\": {baseline_ratio:.3},\n    \
         \"ingest_rounds\": {baseline_rounds}\n  }}\n}}\n",
        pool::num_threads(),
        MEASURE.as_millis(),
    );

    std::fs::write(&out_path, &json).expect("write BENCH_serving.json");
    eprintln!("[bench_serving] wrote {out_path}");
    println!("{json}");
}
