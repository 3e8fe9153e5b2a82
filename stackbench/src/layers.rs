//! The traced run: the per-layer numbers, taken from outside the program.
//!
//! Two gateway passes come first: caller A alone, whose latency holds no
//! queueing and so splits into engine and gateway; then both callers, with
//! client-side spans on about half of A's requests, which gives the tracing
//! overhead from two interleaved halves of one pass. The same request
//! stream is then replayed in-process from one caller thread, first through
//! the engine as a whole, then layer by layer through each crate's public
//! functions with a span around every call. Nothing inside the program is
//! instrumented.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcdd_chart::{render, ChartStyle};
use lcdd_engine::{IndexStrategy, Query, SearchOptions, SearchResponse, ServingEngine};
use lcdd_fcm::{encode_repository, process_query, process_table, QuantizedVec, QueryScorer};
use lcdd_store::{DurableEngine, StoreOptions};
use lcdd_table::Table;
use lcdd_tensor::{pool, Matrix};
use lcdd_vision::VisualElementExtractor;

use crate::client::{self, Conn};
use crate::gen;
use crate::report::{Measured, Metrics, PER_LAYER};
use crate::run::{pooled_ms, print_failures, settled_rss_mb, Job, WARM_UP};
use crate::span::{SpanLog, NO_PARENT};
use crate::stats;
use crate::workload::{self, PassPlan, Second, Served, Stack, Workload, K, POOL_BASE, REPLAY_BASE};

/// Requests replayed at most; a slow workload replays as many as fit its
/// share of the run, but at least [`MIN_REPLAY`].
const MAX_REPLAY: usize = 500;
const MIN_REPLAY: usize = 50;
/// Requests replayed layer by layer at most: each scores
/// [`SCORED_TABLES`] candidates, which is most of the replay's cost.
const MAX_LAYER_REPLAY: usize = 200;
/// Candidates the scorer stage scores per replayed request: as many as the
/// smaller corpora hold, so the scan misses the cache as the engine's does.
const SCORED_TABLES: usize = 1024;
/// Tables timed for `core.encode_table_us`.
const ENCODED_TABLES: usize = 64;
/// Sample queries compared with the exact ranking for `index.agree_at_10`.
const AGREE_QUERIES: u64 = 32;
/// Direct store writes timed on the durable workload.
const STORE_WRITES: u64 = 24;

fn p50(values: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(values.to_vec()), 0.50)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Times `f` once, in microseconds.
fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Named values, filled in as the run goes and emitted in [`PER_LAYER`]
/// order; a metric nothing set is a layer the workload bypasses and reads 0.
#[derive(Default)]
struct Layers(std::collections::HashMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not declared"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn into_metrics(self) -> Metrics {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, self.get(name).into()))
            .collect()
    }
}

/// One replayed request: the body sent over the wire and what the gateway's
/// parser makes of it.
struct Replayed {
    body: String,
    query: Query,
    opts: SearchOptions,
}

fn replay_requests(w: &Workload, seed: u64, tables: &[Table]) -> Result<Vec<Replayed>, String> {
    (0..MAX_REPLAY as u64)
        .map(|i| {
            // The hot pool replays its own 64 queries round-robin.
            let q = match w.pool {
                Some(n) => POOL_BASE + i % n as u64,
                None => REPLAY_BASE + i,
            };
            let body = workload::search_body(w, seed, q, tables);
            let (query, opts) = workload::parse_body(&body)?;
            Ok(Replayed { body, query, opts })
        })
        .collect()
}

/// Replays requests through the engine, past the query cache, until
/// `budget` is spent (but at least [`MIN_REPLAY`]). Returns the per-request
/// times in microseconds and the responses.
fn replay_engine(
    served: &Served,
    requests: &[Replayed],
    budget: Duration,
) -> Result<(Vec<f64>, Vec<SearchResponse>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut responses = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        if i >= MIN_REPLAY && started.elapsed() >= budget {
            break;
        }
        let (resp, t) = timed_us(|| served.search_uncached(&r.query, &r.opts));
        responses.push(resp.map_err(|e| format!("replay search: {e}"))?);
        times.push(t);
    }
    Ok((times, responses))
}

/// Mean pooled embedding of each line, the LSH probe — what the engine
/// computes between encoding a query and asking the index for candidates.
fn mean_pooled(encodings: &[Matrix]) -> Vec<Vec<f32>> {
    encodings
        .iter()
        .map(|m| {
            let mut out = vec![0.0f32; m.cols()];
            for row in m.rows_iter() {
                for (o, &v) in out.iter_mut().zip(row) {
                    *o += v;
                }
            }
            let rows = m.rows().max(1) as f32;
            out.iter_mut().for_each(|o| *o /= rows);
            out
        })
        .collect()
}

/// The layer-by-layer replay: every public call a search makes, one span
/// each, from one thread with the pool forced serial so the times add.
fn replay_layers(served: &Served, requests: &[Replayed], tables: &[Table], spans: &mut SpanLog) {
    let model = workload::model();
    let style = ChartStyle::default();
    let extractor = VisualElementExtractor::oracle();
    // The scorer stage scores a fixed set of resident candidates, so its
    // per-table cost does not depend on what the index let through.
    let scored = &tables[..SCORED_TABLES.min(tables.len())];
    let repo = encode_repository(&model, scored);
    let state = served.snapshot();
    for (i, r) in requests.iter().enumerate() {
        let req = i as u64;
        let Query::Series(data) = &r.query else {
            continue;
        };
        let root = spans.open("request", NO_PARENT, req);
        let chart = spans.within("chart.render", root, req, || render(data, &style));
        let extracted = spans.within("vision.extract", root, req, || extractor.extract(&chart));
        let (pq, ev) = spans.within("core.encode_query", root, req, || {
            let pq = process_query(&extracted, &model.config);
            let ev = model.encode_query_values(&pq);
            (pq, ev)
        });
        if ev.is_empty() {
            spans.close(root);
            continue;
        }
        spans.within("index.candidates", root, req, || {
            let line_embs = mean_pooled(&ev);
            for shard in state.shards() {
                black_box(shard.index().candidates_with_stats(
                    r.opts.strategy,
                    pq.y_range,
                    &line_embs,
                ));
            }
        });
        let scorer = spans.within("core.scorer_setup", root, req, || {
            QueryScorer::new(&model, &ev)
        });
        spans.within("core.score", root, req, || {
            for t in 0..repo.len() {
                black_box(scorer.score_table(&repo, &pq, t, &repo.pooled_mean));
            }
        });
        spans.close(root);
    }
}

/// `name value` lines of a Prometheus exposition, summed over label sets.
fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let base = series.split('{').next()?;
            (base == name).then(|| value.parse::<f64>().ok())?
        })
        .fold(0.0, |sum, v| sum + v)
}

fn json_number(doc: &lcdd_server::json::Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |j, key| j.get(key))
        .and_then(|j| j.as_f64())
        .unwrap_or(0.0)
}

/// What the gateway reports about itself after the passes: one JSON scrape
/// for the counters, repeated Prometheus scrapes for the scrape's own cost.
fn scrape(stack: &Stack, layers: &mut Layers) -> Result<(), String> {
    let mut conn = Conn::connect(stack.addr()).map_err(|e| format!("scrape connection: {e}"))?;
    let (status, _) = conn
        .round_trip(&client::get("/metrics", None))
        .map_err(|e| format!("scrape: {e}"))?;
    if status != 200 {
        return Err(format!("scrape: status {status}"));
    }
    let doc = lcdd_server::json::parse(conn.body_str()).map_err(|e| format!("scrape: {e}"))?;
    let requests = json_number(&doc, &["coalescing", "requests"]);
    layers.set(
        "server.batch_mean",
        json_number(&doc, &["coalescing", "mean_batch"]),
    );
    layers.set(
        "server.dedup_ratio",
        if requests > 0.0 {
            json_number(&doc, &["coalescing", "deduped"]) / requests
        } else {
            0.0
        },
    );
    layers.set(
        "server.queue_wait_us",
        json_number(&doc, &["queue_wait_us", "p50"]),
    );
    layers.set(
        "server.rejected_total",
        json_number(&doc, &["responses", "rejected_503"])
            + json_number(&doc, &["responses", "rejected_connections"]),
    );
    layers.set(
        "server.status_5xx_total",
        json_number(&doc, &["responses", "server_error"]),
    );

    let request = client::get("/metrics", Some("text/plain"));
    let mut times = Vec::new();
    for _ in 0..20 {
        let (out, t) = timed_us(|| conn.round_trip(&request));
        out.map_err(|e| format!("prometheus scrape: {e}"))?;
        times.push(t);
    }
    layers.set("obs.scrape_us", p50(&times));
    layers.set(
        "store.checkpoints_total",
        prometheus_value(conn.body_str(), "lcdd_store_checkpoints_total"),
    );
    Ok(())
}

/// Kernel-level numbers that need no engine: the GEMM the scorer issues per
/// candidate panel, the int8 dot of the proxy scan, one table's encoding.
fn micro(layers: &mut Layers, tables: &[Table]) {
    // A two-column candidate is a 16 x 32 panel projected by a 32 x 32
    // weight: 2 * 16 * 32 * 32 floating-point operations per call.
    let (m, k, n) = (16usize, 32usize, 32usize);
    let fill = |rows: usize, cols: usize| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i % 17) as f32 * 0.01).collect(),
        )
    };
    let (a, b) = (fill(m, k), fill(k, n));
    let mut out = Matrix::zeros(m, n);
    let calls = 20_000;
    let t = Instant::now();
    for _ in 0..calls {
        black_box(&a).matmul_into(black_box(&b), &mut out);
    }
    let flop = (2 * m * k * n * calls) as f64;
    layers.set("tensor.gemm_gflops", flop / t.elapsed().as_secs_f64() / 1e9);

    let qa = QuantizedVec::quantize(&(0..32).map(|i| i as f32 * 0.1 - 1.0).collect::<Vec<_>>());
    let qb = QuantizedVec::quantize(&(0..32).map(|i| 1.0 - i as f32 * 0.05).collect::<Vec<_>>());
    let calls = 200_000;
    let t = Instant::now();
    for _ in 0..calls {
        black_box(black_box(&qa).dot(black_box(&qb)));
    }
    layers.set(
        "core.quant_dot_ns",
        t.elapsed().as_secs_f64() * 1e9 / calls as f64,
    );

    let model = workload::model();
    let times: Vec<f64> = tables
        .iter()
        .take(ENCODED_TABLES)
        .map(|t| {
            timed_us(|| {
                let pt = process_table(t, &model.config);
                black_box(model.encode_table_values(&pt));
            })
            .1
        })
        .collect();
    layers.set("core.encode_table_us", p50(&times));
}

/// The wire layer on its own: parse and render the replayed traffic.
fn wire(layers: &mut Layers, requests: &[Replayed], responses: &[SearchResponse]) {
    let parse: Vec<f64> = requests
        .iter()
        .map(|r| timed_us(|| black_box(lcdd_server::json::parse(&r.body).is_ok())).1)
        .collect();
    layers.set("server.json_parse_us", p50(&parse));
    let parse_search: Vec<f64> = requests
        .iter()
        .map(|r| timed_us(|| black_box(workload::parse_body(&r.body).is_ok())).1)
        .collect();
    layers.set("server.parse_search_us", p50(&parse_search));
    let mut sizes = Vec::new();
    let render: Vec<f64> = responses
        .iter()
        .map(|resp| {
            let (body, t) = timed_us(|| lcdd_server::wire::search_body(resp, 1, 1, 1));
            sizes.push(body.len() as f64);
            t
        })
        .collect();
    layers.set("server.render_body_us", p50(&render));
    layers.set("server.response_bytes", mean(&sizes));
    layers.set(
        "server.request_bytes",
        mean(
            &requests
                .iter()
                .map(|r| r.body.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
}

/// Inserts straight into the in-memory engine: encode, copy-on-write shard,
/// publish — the engine's share of a write. The tables are removed again.
fn engine_inserts(layers: &mut Layers, engine: &ServingEngine, seed: u64, w: &Workload) {
    let mut times = Vec::new();
    for i in 0..8u64 {
        let id = gen::INSERT_ID_BASE + 1_000_000 + i;
        let table = gen::table_with_id(seed, w.tables + 1_000_000 + i as usize, id);
        times.push(timed_us(|| engine.insert_tables(vec![table])).1);
        engine.remove_tables(&[id]);
    }
    layers.set("engine.insert_us", p50(&times));
}

/// The store written to directly, fsync on: what a write costs below the
/// gateway, what a checkpoint costs, what the log grows by per op. Times
/// are the sandbox's page cache, not a device's.
fn store_writes(
    layers: &mut Layers,
    store: &DurableEngine,
    seed: u64,
    w: &Workload,
) -> Result<(), String> {
    let (mut inserts, mut removes, mut wal_growth) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..STORE_WRITES {
        let id = gen::INSERT_ID_BASE + 2_000_000 + i;
        let table = gen::table_with_id(seed, w.tables + 2_000_000 + i as usize, id);
        let before = store.wal_len();
        let (out, t) = timed_us(|| store.insert_tables(vec![table]));
        out.map_err(|e| format!("store insert: {e}"))?;
        inserts.push(t);
        // A checkpoint starts a fresh log; only growth within one counts.
        if let Some(grown) = store.wal_len().checked_sub(before) {
            wal_growth.push(grown as f64);
        }
        let (out, t) = timed_us(|| store.remove_tables(&[id]));
        out.map_err(|e| format!("store remove: {e}"))?;
        removes.push(t);
    }
    layers.set("store.insert_us", p50(&inserts));
    layers.set("store.remove_us", p50(&removes));
    layers.set("store.wal_bytes_per_op", p50(&wal_growth));
    let (mut ms, mut bytes) = (Vec::new(), Vec::new());
    for i in 0..3u64 {
        let id = gen::INSERT_ID_BASE + 3_000_000 + i;
        let table = gen::table_with_id(seed, w.tables + 3_000_000 + i as usize, id);
        store
            .insert_tables(vec![table])
            .map_err(|e| format!("store insert: {e}"))?;
        let (out, t) = timed_us(|| store.checkpoint());
        bytes.push(out.map_err(|e| format!("checkpoint: {e}"))?.bytes_written as f64);
        ms.push(t / 1e3);
    }
    layers.set("store.checkpoint_ms", p50(&ms));
    layers.set("store.checkpoint_bytes", p50(&bytes));
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Re-opens the store cold and eager, and times the cold one to its first
/// answer.
fn store_opens(
    layers: &mut Layers,
    store: &Path,
    first: &Replayed,
    live_tables: usize,
) -> Result<(), String> {
    layers.set(
        "store.disk_bytes_per_table",
        dir_bytes(store) as f64 / live_tables.max(1) as f64,
    );
    let t = Instant::now();
    let (cold, _) = DurableEngine::open(store, workload::store_options())
        .map_err(|e| format!("cold open: {e}"))?;
    layers.set("store.open_cold_s", t.elapsed().as_secs_f64());
    let (out, answer_us) = timed_us(|| cold.search(&first.query, &first.opts));
    out.map_err(|e| format!("first answer: {e}"))?;
    layers.set("store.first_answer_ms", answer_us / 1e3);
    drop(cold);
    let eager = StoreOptions {
        cold_open: false,
        ..workload::store_options()
    };
    let t = Instant::now();
    DurableEngine::open(store, eager).map_err(|e| format!("eager open: {e}"))?;
    layers.set("store.open_eager_s", t.elapsed().as_secs_f64());
    Ok(())
}

/// Mean overlap of the served top-10 with the exact top-10 over the first
/// sample queries. Deterministic for a seed; measures approximate-vs-exact
/// agreement under untrained weights, not the paper's precision.
fn agree_at_10(w: &Workload, served: &Served, seed: u64, tables: &[Table]) -> Result<f64, String> {
    let mut total = 0.0;
    for q in 0..AGREE_QUERIES {
        let (query, opts) = workload::parse_body(&workload::search_body(w, seed, q, tables))?;
        let got = served
            .search_uncached(&query, &opts)
            .map_err(|e| format!("agree search: {e}"))?;
        // The reference: the same query past every index.
        let exact = served
            .search_uncached(
                &query,
                &SearchOptions::top_k(K).with_strategy(IndexStrategy::NoIndex),
            )
            .map_err(|e| format!("exact search: {e}"))?;
        let overlap = got
            .hits
            .iter()
            .filter(|h| exact.hits.iter().any(|e| e.table_id == h.table_id))
            .count();
        total += overlap as f64 / exact.hits.len().max(1) as f64;
    }
    Ok(total / AGREE_QUERIES as f64)
}

/// What the gateway passes hand on to the rest of the traced run.
struct GatewaySeen {
    /// Caller A's p50 with the gateway to itself, in ms.
    alone_p50_ms: f64,
    /// Share of the engine's cache look-ups that hit while both callers ran.
    hit_ratio: f64,
    attempted: u64,
    failed: u64,
}

/// The gateway, twice: caller A alone, then both callers with client-side
/// spans on about half of A's requests.
fn gateway_passes(job: &Job, stack: &Stack, layers: &mut Layers) -> Result<GatewaySeen, String> {
    let Job {
        w, seed, tables, ..
    } = *job;
    let share = job.share();
    let alone = workload::drive(
        w,
        stack.addr(),
        seed,
        tables,
        (WARM_UP, share),
        PassPlan {
            alone: true,
            ..PassPlan::default()
        },
    );
    let cache_before = stack.served.cache_stats();
    let both = workload::drive(
        w,
        stack.addr(),
        seed,
        tables,
        (Duration::ZERO, share * 2),
        PassPlan {
            number: 1,
            first_insert: alone.next_insert,
            alone: false,
            spans: true,
        },
    );
    let cache_after = stack.served.cache_stats();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for log in [&alone.a, &both.a, &both.b] {
        let (n, f) = log.tally();
        attempted += n;
        failed += f;
        print_failures(w, &log.errors);
    }
    let lookups = (cache_after.hits + cache_after.misses)
        .saturating_sub(cache_before.hits + cache_before.misses);
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        cache_after.hits.saturating_sub(cache_before.hits) as f64 / lookups as f64
    };
    layers.set("engine.cache_hit_ratio", hit_ratio);
    let alone_p50_ms = pooled_ms(&alone.a.samples, 0.50);
    let both_p50_ms = pooled_ms(&both.a.samples, 0.50);
    layers.set("bench.client_alone_p50_ms", alone_p50_ms);
    layers.set("bench.client_p50_ms", both_p50_ms);
    // Caller A recorded spans on about half of its requests: the two halves
    // saw the same load, so their medians differ by what recording costs.
    let half = |spanned: bool| {
        let picked: Vec<_> = (0u64..)
            .zip(&both.a.samples)
            .filter(|&(req_no, _)| client::is_spanned(req_no) == spanned)
            .map(|(_, s)| *s)
            .collect();
        pooled_ms(&picked, 0.50)
    };
    layers.set(
        "bench.trace_overhead_pct",
        (half(true) - half(false)) / half(false) * 100.0,
    );
    let lag_ms: Vec<f64> = both.b.lag_ns.iter().map(|&l| l as f64 / 1e6).collect();
    layers.set(
        "bench.gen_lag_ms",
        stats::percentile(&stats::sorted(lag_ms), 0.99),
    );
    if let Second::Churn { .. } = w.second {
        // What a fresh connection adds over a kept one: accept, thread
        // spawn, teardown.
        layers.set(
            "server.connect_us",
            (pooled_ms(&both.b.samples, 0.50) - both_p50_ms) * 1e3,
        );
    }
    layers.set("bench.rss_end_mb", settled_rss_mb());
    scrape(stack, layers)?;
    if let Some(spans) = &both.spans {
        spans
            .write_jsonl(job.trace_file, "gateway")
            .map_err(|e| format!("{}: {e}", job.trace_file.display()))?;
    }
    Ok(GatewaySeen {
        alone_p50_ms,
        hit_ratio,
        attempted,
        failed,
    })
}

/// The in-process replay of the request stream: through the engine at the
/// pool's width and serial, then layer by layer. Returns the requests it
/// replayed and their responses.
fn replays<'a>(
    job: &Job,
    served: &Served,
    requests: &'a [Replayed],
    layers: &mut Layers,
) -> Result<(&'a [Replayed], Vec<SearchResponse>), String> {
    let share = job.share();
    let tier_before = served.snapshot().tier_stats();
    let (wide_us, responses) = replay_engine(served, requests, share)?;
    let n = wide_us.len();
    let requests = &requests[..n];
    let tier_after = served.snapshot().tier_stats();
    let threads = pool::resolve_threads();
    pool::force_threads(1);
    let serial = replay_engine(served, requests, share * 4);
    let n_layers = n.min(MAX_LAYER_REPLAY);
    let mut spans = SpanLog::new();
    replay_layers(served, &requests[..n_layers], job.tables, &mut spans);
    pool::force_threads(threads);
    let (serial_us, _) = serial?;
    spans
        .write_jsonl(job.trace_file, "layers")
        .map_err(|e| format!("{}: {e}", job.trace_file.display()))?;

    let sorted_wide = stats::sorted(wide_us.clone());
    layers.set("engine.search_us", stats::percentile(&sorted_wide, 0.50));
    layers.set(
        "engine.search_p95_us",
        stats::percentile(&sorted_wide, 0.95),
    );
    layers.set("engine.search_serial_us", p50(&serial_us));
    layers.set("tensor.par_speedup", p50(&serial_us) / p50(&wide_us));
    let per_query = |f: fn(&SearchResponse) -> Option<usize>| {
        let counts: Vec<f64> = responses.iter().map(|r| f(r).unwrap_or(0) as f64).collect();
        mean(&counts)
    };
    let scored = per_query(|r| Some(r.counts.scored));
    layers.set("engine.scored_per_query", scored);
    layers.set(
        "engine.quant_scanned_per_query",
        per_query(|r| r.counts.quant_scanned),
    );
    layers.set(
        "engine.reranked_per_query",
        per_query(|r| r.counts.reranked),
    );
    layers.set(
        "index.after_interval_per_query",
        per_query(|r| r.counts.after_interval),
    );
    layers.set(
        "index.after_lsh_per_query",
        per_query(|r| r.counts.after_lsh),
    );
    layers.set(
        "index.prune_ratio",
        scored / per_query(|r| Some(r.counts.total)),
    );
    let per = n.max(1) as f64;
    layers.set(
        "engine.pagein_slots_per_query",
        tier_after
            .slots_paged_in
            .saturating_sub(tier_before.slots_paged_in) as f64
            / per,
    );
    layers.set(
        "engine.pagein_bytes_per_query",
        tier_after
            .bytes_paged_in
            .saturating_sub(tier_before.bytes_paged_in) as f64
            / per,
    );
    layers.set("engine.resident_mb", tier_after.resident_bytes as f64 / 1e6);
    layers.set("engine.mapped_mb", tier_after.mapped_bytes as f64 / 1e6);
    let lines: Vec<f64> = requests
        .iter()
        .map(|r| match &r.query {
            Query::Series(d) => d.series.len() as f64,
            _ => 0.0,
        })
        .collect();
    layers.set("vision.lines_per_query", mean(&lines));

    // The layers, from their spans.
    let stage = |name: &str| spans.durations_us(name);
    let stages = [
        ("chart.render_us", stage("chart.render")),
        ("vision.extract_us", stage("vision.extract")),
        ("core.encode_query_us", stage("core.encode_query")),
        ("core.scorer_setup_us", stage("core.scorer_setup")),
        ("index.candidates_us", stage("index.candidates")),
    ];
    for (metric, durations) in &stages {
        layers.set(metric, p50(durations));
    }
    let score = stage("core.score");
    let scored_tables = SCORED_TABLES.min(job.tables.len()) as f64;
    layers.set("core.score_us_per_table", p50(&score) / scored_tables);
    // The stages of each replayed search, summed, against the serial search
    // of the same request (scoring scaled to the candidates that search
    // scored). What the stages leave unexplained — merge, the proxy scan and
    // page-in on the cold tier, timer reads — is reported beside the ratio.
    let (mut ratios, mut gaps) = (Vec::new(), Vec::new());
    for i in 0..score.len() {
        let fixed: f64 = stages.iter().map(|(_, durations)| durations[i]).sum();
        let sum = fixed + score[i] / scored_tables * responses[i].counts.scored as f64;
        ratios.push(sum / serial_us[i]);
        gaps.push(serial_us[i] - sum);
    }
    layers.set("engine.stage_sum_ratio", p50(&ratios));
    layers.set("engine.unaccounted_us", p50(&gaps));

    // A repeat of a query the cache holds: what a hit costs.
    let hits: Vec<f64> = requests
        .iter()
        .take(100)
        .filter_map(|r| {
            served.search(&r.query, &r.opts).ok()?;
            let (out, t) = timed_us(|| served.search(&r.query, &r.opts));
            out.ok().filter(|resp| resp.cached).map(|_| t)
        })
        .collect();
    layers.set("engine.cached_search_us", p50(&hits));
    Ok((requests, responses))
}

pub fn traced(job: &Job, stack: Stack) -> Result<Measured, String> {
    let Job {
        w, seed, tables, ..
    } = *job;
    let mut layers = Layers::default();
    let _ = std::fs::remove_file(job.trace_file);
    layers.set("store.create_s", job.create_s);
    layers.set("tensor.pool_threads", pool::resolve_threads() as f64);

    let seen = gateway_passes(job, &stack, &mut layers)?;
    let served = stack.served.clone();
    let all_requests = replay_requests(w, seed, tables)?;
    let (requests, responses) = replays(job, &served, &all_requests, &mut layers)?;

    // What the gateway adds over the engine, from the caller that had the
    // gateway to itself: a hit costs the cached search, a miss the full one.
    let below_gateway_us = if seen.hit_ratio >= 0.5 {
        layers.get("engine.cached_search_us")
    } else {
        layers.get("engine.search_us")
    };
    let overhead_us = seen.alone_p50_ms * 1e3 - below_gateway_us;
    layers.set("server.overhead_us", overhead_us);
    layers.set(
        "server.overhead_share",
        overhead_us / (seen.alone_p50_ms * 1e3),
    );

    layers.set("index.agree_at_10", agree_at_10(w, &served, seed, tables)?);
    wire(&mut layers, requests, &responses);
    micro(&mut layers, tables);

    // Writes, then the store from the outside.
    match &served {
        Served::Mem(engine) => engine_inserts(&mut layers, engine, seed, w),
        Served::Disk(engine) => store_writes(&mut layers, engine, seed, w)?,
    }
    let live_tables = served.snapshot().len();
    drop(served);
    if let Served::Disk(engine) = stack.shutdown()? {
        // The store must be closed before it is opened again.
        if Arc::strong_count(&engine) != 1 {
            return Err("the store is still held after shutdown".into());
        }
        drop(engine);
        store_opens(&mut layers, job.store, &requests[0], live_tables)?;
    }

    print_checks(w, &layers);
    Ok(Measured {
        metrics: layers.into_metrics(),
        attempted: seen.attempted + requests.len() as u64,
        failed: seen.failed,
    })
}

/// Says on standard error whether the workload stresses what it claims to,
/// from the numbers just taken.
fn print_checks(w: &Workload, l: &Layers) {
    let check = |what: &str, holds: bool| {
        eprintln!(
            "[stackbench] {} check {}: {what}",
            w.name,
            if holds { "holds" } else { "FAILS" }
        );
    };
    let serial = l.get("engine.search_serial_us");
    let score = l.get("core.score_us_per_table") * l.get("engine.scored_per_query");
    let front =
        l.get("chart.render_us") + l.get("vision.extract_us") + l.get("core.encode_query_us");
    match w.name {
        "scan_exact" => {
            check("scoring >= 0.8 of the serial search", score >= 0.8 * serial);
            check(
                "gateway share < 0.05",
                l.get("server.overhead_share") < 0.05,
            );
            check("agree_at_10 is 1", l.get("index.agree_at_10") == 1.0);
        }
        "pruned_unique" => {
            let client_us = l.get("bench.client_alone_p50_ms") * 1e3;
            check(
                "no stage above 0.6 of the lone caller's p50",
                score <= 0.6 * client_us,
            );
            check(
                "render + extract + encode >= 0.15 of the engine search",
                front >= 0.15 * l.get("engine.search_us"),
            );
        }
        "hot_cached" => {
            check(
                "cache hit ratio >= 0.99",
                l.get("engine.cache_hit_ratio") >= 0.99,
            );
            check(
                "gateway share >= 0.7",
                l.get("server.overhead_share") >= 0.7,
            );
            check(
                "paced churner on time (p99 lag <= 1 ms)",
                l.get("bench.gen_lag_ms") <= 1.0,
            );
        }
        "cold_tier_rw" => {
            check(
                "slots page in",
                l.get("engine.pagein_slots_per_query") > 0.0,
            );
            check("checkpoints ran", l.get("store.checkpoints_total") >= 3.0);
            // No lateness check here: with both cores busy when its timer
            // fires the writer leaves ~2 ms late at p99 whatever the rate;
            // `bench.gen_lag_ms` reports it.
        }
        _ => {}
    }
    let ratio = l.get("engine.stage_sum_ratio");
    if !(0.9..=1.1).contains(&ratio) {
        eprintln!(
            "[stackbench] {}: stages sum to {ratio:.2} of the serial search; {:.0} us per search \
             unaccounted (merge and hit assembly; on the cold tier also the proxy scan and page-in)",
            w.name,
            l.get("engine.unaccounted_us")
        );
    }
}
