//! Tiered-corpus scale benchmark: recall@k, qps, resident-set and
//! page-in accounting for the million-table serving story. Writes
//! `BENCH_scale.json`.
//!
//! For each corpus size the bin fabricates a store with the streaming
//! synthetic generator ([`lcdd_testkit::scale`] → `create_bulk`, never
//! holding the corpus in memory), opens it **cold** (`LCDDSEG2` segments
//! mapped, payloads paged in on demand), and measures two serving paths
//! against the exact full-scan ground truth:
//!
//! * **exact** — `NoIndex`, every candidate scored with f32 attention
//!   (the ground-truth ranking and the qps floor),
//! * **quant+rerank** — the int8 pooled-proxy scan over all candidates,
//!   exact f32 re-rank of the top-R survivors (R swept), paging in only
//!   the survivors.
//!
//! Recall@10 is measured against the exact path; the bin **asserts**
//! quant+rerank recall ≥ 0.95 at its deepest R on every fully measured
//! size. At the largest size (1M tables by default) only the cold-open /
//! quant+rerank path is smoke-run — the exact scan at 1M is minutes of
//! wall-clock for no extra information.
//!
//! Usage:
//!   cargo run --release -p lcdd-bench --bin bench_scale [-- out.json]
//!   cargo run --release -p lcdd-bench --bin bench_scale -- out.json --smoke
//!
//! `--smoke` runs the 10k-table size only (the CI configuration).

use std::time::Instant;

use lcdd_engine::{EngineBuilder, IndexStrategy, SearchOptions};
use lcdd_fcm::{FcmConfig, FcmModel};
use lcdd_store::{create_bulk, DurableEngine, StoreOptions};
use lcdd_testkit::crash::TempDir;
use lcdd_testkit::scale::{self, ScaleSpec};

const K: usize = 10;
const N_SHARDS: usize = 4;
const RERANK_DEPTHS: [usize; 2] = [256, 1024];

/// Process resident set in bytes (`/proc/self/statm` field 2 × page
/// size); 0 where procfs is unavailable.
fn rss_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

fn store_opts(cold: bool) -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 0,
        checkpoint_every_bytes: 0,
        cold_open: cold,
        ..StoreOptions::default()
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Top-K table ids under `opts`, plus mean per-query seconds.
fn run_queries(
    engine: &DurableEngine,
    spec: &ScaleSpec,
    n_queries: u64,
    opts: &SearchOptions,
) -> (Vec<Vec<u64>>, f64) {
    let mut tops = Vec::with_capacity(n_queries as usize);
    let t = Instant::now();
    for q in 0..n_queries {
        let resp = engine
            .search(&scale::query(spec, q), opts)
            .expect("bench search");
        tops.push(resp.hits.iter().map(|h| h.table_id).collect());
    }
    (tops, t.elapsed().as_secs_f64() / n_queries as f64)
}

fn recall_at_k(truth: &[Vec<u64>], got: &[Vec<u64>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (t, g) in truth.iter().zip(got) {
        total += t.len();
        hit += t.iter().filter(|id| g.contains(id)).count();
    }
    hit as f64 / total.max(1) as f64
}

struct PathRow {
    label: String,
    qps: f64,
    recall: Option<f64>,
    slots_paged_per_query: f64,
}

struct SizeRow {
    n_tables: u64,
    create_s: f64,
    store_bytes: u64,
    cold_open_s: f64,
    rss_after_open: u64,
    mapped_bytes: u64,
    resident_bytes: u64,
    eager_open_s: Option<f64>,
    rss_after_eager: Option<u64>,
    paths: Vec<PathRow>,
}

fn run_size(n_tables: u64, n_queries: u64, exact: bool) -> SizeRow {
    let spec = ScaleSpec::tiny(0x5ca1e ^ n_tables, n_tables);
    let tmp = TempDir::new(&format!("bench-scale-{n_tables}"));
    let template = EngineBuilder::new(FcmModel::new(FcmConfig::tiny()))
        .build()
        .expect("template engine");

    let t = Instant::now();
    create_bulk(
        tmp.path(),
        &template,
        N_SHARDS,
        n_tables,
        scale::generator(&spec),
    )
    .expect("bulk store create");
    let create_s = t.elapsed().as_secs_f64();
    let store_bytes = dir_bytes(tmp.path());

    let t = Instant::now();
    let (engine, _) = DurableEngine::open(tmp.path(), store_opts(true)).expect("cold open");
    let cold_open_s = t.elapsed().as_secs_f64();
    let rss_after_open = rss_bytes();
    let tier = engine.snapshot().tier_stats();
    assert_eq!(tier.mapped_tables, n_tables, "cold open maps every table");
    assert_eq!(tier.slots_paged_in, 0, "cold open must not decode any slot");
    eprintln!(
        "[bench_scale] {n_tables:>8} tables: fabricate {create_s:>6.1} s \
         ({:.1} MB on disk), cold open {:.3} s, RSS {:.1} MB \
         (mapped {:.1} MB, resident {:.1} MB)",
        store_bytes as f64 / 1e6,
        cold_open_s,
        rss_after_open as f64 / 1e6,
        tier.mapped_bytes as f64 / 1e6,
        tier.resident_bytes as f64 / 1e6,
    );

    // Measure each serving path once, keeping its top-K sets so recall
    // is computed from the very rankings that were timed.
    let mut paths: Vec<PathRow> = Vec::new();
    let mut tops_of: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut paged = tier.slots_paged_in;
    let mut bench_path = |label: String,
                          opts: &SearchOptions,
                          paths: &mut Vec<PathRow>,
                          tops_of: &mut Vec<Vec<Vec<u64>>>| {
        let (tops, per_query_s) = run_queries(&engine, &spec, n_queries, opts);
        let now = engine.snapshot().tier_stats().slots_paged_in;
        let slots_paged_per_query = (now - paged) as f64 / n_queries as f64;
        paged = now;
        paths.push(PathRow {
            label,
            qps: 1.0 / per_query_s,
            recall: None,
            slots_paged_per_query,
        });
        tops_of.push(tops);
    };

    if exact {
        bench_path(
            "exact".into(),
            &SearchOptions::top_k(K).with_strategy(IndexStrategy::NoIndex),
            &mut paths,
            &mut tops_of,
        );
    }
    for r in RERANK_DEPTHS {
        if (r as u64) < n_tables {
            bench_path(
                format!("quant_rerank_{r}"),
                &SearchOptions::top_k(K)
                    .with_strategy(IndexStrategy::NoIndex)
                    .with_rerank(r),
                &mut paths,
                &mut tops_of,
            );
        }
    }
    if exact {
        let truth = tops_of[0].clone();
        for (p, tops) in paths.iter_mut().zip(&tops_of) {
            p.recall = Some(recall_at_k(&truth, tops));
        }
    }

    for p in &paths {
        eprintln!(
            "[bench_scale] {n_tables:>8} tables | {:<18} {:>8.1} qps, recall@{K} {}, \
             {:>8.1} slots paged/query",
            p.label,
            p.qps,
            p.recall.map_or("   n/a".into(), |r| format!("{r:.3}")),
            p.slots_paged_per_query,
        );
    }

    // Eager open for the residency comparison (skipped at smoke-only
    // sizes where decoding the whole corpus is the cost being avoided).
    let (eager_open_s, rss_after_eager) = if exact {
        drop(engine);
        let t = Instant::now();
        let (eager, _) = DurableEngine::open(tmp.path(), store_opts(false)).expect("eager open");
        let secs = t.elapsed().as_secs_f64();
        let rss = rss_bytes();
        let et = eager.snapshot().tier_stats();
        assert_eq!(et.mapped_tables, 0, "eager open decodes everything");
        eprintln!(
            "[bench_scale] {n_tables:>8} tables: eager open {secs:.3} s, RSS {:.1} MB",
            rss as f64 / 1e6
        );
        (Some(secs), Some(rss))
    } else {
        (None, None)
    };

    SizeRow {
        n_tables,
        create_s,
        store_bytes,
        cold_open_s,
        rss_after_open,
        mapped_bytes: tier.mapped_bytes,
        resident_bytes: tier.resident_bytes,
        eager_open_s,
        rss_after_eager,
        paths,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    lcdd_tensor::pool::resolve_threads();

    let mut rows = vec![run_size(10_000, 20, true)];
    if !smoke {
        rows.push(run_size(100_000, 10, true));
        // 1M: fabrication + cold open + quantized-scan smoke only.
        rows.push(run_size(1_000_000, 5, false));
    }

    // The acceptance gate: deepest re-rank recall@10 ≥ 0.95 wherever the
    // exact ground truth was measured.
    for row in &rows {
        let deepest = row
            .paths
            .iter()
            .rfind(|p| p.label.starts_with("quant_rerank_"));
        if let (Some(p), true) = (deepest, row.eager_open_s.is_some()) {
            let recall = p.recall.expect("measured recall");
            assert!(
                recall >= 0.95,
                "{} tables: {} recall@{K} {recall:.3} < 0.95",
                row.n_tables,
                p.label
            );
        }
    }

    let size_json: Vec<String> = rows
        .iter()
        .map(|r| {
            let paths: Vec<String> = r
                .paths
                .iter()
                .map(|p| {
                    format!(
                        "        {{ \"path\": \"{}\", \"qps\": {:.2}, \"recall_at_{K}\": {}, \
                         \"slots_paged_per_query\": {:.1} }}",
                        p.label,
                        p.qps,
                        p.recall.map_or("null".into(), |x| format!("{x:.4}")),
                        p.slots_paged_per_query,
                    )
                })
                .collect();
            format!(
                "    {{\n      \"tables\": {},\n      \"fabricate_s\": {:.2},\n      \
                 \"store_bytes\": {},\n      \"cold_open_s\": {:.4},\n      \
                 \"rss_after_cold_open_bytes\": {},\n      \"mapped_bytes\": {},\n      \
                 \"resident_bytes\": {},\n      \"eager_open_s\": {},\n      \
                 \"rss_after_eager_open_bytes\": {},\n      \"paths\": [\n{}\n      ]\n    }}",
                r.n_tables,
                r.create_s,
                r.store_bytes,
                r.cold_open_s,
                r.rss_after_open,
                r.mapped_bytes,
                r.resident_bytes,
                r.eager_open_s.map_or("null".into(), |s| format!("{s:.4}")),
                r.rss_after_eager.map_or("null".into(), |b| b.to_string()),
                paths.join(",\n"),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"group\": \"bench_scale\",\n  \"k\": {K},\n  \"shards\": {N_SHARDS},\n  \
         \"sizes\": [\n{}\n  ]\n}}\n",
        size_json.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
    eprintln!("[bench_scale] wrote {out_path}");
    println!("{json}");
}
