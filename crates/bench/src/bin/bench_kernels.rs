//! Kernel benchmark emitter: measures the compute kernels at the shapes
//! their callers issue and writes `BENCH_kernels.json`.
//!
//! Coverage:
//! * training — one `train_step` at `FcmConfig::small()` (the per-example
//!   tape the trainer runs: a 1-line query against a positive and three
//!   negative 1-column tables, backward and one Adam update): µs and heap
//!   allocations per training example,
//! * candidate scoring — the exact scorer at `FcmConfig::small()` on 1-,
//!   2- and 4-column candidates: ns and heap allocations per candidate on
//!   the blocked path the engine runs (asserted allocation-free once its
//!   scratch is warm), and ns per candidate scored alone,
//! * encoders — `FcmModel::encode_table_with` on 1-, 2- and 4-column
//!   tables and `FcmModel::encode_query_with` on 1-, 2- and 3-line charts
//!   at `FcmConfig::small()`: µs and heap allocations per call on the
//!   tape-free path (through a warm scratch) and on the training tape
//!   path; asserts the two give the same bits and that the tape-free path
//!   allocates only the matrices it returns,
//! * DTW — full 128×128 and Sakoe-Chiba banded at 128 and 512,
//! * end-to-end query latency — linear-scan `search_top_k` over an encoded
//!   repository (the path Sec. VI's indexes prune).
//!
//! Usage: `cargo run --release --bin bench_kernels [-- out.json]`
//! (defaults to `BENCH_kernels.json` in the current directory).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lcdd_chart::{render, ChartStyle};
use lcdd_fcm::scoring::{encode_repository, search_top_k};
use lcdd_fcm::{
    process_query, process_table, train_step, EncodeScratch, FcmConfig, FcmModel, ProcessedQuery,
    ProcessedTable, QueryScorer, ScoreScratch, TrainConfig,
};
use lcdd_relevance::{dtw_distance, dtw_distance_banded};
use lcdd_table::series::{DataSeries, UnderlyingData};
use lcdd_table::{Column, Table};
use lcdd_tensor::{pool, Adam, Matrix, Tape};
use lcdd_vision::VisualElementExtractor;

/// Counts heap allocations (and reallocations) process-wide, so the
/// scoring section can report allocations per candidate.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic that allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Best-of-N wall time in nanoseconds for `f`, with enough repetitions to
/// be stable at small sizes.
fn time_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    // Calibrate repetition count to ~60ms per measurement pass.
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().as_nanos().max(1) as u64;
    let reps = (60_000_000 / once).clamp(1, 10_000);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

fn series(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + phase) / 9.0).sin() * 3.0 + phase)
        .collect()
}

/// Heap allocations `f` makes (the bench is single-threaded here).
fn allocations_of<O>(f: impl FnOnce() -> O) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// One encoder row: items per call (columns or lines), µs and allocations
/// per call on the tape-free path and on the tape path.
struct EncodeRow {
    items: usize,
    value_us: f64,
    tape_us: f64,
    value_allocs: u64,
    tape_allocs: u64,
}

/// Times `value` (through a scratch it warms first) against `tape`,
/// asserts both give the same bits and that a warm `value` call allocates
/// only the `items + 1` blocks of the `Vec<Matrix>` it returns.
fn encode_row(
    what: &str,
    items: usize,
    mut value: impl FnMut(&mut EncodeScratch) -> Vec<Matrix>,
    mut tape: impl FnMut() -> Vec<Matrix>,
) -> EncodeRow {
    let mut scratch = EncodeScratch::default();
    let got = value(&mut scratch);
    let want = tape();
    let bits = |ms: &[Matrix]| -> Vec<u32> {
        ms.iter()
            .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits()))
            .collect()
    };
    assert_eq!(
        bits(&got),
        bits(&want),
        "{what}: tape-free and tape encodings differ"
    );
    let value_allocs = allocations_of(|| value(&mut scratch));
    let tape_allocs = allocations_of(&mut tape);
    assert_eq!(
        value_allocs,
        items as u64 + 1,
        "{what}: a warm tape-free encode must allocate only its result"
    );
    let value_us = time_ns(|| value(&mut scratch)) / 1e3;
    let tape_us = time_ns(&mut tape) / 1e3;
    eprintln!(
        "[bench_kernels] {what}: tape-free {value_us:>7.1} us ({value_allocs} allocations), \
         tape {tape_us:>7.1} us ({tape_allocs} allocations), {:.1}x",
        tape_us / value_us
    );
    EncodeRow {
        items,
        value_us,
        tape_us,
        value_allocs,
        tape_allocs,
    }
}

fn encode_rows_json(key: &str, item: &str, rows: &[EncodeRow]) -> String {
    let mut json = format!("  \"{key}\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"{item}\": {}, \"value_us\": {:.1}, \"tape_us\": {:.1}, \"speedup\": {:.2}, \"value_allocations\": {}, \"tape_allocations\": {}}}{}\n",
            r.items,
            r.value_us,
            r.tape_us,
            r.tape_us / r.value_us,
            r.value_allocs,
            r.tape_allocs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json
}

fn json_escape_free_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    // Pin the pool's thread count before any parallel work: the count
    // freezes at first `par_*` touch, so resolving it up front guarantees
    // the value reported in the JSON is the value the benches ran with.
    eprintln!("[bench_kernels] pool threads: {}", pool::resolve_threads());

    let model = FcmModel::new(FcmConfig::small());

    // --- training step -----------------------------------------------------
    // The trainer's per-example tape: one query chart against its source
    // table and three negatives, every candidate one 200-value column.
    let train_tables: Vec<ProcessedTable> = (0..4usize)
        .map(|i| {
            let column = Column::new("c", series(200, (i * 13) as f64));
            process_table(
                &Table::new(i as u64, format!("t{i}"), vec![column]),
                &model.config,
            )
        })
        .collect();
    let data = UnderlyingData {
        series: vec![DataSeries::new("q", series(200, 0.0))],
    };
    let chart = render(&data, &ChartStyle::default());
    let train_query = process_query(
        &VisualElementExtractor::oracle().extract(&chart),
        &model.config,
    );
    let candidates: Vec<(&ProcessedTable, f32)> = train_tables
        .iter()
        .enumerate()
        .map(|(i, t)| (t, if i == 0 { 1.0 } else { 0.0 }))
        .collect();
    let train_cfg = TrainConfig::default();
    let mut train_model = FcmModel::new(FcmConfig::small());
    let mut opt = Adam::new(train_cfg.lr);
    let mut step = || {
        train_step(
            &mut train_model,
            &mut opt,
            &train_cfg,
            &train_query,
            &candidates,
        )
    };
    step(); // warm-up
    let train_allocs = allocations_of(&mut step);
    let train_us = time_ns(&mut step) / 1e3;
    eprintln!(
        "[bench_kernels] train step ({} query line, {} candidates): {train_us:>9.1} us, {train_allocs} allocations per example",
        train_query.line_patches.len(),
        candidates.len()
    );

    // --- candidate scoring ------------------------------------------------
    // The exact scorer as the engine runs it: one query against 64
    // candidates of 1, 2 or 4 columns (the shapes stackbench's corpus
    // cycles through), single-threaded, through one warm scratch. `alone`
    // is one `score_table` call per candidate, the path stackbench's
    // `core.score_us_per_table` times.
    let mut score_rows = Vec::new();
    for &n_cols in &[1usize, 2, 4] {
        let tables: Vec<Table> = (0..64usize)
            .map(|i| {
                let columns = (0..n_cols)
                    .map(|c| Column::new(format!("c{c}"), series(200, (i * 7 + c) as f64)))
                    .collect();
                Table::new(i as u64, format!("t{i}"), columns)
            })
            .collect();
        let repo = encode_repository(&model, &tables);
        let data = UnderlyingData {
            series: vec![DataSeries::new("q", tables[5].columns[0].values.clone())],
        };
        let chart = render(&data, &ChartStyle::default());
        let mut query = process_query(
            &VisualElementExtractor::oracle().extract(&chart),
            &model.config,
        );
        // Every column takes part: the row measures an n-column candidate.
        query.y_range = None;
        let ev = model.encode_query_values(&query);
        let scorer = QueryScorer::new(&model, &ev);
        let ids: Vec<usize> = (0..repo.len()).collect();
        let parts = |&i: &usize| (&repo.tables[i].column_ranges[..], &repo.encodings[i][..]);
        let mut scratch = ScoreScratch::default();
        let mut out = vec![0.0f32; ids.len()];
        let center = &repo.pooled_mean;
        // Warm-up: the scratch grows to this shape once.
        scorer.score_into(&ids, &query, center, &mut scratch, &mut out, parts);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        scorer.score_into(&ids, &query, center, &mut scratch, &mut out, parts);
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let allocs_per_candidate = allocs as f64 / ids.len() as f64;
        assert_eq!(
            allocs, 0,
            "scoring {n_cols}-column candidates allocated {allocs} times after warm-up"
        );
        let block_ns = time_ns(|| {
            scorer.score_into(&ids, &query, center, &mut scratch, &mut out, parts);
        }) / ids.len() as f64;
        let alone_ns = time_ns(|| {
            ids.iter()
                .map(|&i| scorer.score_table(&repo, &query, i, center))
                .sum::<f32>()
        }) / ids.len() as f64;
        eprintln!(
            "[bench_kernels] score {n_cols}-column candidates ({} query lines): {block_ns:>7.0} ns/candidate blocked, \
             {alone_ns:>7.0} ns alone, {allocs_per_candidate} allocations/candidate",
            ev.len()
        );
        score_rows.push((n_cols, ev.len(), block_ns, alone_ns, allocs_per_candidate));
    }

    // --- encoders -----------------------------------------------------------
    // Ingest and the query side as the engine runs them: one table (one
    // chart) per call through a warm scratch, against the tape path the
    // trainer runs.
    let mut table_rows = Vec::new();
    for &n_cols in &[1usize, 2, 4] {
        let columns = (0..n_cols)
            .map(|c| Column::new(format!("c{c}"), series(200, (c * 5) as f64)))
            .collect();
        let pt = process_table(&Table::new(0, "t", columns), &model.config);
        table_rows.push(encode_row(
            &format!("encode {n_cols}-column table"),
            n_cols,
            |sc| model.encode_table_with(&pt, sc),
            || {
                let tape = Tape::new();
                pt.column_segments
                    .iter()
                    .map(|c| {
                        model
                            .dataset_encoder
                            .encode_column(&model.store, &tape, c)
                            .0
                            .value()
                    })
                    .collect()
            },
        ));
    }
    let mut query_rows = Vec::new();
    for &n_lines in &[1usize, 2, 3] {
        let data = UnderlyingData {
            series: (0..n_lines)
                .map(|l| DataSeries::new(format!("l{l}"), series(120, (l * 11) as f64)))
                .collect(),
        };
        let chart = render(&data, &ChartStyle::default());
        let query: ProcessedQuery = process_query(
            &VisualElementExtractor::oracle().extract(&chart),
            &model.config,
        );
        assert_eq!(query.line_patches.len(), n_lines, "extractor lost a line");
        query_rows.push(encode_row(
            &format!("encode {n_lines}-line query"),
            n_lines,
            |sc| model.encode_query_with(&query, sc),
            || {
                let tape = Tape::new();
                query
                    .line_patches
                    .iter()
                    .map(|p| {
                        model
                            .chart_encoder
                            .encode_line(&model.store, &tape, p)
                            .value()
                    })
                    .collect()
            },
        ));
    }

    // --- DTW --------------------------------------------------------------
    let a128 = series(128, 0.0);
    let b128 = series(128, 2.0);
    let a512 = series(512, 0.0);
    let b512 = series(512, 2.0);
    let dtw_full_128_ns = time_ns(|| dtw_distance(&a128, &b128));
    let dtw_banded_128_ns = time_ns(|| dtw_distance_banded(&a128, &b128, 16));
    let dtw_banded_512_ns = time_ns(|| dtw_distance_banded(&a512, &b512, 16));
    eprintln!(
        "[bench_kernels] dtw: full128 {dtw_full_128_ns:.0} ns  banded128 {dtw_banded_128_ns:.0} ns  banded512 {dtw_banded_512_ns:.0} ns"
    );

    // --- end-to-end linear-scan query latency -----------------------------
    let n_tables = 96usize;
    let tables: Vec<Table> = (0..n_tables)
        .map(|i| {
            let vals: Vec<f64> = (0..120)
                .map(|j| ((j + i * 13) as f64 / 7.0).sin() * ((i % 5) + 1) as f64)
                .collect();
            Table::new(i as u64, format!("t{i}"), vec![Column::new("c", vals)])
        })
        .collect();
    let encode_start = Instant::now();
    let repo = encode_repository(&model, &tables);
    let encode_repo_ms = encode_start.elapsed().as_secs_f64() * 1e3;
    let data = UnderlyingData {
        series: vec![DataSeries::new("q", tables[7].columns[0].values.clone())],
    };
    let chart = render(&data, &ChartStyle::default());
    let query = process_query(
        &VisualElementExtractor::oracle().extract(&chart),
        &model.config,
    );
    let query_ns = time_ns(|| search_top_k(&model, &repo, &query, 8, None));
    eprintln!(
        "[bench_kernels] e2e: encode {n_tables} tables {encode_repo_ms:.0} ms, linear-scan query {:.2} ms ({:.1} queries/s)",
        query_ns / 1e6,
        1e9 / query_ns
    );

    // --- JSON -------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"generated_unix_secs\": {},\n",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    ));
    json.push_str(&format!("  \"pool_threads\": {},\n", pool::num_threads()));
    json.push_str(&format!(
        "  \"train_step\": {{\"query_lines\": {}, \"candidates\": {}, \"us_per_example\": {train_us:.1}, \"allocations_per_example\": {train_allocs}}},\n",
        train_query.line_patches.len(),
        candidates.len()
    ));
    json.push_str("  \"dtw\": {\n");
    json.push_str(&format!(
        "    \"full_128_ns\": {}, \"full_128_ops_per_sec\": {:.1},\n",
        json_escape_free_number(dtw_full_128_ns),
        1e9 / dtw_full_128_ns
    ));
    json.push_str(&format!(
        "    \"banded_128_r16_ns\": {}, \"banded_128_r16_ops_per_sec\": {:.1},\n",
        json_escape_free_number(dtw_banded_128_ns),
        1e9 / dtw_banded_128_ns
    ));
    json.push_str(&format!(
        "    \"banded_512_r16_ns\": {}, \"banded_512_r16_ops_per_sec\": {:.1}\n",
        json_escape_free_number(dtw_banded_512_ns),
        1e9 / dtw_banded_512_ns
    ));
    json.push_str("  },\n");
    json.push_str("  \"score_candidate\": [\n");
    for (i, &(cols, lines, block_ns, alone_ns, allocs)) in score_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"columns\": {cols}, \"query_lines\": {lines}, \"ns_per_candidate\": {}, \"alone_ns_per_candidate\": {}, \"allocations_per_candidate\": {allocs}}}{}\n",
            json_escape_free_number(block_ns),
            json_escape_free_number(alone_ns),
            if i + 1 < score_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&encode_rows_json("encode_table", "columns", &table_rows));
    json.push_str(&encode_rows_json("encode_query", "lines", &query_rows));
    json.push_str("  \"end_to_end\": {\n");
    json.push_str(&format!("    \"repo_tables\": {n_tables},\n"));
    json.push_str(&format!(
        "    \"encode_repository_ms\": {encode_repo_ms:.1},\n"
    ));
    json.push_str(&format!(
        "    \"linear_scan_query_ns\": {}, \"queries_per_sec\": {:.2}\n",
        json_escape_free_number(query_ns),
        1e9 / query_ns
    ));
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    eprintln!("[bench_kernels] wrote {out_path}");
    println!("{json}");
}
