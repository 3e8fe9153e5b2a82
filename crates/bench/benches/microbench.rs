//! Criterion micro-benchmarks for the performance-shaped results: the
//! substrate kernels (Hungarian, rasterizer, extractor, encoders,
//! matcher) and the Table VIII index-query comparison (linear scan vs
//! interval tree vs LSH vs hybrid candidate generation). Matmul and DTW
//! shapes are timed by the `bench_kernels` bin (`BENCH_kernels.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcdd_chart::{render, ChartStyle};
use lcdd_fcm::scoring::{encode_repository, search_top_k};
use lcdd_fcm::{process_query, process_table, FcmConfig, FcmModel};
use lcdd_index::{HybridConfig, HybridIndex, IndexStrategy};
use lcdd_relevance::max_weight_matching;
use lcdd_table::series::{DataSeries, UnderlyingData};
use lcdd_table::{build_corpus, Column, CorpusConfig, Table};
use lcdd_vision::VisualElementExtractor;

fn series(n: usize, seed: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + seed) / 9.0).sin() * 3.0 + seed)
        .collect()
}

fn bench_batch_scoring(c: &mut Criterion) {
    // The cached linear-scan path Sec. VI's indexes prune: encode once,
    // then score every candidate per query.
    let model = FcmModel::new(FcmConfig::small());
    let tables: Vec<Table> = (0..48)
        .map(|i| {
            let vals: Vec<f64> = (0..120)
                .map(|j| ((j + i * 13) as f64 / 7.0).sin() * ((i % 5) + 1) as f64)
                .collect();
            Table::new(i as u64, format!("t{i}"), vec![Column::new("c", vals)])
        })
        .collect();
    let repo = encode_repository(&model, &tables);
    let data = UnderlyingData {
        series: vec![DataSeries::new("q", tables[7].columns[0].values.clone())],
    };
    let chart = render(&data, &ChartStyle::default());
    let query = process_query(
        &VisualElementExtractor::oracle().extract(&chart),
        &model.config,
    );

    let mut g = c.benchmark_group("batch_scoring");
    g.sample_size(10);
    g.bench_function("encode_repository_48", |bench| {
        bench.iter(|| encode_repository(&model, &tables))
    });
    g.bench_function("linear_scan_top8_of_48", |bench| {
        bench.iter(|| search_top_k(&model, &repo, &query, 8, None))
    });
    g.finish();
}

fn bench_hungarian(c: &mut Criterion) {
    let mut g = c.benchmark_group("hungarian");
    for n in [4usize, 8, 12] {
        let w: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 7 + j * 13) % 17) as f64).collect())
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &w, |bench, w| {
            bench.iter(|| max_weight_matching(w))
        });
    }
    g.finish();
}

fn bench_rasterizer_and_extractor(c: &mut Criterion) {
    let data = UnderlyingData {
        series: (0..4)
            .map(|k| DataSeries::new(format!("s{k}"), series(200, k as f64)))
            .collect(),
    };
    let style = ChartStyle::default();
    let mut g = c.benchmark_group("chart");
    g.bench_function("render_4_lines", |bench| {
        bench.iter(|| render(&data, &style))
    });
    let chart = render(&data, &style);
    let oracle = VisualElementExtractor::oracle();
    g.bench_function("extract_oracle", |bench| {
        bench.iter(|| oracle.extract(&chart))
    });
    g.finish();
}

fn bench_encoders_and_matcher(c: &mut Criterion) {
    let model = FcmModel::new(FcmConfig::small());
    let corpus = build_corpus(&CorpusConfig {
        n_records: 4,
        near_duplicate_rate: 0.0,
        ..Default::default()
    });
    let style = ChartStyle::default();
    let chart = lcdd_chart::render_record(&corpus[0].table, &corpus[0].spec, &style);
    let extracted = VisualElementExtractor::oracle().extract(&chart);
    let query = process_query(&extracted, &model.config);
    let table = process_table(&corpus[1].table, &model.config);

    let mut g = c.benchmark_group("fcm");
    g.sample_size(20);
    g.bench_function("encode_query", |bench| {
        bench.iter(|| model.encode_query_values(&query))
    });
    g.bench_function("encode_table", |bench| {
        bench.iter(|| model.encode_table_values(&table))
    });
    let ev = model.encode_query_values(&query);
    let et = model.encode_table_values(&table);
    g.bench_function("match_cached", |bench| {
        bench.iter(|| model.match_cached(&ev, &et))
    });
    g.finish();
}

fn bench_index_query(c: &mut Criterion) {
    // Table VIII's timing column in microbenchmark form: candidate
    // generation per strategy over a synthetic repository.
    let corpus = build_corpus(&CorpusConfig {
        n_records: 200,
        near_duplicate_rate: 0.0,
        ..Default::default()
    });
    let tables: Vec<lcdd_table::Table> = corpus.iter().map(|r| r.table.clone()).collect();
    let dim = 32;
    let embs: Vec<Vec<Vec<f32>>> = tables
        .iter()
        .map(|t| {
            (0..t.num_cols())
                .map(|ci| (0..dim).map(|d| ((ci * 31 + d * 7) as f32).sin()).collect())
                .collect()
        })
        .collect();
    let index = HybridIndex::build(&tables, &embs, dim, HybridConfig::default());
    let q_emb: Vec<Vec<f32>> = vec![(0..dim).map(|d| (d as f32 * 0.3).cos()).collect()];
    let range = Some((0.0, 50.0));

    let mut g = c.benchmark_group("index_query");
    for strategy in IndexStrategy::ALL {
        g.bench_function(strategy.name().replace(' ', "_"), |bench| {
            bench.iter(|| index.candidates(strategy, range, &q_emb))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_batch_scoring,
    bench_hungarian,
    bench_rasterizer_and_extractor,
    bench_encoders_and_matcher,
    bench_index_query
);
criterion_main!(benches);
