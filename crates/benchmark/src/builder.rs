//! Benchmark construction (paper Sec. VII-A), end to end:
//!
//! 1. build the (synthetic) Plotly-like corpus,
//! 2. filter non-line-chart records and deduplicate near-identical tables,
//! 3. split into train / validation / test tables,
//! 4. for each test table generate two queries — one plain, one
//!    aggregation-based (random operator, window ~ U(2, min(100, NR/10))),
//! 5. inject `noise_copies` noisy clones (`C × σ`, `σ ~ U(0.9, 1.1)`) of
//!    every query's source table into the repository,
//! 6. ground truth = top-`k_rel` repository tables by `Rel(D, T)`.

use lcdd_baselines::QueryInput;
use lcdd_chart::{render, ChartStyle};
use lcdd_relevance::{rel_score, RelevanceConfig};
use lcdd_table::corpus::{build_corpus, CorpusConfig};
use lcdd_table::series::UnderlyingData;
use lcdd_table::{AggOp, Column, Record, RepoEntry, Table, VisSpec};
use lcdd_vision::{build_linechartseg, Lcseg, LcsegConfig, VisualElementExtractor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One benchmark query with ground truth.
pub struct BenchQuery {
    pub input: QueryInput,
    /// The underlying data the chart was drawn from (ground-truth only).
    pub underlying: UnderlyingData,
    /// Repository indices of the relevant tables (top-`k_rel` by Rel).
    pub relevant: Vec<usize>,
    /// Number of lines `M`.
    pub num_lines: usize,
    /// The aggregation that produced the chart, if any.
    pub agg: Option<(AggOp, usize)>,
    /// Repository index of the query's source table.
    pub source: usize,
}

/// One training triplet in raw form (methods preprocess as they need).
pub struct TrainTriplet {
    pub chart: lcdd_chart::Chart,
    pub underlying: UnderlyingData,
    /// Index into [`Benchmark::train_tables`].
    pub table_idx: usize,
    pub agg: Option<(AggOp, usize)>,
}

/// The assembled benchmark.
pub struct Benchmark {
    pub repo: Vec<RepoEntry>,
    pub queries: Vec<BenchQuery>,
    pub train_tables: Vec<Table>,
    pub train_triplets: Vec<TrainTriplet>,
    /// Corpus records backing the train split (LineNet/LCSeg training).
    pub train_records: Vec<Record>,
    pub extractor: VisualElementExtractor,
    pub style: ChartStyle,
    /// Ground-truth list size (`k` of prec@k / ndcg@k).
    pub k_rel: usize,
}

/// Benchmark scale parameters (`default()` is the fast CPU-scale setup;
/// the paper's scale is 3000 train / 1000 val / 100 query tables with 50
/// noise copies and k = 50).
#[derive(Clone, Debug)]
pub struct BenchmarkConfig {
    pub n_train: usize,
    pub n_distractors: usize,
    pub n_query_tables: usize,
    pub noise_copies: usize,
    pub k_rel: usize,
    /// Fraction of train triplets that additionally get a DA variant.
    pub train_da_fraction: f64,
    /// Fraction of train tables that additionally contribute a
    /// reverse-augmented table + triplet (paper Sec. IV-A augmentations,
    /// applied to the relevance-training data to widen shape coverage).
    pub train_augment_fraction: f64,
    /// Train the LCSeg extractor (true) or use oracle masks (false, faster
    /// for unit tests; experiments use true).
    pub train_extractor: bool,
    pub style: ChartStyle,
    pub rel_cfg: RelevanceConfig,
    pub seed: u64,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            n_train: 48,
            n_distractors: 40,
            n_query_tables: 12,
            noise_copies: 8,
            k_rel: 8,
            train_da_fraction: 0.5,
            train_augment_fraction: 0.75,
            train_extractor: true,
            style: ChartStyle::default(),
            rel_cfg: RelevanceConfig::default(),
            seed: 0xbe9c,
        }
    }
}

impl BenchmarkConfig {
    /// Smallest configuration for unit tests.
    pub fn tiny() -> Self {
        BenchmarkConfig {
            n_train: 8,
            n_distractors: 6,
            n_query_tables: 3,
            noise_copies: 3,
            k_rel: 3,
            train_extractor: false,
            ..Default::default()
        }
    }
}

/// Samples the paper's aggregation parameters: one of the four operators,
/// window uniform in `[2, min(100, NR / 10)]` (Sec. VII-A).
pub fn sample_aggregation(rng: &mut impl Rng, n_rows: usize) -> (AggOp, usize) {
    let op = AggOp::AGGREGATORS[rng.gen_range(0..AggOp::AGGREGATORS.len())];
    let max_w = (n_rows / 10).clamp(2, 100);
    (op, rng.gen_range(2..=max_w))
}

/// Injects multiplicative noise into every column: `C_new = C × σ`,
/// `σ_i ~ U(0.9, 1.1)` per cell (paper's ground-truth generation).
pub fn noisy_clone(table: &Table, id: u64, rng: &mut impl Rng) -> Table {
    let columns = table
        .columns
        .iter()
        .map(|c| {
            Column::new(
                c.name.clone(),
                c.values
                    .iter()
                    .map(|&v| v * rng.gen_range(0.9..1.1))
                    .collect(),
            )
        })
        .collect();
    Table::new(id, format!("{}~n{id}", table.name), columns)
}

/// Builds the benchmark.
pub fn build_benchmark(cfg: &BenchmarkConfig) -> Benchmark {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let total = cfg.n_train + cfg.n_distractors + cfg.n_query_tables;
    let corpus_cfg = CorpusConfig {
        n_records: total,
        near_duplicate_rate: 0.08,
        seed: cfg.seed ^ 0xc0ffee,
        ..Default::default()
    };
    // Dedup: drop near-duplicate fingerprints (the corpus builder appends
    // its duplicates after the base records).
    let mut seen = std::collections::HashSet::new();
    let mut records: Vec<Record> = Vec::with_capacity(total);
    for r in build_corpus(&corpus_cfg) {
        if seen.insert(r.table.fingerprint()) {
            records.push(r);
        }
    }
    assert!(
        records.len() >= total,
        "dedup removed too many records: {} < {total}",
        records.len()
    );
    records.truncate(total);

    let train_records: Vec<Record> = records[..cfg.n_train].to_vec();
    let query_records: Vec<Record> = records[cfg.n_train + cfg.n_distractors..].to_vec();

    // Extractor: trained LCSeg on the train split (with augmentations) or
    // oracle masks.
    let extractor = if cfg.train_extractor {
        let seg_train = build_linechartseg(
            &train_records[..train_records.len().min(12)],
            &cfg.style,
            1,
            cfg.seed ^ 0x5e6,
        );
        let (model, _) = Lcseg::train(&seg_train, &LcsegConfig::default());
        VisualElementExtractor::trained(model)
    } else {
        VisualElementExtractor::oracle()
    };

    // Repository: every corpus table (fresh sequential ids) + noise copies.
    let mut repo: Vec<RepoEntry> = records
        .iter()
        .map(|r| RepoEntry {
            table: r.table.clone(),
            spec: r.spec.clone(),
        })
        .collect();

    // Queries: two per query table (plain + DA).
    struct PendingQuery {
        input: QueryInput,
        underlying: UnderlyingData,
        num_lines: usize,
        agg: Option<(AggOp, usize)>,
        source: usize,
    }
    let mut pending: Vec<PendingQuery> = Vec::new();
    for (qi, record) in query_records.iter().enumerate() {
        let source = cfg.n_train + cfg.n_distractors + qi;
        // Noise copies of the source table enter the repository.
        for n in 0..cfg.noise_copies {
            let id = (repo.len() + n) as u64;
            let t = noisy_clone(&record.table, id, &mut rng);
            repo.push(RepoEntry {
                table: t,
                spec: record.spec.clone(),
            });
        }
        for aggregated in [false, true] {
            let spec = if aggregated {
                let (op, w) = sample_aggregation(&mut rng, record.table.num_rows());
                VisSpec {
                    agg: Some((op, w)),
                    ..record.spec.clone()
                }
            } else {
                record.spec.clone()
            };
            let underlying = UnderlyingData::from_spec(&record.table, &spec);
            let chart = render(&underlying, &cfg.style);
            let extracted = match &extractor {
                VisualElementExtractor::Oracle => extractor.extract(&chart),
                VisualElementExtractor::Trained(_) => extractor.extract_image(&chart.image),
            };
            pending.push(PendingQuery {
                input: QueryInput {
                    image: chart.image,
                    extracted,
                },
                num_lines: underlying.num_series(),
                underlying,
                agg: spec.agg.filter(|_| aggregated),
                source,
            });
        }
    }

    // Ground truth: top-k_rel by Rel(D, T) over the full repository,
    // parallelised across queries.
    let rel_cfg = cfg.rel_cfg;
    let k_rel = cfg.k_rel;
    let relevants: Vec<Vec<usize>> = lcdd_tensor::pool::par_map(&pending, |p| {
        let mut scored: Vec<(usize, f64)> = repo
            .iter()
            .enumerate()
            .map(|(ti, e)| (ti, rel_score(&p.underlying, &e.table, &rel_cfg)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k_rel);
        scored.into_iter().map(|(i, _)| i).collect()
    });

    let queries: Vec<BenchQuery> = pending
        .into_iter()
        .zip(relevants)
        .map(|(p, relevant)| BenchQuery {
            input: p.input,
            underlying: p.underlying,
            relevant,
            num_lines: p.num_lines,
            agg: p.agg,
            source: p.source,
        })
        .collect();

    // Train triplets: plain chart per train table, plus DA variants, plus
    // reverse-augmented tables (which join the training table pool with
    // their own triplets).
    let mut train_tables: Vec<Table> = train_records.iter().map(|r| r.table.clone()).collect();
    let mut train_triplets = Vec::new();
    for (ti, record) in train_records.iter().enumerate() {
        let underlying = UnderlyingData::from_spec(&record.table, &record.spec);
        let chart = render(&underlying, &cfg.style);
        train_triplets.push(TrainTriplet {
            chart,
            underlying,
            table_idx: ti,
            agg: None,
        });
        if rng.gen_bool(cfg.train_da_fraction) {
            let (op, w) = sample_aggregation(&mut rng, record.table.num_rows());
            let spec = VisSpec {
                agg: Some((op, w)),
                ..record.spec.clone()
            };
            let underlying = UnderlyingData::from_spec(&record.table, &spec);
            let chart = render(&underlying, &cfg.style);
            train_triplets.push(TrainTriplet {
                chart,
                underlying,
                table_idx: ti,
                agg: Some((op, w)),
            });
        }
        if rng.gen_bool(cfg.train_augment_fraction) {
            let aug = lcdd_table::augment::reverse(&record.table);
            let underlying = UnderlyingData::from_spec(&aug, &record.spec);
            let chart = render(&underlying, &cfg.style);
            let aug_idx = train_tables.len();
            train_tables.push(aug);
            train_triplets.push(TrainTriplet {
                chart,
                underlying,
                table_idx: aug_idx,
                agg: None,
            });
        }
    }

    Benchmark {
        repo,
        queries,
        train_tables,
        train_triplets,
        train_records,
        extractor,
        style: cfg.style.clone(),
        k_rel: cfg.k_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_consistent_benchmark() {
        let cfg = BenchmarkConfig::tiny();
        let b = build_benchmark(&cfg);
        // Repo: all corpus tables + noise copies per query table.
        assert_eq!(
            b.repo.len(),
            cfg.n_train
                + cfg.n_distractors
                + cfg.n_query_tables
                + cfg.n_query_tables * cfg.noise_copies
        );
        // Two queries (plain + DA) per query table.
        assert_eq!(b.queries.len(), 2 * cfg.n_query_tables);
        for q in &b.queries {
            assert_eq!(q.relevant.len(), cfg.k_rel);
            assert!(q.num_lines >= 1);
        }
        assert!(b.train_tables.len() >= cfg.n_train);
        assert!(b.train_triplets.len() >= cfg.n_train);
    }

    #[test]
    fn plain_query_ground_truth_contains_source_or_clone() {
        let b = build_benchmark(&BenchmarkConfig::tiny());
        for q in b.queries.iter().filter(|q| q.agg.is_none()) {
            // The source table or one of its noisy clones must be relevant
            // (they dominate Rel(D, T) by construction).
            let source_name = &b.repo[q.source].table.name;
            let hit = q.relevant.iter().any(|&ri| {
                let name = &b.repo[ri].table.name;
                ri == q.source || name.starts_with(&format!("{source_name}~n"))
            });
            assert!(hit, "no source/clone in ground truth for {source_name}");
        }
    }

    #[test]
    fn da_queries_flagged_with_operator() {
        let b = build_benchmark(&BenchmarkConfig::tiny());
        let da: Vec<_> = b.queries.iter().filter(|q| q.agg.is_some()).collect();
        assert_eq!(da.len(), b.queries.len() / 2);
        for q in da {
            let (op, w) = q.agg.unwrap();
            assert!(AggOp::AGGREGATORS.contains(&op));
            assert!(w >= 2);
        }
    }

    #[test]
    fn noisy_clone_perturbs_within_ten_percent() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Table::new(0, "t", vec![Column::new("a", vec![10.0; 50])]);
        let n = noisy_clone(&t, 1, &mut rng);
        for &v in &n.columns[0].values {
            assert!((9.0 - 1e-9..=11.0 + 1e-9).contains(&v));
        }
        assert_ne!(n.columns[0].values, t.columns[0].values);
    }

    #[test]
    fn aggregation_window_respects_row_count() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let (_, w) = sample_aggregation(&mut rng, 200);
            assert!((2..=20).contains(&w));
        }
    }
}
