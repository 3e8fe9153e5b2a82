//! Evaluation runner: runs a [`DiscoveryMethod`] over a benchmark and
//! aggregates prec@k / ndcg@k with the paper's breakdowns (overall,
//! with/without DA, by number of lines M, by operator × window bucket).

use lcdd_baselines::DiscoveryMethod;
use lcdd_engine::{Engine, EngineError, SearchOptions};
use lcdd_table::corpus::m_bucket;
use lcdd_table::{AggOp, RepoEntry};

use crate::builder::{BenchQuery, Benchmark};
use crate::metrics::{mean, ndcg_at_k, precision_at_k};

/// prec@k + ndcg@k pair.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalResult {
    pub prec: f64,
    pub ndcg: f64,
    pub n_queries: usize,
}

/// Per-query record kept for breakdowns.
#[derive(Clone, Debug)]
pub struct PerQuery {
    pub prec: f64,
    pub ndcg: f64,
    pub num_lines: usize,
    pub agg: Option<(AggOp, usize)>,
    /// Wall-clock seconds spent ranking this query, measured inside the
    /// parallel evaluation pass — i.e. while sibling queries contend for
    /// the same cores. Comparable across methods/strategies evaluated the
    /// same way, but not a single-query-in-isolation latency; for
    /// throughput use [`EvalSummary::queries_per_second`].
    pub seconds: f64,
    /// Candidates the index handed to the scorer for this query (`None`
    /// when the method was evaluated through the generic
    /// [`DiscoveryMethod`] path, which has no provenance).
    pub candidates: Option<usize>,
}

/// Full evaluation summary.
#[derive(Clone, Debug)]
pub struct EvalSummary {
    /// Method label, owned so engine-configured variants (e.g.
    /// "FCM+Hybrid k=10") can be reported without leaking statics.
    pub method: String,
    pub per_query: Vec<PerQuery>,
    pub k: usize,
    /// Wall-clock seconds of the whole (parallel) evaluation pass.
    pub wall_seconds: f64,
}

impl EvalSummary {
    fn aggregate(rows: Vec<(&PerQuery, f64, f64)>) -> EvalResult {
        let precs: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let ndcgs: Vec<f64> = rows.iter().map(|r| r.2).collect();
        EvalResult {
            prec: mean(&precs),
            ndcg: mean(&ndcgs),
            n_queries: rows.len(),
        }
    }

    fn filter(&self, pred: impl Fn(&PerQuery) -> bool) -> EvalResult {
        Self::aggregate(
            self.per_query
                .iter()
                .filter(|q| pred(q))
                .map(|q| (q, q.prec, q.ndcg))
                .collect(),
        )
    }

    /// Overall effectiveness (Table II, "Overall").
    pub fn overall(&self) -> EvalResult {
        self.filter(|_| true)
    }

    /// DA-query effectiveness (Table II, "With DA").
    pub fn with_da(&self) -> EvalResult {
        self.filter(|q| q.agg.is_some())
    }

    /// Non-DA effectiveness (Table II, "Without DA").
    pub fn without_da(&self) -> EvalResult {
        self.filter(|q| q.agg.is_none())
    }

    /// Effectiveness for one M bucket (Table III rows).
    pub fn for_m_bucket(&self, bucket: &str) -> EvalResult {
        self.filter(|q| m_bucket(q.num_lines) == bucket)
    }

    /// prec@k for one operator within a window-size range (Table IV cells).
    pub fn for_agg(&self, op: AggOp, w_lo: usize, w_hi: usize) -> EvalResult {
        self.filter(|q| matches!(q.agg, Some((o, w)) if o == op && w >= w_lo && w < w_hi))
    }

    /// Mean ranking seconds per query (in-pass measurement; see
    /// [`PerQuery::seconds`] for what that includes).
    pub fn mean_query_seconds(&self) -> f64 {
        mean(&self.per_query.iter().map(|q| q.seconds).collect::<Vec<_>>())
    }

    /// End-to-end evaluation throughput: queries ranked per wall-clock
    /// second across the parallel pass.
    pub fn queries_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.per_query.len() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Mean candidate-set size per query (engine-evaluated summaries only;
    /// `None` when no query carried provenance).
    pub fn mean_candidates(&self) -> Option<f64> {
        let counts: Vec<f64> = self
            .per_query
            .iter()
            .filter_map(|q| q.candidates.map(|c| c as f64))
            .collect();
        if counts.is_empty() {
            None
        } else {
            Some(mean(&counts))
        }
    }
}

/// Evaluates one prepared method over the benchmark queries, parallelised
/// across queries on the shared work pool ([`DiscoveryMethod`] is `Sync`;
/// ranking never mutates). `prepare` must already have been called (use
/// [`evaluate`] for the full flow).
pub fn evaluate_prepared(
    method: &dyn DiscoveryMethod,
    queries: &[BenchQuery],
    repo: &[RepoEntry],
    k: usize,
) -> EvalSummary {
    let wall_start = std::time::Instant::now();
    let per_query: Vec<PerQuery> = lcdd_tensor::pool::par_map(queries, |q| {
        let start = std::time::Instant::now();
        let ranked: Vec<usize> = method
            .rank(&q.input, repo, k)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        let seconds = start.elapsed().as_secs_f64();
        PerQuery {
            prec: precision_at_k(&ranked, &q.relevant, k),
            ndcg: ndcg_at_k(&ranked, &q.relevant, k),
            num_lines: q.num_lines,
            agg: q.agg,
            seconds,
            candidates: None,
        }
    });
    EvalSummary {
        method: method.name().to_string(),
        per_query,
        k,
        wall_seconds: wall_start.elapsed().as_secs_f64(),
    }
}

/// Prepares the method on the repository, then evaluates every query.
pub fn evaluate(method: &mut dyn DiscoveryMethod, bench: &Benchmark) -> EvalSummary {
    method.prepare(&bench.repo);
    evaluate_prepared(method, &bench.queries, &bench.repo, bench.k_rel)
}

/// Evaluates an [`Engine`] directly over benchmark queries — the serving
/// path: each query goes through `search_extracted` under `opts` (fanned
/// across the work pool), and the per-stage provenance the engine reports
/// is kept in [`PerQuery::candidates`]. Queries the engine rejects as
/// empty rank nothing (scored as zero precision, like an empty `rank`).
pub fn evaluate_engine(
    engine: &Engine,
    label: impl Into<String>,
    queries: &[BenchQuery],
    opts: &SearchOptions,
) -> EvalSummary {
    let wall_start = std::time::Instant::now();
    let per_query: Vec<PerQuery> = lcdd_tensor::pool::par_map(queries, |q| {
        let start = std::time::Instant::now();
        let (ranked, seconds, candidates) = match engine.search_extracted(&q.input.extracted, opts)
        {
            Ok(resp) => (
                resp.ranked_indices(),
                resp.timings.total_s,
                Some(resp.counts.scored),
            ),
            // Rejected-as-empty queries still cost their (measured)
            // preprocessing time, keeping mean_query_seconds comparable
            // with the DiscoveryMethod path, which times every rank call.
            Err(EngineError::EmptyQuery) => (Vec::new(), start.elapsed().as_secs_f64(), Some(0)),
            Err(e) => panic!("engine evaluation failed: {e}"),
        };
        PerQuery {
            prec: precision_at_k(&ranked, &q.relevant, opts.k),
            ndcg: ndcg_at_k(&ranked, &q.relevant, opts.k),
            num_lines: q.num_lines,
            agg: q.agg,
            seconds,
            candidates,
        }
    });
    EvalSummary {
        method: label.into(),
        per_query,
        k: opts.k,
        wall_seconds: wall_start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_benchmark, BenchmarkConfig};
    use lcdd_baselines::QueryInput;

    /// Oracle method that ranks the ground truth first — sanity upper bound.
    struct Oracle<'a> {
        queries: &'a [BenchQuery],
    }
    impl DiscoveryMethod for Oracle<'_> {
        fn name(&self) -> &str {
            "oracle"
        }
        fn score(&self, _q: &QueryInput, _e: &RepoEntry) -> f64 {
            0.0
        }
        fn rank(&self, query: &QueryInput, _repo: &[RepoEntry], k: usize) -> Vec<(usize, f64)> {
            // Identify the query by pointer equality on the image buffer.
            let q = self
                .queries
                .iter()
                .find(|bq| std::ptr::eq(bq.input.image.pixels(), query.image.pixels()))
                .expect("query known");
            q.relevant.iter().take(k).map(|&i| (i, 1.0)).collect()
        }
    }

    /// Adversary that ranks nothing relevant.
    struct Worst;
    impl DiscoveryMethod for Worst {
        fn name(&self) -> &str {
            "worst"
        }
        fn score(&self, _q: &QueryInput, _e: &RepoEntry) -> f64 {
            0.0
        }
        fn rank(&self, _q: &QueryInput, repo: &[RepoEntry], k: usize) -> Vec<(usize, f64)> {
            // Rank backwards from the end; ground truth lives mostly at the
            // noisy-clone tail, so take from the front instead: use the
            // first k distractor indices (train tables are never relevant).
            (0..k.min(repo.len())).map(|i| (i, 0.0)).collect()
        }
    }

    #[test]
    fn oracle_scores_one_worst_scores_low() {
        let bench = build_benchmark(&BenchmarkConfig::tiny());
        let oracle = Oracle {
            queries: &bench.queries,
        };
        let s = evaluate_prepared(&oracle, &bench.queries, &bench.repo, bench.k_rel);
        let overall = s.overall();
        assert!((overall.prec - 1.0).abs() < 1e-12);
        assert!((overall.ndcg - 1.0).abs() < 1e-12);

        let worst = Worst;
        let s = evaluate_prepared(&worst, &bench.queries, &bench.repo, bench.k_rel);
        assert!(s.overall().prec < 0.5);
    }

    #[test]
    fn breakdowns_partition_queries() {
        let bench = build_benchmark(&BenchmarkConfig::tiny());
        let oracle = Oracle {
            queries: &bench.queries,
        };
        let s = evaluate_prepared(&oracle, &bench.queries, &bench.repo, bench.k_rel);
        let with_da = s.with_da().n_queries;
        let without = s.without_da().n_queries;
        assert_eq!(with_da + without, s.overall().n_queries);
        let m_total: usize = ["1", "2-4", "5-7", ">7"]
            .iter()
            .map(|b| s.for_m_bucket(b).n_queries)
            .sum();
        assert_eq!(m_total, s.overall().n_queries);
    }

    #[test]
    fn engine_evaluation_matches_method_path() {
        use crate::fcm_method::FcmMethod;
        use lcdd_fcm::{FcmConfig, FcmModel};
        use lcdd_index::IndexStrategy;

        let bench = build_benchmark(&BenchmarkConfig::tiny());
        let mut method = FcmMethod::new(FcmModel::new(FcmConfig::tiny()));
        let via_method = evaluate(&mut method, &bench);
        let engine = method.engine().expect("prepare built the engine");
        let opts = SearchOptions::top_k(bench.k_rel).with_strategy(IndexStrategy::NoIndex);
        let via_engine = evaluate_engine(engine, "FCM (engine)", &bench.queries, &opts);

        assert_eq!(via_engine.method, "FCM (engine)");
        assert_eq!(via_engine.per_query.len(), via_method.per_query.len());
        // Identical model + identical strategy -> identical metrics.
        for (a, b) in via_method.per_query.iter().zip(&via_engine.per_query) {
            assert_eq!(a.prec, b.prec);
            assert_eq!(a.ndcg, b.ndcg);
        }
        // The engine path carries provenance; the generic path does not.
        assert_eq!(
            via_engine.mean_candidates(),
            Some(bench.repo.len() as f64),
            "NoIndex scores the whole repository"
        );
        assert_eq!(via_method.mean_candidates(), None);
    }

    #[test]
    fn timing_recorded() {
        let bench = build_benchmark(&BenchmarkConfig::tiny());
        let oracle = Oracle {
            queries: &bench.queries,
        };
        let s = evaluate_prepared(&oracle, &bench.queries, &bench.repo, bench.k_rel);
        assert!(s.mean_query_seconds() >= 0.0);
    }
}
