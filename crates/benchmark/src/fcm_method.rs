//! FCM wrapped as a [`DiscoveryMethod`], backed by [`lcdd_engine::Engine`]
//! (the index-accelerated variants of Table VIII are per-query
//! [`IndexStrategy`] overrides on the same engine), plus the training glue
//! from benchmark triplets.

use lcdd_baselines::{DiscoveryMethod, QueryInput};
use lcdd_engine::{Engine, EngineBuilder, EngineError, SearchOptions};
use lcdd_fcm::{
    process_query, train_with_callback, FcmModel, TrainConfig, TrainExample, TrainReport,
};
use lcdd_index::{HybridConfig, IndexStrategy};
use lcdd_table::RepoEntry;

use crate::builder::Benchmark;

/// FCM as a benchmark method: `prepare` builds an engine over the
/// repository (encodings + hybrid index), `rank` answers through
/// [`Engine::search_extracted`] with this method's strategy.
pub struct FcmMethod {
    pub model: FcmModel,
    engine: Option<Engine>,
    /// Index strategy used by [`DiscoveryMethod::rank`] — a per-query
    /// option on the engine, so flipping it never rebuilds anything.
    pub strategy: IndexStrategy,
    label: String,
}

impl FcmMethod {
    /// Wraps a trained model (linear-scan strategy by default).
    pub fn new(model: FcmModel) -> Self {
        FcmMethod {
            model,
            engine: None,
            strategy: IndexStrategy::NoIndex,
            label: "FCM".to_string(),
        }
    }

    /// Sets the index strategy used by [`DiscoveryMethod::rank`].
    pub fn with_strategy(mut self, strategy: IndexStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the method label reported to the evaluation runner
    /// (e.g. "FCM+Hybrid k=10" for engine-configured variants).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The engine built by `prepare`, if any.
    pub fn engine(&self) -> Option<&Engine> {
        self.engine.as_ref()
    }

    /// Mutable access to the prepared engine (the Table VIII shard sweep
    /// reshards it in place between measurement rows).
    pub fn engine_mut(&mut self) -> Option<&mut Engine> {
        self.engine.as_mut()
    }

    /// Candidate set produced by the current strategy for a query (exposed
    /// for the Table VIII experiment, which reports candidate counts).
    pub fn candidate_set(&self, query: &QueryInput) -> Option<Vec<usize>> {
        let engine = self.engine.as_ref()?;
        Some(engine.candidates(&query.extracted, self.strategy).ids)
    }

    fn search_options(&self, k: usize) -> SearchOptions {
        SearchOptions::top_k(k).with_strategy(self.strategy)
    }
}

impl DiscoveryMethod for FcmMethod {
    fn name(&self) -> &str {
        &self.label
    }

    fn prepare(&mut self, repo: &[RepoEntry]) {
        let engine = EngineBuilder::new(self.model.clone())
            .hybrid_config(HybridConfig::default())
            .ingest(repo)
            .build()
            .expect("FcmMethod: model config was validated at construction");
        self.engine = Some(engine);
    }

    fn score(&self, query: &QueryInput, entry: &RepoEntry) -> f64 {
        let pq = process_query(&query.extracted, &self.model.config);
        if pq.line_patches.is_empty() {
            return 0.0;
        }
        self.model.score_table(&pq, &entry.table) as f64
    }

    fn rank(&self, query: &QueryInput, repo: &[RepoEntry], k: usize) -> Vec<(usize, f64)> {
        let Some(engine) = &self.engine else {
            // Uncached fallback (prepare not called). A query with no
            // extractable lines ranks nothing, matching the engine path's
            // EmptyQuery rejection.
            let pq = process_query(&query.extracted, &self.model.config);
            if pq.line_patches.is_empty() {
                return Vec::new();
            }
            let mut scored: Vec<(usize, f64)> = repo
                .iter()
                .enumerate()
                .map(|(i, e)| (i, self.score(query, e)))
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            scored.truncate(k);
            return scored;
        };
        match engine.search_extracted(&query.extracted, &self.search_options(k)) {
            Ok(resp) => resp
                .hits
                .into_iter()
                .map(|h| (h.index, h.score as f64))
                .collect(),
            Err(EngineError::EmptyQuery) => Vec::new(),
            Err(e) => panic!("engine search failed: {e}"),
        }
    }
}

/// Builds FCM training examples from benchmark triplets (extractor applied
/// to each training chart exactly as at query time).
pub fn fcm_training_inputs(bench: &Benchmark, model: &FcmModel) -> Vec<TrainExample> {
    bench
        .train_triplets
        .iter()
        .filter_map(|t| {
            let extracted = match &bench.extractor {
                lcdd_vision::VisualElementExtractor::Oracle => bench.extractor.extract(&t.chart),
                lcdd_vision::VisualElementExtractor::Trained(_) => {
                    bench.extractor.extract_image(&t.chart.image)
                }
            };
            let query = process_query(&extracted, &model.config);
            if query.line_patches.is_empty() {
                return None; // extractor found no lines; skip the triplet
            }
            Some(TrainExample {
                query,
                underlying: t.underlying.clone(),
                positive: t.table_idx,
            })
        })
        .collect()
}

/// Trains an FCM model on a benchmark's train split.
pub fn train_fcm_on(
    bench: &Benchmark,
    model: &mut FcmModel,
    cfg: &TrainConfig,
    callback: impl FnMut(usize, f32, &FcmModel) -> f32,
) -> TrainReport {
    let examples = fcm_training_inputs(bench, model);
    train_with_callback(model, &examples, &bench.train_tables, cfg, callback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_benchmark, BenchmarkConfig};
    use lcdd_fcm::FcmConfig;

    #[test]
    fn prepare_and_rank_work() {
        let bench = build_benchmark(&BenchmarkConfig::tiny());
        let mut method = FcmMethod::new(FcmModel::new(FcmConfig::tiny()));
        method.prepare(&bench.repo);
        let ranked = method.rank(&bench.queries[0].input, &bench.repo, 5);
        assert_eq!(ranked.len(), 5);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn training_inputs_cover_triplets() {
        let bench = build_benchmark(&BenchmarkConfig::tiny());
        let model = FcmModel::new(FcmConfig::tiny());
        let inputs = fcm_training_inputs(&bench, &model);
        assert!(!inputs.is_empty());
        assert!(inputs.len() <= bench.train_triplets.len());
        for ex in &inputs {
            assert!(ex.positive < bench.train_tables.len());
        }
    }

    #[test]
    fn index_strategies_prune() {
        let bench = build_benchmark(&BenchmarkConfig::tiny());
        let mut method = FcmMethod::new(FcmModel::new(FcmConfig::tiny()));
        method.prepare(&bench.repo);
        method.strategy = IndexStrategy::IntervalOnly;
        let cands = method.candidate_set(&bench.queries[0].input).unwrap();
        assert!(cands.len() <= bench.repo.len());
        method.strategy = IndexStrategy::Hybrid;
        let hybrid = method.candidate_set(&bench.queries[0].input).unwrap();
        assert!(
            hybrid.len() <= cands.len(),
            "hybrid must prune at least as much"
        );
    }

    #[test]
    fn configurable_label_reaches_the_runner() {
        let bench = build_benchmark(&BenchmarkConfig::tiny());
        let mut method =
            FcmMethod::new(FcmModel::new(FcmConfig::tiny())).with_label("FCM+Hybrid k=3");
        let s = crate::runner::evaluate(&mut method, &bench);
        assert_eq!(s.method, "FCM+Hybrid k=3");
    }
}
