//! The assembled FCM model: visual-element-extracted lines + candidate
//! table → `Rel'(V, T)`.
//!
//! Training and inference run different paths with the same bits.
//! Training ([`FcmModel::forward_logit`], [`crate::trainer`]) encodes and
//! matches on the autograd tape. Inference encodes tape-free:
//! [`FcmModel::encode_table_values`] / [`FcmModel::encode_table_with`]
//! at ingest and [`FcmModel::encode_query_values`] /
//! [`FcmModel::encode_query_with`] per query, stacking columns (lines)
//! into one operand per layer on the row-independent
//! `lcdd_tensor::kernels::rows_matmul`; scoring then runs on
//! [`crate::fastscore::QueryScorer`]. The tape encoders are the value
//! paths' oracle (`tests/encoder_parity.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use lcdd_table::Table;
use lcdd_tensor::{Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Process-wide count of dataset-encoder invocations (one per table passed
/// through [`FcmModel::encode_table_with`], which
/// [`FcmModel::encode_table_values`] and `encode_tables` call). Instrumentation for the
/// engine's delta-ingest guarantee: inserting a table batch must encode
/// exactly that batch, never the resident corpus.
static TABLE_ENCODE_CALLS: AtomicU64 = AtomicU64::new(0);

/// Reads the process-wide table-encode counter (see
/// [`FcmModel::encode_table_values`]). Monotonic; tests measure deltas
/// around an operation rather than absolute values.
pub fn table_encode_count() -> u64 {
    TABLE_ENCODE_CALLS.load(Ordering::Relaxed)
}

use lcdd_nn::TransformerScratch;

use crate::chart_encoder::ChartEncoder;
use crate::config::FcmConfig;
use crate::da::DaScratch;
use crate::dataset_encoder::DatasetEncoder;
use crate::input::{filter_columns, process_table, ProcessedQuery, ProcessedTable};
use crate::matcher::CrossModalMatcher;

/// Columns (or query lines) the value encoders stack into one operand.
/// Every step of those paths is row-local, so results do not depend on
/// it; it bounds [`EncodeScratch`]: at `FcmConfig::small()` a group of
/// four columns needs about 120 KiB, no buffer of it above 20 KiB.
pub(crate) const STACK: usize = 4;

/// Reusable buffers for the tape-free encoders
/// ([`FcmModel::encode_table_with`], [`FcmModel::encode_query_with`]):
/// one per worker, never shared between threads. Buffers are resized,
/// never shrunk, so once a scratch has encoded its widest input it stops
/// allocating.
#[derive(Clone, Debug, Default)]
pub struct EncodeScratch {
    /// The stacked column segments of one group.
    pub(crate) input: Vec<f32>,
    /// The stacked tokens, encoded in place.
    pub(crate) tokens: Vec<f32>,
    /// The plain segment projection (the DA residual).
    pub(crate) plain: Vec<f32>,
    pub(crate) da: DaScratch,
    pub(crate) transformer: TransformerScratch,
}

/// The Fine-grained Cross-modal Relevance Learning Model.
#[derive(Clone)]
pub struct FcmModel {
    pub config: FcmConfig,
    pub store: ParamStore,
    pub chart_encoder: ChartEncoder,
    pub dataset_encoder: DatasetEncoder,
    pub matcher: CrossModalMatcher,
}

impl FcmModel {
    /// Builds a freshly initialised model.
    pub fn new(config: FcmConfig) -> Self {
        config.validate();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let chart_encoder = ChartEncoder::new(&mut store, &mut rng, &config);
        let dataset_encoder = DatasetEncoder::new(&mut store, &mut rng, &config);
        let matcher = CrossModalMatcher::new(&mut store, &mut rng, &config);
        FcmModel {
            config,
            store,
            chart_encoder,
            dataset_encoder,
            matcher,
        }
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Training forward pass on a shared tape, producing the raw relevance
    /// logit: encodes the query lines, encodes the (range-filtered) columns
    /// and matches them.
    pub fn forward_logit(
        &self,
        tape: &Tape,
        query: &ProcessedQuery,
        table: &ProcessedTable,
    ) -> Var {
        let cols = filter_columns(table, query.y_range, self.config.range_slack);
        let ev = self
            .chart_encoder
            .encode_chart(&self.store, tape, &query.line_patches);
        let col_refs: Vec<&Matrix> = cols.iter().map(|&i| &table.column_segments[i]).collect();
        let et = self
            .dataset_encoder
            .encode_columns(&self.store, tape, &col_refs);
        self.matcher.relevance_logit(&self.store, tape, &ev, &et)
    }

    /// Inference forward pass: `Rel'(V, T)` as a probability.
    pub fn forward(&self, tape: &Tape, query: &ProcessedQuery, table: &ProcessedTable) -> Var {
        self.forward_logit(tape, query, table).sigmoid()
    }

    /// Convenience: score a raw [`Table`] (preprocesses it on the fly).
    pub fn score_table(&self, query: &ProcessedQuery, table: &Table) -> f32 {
        let pt = process_table(table, &self.config);
        let tape = Tape::new();
        self.forward(&tape, query, &pt).scalar()
    }

    /// Encodes the query lines once and returns their value matrices
    /// (`N1 x K` each) — used by the cached scoring path
    /// ([`crate::scoring`]). Tape-free, with the bits of the training
    /// path's `ChartEncoder::encode_line`.
    pub fn encode_query_values(&self, query: &ProcessedQuery) -> Vec<Matrix> {
        self.encode_query_with(query, &mut EncodeScratch::default())
    }

    /// [`Self::encode_query_values`] through a caller's scratch.
    pub fn encode_query_with(&self, query: &ProcessedQuery, sc: &mut EncodeScratch) -> Vec<Matrix> {
        self.chart_encoder
            .encode_chart_value(&self.store, &query.line_patches, sc)
    }

    /// Encodes every column of a preprocessed table and returns the value
    /// matrices (`N2 x K` each). Tape-free, with the bits of the training
    /// path's `DatasetEncoder::encode_column`.
    pub fn encode_table_values(&self, table: &ProcessedTable) -> Vec<Matrix> {
        self.encode_table_with(table, &mut EncodeScratch::default())
    }

    /// [`Self::encode_table_values`] through a caller's scratch: once the
    /// scratch has encoded a table at least as wide, only the returned
    /// matrices are allocated.
    pub fn encode_table_with(&self, table: &ProcessedTable, sc: &mut EncodeScratch) -> Vec<Matrix> {
        TABLE_ENCODE_CALLS.fetch_add(1, Ordering::Relaxed);
        self.dataset_encoder
            .encode_columns_value(&self.store, &table.column_segments, sc)
    }

    /// Matches cached query/table encodings (no re-encoding). `ev`/`et` are
    /// value matrices from [`FcmModel::encode_query_values`] /
    /// [`FcmModel::encode_table_values`]. `t_center` is the repository-mean
    /// pooled table embedding used to center the alignment term.
    pub fn match_cached_centered(
        &self,
        ev: &[Matrix],
        et: &[Matrix],
        t_center: Option<&Matrix>,
    ) -> f32 {
        assert!(
            !ev.is_empty() && !et.is_empty(),
            "match_cached: empty encodings"
        );
        let tape = Tape::new();
        let ev: Vec<Var> = ev.iter().map(|m| tape.leaf(m.clone())).collect();
        let et: Vec<Var> = et.iter().map(|m| tape.leaf(m.clone())).collect();
        let center = t_center.map(|c| tape.constant(c.clone()));
        self.matcher
            .relevance_logit_centered(&self.store, &tape, &ev, &et, center.as_ref())
            .sigmoid()
            .scalar()
    }

    /// Uncentered cached matching (kept for API compatibility and tests).
    pub fn match_cached(&self, ev: &[Matrix], et: &[Matrix]) -> f32 {
        self.match_cached_centered(ev, et, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::process_query;
    use lcdd_chart::{render, ChartStyle};
    use lcdd_table::series::{DataSeries, UnderlyingData};
    use lcdd_table::Column;
    use lcdd_vision::VisualElementExtractor;

    fn tiny_model() -> FcmModel {
        FcmModel::new(FcmConfig::tiny())
    }

    fn query_and_table() -> (ProcessedQuery, Table) {
        let values: Vec<f64> = (0..120).map(|i| (i as f64 / 10.0).sin() * 5.0).collect();
        let data = UnderlyingData {
            series: vec![DataSeries::new("s", values.clone())],
        };
        let chart = render(&data, &ChartStyle::default());
        let extracted = VisualElementExtractor::oracle().extract(&chart);
        let model_cfg = FcmConfig::tiny();
        let q = process_query(&extracted, &model_cfg);
        let table = Table::new(
            9,
            "t",
            vec![Column::new("a", values), Column::new("b", vec![100.0; 120])],
        );
        (q, table)
    }

    #[test]
    fn end_to_end_score_in_unit_interval() {
        let model = tiny_model();
        let (q, t) = query_and_table();
        let s = model.score_table(&q, &t);
        assert!((0.0..=1.0).contains(&s), "score {s}");
    }

    #[test]
    fn cached_matches_direct_scoring() {
        let model = tiny_model();
        let (q, t) = query_and_table();
        let pt = process_table(&t, &model.config);
        // Direct path filters columns by y-range; replicate for cached path.
        let cols = filter_columns(&pt, q.y_range, model.config.range_slack);
        let ev = model.encode_query_values(&q);
        let et_all = model.encode_table_values(&pt);
        let et: Vec<Matrix> = cols.iter().map(|&i| et_all[i].clone()).collect();
        let cached = model.match_cached(&ev, &et);
        let direct = model.score_table(&q, &t);
        assert!(
            (cached - direct).abs() < 1e-4,
            "cached {cached} vs direct {direct}"
        );
    }

    #[test]
    fn parameter_count_reported() {
        let model = tiny_model();
        assert!(model.num_parameters() > 1000);
    }

    #[test]
    fn deterministic_given_seed() {
        let m1 = tiny_model();
        let m2 = tiny_model();
        let (q, t) = query_and_table();
        assert_eq!(m1.score_table(&q, &t), m2.score_table(&q, &t));
    }
}
