//! The typed query / options / response surface of the engine.

use lcdd_chart::RgbImage;
use lcdd_index::IndexStrategy;
use lcdd_table::series::{DataSeries, UnderlyingData};
use lcdd_vision::ExtractedChart;

/// A search query, in any of the three forms the paper's pipeline accepts.
#[derive(Clone, Debug)]
pub enum Query {
    /// A rendered chart image; the engine runs its visual element
    /// extractor. Requires a trained extractor (the oracle variant needs
    /// renderer masks that a raw image does not carry).
    Chart(RgbImage),
    /// Pre-extracted visual elements (the benchmark / adapter path — the
    /// extractor already ran upstream).
    Extracted(ExtractedChart),
    /// A raw numeric series sketch: the engine renders it with its chart
    /// style and extracts from the rendering, so a "find data like this"
    /// query needs no chart at all.
    Series(UnderlyingData),
}

impl Query {
    /// Convenience constructor for a [`Query::Series`] sketch from bare
    /// value vectors.
    pub fn from_series(series: Vec<Vec<f64>>) -> Query {
        Query::Series(UnderlyingData {
            series: series
                .into_iter()
                .enumerate()
                .map(|(i, values)| DataSeries::new(format!("s{i}"), values))
                .collect(),
        })
    }
}

/// Per-search knobs. `strategy` is honoured **per query** — no index
/// rebuild between strategies (Table VIII sweeps all four against one
/// engine).
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Number of hits to return. `k = 0` is a defined no-hit request: the
    /// search still runs (candidate generation, scoring, provenance
    /// counts and timings are all populated) but `hits` comes back empty
    /// — useful for pure index diagnostics. It is never an error.
    pub k: usize,
    /// Which pruning stages run for this query.
    pub strategy: IndexStrategy,
    /// Drop hits scoring below this threshold (post-ranking filter).
    pub min_score: Option<f32>,
    /// Quantized-scan re-rank budget. `Some(r)`: when the index stages
    /// leave more than `r` candidates, rank them all by an int8 proxy of
    /// the matcher's alignment term (centered pooled-embedding dot
    /// product — bytes per table instead of full f32 encodings, so cold
    /// tables are ranked without paging their blobs in) and hand only
    /// the top `r` survivors to the exact FCM matcher. `None` (the
    /// default): every candidate is scored exactly, as before.
    pub rerank: Option<usize>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            k: 10,
            strategy: IndexStrategy::Hybrid,
            min_score: None,
            rerank: None,
        }
    }
}

impl SearchOptions {
    /// Options with the given `k` and the default hybrid strategy
    /// (`k = 0` requests provenance only — see [`SearchOptions::k`]).
    pub fn top_k(k: usize) -> Self {
        SearchOptions {
            k,
            ..Default::default()
        }
    }

    /// Sets the index strategy.
    pub fn with_strategy(mut self, strategy: IndexStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the minimum score threshold.
    pub fn with_min_score(mut self, min_score: f32) -> Self {
        self.min_score = Some(min_score);
        self
    }

    /// Caps exact scoring at `r` candidates via the quantized pre-rank
    /// (see [`SearchOptions::rerank`]).
    pub fn with_rerank(mut self, r: usize) -> Self {
        self.rerank = Some(r);
        self
    }
}

/// One ranked hit.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchHit {
    /// Index into the ingested corpus.
    pub index: usize,
    /// The table's stable id.
    pub table_id: u64,
    /// The table's name.
    pub table_name: String,
    /// `Rel'(V, T)` from the FCM matcher, in `[0, 1]`.
    pub score: f32,
}

/// How many datasets survived each stage of the pipeline for one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Repository size.
    pub total: usize,
    /// Candidates after the interval-tree stage (`None` = stage inactive
    /// under the chosen strategy).
    pub after_interval: Option<usize>,
    /// Candidates after the LSH stage (`None` = stage inactive).
    pub after_lsh: Option<usize>,
    /// Candidates ranked by the int8 proxy scan (`None` = no re-rank
    /// budget was set or the candidate set already fit inside it).
    pub quant_scanned: Option<usize>,
    /// Candidates surviving the proxy scan into exact scoring (`None`
    /// under the same conditions as `quant_scanned`).
    pub reranked: Option<usize>,
    /// Candidates handed to (and scored by) the FCM matcher.
    pub scored: usize,
}

/// Where the corpus physically lives: the resident (hot) tier versus
/// mapped (cold) checkpoint segments, plus the demand-paging activity
/// since those segments were opened. Computed on demand from a single
/// published snapshot — reading it takes no locks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Tables served from resident (decoded) slots, dead slots included.
    pub resident_tables: u64,
    /// Tables served from mapped segments, dead slots included.
    pub mapped_tables: u64,
    /// Bytes of resident encoding matrices plus always-resident
    /// quantized proxies.
    pub resident_bytes: u64,
    /// Bytes of cold blob backing the mapped slots.
    pub mapped_bytes: u64,
    /// Slot encodings decoded from mapped segments since they were
    /// opened, one per decode.
    pub slots_paged_in: u64,
    /// Encoding bytes decoded from mapped segments since they were opened.
    pub bytes_paged_in: u64,
}

/// Wall-clock seconds spent in each stage of one search.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimings {
    /// Visual element extraction / series rendering (0 for pre-extracted
    /// queries).
    pub extract_s: f64,
    /// Query preprocessing + chart-encoder forward pass.
    pub encode_s: f64,
    /// Index candidate generation.
    pub prune_s: f64,
    /// FCM scoring of the surviving candidates.
    pub score_s: f64,
    /// End-to-end, including stages not broken out above.
    pub total_s: f64,
}

/// The engine's answer: ranked hits plus per-stage provenance and timings.
#[derive(Clone, Debug)]
pub struct SearchResponse {
    /// Hits, descending by score, at most `k`. Candidates scoring `NaN`
    /// (degenerate queries) are never surfaced as hits.
    pub hits: Vec<SearchHit>,
    /// Stage-by-stage candidate counts.
    pub counts: StageCounts,
    /// Stage-by-stage wall-clock timings.
    pub timings: StageTimings,
    /// The strategy that served this query.
    pub strategy: IndexStrategy,
    /// The corpus mutation epoch this response was computed against. A
    /// plain [`crate::Engine`] reports its current epoch; under
    /// [`crate::ServingEngine`] every response is internally consistent
    /// with exactly this one published snapshot (and a whole
    /// `search_batch` shares a single epoch).
    pub epoch: u64,
    /// True when the response was served from the epoch-tagged query
    /// cache rather than recomputed (timings are those of the original
    /// computation).
    pub cached: bool,
}

impl SearchResponse {
    /// The ranked corpus indices (most relevant first).
    pub fn ranked_indices(&self) -> Vec<usize> {
        self.hits.iter().map(|h| h.index).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builders_compose() {
        let o = SearchOptions::top_k(5)
            .with_strategy(IndexStrategy::NoIndex)
            .with_min_score(0.25);
        assert_eq!(o.k, 5);
        assert_eq!(o.strategy, IndexStrategy::NoIndex);
        assert_eq!(o.min_score, Some(0.25));
        assert_eq!(SearchOptions::default().strategy, IndexStrategy::Hybrid);
    }

    #[test]
    fn series_query_names_lines() {
        let q = Query::from_series(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        match q {
            Query::Series(d) => {
                assert_eq!(d.series.len(), 2);
                assert_eq!(d.series[0].name, "s0");
            }
            _ => panic!("expected series"),
        }
    }
}
