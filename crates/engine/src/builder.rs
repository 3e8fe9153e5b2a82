//! Ingest → encode → shard → index: corpus in, [`Engine`] out.

use lcdd_chart::ChartStyle;
use lcdd_fcm::{encode_tables, EngineError, FcmConfig, FcmModel};
use lcdd_index::HybridConfig;
use lcdd_table::{RepoEntry, Table, VisSpec};
use lcdd_vision::VisualElementExtractor;
use std::sync::Arc;

use crate::engine::{Engine, DEFAULT_COMPACTION_THRESHOLD};
use crate::shard::{EngineShard, SlotData};
use crate::state::{EngineShared, EngineState};

/// Builds an [`Engine`] from a model and a corpus. The expensive steps
/// (parallel repository encoding, index construction) run once in
/// [`EngineBuilder::build`]; afterwards — or after [`Engine::load`] — no
/// query ever re-encodes the repository, and live mutation
/// ([`Engine::insert_tables`] / [`Engine::remove_tables`]) encodes only its
/// delta.
pub struct EngineBuilder {
    model: FcmModel,
    hybrid: HybridConfig,
    extractor: VisualElementExtractor,
    style: ChartStyle,
    tables: Vec<Table>,
    n_shards: usize,
}

impl EngineBuilder {
    /// Starts from an already-constructed (typically trained) model.
    pub fn new(model: FcmModel) -> Self {
        EngineBuilder {
            model,
            hybrid: HybridConfig::default(),
            extractor: VisualElementExtractor::oracle(),
            style: ChartStyle::default(),
            tables: Vec::new(),
            n_shards: 1,
        }
    }

    /// Starts from a config, constructing a fresh (untrained) model.
    /// Invalid configs are reported instead of panicking.
    pub fn from_config(config: FcmConfig) -> Result<Self, EngineError> {
        config.validated()?;
        Ok(Self::new(FcmModel::new(config)))
    }

    /// Overrides the hybrid-index configuration (default: the paper's
    /// Table VIII settings).
    pub fn hybrid_config(mut self, cfg: HybridConfig) -> Self {
        self.hybrid = cfg;
        self
    }

    /// Sets the shard count (default 1). Tables are assigned round-robin
    /// in ingest order; search results are identical for every shard count
    /// (the shard-equivalence property suite enforces this), so the choice
    /// only affects mutation granularity and fan-out.
    pub fn shards(mut self, n_shards: usize) -> Self {
        self.n_shards = n_shards;
        self
    }

    /// Sets the visual element extractor used for [`crate::Query::Chart`]
    /// image queries (default: oracle, which serves only pre-extracted and
    /// series queries).
    pub fn extractor(mut self, extractor: VisualElementExtractor) -> Self {
        self.extractor = extractor;
        self
    }

    /// Sets the chart style [`crate::Query::Series`] sketches are rendered
    /// with.
    pub fn chart_style(mut self, style: ChartStyle) -> Self {
        self.style = style;
        self
    }

    /// Ingests repository entries (appends; call repeatedly to ingest in
    /// batches).
    pub fn ingest(self, entries: &[RepoEntry]) -> Self {
        self.ingest_tables(entries.iter().map(|e| e.table.clone()))
    }

    /// Ingests bare tables.
    pub fn ingest_tables(mut self, tables: impl IntoIterator<Item = Table>) -> Self {
        self.tables.extend(tables);
        self
    }

    /// Encodes the corpus with the FCM dataset encoder (in parallel on the
    /// shared work pool), distributes it round-robin across the shards and
    /// constructs each shard's hybrid index.
    pub fn build(self) -> Result<Engine, EngineError> {
        self.model.config.validated()?;
        if self.n_shards == 0 {
            return Err(EngineError::InvalidConfig(
                "shards: shard count must be at least 1".into(),
            ));
        }
        let (processed, encodings) = encode_tables(&self.model, &self.tables);
        let mut per_shard: Vec<Vec<SlotData>> = (0..self.n_shards).map(|_| Vec::new()).collect();
        let mut order = Vec::with_capacity(self.tables.len());
        for (i, ((table, pt), enc)) in self.tables.iter().zip(processed).zip(encodings).enumerate()
        {
            let target = i % self.n_shards;
            order.push((target as u32, per_shard[target].len() as u32));
            per_shard[target].push(SlotData::from_encoded(table, pt.column_ranges, enc));
        }
        let embed_dim = self.model.config.embed_dim;
        let shards: Vec<EngineShard> = per_shard
            .into_iter()
            .map(|slots| EngineShard::from_slots(slots, embed_dim, self.hybrid.clone()))
            .collect();
        let state = EngineState::from_shards(shards, order, embed_dim);
        let shared = EngineShared {
            model: self.model,
            hybrid_cfg: self.hybrid,
            extractor: self.extractor,
            style: self.style,
        };
        Ok(Engine {
            shared: Arc::new(shared),
            state,
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
        })
    }
}

/// Wraps bare tables as [`RepoEntry`] values with plain one-line-per-column
/// specs (for callers that only have tables).
pub fn entries_from_tables(tables: Vec<Table>) -> Vec<RepoEntry> {
    tables
        .into_iter()
        .map(|table| {
            let cols: Vec<usize> = (0..table.columns.len()).collect();
            RepoEntry {
                spec: VisSpec::plain(cols),
                table,
            }
        })
        .collect()
}
