//! The single-threaded serving handle: typed queries in, ranked +
//! attributed hits out.
//!
//! `Engine` is a thin owner of two parts:
//!
//! * [`EngineShared`] — the immutable serving configuration (trained
//!   model, index settings, extractor, chart style), behind the `Arc`
//!   that [`crate::ServingEngine`]'s readers share, and
//! * [`EngineState`] — the epoch-versioned corpus snapshot (shards +
//!   global order + pooled-mean centering reference) that all search and
//!   mutation logic lives on.
//!
//! Its `&mut self` mutators are the only corpus writes in the workspace.
//! `Engine` mutates its state in place (its shard `Arc`s are uniquely
//! owned, so copy-on-write never copies); queries need only `&self` and
//! the engine is `Sync`, so one instance serves concurrent reads.
//! [`crate::ServingEngine`] holds one `Engine` as its writer copy and runs
//! the same mutators inside [`crate::ServingEngine::write`], which
//! publishes the result; the durable store logs inside that same call.

use lcdd_fcm::{EngineError, FcmModel};
use lcdd_index::{CandidateSet, HybridConfig, IndexStrategy};
use lcdd_table::Table;
use lcdd_tensor::{pool, Matrix};
use lcdd_vision::{ExtractedChart, VisualElementExtractor};

use crate::shard::EngineShard;
use crate::state::{EngineShared, EngineState};
use crate::types::{Query, SearchOptions, SearchResponse};
use std::sync::Arc;

/// Identity of one ingested table, kept so hits can be attributed without
/// the raw table data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableMeta {
    pub id: u64,
    pub name: String,
}

/// Default tombstone fraction at which a shard is compacted automatically
/// during [`Engine::remove_tables`].
pub const DEFAULT_COMPACTION_THRESHOLD: f64 = 0.3;

/// The assembled search engine: a trained FCM model and N corpus shards
/// (cached encodings + hybrid index each), behind one `search` call.
///
/// Construction goes through [`crate::EngineBuilder`] (ingest → encode →
/// index) or [`Engine::load`] (snapshot restore). Queries need only `&self`
/// and the engine is `Sync`, so one instance serves concurrent reads;
/// [`Engine::search_batch`] fans a batch across the shared work pool.
/// Corpus mutation goes through [`Engine::insert_tables`] /
/// [`Engine::remove_tables`], which touch only the affected shards and
/// never re-encode resident tables. For lock-free serving *during*
/// mutation, wrap the engine in a [`crate::ServingEngine`].
pub struct Engine {
    /// Shared with every reader of a [`crate::ServingEngine`] built from
    /// this engine; never mutated once shared.
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) state: EngineState,
    /// Dead-slot fraction above which [`Engine::remove_tables`] compacts a
    /// shard automatically.
    pub(crate) compaction_threshold: f64,
}

impl Engine {
    /// Number of live ingested tables.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True when no live tables are ingested.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.state.shards.len()
    }

    /// The shards (read-only; slot-level accessors live on
    /// [`EngineShard`]).
    pub fn shards(&self) -> &[Arc<EngineShard>] {
        self.state.shards()
    }

    /// The current corpus state snapshot (epoch, order, shards).
    pub fn state(&self) -> &EngineState {
        &self.state
    }

    /// The mutation epoch of the current state (starts at 0, bumped by
    /// every corpus-changing call).
    pub fn epoch(&self) -> u64 {
        self.state.epoch()
    }

    /// The trained model serving this engine.
    pub fn model(&self) -> &FcmModel {
        &self.shared.model
    }

    /// Identity of the `i`-th live table in global ingest order.
    pub fn table_meta(&self, i: usize) -> &TableMeta {
        self.state.table_meta(i)
    }

    /// The hybrid-index configuration in effect.
    pub fn hybrid_config(&self) -> &HybridConfig {
        &self.shared.hybrid_cfg
    }

    /// The global repository-mean pooled table embedding (the matcher's
    /// centering reference).
    pub fn pooled_mean(&self) -> &Matrix {
        self.state.pooled_mean()
    }

    /// Replaces the visual element extractor (snapshots restore with the
    /// oracle extractor; serving raw [`Query::Chart`] images needs a
    /// trained one). By value, like [`crate::EngineBuilder::extractor`]:
    /// the extractor is configuration readers share, not a corpus write.
    pub fn with_extractor(mut self, extractor: VisualElementExtractor) -> Engine {
        // Only a serving engine shares the `Arc`, and it hands an engine
        // out by value only after dropping its own reference.
        Arc::get_mut(&mut self.shared)
            .expect("an engine held by value owns its configuration alone")
            .extractor = extractor;
        self
    }

    /// Sets the tombstone fraction at which [`Engine::remove_tables`]
    /// compacts a shard automatically (clamped to `[0, 1]`; `1.0`
    /// effectively disables auto-compaction).
    pub fn set_compaction_threshold(&mut self, frac: f64) {
        self.compaction_threshold = frac.clamp(0.0, 1.0);
    }

    /// The tombstone fraction at which [`Engine::remove_tables`] compacts a
    /// shard automatically.
    pub fn compaction_threshold(&self) -> f64 {
        self.compaction_threshold
    }

    // ---- mutation --------------------------------------------------------

    /// Ingests new tables into the live engine. Only the new tables are
    /// preprocessed and encoded (in parallel); resident tables are never
    /// re-encoded (asserted by `lcdd_fcm::table_encode_count` in the
    /// mutability test suite). Each table goes to the shard with the fewest
    /// live tables (ties to the lowest shard id), whose index is updated
    /// incrementally. Returns the global positions assigned to the new
    /// tables.
    ///
    /// ```
    /// use lcdd_engine::{EngineBuilder, Query, SearchOptions};
    /// use lcdd_fcm::{FcmConfig, FcmModel};
    /// use lcdd_table::{Column, Table};
    ///
    /// let mk = |id: u64| {
    ///     let vals: Vec<f64> = (0..64).map(|j| ((j + id as usize) as f64 / 5.0).sin()).collect();
    ///     Table::new(id, format!("t{id}"), vec![Column::new("c", vals)])
    /// };
    /// let mut engine = EngineBuilder::new(FcmModel::new(FcmConfig::tiny()))
    ///     .shards(2)
    ///     .ingest_tables([mk(0), mk(1)])
    ///     .build()
    ///     .unwrap();
    /// engine.insert_tables(vec![mk(2)]);
    /// assert_eq!(engine.len(), 3);
    /// assert_eq!(engine.remove_tables(&[1]), 1);
    /// assert_eq!(engine.len(), 2);
    /// ```
    pub fn insert_tables(&mut self, tables: Vec<Table>) -> Vec<usize> {
        self.state.insert_tables(&self.shared.model, tables)
    }

    /// Ingests an already-encoded batch (see [`crate::persist::encode_batch`])
    /// without touching the encoder — the WAL-replay counterpart of
    /// [`Engine::insert_tables`], with identical shard assignment.
    pub fn insert_encoded(&mut self, batch: crate::persist::EncodedTableBatch) -> Vec<usize> {
        self.state
            .insert_slots(batch.slots, self.shared.model.config.embed_dim)
    }

    /// Evicts every live table whose id is in `ids`. Removal tombstones the
    /// table in its owning shard (eager LSH eviction, interval tree
    /// filtered at query time); a shard whose tombstone fraction reaches
    /// the compaction threshold is compacted in place. Returns the number
    /// of tables removed. Unknown ids are ignored.
    pub fn remove_tables(&mut self, ids: &[u64]) -> usize {
        self.state.remove_tables(
            ids,
            self.compaction_threshold,
            self.shared.model.config.embed_dim,
        )
    }

    /// Compacts every shard holding tombstones, reclaiming dead slots and
    /// rebuilding the affected indexes over the live survivors. After
    /// compaction the engine is bit-identical (including snapshot bytes) to
    /// one freshly built over its live tables in the same order and shard
    /// layout.
    pub fn compact(&mut self) {
        self.state.compact(self.shared.model.config.embed_dim);
    }

    /// Redistributes the live corpus round-robin (in global order) across
    /// `n_shards` shards, rebuilding the per-shard indexes from the cached
    /// encodings — no table is re-encoded. Search results are identical for
    /// every shard count. Tombstoned slots are dropped in the process.
    pub fn reshard(&mut self, n_shards: usize) -> Result<(), EngineError> {
        self.state.reshard(
            n_shards,
            self.shared.model.config.embed_dim,
            &self.shared.hybrid_cfg,
        )
    }

    // ---- search ----------------------------------------------------------

    /// Answers one typed query.
    pub fn search(
        &self,
        query: &Query,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        self.state.search(&self.shared, query, opts)
    }

    /// Answers a pre-extracted query without going through [`Query`]
    /// (avoids cloning extractor output on hot adapter paths).
    pub fn search_extracted(
        &self,
        extracted: &ExtractedChart,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        self.state
            .search_extracted_timed(&self.shared, extracted, opts, 0.0)
    }

    /// Answers a batch of queries, fanned across the shared work pool
    /// (per-query candidate scoring then runs serially inside each worker
    /// — nested pool calls degrade gracefully).
    ///
    /// An empty `queries` slice is a defined no-op: the result is an empty
    /// vector, never an error.
    pub fn search_batch(
        &self,
        queries: &[Query],
        opts: &SearchOptions,
    ) -> Vec<Result<SearchResponse, EngineError>> {
        pool::par_map(queries, |q| self.search(q, opts))
    }

    /// The merged candidate set (with per-stage counts summed over shards)
    /// the indexes produce for a pre-extracted query under `strategy`,
    /// without scoring. Ids are global corpus positions. Exposed for index
    /// experiments and diagnostics.
    pub fn candidates(&self, extracted: &ExtractedChart, strategy: IndexStrategy) -> CandidateSet {
        self.state
            .candidates(&self.shared.model, extracted, strategy)
    }
}
