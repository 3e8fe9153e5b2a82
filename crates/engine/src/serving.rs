//! Lock-free concurrent serving: many readers, one logical writer, zero
//! stop-the-world.
//!
//! [`ServingEngine`] wraps the same model/state machinery as [`Engine`]
//! behind an epoch-versioned atomic-swap handle:
//!
//! * **Readers** ([`ServingEngine::search`] / `search_batch`) take `&self`,
//!   snapshot the current [`EngineState`] through the lock-free
//!   [`crate::swap::ArcSwapCell`], and run the whole query against that
//!   immutable snapshot. They never block on mutation, never observe a
//!   half-applied write, and every response reports the exact `epoch` it
//!   was served from.
//! * **The writer** (`insert_tables` / `remove_tables` / `compact` /
//!   `reshard`) serializes behind one mutex, builds the next state from
//!   the cached encodings (copy-on-write at shard granularity — resident
//!   tables are never re-encoded and untouched shards are shared by
//!   pointer with older epochs), and publishes it atomically. In-flight
//!   queries keep serving from the epoch they started on.
//! * **The query cache** memoizes successful responses keyed by a 128-bit
//!   content fingerprint and tagged with the serving epoch; a publish
//!   invalidates it wholesale (logically at once, physically pruned by the
//!   writer).
//!
//! ```
//! use lcdd_engine::{EngineBuilder, Query, SearchOptions, ServingEngine};
//! use lcdd_fcm::{FcmConfig, FcmModel};
//! use lcdd_table::{Column, Table};
//!
//! let mk = |id: u64| {
//!     let vals: Vec<f64> = (0..64).map(|j| ((j + id as usize) as f64 / 5.0).sin()).collect();
//!     Table::new(id, format!("t{id}"), vec![Column::new("c", vals)])
//! };
//! let engine = EngineBuilder::new(FcmModel::new(FcmConfig::tiny()))
//!     .ingest_tables([mk(0), mk(1)])
//!     .build()
//!     .unwrap();
//! let serving = ServingEngine::new(engine);
//! // `search` takes &self: share `serving` freely across threads.
//! let resp = serving
//!     .search(&Query::from_series(vec![vec![0.5; 64]]), &SearchOptions::top_k(1))
//!     .unwrap();
//! assert_eq!(resp.epoch, 0);
//! serving.insert_tables(vec![mk(2)]);
//! assert_eq!(serving.epoch(), 1);
//! assert_eq!(serving.len(), 3);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lcdd_fcm::{EngineError, FcmModel};
use lcdd_index::{CandidateSet, IndexStrategy};
use lcdd_table::Table;
use lcdd_tensor::pool;
use lcdd_vision::ExtractedChart;

use crate::cache::{query_fingerprint, CacheStats, QueryCache, DEFAULT_CACHE_CAPACITY};
use crate::engine::Engine;
use crate::state::{EngineShared, EngineState};
use crate::swap::ArcSwapCell;
use crate::types::{Query, SearchOptions, SearchResponse};

/// A concurrently servable engine: lock-free `&self` search over
/// atomically published, epoch-versioned state snapshots, with a single
/// serialized writer applying corpus mutations.
pub struct ServingEngine {
    shared: Arc<EngineShared>,
    cell: ArcSwapCell<EngineState>,
    /// The writer-side master copy of the state. Readers never touch it;
    /// they see only what `publish` pushed into the cell.
    writer: Mutex<EngineState>,
    cache: QueryCache,
    /// Auto-compaction threshold as `f64` bits — atomic so the getter is
    /// as lock-free as the rest of the read API (the durable write path
    /// reads it per eviction while already holding its own lock).
    compaction_threshold: AtomicU64,
}

impl ServingEngine {
    /// Wraps an engine for concurrent serving with the default query-cache
    /// capacity.
    pub fn new(engine: Engine) -> Self {
        Self::with_cache_capacity(engine, DEFAULT_CACHE_CAPACITY)
    }

    /// Wraps an engine, bounding the query-result cache at `capacity`
    /// entries (0 disables caching).
    pub fn with_cache_capacity(engine: Engine, capacity: usize) -> Self {
        let (shared, state, compaction_threshold) = engine.into_parts();
        ServingEngine {
            shared: Arc::new(shared),
            cell: ArcSwapCell::new(Arc::new(state.clone())),
            writer: Mutex::new(state),
            cache: QueryCache::new(capacity),
            compaction_threshold: AtomicU64::new(compaction_threshold.to_bits()),
        }
    }

    /// Tears the serving wrapper back down to a plain [`Engine`] (e.g. to
    /// snapshot with [`Engine::save`] or hand to single-threaded code).
    pub fn into_engine(self) -> Engine {
        let threshold = f64::from_bits(self.compaction_threshold.load(Ordering::Relaxed));
        let state = self
            .writer
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let Ok(shared) = Arc::try_unwrap(self.shared) else {
            // `shared` is never cloned out of the serving engine, so the
            // writer holding `self` by value owns the last reference.
            unreachable!("ServingEngine::into_engine: shared config is uniquely owned");
        };
        let mut engine = Engine::from_parts(shared, state);
        engine.set_compaction_threshold(threshold);
        engine
    }

    // ---- read side -------------------------------------------------------

    /// Snapshots the current corpus state. The snapshot is immutable and
    /// keeps serving consistently (same epoch, same results) no matter how
    /// many mutations land after this call.
    pub fn snapshot(&self) -> Arc<EngineState> {
        self.cell.load()
    }

    /// The epoch of the currently published state.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Number of live tables in the currently published state.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when the currently published state holds no live tables.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// The trained model serving this engine.
    pub fn model(&self) -> &FcmModel {
        &self.shared.model
    }

    /// Query-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Answers one typed query against the current snapshot. Lock-free
    /// with respect to the writer: holds no lock across extraction,
    /// encoding or scoring (the query cache takes its mutex only for O(1)
    /// map probes).
    pub fn search(
        &self,
        query: &Query,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        self.search_on(&self.snapshot(), query, opts)
    }

    /// Answers a batch of queries, fanned across the shared work pool.
    /// The whole batch is served from **one** snapshot: every response
    /// carries the same `epoch` even if a writer publishes mid-batch.
    pub fn search_batch(
        &self,
        queries: &[Query],
        opts: &SearchOptions,
    ) -> Vec<Result<SearchResponse, EngineError>> {
        self.search_batch_at(&self.snapshot(), queries, opts)
    }

    /// Answers a batch of queries against an explicitly pinned snapshot,
    /// fanned across the shared work pool and served **through the query
    /// cache** (unlike [`ServingEngine::search_at`], which bypasses it).
    /// The network gateway uses this to serve one coalesced wire batch
    /// from exactly one epoch *after* it has checked per-request staleness
    /// contracts against that same snapshot's epoch. Cache entries tagged
    /// with other epochs are epoch-checked as usual, so a pinned batch can
    /// neither read nor poison another epoch's entries.
    pub fn search_batch_at(
        &self,
        state: &Arc<EngineState>,
        queries: &[Query],
        opts: &SearchOptions,
    ) -> Vec<Result<SearchResponse, EngineError>> {
        // The pool's workers have their own thread-locals: capture the
        // caller's trace context (the gateway's batch trace) and
        // re-establish it inside each worker so engine stage spans land
        // under the batch span.
        let ctx = lcdd_obs::trace::current();
        pool::par_map(queries, |q| {
            lcdd_obs::trace::with_ctx(ctx, || self.search_on(state, q, opts))
        })
    }

    fn search_on(
        &self,
        state: &Arc<EngineState>,
        query: &Query,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        if !self.cache.is_enabled() {
            return state.search(&self.shared, query, opts);
        }
        let key = query_fingerprint(query, opts);
        let cache_probe = std::time::Instant::now();
        if let Some(resp) = self.cache.get(key, state.epoch()) {
            if let Some(ctx) = lcdd_obs::trace::current() {
                lcdd_obs::trace::ring().record(
                    ctx.trace,
                    ctx.parent,
                    lcdd_obs::trace::Stage::CacheHit,
                    cache_probe,
                    cache_probe.elapsed(),
                    None,
                    0,
                );
            }
            let mut resp = SearchResponse::clone(&resp);
            resp.cached = true;
            return Ok(resp);
        }
        let resp = state.search(&self.shared, query, opts)?;
        self.cache.put(key, state.epoch(), Arc::new(resp.clone()));
        Ok(resp)
    }

    /// Answers a query against a **pinned** snapshot (from
    /// [`ServingEngine::snapshot`]), regardless of how many epochs have
    /// been published since. Bypasses the query cache (which only serves
    /// the live epoch) — useful for repeatable reads, pagination over a
    /// frozen corpus view, or the concurrency test harness.
    pub fn search_at(
        &self,
        state: &EngineState,
        query: &Query,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        state.search(&self.shared, query, opts)
    }

    /// Candidate generation against the current snapshot (diagnostics).
    pub fn candidates(&self, extracted: &ExtractedChart, strategy: IndexStrategy) -> CandidateSet {
        self.snapshot()
            .candidates(&self.shared.model, extracted, strategy)
    }

    // ---- write side ------------------------------------------------------

    fn write(&self) -> MutexGuard<'_, EngineState> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes the writer's state if its epoch moved. Readers switch to
    /// the new epoch on their next snapshot; the query cache is
    /// invalidated (logically by the epoch tag, physically pruned here).
    fn publish(&self, state: &EngineState, epoch_before: u64) {
        if state.epoch() == epoch_before {
            return;
        }
        self.cell.store(Arc::new(state.clone()));
        self.cache.prune_stale(state.epoch());
    }

    /// Ingests new tables without stopping reads: encodes only the delta,
    /// copy-on-write clones only the receiving shards, publishes the next
    /// epoch atomically. Returns the assigned global positions. See
    /// [`Engine::insert_tables`] for semantics.
    pub fn insert_tables(&self, tables: Vec<Table>) -> Vec<usize> {
        let mut ws = self.write();
        let before = ws.epoch();
        let assigned = ws.insert_tables(&self.shared.model, tables);
        self.publish(&ws, before);
        assigned
    }

    /// Ingests an already-encoded batch (see
    /// [`crate::persist::encode_batch`]) without touching the encoder — the
    /// durable write path logs the batch to its WAL first, then splices
    /// exactly those bytes in here. Shard assignment is identical to
    /// [`ServingEngine::insert_tables`].
    pub fn insert_encoded(&self, batch: crate::persist::EncodedTableBatch) -> Vec<usize> {
        let mut ws = self.write();
        let before = ws.epoch();
        let assigned = ws.insert_slots(batch.slots, self.shared.model.config.embed_dim);
        self.publish(&ws, before);
        assigned
    }

    /// Evicts live tables by id without stopping reads. Returns the number
    /// removed. See [`Engine::remove_tables`] for semantics.
    pub fn remove_tables(&self, ids: &[u64]) -> usize {
        let threshold = self.compaction_threshold();
        let mut ws = self.write();
        let before = ws.epoch();
        let removed = ws.remove_tables(ids, threshold, self.shared.model.config.embed_dim);
        self.publish(&ws, before);
        removed
    }

    /// Compacts tombstoned shards without stopping reads.
    pub fn compact(&self) {
        let mut ws = self.write();
        let before = ws.epoch();
        ws.compact(self.shared.model.config.embed_dim);
        self.publish(&ws, before);
    }

    /// Redistributes the corpus across `n_shards` without stopping reads.
    pub fn reshard(&self, n_shards: usize) -> Result<(), EngineError> {
        let mut ws = self.write();
        let before = ws.epoch();
        let result = ws.reshard(
            n_shards,
            self.shared.model.config.embed_dim,
            &self.shared.hybrid_cfg,
        );
        self.publish(&ws, before);
        result
    }

    /// Overrides the published epoch counter — replication/recovery
    /// continuity only (the serving-side sibling of
    /// [`crate::persist::force_epoch`]). A follower replaying a leader's
    /// WAL records pins each applied epoch to the logged `epoch_after`, so
    /// replica and leader agree epoch-for-epoch even where apply semantics
    /// differ benignly (e.g. a logged `compact` that is a no-op on the
    /// already-compacted replica). Publishes atomically like any mutation;
    /// a no-op pin (same epoch) publishes nothing.
    pub fn pin_epoch(&self, epoch: u64) {
        let mut ws = self.write();
        let before = ws.epoch();
        ws.set_epoch(epoch);
        self.publish(&ws, before);
    }

    /// Sets the auto-compaction threshold for future removals (clamped to
    /// `[0, 1]`). Lock-free: takes effect for the next eviction.
    pub fn set_compaction_threshold(&self, frac: f64) {
        self.compaction_threshold
            .store(frac.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    /// The auto-compaction threshold currently in effect (the durable
    /// write path records it per eviction so replay compacts identically).
    /// Lock-free like the rest of the read API.
    pub fn compaction_threshold(&self) -> f64 {
        f64::from_bits(self.compaction_threshold.load(Ordering::Relaxed))
    }

    /// Writes the published state to a snapshot file (readable by
    /// [`Engine::load`]), atomically like [`Engine::save`] and without
    /// pausing readers or the writer.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), EngineError> {
        crate::persist::save_snapshot(&self.shared, &self.snapshot(), path.as_ref())
    }
}
