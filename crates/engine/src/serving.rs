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
//! * **The writer** is one [`Engine`] behind one mutex — the writer copy.
//!   Every corpus write goes through [`ServingEngine::write`], the only
//!   critical section: it runs the write on the writer copy (copy-on-write
//!   at shard granularity — resident tables are never re-encoded and
//!   untouched shards are shared by pointer with older epochs), publishes
//!   the result atomically if the epoch moved, and on `Err` restores the
//!   writer copy from the published snapshot. `insert_tables` /
//!   `remove_tables` / `compact` / `reshard` are one-line calls of it, and
//!   the durable store logs inside it. In-flight queries keep serving
//!   from the epoch they started on.
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

use std::convert::Infallible;
use std::sync::{Arc, Mutex, PoisonError};

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
    /// The writer copy's configuration, shared with every reader.
    shared: Arc<EngineShared>,
    cell: ArcSwapCell<EngineState>,
    /// The writer copy. Readers never touch it; they see only what
    /// [`ServingEngine::write`] published into the cell. Between writes
    /// its state equals the published snapshot.
    writer: Mutex<Engine>,
    cache: QueryCache,
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
        ServingEngine {
            shared: Arc::clone(&engine.shared),
            cell: ArcSwapCell::new(Arc::new(engine.state.clone())),
            writer: Mutex::new(engine),
            cache: QueryCache::new(capacity),
        }
    }

    /// Tears the serving wrapper back down to a plain [`Engine`] (e.g. to
    /// snapshot with [`Engine::save`] or hand to single-threaded code).
    pub fn into_engine(self) -> Engine {
        self.writer
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
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

    /// The one corpus write: runs `f` on the writer copy under the writer
    /// lock, then publishes the copy atomically if its epoch moved —
    /// readers switch on their next snapshot and the query cache is
    /// invalidated (logically by the epoch tag, physically pruned here).
    /// If `f` returns `Err`, nothing is published and the writer copy is
    /// restored from the published snapshot, so a failed write leaves no
    /// trace: not in the corpus, not in the compaction threshold.
    ///
    /// Everything `f` does happens before its result is visible, which is
    /// what lets the durable store log a write inside `f` — after it is
    /// applied to the unpublished copy, before it is published. Readers
    /// never take this lock.
    pub fn write<T, E>(&self, f: impl FnOnce(&mut Engine) -> Result<T, E>) -> Result<T, E> {
        let mut engine = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch_before = engine.epoch();
        let threshold_before = engine.compaction_threshold;
        let out = f(&mut engine);
        if out.is_err() {
            engine.state = EngineState::clone(&self.cell.load());
            engine.compaction_threshold = threshold_before;
        } else if engine.epoch() != epoch_before {
            self.cell.store(Arc::new(engine.state.clone()));
            self.cache.prune_stale(engine.epoch());
        }
        out
    }

    /// [`ServingEngine::write`] for a write that cannot fail.
    fn apply<T>(&self, f: impl FnOnce(&mut Engine) -> T) -> T {
        let Ok(out) = self.write(|e| Ok::<_, Infallible>(f(e)));
        out
    }

    /// Ingests new tables without stopping reads: encodes only the delta,
    /// copy-on-write clones only the receiving shards, publishes the next
    /// epoch atomically. Returns the assigned global positions. See
    /// [`Engine::insert_tables`] for semantics.
    pub fn insert_tables(&self, tables: Vec<Table>) -> Vec<usize> {
        self.apply(|e| e.insert_tables(tables))
    }

    /// Evicts live tables by id without stopping reads. Returns the number
    /// removed. See [`Engine::remove_tables`] for semantics.
    pub fn remove_tables(&self, ids: &[u64]) -> usize {
        self.apply(|e| e.remove_tables(ids))
    }

    /// Compacts tombstoned shards without stopping reads.
    pub fn compact(&self) {
        self.apply(Engine::compact)
    }

    /// Redistributes the corpus across `n_shards` without stopping reads.
    pub fn reshard(&self, n_shards: usize) -> Result<(), EngineError> {
        self.write(|e| e.reshard(n_shards))
    }

    /// Sets the auto-compaction threshold for future removals (clamped to
    /// `[0, 1]`; see [`Engine::set_compaction_threshold`]).
    pub fn set_compaction_threshold(&self, frac: f64) {
        self.apply(|e| e.set_compaction_threshold(frac))
    }

    /// Writes the published state to a snapshot file (readable by
    /// [`Engine::load`]), atomically like [`Engine::save`] and without
    /// pausing readers or the writer.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), EngineError> {
        crate::persist::save_snapshot(&self.shared, &self.snapshot(), path.as_ref())
    }

    /// Writes `state` — a snapshot pinned from this engine by
    /// [`ServingEngine::snapshot`] — to a writer as one snapshot frame
    /// (readable by [`Engine::load_from`]). The state is immutable, so
    /// neither readers nor the writer wait for this.
    pub fn save_state_to<W: std::io::Write>(
        &self,
        state: &EngineState,
        w: W,
    ) -> Result<(), EngineError> {
        crate::persist::write_snapshot(&self.shared, state, w)
    }
}
