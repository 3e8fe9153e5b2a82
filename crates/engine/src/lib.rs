//! # lcdd-engine
//!
//! The single public entry point for line-chart dataset discovery — the
//! paper's end-to-end system (extract → prune with the interval-tree ∩ LSH
//! hybrid index of Sec. VI → score survivors with FCM) behind one facade:
//!
//! ```text
//! EngineBuilder::new(model)      ingest: corpus tables
//!     .ingest(&repo)             encode: FCM dataset encoder (parallel)
//!     .build()?                  index:  interval tree + LSH
//!          |
//!          v
//! Engine::search(&Query, &SearchOptions) -> SearchResponse
//!          |                     query:  image | extracted | series
//!          v                     prune:  per-query IndexStrategy
//! SearchResponse { hits,         score:  FCM matcher over survivors
//!                  counts,       provenance: per-stage candidate counts
//!                  timings }     timings:    per-stage wall clock
//! ```
//!
//! The corpus is split across N [`EngineShard`]s (configure with
//! [`EngineBuilder::shards`]; redistribute live with [`Engine::reshard`]).
//! Search results are **identical for every shard count** — queries fan
//! out across shards on the shared work pool and merge top-k with
//! deterministic `(score, table_id, position)` tie-breaking, a guarantee
//! the shard-equivalence property suite enforces hit-for-hit.
//!
//! The corpus is **mutable**: [`Engine::insert_tables`] encodes only the
//! new tables (never the resident corpus) and updates the receiving
//! shard's index incrementally; [`Engine::remove_tables`] tombstones, and
//! shards compact automatically past a dead-slot threshold (or on demand
//! via [`Engine::compact`]).
//!
//! [`Engine::search_batch`] fans a query batch across the shared work
//! pool; [`Engine::save`] / [`Engine::load`] persist model weights and the
//! cached repository encodings together — one checksummed [`frame`] around
//! the same meta block and per-shard `LCDDSEG2` images ([`mapped`]) the
//! durable store writes, see [`persist`] — so a serving process restarts
//! without re-encoding the corpus; the index is rebuilt deterministically
//! from the restored bytes.
//!
//! **Concurrent serving** wraps the same machinery in a
//! [`ServingEngine`]: the corpus lives in an immutable, epoch-versioned
//! [`EngineState`] published through one `RwLock<Arc<EngineState>>`.
//! Reads go through [`ReadHalf`], which every leader flavor derefs to:
//! `search` / `search_batch` take `&self`, hold the read lock only to
//! clone the `Arc`, never wait for a write to apply, and always see
//! exactly one published epoch. A single writer applies insert / remove /
//! compact / reshard by building the next state from the cached
//! encodings (copy-on-write at shard granularity — no re-encode, no
//! stop-the-world) and swapping it in, all inside one critical section
//! ([`ServingEngine::write`]). An epoch-tagged query-result LRU
//! ([`cache::QueryCache`]) memoizes repeat queries and is invalidated by
//! each publish.
//!
//! Errors are surfaced as [`EngineError`] values — no panics on bad
//! configs, corrupt snapshots, empty or degenerate queries (blank images,
//! constant or NaN-laced series — fuzzed by the degenerate-query suite).
//! Production code in this crate is `unwrap`-free by construction (the
//! lint below is enforced in CI); tests keep `unwrap` where a backtrace
//! is the point.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod builder;
pub mod cache;
pub mod engine;
pub mod frame;
pub mod mapped;
pub mod persist;
pub mod serving;
pub mod shard;
pub mod state;
pub mod types;

pub use builder::{entries_from_tables, EngineBuilder};
pub use cache::{query_fingerprint, CacheStats, QueryCache, DEFAULT_CACHE_CAPACITY};
pub use engine::{Engine, TableMeta, DEFAULT_COMPACTION_THRESHOLD};
pub use lcdd_fcm::EngineError;
pub use lcdd_index::{CandidateSet, HybridConfig, IndexStrategy};
pub use persist::{EncodedSlot, EncodedTableBatch};
pub use serving::{ReadHalf, ServingEngine};
pub use shard::EngineShard;
pub use state::{EngineShared, EngineState};
pub use types::{
    Query, SearchHit, SearchOptions, SearchResponse, StageCounts, StageTimings, TierStats,
};
