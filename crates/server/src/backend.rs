//! What the gateway serves: a [`ServingEngine`] (in-memory), a
//! [`DurableEngine`] (WAL + checkpoints underneath), or a replication
//! [`Follower`] (read-only replica with staleness contracts).
//!
//! All three share the epoch-snapshot discipline: [`Backend::pin`]
//! captures one published [`EngineState`], consistency contracts are
//! checked against *that* snapshot's epoch, and
//! [`Backend::serve_batch`] answers the whole coalesced batch from it —
//! which is what makes the gateway's single-epoch-per-batch guarantee a
//! structural property rather than a timing accident. The corpus facts
//! `/healthz` and `/metrics` report (epoch, tables, shards, tier) are read
//! from one pin the same way, so no document mixes two publishes. Both
//! leader variants read through the one [`ReadHalf`] they deref to.

use std::sync::Arc;

use lcdd_engine::{
    CacheStats, EngineError, EngineState, Query, ReadHalf, SearchOptions, SearchResponse,
    ServingEngine,
};
use lcdd_repl::{Follower, ReadConsistency};
use lcdd_store::DurableEngine;
use lcdd_table::Table;

use crate::error::ApiError;

/// The engine variant behind the gateway.
pub enum Backend {
    /// Plain in-memory concurrent serving.
    Serving(Arc<ServingEngine>),
    /// Durable serving: writes are WAL-logged before they publish.
    Durable(Arc<DurableEngine>),
    /// A read-only replication follower.
    Replica(Arc<Follower>),
}

/// One pinned view of the corpus: the snapshot a whole coalesced batch is
/// served from, plus everything needed to evaluate staleness contracts
/// against exactly that view.
pub struct PinnedView {
    pub state: Arc<EngineState>,
    /// Leader epoch known at pin time (replica: last heartbeat; leader
    /// backends: the pinned epoch itself).
    pub leader_epoch: u64,
    /// The replica's live store at pin time — serving must go through the
    /// same store the snapshot came from, even across a resync swap.
    replica_store: Option<Arc<DurableEngine>>,
}

impl Backend {
    /// Stable name for health/metrics surfaces.
    pub fn kind(&self) -> &'static str {
        match self {
            Backend::Serving(_) => "serving",
            Backend::Durable(_) => "durable",
            Backend::Replica(_) => "replica",
        }
    }

    /// The leader's read half, or the follower for a replica (whose
    /// reads go through the store it serves at the moment).
    fn leader(&self) -> Result<&ReadHalf, &Follower> {
        match self {
            Backend::Serving(s) => Ok(s),
            Backend::Durable(d) => Ok(d),
            Backend::Replica(f) => Err(f),
        }
    }

    /// Captures the current published snapshot (a read lock held for one
    /// `Arc` clone; the replica also clones its store handle under a short
    /// generation lock).
    pub fn pin(&self) -> PinnedView {
        match self.leader() {
            Ok(reads) => {
                let state = reads.snapshot();
                PinnedView {
                    leader_epoch: state.epoch(),
                    state,
                    replica_store: None,
                }
            }
            Err(f) => {
                let store = f.store();
                PinnedView {
                    state: store.snapshot(),
                    leader_epoch: f.leader_epoch_seen(),
                    replica_store: Some(store),
                }
            }
        }
    }

    /// Checks one request's contract against a pinned view. Called by the
    /// batcher after pinning and before scoring, so an admitted request is
    /// guaranteed to be answered from an epoch that honours its contract.
    /// The check is gateway-side, so it applies to leader backends too
    /// (whose pins carry their own epoch as the leader's, so they never
    /// lag): an `AtLeastEpoch` token from an `/insert` response is
    /// honoured everywhere.
    pub fn check_consistency(
        &self,
        pin: &PinnedView,
        consistency: ReadConsistency,
    ) -> Result<(), ApiError> {
        let epoch = pin.state.epoch();
        match consistency.violation(epoch, pin.leader_epoch) {
            None => Ok(()),
            Some(violation) => Err(ApiError::stale(violation, epoch)),
        }
    }

    /// Serves one coalesced batch from the pinned snapshot, through the
    /// query cache, fanned over the shared work pool. Every `Ok` response
    /// carries `pin.state.epoch()`.
    pub fn serve_batch(
        &self,
        pin: &PinnedView,
        queries: &[Query],
        opts: &SearchOptions,
    ) -> Vec<Result<SearchResponse, EngineError>> {
        match (self.leader(), &pin.replica_store) {
            (Ok(reads), _) => reads.search_batch_at(&pin.state, queries, opts),
            (Err(_), Some(store)) => store.search_batch_at(&pin.state, queries, opts),
            // A replica pin always carries its store; fall back to the
            // live one rather than failing the batch.
            (Err(f), None) => f.store().search_batch_at(&pin.state, queries, opts),
        }
    }

    /// Query-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        match self.leader() {
            Ok(reads) => reads.cache_stats(),
            Err(f) => f.store().cache_stats(),
        }
    }

    /// Ingests tables; returns `(epoch_token, assigned_positions)`. The
    /// epoch token is taken after publish, so it is a valid
    /// read-your-writes `AtLeastEpoch` token even under concurrent
    /// writers. Replicas refuse (405).
    pub fn insert(&self, tables: Vec<Table>) -> Result<(u64, Vec<usize>), ApiError> {
        match self {
            Backend::Serving(s) => {
                let positions = s.insert_tables(tables);
                Ok((s.epoch(), positions))
            }
            Backend::Durable(d) => {
                let positions = d
                    .insert_tables(tables)
                    .map_err(|e| crate::error::from_engine_error(&e))?;
                Ok((d.epoch(), positions))
            }
            Backend::Replica(_) => Err(ApiError::read_only_replica()),
        }
    }

    /// Evicts tables by id; returns `(epoch_token, removed_count)`.
    pub fn remove(&self, ids: &[u64]) -> Result<(u64, usize), ApiError> {
        match self {
            Backend::Serving(s) => {
                let removed = s.remove_tables(ids);
                Ok((s.epoch(), removed))
            }
            Backend::Durable(d) => {
                let removed = d
                    .remove_tables(ids)
                    .map_err(|e| crate::error::from_engine_error(&e))?;
                Ok((d.epoch(), removed))
            }
            Backend::Replica(_) => Err(ApiError::read_only_replica()),
        }
    }

    /// WAL length in bytes, for backends that have one (the replica
    /// reports its own store's WAL).
    pub fn wal_len(&self) -> Option<u64> {
        match self {
            Backend::Serving(_) => None,
            Backend::Durable(d) => Some(d.wal_len()),
            Backend::Replica(f) => Some(f.store().wal_len()),
        }
    }

    /// Background-checkpoint health of the store underneath, when there
    /// is one: `(checkpoint queued or being written, logged ops no
    /// committed checkpoint covers yet, last checkpoint failure)`.
    pub fn checkpoint_health(&self) -> Option<(bool, u64, Option<String>)> {
        let health = |d: &DurableEngine| {
            (
                d.checkpoint_in_flight(),
                d.ops_since_checkpoint(),
                d.last_checkpoint_error(),
            )
        };
        match self {
            Backend::Serving(_) => None,
            Backend::Durable(d) => Some(health(d)),
            Backend::Replica(f) => Some(health(&f.store())),
        }
    }

    /// Replica-only health fields: `(leader_epoch_seen, lag, quarantine)`.
    pub fn replica_health(&self) -> Option<(u64, u64, Option<String>)> {
        match self {
            Backend::Replica(f) => Some((f.leader_epoch_seen(), f.lag(), f.quarantine_reason())),
            _ => None,
        }
    }
}
