//! The applying (follower) half of replication.
//!
//! A [`Follower`] owns a full [`DurableEngine`] of its own — every
//! shipped record is logged to the replica's WAL before it is published,
//! so a follower restart recovers through exactly the PR 5 machinery
//! (newest-valid manifest, WAL replay, torn-tail truncation) and then
//! resumes streaming from its recovered epoch. Insert records carry the
//! leader's already-encoded batches; applying them never invokes the
//! encoder (`lcdd_fcm::table_encode_count` stays flat on a replica).
//!
//! ## Generations
//!
//! The replica's store lives in a *generation* subdirectory
//! (`<root>/gen-<n>`). Every store a follower serves is installed the
//! same way: the engine is written as a fresh store
//! ([`DurableEngine::create`], manifest last) and then opened with the
//! follower's own [`StoreOptions`]. A snapshot resync installs into
//! `gen-<n+1>` and only switches over once the new store opens cleanly —
//! a crash mid-install leaves a directory without a manifest, which
//! [`Follower::open`] skips and sweeps, falling back to the previous
//! generation.
//! This is also what makes divergence handling safe: a stale generation
//! with a *higher* epoch (a demoted ex-leader's leftovers) can never
//! shadow the freshly installed truth, because generation order, not
//! epoch order, picks the live store.
//!
//! ## Quarantine
//!
//! A frame that fails its checksum, does not decode, or carries a batch
//! that does not parse **quarantines** the follower: streaming frames
//! are refused (typed errors, never a panic, never a partially-applied
//! record) until a [`Frame::Snapshot`] resync arrives. Epoch *gaps* —
//! lost frames — are not corruption and do not quarantine; they surface
//! as [`FrameOutcome::Gap`] so the driver can resume the leader's cursor
//! from the replica's real epoch.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use lcdd_engine::{persist, Engine, Query, SearchOptions, SearchResponse};
use lcdd_fcm::EngineError;
use lcdd_store::{DurableEngine, RecoveryReport, ReplicatedApply, StoreOptions, WalRecord};

use crate::frame::Frame;
use crate::instruments;

/// Explicit staleness contract for a read — on a replica, and at the
/// gateway for every backend (a leader is its own leader, so it never
/// lags).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadConsistency {
    /// Serve whatever the replica has (maximum availability).
    Any,
    /// Read-your-writes: the caller holds an epoch token from the leader
    /// (the epoch its write published at) and the replica must have
    /// caught up to it.
    AtLeastEpoch(u64),
    /// Bounded staleness: the replica may trail the leader's last
    /// heartbeat by at most this many epochs.
    BoundedLag(u64),
}

impl ReadConsistency {
    /// Checks the contract against a view serving `epoch` while the
    /// leader is known to be at `leader_epoch`. Returns the violation, in
    /// words, when the view cannot honour it.
    pub fn violation(self, epoch: u64, leader_epoch: u64) -> Option<String> {
        match self {
            ReadConsistency::Any => None,
            ReadConsistency::AtLeastEpoch(token) => (epoch < token)
                .then(|| format!("serving epoch {epoch} is behind the requested token {token}")),
            ReadConsistency::BoundedLag(max_lag) => {
                let lag = leader_epoch.saturating_sub(epoch);
                (lag > max_lag)
                    .then(|| format!("replica lags the leader by {lag} epochs (max {max_lag})"))
            }
        }
    }
}

/// What applying one received frame did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameOutcome {
    /// A record advanced the replica to this epoch.
    Applied(u64),
    /// A record at or below the replica's epoch — duplicate delivery,
    /// skipped.
    Duplicate,
    /// A heartbeat; the replica now knows the leader is at this epoch.
    Heartbeat(u64),
    /// A snapshot resync installed and opened; the replica is at this
    /// epoch (and no longer quarantined).
    Resynced(u64),
    /// A record skipped ahead of the replica (frames were lost). Nothing
    /// was applied; the driver should re-attach the leader's cursor at
    /// the replica's epoch.
    Gap { expected: u64, got: u64 },
}

/// Counters the robustness suites assert on.
#[derive(Clone, Copy, Debug, Default)]
pub struct FollowerStats {
    pub applied: u64,
    pub duplicates: u64,
    pub gaps: u64,
    pub resyncs: u64,
    pub quarantines: u64,
}

/// The applying half of replication; see the module docs.
pub struct Follower {
    root: PathBuf,
    opts: StoreOptions,
    state: Mutex<FollowerState>,
    /// Leader epoch from the most recent heartbeat (0 until one arrives).
    leader_epoch_seen: AtomicU64,
}

struct FollowerState {
    generation: u64,
    store: Arc<DurableEngine>,
    quarantined: Option<String>,
    stats: FollowerStats,
}

fn gen_dir(root: &Path, generation: u64) -> PathBuf {
    root.join(format!("gen-{generation:04}"))
}

fn parse_gen(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.parse().ok()
}

/// The one install path: writes `engine` as a fresh store at `dir`
/// through [`DurableEngine::create`] (so `opts.fault` applies, and the
/// manifest — the commit point — is written last), then opens it with
/// `opts` (so `opts.cold_open` applies).
fn install(dir: &Path, engine: Engine, opts: &StoreOptions) -> Result<DurableEngine, EngineError> {
    drop(DurableEngine::create(dir, engine, opts.clone())?);
    Ok(DurableEngine::open(dir, opts.clone())?.0)
}

impl Follower {
    /// Bootstraps a replica at `root` around `engine`, which must match
    /// the leader's corpus at `engine.epoch()`, where streaming starts: a
    /// copy of the leader's seed engine, or the leader's snapshot
    /// ([`DurableEngine::export_snapshot`], loaded and pinned to the
    /// exported epoch with [`persist::force_epoch`]).
    pub fn create(
        root: impl AsRef<Path>,
        engine: Engine,
        opts: StoreOptions,
    ) -> Result<Follower, EngineError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let store = install(&gen_dir(&root, 0), engine, &opts)?;
        Ok(Follower {
            root,
            opts,
            state: Mutex::new(FollowerState {
                generation: 0,
                store: Arc::new(store),
                quarantined: None,
                stats: FollowerStats::default(),
            }),
            leader_epoch_seen: AtomicU64::new(0),
        })
    }

    /// Restarts a replica at `root`: tries generations newest-first,
    /// recovering the first one that opens as a valid store (a crash
    /// mid-resync leaves a manifest-less directory, which is skipped and
    /// swept). The replica resumes at its recovered epoch; re-attach the
    /// leader's cursor there.
    pub fn open(
        root: impl AsRef<Path>,
        opts: StoreOptions,
    ) -> Result<(Follower, RecoveryReport), EngineError> {
        let root = root.as_ref().to_path_buf();
        let mut generations: Vec<u64> = std::fs::read_dir(&root)
            .map_err(|e| {
                EngineError::Replication(format!(
                    "cannot list replica root {}: {e}",
                    root.display()
                ))
            })?
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter_map(|n| parse_gen(&n))
            .collect();
        generations.sort_unstable();
        let mut failures = Vec::new();
        while let Some(generation) = generations.pop() {
            match DurableEngine::open(gen_dir(&root, generation), opts.clone()) {
                Ok((store, report)) => {
                    let follower = Follower {
                        root: root.clone(),
                        opts,
                        state: Mutex::new(FollowerState {
                            generation,
                            store: Arc::new(store),
                            quarantined: None,
                            stats: FollowerStats::default(),
                        }),
                        leader_epoch_seen: AtomicU64::new(0),
                    };
                    return Ok((follower, report));
                }
                Err(e) => {
                    // Torn install: sweep it so it can never shadow a
                    // later resync into the same generation number.
                    failures.push(format!("gen-{generation:04}: {e}"));
                    let _ = std::fs::remove_dir_all(gen_dir(&root, generation));
                }
            }
        }
        Err(EngineError::Replication(format!(
            "no recoverable generation under {}: {}",
            root.display(),
            if failures.is_empty() {
                "no gen-* directories".to_string()
            } else {
                failures.join("; ")
            }
        )))
    }

    fn state(&self) -> MutexGuard<'_, FollowerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The replica's store (reads pin the engine's published state; the
    /// outer lock only guards the generation swap).
    pub fn store(&self) -> Arc<DurableEngine> {
        self.state().store.clone()
    }

    /// The replica's published epoch.
    pub fn epoch(&self) -> u64 {
        self.state().store.epoch()
    }

    /// The leader epoch carried by the most recent heartbeat (0 before
    /// any heartbeat arrives).
    pub fn leader_epoch_seen(&self) -> u64 {
        self.leader_epoch_seen.load(Ordering::Acquire)
    }

    /// How many epochs the replica trails the leader's most recent
    /// heartbeat (0 when caught up — or when no heartbeat has arrived
    /// yet, since an unknown leader epoch reads as 0). The gateway's
    /// `/healthz` and `BoundedLag` admission read this per request.
    pub fn lag(&self) -> u64 {
        self.leader_epoch_seen().saturating_sub(self.epoch())
    }

    /// The quarantine reason, when the replica has refused the stream.
    pub fn quarantine_reason(&self) -> Option<String> {
        self.state().quarantined.clone()
    }

    /// Apply/dedup/gap/resync counters since this handle was built.
    pub fn stats(&self) -> FollowerStats {
        self.state().stats
    }

    /// The store directory of the live generation (a failover candidate
    /// for [`crate::failover::elect`]).
    pub fn store_dir(&self) -> PathBuf {
        let st = self.state();
        gen_dir(&self.root, st.generation)
    }

    /// Consumes the follower for promotion: the replica's store becomes
    /// the new authoritative engine (wrap it in a [`crate::Leader`]).
    pub fn into_store(self) -> Arc<DurableEngine> {
        self.state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .store
    }

    /// Applies one received frame; see [`FrameOutcome`] for the
    /// vocabulary. Corruption quarantines the replica; a quarantined
    /// replica refuses record and heartbeat frames with
    /// [`EngineError::Replication`] until a snapshot frame resyncs it.
    pub fn apply_frame(&self, bytes: &[u8]) -> Result<FrameOutcome, EngineError> {
        let apply_start = Instant::now();
        let mut st = self.state();
        let frame = match Frame::decode(bytes) {
            Ok(frame) => frame,
            Err(e) => {
                instruments::quarantines_total().add(u64::from(st.quarantined.is_none()));
                st.stats.quarantines += u64::from(st.quarantined.is_none());
                let reason = format!("undecodable frame: {e}");
                st.quarantined = Some(reason.clone());
                return Err(EngineError::Replication(format!("quarantined: {reason}")));
            }
        };
        if let Some(reason) = &st.quarantined {
            if !matches!(frame, Frame::Snapshot { .. }) {
                return Err(EngineError::Replication(format!(
                    "quarantined ({reason}); awaiting snapshot resync"
                )));
            }
        }
        match frame {
            Frame::Heartbeat { leader_epoch } => {
                self.leader_epoch_seen
                    .fetch_max(leader_epoch, Ordering::AcqRel);
                instruments::note_leader_contact();
                instruments::lag_epochs().set(
                    self.leader_epoch_seen
                        .load(Ordering::Acquire)
                        .saturating_sub(st.store.epoch()),
                );
                Ok(FrameOutcome::Heartbeat(leader_epoch))
            }
            Frame::Record { payload } => {
                let record = match WalRecord::decode_payload(&payload) {
                    Ok(record) => record,
                    Err(e) => {
                        instruments::quarantines_total().inc();
                        st.stats.quarantines += 1;
                        let reason = format!("unparseable record payload: {e}");
                        st.quarantined = Some(reason.clone());
                        return Err(EngineError::Replication(format!("quarantined: {reason}")));
                    }
                };
                let current = st.store.epoch();
                if record.epoch_after > current + 1 {
                    instruments::gaps_total().inc();
                    st.stats.gaps += 1;
                    return Ok(FrameOutcome::Gap {
                        expected: current + 1,
                        got: record.epoch_after,
                    });
                }
                match st.store.apply_replicated(&record) {
                    Ok(ReplicatedApply::Applied) => {
                        st.stats.applied += 1;
                        instruments::frames_applied_total().inc();
                        instruments::apply_ns().record_duration(apply_start.elapsed());
                        instruments::note_leader_contact();
                        instruments::lag_epochs().set(
                            self.leader_epoch_seen
                                .load(Ordering::Acquire)
                                .saturating_sub(record.epoch_after),
                        );
                        Ok(FrameOutcome::Applied(record.epoch_after))
                    }
                    Ok(ReplicatedApply::AlreadyApplied) => {
                        st.stats.duplicates += 1;
                        instruments::duplicates_total().inc();
                        instruments::note_leader_contact();
                        Ok(FrameOutcome::Duplicate)
                    }
                    Err(e) => {
                        // The record reached us intact but cannot apply
                        // (e.g. its batch does not parse): replica state
                        // is untouched; quarantine until resync.
                        instruments::quarantines_total().inc();
                        st.stats.quarantines += 1;
                        let reason = format!("record failed to apply: {e}");
                        st.quarantined = Some(reason.clone());
                        Err(EngineError::Replication(format!("quarantined: {reason}")))
                    }
                }
            }
            Frame::Snapshot { epoch, snapshot } => {
                let mut engine = Engine::load_from(&snapshot[..]).map_err(|e| {
                    // A damaged snapshot cannot resync; stay quarantined
                    // (or enter quarantine) and wait for the next one.
                    instruments::quarantines_total().add(u64::from(st.quarantined.is_none()));
                    st.stats.quarantines += u64::from(st.quarantined.is_none());
                    let reason = format!("undecodable snapshot: {e}");
                    st.quarantined = Some(reason.clone());
                    EngineError::Replication(format!("quarantined: {reason}"))
                })?;
                persist::force_epoch(&mut engine, epoch);
                let next_gen = st.generation + 1;
                let dir = gen_dir(&self.root, next_gen);
                // Install into the next generation and only switch over
                // once it opens cleanly; the old generation keeps serving
                // through any failure below.
                let _ = std::fs::remove_dir_all(&dir);
                let store = install(&dir, engine, &self.opts)?;
                let old_dir = gen_dir(&self.root, st.generation);
                st.generation = next_gen;
                st.store = Arc::new(store);
                st.quarantined = None;
                st.stats.resyncs += 1;
                instruments::resyncs_total().inc();
                instruments::note_leader_contact();
                let _ = std::fs::remove_dir_all(old_dir);
                Ok(FrameOutcome::Resynced(st.store.epoch()))
            }
        }
    }

    /// Serves a read under an explicit staleness contract. A contract the
    /// replica cannot currently honour is [`EngineError::Replication`] —
    /// the caller retries, waits, or reads the leader.
    pub fn search(
        &self,
        query: &Query,
        opts: &SearchOptions,
        consistency: ReadConsistency,
    ) -> Result<SearchResponse, EngineError> {
        let store = self.store();
        let epoch = store.epoch();
        if let Some(violation) = consistency.violation(epoch, self.leader_epoch_seen()) {
            return Err(EngineError::Replication(format!(
                "staleness contract: {violation}"
            )));
        }
        store.search(query, opts)
    }
}
