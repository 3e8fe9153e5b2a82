//! Failover: electing and promoting the replica with the newest
//! recoverable state.
//!
//! Election is deliberately boring — it reuses the PR 5 recovery
//! contract instead of inventing a consensus protocol. Every candidate
//! directory (the crashed leader's store, each follower's live
//! generation) is probed for its **recoverable epoch**: the newest valid
//! manifest plus however far that checkpoint's WAL chain replays (the
//! manifest's log, then every log a later checkpoint hand-off rotated
//! to; a torn final record counts for nothing, exactly as recovery would
//! truncate it). The candidate with the highest recoverable epoch wins;
//! [`promote`] then simply opens it — the same code path as any crash
//! restart — and the caller wraps the store in a [`crate::Leader`].
//!
//! Followers that lag the winner re-attach to the new leader and resume
//! (or resync) by the normal shipping machinery. A replica *ahead* of
//! the winner (impossible unless its extra epochs were never durable
//! anywhere else) is resynced by snapshot — divergent suffixes are
//! discarded, never merged.

use std::path::{Path, PathBuf};

use lcdd_fcm::EngineError;
use lcdd_store::{latest_manifest, wal, DurableEngine, RecoveryReport, StoreOptions};

/// One probed failover candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The store directory probed.
    pub dir: PathBuf,
    /// Epoch a [`DurableEngine::open`] of this directory would recover.
    pub recoverable_epoch: u64,
    /// Epoch of the newest valid manifest (recoverable history beyond it
    /// came from the WAL chain).
    pub checkpoint_epoch: u64,
}

/// Probes one store directory without opening it: newest valid manifest,
/// then a scan of that manifest's WAL chain for the last complete record.
/// Mirrors what [`DurableEngine::open`] would recover, at directory-scan
/// cost instead of a full engine assembly.
pub fn probe(dir: impl AsRef<Path>) -> Result<Candidate, EngineError> {
    let dir = dir.as_ref().to_path_buf();
    let (_, manifest) = latest_manifest(&dir)?.ok_or_else(|| {
        EngineError::Replication(format!("{}: no manifest (not a store)", dir.display()))
    })?;
    let recoverable_epoch = wal::chain_end(&dir, &manifest)?.epoch;
    Ok(Candidate {
        dir,
        recoverable_epoch,
        checkpoint_epoch: manifest.epoch,
    })
}

/// Probes every candidate directory and ranks them, newest recoverable
/// epoch first (ties broken toward the earlier entry in `dirs` — list
/// the old leader first if it should win ties). Directories that cannot
/// be probed are skipped; an empty field is [`EngineError::Replication`].
pub fn elect(dirs: &[PathBuf]) -> Result<Vec<Candidate>, EngineError> {
    let mut candidates: Vec<(usize, Candidate)> = Vec::new();
    let mut failures = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        match probe(dir) {
            Ok(c) => candidates.push((i, c)),
            Err(e) => failures.push(format!("{}: {e}", dir.display())),
        }
    }
    if candidates.is_empty() {
        return Err(EngineError::Replication(format!(
            "no electable candidate: {}",
            failures.join("; ")
        )));
    }
    candidates.sort_by(|(ai, a), (bi, b)| {
        b.recoverable_epoch
            .cmp(&a.recoverable_epoch)
            .then(ai.cmp(bi))
    });
    Ok(candidates.into_iter().map(|(_, c)| c).collect())
}

/// Opens the elected candidate through standard crash recovery. The
/// returned store is the new authoritative engine; wrap it in a
/// [`crate::Leader`] and re-attach the surviving followers.
pub fn promote(
    candidate: &Candidate,
    opts: StoreOptions,
) -> Result<(DurableEngine, RecoveryReport), EngineError> {
    DurableEngine::open(&candidate.dir, opts)
}
