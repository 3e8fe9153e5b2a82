//! The reference shipping loop: pump, drain, and react to faults the way
//! a production replication driver must — resume-from-offset on lag,
//! snapshot resync on quarantine, bounded rounds, typed failure.
//!
//! [`sync_to_convergence`] is what the partition/lag harness (and the
//! example walkthrough) drive between churn batches: it guarantees that
//! when it returns `Ok`, the follower has applied every leader epoch and
//! the link is drained — the state in which the bit-identical-hits
//! invariant is asserted.

use lcdd_fcm::EngineError;

use crate::follower::{Follower, FrameOutcome};
use crate::leader::{Attach, Leader};
use crate::transport::Transport;

/// What one [`sync_to_convergence`] run did.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncStats {
    pub rounds: u64,
    pub records_applied: u64,
    pub duplicates: u64,
    pub gaps_resumed: u64,
    pub resyncs: u64,
    pub send_retries: u64,
}

/// Drives `leader → transport → follower` until the follower reaches the
/// leader's current epoch with the link drained, or `max_rounds` rounds
/// pass without getting there ([`EngineError::Replication`] — the
/// schedule genuinely partitioned the pair).
///
/// Fault reactions, in order of escalation:
/// * send failures — absorbed inside [`Leader::pump`]'s retry/backoff;
///   a permanent failure surfaces here and costs the round.
/// * epoch gaps (lost frames) — [`Leader::attach`] re-positions the
///   cursor at the follower's true epoch (resume-from-offset).
/// * quarantine (corruption) — [`Leader::ship_snapshot`] transfers the
///   leader's engine snapshot; the follower installs it into a fresh
///   generation.
/// * a cursor the leader's WAL chain cannot honour (garbage-collected, or
///   behind a log recovery would reject) — the pump itself degrades to a
///   snapshot transfer.
/// * a stalled round (no progress, queue drained, still behind) — also
///   re-attached, which covers frames dropped *after* the last record.
pub fn sync_to_convergence(
    leader: &Leader,
    name: &str,
    transport: &dyn Transport,
    follower: &Follower,
    max_rounds: u64,
) -> Result<SyncStats, EngineError> {
    let mut stats = SyncStats::default();
    let mut last_observed = (follower.epoch(), usize::MAX);
    for _ in 0..max_rounds {
        stats.rounds += 1;
        let target = leader.store().epoch();
        // 1. Ship everything past the session cursor. A permanent send
        //    failure rolled the cursor back already; spend the round.
        let mut pump_failed = false;
        match leader.pump(name, transport) {
            Ok(p) => stats.send_retries += p.retries,
            Err(EngineError::Replication(_)) => pump_failed = true,
            Err(e) => return Err(e),
        }
        // 2. Let injected delays progress, then drain the link.
        transport.tick();
        let mut need_resync = false;
        let mut need_resume = false;
        while let Some(bytes) = transport.recv()? {
            match follower.apply_frame(&bytes) {
                Ok(FrameOutcome::Applied(_)) => stats.records_applied += 1,
                Ok(FrameOutcome::Duplicate) => stats.duplicates += 1,
                Ok(FrameOutcome::Heartbeat(_)) => {}
                Ok(FrameOutcome::Resynced(_)) => stats.resyncs += 1,
                Ok(FrameOutcome::Gap { .. }) => need_resume = true,
                Err(EngineError::Replication(_)) => {
                    // Quarantined (or refused while quarantined): stop
                    // consuming — everything in flight predates the
                    // resync we are about to request.
                    need_resync = follower.quarantine_reason().is_some();
                    if !need_resync {
                        return Err(EngineError::Replication(
                            "follower refused a frame without quarantining".into(),
                        ));
                    }
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        // 3. Escalate.
        if need_resync || follower.quarantine_reason().is_some() {
            match leader.ship_snapshot(name, transport) {
                Ok(p) => stats.send_retries += p.retries,
                Err(EngineError::Replication(_)) => {} // retry next round
                Err(e) => return Err(e),
            }
            continue;
        }
        if need_resume {
            stats.gaps_resumed += 1;
            leader.attach(name, follower.epoch());
            continue;
        }
        let caught_up = follower.epoch() >= target;
        if caught_up && transport.pending() == 0 && !pump_failed {
            return Ok(stats);
        }
        // 4. Stall detection: behind, link drained, and nothing moved
        //    this round — the missing records were dropped in flight with
        //    no later record to expose the gap. Resume from the true epoch.
        let observed = (follower.epoch(), transport.pending());
        if !caught_up && observed == last_observed && transport.pending() == 0 {
            stats.gaps_resumed += 1;
            if leader.attach(name, follower.epoch()) == Attach::NeedsSnapshot {
                match leader.ship_snapshot(name, transport) {
                    Ok(p) => stats.send_retries += p.retries,
                    Err(EngineError::Replication(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        last_observed = observed;
    }
    Err(EngineError::Replication(format!(
        "no convergence after {max_rounds} rounds: leader at {}, follower at {} (quarantine: {:?})",
        leader.store().epoch(),
        follower.epoch(),
        follower.quarantine_reason(),
    )))
}
