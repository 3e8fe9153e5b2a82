//! The shipping (leader) half of replication.
//!
//! A [`Leader`] wraps the authoritative [`DurableEngine`] and tails its
//! WAL chain with the walk recovery replays — the records it ships are
//! the bytes the store already made durable, not a second in-memory
//! stream, so a leader that crashes and recovers resumes shipping from
//! its own log with nothing lost. Each follower gets a named session
//! holding a [`WalCursor`]; a [`Leader::pump`] reads everything logged
//! past the cursor, ships each record (with retry + exponential backoff
//! on transient transport failures), then a heartbeat carrying the
//! leader's published epoch.
//!
//! When a cursor cannot be honoured any more (the follower fell behind a
//! garbage-collected checkpoint, the chain behind it is one recovery
//! would reject, or the follower quarantined itself on corruption), the
//! session degrades to a snapshot transfer ([`Leader::ship_snapshot`]):
//! the published state as an engine snapshot, and tailing resumes from
//! the WAL position pinned with it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use lcdd_fcm::EngineError;
use lcdd_store::{DurableEngine, WalCursor};

use crate::frame::Frame;
use crate::instruments;
use crate::transport::Transport;

/// Retry policy for transient transport failures: `max_attempts` tries
/// per frame, sleeping `base_delay * 2^k` (capped at `max_delay`) between
/// them. Tests use [`RetryPolicy::immediate`] to keep backoff semantics
/// without wall-clock cost.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    pub max_attempts: u32,
    pub base_delay: Duration,
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Same attempt count as the default, zero sleep — for tests.
    pub fn immediate() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    fn delay_for(&self, attempt: u32) -> Duration {
        let scaled = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        scaled.min(self.max_delay)
    }
}

/// Whether an attach could resume from the follower's position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attach {
    /// The leader located the follower's epoch in its WAL chain; the next
    /// pump resumes record-by-record from there.
    Resumed,
    /// The history needed is gone (garbage-collected) or the follower is
    /// ahead of / diverged from this leader; the next pump ships a
    /// snapshot instead.
    NeedsSnapshot,
}

/// What one [`Leader::pump`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct PumpStats {
    pub records_sent: u64,
    pub snapshots_sent: u64,
    /// Extra send attempts beyond the first, summed over frames.
    pub retries: u64,
    /// The leader epoch the closing heartbeat carried.
    pub leader_epoch: u64,
}

/// Per-follower shipping position. `cursor == None` means the next pump
/// must ship a snapshot.
struct Session {
    cursor: Option<WalCursor>,
}

/// The shipping half of replication around an authoritative store. See
/// the module docs.
pub struct Leader {
    store: Arc<DurableEngine>,
    retry: RetryPolicy,
    sessions: Mutex<HashMap<String, Session>>,
}

impl Leader {
    pub fn new(store: Arc<DurableEngine>, retry: RetryPolicy) -> Leader {
        Leader {
            store,
            retry,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The authoritative store (mutate the corpus through this; the
    /// leader ships whatever the store logs).
    pub fn store(&self) -> &Arc<DurableEngine> {
        &self.store
    }

    fn sessions(&self) -> MutexGuard<'_, HashMap<String, Session>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates or repositions the session for `name` at a follower that
    /// is currently at `follower_epoch`. Resume-from-offset when the
    /// leader's WAL chain still covers that epoch; otherwise the session
    /// is marked for a snapshot transfer. A follower *ahead* of this
    /// leader (possible after a failover promoted a lagging replica) also
    /// resyncs by snapshot — divergent suffixes are discarded by design,
    /// never merged.
    pub fn attach(&self, name: &str, follower_epoch: u64) -> Attach {
        let cursor = if follower_epoch > self.store.epoch() {
            None
        } else {
            self.store.wal_cursor_for_epoch(follower_epoch).ok()
        };
        let outcome = if cursor.is_some() {
            Attach::Resumed
        } else {
            Attach::NeedsSnapshot
        };
        self.sessions().insert(name.to_string(), Session { cursor });
        outcome
    }

    /// Sends one frame with retry + exponential backoff. Ticks the
    /// transport before each retry so injected delays make progress while
    /// the leader is waiting anyway.
    fn send_with_retry(
        &self,
        transport: &dyn Transport,
        frame: &Frame,
        retries: &mut u64,
    ) -> Result<(), EngineError> {
        let bytes = frame.encode();
        let mut last = None;
        for attempt in 0..self.retry.max_attempts {
            match transport.send(&bytes) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    last = Some(e);
                    *retries += 1;
                    instruments::send_retries_total().inc();
                    let delay = self.retry.delay_for(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    transport.tick();
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            EngineError::Replication("send failed with no error recorded".into())
        }))
    }

    /// Ships the published state to `name` as an engine snapshot and
    /// repositions its session to tail from the WAL position pinned with
    /// it. The resync path for quarantined or unresumable followers.
    pub fn ship_snapshot(
        &self,
        name: &str,
        transport: &dyn Transport,
    ) -> Result<PumpStats, EngineError> {
        let mut stats = PumpStats::default();
        let mut snapshot = Vec::new();
        let cursor = self.store.export_snapshot(&mut snapshot)?;
        self.send_with_retry(
            transport,
            &Frame::Snapshot {
                epoch: cursor.epoch,
                snapshot,
            },
            &mut stats.retries,
        )?;
        stats.snapshots_sent = 1;
        instruments::snapshots_shipped_total().inc();
        self.sessions().insert(
            name.to_string(),
            Session {
                cursor: Some(cursor),
            },
        );
        // Records logged since that snapshot follow immediately. No second
        // degrade here: the cursor was just pinned at the live log's tail,
        // so a Replication error now is a real fault to surface, not a
        // stale-cursor condition (and this bounds the recursion).
        let tail = self.pump_impl(name, transport, false)?;
        stats.records_sent += tail.records_sent;
        stats.retries += tail.retries;
        stats.leader_epoch = tail.leader_epoch;
        Ok(stats)
    }

    /// Ships every record logged past `name`'s cursor, then a heartbeat.
    /// A session marked for snapshot (or never attached) ships the
    /// snapshot first. On a permanent send failure the cursor is rolled
    /// back to just past the last record actually delivered, so the next
    /// pump resumes from the true offset.
    pub fn pump(&self, name: &str, transport: &dyn Transport) -> Result<PumpStats, EngineError> {
        self.pump_impl(name, transport, true)
    }

    fn pump_impl(
        &self,
        name: &str,
        transport: &dyn Transport,
        degrade_to_snapshot: bool,
    ) -> Result<PumpStats, EngineError> {
        // Copy the cursor out before branching: `ship_snapshot` re-locks
        // the session table, so the guard must be gone by then.
        let cursor = self
            .sessions()
            .get(name)
            .and_then(|session| session.cursor.clone());
        let cursor = match cursor {
            Some(cursor) => cursor,
            None if degrade_to_snapshot => return self.ship_snapshot(name, transport),
            None => {
                return Err(EngineError::Replication(format!(
                    "session {name} has no usable cursor"
                )))
            }
        };
        let mut stats = PumpStats::default();
        let (records, end) = match self.store.wal_records_since(&cursor) {
            Ok(ok) => ok,
            Err(EngineError::Replication(_)) if degrade_to_snapshot => {
                // The chain no longer covers this cursor (GC overtook a
                // long-stalled follower, or a log behind it is torn):
                // degrade to a full transfer.
                return self.ship_snapshot(name, transport);
            }
            Err(e) => return Err(e),
        };
        let mut delivered = cursor;
        for (record, past) in records {
            let frame = Frame::Record {
                payload: record.encode_payload(),
            };
            if let Err(e) = self.send_with_retry(transport, &frame, &mut stats.retries) {
                // Roll the session back to just past the last delivered
                // record — resume-from-offset on the next pump.
                self.sessions().insert(
                    name.to_string(),
                    Session {
                        cursor: Some(delivered),
                    },
                );
                return Err(e);
            }
            stats.records_sent += 1;
            instruments::records_shipped_total().inc();
            delivered = past;
        }
        self.sessions()
            .insert(name.to_string(), Session { cursor: Some(end) });
        stats.leader_epoch = self.store.epoch();
        self.send_with_retry(
            transport,
            &Frame::Heartbeat {
                leader_epoch: stats.leader_epoch,
            },
            &mut stats.retries,
        )?;
        instruments::heartbeats_sent_total().inc();
        Ok(stats)
    }
}
