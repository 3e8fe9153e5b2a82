//! Pluggable shipping channels between a leader and one follower.
//!
//! A [`Transport`] is an ordered, unreliable-by-contract byte-frame
//! queue: the replication protocol assumes nothing beyond "frames that
//! arrive, arrive whole-or-detectably-damaged" — sequencing, dedup and
//! recovery live in the epoch numbering of the records themselves, which
//! is what lets the fault layer ([`crate::FaultyTransport`]) drop,
//! duplicate, reorder and corrupt frames without breaking correctness.
//!
//! [`ChannelTransport`] is the implementation: an in-process queue
//! (clones share it) — deterministic, fast, no filesystem. Nothing
//! persists a frame; a follower that restarts re-attaches and the leader
//! resumes or resyncs it by epoch.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lcdd_fcm::EngineError;

/// One direction of a replication link, leader → follower.
pub trait Transport {
    /// Enqueues one encoded frame toward the receiver. A transient
    /// failure is [`EngineError::Replication`] — the leader retries with
    /// backoff.
    fn send(&self, frame: &[u8]) -> Result<(), EngineError>;

    /// Takes the next delivered frame, if any has arrived.
    fn recv(&self) -> Result<Option<Vec<u8>>, EngineError>;

    /// Frames sent but not yet received (including any the fault layer is
    /// holding back — the convergence loop drains until this reaches 0).
    fn pending(&self) -> usize;

    /// Advances transport-internal time: frames an injected delay is
    /// holding move one round closer to delivery. A no-op for real
    /// transports.
    fn tick(&self) {}
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-process FIFO transport; clones share one queue, so the leader
/// holds one clone and the follower's drain loop the other.
#[derive(Clone, Default)]
pub struct ChannelTransport {
    queue: Arc<Mutex<VecDeque<Vec<u8>>>>,
}

impl ChannelTransport {
    pub fn new() -> ChannelTransport {
        ChannelTransport::default()
    }
}

impl Transport for ChannelTransport {
    fn send(&self, frame: &[u8]) -> Result<(), EngineError> {
        lock(&self.queue).push_back(frame.to_vec());
        Ok(())
    }

    fn recv(&self) -> Result<Option<Vec<u8>>, EngineError> {
        Ok(lock(&self.queue).pop_front())
    }

    fn pending(&self) -> usize {
        lock(&self.queue).len()
    }
}
