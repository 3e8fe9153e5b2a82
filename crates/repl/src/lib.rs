//! # lcdd-repl
//!
//! WAL-shipping replication for the durable serving engine: read
//! replicas that stay **hit-for-hit identical** to the leader (bitwise
//! scores at every shared epoch) while surviving lossy links, corrupted
//! streams, crashing processes and leader failover.
//!
//! ```text
//!             mutations
//!                |
//!        +---------------+   WAL records + heartbeats    +----------------+
//!        | Leader        |  ---- Transport (frames) --->  | Follower       |
//!        | DurableEngine |  <--- (epoch via driver) ----  | DurableEngine  |
//!        +---------------+   engine snapshot on resync    +----------------+
//!            tail own WAL                                   log, apply, pin
//! ```
//!
//! Design pillars, each load-bearing for the robustness story:
//!
//! * **Ship the log itself.** The leader tails its own store's WAL chain
//!   ([`lcdd_store::DurableEngine::wal_records_since`]) with the walk
//!   recovery replays ([`lcdd_store::wal::walk_chain`]), rather than a
//!   parallel in-memory stream — what ships is exactly what was made
//!   durable, so a leader crash loses nothing that was acknowledged, and
//!   a chain recovery would reject is never shipped from. Insert records
//!   carry already-encoded batches: a replica **never invokes the
//!   encoder** (`lcdd_fcm::table_encode_count` stays flat).
//! * **Epochs are the protocol.** Every record carries `epoch_after` and
//!   every logged op bumps the epoch by exactly one, so duplicates are
//!   skipped idempotently, gaps are detected exactly, and resume is
//!   "give me everything after epoch E" ([`Leader::attach`]).
//! * **Followers are stores.** A replica logs each shipped record to its
//!   own WAL before publishing it ([`lcdd_store::DurableEngine::apply_replicated`]),
//!   so a follower restart is ordinary PR 5 crash recovery, including
//!   torn-tail truncation, then resume-from-epoch.
//! * **One portable state, one install path.** A follower that cannot be
//!   caught up record by record receives the leader's published state
//!   as an `LCDDSNAP` engine snapshot ([`Leader::ship_snapshot`]) — the
//!   format `Engine::save` writes — and installs it, like every store it
//!   serves, by creating a fresh store in a new generation directory and
//!   opening it with its own options.
//! * **Corruption quarantines, loss resumes, neither panics.** A frame
//!   that fails its checksum quarantines the replica until a snapshot
//!   resync ([`Leader::ship_snapshot`] → generation-swapped install);
//!   lost frames surface as epoch gaps and re-attach the cursor. All
//!   injected faults land as typed [`lcdd_fcm::EngineError::Replication`].
//! * **Failover is recovery.** [`failover::elect`] ranks candidates by
//!   newest recoverable {manifest + WAL tail}; [`failover::promote`] is
//!   just [`lcdd_store::DurableEngine::open`].
//!
//! Reads on a replica carry an explicit staleness contract
//! ([`ReadConsistency`]): `Any`, read-your-writes via an epoch token, or
//! bounded lag against the last heartbeat.
//!
//! Production code in this crate is `unwrap`-free (lint enforced in CI):
//! every fault surfaces as a typed error or a successful retry/resync.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod driver;
pub mod failover;
pub mod fault;
pub mod follower;
pub mod frame;
mod instruments;
pub mod leader;
pub mod transport;

pub use driver::{sync_to_convergence, SyncStats};
pub use failover::{elect, probe, promote, Candidate};
pub use fault::{FaultAction, FaultSchedule, FaultyTransport};
pub use follower::{Follower, FollowerStats, FrameOutcome, ReadConsistency};
pub use frame::Frame;
pub use lcdd_fcm::EngineError;
pub use leader::{Attach, Leader, PumpStats, RetryPolicy};
pub use transport::{ChannelTransport, Transport};
