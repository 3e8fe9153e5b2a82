//! Store telemetry: named instruments in the process-wide
//! [`lcdd_obs::registry`].
//!
//! Every accessor is a get-or-register against the global registry, so
//! the Arcs are shared across all [`crate::DurableEngine`] instances in
//! the process (a test harness or an embedded replica set may hold
//! several). Consumers must therefore treat the counters as process
//! totals — assert monotone deltas, never absolute values.
//!
//! Hot-path instruments (the WAL append/fsync histograms) are fetched
//! once at [`crate::wal::WalWriter`] construction and held as fields;
//! cold paths (checkpoint, recovery) fetch on use.

use lcdd_obs::registry::{global, Counter, Gauge, Histogram};
use std::sync::Arc;

/// Nanoseconds per durable WAL append (frame write + fsync when enabled).
pub(crate) fn wal_append_ns() -> Arc<Histogram> {
    global().histogram(
        "lcdd_store_wal_append_ns",
        "WAL append latency in nanoseconds (frame write plus fsync when sync_writes is on).",
    )
}

/// Nanoseconds per WAL `fdatasync`.
pub(crate) fn wal_fsync_ns() -> Arc<Histogram> {
    global().histogram(
        "lcdd_store_wal_fsync_ns",
        "WAL fdatasync latency in nanoseconds.",
    )
}

/// Records appended to any WAL in this process.
pub(crate) fn wal_appends_total() -> Arc<Counter> {
    global().counter(
        "lcdd_store_wal_appends_total",
        "WAL records durably appended.",
    )
}

/// Fresh WAL files started by checkpoint hand-offs.
pub(crate) fn wal_rotations_total() -> Arc<Counter> {
    global().counter(
        "lcdd_store_wal_rotations_total",
        "Fresh WAL files started by checkpoint hand-offs (the writer rotates; the checkpointer commits).",
    )
}

/// WAL files from the newest committed manifest's log through the live
/// log, for the store that most recently rotated or committed.
pub(crate) fn wal_chain_files() -> Arc<Gauge> {
    global().gauge(
        "lcdd_store_wal_chain_files",
        "WAL files recovery would replay: 1 when the newest manifest points at the live log, more while checkpoints are in flight or failing.",
    )
}

/// Background checkpoints currently running, across every store in the
/// process.
pub(crate) fn checkpoint_inflight() -> Arc<Gauge> {
    global().gauge(
        "lcdd_store_checkpoint_inflight",
        "Background checkpoints currently being written.",
    )
}

/// Microseconds the triggering write pays for a checkpoint: WAL rotation
/// plus pinning the state, under the store lock.
pub(crate) fn checkpoint_handoff_us() -> Arc<Histogram> {
    global().histogram(
        "lcdd_store_checkpoint_handoff_us",
        "Checkpoint hand-off cost on the write path in microseconds (WAL rotation plus state pin).",
    )
}

/// Checkpoints that committed a manifest.
pub(crate) fn checkpoints_total() -> Arc<Counter> {
    global().counter(
        "lcdd_store_checkpoints_total",
        "Checkpoints completed (including no-op checkpoints at an unchanged epoch).",
    )
}

/// Checkpoint attempts that failed (stashed, store keeps running).
pub(crate) fn checkpoint_failures_total() -> Arc<Counter> {
    global().counter(
        "lcdd_store_checkpoint_failures_total",
        "Checkpoint attempts that failed; the store continues WAL-heavy and retries.",
    )
}

/// Segment bytes written by checkpoints (dirty shards only).
pub(crate) fn checkpoint_bytes_written_total() -> Arc<Counter> {
    global().counter(
        "lcdd_store_checkpoint_bytes_written_total",
        "Segment bytes written by checkpoints (clean shards are reused, not rewritten).",
    )
}

/// Wall-clock milliseconds per checkpoint.
pub(crate) fn checkpoint_duration_ms() -> Arc<Histogram> {
    global().histogram(
        "lcdd_store_checkpoint_duration_ms",
        "Checkpoint wall-clock duration in milliseconds, on the checkpointer thread.",
    )
}

/// Completed crash recoveries.
pub(crate) fn recoveries_total() -> Arc<Counter> {
    global().counter(
        "lcdd_store_recoveries_total",
        "Crash recoveries completed by DurableEngine::open.",
    )
}

/// Wall-clock milliseconds of the most recent recovery.
pub(crate) fn recovery_ms() -> Arc<Gauge> {
    global().gauge(
        "lcdd_store_recovery_ms",
        "Wall-clock milliseconds spent by the most recent recovery.",
    )
}

/// WAL records replayed by the most recent recovery.
pub(crate) fn replayed_records() -> Arc<Gauge> {
    global().gauge(
        "lcdd_store_replayed_records",
        "WAL records replayed by the most recent recovery.",
    )
}
