//! Replication telemetry: named instruments in the process-wide
//! [`lcdd_obs::registry`].
//!
//! Like the store's instruments, every accessor is a get-or-register
//! against the global registry, so the counters are shared by all
//! leaders/followers in the process (the failover driver and the
//! robustness suites run several). Consumers must assert monotone
//! deltas, never absolute values. The lag gauges reflect the most
//! recent follower to process a frame — monitoring-grade by design.

use lcdd_obs::registry::{global, Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// WAL records shipped by any leader in this process.
pub(crate) fn records_shipped_total() -> Arc<Counter> {
    global().counter(
        "lcdd_repl_records_shipped_total",
        "WAL record frames shipped to followers.",
    )
}

/// Engine snapshots shipped (resync path).
pub(crate) fn snapshots_shipped_total() -> Arc<Counter> {
    global().counter(
        "lcdd_repl_snapshots_shipped_total",
        "Engine snapshots shipped to resync followers.",
    )
}

/// Closing heartbeats shipped by pumps.
pub(crate) fn heartbeats_sent_total() -> Arc<Counter> {
    global().counter(
        "lcdd_repl_heartbeats_sent_total",
        "Heartbeat frames shipped by leader pumps.",
    )
}

/// Send attempts beyond the first, over all frames.
pub(crate) fn send_retries_total() -> Arc<Counter> {
    global().counter(
        "lcdd_repl_send_retries_total",
        "Transport send attempts beyond the first, summed over frames.",
    )
}

/// Record frames applied by any follower.
pub(crate) fn frames_applied_total() -> Arc<Counter> {
    global().counter(
        "lcdd_repl_frames_applied_total",
        "Record frames applied by followers (duplicates and gaps excluded).",
    )
}

/// Nanoseconds per applied record frame (decode + replicated apply).
pub(crate) fn apply_ns() -> Arc<Histogram> {
    global().histogram(
        "lcdd_repl_apply_ns",
        "Follower apply latency per record frame in nanoseconds.",
    )
}

/// Duplicate deliveries skipped by followers.
pub(crate) fn duplicates_total() -> Arc<Counter> {
    global().counter(
        "lcdd_repl_duplicates_total",
        "Duplicate record frames skipped by followers.",
    )
}

/// Gap detections (lost frames; driver re-attaches the cursor).
pub(crate) fn gaps_total() -> Arc<Counter> {
    global().counter(
        "lcdd_repl_gaps_total",
        "Record frames that skipped ahead of a replica (lost frames detected).",
    )
}

/// Snapshot resyncs completed by followers.
pub(crate) fn resyncs_total() -> Arc<Counter> {
    global().counter(
        "lcdd_repl_resyncs_total",
        "Snapshot resyncs installed and opened by followers.",
    )
}

/// Quarantine entries (undecodable/unappliable frames).
pub(crate) fn quarantines_total() -> Arc<Counter> {
    global().counter(
        "lcdd_repl_quarantines_total",
        "Times a follower entered quarantine pending a snapshot resync.",
    )
}

/// Epochs the most recently active follower trails its leader by.
pub(crate) fn lag_epochs() -> Arc<Gauge> {
    global().gauge(
        "lcdd_repl_lag_epochs",
        "Epochs the most recently active follower trails the last heartbeat's leader epoch by.",
    )
}

/// Monotonic anchor for the lag-seconds getter; fixed at first use.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Milliseconds since [`anchor`] of the last frame any follower saw;
/// `u64::MAX` until the first contact.
static LAST_CONTACT_MS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Stamps leader contact (any decodable frame counts) and registers the
/// derived `lcdd_repl_lag_seconds` getter on first use, so the family
/// only appears once replication is live in the process.
pub(crate) fn note_leader_contact() {
    let now_ms = anchor().elapsed().as_millis() as u64;
    // fetch_max, not store: concurrent followers must never move the
    // freshest contact backwards.
    LAST_CONTACT_MS.fetch_max(now_ms, Ordering::Relaxed);
    global().gauge_fn(
        "lcdd_repl_lag_seconds",
        "Seconds since any follower in this process last heard from a leader.",
        || {
            let last = LAST_CONTACT_MS.load(Ordering::Relaxed);
            if last == u64::MAX {
                return 0;
            }
            let now_ms = anchor().elapsed().as_millis() as u64;
            now_ms.saturating_sub(last) / 1000
        },
    );
}
