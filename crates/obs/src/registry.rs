//! Lock-free instruments and the named-instrument registry.
//!
//! [`Histogram`] is the log-linear latency/batch-size histogram that grew
//! up in `lcdd-server::latency` (PR 7) and moved here so every crate in
//! the stack can record into the same instrument type: a single relaxed
//! `fetch_add` into a fixed bucket array, no mutex, no allocation.
//! [`Counter`] and [`Gauge`] package the relaxed-atomic counter pattern
//! the gateway's metrics struct already used. [`WindowedHistogram`] adds
//! a rolling 60-second view (ring of six 10-second sub-histograms) so
//! scraped percentiles reflect recent traffic rather than process
//! lifetime.
//!
//! [`Registry`] maps metric names to instruments. Registration is
//! **idempotent get-or-register**: two stores opened in one process share
//! one `lcdd_store_wal_appends_total` counter (so consumers assert
//! monotone deltas, never absolutes). The registry's mutex is taken only
//! at registration time and when a scrape snapshots the instrument list —
//! the serving path holds its instruments as `Arc`s and never touches the
//! map.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Acquire, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Sub-buckets per power-of-two octave (and the exact-bucket cutoff).
const SUB: u64 = 32;
const SUB_BITS: u64 = 5;
/// Bucket count covering the whole `u64` range: 32 exact buckets plus
/// 59 octaves × 32 sub-buckets (octaves 5..=63).
const BUCKETS: usize = 1920;

/// A monotone event counter: relaxed `fetch_add`, lock-free everywhere.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-value gauge (queue depth, lag, recovery time).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raises the value by `n` (pair with [`Gauge::sub`] for a level
    /// several owners move, e.g. jobs in flight across every store in the
    /// process).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Lowers the value by `n`.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// Raises the value to at least `v` (high-water marks).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - u64::from(v.leading_zeros());
        let m = (v >> (e - SUB_BITS)) & (SUB - 1);
        ((e - SUB_BITS + 1) * SUB + m) as usize
    }
}

/// Inclusive upper bound of the values mapping to `idx`.
fn bucket_high(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let octave = idx / SUB;
        let m = idx % SUB;
        let e = octave - 1 + SUB_BITS;
        // The topmost octave's bound exceeds u64 — saturate.
        let high = ((u128::from(SUB + m) + 1) << (e - SUB_BITS)) - 1;
        u64::try_from(high).unwrap_or(u64::MAX)
    }
}

/// Quantile over an explicit bucket-count snapshot (shared by the
/// lifetime and windowed reads). `max` caps the topmost bucket's bound.
fn percentile_of(counts: &[u64], q: f64, max: u64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (idx, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_high(idx).min(max);
        }
    }
    max
}

/// A fixed-size, lock-free histogram of `u64` samples (nanoseconds,
/// batch sizes — any non-negative magnitude). Buckets are log-linear:
/// values below 32 are exact, and every power-of-two octave above that is
/// split into 32 sub-buckets, giving ≤ ~3% relative quantile error over
/// the full `u64` range in 1920 buckets (~15 KiB of atomics).
///
/// Percentile reads walk a relaxed snapshot of the buckets; concurrent
/// recording can skew a quantile by at most the records that land
/// mid-walk — the monitoring-grade contract.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Relaxed) as f64 / n as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), as the inclusive upper bound
    /// of the bucket holding the rank — an overestimate by at most one
    /// sub-bucket width (~3%). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        percentile_of(&counts, q, self.max())
    }

    /// Accumulates this histogram's bucket counts into `acc` (used by the
    /// windowed merge; `acc.len()` must be [`BUCKETS`]).
    fn accumulate_into(&self, acc: &mut [u64]) {
        for (a, b) in acc.iter_mut().zip(&self.buckets) {
            *a += b.load(Relaxed);
        }
    }

    /// Zeroes every bucket and counter. Racy with respect to concurrent
    /// `record` calls by design: the windowed rotation tolerates losing
    /// (or double-seeing) the handful of samples that land mid-reset.
    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// Number of sub-histograms in a rolling window.
const WINDOW_SLOTS: usize = 6;
/// Seconds each sub-histogram covers; the full window is 60 s.
const SLOT_SECS: u64 = 10;

/// Process-lifetime anchor for slot arithmetic (monotonic, shared by all
/// windowed histograms so their slots rotate in lockstep).
fn window_now() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_secs()
}

struct WindowSlot {
    /// Which 10-second tick this slot currently holds (+1 so 0 = never
    /// used). Stamped by the first recorder of a new tick after it wins
    /// the reset CAS.
    epoch: AtomicU64,
    hist: Histogram,
}

/// A rolling ~60-second histogram: a ring of six 10-second
/// sub-histograms. Recording stamps the current slot (the first recorder
/// of a new tick resets the stale slot via a CAS it alone wins); reads
/// merge every slot stamped within the window. Accuracy is
/// monitoring-grade — a read at second 61 still includes a fading slot
/// from seconds 0–10, and the reset races benignly with concurrent
/// recorders — which is exactly what a scraped `p99_60s` needs.
pub struct WindowedHistogram {
    slots: Vec<WindowSlot>,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::new()
    }
}

impl WindowedHistogram {
    pub fn new() -> WindowedHistogram {
        WindowedHistogram {
            slots: (0..WINDOW_SLOTS)
                .map(|_| WindowSlot {
                    epoch: AtomicU64::new(0),
                    hist: Histogram::new(),
                })
                .collect(),
        }
    }

    /// Records one sample into the current 10-second slot. Lock-free: the
    /// only non-`fetch_add` step is the once-per-10-seconds slot-reset
    /// CAS, and losing that race just means someone else reset the slot.
    pub fn record(&self, v: u64) {
        let tick = window_now() / SLOT_SECS + 1;
        let slot = &self.slots[(tick as usize) % WINDOW_SLOTS];
        let seen = slot.epoch.load(Acquire);
        if seen != tick
            && slot
                .epoch
                .compare_exchange(seen, tick, Acquire, Relaxed)
                .is_ok()
        {
            slot.hist.reset();
        }
        slot.hist.record(v);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    fn live_slots(&self) -> impl Iterator<Item = &WindowSlot> {
        let tick = window_now() / SLOT_SECS + 1;
        let oldest = tick.saturating_sub(WINDOW_SLOTS as u64 - 1);
        self.slots.iter().filter(move |s| {
            let e = s.epoch.load(Acquire);
            e >= oldest && e <= tick
        })
    }

    /// Samples recorded within the window.
    pub fn count(&self) -> u64 {
        self.live_slots().map(|s| s.hist.count()).sum()
    }

    /// Largest sample within the window (0 when empty).
    pub fn max(&self) -> u64 {
        self.live_slots().map(|s| s.hist.max()).max().unwrap_or(0)
    }

    /// The `q`-quantile over the merged window (0 when empty).
    pub fn percentile(&self, q: f64) -> u64 {
        let mut counts = vec![0u64; BUCKETS];
        let mut max = 0u64;
        for s in self.live_slots() {
            s.hist.accumulate_into(&mut counts);
            max = max.max(s.hist.max());
        }
        percentile_of(&counts, q, max)
    }
}

/// One registered instrument. `GaugeFn` wraps a live getter (an engine
/// epoch, a lag computation) so scrape-time values need no writer-side
/// update loop.
#[derive(Clone)]
pub enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    GaugeFn(Arc<dyn Fn() -> u64 + Send + Sync>),
    Histogram(Arc<Histogram>),
    Windowed(Arc<WindowedHistogram>),
}

struct Entry {
    help: String,
    instrument: Instrument,
}

/// A named-instrument registry. See the module docs for the locking
/// contract (mutex at registration and scrape snapshot only).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Entry>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get_or_register<T>(
        &self,
        name: &str,
        help: &str,
        wrap: impl Fn(Arc<T>) -> Instrument,
        unwrap: impl Fn(&Instrument) -> Option<Arc<T>>,
        fresh: impl Fn() -> T,
    ) -> Arc<T> {
        debug_assert!(
            crate::promlint::valid_metric_name(name),
            "invalid metric name {name:?}"
        );
        let mut map = self.lock();
        if let Some(entry) = map.get(name) {
            if let Some(existing) = unwrap(&entry.instrument) {
                return existing;
            }
            // Same name, different kind: a programming error we keep
            // panic-free by handing back a detached (unscraped)
            // instrument rather than clobbering the registered one.
            return Arc::new(fresh());
        }
        let arc = Arc::new(fresh());
        map.insert(
            name.to_string(),
            Entry {
                help: help.to_string(),
                instrument: wrap(Arc::clone(&arc)),
            },
        );
        arc
    }

    /// The counter registered under `name` (registering it on first use).
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.get_or_register(
            name,
            help,
            Instrument::Counter,
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            Counter::new,
        )
    }

    /// The gauge registered under `name` (registering it on first use).
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.get_or_register(
            name,
            help,
            Instrument::Gauge,
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// The histogram registered under `name` (registering it on first use).
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.get_or_register(
            name,
            help,
            Instrument::Histogram,
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            Histogram::new,
        )
    }

    /// The windowed histogram registered under `name` (registering it on
    /// first use).
    pub fn windowed(&self, name: &str, help: &str) -> Arc<WindowedHistogram> {
        self.get_or_register(
            name,
            help,
            Instrument::Windowed,
            |i| match i {
                Instrument::Windowed(w) => Some(Arc::clone(w)),
                _ => None,
            },
            WindowedHistogram::new,
        )
    }

    /// Registers a scrape-time getter under `name`. First registration
    /// wins; later calls with the same name are no-ops (idempotent, like
    /// every other `register`).
    pub fn gauge_fn(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        debug_assert!(
            crate::promlint::valid_metric_name(name),
            "invalid metric name {name:?}"
        );
        let mut map = self.lock();
        map.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            instrument: Instrument::GaugeFn(Arc::new(f)),
        });
    }

    /// Clones the instrument list out under a brief lock — the scrape
    /// path reads the returned `Arc`s without holding anything the
    /// recording side could contend on.
    pub fn snapshot(&self) -> Vec<(String, String, Instrument)> {
        self.lock()
            .iter()
            .map(|(name, e)| (name.clone(), e.help.clone(), e.instrument.clone()))
            .collect()
    }
}

/// The process-wide registry `lcdd-store`, `lcdd-repl` and the work pool
/// register into, scraped by every gateway in the process alongside its
/// own per-server instruments.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_cutoff() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_ordered() {
        let mut prev_high = None;
        for idx in 0..BUCKETS {
            let high = bucket_high(idx);
            if let Some(p) = prev_high {
                assert!(high > p, "bucket {idx} high {high} <= previous {p}");
            }
            prev_high = Some(high);
        }
        // Every value maps to a bucket whose bound brackets it.
        for v in [
            0,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            1 << 20,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS);
            assert!(bucket_high(idx) >= v, "v={v} idx={idx}");
            if idx > 0 {
                assert!(bucket_high(idx - 1) < v, "v={v} idx={idx}");
            }
        }
    }

    #[test]
    fn percentiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        // Log-linear error bound: within ~4% of the true quantile.
        assert!((480..=530).contains(&p50), "p50={p50}");
        assert!((960..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.percentile(1.0), 1000);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1.0);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_counts_everything() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn windowed_histogram_sees_recent_samples() {
        let w = WindowedHistogram::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.percentile(0.99), 0);
        for v in 1..=100u64 {
            w.record(v);
        }
        assert_eq!(w.count(), 100);
        assert_eq!(w.max(), 100);
        let p50 = w.percentile(0.5);
        assert!((45..=55).contains(&p50), "p50={p50}");
    }

    #[test]
    fn windowed_rotation_resets_reclaimed_slots() {
        // Drive the slot logic directly: a slot stamped with an old tick
        // is reset when a new tick claims the same index.
        let w = WindowedHistogram::new();
        w.record(500);
        let slot = &w.slots[(window_now() / SLOT_SECS + 1) as usize % WINDOW_SLOTS];
        assert_eq!(slot.hist.count(), 1);
        // Forge staleness: pretend this slot belongs to a tick one full
        // ring-revolution ago, then record again.
        let tick = slot.epoch.load(Acquire);
        slot.epoch
            .store(tick.saturating_sub(WINDOW_SLOTS as u64), Relaxed);
        w.record(700);
        assert_eq!(slot.hist.count(), 1, "stale slot content was reset");
        assert_eq!(slot.hist.max(), 700);
    }

    #[test]
    fn registry_registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("lcdd_test_events_total", "events");
        let b = r.counter("lcdd_test_events_total", "events");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same instrument behind one name");
        // A kind mismatch hands back a detached instrument and leaves the
        // registered one untouched.
        let g = r.gauge("lcdd_test_events_total", "whoops");
        g.set(99);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn gauge_fn_reports_live_values() {
        let r = Registry::new();
        let v = Arc::new(AtomicU64::new(7));
        let vv = Arc::clone(&v);
        r.gauge_fn("lcdd_test_live", "live", move || vv.load(Relaxed));
        let snap = r.snapshot();
        let Instrument::GaugeFn(f) = &snap[0].2 else {
            panic!("expected a gauge fn");
        };
        assert_eq!(f(), 7);
        v.store(11, Relaxed);
        assert_eq!(f(), 11);
    }
}
