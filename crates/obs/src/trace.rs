//! End-to-end request tracing: 128-bit trace ids, a fixed-capacity
//! lock-free span ring, thread-local trace context, and a reservoir of
//! the slowest exemplar traces.
//!
//! A trace id is minted at the gateway (or accepted from the client and
//! echoed back); every pipeline stage then records a [`Span`] — stage
//! tag, parent span, start offset, duration, optional linked trace —
//! into the process-wide [`ring`]. Recording is one atomic cursor bump
//! plus a seqlock-stamped write into a preallocated slot: no lock, no
//! allocation, no unbounded memory. When the ring wraps, the **oldest**
//! spans are overwritten first; a replay of a partially-evicted trace
//! returns whatever spans survive, never torn ones (the per-slot
//! sequence stamp rejects in-flight writes).
//!
//! Trace context crosses threads explicitly: the gateway's batcher and
//! the engine's batch fan-out wrap worker closures in [`with_ctx`], so a
//! span recorded deep in candidate generation lands under the coalesced
//! batch's trace, which each member request's trace links to.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A 128-bit trace identifier, rendered as 32 hex digits on the wire
/// (`x-lcdd-trace-id`). The all-zero id is reserved as "absent".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Mints a fresh, non-zero trace id: wall-clock nanoseconds mixed
    /// with a process-wide counter through a splitmix finalizer, so ids
    /// are unique within a process and effectively unique across them.
    pub fn mint() -> TraceId {
        static SEQ: AtomicU64 = AtomicU64::new(1);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let hi = splitmix64(now as u64 ^ seq.rotate_left(32));
        let lo = splitmix64((now >> 64) as u64 ^ seq ^ 0x9e37_79b9_7f4a_7c15);
        let id = (u128::from(hi) << 64) | u128::from(lo);
        TraceId(if id == 0 { 1 } else { id })
    }

    /// Renders the 32-hex-digit wire form.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a wire trace id: 1–32 hex digits, non-zero.
    pub fn parse(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 32 {
            return None;
        }
        match u128::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(v) => Some(TraceId(v)),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Pipeline stages a span can tag. The wire name (in `/debug/trace`
/// replies and the README's instrument table) is [`Stage::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Whole request: parse → response written (gateway root span).
    Request = 0,
    /// Wire parse + validation.
    Parse = 1,
    /// Admission-queue wait: submit → batcher pickup.
    QueueWait = 2,
    /// Handler-side wait for the batcher's reply (covers queue wait and
    /// scoring; its children break that interval down).
    Await = 3,
    /// Response body build + socket write.
    Serialize = 4,
    /// One coalesced `search_batch` call (root span of a batch trace).
    Batch = 5,
    /// Membership marker: a request served by a coalesced batch records
    /// this with `link` = the batch's trace id.
    BatchMember = 6,
    /// Query-cache hit (no scoring ran).
    CacheHit = 7,
    /// Query processing + FCM encoding.
    Encode = 8,
    /// Index candidate generation across shards.
    CandidateGen = 9,
    /// int8 quantized proxy pre-rank.
    QuantScan = 10,
    /// Cold-tier slot page-ins observed during scoring (meta = slots).
    PageIn = 11,
    /// Exact f32 scoring of surviving candidates.
    ExactScore = 12,
    /// Total-order sort + hit assembly.
    Merge = 13,
    /// One background store checkpoint, hand-off to commit (root span of
    /// its own trace; meta = segment bytes written).
    Checkpoint = 14,
}

impl Stage {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::Await => "await",
            Stage::Serialize => "serialize",
            Stage::Batch => "batch",
            Stage::BatchMember => "batch_member",
            Stage::CacheHit => "cache_hit",
            Stage::Encode => "encode",
            Stage::CandidateGen => "candidate_gen",
            Stage::QuantScan => "quant_scan",
            Stage::PageIn => "page_in",
            Stage::ExactScore => "exact_score",
            Stage::Merge => "merge",
            Stage::Checkpoint => "checkpoint",
        }
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Some(match v {
            0 => Stage::Request,
            1 => Stage::Parse,
            2 => Stage::QueueWait,
            3 => Stage::Await,
            4 => Stage::Serialize,
            5 => Stage::Batch,
            6 => Stage::BatchMember,
            7 => Stage::CacheHit,
            8 => Stage::Encode,
            9 => Stage::CandidateGen,
            10 => Stage::QuantScan,
            11 => Stage::PageIn,
            12 => Stage::ExactScore,
            13 => Stage::Merge,
            14 => Stage::Checkpoint,
            _ => return None,
        })
    }
}

/// One decoded span, as replayed from the ring.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub trace: TraceId,
    /// Process-unique span id (see [`next_span_id`]).
    pub id: u64,
    /// Parent span id within the same trace; 0 for a root span.
    pub parent: u64,
    pub stage: Stage,
    /// Start offset in nanoseconds since the ring's anchor instant —
    /// comparable across every span in the process.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Another trace this span points at (a batch member's link to the
    /// shared batch trace).
    pub link: Option<TraceId>,
    /// Stage-specific magnitude (batch size, candidates scanned, slots
    /// paged in...).
    pub meta: u64,
}

/// Words per slot: trace hi/lo, span id, parent, stage, start, dur,
/// link hi/lo, meta.
const SLOT_WORDS: usize = 10;

struct Slot {
    /// Seqlock stamp: even = stable, odd = write in progress. Writers
    /// claim a slot by CAS-ing even→odd; a reader accepts a slot only if
    /// it observes the same even stamp on both sides of its copy.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

/// A fixed-capacity lock-free span ring. One atomic cursor assigns
/// slots round-robin; overflow overwrites the oldest span. Recording
/// neither locks nor allocates; replaying walks a seqlock-consistent
/// snapshot of each slot.
pub struct SpanRing {
    slots: Vec<Slot>,
    cursor: AtomicU64,
    anchor: Instant,
    /// Spans dropped because their slot was mid-write (writer collision
    /// after a full ring wrap) — monitoring-grade back-pressure signal.
    dropped: AtomicU64,
}

/// Default ring capacity: ~4k spans ≈ 350 KiB of atomics, several
/// hundred recent requests' worth of pipeline history.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

impl SpanRing {
    /// A ring holding at most `capacity` spans (min 2).
    pub fn with_capacity(capacity: usize) -> SpanRing {
        SpanRing {
            slots: (0..capacity.max(2))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: Default::default(),
                })
                .collect(),
            cursor: AtomicU64::new(0),
            anchor: Instant::now(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Spans recorded so far (monotone; `min(recorded, capacity)` are
    /// retained).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Spans dropped to writer collisions (see [`SpanRing::dropped`]).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds from the ring's anchor to `t` (the `start_ns`
    /// timebase).
    pub fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.anchor).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span under a caller-minted id (see [`next_span_id`];
    /// pre-minting lets a parent hand its id to children that finish
    /// before it does). Lock-free and allocation-free.
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        trace: TraceId,
        id: u64,
        parent: u64,
        stage: Stage,
        start: Instant,
        dur: Duration,
        link: Option<TraceId>,
        meta: u64,
    ) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq % 2 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            // Another writer lapped the ring into this very slot: drop
            // this span rather than tear that one.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let start_ns = self.offset_ns(start);
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let link = link.map_or(0u128, |t| t.0);
        let w = &slot.words;
        w[0].store((trace.0 >> 64) as u64, Ordering::Relaxed);
        w[1].store(trace.0 as u64, Ordering::Relaxed);
        w[2].store(id, Ordering::Relaxed);
        w[3].store(parent, Ordering::Relaxed);
        w[4].store(stage as u8 as u64, Ordering::Relaxed);
        w[5].store(start_ns, Ordering::Relaxed);
        w[6].store(dur_ns, Ordering::Relaxed);
        w[7].store((link >> 64) as u64, Ordering::Relaxed);
        w[8].store(link as u64, Ordering::Relaxed);
        w[9].store(meta, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Records a span under a freshly minted id, returning that id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        trace: TraceId,
        parent: u64,
        stage: Stage,
        start: Instant,
        dur: Duration,
        link: Option<TraceId>,
        meta: u64,
    ) -> u64 {
        let id = next_span_id();
        self.record_with_id(trace, id, parent, stage, start, dur, link, meta);
        id
    }

    fn read_slot(slot: &Slot) -> Option<Span> {
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let mut words = [0u64; SLOT_WORDS];
        for (out, w) in words.iter_mut().zip(&slot.words) {
            *out = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 {
            return None;
        }
        let trace = TraceId((u128::from(words[0]) << 64) | u128::from(words[1]));
        let link = (u128::from(words[7]) << 64) | u128::from(words[8]);
        Some(Span {
            trace,
            id: words[2],
            parent: words[3],
            stage: Stage::from_u8(words[4] as u8)?,
            start_ns: words[5],
            dur_ns: words[6],
            link: (link != 0).then_some(TraceId(link)),
            meta: words[9],
        })
    }

    /// Every retained span tagged `stage`, across traces, ordered by
    /// start offset then span id — how work that no request caused
    /// (background checkpoints) is found without knowing its trace id.
    pub fn replay_stage(&self, stage: Stage) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .slots
            .iter()
            .filter_map(Self::read_slot)
            .filter(|s| s.stage == stage)
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Every retained span of `trace`, ordered by start offset then span
    /// id. Spans the ring has overwritten are simply absent; spans being
    /// written while we read are skipped, never returned torn.
    pub fn replay(&self, trace: TraceId) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .slots
            .iter()
            .filter_map(Self::read_slot)
            .filter(|s| s.trace == trace)
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Mints a process-unique span id (non-zero; 0 means "no parent").
pub fn next_span_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// The process-wide span ring every subsystem records into.
pub fn ring() -> &'static SpanRing {
    static RING: OnceLock<SpanRing> = OnceLock::new();
    RING.get_or_init(|| SpanRing::with_capacity(DEFAULT_RING_CAPACITY))
}

/// The trace context a worker inherits: which trace to record under and
/// which span is the current parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace: TraceId,
    pub parent: u64,
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The calling thread's current trace context, if any. `None` means
/// tracing is off for this request path — stages record nothing.
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(Cell::get)
}

/// Runs `f` with the thread's trace context set to `ctx`, restoring the
/// previous context afterwards. This is how context crosses the batcher
/// and the engine's parallel fan-out: capture [`current`] on the
/// submitting side, re-establish it inside the worker closure.
pub fn with_ctx<R>(ctx: Option<TraceCtx>, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT.with(|c| c.replace(ctx));
    struct Restore(Option<TraceCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// A reservoir of the slowest-N exemplar traces. [`SlowReservoir::observe`]
/// is lock-free on the fast path: once the reservoir is full, a latency
/// at or below the rotating admission threshold (the slowest set's
/// current minimum) returns after one relaxed load. Only a
/// would-be-admitted latency tries the inner mutex — and backs off
/// (drops the exemplar) rather than blocking if a scrape or another
/// admit holds it.
pub struct SlowReservoir {
    capacity: usize,
    /// Admission threshold in ns: entries must exceed this once full.
    threshold: AtomicU64,
    entries: Mutex<Vec<(u64, TraceId)>>,
}

/// Default number of slow-trace exemplars retained.
pub const DEFAULT_SLOW_CAPACITY: usize = 32;

impl SlowReservoir {
    pub fn with_capacity(capacity: usize) -> SlowReservoir {
        SlowReservoir {
            capacity: capacity.max(1),
            threshold: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offers one end-to-end latency observation.
    pub fn observe(&self, total_ns: u64, trace: TraceId) {
        if total_ns <= self.threshold.load(Ordering::Relaxed) {
            // Fast path: not slower than the slowest-N floor. (Threshold
            // is 0 until the reservoir fills, so early traffic admits.)
            return;
        }
        let Ok(mut entries) = self.entries.try_lock() else {
            return;
        };
        entries.push((total_ns, trace));
        if entries.len() > self.capacity {
            if let Some(min_idx) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (ns, _))| *ns)
                .map(|(i, _)| i)
            {
                entries.swap_remove(min_idx);
            }
            let floor = entries.iter().map(|(ns, _)| *ns).min().unwrap_or(0);
            self.threshold.store(floor, Ordering::Relaxed);
        }
    }

    /// The up-to-`n` slowest traces, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<(TraceId, u64)> {
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        entries.sort_by_key(|&(ns, _)| std::cmp::Reverse(ns));
        entries
            .into_iter()
            .take(n)
            .map(|(ns, trace)| (trace, ns))
            .collect()
    }
}

/// The process-wide slow-trace reservoir the gateway feeds and
/// `/debug/slow` reads.
pub fn slow() -> &'static SlowReservoir {
    static SLOW: OnceLock<SlowReservoir> = OnceLock::new();
    SLOW.get_or_init(|| SlowReservoir::with_capacity(DEFAULT_SLOW_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn trace_id_roundtrips_and_rejects_garbage() {
        let id = TraceId::mint();
        assert_ne!(id.0, 0);
        assert_eq!(TraceId::parse(&id.to_hex()), Some(id));
        assert_eq!(TraceId::parse("00"), None, "zero id is reserved");
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("zz"), None);
        assert_eq!(TraceId::parse(&"f".repeat(33)), None);
        assert_eq!(TraceId::parse("deadbeef"), Some(TraceId(0xdead_beef)));
    }

    #[test]
    fn ring_replays_a_trace_in_order() {
        let ring = SpanRing::with_capacity(64);
        let trace = TraceId(42);
        let other = TraceId(43);
        let base = t0();
        let root = ring.record(
            trace,
            0,
            Stage::Request,
            base,
            Duration::from_micros(100),
            None,
            0,
        );
        ring.record(
            trace,
            root,
            Stage::Parse,
            base + Duration::from_micros(1),
            Duration::from_micros(5),
            None,
            0,
        );
        ring.record(
            other,
            0,
            Stage::Request,
            base,
            Duration::from_micros(9),
            None,
            0,
        );
        let spans = ring.replay(trace);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Request);
        assert_eq!(spans[1].stage, Stage::Parse);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[0].dur_ns, 100_000);
        assert!(ring.replay(TraceId(7)).is_empty());
    }

    #[test]
    fn ring_overflow_drops_oldest_first() {
        let ring = SpanRing::with_capacity(8);
        let old = TraceId(1);
        let new = TraceId(2);
        let base = t0();
        for i in 0..8u64 {
            ring.record(
                old,
                0,
                Stage::Encode,
                base + Duration::from_nanos(i),
                Duration::from_nanos(1),
                None,
                i,
            );
        }
        // Four newer spans overwrite the four oldest slots.
        for i in 0..4u64 {
            ring.record(
                new,
                0,
                Stage::Encode,
                base + Duration::from_nanos(100 + i),
                Duration::from_nanos(1),
                None,
                i,
            );
        }
        let survivors = ring.replay(old);
        assert_eq!(survivors.len(), 4, "oldest half of `old` was evicted");
        let metas: Vec<u64> = survivors.iter().map(|s| s.meta).collect();
        assert_eq!(metas, vec![4, 5, 6, 7], "the *newest* spans survive");
        assert_eq!(ring.replay(new).len(), 4);
        assert_eq!(ring.recorded(), 12);
    }

    #[test]
    fn concurrent_ring_writes_never_tear() {
        let ring = SpanRing::with_capacity(32);
        let base = t0();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    let trace = TraceId(u128::from(t) + 1);
                    for i in 0..2000u64 {
                        ring.record(
                            trace,
                            0,
                            Stage::ExactScore,
                            base,
                            Duration::from_nanos(t * 10_000 + i),
                            Some(trace),
                            t,
                        );
                    }
                });
            }
            // Concurrent replays must only ever see internally-consistent
            // spans: trace, link and meta were written together, so a
            // mismatch would prove a torn read.
            for _ in 0..50 {
                for t in 0..4u64 {
                    let trace = TraceId(u128::from(t) + 1);
                    for span in ring.replay(trace) {
                        assert_eq!(span.link, Some(trace), "torn slot: {span:?}");
                        assert_eq!(span.meta, t, "torn slot: {span:?}");
                        assert_eq!(span.dur_ns / 10_000, t, "torn slot: {span:?}");
                    }
                }
            }
        });
        assert_eq!(ring.recorded(), 8000);
    }

    #[test]
    fn ctx_scoping_restores_previous_context() {
        assert_eq!(current(), None);
        let outer = TraceCtx {
            trace: TraceId(9),
            parent: 1,
        };
        let inner = TraceCtx {
            trace: TraceId(10),
            parent: 2,
        };
        with_ctx(Some(outer), || {
            assert_eq!(current(), Some(outer));
            with_ctx(Some(inner), || assert_eq!(current(), Some(inner)));
            assert_eq!(current(), Some(outer));
            with_ctx(None, || assert_eq!(current(), None));
            assert_eq!(current(), Some(outer));
        });
        assert_eq!(current(), None);
    }

    #[test]
    fn reservoir_keeps_the_slowest_n() {
        let r = SlowReservoir::with_capacity(4);
        for ns in 1..=100u64 {
            r.observe(ns * 1000, TraceId(u128::from(ns)));
        }
        let top = r.slowest(10);
        assert_eq!(top.len(), 4);
        let ids: Vec<u128> = top.iter().map(|(t, _)| t.0).collect();
        assert_eq!(ids, vec![100, 99, 98, 97], "slowest first");
        // Fast-path rejection: far below the floor, nothing changes.
        r.observe(1, TraceId(1));
        assert_eq!(r.slowest(10).len(), 4);
    }
}
