//! The request-coalescing batcher: the single point where concurrent
//! wire searches become `search_batch` calls.
//!
//! Connection handlers parse and validate, then [`Batcher::submit`] —
//! a bounded queue (admission control: overflow is an immediate 503,
//! never unbounded memory) plus a one-shot reply channel the handler
//! parks on. The batcher thread drains up to `max_batch` queued jobs at a
//! time and, per drained group:
//!
//! 1. answers jobs whose **deadline** already passed with 504 — they are
//!    never scored;
//! 2. groups by search options (`k`, strategy, `min_score`) — a
//!    `search_batch` call takes one option set;
//! 3. pins **one** engine snapshot per group and checks every job's
//!    staleness contract against that snapshot (failures answer 412);
//! 4. **dedups** by query fingerprint — N identical in-flight requests
//!    are scored once and fanned out (the classic coalescing win: under a
//!    thundering herd of hot queries each publish, the herd costs one
//!    computation instead of N);
//! 5. serves the whole group from the pinned snapshot, so every response
//!    in a coalesced batch carries the **same epoch** — the invariant the
//!    integration suite asserts via the `x-lcdd-batch-id` header.
//!
//! Shutdown is graceful by construction: `begin_shutdown` stops
//! admission (late submitters get a clean 503), and the batcher thread
//! only exits once the queue is empty — every job that was ever admitted
//! gets exactly one reply (`jobs_enqueued == jobs_answered`).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use lcdd_engine::{query_fingerprint, Query, SearchOptions, SearchResponse};
use lcdd_obs::trace::{next_span_id, ring, with_ctx, Stage, TraceCtx, TraceId};

use crate::backend::{Backend, Consistency};
use crate::error::{from_engine_error, ApiError};
use crate::metrics::Metrics;

/// One admitted search, waiting in the queue for the batcher.
pub struct SearchJob {
    pub query: Query,
    pub opts: SearchOptions,
    pub consistency: Consistency,
    /// Absolute expiry; a job still queued past this instant is answered
    /// 504 without being scored.
    pub deadline: Instant,
    /// The requested deadline, for the 504 message.
    pub deadline_ms: u64,
    /// When the job entered the admission queue (stamped by `submit`) —
    /// the anchor for the queue-wait instrument and span.
    pub enqueued_at: Instant,
    /// The submitting request's trace context, if tracing is on. Spans
    /// the batcher and engine record for this job nest under
    /// `ctx.parent` (the handler's `await` span).
    pub ctx: Option<TraceCtx>,
    pub reply: SyncSender<JobReply>,
}

/// What the batcher sends back through a job's reply channel.
pub enum JobReply {
    Ok {
        resp: SearchResponse,
        /// Identity of the `search_batch` call that served this job —
        /// responses sharing a batch id provably share an epoch.
        batch_id: u64,
        /// Requests answered by that call (after expiry/staleness
        /// filtering).
        batch_size: usize,
        /// Distinct computations in that call (`batch_size - unique`
        /// requests were answered by a batch-mate's result).
        batch_unique: usize,
        /// How long this job sat in the admission queue, ns — the handler
        /// subtracts it from end-to-end latency so the service-time
        /// histogram measures scoring, not backlog.
        queue_wait_ns: u64,
    },
    Err(ApiError),
}

/// Outcome of [`Batcher::submit`].
pub enum Submit {
    /// Admitted; park on the receiver for the reply.
    Enqueued(Receiver<JobReply>),
    /// The bounded queue is full — answer 503 with `Retry-After`.
    QueueFull,
    /// The server is draining — answer 503.
    ShuttingDown,
}

/// The coalescing batcher; one per server.
pub struct Batcher {
    queue: Mutex<VecDeque<SearchJob>>,
    notify: Condvar,
    capacity: usize,
    max_batch: usize,
    shutdown: AtomicBool,
    batch_seq: AtomicU64,
    backend: Arc<Backend>,
    metrics: Arc<Metrics>,
}

/// Option-set identity for grouping: jobs with equal keys are served by
/// one `search_batch` call.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct OptsKey {
    k: usize,
    strategy: u8,
    min_score_bits: Option<u32>,
}

fn opts_key(o: &SearchOptions) -> OptsKey {
    OptsKey {
        k: o.k,
        strategy: o.strategy as u8,
        min_score_bits: o.min_score.map(f32::to_bits),
    }
}

impl Batcher {
    /// A batcher over `backend`, admitting at most `capacity` queued jobs
    /// and draining at most `max_batch` (≥ 1; 1 disables coalescing) per
    /// cycle.
    pub fn new(
        backend: Arc<Backend>,
        metrics: Arc<Metrics>,
        capacity: usize,
        max_batch: usize,
    ) -> Arc<Batcher> {
        Arc::new(Batcher {
            queue: Mutex::new(VecDeque::new()),
            notify: Condvar::new(),
            capacity: capacity.max(1),
            max_batch: max_batch.max(1),
            shutdown: AtomicBool::new(false),
            batch_seq: AtomicU64::new(0),
            backend,
            metrics,
        })
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<SearchJob>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one search, or refuses with backpressure.
    pub fn submit(
        &self,
        query: Query,
        opts: SearchOptions,
        consistency: Consistency,
        deadline: Instant,
        deadline_ms: u64,
        ctx: Option<TraceCtx>,
    ) -> Submit {
        if self.shutdown.load(Relaxed) {
            return Submit::ShuttingDown;
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let mut q = self.lock();
        if self.shutdown.load(Relaxed) {
            return Submit::ShuttingDown;
        }
        if q.len() >= self.capacity {
            return Submit::QueueFull;
        }
        q.push_back(SearchJob {
            query,
            opts,
            consistency,
            deadline,
            deadline_ms,
            enqueued_at: Instant::now(),
            ctx,
            reply: tx,
        });
        self.metrics.jobs_enqueued.inc();
        self.metrics.set_queue_depth(q.len() as u64);
        drop(q);
        self.notify.notify_one();
        Submit::Enqueued(rx)
    }

    /// Stops admission and wakes the batcher so it can drain and exit.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Relaxed);
        self.notify.notify_all();
    }

    /// Spawns the batcher thread.
    pub fn spawn(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let this = Arc::clone(self);
        std::thread::Builder::new()
            .name("lcdd-batcher".into())
            .spawn(move || this.run())
            .expect("spawn batcher thread")
    }

    fn run(&self) {
        loop {
            let batch = self.next_batch();
            if batch.is_empty() {
                // Only returned empty when shutting down with a drained
                // queue.
                return;
            }
            self.process(batch);
        }
    }

    /// Blocks until work is queued (or shutdown), then drains up to
    /// `max_batch` jobs.
    fn next_batch(&self) -> Vec<SearchJob> {
        let mut q = self.lock();
        loop {
            if !q.is_empty() {
                break;
            }
            if self.shutdown.load(Relaxed) {
                return Vec::new();
            }
            q = self.notify.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        let n = q.len().min(self.max_batch);
        let batch: Vec<SearchJob> = q.drain(..n).collect();
        self.metrics.set_queue_depth(q.len() as u64);
        batch
    }

    /// Answers one drained batch. Public within the crate for the
    /// deterministic unit tests; the server only drives it via `run`.
    pub(crate) fn process(&self, batch: Vec<SearchJob>) {
        let now = Instant::now();
        // Queue-wait accounting at pickup, for every drained job (expired
        // ones waited too — that is usually *why* they expired).
        for job in &batch {
            let waited = now.saturating_duration_since(job.enqueued_at);
            self.metrics.queue_wait.record_duration(waited);
            self.metrics.queue_wait_60s.record_duration(waited);
            if let Some(ctx) = job.ctx {
                ring().record(
                    ctx.trace,
                    ctx.parent,
                    Stage::QueueWait,
                    job.enqueued_at,
                    waited,
                    None,
                    0,
                );
            }
        }
        // 1. Expired-in-queue jobs: 504, never scored.
        let mut live: Vec<SearchJob> = Vec::with_capacity(batch.len());
        for job in batch {
            if job.deadline <= now {
                self.metrics.expired.inc();
                self.answer(
                    &job,
                    JobReply::Err(ApiError::deadline_exceeded(job.deadline_ms)),
                );
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            return;
        }
        // 2. Group by option set, preserving arrival order of groups.
        let mut order: Vec<OptsKey> = Vec::new();
        let mut groups: HashMap<OptsKey, Vec<SearchJob>> = HashMap::new();
        for job in live {
            let key = opts_key(&job.opts);
            if !groups.contains_key(&key) {
                order.push(key);
            }
            groups.entry(key).or_default().push(job);
        }
        for key in order {
            let Some(group) = groups.remove(&key) else {
                continue;
            };
            self.serve_group(group, now);
        }
    }

    /// One coalesced `search_batch` call: pin, contract-check, dedup,
    /// score, fan out. `picked_up` is the drain instant queue waits were
    /// measured against.
    fn serve_group(&self, group: Vec<SearchJob>, picked_up: Instant) {
        let opts = group[0].opts.clone();
        let pin = self.backend.pin();
        // 3. Staleness contracts against the pinned snapshot.
        let mut admitted: Vec<SearchJob> = Vec::with_capacity(group.len());
        for job in group {
            match self.backend.check_consistency(&pin, job.consistency) {
                Ok(()) => admitted.push(job),
                Err(e) => {
                    self.metrics.stale_rejected.inc();
                    self.answer(&job, JobReply::Err(e));
                }
            }
        }
        if admitted.is_empty() {
            return;
        }
        // 4. Dedup identical in-flight queries.
        let mut unique: Vec<Query> = Vec::with_capacity(admitted.len());
        let mut slot_of: HashMap<u128, usize> = HashMap::with_capacity(admitted.len());
        let mut slots: Vec<usize> = Vec::with_capacity(admitted.len());
        for job in &admitted {
            let fp = query_fingerprint(&job.query, &opts);
            let slot = *slot_of.entry(fp).or_insert_with(|| {
                unique.push(job.query.clone());
                unique.len() - 1
            });
            slots.push(slot);
        }
        // 5. One single-epoch batch call for the whole group. When any
        // member is traced, the call itself runs under a freshly minted
        // **batch trace**: engine stage spans land there once, and every
        // traced member records a `batch_member` span linking to it.
        let batch_id = self.batch_seq.fetch_add(1, Relaxed);
        let batch_size = admitted.len();
        let batch_unique = unique.len();
        let batch_trace = admitted
            .iter()
            .any(|j| j.ctx.is_some())
            .then(|| (TraceId::mint(), next_span_id()));
        let serve_start = Instant::now();
        let results = match batch_trace {
            Some((trace, parent)) => with_ctx(Some(TraceCtx { trace, parent }), || {
                self.backend.serve_batch(&pin, &unique, &opts)
            }),
            None => self.backend.serve_batch(&pin, &unique, &opts),
        };
        let served = serve_start.elapsed();
        if let Some((trace, root)) = batch_trace {
            ring().record_with_id(
                trace,
                root,
                0,
                Stage::Batch,
                serve_start,
                served,
                None,
                batch_size as u64,
            );
            for job in &admitted {
                if let Some(ctx) = job.ctx {
                    ring().record(
                        ctx.trace,
                        ctx.parent,
                        Stage::BatchMember,
                        serve_start,
                        served,
                        Some(trace),
                        batch_unique as u64,
                    );
                }
            }
        }
        self.metrics.batches.inc();
        self.metrics.batched_requests.add(batch_size as u64);
        self.metrics
            .deduped_requests
            .add((batch_size - batch_unique) as u64);
        self.metrics.batch_sizes.record(batch_size as u64);
        for r in results.iter().flatten() {
            if let Some(scanned) = r.counts.quant_scanned {
                self.metrics.quant_scanned.add(scanned as u64);
            }
            if let Some(survivors) = r.counts.reranked {
                self.metrics.reranked.add(survivors as u64);
            }
        }
        for (job, slot) in admitted.iter().zip(slots) {
            let queue_wait_ns = u64::try_from(
                picked_up
                    .saturating_duration_since(job.enqueued_at)
                    .as_nanos(),
            )
            .unwrap_or(u64::MAX);
            let reply = match &results[slot] {
                Ok(resp) => JobReply::Ok {
                    resp: resp.clone(),
                    batch_id,
                    batch_size,
                    batch_unique,
                    queue_wait_ns,
                },
                Err(e) => JobReply::Err(from_engine_error(e)),
            };
            self.answer(job, reply);
        }
    }

    /// Sends a reply; a vanished receiver (client timed out and hung up)
    /// still counts as answered.
    fn answer(&self, job: &SearchJob, reply: JobReply) {
        let _ = job.reply.send(reply);
        self.metrics.jobs_answered.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use lcdd_engine::ServingEngine;
    use lcdd_index::IndexStrategy;

    fn test_backend(n_tables: usize) -> Arc<Backend> {
        Arc::new(Backend::Serving(Arc::new(ServingEngine::new(
            lcdd_testkit::tiny_engine(lcdd_testkit::tiny_corpus(n_tables), 2),
        ))))
    }

    fn job(query: Query, deadline: Instant) -> (SearchJob, Receiver<JobReply>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        (
            SearchJob {
                query,
                opts: SearchOptions::top_k(3),
                consistency: Consistency::Any,
                deadline,
                deadline_ms: 1,
                enqueued_at: Instant::now(),
                ctx: None,
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn expired_jobs_answer_504_without_scoring() {
        let metrics = Arc::new(Metrics::default());
        let batcher = Batcher::new(test_backend(4), Arc::clone(&metrics), 16, 8);
        let (j, rx) = job(
            lcdd_testkit::tiny_query(0),
            Instant::now() - Duration::from_millis(5),
        );
        batcher.process(vec![j]);
        match rx.recv().unwrap() {
            JobReply::Err(e) => {
                assert_eq!(e.status, 504);
                assert_eq!(e.code, "deadline_exceeded");
            }
            JobReply::Ok { .. } => panic!("expired job must not be scored"),
        }
        assert_eq!(metrics.expired.get(), 1);
        assert_eq!(metrics.batches.get(), 0, "no search_batch ran");
    }

    #[test]
    fn identical_inflight_queries_are_scored_once() {
        let metrics = Arc::new(Metrics::default());
        let batcher = Batcher::new(test_backend(6), Arc::clone(&metrics), 16, 8);
        let far = Instant::now() + Duration::from_secs(30);
        let mut rxs = Vec::new();
        let mut batch = Vec::new();
        for _ in 0..4 {
            let (j, rx) = job(lcdd_testkit::tiny_query(1), far);
            batch.push(j);
            rxs.push(rx);
        }
        let (j, rx) = job(lcdd_testkit::tiny_query(2), far);
        batch.push(j);
        rxs.push(rx);
        batcher.process(batch);
        let mut epochs = Vec::new();
        let mut ids = Vec::new();
        for rx in rxs {
            match rx.recv().unwrap() {
                JobReply::Ok {
                    resp,
                    batch_id,
                    batch_size,
                    batch_unique,
                    ..
                } => {
                    assert_eq!(batch_size, 5);
                    assert_eq!(
                        batch_unique, 2,
                        "4 duplicates + 1 distinct = 2 computations"
                    );
                    epochs.push(resp.epoch);
                    ids.push(batch_id);
                }
                JobReply::Err(e) => panic!("unexpected error: {}", e.message),
            }
        }
        assert!(
            epochs.windows(2).all(|w| w[0] == w[1]),
            "single-epoch batch"
        );
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "one batch id");
        assert_eq!(metrics.deduped_requests.get(), 3);
        assert_eq!(metrics.batches.get(), 1);
    }

    #[test]
    fn mixed_options_split_into_single_option_batches() {
        let metrics = Arc::new(Metrics::default());
        let batcher = Batcher::new(test_backend(6), Arc::clone(&metrics), 16, 8);
        let far = Instant::now() + Duration::from_secs(30);
        let (tx, rx1) = std::sync::mpsc::sync_channel(1);
        let j1 = SearchJob {
            query: lcdd_testkit::tiny_query(0),
            opts: SearchOptions::top_k(2),
            consistency: Consistency::Any,
            deadline: far,
            deadline_ms: 1000,
            enqueued_at: Instant::now(),
            ctx: None,
            reply: tx,
        };
        let (tx, rx2) = std::sync::mpsc::sync_channel(1);
        let j2 = SearchJob {
            query: lcdd_testkit::tiny_query(0),
            opts: SearchOptions::top_k(2).with_strategy(IndexStrategy::NoIndex),
            consistency: Consistency::Any,
            deadline: far,
            deadline_ms: 1000,
            enqueued_at: Instant::now(),
            ctx: None,
            reply: tx,
        };
        batcher.process(vec![j1, j2]);
        let (mut id1, mut id2) = (0, 0);
        if let JobReply::Ok { batch_id, .. } = rx1.recv().unwrap() {
            id1 = batch_id;
        }
        if let JobReply::Ok { batch_id, .. } = rx2.recv().unwrap() {
            id2 = batch_id;
        }
        assert_ne!(id1, id2, "different option sets never share a batch");
        assert_eq!(metrics.batches.get(), 2);
    }

    #[test]
    fn queue_overflow_and_shutdown_refuse_cleanly() {
        let metrics = Arc::new(Metrics::default());
        let batcher = Batcher::new(test_backend(4), metrics, 2, 8);
        let far = Instant::now() + Duration::from_secs(30);
        let sub = |i: usize| {
            batcher.submit(
                lcdd_testkit::tiny_query(i),
                SearchOptions::top_k(3),
                Consistency::Any,
                far,
                1000,
                None,
            )
        };
        assert!(matches!(sub(0), Submit::Enqueued(_)));
        assert!(matches!(sub(1), Submit::Enqueued(_)));
        assert!(matches!(sub(2), Submit::QueueFull));
        batcher.begin_shutdown();
        assert!(matches!(sub(0), Submit::ShuttingDown));
    }
}
