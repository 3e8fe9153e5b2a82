//! The gateway's observability counters, all lock-free: [`Counter`] /
//! [`Gauge`] relaxed atomics plus [`Histogram`]s (search latency, queue
//! wait, coalesced batch size) and rolling 60-second
//! [`WindowedHistogram`] views of the latency instruments. A `/metrics`
//! scrape reads a relaxed snapshot — it never takes a lock the serving
//! path could contend on — and the Prometheus rendering additionally
//! folds in the process-wide [`lcdd_obs::registry::global`] registry that
//! the store, replication and work-pool layers register into.

use std::time::Instant;

use lcdd_obs::prometheus::Writer;
use lcdd_obs::registry::{Counter, Gauge, Histogram, WindowedHistogram};

use crate::backend::Backend;

/// All gateway counters. Field groups mirror the `/metrics` JSON schema
/// documented in the README.
pub struct Metrics {
    start: Instant,
    // Requests routed, per endpoint.
    pub search: Counter,
    pub insert: Counter,
    pub remove: Counter,
    pub healthz: Counter,
    pub metrics: Counter,
    pub snapshot: Counter,
    pub debug: Counter,
    // Response classes.
    pub ok: Counter,
    pub client_error: Counter,
    pub server_error: Counter,
    pub rejected_queue_full: Counter,
    pub rejected_connections: Counter,
    pub rejected_shutdown: Counter,
    pub expired: Counter,
    pub stale_rejected: Counter,
    // Batcher accounting. `jobs_enqueued == jobs_answered` after a drain
    // is the no-lost-request invariant the shutdown test asserts.
    pub jobs_enqueued: Counter,
    pub jobs_answered: Counter,
    pub queue_depth: Gauge,
    pub queue_high_water: Gauge,
    // Coalescing.
    pub batches: Counter,
    pub batched_requests: Counter,
    pub deduped_requests: Counter,
    pub batch_sizes: Histogram,
    /// `/search` **service** latency, ns: end-to-end handling minus the
    /// admission-queue wait (which [`Metrics::queue_wait`] records on its
    /// own), so queue pressure does not masquerade as scoring cost.
    pub search_latency: Histogram,
    /// Rolling 60-second view of [`Metrics::search_latency`].
    pub search_latency_60s: WindowedHistogram,
    /// Admission-queue wait (submit → batcher pickup), ns.
    pub queue_wait: Histogram,
    /// Rolling 60-second view of [`Metrics::queue_wait`].
    pub queue_wait_60s: WindowedHistogram,
    // Quantized-scan pipeline: candidates proxy-scored by the int8 scan
    // vs candidates that survived into the exact f32 re-rank, summed over
    // every answered search that used `rerank`.
    pub quant_scanned: Counter,
    pub reranked: Counter,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh counters; `start` anchors the qps/uptime computation.
    pub fn new() -> Self {
        Metrics {
            start: Instant::now(),
            search: Counter::new(),
            insert: Counter::new(),
            remove: Counter::new(),
            healthz: Counter::new(),
            metrics: Counter::new(),
            snapshot: Counter::new(),
            debug: Counter::new(),
            ok: Counter::new(),
            client_error: Counter::new(),
            server_error: Counter::new(),
            rejected_queue_full: Counter::new(),
            rejected_connections: Counter::new(),
            rejected_shutdown: Counter::new(),
            expired: Counter::new(),
            stale_rejected: Counter::new(),
            jobs_enqueued: Counter::new(),
            jobs_answered: Counter::new(),
            queue_depth: Gauge::new(),
            queue_high_water: Gauge::new(),
            batches: Counter::new(),
            batched_requests: Counter::new(),
            deduped_requests: Counter::new(),
            batch_sizes: Histogram::new(),
            search_latency: Histogram::new(),
            search_latency_60s: WindowedHistogram::new(),
            queue_wait: Histogram::new(),
            queue_wait_60s: WindowedHistogram::new(),
            quant_scanned: Counter::new(),
            reranked: Counter::new(),
        }
    }

    /// Classifies a response status into the ok/4xx/5xx counters (the
    /// dedicated 503/504/412 counters are bumped at their decision
    /// points, not here).
    pub fn count_status(&self, status: u16) {
        match status {
            200..=299 => self.ok.inc(),
            400..=499 => self.client_error.inc(),
            _ => self.server_error.inc(),
        };
    }

    /// Updates the queue-depth gauge (and its high-water mark).
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.set(depth);
        self.queue_high_water.record_max(depth);
    }

    /// Records one answered `/search`: service time (queue wait already
    /// subtracted by the caller) into the lifetime and windowed
    /// histograms.
    pub fn record_service_time(&self, service_ns: u64) {
        self.search_latency.record(service_ns);
        self.search_latency_60s.record(service_ns);
    }

    /// Renders the `/metrics` JSON document.
    pub fn to_json(&self, backend: &Backend, queue_capacity: usize, draining: bool) -> String {
        let uptime_s = self.start.elapsed().as_secs_f64().max(1e-9);
        let searches = self.search.get();
        let lat = &self.search_latency;
        let qw = &self.queue_wait;
        let bs = &self.batch_sizes;
        let cache = backend.cache_stats();
        let tier = backend.tier_stats();
        let batches = self.batches.get();
        let batched = self.batched_requests.get();
        let mean_batch = if batches == 0 {
            0.0
        } else {
            batched as f64 / batches as f64
        };
        format!(
            concat!(
                "{{",
                "\"uptime_s\":{uptime},",
                "\"draining\":{draining},",
                "\"epoch\":{epoch},",
                "\"tables\":{tables},",
                "\"qps\":{qps},",
                "\"requests\":{{\"search\":{search},\"insert\":{insert},\"remove\":{remove},",
                "\"healthz\":{healthz},\"metrics\":{metricsc},\"snapshot\":{snapshot}}},",
                "\"responses\":{{\"ok\":{ok},\"client_error\":{cerr},\"server_error\":{serr},",
                "\"rejected_503\":{r503},\"rejected_connections\":{rconn},",
                "\"rejected_shutdown\":{rshut},\"expired_504\":{exp},\"stale_412\":{stale}}},",
                "\"latency_us\":{{\"count\":{lcount},\"mean\":{lmean},\"p50\":{p50},",
                "\"p95\":{p95},\"p99\":{p99},\"max\":{lmax}}},",
                "\"latency_recent_us\":{{\"count_60s\":{wcount},\"p50_60s\":{wp50},",
                "\"p95_60s\":{wp95},\"p99_60s\":{wp99}}},",
                "\"queue_wait_us\":{{\"count\":{qwcount},\"mean\":{qwmean},\"p50\":{qwp50},",
                "\"p95\":{qwp95},\"p99\":{qwp99},\"max\":{qwmax}}},",
                "\"queue\":{{\"depth\":{qdepth},\"capacity\":{qcap},\"high_water\":{qhw}}},",
                "\"jobs\":{{\"enqueued\":{jenq},\"answered\":{jans}}},",
                "\"coalescing\":{{\"batches\":{batches},\"requests\":{breq},",
                "\"deduped\":{dedup},\"mean_batch\":{meanb},\"p95_batch\":{p95b},",
                "\"max_batch\":{maxb}}},",
                "\"cache\":{{\"hits\":{chits},\"misses\":{cmiss},\"evictions\":{cevict},",
                "\"len\":{clen}}},",
                "\"tier\":{{\"resident_tables\":{trt},\"mapped_tables\":{tmt},",
                "\"resident_bytes\":{trb},\"mapped_bytes\":{tmb},",
                "\"slots_paged_in\":{tspi},\"bytes_paged_in\":{tbpi},",
                "\"quant_scanned\":{tqs},\"reranked\":{trr}}},",
                "\"trace\":{{\"spans_recorded\":{tsr},\"spans_dropped\":{tsd},",
                "\"ring_capacity\":{trc}}}",
                "}}"
            ),
            uptime = crate::json::num(uptime_s),
            draining = draining,
            epoch = backend.epoch(),
            tables = backend.tables(),
            qps = crate::json::num(searches as f64 / uptime_s),
            search = searches,
            insert = self.insert.get(),
            remove = self.remove.get(),
            healthz = self.healthz.get(),
            metricsc = self.metrics.get(),
            snapshot = self.snapshot.get(),
            ok = self.ok.get(),
            cerr = self.client_error.get(),
            serr = self.server_error.get(),
            r503 = self.rejected_queue_full.get(),
            rconn = self.rejected_connections.get(),
            rshut = self.rejected_shutdown.get(),
            exp = self.expired.get(),
            stale = self.stale_rejected.get(),
            lcount = lat.count(),
            lmean = crate::json::num(lat.mean() / 1_000.0),
            p50 = lat.percentile(0.50) / 1_000,
            p95 = lat.percentile(0.95) / 1_000,
            p99 = lat.percentile(0.99) / 1_000,
            lmax = lat.max() / 1_000,
            wcount = self.search_latency_60s.count(),
            wp50 = self.search_latency_60s.percentile(0.50) / 1_000,
            wp95 = self.search_latency_60s.percentile(0.95) / 1_000,
            wp99 = self.search_latency_60s.percentile(0.99) / 1_000,
            qwcount = qw.count(),
            qwmean = crate::json::num(qw.mean() / 1_000.0),
            qwp50 = qw.percentile(0.50) / 1_000,
            qwp95 = qw.percentile(0.95) / 1_000,
            qwp99 = qw.percentile(0.99) / 1_000,
            qwmax = qw.max() / 1_000,
            qdepth = self.queue_depth.get(),
            qcap = queue_capacity,
            qhw = self.queue_high_water.get(),
            jenq = self.jobs_enqueued.get(),
            jans = self.jobs_answered.get(),
            batches = batches,
            breq = batched,
            dedup = self.deduped_requests.get(),
            meanb = crate::json::num(mean_batch),
            p95b = bs.percentile(0.95),
            maxb = bs.max(),
            chits = cache.hits,
            cmiss = cache.misses,
            cevict = cache.evictions,
            clen = cache.len,
            trt = tier.resident_tables,
            tmt = tier.mapped_tables,
            trb = tier.resident_bytes,
            tmb = tier.mapped_bytes,
            tspi = tier.slots_paged_in,
            tbpi = tier.bytes_paged_in,
            tqs = self.quant_scanned.get(),
            trr = self.reranked.get(),
            tsr = lcdd_obs::trace::ring().recorded(),
            tsd = lcdd_obs::trace::ring().dropped(),
            trc = lcdd_obs::trace::ring().capacity(),
        )
    }

    /// Renders the `/metrics` Prometheus text exposition: this gateway's
    /// instruments, the engine tier behind it, the span ring, and every
    /// instrument the store/repl/pool layers registered into the
    /// process-wide registry. Lock discipline matches the JSON path —
    /// relaxed instrument reads plus one brief registry-map clone.
    pub fn to_prometheus(
        &self,
        backend: &Backend,
        queue_capacity: usize,
        draining: bool,
    ) -> String {
        let uptime_s = self.start.elapsed().as_secs_f64().max(1e-9);
        let cache = backend.cache_stats();
        let tier = backend.tier_stats();
        let mut w = Writer::new();
        // Gateway: routing + response classes.
        w.gauge_f64(
            "lcdd_gateway_uptime_seconds",
            "Seconds since the gateway started.",
            uptime_s,
        );
        w.gauge(
            "lcdd_gateway_draining",
            "1 while the gateway is draining for shutdown.",
            u64::from(draining),
        );
        for (name, help, c) in [
            (
                "lcdd_gateway_search_requests_total",
                "POST /search requests routed.",
                &self.search,
            ),
            (
                "lcdd_gateway_insert_requests_total",
                "POST /insert requests routed.",
                &self.insert,
            ),
            (
                "lcdd_gateway_remove_requests_total",
                "POST /remove requests routed.",
                &self.remove,
            ),
            (
                "lcdd_gateway_healthz_requests_total",
                "GET /healthz requests routed.",
                &self.healthz,
            ),
            (
                "lcdd_gateway_metrics_requests_total",
                "GET /metrics scrapes.",
                &self.metrics,
            ),
            (
                "lcdd_gateway_snapshot_requests_total",
                "GET /snapshot requests routed.",
                &self.snapshot,
            ),
            (
                "lcdd_gateway_debug_requests_total",
                "GET /debug/* requests routed.",
                &self.debug,
            ),
            ("lcdd_gateway_ok_total", "2xx responses.", &self.ok),
            (
                "lcdd_gateway_client_error_total",
                "4xx responses.",
                &self.client_error,
            ),
            (
                "lcdd_gateway_server_error_total",
                "5xx responses.",
                &self.server_error,
            ),
            (
                "lcdd_gateway_rejected_queue_full_total",
                "503s from admission-queue overflow.",
                &self.rejected_queue_full,
            ),
            (
                "lcdd_gateway_rejected_connections_total",
                "503s from the connection cap.",
                &self.rejected_connections,
            ),
            (
                "lcdd_gateway_rejected_shutdown_total",
                "503s refused during drain.",
                &self.rejected_shutdown,
            ),
            (
                "lcdd_gateway_expired_total",
                "504s answered for jobs that expired in queue.",
                &self.expired,
            ),
            (
                "lcdd_gateway_stale_rejected_total",
                "412s from staleness-contract failures.",
                &self.stale_rejected,
            ),
            (
                "lcdd_gateway_jobs_enqueued_total",
                "Searches admitted to the batcher queue.",
                &self.jobs_enqueued,
            ),
            (
                "lcdd_gateway_jobs_answered_total",
                "Batcher replies sent (equals enqueued after a drain).",
                &self.jobs_answered,
            ),
            (
                "lcdd_gateway_batches_total",
                "Coalesced search_batch calls.",
                &self.batches,
            ),
            (
                "lcdd_gateway_batched_requests_total",
                "Requests answered by coalesced calls.",
                &self.batched_requests,
            ),
            (
                "lcdd_gateway_deduped_requests_total",
                "Requests answered by a batch-mate's computation.",
                &self.deduped_requests,
            ),
        ] {
            w.counter(name, help, c.get());
        }
        w.gauge(
            "lcdd_gateway_queue_depth",
            "Jobs waiting in the admission queue.",
            self.queue_depth.get(),
        );
        w.gauge(
            "lcdd_gateway_queue_high_water",
            "Deepest the admission queue has been.",
            self.queue_high_water.get(),
        );
        w.gauge(
            "lcdd_gateway_queue_capacity",
            "Admission-queue capacity.",
            queue_capacity as u64,
        );
        w.summary(
            "lcdd_gateway_batch_size",
            "Coalesced batch sizes.",
            &self.batch_sizes,
        );
        w.summary(
            "lcdd_gateway_search_latency_ns",
            "Search service time (queue wait subtracted), ns.",
            &self.search_latency,
        );
        w.summary_windowed(
            "lcdd_gateway_search_latency_recent_ns",
            "Search service time over the last ~60s, ns.",
            &self.search_latency_60s,
        );
        w.summary(
            "lcdd_gateway_queue_wait_ns",
            "Admission-queue wait, ns.",
            &self.queue_wait,
        );
        w.summary_windowed(
            "lcdd_gateway_queue_wait_recent_ns",
            "Admission-queue wait over the last ~60s, ns.",
            &self.queue_wait_60s,
        );
        // Engine tier behind this gateway (cache + residency + quantized
        // pipeline). Per-gateway, not in the global registry: one process
        // can serve several engines.
        w.gauge(
            "lcdd_engine_epoch",
            "Published corpus epoch.",
            backend.epoch(),
        );
        w.gauge(
            "lcdd_engine_tables",
            "Tables in the published snapshot.",
            backend.tables() as u64,
        );
        w.gauge(
            "lcdd_engine_shards",
            "Shards in the published snapshot.",
            backend.shards() as u64,
        );
        w.gauge(
            "lcdd_engine_resident_tables",
            "Tables resident in the hot tier.",
            tier.resident_tables,
        );
        w.gauge(
            "lcdd_engine_mapped_tables",
            "Tables served from mmap'd segments.",
            tier.mapped_tables,
        );
        w.gauge(
            "lcdd_engine_resident_bytes",
            "Hot-tier resident bytes.",
            tier.resident_bytes,
        );
        w.gauge(
            "lcdd_engine_mapped_bytes",
            "Cold-tier mapped bytes.",
            tier.mapped_bytes,
        );
        w.counter(
            "lcdd_engine_slots_paged_in_total",
            "Cold-tier slots paged in for scoring.",
            tier.slots_paged_in,
        );
        w.counter(
            "lcdd_engine_bytes_paged_in_total",
            "Cold-tier bytes paged in for scoring.",
            tier.bytes_paged_in,
        );
        w.counter(
            "lcdd_engine_quant_scanned_total",
            "Candidates proxy-scored by the int8 scan.",
            self.quant_scanned.get(),
        );
        w.counter(
            "lcdd_engine_reranked_total",
            "Candidates surviving into the exact re-rank.",
            self.reranked.get(),
        );
        w.counter(
            "lcdd_engine_cache_hits_total",
            "Query-cache hits.",
            cache.hits,
        );
        w.counter(
            "lcdd_engine_cache_misses_total",
            "Query-cache misses.",
            cache.misses,
        );
        w.counter(
            "lcdd_engine_cache_evictions_total",
            "Query-cache evictions.",
            cache.evictions,
        );
        w.gauge(
            "lcdd_engine_cache_len",
            "Query-cache entries.",
            cache.len as u64,
        );
        // Span ring health.
        let ring = lcdd_obs::trace::ring();
        w.counter(
            "lcdd_trace_spans_recorded_total",
            "Spans recorded into the ring.",
            ring.recorded(),
        );
        w.counter(
            "lcdd_trace_spans_dropped_total",
            "Spans dropped to writer collisions.",
            ring.dropped(),
        );
        w.gauge(
            "lcdd_trace_ring_capacity",
            "Span-ring capacity.",
            ring.capacity() as u64,
        );
        // Everything the store/repl/pool layers registered process-wide.
        w.registry(lcdd_obs::registry::global());
        w.finish()
    }
}

/// Registers the process-wide instruments the gateway can vouch for but
/// that belong to no single request: the scoring work pool. Idempotent —
/// every `Server::start` calls it, the first wins.
pub fn register_process_instruments() {
    let registry = lcdd_obs::registry::global();
    registry.gauge_fn(
        "lcdd_pool_threads",
        "Worker threads in the scoring pool.",
        || lcdd_tensor::pool::num_threads() as u64,
    );
    registry.gauge_fn(
        "lcdd_pool_tasks",
        "Tasks executed by the scoring pool (monotone).",
        lcdd_tensor::pool::tasks_executed,
    );
}
