//! The gateway's observability instruments and the `/metrics` scrape.
//!
//! Instruments are lock-free: [`Counter`] / [`Gauge`] relaxed atomics
//! plus [`Histogram`]s (search latency, queue wait, coalesced batch size)
//! and rolling 60-second [`WindowedHistogram`] views of the latency
//! instruments. The serving path records into them; a scrape only reads,
//! so it never takes a lock the serving path could contend on.
//!
//! Every exported value is declared once, in `Metrics::walk`: its
//! Prometheus family, help text, JSON section and key, and value. The walk
//! reads the backend through one [`Backend::pin`], so `epoch`, `tables`,
//! `shards` and the tier in one document always describe the same corpus.
//! Two sinks render it: `json` (the default `/metrics` document) and
//! `prometheus` (the text exposition, followed by every instrument the
//! store, replication and work-pool layers registered in the process-wide
//! [`lcdd_obs::registry::global`]). Adding a gateway instrument is one
//! entry in the walk.

use std::time::Duration;

use lcdd_obs::prometheus::Writer;
use lcdd_obs::registry::{Counter, Gauge, Histogram, WindowedHistogram};

use crate::backend::Backend;

/// All gateway counters. Field groups mirror the `/metrics` JSON schema
/// documented in the README.
#[derive(Default)]
pub struct Metrics {
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

/// How one exported value reads, and so how each format renders it.
#[derive(Clone, Copy)]
pub(crate) enum Value<'a> {
    /// A monotone count: a Prometheus counter.
    Count(u64),
    /// A level: a Prometheus gauge.
    Level(u64),
    /// A fractional level (seconds, rates): a Prometheus gauge.
    Float(f64),
    /// A Prometheus gauge reading 0 or 1; JSON `true` / `false`.
    Flag(bool),
    /// A lifetime histogram of nanoseconds: a Prometheus summary; JSON
    /// `count`, `mean`, `p50`, `p95`, `p99`, `max` in µs.
    Nanos(&'a Histogram),
    /// A windowed histogram of nanoseconds: a Prometheus summary over the
    /// window; JSON `count`, `p50`, `p95`, `p99` in µs.
    RecentNanos(&'a WindowedHistogram),
    /// A lifetime histogram of batch sizes: a Prometheus summary; JSON
    /// `mean`, `p95`, `max`.
    Sizes(&'a Histogram),
}

/// One exported value, declared once for both formats.
pub(crate) struct Entry<'a> {
    /// Prometheus family; `None` keeps the value out of the exposition.
    prom: Option<&'static str>,
    /// Key within the entry's JSON section — for a histogram, the suffix
    /// each of its statistic keys carries; `None` keeps the value out of
    /// the JSON document.
    json: Option<&'static str>,
    value: Value<'a>,
    help: &'static str,
}

/// A JSON section (`""` is the document's top level) and its entries.
pub(crate) type Section<'a> = (&'static str, Vec<Entry<'a>>);

fn entry<'a>(
    prom: Option<&'static str>,
    json: Option<&'static str>,
    value: Value<'a>,
    help: &'static str,
) -> Entry<'a> {
    Entry {
        prom,
        json,
        value,
        help,
    }
}

/// The statistics a histogram can report in JSON, in document order.
const STATS: [&str; 6] = ["count", "mean", "p50", "p95", "p99", "max"];

impl Value<'_> {
    /// This value's `"key":value` JSON fields: one for a scalar, one per
    /// statistic its shape reports (keyed `<stat><key>`) for a histogram.
    fn json_fields(self, key: &str) -> Vec<String> {
        let us = |ns: u64| Some((ns / 1_000).to_string());
        let stats = match self {
            Value::Count(v) | Value::Level(v) => return vec![format!("\"{key}\":{v}")],
            Value::Float(v) => return vec![format!("\"{key}\":{}", crate::json::num(v))],
            Value::Flag(b) => return vec![format!("\"{key}\":{b}")],
            Value::Nanos(h) => [
                Some(h.count().to_string()),
                Some(crate::json::num(h.mean() / 1_000.0)),
                us(h.percentile(0.50)),
                us(h.percentile(0.95)),
                us(h.percentile(0.99)),
                us(h.max()),
            ],
            Value::RecentNanos(w) => [
                Some(w.count().to_string()),
                None,
                us(w.percentile(0.50)),
                us(w.percentile(0.95)),
                us(w.percentile(0.99)),
                None,
            ],
            Value::Sizes(h) => [
                None,
                Some(crate::json::num(h.mean())),
                None,
                Some(h.percentile(0.95).to_string()),
                None,
                Some(h.max().to_string()),
            ],
        };
        STATS
            .iter()
            .zip(stats)
            .filter_map(|(stat, v)| Some(format!("\"{stat}{key}\":{}", v?)))
            .collect()
    }
}

/// Renders a walk as the `/metrics` JSON document: the top-level keys,
/// then one object per section, in walk order.
pub(crate) fn json(walk: &[Section<'_>]) -> String {
    let parts: Vec<String> = walk
        .iter()
        .map(|(section, entries)| {
            let fields = entries
                .iter()
                .filter_map(|e| Some(e.value.json_fields(e.json?)))
                .flatten()
                .collect::<Vec<_>>()
                .join(",");
            if section.is_empty() {
                fields
            } else {
                format!("\"{section}\":{{{fields}}}")
            }
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Renders a walk as the Prometheus text exposition, followed by every
/// instrument registered in the process-wide registry.
pub(crate) fn prometheus(walk: &[Section<'_>]) -> String {
    let mut w = Writer::new();
    for e in walk.iter().flat_map(|(_, entries)| entries) {
        let Some(name) = e.prom else { continue };
        match e.value {
            Value::Count(v) => w.counter(name, e.help, v),
            Value::Level(v) => w.gauge(name, e.help, v),
            Value::Float(v) => w.gauge_f64(name, e.help, v),
            Value::Flag(b) => w.gauge(name, e.help, u64::from(b)),
            Value::Nanos(h) | Value::Sizes(h) => w.summary(name, e.help, h),
            Value::RecentNanos(h) => w.summary_windowed(name, e.help, h),
        }
    }
    w.registry(lcdd_obs::registry::global());
    w.finish()
}

impl Metrics {
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

    /// Everything `/metrics` exports, in JSON document order, with the
    /// backend's facts read from one pinned snapshot. `uptime` is the
    /// gateway's age; `queue_capacity` and `draining` its admission state.
    #[rustfmt::skip]
    pub(crate) fn walk(
        &self,
        backend: &Backend,
        uptime: Duration,
        queue_capacity: usize,
        draining: bool,
    ) -> Vec<Section<'_>> {
        use Value::*;
        let pin = backend.pin();
        let state = &pin.state;
        let tier = state.tier_stats();
        let cache = backend.cache_stats();
        let ring = lcdd_obs::trace::ring();
        let uptime_s = uptime.as_secs_f64().max(1e-9);
        let searches = self.search.get();
        vec![
            ("", vec![
                entry(Some("lcdd_gateway_uptime_seconds"), Some("uptime_s"),
                      Float(uptime_s), "Seconds since the gateway started."),
                entry(Some("lcdd_gateway_draining"), Some("draining"),
                      Flag(draining), "1 while the gateway is draining for shutdown."),
                entry(Some("lcdd_engine_epoch"), Some("epoch"),
                      Level(state.epoch()), "Published corpus epoch."),
                entry(Some("lcdd_engine_tables"), Some("tables"),
                      Level(state.len() as u64), "Tables in the published snapshot."),
                entry(Some("lcdd_engine_shards"), None,
                      Level(state.shards().len() as u64), "Shards in the published snapshot."),
                entry(None, Some("qps"),
                      Float(searches as f64 / uptime_s),
                      "Searches per second since the gateway started."),
            ]),
            ("requests", vec![
                entry(Some("lcdd_gateway_search_requests_total"), Some("search"),
                      Count(searches), "POST /search requests routed."),
                entry(Some("lcdd_gateway_insert_requests_total"), Some("insert"),
                      Count(self.insert.get()), "POST /insert requests routed."),
                entry(Some("lcdd_gateway_remove_requests_total"), Some("remove"),
                      Count(self.remove.get()), "POST /remove requests routed."),
                entry(Some("lcdd_gateway_healthz_requests_total"), Some("healthz"),
                      Count(self.healthz.get()), "GET /healthz requests routed."),
                entry(Some("lcdd_gateway_metrics_requests_total"), Some("metrics"),
                      Count(self.metrics.get()), "GET /metrics scrapes."),
                entry(Some("lcdd_gateway_snapshot_requests_total"), Some("snapshot"),
                      Count(self.snapshot.get()), "GET /snapshot requests routed."),
                entry(Some("lcdd_gateway_debug_requests_total"), None,
                      Count(self.debug.get()), "GET /debug/* requests routed."),
            ]),
            ("responses", vec![
                entry(Some("lcdd_gateway_ok_total"), Some("ok"),
                      Count(self.ok.get()), "2xx responses."),
                entry(Some("lcdd_gateway_client_error_total"), Some("client_error"),
                      Count(self.client_error.get()), "4xx responses."),
                entry(Some("lcdd_gateway_server_error_total"), Some("server_error"),
                      Count(self.server_error.get()), "5xx responses."),
                entry(Some("lcdd_gateway_rejected_queue_full_total"), Some("rejected_503"),
                      Count(self.rejected_queue_full.get()), "503s from admission-queue overflow."),
                entry(Some("lcdd_gateway_rejected_connections_total"), Some("rejected_connections"),
                      Count(self.rejected_connections.get()), "503s from the connection cap."),
                entry(Some("lcdd_gateway_rejected_shutdown_total"), Some("rejected_shutdown"),
                      Count(self.rejected_shutdown.get()), "503s refused during drain."),
                entry(Some("lcdd_gateway_expired_total"), Some("expired_504"),
                      Count(self.expired.get()), "504s answered for jobs that expired in queue."),
                entry(Some("lcdd_gateway_stale_rejected_total"), Some("stale_412"),
                      Count(self.stale_rejected.get()), "412s from staleness-contract failures."),
            ]),
            ("latency_us", vec![
                entry(Some("lcdd_gateway_search_latency_ns"), Some(""),
                      Nanos(&self.search_latency),
                      "Search service time (queue wait subtracted), ns."),
            ]),
            ("latency_recent_us", vec![
                entry(Some("lcdd_gateway_search_latency_recent_ns"), Some("_60s"),
                      RecentNanos(&self.search_latency_60s),
                      "Search service time over the last ~60s, ns."),
            ]),
            ("queue_wait_us", vec![
                entry(Some("lcdd_gateway_queue_wait_ns"), Some(""),
                      Nanos(&self.queue_wait), "Admission-queue wait, ns."),
                entry(Some("lcdd_gateway_queue_wait_recent_ns"), None,
                      RecentNanos(&self.queue_wait_60s),
                      "Admission-queue wait over the last ~60s, ns."),
            ]),
            ("queue", vec![
                entry(Some("lcdd_gateway_queue_depth"), Some("depth"),
                      Level(self.queue_depth.get()), "Jobs waiting in the admission queue."),
                entry(Some("lcdd_gateway_queue_capacity"), Some("capacity"),
                      Level(queue_capacity as u64), "Admission-queue capacity."),
                entry(Some("lcdd_gateway_queue_high_water"), Some("high_water"),
                      Level(self.queue_high_water.get()), "Deepest the admission queue has been."),
            ]),
            ("jobs", vec![
                entry(Some("lcdd_gateway_jobs_enqueued_total"), Some("enqueued"),
                      Count(self.jobs_enqueued.get()), "Searches admitted to the batcher queue."),
                entry(Some("lcdd_gateway_jobs_answered_total"), Some("answered"),
                      Count(self.jobs_answered.get()),
                      "Batcher replies sent (equals enqueued after a drain)."),
            ]),
            ("coalescing", vec![
                entry(Some("lcdd_gateway_batches_total"), Some("batches"),
                      Count(self.batches.get()), "Coalesced search_batch calls."),
                entry(Some("lcdd_gateway_batched_requests_total"), Some("requests"),
                      Count(self.batched_requests.get()), "Requests answered by coalesced calls."),
                entry(Some("lcdd_gateway_deduped_requests_total"), Some("deduped"),
                      Count(self.deduped_requests.get()),
                      "Requests answered by a batch-mate's computation."),
                entry(Some("lcdd_gateway_batch_size"), Some("_batch"),
                      Sizes(&self.batch_sizes), "Coalesced batch sizes."),
            ]),
            ("cache", vec![
                entry(Some("lcdd_engine_cache_hits_total"), Some("hits"),
                      Count(cache.hits), "Query-cache hits."),
                entry(Some("lcdd_engine_cache_misses_total"), Some("misses"),
                      Count(cache.misses), "Query-cache misses."),
                entry(Some("lcdd_engine_cache_evictions_total"), Some("evictions"),
                      Count(cache.evictions), "Query-cache evictions."),
                entry(Some("lcdd_engine_cache_len"), Some("len"),
                      Level(cache.len as u64), "Query-cache entries."),
            ]),
            ("tier", vec![
                entry(Some("lcdd_engine_resident_tables"), Some("resident_tables"),
                      Level(tier.resident_tables), "Tables resident in the hot tier."),
                entry(Some("lcdd_engine_mapped_tables"), Some("mapped_tables"),
                      Level(tier.mapped_tables), "Tables served from mmap'd segments."),
                entry(Some("lcdd_engine_resident_bytes"), Some("resident_bytes"),
                      Level(tier.resident_bytes), "Hot-tier resident bytes."),
                entry(Some("lcdd_engine_mapped_bytes"), Some("mapped_bytes"),
                      Level(tier.mapped_bytes), "Cold-tier mapped bytes."),
                entry(Some("lcdd_engine_slots_paged_in_total"), Some("slots_paged_in"),
                      Count(tier.slots_paged_in), "Cold-tier slots paged in for scoring."),
                entry(Some("lcdd_engine_bytes_paged_in_total"), Some("bytes_paged_in"),
                      Count(tier.bytes_paged_in), "Cold-tier bytes paged in for scoring."),
                entry(Some("lcdd_engine_quant_scanned_total"), Some("quant_scanned"),
                      Count(self.quant_scanned.get()), "Candidates proxy-scored by the int8 scan."),
                entry(Some("lcdd_engine_reranked_total"), Some("reranked"),
                      Count(self.reranked.get()), "Candidates surviving into the exact re-rank."),
            ]),
            ("trace", vec![
                entry(Some("lcdd_trace_spans_recorded_total"), Some("spans_recorded"),
                      Count(ring.recorded()), "Spans recorded into the ring."),
                entry(Some("lcdd_trace_spans_dropped_total"), Some("spans_dropped"),
                      Count(ring.dropped()), "Spans dropped to writer collisions."),
                entry(Some("lcdd_trace_ring_capacity"), Some("ring_capacity"),
                      Level(ring.capacity() as u64), "Span-ring capacity."),
            ]),
        ]
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::time::Instant;

    use lcdd_engine::{SearchOptions, ServingEngine};
    use lcdd_obs::trace::{ring, Stage, TraceId};

    use crate::json::Json;

    /// The JSON document the two hand-written renderers this walk replaced
    /// produced for [`golden_state`], captured once. `uptime_s` and `qps`
    /// read a clock there; they hold the values a 4 s uptime gives.
    const GOLDEN_JSON: &str = concat!(
        r#"{"uptime_s":4,"draining":true,"epoch":1,"tables":8,"qps":25,"#,
        r#""requests":{"search":100,"insert":107,"remove":114,"healthz":121,"metrics":128,"snapshot":135},"#,
        r#""responses":{"ok":149,"client_error":156,"server_error":163,"rejected_503":170,"rejected_connections":177,"rejected_shutdown":184,"expired_504":191,"stale_412":198},"#,
        r#""latency_us":{"count":3,"mean":4485.596,"p50":2359,"p95":9876,"p99":9876,"max":9876},"#,
        r#""latency_recent_us":{"count_60s":5,"p50_60s":1245,"p95_60s":9876,"p99_60s":9876},"#,
        r#""queue_wait_us":{"count":4,"mean":475,"p50":425,"p95":640,"p99":640,"max":640},"#,
        r#""queue":{"depth":41,"capacity":64,"high_water":43},"#,
        r#""jobs":{"enqueued":205,"answered":212},"#,
        r#""coalescing":{"batches":4,"requests":31,"deduped":219,"mean_batch":7.75,"p95_batch":17,"max_batch":17},"#,
        r#""cache":{"hits":1,"misses":2,"evictions":0,"len":2},"#,
        r#""tier":{"resident_tables":8,"mapped_tables":0,"resident_bytes":2496,"mapped_bytes":0,"slots_paged_in":0,"bytes_paged_in":0,"quant_scanned":226,"reranked":233},"#,
        r#""trace":{"spans_recorded":7,"spans_dropped":0,"ring_capacity":4096}}"#,
    );

    /// The same capture's Prometheus lines for the gateway's own families
    /// (the process-wide registry's are left out), with the uptime sample
    /// set as above. Family order is not part of the contract.
    const GOLDEN_PROM: &str = r#"
# HELP lcdd_gateway_uptime_seconds Seconds since the gateway started.
# TYPE lcdd_gateway_uptime_seconds gauge
lcdd_gateway_uptime_seconds 4
# HELP lcdd_gateway_draining 1 while the gateway is draining for shutdown.
# TYPE lcdd_gateway_draining gauge
lcdd_gateway_draining 1
# HELP lcdd_gateway_search_requests_total POST /search requests routed.
# TYPE lcdd_gateway_search_requests_total counter
lcdd_gateway_search_requests_total 100
# HELP lcdd_gateway_insert_requests_total POST /insert requests routed.
# TYPE lcdd_gateway_insert_requests_total counter
lcdd_gateway_insert_requests_total 107
# HELP lcdd_gateway_remove_requests_total POST /remove requests routed.
# TYPE lcdd_gateway_remove_requests_total counter
lcdd_gateway_remove_requests_total 114
# HELP lcdd_gateway_healthz_requests_total GET /healthz requests routed.
# TYPE lcdd_gateway_healthz_requests_total counter
lcdd_gateway_healthz_requests_total 121
# HELP lcdd_gateway_metrics_requests_total GET /metrics scrapes.
# TYPE lcdd_gateway_metrics_requests_total counter
lcdd_gateway_metrics_requests_total 128
# HELP lcdd_gateway_snapshot_requests_total GET /snapshot requests routed.
# TYPE lcdd_gateway_snapshot_requests_total counter
lcdd_gateway_snapshot_requests_total 135
# HELP lcdd_gateway_debug_requests_total GET /debug/* requests routed.
# TYPE lcdd_gateway_debug_requests_total counter
lcdd_gateway_debug_requests_total 142
# HELP lcdd_gateway_ok_total 2xx responses.
# TYPE lcdd_gateway_ok_total counter
lcdd_gateway_ok_total 149
# HELP lcdd_gateway_client_error_total 4xx responses.
# TYPE lcdd_gateway_client_error_total counter
lcdd_gateway_client_error_total 156
# HELP lcdd_gateway_server_error_total 5xx responses.
# TYPE lcdd_gateway_server_error_total counter
lcdd_gateway_server_error_total 163
# HELP lcdd_gateway_rejected_queue_full_total 503s from admission-queue overflow.
# TYPE lcdd_gateway_rejected_queue_full_total counter
lcdd_gateway_rejected_queue_full_total 170
# HELP lcdd_gateway_rejected_connections_total 503s from the connection cap.
# TYPE lcdd_gateway_rejected_connections_total counter
lcdd_gateway_rejected_connections_total 177
# HELP lcdd_gateway_rejected_shutdown_total 503s refused during drain.
# TYPE lcdd_gateway_rejected_shutdown_total counter
lcdd_gateway_rejected_shutdown_total 184
# HELP lcdd_gateway_expired_total 504s answered for jobs that expired in queue.
# TYPE lcdd_gateway_expired_total counter
lcdd_gateway_expired_total 191
# HELP lcdd_gateway_stale_rejected_total 412s from staleness-contract failures.
# TYPE lcdd_gateway_stale_rejected_total counter
lcdd_gateway_stale_rejected_total 198
# HELP lcdd_gateway_jobs_enqueued_total Searches admitted to the batcher queue.
# TYPE lcdd_gateway_jobs_enqueued_total counter
lcdd_gateway_jobs_enqueued_total 205
# HELP lcdd_gateway_jobs_answered_total Batcher replies sent (equals enqueued after a drain).
# TYPE lcdd_gateway_jobs_answered_total counter
lcdd_gateway_jobs_answered_total 212
# HELP lcdd_gateway_batches_total Coalesced search_batch calls.
# TYPE lcdd_gateway_batches_total counter
lcdd_gateway_batches_total 4
# HELP lcdd_gateway_batched_requests_total Requests answered by coalesced calls.
# TYPE lcdd_gateway_batched_requests_total counter
lcdd_gateway_batched_requests_total 31
# HELP lcdd_gateway_deduped_requests_total Requests answered by a batch-mate's computation.
# TYPE lcdd_gateway_deduped_requests_total counter
lcdd_gateway_deduped_requests_total 219
# HELP lcdd_gateway_queue_depth Jobs waiting in the admission queue.
# TYPE lcdd_gateway_queue_depth gauge
lcdd_gateway_queue_depth 41
# HELP lcdd_gateway_queue_high_water Deepest the admission queue has been.
# TYPE lcdd_gateway_queue_high_water gauge
lcdd_gateway_queue_high_water 43
# HELP lcdd_gateway_queue_capacity Admission-queue capacity.
# TYPE lcdd_gateway_queue_capacity gauge
lcdd_gateway_queue_capacity 64
# HELP lcdd_gateway_batch_size Coalesced batch sizes.
# TYPE lcdd_gateway_batch_size summary
lcdd_gateway_batch_size{quantile="0.5"} 3
lcdd_gateway_batch_size{quantile="0.95"} 17
lcdd_gateway_batch_size{quantile="0.99"} 17
lcdd_gateway_batch_size_sum 31
lcdd_gateway_batch_size_count 4
# HELP lcdd_gateway_search_latency_ns Search service time (queue wait subtracted), ns.
# TYPE lcdd_gateway_search_latency_ns summary
lcdd_gateway_search_latency_ns{quantile="0.5"} 2359295
lcdd_gateway_search_latency_ns{quantile="0.95"} 9876543
lcdd_gateway_search_latency_ns{quantile="0.99"} 9876543
lcdd_gateway_search_latency_ns_sum 13456788
lcdd_gateway_search_latency_ns_count 3
# HELP lcdd_gateway_search_latency_recent_ns Search service time over the last ~60s, ns.
# TYPE lcdd_gateway_search_latency_recent_ns summary
lcdd_gateway_search_latency_recent_ns{quantile="0.5"} 1245183
lcdd_gateway_search_latency_recent_ns{quantile="0.95"} 9876543
lcdd_gateway_search_latency_recent_ns{quantile="0.99"} 9876543
lcdd_gateway_search_latency_recent_ns_sum 0
lcdd_gateway_search_latency_recent_ns_count 5
# HELP lcdd_gateway_queue_wait_ns Admission-queue wait, ns.
# TYPE lcdd_gateway_queue_wait_ns summary
lcdd_gateway_queue_wait_ns{quantile="0.5"} 425983
lcdd_gateway_queue_wait_ns{quantile="0.95"} 640000
lcdd_gateway_queue_wait_ns{quantile="0.99"} 640000
lcdd_gateway_queue_wait_ns_sum 1900000
lcdd_gateway_queue_wait_ns_count 4
# HELP lcdd_gateway_queue_wait_recent_ns Admission-queue wait over the last ~60s, ns.
# TYPE lcdd_gateway_queue_wait_recent_ns summary
lcdd_gateway_queue_wait_recent_ns{quantile="0.5"} 901119
lcdd_gateway_queue_wait_recent_ns{quantile="0.95"} 999999
lcdd_gateway_queue_wait_recent_ns{quantile="0.99"} 999999
lcdd_gateway_queue_wait_recent_ns_sum 0
lcdd_gateway_queue_wait_recent_ns_count 3
# HELP lcdd_engine_epoch Published corpus epoch.
# TYPE lcdd_engine_epoch gauge
lcdd_engine_epoch 1
# HELP lcdd_engine_tables Tables in the published snapshot.
# TYPE lcdd_engine_tables gauge
lcdd_engine_tables 8
# HELP lcdd_engine_shards Shards in the published snapshot.
# TYPE lcdd_engine_shards gauge
lcdd_engine_shards 2
# HELP lcdd_engine_resident_tables Tables resident in the hot tier.
# TYPE lcdd_engine_resident_tables gauge
lcdd_engine_resident_tables 8
# HELP lcdd_engine_mapped_tables Tables served from mmap'd segments.
# TYPE lcdd_engine_mapped_tables gauge
lcdd_engine_mapped_tables 0
# HELP lcdd_engine_resident_bytes Hot-tier resident bytes.
# TYPE lcdd_engine_resident_bytes gauge
lcdd_engine_resident_bytes 2496
# HELP lcdd_engine_mapped_bytes Cold-tier mapped bytes.
# TYPE lcdd_engine_mapped_bytes gauge
lcdd_engine_mapped_bytes 0
# HELP lcdd_engine_slots_paged_in_total Cold-tier slots paged in for scoring.
# TYPE lcdd_engine_slots_paged_in_total counter
lcdd_engine_slots_paged_in_total 0
# HELP lcdd_engine_bytes_paged_in_total Cold-tier bytes paged in for scoring.
# TYPE lcdd_engine_bytes_paged_in_total counter
lcdd_engine_bytes_paged_in_total 0
# HELP lcdd_engine_quant_scanned_total Candidates proxy-scored by the int8 scan.
# TYPE lcdd_engine_quant_scanned_total counter
lcdd_engine_quant_scanned_total 226
# HELP lcdd_engine_reranked_total Candidates surviving into the exact re-rank.
# TYPE lcdd_engine_reranked_total counter
lcdd_engine_reranked_total 233
# HELP lcdd_engine_cache_hits_total Query-cache hits.
# TYPE lcdd_engine_cache_hits_total counter
lcdd_engine_cache_hits_total 1
# HELP lcdd_engine_cache_misses_total Query-cache misses.
# TYPE lcdd_engine_cache_misses_total counter
lcdd_engine_cache_misses_total 2
# HELP lcdd_engine_cache_evictions_total Query-cache evictions.
# TYPE lcdd_engine_cache_evictions_total counter
lcdd_engine_cache_evictions_total 0
# HELP lcdd_engine_cache_len Query-cache entries.
# TYPE lcdd_engine_cache_len gauge
lcdd_engine_cache_len 2
# HELP lcdd_trace_spans_recorded_total Spans recorded into the ring.
# TYPE lcdd_trace_spans_recorded_total counter
lcdd_trace_spans_recorded_total 7
# HELP lcdd_trace_spans_dropped_total Spans dropped to writer collisions.
# TYPE lcdd_trace_spans_dropped_total counter
lcdd_trace_spans_dropped_total 0
# HELP lcdd_trace_ring_capacity Span-ring capacity.
# TYPE lcdd_trace_ring_capacity gauge
lcdd_trace_ring_capacity 4096
"#;

    /// A gateway that has seen traffic: every instrument holds a distinct
    /// non-zero value (the batch counters agree with the batch-size
    /// histogram, as the batcher keeps them), over a two-shard engine with
    /// one publish behind it, a warm query cache and spans in the ring. No
    /// other test in this crate records into the process-wide span ring.
    fn golden_state() -> (Metrics, Backend) {
        let serving = Arc::new(ServingEngine::new(lcdd_testkit::tiny_engine(
            lcdd_testkit::tiny_corpus(5),
            2,
        )));
        serving.insert_tables(lcdd_testkit::tiny_corpus(8).split_off(5));
        let opts = SearchOptions::top_k(3);
        for i in [1, 2, 1] {
            serving
                .search(&lcdd_testkit::tiny_query(i), &opts)
                .expect("search");
        }
        let trace = TraceId::mint();
        for _ in 0..7 {
            ring().record(
                trace,
                0,
                Stage::Parse,
                Instant::now(),
                Duration::ZERO,
                None,
                0,
            );
        }
        let m = Metrics::default();
        let counters = [
            &m.search,
            &m.insert,
            &m.remove,
            &m.healthz,
            &m.metrics,
            &m.snapshot,
            &m.debug,
            &m.ok,
            &m.client_error,
            &m.server_error,
            &m.rejected_queue_full,
            &m.rejected_connections,
            &m.rejected_shutdown,
            &m.expired,
            &m.stale_rejected,
            &m.jobs_enqueued,
            &m.jobs_answered,
            &m.deduped_requests,
            &m.quant_scanned,
            &m.reranked,
        ];
        for (i, c) in (0u64..).zip(counters) {
            c.add(100 + 7 * i);
        }
        m.queue_depth.set(41);
        m.queue_high_water.set(43);
        for size in [2, 3, 9, 17] {
            m.batches.inc();
            m.batched_requests.add(size);
            m.batch_sizes.record(size);
        }
        for ns in [1_234_567, 2_345_678, 9_876_543] {
            m.record_service_time(ns);
        }
        for ns in [55_555, 66_666] {
            m.search_latency_60s.record(ns);
        }
        for ns in [310_000, 420_000, 530_000, 640_000] {
            m.queue_wait.record(ns);
        }
        for ns in [777_777, 888_888, 999_999] {
            m.queue_wait_60s.record(ns);
        }
        (m, Backend::Serving(serving))
    }

    /// Lines of an exposition that belong to the gateway's own families.
    fn gateway_lines(text: &str) -> BTreeSet<&str> {
        text.lines()
            .filter(|l| {
                let name = l
                    .strip_prefix("# HELP ")
                    .or_else(|| l.strip_prefix("# TYPE "))
                    .unwrap_or(l);
                ["lcdd_gateway_", "lcdd_engine_", "lcdd_trace_"]
                    .iter()
                    .any(|p| name.starts_with(p))
            })
            .collect()
    }

    #[test]
    fn the_walk_renders_the_pinned_schema_in_both_formats() {
        let (m, backend) = golden_state();
        let walk = m.walk(&backend, Duration::from_secs(4), 64, true);

        // Byte-identical JSON: key order is part of the contract, since
        // `testkit::load::json_u64` reads the first occurrence of a key.
        let doc = json(&walk);
        assert_eq!(doc, GOLDEN_JSON);
        assert_eq!(
            gateway_lines(&prometheus(&walk)),
            gateway_lines(GOLDEN_PROM)
        );

        // `Writer::claim` silently drops a repeated family, so a duplicate
        // name in the walk would never reach the linter.
        let names: Vec<&str> = walk
            .iter()
            .flat_map(|(_, entries)| entries)
            .filter_map(|e| e.prom)
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "repeated family in {names:?}");

        // stackbench's scrape reads these paths and turns a missing one
        // into a silent 0.
        let parsed = crate::json::parse(&doc).expect("the document parses");
        for [section, key] in [
            ["coalescing", "requests"],
            ["coalescing", "mean_batch"],
            ["coalescing", "deduped"],
            ["queue_wait_us", "p50"],
            ["responses", "rejected_503"],
            ["responses", "rejected_connections"],
            ["responses", "server_error"],
        ] {
            let value = parsed.get(section).and_then(|s| s.get(key));
            assert!(
                value.and_then(Json::as_f64).is_some(),
                "{section}.{key} is not a number: {value:?}"
            );
        }
    }
}
