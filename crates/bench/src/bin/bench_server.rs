//! Gateway benchmark emitter: mixed read/ingest traffic over real TCP
//! connections, request coalescing vs a `max_batch = 1` baseline. Writes
//! `BENCH_server.json`.
//!
//! For each connection count (8 / 64 / 256) the bin starts a fresh
//! gateway over an in-memory serving engine and drives the same
//! deterministic mixed workload (~5% insert/remove churn, searches drawn
//! from a 16-query hot pool) through it twice:
//!
//! * **coalesced** — the default batcher (`max_batch = 64`): jobs that
//!   queue while the single batcher thread scores the previous batch are
//!   drained together, served from one pinned snapshot, and duplicate
//!   in-flight queries are deduplicated to one computation.
//! * **baseline** — `max_batch = 1`: every request is its own pin +
//!   score, the thundering-herd path a naive gateway takes after each
//!   epoch bump invalidates the query cache.
//!
//! The run *asserts* that coalescing wins completed-request throughput at
//! 64 and 256 connections — the regime where queue pressure creates
//! duplicate in-flight work. At 8 connections the queue rarely builds, so
//! both modes are reported without an assertion.
//!
//! Usage: `cargo run --release -p lcdd-bench --bin bench_server
//! [-- out.json]` (defaults to `BENCH_server.json`).

use std::sync::Arc;

use lcdd_engine::ServingEngine;
use lcdd_obs::registry::Histogram;
use lcdd_server::{Backend, Server, ServerConfig};
use lcdd_testkit::load::{drive_mixed, HttpClient, LoadSpec, LoadSummary};

const N_TABLES: usize = 96;
const N_SHARDS: usize = 2;
const HOT_QUERIES: usize = 16;
const WRITE_PERCENT: u64 = 5;
/// (connections, requests per connection): totals stay comparable while
/// individual runs finish in seconds on one core.
const POINTS: [(usize, usize); 3] = [(8, 150), (64, 40), (256, 12)];

fn gateway(max_batch: usize, tracing: bool) -> Server {
    let serving = Arc::new(ServingEngine::new(lcdd_testkit::tiny_engine(
        lcdd_testkit::tiny_corpus(N_TABLES),
        N_SHARDS,
    )));
    let cfg = ServerConfig {
        max_batch,
        // Room for the 256-connection point plus the metrics scrape.
        max_connections: 512,
        queue_capacity: 4096,
        // Generous deadline: the baseline must pay for its queue wait by
        // scoring, not by shedding 504s that would flatter its latency.
        default_deadline_ms: 30_000,
        tracing,
        ..ServerConfig::default()
    };
    Server::start(Backend::Serving(serving), cfg).expect("bench gateway start")
}

struct Row {
    connections: usize,
    mode: &'static str,
    summary: LoadSummary,
    /// Completed (200) responses per second — the headline number.
    ok_per_s: f64,
    /// Client-side latency distribution through the same reusable
    /// log-linear histogram the gateway's `/metrics` path records into.
    hist: Histogram,
    batches: u64,
    deduped: u64,
}

fn run_point(
    connections: usize,
    requests_per_connection: usize,
    max_batch: usize,
    tracing: bool,
) -> Row {
    let server = gateway(max_batch, tracing);
    let spec = LoadSpec {
        connections,
        requests_per_connection,
        write_percent: WRITE_PERCENT,
        hot_queries: HOT_QUERIES,
        k: 8,
        // Full scoring per unique query: the untrained test model's LSH
        // stage would otherwise prune everything and score nothing.
        strategy: Some("none"),
        seed: 0x5e9ce + connections as u64,
    };
    let summary = drive_mixed(server.addr(), &spec);
    let (batches, deduped) = scrape_coalescing(&server);
    let report = server.shutdown();
    assert_eq!(
        report.jobs_enqueued, report.jobs_answered,
        "bench drain lost admitted searches"
    );
    let mode = if max_batch == 1 {
        "baseline"
    } else {
        "coalesced"
    };
    let ok_per_s = if summary.elapsed_s > 0.0 {
        summary.ok as f64 / summary.elapsed_s
    } else {
        0.0
    };
    let hist = Histogram::new();
    for &us in &summary.latencies_us {
        hist.record(us);
    }
    let row = Row {
        connections,
        mode,
        ok_per_s,
        hist,
        batches,
        deduped,
        summary,
    };
    eprintln!(
        "[bench_server] {:>9} @ {:>3} conns: {:>7.0} ok/s  p50 {:>6} us  p99 {:>7} us  \
         ({} ok / {} rejected / {} errors, {} batches, {} deduped)",
        row.mode,
        row.connections,
        row.ok_per_s,
        row.hist.percentile(0.50),
        row.hist.percentile(0.99),
        row.summary.ok,
        row.summary.rejected,
        row.summary.errors,
        row.batches,
        row.deduped,
    );
    row
}

/// The tracing-overhead section: the same coalesced 64-connection
/// workload with span recording on vs off. Longer runs than the
/// comparison points and best-of-three per mode, interleaved, because
/// the true cost (a handful of relaxed atomic stores per stage against
/// millisecond-scale requests) is far below run-to-run scheduler noise.
/// The completed-request throughput cost must stay under 5% — warned
/// about always, enforced under `LCDD_BENCH_STRICT=1`.
fn tracing_overhead_section() -> String {
    const CONNS: usize = 64;
    const RPC: usize = 100;
    let mut best: [Option<Row>; 2] = [None, None];
    for _round in 0..3 {
        for (slot, tracing) in [(0usize, true), (1usize, false)] {
            let row = run_point(CONNS, RPC, 64, tracing);
            if best[slot]
                .as_ref()
                .is_none_or(|b| row.ok_per_s > b.ok_per_s)
            {
                best[slot] = Some(row);
            }
        }
    }
    let traced = best[0].take().expect("traced row");
    let untraced = best[1].take().expect("untraced row");
    let overhead_pct = if untraced.ok_per_s > 0.0 {
        (untraced.ok_per_s - traced.ok_per_s) / untraced.ok_per_s * 100.0
    } else {
        0.0
    };
    eprintln!(
        "[bench_server] tracing overhead @ {CONNS} conns: {:.0} ok/s traced vs {:.0} ok/s \
         untraced ({overhead_pct:+.1}%)",
        traced.ok_per_s, untraced.ok_per_s,
    );
    if overhead_pct > 5.0 {
        eprintln!(
            "[bench_server] WARNING: tracing costs {overhead_pct:.1}% ok/s — above the 5% budget"
        );
        if lcdd_bench::strict() {
            panic!("tracing overhead {overhead_pct:.1}% > 5% of ok/s");
        }
    }
    format!(
        "  \"tracing_overhead\": {{ \"connections\": {CONNS}, \
         \"traced_ok_per_s\": {:.0}, \"untraced_ok_per_s\": {:.0}, \
         \"traced_p99_us\": {}, \"untraced_p99_us\": {}, \
         \"overhead_pct\": {overhead_pct:.2}, \"budget_pct\": 5.0 }},\n",
        traced.ok_per_s,
        untraced.ok_per_s,
        traced.hist.percentile(0.99),
        untraced.hist.percentile(0.99),
    )
}

/// Pulls batch/dedup counters off `/metrics` before shutdown.
fn scrape_coalescing(server: &Server) -> (u64, u64) {
    let Ok(mut c) = HttpClient::connect(server.addr()) else {
        return (0, 0);
    };
    let Ok(resp) = c.request("GET", "/metrics", &[], "") else {
        return (0, 0);
    };
    (
        resp.json_u64("batches").unwrap_or(0),
        resp.json_u64("deduped").unwrap_or(0),
    )
}

fn row_json(r: &Row) -> String {
    format!(
        "    {{ \"connections\": {}, \"mode\": \"{}\", \"requests\": {}, \"ok\": {}, \
         \"rejected\": {}, \"errors\": {}, \"qps\": {:.0}, \"ok_per_s\": {:.0}, \
         \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"batches\": {}, \"deduped\": {} }}",
        r.connections,
        r.mode,
        r.summary.requests,
        r.summary.ok,
        r.summary.rejected,
        r.summary.errors,
        r.summary.qps(),
        r.ok_per_s,
        r.hist.percentile(0.50),
        r.hist.percentile(0.95),
        r.hist.percentile(0.99),
        r.batches,
        r.deduped,
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_server.json".to_string());
    // Freeze the pool's thread count before any parallel work so the
    // whole bench runs one configuration (see lcdd_tensor::pool docs).
    lcdd_tensor::pool::resolve_threads();

    let mut rows: Vec<Row> = Vec::new();
    for &(conns, rpc) in &POINTS {
        rows.push(run_point(conns, rpc, 1, true));
        rows.push(run_point(conns, rpc, 64, true));
    }

    // The tentpole claim: under queue pressure, coalescing beats the
    // request-at-a-time baseline on completed-request throughput.
    for &(conns, _) in &POINTS {
        if conns < 64 {
            continue;
        }
        let base = rows
            .iter()
            .find(|r| r.connections == conns && r.mode == "baseline")
            .expect("baseline row");
        let coal = rows
            .iter()
            .find(|r| r.connections == conns && r.mode == "coalesced")
            .expect("coalesced row");
        assert!(
            coal.ok_per_s > base.ok_per_s,
            "coalescing must beat the max_batch=1 baseline at {} connections \
             ({:.0} ok/s vs {:.0} ok/s)",
            conns,
            coal.ok_per_s,
            base.ok_per_s
        );
        assert!(
            coal.deduped > 0,
            "coalescing at {conns} connections collapsed no duplicate in-flight queries"
        );
    }

    let overhead = tracing_overhead_section();
    let body: Vec<String> = rows.iter().map(row_json).collect();
    let json = format!(
        "{{\n  \"group\": \"bench_server\",\n  \
         \"corpus_tables\": {N_TABLES},\n  \"hot_queries\": {HOT_QUERIES},\n  \
         \"write_percent\": {WRITE_PERCENT},\n{overhead}  \
         \"runs\": [\n{}\n  ]\n}}\n",
        body.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_server.json");
    eprintln!("[bench_server] wrote {out_path}");
    println!("{json}");
}
