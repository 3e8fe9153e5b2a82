//! Endpoint-level integration: routing, health, metrics, snapshots, and
//! the read-your-writes epoch token round-trip.

mod util;

use lcdd_server::ServerConfig;
use lcdd_testkit::load::{insert_body, remove_body, search_body, search_body_with};

fn series(i: usize) -> Vec<f64> {
    (0..90)
        .map(|j| ((j + i * 11) as f64 / 6.0).sin() * (i + 1) as f64)
        .collect()
}

#[test]
fn search_returns_ranked_hits_with_epoch_headers() {
    let (server, _serving) = util::serving_server(6, ServerConfig::default());
    let mut c = util::client(&server);
    let resp = c
        .request(
            "POST",
            "/search",
            &[],
            &search_body_with(&[series(2)], 10, Some("none")),
        )
        .expect("search must answer");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    // k covers the whole corpus under full scoring, so every table
    // (including table 2) must appear among the ranked hits.
    assert!(resp.body.contains("\"table_id\":2"), "body: {}", resp.body);
    let header_epoch: u64 = resp
        .header("x-lcdd-epoch")
        .expect("epoch header")
        .parse()
        .expect("numeric epoch");
    assert_eq!(resp.json_u64("epoch"), Some(header_epoch));
    assert!(resp.header("x-lcdd-batch-id").is_some());
    let report = server.shutdown();
    assert_eq!(report.jobs_enqueued, report.jobs_answered);
}

#[test]
fn insert_token_round_trips_as_read_your_writes() {
    let (server, _serving) = util::serving_server(4, ServerConfig::default());
    let mut c = util::client(&server);
    let ins = c
        .request("POST", "/insert", &[], &insert_body(77, &series(5)))
        .expect("insert must answer");
    assert_eq!(ins.status, 200, "body: {}", ins.body);
    let token = ins.header("x-lcdd-epoch").expect("epoch token").to_string();
    assert!(ins.json_u64("epoch").unwrap() > 0);

    // The token pins the search at-or-after the write: the new table is
    // visible.
    let resp = c
        .request(
            "POST",
            "/search",
            &[("x-lcdd-min-epoch", &token)],
            &search_body_with(&[series(5)], 10, Some("none")),
        )
        .expect("search must answer");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert!(resp.body.contains("\"table_id\":77"), "body: {}", resp.body);
    assert!(resp.json_u64("epoch").unwrap() >= token.parse::<u64>().unwrap());

    // Remove it again; the remove token moves forward.
    let rem = c
        .request("POST", "/remove", &[], &remove_body(&[77]))
        .expect("remove must answer");
    assert_eq!(rem.status, 200);
    assert_eq!(rem.json_u64("removed"), Some(1));
    assert!(rem.json_u64("epoch").unwrap() > token.parse::<u64>().unwrap());
    server.shutdown();
}

#[test]
fn healthz_metrics_and_snapshot_report_the_engine() {
    let (server, serving) = util::serving_server(5, ServerConfig::default());
    let mut c = util::client(&server);

    let h = c.request("GET", "/healthz", &[], "").expect("healthz");
    assert_eq!(h.status, 200);
    assert!(h.body.contains("\"status\":\"ok\""), "body: {}", h.body);
    assert!(h.body.contains("\"backend\":\"serving\""));
    assert_eq!(h.json_u64("tables"), Some(5));

    // Exercise the batcher once, then scrape.
    let s = c
        .request("POST", "/search", &[], &search_body(&[series(1)], 2))
        .expect("search");
    assert_eq!(s.status, 200);
    let m = c.request("GET", "/metrics", &[], "").expect("metrics");
    assert_eq!(m.status, 200);
    for field in [
        "\"qps\":",
        "\"latency_us\":",
        "\"p50\":",
        "\"p99\":",
        "\"queue\":",
        "\"coalescing\":",
        "\"cache\":",
        "\"jobs\":",
        "\"tier\":",
        "\"trace\":",
    ] {
        assert!(m.body.contains(field), "missing {field} in {}", m.body);
    }
    assert!(m.json_u64("search").unwrap() >= 1);
    // An all-resident serving backend: everything hot, nothing mapped,
    // no quantized scans yet.
    assert_eq!(m.json_u64("resident_tables"), Some(5));
    assert_eq!(m.json_u64("mapped_tables"), Some(0));
    assert_eq!(m.json_u64("quant_scanned"), Some(0));
    assert_eq!(m.json_u64("reranked"), Some(0));
    assert!(h
        .body
        .contains("\"tier\":{\"resident_tables\":5,\"mapped_tables\":0}"));

    // A re-rank search flows into the pipeline counters: 5 candidates
    // proxy-scanned, 3 survivors exactly re-scored.
    let rr = c
        .request(
            "POST",
            "/search",
            &[],
            "{\"series\":[[1.0,2.0,3.0,2.0,1.0]],\"k\":2,\"strategy\":\"none\",\"rerank\":3}",
        )
        .expect("rerank search");
    assert_eq!(rr.status, 200, "body: {}", rr.body);
    let m2 = c.request("GET", "/metrics", &[], "").expect("metrics");
    assert_eq!(m2.json_u64("quant_scanned"), Some(5));
    assert_eq!(m2.json_u64("reranked"), Some(3));

    // Snapshot routing: current → 200, stale → 410, future → 404.
    let current = serving.epoch();
    let ok = c
        .request("GET", &format!("/snapshot/{current}"), &[], "")
        .expect("snapshot");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.json_u64("epoch"), Some(current));
    serving.insert_tables(lcdd_testkit::tiny_corpus(1));
    let gone = c
        .request("GET", &format!("/snapshot/{current}"), &[], "")
        .expect("stale snapshot");
    assert_eq!(gone.status, 410);
    assert!(gone.body.contains("epoch_gone"));
    let future = c
        .request("GET", &format!("/snapshot/{}", current + 100), &[], "")
        .expect("future snapshot");
    assert_eq!(future.status, 404);
    assert!(future.body.contains("epoch_not_published"));
    server.shutdown();
}

#[test]
fn unknown_routes_and_methods_get_typed_404_405() {
    let (server, _serving) = util::serving_server(3, ServerConfig::default());
    let mut c = util::client(&server);
    let nf = c.request("GET", "/nope", &[], "").expect("404");
    assert_eq!(nf.status, 404);
    assert!(nf.body.contains("not_found"));
    let mna = c.request("GET", "/search", &[], "").expect("405");
    assert_eq!(mna.status, 405);
    assert!(mna.body.contains("method_not_allowed"));
    let root = c.request("GET", "/", &[], "").expect("root");
    assert_eq!(root.status, 200);
    assert!(root.body.contains("lcdd-server"));
    server.shutdown();
}
