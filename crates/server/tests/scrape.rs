//! The scrape surface under concurrency: Prometheus exposition that
//! lints clean and covers every layer of the stack, scrapes hammered in
//! both formats during write churn, counter monotonicity, and span-ring
//! overflow semantics.

mod util;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcdd_obs::promlint;
use lcdd_obs::trace::{SpanRing, Stage, TraceId};
use lcdd_repl::{sync_to_convergence, ChannelTransport, Follower, Leader, RetryPolicy};
use lcdd_server::{Backend, Server, ServerConfig};
use lcdd_store::DurableEngine;
use lcdd_testkit::crash::TempDir;
use lcdd_testkit::load::{insert_body, search_body, HttpClient};
use lcdd_testkit::repl::store_opts;

fn series(i: usize) -> Vec<f64> {
    (0..90)
        .map(|j| ((j + i * 11) as f64 / 6.0).sin() * (i + 1) as f64)
        .collect()
}

/// First sample value of `family` in a Prometheus text body.
fn prom_value(body: &str, family: &str) -> Option<f64> {
    body.lines()
        .find(|l| {
            l.starts_with(family)
                && l.as_bytes()
                    .get(family.len())
                    .is_some_and(|b| *b == b' ' || *b == b'{')
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The full stack — gateway over a durable store, with a replication
/// pair alive in-process — exposes one linter-clean text exposition
/// covering every layer.
#[test]
fn prometheus_exposition_is_lint_clean_across_the_stack() {
    let tmp = TempDir::new("scrape-stack");
    let base = lcdd_testkit::tiny_corpus(5);
    let opts = store_opts(4, 2);
    let leader_store = Arc::new(
        DurableEngine::create(
            tmp.subdir("leader"),
            lcdd_testkit::tiny_engine(base.clone(), 2),
            opts.clone(),
        )
        .expect("leader store"),
    );
    let leader = Leader::new(Arc::clone(&leader_store), RetryPolicy::immediate());
    let follower = Follower::create(
        tmp.subdir("follower"),
        lcdd_testkit::tiny_engine(base, 2),
        opts,
    )
    .expect("follower");
    leader.attach("replica", follower.epoch());
    let transport = ChannelTransport::default();

    let server = Server::start(
        Backend::Durable(Arc::clone(&leader_store)),
        ServerConfig::default(),
    )
    .expect("gateway");
    let mut c = util::client(&server);

    // Churn every layer: searches (gateway + engine + trace), durable
    // writes (WAL appends) past the checkpoint threshold (rotation), and
    // a replication round (ship + apply).
    for i in 0..6 {
        let ins = c
            .request(
                "POST",
                "/insert",
                &[],
                &insert_body(100 + i, &series(i as usize)),
            )
            .expect("insert");
        assert_eq!(ins.status, 200, "body: {}", ins.body);
    }
    let s = c
        .request("POST", "/search", &[], &search_body(&[series(1)], 3))
        .expect("search");
    assert_eq!(s.status, 200);
    sync_to_convergence(&leader, "replica", &transport, &follower, 32)
        .expect("replication must converge");
    // The 4th insert handed a checkpoint to the store's checkpointer
    // thread; its instruments and span land when it commits.
    leader_store.wait_checkpoint_idle();
    let checkpoint_spans = lcdd_obs::trace::ring().replay_stage(lcdd_obs::trace::Stage::Checkpoint);
    assert!(
        checkpoint_spans.iter().any(|s| s.parent == 0 && s.meta > 0),
        "a background checkpoint must leave a root span carrying its bytes written: \
         {checkpoint_spans:?}"
    );
    let h = c.request("GET", "/healthz", &[], "").expect("healthz");
    for field in [
        "\"checkpoint_in_flight\":false",
        "\"ops_since_checkpoint\":2",
        "\"checkpoint_error\":null",
    ] {
        assert!(h.body.contains(field), "{field} missing: {}", h.body);
    }

    let m = c
        .request("GET", "/metrics", &[("Accept", "text/plain")], "")
        .expect("scrape");
    assert_eq!(m.status, 200);
    assert!(
        m.header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain; version=0.0.4")),
        "content-type: {:?}",
        m.header("content-type")
    );

    let problems = promlint::lint(&m.body);
    assert!(problems.is_empty(), "exposition lint: {problems:?}");

    // One family per layer must be present with real samples.
    for family in [
        "lcdd_gateway_search_requests_total",
        "lcdd_gateway_search_latency_ns",
        "lcdd_engine_epoch",
        "lcdd_trace_spans_recorded_total",
        "lcdd_pool_threads",
        "lcdd_store_wal_appends_total",
        "lcdd_store_wal_rotations_total",
        "lcdd_store_checkpoints_total",
        "lcdd_store_checkpoint_inflight",
        "lcdd_store_checkpoint_handoff_us",
        "lcdd_store_wal_chain_files",
        "lcdd_repl_records_shipped_total",
        "lcdd_repl_frames_applied_total",
        "lcdd_repl_lag_epochs",
    ] {
        assert!(
            m.body.contains(&format!("# TYPE {family} ")),
            "family {family} missing from exposition:\n{}",
            m.body
        );
    }
    // The churn above must actually have moved the cross-layer counters.
    // Global-registry instruments are process totals shared with other
    // tests in this binary, so assert floors, never exact values.
    assert!(prom_value(&m.body, "lcdd_store_wal_appends_total").unwrap_or(0.0) >= 6.0);
    assert!(prom_value(&m.body, "lcdd_store_wal_rotations_total").unwrap_or(0.0) >= 1.0);
    assert!(prom_value(&m.body, "lcdd_store_checkpoint_handoff_us_count").unwrap_or(0.0) >= 1.0);
    assert!(prom_value(&m.body, "lcdd_repl_frames_applied_total").unwrap_or(0.0) >= 1.0);

    // The JSON default is untouched by content negotiation.
    let j = c.request("GET", "/metrics", &[], "").expect("json scrape");
    assert_eq!(j.status, 200);
    assert!(j.body.starts_with('{'), "JSON default must remain");
    assert!(j.body.contains("\"latency_us\":"));
    server.shutdown();
}

/// Scrapes in both formats and the slow log, hammered from several
/// threads while writers churn, never tear: every exposition lints
/// clean, counters read monotonically, and after a drain the batcher
/// books balance.
#[test]
fn concurrent_scrapes_stay_consistent_during_churn() {
    let (server, _serving) = util::serving_server(6, ServerConfig::default());
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..3)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).expect("writer connect");
                for i in 0..25 {
                    let resp = c
                        .request(
                            "POST",
                            "/search",
                            &[],
                            &search_body(&[series(w * 31 + i)], 3),
                        )
                        .expect("search");
                    assert_eq!(resp.status, 200);
                }
            })
        })
        .collect();

    let scrapers: Vec<_> = (0..2)
        .map(|s| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).expect("scraper connect");
                let mut last_json = 0u64;
                let mut last_text = 0.0f64;
                let mut scrapes = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    if s == 0 {
                        let m = c.request("GET", "/metrics", &[], "").expect("json");
                        assert_eq!(m.status, 200);
                        let searches = m.json_u64("search").expect("search counter");
                        assert!(
                            searches >= last_json,
                            "counter went backwards: {searches} < {last_json}"
                        );
                        last_json = searches;
                    } else {
                        let m = c
                            .request("GET", "/metrics", &[("Accept", "text/plain")], "")
                            .expect("text");
                        assert_eq!(m.status, 200);
                        let problems = promlint::lint(&m.body);
                        assert!(problems.is_empty(), "mid-churn lint: {problems:?}");
                        let v = prom_value(&m.body, "lcdd_gateway_search_requests_total")
                            .expect("search family");
                        assert!(v >= last_text, "counter went backwards: {v} < {last_text}");
                        last_text = v;
                    }
                    scrapes += 1;
                }
                assert!(scrapes > 0);
            })
        })
        .collect();

    let slow_poller = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = HttpClient::connect(addr).expect("poller connect");
            while !stop.load(Ordering::Relaxed) {
                let r = c.request("GET", "/debug/slow?n=4", &[], "").expect("slow");
                assert_eq!(r.status, 200);
                assert!(r.body.contains("\"ring\":{\"recorded\":"));
            }
        })
    };

    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    for s in scrapers {
        s.join().expect("scraper");
    }
    slow_poller.join().expect("poller");

    let report = server.shutdown();
    assert_eq!(
        report.jobs_enqueued, report.jobs_answered,
        "drain must balance the batcher books"
    );
    assert!(report.jobs_enqueued >= 75, "all writer searches admitted");
}

/// Every scrape reads the corpus from one pinned snapshot. One writer
/// publishes one table per insert, so `tables − epoch` is the initial
/// corpus size in any single snapshot; a document whose epoch and table
/// count came from two different publishes reads otherwise.
#[test]
fn scrapes_never_tear_across_a_publish() {
    const BASE: usize = 5;
    const INSERTS: usize = 150;
    let (server, serving) = util::serving_server(BASE, ServerConfig::default());
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    let scrapers: Vec<_> = (0..3)
        .map(|kind| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).expect("scraper connect");
                let mut scrapes = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let (epoch, tables, body) = match kind {
                        0 => {
                            let m = c.request("GET", "/metrics", &[], "").expect("json");
                            (m.json_u64("epoch"), m.json_u64("tables"), m.body)
                        }
                        1 => {
                            let m = c
                                .request("GET", "/metrics", &[("Accept", "text/plain")], "")
                                .expect("text");
                            let read = |family| prom_value(&m.body, family).map(|v| v as u64);
                            (
                                read("lcdd_engine_epoch"),
                                read("lcdd_engine_tables"),
                                m.body,
                            )
                        }
                        _ => {
                            let h = c.request("GET", "/healthz", &[], "").expect("healthz");
                            (h.json_u64("epoch"), h.json_u64("tables"), h.body)
                        }
                    };
                    let (epoch, tables) = (epoch.expect("epoch"), tables.expect("tables"));
                    assert_eq!(
                        tables.checked_sub(epoch),
                        Some(BASE as u64),
                        "torn scrape (epoch {epoch}, tables {tables}):\n{body}"
                    );
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    for table in lcdd_testkit::tiny_corpus(BASE + INSERTS).split_off(BASE) {
        serving.insert_tables(vec![table]);
    }
    stop.store(true, Ordering::Relaxed);
    for s in scrapers {
        assert!(s.join().expect("scraper") > 0);
    }
    assert_eq!(serving.epoch(), INSERTS as u64);
    server.shutdown();
}

/// Overflowing the span ring overwrites oldest-first and never corrupts
/// what survives: after lapping, the newest spans replay intact and the
/// evicted ones are simply absent.
#[test]
fn span_ring_overflow_drops_oldest_first_without_corruption() {
    let ring = SpanRing::with_capacity(64);
    let old = TraceId::mint();
    let new = TraceId::mint();
    let t0 = Instant::now();
    for i in 0..64u64 {
        ring.record(
            old,
            0,
            Stage::Request,
            t0,
            Duration::from_nanos(100 + i),
            None,
            i,
        );
    }
    assert_eq!(ring.replay(old).len(), 64);

    // Lap half the ring with a second trace: the OLDEST half of `old`
    // must be evicted, the newest half retained bit-exact.
    for i in 0..32u64 {
        ring.record(
            new,
            0,
            Stage::Batch,
            t0,
            Duration::from_nanos(500 + i),
            None,
            i,
        );
    }
    let survivors = ring.replay(old);
    assert_eq!(survivors.len(), 32, "exactly the newest half survives");
    let metas: Vec<u64> = survivors.iter().map(|s| s.meta).collect();
    assert_eq!(
        metas,
        (32..64).collect::<Vec<u64>>(),
        "oldest-first eviction"
    );
    for s in &survivors {
        assert_eq!(s.stage, Stage::Request);
        assert_eq!(s.dur_ns, 100 + s.meta);
        assert_eq!(s.trace, old);
    }
    let fresh = ring.replay(new);
    assert_eq!(fresh.len(), 32);
    for s in &fresh {
        assert_eq!(s.stage, Stage::Batch);
        assert_eq!(s.dur_ns, 500 + s.meta);
    }
    // Single-threaded lapping is overwrite, not collision: nothing
    // counted as dropped, everything recorded.
    assert_eq!(ring.recorded(), 96);
    assert_eq!(ring.dropped(), 0);
}
