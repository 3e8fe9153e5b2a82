//! Staleness contracts through the gateway against a real replication
//! follower: an `AtLeastEpoch` token the replica cannot honour is a
//! typed 412 carrying the replica's current epoch; after the follower
//! syncs, the same token answers 200 — the round-trip the issue's
//! satellite demands. Writes against a replica gateway are 405.

mod util;

use std::sync::Arc;

use lcdd_repl::{sync_to_convergence, ChannelTransport, Follower, Leader, RetryPolicy};
use lcdd_server::{Backend, Server, ServerConfig};
use lcdd_store::DurableEngine;
use lcdd_testkit::crash::TempDir;
use lcdd_testkit::load::{insert_body, search_body, search_body_with};
use lcdd_testkit::repl::store_opts;

fn series(i: usize) -> Vec<f64> {
    (0..90)
        .map(|j| ((j + i * 11) as f64 / 6.0).sin() * (i + 1) as f64)
        .collect()
}

#[test]
fn staleness_token_round_trips_412_then_200_after_sync() {
    let tmp = TempDir::new("server-replica");
    let base = lcdd_testkit::tiny_corpus(5);
    let opts = store_opts(64, 4);
    let leader_store = Arc::new(
        DurableEngine::create(
            tmp.subdir("leader"),
            lcdd_testkit::tiny_engine(base.clone(), 2),
            opts.clone(),
        )
        .expect("leader store"),
    );
    let leader = Leader::new(Arc::clone(&leader_store), RetryPolicy::immediate());
    let follower = Arc::new(
        Follower::create(
            tmp.subdir("follower"),
            lcdd_testkit::tiny_engine(base, 2),
            opts,
        )
        .expect("follower"),
    );
    leader.attach("replica", follower.epoch());
    let transport = ChannelTransport::default();

    // Two gateways: one over the leader's durable store, one over the
    // follower.
    let leader_gw = Server::start(
        Backend::Durable(Arc::clone(&leader_store)),
        ServerConfig::default(),
    )
    .expect("leader gateway");
    let replica_gw = Server::start(
        Backend::Replica(Arc::clone(&follower)),
        ServerConfig::default(),
    )
    .expect("replica gateway");

    // Write through the leader gateway; its response carries the
    // read-your-writes token.
    let mut lc = util::client(&leader_gw);
    let ins = lc
        .request("POST", "/insert", &[], &insert_body(42, &series(3)))
        .expect("leader insert");
    assert_eq!(ins.status, 200, "body: {}", ins.body);
    let token = ins.header("x-lcdd-epoch").expect("token").to_string();
    let token_n: u64 = token.parse().expect("numeric token");

    // The leader's /healthz shows durable-store fields.
    let lh = lc
        .request("GET", "/healthz", &[], "")
        .expect("leader health");
    assert!(lh.body.contains("\"wal_bytes\":"), "body: {}", lh.body);
    // One op logged, no checkpoint due yet (default cadence): the
    // checkpointer is idle and that op is still WAL-only.
    for field in [
        "\"checkpoint_in_flight\":false",
        "\"ops_since_checkpoint\":1",
        "\"checkpoint_error\":null",
    ] {
        assert!(lh.body.contains(field), "{field} missing: {}", lh.body);
    }

    // The follower has not synced: the token is unservable → 412 with
    // the replica's current epoch for recalibration.
    let mut rc = util::client(&replica_gw);
    let stale = rc
        .request(
            "POST",
            "/search",
            &[("x-lcdd-min-epoch", &token)],
            &search_body(&[series(3)], 3),
        )
        .expect("stale search");
    assert_eq!(stale.status, 412, "body: {}", stale.body);
    assert!(stale.body.contains("stale_replica"));
    let replica_epoch = stale
        .header("x-lcdd-epoch")
        .and_then(|v| v.parse::<u64>().ok())
        .expect("current epoch on 412");
    assert!(replica_epoch < token_n);

    // An unconstrained read serves the older snapshot meanwhile.
    let any = rc
        .request("POST", "/search", &[], &search_body(&[series(1)], 3))
        .expect("relaxed search");
    assert_eq!(any.status, 200);
    assert!(any.json_u64("epoch").unwrap() < token_n);

    // Writes to a replica gateway are refused with a typed 405.
    let ro = rc
        .request("POST", "/insert", &[], &insert_body(7, &series(1)))
        .expect("replica insert");
    assert_eq!(ro.status, 405);
    assert!(ro.body.contains("read_only_replica"));

    // Replica /healthz surfaces lag fields.
    let rh = rc
        .request("GET", "/healthz", &[], "")
        .expect("replica health");
    assert!(rh.body.contains("\"replica\":"), "body: {}", rh.body);
    assert!(rh.body.contains("\"backend\":\"replica\""));

    // Sync the follower; the same token must now answer 200 at an epoch
    // honouring it, and the new table is visible through the replica.
    sync_to_convergence(&leader, "replica", &transport, &follower, 64).expect("sync must converge");
    let fresh = rc
        .request(
            "POST",
            "/search",
            &[("x-lcdd-min-epoch", &token)],
            &search_body_with(&[series(3)], 10, Some("none")),
        )
        .expect("fresh search");
    assert_eq!(fresh.status, 200, "body: {}", fresh.body);
    assert!(fresh.json_u64("epoch").unwrap() >= token_n);
    assert!(
        fresh.body.contains("\"table_id\":42"),
        "body: {}",
        fresh.body
    );

    // BoundedLag(0) is satisfiable once converged (lag vs last heartbeat
    // is zero).
    let bounded = rc
        .request(
            "POST",
            "/search",
            &[("x-lcdd-max-lag", "0")],
            &search_body(&[series(2)], 3),
        )
        .expect("bounded search");
    assert_eq!(bounded.status, 200, "body: {}", bounded.body);

    let r1 = leader_gw.shutdown();
    let r2 = replica_gw.shutdown();
    assert_eq!(r1.jobs_enqueued, r1.jobs_answered);
    assert_eq!(r2.jobs_enqueued, r2.jobs_answered);
}
