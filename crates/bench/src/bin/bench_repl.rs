//! Replication benchmark emitter: shipping lag vs ingest rate, follower
//! catch-up vs WAL backlog, and failover time vs corpus size. Writes
//! `BENCH_repl.json`.
//!
//! Three sections:
//!
//! * **lag_vs_ingest** — the leader churns inserts, syncing the replica
//!   every 1 / 4 / 16 ops. Reports shipped records/s through the channel
//!   transport and the mean backlog (leader epoch − follower epoch) at
//!   each sync. The bin *asserts* the FCM encoder ran zero times inside
//!   the sync windows — followers replay shipped encodings, never
//!   re-encode.
//! * **catchup_vs_backlog** — the replica detaches, the leader builds a
//!   WAL backlog of 16 / 64 / 256 records, then one sync drains it.
//!   Reports wall-clock and records/s for the catch-up, asserting it
//!   stayed on the record path (zero snapshot resyncs).
//! * **failover** — at 96 / 384 / 1536 tables: kill the leader, probe +
//!   elect over the replica set, promote the winner. Reports the full
//!   probe→elect→promote wall-clock (dominated by the promoted store's
//!   recovery open).
//!
//! Usage: `cargo run --release -p lcdd-bench --bin bench_repl [-- out.json]`
//! (defaults to `BENCH_repl.json` in the current directory).

use std::sync::Arc;
use std::time::Instant;

use lcdd_repl::{
    elect, promote, sync_to_convergence, ChannelTransport, Follower, Leader, RetryPolicy,
};
use lcdd_store::{DurableEngine, StoreOptions};
use lcdd_table::Table;
use lcdd_testkit::crash::TempDir;
use lcdd_testkit::{corpus, tiny_engine, CorpusSpec};

const N_SHARDS: usize = 2;
const FAILOVER_SIZES: [usize; 3] = [96, 384, 1536];

fn store_opts() -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 10_000,
        checkpoint_every_bytes: 0,
        keep_checkpoints: 8,
        ..StoreOptions::default()
    }
}

fn delta_tables(seed: u64, n: usize) -> Vec<Table> {
    let mut tables = corpus(&CorpusSpec::sized(seed, n));
    for (i, t) in tables.iter_mut().enumerate() {
        t.id = 100_000 + seed * 1_000 + i as u64;
        t.name = format!("delta-{seed}-{i}");
    }
    tables
}

struct Rig {
    _tmp: TempDir,
    leader: Leader,
    follower: Follower,
}

fn rig(tag: &str, n_base: usize) -> Rig {
    let tmp = TempDir::new(&format!("bench-repl-{tag}"));
    let base = corpus(&CorpusSpec {
        seed: 0xbe9c ^ n_base as u64,
        n_tables: n_base,
        series_len: 90,
        near_dup_every: 5,
    });
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), N_SHARDS),
        store_opts(),
    )
    .expect("bench leader create");
    let follower = Follower::create(
        tmp.subdir("follower"),
        tiny_engine(base, N_SHARDS),
        store_opts(),
    )
    .expect("bench follower create");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    leader.attach("replica", follower.epoch());
    Rig {
        _tmp: tmp,
        leader,
        follower,
    }
}

struct LagRow {
    ops_per_sync: usize,
    records_per_s: f64,
    mean_backlog: f64,
}

fn lag_row(ops_per_sync: usize) -> LagRow {
    const TOTAL_OPS: usize = 48;
    let r = rig(&format!("lag-{ops_per_sync}"), 96);
    let transport = ChannelTransport::default();
    let mut shipped = 0u64;
    let mut sync_secs = 0.0f64;
    let mut backlog_sum = 0u64;
    let mut syncs = 0u64;
    let mut op = 0usize;
    while op < TOTAL_OPS {
        for _ in 0..ops_per_sync.min(TOTAL_OPS - op) {
            r.leader
                .store()
                .insert_tables(delta_tables(op as u64 + 1, 1))
                .expect("bench churn");
            op += 1;
        }
        backlog_sum += r.leader.store().epoch() - r.follower.epoch();
        syncs += 1;
        let encodes_before = lcdd_fcm::table_encode_count();
        let t = Instant::now();
        let stats = sync_to_convergence(&r.leader, "replica", &transport, &r.follower, 64)
            .expect("bench sync");
        sync_secs += t.elapsed().as_secs_f64();
        assert_eq!(
            lcdd_fcm::table_encode_count(),
            encodes_before,
            "replication must never re-encode a shipped batch"
        );
        assert_eq!(stats.resyncs, 0, "a clean channel stays on the record path");
        shipped += stats.records_applied;
    }
    assert_eq!(shipped, TOTAL_OPS as u64);
    let row = LagRow {
        ops_per_sync,
        records_per_s: shipped as f64 / sync_secs,
        mean_backlog: backlog_sum as f64 / syncs as f64,
    };
    eprintln!(
        "[bench_repl] lag: syncing every {:>2} ops -> {:>8.0} rec/s shipped, \
         mean backlog {:.1} records",
        row.ops_per_sync, row.records_per_s, row.mean_backlog
    );
    row
}

struct CatchupRow {
    backlog: usize,
    catchup_ms: f64,
    records_per_s: f64,
}

fn catchup_row(backlog: usize) -> CatchupRow {
    let r = rig(&format!("catchup-{backlog}"), 96);
    let transport = ChannelTransport::default();
    for op in 0..backlog {
        r.leader
            .store()
            .insert_tables(delta_tables(op as u64 + 1, 1))
            .expect("bench backlog churn");
    }
    let t = Instant::now();
    let stats = sync_to_convergence(
        &r.leader,
        "replica",
        &transport,
        &r.follower,
        4 * backlog as u64,
    )
    .expect("bench catch-up");
    let catchup_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(stats.records_applied, backlog as u64);
    assert_eq!(
        stats.resyncs, 0,
        "retained history must keep catch-up on the record path"
    );
    assert_eq!(r.follower.epoch(), r.leader.store().epoch());
    let row = CatchupRow {
        backlog,
        catchup_ms,
        records_per_s: backlog as f64 / (catchup_ms / 1e3),
    };
    eprintln!(
        "[bench_repl] catch-up: {:>4}-record backlog drained in {:>7.1} ms ({:>8.0} rec/s)",
        row.backlog, row.catchup_ms, row.records_per_s
    );
    row
}

struct FailoverRow {
    tables: usize,
    failover_ms: f64,
    recoverable_epoch: u64,
}

fn failover_row(n_tables: usize) -> FailoverRow {
    let r = rig(&format!("failover-{n_tables}"), n_tables);
    let transport = ChannelTransport::default();
    // A synced replica plus a short unreplicated tail on its own WAL.
    for op in 0..6 {
        r.leader
            .store()
            .insert_tables(delta_tables(op + 1, 1))
            .expect("bench churn");
    }
    sync_to_convergence(&r.leader, "replica", &transport, &r.follower, 64).expect("bench sync");
    let Rig {
        leader,
        follower,
        _tmp,
    } = r;
    drop(leader); // the "crash"
    let replica_dir = follower.store_dir();
    drop(follower);

    let t = Instant::now();
    let ranking = elect(&[replica_dir]).expect("bench elect");
    let promoted = promote(&ranking[0], store_opts()).expect("bench promote");
    let failover_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(promoted.0.epoch(), ranking[0].recoverable_epoch);
    let row = FailoverRow {
        tables: n_tables,
        failover_ms,
        recoverable_epoch: ranking[0].recoverable_epoch,
    };
    eprintln!(
        "[bench_repl] failover at {:>5} tables: probe+elect+promote {:>8.1} ms \
         (promoted at epoch {})",
        row.tables, row.failover_ms, row.recoverable_epoch
    );
    row
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_repl.json".to_string());
    // Freeze the pool's thread count before any parallel work so the
    // whole bench runs one configuration (see lcdd_tensor::pool docs).
    lcdd_tensor::pool::resolve_threads();

    let lag: Vec<LagRow> = [1usize, 4, 16].iter().map(|&n| lag_row(n)).collect();
    let catchup: Vec<CatchupRow> = [16usize, 64, 256].iter().map(|&n| catchup_row(n)).collect();
    let failover: Vec<FailoverRow> = FAILOVER_SIZES.iter().map(|&n| failover_row(n)).collect();

    let lag_json: Vec<String> = lag
        .iter()
        .map(|r| {
            format!(
                "    {{ \"ops_per_sync\": {}, \"records_per_s\": {:.0}, \"mean_backlog_records\": {:.1} }}",
                r.ops_per_sync, r.records_per_s, r.mean_backlog
            )
        })
        .collect();
    let catchup_json: Vec<String> = catchup
        .iter()
        .map(|r| {
            format!(
                "    {{ \"backlog_records\": {}, \"catchup_ms\": {:.2}, \"records_per_s\": {:.0} }}",
                r.backlog, r.catchup_ms, r.records_per_s
            )
        })
        .collect();
    let failover_json: Vec<String> = failover
        .iter()
        .map(|r| {
            format!(
                "    {{ \"tables\": {}, \"failover_ms\": {:.2}, \"recoverable_epoch\": {} }}",
                r.tables, r.failover_ms, r.recoverable_epoch
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"group\": \"bench_repl\",\n  \
         \"lag_vs_ingest\": [\n{}\n  ],\n  \
         \"catchup_vs_backlog\": [\n{}\n  ],\n  \
         \"failover\": [\n{}\n  ]\n}}\n",
        lag_json.join(",\n"),
        catchup_json.join(",\n"),
        failover_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_repl.json");
    eprintln!("[bench_repl] wrote {out_path}");
    println!("{json}");
}
