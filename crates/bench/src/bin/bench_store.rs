//! Durable-store benchmark emitter: the two write-path measurements
//! stackbench does not take. Writes `BENCH_store.json`.
//!
//! Two sections:
//!
//! * **wal_append** — records/s and MB/s appending realistic insert
//!   records (encoded single-table batches), with and without per-record
//!   `fdatasync` (the default durability policy pays the fsync; the
//!   no-sync number is the framing/copy ceiling — stackbench always
//!   syncs).
//! * **write_stall** — 64 single-table inserts with fsync on and a
//!   checkpoint handed off every 16: insert p50 / p95 / max, and what the
//!   four triggering inserts paid for the hand-off (WAL rotation + state
//!   pin, from `lcdd_store_checkpoint_handoff_us`). Checkpoints run on
//!   the store's checkpointer thread, so no insert should wait for one:
//!   the bin warns — and fails under `LCDD_BENCH_STRICT=1` — when the
//!   slowest insert exceeds 5 × the median.
//!
//! Usage: `cargo run --release -p lcdd-bench --bin bench_store [-- out.json]`
//! (defaults to `BENCH_store.json` in the current directory).

use std::time::Instant;

use lcdd_engine::persist::{encode_batch, EncodedTableBatch};
use lcdd_store::wal::{WalOp, WalRecord, WalWriter};
use lcdd_store::{DurableEngine, StoreOptions};
use lcdd_table::Table;
use lcdd_testkit::crash::TempDir;
use lcdd_testkit::{corpus, tiny_engine, CorpusSpec};

const N_SHARDS: usize = 4;

fn delta_tables(seed: u64, n: usize) -> Vec<Table> {
    let mut tables = corpus(&CorpusSpec::sized(seed, n));
    for (i, t) in tables.iter_mut().enumerate() {
        t.id = 100_000 + seed * 100 + i as u64;
        t.name = format!("delta-{seed}-{i}");
    }
    tables
}

/// Appends `n` copies of `record` to a fresh WAL; returns (records/s, MB/s).
fn wal_append_throughput(
    tmp: &TempDir,
    tag: &str,
    record: &WalRecord,
    n: usize,
    sync: bool,
) -> (f64, f64) {
    let path = tmp.subdir(&format!("wal-{tag}.log"));
    let mut w = WalWriter::create(&path, sync).expect("bench WAL create");
    let t = Instant::now();
    for _ in 0..n {
        w.append(record).expect("bench WAL append");
    }
    let secs = t.elapsed().as_secs_f64();
    let bytes = w.len() as f64;
    (n as f64 / secs, bytes / secs / 1e6)
}

struct WriteStall {
    tables: usize,
    p50_us: f64,
    p95_us: f64,
    max_us: f64,
    handoffs: u64,
    handoff_mean_us: f64,
}

/// 64 single-table inserts through the default durability policy (fsync
/// every record) with a checkpoint handed off every 16.
fn write_stall(tmp: &TempDir) -> WriteStall {
    const INSERTS: usize = 64;
    const TABLES: usize = 1536;
    let base = corpus(&CorpusSpec {
        seed: 0x57a11,
        n_tables: TABLES,
        series_len: 90,
        near_dup_every: 5,
    });
    let opts = StoreOptions {
        sync_writes: true,
        checkpoint_every_ops: 16,
        checkpoint_every_bytes: 0,
        ..StoreOptions::default()
    };
    let durable = DurableEngine::create(tmp.subdir("stall"), tiny_engine(base, N_SHARDS), opts)
        .expect("stall store");
    // Get-or-register: the store's own registration (with the help text)
    // wins whichever side touches the name first.
    let handoff = lcdd_obs::registry::global().histogram("lcdd_store_checkpoint_handoff_us", "");
    let (handoffs_before, handoff_sum_before) = (handoff.count(), handoff.sum());
    let mut us: Vec<f64> = delta_tables(7, INSERTS)
        .into_iter()
        .map(|table| {
            let t = Instant::now();
            durable.insert_tables(vec![table]).expect("stall insert");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    durable.wait_checkpoint_idle();
    assert_eq!(
        durable.last_checkpoint_error(),
        None,
        "background checkpoints must succeed"
    );
    assert_eq!(
        durable.ops_since_checkpoint(),
        0,
        "the 64th insert's hand-off must have committed"
    );
    us.sort_by(f64::total_cmp);
    let pct = |q: f64| us[((us.len() - 1) as f64 * q).round() as usize];
    let handoffs = handoff.count() - handoffs_before;
    WriteStall {
        tables: TABLES,
        p50_us: pct(0.5),
        p95_us: pct(0.95),
        max_us: us[us.len() - 1],
        handoffs,
        handoff_mean_us: (handoff.sum() - handoff_sum_before) as f64 / handoffs.max(1) as f64,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_store.json".to_string());
    // Freeze the pool's thread count before any parallel work so the
    // whole bench runs one configuration (see lcdd_tensor::pool docs).
    lcdd_tensor::pool::resolve_threads();
    let tmp = TempDir::new("bench-store");

    // ---- WAL append throughput ------------------------------------------
    let model = lcdd_fcm::FcmModel::new(lcdd_fcm::FcmConfig::tiny());
    let batch: EncodedTableBatch = encode_batch(&model, &delta_tables(9, 1));
    let record = WalRecord {
        epoch_after: 1,
        op: WalOp::Insert {
            batch: batch.to_bytes().expect("bench batch bytes"),
        },
    };
    // Frame = 4-byte length + 8-byte checksum + payload.
    let record_bytes = record.encode_payload().len() + 12;
    let (nosync_rps, nosync_mbs) = wal_append_throughput(&tmp, "nosync", &record, 4000, false);
    let (sync_rps, sync_mbs) = wal_append_throughput(&tmp, "sync", &record, 300, true);
    eprintln!(
        "[bench_store] WAL append ({record_bytes} B/record): \
         no-sync {nosync_rps:>9.0} rec/s ({nosync_mbs:.1} MB/s), \
         fsync-every {sync_rps:>7.0} rec/s ({sync_mbs:.1} MB/s)"
    );

    // ---- write stall --------------------------------------------------------
    let stall = write_stall(&tmp);
    eprintln!(
        "[bench_store] write stall at {} tables / {N_SHARDS} shards (fsync on, checkpoint every 16): \
         insert p50 {:.0} us, p95 {:.0} us, max {:.0} us; {} hand-offs at {:.0} us mean",
        stall.tables, stall.p50_us, stall.p95_us, stall.max_us, stall.handoffs, stall.handoff_mean_us
    );
    assert_eq!(stall.handoffs, 4, "64 inserts at a cadence of 16");
    if stall.max_us > 5.0 * stall.p50_us {
        let msg = format!(
            "slowest insert {:.0} us is more than 5 x the median {:.0} us — a write waited \
             for something other than its own WAL append",
            stall.max_us, stall.p50_us
        );
        if lcdd_bench::strict() {
            panic!("[bench_store] {msg}");
        }
        eprintln!("[bench_store] WARNING: {msg} (set LCDD_BENCH_STRICT=1 to fail)");
    }

    // ---- emit -------------------------------------------------------------
    let json = format!(
        "{{\n  \"group\": \"bench_store\",\n  \"wal_append\": {{\n    \
         \"record_bytes\": {record_bytes},\n    \
         \"nosync_records_per_s\": {nosync_rps:.0},\n    \
         \"nosync_mb_per_s\": {nosync_mbs:.1},\n    \
         \"fsync_records_per_s\": {sync_rps:.0},\n    \
         \"fsync_mb_per_s\": {sync_mbs:.1}\n  }},\n  \
         \"write_stall\": {{\n    \"tables\": {},\n    \"inserts\": 64,\n    \
         \"checkpoint_every_ops\": 16,\n    \"sync_writes\": true,\n    \
         \"insert_p50_us\": {:.0},\n    \"insert_p95_us\": {:.0},\n    \
         \"insert_max_us\": {:.0},\n    \"max_over_p50_x\": {:.2},\n    \
         \"handoffs\": {},\n    \"handoff_mean_us\": {:.0}\n  }}\n}}\n",
        stall.tables,
        stall.p50_us,
        stall.p95_us,
        stall.max_us,
        stall.max_us / stall.p50_us,
        stall.handoffs,
        stall.handoff_mean_us,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_store.json");
    eprintln!("[bench_store] wrote {out_path}");
    println!("{json}");
}
