//! Unit-level behaviour of the store layers: WAL framing and torn-tail
//! semantics, manifest selection, checkpoint dirty-shard accounting, GC,
//! and lifecycle errors.

use lcdd_fcm::EngineError;
use lcdd_store::wal::{scan, WalOp, WalRecord, WalWriter, WAL_HEADER_LEN};
use lcdd_store::{latest_manifest, DurableEngine, StoreOptions};
use lcdd_testkit::crash::{truncate_file, TempDir};
use lcdd_testkit::{corpus, tiny_engine, CorpusSpec};

fn sample_records() -> Vec<WalRecord> {
    vec![
        WalRecord {
            epoch_after: 1,
            op: WalOp::Insert {
                batch: vec![1, 2, 3, 4, 5],
            },
        },
        WalRecord {
            epoch_after: 2,
            op: WalOp::Remove {
                ids: vec![7, 42],
                threshold: 0.25,
            },
        },
        WalRecord {
            epoch_after: 3,
            op: WalOp::Compact,
        },
        WalRecord {
            epoch_after: 4,
            op: WalOp::Reshard { n_shards: 3 },
        },
    ]
}

#[test]
fn wal_records_roundtrip_through_append_and_scan() {
    let tmp = TempDir::new("wal-roundtrip");
    let path = tmp.subdir("wal.log");
    let mut w = WalWriter::create(&path, true).unwrap();
    assert!(w.is_empty());
    let records = sample_records();
    for r in &records {
        w.append(r).unwrap();
    }
    assert_eq!(w.len(), std::fs::metadata(&path).unwrap().len());

    let got = scan(&path, WAL_HEADER_LEN).unwrap();
    assert!(got.torn.is_none());
    assert_eq!(got.valid_len, w.len());
    let ops: Vec<WalRecord> = got.records.into_iter().map(|(_, r)| r).collect();
    assert_eq!(ops, records);

    // Scanning from a later boundary yields the suffix.
    let first_end = {
        let full = scan(&path, WAL_HEADER_LEN).unwrap();
        full.records[0].0
    };
    let tail = scan(&path, first_end).unwrap();
    assert_eq!(tail.records.len(), records.len() - 1);
    assert_eq!(tail.records[0].1, records[1]);
}

#[test]
fn wal_torn_tail_is_reported_not_errored() {
    let tmp = TempDir::new("wal-torn");
    let path = tmp.subdir("wal.log");
    let mut w = WalWriter::create(&path, false).unwrap();
    for r in sample_records() {
        w.append(&r).unwrap();
    }
    let full = scan(&path, WAL_HEADER_LEN).unwrap();
    let last_start = full.records[full.records.len() - 2].0;
    // Cut inside the final record: scan keeps the prefix and reports the
    // tear; an appender reopened at valid_len truncates it away.
    truncate_file(&path, last_start + 5);
    let torn = scan(&path, WAL_HEADER_LEN).unwrap();
    assert_eq!(torn.records.len(), full.records.len() - 1);
    assert_eq!(torn.valid_len, last_start);
    assert!(torn.torn.is_some());

    let w = WalWriter::open(&path, torn.valid_len, false).unwrap();
    assert_eq!(w.len(), last_start);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), last_start);
}

#[test]
fn wal_mid_log_corruption_is_a_typed_wal_error() {
    use std::io::{Read, Seek, SeekFrom, Write};
    let tmp = TempDir::new("wal-midflip");
    let path = tmp.subdir("wal.log");
    let mut w = WalWriter::create(&path, false).unwrap();
    for r in sample_records() {
        w.append(&r).unwrap();
    }
    // Flip one payload byte of the FIRST record: a complete record that
    // fails its checksum is corruption, not a torn tail.
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let off = WAL_HEADER_LEN + 12 + 1;
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(off)).unwrap();
    f.read_exact(&mut b).unwrap();
    b[0] ^= 0x10;
    f.seek(SeekFrom::Start(off)).unwrap();
    f.write_all(&b).unwrap();
    drop(f);
    match scan(&path, WAL_HEADER_LEN) {
        Err(EngineError::Wal(msg)) => assert!(msg.contains("checksum"), "got: {msg}"),
        other => panic!("expected a Wal checksum error, got {other:?}"),
    }
}

#[test]
fn open_on_a_non_store_directory_is_a_typed_error() {
    let tmp = TempDir::new("not-a-store");
    match DurableEngine::open(tmp.path(), StoreOptions::default()) {
        Err(EngineError::Store(msg)) => assert!(msg.contains("no manifest"), "got: {msg}"),
        other => panic!("expected Store error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn create_refuses_to_clobber_an_existing_store() {
    let tmp = TempDir::new("no-clobber");
    let dir = tmp.subdir("store");
    let base = corpus(&CorpusSpec::sized(7, 4));
    DurableEngine::create(&dir, tiny_engine(base.clone(), 1), StoreOptions::default()).unwrap();
    match DurableEngine::create(&dir, tiny_engine(base, 1), StoreOptions::default()) {
        Err(EngineError::Store(msg)) => assert!(msg.contains("already holds"), "got: {msg}"),
        other => panic!("expected Store error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn incremental_checkpoints_rewrite_only_dirty_shards_and_gc_old_files() {
    let tmp = TempDir::new("incremental");
    let dir = tmp.subdir("store");
    let base = corpus(&CorpusSpec::sized(0xabc, 12));
    let opts = StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 0,
        checkpoint_every_bytes: 0,
        keep_checkpoints: 1,
        ..StoreOptions::default()
    };
    let durable = DurableEngine::create(&dir, tiny_engine(base, 4), opts).unwrap();

    // One insert dirties exactly one (least-loaded) shard.
    let mut extra = corpus(&CorpusSpec::sized(0xdef, 1));
    extra[0].id = 400;
    durable.insert_tables(extra).unwrap();
    let stats = durable.checkpoint().unwrap();
    assert_eq!(stats.shards_total, 4);
    assert_eq!(
        stats.shards_written, 1,
        "an insert into one shard must rewrite one segment"
    );
    assert!(stats.bytes_reused > 0, "clean shards carry forward");
    assert!(stats.bytes_written > 0);

    // A no-op checkpoint writes nothing.
    let stats = durable.checkpoint().unwrap();
    assert_eq!(stats.shards_written, 0);
    assert_eq!(stats.bytes_written, 0);

    // keep_checkpoints = 1: the creation checkpoint's manifest is GC'd,
    // its now-unreferenced segment + WAL files with it.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .collect();
    let manifests = names.iter().filter(|n| n.starts_with("MANIFEST-")).count();
    let wals = names.iter().filter(|n| n.starts_with("wal-")).count();
    assert_eq!(manifests, 1, "files: {names:?}");
    assert_eq!(wals, 1, "files: {names:?}");
    let (_, manifest) = latest_manifest(&dir).unwrap().unwrap();
    for name in names
        .iter()
        .filter(|n| n.starts_with("seg-") || n.starts_with("wal-"))
    {
        assert!(
            manifest.segments.contains(name) || *name == manifest.wal_file,
            "unreferenced file {name} survived GC (files: {names:?})"
        );
    }

    // Reshard dirties everything.
    durable.reshard(3).unwrap();
    let stats = durable.checkpoint().unwrap();
    assert_eq!(stats.shards_total, 3);
    assert_eq!(stats.shards_written, 3);
}

#[test]
fn recovery_resumes_epoch_numbering_and_appends_continue() {
    let tmp = TempDir::new("resume");
    let dir = tmp.subdir("store");
    let base = corpus(&CorpusSpec::sized(0x11, 5));
    let opts = StoreOptions {
        sync_writes: true, // exercise the fsync path end to end
        checkpoint_every_ops: 0,
        checkpoint_every_bytes: 0,
        ..StoreOptions::default()
    };
    let durable = DurableEngine::create(&dir, tiny_engine(base.clone(), 2), opts.clone()).unwrap();
    let mut t = corpus(&CorpusSpec::sized(0x22, 2));
    for (i, x) in t.iter_mut().enumerate() {
        x.id = 600 + i as u64;
    }
    durable.insert_tables(t).unwrap();
    durable.remove_tables(&[base[0].id]).unwrap();
    assert_eq!(durable.epoch(), 2);
    let wal_before = durable.wal_len();
    drop(durable);

    let (durable, report) = DurableEngine::open(&dir, opts).unwrap();
    assert_eq!(report.checkpoint_epoch, 0);
    assert_eq!(report.replayed_ops, 2);
    assert_eq!(report.recovered_epoch, 2);
    assert!(report.truncated_tail.is_none());
    assert!(!report.fallback, "clean recovery uses the newest manifest");
    assert_eq!(durable.epoch(), 2);
    assert_eq!(durable.len(), 6);
    assert_eq!(durable.wal_len(), wal_before);

    // The log keeps accepting ops after recovery.
    durable.remove_tables(&[600]).unwrap();
    assert_eq!(durable.epoch(), 3);
    assert!(durable.wal_len() > wal_before);
}

#[test]
fn writes_that_change_nothing_are_not_logged() {
    // Every record must bump the epoch by exactly one (`epoch_after`), so
    // a durable write that leaves the corpus alone must leave the log
    // alone too.
    let tmp = TempDir::new("noop-writes");
    let dir = tmp.subdir("store");
    let base = corpus(&CorpusSpec::sized(0x44, 6));
    let opts = StoreOptions {
        checkpoint_every_ops: 0,
        checkpoint_every_bytes: 0,
        ..StoreOptions::default()
    };
    let durable = DurableEngine::create(&dir, tiny_engine(base.clone(), 2), opts.clone()).unwrap();
    // Real writes: a removal that leaves its tombstone (auto-compaction
    // off), then the compact that reclaims it.
    durable.set_compaction_threshold(1.0);
    assert_eq!(durable.remove_tables(&[base[0].id]).unwrap(), 1);
    durable.compact().unwrap();
    let (epoch, wal_len) = (durable.epoch(), durable.wal_len());
    assert_eq!(epoch, 2);

    assert_eq!(durable.remove_tables(&[9_999]).unwrap(), 0);
    durable.compact().unwrap();
    assert!(durable.insert_tables(Vec::new()).unwrap().is_empty());
    assert_eq!(durable.epoch(), epoch, "no-op writes publish nothing");
    assert_eq!(durable.wal_len(), wal_len, "no-op writes log nothing");
    drop(durable);

    let (durable, report) = DurableEngine::open(&dir, opts).unwrap();
    assert_eq!(report.replayed_ops, 2, "only the real writes replay");
    assert_eq!(report.recovered_epoch, epoch);
    assert_eq!(durable.len(), base.len() - 1);
}
