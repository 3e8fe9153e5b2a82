//! One on-disk vocabulary, checked by bytes: an engine snapshot is a
//! container of exactly the pieces a store writes (`meta.seg` payload +
//! one `LCDDSEG2` image per shard), whichever tier the state lives in, and
//! a WAL insert record carries one more such image. A store written by
//! the previous release (`pr37-store`, format-1 images that still carry
//! the raw segment matrices) opens eagerly and cold, replays its WAL
//! without re-encoding, and its checkpoint and insert image, decoded and
//! written again, are byte for byte this release's (`pr38-store`); this
//! release's log re-serializes to the identical bytes; and the retired
//! version-1 log is refused with a typed error that names the way out.

use std::path::{Path, PathBuf};

use lcdd_engine::persist::{assemble_engine, EncodedTableBatch};
use lcdd_engine::{frame, Engine, EngineError, IndexStrategy, Query, SearchOptions};
use lcdd_store::wal::{self, WalOp, WalWriter};
use lcdd_store::{latest_manifest, DurableEngine, StoreOptions, WAL_HEADER_LEN};
use lcdd_testkit::crash::{copy_dir, encode_gate, SnapshotLayout, TempDir};
use lcdd_testkit::{assert_same_hits_bitwise, corpus, queries_for, tiny_engine, CorpusSpec};

fn opts(cold_open: bool) -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 0,
        checkpoint_every_bytes: 0,
        cold_open,
        ..StoreOptions::default()
    }
}

/// A 3-shard engine with tombstones the snapshot / checkpoint writers
/// must compact away, and the tables it was built from.
fn tombstoned_engine() -> (Engine, Vec<lcdd_table::Table>) {
    let tables = corpus(&CorpusSpec::sized(0x1f0a, 9));
    let mut engine = tiny_engine(tables.clone(), 3);
    engine.set_compaction_threshold(1.0);
    assert_eq!(engine.remove_tables(&[tables[1].id, tables[5].id]), 2);
    assert!(engine.shards().iter().any(|s| s.n_dead() > 0));
    (engine, tables)
}

/// The payload of a framed store file (everything past the 28-byte head).
fn payload(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("store file readable")[frame::HEAD_LEN..].to_vec()
}

fn assert_same_answers(context: &str, a: &Engine, b: &Engine, queries: &[Query]) {
    for strategy in IndexStrategy::ALL {
        let opts = SearchOptions::top_k(5).with_strategy(strategy);
        for (qi, q) in queries.iter().enumerate() {
            assert_same_hits_bitwise(
                &format!("{context}: {strategy:?}, query {qi}"),
                &a.search(q, &opts).unwrap(),
                &b.search(q, &opts).unwrap(),
            );
        }
    }
}

#[test]
fn a_snapshot_embeds_the_store_files_byte_for_byte() {
    let _gate = encode_gate();
    let (engine, _) = tombstoned_engine();
    let mut snap = Vec::new();
    engine.save_to(&mut snap).unwrap();
    let layout = SnapshotLayout::of(&snap);

    let tmp = TempDir::new("one-format-embed");
    let dir = tmp.subdir("store");
    let n_shards = engine.n_shards();
    drop(DurableEngine::create(&dir, engine, opts(false)).unwrap());
    let (_, manifest) = latest_manifest(&dir).unwrap().unwrap();
    assert_eq!(layout.images.len(), n_shards);
    assert_eq!(manifest.segments.len(), n_shards);
    assert!(
        snap[layout.meta] == payload(&dir.join(&manifest.meta_file)),
        "meta block"
    );
    for (i, (image, name)) in layout
        .images
        .into_iter()
        .zip(&manifest.segments)
        .enumerate()
    {
        assert!(
            snap[image] == payload(&dir.join(name)),
            "shard {i} vs {name}"
        );
    }
}

#[test]
fn live_eager_and_cold_states_snapshot_to_the_same_bytes() {
    let _gate = encode_gate();
    let (engine, tables) = tombstoned_engine();
    let queries = queries_for(&tables, 4);
    let mut live = Vec::new();
    engine.save_to(&mut live).unwrap();
    let reference = Engine::load_from(live.as_slice()).unwrap();
    assert_same_answers("snapshot of the live engine", &engine, &reference, &queries);

    let tmp = TempDir::new("one-format-tiers");
    let dir = tmp.subdir("store");
    drop(DurableEngine::create(&dir, engine, opts(false)).unwrap());
    for cold_open in [false, true] {
        let (store, _) = DurableEngine::open(&dir, opts(cold_open)).unwrap();
        let path = tmp.subdir(&format!("backup-{cold_open}.snap"));
        store.save(&path).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == live,
            "cold_open {cold_open}: snapshot bytes differ from the live engine's"
        );
        let restored = Engine::load(&path).unwrap();
        assert_same_answers(
            &format!("snapshot of the store, cold_open {cold_open}"),
            &reference,
            &restored,
            &queries,
        );
    }
}

/// The committed store directories. All were written with one recipe:
/// `corpus(&CorpusSpec::sized(0xf1c5, 5))`, `DurableEngine::create` over
/// `tiny_engine(tables[..4], 2)` (four tables in two shards, the
/// checkpoint), then `insert_tables(vec![tables[4]])` and
/// `remove_tables(&[1])`, which only the WAL holds — `sync_writes` off,
/// both checkpoint triggers at 0.
///
/// * `pr17-store` — written by commit 037a1da: a version-1 WAL, whose
///   insert record is in the retired batch codec.
/// * `pr37-store` — written by the release that made insert records
///   `LCDDSEG2` images (WAL version 2). Its checkpoint files equal
///   `pr17-store`'s byte for byte; only the log differs.
/// * `pr38-store` — written by the release whose images (format 2) keep
///   only what search reads: no raw segment matrices.
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn a_store_with_a_version_1_log_is_refused_with_the_migration_path() {
    let tmp = TempDir::new("one-format-v1");
    for cold_open in [false, true] {
        let dir = tmp.subdir(&format!("open-{cold_open}"));
        copy_dir(&fixture("pr17-store"), &dir);
        match DurableEngine::open(&dir, opts(cold_open)) {
            Err(EngineError::Wal(m)) => assert!(
                m.contains("retired WAL version 1") && m.contains("DurableEngine::save"),
                "cold_open {cold_open}: {m}"
            ),
            Err(e) => panic!("cold_open {cold_open}: expected a WAL error, got {e:?}"),
            Ok(_) => panic!("cold_open {cold_open}: a version-1 log opened"),
        }
    }
}

#[test]
fn a_store_written_by_this_release_opens_with_identical_answers() {
    let _gate = encode_gate();
    let tmp = TempDir::new("one-format-fixture");
    let encodes = lcdd_fcm::table_encode_count();
    let mut opened = Vec::new();
    for cold_open in [false, true] {
        let dir = tmp.subdir(&format!("open-{cold_open}"));
        copy_dir(&fixture("pr37-store"), &dir);
        let (store, report) = DurableEngine::open(&dir, opts(cold_open)).unwrap();
        assert_eq!((report.checkpoint_epoch, report.replayed_ops), (0, 2));
        assert!(report.truncated_tail.is_none() && !report.fallback);
        assert_eq!((store.len(), store.epoch()), (4, 2));
        opened.push(store);
    }
    assert_eq!(
        lcdd_fcm::table_encode_count(),
        encodes,
        "opening a store must not re-encode a table"
    );
    let k = SearchOptions::top_k(4);
    for (qi, q) in queries_for(&corpus(&CorpusSpec::sized(0xf1c5, 5)), 5)
        .iter()
        .enumerate()
    {
        for strategy in IndexStrategy::ALL {
            let opts = k.clone().with_strategy(strategy);
            let eager = opened[0].search(q, &opts).unwrap();
            let cold = opened[1].search(q, &opts).unwrap();
            if strategy == IndexStrategy::NoIndex {
                assert_eq!(eager.hits.len(), 4, "an exact scan ranks every live table");
            }
            assert_same_hits_bitwise(&format!("{strategy:?}, query {qi}"), &eager, &cold);
        }
    }
}

/// The body of a fixture log's one insert record.
fn insert_image(dir: &Path) -> Vec<u8> {
    let (_, manifest) = latest_manifest(dir).unwrap().unwrap();
    let scan = wal::scan(&dir.join(&manifest.wal_file), WAL_HEADER_LEN).unwrap();
    let mut inserts = scan.records.into_iter().filter_map(|(_, r)| match r.op {
        WalOp::Insert { batch } => Some(batch),
        _ => None,
    });
    let image = inserts.next().expect("the fixture log holds an insert");
    assert!(inserts.next().is_none(), "one insert record");
    image
}

#[test]
fn the_previous_release_s_files_rewrite_to_this_release_s_bytes() {
    // Format-1 images decoded and written again are the format-2 images
    // this release writes for the same state: the segments, and only
    // they, are gone.
    let _gate = encode_gate();
    let pr38 = fixture("pr38-store");
    let (man_path, manifest) = latest_manifest(&pr38).unwrap().unwrap();
    let mut names = manifest.segments.clone();
    names.push(manifest.meta_file.clone());
    names.push(man_path.file_name().unwrap().to_str().unwrap().to_string());
    let tmp = TempDir::new("one-format-rewrite");
    for old in ["pr17-store", "pr37-store"] {
        let old_dir = fixture(old);
        let (_, old_manifest) = latest_manifest(&old_dir).unwrap().unwrap();
        let segments: Vec<Vec<u8>> = old_manifest
            .segments
            .iter()
            .map(|name| payload(&old_dir.join(name)))
            .collect();
        let engine = assemble_engine(
            &payload(&old_dir.join(&old_manifest.meta_file)),
            old_manifest.order.clone(),
            &segments,
            old_manifest.epoch,
        )
        .unwrap();
        let dir = tmp.subdir(old);
        drop(DurableEngine::create(&dir, engine, opts(false)).unwrap());
        for name in &names {
            assert!(
                std::fs::read(dir.join(name)).unwrap() == std::fs::read(pr38.join(name)).unwrap(),
                "{old}: rewritten {name} differs from pr38-store's"
            );
        }
    }
    let embed_dim = lcdd_fcm::FcmConfig::tiny().embed_dim;
    let old = EncodedTableBatch::from_bytes(&insert_image(&fixture("pr37-store")), embed_dim);
    assert!(
        old.unwrap().to_bytes().unwrap() == insert_image(&pr38),
        "pr37-store's insert image, written again, differs from pr38-store's"
    );
}

#[test]
fn this_release_s_log_is_rewritten_byte_for_byte() {
    // Re-append the log's records, and check the insert body is the
    // `LCDDSEG2` image of its own decoded slots.
    let fixture = fixture("pr38-store");
    let (_, manifest) = latest_manifest(&fixture).unwrap().unwrap();
    let embed_dim = lcdd_fcm::FcmConfig::tiny().embed_dim;
    let log = fixture.join(&manifest.wal_file);
    let scan = wal::scan(&log, WAL_HEADER_LEN).unwrap();
    assert_eq!(scan.records.len(), 2);
    let tmp = TempDir::new("one-format-wal");
    let copy = tmp.subdir("rewritten.log");
    let mut writer = WalWriter::create(&copy, false).unwrap();
    for (_, record) in &scan.records {
        writer.append(record).unwrap();
        if let WalOp::Insert { batch } = &record.op {
            assert!(batch.starts_with(b"LCDDSEG2"), "insert body is an image");
            let decoded = EncodedTableBatch::from_bytes(batch, embed_dim).unwrap();
            assert_eq!(decoded.table_ids(), [4]);
            assert!(decoded.to_bytes().unwrap() == *batch, "insert image codec");
        }
    }
    drop(writer);
    assert!(
        std::fs::read(&copy).unwrap() == std::fs::read(&log).unwrap(),
        "WAL differs from the fixture's"
    );
}
