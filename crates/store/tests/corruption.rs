//! Corruption sweeps over the store's on-disk formats: bit flips and
//! truncations of WAL files, manifests and segments must surface as typed
//! [`EngineError`] values (`Wal` / `Store` / `Snapshot`) or recover to a
//! valid op prefix — **never** a panic and never a silently different
//! corpus.
//!
//! The sweep verdict for each damaged store:
//!
//! * `Err(EngineError::{Wal, Store, Snapshot, Io})` — corruption detected
//!   and typed; or
//! * `Ok(engine)` — the damage fell in a region recovery legitimately
//!   drops (a torn tail) or repairs around (manifest fallback); then the
//!   recovered engine must equal the serial replay of *some* prefix of
//!   the op script.

use lcdd_fcm::EngineError;
use lcdd_store::{latest_manifest, DurableEngine, StoreOptions, WAL_HEADER_LEN};
use lcdd_testkit::crash::{
    apply_durable, apply_serial, assert_recovered_equals_serial, copy_dir, random_script,
    truncate_file, TempDir,
};
use lcdd_testkit::{corpus, query_like, tiny_engine, CorpusSpec};

const SEED: u64 = 0x57e9_a11d;
const N_BASE: usize = 5;
const N_SHARDS: usize = 2;
const N_OPS: usize = 5;

/// Sweep density: every byte of small files; strided samples plus all
/// structural offsets for the WAL.
const WAL_FLIP_SAMPLES: usize = if cfg!(debug_assertions) { 96 } else { 512 };

fn opts() -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: 0,
        checkpoint_every_bytes: 0,
        keep_checkpoints: 1,
        ..StoreOptions::default()
    }
}

struct SweepWorld {
    tmp: TempDir,
    base: Vec<lcdd_table::Table>,
    script: Vec<lcdd_testkit::crash::ScriptedOp>,
    /// The pristine store directory after the full script ran.
    golden: std::path::PathBuf,
}

fn build_world(tag: &str) -> SweepWorld {
    let tmp = TempDir::new(tag);
    let golden = tmp.subdir("golden");
    let base = corpus(&CorpusSpec::sized(SEED, N_BASE));
    let durable = DurableEngine::create(&golden, tiny_engine(base.clone(), N_SHARDS), opts())
        .expect("store creation");
    let base_ids: Vec<u64> = base.iter().map(|t| t.id).collect();
    let script = random_script(SEED, N_OPS, &base_ids);
    for op in &script {
        apply_durable(&durable, op);
    }
    SweepWorld {
        tmp,
        base,
        script,
        golden,
    }
}

/// The verdict for one damaged store: typed error, or equality with some
/// serial op prefix.
fn assert_error_or_prefix(world: &SweepWorld, dir: &std::path::Path, what: &str) {
    match DurableEngine::open(dir, opts()) {
        Err(
            EngineError::Wal(_)
            | EngineError::Store(_)
            | EngineError::Snapshot(_)
            | EngineError::Io(_),
        ) => {}
        Err(other) => panic!("{what}: expected a Wal/Store/Snapshot/Io error, got {other}"),
        Ok((recovered, _)) => {
            let queries = [query_like(&world.base[0]), query_like(&world.base[2])];
            let mut serial = tiny_engine(world.base.clone(), N_SHARDS);
            for cut in 0..=world.script.len() {
                if cut > 0 {
                    apply_serial(&mut serial, &world.script[cut - 1]);
                }
                if serial.epoch() != recovered.epoch() || serial.len() != recovered.len() {
                    continue;
                }
                // Candidate prefix: require full hit equivalence.
                assert_recovered_equals_serial(
                    &format!("{what}: as op prefix 0..{cut}"),
                    &recovered,
                    &serial,
                    &queries,
                );
                return;
            }
            panic!("{what}: recovered engine matches no serial op prefix");
        }
    }
}

fn flip_bit(path: &std::path::Path, byte: u64, bit: u8) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("flip: open");
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(byte)).expect("flip: seek");
    f.read_exact(&mut b).expect("flip: read");
    b[0] ^= 1 << bit;
    f.seek(SeekFrom::Start(byte)).expect("flip: seek back");
    f.write_all(&b).expect("flip: write");
}

/// One byte of garbage past the end of a well-formed file.
fn append_byte(path: &std::path::Path) {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("append: open");
    f.write_all(&[0]).expect("append: write");
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).expect("metadata").len()
}

#[test]
fn wal_bit_flip_sweep_is_typed_or_prefix_recoverable() {
    let world = build_world("walflip");
    let (_, manifest) = latest_manifest(&world.golden)
        .expect("manifest readable")
        .expect("manifest present");
    let wal_name = manifest.wal_file.clone();
    let wal_len = file_len(&world.golden.join(&wal_name));

    // Structural offsets (header + every record frame) plus an even
    // stride across the payload bytes.
    let scan = lcdd_store::wal::scan(&world.golden.join(&wal_name), manifest.wal_offset)
        .expect("pristine WAL scans");
    let mut offsets: Vec<u64> = (0..manifest.wal_offset.min(wal_len)).collect();
    let mut boundary = manifest.wal_offset;
    for &(end, _) in &scan.records {
        offsets.extend(boundary..(boundary + 12).min(wal_len));
        boundary = end;
    }
    let stride = (wal_len.max(1) / WAL_FLIP_SAMPLES as u64).max(1);
    offsets.extend((0..wal_len).step_by(stride as usize));
    offsets.sort_unstable();
    offsets.dedup();

    for &off in &offsets {
        for bit in [0u8, 5] {
            let dir = world.tmp.subdir(&format!("flip-{off}-{bit}"));
            copy_dir(&world.golden, &dir);
            flip_bit(&dir.join(&wal_name), off, bit);
            assert_error_or_prefix(&world, &dir, &format!("WAL flip byte {off} bit {bit}"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn wal_truncation_sweep_is_typed_or_prefix_recoverable() {
    let world = build_world("waltrunc");
    let (_, manifest) = latest_manifest(&world.golden)
        .expect("manifest readable")
        .expect("manifest present");
    let wal_name = manifest.wal_file.clone();
    let wal_len = file_len(&world.golden.join(&wal_name));
    let stride = (wal_len.max(1) / WAL_FLIP_SAMPLES as u64).max(1);
    let mut cuts: Vec<u64> = (0..wal_len).step_by(stride as usize).collect();
    cuts.extend(0..16.min(wal_len)); // header region byte-by-byte
    cuts.sort_unstable();
    cuts.dedup();
    for &cut in &cuts {
        let dir = world.tmp.subdir(&format!("cut-{cut}"));
        copy_dir(&world.golden, &dir);
        truncate_file(&dir.join(&wal_name), cut);
        assert_error_or_prefix(&world, &dir, &format!("WAL truncated to {cut} bytes"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn manifest_bit_flip_and_truncation_sweep_is_typed() {
    let world = build_world("manflip");
    let (man_path, _) = latest_manifest(&world.golden)
        .expect("manifest readable")
        .expect("manifest present");
    let man_name = man_path
        .file_name()
        .and_then(|n| n.to_str())
        .expect("manifest name")
        .to_string();
    let len = file_len(&man_path);
    // Manifests are small: flip every byte, truncate at every eighth.
    for off in 0..len {
        let dir = world.tmp.subdir(&format!("mflip-{off}"));
        copy_dir(&world.golden, &dir);
        flip_bit(&dir.join(&man_name), off, 3);
        // keep_checkpoints = 1 leaves a single manifest: any flip must be
        // a typed Store error (nothing to fall back to).
        match DurableEngine::open(&dir, opts()) {
            Err(EngineError::Store(_)) => {}
            Err(other) => panic!("manifest flip byte {off}: expected Store error, got {other}"),
            Ok(_) => panic!("manifest flip byte {off}: corrupt manifest accepted"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    for cut in (0..len).step_by(8) {
        let dir = world.tmp.subdir(&format!("mcut-{cut}"));
        copy_dir(&world.golden, &dir);
        truncate_file(&dir.join(&man_name), cut);
        match DurableEngine::open(&dir, opts()) {
            Err(EngineError::Store(_)) => {}
            Err(other) => panic!("manifest cut at {cut}: expected Store error, got {other}"),
            Ok(_) => panic!("manifest cut at {cut}: truncated manifest accepted"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn segment_and_meta_corruption_is_typed() {
    let world = build_world("segflip");
    let (_, manifest) = latest_manifest(&world.golden)
        .expect("manifest readable")
        .expect("manifest present");
    let mut files = manifest.segments.clone();
    files.push(manifest.meta_file.clone());
    for name in &files {
        let len = file_len(&world.golden.join(name));
        let stride = (len.max(1) / 64).max(1);
        for off in (0..len).step_by(stride as usize) {
            let dir = world.tmp.subdir(&format!("seg-{name}-{off}"));
            copy_dir(&world.golden, &dir);
            flip_bit(&dir.join(name), off, 6);
            match DurableEngine::open(&dir, opts()) {
                Err(EngineError::Store(_) | EngineError::Snapshot(_) | EngineError::Wal(_)) => {}
                Err(other) => {
                    panic!("{name} flip byte {off}: expected typed store error, got {other}")
                }
                Ok(_) => panic!("{name} flip byte {off}: corrupt file accepted"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn trailing_garbage_is_rejected_by_the_eager_and_the_cold_open_alike() {
    let world = build_world("trailing");
    let (_, manifest) = latest_manifest(&world.golden)
        .expect("manifest readable")
        .expect("manifest present");
    let mut files = manifest.segments.clone();
    files.push(manifest.meta_file.clone());
    for name in &files {
        for cold_open in [false, true] {
            let dir = world.tmp.subdir(&format!("trail-{name}-{cold_open}"));
            copy_dir(&world.golden, &dir);
            append_byte(&dir.join(name));
            let opts = StoreOptions {
                cold_open,
                ..opts()
            };
            match DurableEngine::open(&dir, opts) {
                Err(EngineError::Store(m)) => assert!(m.contains(name), "message: {m}"),
                Err(other) => panic!("{name} + 1 byte, cold {cold_open}: got {other}"),
                Ok(_) => panic!("{name} + 1 byte, cold {cold_open}: accepted"),
            }
        }
    }
}

#[test]
fn trailing_garbage_on_a_snapshot_is_rejected() {
    let world = build_world("trailing-snap");
    let (durable, _) = DurableEngine::open(&world.golden, opts()).expect("pristine store opens");
    let path = world.tmp.subdir("backup.snap");
    durable.save(&path).expect("backup");
    let restored = lcdd_engine::Engine::load(&path).expect("pristine backup loads");
    assert_eq!(restored.len(), durable.len());
    append_byte(&path);
    match lcdd_engine::Engine::load(&path) {
        Err(EngineError::Snapshot(_)) => {}
        Err(other) => panic!("snapshot + 1 byte: expected Snapshot error, got {other}"),
        Ok(_) => panic!("snapshot + 1 byte: accepted"),
    }
}

/// A store with two checkpoints retained and ops logged both between
/// them and after the newest: `(dir, serial oracle of every acknowledged
/// op, base corpus)`. The store handle is dropped (checkpointer joined).
fn two_checkpoint_store(
    tmp: &TempDir,
) -> (
    std::path::PathBuf,
    lcdd_engine::Engine,
    Vec<lcdd_table::Table>,
) {
    let dir = tmp.subdir("store");
    let base = corpus(&CorpusSpec::sized(SEED ^ 1, N_BASE));
    let durable = DurableEngine::create(
        &dir,
        tiny_engine(base.clone(), N_SHARDS),
        StoreOptions {
            keep_checkpoints: 2,
            ..opts()
        },
    )
    .expect("store creation");
    let mut serial = tiny_engine(base.clone(), N_SHARDS);
    let base_ids: Vec<u64> = base.iter().map(|t| t.id).collect();
    let script = random_script(SEED ^ 2, 6, &base_ids);
    for (i, op) in script.iter().enumerate() {
        apply_durable(&durable, op);
        apply_serial(&mut serial, op);
        if i == 2 {
            durable.checkpoint().expect("manual checkpoint");
        }
    }
    assert!(
        durable.ops_since_checkpoint() > 0,
        "the script must log ops after the newest checkpoint"
    );
    (dir, serial, base)
}

#[test]
fn corrupt_newest_manifest_falls_back_and_loses_nothing() {
    newest_manifest_damage_falls_back("fallback", |newest| flip_bit(newest, 40, 2));
}

#[test]
fn trailing_garbage_on_newest_manifest_falls_back_and_loses_nothing() {
    newest_manifest_damage_falls_back("fallback-trailing", append_byte);
}

fn newest_manifest_damage_falls_back(tag: &str, damage: impl Fn(&std::path::Path)) {
    let tmp = TempDir::new(tag);
    let (dir, serial, base) = two_checkpoint_store(&tmp);
    let (newest, manifest) = latest_manifest(&dir)
        .expect("manifest readable")
        .expect("manifest present");
    damage(&newest);
    // The newest manifest is damaged; recovery falls back to the creation
    // checkpoint and replays its whole WAL chain — the ops the damaged
    // checkpoint covered *and* the ops acknowledged after it, which live
    // in the damaged checkpoint's log.
    let (recovered, report) = DurableEngine::open(&dir, opts()).expect("fallback recovery");
    assert!(
        report.fallback,
        "skipping a corrupt newer manifest must be reported"
    );
    assert_eq!(report.checkpoint_epoch, 0);
    assert_eq!(
        report.wal_files, 2,
        "replay must continue from the creation log into {}",
        manifest.wal_file
    );
    assert_eq!(report.replayed_ops as u64, serial.epoch());
    let queries = [query_like(&base[0]), query_like(&base[2])];
    assert_recovered_equals_serial(
        "fallback: every acknowledged op",
        &recovered,
        &serial,
        &queries,
    );
}

#[test]
fn torn_or_missing_link_in_a_non_final_log_is_a_typed_wal_error() {
    let tmp = TempDir::new("chainbreak");
    let (golden, _, _) = two_checkpoint_store(&tmp);
    let (newest, manifest) = latest_manifest(&golden)
        .expect("manifest readable")
        .expect("manifest present");
    // Force recovery onto the two-file chain wal-0 → wal-<ckpt epoch>.
    std::fs::remove_file(&newest).expect("drop the newest manifest");
    let first_log = "wal-0000000000000000.log";
    assert_ne!(manifest.wal_file, first_log);
    DurableEngine::open(&golden, opts()).expect("the intact chain recovers");

    // A torn record in the rotated-out log: its successor exists, so the
    // tear cannot be a crash mid-append — acknowledged history is missing.
    let torn = tmp.subdir("torn");
    copy_dir(&golden, &torn);
    truncate_file(&torn.join(first_log), file_len(&torn.join(first_log)) - 3);
    match DurableEngine::open(&torn, opts()) {
        Err(EngineError::Wal(m)) => assert!(m.contains("non-final"), "message: {m}"),
        Err(other) => panic!("torn non-final log: expected a Wal error, got {other}"),
        Ok(_) => panic!("torn non-final log: silently shortened corpus accepted"),
    }

    // A whole record cut cleanly off the rotated-out log: no tear to see,
    // but the next log no longer starts where this one ends.
    let scan = lcdd_store::wal::scan(&golden.join(first_log), manifest.wal_offset)
        .expect("pristine log scans");
    let cut = scan.records[scan.records.len() - 2].0;
    let short = tmp.subdir("short");
    copy_dir(&golden, &short);
    truncate_file(&short.join(first_log), cut);
    match DurableEngine::open(&short, opts()) {
        Err(EngineError::Wal(m)) => assert!(m.contains("chain broken"), "message: {m}"),
        Err(other) => panic!("shortened non-final log: expected a Wal error, got {other}"),
        Ok(_) => panic!("shortened non-final log: silently shortened corpus accepted"),
    }
}

/// Every byte of a logged insert body — the `LCDDSEG2` image of the
/// inserted slots, not the record's kind or epoch — flipped in turn, with
/// the record's checksum re-sealed so the image's own validators are what
/// stands between the flip and the corpus. The open must fail with a
/// typed WAL error, or recover a corpus whose snapshot bytes equal the
/// undamaged store's (a flip in the image's zero padding changes nothing
/// that is read).
#[test]
fn resealed_flips_in_an_insert_body_are_typed_or_harmless() {
    use lcdd_engine::frame::fnv1a64;
    use lcdd_store::wal;

    let tmp = TempDir::new("insert-body-flip");
    let golden = tmp.subdir("golden");
    let tables = corpus(&CorpusSpec::sized(SEED, 5));
    let inserted = tables[4].clone();
    assert_eq!(inserted.columns.len(), 1, "a one-column insert");
    let store = DurableEngine::create(&golden, tiny_engine(tables[..2].to_vec(), 1), opts())
        .expect("store creation");
    store.insert_tables(vec![inserted]).expect("insert");
    drop(store);

    let snapshot_of = |store: &DurableEngine, tag: &str| {
        let path = tmp.subdir(tag);
        store.save(&path).expect("snapshot");
        std::fs::read(&path).expect("snapshot readable")
    };
    let (store, _) = DurableEngine::open(&golden, opts()).expect("pristine store opens");
    let expected = snapshot_of(&store, "golden.snap");
    drop(store);

    let (_, manifest) = latest_manifest(&golden).unwrap().unwrap();
    let log = std::fs::read(golden.join(&manifest.wal_file)).unwrap();
    let scan = wal::scan(&golden.join(&manifest.wal_file), WAL_HEADER_LEN).unwrap();
    assert_eq!(scan.records.len(), 1);
    // Record frame: payload_len u32 | payload_hash u64 | kind u8 | epoch u64 | body.
    let frame_at = WAL_HEADER_LEN as usize;
    let payload_at = frame_at + 12;
    let body_at = payload_at + 9;
    assert_eq!(scan.records[0].0 as usize, log.len());

    let dir = tmp.subdir("damaged");
    let (mut typed, mut harmless) = (0, 0);
    for at in body_at..log.len() {
        let mut bad = log.clone();
        bad[at] ^= 0x01;
        let hash = fnv1a64(&bad[payload_at..]);
        bad[frame_at + 4..payload_at].copy_from_slice(&hash.to_le_bytes());
        let _ = std::fs::remove_dir_all(&dir);
        copy_dir(&golden, &dir);
        std::fs::write(dir.join(&manifest.wal_file), &bad).unwrap();
        match DurableEngine::open(&dir, opts()) {
            Err(EngineError::Wal(_)) => typed += 1,
            Err(other) => panic!(
                "flip at body byte {}: expected a Wal error, got {other}",
                at - body_at
            ),
            Ok((store, _)) => {
                assert!(
                    snapshot_of(&store, "damaged.snap") == expected,
                    "flip at body byte {} loaded a different corpus",
                    at - body_at
                );
                harmless += 1;
            }
        }
    }
    assert!(typed > 0 && typed + harmless == log.len() - body_at);
}

/// Images whose encodings are 8 wide, behind the meta section of a 16-wide
/// `tiny()` model, with every frame intact: each reader — a snapshot load,
/// the eager and the cold store open, WAL replay — must refuse them with
/// a typed error rather than serve encodings the scorer was not built
/// for.
#[test]
fn images_of_another_width_are_refused_by_every_reader() {
    use lcdd_engine::{frame, Engine, EngineBuilder};
    use lcdd_fcm::{FcmConfig, FcmModel};
    use lcdd_testkit::crash::SnapshotLayout;

    let tables = corpus(&CorpusSpec::sized(SEED, 4));
    let narrow_cfg = FcmConfig {
        embed_dim: 8,
        ..FcmConfig::tiny()
    };
    let narrow = || {
        EngineBuilder::new(FcmModel::new(narrow_cfg.clone()))
            .shards(N_SHARDS)
            .ingest_tables(tables[..3].to_vec())
            .build()
            .expect("narrow engine")
    };
    let wide = || tiny_engine(tables[..3].to_vec(), N_SHARDS);
    assert_eq!(FcmConfig::tiny().embed_dim, 16);

    // Snapshot: the wide engine's meta section, the narrow engine's images.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    wide().save_to(&mut a).unwrap();
    narrow().save_to(&mut b).unwrap();
    let (la, lb) = (SnapshotLayout::of(&a), SnapshotLayout::of(&b));
    let mut payload = a[frame::HEAD_LEN..la.meta.end].to_vec();
    payload.extend_from_slice(&b[lb.meta.end..]);
    let mut spliced = frame::head(b"LCDDSNAP", 3, &[&payload]).to_vec();
    spliced.extend_from_slice(&payload);
    match Engine::load_from(spliced.as_slice()) {
        Err(EngineError::Snapshot(m)) => assert!(m.contains("embed_dim 8"), "{m}"),
        Err(other) => panic!("snapshot: expected a Snapshot error, got {other}"),
        Ok(_) => panic!("snapshot: 8-wide images loaded under a 16-wide model"),
    }

    // Stores: the wide store's meta and manifest with the narrow store's
    // segment files (each its own intact frame), then its log.
    let tmp = TempDir::new("width");
    let (wide_dir, narrow_dir) = (tmp.subdir("wide"), tmp.subdir("narrow"));
    for (dir, engine) in [(&wide_dir, wide()), (&narrow_dir, narrow())] {
        let store = DurableEngine::create(dir, engine, opts()).unwrap();
        store.insert_tables(vec![tables[3].clone()]).unwrap();
    }
    let (_, manifest) = latest_manifest(&wide_dir).unwrap().unwrap();
    let segments = tmp.subdir("segments");
    copy_dir(&wide_dir, &segments);
    for name in &manifest.segments {
        std::fs::copy(narrow_dir.join(name), segments.join(name)).unwrap();
    }
    for cold_open in [false, true] {
        let opts = StoreOptions {
            cold_open,
            ..opts()
        };
        match DurableEngine::open(&segments, opts) {
            Err(EngineError::Store(m)) => assert!(m.contains("embed_dim 8"), "{m}"),
            Err(other) => panic!("cold_open {cold_open}: expected a Store error, got {other}"),
            Ok(_) => panic!("cold_open {cold_open}: 8-wide segments opened"),
        }
    }
    let log = tmp.subdir("log");
    copy_dir(&wide_dir, &log);
    std::fs::copy(
        narrow_dir.join(&manifest.wal_file),
        log.join(&manifest.wal_file),
    )
    .unwrap();
    match DurableEngine::open(&log, opts()) {
        Err(EngineError::Wal(m)) => assert!(m.contains("embed_dim 8"), "{m}"),
        Err(other) => panic!("log: expected a Wal error, got {other}"),
        Ok(_) => panic!("log: an 8-wide insert replayed under a 16-wide model"),
    }
}
