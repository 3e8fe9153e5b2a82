//! Engine snapshot round-trips and robustness: a saved-then-loaded engine
//! must reproduce identical top-k rankings, scores, and per-stage
//! provenance on fixed queries; snapshot bytes must round-trip
//! bit-identically per shard and be tombstone-independent; a failed save
//! must leave the previous snapshot intact; and corrupt bytes — frame,
//! length prefixes, the weight block, or the interior of an embedded
//! `LCDDSEG2` image — as well as the retired formats must surface as
//! typed errors, never a panic. The meta word that held the retired IVF
//! probe width is read and ignored, whatever value a snapshot carries.

use lcdd_engine::{frame, Engine, EngineError, IndexStrategy, Query, SearchOptions, ServingEngine};
use lcdd_testkit::crash::{SnapshotLayout, TempDir};
use lcdd_testkit::{
    assert_same_hits, assert_same_hits_bitwise, corpus, queries_for, tiny_engine, CorpusSpec,
};

fn test_corpus() -> Vec<lcdd_table::Table> {
    corpus(&CorpusSpec::sized(0x70, 8))
}

fn fixed_queries() -> Vec<Query> {
    queries_for(&test_corpus(), 4)
}

fn build_engine(n_shards: usize) -> Engine {
    tiny_engine(test_corpus(), n_shards)
}

#[test]
fn snapshot_roundtrip_reproduces_rankings_and_provenance() {
    let engine = build_engine(3);

    let dir = TempDir::new("snapshot-roundtrip");
    let path = dir.path().join("engine.snap");
    engine.save(&path).unwrap();
    let restored = Engine::load(&path).unwrap();

    assert_eq!(restored.len(), engine.len());
    assert_eq!(restored.n_shards(), engine.n_shards());
    for strategy in IndexStrategy::ALL {
        let opts = SearchOptions::top_k(5).with_strategy(strategy);
        for (qi, q) in fixed_queries().iter().enumerate() {
            let a = engine.search(q, &opts).unwrap();
            let b = restored.search(q, &opts).unwrap();
            assert_same_hits(&format!("strategy {strategy:?}, query {qi}"), &a, &b);
            for (ha, hb) in a.hits.iter().zip(&b.hits) {
                assert_eq!(ha.score, hb.score, "scores must be bit-identical");
            }
        }
    }
}

#[test]
fn snapshot_bytes_roundtrip_bit_identically() {
    // save -> load -> save must reproduce the same bytes per shard.
    for n_shards in [1usize, 3] {
        let engine = build_engine(n_shards);
        let mut first = Vec::new();
        engine.save_to(&mut first).unwrap();
        let restored = Engine::load_from(first.as_slice()).unwrap();
        let mut second = Vec::new();
        restored.save_to(&mut second).unwrap();
        assert_eq!(
            first, second,
            "{n_shards}-shard snapshot must round-trip bit-identically"
        );
    }
}

#[test]
fn tombstoned_engine_snapshots_like_its_compacted_self() {
    let mut with_tombstones = build_engine(2);
    with_tombstones.insert_tables(corpus(&CorpusSpec::sized(99, 11)).split_off(8));
    // Do not let auto-compaction reclaim the slots yet: the snapshot
    // itself must do the logical compaction.
    with_tombstones.set_compaction_threshold(1.0);
    assert_eq!(with_tombstones.remove_tables(&[8, 9, 10]), 3);
    assert!(with_tombstones.shards().iter().any(|s| s.n_dead() > 0));

    let mut compacted = build_engine(2);
    compacted.insert_tables(corpus(&CorpusSpec::sized(99, 11)).split_off(8));
    compacted.remove_tables(&[8, 9, 10]);
    compacted.compact();

    let mut a = Vec::new();
    with_tombstones.save_to(&mut a).unwrap();
    let mut b = Vec::new();
    compacted.save_to(&mut b).unwrap();
    assert_eq!(a, b, "snapshot must be tombstone-independent");
}

#[test]
fn failed_save_leaves_the_previous_snapshot_intact() {
    let mut engine = build_engine(2);
    let dir = TempDir::new("snapshot-atomic");
    let path = dir.path().join("engine.snap");
    let tmp = dir.path().join("engine.snap.tmp");
    engine.save(&path).unwrap();
    assert!(
        !tmp.exists(),
        "a successful save must not leave its temp file"
    );
    let saved = build_engine(2);

    // A directory squatting on the temp name: the next save cannot even
    // start, and must not have touched the good snapshot.
    std::fs::create_dir(&tmp).unwrap();
    assert_eq!(engine.remove_tables(&[0, 1]), 2);
    assert!(engine.save(&path).is_err());
    let serving = ServingEngine::new(engine);
    assert!(serving.save(&path).is_err());
    let restored = Engine::load(&path).unwrap();
    assert_eq!(restored.len(), saved.len());
    let opts = SearchOptions::top_k(5);
    for (qi, q) in fixed_queries().iter().enumerate() {
        let a = saved.search(q, &opts).unwrap();
        let b = restored.search(q, &opts).unwrap();
        assert_same_hits(&format!("after failed save, query {qi}"), &a, &b);
    }

    std::fs::remove_dir(&tmp).unwrap();
    serving.save(&path).unwrap();
    assert!(!tmp.exists());
    assert_eq!(Engine::load(&path).unwrap().len(), saved.len() - 2);
}

#[test]
fn snapshot_roundtrip_in_memory() {
    let engine = build_engine(2);
    let mut buf = Vec::new();
    engine.save_to(&mut buf).unwrap();
    let restored = Engine::load_from(buf.as_slice()).unwrap();
    let q = &fixed_queries()[0];
    let opts = SearchOptions::top_k(3);
    assert_eq!(
        engine.search(q, &opts).unwrap().ranked_indices(),
        restored.search(q, &opts).unwrap().ranked_indices()
    );
}

/// Asserts that loading `bytes` fails with `EngineError::Snapshot` (and in
/// particular does not panic or succeed).
fn assert_rejected(bytes: &[u8], what: &str) {
    match Engine::load_from(bytes) {
        Err(EngineError::Snapshot(_)) => {}
        Err(other) => panic!("{what}: expected Snapshot error, got {other:?}"),
        Ok(_) => panic!("{what}: corrupt snapshot loaded successfully"),
    }
}

#[test]
fn corrupt_snapshots_are_rejected() {
    let engine = build_engine(2);
    let mut buf = Vec::new();
    engine.save_to(&mut buf).unwrap();

    // Bad magic.
    let mut bad = buf.clone();
    bad[0] = b'X';
    assert_rejected(&bad, "bad magic");

    // Unsupported version.
    let mut bad = buf.clone();
    bad[8] = 0xEE;
    match Engine::load_from(bad.as_slice()) {
        Err(EngineError::Snapshot(msg)) => assert!(msg.contains("version")),
        other => panic!("expected Snapshot error, got {:?}", other.map(|_| ())),
    }

    // Truncation at several depths (header, payload interior, tail).
    for cut in [4usize, 12, 20, buf.len() / 2, buf.len() - 1] {
        assert_rejected(&buf[..cut], &format!("truncation at {cut}"));
    }

    // Empty input.
    assert_rejected(&[], "empty input");
}

#[test]
fn bit_flip_sweep_over_header_and_section_boundaries() {
    let engine = build_engine(3);
    let mut buf = Vec::new();
    engine.save_to(&mut buf).unwrap();

    // Corruption targets: every byte of the framing header (magic,
    // version, payload length, payload checksum), plus a spread of payload
    // positions. The payload checksum makes every interior flip
    // detectable, so each flip must surface as EngineError::Snapshot —
    // never a panic, never a silently different engine.
    let mut offsets: Vec<usize> = (0..28.min(buf.len())).collect();
    let payload_start = 28;
    let n = buf.len();
    for frac in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let pos = payload_start + ((n - payload_start) as f64 * frac) as usize;
        offsets.extend([pos, pos + 1]);
    }
    offsets.push(n - 8); // inside the last image's blob
    offsets.push(n - 1);

    for &off in &offsets {
        if off >= n {
            continue;
        }
        for bit in [0u8, 3, 7] {
            let mut bad = buf.clone();
            bad[off] ^= 1 << bit;
            match Engine::load_from(bad.as_slice()) {
                Err(EngineError::Snapshot(_)) => {}
                Err(other) => {
                    panic!("flip byte {off} bit {bit}: expected Snapshot error, got {other:?}")
                }
                Ok(_) => panic!("flip byte {off} bit {bit}: corrupt snapshot loaded"),
            }
        }
    }
}

/// `buf` with its frame header recomputed over the (damaged) payload, so
/// the damage reaches the parsers behind the frame checksum.
fn resealed(buf: &[u8]) -> Vec<u8> {
    let magic: [u8; 8] = buf[0..8].try_into().unwrap();
    let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let payload = &buf[frame::HEAD_LEN..];
    let mut out = frame::head(&magic, version, &[payload]).to_vec();
    out.extend_from_slice(payload);
    out
}

#[test]
fn retired_ivf_word_is_read_and_ignored() {
    // The meta block opens with the FCM config (13 u64 fields, two bool
    // bytes, f64 range slack, u64 seed), then the hybrid config (u64 LSH
    // bits, u32 radius, f64 range slack, u64 seed); the word after them
    // held the retired IVF probe width and is always written as 8.
    const RETIRED_WORD: usize = 13 * 8 + 2 + 8 + 8 + (8 + 4 + 8 + 8);
    let mut buf = Vec::new();
    build_engine(3).save_to(&mut buf).unwrap();
    let at = SnapshotLayout::of(&buf).meta.start + RETIRED_WORD;
    assert_eq!(buf[at..at + 8], 8u64.to_le_bytes());
    let mut patched = buf.clone();
    patched[at..at + 8].copy_from_slice(&32u64.to_le_bytes());
    let patched = resealed(&patched);

    let original = Engine::load_from(buf.as_slice()).unwrap();
    let restored = Engine::load_from(patched.as_slice()).unwrap();
    for strategy in IndexStrategy::ALL {
        let opts = SearchOptions::top_k(5).with_strategy(strategy);
        for (qi, q) in fixed_queries().iter().enumerate() {
            assert_same_hits_bitwise(
                &format!("strategy {strategy:?}, query {qi}"),
                &original.search(q, &opts).unwrap(),
                &restored.search(q, &opts).unwrap(),
            );
        }
    }
    // Re-saving writes the old default back: the unpatched bytes.
    let mut resaved = Vec::new();
    restored.save_to(&mut resaved).unwrap();
    assert_eq!(resaved, buf);
}

#[test]
fn hostile_weight_blocks_are_typed_errors() {
    // The weight block follows the FCM config (13 u64 fields, two bool
    // bytes, f64 range slack, u64 seed) and the hybrid config with its
    // retired word (u64, u32, f64, u64, u64): magic, u32 count, then per
    // parameter a u32-prefixed name, u32 rows, u32 cols and the f32s.
    const WEIGHTS: usize = 13 * 8 + 2 + 8 + 8 + (8 + 4 + 8 + 8 + 8);
    let mut buf = Vec::new();
    build_engine(2).save_to(&mut buf).unwrap();
    let lay = SnapshotLayout::of(&buf);
    let block = lay.meta.start + WEIGHTS;
    assert_eq!(&buf[block..block + 8], b"LCDDW001");
    let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    let count = block + 8;
    let name = count + 8;
    let dims = name + u32_at(count + 4) as usize;
    let (rows, cols) = (u32_at(dims), u32_at(dims + 4));
    assert!(
        rows * cols > 1,
        "the first parameter has a shape to disagree with"
    );
    let patched = |at: usize, words: &[u32]| {
        let mut bad = buf.clone();
        for (i, w) in words.iter().enumerate() {
            bad[at + 4 * i..at + 4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        resealed(&bad)
    };
    let expect = |bytes: &[u8], what: &str, needle: &str| match Engine::load_from(bytes) {
        Err(EngineError::Snapshot(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
        Err(other) => panic!("{what}: expected Snapshot error, got {other:?}"),
        Ok(_) => panic!("{what}: hostile weights loaded"),
    };

    expect(
        &patched(block, &[u32::from_le_bytes(*b"NOTW")]),
        "bad magic",
        "bad weight block magic",
    );
    expect(
        &patched(dims, &[u32::MAX, u32::MAX]),
        "u32::MAX x u32::MAX parameter",
        "ended early",
    );
    expect(
        &patched(count, &[u32::MAX]),
        "u32::MAX parameters",
        "implausible parameter count",
    );
    let reshaped = if cols == 1 {
        [1, rows * cols]
    } else {
        [rows * cols, 1]
    };
    expect(
        &patched(dims, &reshaped),
        "same elements, another shape",
        "the config makes it",
    );

    // One byte after the last weight, inside the meta section: the meta
    // length prefix grows with it, so only the weight reader can object.
    let mut long = buf[..lay.meta.end].to_vec();
    long.push(0);
    long.extend_from_slice(&buf[lay.meta.end..]);
    let meta_len = lay.meta.len() as u64 + 1;
    let at = lay.prefixes[0];
    long[at..at + 8].copy_from_slice(&meta_len.to_le_bytes());
    expect(
        &resealed(&long),
        "trailing byte",
        "trailing bytes after the weights",
    );

    // A parameter the config does not define leaves one it does unset.
    let mut renamed = buf.clone();
    renamed[name] ^= 0x20;
    match Engine::load_from(resealed(&renamed).as_slice()) {
        Err(EngineError::WeightMismatch { expected, restored }) => {
            assert_eq!(restored + 1, expected)
        }
        other => panic!(
            "renamed parameter: expected WeightMismatch, got {:?}",
            other.map(|_| ())
        ),
    }
}

#[test]
fn length_prefix_flips_and_truncations_are_rejected() {
    let engine = build_engine(3);
    let mut buf = Vec::new();
    engine.save_to(&mut buf).unwrap();
    let lay = SnapshotLayout::of(&buf);
    assert_eq!(lay.images.len(), engine.n_shards());
    assert_eq!(lay.prefixes.len(), 3 + engine.n_shards());
    for &at in &lay.prefixes {
        // The first byte of the prefix and of what it describes.
        for off in [at, at + 8] {
            let mut bad = buf.clone();
            bad[off] ^= 0x10;
            assert_rejected(&bad, &format!("flip at {off}"));
            assert_rejected(&resealed(&bad), &format!("resealed flip at {off}"));
        }
        for cut in [at, at + 4, at + 8] {
            assert_rejected(&buf[..cut], &format!("cut at {cut}"));
            assert_rejected(&resealed(&buf[..cut]), &format!("resealed cut at {cut}"));
        }
    }
}

#[test]
fn flips_inside_embedded_images_are_rejected() {
    let engine = build_engine(3);
    let mut buf = Vec::new();
    engine.save_to(&mut buf).unwrap();
    for (si, image) in SnapshotLayout::of(&buf).images.into_iter().enumerate() {
        let u64_at = |off: usize| {
            let at = image.start + off;
            u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize
        };
        let (summary_len, blob_off, blob_len) = (u64_at(24), u64_at(40), u64_at(48));
        assert_eq!(&buf[image.start..image.start + 8], b"LCDDSEG2");
        assert_eq!(blob_off + blob_len, image.len());
        assert!(summary_len > 0 && blob_len > 0, "shard {si} holds tables");
        // Header: magic, blob_off, the reserved word; then the interior of
        // the summary and of the blob. Re-sealing the frame hands each one
        // to the check that owns it (header validation, summary hash,
        // per-slot blob hash).
        for off in [0, 40, 56, 64 + summary_len / 2, blob_off + blob_len / 2] {
            let mut bad = buf.clone();
            bad[image.start + off] ^= 0x04;
            assert_rejected(&bad, &format!("shard {si} image byte {off}"));
            assert_rejected(
                &resealed(&bad),
                &format!("shard {si} image byte {off}, resealed"),
            );
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut buf = Vec::new();
    build_engine(2).save_to(&mut buf).unwrap();
    buf.push(0);
    assert_rejected(&buf, "one byte past the frame");
    assert_rejected(&resealed(&buf), "one byte past the last image");
}

#[test]
fn retired_formats_are_named_in_the_rejection() {
    for magic in [b"LCDDSNP1", b"LCDDSNP2"] {
        let mut bytes = magic.to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        match Engine::load_from(bytes.as_slice()) {
            Err(EngineError::Snapshot(msg)) => {
                assert!(msg.contains("retired snapshot format"), "message: {msg}")
            }
            other => panic!("expected Snapshot error, got {:?}", other.map(|_| ())),
        }
    }
}
