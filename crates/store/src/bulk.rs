//! Bulk store fabrication: write an openable checkpoint store directly
//! from a stream of pre-encoded tables, bypassing live ingest entirely.
//!
//! Live ingest holds the whole corpus resident and re-derives global
//! statistics per batch — fine for thousands of tables, hopeless for a
//! million. This path instead streams slots straight into `LCDDSEG2`
//! segment images (one table in memory at a time per shard), writes an
//! empty WAL and a manifest, and hands the result to
//! [`crate::DurableEngine::open`] — typically with
//! [`crate::StoreOptions::cold_open`] set, so the fabricated corpus
//! serves queries without ever being resident in full.
//!
//! The generator contract mirrors recovery, not ingest: table `i` of
//! `n_tables` lands in shard `i % n_shards` at slot `i / n_shards`, and
//! the manifest's global order records exactly that, so the opened
//! engine is indistinguishable from one that ingested the same tables
//! round-robin.

use std::path::Path;

use lcdd_engine::persist::{meta_bytes, segment_image_bytes};
use lcdd_engine::{EncodedSlot, Engine, EngineError};

use crate::codec::write_framed;
use crate::durable::{
    segment_file_name, META_FILE, META_MAGIC, SEGMENT_MAGIC, SEGMENT_VERSION, STORE_FILE_VERSION,
};
use crate::fault::FaultPoint;
use crate::manifest::{latest_manifest, write_manifest, Manifest};
use crate::wal::{wal_file_name, WalWriter, WAL_HEADER_LEN};

/// Creates a store at `dir` holding `n_tables` generated tables spread
/// round-robin over `n_shards` shards. `template` supplies the serving
/// configuration (model weights + index config) — its own corpus, if
/// any, is ignored; the generator is called once per table index in
/// `0..n_tables`, shard-major (all of shard 0's tables, then shard 1's),
/// and each produced slot is encoded into the segment image immediately,
/// so peak memory is one segment image plus one slot — never the corpus.
///
/// Fails if `dir` already holds a store. The result recovers through the
/// ordinary [`crate::DurableEngine::open`] path, eager or cold.
pub fn create_bulk(
    dir: impl AsRef<Path>,
    template: &Engine,
    n_shards: usize,
    n_tables: u64,
    mut make: impl FnMut(u64) -> EncodedSlot,
) -> Result<(), EngineError> {
    if n_shards == 0 {
        return Err(EngineError::Store(
            "create_bulk: shard count must be at least 1".into(),
        ));
    }
    let dir = dir.as_ref().to_path_buf();
    std::fs::create_dir_all(&dir)?;
    if latest_manifest(&dir)?.is_some() {
        return Err(EngineError::Store(format!(
            "{} already holds a store; refusing to fabricate over it",
            dir.display()
        )));
    }
    let embed_dim = template.model().config.embed_dim;
    let epoch = 0u64;
    write_framed(
        &dir.join(META_FILE),
        META_MAGIC,
        STORE_FILE_VERSION,
        &meta_bytes(template),
        &None,
        FaultPoint::SegmentWrite,
    )?;
    let mut segments = Vec::with_capacity(n_shards);
    for shard in 0..n_shards {
        let image = segment_image_bytes(
            (shard as u64..n_tables).step_by(n_shards).map(&mut make),
            embed_dim,
        )?;
        let name = segment_file_name(epoch, shard);
        write_framed(
            &dir.join(&name),
            SEGMENT_MAGIC,
            SEGMENT_VERSION,
            &image,
            &None,
            FaultPoint::SegmentWrite,
        )?;
        segments.push(name);
    }
    let wal_file = wal_file_name(epoch);
    WalWriter::create(&dir.join(&wal_file), true)?;
    let order = (0..n_tables)
        .map(|i| ((i % n_shards as u64) as u32, (i / n_shards as u64) as u32))
        .collect();
    let manifest = Manifest {
        epoch,
        meta_file: META_FILE.to_string(),
        segments,
        wal_file,
        wal_offset: WAL_HEADER_LEN,
        order,
    };
    write_manifest(&dir, &manifest, &None)?;
    Ok(())
}
