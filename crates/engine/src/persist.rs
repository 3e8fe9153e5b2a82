//! Durability building blocks for the `lcdd_store` crate: stable byte
//! codecs for the pieces a write-ahead log and a segmented checkpoint
//! store persist, plus the assembly path that turns them back into an
//! [`Engine`].
//!
//! Three kinds of bytes leave this module, all little-endian; batches and
//! the meta section reuse the `LCDDSNP2` snapshot codec, while segments
//! use the memory-mappable `LCDDSEG2` image of [`crate::mapped`]:
//!
//! * **Encoded table batches** ([`EncodedTableBatch`]) — the output of the
//!   FCM dataset encoder for an ingest delta, opaque to callers. A WAL
//!   records these instead of raw tables, so crash replay *never re-runs
//!   the encoder* (`lcdd_fcm::table_encode_count` stays flat during
//!   recovery, asserted by the store's recovery suite).
//! * **The meta section** ([`meta_bytes`]) — FCM config + hybrid-index
//!   config + model weights. Immutable for the lifetime of a store (the
//!   serving model never mutates), so it is written once.
//! * **Shard segments** ([`segment_bytes_into`]) — one shard's live slots, the
//!   unit of incremental checkpointing: a checkpoint rewrites only the
//!   shards dirtied since the previous one and reuses the rest by file
//!   reference. Segment files double as the cold tier: a store opened
//!   cold serves them via [`assemble_engine_mapped`] without decoding.
//!
//! [`assemble_engine`] is the inverse: meta + global order + one segment
//! per shard + the epoch to resume from. The interval tree and LSH are
//! rebuilt deterministically from the restored bytes exactly as the
//! snapshot loader does, so a recovered engine answers queries
//! bit-identically to the engine that wrote the segments.

use std::sync::Arc;

use lcdd_chart::ChartStyle;
use lcdd_fcm::persist::{read_model_into, write_model};
use lcdd_fcm::{encode_tables, EngineError, FcmModel};
use lcdd_index::HybridConfig;
use lcdd_table::Table;
use lcdd_tensor::Matrix;
use lcdd_vision::VisualElementExtractor;

use crate::engine::Engine;
pub use crate::mapped::SegmentImage;
use crate::mapped::{parse_segment_slots, write_segment_image, MappedSegment};
use crate::shard::{EngineShard, SlotData};
use crate::snapshot::{
    read_fcm_config, read_hybrid_config, rf64, rusize, validate_order, wf64, wmat,
    write_fcm_config, write_hybrid_config, write_slot, wusize, MAX_FIELD_BYTES,
};
use crate::state::{EngineShared, EngineState};

/// FNV-1a over a byte slice — the integrity hash shared by snapshots, WAL
/// records, segments and manifests. Not cryptographic; the threat model is
/// truncation and accidental corruption.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    crate::snapshot::fnv1a64(bytes)
}

/// [`fnv1a64`] of the concatenation of `parts`, without concatenating.
pub fn fnv1a64_parts(parts: &[&[u8]]) -> u64 {
    crate::snapshot::fnv1a64_parts(parts)
}

/// An ingest delta after the FCM dataset encoder ran: everything the
/// engine needs to splice the tables in without touching the encoder
/// again. Produced by [`encode_batch`], persisted via
/// [`EncodedTableBatch::to_bytes`], consumed by
/// [`Engine::insert_encoded`] / [`crate::ServingEngine::insert_encoded`].
pub struct EncodedTableBatch {
    pub(crate) slots: Vec<SlotData>,
}

/// Maps low-level read errors inside a batch record to
/// [`EngineError::Wal`]: batch bytes only ever come out of WAL records
/// whose frame checksum already passed, so a malformed interior is log
/// corruption, not an I/O condition.
fn batch_err(e: EngineError) -> EngineError {
    match e {
        EngineError::Io(e) => EngineError::Wal(format!("insert batch ended early: {e}")),
        EngineError::Snapshot(m) => EngineError::Wal(format!("insert batch: {m}")),
        other => other,
    }
}

impl EncodedTableBatch {
    /// Number of tables in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the batch holds no tables.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The ids of the batched tables, in batch order.
    pub fn table_ids(&self) -> Vec<u64> {
        self.slots.iter().map(|s| s.meta.id).collect()
    }

    /// Serializes the batch (tables, cached encodings, index intervals).
    pub fn to_bytes(&self) -> Result<Vec<u8>, EngineError> {
        let mut w = Vec::new();
        wusize(&mut w, self.slots.len())?;
        for s in &self.slots {
            write_slot(&mut w, &s.meta, &s.table)?;
            wusize(&mut w, s.encodings.len())?;
            for m in &s.encodings {
                wmat(&mut w, m)?;
            }
            wusize(&mut w, s.intervals.len())?;
            for &(lo, hi) in &s.intervals {
                wf64(&mut w, lo)?;
                wf64(&mut w, hi)?;
            }
        }
        Ok(w)
    }

    /// Parses a batch previously written by [`EncodedTableBatch::to_bytes`].
    /// Malformed bytes surface as [`EngineError::Wal`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EngineError> {
        Self::parse(bytes).map_err(batch_err)
    }

    fn parse(bytes: &[u8]) -> Result<Self, EngineError> {
        use crate::snapshot::{rmat, rstr, ru64};
        let mut r = bytes;
        let n_tables = rusize(&mut r)?;
        if n_tables > MAX_FIELD_BYTES / 8 {
            return Err(EngineError::Snapshot(format!(
                "implausible batch table count {n_tables}"
            )));
        }
        let mut slots = Vec::with_capacity(n_tables.min(65_536));
        for _ in 0..n_tables {
            let id = ru64(&mut r)?;
            let name = rstr(&mut r)?;
            let n_cols = rusize(&mut r)?;
            if n_cols > MAX_FIELD_BYTES / 8 {
                return Err(EngineError::Snapshot(format!(
                    "implausible column count {n_cols}"
                )));
            }
            let mut column_segments = Vec::with_capacity(n_cols.min(65_536));
            let mut column_ranges = Vec::with_capacity(n_cols.min(65_536));
            for _ in 0..n_cols {
                column_segments.push(rmat(&mut r)?);
                let lo = rf64(&mut r)?;
                let hi = rf64(&mut r)?;
                column_ranges.push((lo, hi));
            }
            let n_enc = rusize(&mut r)?;
            if n_enc != n_cols {
                return Err(EngineError::Snapshot(format!(
                    "{n_enc} encodings for {n_cols} columns"
                )));
            }
            let mut encodings = Vec::with_capacity(n_enc.min(65_536));
            for _ in 0..n_enc {
                encodings.push(rmat(&mut r)?);
            }
            let n_iv = rusize(&mut r)?;
            if n_iv > MAX_FIELD_BYTES / 16 {
                return Err(EngineError::Snapshot(format!(
                    "implausible interval count {n_iv}"
                )));
            }
            let mut intervals = Vec::with_capacity(n_iv.min(65_536));
            for _ in 0..n_iv {
                let lo = rf64(&mut r)?;
                let hi = rf64(&mut r)?;
                intervals.push((lo, hi));
            }
            slots.push(SlotData {
                meta: crate::TableMeta { id, name },
                table: lcdd_fcm::input::ProcessedTable {
                    table_id: id,
                    column_segments,
                    column_ranges,
                },
                encodings,
                intervals,
            });
        }
        if !r.is_empty() {
            return Err(EngineError::Snapshot(format!(
                "{} trailing bytes in batch",
                r.len()
            )));
        }
        Ok(EncodedTableBatch { slots })
    }
}

/// Runs the FCM dataset encoder over `tables` (in parallel, exactly like
/// live ingest) and packages the result for WAL logging + splice-in.
pub fn encode_batch(model: &FcmModel, tables: &[Table]) -> EncodedTableBatch {
    let (processed, encodings) = encode_tables(model, tables);
    EncodedTableBatch {
        slots: tables
            .iter()
            .zip(processed)
            .zip(encodings)
            .map(|((table, pt), enc)| SlotData::from_encoded(table, pt, enc))
            .collect(),
    }
}

/// Serializes the engine's immutable serving configuration: FCM config +
/// hybrid-index config + model weights. Written once per store.
pub fn meta_bytes(engine: &Engine) -> Result<Vec<u8>, EngineError> {
    let mut w = Vec::new();
    write_fcm_config(&mut w, &engine.shared.model.config)?;
    write_hybrid_config(&mut w, &engine.shared.hybrid_cfg)?;
    write_model(&engine.shared.model, &mut w)?;
    Ok(w)
}

/// Serializes shard `shard` of `state` as a self-contained segment: its
/// live slots in slot order as a memory-mappable `LCDDSEG2` image (see
/// [`crate::mapped`]) — fixed-layout summary up front, aligned f32 blob
/// behind, so the store can later serve the file without decoding it.
/// Slots are cloned out one at a time (cold slots materialize from their
/// mapping transiently), so peak memory is the image plus one slot. The
/// image lands in `image`'s reusable buffers and is read back as
/// [`SegmentImage::parts`] — a long-lived checkpointer writes every
/// segment of every checkpoint through one allocation. A pure function
/// of the `Arc`-pinned, copy-on-write `state`: it needs no lock against
/// readers or the writer.
pub fn segment_bytes_into(
    state: &EngineState,
    shard: usize,
    image: &mut SegmentImage,
) -> Result<(), EngineError> {
    let sh = state
        .shards
        .get(shard)
        .ok_or_else(|| EngineError::Store(format!("segment_bytes_into: no shard {shard}")))?;
    let live = (0..sh.len()).filter(|&s| !sh.is_dead(s));
    image.fill(live.map(|s| sh.clone_slot(s)), sh.embed_dim)
}

/// One pre-encoded table, public shape: what external corpus generators
/// (e.g. the testkit's synthetic scale corpus) hand the engine / store
/// instead of raw tables, bypassing the FCM encoder entirely.
pub struct EncodedSlot {
    pub id: u64,
    pub name: String,
    pub table: lcdd_fcm::input::ProcessedTable,
    pub encodings: Vec<Matrix>,
    /// `[lo, hi]` index intervals of the table's columns.
    pub intervals: Vec<(f64, f64)>,
}

impl EncodedSlot {
    fn into_slot(self) -> SlotData {
        SlotData {
            meta: crate::TableMeta {
                id: self.id,
                name: self.name,
            },
            table: self.table,
            encodings: self.encodings,
            intervals: self.intervals,
        }
    }
}

impl EncodedTableBatch {
    /// Packages externally encoded slots as an insertable batch — the
    /// synthetic-corpus twin of [`encode_batch`].
    pub fn from_encoded_parts(slots: Vec<EncodedSlot>) -> Self {
        EncodedTableBatch {
            slots: slots.into_iter().map(EncodedSlot::into_slot).collect(),
        }
    }
}

/// Builds an `LCDDSEG2` segment image directly from externally encoded
/// slots, streaming: the iterator is consumed one slot at a time, so a
/// generator can emit a million-table corpus without ever materializing
/// a shard's worth of slots. Pair with the store's bulk-creation path to
/// fabricate an openable corpus at scales live ingest can't hold.
pub fn segment_image_bytes(
    slots: impl Iterator<Item = EncodedSlot>,
    embed_dim: usize,
) -> Result<Vec<u8>, EngineError> {
    write_segment_image(slots.map(EncodedSlot::into_slot), embed_dim)
}

/// The global ingest order of `state`, re-expressed in the compacted slot
/// coordinates segments restore into — what a manifest persists.
pub fn live_order(state: &EngineState) -> Result<Vec<(u32, u32)>, EngineError> {
    let live = crate::snapshot::live_slots(state);
    crate::snapshot::remapped_order(state, &live)
}

/// Rebuilds an [`Engine`] from store pieces: the meta section, one segment
/// per shard, the persisted global order, and the epoch to resume
/// counting from. The inverse of [`meta_bytes`] + [`segment_bytes_into`] +
/// [`live_order`]; corrupt input surfaces as typed [`EngineError`]s,
/// never a panic.
///
/// Like [`Engine::load`], the assembled engine uses the oracle extractor,
/// default chart style and default compaction threshold — serving
/// configuration is not corpus state.
pub fn assemble_engine(
    meta: &[u8],
    order: Vec<(u32, u32)>,
    segments: &[Vec<u8>],
    epoch: u64,
) -> Result<Engine, EngineError> {
    let (model, hybrid_cfg) = parse_meta(meta)?;
    if segments.is_empty() {
        return Err(EngineError::Store(
            "assemble_engine: no segments (an engine always has at least one shard)".into(),
        ));
    }
    let embed_dim = model.config.embed_dim;
    let shards: Vec<EngineShard> = segments
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            parse_segment_slots(bytes)
                .map_err(|e| segment_err(i, e))
                .map(|slots| EngineShard::from_slots(slots, embed_dim, hybrid_cfg.clone()))
        })
        .collect::<Result<_, _>>()?;
    finish_assembly(model, hybrid_cfg, shards, order, epoch)
}

/// [`assemble_engine`]'s cold-tier twin: instead of decoding segment
/// payloads, each segment file is memory-mapped (`MappedSegment`) and
/// its shard assembled from the summary alone — identity, index and
/// corpus statistics come up immediately, while every f32 blob stays on
/// disk until a query's exact-scoring stage (or a mutation that
/// restructures the shard) demands specific slots. `magic` / `version`
/// name the store's segment framing, verified — checksum included — at
/// open.
pub fn assemble_engine_mapped(
    meta: &[u8],
    order: Vec<(u32, u32)>,
    segment_paths: &[std::path::PathBuf],
    epoch: u64,
    magic: &[u8; 8],
    version: u32,
) -> Result<Engine, EngineError> {
    let (model, hybrid_cfg) = parse_meta(meta)?;
    if segment_paths.is_empty() {
        return Err(EngineError::Store(
            "assemble_engine_mapped: no segments (an engine always has at least one shard)".into(),
        ));
    }
    let embed_dim = model.config.embed_dim;
    let shards: Vec<EngineShard> = segment_paths
        .iter()
        .map(|path| {
            let seg = MappedSegment::open_framed(path, magic, version)?;
            if seg.embed_dim() != embed_dim {
                return Err(EngineError::Store(format!(
                    "{}: segment embed_dim {} does not match the model's {embed_dim}",
                    path.display(),
                    seg.embed_dim()
                )));
            }
            Ok(EngineShard::from_mapped(Arc::new(seg), hybrid_cfg.clone()))
        })
        .collect::<Result<_, _>>()?;
    finish_assembly(model, hybrid_cfg, shards, order, epoch)
}

fn parse_meta(meta: &[u8]) -> Result<(FcmModel, HybridConfig), EngineError> {
    let mut r = meta;
    let config = read_fcm_config(&mut r).map_err(meta_err)?;
    config.validated()?;
    let hybrid_cfg = read_hybrid_config(&mut r).map_err(meta_err)?;
    let mut model = FcmModel::new(config);
    read_model_into(&mut model, &mut r).map_err(meta_err)?;
    Ok((model, hybrid_cfg))
}

fn finish_assembly(
    model: FcmModel,
    hybrid_cfg: HybridConfig,
    shards: Vec<EngineShard>,
    order: Vec<(u32, u32)>,
    epoch: u64,
) -> Result<Engine, EngineError> {
    validate_order(&order, &shards)?;
    let mut state = EngineState::from_shards(shards, order, model.config.embed_dim);
    state.set_epoch(epoch);
    let shared = EngineShared {
        model,
        hybrid_cfg,
        extractor: VisualElementExtractor::oracle(),
        style: ChartStyle::default(),
    };
    Ok(Engine::from_parts(shared, state))
}

fn segment_err(shard: usize, e: EngineError) -> EngineError {
    match e {
        EngineError::Store(m) => EngineError::Store(format!("segment {shard}: {m}")),
        other => other,
    }
}

/// Overrides the engine's epoch counter. Recovery-only: after replaying a
/// WAL record, the store pins the epoch to the one the crashed process
/// recorded, so recovered and uncrashed engines agree epoch-for-epoch even
/// where replay semantics differ benignly (e.g. a `compact` that was a
/// no-op on the already-compacted recovered state).
pub fn force_epoch(engine: &mut Engine, epoch: u64) {
    engine.state.set_epoch(epoch);
}

fn meta_err(e: EngineError) -> EngineError {
    match e {
        EngineError::Io(e) => EngineError::Store(format!("meta section ended early: {e}")),
        other => other,
    }
}
