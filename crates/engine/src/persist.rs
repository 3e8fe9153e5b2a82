//! Everything the engine persists, in one vocabulary: the FCM dataset
//! encoder's segment-level column encodings are computed once, written as
//! memory-mappable `LCDDSEG2` images ([`crate::mapped`]), and the interval
//! tree + LSH index of Sec. VI is rebuilt deterministically from them on
//! load. All bytes are little-endian; files are single checksummed frames
//! ([`crate::frame`]).
//!
//! The pieces, shared by engine snapshots and the `lcdd_store` crate:
//!
//! * **The meta section** ([`meta_bytes`]) — FCM config + hybrid-index
//!   config + the `LCDDW001` block of model weights, which must end the
//!   section. Immutable for the lifetime of a store (the serving model
//!   never mutates), so it is written once.
//! * **Shard segments** ([`segment_bytes_into`]) — one shard's live slots
//!   as an `LCDDSEG2` image, the unit of incremental checkpointing: a
//!   checkpoint rewrites only the shards dirtied since the previous one.
//!   Segment files double as the cold tier: a store opened cold serves
//!   them via [`assemble_engine_mapped`] without decoding.
//! * **The global order** ([`live_order`]) — ingest order in the compacted
//!   slot coordinates segments restore into.
//! * **Encoded table batches** ([`EncodedTableBatch`]) — the encoder's
//!   output for an ingest delta, opaque to callers, persisted as one more
//!   `LCDDSEG2` image of just the delta's slots. A WAL records these
//!   instead of raw tables, so crash replay *never re-runs the encoder*
//!   (`lcdd_fcm::table_encode_count` stays flat during recovery, asserted
//!   by the store's recovery suite).
//!
//! Every slot's matrices are encoded and decoded by [`crate::mapped`]
//! alone, and every reader hands it the model's `embed_dim`, so an image
//! of another width is a typed error wherever it turns up.
//!
//! [`assemble_engine`] is the inverse: meta + global order + one segment
//! per shard + the epoch to resume from. An engine **snapshot**
//! ([`Engine::save`] / [`Engine::load`]) is nothing more than those same
//! pieces behind one frame:
//!
//! ```text
//! frame "LCDDSNAP" v3, payload:
//!   meta_len u64 | meta section
//!   n_shards u64 | n_order u64 | per live table: u32 shard, u32 slot
//!   per shard: image_len u64 | LCDDSEG2 image
//! ```
//!
//! so the bytes a snapshot embeds are byte-for-byte the payloads of the
//! `meta.seg` and `seg-*` files a store writes for the same state. Only
//! *live* tables are written — a snapshot of an engine with pending
//! tombstones equals the snapshot of its compacted self — and a restored
//! engine answers queries bit-identically to the one that was saved.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lcdd_chart::ChartStyle;
use lcdd_fcm::{encode_tables, EngineError, FcmConfig, FcmModel};
use lcdd_index::HybridConfig;
use lcdd_table::Table;
use lcdd_tensor::{Matrix, ParamStore};
use lcdd_vision::VisualElementExtractor;

use crate::engine::{Engine, TableMeta, DEFAULT_COMPACTION_THRESHOLD};
use crate::frame::{self, Cursor, Put};
pub use crate::mapped::SegmentImage;
use crate::mapped::{parse_segment_slots, write_segment_image, MappedSegment};
use crate::shard::{EngineShard, SlotData};
use crate::state::{EngineShared, EngineState};

// ---- matrices and model weights -------------------------------------------

fn write_mat(w: &mut Vec<u8>, m: &Matrix) {
    w.put_u32(m.rows() as u32);
    w.put_u32(m.cols() as u32);
    w.put_f32s(m.as_slice());
}

fn read_mat(cur: &mut Cursor) -> Result<Matrix, EngineError> {
    let rows = cur.u32()? as usize;
    let cols = cur.u32()? as usize;
    let data = cur.f32s(rows.saturating_mul(cols))?;
    Ok(Matrix::from_vec(rows, cols, data))
}

/// The weight block that ends the meta section: every FCM parameter by
/// name (optimizer moments are not persisted).
///
/// ```text
/// magic "LCDDW001" | count u32 | per parameter:
///   name (u32 len + UTF-8) | rows u32 | cols u32 | rows*cols f32
/// ```
const WEIGHTS_MAGIC: &[u8; 8] = b"LCDDW001";

fn write_weights(w: &mut Vec<u8>, store: &ParamStore) {
    w.extend_from_slice(WEIGHTS_MAGIC);
    w.put_u32(store.len() as u32);
    for (name, value) in store.iter() {
        w.put_str(name);
        write_mat(w, value);
    }
}

/// Reads a weight block into `model`, built from the block's own meta
/// section: every parameter the config defines must be restored with the
/// shape the config gives it (a partial restore is
/// [`EngineError::WeightMismatch`]), and the block must end the section.
fn read_weights(cur: &mut Cursor, model: &mut FcmModel) -> Result<(), EngineError> {
    if cur.take(8)? != WEIGHTS_MAGIC {
        return Err(EngineError::Store("bad weight block magic".into()));
    }
    let count = cur.u32()? as usize;
    // A parameter takes at least 12 bytes: name length, rows, cols.
    if count > cur.remaining() / 12 {
        return Err(EngineError::Store(format!(
            "implausible parameter count {count}"
        )));
    }
    let mut restored = 0;
    for _ in 0..count {
        let name = cur.str()?;
        let value = read_mat(cur)?;
        let shape = value.shape();
        match model.store.assign(&name, value) {
            Ok(found) => restored += usize::from(found),
            Err(expected) => {
                return Err(EngineError::Store(format!(
                    "weight {name} is {}x{}, the config makes it {}x{}",
                    shape.0, shape.1, expected.0, expected.1
                )))
            }
        }
    }
    if cur.remaining() != 0 {
        return Err(EngineError::Store(format!(
            "{} trailing bytes after the weights",
            cur.remaining()
        )));
    }
    if restored != model.store.len() {
        return Err(EngineError::WeightMismatch {
            expected: model.store.len(),
            restored,
        });
    }
    Ok(())
}

// ---- config sections -----------------------------------------------------

fn write_fcm_config(w: &mut Vec<u8>, c: &FcmConfig) {
    for v in [
        c.embed_dim,
        c.n_heads,
        c.n_layers,
        c.ff_mult,
        c.chart_width,
        c.line_image_height,
        c.p1,
        c.trace_dim,
        c.column_len,
        c.p2,
        c.beta,
        c.moe_hidden,
        c.matcher_hidden,
    ] {
        w.put_count(v);
    }
    w.put_u8(u8::from(c.da_enabled));
    w.put_u8(u8::from(c.hcman_enabled));
    w.put_f64(c.range_slack);
    w.put_u64(c.seed);
}

fn read_fcm_config(r: &mut Cursor) -> Result<FcmConfig, EngineError> {
    let mut f = [0usize; 13];
    for v in f.iter_mut() {
        *v = r.count()?;
    }
    let da_enabled = r.u8()? != 0;
    let hcman_enabled = r.u8()? != 0;
    let range_slack = r.f64()?;
    let seed = r.u64()?;
    Ok(FcmConfig {
        embed_dim: f[0],
        n_heads: f[1],
        n_layers: f[2],
        ff_mult: f[3],
        chart_width: f[4],
        line_image_height: f[5],
        p1: f[6],
        trace_dim: f[7],
        column_len: f[8],
        p2: f[9],
        beta: f[10],
        moe_hidden: f[11],
        matcher_hidden: f[12],
        da_enabled,
        hcman_enabled,
        range_slack,
        seed,
    })
}

/// The last word of the hybrid-config section, which held the probe width
/// of the retired IVF tier. Existing `meta.seg` files and snapshots carry
/// it, and they must open and re-write byte-identically without a format
/// version bump, so it is still written (always the old default) and read
/// back and ignored: a store may have recorded a non-default value.
const RETIRED_IVF_NPROBE: u64 = 8;

fn write_hybrid_config(w: &mut Vec<u8>, c: &HybridConfig) {
    w.put_count(c.lsh_bits);
    w.put_u32(c.lsh_radius);
    w.put_f64(c.range_slack);
    w.put_u64(c.seed);
    w.put_u64(RETIRED_IVF_NPROBE);
}

fn read_hybrid_config(r: &mut Cursor) -> Result<HybridConfig, EngineError> {
    let cfg = HybridConfig {
        lsh_bits: r.count()?,
        lsh_radius: r.u32()?,
        range_slack: r.f64()?,
        seed: r.u64()?,
    };
    r.u64()?;
    Ok(cfg)
}

// ---- encoded table batches ------------------------------------------------

/// An ingest delta after the FCM dataset encoder ran: everything the
/// engine needs to splice the tables in without touching the encoder
/// again. Produced by [`encode_batch`], persisted via
/// [`EncodedTableBatch::to_bytes`], consumed by
/// [`Engine::insert_encoded`].
pub struct EncodedTableBatch {
    pub(crate) slots: Vec<SlotData>,
    /// Width of the encodings, the image header's `embed_dim`.
    embed_dim: usize,
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

    /// Serializes the batch as one `LCDDSEG2` image of its slots — the
    /// bytes a checkpoint would write for a shard holding just them.
    pub fn to_bytes(&self) -> Result<Vec<u8>, EngineError> {
        write_segment_image(self.slots.iter(), self.embed_dim)
    }

    /// Parses a batch previously written by [`EncodedTableBatch::to_bytes`]
    /// for a model whose encodings are `embed_dim` wide. Malformed bytes,
    /// or an image of another width, surface as [`EngineError::Wal`],
    /// never a panic: batch bytes only ever come out of WAL records whose
    /// checksum already passed, so a bad interior is log corruption.
    pub fn from_bytes(bytes: &[u8], embed_dim: usize) -> Result<Self, EngineError> {
        match parse_segment_slots(bytes, embed_dim) {
            Ok(slots) => Ok(EncodedTableBatch { slots, embed_dim }),
            Err(EngineError::Store(m)) => Err(EngineError::Wal(format!("insert batch: {m}"))),
            Err(other) => Err(other),
        }
    }
}

/// Runs the FCM dataset encoder over `tables` (in parallel, exactly like
/// live ingest) and packages the result for WAL logging + splice-in.
pub fn encode_batch(model: &FcmModel, tables: &[Table]) -> EncodedTableBatch {
    let (processed, encodings) = encode_tables(model, tables);
    EncodedTableBatch {
        embed_dim: model.config.embed_dim,
        slots: tables
            .iter()
            .zip(processed)
            .zip(encodings)
            .map(|((table, pt), enc)| SlotData::from_encoded(table, pt.column_ranges, enc))
            .collect(),
    }
}

/// Serializes the engine's immutable serving configuration: FCM config +
/// hybrid-index config + model weights. Written once per store.
pub fn meta_bytes(engine: &Engine) -> Vec<u8> {
    meta_section(&engine.shared)
}

fn meta_section(shared: &EngineShared) -> Vec<u8> {
    let mut w = Vec::new();
    write_fcm_config(&mut w, &shared.model.config);
    write_hybrid_config(&mut w, &shared.hybrid_cfg);
    write_weights(&mut w, &shared.model.store);
    w
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
    /// Per column `(min, max)` value range, for the y-tick filter.
    pub ranges: Vec<(f64, f64)>,
    pub encodings: Vec<Matrix>,
    /// `[lo, hi]` index intervals of the table's columns.
    pub intervals: Vec<(f64, f64)>,
}

impl EncodedSlot {
    fn into_slot(self) -> SlotData {
        SlotData {
            meta: TableMeta {
                id: self.id,
                name: self.name,
            },
            ranges: self.ranges,
            encodings: self.encodings,
            intervals: self.intervals,
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
/// Fails if the order references a dead slot — a state invariant violation.
pub fn live_order(state: &EngineState) -> Result<Vec<(u32, u32)>, EngineError> {
    // Per shard: slot -> its position among the shard's live slots.
    let remap: Vec<Vec<Option<u32>>> = state
        .shards
        .iter()
        .map(|sh| {
            let mut compact = 0u32..;
            (0..sh.len())
                .map(|slot| {
                    if sh.is_dead(slot) {
                        None
                    } else {
                        compact.next()
                    }
                })
                .collect()
        })
        .collect();
    state
        .order
        .iter()
        .map(|&(s, l)| {
            remap[s as usize][l as usize]
                .map(|compact| (s, compact))
                .ok_or_else(|| EngineError::Snapshot("order references a dead slot".into()))
        })
        .collect()
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
    segments: &[impl AsRef<[u8]>],
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
            parse_segment_slots(bytes.as_ref(), embed_dim)
                .map_err(frame::context(format_args!("segment {i}")))
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
            MappedSegment::open_framed(path, magic, version, embed_dim)
                .map(|seg| EngineShard::from_mapped(Arc::new(seg), hybrid_cfg.clone()))
        })
        .collect::<Result<_, _>>()?;
    finish_assembly(model, hybrid_cfg, shards, order, epoch)
}

fn parse_meta(meta: &[u8]) -> Result<(FcmModel, HybridConfig), EngineError> {
    let ctx = frame::context("meta section");
    let mut cur = Cursor::new(meta);
    let config = read_fcm_config(&mut cur).map_err(&ctx)?;
    config.validated()?;
    let hybrid_cfg = read_hybrid_config(&mut cur).map_err(&ctx)?;
    let mut model = FcmModel::new(config);
    read_weights(&mut cur, &mut model).map_err(&ctx)?;
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
    Ok(Engine {
        shared: Arc::new(shared),
        state,
        compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
    })
}

/// Checks a restored order is a bijection onto the restored shard slots.
fn validate_order(order: &[(u32, u32)], shards: &[EngineShard]) -> Result<(), EngineError> {
    let total: usize = shards.iter().map(|sh| sh.len()).sum();
    if order.len() != total {
        return Err(EngineError::Snapshot(format!(
            "order lists {} tables but shards hold {total}",
            order.len()
        )));
    }
    let mut seen: Vec<Vec<bool>> = shards.iter().map(|sh| vec![false; sh.len()]).collect();
    for &(s, l) in order {
        let slot = seen
            .get_mut(s as usize)
            .and_then(|v| v.get_mut(l as usize))
            .ok_or_else(|| {
                EngineError::Snapshot(format!("order references missing slot ({s}, {l})"))
            })?;
        if std::mem::replace(slot, true) {
            return Err(EngineError::Snapshot(format!(
                "order references slot ({s}, {l}) twice"
            )));
        }
    }
    Ok(())
}

/// Overrides the engine's epoch counter. Record replay only: after
/// applying a WAL record (at recovery, or on a replica), the store pins
/// the epoch to the one the record carries, so replaying and original
/// engines agree epoch-for-epoch even where apply semantics differ
/// benignly (e.g. a `compact` that was a no-op on the already-compacted
/// replaying state).
pub fn force_epoch(engine: &mut Engine, epoch: u64) {
    engine.state.set_epoch(epoch);
}

// ---- snapshots -----------------------------------------------------------

const SNAPSHOT_MAGIC: &[u8; 8] = b"LCDDSNAP";
/// Versions 1 and 2 were the retired standalone snapshot formats.
const SNAPSHOT_VERSION: u32 = 3;

/// Writes `state` as one snapshot frame (layout in the module docs).
/// Shared by [`Engine::save_to`], [`crate::ServingEngine::save`] and
/// [`crate::ServingEngine::save_state_to`], which persist an immutable
/// published [`EngineState`] without pausing readers.
pub(crate) fn write_snapshot<W: Write>(
    shared: &EngineShared,
    state: &EngineState,
    mut w: W,
) -> Result<(), EngineError> {
    let meta = meta_section(shared);
    let order = live_order(state)?;
    let mut p = Vec::new();
    p.put_count(meta.len());
    p.extend_from_slice(&meta);
    p.put_count(state.shards.len());
    p.put_count(order.len());
    for &(s, compact) in &order {
        p.put_u32(s);
        p.put_u32(compact);
    }
    let mut image = SegmentImage::new();
    for shard in 0..state.shards.len() {
        segment_bytes_into(state, shard, &mut image)?;
        let parts = image.parts();
        p.put_count(parts.iter().map(|part| part.len()).sum());
        for part in parts {
            p.extend_from_slice(part);
        }
    }
    w.write_all(&frame::head(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &[&p]))?;
    w.write_all(&p)?;
    w.flush()?;
    Ok(())
}

/// Replaces the snapshot at `path` atomically: the bytes go to
/// `<path>.tmp`, are fsynced, and only then renamed over `path`, so a
/// crash (or a failed write) mid-save leaves the previous snapshot intact.
pub(crate) fn save_snapshot(
    shared: &EngineShared,
    state: &EngineState,
    path: &Path,
) -> Result<(), EngineError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp)
        .map_err(EngineError::Io)
        .and_then(|file| {
            write_snapshot(shared, state, &file)?;
            Ok(file.sync_all()?)
        });
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    // Best-effort directory sync, so the rename itself is durable.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Ok(d) = std::fs::File::open(dir.unwrap_or(Path::new("."))) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Everything wrong with snapshot bytes is an [`EngineError::Snapshot`],
/// whichever shared parser noticed it.
fn snapshot_err(e: EngineError) -> EngineError {
    match e {
        EngineError::Store(m) => EngineError::Snapshot(m),
        other => other,
    }
}

fn load_snapshot(bytes: &[u8]) -> Result<Engine, EngineError> {
    if bytes.starts_with(b"LCDDSNP") {
        return Err(EngineError::Snapshot(
            "retired snapshot format (LCDDSNP1/LCDDSNP2): this release reads only \
             LCDDSNAP containers of LCDDSEG2 segment images; rebuild the snapshot \
             from the corpus"
                .into(),
        ));
    }
    let payload = frame::verify(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    let mut cur = Cursor::new(payload);
    let meta_len = cur.count()?;
    let meta = cur.take(meta_len)?;
    let n_shards = cur.count()?;
    let n_order = cur.count()?;
    let mut order = Vec::with_capacity(n_order.min(65_536));
    for _ in 0..n_order {
        order.push((cur.u32()?, cur.u32()?));
    }
    let mut segments = Vec::with_capacity(n_shards.min(65_536));
    for _ in 0..n_shards {
        let image_len = cur.count()?;
        segments.push(cur.take(image_len)?);
    }
    if cur.remaining() != 0 {
        return Err(EngineError::Store(format!(
            "{} trailing payload bytes",
            cur.remaining()
        )));
    }
    assemble_engine(meta, order, &segments, 0)
}

impl Engine {
    /// Writes the full serving state to a writer as one snapshot frame
    /// (see the [module docs](crate::persist)) and flushes it.
    pub fn save_to<W: Write>(&self, w: W) -> Result<(), EngineError> {
        write_snapshot(&self.shared, &self.state, w)
    }

    /// Restores an engine from a reader. Serving configuration is not part
    /// of a snapshot: the restored engine uses the oracle extractor,
    /// default chart style and the default compaction threshold — call
    /// [`Engine::with_extractor`] to serve raw image queries and
    /// [`Engine::set_compaction_threshold`] to re-apply a custom eviction
    /// policy.
    ///
    /// Corrupt input — bad magic, unknown version, truncation, trailing
    /// bytes, bit flips — and the two retired snapshot formats
    /// are reported as [`EngineError::Snapshot`]; this function does not
    /// panic on malformed bytes.
    pub fn load_from<R: Read>(mut r: R) -> Result<Engine, EngineError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        load_snapshot(&bytes).map_err(snapshot_err)
    }

    /// Saves the full serving state to a file, atomically: a failed or
    /// interrupted save leaves the previous snapshot at `path` untouched.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        save_snapshot(&self.shared, &self.state, path.as_ref())
    }

    /// Restores an engine from a snapshot file (see [`Engine::load_from`]).
    pub fn load(path: impl AsRef<Path>) -> Result<Engine, EngineError> {
        Engine::load_from(std::fs::File::open(path)?)
    }
}
