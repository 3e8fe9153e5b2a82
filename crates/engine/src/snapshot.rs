//! Full engine snapshots: model weights + cached repository encodings +
//! index structures in one versioned file, so serving starts without
//! re-encoding the corpus.
//!
//! Two formats are understood:
//!
//! * **`LCDDSNP2`** (current, written by [`Engine::save`]): sharded and
//!   integrity-checked. Layout (all little-endian; strings are `u32`
//!   length + UTF-8 bytes, matrices `u32 rows, u32 cols, f32*rows*cols`):
//!
//!   ```text
//!   magic   "LCDDSNP2"                        (8 bytes)
//!   version u32 (currently 2)
//!   payload_len  u64
//!   payload_hash u64 (FNV-1a over the payload bytes)
//!   payload:
//!     fcm config    (13 u64 fields, 2 bool bytes, 1 f64, 1 u64 seed)
//!     hybrid config (u64 bits, u32 radius, f64 slack, u64 seed)
//!     model weights (lcdd_tensor::io::write_params block)
//!     n_shards u64
//!     order    u64 count; per live table: u32 shard, u32 slot
//!     per shard: u64 section_len, then the section:
//!       tables    u64 count; per table: id u64, name, n_cols u64,
//!                 per column: segment matrix + (f64, f64) range
//!       encodings per table: n_cols u64, per column: N2 x K matrix
//!       intervals per table: u64 count; per interval: lo f64, hi f64
//!   ```
//!
//!   Only *live* tables are written (tombstones are compacted away on
//!   serialization), and the payload hash makes corruption detection
//!   total: any truncation or bit flip — header, section boundary, or
//!   payload interior — surfaces as [`EngineError::Snapshot`], never a
//!   panic and never a silently different engine.
//!
//! * **`LCDDSNP1`** (legacy, PR 2's monolithic format): still loaded, into
//!   a single-shard engine — [`Engine::reshard`] redistributes afterwards
//!   with identical results. [`Engine::save_v1_to`] keeps a writer around
//!   for compatibility tests and downgrades.
//!
//! The interval tree and LSH structures are *deterministic* functions of
//! the persisted intervals / embeddings / seed, so they are rebuilt on
//! load and answer queries identically; likewise the global pooled-mean
//! centering reference is recomputed from the persisted encodings in
//! global order, bit-identically (asserted by the round-trip tests).

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use lcdd_chart::ChartStyle;
use lcdd_fcm::input::ProcessedTable;
use lcdd_fcm::persist::{read_model_into, write_model};
use lcdd_fcm::{EngineError, FcmConfig, FcmModel};
use lcdd_index::HybridConfig;
use lcdd_tensor::Matrix;
use lcdd_vision::VisualElementExtractor;

use crate::engine::{Engine, TableMeta};
use crate::shard::{EngineShard, SlotData};
use crate::state::{EngineShared, EngineState};

const MAGIC_V1: &[u8; 8] = b"LCDDSNP1";
const MAGIC_V2: &[u8; 8] = b"LCDDSNP2";
const VERSION_V1: u32 = 1;
const VERSION_V2: u32 = 2;

// ---- primitive writers / readers -----------------------------------------

pub(crate) fn wu32<W: Write>(w: &mut W, v: u32) -> Result<(), EngineError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub(crate) fn wu64<W: Write>(w: &mut W, v: u64) -> Result<(), EngineError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub(crate) fn wusize<W: Write>(w: &mut W, v: usize) -> Result<(), EngineError> {
    wu64(w, v as u64)
}

pub(crate) fn wf64<W: Write>(w: &mut W, v: f64) -> Result<(), EngineError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub(crate) fn wbool<W: Write>(w: &mut W, v: bool) -> Result<(), EngineError> {
    w.write_all(&[u8::from(v)])?;
    Ok(())
}

pub(crate) fn wstr<W: Write>(w: &mut W, s: &str) -> Result<(), EngineError> {
    wu32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

pub(crate) fn wmat<W: Write>(w: &mut W, m: &Matrix) -> Result<(), EngineError> {
    wu32(w, m.rows() as u32)?;
    wu32(w, m.cols() as u32)?;
    let mut buf = Vec::with_capacity(m.len() * 4);
    for &x in m.as_slice() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    w.write_all(&buf)?;
    Ok(())
}

pub(crate) fn ru32<R: Read>(r: &mut R) -> Result<u32, EngineError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn ru64<R: Read>(r: &mut R) -> Result<u64, EngineError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn rusize<R: Read>(r: &mut R) -> Result<usize, EngineError> {
    Ok(ru64(r)? as usize)
}

pub(crate) fn rf64<R: Read>(r: &mut R) -> Result<f64, EngineError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

pub(crate) fn rbool<R: Read>(r: &mut R) -> Result<bool, EngineError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0] != 0)
}

/// Upper bound on any single variable-length field read from a snapshot.
/// Header fields are untrusted: without a cap, corrupt dimensions would
/// either overflow the size arithmetic or trigger multi-GB allocations
/// before `read_exact` ever fails. 256 MiB is orders of magnitude above
/// any real segment/encoding matrix.
pub(crate) const MAX_FIELD_BYTES: usize = 256 << 20;

pub(crate) fn rstr<R: Read>(r: &mut R) -> Result<String, EngineError> {
    let len = ru32(r)? as usize;
    if len > MAX_FIELD_BYTES {
        return Err(EngineError::Snapshot(format!(
            "string length {len} exceeds the {MAX_FIELD_BYTES}-byte cap"
        )));
    }
    let mut b = vec![0u8; len];
    r.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|e| EngineError::Snapshot(format!("non-UTF-8 string: {e}")))
}

pub(crate) fn rmat<R: Read>(r: &mut R) -> Result<Matrix, EngineError> {
    let rows = ru32(r)? as usize;
    let cols = ru32(r)? as usize;
    let bytes = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(4))
        .filter(|&n| n <= MAX_FIELD_BYTES)
        .ok_or_else(|| EngineError::Snapshot(format!("implausible matrix shape {rows}x{cols}")))?;
    let mut buf = vec![0u8; bytes];
    r.read_exact(&mut buf)?;
    let data: Vec<f32> = buf
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(Matrix::from_vec(rows, cols, data))
}

/// FNV-1a over a byte slice — the payload integrity hash. Not
/// cryptographic; it guards against truncation and accidental corruption,
/// which is the snapshot threat model.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_parts(&[bytes])
}

/// [`fnv1a64`] of the concatenation of `parts`, without concatenating —
/// lets a writer checksum a payload it streams out as several runs.
pub(crate) fn fnv1a64_parts(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Maps low-level payload read errors (EOF inside a section) to
/// [`EngineError::Snapshot`]: by the time the payload is parsed its
/// checksum has been verified, so a short read is a malformed snapshot,
/// not an I/O condition the caller can retry.
pub(crate) fn payload_err(e: EngineError) -> EngineError {
    match e {
        EngineError::Io(e) => EngineError::Snapshot(format!("payload ended early: {e}")),
        other => other,
    }
}

// ---- config sections -----------------------------------------------------

pub(crate) fn write_fcm_config<W: Write>(w: &mut W, c: &FcmConfig) -> Result<(), EngineError> {
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
        wusize(w, v)?;
    }
    wbool(w, c.da_enabled)?;
    wbool(w, c.hcman_enabled)?;
    wf64(w, c.range_slack)?;
    wu64(w, c.seed)?;
    Ok(())
}

pub(crate) fn read_fcm_config<R: Read>(r: &mut R) -> Result<FcmConfig, EngineError> {
    let mut f = [0usize; 13];
    for v in f.iter_mut() {
        *v = rusize(r)?;
    }
    let da_enabled = rbool(r)?;
    let hcman_enabled = rbool(r)?;
    let range_slack = rf64(r)?;
    let seed = ru64(r)?;
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

pub(crate) fn write_hybrid_config<W: Write>(
    w: &mut W,
    c: &HybridConfig,
) -> Result<(), EngineError> {
    wusize(w, c.lsh_bits)?;
    wu32(w, c.lsh_radius)?;
    wf64(w, c.range_slack)?;
    wu64(w, c.seed)?;
    wusize(w, c.ivf_nprobe)
}

pub(crate) fn read_hybrid_config<R: Read>(r: &mut R) -> Result<HybridConfig, EngineError> {
    Ok(HybridConfig {
        lsh_bits: rusize(r)?,
        lsh_radius: ru32(r)?,
        range_slack: rf64(r)?,
        seed: ru64(r)?,
        ivf_nprobe: rusize(r)?,
    })
}

// ---- v2: shard sections --------------------------------------------------

/// One table's worth of a shard section (what `SlotData` becomes on disk).
pub(crate) fn write_slot<W: Write>(
    w: &mut W,
    meta: &TableMeta,
    pt: &ProcessedTable,
) -> Result<(), EngineError> {
    wu64(w, meta.id)?;
    wstr(w, &meta.name)?;
    wusize(w, pt.column_segments.len())?;
    for (seg, &(lo, hi)) in pt.column_segments.iter().zip(&pt.column_ranges) {
        wmat(w, seg)?;
        wf64(w, lo)?;
        wf64(w, hi)?;
    }
    Ok(())
}

/// Serializes one shard's live slots (in slot order) as a self-contained
/// section.
pub(crate) fn write_shard_section(
    shard: &EngineShard,
    live: &[usize],
) -> Result<Vec<u8>, EngineError> {
    let mut w = Vec::new();
    wusize(&mut w, live.len())?;
    // Slot accessors, not direct repo reads: a cold (mapped) shard
    // materializes each slot transiently here and stays cold afterwards.
    for &slot in live {
        write_slot(&mut w, &shard.meta[slot], &shard.slot_table(slot))?;
    }
    for &slot in live {
        let cols = shard.slot_encodings(slot);
        wusize(&mut w, cols.len())?;
        for col in cols.iter() {
            wmat(&mut w, col)?;
        }
    }
    for &slot in live {
        let ivs = &shard.slot_intervals[slot];
        wusize(&mut w, ivs.len())?;
        for &(lo, hi) in ivs {
            wf64(&mut w, lo)?;
            wf64(&mut w, hi)?;
        }
    }
    Ok(w)
}

pub(crate) fn read_shard_section(
    bytes: &[u8],
    shard_idx: usize,
) -> Result<Vec<SlotData>, EngineError> {
    let mut r = bytes;
    let n_tables = rusize(&mut r)?;
    let mut metas = Vec::with_capacity(n_tables.min(65_536));
    let mut tables = Vec::with_capacity(n_tables.min(65_536));
    for _ in 0..n_tables {
        let id = ru64(&mut r)?;
        let name = rstr(&mut r)?;
        let n_cols = rusize(&mut r)?;
        let mut column_segments = Vec::with_capacity(n_cols.min(65_536));
        let mut column_ranges = Vec::with_capacity(n_cols.min(65_536));
        for _ in 0..n_cols {
            column_segments.push(rmat(&mut r)?);
            let lo = rf64(&mut r)?;
            let hi = rf64(&mut r)?;
            column_ranges.push((lo, hi));
        }
        metas.push(TableMeta { id, name });
        tables.push(ProcessedTable {
            table_id: id,
            column_segments,
            column_ranges,
        });
    }
    let mut encodings = Vec::with_capacity(n_tables.min(65_536));
    for (ti, table) in tables.iter().enumerate() {
        let n_cols = rusize(&mut r)?;
        if n_cols != table.column_segments.len() {
            return Err(EngineError::Snapshot(format!(
                "shard {shard_idx}, table {ti}: {n_cols} encodings for {} columns",
                table.column_segments.len()
            )));
        }
        let mut cols = Vec::with_capacity(n_cols.min(65_536));
        for _ in 0..n_cols {
            cols.push(rmat(&mut r)?);
        }
        encodings.push(cols);
    }
    let mut slot_intervals = Vec::with_capacity(n_tables.min(65_536));
    for _ in 0..n_tables {
        let n_iv = rusize(&mut r)?;
        if n_iv > MAX_FIELD_BYTES / 16 {
            return Err(EngineError::Snapshot(format!(
                "shard {shard_idx}: implausible interval count {n_iv}"
            )));
        }
        let mut ivs = Vec::with_capacity(n_iv.min(65_536));
        for _ in 0..n_iv {
            let lo = rf64(&mut r)?;
            let hi = rf64(&mut r)?;
            ivs.push((lo, hi));
        }
        slot_intervals.push(ivs);
    }
    if !r.is_empty() {
        return Err(EngineError::Snapshot(format!(
            "shard {shard_idx}: {} trailing bytes in section",
            r.len()
        )));
    }
    Ok(metas
        .into_iter()
        .zip(tables)
        .zip(encodings)
        .zip(slot_intervals)
        .map(|(((meta, table), encodings), intervals)| SlotData {
            meta,
            table,
            encodings,
            intervals,
        })
        .collect())
}

/// Per-shard live slot ids, in slot order — what a shard section (and a
/// store segment) serializes.
pub(crate) fn live_slots(state: &EngineState) -> Vec<Vec<usize>> {
    state
        .shards
        .iter()
        .map(|sh| (0..sh.len()).filter(|&s| !sh.is_dead(s)).collect())
        .collect()
}

/// The global order re-expressed in *compacted* slot coordinates (the ones
/// live slots get when a section is read back). Fails if the order
/// references a dead slot — a state invariant violation.
pub(crate) fn remapped_order(
    state: &EngineState,
    live: &[Vec<usize>],
) -> Result<Vec<(u32, u32)>, EngineError> {
    let remap: Vec<Vec<Option<u32>>> = state
        .shards
        .iter()
        .zip(live)
        .map(|(sh, live)| {
            let mut m = vec![None; sh.len()];
            for (compact, &slot) in live.iter().enumerate() {
                m[slot] = Some(compact as u32);
            }
            m
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

/// Checks a restored order is a bijection onto the restored shard slots
/// (shared by the snapshot loader and [`crate::persist::assemble_engine`]).
pub(crate) fn validate_order(
    order: &[(u32, u32)],
    shards: &[EngineShard],
) -> Result<(), EngineError> {
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

// ---- the snapshot itself -------------------------------------------------

/// Writes full serving state (config + model + shard sections) in the
/// current `LCDDSNP2` format. Shared by [`Engine::save_to`] and
/// [`crate::ServingEngine::save`], which snapshots an immutable
/// [`EngineState`] and persists it without pausing readers. Only live
/// tables are written: a snapshot of an engine with pending tombstones
/// equals the snapshot of its compacted self.
pub(crate) fn write_snapshot_v2<W: Write>(
    shared: &EngineShared,
    state: &EngineState,
    mut w: W,
) -> Result<(), EngineError> {
    let mut p = Vec::new();
    write_fcm_config(&mut p, &shared.model.config)?;
    write_hybrid_config(&mut p, &shared.hybrid_cfg)?;
    write_model(&shared.model, &mut p)?;

    // Per-shard live slots (slot order) and the order re-expressed in the
    // compact slot coordinates those sections restore into.
    let live = live_slots(state);
    let order = remapped_order(state, &live)?;
    wusize(&mut p, state.shards.len())?;
    wusize(&mut p, order.len())?;
    for &(s, compact) in &order {
        wu32(&mut p, s)?;
        wu32(&mut p, compact)?;
    }
    for (shard, live) in state.shards.iter().zip(&live) {
        let section = write_shard_section(shard, live)?;
        wusize(&mut p, section.len())?;
        p.extend_from_slice(&section);
    }

    w.write_all(MAGIC_V2)?;
    wu32(&mut w, VERSION_V2)?;
    wusize(&mut w, p.len())?;
    wu64(&mut w, fnv1a64(&p))?;
    w.write_all(&p)?;
    Ok(())
}

impl Engine {
    /// Writes the full serving state to a writer in the current
    /// (`LCDDSNP2`, sharded + checksummed) format.
    pub fn save_to<W: Write>(&self, w: W) -> Result<(), EngineError> {
        write_snapshot_v2(&self.shared, &self.state, w)
    }

    /// Restores an engine from a reader, accepting both the current
    /// `LCDDSNP2` format and legacy `LCDDSNP1` snapshots (which load into a
    /// single shard; [`Engine::reshard`] redistributes with identical
    /// results). Serving configuration is not part of a snapshot: the
    /// restored engine uses the oracle extractor, default chart style and
    /// the default compaction threshold — call [`Engine::set_extractor`]
    /// to serve raw image queries and
    /// [`Engine::set_compaction_threshold`] to re-apply a custom eviction
    /// policy.
    ///
    /// Corrupt input — bad magic, unknown version, truncation, bit flips —
    /// is reported as [`EngineError::Snapshot`]; this function does not
    /// panic on malformed bytes.
    pub fn load_from<R: Read>(mut r: R) -> Result<Engine, EngineError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|e| EngineError::Snapshot(format!("missing magic: {e}")))?;
        match &magic {
            m if m == MAGIC_V2 => Self::load_v2(r),
            m if m == MAGIC_V1 => Self::load_v1(r),
            _ => Err(EngineError::Snapshot("bad magic".into())),
        }
    }

    fn load_v2<R: Read>(mut r: R) -> Result<Engine, EngineError> {
        let version =
            ru32(&mut r).map_err(|e| EngineError::Snapshot(format!("missing version: {e}")))?;
        if version != VERSION_V2 {
            return Err(EngineError::Snapshot(format!(
                "unsupported snapshot version {version} (supported: {VERSION_V1}, {VERSION_V2})"
            )));
        }
        let payload_len =
            rusize(&mut r).map_err(|e| EngineError::Snapshot(format!("missing length: {e}")))?;
        let expect_hash =
            ru64(&mut r).map_err(|e| EngineError::Snapshot(format!("missing checksum: {e}")))?;
        // Bounded read: a corrupt length cannot trigger an up-front
        // multi-GB allocation — the buffer grows only as bytes arrive.
        let mut payload = Vec::new();
        r.take(payload_len as u64)
            .read_to_end(&mut payload)
            .map_err(EngineError::Io)?;
        if payload.len() != payload_len {
            return Err(EngineError::Snapshot(format!(
                "truncated snapshot: payload {} of {payload_len} bytes",
                payload.len()
            )));
        }
        let got = fnv1a64(&payload);
        if got != expect_hash {
            return Err(EngineError::Snapshot(format!(
                "checksum mismatch: expected {expect_hash:#018x}, got {got:#018x}"
            )));
        }
        Self::parse_v2_payload(&payload).map_err(payload_err)
    }

    fn parse_v2_payload(payload: &[u8]) -> Result<Engine, EngineError> {
        let mut r = payload;
        let config = read_fcm_config(&mut r)?;
        config.validated()?;
        let hybrid_cfg = read_hybrid_config(&mut r)?;
        let mut model = FcmModel::new(config);
        read_model_into(&mut model, &mut r)?;

        let n_shards = rusize(&mut r)?;
        if n_shards == 0 || n_shards > 65_536 {
            return Err(EngineError::Snapshot(format!(
                "implausible shard count {n_shards}"
            )));
        }
        let n_live = rusize(&mut r)?;
        if n_live > MAX_FIELD_BYTES / 8 {
            return Err(EngineError::Snapshot(format!(
                "implausible table count {n_live}"
            )));
        }
        let mut order = Vec::with_capacity(n_live.min(65_536));
        for _ in 0..n_live {
            let s = ru32(&mut r)?;
            let l = ru32(&mut r)?;
            order.push((s, l));
        }
        let embed_dim = model.config.embed_dim;
        let mut shards: Vec<EngineShard> = Vec::with_capacity(n_shards);
        for shard_idx in 0..n_shards {
            let section_len = rusize(&mut r)?;
            if section_len > r.len() {
                return Err(EngineError::Snapshot(format!(
                    "shard {shard_idx}: section length {section_len} exceeds remaining {} bytes",
                    r.len()
                )));
            }
            let (section, rest) = r.split_at(section_len);
            r = rest;
            let slots = read_shard_section(section, shard_idx)?;
            shards.push(EngineShard::from_slots(
                slots,
                embed_dim,
                hybrid_cfg.clone(),
            ));
        }

        // The order must be a bijection onto the shard slots.
        validate_order(&order, &shards)?;

        let state = EngineState::from_shards(shards, order, embed_dim);
        let shared = EngineShared {
            model,
            hybrid_cfg,
            extractor: VisualElementExtractor::oracle(),
            style: ChartStyle::default(),
        };
        Ok(Engine::from_parts(shared, state))
    }

    /// Writes the legacy monolithic `LCDDSNP1` format (the corpus in global
    /// order, whatever the shard layout). Kept for downgrade paths and the
    /// v1-compatibility tests; new snapshots should use [`Engine::save`].
    pub fn save_v1_to<W: Write>(&self, mut w: W) -> Result<(), EngineError> {
        let state = &self.state;
        w.write_all(MAGIC_V1)?;
        wu32(&mut w, VERSION_V1)?;
        write_fcm_config(&mut w, &self.shared.model.config)?;
        write_hybrid_config(&mut w, &self.shared.hybrid_cfg)?;
        write_model(&self.shared.model, &mut w)?;

        wusize(&mut w, state.order.len())?;
        for &(s, l) in &state.order {
            let shard = &state.shards[s as usize];
            write_slot(
                &mut w,
                &shard.meta[l as usize],
                &shard.slot_table(l as usize),
            )?;
        }
        for &(s, l) in &state.order {
            let cols = state.shards[s as usize].slot_encodings(l as usize);
            wusize(&mut w, cols.len())?;
            for col in cols.iter() {
                wmat(&mut w, col)?;
            }
        }
        wmat(&mut w, &state.pooled_mean)?;

        let n_intervals: usize = state
            .order
            .iter()
            .map(|&(s, l)| state.shards[s as usize].slot_intervals[l as usize].len())
            .sum();
        wusize(&mut w, n_intervals)?;
        for (pos, &(s, l)) in state.order.iter().enumerate() {
            for &(lo, hi) in &state.shards[s as usize].slot_intervals[l as usize] {
                wf64(&mut w, lo)?;
                wf64(&mut w, hi)?;
                wusize(&mut w, pos)?;
            }
        }
        Ok(())
    }

    fn load_v1<R: Read>(mut r: R) -> Result<Engine, EngineError> {
        let version = ru32(&mut r)?;
        if version != VERSION_V1 {
            return Err(EngineError::Snapshot(format!(
                "unsupported snapshot version {version} (supported: {VERSION_V1}, {VERSION_V2})"
            )));
        }
        let config = read_fcm_config(&mut r)?;
        config.validated()?;
        let hybrid_cfg = read_hybrid_config(&mut r)?;
        let mut model = FcmModel::new(config);
        read_model_into(&mut model, &mut r)?;

        let n_tables = rusize(&mut r)?;
        let mut meta = Vec::with_capacity(n_tables.min(65_536));
        let mut tables = Vec::with_capacity(n_tables.min(65_536));
        for _ in 0..n_tables {
            let id = ru64(&mut r)?;
            let name = rstr(&mut r)?;
            let n_cols = rusize(&mut r)?;
            let mut column_segments = Vec::with_capacity(n_cols.min(65_536));
            let mut column_ranges = Vec::with_capacity(n_cols.min(65_536));
            for _ in 0..n_cols {
                column_segments.push(rmat(&mut r)?);
                let lo = rf64(&mut r)?;
                let hi = rf64(&mut r)?;
                column_ranges.push((lo, hi));
            }
            meta.push(TableMeta { id, name });
            tables.push(ProcessedTable {
                table_id: id,
                column_segments,
                column_ranges,
            });
        }
        let mut encodings = Vec::with_capacity(n_tables.min(65_536));
        for (ti, table) in tables.iter().enumerate() {
            let n_cols = rusize(&mut r)?;
            if n_cols != table.column_segments.len() {
                return Err(EngineError::Snapshot(format!(
                    "table {ti}: {n_cols} encodings for {} columns",
                    table.column_segments.len()
                )));
            }
            let mut cols = Vec::with_capacity(n_cols.min(65_536));
            for _ in 0..n_cols {
                cols.push(rmat(&mut r)?);
            }
            encodings.push(cols);
        }
        let pooled_mean = rmat(&mut r)?;
        if pooled_mean.cols() != model.config.embed_dim {
            return Err(EngineError::Snapshot(format!(
                "pooled mean width {} != embed_dim {}",
                pooled_mean.cols(),
                model.config.embed_dim
            )));
        }

        // v1 stores intervals flat with global dataset ids; regroup them
        // per table (file order preserves the per-table column order).
        let n_intervals = rusize(&mut r)?;
        let mut slot_intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_tables];
        for _ in 0..n_intervals {
            let lo = rf64(&mut r)?;
            let hi = rf64(&mut r)?;
            let dataset_id = rusize(&mut r)?;
            if dataset_id >= n_tables {
                return Err(EngineError::Snapshot(format!(
                    "interval references table {dataset_id} of {n_tables}"
                )));
            }
            slot_intervals[dataset_id].push((lo, hi));
        }

        let slots: Vec<SlotData> = meta
            .into_iter()
            .zip(tables)
            .zip(encodings)
            .zip(slot_intervals)
            .map(|(((meta, table), encodings), intervals)| SlotData {
                meta,
                table,
                encodings,
                intervals,
            })
            .collect();
        let embed_dim = model.config.embed_dim;
        let order: Vec<(u32, u32)> = (0..slots.len()).map(|i| (0, i as u32)).collect();
        let shard = EngineShard::from_slots(slots, embed_dim, hybrid_cfg.clone());
        // `from_shards` recomputes the pooled mean over the persisted
        // encodings in order, reproducing the persisted matrix bit-for-bit
        // (same accumulation); the read above still validates its shape.
        let state = EngineState::from_shards(vec![shard], order, embed_dim);
        let shared = EngineShared {
            model,
            hybrid_cfg,
            extractor: VisualElementExtractor::oracle(),
            style: ChartStyle::default(),
        };
        Ok(Engine::from_parts(shared, state))
    }

    /// Saves the full serving state to a file (current format; see
    /// [`Engine::save_to`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        let file = std::fs::File::create(path)?;
        self.save_to(BufWriter::new(file))
    }

    /// Restores an engine from a snapshot file (see [`Engine::load_from`]).
    pub fn load(path: impl AsRef<Path>) -> Result<Engine, EngineError> {
        let file = std::fs::File::open(path)?;
        Engine::load_from(BufReader::new(file))
    }
}
