//! One shard of the engine: a slice of the corpus with its own cached
//! encodings and hybrid index.
//!
//! A shard owns *slots*. Each slot holds one ingested table (identity,
//! column value ranges, cached encodings, and the index intervals its
//! columns contribute) — what search reads, not the encoder's input.
//! Slots are append-only between compactions: removal tombstones a slot
//! in the shard's [`HybridIndex`], and compaction (driven by
//! [`crate::Engine::compact`]) reclaims dead slots by
//! rebuilding the shard's vectors and index over the live survivors —
//! after which the shard is bit-identical to one freshly built from those
//! tables.
//!
//! Shards never see queries directly; [`crate::EngineState`] fans a
//! query's candidate generation across shards on the shared work pool and
//! merges the scored results with deterministic tie-breaking. Shards are
//! held behind `Arc`s: the single-threaded [`crate::Engine`] owns its
//! shards uniquely (mutation is in-place), while the concurrent
//! [`crate::ServingEngine`] shares them with published snapshots and
//! copy-on-writes only the shard a mutation touches.
//!
//! Cross-corpus statistics (the global ingest order and the pooled-mean
//! centering reference) live on [`crate::EngineState`], not here — a
//! shard's bytes depend only on its own slots, which is what makes
//! copy-on-write sharing across epochs sound.

use std::borrow::Cow;
use std::sync::Arc;

use lcdd_fcm::{column_embedding, QuantizedVec};
use lcdd_index::{HybridConfig, HybridIndex, Interval};
use lcdd_tensor::Matrix;

use crate::engine::TableMeta;
use crate::mapped::MappedSegment;

/// One table's contribution to the corpus pooled mean, in replayable
/// form: `sum` is the table's element-wise pooled sum (`t_pool` in
/// [`lcdd_fcm::pooled_mean_of`]) and `rows` its total segment-row count.
/// Replaying `sum[j] / rows` per counted table reproduces the global
/// pooled mean *bit-identically* without touching any encoding matrix —
/// which is what lets a cold shard participate in corpus statistics
/// while its blob stays on disk.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PooledStat {
    pub sum: Vec<f32>,
    pub rows: u64,
}

impl PooledStat {
    /// Accumulates one table's pooled statistic with the exact loop
    /// structure of [`lcdd_fcm::pooled_mean_of`]'s per-table body
    /// (columns outer, rows inner, `zip` truncation to `k`), so replay
    /// is bitwise-faithful.
    pub(crate) fn of(encodings: &[Matrix], k: usize) -> Self {
        let mut sum = vec![0.0f32; k];
        let mut rows = 0u64;
        for col in encodings {
            for r in 0..col.rows() {
                for (acc, &v) in sum.iter_mut().zip(col.row(r)) {
                    *acc += v;
                }
            }
            rows += col.rows() as u64;
        }
        PooledStat { sum, rows }
    }

    /// The table's pooled embedding (`sum / rows`), or zeros for a table
    /// with no segment rows. This is the vector the quantized proxy scan
    /// ranks against.
    pub(crate) fn t_mean(&self, k: usize) -> Vec<f32> {
        if self.rows == 0 {
            vec![0.0; k]
        } else {
            self.sum.iter().map(|&v| v / self.rows as f32).collect()
        }
    }
}

/// The cold half of a tiered shard: slots `< n_mapped` live in a mapped
/// checkpoint segment and materialize on demand; slots appended after
/// the cold open are ordinary resident slots.
#[derive(Clone)]
pub(crate) struct ColdTier {
    pub seg: Arc<MappedSegment>,
    pub n_mapped: usize,
}

/// Everything one ingested table contributes to a shard.
#[derive(Clone)]
pub(crate) struct SlotData {
    pub meta: TableMeta,
    /// Per column `(min, max)` value range, read by the y-tick filter
    /// (Sec. IV-C).
    pub ranges: Vec<(f64, f64)>,
    pub encodings: Vec<Matrix>,
    /// `[lo, hi]` index intervals of the table's columns (the
    /// `[min(C), sum(C)]` ranges of Sec. VI-A).
    pub intervals: Vec<(f64, f64)>,
}

impl SlotData {
    /// The one place a raw table + its encoder outputs become a slot —
    /// batch build and live insert must assemble slots identically or the
    /// incremental path diverges from the batch path. The encoder's input
    /// is not kept: search reads only `ranges` and `encodings`.
    pub(crate) fn from_encoded(
        table: &lcdd_table::Table,
        ranges: Vec<(f64, f64)>,
        encodings: Vec<Matrix>,
    ) -> Self {
        SlotData {
            meta: TableMeta {
                id: table.id,
                name: table.name.clone(),
            },
            ranges,
            encodings,
            intervals: table
                .columns
                .iter()
                .filter_map(|c| c.index_interval())
                .collect(),
        }
    }
}

/// One shard: a slot-indexed slice of the corpus plus its index structures.
#[derive(Clone)]
pub struct EngineShard {
    pub(crate) meta: Vec<TableMeta>,
    /// Column ranges and `N2 x K` column encodings of the resident slots,
    /// slot `n_mapped + i` at `i`; a cold slot answers from its segment.
    pub(crate) ranges: Vec<Vec<(f64, f64)>>,
    pub(crate) encodings: Vec<Vec<Matrix>>,
    pub(crate) slot_intervals: Vec<Vec<(f64, f64)>>,
    /// Local index over slot ids; tombstones live here.
    pub(crate) index: HybridIndex,
    /// Per-slot replayable pooled-mean contribution (see [`PooledStat`]).
    pub(crate) pooled: Vec<PooledStat>,
    /// Per-slot int8-quantized pooled embedding — the candidate-scan
    /// proxy representation (~K bytes per table instead of the full f32
    /// encodings).
    pub(crate) quant: Vec<QuantizedVec>,
    pub(crate) embed_dim: usize,
    /// `Some` while any slot is still served from a mapped segment.
    pub(crate) cold: Option<ColdTier>,
}

impl EngineShard {
    /// Assembles a shard from slot data (build, reshard and snapshot-load
    /// all come through here).
    pub(crate) fn from_slots(slots: Vec<SlotData>, embed_dim: usize, cfg: HybridConfig) -> Self {
        let mut meta = Vec::with_capacity(slots.len());
        let mut ranges = Vec::with_capacity(slots.len());
        let mut encodings = Vec::with_capacity(slots.len());
        let mut slot_intervals = Vec::with_capacity(slots.len());
        let mut pooled = Vec::with_capacity(slots.len());
        let mut quant = Vec::with_capacity(slots.len());
        for s in slots {
            meta.push(s.meta);
            let p = PooledStat::of(&s.encodings, embed_dim);
            quant.push(QuantizedVec::quantize(&p.t_mean(embed_dim)));
            pooled.push(p);
            ranges.push(s.ranges);
            encodings.push(s.encodings);
            slot_intervals.push(s.intervals);
        }
        let index = Self::build_index(
            &slot_intervals,
            &column_embeddings(&encodings),
            embed_dim,
            cfg,
        );
        EngineShard {
            meta,
            ranges,
            encodings,
            slot_intervals,
            index,
            pooled,
            quant,
            embed_dim,
            cold: None,
        }
    }

    /// Assembles a shard served from a mapped checkpoint segment: every
    /// derived structure (identity, index intervals, pooled embeddings
    /// for LSH, pooled stats, quantized proxies) comes from the segment
    /// *summary*; the f32 blob stays cold, and scoring reads a slot's
    /// ranges and encodings through [`Self::slot_ranges`] /
    /// [`Self::slot_encodings`].
    pub(crate) fn from_mapped(seg: Arc<MappedSegment>, cfg: HybridConfig) -> Self {
        let embed_dim = seg.embed_dim();
        let n = seg.n_slots();
        let mut meta = Vec::with_capacity(n);
        let mut slot_intervals = Vec::with_capacity(n);
        let mut pooled = Vec::with_capacity(n);
        let mut quant = Vec::with_capacity(n);
        let mut embeddings = Vec::with_capacity(n);
        for slot in 0..n {
            let s = seg.summary(slot);
            meta.push(s.meta.clone());
            slot_intervals.push(s.intervals.clone());
            quant.push(QuantizedVec::quantize(&s.pooled.t_mean(embed_dim)));
            pooled.push(s.pooled.clone());
            embeddings.push(s.col_embeddings.clone());
        }
        let index = Self::build_index(&slot_intervals, &embeddings, embed_dim, cfg);
        EngineShard {
            meta,
            ranges: Vec::new(),
            encodings: Vec::new(),
            slot_intervals,
            index,
            pooled,
            quant,
            embed_dim,
            cold: Some(ColdTier { seg, n_mapped: n }),
        }
    }

    /// Number of leading slots served from the cold tier.
    fn n_mapped(&self) -> usize {
        self.cold.as_ref().map_or(0, |c| c.n_mapped)
    }

    /// The mapped segment serving `slot`, if the slot is cold.
    fn cold_seg(&self, slot: usize) -> Option<&MappedSegment> {
        self.cold
            .as_ref()
            .filter(|c| slot < c.n_mapped)
            .map(|c| &*c.seg)
    }

    /// Decodes every cold slot into the resident vectors and drops the
    /// mapping — the escape hatch for operations that restructure the
    /// shard (compaction, reshard extraction).
    pub(crate) fn materialize_all(&mut self) {
        if let Some(cold) = self.cold.take() {
            let n = cold.n_mapped;
            let ranges = (0..n).map(|slot| cold.seg.summary(slot).ranges.clone());
            self.ranges.splice(0..0, ranges);
            let encodings = (0..n).map(|slot| cold.seg.materialize_encodings(slot));
            self.encodings.splice(0..0, encodings);
        }
    }

    /// The column value ranges of one slot; a cold slot's come from its
    /// segment summary, so they cost no copy.
    pub(crate) fn slot_ranges(&self, slot: usize) -> &[(f64, f64)] {
        match self.cold_seg(slot) {
            Some(seg) => &seg.summary(slot).ranges,
            None => &self.ranges[slot - self.n_mapped()],
        }
    }

    /// The cached encoding matrices of one slot, materializing them out
    /// of the mapped segment when cold.
    pub(crate) fn slot_encodings(&self, slot: usize) -> Cow<'_, [Matrix]> {
        match self.cold_seg(slot) {
            Some(seg) => Cow::Owned(seg.materialize_encodings(slot)),
            None => Cow::Borrowed(&self.encodings[slot - self.n_mapped()]),
        }
    }

    /// A full copy of one slot's data, decoding from the mapped segment
    /// when cold.
    pub(crate) fn clone_slot(&self, slot: usize) -> SlotData {
        SlotData {
            meta: self.meta[slot].clone(),
            ranges: self.slot_ranges(slot).to_vec(),
            encodings: self.slot_encodings(slot).into_owned(),
            intervals: self.slot_intervals[slot].clone(),
        }
    }

    /// Moves every slot (dead ones included — callers filter via the
    /// global order) out of the shard. The cheap path of a reshard when
    /// the shard is uniquely owned.
    pub(crate) fn into_slots(mut self) -> Vec<SlotData> {
        self.materialize_all();
        self.meta
            .into_iter()
            .zip(self.ranges)
            .zip(self.encodings)
            .zip(self.slot_intervals)
            .map(|(((meta, ranges), encodings), intervals)| SlotData {
                meta,
                ranges,
                encodings,
                intervals,
            })
            .collect()
    }

    /// Clones every slot out of a shared shard (the copy-on-write path of
    /// a reshard while published snapshots still reference the shard),
    /// decoding cold slots from the mapped segment as it goes.
    pub(crate) fn clone_slots(&self) -> Vec<SlotData> {
        (0..self.meta.len()).map(|l| self.clone_slot(l)).collect()
    }

    /// The index over `slot_intervals` and the per-slot pooled column
    /// embeddings the LSH half hashes.
    fn build_index(
        slot_intervals: &[Vec<(f64, f64)>],
        embeddings: &[Vec<Vec<f32>>],
        embed_dim: usize,
        cfg: HybridConfig,
    ) -> HybridIndex {
        let flat: Vec<Interval> = slot_intervals
            .iter()
            .enumerate()
            .flat_map(|(slot, ivs)| {
                ivs.iter().map(move |&(lo, hi)| Interval {
                    lo,
                    hi,
                    dataset_id: slot,
                })
            })
            .collect();
        HybridIndex::from_parts(flat, embeddings, embed_dim, slot_intervals.len(), cfg)
    }

    /// Number of slots, including tombstoned ones.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Number of live tables in this shard.
    pub fn live_len(&self) -> usize {
        self.index.live_len()
    }

    /// True when the shard holds no live tables.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Number of tombstoned slots awaiting compaction.
    pub fn n_dead(&self) -> usize {
        self.index.n_dead()
    }

    /// Fraction of slots that are tombstones (0 for an empty shard).
    pub fn dead_fraction(&self) -> f64 {
        if self.meta.is_empty() {
            0.0
        } else {
            self.n_dead() as f64 / self.meta.len() as f64
        }
    }

    /// True when `slot` is tombstoned.
    pub fn is_dead(&self, slot: usize) -> bool {
        self.index.is_dead(slot)
    }

    /// Identity of the table in `slot`.
    pub fn table_meta(&self, slot: usize) -> &TableMeta {
        &self.meta[slot]
    }

    /// The shard's local hybrid index.
    pub fn index(&self) -> &HybridIndex {
        &self.index
    }

    /// `(resident tables, mapped tables)` in this shard, dead slots
    /// included (they occupy their tier until compaction).
    pub(crate) fn tier_tables(&self) -> (u64, u64) {
        let mapped = self.n_mapped() as u64;
        (self.meta.len() as u64 - mapped, mapped)
    }

    /// `(resident bytes, mapped bytes)` of table payload in this shard:
    /// resident counts f32 matrix storage plus the always-resident
    /// quantized proxies; mapped counts the cold blob backing the shard.
    pub(crate) fn tier_bytes(&self) -> (u64, u64) {
        let mut resident: u64 = self.quant.iter().map(|q| q.byte_size() as u64).sum();
        for m in self.encodings.iter().flatten() {
            resident += m.len() as u64 * 4;
        }
        let mapped = self.cold.as_ref().map_or(0, |c| c.seg.blob_bytes());
        (resident, mapped)
    }

    /// Pooled column embeddings of one slot (what its LSH entries hash).
    /// Cold slots answer from the segment summary — the writer derived
    /// those vectors with [`column_embedding`] too, so tombstoning a cold
    /// slot evicts the exact LSH entries its insert created, without
    /// decoding the blob.
    fn slot_embeddings(&self, slot: usize) -> Vec<Vec<f32>> {
        match self.cold_seg(slot) {
            Some(seg) => seg.summary(slot).col_embeddings.clone(),
            None => self.encodings[slot - self.n_mapped()]
                .iter()
                .map(column_embedding)
                .collect(),
        }
    }

    /// Appends one table as a new live slot, updating the index
    /// incrementally. Returns the slot id.
    pub(crate) fn push_slot(&mut self, slot: SlotData) -> usize {
        let id = self.meta.len();
        self.meta.push(slot.meta);
        let p = PooledStat::of(&slot.encodings, self.embed_dim);
        self.quant
            .push(QuantizedVec::quantize(&p.t_mean(self.embed_dim)));
        self.pooled.push(p);
        self.ranges.push(slot.ranges);
        self.encodings.push(slot.encodings);
        self.slot_intervals.push(slot.intervals);
        let embeddings = self.slot_embeddings(id);
        let assigned = self
            .index
            .insert_dataset(&self.slot_intervals[id], &embeddings);
        debug_assert_eq!(assigned, id, "shard slots and index ids must agree");
        id
    }

    /// Tombstones a slot (evicting it from the LSH buckets eagerly).
    /// Returns false when the slot was already dead.
    pub(crate) fn tombstone(&mut self, slot: usize) -> bool {
        let embeddings = self.slot_embeddings(slot);
        self.index.remove_dataset(slot, &embeddings)
    }

    /// Reclaims tombstoned slots: drops dead entries from every vector and
    /// rebuilds the index over the survivors (restoring interval-tree
    /// balance). Returns the slot remap (`old slot -> new slot`, `None` for
    /// dead slots), or `None` when the shard had no tombstones.
    pub(crate) fn compact(&mut self, embed_dim: usize) -> Option<Vec<Option<usize>>> {
        if self.n_dead() == 0 {
            return None;
        }
        // Compaction restructures every slot-indexed vector; serve the
        // survivors resident from here on. (Cold shards reach this only
        // through explicit removal + threshold crossing.)
        self.materialize_all();
        let n = self.meta.len();
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(n);
        let mut next = 0usize;
        for slot in 0..n {
            if self.index.is_dead(slot) {
                remap.push(None);
            } else {
                remap.push(Some(next));
                next += 1;
            }
        }
        let live = |slot: usize| remap[slot].is_some();
        retain_indexed(&mut self.meta, live);
        retain_indexed(&mut self.ranges, live);
        retain_indexed(&mut self.encodings, live);
        retain_indexed(&mut self.slot_intervals, live);
        // Pooled stats and quantized proxies are per-slot pure values —
        // surviving slots keep theirs verbatim.
        retain_indexed(&mut self.pooled, live);
        retain_indexed(&mut self.quant, live);
        self.index = Self::build_index(
            &self.slot_intervals,
            &column_embeddings(&self.encodings),
            embed_dim,
            self.index.config().clone(),
        );
        Some(remap)
    }
}

/// Pooled column embeddings of every slot, `[slot][column] -> K floats` —
/// the shape the LSH index ingests.
fn column_embeddings(encodings: &[Vec<Matrix>]) -> Vec<Vec<Vec<f32>>> {
    encodings
        .iter()
        .map(|cols| cols.iter().map(column_embedding).collect())
        .collect()
}

/// `Vec::retain` keyed by index instead of value.
fn retain_indexed<T>(v: &mut Vec<T>, keep: impl Fn(usize) -> bool) {
    let mut i = 0usize;
    v.retain(|_| {
        let k = keep(i);
        i += 1;
        k
    });
}
