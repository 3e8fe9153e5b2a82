//! The immutable, epoch-versioned corpus state behind every search.
//!
//! [`EngineState`] is a value: shard `Arc`s + the global table order +
//! per-slot global positions + the pooled-mean centering reference, tagged
//! with an `epoch` that increments on every corpus mutation. Search takes
//! `&self` and consults nothing outside the state and the (immutable)
//! [`EngineShared`] configuration, so any thread holding an
//! `Arc<EngineState>` can answer queries forever without locks and without
//! ever observing a half-applied mutation.
//!
//! Mutation is copy-on-write at shard granularity: `insert` / `remove` /
//! `compact` / `reshard` take `&mut self` and go through [`Arc::make_mut`]
//! on the shards they touch. When the state is uniquely owned (the
//! single-threaded [`crate::Engine`]) that is an in-place update with no
//! copying — exactly the pre-concurrency behaviour; when shards are shared
//! with published snapshots (the [`crate::ServingEngine`] writer) only the
//! touched shard is cloned, and readers of older epochs keep their bytes.

use std::sync::Arc;
use std::time::Instant;

use lcdd_chart::{render, ChartStyle};
use lcdd_fcm::{encode_tables, process_query, EngineError, FcmModel, QuantizedVec, QueryScorer};
use lcdd_index::{CandidateSet, HybridConfig, IndexStrategy};
use lcdd_table::Table;
use lcdd_tensor::{pool, Matrix};
use lcdd_vision::{ExtractedChart, VisualElementExtractor};

use crate::shard::{EngineShard, SlotData};
use crate::types::{
    Query, SearchHit, SearchOptions, SearchResponse, StageCounts, StageTimings, TierStats,
};

/// The query-independent serving configuration: trained model, index
/// settings, extractor and chart style. Immutable once serving starts —
/// [`crate::ServingEngine`] shares one copy across all reader threads.
pub struct EngineShared {
    pub(crate) model: FcmModel,
    pub(crate) hybrid_cfg: HybridConfig,
    pub(crate) extractor: VisualElementExtractor,
    pub(crate) style: ChartStyle,
}

/// A query resolved to extracted visual elements: borrowed for
/// pre-extracted queries, owned when the engine ran extraction itself.
pub(crate) enum ResolvedQuery<'a> {
    Borrowed(&'a ExtractedChart),
    Owned(ExtractedChart),
}

impl ResolvedQuery<'_> {
    pub(crate) fn get(&self) -> &ExtractedChart {
        match self {
            ResolvedQuery::Borrowed(e) => e,
            ResolvedQuery::Owned(e) => e,
        }
    }
}

impl EngineShared {
    /// Turns a typed [`Query`] into extracted visual elements, reporting
    /// the extraction wall-clock. Never panics: unsupported forms surface
    /// as [`EngineError::UnsupportedQuery`] / [`EngineError::EmptyQuery`].
    pub(crate) fn resolve_query<'a>(
        &self,
        query: &'a Query,
    ) -> Result<(ResolvedQuery<'a>, f64), EngineError> {
        match query {
            Query::Extracted(e) => Ok((ResolvedQuery::Borrowed(e), 0.0)),
            Query::Chart(image) => {
                if self.extractor.is_oracle() {
                    return Err(EngineError::UnsupportedQuery(
                        "raw chart images need a trained extractor (the oracle \
                         extractor requires renderer masks); use with_extractor \
                         or query with pre-extracted elements"
                            .into(),
                    ));
                }
                let t = Instant::now();
                let owned = self.extractor.extract_image(image);
                Ok((ResolvedQuery::Owned(owned), t.elapsed().as_secs_f64()))
            }
            Query::Series(data) => {
                if data.series.is_empty() {
                    return Err(EngineError::EmptyQuery);
                }
                let t = Instant::now();
                // Rendering our own chart gives the oracle extractor its
                // ground-truth masks, so series sketches never need a
                // trained extractor.
                let chart = render(data, &self.style);
                let owned = VisualElementExtractor::oracle().extract(&chart);
                Ok((ResolvedQuery::Owned(owned), t.elapsed().as_secs_f64()))
            }
        }
    }
}

/// One immutable, epoch-tagged snapshot of the corpus: everything a search
/// needs besides the [`EngineShared`] configuration.
#[derive(Clone)]
pub struct EngineState {
    pub(crate) shards: Vec<Arc<EngineShard>>,
    /// Live tables in global ingest order, as `(shard, slot)` pairs. This
    /// is the engine's public index space: `SearchHit::index` addresses
    /// positions in this order.
    pub(crate) order: Vec<(u32, u32)>,
    /// `positions[shard][slot]` -> global position (stale for dead slots).
    /// Derived from `order` on every mutation; kept per-shard so the
    /// scoring hot loop avoids a hash lookup.
    pub(crate) positions: Vec<Vec<usize>>,
    /// Global centering reference: mean pooled table embedding over the
    /// live corpus in global ingest order.
    pub(crate) pooled_mean: Matrix,
    /// `pooled_mean`, int8-quantized — the query side of the proxy scan
    /// subtracts `q . center` so candidates compare by their *centered*
    /// pooled alignment, mirroring the matcher's centering.
    pub(crate) quant_center: QuantizedVec,
    /// `inv_norms[shard][slot]` = `1 / ||t_mean - pooled_mean||` (0 for
    /// empty tables), the per-candidate normalizer of the proxy score.
    /// Derived data, rebuilt with `pooled_mean` on every mutation.
    pub(crate) inv_norms: Vec<Vec<f32>>,
    /// Version counter, bumped by every corpus mutation. Snapshots
    /// published by [`crate::ServingEngine`] carry it into every
    /// [`SearchResponse`].
    pub(crate) epoch: u64,
}

impl EngineState {
    pub(crate) fn from_shards(shards: Vec<EngineShard>, order: Vec<(u32, u32)>, k: usize) -> Self {
        let mut state = EngineState {
            shards: shards.into_iter().map(Arc::new).collect(),
            order,
            positions: Vec::new(),
            pooled_mean: Matrix::zeros(1, k),
            quant_center: QuantizedVec::quantize(&[]),
            inv_norms: Vec::new(),
            epoch: 0,
        };
        state.rebuild_global(k);
        state
    }

    /// Number of live ingested tables.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no live tables are ingested.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The mutation epoch this state snapshot represents.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Overrides the epoch counter — record replay only (see
    /// [`crate::persist::force_epoch`]): a recovered or replicated state
    /// resumes epoch numbering where the logging process left off.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The shards backing this state.
    pub fn shards(&self) -> &[Arc<EngineShard>] {
        &self.shards
    }

    /// The global repository-mean pooled table embedding (the matcher's
    /// centering reference).
    pub fn pooled_mean(&self) -> &Matrix {
        &self.pooled_mean
    }

    /// Identity of the `i`-th live table in global ingest order.
    pub fn table_meta(&self, i: usize) -> &crate::TableMeta {
        let (s, l) = self.order[i];
        self.shards[s as usize].table_meta(l as usize)
    }

    // ---- mutation --------------------------------------------------------
    //
    // All mutators bump `epoch` exactly when the corpus actually changed.
    // They return plain data; publication (for the concurrent engine) is
    // the caller's job.

    /// Ingests fresh tables by encoding them first; see
    /// [`crate::Engine::insert_tables`].
    pub(crate) fn insert_tables(&mut self, model: &FcmModel, tables: Vec<Table>) -> Vec<usize> {
        if tables.is_empty() {
            return Vec::new();
        }
        let (processed, encodings) = encode_tables(model, &tables);
        let slots = tables
            .iter()
            .zip(processed)
            .zip(encodings)
            .map(|((table, pt), enc)| SlotData::from_encoded(table, pt.column_ranges, enc))
            .collect();
        self.insert_slots(slots, model.config.embed_dim)
    }

    /// Ingests already-encoded slots — the shared tail of fresh ingest and
    /// WAL replay ([`crate::persist::EncodedTableBatch`]). Both paths must
    /// assign shards identically or replay diverges from the live engine.
    pub(crate) fn insert_slots(&mut self, slots: Vec<SlotData>, embed_dim: usize) -> Vec<usize> {
        if slots.is_empty() {
            return Vec::new();
        }
        let mut assigned = Vec::with_capacity(slots.len());
        for slot in slots {
            // Least-loaded shard, ties to the lowest id — deterministic,
            // and only the receiving shard is copy-on-write cloned.
            let shard = (0..self.shards.len())
                .min_by_key(|&s| (self.shards[s].live_len(), s))
                .expect("engine always has at least one shard");
            let local = Arc::make_mut(&mut self.shards[shard]).push_slot(slot);
            assigned.push(self.order.len());
            self.order.push((shard as u32, local as u32));
        }
        self.epoch += 1;
        self.rebuild_global(embed_dim);
        assigned
    }

    /// Evicts live tables by id; see [`crate::Engine::remove_tables`].
    pub(crate) fn remove_tables(
        &mut self,
        ids: &[u64],
        compaction_threshold: f64,
        embed_dim: usize,
    ) -> usize {
        // Set lookup keeps a batch eviction O(live tables), not
        // O(live tables x ids).
        let ids: std::collections::HashSet<u64> = ids.iter().copied().collect();
        let mut removed = 0usize;
        let shards = &mut self.shards;
        self.order.retain(|&(s, l)| {
            let (s, l) = (s as usize, l as usize);
            if ids.contains(&shards[s].meta[l].id) && Arc::make_mut(&mut shards[s]).tombstone(l) {
                removed += 1;
                false
            } else {
                true
            }
        });
        if removed == 0 {
            return 0;
        }
        self.compact_where(embed_dim, |sh| {
            sh.dead_fraction() >= compaction_threshold && sh.n_dead() > 0
        });
        self.epoch += 1;
        self.rebuild_global(embed_dim);
        removed
    }

    /// Compacts every shard holding tombstones; see
    /// [`crate::Engine::compact`]. Returns whether anything changed.
    pub(crate) fn compact(&mut self, embed_dim: usize) -> bool {
        let changed = self.compact_where(embed_dim, |sh| sh.n_dead() > 0);
        if changed {
            self.epoch += 1;
            self.rebuild_global(embed_dim);
        }
        changed
    }

    fn compact_where(&mut self, embed_dim: usize, pred: impl Fn(&EngineShard) -> bool) -> bool {
        let mut changed = false;
        for (si, shard) in self.shards.iter_mut().enumerate() {
            if !pred(shard) {
                continue;
            }
            let Some(remap) = Arc::make_mut(shard).compact(embed_dim) else {
                continue;
            };
            changed = true;
            for loc in self.order.iter_mut().filter(|(s, _)| *s as usize == si) {
                loc.1 = remap[loc.1 as usize].expect("live table compacted away") as u32;
            }
        }
        changed
    }

    /// Redistributes the live corpus round-robin across `n_shards`; see
    /// [`crate::Engine::reshard`].
    pub(crate) fn reshard(
        &mut self,
        n_shards: usize,
        embed_dim: usize,
        hybrid_cfg: &HybridConfig,
    ) -> Result<(), EngineError> {
        if n_shards == 0 {
            return Err(EngineError::InvalidConfig(
                "reshard: shard count must be at least 1".into(),
            ));
        }
        // Drain live slots in global order. Uniquely owned shards are moved
        // out of; shards still referenced by published snapshots are cloned
        // slot-by-slot (the snapshots keep answering from their own bytes).
        let order = std::mem::take(&mut self.order);
        let old = std::mem::take(&mut self.shards);
        let mut slots_by_shard: Vec<Vec<Option<SlotData>>> = old
            .into_iter()
            .map(|arc| {
                let slots = match Arc::try_unwrap(arc) {
                    Ok(shard) => shard.into_slots(),
                    Err(shared) => shared.clone_slots(),
                };
                slots.into_iter().map(Some).collect()
            })
            .collect();
        let mut per_shard: Vec<Vec<SlotData>> = (0..n_shards).map(|_| Vec::new()).collect();
        let mut new_order = Vec::with_capacity(order.len());
        for (pos, (s, l)) in order.into_iter().enumerate() {
            let slot = slots_by_shard[s as usize][l as usize]
                .take()
                .expect("global order addresses each live slot exactly once");
            let target = pos % n_shards;
            new_order.push((target as u32, per_shard[target].len() as u32));
            per_shard[target].push(slot);
        }
        self.shards = per_shard
            .into_iter()
            .map(|slots| {
                Arc::new(EngineShard::from_slots(
                    slots,
                    embed_dim,
                    hybrid_cfg.clone(),
                ))
            })
            .collect();
        self.order = new_order;
        self.epoch += 1;
        self.rebuild_global(embed_dim);
        Ok(())
    }

    /// Recomputes the state-global derived data after any mutation: the
    /// per-slot global positions, the pooled-mean centering reference,
    /// and the proxy-scan side tables (`quant_center`, `inv_norms`).
    ///
    /// The pooled mean replays each table's [`crate::shard::PooledStat`]
    /// in global ingest order with exactly the arithmetic of
    /// [`lcdd_fcm::pooled_mean_of`] (`sum / rows` per counted table, then
    /// one scale by `1 / count`), so the result is bit-identical for
    /// every shard layout *and* for every residency: cold shards
    /// contribute without decoding a single encoding matrix, and a
    /// million-table mutation costs `O(corpus x K)`, not a pass over
    /// every stored element.
    pub(crate) fn rebuild_global(&mut self, embed_dim: usize) {
        self.positions = self
            .shards
            .iter()
            .map(|sh| vec![usize::MAX; sh.len()])
            .collect();
        for (pos, &(s, l)) in self.order.iter().enumerate() {
            self.positions[s as usize][l as usize] = pos;
        }
        let mut pooled_mean = Matrix::zeros(1, embed_dim);
        let mut count = 0usize;
        for &(s, l) in &self.order {
            let p = &self.shards[s as usize].pooled[l as usize];
            if p.rows > 0 {
                for (m, v) in pooled_mean.as_mut_slice().iter_mut().zip(&p.sum) {
                    *m += v / p.rows as f32;
                }
                count += 1;
            }
        }
        if count > 0 {
            pooled_mean.scale_assign(1.0 / count as f32);
        }
        self.pooled_mean = pooled_mean;
        self.quant_center = QuantizedVec::quantize(self.pooled_mean.as_slice());
        let center = self.pooled_mean.as_slice();
        self.inv_norms = self
            .shards
            .iter()
            .map(|sh| {
                (0..sh.len())
                    .map(|l| {
                        let p = &sh.pooled[l];
                        if p.rows == 0 {
                            return 0.0;
                        }
                        let mut ss = 0.0f32;
                        for (j, &v) in p.sum.iter().enumerate() {
                            let t = v / p.rows as f32 - center[j];
                            ss += t * t;
                        }
                        let n = ss.sqrt();
                        if n > 0.0 {
                            1.0 / n
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
    }

    /// Hot/cold residency of this snapshot (see [`TierStats`]). Walks only
    /// per-shard counters — no slot is touched, no lock is taken.
    pub fn tier_stats(&self) -> TierStats {
        let mut t = TierStats::default();
        for sh in &self.shards {
            let (rt, mt) = sh.tier_tables();
            let (rb, mb) = sh.tier_bytes();
            t.resident_tables += rt;
            t.mapped_tables += mt;
            t.resident_bytes += rb;
            t.mapped_bytes += mb;
            if let Some(c) = &sh.cold {
                let (n, b) = c.seg.paged_in();
                t.slots_paged_in += n;
                t.bytes_paged_in += b;
            }
        }
        t
    }

    // ---- search ----------------------------------------------------------

    /// Answers one typed query against this state snapshot.
    pub fn search(
        &self,
        shared: &EngineShared,
        query: &Query,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        let (resolved, extract_s) = shared.resolve_query(query)?;
        self.search_extracted_timed(shared, resolved.get(), opts, extract_s)
    }

    pub(crate) fn search_extracted_timed(
        &self,
        shared: &EngineShared,
        extracted: &ExtractedChart,
        opts: &SearchOptions,
        extract_s: f64,
    ) -> Result<SearchResponse, EngineError> {
        let total0 = Instant::now();
        let model = &shared.model;
        // Tracing context, if the caller (the gateway's batch trace) set
        // one. Stage spans are recorded post-hoc from the same Instants
        // the response timings use, so tracing adds no timer reads to an
        // untraced search.
        let trace_ctx = lcdd_obs::trace::current();

        let t = Instant::now();
        let pq = process_query(extracted, &model.config);
        if pq.line_patches.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        let ev = model.encode_query_values(&pq);
        let line_embs = mean_pooled(&ev);
        let encode_d = t.elapsed();
        let encode_s = encode_d.as_secs_f64();
        if let Some(ctx) = trace_ctx {
            lcdd_obs::trace::ring().record(
                ctx.trace,
                ctx.parent,
                lcdd_obs::trace::Stage::Encode,
                t,
                encode_d,
                None,
                pq.line_patches.len() as u64,
            );
        }

        // Candidate generation fans out across shards on the work pool.
        let t = Instant::now();
        let cands: Vec<CandidateSet> = pool::par_map(&self.shards, |sh| {
            sh.index()
                .candidates_with_stats(opts.strategy, pq.y_range, &line_embs)
        });
        let flat: Vec<(u32, u32)> = cands
            .iter()
            .enumerate()
            .flat_map(|(si, c)| c.ids.iter().map(move |&l| (si as u32, l as u32)))
            .collect();
        let prune_d = t.elapsed();
        let prune_s = prune_d.as_secs_f64();
        if let Some(ctx) = trace_ctx {
            lcdd_obs::trace::ring().record(
                ctx.trace,
                ctx.parent,
                lcdd_obs::trace::Stage::CandidateGen,
                t,
                prune_d,
                None,
                flat.len() as u64,
            );
        }

        // Scoring runs in one flat parallel pass over every surviving
        // candidate, so a single-shard engine loses no parallelism and an
        // imbalanced shard cannot straggle the whole query. The scorer
        // hoists the query-side work once; each worker then scores its
        // chunk tape-free, in blocks, through one scratch. A score depends
        // only on (query, candidate, center) — never on which worker or
        // block ran it — so hits are bit-identical across thread counts
        // and shard layouts.
        let t = Instant::now();
        let scorer = QueryScorer::new(model, &ev);

        // Optional quantized pre-rank: when the index stages leave more
        // candidates than the exact-scoring budget, rank them all by the
        // int8 proxy of the centered pooled-alignment term and keep the
        // top `r`. The proxy reads ~K bytes per candidate from
        // always-resident side tables, so a cold (mapped) corpus narrows
        // its candidates without paging a single blob in; only the `r`
        // survivors reach the exact matcher (and, on the cold tier, the
        // mapping). Proxy values are per-table pure, and ties break on
        // (table id, global position), so the surviving *set* — and hence
        // the final ranking — is identical for every shard layout.
        let (flat, quant_scanned, reranked) = match opts.rerank {
            Some(r) if flat.len() > r => {
                let quant_start = Instant::now();
                let qv = QuantizedVec::quantize(scorer.v_pooled().as_slice());
                let q_dot_c = qv.dot(&self.quant_center);
                let proxies: Vec<f32> = pool::par_map(&flat, |&(s, l)| {
                    let sh = &self.shards[s as usize];
                    (qv.dot(&sh.quant[l as usize]) - q_dot_c)
                        * self.inv_norms[s as usize][l as usize]
                });
                let mut by_proxy: Vec<(f32, u64, usize, (u32, u32))> = flat
                    .iter()
                    .zip(&proxies)
                    .map(|(&(s, l), &p)| {
                        (
                            p,
                            self.shards[s as usize].meta[l as usize].id,
                            self.positions[s as usize][l as usize],
                            (s, l),
                        )
                    })
                    .collect();
                by_proxy.sort_by(|a, b| {
                    b.0.total_cmp(&a.0)
                        .then_with(|| a.1.cmp(&b.1))
                        .then_with(|| a.2.cmp(&b.2))
                });
                by_proxy.truncate(r);
                let scanned = flat.len();
                let kept: Vec<(u32, u32)> = by_proxy.iter().map(|&(.., loc)| loc).collect();
                let n_kept = kept.len();
                if let Some(ctx) = trace_ctx {
                    lcdd_obs::trace::ring().record(
                        ctx.trace,
                        ctx.parent,
                        lcdd_obs::trace::Stage::QuantScan,
                        quant_start,
                        quant_start.elapsed(),
                        None,
                        scanned as u64,
                    );
                }
                (kept, Some(scanned), Some(n_kept))
            }
            _ => (flat, None, None),
        };

        let exact_start = Instant::now();
        let pages_before = trace_ctx.map(|_| self.tier_stats().slots_paged_in);
        let scored = scorer.score_all(&flat, &pq, &self.pooled_mean, |&(s, l)| {
            let sh = &self.shards[s as usize];
            (sh.slot_ranges(l as usize), sh.slot_encodings(l as usize))
        });
        let exact_d = exact_start.elapsed();
        let merge_start = Instant::now();
        let mut ranked: Vec<(f32, u64, usize, (u32, u32))> = flat
            .iter()
            .zip(&scored)
            .map(|(&(s, l), &score)| {
                let shard = &self.shards[s as usize];
                (
                    score,
                    shard.meta[l as usize].id,
                    self.positions[s as usize][l as usize],
                    (s, l),
                )
            })
            .collect();
        // Total order: score desc, then table id asc, then global position
        // asc — merged rankings are identical for every shard layout.
        // `total_cmp` keeps the sort a total order even when a degenerate
        // (NaN-laced) query produces NaN scores; those candidates are then
        // dropped from the hit list below, never surfaced as hits.
        ranked.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        let score_s = t.elapsed().as_secs_f64();

        let hits: Vec<SearchHit> = ranked
            .iter()
            .filter(|&&(score, ..)| !score.is_nan())
            .take(opts.k)
            .filter(|&&(score, ..)| opts.min_score.is_none_or(|m| score >= m))
            .map(|&(score, table_id, pos, (s, l))| SearchHit {
                index: pos,
                table_id,
                table_name: self.shards[s as usize].meta[l as usize].name.clone(),
                score,
            })
            .collect();

        if let Some(ctx) = trace_ctx {
            let ring = lcdd_obs::trace::ring();
            ring.record(
                ctx.trace,
                ctx.parent,
                lcdd_obs::trace::Stage::ExactScore,
                exact_start,
                exact_d,
                None,
                flat.len() as u64,
            );
            // Cold-tier page-ins attributable to this scoring pass
            // (approximate under concurrency — the counters are shared).
            if let Some(before) = pages_before {
                let delta = self.tier_stats().slots_paged_in.saturating_sub(before);
                if delta > 0 {
                    ring.record(
                        ctx.trace,
                        ctx.parent,
                        lcdd_obs::trace::Stage::PageIn,
                        exact_start,
                        exact_d,
                        None,
                        delta,
                    );
                }
            }
            ring.record(
                ctx.trace,
                ctx.parent,
                lcdd_obs::trace::Stage::Merge,
                merge_start,
                merge_start.elapsed(),
                None,
                hits.len() as u64,
            );
        }

        let sum_stage = |f: fn(&CandidateSet) -> Option<usize>| -> Option<usize> {
            cands
                .iter()
                .map(f)
                .try_fold(0usize, |acc, v| v.map(|n| acc + n))
        };
        Ok(SearchResponse {
            hits,
            counts: StageCounts {
                total: self.len(),
                after_interval: sum_stage(|c| c.after_interval),
                after_lsh: sum_stage(|c| c.after_lsh),
                quant_scanned,
                reranked,
                scored: flat.len(),
            },
            timings: StageTimings {
                extract_s,
                encode_s,
                prune_s,
                score_s,
                total_s: extract_s + total0.elapsed().as_secs_f64(),
            },
            strategy: opts.strategy,
            epoch: self.epoch,
            cached: false,
        })
    }

    /// The merged candidate set for a pre-extracted query; see
    /// [`crate::Engine::candidates`].
    pub(crate) fn candidates(
        &self,
        model: &FcmModel,
        extracted: &ExtractedChart,
        strategy: IndexStrategy,
    ) -> CandidateSet {
        let pq = process_query(extracted, &model.config);
        let line_embs = if pq.line_patches.is_empty() {
            Vec::new()
        } else {
            mean_pooled(&model.encode_query_values(&pq))
        };
        let per_shard: Vec<CandidateSet> = pool::par_map(&self.shards, |sh| {
            sh.index()
                .candidates_with_stats(strategy, pq.y_range, &line_embs)
        });
        let mut ids: Vec<usize> = per_shard
            .iter()
            .enumerate()
            .flat_map(|(si, c)| c.ids.iter().map(move |&l| self.positions[si][l]))
            .collect();
        ids.sort_unstable();
        let sum_stage = |f: fn(&CandidateSet) -> Option<usize>| -> Option<usize> {
            per_shard
                .iter()
                .map(f)
                .try_fold(0usize, |acc, v| v.map(|n| acc + n))
        };
        CandidateSet {
            after_interval: sum_stage(|c| c.after_interval),
            after_lsh: sum_stage(|c| c.after_lsh),
            ids,
        }
    }
}

/// Mean-pools each `N1 x K` line encoding into a `K`-vector — the query
/// side of the LSH probe (Sec. VI-A).
pub(crate) fn mean_pooled(encodings: &[Matrix]) -> Vec<Vec<f32>> {
    encodings
        .iter()
        .map(|m| {
            let (rows, cols) = m.shape();
            let mut out = vec![0.0f32; cols];
            if rows == 0 {
                return out;
            }
            for r in 0..rows {
                for (o, &v) in out.iter_mut().zip(m.row(r)) {
                    *o += v;
                }
            }
            for o in &mut out {
                *o /= rows as f32;
            }
            out
        })
        .collect()
}
