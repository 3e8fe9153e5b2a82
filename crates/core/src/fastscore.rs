//! Tape-free, blocked candidate scoring — the search hot path.
//!
//! The engine, [`crate::scoring::search_top_k`] and the cold tier's exact
//! re-rank score one query against hundreds of cached candidate encodings.
//! [`QueryScorer`] does it without the autograd tape and without
//! allocating per candidate.
//!
//! **Query hoist.** At construction it computes everything that depends
//! only on the query and the weights. SL-SAN's two score products
//! `(ev·Wq)(panel·Wk)ᵀ` and `(panel·Wq)(ev·Wk)ᵀ` are folded through the
//! projections: with `A = (ev·Wq)·Wkᵀ` and `M = Wq·(ev·Wk)ᵀ`, both become
//! products of the *raw* candidate panel with one hoisted `K x 2V` operand
//! `[Aᵀ | M]` (attention scale folded in). A candidate therefore costs one
//! `T x K x 2V` product for all its segment scores and no projection at
//! all. The pooled chart embedding, its log norm and (ablation) the
//! mean-pooled chart are hoisted too.
//!
//! **Blocks.** [`QueryScorer::score_into`] takes candidates [`BLOCK`] at a
//! time through one [`ScoreScratch`]. Per candidate it runs the segment
//! stage — the score product, the per-line and per-column relevance
//! pooling and the pooled table embedding — straight out of the column
//! encodings, with no packing. Then the LL-SAN projections of every line
//! and column representation in the block, the two LayerNorms and the
//! relevance head run over the block's rows as single operands.
//! [`QueryScorer::score_all`] gives each pool worker one chunk and one
//! scratch; the scratch's buffers grow to the largest block seen and are
//! reused, so after the first block no candidate allocates.
//!
//! All products go through `lcdd_tensor::kernels::rows_matmul`, the
//! workspace's one matmul kernel, in which every output element is
//! accumulated over `k` in index order with a separate multiply and add.
//! That is the same instruction sequence whatever tile a row lands in and
//! whatever SIMD the build targets, so a row's bits never depend on the
//! other rows of the operand.
//!
//! ## Determinism
//!
//! Every reduction is a fixed-order loop and every block-level operation is
//! row-local, so a candidate's score is a pure function of `(query
//! encodings, candidate encodings, center)`: independent of its
//! block-mates, its position in the block, the chunking, the thread count
//! and the shard layout (`tests/block_scoring.rs` pins this bit for bit).
//! Scores agree with the tape path ([`FcmModel::match_cached_centered`]) to
//! float tolerance — the folded products round differently in the last ulp
//! — and the parity tests below and in `tests/block_scoring.rs` keep the
//! two paths locked together.

use std::ops::Deref;

use lcdd_tensor::kernels::{grow, rows_matmul};
use lcdd_tensor::{pool, Matrix};

use crate::input::{kept_columns, ProcessedQuery};
use crate::model::FcmModel;
use crate::scoring::EncodedRepository;

/// Candidates scored together by [`QueryScorer::score_into`]. A fixed
/// size: it bounds the scratch, and the results do not depend on it.
pub const BLOCK: usize = 8;

/// Sequential dot product (the order `rows_matmul` sums in).
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(0.0, |acc, (&x, &y)| acc + x * y)
}

/// Row `r` of a row-major buffer `k` wide.
fn row(buf: &[f32], r: usize, k: usize) -> &[f32] {
    &buf[r * k..(r + 1) * k]
}

/// Log-space norm `ln(||v||) = 0.5 * ln(Σv² + eps)` with the same epsilon
/// chain as `lcdd_nn::cosine_scores`.
fn log_norm(v: &[f32]) -> f32 {
    let sq: f32 = v.iter().map(|&x| x * x).sum();
    (sq + 1e-6).max(1e-12).ln() * 0.5
}

/// Adds every `k`-wide row of `rows` into `acc`, in order.
fn add_rows(acc: &mut [f32], rows: &[f32]) {
    for row in rows.chunks_exact(acc.len()) {
        for (o, &x) in acc.iter_mut().zip(row) {
            *o += x;
        }
    }
}

/// A score grid of `n` rows by `m` columns inside a larger buffer: element
/// `(i, j)` is `data[off + i * row_stride + j * col_stride]`. Lets the
/// pooling read the line scores straight out of the columns of the
/// candidate's score product.
#[derive(Clone, Copy)]
struct Grid<'g> {
    data: &'g [f32],
    off: usize,
    row_stride: usize,
    col_stride: usize,
    n: usize,
    m: usize,
}

impl Grid<'_> {
    #[inline]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[self.off + i * self.row_stride + j * self.col_stride]
    }
}

/// Relevance-weighted pooling over pre-scaled attention scores: reduces
/// the `n` rows of `own` (`n x K`, row-major) to `out` (`K`) exactly as
/// `relevance_pool` does on the tape, given `scores = (own·Wq)(other·Wk)ᵀ /
/// sqrt(K)`. `e` (≥ `m`) and `rel` (≥ `n`) are scratch.
fn attention_pool(out: &mut [f32], own: &[f32], scores: Grid<'_>, e: &mut [f32], rel: &mut [f32]) {
    let (n, m) = (scores.n, scores.m);
    // Smooth per-row max: attention-weighted mean of the row's own scores.
    for (i, rel_i) in rel[..n].iter_mut().enumerate() {
        let max = (0..m).fold(f32::NEG_INFINITY, |acc, j| acc.max(scores.at(i, j)));
        let mut denom = 0.0;
        for (j, ej) in e[..m].iter_mut().enumerate() {
            *ej = (scores.at(i, j) - max).exp();
            denom += *ej;
        }
        *rel_i = e[..m]
            .iter()
            .enumerate()
            .map(|(j, &ej)| ej / denom * scores.at(i, j))
            .sum();
    }
    // weights = softmax over the per-row relevances.
    let rel = &mut rel[..n];
    let max = rel.iter().fold(f32::NEG_INFINITY, |acc, &x| acc.max(x));
    let mut denom = 0.0;
    for w in rel.iter_mut() {
        *w = (*w - max).exp();
        denom += *w;
    }
    out.fill(0.0);
    for (&w, row) in rel.iter().zip(own.chunks_exact(out.len())) {
        let w = w / denom;
        for (o, &x) in out.iter_mut().zip(row) {
            *o += w * x;
        }
    }
}

/// One staged candidate of the current block.
#[derive(Clone, Copy)]
struct Staged {
    /// First row of the candidate's line representations in
    /// [`ScoreScratch::reps`]; its column representations follow them.
    base: usize,
    /// Number of (range-filtered) columns.
    cols: usize,
}

/// Reusable buffers for [`QueryScorer::score_into`]: one per worker chunk,
/// never shared between threads. Every buffer is resized, not reallocated,
/// per block, so once a block of the largest shape has been scored no
/// further allocation happens. At `FcmConfig::small()` a block of four-
/// column candidates needs about 20 KiB in all.
#[derive(Default)]
pub struct ScoreScratch {
    /// Range-filtered column indices of the candidate being staged.
    cols: Vec<usize>,
    /// The candidate's segment score product, `T x 2V`.
    seg_scores: Vec<f32>,
    /// Softmax numerators of one score row.
    e: Vec<f32>,
    /// Per-row relevances of one pooling group.
    rel: Vec<f32>,
    /// Per block slot: the staged candidate, or `None` (no columns).
    staged: Vec<Option<Staged>>,
    /// HCMAN: the block's line and column representations, `rows x K`.
    reps: Vec<f32>,
    /// HCMAN: LL-SAN query / key projections of `reps`.
    proj_q: Vec<f32>,
    proj_k: Vec<f32>,
    /// LL-SAN line-to-column scores of one candidate.
    ll_scores: Vec<f32>,
    /// Per staged candidate: `[v_rep | t_rep]`, `2K` wide.
    vt: Vec<f32>,
    /// Per staged candidate: the pooled table embedding (cosine term).
    t_pooled: Vec<f32>,
    /// The head's input rows, its hidden layer and its logits.
    joint: Vec<f32>,
    hidden: Vec<f32>,
    logits: Vec<f32>,
}

/// One query's hoisted state for scoring many candidates.
///
/// Build once per query (after `FcmModel::encode_query_values`), then
/// score candidates with [`QueryScorer::score_all`] (a whole candidate
/// list, fanned out over the pool), [`QueryScorer::score_into`] (one
/// worker's share, with its own [`ScoreScratch`]) or
/// [`QueryScorer::score_table`] (one table). The scorer is `Sync` and
/// scoring is read-only.
pub struct QueryScorer<'a> {
    model: &'a FcmModel,
    /// Per-line segment encodings (`V_i x K` each), borrowed from the caller.
    ev: &'a [Matrix],
    /// Row span of each line inside the concatenated line segments.
    line_spans: Vec<(usize, usize)>,
    /// Total line segments `V`.
    v_rows: usize,
    /// HCMAN only: `[Aᵀ | M] / sqrt(K)` (`K x 2V`, see the module docs) —
    /// a candidate panel times this is `[scores_vᵀ | scores_t]`.
    seg_operand: Option<Matrix>,
    /// Ablation only: `mean_pool(ev)`.
    v_mean_pooled: Option<Matrix>,
    /// Mean over all line-segment rows (`1 x K`) — the cosine-term chart
    /// embedding.
    v_pooled: Matrix,
    /// `ln(||v_pooled||)`, hoisted out of the per-candidate cosine.
    qn: f32,
    /// `1 / sqrt(K)` attention scale.
    scale: f32,
}

impl<'a> QueryScorer<'a> {
    /// Hoists all query-side computation. `ev` must be non-empty (the
    /// caller's empty-query short-circuit runs before scoring).
    pub fn new(model: &'a FcmModel, ev: &'a [Matrix]) -> Self {
        assert!(!ev.is_empty(), "QueryScorer: no query lines");
        let k = model.config.embed_dim;
        let scale = 1.0 / (k as f32).sqrt();
        let refs: Vec<&Matrix> = ev.iter().collect();
        let mut line_spans = Vec::with_capacity(ev.len());
        let mut v_rows = 0;
        for m in ev {
            line_spans.push((v_rows, m.rows()));
            v_rows += m.rows();
        }
        let (seg_operand, v_mean_pooled) = match &model.matcher.sl_proj {
            Some((wq, wk)) => {
                let (wq_w, bq) = wq.params(&model.store);
                let (wk_w, bk) = wk.params(&model.store);
                // The fold is exact only for bias-free projections, which
                // is how the matcher builds them.
                assert!(
                    bq.is_none() && bk.is_none(),
                    "QueryScorer: SL-SAN projections must be bias-free"
                );
                let ev_concat = Matrix::concat_rows(&refs);
                let mut q_v = Matrix::zeros(v_rows, wq.out_dim()); // V x K
                let mut k_v = Matrix::zeros(v_rows, wk.out_dim()); // V x K
                wq.forward_rows(&model.store, ev_concat.as_slice(), q_v.as_mut_slice());
                wk.forward_rows(&model.store, ev_concat.as_slice(), k_v.as_mut_slice());
                let a_v = q_v.matmul_nt(wk_w); // V x K: scores_v = a_v · panelᵀ
                let m_t = wq_w.matmul_nt(&k_v); // K x V: scores_t = panel · m_t
                let mut op = Matrix::zeros(k, 2 * v_rows);
                for kk in 0..k {
                    let row = op.row_mut(kk);
                    for v in 0..v_rows {
                        row[v] = a_v.get(v, kk) * scale;
                        row[v_rows + v] = m_t.get(kk, v) * scale;
                    }
                }
                (Some(op), None)
            }
            None => (None, Some(mean_pool_value(&refs, k))),
        };
        let v_pooled = mean_rows_of(&refs, k);
        let qn = log_norm(v_pooled.as_slice());
        QueryScorer {
            model,
            ev,
            line_spans,
            v_rows,
            seg_operand,
            v_mean_pooled,
            v_pooled,
            qn,
            scale,
        }
    }

    /// The hoisted query-side pooled embedding (`1 x K` mean over all line
    /// rows) — the vector the quantized candidate scan compares against.
    pub fn v_pooled(&self) -> &Matrix {
        &self.v_pooled
    }

    /// Scores the query against one cached repository table, with the same
    /// column range filter and centering semantics as
    /// `scoring::score_against_centered`: [`QueryScorer::score_into`] with
    /// a block of one and a fresh scratch.
    pub fn score_table(
        &self,
        repo: &EncodedRepository,
        query: &ProcessedQuery,
        table_idx: usize,
        pooled_mean: &Matrix,
    ) -> f32 {
        let mut out = [0.0f32];
        self.score_into(
            &[table_idx],
            query,
            pooled_mean,
            &mut ScoreScratch::default(),
            &mut out,
            |&i| (&repo.tables[i].column_ranges[..], &repo.encodings[i][..]),
        );
        out[0]
    }

    /// Scores every item of `items` — fanned out over the work pool, one
    /// chunk and one [`ScoreScratch`] per worker — and returns the scores
    /// in order. `parts` maps an item to the candidate's column value
    /// ranges and column encodings; it may materialize the encodings (the
    /// cold tier does), since each candidate is dropped as soon as it is
    /// staged.
    pub fn score_all<'r, T, E>(
        &self,
        items: &[T],
        query: &ProcessedQuery,
        center: &Matrix,
        parts: impl Fn(&T) -> (&'r [(f64, f64)], E) + Sync,
    ) -> Vec<f32>
    where
        T: Sync,
        E: Deref<Target = [Matrix]>,
    {
        pool::par_chunks(items, |_, chunk| {
            let mut out = vec![0.0f32; chunk.len()];
            self.score_into(
                chunk,
                query,
                center,
                &mut ScoreScratch::default(),
                &mut out,
                &parts,
            );
            out
        })
    }

    /// Scores `items` in blocks of [`BLOCK`] through `scratch`, writing
    /// `out[i]` for `items[i]`: the raw relevance of the query against the
    /// candidate's range-filtered columns, centered on `center`, or 0 for a
    /// candidate with no columns. Equals
    /// `FcmModel::match_cached_centered(ev, filtered columns,
    /// Some(center))` to float tolerance, and each score's bits depend only
    /// on the query, that candidate and `center`.
    pub fn score_into<'r, T, E>(
        &self,
        items: &[T],
        query: &ProcessedQuery,
        center: &Matrix,
        scratch: &mut ScoreScratch,
        out: &mut [f32],
        parts: impl Fn(&T) -> (&'r [(f64, f64)], E),
    ) where
        E: Deref<Target = [Matrix]>,
    {
        assert_eq!(items.len(), out.len(), "score_into: one output per item");
        let k = self.model.config.embed_dim;
        assert_eq!(center.cols(), k, "score_into: center width");
        for (block, out) in items.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            scratch.staged.clear();
            scratch.reps.clear();
            scratch.vt.clear();
            scratch.t_pooled.clear();
            for item in block {
                let (ranges, enc) = parts(item);
                self.stage(ranges, &enc, query, scratch);
            }
            self.finish_block(center, scratch, out);
        }
    }

    /// The per-candidate stage: filters the columns, then computes the
    /// pooled table embedding and either the SL-SAN line and column
    /// representations (HCMAN) or both mean-pooled representations
    /// (ablation), appending them to the block in `sc`.
    fn stage(
        &self,
        ranges: &[(f64, f64)],
        enc: &[Matrix],
        query: &ProcessedQuery,
        sc: &mut ScoreScratch,
    ) {
        let model = self.model;
        let k = model.config.embed_dim;
        sc.cols.clear();
        sc.cols.extend(kept_columns(
            ranges,
            query.y_range,
            model.config.range_slack,
        ));
        if sc.cols.is_empty() {
            sc.staged.push(None);
            return;
        }
        let cols = &sc.cols;

        // Pooled table embedding for the cosine term: the mean over every
        // kept segment row, summed in order.
        let t_rows: usize = cols.iter().map(|&c| enc[c].rows()).sum();
        let tp0 = sc.t_pooled.len();
        sc.t_pooled.resize(tp0 + k, 0.0);
        let t_pooled = &mut sc.t_pooled[tp0..];
        for &c in cols {
            add_rows(t_pooled, enc[c].as_slice());
        }
        let inv = 1.0 / t_rows as f32;
        for x in t_pooled.iter_mut() {
            *x *= inv;
        }

        let Some(op) = &self.seg_operand else {
            // Ablation: v = mean_pool(ev) (hoisted), t = mean_pool(et).
            let vt0 = sc.vt.len();
            sc.vt.resize(vt0 + 2 * k, 0.0);
            let (v_rep, t_rep) = sc.vt[vt0..].split_at_mut(k);
            v_rep.copy_from_slice(
                self.v_mean_pooled
                    .as_ref()
                    .expect("ablation hoist")
                    .as_slice(),
            );
            for &c in cols {
                // Per-column row mean, accumulated into t_rep.
                let m = &enc[c];
                let inv = 1.0 / m.rows() as f32;
                for (kk, t) in t_rep.iter_mut().enumerate() {
                    let s = (0..m.rows()).fold(0.0f32, |s, r| s + m.get(r, kk));
                    *t += s * inv;
                }
            }
            let inv = 1.0 / cols.len() as f32;
            for x in t_rep.iter_mut() {
                *x *= inv;
            }
            sc.staged.push(Some(Staged {
                base: 0,
                cols: cols.len(),
            }));
            return;
        };

        // One product for every segment score of the candidate:
        // seg_scores[t] = panel[t] · [Aᵀ | M] = [scores_v[., t] | scores_t[t, .]].
        let v = self.v_rows;
        let w = 2 * v;
        sc.seg_scores.resize(t_rows * w, 0.0);
        let mut t0 = 0;
        for &c in cols {
            let m = &enc[c];
            rows_matmul(
                &mut sc.seg_scores[t0 * w..(t0 + m.rows()) * w],
                m.as_slice(),
                op.as_slice(),
                None,
                k,
                w,
            );
            t0 += m.rows();
        }
        let widest = t_rows.max(v);
        grow(&mut sc.e, widest);
        let longest = self
            .line_spans
            .iter()
            .map(|s| s.1)
            .chain(cols.iter().map(|&c| enc[c].rows()))
            .max()
            .unwrap_or(0);
        grow(&mut sc.rel, longest);

        // SL-SAN: each line / column reconstructed from its own segments,
        // weighted by cross-modal segment relevance.
        let base = sc.reps.len() / k;
        sc.reps.resize((base + self.ev.len() + cols.len()) * k, 0.0);
        let mut reps = sc.reps[base * k..].chunks_exact_mut(k);
        for (i, &(v0, len)) in self.line_spans.iter().enumerate() {
            // Line i's scores are columns v0..v0+len of the product.
            let grid = Grid {
                data: &sc.seg_scores,
                off: v0,
                row_stride: 1,
                col_stride: w,
                n: len,
                m: t_rows,
            };
            let out = reps.next().expect("line rep row");
            attention_pool(out, self.ev[i].as_slice(), grid, &mut sc.e, &mut sc.rel);
        }
        let mut t0 = 0;
        for &c in cols {
            let m = &enc[c];
            let grid = Grid {
                data: &sc.seg_scores,
                off: t0 * w + v,
                row_stride: w,
                col_stride: 1,
                n: m.rows(),
                m: v,
            };
            let out = reps.next().expect("column rep row");
            attention_pool(out, m.as_slice(), grid, &mut sc.e, &mut sc.rel);
            t0 += m.rows();
        }
        sc.staged.push(Some(Staged {
            base,
            cols: cols.len(),
        }));
    }

    /// The block stage: LL-SAN over every staged candidate's line and
    /// column representations (HCMAN), then both LayerNorms, the relevance
    /// head and the centered cosine term, writing one score per slot.
    fn finish_block(&self, center: &Matrix, sc: &mut ScoreScratch, out: &mut [f32]) {
        let model = self.model;
        let store = &model.store;
        let k = model.config.embed_dim;
        let n_staged = sc.t_pooled.len() / k;

        if let Some(ll) = &model.matcher.ll_proj {
            // One projection per LL-SAN weight over the whole block.
            let rows = sc.reps.len() / k;
            sc.proj_q.resize(rows * k, 0.0);
            sc.proj_k.resize(rows * k, 0.0);
            ll.0.forward_rows(store, &sc.reps, &mut sc.proj_q);
            ll.1.forward_rows(store, &sc.reps, &mut sc.proj_k);
            sc.vt.resize(n_staged * 2 * k, 0.0);
            let n_lines = self.ev.len();
            let mut vt_rows = sc.vt.chunks_exact_mut(2 * k);
            for s in sc.staged.iter().flatten() {
                let (lines, cols) = (s.base, s.base + n_lines);
                let n_cols = s.cols;
                let (v_rep, t_rep) = vt_rows.next().expect("staged row").split_at_mut(k);
                let need = n_lines.max(n_cols);
                grow(&mut sc.e, need);
                grow(&mut sc.rel, need);
                sc.ll_scores.resize(n_lines * n_cols, 0.0);
                // Chart from its lines: s_v = q_l · k_cᵀ / sqrt(K).
                for i in 0..n_lines {
                    for j in 0..n_cols {
                        sc.ll_scores[i * n_cols + j] =
                            dot(row(&sc.proj_q, lines + i, k), row(&sc.proj_k, cols + j, k))
                                * self.scale;
                    }
                }
                let grid = Grid {
                    data: &sc.ll_scores,
                    off: 0,
                    row_stride: n_cols,
                    col_stride: 1,
                    n: n_lines,
                    m: n_cols,
                };
                attention_pool(
                    v_rep,
                    &sc.reps[lines * k..cols * k],
                    grid,
                    &mut sc.e,
                    &mut sc.rel,
                );
                // Table from its columns: s_t = q_c · k_lᵀ / sqrt(K).
                for j in 0..n_cols {
                    for i in 0..n_lines {
                        sc.ll_scores[j * n_lines + i] =
                            dot(row(&sc.proj_q, cols + j, k), row(&sc.proj_k, lines + i, k))
                                * self.scale;
                    }
                }
                let grid = Grid {
                    data: &sc.ll_scores,
                    off: 0,
                    row_stride: n_lines,
                    col_stride: 1,
                    n: n_cols,
                    m: n_lines,
                };
                attention_pool(
                    t_rep,
                    &sc.reps[cols * k..(cols + n_cols) * k],
                    grid,
                    &mut sc.e,
                    &mut sc.rel,
                );
            }
        }

        // joint = [v, t, v*t, (v-t)^2] per staged candidate, after the norms.
        let joint = grow(&mut sc.joint, n_staged * 4 * k);
        for (vt, j) in sc.vt.chunks_exact(2 * k).zip(joint.chunks_exact_mut(4 * k)) {
            let (v_rep, t_rep) = vt.split_at(k);
            let (vn, rest) = j.split_at_mut(k);
            let (tn, rest) = rest.split_at_mut(k);
            let (prod, diff_sq) = rest.split_at_mut(k);
            model.matcher.v_norm.forward_row(store, v_rep, vn);
            model.matcher.t_norm.forward_row(store, t_rep, tn);
            for (((p, d), &v), &t) in prod.iter_mut().zip(diff_sq).zip(&*vn).zip(&*tn) {
                *p = v * t;
                *d = (v - t) * (v - t);
            }
        }
        // The head ends in one logit per row.
        let logits = grow(&mut sc.logits, n_staged);
        model
            .matcher
            .head
            .forward_rows(store, joint, &mut sc.hidden, logits);

        let w = store.value(model.matcher.sim_weight).get(0, 0);
        let mut staged = 0;
        for (o, s) in out.iter_mut().zip(&sc.staged) {
            *o = match s {
                None => 0.0,
                Some(_) => {
                    let t_pooled = &mut sc.t_pooled[staged * k..(staged + 1) * k];
                    // Center in place: the pooled row is not read again.
                    for (x, &c) in t_pooled.iter_mut().zip(center.as_slice()) {
                        *x -= c;
                    }
                    let dot = dot(self.v_pooled.as_slice(), t_pooled);
                    let inv = (-(self.qn + log_norm(t_pooled))).exp();
                    let logit = logits[staged] + dot * inv * w;
                    staged += 1;
                    1.0 / (1.0 + (-logit).exp())
                }
            };
        }
    }
}

/// Mean over all rows of the matrices in `parts`, taken in order — the
/// value of `Var::concat_rows(parts).mean_rows()`.
fn mean_rows_of(parts: &[&Matrix], cols: usize) -> Matrix {
    let mut out = Matrix::zeros(1, cols);
    let mut rows = 0usize;
    for p in parts {
        add_rows(out.as_mut_slice(), p.as_slice());
        rows += p.rows();
    }
    assert!(rows > 0, "mean_rows: empty matrix");
    out.scale_assign(1.0 / rows as f32);
    out
}

/// The mean-pooling ablation's pooled representation: per-item row mean,
/// stacked, then meaned again (`mean_pool` in [`crate::matcher`]).
fn mean_pool_value(parts: &[&Matrix], cols: usize) -> Matrix {
    let per_item: Vec<Matrix> = parts.iter().map(|p| mean_rows_of(&[p], cols)).collect();
    let refs: Vec<&Matrix> = per_item.iter().collect();
    mean_rows_of(&refs, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FcmConfig;
    use lcdd_tensor::Matrix;

    fn reps(n: usize, rows: usize, k: usize, seed: f32) -> Vec<Matrix> {
        (0..n)
            .map(|i| {
                Matrix::from_vec(
                    rows,
                    k,
                    (0..rows * k)
                        .map(|j| ((j as f32 + seed + i as f32) * 0.37).sin() * 0.3)
                        .collect(),
                )
            })
            .collect()
    }

    /// Column ranges that all pass the range filter.
    fn ranges(n_cols: usize) -> Vec<(f64, f64)> {
        vec![(0.0, 1.0); n_cols]
    }

    fn no_range() -> ProcessedQuery {
        ProcessedQuery {
            line_patches: Vec::new(),
            y_range: None,
        }
    }

    fn fast_score(scorer: &QueryScorer<'_>, et: &[Matrix], center: &Matrix) -> f32 {
        let ranges = ranges(et.len());
        let mut out = [0.0];
        scorer.score_into(
            &[()],
            &no_range(),
            center,
            &mut ScoreScratch::default(),
            &mut out,
            |_| (&ranges[..], et),
        );
        out[0]
    }

    fn parity_case(mut cfg: FcmConfig, hcman: bool, lines: &[usize], cols: &[usize]) {
        cfg.hcman_enabled = hcman;
        let model = FcmModel::new(cfg);
        let k = model.config.embed_dim;
        let ev: Vec<Matrix> = lines
            .iter()
            .enumerate()
            .flat_map(|(i, &rows)| reps(1, rows, k, i as f32 * 3.0))
            .collect();
        let et: Vec<Matrix> = cols
            .iter()
            .enumerate()
            .flat_map(|(j, &rows)| reps(1, rows, k, 7.0 + j as f32 * 5.0))
            .collect();
        let center = Matrix::from_vec(
            1,
            k,
            (0..k).map(|j| (j as f32 * 0.11).cos() * 0.05).collect(),
        );

        let tape_score = model.match_cached_centered(&ev, &et, Some(&center));
        let scorer = QueryScorer::new(&model, &ev);
        let fast = fast_score(&scorer, &et, &center);
        assert!(
            (tape_score - fast).abs() < 1e-5,
            "hcman={hcman} lines={lines:?} cols={cols:?}: tape {tape_score} vs fast {fast}"
        );
    }

    #[test]
    fn fast_path_matches_tape_path_hcman() {
        parity_case(FcmConfig::tiny(), true, &[4], &[5]);
        parity_case(FcmConfig::tiny(), true, &[4, 4], &[5, 5, 5]);
        parity_case(FcmConfig::tiny(), true, &[4; 5], &[5; 7]);
    }

    #[test]
    fn fast_path_matches_tape_path_small_config() {
        // small(): K = 32, 8 segments per line and per column.
        for lines in [&[8][..], &[8, 8], &[8, 8, 8]] {
            for n_cols in [1, 2, 4] {
                parity_case(FcmConfig::small(), true, lines, &vec![8; n_cols]);
            }
        }
        // Ragged shapes exercise the kernel's partial tiles and strips.
        parity_case(FcmConfig::small(), true, &[3, 8], &[5, 1, 8]);
    }

    #[test]
    fn fast_path_matches_tape_path_ablation() {
        parity_case(FcmConfig::tiny(), false, &[4], &[5]);
        parity_case(FcmConfig::tiny(), false, &[4, 4, 4], &[5, 5]);
        parity_case(FcmConfig::small(), false, &[8, 8], &[8; 4]);
    }

    #[test]
    fn scoring_is_deterministic_across_repeats() {
        let model = FcmModel::new(FcmConfig::tiny());
        let k = model.config.embed_dim;
        let ev = reps(3, 4, k, 1.0);
        let et = reps(4, 5, k, 9.0);
        let center = Matrix::zeros(1, k);
        let scorer = QueryScorer::new(&model, &ev);
        let a = fast_score(&scorer, &et, &center);
        let b = fast_score(&scorer, &et, &center);
        assert_eq!(a.to_bits(), b.to_bits());
        // A fresh scorer over the same inputs reproduces the same bits too.
        let scorer2 = QueryScorer::new(&model, &ev);
        let c = fast_score(&scorer2, &et, &center);
        assert_eq!(a.to_bits(), c.to_bits());
    }

    #[test]
    fn candidates_without_columns_score_zero() {
        let model = FcmModel::new(FcmConfig::tiny());
        let k = model.config.embed_dim;
        let ev = reps(1, 4, k, 0.0);
        let scorer = QueryScorer::new(&model, &ev);
        assert_eq!(fast_score(&scorer, &[], &Matrix::zeros(1, k)), 0.0);
    }
}
