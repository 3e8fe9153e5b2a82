//! Multi-head scaled dot-product attention.
//!
//! Supports both self-attention (queries, keys and values from one
//! sequence — the MSA blocks of Eq. 1) and cross-attention (queries from
//! one modality, keys/values from another — the building block HCMAN uses
//! at the segment and line-to-column levels, Sec. IV-D).

use lcdd_tensor::kernels::{grow, rows_matmul};
use lcdd_tensor::{scaled_dot_attention, softmax_row, ParamStore, Tape, Var};
use rand::Rng;

use crate::linear::Linear;
use crate::module::scoped;

#[derive(Clone, Debug)]
struct Head {
    wq: Linear,
    wk: Linear,
    wv: Linear,
}

/// Reusable buffers for [`MultiHeadAttention::forward_spans`]. They are
/// resized, never shrunk, so a scratch stops allocating once it has seen
/// its largest operand.
#[derive(Clone, Debug, Default)]
pub struct AttentionScratch {
    /// Every head's `W_q`, then every `W_k`, then every `W_v`, side by
    /// side: `dim x 3·dim`.
    w_qkv: Vec<f32>,
    /// The projections of every row through `w_qkv`: `rows x 3·dim`.
    qkv: Vec<f32>,
    /// One head over one span: its queries (`span x dh`), keys transposed
    /// (`dh x span`) and values (`span x dh`).
    q: Vec<f32>,
    kt: Vec<f32>,
    v: Vec<f32>,
    /// The span's scores, then its attention weights (`span x span`).
    weights: Vec<f32>,
    /// The head's output over the span (`span x dh`).
    head_out: Vec<f32>,
    /// Every head's output side by side (`rows x dim`).
    cat: Vec<f32>,
}

/// Multi-head attention with `n_heads` heads of width `dim / n_heads` and a
/// final output projection back to `dim`.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    heads: Vec<Head>,
    wo: Linear,
    dim: usize,
}

impl MultiHeadAttention {
    /// Registers all projections. `dim` must be divisible by `n_heads`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        prefix: &str,
        dim: usize,
        n_heads: usize,
    ) -> Self {
        assert!(
            n_heads > 0 && dim.is_multiple_of(n_heads),
            "dim {dim} not divisible by heads {n_heads}"
        );
        let dh = dim / n_heads;
        let heads = (0..n_heads)
            .map(|h| {
                let p = scoped(prefix, &format!("h{h}"));
                Head {
                    wq: Linear::new(store, rng, &scoped(&p, "q"), dim, dh, false),
                    wk: Linear::new(store, rng, &scoped(&p, "k"), dim, dh, false),
                    wv: Linear::new(store, rng, &scoped(&p, "v"), dim, dh, false),
                }
            })
            .collect();
        let wo = Linear::new(store, rng, &scoped(prefix, "o"), dim, dim, true);
        MultiHeadAttention { heads, wo, dim }
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of heads.
    pub fn n_heads(&self) -> usize {
        self.heads.len()
    }

    /// Cross-attention: queries from `q_src: (n, dim)`, keys/values from
    /// `kv_src: (m, dim)`. Returns `(n, dim)`.
    pub fn forward_cross(&self, store: &ParamStore, tape: &Tape, q_src: &Var, kv_src: &Var) -> Var {
        assert_eq!(q_src.shape().1, self.dim, "attention: query width mismatch");
        assert_eq!(
            kv_src.shape().1,
            self.dim,
            "attention: key/value width mismatch"
        );
        let outs: Vec<Var> = self
            .heads
            .iter()
            .map(|head| {
                let q = head.wq.forward(store, tape, q_src);
                let k = head.wk.forward(store, tape, kv_src);
                let v = head.wv.forward(store, tape, kv_src);
                scaled_dot_attention(&q, &k, &v).0
            })
            .collect();
        let cat = Var::concat_cols(&outs);
        self.wo.forward(store, tape, &cat)
    }

    /// Self-attention over a single sequence `(n, dim)`.
    pub fn forward_self(&self, store: &ParamStore, tape: &Tape, x: &Var) -> Var {
        self.forward_cross(store, tape, x, x)
    }

    /// Tape-free self-attention over a stack of sequences: `x` holds
    /// `rows x dim` floats, row-major, and every `span` consecutive rows are
    /// one sequence that attends only to itself. Writes `rows x dim` to
    /// `out`. Each span's output has the bits of [`Self::forward_self`]'s
    /// value on that span alone: every product runs on [`rows_matmul`]
    /// (the projections of all heads and all spans as one operand), the
    /// scores are multiplied by `1/sqrt(dh)` and normalised with the
    /// tape's [`softmax_row`].
    pub fn forward_spans(
        &self,
        store: &ParamStore,
        x: &[f32],
        span: usize,
        out: &mut [f32],
        sc: &mut AttentionScratch,
    ) {
        let dim = self.dim;
        let dh = dim / self.heads.len();
        let rows = x.len() / dim;
        assert!(
            span > 0 && x.len() == rows * dim && rows.is_multiple_of(span),
            "attention: {} floats are not whole {span}-row spans of width {dim}",
            x.len()
        );
        let w3 = 3 * dim;
        let w_qkv = grow(&mut sc.w_qkv, dim * w3);
        for (h, head) in self.heads.iter().enumerate() {
            for (part, proj) in [&head.wq, &head.wk, &head.wv].into_iter().enumerate() {
                let c0 = part * dim + h * dh;
                let (w, _) = proj.params(store);
                for (dst, src) in w_qkv
                    .chunks_exact_mut(w3)
                    .zip(w.as_slice().chunks_exact(dh))
                {
                    dst[c0..c0 + dh].copy_from_slice(src);
                }
            }
        }
        let qkv = grow(&mut sc.qkv, rows * w3);
        rows_matmul(qkv, x, w_qkv, None, dim, w3);

        let scale = 1.0 / (dh as f32).sqrt();
        let q = grow(&mut sc.q, span * dh);
        let kt = grow(&mut sc.kt, dh * span);
        let v = grow(&mut sc.v, span * dh);
        let weights = grow(&mut sc.weights, span * span);
        let head_out = grow(&mut sc.head_out, span * dh);
        let cat = grow(&mut sc.cat, rows * dim);
        for (seq, cat_seq) in qkv
            .chunks_exact(span * w3)
            .zip(cat.chunks_exact_mut(span * dim))
        {
            for h in 0..self.heads.len() {
                let (qc, kc, vc) = (h * dh, dim + h * dh, 2 * dim + h * dh);
                for (i, row) in seq.chunks_exact(w3).enumerate() {
                    q[i * dh..(i + 1) * dh].copy_from_slice(&row[qc..qc + dh]);
                    v[i * dh..(i + 1) * dh].copy_from_slice(&row[vc..vc + dh]);
                    for (d, &kv) in row[kc..kc + dh].iter().enumerate() {
                        kt[d * span + i] = kv;
                    }
                }
                rows_matmul(weights, q, kt, None, dh, span);
                for row in weights.chunks_exact_mut(span) {
                    for s in row.iter_mut() {
                        *s *= scale;
                    }
                    softmax_row(row);
                }
                rows_matmul(head_out, weights, v, None, span, dh);
                for (dst, src) in cat_seq.chunks_exact_mut(dim).zip(head_out.chunks_exact(dh)) {
                    dst[h * dh..(h + 1) * dh].copy_from_slice(src);
                }
            }
        }
        self.wo.forward_rows(store, cat, out);
    }

    /// Returns the attention weights of the first head for `(q_src, kv_src)`
    /// — used by tests and by diagnostics that inspect what the matcher
    /// attends to.
    pub fn attention_weights(
        &self,
        store: &ParamStore,
        tape: &Tape,
        q_src: &Var,
        kv_src: &Var,
    ) -> Var {
        let head = &self.heads[0];
        let q = head.wq.forward(store, tape, q_src);
        let k = head.wk.forward(store, tape, kv_src);
        let v = head.wv.forward(store, tape, kv_src);
        scaled_dot_attention(&q, &k, &v).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mha(dim: usize, heads: usize) -> (ParamStore, MultiHeadAttention) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let m = MultiHeadAttention::new(&mut store, &mut rng, "attn", dim, heads);
        (store, m)
    }

    #[test]
    fn self_attention_shape() {
        let (store, m) = mha(8, 2);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(5, 8, vec![0.1; 40]));
        let y = m.forward_self(&store, &tape, &x);
        assert_eq!(y.shape(), (5, 8));
    }

    #[test]
    fn cross_attention_shape() {
        let (store, m) = mha(8, 4);
        let tape = Tape::new();
        let q = tape.leaf(Matrix::from_vec(3, 8, vec![0.2; 24]));
        let kv = tape.leaf(Matrix::from_vec(7, 8, vec![0.3; 56]));
        let y = m.forward_cross(&store, &tape, &q, &kv);
        assert_eq!(y.shape(), (3, 8));
    }

    #[test]
    fn weights_rows_sum_to_one() {
        let (store, m) = mha(4, 1);
        let tape = Tape::new();
        let q = tape.leaf(Matrix::from_vec(
            2,
            4,
            vec![0.5, -0.5, 0.25, 1.0, 0.0, 0.3, -0.2, 0.7],
        ));
        let kv = tape.leaf(Matrix::from_vec(3, 4, vec![0.1; 12]));
        let w = m.attention_weights(&store, &tape, &q, &kv).value();
        assert_eq!(w.shape(), (2, 3));
        for r in 0..2 {
            let s: f32 = w.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_head_count_panics() {
        let _ = mha(6, 4);
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let (mut store, m) = mha(4, 2);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(
            3,
            4,
            (0..12).map(|i| i as f32 / 10.0).collect(),
        ));
        let loss = m.forward_self(&store, &tape, &x).square().sum_all();
        tape.backward(&loss);
        let mut sgd = lcdd_tensor::Sgd::new(0.0);
        let norm = store.apply_grads(&tape, &mut sgd);
        assert!(norm > 0.0, "no gradient reached attention parameters");
    }
}
