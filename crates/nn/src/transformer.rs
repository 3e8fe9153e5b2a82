//! Transformer encoder exactly following the paper's Eq. (1):
//!
//! ```text
//! u0 = [z1; z2; ...; zN] + Epos
//! u'_i = MSA(LN(u_{i-1})) + u_{i-1}
//! u_i  = MLP(LN(u'_i)) + u'_i
//! ```

use lcdd_tensor::kernels::grow;
use lcdd_tensor::{ParamStore, Tape, Var};
use rand::Rng;

use crate::attention::{AttentionScratch, MultiHeadAttention};
use crate::layernorm::LayerNorm;
use crate::mlp::Mlp;
use crate::module::{scoped, Activation};

/// One pre-norm transformer block: `MSA(LN(x)) + x` then `MLP(LN(x)) + x`.
#[derive(Clone, Debug)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff: Mlp,
}

impl TransformerBlock {
    /// Builds a block with feed-forward expansion `ff_mult` (the classic
    /// transformer uses 4x).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        prefix: &str,
        dim: usize,
        n_heads: usize,
        ff_mult: usize,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(store, &scoped(prefix, "ln1"), dim),
            attn: MultiHeadAttention::new(store, rng, &scoped(prefix, "msa"), dim, n_heads),
            ln2: LayerNorm::new(store, &scoped(prefix, "ln2"), dim),
            ff: Mlp::new(
                store,
                rng,
                &scoped(prefix, "ff"),
                &[dim, dim * ff_mult, dim],
                Activation::Relu,
            ),
        }
    }

    /// Applies the block to `(n, dim)`.
    pub fn forward(&self, store: &ParamStore, tape: &Tape, x: &Var) -> Var {
        let a = self
            .attn
            .forward_self(store, tape, &self.ln1.forward(store, tape, x));
        let x = a.add(x);
        let f = self
            .ff
            .forward(store, tape, &self.ln2.forward(store, tape, &x));
        f.add(&x)
    }

    /// Tape-free [`Self::forward`] over a stack of sequences, in place:
    /// `h` holds `rows x dim` floats and every `span` consecutive rows are
    /// one sequence (see [`MultiHeadAttention::forward_spans`]). Mirrors
    /// the tape's order: LayerNorm rows, attention, `+ x`, LayerNorm rows,
    /// feed-forward, `+ x`.
    fn forward_spans(
        &self,
        store: &ParamStore,
        h: &mut [f32],
        span: usize,
        sc: &mut TransformerScratch,
    ) {
        let dim = self.attn.dim();
        let normed = grow(&mut sc.normed, h.len());
        let branch = grow(&mut sc.branch, h.len());
        for (x, o) in h.chunks_exact(dim).zip(normed.chunks_exact_mut(dim)) {
            self.ln1.forward_row(store, x, o);
        }
        self.attn
            .forward_spans(store, normed, span, branch, &mut sc.attn);
        for (x, &a) in h.iter_mut().zip(branch.iter()) {
            *x += a;
        }
        for (x, o) in h.chunks_exact(dim).zip(normed.chunks_exact_mut(dim)) {
            self.ln2.forward_row(store, x, o);
        }
        self.ff.forward_rows(store, normed, &mut sc.hidden, branch);
        for (x, &f) in h.iter_mut().zip(branch.iter()) {
            *x += f;
        }
    }
}

/// Reusable buffers for [`TransformerEncoder::forward_spans`]. They are
/// resized, never shrunk, so a scratch stops allocating once it has seen
/// its largest operand.
#[derive(Clone, Debug, Default)]
pub struct TransformerScratch {
    attn: AttentionScratch,
    /// LayerNorm of the residual stream.
    normed: Vec<f32>,
    /// A sub-layer's output before its residual add.
    branch: Vec<f32>,
    /// The feed-forward hidden layer.
    hidden: Vec<f32>,
}

/// A stack of [`TransformerBlock`]s with learnable positional embeddings.
///
/// Both the segment-level line-chart encoder (Sec. IV-B) and the
/// segment-level dataset encoder (Sec. IV-C) instantiate this type; they
/// differ only in how the input token sequence is produced.
#[derive(Clone, Debug)]
pub struct TransformerEncoder {
    blocks: Vec<TransformerBlock>,
    pos: lcdd_tensor::ParamId,
    dim: usize,
    max_len: usize,
}

impl TransformerEncoder {
    /// Builds `n_layers` blocks plus a `(max_len, dim)` positional table.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        prefix: &str,
        dim: usize,
        n_heads: usize,
        n_layers: usize,
        ff_mult: usize,
        max_len: usize,
    ) -> Self {
        let blocks = (0..n_layers)
            .map(|i| {
                TransformerBlock::new(
                    store,
                    rng,
                    &scoped(prefix, &format!("b{i}")),
                    dim,
                    n_heads,
                    ff_mult,
                )
            })
            .collect();
        let pos = store.add(
            scoped(prefix, "pos"),
            lcdd_tensor::init::normal(rng, max_len, dim, 0.02),
        );
        TransformerEncoder {
            blocks,
            pos,
            dim,
            max_len,
        }
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Maximum supported sequence length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Encodes a token sequence `(n, dim)`, `n <= max_len`. Positional
    /// embeddings are added before the first block (Eq. 1's `+ Epos`).
    pub fn forward(&self, store: &ParamStore, tape: &Tape, tokens: &Var) -> Var {
        let (n, d) = tokens.shape();
        assert_eq!(d, self.dim, "TransformerEncoder: token width mismatch");
        assert!(
            n <= self.max_len,
            "TransformerEncoder: sequence length {n} exceeds max_len {}",
            self.max_len
        );
        let pos = store.leaf(tape, self.pos).slice_rows_var(0, n);
        let mut h = tokens.add(&pos);
        for block in &self.blocks {
            h = block.forward(store, tape, &h);
        }
        h
    }

    /// Tape-free [`Self::forward`] over a stack of token sequences, in
    /// place: `h` holds `rows x dim` floats, row-major, and every `span`
    /// consecutive rows are one sequence, attending only to itself. Each
    /// sequence ends with the bits [`Self::forward`]'s value has for it
    /// alone, whatever else is stacked with it. Buffers come from `sc`.
    pub fn forward_spans(
        &self,
        store: &ParamStore,
        h: &mut [f32],
        span: usize,
        sc: &mut TransformerScratch,
    ) {
        assert!(
            span > 0 && span <= self.max_len,
            "TransformerEncoder: sequence length {span} outside 1..={}",
            self.max_len
        );
        let pos = store.value(self.pos);
        for (r, row) in h.chunks_exact_mut(self.dim).enumerate() {
            for (x, &p) in row.iter_mut().zip(pos.row(r % span)) {
                *x += p;
            }
        }
        for block in &self.blocks {
            block.forward_spans(store, h, span, sc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder(dim: usize, layers: usize) -> (ParamStore, TransformerEncoder) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(17);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", dim, 2, layers, 2, 16);
        (store, enc)
    }

    #[test]
    fn forward_preserves_shape() {
        let (store, enc) = encoder(8, 2);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(5, 8, vec![0.1; 40]));
        assert_eq!(enc.forward(&store, &tape, &x).shape(), (5, 8));
    }

    #[test]
    fn position_matters() {
        // Swapping two tokens must change the output because of Epos.
        let (store, enc) = encoder(4, 1);
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(
            2,
            4,
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        ));
        let b = tape.leaf(Matrix::from_vec(
            2,
            4,
            vec![0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        ));
        let ya = enc.forward(&store, &tape, &a).value();
        let yb = enc.forward(&store, &tape, &b).value();
        let diff: f32 = ya
            .as_slice()
            .iter()
            .zip(yb.as_slice())
            .map(|(&x, &y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-4, "positional embedding had no effect");
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn too_long_sequence_panics() {
        let (store, enc) = encoder(4, 1);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(17, 4));
        let _ = enc.forward(&store, &tape, &x);
    }

    #[test]
    fn paper_scale_block_is_constructible() {
        // The paper uses 12 layers, width 768, 8 heads (Sec. VII-B). We build
        // one paper-width block (the full 12-layer stack is just 12 of these;
        // allocating ~1 GB of moment buffers is pointless in a unit test) and
        // check the parameter count matches the analytic formula.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let block = TransformerBlock::new(&mut store, &mut rng, "paper", 768, 8, 4);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(4, 768));
        assert_eq!(block.forward(&store, &tape, &x).shape(), (4, 768));
        // MSA: 8 heads * 3 * 768*96 + (768*768 + 768); FF: 768*3072 + 3072
        //      + 3072*768 + 768; two LayerNorms: 2 * 2 * 768.
        let msa = 8 * 3 * 768 * 96 + 768 * 768 + 768;
        let ff = 768 * 3072 + 3072 + 3072 * 768 + 768;
        let ln = 2 * 2 * 768;
        assert_eq!(store.num_scalars(), msa + ff + ln);
    }
}
