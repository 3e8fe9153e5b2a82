//! Segment-level line chart encoder (paper Sec. IV-B): line image →
//! flattened segment patches → linear projection → transformer (Eq. 1) →
//! per-segment representations.
//!
//! Two paths compute the same bits. Training runs
//! [`ChartEncoder::encode_line`] on the autograd tape. Inference
//! ([`crate::FcmModel::encode_query_values`]) runs
//! [`ChartEncoder::encode_chart_value`], which stacks up to four (`STACK`)
//! lines into one operand per transformer layer, runs every product on
//! `lcdd_tensor::kernels::rows_matmul` and keeps attention inside each
//! line's rows; the tape path is the oracle (`tests/encoder_parity.rs`).

use lcdd_nn::{Linear, TransformerEncoder};
use lcdd_tensor::kernels::grow;
use lcdd_tensor::{Matrix, ParamStore, Tape, Var};
use rand::Rng;

use crate::config::FcmConfig;
use crate::model::{EncodeScratch, STACK};

/// ViT-style encoder for extracted line images.
#[derive(Clone, Debug)]
pub struct ChartEncoder {
    patch_proj: Linear,
    transformer: TransformerEncoder,
    n_segments: usize,
}

impl ChartEncoder {
    /// Registers parameters.
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, cfg: &FcmConfig) -> Self {
        let n1 = cfg.n_line_segments();
        ChartEncoder {
            patch_proj: Linear::new(
                store,
                rng,
                "chart.patch",
                cfg.patch_dim(),
                cfg.embed_dim,
                true,
            ),
            transformer: TransformerEncoder::new(
                store,
                rng,
                "chart.enc",
                cfg.embed_dim,
                cfg.n_heads,
                cfg.n_layers,
                cfg.ff_mult,
                n1,
            ),
            n_segments: n1,
        }
    }

    /// Encodes one line's patch matrix (`N1 x patch_dim`) into segment
    /// representations (`N1 x K`).
    pub fn encode_line(&self, store: &ParamStore, tape: &Tape, patches: &Matrix) -> Var {
        assert_eq!(
            patches.rows(),
            self.n_segments,
            "encode_line: patch count mismatch"
        );
        let tokens = self
            .patch_proj
            .forward(store, tape, &tape.leaf(patches.clone()));
        self.transformer.forward(store, tape, &tokens)
    }

    /// Encodes every line of a chart: `EV[i]` per line.
    pub fn encode_chart(&self, store: &ParamStore, tape: &Tape, lines: &[Matrix]) -> Vec<Var> {
        lines
            .iter()
            .map(|p| self.encode_line(store, tape, p))
            .collect()
    }

    /// Tape-free `EV[i]` per line (`N1 x K` each), bit-identical to
    /// [`Self::encode_line`]'s value. Lines go through in groups of
    /// four (`STACK`): each line's patches are projected into its rows of one
    /// stacked token operand, then the transformer runs over the group
    /// with attention restricted to each line's `N1` rows. Buffers come
    /// from `sc`.
    pub fn encode_chart_value(
        &self,
        store: &ParamStore,
        lines: &[Matrix],
        sc: &mut EncodeScratch,
    ) -> Vec<Matrix> {
        let (n1, k) = (self.n_segments, self.patch_proj.out_dim());
        let mut out = Vec::with_capacity(lines.len());
        for group in lines.chunks(STACK) {
            let tokens = grow(&mut sc.tokens, group.len() * n1 * k);
            for (dst, patches) in tokens.chunks_exact_mut(n1 * k).zip(group) {
                assert_eq!(
                    patches.rows(),
                    self.n_segments,
                    "encode_line: patch count mismatch"
                );
                self.patch_proj.forward_rows(store, patches.as_slice(), dst);
            }
            self.transformer
                .forward_spans(store, tokens, n1, &mut sc.transformer);
            out.extend(
                tokens
                    .chunks_exact(n1 * k)
                    .map(|e| Matrix::from_vec(n1, k, e.to_vec())),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, ChartEncoder, FcmConfig) {
        let cfg = FcmConfig::tiny();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let enc = ChartEncoder::new(&mut store, &mut rng, &cfg);
        (store, enc, cfg)
    }

    #[test]
    fn encodes_to_segment_grid() {
        let (store, enc, cfg) = setup();
        let tape = Tape::new();
        let patches = Matrix::zeros(cfg.n_line_segments(), cfg.patch_dim());
        let ev = enc.encode_line(&store, &tape, &patches);
        assert_eq!(ev.shape(), (cfg.n_line_segments(), cfg.embed_dim));
    }

    #[test]
    fn multiple_lines_encoded_independently() {
        let (store, enc, cfg) = setup();
        let tape = Tape::new();
        let a = Matrix::zeros(cfg.n_line_segments(), cfg.patch_dim());
        let mut b = Matrix::zeros(cfg.n_line_segments(), cfg.patch_dim());
        b.set(0, 0, 1.0);
        let evs = enc.encode_chart(&store, &tape, &[a, b]);
        assert_eq!(evs.len(), 2);
        let diff: f32 = evs[0]
            .value()
            .as_slice()
            .iter()
            .zip(evs[1].value().as_slice())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-5, "different ink must give different encodings");
    }
}
