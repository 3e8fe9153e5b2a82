//! Segment-level dataset encoder (paper Sec. IV-C), optionally enhanced
//! with the three DA layers (Sec. V): column → segment tokens →
//! transformer → per-segment representations `ET[m]`.
//!
//! Two paths compute the same bits. Training runs
//! [`DatasetEncoder::encode_column`] on the autograd tape, one column at a
//! time. Inference (ingest, [`crate::FcmModel::encode_table_values`]) runs
//! [`DatasetEncoder::encode_columns_value`], which stacks up to
//! four (`STACK`) columns' segments into one operand per layer and runs every
//! product on `lcdd_tensor::kernels::rows_matmul`, with attention kept
//! inside each column's rows. Every step is row-local, so a column's
//! encoding does not depend on what was stacked with it; the tape path is
//! the oracle (`tests/encoder_parity.rs`).

use lcdd_nn::{Linear, TransformerEncoder};
use lcdd_tensor::kernels::grow;
use lcdd_tensor::{Matrix, ParamStore, Tape, Var};
use rand::Rng;

use crate::config::FcmConfig;
use crate::da::DaLayers;
use crate::model::{EncodeScratch, STACK};

/// Encoder for table columns.
#[derive(Clone, Debug)]
pub struct DatasetEncoder {
    /// Plain segment embedding (used when DA layers are disabled —
    /// the FCM-DA ablation — and as the identity path sanity baseline).
    seg_proj: Linear,
    /// The DA stack (None when `da_enabled` is false).
    da: Option<DaLayers>,
    transformer: TransformerEncoder,
    n_segments: usize,
}

impl DatasetEncoder {
    /// Registers parameters.
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, cfg: &FcmConfig) -> Self {
        let n2 = cfg.n_data_segments();
        DatasetEncoder {
            seg_proj: Linear::new(store, rng, "data.seg", cfg.p2, cfg.embed_dim, true),
            da: cfg
                .da_enabled
                .then(|| DaLayers::new(store, rng, "data.da", cfg)),
            transformer: TransformerEncoder::new(
                store,
                rng,
                "data.enc",
                cfg.embed_dim,
                cfg.n_heads,
                cfg.n_layers,
                cfg.ff_mult,
                n2,
            ),
            n_segments: n2,
        }
    }

    /// True when the DA layers are active.
    pub fn has_da(&self) -> bool {
        self.da.is_some()
    }

    /// Encodes one column's segment matrix (`N2 x P2`) into `ET[m]`
    /// (`N2 x K`). Returns the mean MoE gate distribution as a side channel
    /// (`None` without DA layers).
    pub fn encode_column(
        &self,
        store: &ParamStore,
        tape: &Tape,
        segments: &Matrix,
    ) -> (Var, Option<Var>) {
        assert_eq!(
            segments.rows(),
            self.n_segments,
            "encode_column: segment count mismatch"
        );
        match &self.da {
            None => {
                let tokens = self
                    .seg_proj
                    .forward(store, tape, &tape.leaf(segments.clone()));
                (self.transformer.forward(store, tape, &tokens), None)
            }
            Some(da) => {
                let seg_leaf = tape.leaf(segments.clone());
                let mut tokens = Vec::with_capacity(self.n_segments);
                let mut gates = Vec::with_capacity(self.n_segments);
                for s in 0..self.n_segments {
                    let row = seg_leaf.slice_rows_var(s, s + 1);
                    let (token, gate) = da.forward_segment(store, tape, &row);
                    tokens.push(token);
                    gates.push(gate);
                }
                let da_tokens = Var::concat_rows(&tokens);
                // Residual on the plain segment projection: the identity
                // path keeps non-aggregated matching directly learnable
                // while the DA stack adds the aggregation-aware signal
                // (the identity expert of Sec. V-B, realised as a skip).
                let plain = self.seg_proj.forward(store, tape, &seg_leaf);
                let tokens = da_tokens.add(&plain);
                let gate_mean = Var::concat_rows(&gates).mean_rows();
                (
                    self.transformer.forward(store, tape, &tokens),
                    Some(gate_mean),
                )
            }
        }
    }

    /// Encodes a set of columns; `ET[m]` per column.
    pub fn encode_columns(&self, store: &ParamStore, tape: &Tape, columns: &[&Matrix]) -> Vec<Var> {
        columns
            .iter()
            .map(|c| self.encode_column(store, tape, c).0)
            .collect()
    }

    /// Tape-free `ET[m]` per column (`N2 x K` each), bit-identical to
    /// [`Self::encode_column`]'s value. Columns go through in groups of
    /// four (`STACK`), each group as one stacked operand per layer: the DA
    /// stack (or the plain segment projection), the `seg_proj` residual,
    /// then the transformer with attention restricted to each column's
    /// `N2` rows. Buffers come from `sc`; only the returned matrices are
    /// allocated once `sc` is warm.
    pub fn encode_columns_value(
        &self,
        store: &ParamStore,
        columns: &[Matrix],
        sc: &mut EncodeScratch,
    ) -> Vec<Matrix> {
        let (n2, p2, k) = (
            self.n_segments,
            self.seg_proj.in_dim(),
            self.seg_proj.out_dim(),
        );
        let mut out = Vec::with_capacity(columns.len());
        for group in columns.chunks(STACK) {
            let segments = grow(&mut sc.input, group.len() * n2 * p2);
            for (dst, c) in segments.chunks_exact_mut(n2 * p2).zip(group) {
                assert_eq!(
                    c.shape(),
                    (n2, p2),
                    "encode_columns_value: segment shape mismatch"
                );
                dst.copy_from_slice(c.as_slice());
            }
            let tokens = grow(&mut sc.tokens, group.len() * n2 * k);
            match &self.da {
                None => self.seg_proj.forward_rows(store, segments, tokens),
                Some(da) => {
                    da.forward_rows(store, segments, &mut sc.da, tokens);
                    // The residual on the plain segment projection, added
                    // in the tape's order (DA token + projection).
                    let plain = grow(&mut sc.plain, tokens.len());
                    self.seg_proj.forward_rows(store, segments, plain);
                    for (t, &p) in tokens.iter_mut().zip(plain.iter()) {
                        *t += p;
                    }
                }
            }
            self.transformer
                .forward_spans(store, tokens, n2, &mut sc.transformer);
            out.extend(
                tokens
                    .chunks_exact(n2 * k)
                    .map(|e| Matrix::from_vec(n2, k, e.to_vec())),
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

    fn setup(da: bool) -> (ParamStore, DatasetEncoder, FcmConfig) {
        let mut cfg = FcmConfig::tiny();
        cfg.da_enabled = da;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let enc = DatasetEncoder::new(&mut store, &mut rng, &cfg);
        (store, enc, cfg)
    }

    #[test]
    fn plain_encoding_shape() {
        let (store, enc, cfg) = setup(false);
        assert!(!enc.has_da());
        let tape = Tape::new();
        let seg = Matrix::zeros(cfg.n_data_segments(), cfg.p2);
        let (et, gates) = enc.encode_column(&store, &tape, &seg);
        assert_eq!(et.shape(), (cfg.n_data_segments(), cfg.embed_dim));
        assert!(gates.is_none());
    }

    #[test]
    fn da_encoding_shape_and_gates() {
        let (store, enc, cfg) = setup(true);
        assert!(enc.has_da());
        let tape = Tape::new();
        let seg = Matrix::from_vec(
            cfg.n_data_segments(),
            cfg.p2,
            (0..cfg.n_data_segments() * cfg.p2)
                .map(|i| (i % 17) as f32 / 17.0)
                .collect(),
        );
        let (et, gates) = enc.encode_column(&store, &tape, &seg);
        assert_eq!(et.shape(), (cfg.n_data_segments(), cfg.embed_dim));
        let g = gates.expect("gates present with DA").value();
        assert_eq!(g.shape(), (1, 5));
        assert!((g.sum() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn multi_column_encoding() {
        let (store, enc, cfg) = setup(true);
        let tape = Tape::new();
        let a = Matrix::zeros(cfg.n_data_segments(), cfg.p2);
        let b = Matrix::full(cfg.n_data_segments(), cfg.p2, 0.9);
        let ets = enc.encode_columns(&store, &tape, &[&a, &b]);
        assert_eq!(ets.len(), 2);
    }
}
