//! The three data-aggregation (DA) layers of the enhanced dataset encoder
//! (paper Sec. V): per-operator transformation layers, the hierarchical
//! multi-scale representation layer (HMRL) and the Mixture-of-Experts gate.

use lcdd_nn::{Activation, Mlp, MoeGate};
use lcdd_table::AggOp;
use lcdd_tensor::kernels::grow;
use lcdd_tensor::{ParamStore, Tape, Var};
use rand::Rng;

use crate::config::FcmConfig;

/// Reusable buffers of [`DaLayers::forward_rows`]. They are resized, never
/// shrunk, so a scratch stops allocating once it has seen its largest
/// operand.
#[derive(Clone, Debug, Default)]
pub struct DaScratch {
    /// MLP hidden layers (an expert's transform, the gate).
    hidden: Vec<f32>,
    /// An expert's leaf embeddings, then every other HMRL level.
    leaves: Vec<f32>,
    /// The HMRL levels in between.
    level: Vec<f32>,
    /// Every expert's root per segment, expert-major.
    roots: Vec<f32>,
    /// The MoE gates per segment.
    gates: Vec<f32>,
}

/// The DA stack applied per data segment: for each of the five experts
/// (identity + avg/sum/max/min), a transformation MLP embeds every
/// sub-segment, HMRL folds the `2^β` sub-segment embeddings up a binary
/// tree to one root, and the MoE gate mixes the five roots into the
/// segment token fed to the transformer (Sec. V-B/C/D).
#[derive(Clone, Debug)]
pub struct DaLayers {
    /// One transformation layer (two-layer MLP) per expert, Sec. V-B.
    transforms: Vec<Mlp>,
    /// Shared binary-tree combiner `f : 2K -> K`, Sec. V-C.
    combiner: Mlp,
    /// The MoE gate, Sec. V-D.
    gate: MoeGate,
    beta: usize,
    sub_len: usize,
}

impl DaLayers {
    /// Registers all DA parameters.
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, prefix: &str, cfg: &FcmConfig) -> Self {
        let dim = cfg.embed_dim;
        let sub_len = cfg.sub_segment_len();
        let transforms = AggOp::EXPERTS
            .iter()
            .map(|op| {
                Mlp::new(
                    store,
                    rng,
                    &format!("{prefix}.transform.{}", op.name()),
                    &[sub_len, dim, dim],
                    Activation::Relu,
                )
            })
            .collect();
        let combiner = Mlp::new(
            store,
            rng,
            &format!("{prefix}.hmrl.f"),
            &[2 * dim, dim],
            Activation::Relu,
        );
        let gate = MoeGate::new(
            store,
            rng,
            &format!("{prefix}.moe"),
            AggOp::EXPERTS.len(),
            dim,
            cfg.moe_hidden,
        );
        DaLayers {
            transforms,
            combiner,
            gate,
            beta: cfg.beta,
            sub_len,
        }
    }

    /// Number of experts (always 5).
    pub fn n_experts(&self) -> usize {
        self.transforms.len()
    }

    /// HMRL: folds `2^β` leaf embeddings (rows of `leaves`) pairwise with
    /// the combiner MLP up to a single `1 x K` root (Sec. V-C).
    fn hmrl_root(&self, store: &ParamStore, tape: &Tape, leaves: Vec<Var>) -> Var {
        let mut level = leaves;
        while level.len() > 1 {
            debug_assert!(
                level.len().is_multiple_of(2),
                "HMRL level size must be even"
            );
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                let cat = Var::concat_cols(&[pair[0].clone(), pair[1].clone()]);
                next.push(self.combiner.forward(store, tape, &cat));
            }
            level = next;
        }
        level.into_iter().next().expect("HMRL: at least one leaf")
    }

    /// Full DA stack for one data segment (`1 x P2` raw values).
    ///
    /// Returns the mixed segment token `1 x K` and the gate distribution
    /// `1 x 5` (exposed so experiments can inspect inferred operators).
    pub fn forward_segment(&self, store: &ParamStore, tape: &Tape, segment: &Var) -> (Var, Var) {
        let (r, p2) = segment.shape();
        assert_eq!(r, 1, "forward_segment: expects one segment row");
        let n_subs = 1usize << self.beta;
        assert_eq!(
            p2,
            n_subs * self.sub_len,
            "forward_segment: segment width mismatch"
        );

        // Split the segment into 2^β sub-segments once; reshape 1 x P2 into
        // n_subs rows of sub_len via transpose-free slicing of the value.
        let seg_val = segment.value();
        let sub_rows = tape.constant(seg_val.reshape(n_subs, self.sub_len));
        // Gradient note: sub_rows is a constant view; gradients flow through
        // `segment` only via the expert transforms applied to slices below.
        // To keep end-to-end differentiability w.r.t. parameters (inputs are
        // leaves anyway), transform each sub-segment row.
        let expert_roots: Vec<Var> = self
            .transforms
            .iter()
            .map(|t| {
                let leaves: Vec<Var> = (0..n_subs)
                    .map(|s| {
                        let row = sub_rows.slice_rows_var(s, s + 1);
                        t.forward(store, tape, &row)
                    })
                    .collect();
                self.hmrl_root(store, tape, leaves)
            })
            .collect();

        let (mixed, gates) = self.gate.combine(store, tape, &expert_roots);
        (mixed, gates)
    }

    /// Tape-free [`Self::forward_segment`] for a stack of segments:
    /// `segments` holds `n x P2` raw values, row-major, and `out` receives
    /// the `n x K` mixed tokens. Each expert's transform runs as one
    /// product per layer over all `n · 2^β` sub-segment rows; each HMRL
    /// level reads its `(2r x K)` input as `(r x 2K)` — row `i` is the pair
    /// `[2i | 2i+1]` the tape concatenates — and applies the combiner as
    /// one product; the gate mixes the roots per segment
    /// ([`MoeGate::mix_rows`]). Every step is row-local, so each segment's
    /// token has the bits `forward_segment` gives it alone.
    pub fn forward_rows(
        &self,
        store: &ParamStore,
        segments: &[f32],
        sc: &mut DaScratch,
        out: &mut [f32],
    ) {
        let k = self.gate.dim();
        let n_subs = 1usize << self.beta;
        let subs = segments.len() / self.sub_len;
        let n = subs / n_subs;
        assert_eq!(
            segments.len(),
            n * n_subs * self.sub_len,
            "forward_rows: segment width mismatch"
        );
        if n == 0 {
            return;
        }
        let roots = grow(&mut sc.roots, self.transforms.len() * n * k);
        for (transform, root) in self.transforms.iter().zip(roots.chunks_exact_mut(n * k)) {
            if n_subs == 1 {
                transform.forward_rows(store, segments, &mut sc.hidden, root);
                continue;
            }
            let leaves = grow(&mut sc.leaves, subs * k);
            transform.forward_rows(store, segments, &mut sc.hidden, leaves);
            // Levels alternate between `leaves` and `level`; the last one
            // lands in the expert's root.
            let mut rows = subs / 2;
            let mut in_leaves = true;
            while rows > n {
                if in_leaves {
                    let next = grow(&mut sc.level, rows * k);
                    self.combiner.forward_rows(
                        store,
                        &sc.leaves[..2 * rows * k],
                        &mut sc.hidden,
                        next,
                    );
                } else {
                    let next = &mut sc.leaves[..rows * k];
                    self.combiner.forward_rows(
                        store,
                        &sc.level[..2 * rows * k],
                        &mut sc.hidden,
                        next,
                    );
                }
                in_leaves = !in_leaves;
                rows /= 2;
            }
            let last = if in_leaves { &sc.leaves } else { &sc.level };
            self.combiner
                .forward_rows(store, &last[..2 * n * k], &mut sc.hidden, root);
        }
        self.gate
            .mix_rows(store, roots, n, &mut sc.hidden, &mut sc.gates, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, DaLayers, FcmConfig) {
        let cfg = FcmConfig::tiny();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let da = DaLayers::new(&mut store, &mut rng, "da", &cfg);
        (store, da, cfg)
    }

    #[test]
    fn segment_token_shape() {
        let (store, da, cfg) = setup();
        let tape = Tape::new();
        let seg = tape.leaf(Matrix::from_vec(1, cfg.p2, vec![0.3; cfg.p2]));
        let (token, gates) = da.forward_segment(&store, &tape, &seg);
        assert_eq!(token.shape(), (1, cfg.embed_dim));
        assert_eq!(gates.shape(), (1, 5));
        assert!((gates.value().sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn five_experts_registered() {
        let (_, da, _) = setup();
        assert_eq!(da.n_experts(), AggOp::EXPERTS.len());
    }

    #[test]
    fn distinct_inputs_give_distinct_tokens() {
        let (store, da, cfg) = setup();
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(
            1,
            cfg.p2,
            (0..cfg.p2).map(|i| i as f32 / 16.0).collect(),
        ));
        let b = tape.leaf(Matrix::from_vec(
            1,
            cfg.p2,
            (0..cfg.p2).map(|i| 1.0 - i as f32 / 16.0).collect(),
        ));
        let (ta, _) = da.forward_segment(&store, &tape, &a);
        let (tb, _) = da.forward_segment(&store, &tape, &b);
        let diff: f32 = ta
            .value()
            .as_slice()
            .iter()
            .zip(tb.value().as_slice())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-4, "DA stack collapsed distinct inputs");
    }

    #[test]
    fn gradients_reach_all_da_parameters() {
        let (mut store, da, cfg) = setup();
        let tape = Tape::new();
        let seg = tape.leaf(Matrix::from_vec(1, cfg.p2, vec![0.5; cfg.p2]));
        let (token, _) = da.forward_segment(&store, &tape, &seg);
        let loss = token.square().sum_all();
        tape.backward(&loss);
        let mut sgd = lcdd_tensor::Sgd::new(0.0);
        let norm = store.apply_grads(&tape, &mut sgd);
        assert!(norm > 0.0);
    }
}
