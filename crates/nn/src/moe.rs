//! Mixture-of-Experts gating (paper Sec. V-D).
//!
//! Each expert `i` produces a representation `e_i` (here: the HMRL root for
//! one data-aggregation transformation layer). Each expert has its own
//! gating function `g_i = Softmax(LeakyReLU(e_i W1) W2)` and the layer
//! outputs the gate-weighted sum `v = Σ g_i(e_i) · e_i`.

use lcdd_tensor::kernels::grow;
use lcdd_tensor::{softmax_row, ParamStore, Tape, Var};
use rand::Rng;

use crate::linear::Linear;
use crate::module::{scoped, Activation};

/// Negative slope of the LeakyReLU inside every gate (both forwards).
const GATE_SLOPE: f32 = 0.01;

/// Per-expert two-layer gating network producing one logit per expert,
/// normalised across experts with a softmax.
#[derive(Clone, Debug)]
pub struct MoeGate {
    gates: Vec<(Linear, Linear)>,
    dim: usize,
    hidden: usize,
}

impl MoeGate {
    /// Builds gates for `n_experts` experts of representation width `dim`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        prefix: &str,
        n_experts: usize,
        dim: usize,
        hidden: usize,
    ) -> Self {
        let gates = (0..n_experts)
            .map(|i| {
                let p = scoped(prefix, &format!("g{i}"));
                (
                    Linear::new(store, rng, &scoped(&p, "w1"), dim, hidden, true),
                    Linear::new(store, rng, &scoped(&p, "w2"), hidden, 1, true),
                )
            })
            .collect();
        MoeGate { gates, dim, hidden }
    }

    /// Number of experts.
    pub fn n_experts(&self) -> usize {
        self.gates.len()
    }

    /// Representation width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Gate hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Computes the gate distribution over experts. `expert_reps[i]` is the
    /// `1 x dim` representation produced by expert `i`. Returns a `1 x E`
    /// probability row.
    pub fn gate_probs(&self, store: &ParamStore, tape: &Tape, expert_reps: &[Var]) -> Var {
        assert_eq!(
            expert_reps.len(),
            self.gates.len(),
            "MoeGate: got {} expert representations for {} experts",
            expert_reps.len(),
            self.gates.len()
        );
        let logits: Vec<Var> = self
            .gates
            .iter()
            .zip(expert_reps)
            .map(|((w1, w2), e)| {
                assert_eq!(
                    e.shape(),
                    (1, self.dim),
                    "MoeGate: expert rep must be 1 x dim"
                );
                let h = w1.forward(store, tape, e).leaky_relu(GATE_SLOPE);
                w2.forward(store, tape, &h)
            })
            .collect();
        Var::concat_cols(&logits).softmax_rows()
    }

    /// Full MoE combination: `v = Σ_i g_i · e_i`, returning `(v, gates)`.
    pub fn combine(&self, store: &ParamStore, tape: &Tape, expert_reps: &[Var]) -> (Var, Var) {
        let probs = self.gate_probs(store, tape, expert_reps);
        // Stack expert reps as rows (E x dim); v = probs (1xE) @ stack.
        let stack = Var::concat_rows(expert_reps);
        (probs.matmul(&stack), probs)
    }

    /// Tape-free [`Self::combine`] for `rows` items at once, writing each
    /// item's mixture `v` to its row of `out` (`rows x dim`). `reps` holds
    /// the experts' representations expert-major: expert `i`'s `rows x dim`
    /// block starts at `i * rows * dim`. Each gate runs over all items as
    /// two [`Linear::forward_rows`] products giving one logit column; an
    /// item's gates are the tape's [`softmax_row`] of its logits, and its
    /// mixture is the sum `((0 + g_0·e_0) + g_1·e_1) + …` in expert order —
    /// the order of `combine`'s `1 x E` product — so every row has the bits
    /// `combine` gives that item alone. `hidden` and `gates` are scratch.
    pub fn mix_rows(
        &self,
        store: &ParamStore,
        reps: &[f32],
        rows: usize,
        hidden: &mut Vec<f32>,
        gates: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let (n, dim) = (self.gates.len(), self.dim);
        assert_eq!(reps.len(), n * rows * dim, "MoeGate: reps shape");
        assert_eq!(out.len(), rows * dim, "MoeGate: output shape");
        if rows == 0 {
            return;
        }
        let leaky = Activation::LeakyRelu(GATE_SLOPE);
        let hidden = grow(hidden, rows * self.hidden);
        let (probs, logit) = grow(gates, (n + 1) * rows).split_at_mut(n * rows);
        for (i, ((w1, w2), rep)) in self
            .gates
            .iter()
            .zip(reps.chunks_exact(rows * dim))
            .enumerate()
        {
            w1.forward_rows(store, rep, hidden);
            for h in hidden.iter_mut() {
                *h = leaky.apply_value(*h);
            }
            w2.forward_rows(store, hidden, logit);
            for (r, &l) in logit.iter().enumerate() {
                probs[r * n + i] = l;
            }
        }
        for (r, (p, o)) in probs
            .chunks_exact_mut(n)
            .zip(out.chunks_exact_mut(dim))
            .enumerate()
        {
            softmax_row(p);
            o.fill(0.0);
            for (&g, rep) in p.iter().zip(reps.chunks_exact(rows * dim)) {
                for (o, &e) in o.iter_mut().zip(&rep[r * dim..(r + 1) * dim]) {
                    *o += g * e;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gate(n: usize, dim: usize) -> (ParamStore, MoeGate) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(23);
        let g = MoeGate::new(&mut store, &mut rng, "moe", n, dim, 8);
        (store, g)
    }

    #[test]
    fn probs_sum_to_one() {
        let (store, g) = gate(5, 4);
        let tape = Tape::new();
        let reps: Vec<Var> = (0..5)
            .map(|i| tape.leaf(Matrix::from_vec(1, 4, vec![i as f32 * 0.3; 4])))
            .collect();
        let p = g.gate_probs(&store, &tape, &reps).value();
        assert_eq!(p.shape(), (1, 5));
        assert!((p.sum() - 1.0).abs() < 1e-5);
        assert!(p.as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn combine_is_convex_combination() {
        let (store, g) = gate(3, 2);
        let tape = Tape::new();
        // All experts produce the same rep -> combination must equal it.
        let reps: Vec<Var> = (0..3)
            .map(|_| tape.leaf(Matrix::from_vec(1, 2, vec![0.7, -0.2])))
            .collect();
        let (v, _) = g.combine(&store, &tape, &reps);
        let val = v.value();
        assert!((val.get(0, 0) - 0.7).abs() < 1e-5);
        assert!((val.get(0, 1) + 0.2).abs() < 1e-5);
    }

    #[test]
    fn gate_is_trainable_to_prefer_one_expert() {
        // Train the gate so that expert 2's output dominates the mixture for
        // a fixed set of expert reps; verifies gradient flow through softmax
        // + matmul combination.
        let (mut store, g) = gate(3, 2);
        let mut opt = lcdd_tensor::Adam::new(0.05);
        let reps_data = [
            Matrix::from_vec(1, 2, vec![1.0, 0.0]),
            Matrix::from_vec(1, 2, vec![0.0, 1.0]),
            Matrix::from_vec(1, 2, vec![-1.0, -1.0]),
        ];
        for _ in 0..150 {
            let tape = Tape::new();
            let reps: Vec<Var> = reps_data.iter().map(|m| tape.leaf(m.clone())).collect();
            let p = g.gate_probs(&store, &tape, &reps);
            // maximise p[2] => minimise -log p[2]
            let p2 = p.slice_rows_var(0, 1); // no-op, keeps Var
            let target = p2.with_value(|v| v.get(0, 2));
            let _ = target;
            let loss = p
                .ln_clamped(1e-7)
                .mul(&tape.constant(Matrix::from_vec(1, 3, vec![0.0, 0.0, -1.0])))
                .sum_all();
            tape.backward(&loss);
            store.apply_grads(&tape, &mut opt);
        }
        let tape = Tape::new();
        let reps: Vec<Var> = reps_data.iter().map(|m| tape.leaf(m.clone())).collect();
        let p = g.gate_probs(&store, &tape, &reps).value();
        assert!(p.get(0, 2) > 0.9, "gate did not learn: {:?}", p.as_slice());
    }
}
