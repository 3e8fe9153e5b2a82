//! Layer normalisation with learnable affine parameters.

use lcdd_tensor::{init, ParamId, ParamStore, Tape, Var};

use crate::module::scoped;

/// Row-wise layer normalisation: `y = gamma * (x - mean) / sqrt(var + eps) + beta`.
///
/// The paper applies `LN` before each MSA and MLP block (Eq. 1).
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Registers `gamma = 1`, `beta = 0` of width `dim`.
    pub fn new(store: &mut ParamStore, prefix: &str, dim: usize) -> Self {
        let gamma = store.add(scoped(prefix, "gamma"), init::ones(1, dim));
        let beta = store.add(scoped(prefix, "beta"), init::zeros(1, dim));
        LayerNorm {
            gamma,
            beta,
            dim,
            eps: 1e-5,
        }
    }

    /// Feature width this norm expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies the normalisation to `(n, dim)` input.
    pub fn forward(&self, store: &ParamStore, tape: &Tape, x: &Var) -> Var {
        assert_eq!(x.shape().1, self.dim, "LayerNorm::forward: width mismatch");
        let gamma = store.leaf(tape, self.gamma);
        let beta = store.leaf(tape, self.beta);
        x.layer_norm(&gamma, &beta, self.eps)
    }

    /// One row of the normalisation, written into `out` (no tape, no
    /// allocation): mean, variance and normalise in the same accumulation
    /// order as [`Var::layer_norm`]'s forward pass, so the output is
    /// bit-identical to [`LayerNorm::forward`]'s value.
    pub fn forward_row(&self, store: &ParamStore, row: &[f32], out: &mut [f32]) {
        assert!(
            row.len() == self.dim && out.len() == self.dim,
            "LayerNorm::forward_row: width mismatch"
        );
        let gm = store.value(self.gamma).as_slice();
        let bt = store.value(self.beta).as_slice();
        let cols = self.dim as f32;
        let mean = row.iter().sum::<f32>() / cols;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols;
        let istd = 1.0 / (var + self.eps).sqrt();
        for (c, (o, &xv)) in out.iter_mut().zip(row).enumerate() {
            let xh = (xv - mean) * istd;
            *o = gm[c] * xh + bt[c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_tensor::Matrix;

    #[test]
    fn standardises_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(
            2,
            4,
            vec![10.0, 20.0, 30.0, 40.0, -5.0, 0.0, 5.0, 10.0],
        ));
        let y = ln.forward(&store, &tape, &x).value();
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
        }
    }

    #[test]
    fn forward_row_bit_identical_to_tape_forward() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 6);
        let x = Matrix::from_vec(13, 6, (0..78).map(|i| (i as f32 * 0.37).cos()).collect());
        let tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let taped = ln.forward(&store, &tape, &xv).value();
        let mut row = [0.0; 6];
        for r in 0..13 {
            ln.forward_row(&store, x.row(r), &mut row);
            for (a, b) in taped.row(r).iter().zip(&row) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn gamma_beta_trainable() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 2);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(1, 2, vec![1.0, 3.0]));
        let y = ln.forward(&store, &tape, &x);
        let loss = y.square().sum_all();
        tape.backward(&loss);
        let mut sgd = lcdd_tensor::Sgd::new(0.0); // zero lr: only verify grads exist
        let norm = store.apply_grads(&tape, &mut sgd);
        assert!(norm > 0.0);
    }
}
