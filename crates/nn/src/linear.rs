//! Fully-connected (affine) layer.

use lcdd_tensor::kernels::rows_matmul;
use lcdd_tensor::{init, Matrix, ParamId, ParamStore, Tape, Var};
use rand::Rng;

use crate::module::scoped;

/// `y = x W + b` with `x: (n, in_dim)`, `W: (in_dim, out_dim)`, `b: (1, out_dim)`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers weights (Xavier-uniform) and an optional zero bias.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.add(
            scoped(prefix, "w"),
            init::xavier_uniform(rng, in_dim, out_dim),
        );
        let b = bias.then(|| store.add(scoped(prefix, "b"), init::zeros(1, out_dim)));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight matrix `W` (`in_dim x out_dim`) and the bias row, if the
    /// layer has one — for value-level callers that fold the layer into
    /// products of their own instead of applying it row by row.
    pub fn params<'s>(&self, store: &'s ParamStore) -> (&'s Matrix, Option<&'s Matrix>) {
        (store.value(self.w), self.b.map(|b| store.value(b)))
    }

    /// Applies the layer.
    pub fn forward(&self, store: &ParamStore, tape: &Tape, x: &Var) -> Var {
        assert_eq!(
            x.shape().1,
            self.in_dim,
            "Linear::forward: expected input width {}, got {}",
            self.in_dim,
            x.shape().1
        );
        let w = store.leaf(tape, self.w);
        // Fused matmul+bias: one tape node, bias applied in place into the
        // kernel's output instead of a clone-and-add second node.
        let b = self.b.map(|b| store.leaf(tape, b));
        x.affine(&w, b.as_ref())
    }

    /// Row-slice forward (no tape, no allocation): `x` holds `n` rows of
    /// `in_dim` floats, `out` receives `n` rows of `out_dim`, computed on
    /// [`rows_matmul`] so each output row depends on its input row alone.
    pub fn forward_rows(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        let rows = x.len() / self.in_dim;
        assert!(
            x.len() == rows * self.in_dim && out.len() == rows * self.out_dim,
            "Linear::forward_rows: {} inputs / {} outputs are not rows of {} / {}",
            x.len(),
            out.len(),
            self.in_dim,
            self.out_dim
        );
        let (w, b) = self.params(store);
        rows_matmul(
            out,
            x,
            w.as_slice(),
            b.map(Matrix::as_slice),
            self.in_dim,
            self.out_dim,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_tensor::{Matrix, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new(&mut store, &mut rng, "l", 3, 2, true);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(4, 3, vec![0.5; 12]));
        let y = lin.forward(&store, &tape, &x);
        assert_eq!(y.shape(), (4, 2));
    }

    #[test]
    fn trainable_to_fit_identity_target() {
        // Tiny regression: y_target = 2 * x; a 1->1 linear layer must fit it.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new(&mut store, &mut rng, "l", 1, 1, true);
        let mut opt = Sgd::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let tape = Tape::new();
            let x = tape.leaf(Matrix::from_vec(4, 1, vec![-1.0, 0.0, 1.0, 2.0]));
            let target = tape.constant(Matrix::from_vec(4, 1, vec![-2.0, 0.0, 2.0, 4.0]));
            let pred = lin.forward(&store, &tape, &x);
            let loss = pred.sub(&target).square().mean_all();
            tape.backward(&loss);
            store.apply_grads(&tape, &mut opt);
            last = loss.scalar();
        }
        assert!(last < 1e-3, "final loss = {last}");
    }

    #[test]
    fn forward_rows_bit_identical_to_tape_forward() {
        // 20 rows: more than any register tile, so the tape's product and
        // the row kernel must agree past the tile edges.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let lin = Linear::new(&mut store, &mut rng, "l", 37, 24, true);
        let x = Matrix::from_vec(20, 37, (0..740).map(|i| (i as f32).sin()).collect());
        let tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let taped = lin.forward(&store, &tape, &xv).value();
        let mut rows = vec![0.0; 20 * 24];
        lin.forward_rows(&store, x.as_slice(), &mut rows);
        assert_eq!(taped.shape(), (20, 24));
        for (a, b) in taped.as_slice().iter().zip(&rows) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "expected input width")]
    fn width_mismatch_panics() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let lin = Linear::new(&mut store, &mut rng, "l", 3, 2, false);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(1, 4));
        let _ = lin.forward(&store, &tape, &x);
    }
}
