//! Multi-layer perceptron.

use lcdd_tensor::kernels::grow;
use lcdd_tensor::{ParamStore, Tape, Var};
use rand::Rng;

use crate::linear::Linear;
use crate::module::{scoped, Activation};

/// A stack of [`Linear`] layers with an activation between consecutive
/// layers (none after the last).
///
/// Used throughout the paper: the transformer's position-wise feed-forward
/// (Eq. 1), the DA transformation layers (Sec. V-B, two-layer MLPs), HMRL's
/// child-combiner `f` (Sec. V-C) and the final relevance head (Sec. IV-D).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP over the widths in `dims` (e.g. `[64, 128, 1]` is a
    /// two-layer network 64→128→1).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        prefix: &str,
        dims: &[usize],
        activation: Activation,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "Mlp::new: need at least input and output widths"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                Linear::new(
                    store,
                    rng,
                    &scoped(prefix, &format!("fc{i}")),
                    w[0],
                    w[1],
                    true,
                )
            })
            .collect();
        Mlp { layers, activation }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Applies the network.
    pub fn forward(&self, store: &ParamStore, tape: &Tape, x: &Var) -> Var {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(store, tape, &h);
            if i != last {
                h = self.activation.apply(&h);
            }
        }
        h
    }

    /// Row-slice forward (no tape): `x` holds `n` rows of `in_dim`
    /// floats, `out` receives `n` rows of `out_dim`. Hidden layers go
    /// through `hidden`, which only grows. Every layer runs
    /// [`Linear::forward_rows`], so each output row depends on its input
    /// row alone.
    pub fn forward_rows(
        &self,
        store: &ParamStore,
        x: &[f32],
        hidden: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let rows = x.len() / self.in_dim();
        let (last, inner) = self.layers.split_last().expect("non-empty");
        // Hidden layers alternate between two halves of `hidden`; one
        // hidden layer needs only the first.
        let half = rows * inner.iter().map(Linear::out_dim).max().unwrap_or(0);
        let (mut next, mut cur) = grow(hidden, half * inner.len().min(2)).split_at_mut(half);
        let mut input = x;
        for layer in inner {
            let h = &mut next[..rows * layer.out_dim()];
            layer.forward_rows(store, input, h);
            for v in h.iter_mut() {
                *v = self.activation.apply_value(*v);
            }
            std::mem::swap(&mut cur, &mut next);
            input = &cur[..rows * layer.out_dim()];
        }
        last.forward_rows(store, input, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_tensor::{Adam, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[4, 8, 2], Activation::Relu);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 2);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(3, 4));
        assert_eq!(mlp.forward(&store, &tape, &x).shape(), (3, 2));
    }

    #[test]
    fn forward_rows_bit_identical_to_tape_forward() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        // 20 rows and hidden widths past any register tile.
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            "m",
            &[24, 48, 40, 1],
            Activation::Relu,
        );
        let x = Matrix::from_vec(20, 24, (0..480).map(|i| (i as f32 * 0.13).sin()).collect());
        let tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let taped = mlp.forward(&store, &tape, &xv).value();
        let mut rows = vec![0.0; 20];
        mlp.forward_rows(&store, x.as_slice(), &mut Vec::new(), &mut rows);
        assert_eq!(taped.shape(), (20, 1));
        for (a, b) in taped.as_slice().iter().zip(&rows) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn learns_xor() {
        // XOR is the classic non-linear sanity check for an MLP + autograd.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(42);
        let mlp = Mlp::new(&mut store, &mut rng, "xor", &[2, 8, 1], Activation::Tanh);
        let mut opt = Adam::new(0.05);
        let xs = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let ys = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            let tape = Tape::new();
            let x = tape.leaf(xs.clone());
            let t = tape.constant(ys.clone());
            let p = mlp.forward(&store, &tape, &x).sigmoid();
            let loss = p.sub(&t).square().mean_all();
            tape.backward(&loss);
            store.apply_grads(&tape, &mut opt);
            last = loss.scalar();
        }
        assert!(last < 0.03, "XOR loss did not converge: {last}");
    }
}
