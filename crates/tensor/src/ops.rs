//! Differentiable operations on [`Var`].
//!
//! Each method appends a node to the tape with a backward closure. Fused
//! kernels are provided where composition would be numerically fragile or
//! wasteful: `softmax_rows`, `layer_norm`.

use crate::matrix::Matrix;
use crate::tape::Var;

impl Var {
    fn assert_same_tape(&self, other: &Var, op: &str) {
        assert!(
            self.same_tape(other),
            "{op}: operands live on different tapes"
        );
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Var) -> Var {
        self.assert_same_tape(other, "add");
        let out = self.with_value(|a| other.with_value(|b| a.zip(b, |x, y| x + y)));
        let (ai, bi) = (self.idx, other.idx);
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.clone());
                sink(bi, g.clone());
            })),
        )
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Var) -> Var {
        self.assert_same_tape(other, "sub");
        let out = self.with_value(|a| other.with_value(|b| a.zip(b, |x, y| x - y)));
        let (ai, bi) = (self.idx, other.idx);
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.clone());
                sink(bi, g.map(|x| -x));
            })),
        )
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Var) -> Var {
        self.assert_same_tape(other, "mul");
        let a = self.value();
        let b = other.value();
        let out = a.zip(&b, |x, y| x * y);
        let (ai, bi) = (self.idx, other.idx);
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.zip(&b, |gg, y| gg * y));
                sink(bi, g.zip(&a, |gg, x| gg * x));
            })),
        )
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&self, alpha: f32) -> Var {
        let out = self.with_value(|a| a.map(|x| x * alpha));
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| sink(ai, g.map(|x| x * alpha)))),
        )
    }

    /// Adds a scalar constant to every element.
    pub fn add_scalar(&self, alpha: f32) -> Var {
        let out = self.with_value(|a| a.map(|x| x + alpha));
        let ai = self.idx;
        self.tape
            .push(out, Some(Box::new(move |g, sink| sink(ai, g.clone()))))
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Multiplies elementwise by a `1x1` scalar variable (gradient flows to both).
    pub fn scale_by(&self, s: &Var) -> Var {
        self.assert_same_tape(s, "scale_by");
        let a = self.value();
        let sv = s.value();
        assert_eq!(sv.shape(), (1, 1), "scale_by: scaler must be 1x1");
        let alpha = sv.get(0, 0);
        let out = a.map(|x| x * alpha);
        let (ai, si) = (self.idx, s.idx);
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.map(|x| x * alpha));
                let ds: f32 = g
                    .as_slice()
                    .iter()
                    .zip(a.as_slice().iter())
                    .map(|(&gg, &x)| gg * x)
                    .sum();
                sink(si, Matrix::from_vec(1, 1, vec![ds]));
            })),
        )
    }

    /// Adds a `1xK` row vector to every row of an `NxK` matrix.
    pub fn add_row_broadcast(&self, bias: &Var) -> Var {
        self.assert_same_tape(bias, "add_row_broadcast");
        let a = self.value();
        let b = bias.value();
        assert_eq!(b.rows(), 1, "add_row_broadcast: bias must be 1xK");
        assert_eq!(a.cols(), b.cols(), "add_row_broadcast: width mismatch");
        let mut out = a.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (o, &bb) in row.iter_mut().zip(b.as_slice()) {
                *o += bb;
            }
        }
        let (ai, bi) = (self.idx, bias.idx);
        let cols = a.cols();
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.clone());
                let mut db = Matrix::zeros(1, cols);
                for r in 0..g.rows() {
                    for (d, &gg) in db.as_mut_slice().iter_mut().zip(g.row(r)) {
                        *d += gg;
                    }
                }
                sink(bi, db);
            })),
        )
    }

    /// Matrix product.
    pub fn matmul(&self, other: &Var) -> Var {
        self.assert_same_tape(other, "matmul");
        let a = self.value();
        let b = other.value();
        let out = a.matmul(&b);
        let (ai, bi) = (self.idx, other.idx);
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                // dA = G·Bᵀ, dB = Aᵀ·G.
                sink(ai, g.matmul_nt(&b));
                sink(bi, a.matmul_tn(g));
            })),
        )
    }

    /// Matrix product against a transposed right operand:
    /// `self (n,m) · otherᵀ (m,p) -> (n,p)` with `other: (p,m)`.
    ///
    /// Equivalent to `self.matmul(&other.transpose_var())` but records no
    /// transpose node — this is the hot scoring shape (`Q·Kᵀ`) in every
    /// attention block and the HCMAN matcher.
    pub fn matmul_nt(&self, other: &Var) -> Var {
        self.assert_same_tape(other, "matmul_nt");
        let a = self.value();
        let b = other.value();
        let out = a.matmul_nt(&b);
        let (ai, bi) = (self.idx, other.idx);
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                // out = A·Bᵀ  ⇒  dA = G·B, dB = Gᵀ·A.
                sink(ai, g.matmul(&b));
                sink(bi, g.matmul_tn(&a));
            })),
        )
    }

    /// Fused affine transform `self·w (+ bias)` as a single tape node.
    ///
    /// `self: (n,k)`, `w: (k,d)`, `bias: (1,d)`. Compared with
    /// `matmul` + `add_row_broadcast` this records one node instead of two
    /// and writes the bias in place instead of cloning the product — the
    /// per-op allocation that dominated `Linear::forward`.
    pub fn affine(&self, w: &Var, bias: Option<&Var>) -> Var {
        self.assert_same_tape(w, "affine");
        let x = self.value();
        let wv = w.value();
        let mut out = Matrix::zeros(x.rows(), wv.cols());
        x.matmul_into(&wv, &mut out);
        let bias_idx = bias.map(|b| {
            self.assert_same_tape(b, "affine");
            let bv = b.value();
            assert_eq!(bv.shape(), (1, wv.cols()), "affine: bias must be 1xD");
            for r in 0..out.rows() {
                for (o, &bb) in out.row_mut(r).iter_mut().zip(bv.as_slice()) {
                    *o += bb;
                }
            }
            b.idx
        });
        let (xi, wi) = (self.idx, w.idx);
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(xi, g.matmul_nt(&wv));
                sink(wi, x.matmul_tn(g));
                if let Some(bidx) = bias_idx {
                    let mut db = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (d, &gg) in db.as_mut_slice().iter_mut().zip(g.row(r)) {
                            *d += gg;
                        }
                    }
                    sink(bidx, db);
                }
            })),
        )
    }

    /// Transpose.
    pub fn transpose_var(&self) -> Var {
        let out = self.with_value(|a| a.transpose());
        let ai = self.idx;
        self.tape
            .push(out, Some(Box::new(move |g, sink| sink(ai, g.transpose()))))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let a = self.value();
        let out = a.map(|x| x.max(0.0));
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.zip(&a, |gg, x| if x > 0.0 { gg } else { 0.0 }));
            })),
        )
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, alpha: f32) -> Var {
        let a = self.value();
        let out = a.map(|x| if x > 0.0 { x } else { alpha * x });
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.zip(&a, |gg, x| if x > 0.0 { gg } else { alpha * gg }));
            })),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = self.with_value(|a| a.map(|x| 1.0 / (1.0 + (-x).exp())));
        let y = out.clone();
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.zip(&y, |gg, s| gg * s * (1.0 - s)));
            })),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh_var(&self) -> Var {
        let out = self.with_value(|a| a.map(f32::tanh));
        let y = out.clone();
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.zip(&y, |gg, t| gg * (1.0 - t * t)));
            })),
        )
    }

    /// Elementwise exponential.
    pub fn exp_var(&self) -> Var {
        let out = self.with_value(|a| a.map(f32::exp));
        let y = out.clone();
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.zip(&y, |gg, e| gg * e));
            })),
        )
    }

    /// Natural logarithm with inputs clamped to `>= eps` for stability.
    pub fn ln_clamped(&self, eps: f32) -> Var {
        let a = self.value();
        let out = a.map(|x| x.max(eps).ln());
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(
                    ai,
                    g.zip(&a, |gg, x| if x > eps { gg / x } else { gg / eps }),
                );
            })),
        )
    }

    /// Numerically stable softplus `ln(1 + e^x) = max(x, 0) + ln(1 + e^-|x|)`
    /// with derivative `sigmoid(x)`. The building block of
    /// BCE-with-logits losses that never produce exactly-zero gradients.
    pub fn softplus(&self) -> Var {
        let a = self.value();
        let out = a.map(|x| x.max(0.0) + (-x.abs()).exp().ln_1p());
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.zip(&a, |gg, x| gg / (1.0 + (-x).exp())));
            })),
        )
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let a = self.value();
        let out = a.map(|x| x * x);
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, g.zip(&a, |gg, x| 2.0 * gg * x));
            })),
        )
    }

    /// Sum of all elements, producing a `1x1` scalar.
    pub fn sum_all(&self) -> Var {
        let a = self.value();
        let (rows, cols) = a.shape();
        let out = Matrix::from_vec(1, 1, vec![a.sum()]);
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                sink(ai, Matrix::full(rows, cols, g.get(0, 0)));
            })),
        )
    }

    /// Mean of all elements, producing a `1x1` scalar.
    pub fn mean_all(&self) -> Var {
        let n = self.with_value(|a| a.len()) as f32;
        self.sum_all().scale(1.0 / n)
    }

    /// Column-wise mean over rows: `NxK -> 1xK`.
    pub fn mean_rows(&self) -> Var {
        let a = self.value();
        let (rows, cols) = a.shape();
        assert!(rows > 0, "mean_rows: empty matrix");
        let mut out = Matrix::zeros(1, cols);
        for r in 0..rows {
            for (o, &x) in out.as_mut_slice().iter_mut().zip(a.row(r)) {
                *o += x;
            }
        }
        out.scale_assign(1.0 / rows as f32);
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                let mut dg = Matrix::zeros(rows, cols);
                let scale = 1.0 / rows as f32;
                for r in 0..rows {
                    for (d, &gg) in dg.row_mut(r).iter_mut().zip(g.row(0)) {
                        *d = gg * scale;
                    }
                }
                sink(ai, dg);
            })),
        )
    }

    /// Row-wise softmax (fused forward/backward, numerically stabilised).
    pub fn softmax_rows(&self) -> Var {
        let mut out = self.value();
        let (rows, cols) = out.shape();
        for r in 0..rows {
            softmax_row(out.row_mut(r));
        }
        let y = out.clone();
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                let mut dx = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    let yr = y.row(r);
                    let gr = g.row(r);
                    let dot: f32 = yr.iter().zip(gr).map(|(&yy, &gg)| yy * gg).sum();
                    for ((d, &yy), &gg) in dx.row_mut(r).iter_mut().zip(yr).zip(gr) {
                        *d = yy * (gg - dot);
                    }
                }
                sink(ai, dx);
            })),
        )
    }

    /// Fused layer normalisation over each row, with learnable `gamma`/`beta`
    /// (both `1xK`).
    pub fn layer_norm(&self, gamma: &Var, beta: &Var, eps: f32) -> Var {
        self.assert_same_tape(gamma, "layer_norm");
        self.assert_same_tape(beta, "layer_norm");
        let x = self.value();
        let gm = gamma.value();
        let bt = beta.value();
        let (rows, cols) = x.shape();
        assert_eq!(gm.shape(), (1, cols), "layer_norm: gamma must be 1xK");
        assert_eq!(bt.shape(), (1, cols), "layer_norm: beta must be 1xK");

        let mut xhat = Matrix::zeros(rows, cols);
        let mut inv_std = vec![0.0f32; rows];
        let mut out = Matrix::zeros(rows, cols);
        for (r, istd_slot) in inv_std.iter_mut().enumerate() {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let istd = 1.0 / (var + eps).sqrt();
            *istd_slot = istd;
            for (c, &xv) in row.iter().enumerate() {
                let xh = (xv - mean) * istd;
                xhat.set(r, c, xh);
                out.set(r, c, gm.get(0, c) * xh + bt.get(0, c));
            }
        }
        let (xi, gi, bi) = (self.idx, gamma.idx, beta.idx);
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                let mut dx = Matrix::zeros(rows, cols);
                let mut dgamma = Matrix::zeros(1, cols);
                let mut dbeta = Matrix::zeros(1, cols);
                let n = cols as f32;
                for (r, &istd) in inv_std.iter().enumerate() {
                    let gr = g.row(r);
                    let xhr = xhat.row(r);
                    // dxhat_c = g_c * gamma_c
                    let dxhat: Vec<f32> = gr
                        .iter()
                        .enumerate()
                        .map(|(c, &gg)| gg * gm.get(0, c))
                        .collect();
                    let sum_dxhat: f32 = dxhat.iter().sum();
                    let sum_dxhat_xhat: f32 = dxhat.iter().zip(xhr).map(|(&d, &xh)| d * xh).sum();
                    for c in 0..cols {
                        let term = n * dxhat[c] - sum_dxhat - xhr[c] * sum_dxhat_xhat;
                        dx.set(r, c, istd / n * term);
                        dgamma.as_mut_slice()[c] += gr[c] * xhr[c];
                        dbeta.as_mut_slice()[c] += gr[c];
                    }
                }
                sink(xi, dx);
                sink(gi, dgamma);
                sink(bi, dbeta);
            })),
        )
    }

    /// Vertically concatenates variables (all must share column count).
    pub fn concat_rows(parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let tape = parts[0].tape.clone();
        for p in parts {
            assert!(p.same_tape(&parts[0]), "concat_rows: mixed tapes");
        }
        let values: Vec<Matrix> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Matrix> = values.iter().collect();
        let out = Matrix::concat_rows(&refs);
        let spans: Vec<(usize, usize)> = {
            let mut acc = 0;
            values
                .iter()
                .map(|v| {
                    let s = (acc, v.rows());
                    acc += v.rows();
                    s
                })
                .collect()
        };
        let idxs: Vec<usize> = parts.iter().map(|p| p.idx).collect();
        tape.push(
            out,
            Some(Box::new(move |g, sink| {
                for (&(start, len), &pi) in spans.iter().zip(idxs.iter()) {
                    sink(pi, g.slice_rows(start, start + len));
                }
            })),
        )
    }

    /// Horizontally concatenates variables (all must share row count).
    pub fn concat_cols(parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let tape = parts[0].tape.clone();
        for p in parts {
            assert!(p.same_tape(&parts[0]), "concat_cols: mixed tapes");
        }
        let values: Vec<Matrix> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Matrix> = values.iter().collect();
        let out = Matrix::concat_cols(&refs);
        let widths: Vec<usize> = values.iter().map(|v| v.cols()).collect();
        let rows = values[0].rows();
        let idxs: Vec<usize> = parts.iter().map(|p| p.idx).collect();
        tape.push(
            out,
            Some(Box::new(move |g, sink| {
                let mut offset = 0;
                for (&w, &pi) in widths.iter().zip(idxs.iter()) {
                    let mut part = Matrix::zeros(rows, w);
                    for r in 0..rows {
                        part.row_mut(r)
                            .copy_from_slice(&g.row(r)[offset..offset + w]);
                    }
                    sink(pi, part);
                    offset += w;
                }
            })),
        )
    }

    /// Copies rows `[r0, r1)` into a new node.
    pub fn slice_rows_var(&self, r0: usize, r1: usize) -> Var {
        let a = self.value();
        let (rows, cols) = a.shape();
        let out = a.slice_rows(r0, r1);
        let ai = self.idx;
        self.tape.push(
            out,
            Some(Box::new(move |g, sink| {
                let mut dg = Matrix::zeros(rows, cols);
                for (i, r) in (r0..r1).enumerate() {
                    dg.row_mut(r).copy_from_slice(g.row(i));
                }
                sink(ai, dg);
            })),
        )
    }
}

/// Numerically stabilised softmax of one row, in place — the forward pass
/// of [`Var::softmax_rows`], shared with the tape-free inference paths so
/// both compute the same bits.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let mut denom = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        denom += *x;
    }
    for x in row.iter_mut() {
        *x /= denom;
    }
}

/// Scaled dot-product attention: `softmax(Q K^T / sqrt(d)) V`.
///
/// Shapes: `q: (n,d)`, `k: (m,d)`, `v: (m,dv)` — returns `(n,dv)`.
/// Also returns the attention weights node for inspection.
pub fn scaled_dot_attention(q: &Var, k: &Var, v: &Var) -> (Var, Var) {
    let d = q.shape().1 as f32;
    let scores = q.matmul_nt(k).scale(1.0 / d.sqrt());
    let weights = scores.softmax_rows();
    (weights.matmul(v), weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn leaf(tape: &Tape, rows: usize, cols: usize, data: Vec<f32>) -> Var {
        tape.leaf(Matrix::from_vec(rows, cols, data))
    }

    #[test]
    fn add_backward() {
        let t = Tape::new();
        let a = leaf(&t, 1, 2, vec![1.0, 2.0]);
        let b = leaf(&t, 1, 2, vec![3.0, 4.0]);
        let loss = a.add(&b).sum_all();
        t.backward(&loss);
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_backward() {
        let t = Tape::new();
        let a = leaf(&t, 1, 2, vec![2.0, 3.0]);
        let b = leaf(&t, 1, 2, vec![5.0, 7.0]);
        let loss = a.mul(&b).sum_all();
        t.backward(&loss);
        assert_eq!(a.grad().unwrap().as_slice(), &[5.0, 7.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_backward_shapes() {
        let t = Tape::new();
        let a = leaf(&t, 2, 3, vec![1.0; 6]);
        let b = leaf(&t, 3, 4, vec![1.0; 12]);
        let loss = a.matmul(&b).sum_all();
        t.backward(&loss);
        assert_eq!(a.grad().unwrap().shape(), (2, 3));
        assert_eq!(b.grad().unwrap().shape(), (3, 4));
        // d/dA (sum(AB)) = ones * B^T: each entry = sum of B row = 4
        assert!(a.grad().unwrap().as_slice().iter().all(|&x| x == 4.0));
        assert!(b.grad().unwrap().as_slice().iter().all(|&x| x == 2.0));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let t = Tape::new();
        let a = leaf(&t, 2, 3, vec![1.0, -2.0, 3.0, 0.5, 1.5, -0.5]);
        let b = leaf(&t, 4, 3, (0..12).map(|i| i as f32 * 0.25 - 1.0).collect());
        let fused = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose_var());
        assert_eq!(fused.value(), explicit.value());
        let loss = fused.square().sum_all();
        t.backward(&loss);
        assert_eq!(a.grad().unwrap().shape(), (2, 3));
        assert_eq!(b.grad().unwrap().shape(), (4, 3));
    }

    #[test]
    fn affine_matches_matmul_plus_broadcast() {
        let t = Tape::new();
        let x = leaf(&t, 3, 2, vec![1.0, 2.0, -1.0, 0.5, 0.0, 3.0]);
        let w = leaf(&t, 2, 4, (0..8).map(|i| i as f32 * 0.3 - 1.0).collect());
        let b = leaf(&t, 1, 4, vec![0.1, -0.2, 0.3, -0.4]);
        let fused = x.affine(&w, Some(&b));
        let explicit = x.matmul(&w).add_row_broadcast(&b);
        assert_eq!(fused.value(), explicit.value());
        let loss = fused.square().sum_all();
        t.backward(&loss);
        let gx = x.grad().unwrap();
        let gw = w.grad().unwrap();
        let gb = b.grad().unwrap();
        // Cross-check against the unfused graph on a fresh tape.
        let t2 = Tape::new();
        let x2 = t2.leaf(x.value());
        let w2 = t2.leaf(w.value());
        let b2 = t2.leaf(b.value());
        let loss2 = x2.matmul(&w2).add_row_broadcast(&b2).square().sum_all();
        t2.backward(&loss2);
        assert_eq!(gx, x2.grad().unwrap());
        assert_eq!(gw, w2.grad().unwrap());
        assert_eq!(gb, b2.grad().unwrap());
    }

    #[test]
    fn affine_without_bias() {
        let t = Tape::new();
        let x = leaf(&t, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let w = leaf(&t, 2, 2, vec![0.5, -0.5, 1.0, 1.5]);
        let y = x.affine(&w, None);
        assert_eq!(y.value(), x.value().matmul(&w.value()));
        let loss = y.sum_all();
        t.backward(&loss);
        assert_eq!(w.grad().unwrap().shape(), (2, 2));
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tape::new();
        let a = leaf(&t, 2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        let v = s.value();
        for r in 0..2 {
            let sum: f32 = v.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_grad_rows_sum_to_zero() {
        // Softmax is shift invariant, so the gradient in each row sums to 0.
        let t = Tape::new();
        let a = leaf(&t, 1, 3, vec![0.3, -0.7, 1.2]);
        let w = leaf(&t, 1, 3, vec![1.0, 2.0, -1.0]);
        let loss = a.softmax_rows().mul(&w).sum_all();
        t.backward(&loss);
        let g = a.grad().unwrap();
        let s: f32 = g.as_slice().iter().sum();
        assert!(s.abs() < 1e-6, "row grad sum = {s}");
    }

    #[test]
    fn layer_norm_output_standardised() {
        let t = Tape::new();
        let a = leaf(&t, 1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let gamma = leaf(&t, 1, 4, vec![1.0; 4]);
        let beta = leaf(&t, 1, 4, vec![0.0; 4]);
        let y = a.layer_norm(&gamma, &beta, 1e-5).value();
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .as_slice()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn concat_and_slice_roundtrip_grad() {
        let t = Tape::new();
        let a = leaf(&t, 1, 2, vec![1.0, 2.0]);
        let b = leaf(&t, 2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let cat = Var::concat_rows(&[a.clone(), b.clone()]);
        let back = cat.slice_rows_var(1, 3); // the b part
        let loss = back.sum_all();
        t.backward(&loss);
        assert_eq!(a.grad().unwrap().as_slice(), &[0.0, 0.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn concat_cols_grad_split() {
        let t = Tape::new();
        let a = leaf(&t, 2, 1, vec![1.0, 2.0]);
        let b = leaf(&t, 2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let cat = Var::concat_cols(&[a.clone(), b.clone()]);
        assert_eq!(cat.shape(), (2, 3));
        let w = leaf(&t, 2, 3, vec![1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0]);
        let loss = cat.mul(&w).sum_all();
        t.backward(&loss);
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0, 1000.0]);
        assert_eq!(
            b.grad().unwrap().as_slice(),
            &[10.0, 100.0, 10000.0, 100000.0]
        );
    }

    #[test]
    fn sigmoid_at_zero() {
        let t = Tape::new();
        let a = leaf(&t, 1, 1, vec![0.0]);
        let s = a.sigmoid();
        assert!((s.scalar() - 0.5).abs() < 1e-6);
        let loss = s.sum_all();
        t.backward(&loss);
        assert!((a.grad().unwrap().get(0, 0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn attention_shapes() {
        let t = Tape::new();
        let q = leaf(&t, 3, 4, vec![0.1; 12]);
        let k = leaf(&t, 5, 4, vec![0.2; 20]);
        let v = leaf(&t, 5, 6, vec![0.3; 30]);
        let (out, w) = scaled_dot_attention(&q, &k, &v);
        assert_eq!(out.shape(), (3, 6));
        assert_eq!(w.shape(), (3, 5));
        let loss = out.sum_all();
        t.backward(&loss);
        assert_eq!(q.grad().unwrap().shape(), (3, 4));
    }

    #[test]
    fn scale_by_scalar_var() {
        let t = Tape::new();
        let a = leaf(&t, 1, 2, vec![3.0, 4.0]);
        let s = leaf(&t, 1, 1, vec![2.0]);
        let out = a.scale_by(&s);
        assert_eq!(out.value().as_slice(), &[6.0, 8.0]);
        let loss = out.sum_all();
        t.backward(&loss);
        assert_eq!(a.grad().unwrap().as_slice(), &[2.0, 2.0]);
        assert_eq!(s.grad().unwrap().get(0, 0), 7.0);
    }

    #[test]
    fn mean_rows_grad() {
        let t = Tape::new();
        let a = leaf(&t, 4, 2, vec![1.0; 8]);
        let m = a.mean_rows();
        assert_eq!(m.shape(), (1, 2));
        let loss = m.sum_all();
        t.backward(&loss);
        assert!(a
            .grad()
            .unwrap()
            .as_slice()
            .iter()
            .all(|&x| (x - 0.25).abs() < 1e-7));
    }
}
