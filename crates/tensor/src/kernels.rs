//! The matmul kernel under every encoder, the HCMAN matcher, the exact
//! scorer and the autograd tape.
//!
//! There is one kernel, [`rows_matmul`]: `C = A · W (+ b)` over raw
//! row-major slices. Every output element is the unfused, `k`-ordered sum
//! `((0 + a0·w0) + a1·w1) + …`, each multiply and add rounded on its own.
//! Register tiling only decides which elements share loads, never that
//! sequence, so
//!
//! * a row's bits do not depend on how many rows were stacked into the
//!   operand (the scorer's blocks and the encoders' stacked columns rely
//!   on this), and
//! * the bits do not depend on the instruction set: Rust never contracts a
//!   multiply and an add into a fused multiply-add, so a `target-cpu=native`
//!   build and a portable one train the same model.
//!
//! [`matmul_into`] runs it on [`Matrix`] operands. The autograd tape's
//! transposed layouts (`Matrix::matmul_nt`, `Matrix::matmul_tn`)
//! materialize the transposed operand once and run the same kernel, so
//! every product gives [`matmul_naive`]'s exact bits.

use crate::matrix::Matrix;

/// Reference triple-loop matmul (i-j-k, no blocking).
///
/// It computes the same unfused `k`-ordered sum as [`rows_matmul`], so it
/// is the bitwise oracle of the kernel tests. Keep it boring.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_naive: inner dimensions differ ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (n, m, p) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(n, p);
    for i in 0..n {
        for j in 0..p {
            let mut acc = 0.0f32;
            for k in 0..m {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// `out = a · b`, shapes `(n,m) x (m,p) -> (n,p)`, on [`rows_matmul`].
/// `out` is fully overwritten; it must already have the right shape.
pub fn matmul_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (n, m) = a.shape();
    let (mb, p) = b.shape();
    assert_eq!(
        m, mb,
        "matmul: inner dimensions differ ({n}x{m} * {mb}x{p})"
    );
    assert_eq!(out.shape(), (n, p), "matmul: output shape mismatch");
    if m == 0 {
        // An empty sum: `rows_matmul` cannot count rows of width 0.
        out.as_mut_slice().fill(0.0);
        return;
    }
    rows_matmul(out.as_mut_slice(), a.as_slice(), b.as_slice(), None, m, p);
}

/// Column strip of [`rows_matmul`]: one AVX-512 register, two AVX2 ones.
const STRIP: usize = 16;
/// Row tile of [`rows_matmul`]: rows sharing each loaded strip of `w`.
const TILE: usize = 4;

/// `out = a · w (+ bias)` with `a: rows x k`, `w: k x n`, all row-major.
///
/// Every output element is `((0 + a0·w0) + a1·w1) + …` over `k` in index
/// order, each multiply and add rounded on its own (Rust never contracts
/// them into fused multiply-adds), then the bias is added. Tiling only
/// decides which elements share register loads, never that sequence, so
/// each output row is a pure function of its input row and `w`.
pub fn rows_matmul(
    out: &mut [f32],
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    k: usize,
    n: usize,
) {
    let rows = a.len().checked_div(k).unwrap_or(0);
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(w.len(), k * n);
    debug_assert_eq!(out.len(), rows * n);
    let mut r = 0;
    while r + TILE <= rows {
        row_tile::<TILE>(
            &mut out[r * n..(r + TILE) * n],
            &a[r * k..(r + TILE) * k],
            w,
            bias,
            k,
            n,
        );
        r += TILE;
    }
    while r < rows {
        row_tile::<1>(
            &mut out[r * n..(r + 1) * n],
            &a[r * k..(r + 1) * k],
            w,
            bias,
            k,
            n,
        );
        r += 1;
    }
}

/// `R` rows of [`rows_matmul`]: full [`STRIP`]-wide column strips with the
/// accumulators in registers, then the leftover columns one at a time.
#[inline(always)]
fn row_tile<const R: usize>(
    out: &mut [f32],
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    k: usize,
    n: usize,
) {
    let mut j0 = 0;
    while j0 + STRIP <= n {
        let mut acc = [[0.0f32; STRIP]; R];
        for (kk, w_row) in w.chunks_exact(n).enumerate() {
            let w_strip: &[f32; STRIP] = w_row[j0..j0 + STRIP].try_into().expect("strip");
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let x = a[r * k + kk];
                for (o, &wv) in acc_r.iter_mut().zip(w_strip) {
                    *o += x * wv;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let o = &mut out[r * n + j0..r * n + j0 + STRIP];
            match bias {
                Some(b) => {
                    for ((o, &v), &bv) in o.iter_mut().zip(acc_r).zip(&b[j0..j0 + STRIP]) {
                        *o = v + bv;
                    }
                }
                None => o.copy_from_slice(acc_r),
            }
        }
        j0 += STRIP;
    }
    for j in j0..n {
        for r in 0..R {
            let mut acc = 0.0f32;
            for (kk, w_row) in w.chunks_exact(n).enumerate() {
                acc += a[r * k + kk] * w_row[j];
            }
            out[r * n + j] = bias.map_or(acc, |b| acc + b[j]);
        }
    }
}

/// The first `len` floats of a reusable buffer, lengthening it if it is
/// shorter. Never shrinks, so a scratch buffer stops allocating once it
/// has seen its largest use.
pub fn grow(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Integer dot product of two `i8` vectors with `i32` accumulation — the
/// inner kernel of the quantized candidate scan. Products are widened to
/// `i32` before summing, so no intermediate can overflow for any input
/// shorter than `2^16` elements (`127 * 127 * 65536 < i32::MAX`); the
/// embedding dimensions this workspace uses are orders of magnitude below
/// that.
///
/// The loop runs four independent accumulators so LLVM vectorizes it to
/// the widest integer SIMD the target supports (`pmaddwd`-style widening
/// on x86-64); exact integer arithmetic means the result is identical for
/// any split, so there is no serial/parallel bit-parity concern here.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
    let mut acc = [0i32; 4];
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for i in 0..4 {
            acc[i] += ca[i] as i32 * cb[i] as i32;
        }
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        total += x as i32 * y as i32;
    }
    total
}

/// Sum of an `i8` vector widened to `i32` — the per-vector correction term
/// of the affine quantized dot decomposition (computed once per quantized
/// vector, never in the scan loop).
pub fn sum_i8(a: &[i8]) -> i32 {
    a.iter().map(|&x| x as i32).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Deterministic pseudo-random fill, varied by seed.
        let data = (0..rows * cols)
            .map(|i| (i as f32 * 0.37 + seed as f32).sin() * 2.0)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// `matrix` with all but every seventh element zeroed.
    fn mostly_zero(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut a = matrix(rows, cols, seed);
        for (i, x) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 7 != 0 {
                *x = 0.0;
            }
        }
        a
    }

    fn assert_bits(got: &Matrix, want: &Matrix, ctx: &str) {
        assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
        for (i, (&x, &y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
        }
    }

    /// `(n, m, p)` for an `(n,m) x (m,p)` product: tile edges, a product
    /// of more than 12 rows (`20x64x32`) and the tape's weight gradient
    /// of a stacked segment operand (`752x8x32`).
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 4, 16),
        (5, 17, 33),
        (16, 16, 16),
        (20, 64, 32),
        (33, 65, 9),
        (64, 32, 48),
        (70, 70, 70),
        (752, 8, 32),
    ];

    #[test]
    fn matmul_matches_naive_bits_across_shapes() {
        for &(n, m, p) in SHAPES {
            let a = matrix(n, m, 1);
            let b = matrix(m, p, 2);
            assert_bits(
                &a.matmul(&b),
                &matmul_naive(&a, &b),
                &format!("{n}x{m}x{p}"),
            );
        }
    }

    #[test]
    fn sparse_operand_matches_naive_bits() {
        for &(n, m, p) in &[(40, 40, 40), (752, 8, 32), (20, 64, 32)] {
            let a = mostly_zero(n, m, 3);
            let b = matrix(m, p, 4);
            let naive = matmul_naive(&a, &b);
            assert_bits(&a.matmul(&b), &naive, &format!("sparse {n}x{m}x{p}"));
            assert_bits(
                &a.matmul_nt(&b.transpose()),
                &naive,
                &format!("sparse nt {n}x{m}x{p}"),
            );
            assert_bits(
                &a.transpose().matmul_tn(&b),
                &naive,
                &format!("sparse tn {n}x{m}x{p}"),
            );
        }
    }

    #[test]
    fn nt_matches_naive_on_transpose() {
        for &(n, m, p) in SHAPES {
            let a = matrix(n, m, 4);
            let bt = matrix(p, m, 5); // b = btᵀ
            let reference = matmul_naive(&a, &bt.transpose());
            assert_bits(&a.matmul_nt(&bt), &reference, &format!("nt {n}x{m}x{p}"));
        }
    }

    #[test]
    fn tn_matches_naive_on_transpose() {
        for &(n, m, p) in SHAPES {
            let at = matrix(m, n, 6); // a = atᵀ
            let b = matrix(m, p, 7);
            let reference = matmul_naive(&at.transpose(), &b);
            assert_bits(&at.matmul_tn(&b), &reference, &format!("tn {n}x{m}x{p}"));
        }
    }

    #[test]
    fn into_overwrites_stale_contents() {
        let a = matrix(6, 6, 8);
        let b = matrix(6, 6, 9);
        let mut out = Matrix::full(6, 6, f32::NAN);
        matmul_into(&mut out, &a, &b);
        assert!(!out.has_non_finite(), "stale NaNs must be overwritten");
        assert_bits(&out, &matmul_naive(&a, &b), "overwrite");
    }

    #[test]
    fn dot_i8_matches_scalar_reference() {
        for len in [0usize, 1, 3, 4, 7, 16, 63, 256] {
            let a: Vec<i8> = (0..len)
                .map(|i| ((i as i64 * 37 + 11) % 255 - 127) as i8)
                .collect();
            let b: Vec<i8> = (0..len)
                .map(|i| ((i as i64 * 91 + 5) % 255 - 127) as i8)
                .collect();
            let expect: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            assert_eq!(dot_i8(&a, &b), expect, "len {len}");
            let sum_expect: i32 = a.iter().map(|&x| x as i32).sum();
            assert_eq!(sum_i8(&a), sum_expect, "sum len {len}");
        }
    }

    #[test]
    fn dot_i8_extremes_do_not_overflow() {
        // Worst case magnitude at the longest vector the scan will see.
        let a = vec![-128i8; 4096];
        let b = vec![-128i8; 4096];
        assert_eq!(dot_i8(&a, &b), 128 * 128 * 4096);
        let c = vec![127i8; 4096];
        assert_eq!(dot_i8(&a, &c), -128 * 127 * 4096);
    }

    #[test]
    fn rows_matmul_rows_do_not_depend_on_their_neighbours() {
        // 7 rows x 5 inner x 37 cols: full and partial row tiles, full
        // strips and a ragged tail.
        let (rows, k, n) = (7, 5, 37);
        let a: Vec<f32> = (0..rows * k).map(|i| (i as f32 * 0.71).sin()).collect();
        let w: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect();
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.01).collect();
        let mut all = vec![0.0; rows * n];
        rows_matmul(&mut all, &a, &w, Some(&bias), k, n);
        for r in 0..rows {
            let mut one = vec![0.0; n];
            rows_matmul(&mut one, &a[r * k..(r + 1) * k], &w, Some(&bias), k, n);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&one), bits(&all[r * n..(r + 1) * n]), "row {r}");
            for j in 0..n {
                let want = (0..k).fold(0.0f32, |acc, kk| acc + a[r * k + kk] * w[kk * n + j]);
                let want = want + bias[j];
                assert_eq!(
                    one[j].to_bits(),
                    want.to_bits(),
                    "({r}, {j}): {} vs {want}",
                    one[j]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(2, 2);
        matmul_into(&mut out, &a, &b);
    }
}
