//! Property tests for the matmul kernel layer: `matmul`, `matmul_into`
//! and the transposed-layout variants run one unfused, `k`-ordered kernel,
//! so they must give the naive triple-loop reference's exact bits across
//! rectangular, sparse and degenerate shapes.

use lcdd_tensor::{matmul_naive, Matrix};
use proptest::prelude::*;

/// Elementwise bit equality.
fn assert_bits(fast: &Matrix, reference: &Matrix, ctx: &str) {
    assert_eq!(fast.shape(), reference.shape(), "{ctx}: shape mismatch");
    for (i, (&x, &y)) in fast.as_slice().iter().zip(reference.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: element {i}: kernel {x} vs naive {y}"
        );
    }
}

fn matrix_from(vals: &[f32], rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_matches_naive_rectangular(
        n in 1usize..40,
        m in 1usize..40,
        p in 1usize..40,
        vals in collection::vec(-2.0f32..2.0, 40 * 40 * 2),
    ) {
        let a = matrix_from(&vals, n, m);
        let b = matrix_from(&vals[40 * 40..], m, p);
        assert_bits(&a.matmul(&b), &matmul_naive(&a, &b), &format!("{n}x{m}x{p}"));
    }

    #[test]
    fn matmul_into_scratch_reuse_matches(
        n in 1usize..24,
        m in 1usize..24,
        p in 1usize..24,
        vals in collection::vec(-2.0f32..2.0, 24 * 24 * 2),
    ) {
        let a = matrix_from(&vals, n, m);
        let b = matrix_from(&vals[24 * 24..], m, p);
        // Scratch arrives dirty; the kernel must fully overwrite it.
        let mut scratch = Matrix::full(n, p, f32::NAN);
        a.matmul_into(&b, &mut scratch);
        assert_bits(&scratch, &matmul_naive(&a, &b), "scratch reuse");
    }

    #[test]
    fn nt_and_tn_match_explicit_transposes(
        n in 1usize..20,
        m in 1usize..20,
        p in 1usize..20,
        vals in collection::vec(-2.0f32..2.0, 20 * 20 * 2),
    ) {
        let a = matrix_from(&vals, n, m);
        let bt = matrix_from(&vals[20 * 20..], p, m);
        assert_bits(&a.matmul_nt(&bt), &matmul_naive(&a, &bt.transpose()), "nt");
        let at = matrix_from(&vals, m, n);
        let b = matrix_from(&vals[20 * 20..], m, p);
        assert_bits(&at.matmul_tn(&b), &matmul_naive(&at.transpose(), &b), "tn");
    }

    #[test]
    fn sparse_inputs_match_naive(
        n in 1usize..32,
        vals in collection::vec(0.0f32..1.0, 32 * 32),
        dense_vals in collection::vec(-2.0f32..2.0, 32 * 32),
    ) {
        // ~92% zeros: a zero term must not be skipped or reordered.
        let sparse: Vec<f32> = vals[..n * n]
            .iter()
            .map(|&v| if v > 0.92 { v } else { 0.0 })
            .collect();
        let a = Matrix::from_vec(n, n, sparse);
        let b = matrix_from(&dense_vals, n, n);
        assert_bits(&a.matmul(&b), &matmul_naive(&a, &b), "sparse A");
    }
}

#[test]
fn degenerate_shapes() {
    // Zero-sized operands in every position must produce empty (or zero)
    // outputs rather than panicking.
    let a00 = Matrix::zeros(0, 0);
    assert_eq!(a00.matmul(&a00).shape(), (0, 0));

    let a = Matrix::zeros(0, 5);
    let b = Matrix::from_vec(5, 3, vec![1.0; 15]);
    assert_eq!(a.matmul(&b).shape(), (0, 3));

    let a = Matrix::from_vec(3, 0, vec![]);
    let b = Matrix::zeros(0, 4);
    let out = a.matmul(&b);
    assert_eq!(out.shape(), (3, 4));
    assert!(
        out.as_slice().iter().all(|&x| x == 0.0),
        "empty inner dim sums to zero"
    );

    let a = Matrix::from_vec(1, 1, vec![3.0]);
    let b = Matrix::from_vec(1, 1, vec![-2.0]);
    assert_eq!(a.matmul(&b).as_slice(), &[-6.0]);
}

#[test]
fn column_vector_and_row_vector_products() {
    let col = Matrix::col_vector(&[1.0, 2.0, 3.0]);
    let row = Matrix::row_vector(&[4.0, 5.0]);
    let outer = col.matmul(&row);
    assert_eq!(outer.shape(), (3, 2));
    assert_eq!(outer.as_slice(), &[4.0, 5.0, 8.0, 10.0, 12.0, 15.0]);
    let inner = row.matmul(&Matrix::col_vector(&[6.0, 7.0]));
    assert_eq!(inner.as_slice(), &[59.0]);
}

#[test]
fn large_sizes_match_naive_bits() {
    // Sizes well past any register tile, square and the tape's stacked
    // weight-gradient shape (752 rows, 8 inner, 32 out).
    for &(n, m, p) in &[(64usize, 64usize, 64usize), (192, 192, 192), (752, 8, 32)] {
        let a = Matrix::from_vec(
            n,
            m,
            (0..n * m)
                .map(|i| ((i * 37 + 11) % 101) as f32 / 50.0 - 1.0)
                .collect(),
        );
        let b = Matrix::from_vec(
            m,
            p,
            (0..m * p)
                .map(|i| ((i * 53 + 29) % 97) as f32 / 48.0 - 1.0)
                .collect(),
        );
        assert_bits(
            &a.matmul(&b),
            &matmul_naive(&a, &b),
            &format!("{n}x{m}x{p}"),
        );
    }
}
