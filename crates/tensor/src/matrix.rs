//! Dense, row-major `f32` matrix — the storage type underneath every tensor
//! operation in the workspace.
//!
//! A [`Matrix`] is deliberately plain: shape plus a `Vec<f32>`. All neural
//! layers, the autograd tape, DTW, LSH signatures and chart rasters build on
//! it, so it favours predictable layout and zero hidden allocation over
//! cleverness.

use std::fmt;

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a 1xN row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an Nx1 column vector from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow one row mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Extract a column as a freshly allocated vector.
    pub fn column(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix product `self * other`, shapes `(n,m) x (m,p) -> (n,p)`.
    ///
    /// Runs on [`crate::kernels::rows_matmul`]: every element is the
    /// unfused `k`-ordered sum, the bits of [`crate::matmul_naive`].
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::kernels::matmul_into(&mut out, self, other);
        out
    }

    /// Matrix product written into caller-provided storage (overwritten),
    /// avoiding the per-op allocation of [`Matrix::matmul`]. `out` must be
    /// `(self.rows, other.cols)`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        crate::kernels::matmul_into(out, self, other);
    }

    /// `self * otherᵀ`, shapes `(n,m) x (p,m) -> (n,p)`: transposes
    /// `other` once. The gradient product `dL/dA = G · Bᵀ`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.matmul(&other.transpose())
    }

    /// `selfᵀ * other`, shapes `(m,n) x (m,p) -> (n,p)`: transposes `self`
    /// once. The gradient product `dL/dB = Aᵀ · G`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.transpose().matmul(other)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combination of two equal-shape matrices.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other` elementwise (axpy).
    pub fn add_scaled_assign(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign: shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by a scalar, in place.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Concatenates matrices vertically (all must share column count).
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows: column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Concatenates matrices horizontally (all must share row count).
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "concat_cols: row mismatch");
                out.data[r * cols + offset..r * cols + offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Copies rows `[r0, r1)` into a new matrix.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "slice_rows: range out of bounds"
        );
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Reshapes in place (element count must match).
    pub fn reshape(mut self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(
            rows * cols,
            self.data.len(),
            "reshape: element count mismatch"
        );
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Returns true if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn concat_rows_and_cols() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let v = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);

        let c = Matrix::from_vec(1, 1, vec![9.0]);
        let h = Matrix::concat_cols(&[&a, &c]);
        assert_eq!(h.shape(), (1, 3));
        assert_eq!(h.row(0), &[1.0, 2.0, 9.0]);
    }

    #[test]
    fn slice_rows_copies() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[3.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.frobenius_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.5, 3.5]);
        a.scale_assign(2.0);
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
