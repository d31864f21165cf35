//! Dense row-major matrix.

use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// The type intentionally exposes only the operations the solvers in this
/// crate need; it is not a general-purpose linear algebra library.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_vec",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// Returns an error if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "Matrix::from_rows",
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
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

    /// Returns the element at `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds (debug and release).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning its row-major data.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matvec",
                expected: self.cols,
                actual: v.len(),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *o = dot(row, v);
        }
        Ok(out)
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matmul",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order: stream through `other` rows for cache locality.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let other_row = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(other_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Computes the weighted Gram matrix `Xᵀ W X` where `W = diag(weights)`.
    ///
    /// `weights.len()` must equal `self.rows()`.
    ///
    /// Element `(i, j)` is the row-order sum of `(wᵣ·xᵣᵢ)·xᵣⱼ` over the
    /// rows with a non-zero weight, starting from `+0.0`. Rows are taken
    /// four at a time so each output row is loaded and stored once per
    /// block instead of once per sample; within a block the terms are
    /// still added one row after another, so every element sees the same
    /// operations in the same order as a one-row-at-a-time loop. A short
    /// last block is padded with an all-zero row of weight `0.0`, whose
    /// terms are `+0.0`. No term is skipped for a zero entry: with finite
    /// entries such a term is `±0.0`, and adding `±0.0` to a sum that
    /// started at `+0.0` (and so can never be `−0.0`) leaves it unchanged.
    pub fn weighted_gram(&self, weights: &[f64]) -> Result<Matrix> {
        if weights.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::weighted_gram",
                expected: self.rows,
                actual: weights.len(),
            });
        }
        let d = self.cols;
        let mut g = Matrix::zeros(d, d);
        let zero_row = vec![0.0; d];
        let mut block: [(&[f64], f64); 4] = [(&zero_row, 0.0); 4];
        let mut filled = 0;
        for (r, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            block[filled] = (self.row(r), w);
            filled += 1;
            if filled == block.len() {
                add_gram_block(&mut g.data, &block);
                filled = 0;
            }
        }
        if filled > 0 {
            block[filled..].fill((&zero_row, 0.0));
            add_gram_block(&mut g.data, &block);
        }
        // Mirror upper triangle to lower triangle.
        for i in 0..d {
            for j in (i + 1)..d {
                g.data[j * d + i] = g.data[i * d + j];
            }
        }
        Ok(g)
    }

    /// Computes `Xᵀ W y` where `W = diag(weights)`.
    pub fn weighted_xty(&self, weights: &[f64], y: &[f64]) -> Result<Vec<f64>> {
        if weights.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::weighted_xty(weights)",
                expected: self.rows,
                actual: weights.len(),
            });
        }
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::weighted_xty(y)",
                expected: self.rows,
                actual: y.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let wy = weights[r] * y[r];
            if wy == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += wy * x;
            }
        }
        Ok(out)
    }

    /// Appends a constant column of ones on the left (intercept column).
    pub fn with_intercept(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for r in 0..self.rows {
            out.data[r * (self.cols + 1)] = 1.0;
            out.data[r * (self.cols + 1) + 1..(r + 1) * (self.cols + 1)]
                .copy_from_slice(&self.data[r * self.cols..(r + 1) * self.cols]);
        }
        out
    }
}

/// Adds four weighted rows `(xᵣ, wᵣ)` to the upper triangle of the
/// `d × d` Gram `g` (`d` = row length), one row after another in block
/// order for every element.
fn add_gram_block(g: &mut [f64], block: &[(&[f64], f64); 4]) {
    let [(r0, w0), (r1, w1), (r2, w2), (r3, w3)] = *block;
    let d = r0.len();
    for i in 0..d {
        let (a0, a1, a2, a3) = (w0 * r0[i], w1 * r1[i], w2 * r2[i], w3 * r3[i]);
        let out = &mut g[i * d + i..(i + 1) * d];
        // Equal-length slices let the loop run without bounds checks.
        let len = out.len();
        let (x0, x1, x2, x3) = (
            &r0[i..][..len],
            &r1[i..][..len],
            &r2[i..][..len],
            &r3[i..][..len],
        );
        for j in 0..len {
            out[j] = out[j] + a0 * x0[j] + a1 * x1[j] + a2 * x2[j] + a3 * x3[j];
        }
    }
}

/// Dot product of two equally-long slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `a - b` element-wise.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Squared L2 norm.
#[inline]
pub fn norm_sq(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_values() {
        let m = Matrix::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let v = m.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(v, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_rejects_wrong_length() {
        let m = Matrix::zeros(2, 3);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_matches_manual_computation() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_vec(2, 2, vec![2.0, 1.0, 4.0, 3.0]).unwrap());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn weighted_gram_equals_explicit_product() {
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 0.5, -1.0, 2.0, 0.0]).unwrap();
        let w = [1.0, 2.0, 0.5];
        let g = x.weighted_gram(&w).unwrap();
        // Explicit: Xᵀ diag(w) X
        let mut wx = x.clone();
        for (r, &wr) in w.iter().enumerate() {
            for c in 0..2 {
                let v = wx.get(r, c) * wr;
                wx.set(r, c, v);
            }
        }
        let expected = x.transpose().matmul(&wx).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g.get(i, j) - expected.get(i, j)).abs() < 1e-12);
            }
        }
    }

    /// `weighted_gram` as a plain loop, one row at a time, skipping
    /// zero weights and zero `w·xᵢ` terms: the form the blocked version
    /// must reproduce bit for bit.
    fn reference_gram(x: &Matrix, weights: &[f64]) -> Matrix {
        let d = x.cols();
        let mut g = Matrix::zeros(d, d);
        for (r, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let row = x.row(r);
            for i in 0..d {
                let wi = w * row[i];
                if wi == 0.0 {
                    continue;
                }
                let g_row = &mut g.data[i * d..(i + 1) * d];
                for j in i..d {
                    g_row[j] += wi * row[j];
                }
            }
        }
        for i in 0..d {
            for j in (i + 1)..d {
                g.data[j * d + i] = g.data[i * d + j];
            }
        }
        g
    }

    #[test]
    fn blocked_gram_equals_the_row_loop_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x6A4);
        for case in 0..600 {
            let rows = rng.gen_range(0..=45);
            let cols = rng.gen_range(0..=13);
            // Zeros of both signs, centered-mask-like pairs of values,
            // and arbitrary magnitudes.
            let entry = |rng: &mut StdRng| match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0 - 0.375,
                3 => 0.0 - 0.375,
                4 => rng.gen_range(-1.0..1.0),
                _ => rng.gen_range(-1e6..1e6),
            };
            let data: Vec<f64> = (0..rows * cols).map(|_| entry(&mut rng)).collect();
            let x = Matrix::from_vec(rows, cols, data).unwrap();
            let weights: Vec<f64> = (0..rows)
                .map(|_| match rng.gen_range(0..5) {
                    0 => 0.0,
                    1 => 1.0,
                    2 => 1e-300 * rng.gen_range(0.0..1.0),
                    _ => rng.gen_range(0.0..1.0),
                })
                .collect();
            let blocked = x.weighted_gram(&weights).unwrap();
            let expected = reference_gram(&x, &weights);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&blocked),
                bits(&expected),
                "case {case}: {rows} x {cols}"
            );
        }
    }

    #[test]
    fn weighted_xty_matches_manual() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let out = x.weighted_xty(&[2.0, 3.0], &[5.0, 7.0]).unwrap();
        assert_eq!(out, vec![10.0, 21.0]);
    }

    #[test]
    fn with_intercept_prepends_ones() {
        let x = Matrix::from_vec(2, 1, vec![3.0, 4.0]).unwrap();
        let xi = x.with_intercept();
        assert_eq!(xi.row(0), &[1.0, 3.0]);
        assert_eq!(xi.row(1), &[1.0, 4.0]);
    }

    #[test]
    fn col_extracts_column() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }
}
