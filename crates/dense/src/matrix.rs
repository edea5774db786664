//! Row-major dense matrix type.

use crate::{DenseError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major `f64` matrix.
///
/// `DMat` is the workhorse for all *projected* (small) computations in
/// MATEX: Hessenberg matrices from Arnoldi, their inverses, and matrix
/// exponentials. Sizes are typically below a few hundred, so the
/// implementation favours clarity and numerical robustness over blocking.
///
/// # Example
///
/// ```
/// use matex_dense::DMat;
///
/// let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = vec![1.0, 1.0];
/// assert_eq!(a.matvec(&x), vec![3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct DMat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Creates an `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DMat {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        DMat { nrows, ncols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(nrows: usize, ncols: usize, mut f: F) -> Self {
        let mut m = DMat::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                m.data[i * ncols + j] = f(i, j);
            }
        }
        m
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = DMat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Borrow of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Overwrites this matrix with `src` (same shape, no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, src: &DMat) {
        assert_eq!(
            (self.nrows, self.ncols),
            (src.nrows, src.ncols),
            "copy_from: shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.nrows, "row index out of bounds");
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Column `j` copied into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.ncols, "column index out of bounds");
        (0..self.nrows)
            .map(|i| self.data[i * self.ncols + j])
            .collect()
    }

    /// Overwrites column `j` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds or `v.len() != nrows`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert!(j < self.ncols, "column index out of bounds");
        assert_eq!(v.len(), self.nrows, "set_col: length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self.data[i * self.ncols + j] = x;
        }
    }

    /// Swaps rows `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.nrows && b < self.nrows, "row index out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.ncols);
        head[lo * self.ncols..(lo + 1) * self.ncols].swap_with_slice(&mut tail[..self.ncols]);
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec: length mismatch");
        let mut y = vec![0.0; self.nrows];
        for i in 0..self.nrows {
            let row = &self.data[i * self.ncols..(i + 1) * self.ncols];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`DenseError::ShapeMismatch`] when `self.ncols != b.nrows`.
    pub fn matmul(&self, b: &DMat) -> Result<DMat> {
        if self.ncols != b.nrows {
            return Err(DenseError::ShapeMismatch {
                left: (self.nrows, self.ncols),
                right: (b.nrows, b.ncols),
            });
        }
        let mut c = DMat::zeros(self.nrows, b.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self.data[i * self.ncols + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.ncols..(k + 1) * b.ncols];
                let crow = &mut c.data[i * b.ncols..(i + 1) * b.ncols];
                for (cij, bkj) in crow.iter_mut().zip(brow) {
                    *cij += aik * bkj;
                }
            }
        }
        Ok(c)
    }

    /// Matrix product `A B` written into `out` (no allocation).
    ///
    /// Performs bit-for-bit the arithmetic of [`DMat::matmul`] — the
    /// same skip-zero inner loop in the same order — so into-style
    /// callers (the expm scratch kernels) produce identical results.
    ///
    /// # Panics
    ///
    /// Panics when `self.ncols != b.nrows` or `out` is not
    /// `self.nrows × b.ncols`.
    pub fn matmul_into(&self, b: &DMat, out: &mut DMat) {
        assert_eq!(self.ncols, b.nrows, "matmul_into: inner dim mismatch");
        assert_eq!(
            (out.nrows, out.ncols),
            (self.nrows, b.ncols),
            "matmul_into: output shape mismatch"
        );
        out.data.fill(0.0);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self.data[i * self.ncols + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.ncols..(k + 1) * b.ncols];
                let crow = &mut out.data[i * b.ncols..(i + 1) * b.ncols];
                for (cij, bkj) in crow.iter_mut().zip(brow) {
                    *cij += aik * bkj;
                }
            }
        }
    }

    /// Transpose as a new matrix.
    pub fn transpose(&self) -> DMat {
        let mut t = DMat::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t.data[j * self.nrows + i] = self.data[i * self.ncols + j];
            }
        }
        t
    }

    /// Returns `a·self` as a new matrix.
    pub fn scaled(&self, a: f64) -> DMat {
        DMat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|v| a * v).collect(),
        }
    }

    /// Writes `a·self` into `out` (same shape, no allocation).
    ///
    /// Bit-for-bit the arithmetic of [`DMat::scaled`].
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn scaled_into(&self, a: f64, out: &mut DMat) {
        assert_eq!(
            (self.nrows, self.ncols),
            (out.nrows, out.ncols),
            "scaled_into: shape mismatch"
        );
        for (o, v) in out.data.iter_mut().zip(&self.data) {
            *o = a * v;
        }
    }

    /// One-norm (maximum absolute column sum).
    pub fn norm_one(&self) -> f64 {
        let mut best = 0.0_f64;
        for j in 0..self.ncols {
            let s: f64 = (0..self.nrows)
                .map(|i| self.data[i * self.ncols + j].abs())
                .sum();
            best = best.max(s);
        }
        best
    }

    /// Infinity-norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Largest absolute entry-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &DMat) -> f64 {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "max_abs_diff: shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// `true` when all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for DMat {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for DMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        &mut self.data[i * self.ncols + j]
    }
}

impl Add for &DMat {
    type Output = DMat;

    fn add(self, rhs: &DMat) -> DMat {
        assert_eq!(
            (self.nrows, self.ncols),
            (rhs.nrows, rhs.ncols),
            "add: shape mismatch"
        );
        DMat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &DMat {
    type Output = DMat;

    fn sub(self, rhs: &DMat) -> DMat {
        assert_eq!(
            (self.nrows, self.ncols),
            (rhs.nrows, rhs.ncols),
            "sub: shape mismatch"
        );
        DMat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &DMat {
    type Output = DMat;

    fn mul(self, rhs: f64) -> DMat {
        self.scaled(rhs)
    }
}

impl Neg for &DMat {
    type Output = DMat;

    fn neg(self) -> DMat {
        self.scaled(-1.0)
    }
}

impl fmt::Debug for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMat {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:>12.5e}", self[(i, j)])?;
                if j + 1 < self.ncols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.ncols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.nrows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let i3 = DMat::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(i3.matvec(&x), x);
    }

    #[test]
    fn matmul_known_product() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, DMat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = DMat::zeros(2, 3);
        let b = DMat::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(DenseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = DMat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn norms_on_known_matrix() {
        let a = DMat::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(a.norm_one(), 6.0); // col 1: 1+3=4, col 2: 2+4=6
        assert_eq!(a.norm_inf(), 7.0); // row 2: 3+4=7
    }

    #[test]
    fn swap_rows_swaps() {
        let mut a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.swap_rows(0, 1);
        assert_eq!(a, DMat::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]));
        a.swap_rows(1, 1); // no-op
        assert_eq!(a.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn operators_work() {
        let a = DMat::identity(2);
        let b = DMat::from_diag(&[2.0, 3.0]);
        assert_eq!((&a + &b)[(0, 0)], 3.0);
        assert_eq!((&b - &a)[(1, 1)], 2.0);
        assert_eq!((&a * 4.0)[(1, 1)], 4.0);
        assert_eq!((-&b)[(0, 0)], -2.0);
    }

    #[test]
    fn col_roundtrip() {
        let mut a = DMat::zeros(3, 2);
        a.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(a.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.col(0), vec![0.0; 3]);
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise() {
        let a = DMat::from_rows(&[&[1.0, 0.0, 2.5], &[-0.3, 4.0, 0.0]]);
        let b = DMat::from_rows(&[&[0.1, 7.0], &[0.0, -2.0], &[3.0, 0.25]]);
        let alloc = a.matmul(&b).unwrap();
        let mut out = DMat::zeros(2, 2);
        a.matmul_into(&b, &mut out);
        for (p, q) in alloc.as_slice().iter().zip(out.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn scaled_into_matches_scaled_bitwise() {
        let a = DMat::from_rows(&[&[1.0, -2.0], &[0.3, 4.0]]);
        let alloc = a.scaled(0.37);
        let mut out = DMat::zeros(2, 2);
        a.scaled_into(0.37, &mut out);
        for (p, q) in alloc.as_slice().iter().zip(out.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn copy_from_copies() {
        let a = DMat::from_diag(&[1.0, 2.0]);
        let mut b = DMat::zeros(2, 2);
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", DMat::zeros(1, 1));
        assert!(s.contains("DMat 1x1"));
    }
}
