//! Dense LU factorization with partial pivoting.

use crate::{DMat, DenseError, Result};

/// LU factorization `P A = L U` of a square dense matrix, with partial
/// (row) pivoting.
///
/// Used by MATEX to invert and solve with the small Hessenberg matrices of
/// the inverted (`Hm = Ĥ⁻¹`) and rational (`Hm = (I − Ĥ⁻¹)/γ`) Krylov
/// variants, and inside the Padé matrix-exponential evaluation.
///
/// # Example
///
/// ```
/// use matex_dense::{DMat, DenseLu};
///
/// # fn main() -> Result<(), matex_dense::DenseError> {
/// let a = DMat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = DenseLu::factor(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseLu {
    /// Packed LU factors: strictly-lower part stores L (unit diagonal
    /// implied), upper triangle stores U.
    lu: DMat,
    /// Row permutation: step k swapped rows k and `piv[k]`.
    piv: Vec<usize>,
    /// Sign of the permutation (±1), for determinants.
    sign: f64,
}

impl DenseLu {
    /// Factorizes `a` as `P A = L U`.
    ///
    /// # Errors
    ///
    /// * [`DenseError::NotSquare`] when `a` is rectangular.
    /// * [`DenseError::NotFinite`] when `a` contains NaN/inf.
    /// * [`DenseError::SingularPivot`] when a pivot is exactly zero
    ///   (numerically tiny pivots are kept: callers such as `expm` rely on
    ///   solving with very ill-conditioned matrices).
    pub fn factor(a: &DMat) -> Result<Self> {
        if !a.is_square() {
            return Err(DenseError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        if !a.is_finite() {
            return Err(DenseError::NotFinite);
        }
        let mut lu = a.clone();
        let mut piv = Vec::with_capacity(a.nrows());
        let sign = factor_core(&mut lu, &mut piv)?;
        Ok(DenseLu { lu, piv, sign })
    }

    /// Re-factorizes `a` in place, reusing this factorization's storage:
    /// zero heap allocations when the dimension is unchanged. The factors
    /// are bit-for-bit what [`DenseLu::factor`] produces.
    ///
    /// # Errors
    ///
    /// As [`DenseLu::factor`]. On error this factorization is left in an
    /// unusable state — callers must not solve with it until a later
    /// `refactor` succeeds.
    pub fn refactor(&mut self, a: &DMat) -> Result<()> {
        if !a.is_square() {
            return Err(DenseError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        if !a.is_finite() {
            return Err(DenseError::NotFinite);
        }
        if self.lu.nrows() == a.nrows() {
            self.lu.copy_from(a);
        } else {
            self.lu = a.clone();
        }
        self.piv.clear();
        self.sign = factor_core(&mut self.lu, &mut self.piv)?;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`DenseError::ShapeMismatch`] when `b.len()` differs from the
    /// factored dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(DenseError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Solves `A x = b` in place (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the factored dimension.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "solve_in_place: length mismatch");
        // Apply P.
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                x.swap(k, p);
            }
        }
        // Forward: L y = P b (unit lower).
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s;
        }
        // Backward: U x = y.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s / self.lu[(i, i)];
        }
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`DenseError::ShapeMismatch`] when `B.nrows()` differs from
    /// the factored dimension.
    pub fn solve_mat(&self, b: &DMat) -> Result<DMat> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(DenseError::ShapeMismatch {
                left: (n, n),
                right: (b.nrows(), b.ncols()),
            });
        }
        let mut x = DMat::zeros(n, b.ncols());
        let mut col = vec![0.0; n];
        for j in 0..b.ncols() {
            for (i, c) in col.iter_mut().enumerate() {
                *c = b[(i, j)];
            }
            self.solve_in_place(&mut col);
            x.set_col(j, &col);
        }
        Ok(x)
    }

    /// The inverse matrix `A⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`DenseLu::solve_mat`]; cannot fail for
    /// a successfully factored matrix.
    pub fn inverse(&self) -> Result<DMat> {
        self.solve_mat(&DMat::identity(self.dim()))
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Magnitude of the smallest pivot — a cheap singularity indicator.
    pub fn min_pivot(&self) -> f64 {
        (0..self.dim())
            .map(|i| self.lu[(i, i)].abs())
            .fold(f64::INFINITY, f64::min)
    }
}

/// The Gilbert-style right-looking elimination shared by
/// [`DenseLu::factor`] and [`DenseLu::refactor`]: factors `lu` in place,
/// fills `piv`, and returns the permutation sign.
fn factor_core(lu: &mut DMat, piv: &mut Vec<usize>) -> Result<f64> {
    let n = lu.nrows();
    let mut sign = 1.0;
    for k in 0..n {
        // Partial pivoting: pick the largest magnitude entry in column k.
        let mut p = k;
        let mut best = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        piv.push(p);
        if p != k {
            lu.swap_rows(p, k);
            sign = -sign;
        }
        let pivot = lu[(k, k)];
        if pivot == 0.0 {
            return Err(DenseError::SingularPivot { column: k });
        }
        for i in (k + 1)..n {
            let m = lu[(i, k)] / pivot;
            lu[(i, k)] = m;
            if m != 0.0 {
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= m * ukj;
                }
            }
        }
    }
    Ok(sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm_inf;

    fn residual(a: &DMat, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        norm_inf(&ax.iter().zip(b).map(|(p, q)| p - q).collect::<Vec<_>>())
    }

    #[test]
    fn solve_3x3() {
        let a = DMat::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]);
        let b = [4.0, 5.0, 6.0];
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DMat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_errors() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(DenseError::SingularPivot { column: 1 })
        ));
    }

    #[test]
    fn rectangular_errors() {
        let a = DMat::zeros(2, 3);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(DenseError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn non_finite_errors() {
        let mut a = DMat::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(DenseLu::factor(&a), Err(DenseError::NotFinite)));
    }

    #[test]
    fn det_of_permutation_like() {
        // det([[0,1],[1,0]]) = -1
        let a = DMat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = DenseLu::factor(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn det_of_diag() {
        let a = DMat::from_diag(&[2.0, 3.0, 4.0]);
        assert!((DenseLu::factor(&a).unwrap().det() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = DMat::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = DenseLu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&DMat::identity(2)) < 1e-12);
    }

    #[test]
    fn solve_mat_matches_columnwise_solve() {
        let a = DMat::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = DMat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve_mat(&b).unwrap();
        let c0 = lu.solve(&b.col(0)).unwrap();
        assert_eq!(x.col(0), c0);
    }

    #[test]
    fn refactor_matches_factor_bitwise() {
        let a = DMat::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]);
        let b = DMat::from_rows(&[&[0.0, 1.0, -4.0], &[7.0, 0.5, 2.0], &[1.0, 1.0, 1.0]]);
        let mut lu = DenseLu::factor(&a).unwrap();
        lu.refactor(&b).unwrap();
        let fresh = DenseLu::factor(&b).unwrap();
        assert_eq!(lu.piv, fresh.piv);
        assert_eq!(lu.sign, fresh.sign);
        for (p, q) in lu.lu.as_slice().iter().zip(fresh.lu.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // Dimension change falls back to fresh storage.
        let c = DMat::from_diag(&[2.0, 3.0]);
        lu.refactor(&c).unwrap();
        let x = lu.solve(&[2.0, 6.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn solve_wrong_len_errors() {
        let lu = DenseLu::factor(&DMat::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }
}
