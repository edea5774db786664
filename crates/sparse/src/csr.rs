//! Compressed sparse row matrices.

use crate::{CooMatrix, SparseError};
use matex_dense::DMat;

/// A compressed-sparse-row (CSR) matrix.
///
/// CSR is MATEX's primary operand format: the conductance `G`, capacitance
/// `C` and input-selector `B` matrices are assembled once and then used for
/// mat-vecs (`C v` inside rational/inverted Arnoldi) and for building the
/// shifted combinations `C + γG` and `C/h + G/2` that get factorized.
///
/// Row indices within each row are strictly increasing; explicit zeros are
/// allowed (pattern placeholders).
///
/// # Example
///
/// ```
/// use matex_sparse::CsrMatrix;
///
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)]);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An empty `nrows × ncols` matrix (all zeros).
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds from raw CSR arrays, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] when pointers are ragged,
    /// indices are out of range, or row indices are not strictly increasing.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        // `nrows + 1` would overflow for a hostile `nrows`.
        if indptr.len().checked_sub(1) != Some(nrows) {
            return Err(SparseError::InvalidStructure(format!(
                "indptr length {} != nrows+1 for nrows = {nrows}",
                indptr.len(),
            )));
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidStructure(
                "indices/values length mismatch".into(),
            ));
        }
        if *indptr.first().expect("len>=1") != 0 || *indptr.last().expect("len>=1") != indices.len()
        {
            return Err(SparseError::InvalidStructure(
                "indptr endpoints invalid".into(),
            ));
        }
        // All pointers before any row is sliced: with the endpoints
        // checked, monotone pointers keep every row inside `indices`.
        if let Some(r) = indptr.windows(2).position(|p| p[0] > p[1]) {
            return Err(SparseError::InvalidStructure(format!(
                "indptr not monotone at row {r}"
            )));
        }
        for r in 0..nrows {
            let mut prev: Option<usize> = None;
            for &c in &indices[indptr[r]..indptr[r + 1]] {
                if c >= ncols {
                    return Err(SparseError::InvalidStructure(format!(
                        "column index {c} out of range in row {r}"
                    )));
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::InvalidStructure(format!(
                            "row {r} indices not strictly increasing"
                        )));
                    }
                }
                prev = Some(c);
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Convenience constructor from triplets (duplicates summed).
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut coo = CooMatrix::with_capacity(nrows, ncols, triplets.len());
        for &(r, c, v) in triplets {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (including explicit zeros).
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `true` for square matrices.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Row pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_indices(&self, r: usize) -> &[usize] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_values(&self, r: usize) -> &[f64] {
        &self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Mutable values of row `r` (pattern is immutable).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_values_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Value at `(r, c)`, `0.0` when not stored.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.nrows && c < self.ncols, "get out of bounds");
        match self.row_indices(r).binary_search(&c) {
            Ok(pos) => self.values[self.indptr[r] + pos],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product writing into an existing buffer. Each row
    /// is one zipped dot (one bounds check per row) in stored entry
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "matvec: y length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let range = self.indptr[r]..self.indptr[r + 1];
            let mut s = 0.0;
            for (&c, &v) in self.indices[range.clone()].iter().zip(&self.values[range]) {
                s += v * x[c];
            }
            *yr = s;
        }
    }

    /// Linear combination `alpha·A + beta·B` with merged patterns.
    ///
    /// This is how MATEX builds `C + γG` (rational Krylov) and
    /// `C/h + G/2` (trapezoidal) from the assembled MNA matrices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] when shapes differ.
    pub fn linear_combination(
        alpha: f64,
        a: &CsrMatrix,
        beta: f64,
        b: &CsrMatrix,
    ) -> Result<CsrMatrix, SparseError> {
        if a.nrows != b.nrows || a.ncols != b.ncols {
            return Err(SparseError::ShapeMismatch {
                left: (a.nrows, a.ncols),
                right: (b.nrows, b.ncols),
            });
        }
        let mut indptr = Vec::with_capacity(a.nrows + 1);
        let mut indices = Vec::with_capacity(a.nnz() + b.nnz());
        let mut values = Vec::with_capacity(a.nnz() + b.nnz());
        indptr.push(0);
        for r in 0..a.nrows {
            let (ai, av) = (a.row_indices(r), a.row_values(r));
            let (bi, bv) = (b.row_indices(r), b.row_values(r));
            let (mut p, mut q) = (0, 0);
            while p < ai.len() || q < bi.len() {
                let ca = ai.get(p).copied().unwrap_or(usize::MAX);
                let cb = bi.get(q).copied().unwrap_or(usize::MAX);
                if ca < cb {
                    indices.push(ca);
                    values.push(alpha * av[p]);
                    p += 1;
                } else if cb < ca {
                    indices.push(cb);
                    values.push(beta * bv[q]);
                    q += 1;
                } else {
                    indices.push(ca);
                    values.push(alpha * av[p] + beta * bv[q]);
                    p += 1;
                    q += 1;
                }
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            nrows: a.nrows,
            ncols: a.ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Returns `a·self` as a new matrix.
    pub fn scaled(&self, a: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in out.values.iter_mut() {
            *v *= a;
        }
        out
    }

    /// Densifies (small matrices only; intended for tests/diagnostics).
    pub fn to_dense(&self) -> DMat {
        let mut d = DMat::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for (idx, &c) in self.row_indices(r).iter().enumerate() {
                d[(r, c)] = self.values[self.indptr[r] + idx];
            }
        }
        d
    }

    /// The structural pattern of `A + Aᵀ` (for ordering algorithms),
    /// as adjacency lists *excluding* the diagonal.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetric_adjacency(&self) -> Vec<Vec<usize>> {
        assert!(self.is_square(), "symmetric_adjacency requires square");
        let n = self.nrows;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for r in 0..n {
            for &c in self.row_indices(r) {
                if r != c {
                    adj[r].push(c);
                    adj[c].push(r);
                }
            }
        }
        for l in adj.iter_mut() {
            l.sort_unstable();
            l.dedup();
        }
        adj
    }

    /// `true` when all values are finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
    }

    #[test]
    fn matvec_known() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0, 9.0]);
    }

    #[test]
    fn matvec_into_overwrites_a_dirty_output() {
        let a = sample();
        let mut y = vec![f64::NAN; 3];
        a.matvec_into(&[1.0, -2.0, 0.5], &mut y);
        assert_eq!(y, a.matvec(&[1.0, -2.0, 0.5]));
        assert_eq!(y, vec![2.0, -6.0, 6.5]);
    }

    #[test]
    fn raw_parts_with_pointers_past_the_entries_are_rejected() {
        // A middle pointer beyond the entries (endpoints valid) must be
        // an error before any row is sliced, not an index panic.
        let bad = CsrMatrix::from_raw_parts(2, 2, vec![0, 9, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(bad, Err(SparseError::InvalidStructure(_))));
        let huge_rows = CsrMatrix::from_raw_parts(usize::MAX, 1, vec![0], vec![], vec![]);
        assert!(matches!(huge_rows, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn get_missing_is_zero() {
        let a = sample();
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
    }

    #[test]
    fn linear_combination_matches_dense() {
        let a = sample();
        let b = CsrMatrix::identity(3);
        let c = CsrMatrix::linear_combination(2.0, &a, -1.0, &b).unwrap();
        let d = &a.to_dense().scaled(2.0) - &b.to_dense();
        assert!(c.to_dense().max_abs_diff(&d) < 1e-15);
    }

    #[test]
    fn linear_combination_shape_mismatch() {
        let a = CsrMatrix::zeros(2, 2);
        let b = CsrMatrix::zeros(3, 3);
        assert!(CsrMatrix::linear_combination(1.0, &a, 1.0, &b).is_err());
    }

    #[test]
    fn symmetric_adjacency_of_asymmetric_pattern() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (2, 0, 1.0)]);
        let adj = a.symmetric_adjacency();
        assert_eq!(adj[0], vec![1, 2]);
        assert_eq!(adj[1], vec![0]);
        assert_eq!(adj[2], vec![0]);
    }

    #[test]
    fn from_raw_parts_validation() {
        // Out-of-range column.
        assert!(CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        // Non-increasing columns.
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // Bad indptr.
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn identity_matvec() {
        let i = CsrMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x);
    }
}
