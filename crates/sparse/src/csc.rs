//! Compressed sparse column matrices.

use crate::SparseError;

/// A compressed-sparse-column (CSC) matrix.
///
/// CSC is the factorization format: the left-looking Gilbert–Peierls LU
/// consumes columns of `A` and produces the `L`/`U` factors column by
/// column.
///
/// Row indices within a column are strictly increasing (except inside the
/// growing LU factors, which manage their own ordering invariants).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// An empty `nrows × ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowidx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from raw CSC arrays, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] for ragged pointers or
    /// out-of-range / non-increasing row indices.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if colptr.len() != ncols + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "colptr length {} != ncols+1 = {}",
                colptr.len(),
                ncols + 1
            )));
        }
        if rowidx.len() != values.len() {
            return Err(SparseError::InvalidStructure(
                "rowidx/values length mismatch".into(),
            ));
        }
        if *colptr.first().expect("len>=1") != 0 || *colptr.last().expect("len>=1") != rowidx.len()
        {
            return Err(SparseError::InvalidStructure(
                "colptr endpoints invalid".into(),
            ));
        }
        for c in 0..ncols {
            if colptr[c] > colptr[c + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "colptr not monotone at column {c}"
                )));
            }
            let mut prev: Option<usize> = None;
            for &r in &rowidx[colptr[c]..colptr[c + 1]] {
                if r >= nrows {
                    return Err(SparseError::InvalidStructure(format!(
                        "row index {r} out of range in column {c}"
                    )));
                }
                if let Some(p) = prev {
                    if r <= p {
                        return Err(SparseError::InvalidStructure(format!(
                            "column {c} indices not strictly increasing"
                        )));
                    }
                }
                prev = Some(r);
            }
        }
        Ok(CscMatrix {
            nrows,
            ncols,
            colptr,
            rowidx,
            values,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    /// `true` for square matrices.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Column pointer array.
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row indices of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col_indices(&self, c: usize) -> &[usize] {
        &self.rowidx[self.colptr[c]..self.colptr[c + 1]]
    }

    /// Values of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col_values(&self, c: usize) -> &[f64] {
        &self.values[self.colptr[c]..self.colptr[c + 1]]
    }

    /// Value at `(r, c)`, `0.0` when not stored.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.nrows && c < self.ncols, "get out of bounds");
        match self.col_indices(c).binary_search(&r) {
            Ok(pos) => self.values[self.colptr[c] + pos],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec: length mismatch");
        let mut y = vec![0.0; self.nrows];
        for c in 0..self.ncols {
            let xc = x[c];
            if xc == 0.0 {
                continue;
            }
            for (idx, &r) in self.col_indices(c).iter().enumerate() {
                y[r] += self.values[self.colptr[c] + idx] * xc;
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn csc_from_csr_matches() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let c = a.to_csc();
        assert_eq!(c.nrows(), 2);
        assert_eq!(c.ncols(), 3);
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 2), 2.0);
        assert_eq!(c.get(1, 1), 3.0);
        assert_eq!(c.get(1, 0), 0.0);
    }

    #[test]
    fn csc_matvec_matches_csr() {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        );
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(a.to_csc().matvec(&x), a.matvec(&x));
    }

    #[test]
    fn validation_rejects_bad_input() {
        assert!(CscMatrix::from_raw_parts(2, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
        assert!(CscMatrix::from_raw_parts(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        assert!(CscMatrix::from_raw_parts(1, 1, vec![1, 1], vec![], vec![]).is_err());
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CscMatrix::zeros(4, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0; 4]), vec![0.0; 4]);
    }
}
