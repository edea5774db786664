//! Coordinate-format (triplet) sparse matrix builder.

use crate::CsrMatrix;

/// A coordinate-format sparse matrix accumulator.
///
/// This is the assembly format used by MNA stamping: elements push
/// `(row, col, value)` triplets and duplicates are *summed* on conversion,
/// exactly matching how conductance/capacitance stamps accumulate.
///
/// # Example
///
/// ```
/// use matex_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 1.0);
/// coo.push(0, 0, 2.0); // duplicate: summed
/// coo.push(1, 1, 5.0);
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// assert_eq!(csr.get(1, 1), 5.0);
/// assert_eq!(csr.nnz(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty accumulator with the given dimensions.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty accumulator with reserved triplet capacity.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Adds `value` at `(row, col)`; duplicates are summed at conversion.
    ///
    /// Zero values are kept (they may pin structure for later refactoring).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.nrows && col < self.ncols,
            "coo push out of bounds: ({row},{col}) in {}x{}",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col, value));
    }

    /// Converts to CSR, summing duplicate entries. Explicit zeros that
    /// result from cancellation are retained to keep the pattern stable.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row, then sort each row segment by column and
        // merge duplicates.
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &(r, _, _) in &self.entries {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut order: Vec<usize> = vec![0; self.entries.len()];
        let mut next = row_counts.clone();
        for (idx, &(r, _, _)) in self.entries.iter().enumerate() {
            order[next[r]] = idx;
            next[r] += 1;
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        indptr.push(0);
        let mut rowbuf: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            rowbuf.clear();
            for &idx in &order[row_counts[r]..row_counts[r + 1]] {
                let (_, c, v) = self.entries[idx];
                rowbuf.push((c, v));
            }
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < rowbuf.len() {
                let c = rowbuf[i].0;
                let mut v = rowbuf[i].1;
                let mut j = i + 1;
                while j < rowbuf.len() && rowbuf[j].0 == c {
                    v += rowbuf[j].1;
                    j += 1;
                }
                indices.push(c);
                values.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(self.nrows, self.ncols, indptr, indices, values)
            .expect("COO conversion produces valid CSR by construction")
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    fn extend<T: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: T) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::new(3, 3);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 3);
    }

    #[test]
    fn duplicates_summed_in_order_independent_way() {
        let mut a = CooMatrix::new(2, 2);
        a.push(1, 0, 1.5);
        a.push(0, 1, 2.0);
        a.push(1, 0, -0.5);
        let csr = a.to_csr();
        assert_eq!(csr.get(1, 0), 1.0);
        assert_eq!(csr.get(0, 1), 2.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn cancellation_keeps_structure() {
        let mut a = CooMatrix::new(1, 1);
        a.push(0, 0, 1.0);
        a.push(0, 0, -1.0);
        let csr = a.to_csr();
        assert_eq!(csr.nnz(), 1); // explicit zero retained
        assert_eq!(csr.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_panics_out_of_bounds() {
        CooMatrix::new(1, 1).push(0, 5, 1.0);
    }

    #[test]
    fn extend_collects_triplets() {
        let mut a = CooMatrix::new(2, 2);
        a.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        let csr = a.to_csr();
        assert_eq!((csr.get(0, 0), csr.get(1, 1)), (1.0, 2.0));
    }

    #[test]
    fn rows_sorted_by_column() {
        let mut a = CooMatrix::new(1, 4);
        a.push(0, 3, 3.0);
        a.push(0, 1, 1.0);
        a.push(0, 2, 2.0);
        let csr = a.to_csr();
        assert_eq!(csr.row_indices(0), &[1, 2, 3]);
        assert_eq!(csr.row_values(0), &[1.0, 2.0, 3.0]);
    }
}
