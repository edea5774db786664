//! Permutation vectors.

use crate::SparseError;

/// A permutation of `0..n`, stored as `perm[new_position] = old_index`.
///
/// Orderings return a `Permutation` whose `k`-th entry names the original
/// row/column that should come `k`-th in the reordered matrix.
///
/// # Example
///
/// ```
/// use matex_sparse::Permutation;
///
/// # fn main() -> Result<(), matex_sparse::SparseError> {
/// let p = Permutation::from_vec(vec![2, 0, 1])?;
/// assert_eq!(p.old_of(0), 2);
/// assert_eq!(p.inverse().as_slice(), &[1, 2, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Permutation {
            perm: (0..n).collect(),
        }
    }

    /// Validates and wraps a permutation vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] when `perm` is not a
    /// bijection of `0..perm.len()`.
    pub fn from_vec(perm: Vec<usize>) -> Result<Self, SparseError> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            if p >= n || seen[p] {
                return Err(SparseError::InvalidStructure(format!(
                    "not a permutation: entry {p} repeated or out of range"
                )));
            }
            seen[p] = true;
        }
        Ok(Permutation { perm })
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The underlying vector (`perm[new] = old`).
    pub fn as_slice(&self) -> &[usize] {
        &self.perm
    }

    /// Old index at new position `new`.
    ///
    /// # Panics
    ///
    /// Panics if `new >= len`.
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new]
    }

    /// The inverse permutation (`inv[old] = new`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.perm.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            inv[old] = new;
        }
        Permutation { perm: inv }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_applies_unchanged() {
        let p = Permutation::identity(3);
        assert_eq!(p.as_slice(), &[0, 1, 2]);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        let inv = p.inverse();
        for new in 0..4 {
            assert_eq!(inv.old_of(p.old_of(new)), new);
        }
        assert_eq!(inv.inverse(), p);
    }

    #[test]
    fn rejects_non_permutation() {
        assert!(Permutation::from_vec(vec![0, 0]).is_err());
        assert!(Permutation::from_vec(vec![0, 5]).is_err());
    }

    #[test]
    fn old_of_indexing() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        assert_eq!(p.old_of(0), 2);
        assert_eq!(p.inverse().old_of(2), 0);
    }
}
