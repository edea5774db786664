//! Sparse LU factorization (left-looking Gilbert–Peierls with partial
//! pivoting).
//!
//! This is the repo's replacement for UMFPACK, the direct solver the MATEX
//! paper builds on. The contract is the one every experiment in the paper
//! depends on: **factor once, then perform thousands of cheap pairs of
//! forward/backward substitutions** (`T_bs` in the paper's complexity
//! model). The factorization follows CSparse's `cs_lu` structure:
//!
//! 1. a fill-reducing *column* ordering `q` (AMD by default),
//! 2. for each column: a sparse triangular solve `x = L \ A[:, q(k)]`
//!    whose nonzero pattern is discovered by depth-first search (the
//!    Gilbert–Peierls reach), so the total work is proportional to the
//!    number of floating-point operations, not to `n`,
//! 3. threshold partial pivoting with diagonal preference.
//!
//! When many matrices share one nonzero pattern (the `C + γG` sweep),
//! the two-phase split in [`crate::SymbolicLu`] performs steps 1–2 once
//! and replays only the numeric updates per matrix.

use crate::{equilibrate, CsrMatrix, LuOptions, Permutation, SparseError};

/// Marker for "row not yet pivotal".
pub(crate) const UNPIVOTED: usize = usize::MAX;

/// A computed sparse LU factorization.
///
/// Represents `L·U = P·(Dr·A·Dc)·Q` where `P` is the row pivot
/// permutation, `Q` the fill-reducing column permutation and `Dr`/`Dc`
/// optional equilibration scalings.
///
/// # Example
///
/// ```
/// use matex_sparse::{CsrMatrix, SparseLu, LuOptions};
///
/// # fn main() -> Result<(), matex_sparse::SparseError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 1, 2.0)]);
/// let lu = SparseLu::factor(&a, &LuOptions::default())?;
/// let x = lu.solve(&[9.0, 4.0]);
/// assert!((x[0] - 1.75).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    pub(crate) n: usize,
    // L: unit lower triangular, pivot-order indices; the first entry of
    // every column is the unit diagonal. Fields are crate-visible so
    // `SymbolicLu::refactor` (symbolic.rs) can assemble a factorization
    // from a numeric replay.
    pub(crate) l_colptr: Vec<usize>,
    pub(crate) l_rowidx: Vec<usize>,
    pub(crate) l_values: Vec<f64>,
    // U: upper triangular, pivot-order indices; the last entry of every
    // column is the diagonal.
    pub(crate) u_colptr: Vec<usize>,
    pub(crate) u_rowidx: Vec<usize>,
    pub(crate) u_values: Vec<f64>,
    /// Row permutation: `pinv[original_row] = pivot_position`.
    pub(crate) pinv: Vec<usize>,
    /// Column ordering: position `k` factors original column `q.old_of(k)`.
    pub(crate) q: Permutation,
    /// Row scales (all 1.0 when equilibration is off).
    pub(crate) rscale: Vec<f64>,
    /// Column scales.
    pub(crate) cscale: Vec<f64>,
}

impl SparseLu {
    /// Factors a square CSR matrix.
    ///
    /// # Errors
    ///
    /// * [`SparseError::NotSquare`] for rectangular input.
    /// * [`SparseError::NotFinite`] for NaN/inf input.
    /// * [`SparseError::Singular`] when no acceptable pivot exists in some
    ///   column (structurally or numerically singular matrix).
    pub fn factor(a: &CsrMatrix, opts: &LuOptions) -> Result<Self, SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        if !a.is_finite() {
            return Err(SparseError::NotFinite);
        }
        let n = a.nrows();
        let (rscale, cscale) = if opts.equilibrate {
            equilibrate(a)
        } else {
            (vec![1.0; n], vec![1.0; n])
        };
        // CSC working copy. Cloning and rescaling the full matrix is only
        // worth it when some scale differs from 1.0 (equilibration off, or
        // an already well-scaled matrix): otherwise convert directly.
        let needs_scaling = rscale.iter().chain(cscale.iter()).any(|&s| s != 1.0);
        let acsc = if needs_scaling {
            let mut scaled = a.clone();
            scaled.scale_rows(&rscale);
            scaled.scale_cols(&cscale);
            scaled.to_csc()
        } else {
            a.to_csc()
        };
        let q = opts.ordering.order(a);

        let nnz_guess = (4 * a.nnz()).max(16 * n);
        let mut l_colptr = Vec::with_capacity(n + 1);
        let mut l_rowidx: Vec<usize> = Vec::with_capacity(nnz_guess);
        let mut l_values: Vec<f64> = Vec::with_capacity(nnz_guess);
        let mut u_colptr = Vec::with_capacity(n + 1);
        let mut u_rowidx: Vec<usize> = Vec::with_capacity(nnz_guess);
        let mut u_values: Vec<f64> = Vec::with_capacity(nnz_guess);
        let mut pinv = vec![UNPIVOTED; n];

        // Workspaces.
        let mut x = vec![0.0_f64; n];
        let mut pattern: Vec<usize> = Vec::with_capacity(n); // topological pattern
        let mut dfs_stack: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_ptr: Vec<usize> = Vec::with_capacity(n);
        let mut mark = vec![0u64; n];
        let mut generation = 0u64;

        for k in 0..n {
            l_colptr.push(l_rowidx.len());
            u_colptr.push(u_rowidx.len());
            let col = q.old_of(k);

            // --- Symbolic: reach of A[:, col] through L (DFS, postorder).
            generation += 1;
            pattern.clear();
            let (acol_rows, acol_vals) = (acsc.col_indices(col), acsc.col_values(col));
            for &seed in acol_rows {
                if mark[seed] == generation {
                    continue;
                }
                // Iterative DFS from `seed`.
                dfs_stack.clear();
                dfs_ptr.clear();
                dfs_stack.push(seed);
                dfs_ptr.push(0);
                mark[seed] = generation;
                while let Some(&node) = dfs_stack.last() {
                    let jcol = pinv[node];
                    let (start, end) = if jcol == UNPIVOTED {
                        (0, 0) // unpivoted rows have no L column yet
                    } else {
                        // Skip the unit-diagonal first entry.
                        (
                            l_colptr[jcol] + 1,
                            *l_colptr.get(jcol + 1).unwrap_or(&l_rowidx.len()),
                        )
                    };
                    let ptr = dfs_ptr.last_mut().expect("stack nonempty");
                    let mut descended = false;
                    while start + *ptr < end {
                        let child = l_rowidx[start + *ptr];
                        *ptr += 1;
                        if mark[child] != generation {
                            mark[child] = generation;
                            dfs_stack.push(child);
                            dfs_ptr.push(0);
                            descended = true;
                            break;
                        }
                    }
                    if !descended {
                        pattern.push(node);
                        dfs_stack.pop();
                        dfs_ptr.pop();
                    }
                }
            }
            // `pattern` is in postorder: descendants (larger pivot
            // positions) first. Numeric phase must go ancestors-first, so
            // iterate in reverse.

            // --- Numeric: x = L \ A[:, col] on the discovered pattern.
            for &i in pattern.iter() {
                x[i] = 0.0;
            }
            for (idx, &i) in acol_rows.iter().enumerate() {
                x[i] = acol_vals[idx];
            }
            for &j in pattern.iter().rev() {
                let jcol = pinv[j];
                if jcol == UNPIVOTED {
                    continue;
                }
                let xj = x[j];
                if xj == 0.0 {
                    continue;
                }
                let start = l_colptr[jcol] + 1;
                let end = *l_colptr.get(jcol + 1).unwrap_or(&l_rowidx.len());
                // Zipped slices instead of indexed access: one bounds
                // check per column, same operations in the same order.
                for (&r, &v) in l_rowidx[start..end].iter().zip(&l_values[start..end]) {
                    x[r] -= v * xj;
                }
            }

            // --- Pivot search among unpivoted rows.
            let mut best = 0.0_f64;
            let mut ipiv = UNPIVOTED;
            for &i in pattern.iter() {
                if pinv[i] == UNPIVOTED {
                    let v = x[i].abs();
                    if v > best {
                        best = v;
                        ipiv = i;
                    }
                }
            }
            if ipiv == UNPIVOTED || best == 0.0 || !best.is_finite() {
                return Err(SparseError::Singular { column: k });
            }
            // Diagonal preference: keep A(col, col) as pivot when it is
            // within `pivot_threshold` of the best magnitude.
            if pinv[col] == UNPIVOTED
                && x[col] != 0.0
                && x[col].abs() >= opts.pivot_threshold * best
            {
                ipiv = col;
            }
            let pivot = x[ipiv];

            // --- Emit column k of U (rows already pivotal) and L.
            for &i in pattern.iter() {
                if pinv[i] != UNPIVOTED {
                    u_rowidx.push(pinv[i]);
                    u_values.push(x[i]);
                }
            }
            u_rowidx.push(k);
            u_values.push(pivot);
            pinv[ipiv] = k;
            l_rowidx.push(ipiv); // unit diagonal, original index for now
            l_values.push(1.0);
            for &i in pattern.iter() {
                if pinv[i] == UNPIVOTED && x[i] != 0.0 {
                    l_rowidx.push(i);
                    l_values.push(x[i] / pivot);
                }
                x[i] = 0.0;
            }
        }
        l_colptr.push(l_rowidx.len());
        u_colptr.push(u_rowidx.len());
        // Remap L's row indices into pivot order.
        for r in l_rowidx.iter_mut() {
            *r = pinv[*r];
        }
        Ok(SparseLu {
            n,
            l_colptr,
            l_rowidx,
            l_values,
            u_colptr,
            u_rowidx,
            u_values,
            pinv,
            q,
            rscale,
            cscale,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in `L` (including unit diagonal).
    pub fn nnz_l(&self) -> usize {
        self.l_rowidx.len()
    }

    /// Stored entries in `U`.
    pub fn nnz_u(&self) -> usize {
        self.u_rowidx.len()
    }

    /// Fill factor `nnz(L + U) / nnz(A)` given the original nnz.
    pub fn fill_factor(&self, nnz_a: usize) -> f64 {
        (self.nnz_l() + self.nnz_u()) as f64 / nnz_a.max(1) as f64
    }

    /// Solves `A x = b` with one pair of forward/backward substitutions.
    ///
    /// This is the `T_bs` operation of the paper's complexity model — the
    /// unit in which both MATEX and the trapezoidal baselines are costed.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        let mut work = vec![0.0; self.n];
        self.solve_into(b, &mut out, &mut work);
        out
    }

    /// Allocation-free variant of [`SparseLu::solve`].
    ///
    /// `work` is scratch space; `out` receives the solution. All three
    /// slices must have the factored dimension.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], work: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "solve: b length mismatch");
        assert_eq!(out.len(), n, "solve: out length mismatch");
        assert_eq!(work.len(), n, "solve: work length mismatch");
        // work[pinv[i]] = rscale[i] * b[i]   (apply Dr and P)
        for i in 0..n {
            work[self.pinv[i]] = self.rscale[i] * b[i];
        }
        // Forward solve L y = work (unit diagonal first in each column).
        // Zipped slices in both scatter loops: one bounds check per
        // column instead of per entry, identical operation order.
        for j in 0..n {
            let xj = work[j];
            if xj == 0.0 {
                continue;
            }
            let range = (self.l_colptr[j] + 1)..self.l_colptr[j + 1];
            for (&r, &v) in self.l_rowidx[range.clone()]
                .iter()
                .zip(&self.l_values[range])
            {
                work[r] -= v * xj;
            }
        }
        // Backward solve U z = y (diagonal last in each column).
        for j in (0..n).rev() {
            let dpos = self.u_colptr[j + 1] - 1;
            let xj = work[j] / self.u_values[dpos];
            work[j] = xj;
            if xj == 0.0 {
                continue;
            }
            let range = self.u_colptr[j]..dpos;
            for (&r, &v) in self.u_rowidx[range.clone()]
                .iter()
                .zip(&self.u_values[range])
            {
                work[r] -= v * xj;
            }
        }
        // out[q[k]] = cscale[q[k]] * z[k]   (undo Q and Dc)
        for k in 0..n {
            let oc = self.q.old_of(k);
            out[oc] = self.cscale[oc] * work[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderingKind;

    fn solve_roundtrip(a: &CsrMatrix, opts: &LuOptions) -> f64 {
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b = a.matvec(&x_true);
        let lu = SparseLu::factor(a, opts).unwrap();
        let x = lu.solve(&b);
        x.iter()
            .zip(&x_true)
            .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()))
    }

    fn grid_laplacian(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |x: usize, y: usize| y * nx + x;
        let n = nx * ny;
        let mut t = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                t.push((idx(x, y), idx(x, y), 4.001));
                if x + 1 < nx {
                    t.push((idx(x, y), idx(x + 1, y), -1.0));
                    t.push((idx(x + 1, y), idx(x, y), -1.0));
                }
                if y + 1 < ny {
                    t.push((idx(x, y), idx(x, y + 1), -1.0));
                    t.push((idx(x, y + 1), idx(x, y), -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn dense_2x2() {
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        assert!(solve_roundtrip(&a, &LuOptions::default()) < 1e-12);
    }

    #[test]
    fn needs_row_pivoting() {
        // Zero diagonal: only solvable with pivoting.
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 1, 2.0),
                (1, 0, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 4.0),
            ],
        );
        assert!(solve_roundtrip(&a, &LuOptions::default()) < 1e-12);
    }

    #[test]
    fn grid_all_orderings_agree() {
        let a = grid_laplacian(11, 9);
        for ordering in [OrderingKind::Amd, OrderingKind::Rcm, OrderingKind::Natural] {
            let opts = LuOptions {
                ordering,
                ..LuOptions::default()
            };
            assert!(
                solve_roundtrip(&a, &opts) < 1e-9,
                "ordering {ordering:?} produced inaccurate solve"
            );
        }
    }

    #[test]
    fn amd_fill_below_natural_fill() {
        let a = grid_laplacian(20, 20);
        let amd = SparseLu::factor(
            &a,
            &LuOptions {
                ordering: OrderingKind::Amd,
                ..LuOptions::default()
            },
        )
        .unwrap();
        let nat = SparseLu::factor(
            &a,
            &LuOptions {
                ordering: OrderingKind::Natural,
                ..LuOptions::default()
            },
        )
        .unwrap();
        assert!(
            amd.nnz_l() + amd.nnz_u() < nat.nnz_l() + nat.nnz_u(),
            "amd fill {} !< natural fill {}",
            amd.nnz_l() + amd.nnz_u(),
            nat.nnz_l() + nat.nnz_u()
        );
    }

    #[test]
    fn singular_reports_column() {
        // Second column is zero.
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0)]);
        match SparseLu::factor(&a, &LuOptions::default()) {
            Err(SparseError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn rank_deficient_detected() {
        // Row 2 = 2 * row 0.
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        assert!(SparseLu::factor(&a, &LuOptions::default()).is_err());
    }

    #[test]
    fn extreme_scaling_solved_with_equilibration() {
        // Entries spanning 1e-18 .. 1e3 — the PDN regime.
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1e-18),
                (0, 1, 1e-15),
                (1, 0, 1e-15),
                (1, 1, 2e3),
                (1, 2, -1e3),
                (2, 1, -1e3),
                (2, 2, 1e3),
            ],
        );
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let x_true = vec![1.0, 2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = lu.solve(&b);
        for (p, q) in x.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-8 * q.abs().max(1.0), "{p} vs {q}");
        }
    }

    #[test]
    fn plain_solve_residual_is_at_rounding_level_on_a_grid() {
        let a = grid_laplacian(8, 8);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let ax = a.matvec(&lu.solve(&b));
        let resid = ax
            .iter()
            .zip(&b)
            .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()));
        let bnorm = b.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        assert!(resid < 1e-12 * bnorm, "{resid:.2e}");
    }

    #[test]
    fn fill_accounting_on_a_diagonal_matrix() {
        // No fill is possible: L holds its unit diagonal, U the pivots.
        let a =
            CsrMatrix::from_triplets(4, 4, &[(0, 0, 2.0), (1, 1, 3.0), (2, 2, 4.0), (3, 3, 5.0)]);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        assert_eq!(lu.dim(), 4);
        assert_eq!(lu.nnz_l(), 4);
        assert_eq!(lu.nnz_u(), 4);
        assert_eq!(lu.fill_factor(a.nnz()), 2.0);
        // An empty A does not divide by zero.
        assert_eq!(lu.fill_factor(0), 8.0);
        for x in lu.solve(&[2.0, 3.0, 4.0, 5.0]) {
            assert!((x - 1.0).abs() < 1e-15, "{x}");
        }
    }

    #[test]
    fn solve_into_overwrites_dirty_buffers() {
        // Reused buffers hold the previous right-hand side's values (here
        // NaN): every slot must be written before it is read.
        let a = grid_laplacian(6, 5);
        let n = a.nrows();
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let mut out = vec![f64::NAN; n];
        let mut work = vec![f64::NAN; n];
        for k in 0..3 {
            let b: Vec<f64> = (0..n).map(|i| ((i + k) as f64 * 0.4).cos()).collect();
            lu.solve_into(&b, &mut out, &mut work);
            assert_eq!(out, lu.solve(&b), "right-hand side {k}");
        }
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = grid_laplacian(5, 5);
        let b: Vec<f64> = (0..25).map(|i| i as f64 * 0.1).collect();
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let x = lu.solve(&b);
        let mut out = vec![0.0; 25];
        let mut work = vec![0.0; 25];
        lu.solve_into(&b, &mut out, &mut work);
        assert_eq!(x, out);
    }

    #[test]
    fn no_equilibration_skips_scaled_copy_and_still_solves() {
        // The direct-CSC fast path (no scaled clone) must give exactly the
        // same factorization as before: identical solves, pivot for pivot.
        let a = grid_laplacian(9, 7);
        let opts = LuOptions {
            equilibrate: false,
            ..LuOptions::default()
        };
        assert!(solve_roundtrip(&a, &opts) < 1e-9);
        // A well-scaled matrix takes the fast path under equilibration
        // too (all computed scales are 1.0) and must agree bitwise with
        // the unequilibrated factorization.
        let ones = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, -0.5), (1, 0, -0.25), (1, 1, 1.0)],
        );
        let lu_eq = SparseLu::factor(&ones, &LuOptions::default()).unwrap();
        let lu_raw = SparseLu::factor(&ones, &opts).unwrap();
        let b = [1.0, 2.0];
        assert_eq!(lu_eq.solve(&b), lu_raw.solve(&b));
    }

    #[test]
    fn not_square_rejected() {
        let a = CsrMatrix::zeros(2, 3);
        assert!(matches!(
            SparseLu::factor(&a, &LuOptions::default()),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn asymmetric_circuit_like_matrix() {
        // MNA-style: conductance block + incidence coupling (asymmetric
        // after scaling).
        let a = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (0, 3, 1.0),
                (1, 0, -1.0),
                (1, 1, 3.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 1.5),
                (3, 0, 1.0),
            ],
        );
        assert!(solve_roundtrip(&a, &LuOptions::default()) < 1e-10);
    }
}
