//! Two-phase (symbolic/numeric) sparse LU, KLU-style.
//!
//! The MATEX hot paths factor many matrices that share one nonzero
//! pattern: `C + γG` across a γ sweep, `C/h + G/2` across adaptive-TR
//! step changes, and the same shifted system on every distributed node.
//! [`SparseLu::factor`] redoes the fill-reducing ordering, the
//! Gilbert–Peierls reach DFS and all allocations on each call, even
//! though none of those depend on the numeric values.
//!
//! [`SymbolicLu::analyze`] pays for that sparsity analysis once: it runs
//! one factorization of a representative matrix while recording
//!
//! * the fill-reducing column ordering `q`,
//! * the **structural** reach of every column (the DFS postorder, kept
//!   even for entries that happen to be numerically zero, so the pattern
//!   is valid for *any* matrix with the same stored structure),
//! * the pivot order chosen by threshold partial pivoting, which is
//!   *pinned* for later replays,
//! * exact `L`/`U` size bounds and a CSR→CSC gather map, so a replay
//!   performs no per-column allocation and no format conversion.
//!
//! [`SymbolicLu::refactor`] then replays only the numeric updates into
//! the recorded pattern. On this fast path the floating-point operations
//! are performed in exactly the order `SparseLu::factor` would use, so —
//! absent exact numerical cancellation, which would alter `factor`'s own
//! value-dependent reach — **the resulting factors are bitwise identical
//! to a fresh full factorization**. Each column's pivot choice is
//! re-verified against the pinned order; if threshold pivoting would now
//! choose a different row, or the pinned pivot magnitude has degraded
//! below `opts.pivot_tol` of the column maximum, the replay abandons the
//! pinned order and falls back to a fresh [`SparseLu::factor`] (which is
//! also what keeps the fallback path bitwise-faithful).
//!
//! # Example
//!
//! ```
//! use matex_sparse::{CsrMatrix, LuOptions, SparseLu, SymbolicLu};
//!
//! # fn main() -> Result<(), matex_sparse::SparseError> {
//! let c = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1e-12), (1, 1, 2e-12)]);
//! let g = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)]);
//! // Analyze once on a representative shift...
//! let shifted = CsrMatrix::linear_combination(1.0, &c, 1e-10, &g)?;
//! let symbolic = SymbolicLu::analyze(&shifted, &LuOptions::default())?;
//! // ...then every other γ reuses the analysis: numeric replay only.
//! for gamma in [1e-11, 1e-10, 1e-9] {
//!     let m = CsrMatrix::linear_combination(1.0, &c, gamma, &g)?;
//!     let fast = symbolic.refactor(&m)?;
//!     let full = SparseLu::factor(&m, &LuOptions::default())?;
//!     assert_eq!(fast.solve(&[1.0, 1.0]), full.solve(&[1.0, 1.0]));
//! }
//! # Ok(())
//! # }
//! ```

use crate::lu::{eliminate, gather_scaled, UNPIVOTED};
use crate::{equilibrate, CsrMatrix, LuOptions, Permutation, SparseError, SparseLu};
use crate::{WireError, WireReader, WireWriter};

/// The reusable symbolic phase of a sparse LU factorization.
///
/// Produced by [`SymbolicLu::analyze`]; consumed (read-only, so it can be
/// shared across threads) by [`SymbolicLu::refactor`] /
/// [`SymbolicLu::try_refactor`] for every matrix with the same nonzero
/// pattern. See the module-level docs for the contract.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    opts: LuOptions,
    /// Fill-reducing column ordering from the analysis.
    q: Permutation,
    /// Pinned row permutation: `pinv[original_row] = pivot_position`.
    pinv: Vec<usize>,
    /// Inverse of `pinv`: the original row pinned as pivot of column `k`.
    pivot_row: Vec<usize>,
    /// Column `k`'s structural reach, pre-split by pivotal state so the
    /// replay runs branch-free. `piv_*` holds the rows already pivotal
    /// when column `k` factors (in DFS postorder, paired with their
    /// pivot positions — the future `U` row indices, which are also the
    /// `L` columns the numeric update consumes in reverse order);
    /// `low_rows` holds the then-unpivoted rows (the pivot candidates,
    /// including the pinned pivot itself) in the same postorder.
    piv_ptr: Vec<usize>,
    piv_rows: Vec<usize>,
    piv_cols: Vec<usize>,
    low_ptr: Vec<usize>,
    low_rows: Vec<usize>,
    /// Structural entry counts (upper bounds for the numeric factors).
    lnnz: usize,
    unnz: usize,
    /// CSR pattern of the analyzed matrix, for refactor validation.
    a_indptr: Vec<usize>,
    a_indices: Vec<usize>,
    /// CSC structure of that pattern plus the CSR-position → CSC-position
    /// gather map, so a replay reads `A`'s columns without a conversion.
    csc_colptr: Vec<usize>,
    csc_rowidx: Vec<usize>,
    csr_to_csc: Vec<usize>,
}

impl SymbolicLu {
    /// Analyzes the sparsity structure of `a` (ordering, reach, pivot
    /// order) by running one recording factorization.
    ///
    /// # Errors
    ///
    /// * [`SparseError::NotSquare`] for rectangular input.
    /// * [`SparseError::NotFinite`] for NaN/inf input.
    /// * [`SparseError::Singular`] when no acceptable pivot exists in
    ///   some column of the analysis matrix.
    pub fn analyze(a: &CsrMatrix, opts: &LuOptions) -> Result<Self, SparseError> {
        Self::analyze_with_factor(a, opts).map(|(sym, _)| sym)
    }

    /// Like [`SymbolicLu::analyze`], but also returns the numeric
    /// factorization of `a` itself — the analysis computes every value
    /// anyway, so callers that need `a`'s factors (the first
    /// factorization of a sweep) get them without paying a second pass.
    ///
    /// # Errors
    ///
    /// As [`SymbolicLu::analyze`].
    pub fn analyze_with_factor(
        a: &CsrMatrix,
        opts: &LuOptions,
    ) -> Result<(Self, SparseLu), SparseError> {
        let (factor, rec) = eliminate::<true>(a, opts)?;
        let mut a_indices = Vec::with_capacity(a.nnz());
        for r in 0..factor.n {
            a_indices.extend_from_slice(a.row_indices(r));
        }
        let symbolic = SymbolicLu {
            n: factor.n,
            opts: opts.clone(),
            q: factor.q.clone(),
            pinv: factor.pinv.clone(),
            pivot_row: rec.pivot_row,
            piv_ptr: rec.piv_ptr,
            piv_rows: rec.piv_rows,
            piv_cols: rec.piv_cols,
            low_ptr: rec.low_ptr,
            // The structural L holds each column's unpivoted reach.
            lnnz: rec.low_rows.len(),
            low_rows: rec.low_rows,
            unnz: factor.nnz_u(),
            a_indptr: a.indptr().to_vec(),
            a_indices,
            csc_colptr: rec.csc_colptr,
            csc_rowidx: rec.csc_rowidx,
            csr_to_csc: rec.csr_to_csc,
        };
        Ok((symbolic, factor))
    }

    /// Dimension of the analyzed pattern.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The options the analysis was performed with (reused by the
    /// fallback full factorization).
    pub fn options(&self) -> &LuOptions {
        &self.opts
    }

    /// Structural entry count of `L` (including the unit diagonal).
    pub fn nnz_l(&self) -> usize {
        self.lnnz
    }

    /// Structural entry count of `U` (including the diagonal).
    pub fn nnz_u(&self) -> usize {
        self.unnz
    }

    /// Predicted fill `nnz(L) + nnz(U)` of this ordering — the quantity
    /// fill-reducing orderings compete on (see `ordering::amd` tests).
    pub fn fill_nnz(&self) -> usize {
        self.lnnz + self.unnz
    }

    /// Numerically refactors `a` (same pattern as the analyzed matrix)
    /// by replaying the recorded reach under the pinned pivot order.
    ///
    /// Returns `Ok(None)` when the pinned pivot order is no longer what
    /// threshold pivoting would choose for `a`'s values (or a pinned
    /// pivot degraded below `pivot_tol`, or a column went singular):
    /// the caller should fall back to a full factorization —
    /// [`SymbolicLu::refactor`] does exactly that.
    ///
    /// # Errors
    ///
    /// * [`SparseError::NotFinite`] for NaN/inf input.
    /// * [`SparseError::ShapeMismatch`] / [`SparseError::InvalidStructure`]
    ///   when `a`'s pattern differs from the analyzed pattern.
    pub fn try_refactor(&self, a: &CsrMatrix) -> Result<Option<SparseLu>, SparseError> {
        self.check_pattern(a)?;
        if !a.is_finite() {
            return Err(SparseError::NotFinite);
        }
        let n = self.n;
        let nnz = self.csc_rowidx.len();
        let (rscale, cscale) = if self.opts.equilibrate {
            equilibrate(a)
        } else {
            (vec![1.0; n], vec![1.0; n])
        };
        let mut csc_values = vec![0.0; nnz];
        gather_scaled(a, &rscale, &cscale, &self.csr_to_csc, &mut csc_values);

        // Exact preallocation from the structural counts: the numeric
        // factors are subsets (explicit zeros are dropped, as in
        // `SparseLu::factor`), so no push below ever reallocates.
        let mut l_colptr: Vec<usize> = Vec::with_capacity(n + 1);
        let mut l_rowidx: Vec<usize> = Vec::with_capacity(self.lnnz);
        let mut l_values: Vec<f64> = Vec::with_capacity(self.lnnz);
        let mut u_colptr: Vec<usize> = Vec::with_capacity(n + 1);
        let mut u_rowidx: Vec<usize> = Vec::with_capacity(self.unnz);
        let mut u_values: Vec<f64> = Vec::with_capacity(self.unnz);
        // Every pattern entry is cleared when its column is emitted, so
        // `x` stays all-zero between columns — no per-column clear pass.
        let mut x = vec![0.0_f64; n];

        for k in 0..n {
            l_colptr.push(l_rowidx.len());
            u_colptr.push(u_rowidx.len());
            let col = self.q.old_of(k);
            let piv = self.piv_ptr[k]..self.piv_ptr[k + 1];
            let low = &self.low_rows[self.low_ptr[k]..self.low_ptr[k + 1]];

            // --- Numeric replay on the recorded pattern (no DFS). The
            // arithmetic runs in exactly `SparseLu::factor`'s order: the
            // pivotal reach in reverse postorder, each consuming its
            // already-built L column.
            for p in self.csc_colptr[col]..self.csc_colptr[col + 1] {
                x[self.csc_rowidx[p]] = csc_values[p];
            }
            for idx in piv.clone().rev() {
                let xj = x[self.piv_rows[idx]];
                if xj == 0.0 {
                    continue;
                }
                let jcol = self.piv_cols[idx];
                let (start, end) = (l_colptr[jcol] + 1, l_colptr[jcol + 1]);
                // Zipped slices instead of indexed access: one bounds
                // check per column, same operations in the same order.
                for (&r, &v) in l_rowidx[start..end].iter().zip(&l_values[start..end]) {
                    x[r] -= v * xj;
                }
            }

            // --- Pivot verification: replay the search over the pivot
            // candidates and require it to land on the pinned row, so
            // the fast path stays bitwise equal to a fresh
            // factorization.
            let mut best = 0.0_f64;
            let mut ipiv = UNPIVOTED;
            for &i in low {
                let v = x[i].abs();
                if v > best {
                    best = v;
                    ipiv = i;
                }
            }
            if ipiv == UNPIVOTED || best == 0.0 || !best.is_finite() {
                // (Near-)singular under the pinned order: let the full
                // factorization produce the canonical error or recover.
                return Ok(None);
            }
            if self.pinv[col] >= k
                && x[col] != 0.0
                && x[col].abs() >= self.opts.pivot_threshold * best
            {
                ipiv = col;
            }
            let pinned = self.pivot_row[k];
            if ipiv != pinned || x[pinned].abs() < self.opts.pivot_tol * best {
                return Ok(None);
            }
            let pivot = x[ipiv];

            // --- Emit column k exactly as `SparseLu::factor` does
            // (values in the same postorder; row indices already in
            // pivot order via the pinned permutation).
            for idx in piv {
                let i = self.piv_rows[idx];
                u_rowidx.push(self.piv_cols[idx]);
                u_values.push(x[i]);
                x[i] = 0.0;
            }
            u_rowidx.push(k);
            u_values.push(pivot);
            // L keeps *original* row indices while columns are being
            // consumed by later updates (which index `x` by original
            // row); the pivot-order remap happens once at the end, as in
            // `SparseLu::factor`.
            l_rowidx.push(pinned);
            l_values.push(1.0);
            for &i in low {
                if i != pinned && x[i] != 0.0 {
                    l_rowidx.push(i);
                    l_values.push(x[i] / pivot);
                }
                x[i] = 0.0;
            }
        }
        l_colptr.push(l_rowidx.len());
        u_colptr.push(u_rowidx.len());
        for r in l_rowidx.iter_mut() {
            *r = self.pinv[*r];
        }
        Ok(Some(SparseLu {
            n,
            l_colptr,
            l_rowidx,
            l_values,
            u_colptr,
            u_rowidx,
            u_values,
            pinv: self.pinv.clone(),
            q: self.q.clone(),
            rscale,
            cscale,
        }))
    }

    /// Numerically refactors `a`, falling back to a fresh
    /// [`SparseLu::factor`] when the pinned pivot order degrades (see
    /// [`SymbolicLu::try_refactor`]). Either way the result is the
    /// factorization `SparseLu::factor(a, self.options())` would
    /// produce.
    ///
    /// # Errors
    ///
    /// Propagates [`SymbolicLu::try_refactor`] errors, plus
    /// [`SparseError::Singular`] from the fallback factorization.
    pub fn refactor(&self, a: &CsrMatrix) -> Result<SparseLu, SparseError> {
        match self.try_refactor(a)? {
            Some(lu) => Ok(lu),
            None => SparseLu::factor(a, &self.opts),
        }
    }

    /// Validates that `a` has exactly the analyzed nonzero pattern.
    fn check_pattern(&self, a: &CsrMatrix) -> Result<(), SparseError> {
        if a.nrows() != self.n || a.ncols() != self.n {
            return Err(SparseError::ShapeMismatch {
                left: (self.n, self.n),
                right: (a.nrows(), a.ncols()),
            });
        }
        if a.indptr() != self.a_indptr.as_slice() {
            return Err(SparseError::InvalidStructure(
                "refactor: row pointers differ from the analyzed pattern".into(),
            ));
        }
        for r in 0..self.n {
            let range = self.a_indptr[r]..self.a_indptr[r + 1];
            if a.row_indices(r) != &self.a_indices[range] {
                return Err(SparseError::InvalidStructure(format!(
                    "refactor: row {r} indices differ from the analyzed pattern"
                )));
            }
        }
        Ok(())
    }

    /// Appends the full analysis (ordering, pinned pivots, reach,
    /// pattern, gather maps) to `w` for the artifact store. A decoded
    /// analysis replays [`SymbolicLu::refactor`] bitwise-identically to
    /// the one that was encoded.
    pub fn wire_encode(&self, w: &mut WireWriter) {
        w.usize(self.n);
        self.opts.wire_encode(w);
        self.q.wire_encode(w);
        w.usizes(&self.pinv);
        w.usizes(&self.pivot_row);
        w.usizes(&self.piv_ptr);
        w.usizes(&self.piv_rows);
        w.usizes(&self.piv_cols);
        w.usizes(&self.low_ptr);
        w.usizes(&self.low_rows);
        w.usize(self.lnnz);
        w.usize(self.unnz);
        w.usizes(&self.a_indptr);
        w.usizes(&self.a_indices);
        w.usizes(&self.csc_colptr);
        w.usizes(&self.csc_rowidx);
        w.usizes(&self.csr_to_csc);
    }

    /// Decodes an analysis previously written by
    /// [`SymbolicLu::wire_encode`], re-validating the shapes the replay
    /// kernels index through.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or inconsistent shapes.
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.usize()?;
        let sym = SymbolicLu {
            n,
            opts: LuOptions::wire_decode(r)?,
            q: Permutation::wire_decode(r)?,
            pinv: r.usizes()?,
            pivot_row: r.usizes()?,
            piv_ptr: r.usizes()?,
            piv_rows: r.usizes()?,
            piv_cols: r.usizes()?,
            low_ptr: r.usizes()?,
            low_rows: r.usizes()?,
            lnnz: r.usize()?,
            unnz: r.usize()?,
            a_indptr: r.usizes()?,
            a_indices: r.usizes()?,
            csc_colptr: r.usizes()?,
            csc_rowidx: r.usizes()?,
            csr_to_csc: r.usizes()?,
        };
        let bad = |m: &str| Err(WireError::Invalid(m.to_string()));
        // Lengths first: `n` is bounded by a decoded vector before any
        // `n + 1` is formed.
        if sym.q.len() != n || sym.pinv.len() != n || sym.pivot_row.len() != n {
            return bad("symbolic permutation vectors have the wrong length");
        }
        // The pinned pivots: a row permutation and its inverse.
        if Permutation::from_vec(sym.pinv.clone()).is_err()
            || (0..n).any(|i| sym.pivot_row[sym.pinv[i]] != i)
        {
            return bad("symbolic pivot order is not a permutation");
        }
        let nnz = sym.a_indices.len();
        if !covers(&sym.piv_ptr, n, sym.piv_rows.len())
            || !covers(&sym.low_ptr, n, sym.low_rows.len())
            || !covers(&sym.a_indptr, n, nnz)
            || !covers(&sym.csc_colptr, n, nnz)
        {
            return bad("symbolic pointers are inconsistent");
        }
        // Every row index the replay follows lands in `x`; every
        // pivotal reach entry names an earlier column, its row's pivot.
        if sym.piv_cols.len() != sym.piv_rows.len()
            || sym.low_rows.iter().any(|&i| i >= n)
            || (0..n).any(|k| {
                (sym.piv_ptr[k]..sym.piv_ptr[k + 1]).any(|idx| {
                    let i = sym.piv_rows[idx];
                    i >= n || sym.piv_cols[idx] != sym.pinv[i] || sym.piv_cols[idx] >= k
                })
            })
        {
            return bad("symbolic reach is inconsistent");
        }
        // The replay preallocates these: `L` holds each column's
        // unpivoted reach (the pinned pivot included), `U` its pivotal
        // reach plus the diagonal.
        if sym.lnnz != sym.low_rows.len() || sym.piv_rows.len().checked_add(n) != Some(sym.unnz) {
            return bad("symbolic structural counts disagree with the reach");
        }
        if sym.csc_rowidx.len() != nnz
            || sym.csr_to_csc.len() != nnz
            || sym.a_indices.iter().chain(&sym.csc_rowidx).any(|&i| i >= n)
            || sym.csr_to_csc.iter().any(|&p| p >= nnz)
        {
            return bad("symbolic pattern/gather maps are inconsistent");
        }
        Ok(sym)
    }
}

/// `true` when `ptr` is a pointer array over `n` segments of a
/// `len`-entry vector: `n + 1` entries from 0, monotone, ending at `len`.
fn covers(ptr: &[usize], n: usize, len: usize) -> bool {
    ptr.len() == n + 1 && ptr[0] == 0 && ptr.windows(2).all(|p| p[0] <= p[1]) && ptr[n] == len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderingKind;

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

    /// Same pattern, different values: multiply every stored value by a
    /// position-dependent positive factor.
    fn revalued(a: &CsrMatrix, seed: f64) -> CsrMatrix {
        let mut b = a.clone();
        for r in 0..b.nrows() {
            for v in b.row_values_mut(r) {
                *v *= 1.0 + 0.25 * ((*v + seed).sin()).abs();
            }
        }
        b
    }

    fn assert_same_factorization(x: &SparseLu, y: &SparseLu, a: &CsrMatrix) {
        assert_eq!(x.nnz_l(), y.nnz_l());
        assert_eq!(x.nnz_u(), y.nnz_u());
        let encoded = |lu: &SparseLu| {
            let mut w = WireWriter::new();
            lu.wire_encode(&mut w);
            w.into_bytes()
        };
        assert!(encoded(x) == encoded(y), "encoded factors differ");
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 4.0).collect();
        assert_eq!(x.solve(&b), y.solve(&b));
    }

    #[test]
    fn refactor_matches_factor_on_grid() {
        let a = grid_laplacian(9, 8);
        for ordering in [OrderingKind::Amd, OrderingKind::Rcm, OrderingKind::Natural] {
            let opts = LuOptions {
                ordering,
                ..LuOptions::default()
            };
            let sym = SymbolicLu::analyze(&a, &opts).unwrap();
            let mut fast_paths = 0usize;
            // Seed 2.5 weakens diagonal dominance enough to change the
            // pivot sequence on some orderings — the fallback path; the
            // result must be indistinguishable either way.
            for seed in [0.0, 1.0, 2.5] {
                let b = revalued(&a, seed);
                fast_paths += usize::from(sym.try_refactor(&b).unwrap().is_some());
                let lu = sym.refactor(&b).unwrap();
                let full = SparseLu::factor(&b, &opts).unwrap();
                assert_same_factorization(&lu, &full, &b);
            }
            assert!(
                fast_paths >= 2,
                "{ordering:?}: expected the replay fast path on most value fills"
            );
        }
    }

    #[test]
    fn uniform_rescaling_always_takes_fast_path() {
        // A global scale factor preserves every pivot comparison, so the
        // pinned order must replay without fallback.
        let a = grid_laplacian(8, 6);
        let sym = SymbolicLu::analyze(&a, &LuOptions::default()).unwrap();
        for scale in [1.0, 3.0, 1e-9, 4096.0] {
            let mut b = a.clone();
            for r in 0..b.nrows() {
                for v in b.row_values_mut(r) {
                    *v *= scale;
                }
            }
            let fast = sym
                .try_refactor(&b)
                .unwrap()
                .expect("uniform scaling keeps pinned pivots");
            let full = SparseLu::factor(&b, &LuOptions::default()).unwrap();
            assert_same_factorization(&fast, &full, &b);
        }
    }

    #[test]
    fn analyze_with_factor_matches_full_factor() {
        let a = grid_laplacian(7, 6);
        for ordering in [OrderingKind::Amd, OrderingKind::Natural] {
            let opts = LuOptions {
                ordering,
                ..LuOptions::default()
            };
            let (sym, factored) = SymbolicLu::analyze_with_factor(&a, &opts).unwrap();
            let full = SparseLu::factor(&a, &opts).unwrap();
            assert_same_factorization(&factored, &full, &a);
            // The bundled factor equals what a replay would produce.
            let replay = sym.refactor(&a).unwrap();
            assert_same_factorization(&factored, &replay, &a);
        }
    }

    #[test]
    fn structural_counts_bound_numeric_counts() {
        let a = grid_laplacian(7, 7);
        let sym = SymbolicLu::analyze(&a, &LuOptions::default()).unwrap();
        let lu = sym.refactor(&a).unwrap();
        assert!(lu.nnz_l() <= sym.nnz_l());
        assert!(lu.nnz_u() <= sym.nnz_u());
        assert_eq!(sym.fill_nnz(), sym.nnz_l() + sym.nnz_u());
        assert_eq!(sym.dim(), 49);
    }

    #[test]
    fn degraded_pivot_falls_back_to_full_factor() {
        // Natural ordering, no equilibration: full control over pivots.
        let opts = LuOptions {
            ordering: OrderingKind::Natural,
            equilibrate: false,
            ..LuOptions::default()
        };
        let a = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 10.0)],
        );
        let sym = SymbolicLu::analyze(&a, &opts).unwrap();
        // Diagonal collapses: threshold pivoting must now pick row 1 in
        // column 0, so the pinned order is invalid.
        let b = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1e-9), (0, 1, 1.0), (1, 0, 5.0), (1, 1, 10.0)],
        );
        assert!(sym.try_refactor(&b).unwrap().is_none());
        let fast = sym.refactor(&b).unwrap();
        let full = SparseLu::factor(&b, &opts).unwrap();
        assert_same_factorization(&fast, &full, &b);
    }

    #[test]
    fn pattern_mismatch_rejected() {
        let a = grid_laplacian(4, 4);
        let sym = SymbolicLu::analyze(&a, &LuOptions::default()).unwrap();
        let wrong_shape = grid_laplacian(4, 5);
        assert!(matches!(
            sym.try_refactor(&wrong_shape),
            Err(SparseError::ShapeMismatch { .. })
        ));
        let wrong_pattern = CsrMatrix::identity(16);
        assert!(matches!(
            sym.try_refactor(&wrong_pattern),
            Err(SparseError::InvalidStructure(_))
        ));
    }

    #[test]
    fn singular_values_reported_via_fallback() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let sym = SymbolicLu::analyze(&a, &LuOptions::default()).unwrap();
        let mut b = a.clone();
        b.row_values_mut(1)[0] = 0.0; // second column all zero
        assert!(sym.try_refactor(&b).unwrap().is_none());
        assert!(matches!(
            sym.refactor(&b),
            Err(SparseError::Singular { .. })
        ));
    }

    #[test]
    fn analyze_rejects_bad_input() {
        assert!(matches!(
            SymbolicLu::analyze(&CsrMatrix::zeros(2, 3), &LuOptions::default()),
            Err(SparseError::NotSquare { .. })
        ));
        let nan = CsrMatrix::from_triplets(1, 1, &[(0, 0, f64::NAN)]);
        assert!(matches!(
            SymbolicLu::analyze(&nan, &LuOptions::default()),
            Err(SparseError::NotFinite)
        ));
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let a = CsrMatrix::zeros(0, 0);
        let sym = SymbolicLu::analyze(&a, &LuOptions::default()).unwrap();
        let lu = sym.refactor(&a).unwrap();
        assert_eq!(lu.dim(), 0);
        assert!(lu.solve(&[]).is_empty());
    }

    #[test]
    fn column_solve_handles_zero_rhs_and_refactored_factors() {
        // A zero right-hand side takes every zero-skip branch; a replayed
        // factorization must solve its own values, not the analysis'.
        let a = grid_laplacian(12, 12);
        let n = a.nrows();
        let sym = SymbolicLu::analyze(&a, &LuOptions::default()).unwrap();
        let m = revalued(&a, 1.0);
        let lu = sym.refactor(&m).unwrap();
        let (mut x, mut work) = (vec![1.0; n], vec![1.0; n]);
        lu.solve_into(&vec![0.0; n], &mut x, &mut work);
        assert!(x.iter().all(|&v| v == 0.0));
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        lu.solve_into(&b, &mut x, &mut work);
        let resid = m
            .matvec(&x)
            .iter()
            .zip(&b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max);
        assert!(resid < 1e-12, "residual {resid:e}");
    }

    #[test]
    fn column_solve_ignores_stale_out_and_work() {
        // Callers reuse `out` and `work` across solves without clearing
        // them: a solve into dirty buffers must match a fresh one bitwise.
        let a = grid_laplacian(23, 19);
        let n = a.nrows();
        for ordering in [OrderingKind::Amd, OrderingKind::Natural] {
            let opts = LuOptions {
                ordering,
                ..LuOptions::default()
            };
            let lu = SparseLu::factor(&a, &opts).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 29) as f64) - 14.0).collect();
            let fresh = lu.solve(&b);
            let mut out: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let mut work = vec![f64::NAN; n];
            lu.solve_into(&b, &mut out, &mut work);
            assert!(
                fresh
                    .iter()
                    .zip(&out)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{ordering:?}: stale buffers changed the solve"
            );
        }
    }

    #[test]
    fn equilibration_scales_recomputed_per_refactor() {
        // Values spanning many decades: a correct refactor must compute
        // fresh scales for the *new* values, not reuse the analysis'.
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1e-15),
                (0, 1, 2e-15),
                (1, 0, 1e-3),
                (1, 1, 5.0),
                (2, 2, 1e6),
            ],
        );
        let sym = SymbolicLu::analyze(&a, &LuOptions::default()).unwrap();
        let mut b = a.clone();
        for r in 0..3 {
            for v in b.row_values_mut(r) {
                *v *= 1e12; // shifts every power-of-two scale
            }
        }
        let fast = sym.refactor(&b).unwrap();
        let full = SparseLu::factor(&b, &LuOptions::default()).unwrap();
        assert_same_factorization(&fast, &full, &b);
    }

    /// Re-encodes `sym` after `edit` and decodes the result.
    fn redecoded(
        sym: &SymbolicLu,
        edit: impl Fn(&mut SymbolicLu),
    ) -> Result<SymbolicLu, WireError> {
        let mut lied = sym.clone();
        edit(&mut lied);
        let mut w = WireWriter::new();
        lied.wire_encode(&mut w);
        SymbolicLu::wire_decode(&mut WireReader::new(&w.into_bytes()))
    }

    #[test]
    fn lying_structural_counts_are_rejected_before_any_allocation() {
        let sym = SymbolicLu::analyze(&grid_laplacian(6, 6), &LuOptions::default()).unwrap();
        assert!(redecoded(&sym, |_| {}).is_ok());
        // Bit 31 of `lnnz` would have the replay reserve 16 GiB.
        for edit in [
            (|s: &mut SymbolicLu| s.lnnz ^= 1 << 31) as fn(&mut SymbolicLu),
            |s| s.lnnz -= 1,
            |s| s.unnz += 1,
            |s| s.unnz = usize::MAX - 1,
        ] {
            assert!(matches!(redecoded(&sym, edit), Err(WireError::Invalid(_))));
        }
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let a = grid_laplacian(6, 6);
        let n = a.nrows();
        let sym = SymbolicLu::analyze(&a, &LuOptions::default()).unwrap();
        let last_piv = sym.piv_rows.len() - 1;
        for edit in [
            (|s: &mut SymbolicLu| s.low_rows[0] = 36) as fn(&mut SymbolicLu),
            |s| s.csc_rowidx[3] = 36,
            |s| s.a_indices[5] = 99,
            |s| s.csr_to_csc[0] = s.csr_to_csc.len(),
            |s| s.pinv.swap(0, 1), // pivot_row no longer inverts it
            |s| s.pivot_row[2] = 40,
            |s| s.low_ptr[1] = s.low_ptr[2] + 1, // non-monotone
            |s| s.a_indptr[0] = 1,
        ] {
            assert!(
                matches!(redecoded(&sym, edit), Err(WireError::Invalid(_))),
                "a corrupted index decoded (n = {n})"
            );
        }
        // A pivotal reach entry must name an earlier column: its row's
        // pinned position.
        let bad_col = redecoded(&sym, |s| s.piv_cols[last_piv] = n - 1);
        assert!(matches!(bad_col, Err(WireError::Invalid(_))));
    }
}
