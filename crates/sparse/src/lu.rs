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
//! `eliminate` is that loop, once. [`SparseLu::factor`] runs it with
//! recording off. When many matrices share one nonzero pattern (the
//! `C + γG` sweep), [`crate::SymbolicLu::analyze_with_factor`] runs it
//! with recording on, keeping the ordering, the structural reach and the
//! pivot order, and the two-phase split then replays only the numeric
//! updates per matrix.

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
        eliminate::<false>(a, opts).map(|(lu, _)| lu)
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

    /// Solves `A x = b` for several right-hand sides in one pass over
    /// `L` and `U` per batch of up to [`SOLVE_BATCH`] of them.
    ///
    /// `b` and `out` hold the `k` columns one after another (column `c`
    /// in `c·n..(c+1)·n`); `work` needs `min(k, SOLVE_BATCH)·n` entries.
    /// Inside a batch the right-hand sides are interleaved, so each
    /// factor entry is loaded once and applied to every column (the
    /// width is a const generic, so the inner loop is unrolled and
    /// vectorizable). Column for column the result is bitwise
    /// [`SparseLu::solve_into`]'s: every column sees the same operations
    /// in the same order, and the single solve's skip of a column of `L`
    /// or `U` whose `x_j` is exactly zero is applied per right-hand side
    /// (subtracting `v·0` could still turn a `−0.0` into `+0.0`).
    ///
    /// # Panics
    ///
    /// Panics when `b` and `out` differ in length, their length is not
    /// a multiple of the factored dimension, or `work` is too short.
    pub fn solve_many_into(&self, b: &[f64], out: &mut [f64], work: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), out.len(), "solve_many: b/out length mismatch");
        if n == 0 {
            return;
        }
        assert_eq!(b.len() % n, 0, "solve_many: b is not whole columns");
        let k = b.len() / n;
        assert!(
            work.len() >= k.min(SOLVE_BATCH) * n,
            "solve_many: work holds {} entries, needs {}",
            work.len(),
            k.min(SOLVE_BATCH) * n
        );
        let chunk = SOLVE_BATCH * n;
        for (b, out) in b.chunks(chunk).zip(out.chunks_mut(chunk)) {
            match b.len() / n {
                1 => self.solve_interleaved::<1>(b, out, work),
                2 => self.solve_interleaved::<2>(b, out, work),
                3 => self.solve_interleaved::<3>(b, out, work),
                4 => self.solve_interleaved::<4>(b, out, work),
                5 => self.solve_interleaved::<5>(b, out, work),
                6 => self.solve_interleaved::<6>(b, out, work),
                7 => self.solve_interleaved::<7>(b, out, work),
                _ => self.solve_interleaved::<SOLVE_BATCH>(b, out, work),
            }
        }
    }

    /// [`SparseLu::solve_into`] on `W` right-hand sides, interleaved in
    /// `work` (entry `i` of column `c` at `i·W + c`).
    fn solve_interleaved<const W: usize>(&self, b: &[f64], out: &mut [f64], work: &mut [f64]) {
        let n = self.n;
        let work = &mut work[..W * n];
        for i in 0..n {
            let (p, s) = (self.pinv[i], self.rscale[i]);
            for c in 0..W {
                work[p * W + c] = s * b[c * n + i];
            }
        }
        for j in 0..n {
            let xj: [f64; W] = work[j * W..(j + 1) * W].try_into().expect("W entries");
            let range = (self.l_colptr[j] + 1)..self.l_colptr[j + 1];
            scatter(
                work,
                &self.l_rowidx[range.clone()],
                &self.l_values[range],
                xj,
            );
        }
        for j in (0..n).rev() {
            let dpos = self.u_colptr[j + 1] - 1;
            let d = self.u_values[dpos];
            let mut xj = [0.0; W];
            for (x, w) in xj.iter_mut().zip(&mut work[j * W..(j + 1) * W]) {
                *x = *w / d;
                *w = *x;
            }
            let range = self.u_colptr[j]..dpos;
            scatter(
                work,
                &self.u_rowidx[range.clone()],
                &self.u_values[range],
                xj,
            );
        }
        for k in 0..n {
            let oc = self.q.old_of(k);
            let s = self.cscale[oc];
            for c in 0..W {
                out[c * n + oc] = s * work[k * W + c];
            }
        }
    }
}

/// Widest batch [`SparseLu::solve_many_into`] interleaves in one pass;
/// wider batches run in chunks of this many right-hand sides.
pub const SOLVE_BATCH: usize = 8;

/// `work[r] -= v·x_j` over one factor column, for the `W` interleaved
/// right-hand sides whose `x_j` is not exactly zero.
fn scatter<const W: usize>(work: &mut [f64], rows: &[usize], vals: &[f64], xj: [f64; W]) {
    let live = xj.map(|x| x != 0.0);
    if live == [true; W] {
        for (&r, &v) in rows.iter().zip(vals) {
            let row: &mut [f64; W] = (&mut work[r * W..(r + 1) * W])
                .try_into()
                .expect("W entries");
            for (w, x) in row.iter_mut().zip(xj) {
                *w -= v * x;
            }
        }
    } else if live != [false; W] {
        for (&r, &v) in rows.iter().zip(vals) {
            let row: &mut [f64; W] = (&mut work[r * W..(r + 1) * W])
                .try_into()
                .expect("W entries");
            for ((w, x), l) in row.iter_mut().zip(xj).zip(live) {
                if l {
                    *w -= v * x;
                }
            }
        }
    }
}

/// What the recording instantiation of [`eliminate`] keeps besides the
/// factor: the raw material of a [`crate::SymbolicLu`]. Empty when
/// recording is off.
#[derive(Default)]
pub(crate) struct Recording {
    /// `A`'s CSC pattern and its CSR-position → CSC-position gather map.
    pub(crate) csc_colptr: Vec<usize>,
    pub(crate) csc_rowidx: Vec<usize>,
    pub(crate) csr_to_csc: Vec<usize>,
    /// `pivot_row[k]`: the original row that pivots column `k`.
    pub(crate) pivot_row: Vec<usize>,
    /// Each column's structural reach in DFS postorder, split by pivotal
    /// state: the rows already pivotal (with their pivot positions) and
    /// the then-unpivoted rows, the pivot among them.
    pub(crate) piv_ptr: Vec<usize>,
    pub(crate) piv_rows: Vec<usize>,
    pub(crate) piv_cols: Vec<usize>,
    pub(crate) low_ptr: Vec<usize>,
    pub(crate) low_rows: Vec<usize>,
}

/// The left-looking Gilbert–Peierls elimination: the one loop behind
/// [`SparseLu::factor`] (`RECORD = false`) and
/// [`crate::SymbolicLu::analyze_with_factor`] (`RECORD = true`).
///
/// For each column `k` it finds the reach of `A[:, q(k)]` through `L`
/// by DFS, solves `x = L \ A[:, q(k)]` on that reach, searches the pivot
/// and emits `U[:, k]` and `L[:, k]`. Without recording, the working `L`
/// drops explicit zeros and is the returned `L`. With recording, the
/// working `L` keeps them, so the reach it yields is structural (valid
/// for every matrix with `A`'s pattern), and a zero-free copy is emitted
/// as the returned `L`. A kept zero only subtracts `0·xj`, so both
/// modes search pivots on the same values and emit the same factor;
/// only an exact cancellation, which leaves `factor`'s value reach
/// smaller than the structural one, can make their `U` differ by
/// explicit zeros.
pub(crate) fn eliminate<const RECORD: bool>(
    a: &CsrMatrix,
    opts: &LuOptions,
) -> Result<(SparseLu, Recording), SparseError> {
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
    let (colptr, rowidx, csr_to_csc) = csc_structure(a);
    let mut values = vec![0.0; a.nnz()];
    gather_scaled(a, &rscale, &cscale, &csr_to_csc, &mut values);
    // Only a recording keeps the gather map (its replays gather with it).
    let csr_to_csc = if RECORD { csr_to_csc } else { Vec::new() };
    let q = opts.ordering.order(a);

    // The working L holds original row indices while later columns
    // consume it; the pivot-order remap happens once at the end.
    let nnz_guess = (4 * a.nnz()).max(16 * n);
    let mut l_colptr = Vec::with_capacity(n + 1);
    let mut l_rowidx: Vec<usize> = Vec::with_capacity(nnz_guess);
    let mut l_values: Vec<f64> = Vec::with_capacity(nnz_guess);
    let mut u_colptr = Vec::with_capacity(n + 1);
    let mut u_rowidx: Vec<usize> = Vec::with_capacity(nnz_guess);
    let mut u_values: Vec<f64> = Vec::with_capacity(nnz_guess);
    let mut pinv = vec![UNPIVOTED; n];
    // Recording only: the zero-free L that is returned, and the reach.
    let nl_guess = if RECORD { nnz_guess } else { 0 };
    let mut nl_colptr: Vec<usize> = Vec::new();
    let mut nl_rowidx: Vec<usize> = Vec::with_capacity(nl_guess);
    let mut nl_values: Vec<f64> = Vec::with_capacity(nl_guess);
    let mut rec = Recording::default();

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
        if RECORD {
            nl_colptr.push(nl_rowidx.len());
            rec.piv_ptr.push(rec.piv_rows.len());
            rec.low_ptr.push(rec.low_rows.len());
        }
        let col = q.old_of(k);
        let acol = colptr[col]..colptr[col + 1];

        // --- Symbolic: reach of A[:, col] through L (DFS, postorder).
        generation += 1;
        pattern.clear();
        for &seed in &rowidx[acol.clone()] {
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
        for (&i, &v) in rowidx[acol.clone()].iter().zip(&values[acol]) {
            x[i] = v;
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
        if pinv[col] == UNPIVOTED && x[col] != 0.0 && x[col].abs() >= opts.pivot_threshold * best {
            ipiv = col;
        }
        let pivot = x[ipiv];

        // --- Emit column k of U (rows already pivotal) and L.
        for &i in pattern.iter() {
            if pinv[i] != UNPIVOTED {
                u_rowidx.push(pinv[i]);
                u_values.push(x[i]);
                if RECORD {
                    rec.piv_rows.push(i);
                    rec.piv_cols.push(pinv[i]);
                }
            } else if RECORD {
                rec.low_rows.push(i);
            }
        }
        u_rowidx.push(k);
        u_values.push(pivot);
        pinv[ipiv] = k;
        l_rowidx.push(ipiv); // unit diagonal, original index for now
        l_values.push(1.0);
        if RECORD {
            rec.pivot_row.push(ipiv);
            nl_rowidx.push(ipiv);
            nl_values.push(1.0);
        }
        for &i in pattern.iter() {
            if pinv[i] == UNPIVOTED {
                if RECORD {
                    // Keep zeros: structural superset of the value reach.
                    let lik = x[i] / pivot;
                    l_rowidx.push(i);
                    l_values.push(lik);
                    if x[i] != 0.0 {
                        nl_rowidx.push(i);
                        nl_values.push(lik);
                    }
                } else if x[i] != 0.0 {
                    l_rowidx.push(i);
                    l_values.push(x[i] / pivot);
                }
            }
            x[i] = 0.0;
        }
    }
    u_colptr.push(u_rowidx.len());
    let (l_colptr, mut l_rowidx, l_values) = if RECORD {
        nl_colptr.push(nl_rowidx.len());
        rec.piv_ptr.push(rec.piv_rows.len());
        rec.low_ptr.push(rec.low_rows.len());
        (rec.csc_colptr, rec.csc_rowidx, rec.csr_to_csc) = (colptr, rowidx, csr_to_csc);
        (nl_colptr, nl_rowidx, nl_values)
    } else {
        l_colptr.push(l_rowidx.len());
        (l_colptr, l_rowidx, l_values)
    };
    // Remap L's row indices into pivot order.
    for r in l_rowidx.iter_mut() {
        *r = pinv[*r];
    }
    let lu = SparseLu {
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
    };
    Ok((lu, rec))
}

/// Builds the CSC structure of `a`'s pattern and the CSR-position →
/// CSC-position map, without touching values.
fn csc_structure(a: &CsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = a.ncols();
    let nnz = a.nnz();
    let mut colptr = vec![0usize; n + 1];
    for r in 0..a.nrows() {
        for &c in a.row_indices(r) {
            colptr[c + 1] += 1;
        }
    }
    for c in 0..n {
        colptr[c + 1] += colptr[c];
    }
    let mut next = colptr.clone();
    let mut rowidx = vec![0usize; nnz];
    let mut map = vec![0usize; nnz];
    let mut p = 0usize;
    for r in 0..a.nrows() {
        for &c in a.row_indices(r) {
            let dst = next[c];
            next[c] += 1;
            rowidx[dst] = r;
            map[p] = dst;
            p += 1;
        }
    }
    (colptr, rowidx, map)
}

/// Gathers `a`'s values into CSC positions as `(v·r)·c`: the row scale
/// first, then the column scale (exact anyway: scales are powers of
/// two).
pub(crate) fn gather_scaled(
    a: &CsrMatrix,
    rscale: &[f64],
    cscale: &[f64],
    csr_to_csc: &[usize],
    csc_values: &mut [f64],
) {
    let needs_scaling = rscale.iter().chain(cscale.iter()).any(|&s| s != 1.0);
    let mut p = 0usize;
    for r in 0..a.nrows() {
        let vals = a.row_values(r);
        for (k, &c) in a.row_indices(r).iter().enumerate() {
            let v = if needs_scaling {
                (vals[k] * rscale[r]) * cscale[c]
            } else {
                vals[k]
            };
            csc_values[csr_to_csc[p]] = v;
            p += 1;
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
        // The unscaled gather (no scale multiplications) must give a
        // working factorization.
        let a = grid_laplacian(9, 7);
        let opts = LuOptions {
            equilibrate: false,
            ..LuOptions::default()
        };
        assert!(solve_roundtrip(&a, &opts) < 1e-9);
        // A well-scaled matrix takes the unscaled gather under
        // equilibration too (all computed scales are 1.0) and must agree
        // bitwise with the unequilibrated factorization.
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

    /// `a` as the elimination reads it: CSC pointers, row indices and
    /// the gathered values, gathered into a buffer of NaNs so that a
    /// slot the gather misses shows.
    fn column_view(
        a: &CsrMatrix,
        rscale: &[f64],
        cscale: &[f64],
    ) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let (colptr, rowidx, map) = csc_structure(a);
        let mut values = vec![f64::NAN; a.nnz()];
        gather_scaled(a, rscale, cscale, &map, &mut values);
        (colptr, rowidx, values)
    }

    #[test]
    fn column_view_of_a_rectangular_matrix() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let (colptr, rowidx, values) = column_view(&a, &[1.0; 2], &[1.0; 3]);
        assert_eq!(colptr, vec![0, 1, 2, 3]);
        assert_eq!(rowidx, vec![0, 1, 0]);
        assert_eq!(values, vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn column_view_of_an_empty_matrix_has_no_entries() {
        let (colptr, rowidx, values) = column_view(&CsrMatrix::zeros(4, 4), &[1.0; 4], &[1.0; 4]);
        assert_eq!(colptr, vec![0; 5]);
        assert!(rowidx.is_empty() && values.is_empty());
    }

    #[test]
    fn column_view_matvec_matches_csr() {
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
        let (colptr, rowidx, values) = column_view(&a, &[1.0; 3], &[1.0; 3]);
        let x = [1.0, -2.0, 0.5];
        let mut y = vec![0.0; 3];
        for (c, &xc) in x.iter().enumerate() {
            for p in colptr[c]..colptr[c + 1] {
                y[rowidx[p]] += values[p] * xc;
            }
        }
        assert_eq!(y, a.matvec(&x));
    }

    #[test]
    fn gather_scales_rows_then_columns() {
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
        let (rs, cs) = ([1.0, 2.0, 3.0], [1.0, 1.0, 0.5]);
        let (colptr, rowidx, values) = column_view(&a, &rs, &cs);
        for c in 0..3 {
            for p in colptr[c]..colptr[c + 1] {
                let r = rowidx[p];
                assert_eq!(
                    values[p].to_bits(),
                    ((a.get(r, c) * rs[r]) * cs[c]).to_bits()
                );
            }
        }
        // Column 1 holds row 1 only; column 2 holds rows 0 and 2.
        assert_eq!(values[colptr[1]], 6.0);
        assert_eq!(values[colptr[3] - 1], 7.5);
    }

    #[test]
    fn gather_overwrites_every_slot_of_a_reused_buffer() {
        // `try_refactor` gathers into the analysis's buffer again and
        // again: a second gather with other scales leaves nothing of the
        // first behind.
        let a = grid_laplacian(4, 3);
        let n = a.nrows();
        let (_, _, map) = csc_structure(&a);
        let mut values = vec![f64::NAN; a.nnz()];
        gather_scaled(&a, &vec![4.0; n], &vec![2.0; n], &map, &mut values);
        let (_, _, fresh) = column_view(&a, &vec![1.0; n], &vec![1.0; n]);
        assert!(values.iter().zip(&fresh).all(|(v, f)| *v == 8.0 * f));
        gather_scaled(&a, &vec![1.0; n], &vec![1.0; n], &map, &mut values);
        assert_eq!(values, fresh);
    }

    mod column_view_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every stored entry lands once in its column, rows ascending
            /// within a column, with the value `(v·r)·c`.
            #[test]
            fn column_view_roundtrips_random_matrices(
                nrows in 1usize..20,
                ncols in 1usize..20,
                entries in prop::collection::vec(
                    (0usize..1000, 0usize..1000, -5.0..5.0_f64), 0..80),
                exps in prop::collection::vec(0usize..7, 40),
            ) {
                let t: Vec<(usize, usize, f64)> =
                    entries.iter().map(|&(r, c, v)| (r % nrows, c % ncols, v)).collect();
                let a = CsrMatrix::from_triplets(nrows, ncols, &t);
                let rs: Vec<f64> = exps[..nrows].iter().map(|&e| 2f64.powi(e as i32 - 3)).collect();
                let cs: Vec<f64> = exps[20..20 + ncols].iter().map(|&e| 2f64.powi(e as i32 - 3)).collect();
                let (colptr, rowidx, values) = column_view(&a, &rs, &cs);
                prop_assert_eq!(colptr.len(), ncols + 1);
                prop_assert_eq!(colptr[ncols], a.nnz());
                for c in 0..ncols {
                    let rows = &rowidx[colptr[c]..colptr[c + 1]];
                    prop_assert!(rows.windows(2).all(|w| w[0] < w[1]));
                    for (p, &r) in (colptr[c]..colptr[c + 1]).zip(rows) {
                        let want = (a.get(r, c) * rs[r]) * cs[c];
                        prop_assert_eq!(values[p].to_bits(), want.to_bits());
                    }
                }
                let stored: usize = (0..nrows).map(|r| a.row_indices(r).len()).sum();
                prop_assert_eq!(stored, a.nnz());
            }
        }
    }
}
