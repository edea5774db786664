//! Deterministic tiled vector kernels.
//!
//! Every reduction here is computed over **fixed tile boundaries**
//! ([`TILE`] elements, a function of the problem size only) with the
//! per-tile partials combined serially **in tile order**. Which thread
//! computes a tile is arbitrary; the floating-point operation order is
//! not. That is the whole determinism story: for any pool width —
//! including the inline one-thread path — a kernel performs bit-for-bit
//! the same arithmetic.

use crate::ParPool;
use std::marker::PhantomData;
use std::ops::Range;

/// Elements per reduction tile. Fixed (never derived from the thread
/// count) so the combination order is invariant in the pool width.
pub const TILE: usize = 1024;

/// Below this many elements of work a kernel runs inline on the caller:
/// dispatch latency would dominate. The inline path executes the same
/// tiled arithmetic, so the cutoff never affects results.
pub(crate) const PAR_MIN: usize = 8192;

/// Number of [`TILE`]-sized tiles covering `len` elements.
pub fn tiles(len: usize) -> usize {
    len.div_ceil(TILE)
}

/// Element range of tile `t` over `len` elements.
pub fn tile_span(t: usize, len: usize) -> Range<usize> {
    let start = t * TILE;
    start..((start + TILE).min(len))
}

/// A mutable `f64` buffer shareable across pool workers for
/// **tile-disjoint** writes (each item of a dispatch owns its own index
/// range; reads may target locations no concurrent item writes).
///
/// This is the escape hatch the tiled kernels are built on; all
/// accesses go through raw pointers so no `&mut` aliasing is ever formed
/// across threads.
pub(crate) struct RawVec<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: PhantomData<&'a mut [f64]>,
}

unsafe impl Send for RawVec<'_> {}
unsafe impl Sync for RawVec<'_> {}

impl<'a> RawVec<'a> {
    /// Wraps a mutable slice for the duration of one dispatch.
    pub(crate) fn new(slice: &'a mut [f64]) -> RawVec<'a> {
        RawVec {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Reads element `i`.
    ///
    /// # Safety
    ///
    /// `i < len`, and no concurrently running item may write element `i`
    /// during this dispatch.
    #[inline]
    pub(crate) unsafe fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Writes element `i`.
    ///
    /// # Safety
    ///
    /// `i < len`, and element `i` must be owned by the calling item (no
    /// other item reads or writes it during this dispatch).
    #[inline]
    pub(crate) unsafe fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = v;
    }

    /// Mutable view of the element range `r`.
    ///
    /// # Safety
    ///
    /// `r` must lie within the buffer and be owned exclusively by the
    /// calling item for the duration of the dispatch.
    #[inline]
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's contract
    pub(crate) unsafe fn range_mut(&self, r: Range<usize>) -> &mut [f64] {
        debug_assert!(r.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.len())
    }
}

/// One tile's serial dot product (identical to `matex_dense::dot`).
#[inline]
fn dot_tile(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Tiled dot product `xᵀ y` with deterministic tile-order combination.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(pool: &ParPool, x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let n = x.len();
    let nt = tiles(n);
    if pool.threads() == 1 || n < PAR_MIN {
        let mut total = 0.0;
        for t in 0..nt {
            let r = tile_span(t, n);
            total += dot_tile(&x[r.clone()], &y[r]);
        }
        return total;
    }
    let mut partials = vec![0.0_f64; nt];
    {
        let slots = RawVec::new(&mut partials);
        pool.run(nt, &|t| {
            let r = tile_span(t, n);
            // SAFETY: tile `t` writes only slot `t`.
            unsafe { slots.set(t, dot_tile(&x[r.clone()], &y[r])) };
        });
    }
    let mut total = 0.0;
    for &p in &partials {
        total += p;
    }
    total
}

/// Tiled Euclidean norm `‖x‖₂`.
pub fn norm2(pool: &ParPool, x: &[f64]) -> f64 {
    dot(pool, x, x).sqrt()
}

/// All dots of `w` against a basis at once: `out[i] = wᵀ vs[i]`.
///
/// One dispatch covers every basis vector (the fused classical
/// Gram–Schmidt projection phase), with per-(tile, vector) partials
/// combined in tile order.
///
/// # Panics
///
/// Panics on any length mismatch.
pub fn multi_dot(pool: &ParPool, w: &[f64], vs: &[Vec<f64>], out: &mut [f64]) {
    let k = vs.len();
    assert_eq!(out.len(), k, "multi_dot: output length mismatch");
    let n = w.len();
    for v in vs {
        assert_eq!(v.len(), n, "multi_dot: basis length mismatch");
    }
    let nt = tiles(n);
    if pool.threads() == 1 || n * k.max(1) < PAR_MIN {
        for (i, v) in vs.iter().enumerate() {
            let mut total = 0.0;
            for t in 0..nt {
                let r = tile_span(t, n);
                total += dot_tile(&w[r.clone()], &v[r]);
            }
            out[i] = total;
        }
        return;
    }
    let mut partials = vec![0.0_f64; nt * k];
    {
        let slots = RawVec::new(&mut partials);
        pool.run(nt, &|t| {
            let r = tile_span(t, n);
            for (i, v) in vs.iter().enumerate() {
                // SAFETY: tile `t` writes only its `t * k + i` slots.
                unsafe { slots.set(t * k + i, dot_tile(&w[r.clone()], &v[r.clone()])) };
            }
        });
    }
    for (i, o) in out.iter_mut().enumerate() {
        let mut total = 0.0;
        for t in 0..nt {
            total += partials[t * k + i];
        }
        *o = total;
    }
}

/// Fused projection removal `w ← w − Σᵢ coef[i]·vs[i]`.
///
/// Each element of `w` subtracts its terms in ascending `i` order
/// regardless of tiling, so the result is invariant in the pool width.
///
/// # Panics
///
/// Panics on any length mismatch.
pub fn subtract_combination(pool: &ParPool, w: &mut [f64], vs: &[Vec<f64>], coef: &[f64]) {
    let k = vs.len();
    assert_eq!(coef.len(), k, "subtract_combination: coef length mismatch");
    let n = w.len();
    for v in vs {
        assert_eq!(v.len(), n, "subtract_combination: basis length mismatch");
    }
    let nt = tiles(n);
    let apply_tile = |w_tile: &mut [f64], r: Range<usize>| {
        for (i, v) in vs.iter().enumerate() {
            let c = coef[i];
            for (wk, vk) in w_tile.iter_mut().zip(&v[r.clone()]) {
                *wk -= c * vk;
            }
        }
    };
    if pool.threads() == 1 || n * k.max(1) < PAR_MIN {
        for t in 0..nt {
            let r = tile_span(t, n);
            apply_tile(&mut w[r.clone()], r);
        }
        return;
    }
    let shared = RawVec::new(w);
    pool.run(nt, &|t| {
        let r = tile_span(t, n);
        // SAFETY: tile `t` owns exactly the elements in `r`.
        let w_tile = unsafe { shared.range_mut(r.clone()) };
        apply_tile(w_tile, r);
    });
}

/// Batched basis combination `X ← Vᵀ·W`: for each of `k` weight columns
/// `w_j` (stored contiguously in `weights[j·m .. (j+1)·m]`), writes
/// `out[j·n .. (j+1)·n] = Σᵢ w_j[i] · vs[i]`.
///
/// This is the [`subtract_combination`] shape generalized to many
/// right-hand sides — the `T_e` kernel of MATEX's batched snapshot
/// evaluation. Each output element accumulates its terms in ascending
/// `i` order (zero weights skipped) regardless of tiling, so the result
/// is **bitwise-invariant in the pool width** and bitwise-identical to
/// the straightforward per-column serial loop.
///
/// # Panics
///
/// Panics on any length mismatch (`weights.len() != k·vs.len()`,
/// `out.len() != k·n`, or ragged basis vectors).
pub fn combine_columns(
    pool: &ParPool,
    vs: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    out: &mut [f64],
) {
    let m = vs.len();
    assert_eq!(
        weights.len(),
        k * m,
        "combine_columns: weights length mismatch"
    );
    let n = vs.first().map_or(0, Vec::len);
    for v in vs {
        assert_eq!(v.len(), n, "combine_columns: basis length mismatch");
    }
    assert_eq!(out.len(), k * n, "combine_columns: output length mismatch");
    let nt = tiles(n);
    let run_tile = |t: usize, out: &RawVec<'_>| {
        let r = tile_span(t, n);
        for j in 0..k {
            let w = &weights[j * m..(j + 1) * m];
            // SAFETY: tile `t` of column `j` is owned exclusively by
            // this item (tiles partition `0..n`, columns are disjoint).
            let x = unsafe { out.range_mut(j * n + r.start..j * n + r.end) };
            x.fill(0.0);
            for (i, v) in vs.iter().enumerate() {
                let wi = w[i];
                if wi == 0.0 {
                    continue;
                }
                for (xe, ve) in x.iter_mut().zip(&v[r.clone()]) {
                    *xe += wi * ve;
                }
            }
        }
    };
    if pool.threads() == 1 || n * k.max(1) < PAR_MIN {
        let shared = RawVec::new(out);
        for t in 0..nt {
            run_tile(t, &shared);
        }
        return;
    }
    let shared = RawVec::new(out);
    pool.run(nt, &|t| run_tile(t, &shared));
}

/// Tiled in-place division `w ← w / d` (element order preserved — the
/// divisor is *not* inverted, matching the serial normalization).
pub fn div_in_place(pool: &ParPool, w: &mut [f64], d: f64) {
    let n = w.len();
    let nt = tiles(n);
    if pool.threads() == 1 || n < PAR_MIN {
        for x in w.iter_mut() {
            *x /= d;
        }
        return;
    }
    let shared = RawVec::new(w);
    pool.run(nt, &|t| {
        let r = tile_span(t, n);
        for i in r {
            // SAFETY: tile `t` owns exactly the elements in its span.
            unsafe { shared.set(i, shared.get(i) / d) };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64) - 50.0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| ((i * 53 % 97) as f64) * 0.25 - 12.0)
            .collect();
        (x, y)
    }

    #[test]
    fn dot_is_pool_width_invariant() {
        // Above PAR_MIN so the 4-thread pool genuinely dispatches.
        let (x, y) = vecs(3 * TILE + 123 + PAR_MIN);
        let serial = ParPool::inline();
        let wide = ParPool::new(4);
        let a = dot(serial, &x, &y);
        let b = dot(&wide, &x, &y);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(norm2(serial, &x).to_bits(), norm2(&wide, &x).to_bits());
    }

    #[test]
    fn multi_dot_matches_individual_dots() {
        let n = PAR_MIN + 2 * TILE + 7;
        let (w, _) = vecs(n);
        let vs: Vec<Vec<f64>> = (0..5)
            .map(|s| (0..n).map(|i| ((i * (s + 3) % 89) as f64) - 44.0).collect())
            .collect();
        let serial = ParPool::inline();
        let wide = ParPool::new(3);
        let mut a = vec![0.0; 5];
        let mut b = vec![0.0; 5];
        multi_dot(serial, &w, &vs, &mut a);
        multi_dot(&wide, &w, &vs, &mut b);
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(a[i].to_bits(), dot(serial, &w, v).to_bits());
        }
    }

    #[test]
    fn subtract_combination_is_pool_width_invariant() {
        let n = PAR_MIN + TILE + 11;
        let (w0, _) = vecs(n);
        let vs: Vec<Vec<f64>> = (0..4)
            .map(|s| (0..n).map(|i| ((i + s) as f64).sin()).collect())
            .collect();
        let coef = [0.5, -1.25, 3.0, 0.125];
        let mut a = w0.clone();
        let mut b = w0.clone();
        subtract_combination(ParPool::inline(), &mut a, &vs, &coef);
        subtract_combination(&ParPool::new(4), &mut b, &vs, &coef);
        assert!(a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn combine_columns_matches_naive_and_is_pool_width_invariant() {
        let n = PAR_MIN + TILE + 17;
        let m = 6;
        let k = 3;
        let vs: Vec<Vec<f64>> = (0..m)
            .map(|s| {
                (0..n)
                    .map(|i| ((i * (s + 2)) as f64 * 0.01).cos())
                    .collect()
            })
            .collect();
        let mut weights = vec![0.0; k * m];
        for (j, w) in weights.iter_mut().enumerate() {
            // Include an exact zero weight to exercise the skip.
            *w = if j == 4 {
                0.0
            } else {
                ((j * 31 % 13) as f64) - 6.0
            };
        }
        // Naive per-column reference: the legacy `KrylovBasis::eval` loop.
        let mut reference = vec![0.0; k * n];
        for j in 0..k {
            let x = &mut reference[j * n..(j + 1) * n];
            for (i, v) in vs.iter().enumerate() {
                let wi = weights[j * m + i];
                if wi == 0.0 {
                    continue;
                }
                for (xe, ve) in x.iter_mut().zip(v) {
                    *xe += wi * ve;
                }
            }
        }
        for threads in [1usize, 2, 4, 7] {
            let pool = ParPool::new(threads);
            let mut out = vec![f64::NAN; k * n];
            combine_columns(&pool, &vs, &weights, k, &mut out);
            assert!(
                reference
                    .iter()
                    .zip(&out)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "combine_columns diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn combine_columns_empty_shapes() {
        let pool = ParPool::inline();
        let mut out: Vec<f64> = Vec::new();
        combine_columns(pool, &[], &[], 0, &mut out);
        // k = 0 with a nonempty basis: nothing to write.
        let vs = vec![vec![1.0, 2.0]];
        combine_columns(pool, &vs, &[], 0, &mut out);
    }

    #[test]
    fn div_in_place_matches_serial() {
        let n = PAR_MIN + 5;
        let (w0, _) = vecs(n);
        let mut a = w0.clone();
        let mut b = w0;
        div_in_place(ParPool::inline(), &mut a, 3.7);
        div_in_place(&ParPool::new(2), &mut b, 3.7);
        assert!(a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn tile_spans_cover_exactly() {
        for len in [0usize, 1, TILE - 1, TILE, TILE + 1, 5 * TILE + 3] {
            let mut covered = 0usize;
            for t in 0..tiles(len) {
                let r = tile_span(t, len);
                assert_eq!(r.start, covered);
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }
}
