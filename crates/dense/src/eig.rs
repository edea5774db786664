//! Eigenvalue kernels for stiffness diagnostics.
//!
//! The MATEX paper defines circuit *stiffness* as `Re(λ_min)/Re(λ_max)` of
//! `A = −C⁻¹G` (Sec. 4.1) and relies on spectral arguments (small-magnitude
//! eigenvalues dominate the transient; rational Krylov captures them first).
//! This module provides the small-scale eigenvalue machinery used to
//! construct and verify the stiff test cases: Hessenberg reduction +
//! Francis double-shift QR for general real matrices (values only,
//! possibly complex).

use crate::{DMat, DenseError, Result};

/// A real or complex eigenvalue, stored as `(re, im)`.
pub type Complex = (f64, f64);

/// Reduces `a` to upper Hessenberg form by Householder similarity
/// transformations (eigenvalue-preserving).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn hessenberg(a: &DMat) -> DMat {
    assert!(a.is_square(), "hessenberg: matrix must be square");
    let n = a.nrows();
    let mut h = a.clone();
    for k in 0..n.saturating_sub(2) {
        // Householder vector annihilating h[k+2.., k].
        let mut norm2_col = 0.0;
        for i in (k + 1)..n {
            norm2_col += h[(i, k)] * h[(i, k)];
        }
        let norm = norm2_col.sqrt();
        if norm == 0.0 {
            continue;
        }
        let alpha = if h[(k + 1, k)] >= 0.0 { -norm } else { norm };
        let mut v = vec![0.0; n];
        v[k + 1] = h[(k + 1, k)] - alpha;
        for i in (k + 2)..n {
            v[i] = h[(i, k)];
        }
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        let beta = 2.0 / vnorm2;
        // H ← (I − β v vᵀ) H
        for j in 0..n {
            let mut s = 0.0;
            for i in (k + 1)..n {
                s += v[i] * h[(i, j)];
            }
            s *= beta;
            for i in (k + 1)..n {
                h[(i, j)] -= s * v[i];
            }
        }
        // H ← H (I − β v vᵀ)
        for i in 0..n {
            let mut s = 0.0;
            for j in (k + 1)..n {
                s += h[(i, j)] * v[j];
            }
            s *= beta;
            for j in (k + 1)..n {
                h[(i, j)] -= s * v[j];
            }
        }
    }
    // Zero out the (numerically tiny) entries below the first subdiagonal.
    for i in 0..n {
        for j in 0..i.saturating_sub(1) {
            h[(i, j)] = 0.0;
        }
    }
    h
}

/// All eigenvalues of a general real square matrix, as `(re, im)` pairs,
/// via Hessenberg reduction and the Francis double-shift QR iteration.
///
/// # Errors
///
/// * [`DenseError::NotSquare`] for rectangular input.
/// * [`DenseError::NotFinite`] for NaN/inf input.
/// * [`DenseError::NoConvergence`] if QR iteration stalls.
///
/// # Example
///
/// ```
/// use matex_dense::{DMat, eig::eig_vals};
///
/// # fn main() -> Result<(), matex_dense::DenseError> {
/// // Rotation-like matrix has eigenvalues ±i.
/// let a = DMat::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]]);
/// let mut vals = eig_vals(&a)?;
/// vals.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap());
/// assert!((vals[0].1 + 1.0).abs() < 1e-12);
/// assert!((vals[1].1 - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eig_vals(a: &DMat) -> Result<Vec<Complex>> {
    if !a.is_square() {
        return Err(DenseError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    if !a.is_finite() {
        return Err(DenseError::NotFinite);
    }
    let n = a.nrows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut h = hessenberg(a);
    let mut eigs: Vec<Complex> = Vec::with_capacity(n);
    let mut hi = n; // active block is h[0..hi, 0..hi]
    let mut stall = 0usize;
    let mut total_iters = 0usize;
    let max_total = 80 * n.max(4);
    while hi > 0 {
        if hi == 1 {
            eigs.push((h[(0, 0)], 0.0));
            break;
        }
        // Find the start of the trailing unreduced block.
        let mut lo = hi - 1;
        while lo > 0 {
            let s = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
            let s = if s == 0.0 { 1.0 } else { s };
            if h[(lo, lo - 1)].abs() <= f64::EPSILON * s {
                h[(lo, lo - 1)] = 0.0;
                break;
            }
            lo -= 1;
        }
        if lo == hi - 1 {
            // 1×1 block deflates.
            eigs.push((h[(hi - 1, hi - 1)], 0.0));
            hi -= 1;
            stall = 0;
            continue;
        }
        if lo == hi - 2 {
            // 2×2 block deflates: solve its characteristic quadratic.
            let (e1, e2) = eig2(
                h[(hi - 2, hi - 2)],
                h[(hi - 2, hi - 1)],
                h[(hi - 1, hi - 2)],
                h[(hi - 1, hi - 1)],
            );
            eigs.push(e1);
            eigs.push(e2);
            hi -= 2;
            stall = 0;
            continue;
        }
        total_iters += 1;
        stall += 1;
        if total_iters > max_total {
            return Err(DenseError::NoConvergence {
                iterations: total_iters,
            });
        }
        if stall % 11 == 10 {
            // Exceptional (ad-hoc) shift to break symmetric stalls.
            let s = h[(hi - 1, hi - 2)].abs() + h[(hi - 2, hi - 3)].abs();
            francis_step_with(&mut h, lo, hi, 2.0 * s, s * s);
        } else {
            // Standard Francis shift from the trailing 2×2 block.
            let m = hi - 1;
            let s = h[(m - 1, m - 1)] + h[(m, m)];
            let t = h[(m - 1, m - 1)] * h[(m, m)] - h[(m - 1, m)] * h[(m, m - 1)];
            francis_step_with(&mut h, lo, hi, s, t);
        }
    }
    Ok(eigs)
}

/// Eigenvalues of a real 2×2 `[[a, b], [c, d]]`.
fn eig2(a: f64, b: f64, c: f64, d: f64) -> (Complex, Complex) {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = tr * tr / 4.0 - det;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        // Stable form: compute the larger-magnitude root first, then the
        // other via the product of roots (avoids cancellation).
        let big = if tr >= 0.0 {
            tr / 2.0 + sq
        } else {
            tr / 2.0 - sq
        };
        let (l1, l2) = if big != 0.0 {
            (big, det / big)
        } else {
            (tr / 2.0 + sq, tr / 2.0 - sq)
        };
        ((l1, 0.0), (l2, 0.0))
    } else {
        let im = (-disc).sqrt();
        ((tr / 2.0, im), (tr / 2.0, -im))
    }
}

/// One Francis double-shift QR sweep on the active block `h[lo..hi, lo..hi]`
/// with shift polynomial `z² − s z + t`.
fn francis_step_with(h: &mut DMat, lo: usize, hi: usize, s: f64, t: f64) {
    let n = h.nrows();
    // First column of (H − σ₁)(H − σ₂) e₁ restricted to the block.
    let mut x = h[(lo, lo)] * h[(lo, lo)] + h[(lo, lo + 1)] * h[(lo + 1, lo)] - s * h[(lo, lo)] + t;
    let mut y = h[(lo + 1, lo)] * (h[(lo, lo)] + h[(lo + 1, lo + 1)] - s);
    let mut z = if lo + 2 < hi {
        h[(lo + 1, lo)] * h[(lo + 2, lo + 1)]
    } else {
        0.0
    };
    for k in lo..hi - 2 {
        // Householder on (x, y, z).
        let (v, beta) = house3(x, y, z);
        if beta != 0.0 {
            let q = k.saturating_sub(1); // first affected column
                                         // Left multiply rows k..k+3.
            for j in q..n {
                let h0 = h[(k, j)];
                let h1 = h[(k + 1, j)];
                let h2 = h[(k + 2, j)];
                let sum = v[0] * h0 + v[1] * h1 + v[2] * h2;
                let bsum = beta * sum;
                h[(k, j)] = h0 - bsum * v[0];
                h[(k + 1, j)] = h1 - bsum * v[1];
                h[(k + 2, j)] = h2 - bsum * v[2];
            }
            // Right multiply columns k..k+3.
            let rmax = (k + 4).min(hi);
            for i in 0..rmax {
                let h0 = h[(i, k)];
                let h1 = h[(i, k + 1)];
                let h2 = h[(i, k + 2)];
                let sum = v[0] * h0 + v[1] * h1 + v[2] * h2;
                let bsum = beta * sum;
                h[(i, k)] = h0 - bsum * v[0];
                h[(i, k + 1)] = h1 - bsum * v[1];
                h[(i, k + 2)] = h2 - bsum * v[2];
            }
        }
        x = h[(k + 1, k)];
        y = h[(k + 2, k)];
        if k + 3 < hi {
            z = h[(k + 3, k)];
        } else {
            z = 0.0;
        }
    }
    // Final 2-element Householder on (x, y).
    let (v, beta) = house2(x, y);
    if beta != 0.0 {
        let k = hi - 2;
        let q = if k > lo { k - 1 } else { lo };
        for j in q..n {
            let h0 = h[(k, j)];
            let h1 = h[(k + 1, j)];
            let sum = v[0] * h0 + v[1] * h1;
            let bsum = beta * sum;
            h[(k, j)] = h0 - bsum * v[0];
            h[(k + 1, j)] = h1 - bsum * v[1];
        }
        for i in 0..hi {
            let h0 = h[(i, k)];
            let h1 = h[(i, k + 1)];
            let sum = v[0] * h0 + v[1] * h1;
            let bsum = beta * sum;
            h[(i, k)] = h0 - bsum * v[0];
            h[(i, k + 1)] = h1 - bsum * v[1];
        }
    }
}

/// Householder reflector for a 3-vector: returns `(v, β)` with `v[0] = 1`
/// convention folded into the returned unnormalized `v`.
fn house3(x: f64, y: f64, z: f64) -> ([f64; 3], f64) {
    let norm = (x * x + y * y + z * z).sqrt();
    if norm == 0.0 {
        return ([0.0; 3], 0.0);
    }
    let alpha = if x >= 0.0 { -norm } else { norm };
    let v0 = x - alpha;
    let v = [v0, y, z];
    let vnorm2 = v0 * v0 + y * y + z * z;
    if vnorm2 == 0.0 {
        return ([0.0; 3], 0.0);
    }
    (v, 2.0 / vnorm2)
}

/// Householder reflector for a 2-vector.
fn house2(x: f64, y: f64) -> ([f64; 2], f64) {
    let norm = (x * x + y * y).sqrt();
    if norm == 0.0 {
        return ([0.0; 2], 0.0);
    }
    let alpha = if x >= 0.0 { -norm } else { norm };
    let v0 = x - alpha;
    let v = [v0, y];
    let vnorm2 = v0 * v0 + y * y;
    if vnorm2 == 0.0 {
        return ([0.0; 2], 0.0);
    }
    (v, 2.0 / vnorm2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hessenberg_preserves_structure() {
        let a = DMat::from_rows(&[
            &[4.0, 1.0, 2.0, 3.0],
            &[1.0, 3.0, 0.0, 1.0],
            &[2.0, 0.0, 2.0, 0.5],
            &[3.0, 1.0, 0.5, 1.0],
        ]);
        let h = hessenberg(&a);
        for i in 2..4 {
            for j in 0..(i - 1) {
                assert_eq!(h[(i, j)], 0.0);
            }
        }
        // Trace is preserved by similarity.
        let tr_a: f64 = (0..4).map(|i| a[(i, i)]).sum();
        let tr_h: f64 = (0..4).map(|i| h[(i, i)]).sum();
        assert!((tr_a - tr_h).abs() < 1e-12);
    }

    #[test]
    fn eig_vals_diagonal() {
        let a = DMat::from_diag(&[3.0, -1.0, 0.5]);
        let mut vals = eig_vals(&a).unwrap();
        vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!((vals[0].0 + 1.0).abs() < 1e-12);
        assert!((vals[1].0 - 0.5).abs() < 1e-12);
        assert!((vals[2].0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eig_vals_known_general() {
        // [[1, 2], [3, 4]] has eigenvalues (5 ± sqrt(33))/2.
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut vals = eig_vals(&a).unwrap();
        vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let sq = 33.0_f64.sqrt();
        assert!((vals[0].0 - (5.0 - sq) / 2.0).abs() < 1e-10);
        assert!((vals[1].0 - (5.0 + sq) / 2.0).abs() < 1e-10);
    }

    #[test]
    fn eig_vals_complex_pair() {
        // Companion matrix of z² − 2z + 5 → 1 ± 2i.
        let a = DMat::from_rows(&[&[2.0, -5.0], &[1.0, 0.0]]);
        let mut vals = eig_vals(&a).unwrap();
        vals.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        assert!((vals[0].0 - 1.0).abs() < 1e-10 && (vals[0].1 + 2.0).abs() < 1e-10);
        assert!((vals[1].0 - 1.0).abs() < 1e-10 && (vals[1].1 - 2.0).abs() < 1e-10);
    }

    #[test]
    fn eig_vals_larger_spd() {
        // Symmetric tridiagonal Toeplitz [-0.5, 2, -0.5] of size 8:
        // eigenvalues 2 - cos(kπ/9), k = 1..8.
        let n = 8;
        let a = DMat::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -0.5
            } else {
                0.0
            }
        });
        let pi = std::f64::consts::PI;
        let mut expect: Vec<f64> = (1..=n)
            .map(|k| 2.0 - (k as f64 * pi / (n as f64 + 1.0)).cos())
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut qr: Vec<f64> = eig_vals(&a).unwrap().iter().map(|e| e.0).collect();
        qr.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (x, y) in expect.iter().zip(&qr) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn eig_vals_wide_spread_spectrum() {
        // Stiffness-style spectrum over 12 decades.
        let a = DMat::from_diag(&[-1.0, -1e4, -1e8, -1e12]);
        let mut vals: Vec<f64> = eig_vals(&a).unwrap().iter().map(|e| e.0).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((vals[0] / -1e12 - 1.0).abs() < 1e-8);
        assert!((vals[3] / -1.0 - 1.0).abs() < 1e-8);
    }

    #[test]
    fn empty_matrix_ok() {
        assert!(eig_vals(&DMat::zeros(0, 0)).unwrap().is_empty());
    }

    fn sorted(mut vals: Vec<Complex>) -> Vec<Complex> {
        vals.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(a.1.partial_cmp(&b.1).unwrap())
        });
        vals
    }

    #[test]
    fn hessenberg_is_an_orthogonal_similarity() {
        let a = DMat::from_fn(6, 6, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let h = hessenberg(&a);
        // Orthogonal similarity keeps the Frobenius norm and the spectrum.
        let fro = |m: &DMat| crate::norm2(m.as_slice());
        assert!((fro(&a) - fro(&h)).abs() < 1e-12 * fro(&a));
        let (ea, eh) = (sorted(eig_vals(&a).unwrap()), sorted(eig_vals(&h).unwrap()));
        for (x, y) in ea.iter().zip(&eh) {
            assert!(
                (x.0 - y.0).abs() < 1e-9 && (x.1 - y.1).abs() < 1e-9,
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn hessenberg_leaves_small_matrices_unchanged() {
        for a in [
            DMat::zeros(0, 0),
            DMat::from_rows(&[&[3.0]]),
            DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
        ] {
            assert_eq!(hessenberg(&a), a);
        }
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn hessenberg_rejects_rectangular_input() {
        let _ = hessenberg(&DMat::zeros(2, 3));
    }

    #[test]
    fn eig_vals_rejects_rectangular_and_non_finite_input() {
        assert!(matches!(
            eig_vals(&DMat::zeros(3, 2)),
            Err(DenseError::NotSquare { rows: 3, cols: 2 })
        ));
        let mut a = DMat::identity(3);
        a[(1, 2)] = f64::NAN;
        assert!(matches!(eig_vals(&a), Err(DenseError::NotFinite)));
        a[(1, 2)] = f64::INFINITY;
        assert!(matches!(eig_vals(&a), Err(DenseError::NotFinite)));
    }

    #[test]
    fn eig_vals_of_a_triangular_matrix_read_its_diagonal() {
        // Non-symmetric upper triangular: the eigenvalues are the diagonal.
        let a = DMat::from_rows(&[
            &[4.0, 2.0, -1.0, 7.0],
            &[0.0, -3.0, 5.0, 1.0],
            &[0.0, 0.0, 0.5, -2.0],
            &[0.0, 0.0, 0.0, 2.0],
        ]);
        let vals = sorted(eig_vals(&a).unwrap());
        for (v, want) in vals.iter().zip([-3.0, 0.5, 2.0, 4.0]) {
            assert!((v.0 - want).abs() < 1e-10 && v.1 == 0.0, "{v:?} vs {want}");
        }
    }

    #[test]
    fn eig_vals_recover_the_roots_of_a_companion_matrix() {
        // (z − 1)(z + 2)(z² + 2z + 5) = z⁴ + 3z³ + 5z² + z − 10: roots
        // 1, −2 and −1 ± 2i.
        let coeffs = [3.0, 5.0, 1.0, -10.0];
        let a = DMat::from_fn(4, 4, |i, j| {
            if i == 0 {
                -coeffs[j]
            } else if i == j + 1 {
                1.0
            } else {
                0.0
            }
        });
        let vals = sorted(eig_vals(&a).unwrap());
        let want = [(-2.0, 0.0), (-1.0, -2.0), (-1.0, 2.0), (1.0, 0.0)];
        for (v, w) in vals.iter().zip(&want) {
            assert!(
                (v.0 - w.0).abs() < 1e-9 && (v.1 - w.1).abs() < 1e-9,
                "{v:?} vs {w:?}"
            );
        }
    }
}
