//! Dense matrix exponential via Padé scaling-and-squaring.
//!
//! This is the same algorithm family as MATLAB's `expm` (Higham 2005), which
//! the MATEX paper uses to evaluate `e^{h H_m}` on the small projected
//! Hessenberg matrices. The cost is `O(m³)` — the `T_H` term of the paper's
//! complexity model (Sec. 3.4).

use crate::{DMat, DenseError, DenseLu, Result};

/// Padé coefficient tables, degree → coefficients `b₀..b_m` (Higham 2005,
/// Table 2.3 generators).
const PADE3: [f64; 4] = [120.0, 60.0, 12.0, 1.0];
const PADE5: [f64; 6] = [30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0];
const PADE7: [f64; 8] = [
    17_297_280.0,
    8_648_640.0,
    1_995_840.0,
    277_200.0,
    25_200.0,
    1_512.0,
    56.0,
    1.0,
];
const PADE9: [f64; 10] = [
    17_643_225_600.0,
    8_821_612_800.0,
    2_075_673_600.0,
    302_702_400.0,
    30_270_240.0,
    2_162_160.0,
    110_880.0,
    3_960.0,
    90.0,
    1.0,
];
const PADE13: [f64; 14] = [
    64_764_752_532_480_000.0,
    32_382_376_266_240_000.0,
    7_771_770_303_897_600.0,
    1_187_353_796_428_800.0,
    129_060_195_264_000.0,
    10_559_470_521_600.0,
    670_442_572_800.0,
    33_522_128_640.0,
    1_323_241_920.0,
    40_840_800.0,
    960_960.0,
    16_380.0,
    182.0,
    1.0,
];

/// 1-norm thresholds θ_m below which the degree-m Padé approximant meets
/// double-precision accuracy (Higham 2005, Table 2.3).
const THETA3: f64 = 1.495_585_217_958_292e-2;
const THETA5: f64 = 2.539_398_330_063_23e-1;
const THETA7: f64 = 9.504_178_996_162_932e-1;
const THETA9: f64 = 2.097_847_961_257_068;
const THETA13: f64 = 5.371_920_351_148_152;

/// Computes the matrix exponential `e^A`.
///
/// Uses the [m/m] Padé approximant of the smallest adequate degree
/// (3/5/7/9/13) with scaling-and-squaring for large-norm inputs.
///
/// # Errors
///
/// * [`DenseError::NotSquare`] when `a` is rectangular.
/// * [`DenseError::NotFinite`] when `a` contains NaN/inf.
/// * [`DenseError::SingularPivot`] if the Padé denominator cannot be
///   factored (does not occur for finite inputs in practice).
///
/// # Example
///
/// ```
/// use matex_dense::{DMat, expm};
///
/// # fn main() -> Result<(), matex_dense::DenseError> {
/// // For diagonal matrices, expm exponentiates the diagonal.
/// let d = DMat::from_diag(&[0.0, (2.0_f64).ln()]);
/// let e = expm(&d)?;
/// assert!((e[(1, 1)] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn expm(a: &DMat) -> Result<DMat> {
    if !a.is_square() {
        return Err(DenseError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    if !a.is_finite() {
        return Err(DenseError::NotFinite);
    }
    let norm = a.norm_one();
    if norm <= THETA9 {
        let coeffs: &[f64] = if norm <= THETA3 {
            &PADE3
        } else if norm <= THETA5 {
            &PADE5
        } else if norm <= THETA7 {
            &PADE7
        } else {
            &PADE9
        };
        return pade_low(a, coeffs);
    }
    // Scaling and squaring with degree-13 Padé.
    let s = if norm > THETA13 {
        ((norm / THETA13).log2().ceil()) as u32
    } else {
        0
    };
    let scaled = a.scaled(0.5_f64.powi(s as i32));
    let mut e = pade13(&scaled)?;
    for _ in 0..s {
        e = e.matmul(&e)?;
    }
    // Intermediate squaring of ill-conditioned inputs can overflow; a
    // non-finite exponential must never escape silently.
    if !e.is_finite() {
        return Err(DenseError::NotFinite);
    }
    Ok(e)
}

/// Degree 3/5/7/9 Padé approximant (even/odd polynomial split).
fn pade_low(a: &DMat, b: &[f64]) -> Result<DMat> {
    let n = a.nrows();
    let ident = DMat::identity(n);
    let a2 = a.matmul(a)?;
    // Powers of A²: pows[k] = A^{2k}, k = 0..=(m-1)/2
    let mut pows: Vec<DMat> = vec![ident.clone(), a2.clone()];
    let half = (b.len() - 1) / 2; // m/2 rounded down; m odd => (m-1)/2
    while pows.len() <= half {
        let next = pows.last().expect("nonempty").matmul(&a2)?;
        pows.push(next);
    }
    // U = A * Σ_{k} b[2k+1] A^{2k};  V = Σ_{k} b[2k] A^{2k}
    let mut u_inner = DMat::zeros(n, n);
    let mut v = DMat::zeros(n, n);
    for (k, p) in pows.iter().enumerate() {
        if 2 * k + 1 < b.len() {
            u_inner = &u_inner + &p.scaled(b[2 * k + 1]);
        }
        v = &v + &p.scaled(b[2 * k]);
    }
    let u = a.matmul(&u_inner)?;
    pade_solve(&u, &v)
}

/// Degree-13 Padé approximant with the Higham factored form.
fn pade13(a: &DMat) -> Result<DMat> {
    let n = a.nrows();
    let b = &PADE13;
    let ident = DMat::identity(n);
    let a2 = a.matmul(a)?;
    let a4 = a2.matmul(&a2)?;
    let a6 = a4.matmul(&a2)?;
    // U = A (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I)
    let w1 = &(&a6.scaled(b[13]) + &a4.scaled(b[11])) + &a2.scaled(b[9]);
    let w2 = &(&(&a6.scaled(b[7]) + &a4.scaled(b[5])) + &a2.scaled(b[3])) + &ident.scaled(b[1]);
    let u = a.matmul(&(&a6.matmul(&w1)? + &w2))?;
    // V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
    let z1 = &(&a6.scaled(b[12]) + &a4.scaled(b[10])) + &a2.scaled(b[8]);
    let z2 = &(&(&a6.scaled(b[6]) + &a4.scaled(b[4])) + &a2.scaled(b[2])) + &ident.scaled(b[0]);
    let v = &a6.matmul(&z1)? + &z2;
    pade_solve(&u, &v)
}

/// Solves `(V − U) X = (V + U)` for the Padé quotient.
fn pade_solve(u: &DMat, v: &DMat) -> Result<DMat> {
    let denom = v - u;
    let numer = v + u;
    DenseLu::factor(&denom)?.solve_mat(&numer)
}

/// First column of `e^{A}`, i.e. `e^{A} e₁`.
///
/// This is the quantity MATEX evaluates at every time point:
/// `x(t+h) ≈ ‖v‖ V_m e^{h H_m} e₁`. A thin wrapper over
/// [`expm_col0_into`] with a one-shot scratch; hot paths should hold an
/// [`ExpmScratch`] and call the into-variant directly.
///
/// # Errors
///
/// Same as [`expm`].
pub fn expm_col0(a: &DMat) -> Result<Vec<f64>> {
    let mut scratch = ExpmScratch::new();
    let mut out = vec![0.0; a.nrows()];
    expm_col0_into(a, &mut scratch, &mut out)?;
    Ok(out)
}

/// Reusable buffers for the allocation-free exponential kernels
/// ([`expm_col0_into`], [`expm_col0_ladder`]).
///
/// All slots are lazily sized to the input dimension; after the first
/// call at a given size, subsequent calls perform **zero** heap
/// allocations (verified by the counting-allocator test in
/// `matex-core/tests/alloc_free.rs`).
#[derive(Debug, Clone)]
pub struct ExpmScratch {
    /// `A²` and the rotating even-power slots.
    a2: DMat,
    pa: DMat,
    pb: DMat,
    /// Padé polynomial accumulators.
    w1: DMat,
    w2: DMat,
    t: DMat,
    u: DMat,
    v: DMat,
    /// The exponential itself plus the squaring ping-pong partner.
    e: DMat,
    e2: DMat,
    /// The `2^{-s}`-scaled input.
    scaled: DMat,
    /// Reusable Padé-denominator factorization.
    lu: Option<DenseLu>,
    /// Column scratch for the triangular solves.
    col: Vec<f64>,
}

impl ExpmScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> ExpmScratch {
        let z = || DMat::zeros(0, 0);
        ExpmScratch {
            a2: z(),
            pa: z(),
            pb: z(),
            w1: z(),
            w2: z(),
            t: z(),
            u: z(),
            v: z(),
            e: z(),
            e2: z(),
            scaled: z(),
            lu: None,
            col: Vec::new(),
        }
    }

    /// Sizes every slot for `n × n` inputs (reallocates only on change).
    fn ensure(&mut self, n: usize) {
        if self.a2.nrows() != n {
            for m in [
                &mut self.a2,
                &mut self.pa,
                &mut self.pb,
                &mut self.w1,
                &mut self.w2,
                &mut self.t,
                &mut self.u,
                &mut self.v,
                &mut self.e,
                &mut self.e2,
                &mut self.scaled,
            ] {
                *m = DMat::zeros(n, n);
            }
        }
        if self.col.len() != n {
            self.col.resize(n, 0.0);
        }
    }

    /// Factors the Padé denominator in `self.t`, reusing the stored
    /// factorization's buffers.
    fn refactor_denominator(&mut self) -> Result<()> {
        match &mut self.lu {
            Some(lu) => lu.refactor(&self.t),
            None => {
                self.lu = Some(DenseLu::factor(&self.t)?);
                Ok(())
            }
        }
    }
}

impl Default for ExpmScratch {
    fn default() -> Self {
        ExpmScratch::new()
    }
}

/// Degree 3/5/7/9 Padé numerator/denominator halves into `s.u` / `s.v`,
/// performing bit-for-bit the arithmetic of [`pade_low`] without
/// allocating.
fn pade_low_into(a: &DMat, b: &[f64], s: &mut ExpmScratch) {
    let n = a.nrows();
    a.matmul_into(a, &mut s.a2);
    // k = 0 term (identity power): every Padé coefficient is positive,
    // so the off-diagonal `+= b·0.0` of the allocating version leaves
    // exactly the +0.0 the zero-fill already wrote.
    s.w1.as_mut_slice().fill(0.0);
    s.v.as_mut_slice().fill(0.0);
    for i in 0..n {
        s.w1[(i, i)] += b[1];
        s.v[(i, i)] += b[0];
    }
    // k = 1..=half with the even powers A^{2k} built incrementally.
    let half = (b.len() - 1) / 2;
    s.pa.copy_from(&s.a2);
    for k in 1..=half {
        let (w1, v, pa) = (s.w1.as_mut_slice(), s.v.as_mut_slice(), s.pa.as_slice());
        let (bu, bv) = (b[2 * k + 1], b[2 * k]);
        for (e, &p) in pa.iter().enumerate() {
            w1[e] += bu * p;
            v[e] += bv * p;
        }
        if k < half {
            s.pa.matmul_into(&s.a2, &mut s.pb);
            std::mem::swap(&mut s.pa, &mut s.pb);
        }
    }
    // U = A · Σ b[2k+1] A^{2k}
    a.matmul_into(&s.w1, &mut s.u);
}

/// Degree-13 Padé halves into `s.u` / `s.v` (Higham factored form),
/// bit-for-bit the arithmetic of [`pade13`] without allocating.
fn pade13_into(a: &DMat, s: &mut ExpmScratch) {
    let n = a.nrows();
    let b = &PADE13;
    a.matmul_into(a, &mut s.a2); // A²
    s.a2.matmul_into(&s.a2, &mut s.pa); // A⁴
    s.pa.matmul_into(&s.a2, &mut s.pb); // A⁶
    {
        let (a2, a4, a6) = (s.a2.as_slice(), s.pa.as_slice(), s.pb.as_slice());
        let (w1, w2) = (s.w1.as_mut_slice(), s.w2.as_mut_slice());
        for e in 0..n * n {
            // W1 = b13 A6 + b11 A4 + b9 A2
            w1[e] = b[13] * a6[e] + b[11] * a4[e] + b[9] * a2[e];
            // W2 = b7 A6 + b5 A4 + b3 A2 + b1 I (the identity term is a
            // genuine `+ b·{0,1}` so ±0.0 handling matches the
            // allocating version).
            let ie = if e % (n + 1) == 0 { 1.0 } else { 0.0 };
            w2[e] = ((b[7] * a6[e] + b[5] * a4[e]) + b[3] * a2[e]) + b[1] * ie;
        }
    }
    // U = A (A6 W1 + W2)
    s.pb.matmul_into(&s.w1, &mut s.t);
    {
        let (t, w2) = (s.t.as_mut_slice(), s.w2.as_slice());
        for (te, &we) in t.iter_mut().zip(w2) {
            *te += we;
        }
    }
    a.matmul_into(&s.t, &mut s.u);
    // V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
    {
        let (a2, a4, a6) = (s.a2.as_slice(), s.pa.as_slice(), s.pb.as_slice());
        let (w1, w2) = (s.w1.as_mut_slice(), s.w2.as_mut_slice());
        for e in 0..n * n {
            w1[e] = b[12] * a6[e] + b[10] * a4[e] + b[8] * a2[e];
            let ie = if e % (n + 1) == 0 { 1.0 } else { 0.0 };
            w2[e] = ((b[6] * a6[e] + b[4] * a4[e]) + b[2] * a2[e]) + b[0] * ie;
        }
    }
    s.pb.matmul_into(&s.w1, &mut s.t);
    {
        let (v, t, w2) = (s.v.as_mut_slice(), s.t.as_slice(), s.w2.as_slice());
        for e in 0..n * n {
            v[e] = t[e] + w2[e];
        }
    }
}

/// Solves the Padé quotient for its first column only: one triangular
/// solve instead of `n` (the `T_H` saving of the batched evaluator).
fn pade_solve_col0(s: &mut ExpmScratch, out: &mut [f64]) -> Result<()> {
    let n = s.u.nrows();
    {
        let (t, u, v) = (s.t.as_mut_slice(), s.u.as_slice(), s.v.as_slice());
        for e in 0..n * n {
            t[e] = v[e] - u[e];
        }
    }
    for i in 0..n {
        s.col[i] = s.v[(i, 0)] + s.u[(i, 0)];
    }
    s.refactor_denominator()?;
    let lu = s.lu.as_ref().expect("denominator factored");
    lu.solve_in_place(&mut s.col);
    out.copy_from_slice(&s.col);
    Ok(())
}

/// Solves the full Padé quotient into `s.e`, column by column in the
/// exact order of the allocating [`pade_solve`].
fn pade_solve_full(s: &mut ExpmScratch) -> Result<()> {
    let n = s.u.nrows();
    {
        let (t, u, v, e) = (
            s.t.as_mut_slice(),
            s.u.as_slice(),
            s.v.as_slice(),
            s.e.as_mut_slice(),
        );
        for k in 0..n * n {
            t[k] = v[k] - u[k];
            e[k] = v[k] + u[k];
        }
    }
    s.refactor_denominator()?;
    let lu = s.lu.as_ref().expect("denominator factored");
    for j in 0..n {
        for i in 0..n {
            s.col[i] = s.e[(i, j)];
        }
        lu.solve_in_place(&mut s.col);
        for i in 0..n {
            s.e[(i, j)] = s.col[i];
        }
    }
    Ok(())
}

/// Allocation-free `e^{A} e₁`: writes the first column of the matrix
/// exponential into `out`, reusing `scratch` for every intermediate.
///
/// Performs bit-for-bit the arithmetic of [`expm_col0`] (which is a
/// wrapper over this function). When no squaring is needed, only the
/// first column of the Padé quotient is solved — `O(m²)` instead of the
/// `O(m³)` full solve, on top of the removed allocations.
///
/// # Errors
///
/// As [`expm`], except that the post-squaring finiteness check covers
/// only the returned column when the full quotient was never formed.
///
/// # Panics
///
/// Panics when `out.len()` differs from the dimension of `a`.
pub fn expm_col0_into(a: &DMat, scratch: &mut ExpmScratch, out: &mut [f64]) -> Result<()> {
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
    assert_eq!(out.len(), n, "expm_col0_into: output length mismatch");
    scratch.ensure(n);
    let norm = a.norm_one();
    if norm <= THETA9 {
        let coeffs: &[f64] = if norm <= THETA3 {
            &PADE3
        } else if norm <= THETA5 {
            &PADE5
        } else if norm <= THETA7 {
            &PADE7
        } else {
            &PADE9
        };
        pade_low_into(a, coeffs, scratch);
        return pade_solve_col0(scratch, out);
    }
    // Scaling and squaring with degree-13 Padé.
    let s = if norm > THETA13 {
        ((norm / THETA13).log2().ceil()) as u32
    } else {
        0
    };
    let mut scaled = std::mem::replace(&mut scratch.scaled, DMat::zeros(0, 0));
    a.scaled_into(0.5_f64.powi(s as i32), &mut scaled);
    pade13_into(&scaled, scratch);
    scratch.scaled = scaled;
    if s == 0 {
        pade_solve_col0(scratch, out)?;
        if !out.iter().all(|v| v.is_finite()) {
            return Err(DenseError::NotFinite);
        }
        return Ok(());
    }
    pade_solve_full(scratch)?;
    for _ in 0..s {
        s_square(scratch);
    }
    if !scratch.e.is_finite() {
        return Err(DenseError::NotFinite);
    }
    for i in 0..n {
        out[i] = scratch.e[(i, 0)];
    }
    Ok(())
}

/// One squaring step of the scratch exponential (`E ← E²`).
fn s_square(s: &mut ExpmScratch) {
    s.e.matmul_into(&s.e, &mut s.e2);
    std::mem::swap(&mut s.e, &mut s.e2);
}

/// The `e₁`-columns of `e^{A}, e^{A/2}, …, e^{A/2^{s_max}}` from a
/// **single** scaling-and-squaring pass.
///
/// This is the kernel behind MATEX's sub-step search: the squaring
/// intermediates of one `expm(A)` *are* the exponentials at the halved
/// step distances, so the whole ladder costs one Padé evaluation plus
/// one `O(m³)` matrix square per rung — where the per-trial search paid
/// a full `expm` at every halving.
///
/// Rungs are produced bottom-up (deepest first): rung `s` is written to
/// `out[s·n .. (s+1)·n]` and handed to `continue_up(s, col)`; returning
/// `false` stops the ascent (shallower rungs are left untouched —
/// estimate-driven early exit). The callback is also invoked for rung 0,
/// whose return value is ignored. Returns the lowest rung index
/// produced.
///
/// The ladder always uses the degree-13 Padé kernel with at least
/// `s_max` scaling steps, so rung `s` equals the standalone
/// `e^{A/2^s}` to rounding (not bitwise — the standalone evaluation may
/// pick a lower Padé degree). Non-finite squaring overflow is not an
/// error here: the garbage column yields a NaN/∞ residual estimate and
/// the callback is expected to stop the ascent.
///
/// # Errors
///
/// As [`expm`] for the base Padé evaluation (non-square / non-finite
/// input, singular denominator).
///
/// # Panics
///
/// Panics when `out.len() != (s_max + 1) · n`.
pub fn expm_col0_ladder(
    a: &DMat,
    s_max: usize,
    scratch: &mut ExpmScratch,
    out: &mut [f64],
    mut continue_up: impl FnMut(usize, &[f64]) -> bool,
) -> Result<usize> {
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
    assert_eq!(
        out.len(),
        (s_max + 1) * n,
        "expm_col0_ladder: output length mismatch"
    );
    scratch.ensure(n);
    let norm = a.norm_one();
    let s_nat = if norm > THETA13 {
        ((norm / THETA13).log2().ceil()) as u32
    } else {
        0
    };
    let s_total = s_nat.max(s_max as u32);
    let mut scaled = std::mem::replace(&mut scratch.scaled, DMat::zeros(0, 0));
    a.scaled_into(0.5_f64.powi(s_total as i32), &mut scaled);
    pade13_into(&scaled, scratch);
    scratch.scaled = scaled;
    pade_solve_full(scratch)?;
    // Bring the base to the deepest rung: e = e^{A/2^{s_max}}.
    for _ in 0..(s_total - s_max as u32) {
        s_square(scratch);
    }
    let mut lowest = s_max;
    for rung in (0..=s_max).rev() {
        let span = rung * n..(rung + 1) * n;
        for (k, o) in out[span.clone()].iter_mut().enumerate() {
            *o = scratch.e[(k, 0)];
        }
        lowest = rung;
        if !continue_up(rung, &out[span]) || rung == 0 {
            break;
        }
        s_square(scratch);
    }
    Ok(lowest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Taylor-series reference implementation (only valid for small norms).
    fn expm_taylor(a: &DMat, terms: usize) -> DMat {
        let n = a.nrows();
        let mut sum = DMat::identity(n);
        let mut term = DMat::identity(n);
        for k in 1..=terms {
            term = term.matmul(a).unwrap().scaled(1.0 / k as f64);
            sum = &sum + &term;
        }
        sum
    }

    #[test]
    fn expm_zero_is_identity() {
        let e = expm(&DMat::zeros(4, 4)).unwrap();
        assert!(e.max_abs_diff(&DMat::identity(4)) < 1e-15);
    }

    #[test]
    fn expm_diagonal() {
        let d = DMat::from_diag(&[1.0, -2.0, 0.5]);
        let e = expm(&d).unwrap();
        for (i, &v) in [1.0_f64, -2.0, 0.5].iter().enumerate() {
            assert!((e[(i, i)] - v.exp()).abs() < 1e-12 * v.exp().max(1.0));
        }
        assert!(e[(0, 1)].abs() < 1e-15);
    }

    #[test]
    fn expm_matches_taylor_small_norm() {
        let a = DMat::from_rows(&[&[0.01, 0.002], &[-0.003, 0.004]]);
        let e = expm(&a).unwrap();
        let t = expm_taylor(&a, 20);
        assert!(e.max_abs_diff(&t) < 1e-14);
    }

    #[test]
    fn expm_matches_taylor_medium_norm() {
        let a = DMat::from_rows(&[&[0.9, 0.3], &[-0.2, 0.5]]);
        let e = expm(&a).unwrap();
        let t = expm_taylor(&a, 40);
        assert!(e.max_abs_diff(&t) < 1e-12);
    }

    #[test]
    fn expm_large_norm_scaling_squaring() {
        // e^{[[0, w], [-w, 0]]} is a rotation by w.
        let w = 100.0;
        let a = DMat::from_rows(&[&[0.0, w], &[-w, 0.0]]);
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - w.cos()).abs() < 1e-9);
        assert!((e[(0, 1)] - w.sin()).abs() < 1e-9);
    }

    #[test]
    fn expm_group_property() {
        // e^{A} e^{A} = e^{2A}
        let a = DMat::from_rows(&[&[0.3, 0.1], &[0.0, -0.4]]);
        let e1 = expm(&a).unwrap();
        let e2 = expm(&a.scaled(2.0)).unwrap();
        let sq = e1.matmul(&e1).unwrap();
        assert!(sq.max_abs_diff(&e2) < 1e-12);
    }

    #[test]
    fn expm_inverse_property() {
        // e^{A} e^{-A} = I
        let a = DMat::from_rows(&[&[1.2, -0.7], &[0.4, 0.9]]);
        let p = expm(&a)
            .unwrap()
            .matmul(&expm(&a.scaled(-1.0)).unwrap())
            .unwrap();
        assert!(p.max_abs_diff(&DMat::identity(2)) < 1e-10);
    }

    #[test]
    fn expm_stiff_decay_underflows_gracefully() {
        // Very stiff decay: entries underflow to ~0, no NaN.
        let a = DMat::from_diag(&[-1e6, -1.0]);
        let e = expm(&a).unwrap();
        assert!(e.is_finite());
        assert!(e[(0, 0)].abs() < 1e-200);
        // Squaring 2^s times amplifies rounding error by ~2^s; allow for it.
        assert!((e[(1, 1)] - (-1.0_f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn expm_col0_matches_full() {
        let a = DMat::from_rows(&[&[0.2, 1.0, 0.0], &[0.3, -0.1, 0.5], &[0.0, 0.2, 0.1]]);
        let full = expm(&a).unwrap();
        let c = expm_col0(&a).unwrap();
        for i in 0..3 {
            assert_eq!(c[i], full[(i, 0)]);
        }
    }

    #[test]
    fn expm_col0_into_matches_wrapper_and_reuses_scratch() {
        // Low-norm (Padé 3/5/7/9), mid-norm (degree 13, no squaring) and
        // high-norm (squaring) inputs, interleaved through ONE scratch:
        // every call must match the one-shot wrapper bitwise.
        let cases = [
            DMat::from_rows(&[&[0.01, 0.002], &[-0.003, 0.004]]),
            DMat::from_rows(&[&[0.9, 0.3], &[-0.2, 0.5]]),
            DMat::from_rows(&[&[3.0, 1.0], &[0.5, -2.5]]),
            DMat::from_rows(&[&[0.0, 40.0], &[-40.0, 0.0]]),
            DMat::from_rows(&[&[0.2, 1.0, 0.0], &[0.3, -0.1, 0.5], &[0.0, 0.2, 0.1]]),
        ];
        let mut scratch = ExpmScratch::new();
        for a in &cases {
            let mut out = vec![0.0; a.nrows()];
            expm_col0_into(a, &mut scratch, &mut out).unwrap();
            let full = expm(a).unwrap().col(0);
            for (p, q) in out.iter().zip(&full) {
                assert_eq!(p.to_bits(), q.to_bits(), "norm {}", a.norm_one());
            }
        }
    }

    #[test]
    fn ladder_rungs_match_standalone_expm() {
        let a = DMat::from_rows(&[&[1.4, 0.8, 0.0], &[-0.3, 2.0, 0.5], &[0.1, -0.2, -1.0]]);
        let s_max = 5;
        let mut scratch = ExpmScratch::new();
        let mut out = vec![0.0; (s_max + 1) * 3];
        let mut seen = Vec::new();
        let lowest = expm_col0_ladder(&a, s_max, &mut scratch, &mut out, |s, _| {
            seen.push(s);
            true
        })
        .unwrap();
        assert_eq!(lowest, 0);
        assert_eq!(seen, vec![5, 4, 3, 2, 1, 0]);
        for s in 0..=s_max {
            let reference = expm(&a.scaled(0.5_f64.powi(s as i32))).unwrap().col(0);
            for (p, q) in out[s * 3..(s + 1) * 3].iter().zip(&reference) {
                assert!((p - q).abs() < 1e-12, "rung {s}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn ladder_early_stop_leaves_shallow_rungs_untouched() {
        let a = DMat::from_diag(&[-2.0, 0.5]);
        let s_max = 4;
        let mut scratch = ExpmScratch::new();
        let mut out = vec![f64::NAN; (s_max + 1) * 2];
        let lowest = expm_col0_ladder(&a, s_max, &mut scratch, &mut out, |s, _| s > 2).unwrap();
        // Stopped after recording rung 2 (whose callback returned false).
        assert_eq!(lowest, 2);
        assert!(out[2 * 2..].iter().all(|v| v.is_finite()));
        assert!(out[..2 * 2].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn expm_rejects_rectangular() {
        assert!(matches!(
            expm(&DMat::zeros(2, 3)),
            Err(DenseError::NotSquare { .. })
        ));
    }

    #[test]
    fn expm_rejects_nan() {
        let mut a = DMat::zeros(2, 2);
        a[(0, 0)] = f64::INFINITY;
        assert!(matches!(expm(&a), Err(DenseError::NotFinite)));
    }
}
