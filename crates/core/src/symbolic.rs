//! Shared symbolic-factorization cache for the MATEX engines.
//!
//! Every [`MatexSolver`](crate::MatexSolver) run factors `G` (for the DC
//! condition and the input terms) and — on the rational variant — the
//! shifted system `C + γG`. Across a γ sweep, across the engine
//! comparisons of Table 1, and across a scenario engine's jobs on one
//! circuit, those matrices keep one nonzero pattern: only the values
//! change. A [`MatexSymbolic`] performs the sparsity analysis once and
//! lets every subsequent preparation replay cheap numeric
//! refactorizations, skipping the AMD ordering and the Gilbert–Peierls
//! reach DFS entirely. An analysis costs a recording factorization, so
//! it pays only when something replays it:
//! [`MatexSymbolic::analyze_with_setup`] keeps that first
//! factorization as the analyzed system's own setup, and a distributed
//! run, which prepares once, does not analyze at all.
//!
//! The object is immutable after [`MatexSymbolic::analyze`], so a single
//! `Arc<MatexSymbolic>` is shared read-only across threads.

use crate::setup::standard_x1;
use crate::{CoreError, MatexSetup};
use matex_circuit::MnaSystem;
use matex_krylov::KrylovKind;
use matex_sparse::{CsrMatrix, LuOptions, SparseLu, SymbolicLu};
use matex_sparse::{WireError, WireReader, WireWriter};
use std::time::Instant;

/// One system's reusable symbolic factorizations.
///
/// # Example
///
/// ```
/// use matex_circuit::RcMeshBuilder;
/// use matex_core::{
///     MatexOptions, MatexSetup, MatexSolver, MatexSymbolic, TransientEngine, TransientSpec,
/// };
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RcMeshBuilder::new(4, 4).build()?;
/// let spec = TransientSpec::new(0.0, 1e-9, 1e-11)?;
/// let opts = MatexOptions::default();
/// // Analyze once, then sweep γ with numeric-replay factorizations.
/// let symbolic = MatexSymbolic::analyze(&sys, &opts)?;
/// for gamma in [5e-11, 1e-10, 2e-10] {
///     let opts = opts.clone().gamma(gamma);
///     let setup = MatexSetup::prepare(&sys, &opts, Some(&symbolic), false)?;
///     let solver = MatexSolver::new(opts).with_setup(Arc::new(setup));
///     let result = solver.run(&sys, &spec)?;
///     // Both factorizations replayed the shared analysis.
///     assert_eq!(result.stats.refactorizations, 2);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MatexSymbolic {
    lu_opts: LuOptions,
    g: SymbolicLu,
    shifted: Option<SymbolicLu>,
}

impl MatexSymbolic {
    /// Analyzes `G` and — for the rational variant — the shifted system
    /// `C + γG` of the given options.
    ///
    /// # Errors
    ///
    /// Propagates sparse analysis failures ([`CoreError::Sparse`]).
    pub fn analyze(sys: &MnaSystem, opts: &crate::MatexOptions) -> Result<Self, CoreError> {
        Self::record(sys, opts).map(|(symbolic, _, _)| symbolic)
    }

    /// [`MatexSymbolic::analyze`] plus the [`MatexSetup`] of `(sys,
    /// opts)`, in one pass: the recording factorizations of the analysis
    /// are the setup's `G` and `C + γG` factors (MEXP's regularized `C`,
    /// which has no analysis, is factored directly). The setup is bitwise
    /// the one [`MatexSetup::prepare`] builds by replaying this analysis,
    /// and reports its factorizations with no replays.
    ///
    /// # Errors
    ///
    /// Propagates sparse analysis and factorization failures
    /// ([`CoreError::Sparse`]).
    pub fn analyze_with_setup(
        sys: &MnaSystem,
        opts: &crate::MatexOptions,
    ) -> Result<(Self, MatexSetup), CoreError> {
        let t0 = Instant::now();
        let (symbolic, lu_g, lu_shifted) = Self::record(sys, opts)?;
        let lu_x1 = match opts.kind {
            KrylovKind::Standard => Some(standard_x1(sys, opts)?),
            _ => lu_shifted,
        };
        // The recorded factors grew amid the recordings' scratch; the
        // setup outlives both (a service caches it), so it keeps compact
        // copies, laid out as a replay's exactly sized factors would be.
        let setup = MatexSetup::from_factors(sys, opts, lu_g.clone(), lu_x1.clone(), 0, t0);
        Ok((symbolic, setup))
    }

    /// The analysis together with the factors its recording passes
    /// computed: `G`'s, and `C + γG`'s for the rational variant.
    fn record(
        sys: &MnaSystem,
        opts: &crate::MatexOptions,
    ) -> Result<(Self, SparseLu, Option<SparseLu>), CoreError> {
        let lu_opts = LuOptions::default();
        let (g, lu_g) = SymbolicLu::analyze_with_factor(sys.g(), &lu_opts)?;
        let (shifted, lu_shifted) = match opts.kind {
            KrylovKind::Rational => {
                let m = CsrMatrix::linear_combination(1.0, sys.c(), opts.gamma, sys.g())?;
                let (sym, lu) = SymbolicLu::analyze_with_factor(&m, &lu_opts)?;
                (Some(sym), Some(lu))
            }
            // The inverted variant factors only G; the standard variant
            // factors a (possibly regularized) C with its own pattern.
            _ => (None, None),
        };
        let symbolic = MatexSymbolic {
            lu_opts,
            g,
            shifted,
        };
        Ok((symbolic, lu_g, lu_shifted))
    }

    /// The symbolic analysis of `G`.
    pub fn g(&self) -> &SymbolicLu {
        &self.g
    }

    /// The symbolic analysis of the shifted pattern `C + γG`, when the
    /// analyzed options used the rational variant.
    pub fn shifted(&self) -> Option<&SymbolicLu> {
        self.shifted.as_ref()
    }

    /// Appends the full analysis bundle to `w` for the artifact store.
    /// A decoded bundle drives the same bitwise numeric replays as the
    /// one that was encoded.
    pub fn wire_encode(&self, w: &mut WireWriter) {
        self.lu_opts.wire_encode(w);
        self.g.wire_encode(w);
        w.u8(self.shifted.is_some() as u8);
        if let Some(sh) = &self.shifted {
            sh.wire_encode(w);
        }
    }

    /// Decodes a bundle previously written by
    /// [`MatexSymbolic::wire_encode`].
    ///
    /// The record must end after the bundle.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, trailing bytes or structurally
    /// invalid analyses.
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let lu_opts = LuOptions::wire_decode(r)?;
        let g = SymbolicLu::wire_decode(r)?;
        let shifted = match r.u8()? {
            0 => None,
            1 => Some(SymbolicLu::wire_decode(r)?),
            t => return Err(WireError::Invalid(format!("shifted presence byte {t}"))),
        };
        if !r.is_empty() {
            return Err(WireError::Invalid(format!(
                "{} trailing bytes after the analysis",
                r.remaining()
            )));
        }
        Ok(MatexSymbolic {
            lu_opts,
            g,
            shifted,
        })
    }

    /// Factors `g` by numeric replay, falling back to a full
    /// factorization on pivot degradation; the flag is `true` for a
    /// replay.
    pub(crate) fn refactor_g(&self, g: &CsrMatrix) -> Result<(SparseLu, bool), CoreError> {
        Ok(match self.g.try_refactor(g)? {
            Some(lu) => (lu, true),
            None => (SparseLu::factor(g, &self.lu_opts)?, false),
        })
    }
}
