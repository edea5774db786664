//! Reusable solver setup: the split between *preparing* a MATEX run and
//! *running* it.
//!
//! Everything [`MatexSolver::run`](crate::MatexSolver) does before its
//! transient loop — factoring `G`, factoring the variant's `X1` matrix
//! (`C + γG` for R-MATEX, a regularized `C` for MEXP) — depends only on
//! the system matrices and `(kind, γ)`, never on the source waveforms,
//! the time window, the source mask, or the tolerances. A
//! [`MatexSetup`] captures exactly that prefix as an immutable artifact:
//!
//! * a solver prepares one internally when none is injected (the
//!   historical behavior, bit for bit),
//! * a scenario engine prepares one per `(circuit values, γ)` and
//!   injects it into every job that shares them
//!   ([`MatexSolver::with_setup`](crate::MatexSolver::with_setup)), so
//!   repeated-structure jobs skip straight to the numeric march,
//! * a distributed run shares one across all of its nodes
//!   (`DistributedOptions::setup` in `matex-dist`) — the node matrices
//!   are identical, masking only selects input columns.
//!
//! Injection never changes the numerics: the factors (and therefore
//! every substitution of the run) are the same objects a fresh
//! preparation would produce.
//!
//! A what-if setup ([`MatexSetup::correct`]) is a setup whose factors
//! carry their correction: it shares its base's factors (`Arc`s) and
//! adds the Sherman–Morrison–Woodbury update each one needs for the
//! edited system. It hands out the same [`FactorRef`]s as any other
//! setup, whose solves apply the correction, so the DC solve, the
//! input columns and the Krylov operator serve the edited circuit
//! without knowing it was edited.

use crate::{CoreError, MatexOptions, MatexSymbolic};
use matex_circuit::{regularize_c, MnaSystem, ValueDiff};
use matex_krylov::{shifted_system, KrylovKind};
use matex_sparse::{
    FactorRef, LuOptions, SmwOptions, SmwRejection, SmwUpdate, SparseCol, SparseLu,
};
use matex_sparse::{WireError, WireReader, WireWriter};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The immutable, shareable preparation of a MATEX run: factors of `G`
/// and the variant matrix.
///
/// # Example
///
/// ```
/// use matex_circuit::RcMeshBuilder;
/// use matex_core::{MatexOptions, MatexSetup, MatexSolver, TransientEngine, TransientSpec};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RcMeshBuilder::new(4, 4).build()?;
/// let opts = MatexOptions::default();
/// let setup = Arc::new(MatexSetup::prepare(&sys, &opts, None, false)?);
/// // Two runs over different windows share one preparation; the
/// // waveforms are bitwise what a fresh solver produces.
/// let spec = TransientSpec::new(0.0, 1e-9, 1e-11)?;
/// let fresh = MatexSolver::new(opts.clone()).run(&sys, &spec)?;
/// let reused = MatexSolver::new(opts).with_setup(setup).run(&sys, &spec)?;
/// assert_eq!(fresh.series(), reused.series());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MatexSetup {
    kind: KrylovKind,
    gamma: f64,
    regularize_eps: f64,
    dim: usize,
    /// The factor of `G`.
    g: Factor,
    /// The variant's `X1` factor; `None` for I-MATEX, which reuses `g`.
    x1: Option<Factor>,
    /// Touched-row rank of the edit the factors are corrected for;
    /// `None` when the setup is uncorrected.
    whatif_rank: Option<usize>,
    factorizations: usize,
    refactorizations: usize,
    factor_time: Duration,
}

impl MatexSetup {
    /// Performs the run-independent preparation for `(sys, opts)`.
    ///
    /// With a shared `symbolic` analysis the factorizations become
    /// numeric replays (counted in [`MatexSetup::refactorizations`]).
    /// `with_schedules` is ignored: every run uses the one column solve
    /// against the factors, so there is nothing extra to build. It
    /// stays for existing callers.
    ///
    /// The two factorizations run one after the other on the calling
    /// thread; [`MatexSetup::prepare_with`] lets the caller run them
    /// side by side.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures ([`CoreError::Sparse`]).
    pub fn prepare(
        sys: &MnaSystem,
        opts: &MatexOptions,
        symbolic: Option<&MatexSymbolic>,
        _with_schedules: bool,
    ) -> Result<MatexSetup, CoreError> {
        Self::prepare_with(sys, opts, symbolic, |g, x1| {
            g();
            x1();
        })
    }

    /// [`MatexSetup::prepare`] with the scheduling of its two independent
    /// factorizations left to `join`: it receives the `G` task and the
    /// variant's `X1` task and must run both before it returns, in any
    /// order and on any threads. Each task is a pure function of its
    /// matrix, so the setup is bitwise the one `prepare` builds however
    /// `join` runs them.
    ///
    /// [`MatexSetup::factor_time`] is the wall time of the whole
    /// preparation, `join` included.
    ///
    /// # Errors
    ///
    /// As [`MatexSetup::prepare`]; when both factorizations fail, `G`'s
    /// error is returned.
    ///
    /// # Panics
    ///
    /// Panics if `join` returns without running both tasks.
    pub fn prepare_with(
        sys: &MnaSystem,
        opts: &MatexOptions,
        symbolic: Option<&MatexSymbolic>,
        join: impl FnOnce(&mut (dyn FnMut() + Send), &mut (dyn FnMut() + Send)),
    ) -> Result<MatexSetup, CoreError> {
        let t0 = Instant::now();
        // Each task yields its factor and whether it replayed the shared
        // analysis; `X1` is `None` for I-MATEX, which reuses `G`'s factor.
        let mut g_out: Option<Result<(SparseLu, bool), CoreError>> = None;
        let mut x1_out: Option<Result<Option<(SparseLu, bool)>, CoreError>> = None;
        join(
            &mut || {
                g_out = Some(match symbolic {
                    Some(sym) => sym.refactor_g(sys.g()),
                    None => SparseLu::factor(sys.g(), &LuOptions::default())
                        .map(|lu| (lu, false))
                        .map_err(CoreError::from),
                });
            },
            &mut || {
                x1_out = Some(match opts.kind {
                    KrylovKind::Standard => standard_x1(sys, opts).map(|lu| Some((lu, false))),
                    // X1 = G: reuse the DC factorization — zero extra cost.
                    KrylovKind::Inverted => Ok(None),
                    KrylovKind::Rational => shifted_system(
                        sys.c(),
                        sys.g(),
                        opts.gamma,
                        symbolic.and_then(|s| s.shifted()),
                        &LuOptions::default(),
                    )
                    .map(|(_, lu, reused)| Some((lu, reused)))
                    .map_err(CoreError::from),
                });
            },
        );
        let (lu_g, g_replayed) = g_out.expect("join ran the G task")?;
        let x1 = x1_out.expect("join ran the X1 task")?;
        let refactorizations =
            usize::from(g_replayed) + usize::from(x1.as_ref().is_some_and(|(_, r)| *r));
        let lu_x1 = x1.map(|(lu, _)| lu);
        Ok(Self::from_factors(
            sys,
            opts,
            lu_g,
            lu_x1,
            refactorizations,
            t0,
        ))
    }

    /// An uncorrected setup of the given factors, `refactorizations` of
    /// them replays, timed from `t0`.
    pub(crate) fn from_factors(
        sys: &MnaSystem,
        opts: &MatexOptions,
        lu_g: SparseLu,
        lu_x1: Option<SparseLu>,
        refactorizations: usize,
        t0: Instant,
    ) -> MatexSetup {
        MatexSetup {
            kind: opts.kind,
            gamma: opts.gamma,
            regularize_eps: opts.regularize_eps,
            dim: sys.dim(),
            factorizations: 1 + usize::from(lu_x1.is_some()),
            g: Factor::exact(lu_g),
            x1: lu_x1.map(Factor::exact),
            whatif_rank: None,
            refactorizations,
            factor_time: t0.elapsed(),
        }
    }

    /// The setup of an edited system, served from `base`'s factors by
    /// Sherman–Morrison–Woodbury corrections for the value edit `diff`
    /// (produced by
    /// [`MnaSystem::value_diff`](matex_circuit::MnaSystem::value_diff)
    /// between the edited system and the system `base` was prepared
    /// for): the what-if fast path. It shares `base`'s factors, and
    /// each factor the edit touches carries its correction, so every
    /// solve through the returned setup — DC, input terms, and the
    /// variant's Krylov operator — produces edited-system solutions
    /// without any refactorization.
    ///
    /// Costs `O(rank)` substitution pairs against `base`'s cached
    /// factors plus one `rank × rank` dense factorization per touched
    /// factor; evaluation order is fixed, so corrected solves are
    /// bitwise-deterministic across repeat runs.
    ///
    /// # Errors
    ///
    /// Returns the [`SmwRejection`] when the edit must be served by a
    /// full preparation instead: rank above [`SmwOptions::max_rank`] or
    /// an ill-conditioned capture matrix. Callers fall back to
    /// [`MatexSetup::prepare`], which is bitwise-identical to the
    /// never-corrected path.
    ///
    /// # Panics
    ///
    /// Panics if `base` is itself corrected or `diff`'s dimension
    /// disagrees with `base`.
    pub fn correct(
        base: Arc<MatexSetup>,
        diff: &ValueDiff,
        opts: &SmwOptions,
    ) -> Result<MatexSetup, SmwRejection> {
        assert!(
            !base.is_corrected(),
            "what-if corrections must wrap an uncorrected base setup"
        );
        assert_eq!(
            base.dim(),
            diff.dim(),
            "edit set dimension disagrees with the base setup"
        );
        let t0 = Instant::now();
        let g = base.g.corrected(diff.g_update(), opts)?;
        let x1 = base.x1.as_ref().map(|x1| {
            let edit = match base.kind {
                KrylovKind::Standard => diff.c_update(),
                _ => diff.shifted_update(base.gamma),
            };
            x1.corrected(edit, opts)
        });
        Ok(MatexSetup {
            kind: base.kind,
            gamma: base.gamma,
            regularize_eps: base.regularize_eps,
            dim: base.dim,
            g,
            x1: x1.transpose()?,
            whatif_rank: Some(diff.rank()),
            factorizations: 0,
            refactorizations: 0,
            factor_time: t0.elapsed(),
        })
    }

    /// Verifies this setup matches a run's system and options. Values
    /// are the caller's contract (a scenario engine keys setups by the
    /// system's value fingerprint); the cheap invariants — dimension,
    /// variant, and γ — are checked here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] on any mismatch.
    pub fn check(&self, sys: &MnaSystem, opts: &MatexOptions) -> Result<(), CoreError> {
        if self.dim != sys.dim() {
            return Err(CoreError::InvalidSpec(format!(
                "setup prepared for dim {} used on dim {}",
                self.dim,
                sys.dim()
            )));
        }
        if self.kind != opts.kind {
            return Err(CoreError::InvalidSpec(format!(
                "setup prepared for {:?} used with {:?}",
                self.kind, opts.kind
            )));
        }
        if self.kind == KrylovKind::Rational && self.gamma.to_bits() != opts.gamma.to_bits() {
            return Err(CoreError::InvalidSpec(format!(
                "setup prepared at γ={} used at γ={}",
                self.gamma, opts.gamma
            )));
        }
        if self.kind == KrylovKind::Standard
            && self.regularize_eps.to_bits() != opts.regularize_eps.to_bits()
        {
            return Err(CoreError::InvalidSpec(format!(
                "setup prepared with regularize_eps={} used with {}",
                self.regularize_eps, opts.regularize_eps
            )));
        }
        Ok(())
    }

    /// The variant this setup was prepared for.
    pub fn kind(&self) -> KrylovKind {
        self.kind
    }

    /// The γ this setup was prepared at (meaningful for R-MATEX).
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// System dimension the setup was prepared for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `G` factor (DC condition, input terms and I-MATEX's
    /// operator). A corrected setup's solves through it are the edited
    /// system's.
    pub fn lu_g(&self) -> FactorRef<'_> {
        self.g.solver()
    }

    /// The variant's `X1` factor (`None` for I-MATEX), corrected as
    /// [`MatexSetup::lu_g`] is.
    pub fn lu_x1(&self) -> Option<FactorRef<'_>> {
        self.x1.as_ref().map(Factor::solver)
    }

    /// Whether this setup's factors carry a what-if correction.
    pub fn is_corrected(&self) -> bool {
        self.whatif_rank.is_some()
    }

    /// Touched-row rank of the edit this setup corrects for (0 when
    /// uncorrected).
    pub fn whatif_rank(&self) -> usize {
        self.whatif_rank.unwrap_or(0)
    }

    /// Solves `G x = b`, the solve backing the DC condition: one
    /// substitution pair through [`MatexSetup::lu_g`].
    pub fn solve_g(&self, b: &[f64]) -> Vec<f64> {
        self.lu_g().solve(b)
    }

    /// Factorizations the preparation performed (full or replay).
    pub fn factorizations(&self) -> usize {
        self.factorizations
    }

    /// Of those, numeric replays of a shared symbolic analysis.
    pub fn refactorizations(&self) -> usize {
        self.refactorizations
    }

    /// Wall time of the preparation.
    pub fn factor_time(&self) -> Duration {
        self.factor_time
    }

    /// Appends the setup's factors to `w` for the artifact store.
    ///
    /// Only *uncorrected* setups persist: a corrected (what-if) setup's
    /// waveforms approximate the edited system to ~1e-8 rather than
    /// bitwise, so persisting one would silently weaken the store's
    /// bitwise-restart guarantee.
    ///
    /// # Errors
    ///
    /// [`WireError::Invalid`] when the setup is corrected.
    pub fn wire_encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        if self.is_corrected() {
            return Err(WireError::Invalid(
                "corrected (what-if) setups are not persisted".into(),
            ));
        }
        w.u8(kind_tag(self.kind));
        w.f64(self.gamma);
        w.f64(self.regularize_eps);
        w.usize(self.dim);
        self.g.lu.wire_encode(w);
        w.u8(self.x1.is_some() as u8);
        if let Some(x1) = &self.x1 {
            x1.lu.wire_encode(w);
        }
        Ok(())
    }

    /// Decodes a setup previously written by
    /// [`MatexSetup::wire_encode`].
    ///
    /// The decoded setup is uncorrected, reports zero factorizations
    /// (nothing was factored — that is the point of the store) and a
    /// zero preparation time; its factors are bitwise the ones that were
    /// encoded.
    ///
    /// The record must end after the setup, and it must be runnable: an
    /// `X1` factor exactly when the variant has one (all but I-MATEX),
    /// and every factor of dimension `dim`.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, trailing bytes, structurally invalid
    /// factors or factors that do not fit the variant and dimension.
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let kind = kind_from_tag(r.u8()?)?;
        let gamma = r.f64()?;
        let regularize_eps = r.f64()?;
        let dim = r.usize()?;
        let lu_g = SparseLu::wire_decode(r)?;
        let lu_x1 = match r.u8()? {
            0 => None,
            1 => Some(SparseLu::wire_decode(r)?),
            t => return Err(WireError::Invalid(format!("X1 presence byte {t}"))),
        };
        if lu_x1.is_some() != (kind != KrylovKind::Inverted) {
            return Err(WireError::Invalid(format!(
                "{kind:?} setup with X1 factor present: {}",
                lu_x1.is_some()
            )));
        }
        if lu_g.dim() != dim || lu_x1.as_ref().is_some_and(|lu| lu.dim() != dim) {
            return Err(WireError::Invalid(format!(
                "setup factors do not have the setup's dimension {dim}"
            )));
        }
        if !r.is_empty() {
            return Err(WireError::Invalid(format!(
                "{} trailing bytes after the setup",
                r.remaining()
            )));
        }
        Ok(MatexSetup {
            kind,
            gamma,
            regularize_eps,
            dim,
            g: Factor::exact(lu_g),
            x1: lu_x1.map(Factor::exact),
            whatif_rank: None,
            factorizations: 0,
            refactorizations: 0,
            factor_time: Duration::ZERO,
        })
    }
}

/// A setup's factor: the factorization, shared by every setup corrected
/// from it, and the correction that makes its solves this setup's.
#[derive(Debug)]
struct Factor {
    lu: Arc<SparseLu>,
    smw: Option<SmwUpdate>,
}

impl Factor {
    /// A factor of the system itself.
    fn exact(lu: SparseLu) -> Self {
        Factor {
            lu: Arc::new(lu),
            smw: None,
        }
    }

    /// This factor, sharing its factorization, corrected for the edit
    /// columns `(u, v)` (none when the edit leaves the matrix alone).
    fn corrected(
        &self,
        (u, v): (Vec<SparseCol>, Vec<SparseCol>),
        opts: &SmwOptions,
    ) -> Result<Factor, SmwRejection> {
        let smw = if u.is_empty() {
            None
        } else {
            Some(SmwUpdate::build(&self.lu, &u, &v, opts)?)
        };
        Ok(Factor {
            lu: Arc::clone(&self.lu),
            smw,
        })
    }

    /// The handle every solve with this factor goes through.
    fn solver(&self) -> FactorRef<'_> {
        FactorRef::new(&self.lu, self.smw.as_ref())
    }
}

/// MEXP's `X1`: the factor of `C`, regularized when some rows of `C`
/// are empty. It never replays an analysis: the regularized `C` has a
/// pattern of its own.
pub(crate) fn standard_x1(sys: &MnaSystem, opts: &MatexOptions) -> Result<SparseLu, CoreError> {
    let lu_opts = LuOptions::default();
    let lu = if sys.zero_c_rows().is_empty() {
        SparseLu::factor(sys.c(), &lu_opts)?
    } else {
        SparseLu::factor(&regularize_c(sys, opts.regularize_eps).c, &lu_opts)?
    };
    Ok(lu)
}

/// Stable wire tag for a Krylov variant.
fn kind_tag(kind: KrylovKind) -> u8 {
    match kind {
        KrylovKind::Standard => 0,
        KrylovKind::Inverted => 1,
        KrylovKind::Rational => 2,
    }
}

/// Inverse of [`kind_tag`].
fn kind_from_tag(tag: u8) -> Result<KrylovKind, WireError> {
    match tag {
        0 => Ok(KrylovKind::Standard),
        1 => Ok(KrylovKind::Inverted),
        2 => Ok(KrylovKind::Rational),
        t => Err(WireError::Invalid(format!("unknown variant tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::RcMeshBuilder;

    #[test]
    fn prepare_counts_and_checks() {
        let sys = RcMeshBuilder::new(4, 4).build().unwrap();
        let opts = MatexOptions::default();
        let setup = MatexSetup::prepare(&sys, &opts, None, true).unwrap();
        assert_eq!(setup.factorizations(), 2); // G and C + γG
        assert_eq!(setup.refactorizations(), 0);
        assert!(setup.lu_x1().is_some());
        assert!(setup.check(&sys, &opts).is_ok());
        // γ mismatch is rejected for the rational variant.
        assert!(setup.check(&sys, &opts.clone().gamma(2e-10)).is_err());
        let mut inv = opts.clone();
        inv.kind = KrylovKind::Inverted;
        assert!(setup.check(&sys, &inv).is_err());
        let other = RcMeshBuilder::new(5, 5).build().unwrap();
        assert!(setup.check(&other, &opts).is_err());
        // MEXP's effective C depends on regularize_eps: a setup prepared
        // at one ε must not be reused at another.
        let std_opts = MatexOptions::new(KrylovKind::Standard);
        let std_setup = MatexSetup::prepare(&sys, &std_opts, None, false).unwrap();
        assert!(std_setup.check(&sys, &std_opts).is_ok());
        let mut other_eps = std_opts.clone();
        other_eps.regularize_eps = 1e-6;
        assert!(std_setup.check(&sys, &other_eps).is_err());
        // γ is irrelevant off the rational variant.
        let mut other_gamma = std_opts;
        other_gamma.gamma = 9e-9;
        assert!(std_setup.check(&sys, &other_gamma).is_ok());
    }

    #[test]
    fn symbolic_turns_preparation_into_replays() {
        let sys = RcMeshBuilder::new(4, 4).build().unwrap();
        let opts = MatexOptions::default();
        let symbolic = MatexSymbolic::analyze(&sys, &opts).unwrap();
        let setup = MatexSetup::prepare(&sys, &opts, Some(&symbolic), false).unwrap();
        assert_eq!(setup.factorizations(), 2);
        assert_eq!(setup.refactorizations(), 2);
    }

    fn encoded(setup: &MatexSetup) -> Vec<u8> {
        let mut w = WireWriter::new();
        setup.wire_encode(&mut w).unwrap();
        w.into_bytes()
    }

    const KINDS: [KrylovKind; 3] = [
        KrylovKind::Rational,
        KrylovKind::Inverted,
        KrylovKind::Standard,
    ];

    #[test]
    fn any_join_builds_the_sequential_setup() {
        // X1 before G, and on another thread: the same bytes and counts.
        let sys = RcMeshBuilder::new(4, 4).build().unwrap();
        for kind in KINDS {
            let opts = MatexOptions::new(kind);
            let sequential = MatexSetup::prepare(&sys, &opts, None, false).unwrap();
            let joined = MatexSetup::prepare_with(&sys, &opts, None, |g, x1| {
                std::thread::scope(|s| {
                    s.spawn(x1).join().unwrap();
                    g();
                });
            })
            .unwrap();
            assert!(encoded(&joined) == encoded(&sequential), "{kind:?}");
            assert_eq!(joined.factorizations(), sequential.factorizations());
            assert_eq!(joined.refactorizations(), 0);
        }
    }

    #[test]
    fn one_pass_analysis_yields_the_prepared_setup() {
        // The analysis's own recording factors are the setup: bitwise
        // `prepare`'s, with the analysis `analyze` returns.
        let sys = RcMeshBuilder::new(4, 4).build().unwrap();
        for kind in KINDS {
            let opts = MatexOptions::new(kind);
            let (symbolic, setup) = MatexSymbolic::analyze_with_setup(&sys, &opts).unwrap();
            let prepared = MatexSetup::prepare(&sys, &opts, None, false).unwrap();
            assert!(encoded(&setup) == encoded(&prepared), "{kind:?}");
            assert_eq!(setup.factorizations(), prepared.factorizations());
            assert_eq!(setup.refactorizations(), 0);
            assert!(setup.check(&sys, &opts).is_ok());
            let (mut a, mut b) = (WireWriter::new(), WireWriter::new());
            symbolic.wire_encode(&mut a);
            MatexSymbolic::analyze(&sys, &opts)
                .unwrap()
                .wire_encode(&mut b);
            assert!(a.into_bytes() == b.into_bytes(), "{kind:?}");
        }
    }

    #[test]
    fn inverted_variant_shares_the_g_factor() {
        let sys = RcMeshBuilder::new(4, 4).build().unwrap();
        let opts = MatexOptions::new(KrylovKind::Inverted);
        let setup = MatexSetup::prepare(&sys, &opts, None, false).unwrap();
        assert_eq!(setup.factorizations(), 1);
        assert!(setup.lu_x1().is_none());
    }

    fn pdn_pair() -> (MnaSystem, MnaSystem) {
        let base = matex_circuit::PdnBuilder::new(6, 6)
            .num_loads(5)
            .seed(77)
            .build()
            .unwrap();
        let edited = base.with_cap_scaled(7, 3.0).unwrap();
        (base, edited)
    }

    #[test]
    fn corrected_setup_matches_full_refactor() {
        use crate::{MatexSolver, TransientEngine, TransientSpec};
        let (base_sys, edited) = pdn_pair();
        let spec = TransientSpec::new(0.0, 2e-9, 2e-11).unwrap();
        for kind in [
            KrylovKind::Rational,
            KrylovKind::Inverted,
            KrylovKind::Standard,
        ] {
            let opts = MatexOptions::new(kind);
            let base = Arc::new(MatexSetup::prepare(&base_sys, &opts, None, false).unwrap());
            let diff = edited.value_diff(&base_sys).expect("same pattern");
            assert!(diff.rank() > 0);
            let corrected =
                MatexSetup::correct(Arc::clone(&base), &diff, &SmwOptions::default()).unwrap();
            assert!(corrected.is_corrected());
            assert_eq!(corrected.whatif_rank(), diff.rank());
            assert_eq!(corrected.factorizations(), 0);
            let corrected = Arc::new(corrected);
            let fast = MatexSolver::new(opts.clone())
                .with_setup(Arc::clone(&corrected))
                .run(&edited, &spec)
                .unwrap();
            let slow = MatexSolver::new(opts.clone()).run(&edited, &spec).unwrap();
            let (max_dev, _) = fast.error_vs(&slow).unwrap();
            assert!(
                max_dev <= 1e-8,
                "{kind:?}: corrected run deviates by {max_dev:e}"
            );
            // Repeat runs through the same corrected setup are bitwise
            // identical (the fixed-order SMW evaluation).
            let again = MatexSolver::new(opts)
                .with_setup(corrected)
                .run(&edited, &spec)
                .unwrap();
            assert_eq!(fast.series(), again.series());
        }
    }

    #[test]
    fn corrected_solve_g_matches_edited_factorization() {
        let (base_sys, edited) = pdn_pair();
        // A pure-C edit leaves G untouched: solve_g must match the base
        // solve bit for bit (its G factor carries no correction).
        let opts = MatexOptions::default();
        let base = Arc::new(MatexSetup::prepare(&base_sys, &opts, None, false).unwrap());
        let diff = edited.value_diff(&base_sys).unwrap();
        assert_eq!(diff.rank_g(), 0);
        let corrected =
            MatexSetup::correct(Arc::clone(&base), &diff, &SmwOptions::default()).unwrap();
        assert!(corrected.g.smw.is_none());
        let b: Vec<f64> = (0..base_sys.dim()).map(|i| (i % 7) as f64 - 3.0).collect();
        assert_eq!(corrected.solve_g(&b), base.solve_g(&b));
        // A G edit routes solve_g through the correction and agrees with
        // a from-scratch factorization of the edited G.
        let (r1, r2) = (
            base_sys
                .node_row(&matex_circuit::PdnBuilder::node_name(1, 1, 1))
                .unwrap(),
            base_sys
                .node_row(&matex_circuit::PdnBuilder::node_name(1, 2, 1))
                .unwrap(),
        );
        let g_edit = base_sys
            .with_conductance_delta(Some(r1), Some(r2), 0.4)
            .unwrap();
        let diff = g_edit.value_diff(&base_sys).unwrap();
        assert!(diff.rank_g() > 0);
        let corrected = MatexSetup::correct(base, &diff, &SmwOptions::default()).unwrap();
        assert!(corrected.g.smw.is_some());
        let exact = SparseLu::factor(g_edit.g(), &LuOptions::default())
            .unwrap()
            .solve(&b);
        for (a, e) in corrected.solve_g(&b).iter().zip(&exact) {
            assert!((a - e).abs() <= 1e-10 * e.abs().max(1.0));
        }
    }

    #[test]
    fn a_corrected_setup_shares_its_base_factors() {
        // A cap edit leaves G alone: the corrected setup's G factor is
        // the base's own, uncorrected; its X1 factor is the base's too,
        // carrying the correction.
        let (base_sys, edited) = pdn_pair();
        let diff = edited.value_diff(&base_sys).unwrap();
        for kind in KINDS {
            let opts = MatexOptions::new(kind);
            let base = Arc::new(MatexSetup::prepare(&base_sys, &opts, None, false).unwrap());
            let corrected =
                MatexSetup::correct(Arc::clone(&base), &diff, &SmwOptions::default()).unwrap();
            assert!(Arc::ptr_eq(&corrected.g.lu, &base.g.lu), "{kind:?}");
            assert!(corrected.g.smw.is_none(), "{kind:?}");
            match (&corrected.x1, &base.x1) {
                (Some(x1), Some(base_x1)) => {
                    assert!(Arc::ptr_eq(&x1.lu, &base_x1.lu), "{kind:?}");
                    assert!(x1.smw.is_some(), "{kind:?}");
                }
                (None, None) => assert_eq!(kind, KrylovKind::Inverted),
                _ => panic!("{kind:?}: X1 presence differs from the base's"),
            }
        }
    }

    #[test]
    fn over_rank_edit_is_rejected_for_fallback() {
        let (base_sys, edited) = pdn_pair();
        let opts = MatexOptions::default();
        let base = Arc::new(MatexSetup::prepare(&base_sys, &opts, None, false).unwrap());
        let diff = edited.value_diff(&base_sys).unwrap();
        let tight = SmwOptions { max_rank: 0 };
        match MatexSetup::correct(base, &diff, &tight) {
            Err(SmwRejection::RankExceeded { rank, max_rank }) => {
                assert_eq!(rank, diff.rank_c());
                assert_eq!(max_rank, 0);
            }
            other => panic!("expected rank rejection, got {other:?}"),
        }
    }
}
