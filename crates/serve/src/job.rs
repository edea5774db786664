//! Job specifications and outcomes.

use crate::ServeError;
use matex_circuit::MnaSystem;
use matex_core::{MatexOptions, TransientResult, TransientSpec};
use matex_waveform::GroupingStrategy;
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a submitted job (engine-scoped, monotonically
/// increasing).
pub type JobId = u64;

/// Strict admission priority class: a queued job of a more urgent class
/// always starts before queued jobs of less urgent ones (the variants
/// order from most to least urgent).
///
/// # Example
///
/// ```
/// use matex_serve::Priority;
///
/// assert!(Priority::High < Priority::Normal);
/// assert_eq!(Priority::parse("low"), Some(Priority::Low));
/// assert_eq!(Priority::default(), Priority::Normal);
/// assert_eq!(Priority::High.as_str(), "high");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Starts before everything else that is queued.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background work: starts only when no more urgent job is queued.
    Low,
}

impl Priority {
    /// The canonical lowercase name (`"high"`/`"normal"`/`"low"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a canonical name; `None` for anything else.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// How a job's transient is computed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One [`matex_core::MatexSolver`] over all sources.
    #[default]
    Monolithic,
    /// The paper's distributed framework
    /// ([`matex_dist::run_distributed`]): sources grouped into subtasks,
    /// superposed.
    Distributed {
        /// Source partitioning strategy.
        strategy: GroupingStrategy,
        /// Worker threads for this run's node pool (`None` uses
        /// `EngineOptions::dist_workers`).
        workers: Option<usize>,
    },
}

/// Scenario overrides layered on top of a job's base circuit and
/// options. Overrides are what make a fleet of jobs out of one circuit:
/// they change the *question* without changing the expensive structure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioOverrides {
    /// Override γ (R-MATEX shift). Cached symbolic analyses are keyed by
    /// γ decade, so same-decade overrides replay a cached anchor.
    pub gamma: Option<f64>,
    /// Override the Krylov tolerance.
    pub tol: Option<f64>,
    /// Scale every source waveform by this factor
    /// ([`MnaSystem::with_scaled_sources`]). Matrix fingerprints are
    /// unchanged, so scaled jobs still hit the factorization cache.
    pub source_scale: Option<f64>,
    /// Scale one node's ground capacitance (`(row, factor)`,
    /// [`MnaSystem::with_cap_scaled`]) — a what-if edit: same pattern,
    /// few changed values, so the engine can serve it by low-rank
    /// correction of a cached base factorization instead of
    /// refactoring.
    pub cap_scale: Option<(usize, f64)>,
}

impl ScenarioOverrides {
    /// A builder over the empty overrides — the preferred construction
    /// (field-struct literals are deprecated in favor of it: the
    /// builder stays source-compatible as override kinds grow).
    pub fn builder() -> ScenarioOverridesBuilder {
        ScenarioOverridesBuilder {
            overrides: ScenarioOverrides::default(),
        }
    }

    /// `true` when no override is set (the job runs the base scenario).
    pub fn is_empty(&self) -> bool {
        self.gamma.is_none()
            && self.tol.is_none()
            && self.source_scale.is_none()
            && self.cap_scale.is_none()
    }
}

/// Builder for [`ScenarioOverrides`] (see
/// [`ScenarioOverrides::builder`]).
#[derive(Debug, Clone, Default)]
pub struct ScenarioOverridesBuilder {
    overrides: ScenarioOverrides,
}

impl ScenarioOverridesBuilder {
    /// Overrides γ (the R-MATEX shift).
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.overrides.gamma = Some(gamma);
        self
    }

    /// Overrides the Krylov tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.overrides.tol = Some(tol);
        self
    }

    /// Scales every source waveform.
    pub fn source_scale(mut self, k: f64) -> Self {
        self.overrides.source_scale = Some(k);
        self
    }

    /// Scales one node's ground capacitance (a what-if edit).
    pub fn cap_scale(mut self, row: usize, factor: f64) -> Self {
        self.overrides.cap_scale = Some((row, factor));
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ScenarioOverrides {
        self.overrides
    }
}

/// One unit of work for the [`ScenarioEngine`](crate::ScenarioEngine):
/// a circuit, a time window, solver options, an execution mode, and
/// scenario overrides.
///
/// # Example
///
/// ```
/// use matex_circuit::PdnBuilder;
/// use matex_core::TransientSpec;
/// use matex_serve::JobSpec;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = Arc::new(PdnBuilder::new(6, 6).num_loads(8).window(1e-9).build()?);
/// let spec = TransientSpec::new(0.0, 1e-9, 2e-11)?;
/// let job = JobSpec::new(grid, spec).source_scale(1.5).gamma(2e-10);
/// assert!(!job.overrides.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The circuit (shared — many jobs typically reference one system).
    pub circuit: Arc<MnaSystem>,
    /// Time window and output sampling.
    pub spec: TransientSpec,
    /// Base solver options (kind, γ, tolerances) before overrides.
    pub matex: MatexOptions,
    /// Monolithic or distributed execution.
    pub mode: ExecutionMode,
    /// Scenario overrides applied on top of `circuit` / `matex`.
    pub overrides: ScenarioOverrides,
    /// Admission priority class (strict: queued high jobs always start
    /// before queued normal ones). Never affects the numerics — only
    /// *when* the job runs, so admitted waveforms are bitwise-invariant
    /// in it.
    pub priority: Priority,
    /// Optional deadline, relative to submission. A deadline orders the
    /// job EDF within its priority class, lets `submit` reject it when
    /// provably unmeetable, and makes the engine give up on it (counted
    /// as a deadline miss) rather than run it uselessly late.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A monolithic R-MATEX job with default options and no overrides.
    pub fn new(circuit: Arc<MnaSystem>, spec: TransientSpec) -> JobSpec {
        JobSpec {
            circuit,
            spec,
            matex: MatexOptions::default(),
            mode: ExecutionMode::Monolithic,
            overrides: ScenarioOverrides::default(),
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// A builder rooted at the required fields — the preferred
    /// construction when several options are set at once (field-struct
    /// literals are deprecated in favor of it: the builder stays
    /// source-compatible as the spec grows).
    ///
    /// ```
    /// use matex_circuit::PdnBuilder;
    /// use matex_core::TransientSpec;
    /// use matex_serve::{JobSpec, Priority};
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let grid = Arc::new(PdnBuilder::new(6, 6).num_loads(8).window(1e-9).build()?);
    /// let spec = TransientSpec::new(0.0, 1e-9, 2e-11)?;
    /// let job = JobSpec::builder(grid, spec)
    ///     .gamma(2e-10)
    ///     .priority(Priority::High)
    ///     .build();
    /// assert!(!job.overrides.is_empty());
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder(circuit: Arc<MnaSystem>, spec: TransientSpec) -> JobSpecBuilder {
        JobSpecBuilder {
            job: JobSpec::new(circuit, spec),
        }
    }

    /// Sets the execution mode (builder style).
    pub fn mode(mut self, mode: ExecutionMode) -> JobSpec {
        self.mode = mode;
        self
    }

    /// Sets the admission priority class (builder style).
    pub fn priority(mut self, p: Priority) -> JobSpec {
        self.priority = p;
        self
    }

    /// Sets a deadline relative to submission (builder style).
    pub fn deadline(mut self, d: Duration) -> JobSpec {
        self.deadline = Some(d);
        self
    }

    /// Overrides γ (builder style).
    pub fn gamma(mut self, gamma: f64) -> JobSpec {
        self.overrides.gamma = Some(gamma);
        self
    }

    /// Overrides the Krylov tolerance (builder style).
    pub fn tol(mut self, tol: f64) -> JobSpec {
        self.overrides.tol = Some(tol);
        self
    }

    /// Scales every source waveform (builder style).
    pub fn source_scale(mut self, k: f64) -> JobSpec {
        self.overrides.source_scale = Some(k);
        self
    }

    /// Scales one node's ground capacitance — a what-if edit (builder
    /// style).
    pub fn cap_scale(mut self, row: usize, factor: f64) -> JobSpec {
        self.overrides.cap_scale = Some((row, factor));
        self
    }

    /// The solver options with overrides folded in.
    pub fn effective_options(&self) -> MatexOptions {
        let mut opts = self.matex.clone();
        if let Some(g) = self.overrides.gamma {
            opts.gamma = g;
        }
        if let Some(t) = self.overrides.tol {
            opts.expm.tol = t;
        }
        opts
    }

    /// The circuit with overrides folded in (the same `Arc` when no
    /// source scaling is requested).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Circuit`] when the scale is not finite.
    pub fn effective_circuit(&self) -> Result<Arc<MnaSystem>, ServeError> {
        let mut sys = match self.overrides.source_scale {
            None => self.circuit.clone(),
            Some(k) => Arc::new(self.circuit.with_scaled_sources(k)?),
        };
        if let Some((row, factor)) = self.overrides.cap_scale {
            sys = Arc::new(sys.with_cap_scaled(row, factor)?);
        }
        Ok(sys)
    }
}

/// Builder for [`JobSpec`] (see [`JobSpec::builder`]).
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    job: JobSpec,
}

impl JobSpecBuilder {
    /// Sets the base solver options (kind, γ, tolerances).
    pub fn matex(mut self, opts: MatexOptions) -> Self {
        self.job.matex = opts;
        self
    }

    /// Sets the execution mode.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.job.mode = mode;
        self
    }

    /// Sets the admission priority class.
    pub fn priority(mut self, p: Priority) -> Self {
        self.job.priority = p;
        self
    }

    /// Sets a deadline relative to submission.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.job.deadline = Some(d);
        self
    }

    /// Overrides γ (the R-MATEX shift).
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.job.overrides.gamma = Some(gamma);
        self
    }

    /// Overrides the Krylov tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.job.overrides.tol = Some(tol);
        self
    }

    /// Scales every source waveform.
    pub fn source_scale(mut self, k: f64) -> Self {
        self.job.overrides.source_scale = Some(k);
        self
    }

    /// Scales one node's ground capacitance — a what-if edit.
    pub fn cap_scale(mut self, row: usize, factor: f64) -> Self {
        self.job.overrides.cap_scale = Some((row, factor));
        self
    }

    /// Replaces the whole override set (e.g. one built with
    /// [`ScenarioOverrides::builder`]).
    pub fn overrides(mut self, overrides: ScenarioOverrides) -> Self {
        self.job.overrides = overrides;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> JobSpec {
        self.job
    }
}

/// Whether an artifact lookup hit the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Hit {
    /// Not looked up on this path (e.g. DC for a distributed job, or a
    /// symbolic analysis short-circuited by a full setup hit).
    #[default]
    Skipped,
    /// Found in the cache.
    Hit,
    /// Found via a neighbouring γ-decade anchor (symbolic only).
    Neighbor,
    /// Served by low-rank correction of a cached base setup (the
    /// what-if fast path, setup only): no sparse factorization ran.
    Whatif,
    /// Built fresh (and inserted for the next job).
    Miss,
}

impl Hit {
    /// `true` for any flavor of reuse (`Hit`, `Neighbor`, or `Whatif`).
    pub fn is_hit(self) -> bool {
        matches!(self, Hit::Hit | Hit::Neighbor | Hit::Whatif)
    }
}

/// Where a job's numeric setup actually came from — the hit-path label
/// stamped on every job span and latency histogram, finer than [`Hit`]:
/// it separates in-memory cache hits from disk-store hydrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HitPath {
    /// Built fresh: full factorization ran.
    #[default]
    Cold,
    /// In-memory cache hit (the warm fast path).
    Cache,
    /// Hydrated from the disk-backed artifact store.
    Store,
    /// Served by low-rank correction of a cached base (what-if).
    Whatif,
}

impl HitPath {
    /// Stable metric-label value (`cold` / `cache` / `store` /
    /// `whatif`).
    pub fn label(self) -> &'static str {
        match self {
            HitPath::Cold => "cold",
            HitPath::Cache => "cache",
            HitPath::Store => "store",
            HitPath::Whatif => "whatif",
        }
    }

    /// The per-artifact [`Hit`] this path reports as.
    pub(crate) fn as_hit(self) -> Hit {
        match self {
            HitPath::Cold => Hit::Miss,
            HitPath::Cache | HitPath::Store => Hit::Hit,
            HitPath::Whatif => Hit::Whatif,
        }
    }
}

/// Which cached artifacts a job reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheReport {
    /// Symbolic LU analysis (γ-decade anchored).
    pub symbolic: Hit,
    /// Full numeric setup (factors).
    pub setup: Hit,
    /// DC operating point (monolithic jobs only).
    pub dc: Hit,
    /// Group plan (distributed jobs only).
    pub plan: Hit,
    /// Where the setup came from (cache / store / what-if / cold).
    pub hit_path: HitPath,
}

impl CacheReport {
    /// `true` when the job skipped all factorization work (the
    /// cache-hit fast path: straight to the numeric march).
    pub fn is_warm(&self) -> bool {
        self.setup == Hit::Hit
    }

    /// `true` when the setup was served by the what-if fast path.
    pub fn is_whatif(&self) -> bool {
        self.setup == Hit::Whatif
    }
}

/// A completed job: the waveform plus reuse and timing accounting.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The transient result (bitwise identical to a standalone run).
    pub result: TransientResult,
    /// Which artifacts were reused.
    pub cache: CacheReport,
    /// Number of distributed groups (`None` for monolithic jobs).
    pub groups: Option<usize>,
    /// Wall time of the execution itself: every attempt, from the moment
    /// the job left the queue.
    pub wall: Duration,
    /// Time spent in the admission queue, waiting for its turn and its
    /// threads.
    pub queue_wait: Duration,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the admission queue for its turn and its threads.
    Queued,
    /// Holding its threads and running.
    Running,
    /// Finished successfully.
    Done(Arc<JobOutcome>),
    /// Failed; carries the error text.
    Failed(String),
    /// Cancelled — removed from the queue, or stopped cooperatively at
    /// a transient-step boundary while running. Cancelled jobs never
    /// poison the artifact cache: partial results are dropped whole.
    Cancelled,
    /// Resolved long ago; the outcome was dropped under the engine's
    /// retention limit (`EngineOptions::max_retained`) so a long-running
    /// service's memory stays bounded by its recent traffic.
    Expired,
}

impl JobStatus {
    /// Short state label (`queued` / `running` / `done` / `failed` /
    /// `cancelled` / `expired`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Expired => "expired",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::RcMeshBuilder;

    #[test]
    fn overrides_fold_into_options_and_circuit() {
        let sys = Arc::new(RcMeshBuilder::new(3, 3).build().unwrap());
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let job = JobSpec::new(sys.clone(), spec).gamma(3e-10).tol(1e-8);
        let opts = job.effective_options();
        assert_eq!(opts.gamma, 3e-10);
        assert_eq!(opts.expm.tol, 1e-8);
        // No scale: the very same Arc comes back.
        assert!(Arc::ptr_eq(&job.effective_circuit().unwrap(), &sys));
        let scaled = job.source_scale(2.0);
        let eff = scaled.effective_circuit().unwrap();
        assert!(!Arc::ptr_eq(&eff, &sys));
        assert_eq!(eff.value_fingerprint(), sys.value_fingerprint());
    }

    #[test]
    fn builders_cover_every_field() {
        let sys = Arc::new(RcMeshBuilder::new(3, 3).build().unwrap());
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let ov = ScenarioOverrides::builder()
            .gamma(3e-10)
            .tol(1e-8)
            .source_scale(1.5)
            .cap_scale(2, 4.0)
            .build();
        assert_eq!(ov.gamma, Some(3e-10));
        assert_eq!(ov.cap_scale, Some((2, 4.0)));
        let job = JobSpec::builder(sys.clone(), spec)
            .mode(ExecutionMode::Distributed {
                strategy: GroupingStrategy::default(),
                workers: Some(2),
            })
            .priority(Priority::High)
            .deadline(Duration::from_secs(1))
            .overrides(ov.clone())
            .build();
        assert_eq!(job.overrides, ov);
        assert_eq!(job.priority, Priority::High);
        assert_eq!(job.deadline, Some(Duration::from_secs(1)));
        assert!(matches!(job.mode, ExecutionMode::Distributed { .. }));
        // Shorthand setters on the builder match the override builder.
        let short = JobSpec::builder(sys, job.spec.clone())
            .gamma(3e-10)
            .tol(1e-8)
            .source_scale(1.5)
            .cap_scale(2, 4.0)
            .build();
        assert_eq!(short.overrides, ov);
    }

    #[test]
    fn priority_names_round_trip() {
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(Priority::parse(p.as_str()), Some(p));
        }
        assert_eq!(Priority::parse("urgent"), None);
        assert_eq!(Priority::parse("High"), None);
    }

    #[test]
    fn cache_report_warmth() {
        let mut r = CacheReport::default();
        assert!(!r.is_warm());
        r.setup = Hit::Hit;
        assert!(r.is_warm());
        assert!(Hit::Neighbor.is_hit());
        assert!(!Hit::Miss.is_hit());
    }
}
