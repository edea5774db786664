//! The artifact tier: one read-through path from memory to disk to
//! compute.
//!
//! MATEX's economics: one circuit's expensive artifacts — the symbolic
//! LU analysis of its MNA patterns, the numeric factors of `G` and
//! `C + γG`, the DC operating point, and the source-group schedule —
//! are all reusable across the many transients the circuit spawns.
//! [`ArtifactCache`] is the only place the engine obtains one: a lookup
//! tries the in-memory cache, then the optional disk-backed
//! [`ArtifactStore`], then computes, writes the result back to both, and
//! bumps the hit / miss / store counters on the way — keyed at every
//! level by the store's own key structs.
//!
//! In memory the cache keys in two levels:
//!
//! * the **circuit level** is the MNA *pattern* fingerprint
//!   ([`MnaSystem::pattern_fingerprint`]): everything under one entry
//!   shares sparsity structure,
//! * within an entry, numeric artifacts key on the *value* fingerprint
//!   (and γ bits, and — for DC solutions and group plans — the source
//!   fingerprint and window), so a lookup hit is exactly a bitwise
//!   replay.
//!
//! Symbolic analyses are **γ-decade anchored** (the multi-anchor reuse
//! scheme): an R-MATEX analysis pins a pivot order chosen at its
//! anchor γ; sweeps spanning decades re-use the nearest anchor whose
//! pivots survive, and the engine plants a fresh anchor whenever a
//! replay fell back to full factorization. Replay success implies the
//! pinned order is exactly what a fresh factorization would choose
//! (`matex_sparse::SymbolicLu`'s re-verification contract), so anchor
//! reuse never changes a waveform bit.
//!
//! Whole circuit entries are evicted least-recently-used beyond
//! `MAX_CIRCUITS`. The store is an accelerator, never a correctness
//! dependency: a failed read is a miss, a failed write is not counted,
//! and either way the job computes through.

use crate::engine::EngineOptions;
use crate::job::{Hit, HitPath};
use crate::stats::{Counter, Counters};
use crate::ServeError;
use matex_circuit::MnaSystem;
use matex_core::{MatexSetup, MatexSymbolic};
use matex_dist::GroupPlan;
use matex_store::{ArtifactStore, DcStoreKey, PlanStoreKey, SetupStoreKey, SymbolicStoreKey};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Distinct circuit structures kept in memory; whole circuits are
/// evicted least-recently-used beyond this.
const MAX_CIRCUITS: usize = 32;

/// All cached artifacts of one circuit structure.
#[derive(Debug, Default)]
pub(crate) struct CircuitEntry {
    /// Symbolic analyses: one anchor per γ decade for R-MATEX, one per
    /// variant otherwise (their keys pin decade 0).
    symbolics: Vec<(SymbolicStoreKey, Arc<MatexSymbolic>)>,
    setups: HashMap<SetupStoreKey, Arc<MatexSetup>>,
    dcs: HashMap<DcStoreKey, Arc<Vec<f64>>>,
    plans: HashMap<PlanStoreKey, Arc<GroupPlan>>,
    /// What-if base candidates: the systems whose setups were *fully*
    /// prepared (never corrected), keyed by value fingerprint,
    /// insertion-ordered and bounded. A later same-pattern job diffs
    /// against these to find a small edit it can serve by SMW
    /// correction instead of refactoring.
    bases: Vec<(u64, Arc<MnaSystem>)>,
    /// LRU stamp (monotonic touch counter).
    touched: u64,
}

/// A keyed artifact class the tier resolves memory → disk → compute.
pub(crate) trait Class {
    type Key: Copy + Eq + Hash;
    type Value;
    /// Bumped when memory or disk served the lookup.
    const HITS: Counter;
    /// Bumped when the artifact had to be computed.
    const MISSES: Option<Counter>;
    fn slot(entry: &mut CircuitEntry) -> &mut HashMap<Self::Key, Arc<Self::Value>>;
    fn load(store: &ArtifactStore, key: &Self::Key) -> Option<Self::Value>;
    fn save(store: &ArtifactStore, key: &Self::Key, value: &Self::Value) -> std::io::Result<()>;
    /// Whether `value` is exactly what a fresh computation under its key
    /// yields. Inexact values (what-if corrections) stay memory-only.
    fn is_exact(_value: &Self::Value) -> bool {
        true
    }
}

/// Numeric setups (factors).
pub(crate) struct Setups;
/// DC operating points.
pub(crate) struct Dcs;
/// Group plans.
pub(crate) struct Plans;

impl Class for Setups {
    type Key = SetupStoreKey;
    type Value = MatexSetup;
    const HITS: Counter = Counter::SetupHits;
    const MISSES: Option<Counter> = Some(Counter::SetupMisses);
    fn slot(entry: &mut CircuitEntry) -> &mut HashMap<SetupStoreKey, Arc<MatexSetup>> {
        &mut entry.setups
    }
    fn load(store: &ArtifactStore, key: &SetupStoreKey) -> Option<MatexSetup> {
        store.load_setup(key)
    }
    fn save(store: &ArtifactStore, key: &SetupStoreKey, v: &MatexSetup) -> std::io::Result<()> {
        store.save_setup(key, v)
    }
    fn is_exact(setup: &MatexSetup) -> bool {
        !setup.is_corrected()
    }
}

impl Class for Dcs {
    type Key = DcStoreKey;
    type Value = Vec<f64>;
    const HITS: Counter = Counter::DcHits;
    const MISSES: Option<Counter> = None;
    fn slot(entry: &mut CircuitEntry) -> &mut HashMap<DcStoreKey, Arc<Vec<f64>>> {
        &mut entry.dcs
    }
    fn load(store: &ArtifactStore, key: &DcStoreKey) -> Option<Vec<f64>> {
        store.load_dc(key)
    }
    fn save(store: &ArtifactStore, key: &DcStoreKey, v: &Vec<f64>) -> std::io::Result<()> {
        store.save_dc(key, v)
    }
}

impl Class for Plans {
    type Key = PlanStoreKey;
    type Value = GroupPlan;
    const HITS: Counter = Counter::PlanHits;
    const MISSES: Option<Counter> = None;
    fn slot(entry: &mut CircuitEntry) -> &mut HashMap<PlanStoreKey, Arc<GroupPlan>> {
        &mut entry.plans
    }
    fn load(store: &ArtifactStore, key: &PlanStoreKey) -> Option<GroupPlan> {
        store.load_plan(key)
    }
    fn save(store: &ArtifactStore, key: &PlanStoreKey, v: &GroupPlan) -> std::io::Result<()> {
        store.save_plan(key, v)
    }
}

/// Sizes of the cache, for stats reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSizes {
    /// Distinct circuit structures.
    pub circuits: usize,
    /// Symbolic anchors (all decades and variants).
    pub symbolics: usize,
    /// Numeric setups.
    pub setups: usize,
    /// DC operating points.
    pub dcs: usize,
    /// Group plans.
    pub plans: usize,
}

/// γ decade of an anchor: `⌊log10 γ⌋`. Non-positive or non-finite γ
/// maps to a sentinel decade far outside the representable f64 range
/// (|decade| ≤ 308 for any finite positive γ) but small enough that
/// decade *differences* never overflow `i32`: such γs share one
/// anchor slot among themselves and never neighbor a real decade.
pub(crate) fn gamma_decade(gamma: f64) -> i32 {
    if gamma > 0.0 && gamma.is_finite() {
        gamma.log10().floor() as i32
    } else {
        -100_000
    }
}

/// The thread-safe read-through artifact tier.
///
/// Artifact construction happens outside the lock (two racing cold jobs
/// may both build; the first insert wins and the duplicate is dropped —
/// correctness is unaffected because every artifact is a pure function
/// of its key).
#[derive(Debug)]
pub(crate) struct ArtifactCache {
    inner: Mutex<CacheInner>,
    store: Option<Arc<ArtifactStore>>,
    counters: Arc<Counters>,
}

#[derive(Debug)]
struct CacheInner {
    entries: HashMap<u64, CircuitEntry>,
    max_circuits: usize,
    clock: u64,
    /// Whole-circuit LRU evictions performed.
    evictions: u64,
}

impl ArtifactCache {
    /// A cache of [`MAX_CIRCUITS`] circuits over `opts.store`.
    pub(crate) fn new(opts: &EngineOptions, counters: Arc<Counters>) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                max_circuits: MAX_CIRCUITS,
                clock: 0,
                evictions: 0,
            }),
            store: opts.store.clone(),
            counters,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolves the `C` artifact under `(pattern, key)`: memory, else
    /// disk (hydrating memory), else `compute` (written back to memory
    /// and, when exact, to disk). The returned path says which.
    ///
    /// # Errors
    ///
    /// Only what `compute` returns; store failures compute through.
    pub(crate) fn resolve<C: Class>(
        &self,
        pattern: u64,
        key: C::Key,
        compute: impl FnOnce() -> Result<C::Value, ServeError>,
    ) -> Result<(Arc<C::Value>, HitPath), ServeError> {
        if let Some(v) = self.peek::<C>(pattern, &key) {
            self.counters.count(C::HITS, 1);
            return Ok((v, HitPath::Cache));
        }
        if let Some(v) = self.store.as_ref().and_then(|s| C::load(s, &key)) {
            let v = Arc::new(v);
            self.insert::<C>(pattern, key, v.clone());
            self.counters.count(C::HITS, 1);
            self.counters.count(Counter::StoreHits, 1);
            return Ok((v, HitPath::Store));
        }
        let v = Arc::new(compute()?);
        self.insert::<C>(pattern, key, v.clone());
        if !C::is_exact(&v) {
            return Ok((v, HitPath::Whatif));
        }
        if let Some(misses) = C::MISSES {
            self.counters.count(misses, 1);
        }
        self.persist(|store| C::save(store, &key, &v));
        Ok((v, HitPath::Cold))
    }

    /// Best-effort write-back: a failed save is simply not counted.
    fn persist(&self, save: impl FnOnce(&ArtifactStore) -> std::io::Result<()>) {
        if self.store.as_deref().is_some_and(|s| save(s).is_ok()) {
            self.counters.count(Counter::StoreWrites, 1);
        }
    }

    /// The in-memory artifact under `(pattern, key)`, if any — no disk,
    /// no counters. Touches the circuit's LRU stamp.
    pub(crate) fn peek<C: Class>(&self, pattern: u64, key: &C::Key) -> Option<Arc<C::Value>> {
        C::slot(self.lock().touch(pattern)?).get(key).cloned()
    }

    fn insert<C: Class>(&self, pattern: u64, key: C::Key, value: Arc<C::Value>) {
        let mut inner = self.lock();
        C::slot(inner.entry(pattern)).entry(key).or_insert(value);
    }

    /// Quarantine eviction: drops the in-memory artifact under `key` so
    /// the next job re-resolves it instead of re-hitting an entry that
    /// just served a failed execution. Returns whether anything was
    /// evicted. Disk records are checksummed, so hydrating after the
    /// eviction is safe; base candidates keep the *system* (pure input
    /// data) and need no eviction.
    pub(crate) fn remove<C: Class>(&self, pattern: u64, key: &C::Key) -> bool {
        let mut inner = self.lock();
        inner
            .entries
            .get_mut(&pattern)
            .is_some_and(|e| C::slot(e).remove(key).is_some())
    }

    /// Resolves the symbolic analysis for `key` (which names its own
    /// circuit): the in-memory anchor of its γ decade, or the nearest anchor of the same variant within
    /// `span` decades ([`Hit::Neighbor`]); else the exact-decade disk
    /// record; else `analyze`, planted in memory and on disk.
    ///
    /// # Errors
    ///
    /// Only what `analyze` returns.
    pub(crate) fn symbolic(
        &self,
        key: SymbolicStoreKey,
        span: i32,
        analyze: impl FnOnce() -> Result<MatexSymbolic, ServeError>,
    ) -> Result<(Arc<MatexSymbolic>, Hit), ServeError> {
        if let Some((s, neighbor)) = self.nearest_symbolic(&key, span) {
            self.counters.count(Counter::SymbolicHits, 1);
            let hit = if neighbor { Hit::Neighbor } else { Hit::Hit };
            return Ok((s, hit));
        }
        if let Some(s) = self.store.as_ref().and_then(|st| st.load_symbolic(&key)) {
            let s = Arc::new(s);
            self.lock().put_symbolic(key, s.clone());
            self.counters.count(Counter::SymbolicHits, 1);
            self.counters.count(Counter::StoreHits, 1);
            return Ok((s, Hit::Hit));
        }
        let s = Arc::new(analyze()?);
        self.plant_symbolic(key, s.clone());
        Ok((s, Hit::Miss))
    }

    /// Plants a freshly computed analysis as the anchor for `key`
    /// (replacing any anchor there) in memory and on disk.
    pub(crate) fn plant_symbolic(&self, key: SymbolicStoreKey, s: Arc<MatexSymbolic>) {
        self.lock().put_symbolic(key, s.clone());
        self.counters.count(Counter::SymbolicMisses, 1);
        self.persist(|store| store.save_symbolic(&key, &s));
    }

    /// The in-memory anchor of `key`'s variant nearest to its decade,
    /// within `span` decades; the flag is `true` for a neighbouring
    /// decade. Touches the entry.
    fn nearest_symbolic(
        &self,
        key: &SymbolicStoreKey,
        span: i32,
    ) -> Option<(Arc<MatexSymbolic>, bool)> {
        let mut inner = self.lock();
        let (anchor, s) = inner
            .touch(key.pattern_fp)?
            .symbolics
            .iter()
            .filter(|(k, _)| k.kind_tag == key.kind_tag)
            .min_by_key(|(k, _)| ((k.gamma_decade - key.gamma_decade).abs(), k.gamma_decade))?;
        let dist = (anchor.gamma_decade - key.gamma_decade).abs();
        (dist <= span).then(|| (s.clone(), dist != 0))
    }

    /// Records a fully-prepared system as a what-if base candidate
    /// (deduplicated by value fingerprint; oldest dropped beyond `max`).
    pub(crate) fn record_base(&self, pattern: u64, value_fp: u64, sys: Arc<MnaSystem>, max: usize) {
        if max == 0 {
            return;
        }
        let mut inner = self.lock();
        let bases = &mut inner.entry(pattern).bases;
        if bases.iter().any(|(fp, _)| *fp == value_fp) {
            return;
        }
        bases.push((value_fp, sys));
        while bases.len() > max {
            bases.remove(0);
        }
    }

    /// The retained what-if base candidates for `pattern`.
    pub(crate) fn bases(&self, pattern: u64) -> Vec<(u64, Arc<MnaSystem>)> {
        self.lock()
            .entries
            .get(&pattern)
            .map(|e| e.bases.clone())
            .unwrap_or_default()
    }

    /// Whole-circuit LRU evictions performed so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Store I/O failures absorbed so far (0 without a store).
    pub(crate) fn store_errors(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.io_errors())
    }

    /// Current artifact counts.
    pub(crate) fn sizes(&self) -> CacheSizes {
        let inner = self.lock();
        let mut s = CacheSizes {
            circuits: inner.entries.len(),
            ..CacheSizes::default()
        };
        for e in inner.entries.values() {
            s.symbolics += e.symbolics.len();
            s.setups += e.setups.len();
            s.dcs += e.dcs.len();
            s.plans += e.plans.len();
        }
        s
    }
}

impl CacheInner {
    /// The existing entry for `pattern`, LRU stamp refreshed.
    fn touch(&mut self, pattern: u64) -> Option<&mut CircuitEntry> {
        self.clock += 1;
        let entry = self.entries.get_mut(&pattern)?;
        entry.touched = self.clock;
        Some(entry)
    }

    /// The entry for `pattern`, creating it (and evicting the
    /// least-recently-touched circuit beyond capacity) as needed.
    fn entry(&mut self, pattern: u64) -> &mut CircuitEntry {
        self.clock += 1;
        let clock = self.clock;
        if !self.entries.contains_key(&pattern) && self.entries.len() >= self.max_circuits {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(&k, _)| k);
            if let Some(k) = oldest {
                self.entries.remove(&k);
                self.evictions += 1;
            }
        }
        let entry = self.entries.entry(pattern).or_default();
        entry.touched = clock;
        entry
    }

    /// Inserts (or replaces) the anchor under `key`.
    fn put_symbolic(&mut self, key: SymbolicStoreKey, s: Arc<MatexSymbolic>) {
        let symbolics = &mut self.entry(key.pattern_fp).symbolics;
        match symbolics.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = s,
            None => symbolics.push((key, s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::EngineStats;
    use matex_circuit::PdnBuilder;
    use matex_core::{FaultHook, FaultKind, FaultPlan, MatexOptions, SmwOptions, TransientSpec};
    use matex_dist::plan_groups;
    use matex_store::StoreOptions;
    use matex_waveform::GroupingStrategy;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("matex-tier-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tier_over(store: Option<ArtifactStore>, max_circuits: usize) -> ArtifactCache {
        let opts = EngineOptions {
            store: store.map(Arc::new),
            ..EngineOptions::default()
        };
        let cache = ArtifactCache::new(&opts, Arc::new(Counters::new(opts.obs.clone())));
        cache.lock().max_circuits = max_circuits;
        cache
    }

    fn tier(dir: &PathBuf) -> ArtifactCache {
        tier_over(Some(ArtifactStore::open(dir).unwrap()), 4)
    }

    /// A tier whose store fails every read and write.
    fn faulty_tier(dir: &PathBuf) -> ArtifactCache {
        let faults = FaultHook::new(
            FaultPlan::new()
                .seeded(7, 1000, FaultKind::Error)
                .on_sites(&["store.read", "store.write"]),
        );
        let opts = StoreOptions {
            faults,
            ..StoreOptions::default()
        };
        tier_over(Some(ArtifactStore::open_with(dir, opts).unwrap()), 4)
    }

    fn counted(cache: &ArtifactCache) -> EngineStats {
        let mut s = EngineStats::default();
        cache.counters.read_into(&mut s);
        s
    }

    /// The snapshot a fresh table shows after exactly `events`.
    fn exactly(events: &[(Counter, u64)]) -> EngineStats {
        let cache = tier_over(None, 1);
        for &(c, n) in events {
            cache.counters.count(c, n);
        }
        counted(&cache)
    }

    fn sys() -> MnaSystem {
        PdnBuilder::new(6, 6)
            .num_loads(8)
            .num_features(3)
            .window(1e-9)
            .seed(5)
            .build()
            .unwrap()
    }

    fn setup_of(sys: &MnaSystem) -> MatexSetup {
        MatexSetup::prepare(sys, &MatexOptions::default(), None, false).unwrap()
    }

    fn setup_key(sys: &MnaSystem) -> SetupStoreKey {
        let opts = MatexOptions::default();
        SetupStoreKey {
            value_fp: sys.value_fingerprint(),
            kind_tag: 2,
            gamma_bits: opts.gamma.to_bits(),
            regularize_bits: opts.regularize_eps.to_bits(),
            scheduled: false,
        }
    }

    fn never<T>() -> Result<T, ServeError> {
        panic!("resolved artifact was recomputed")
    }

    /// Every rung of the ladder for one class: compute (written back to
    /// memory and disk), memory hit, disk hit after a restart
    /// (hydrating memory), no store, and a store failing every read and
    /// write — each moving exactly the counters it should, once.
    fn check_read_through<C: Class>(tag: &str, key: C::Key, make: impl Fn() -> C::Value) {
        const P: u64 = 42;
        let miss: Vec<(Counter, u64)> = C::MISSES.map(|c| (c, 1)).into_iter().collect();
        let with =
            |base: &[(Counter, u64)], more: &[(Counter, u64)]| exactly(&[base, more].concat());
        let dir = scratch(tag);
        let a = tier(&dir);
        let (_, path) = a.resolve::<C>(P, key, || Ok(make())).unwrap();
        assert_eq!(path, HitPath::Cold);
        assert_eq!(counted(&a), with(&miss, &[(Counter::StoreWrites, 1)]));
        assert!(a.peek::<C>(P, &key).is_some(), "written back to memory");
        assert!(
            C::load(a.store.as_ref().unwrap(), &key).is_some(),
            "written back to disk"
        );
        let (_, path) = a.resolve::<C>(P, key, never).unwrap();
        assert_eq!(path, HitPath::Cache);
        assert_eq!(
            counted(&a),
            with(&miss, &[(Counter::StoreWrites, 1), (C::HITS, 1)])
        );

        // A restarted tier over the same directory: one disk hit, which
        // hydrates memory, so the repeat is a memory hit.
        let b = tier(&dir);
        let (_, path) = b.resolve::<C>(P, key, never).unwrap();
        assert_eq!(path, HitPath::Store);
        assert_eq!(
            counted(&b),
            exactly(&[(C::HITS, 1), (Counter::StoreHits, 1)])
        );
        let (_, path) = b.resolve::<C>(P, key, never).unwrap();
        assert_eq!(path, HitPath::Cache);
        assert_eq!(
            counted(&b),
            exactly(&[(C::HITS, 2), (Counter::StoreHits, 1)])
        );
        assert_eq!(b.store_errors(), 0);

        // No store: compute, memory only.
        let c = tier_over(None, 4);
        assert_eq!(
            c.resolve::<C>(P, key, || Ok(make())).unwrap().1,
            HitPath::Cold
        );
        assert_eq!(counted(&c), exactly(&miss));
        assert_eq!(c.resolve::<C>(P, key, never).unwrap().1, HitPath::Cache);

        // Every read and write fails (the record IS on disk): the lookup
        // computes through, nothing is counted as stored or hydrated,
        // and memory still serves the repeat.
        let d = faulty_tier(&dir);
        assert_eq!(
            d.resolve::<C>(P, key, || Ok(make())).unwrap().1,
            HitPath::Cold
        );
        assert_eq!(counted(&d), exactly(&miss));
        assert_eq!(d.store_errors(), 2, "one failed read, one failed write");
        assert_eq!(d.resolve::<C>(P, key, never).unwrap().1, HitPath::Cache);
        assert_eq!(counted(&d), with(&miss, &[(C::HITS, 1)]));

        // Quarantine evicts memory only: the next lookup hydrates.
        assert!(b.remove::<C>(P, &key));
        assert!(!b.remove::<C>(P, &key));
        assert_eq!(b.resolve::<C>(P, key, never).unwrap().1, HitPath::Store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn setups_read_through_memory_disk_compute() {
        let sys = sys();
        check_read_through::<Setups>("setup", setup_key(&sys), || setup_of(&sys));
    }

    #[test]
    fn dcs_read_through_memory_disk_compute() {
        let key = DcStoreKey {
            value_fp: 1,
            source_fp: 2,
            t_start_bits: 0,
        };
        check_read_through::<Dcs>("dc", key, || vec![1.0, -0.0, f64::MIN_POSITIVE]);
    }

    #[test]
    fn plans_read_through_memory_disk_compute() {
        let sys = sys();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let key = PlanStoreKey {
            source_fp: sys.source_fingerprint(),
            strategy: 0,
            t_start_bits: spec.t_start().to_bits(),
            t_stop_bits: spec.t_stop().to_bits(),
        };
        check_read_through::<Plans>("plan", key, || {
            plan_groups(&sys, &spec, GroupingStrategy::ByBumpFeature)
        });
    }

    #[test]
    fn corrected_setups_stay_in_memory() {
        let dir = scratch("whatif");
        let cache = tier(&dir);
        let base_sys = sys();
        let edited = base_sys.with_cap_scaled(7, 3.0).unwrap();
        let diff = edited.value_diff(&base_sys).unwrap();
        let key = setup_key(&edited);
        let (setup, path) = cache
            .resolve::<Setups>(9, key, || {
                let base = Arc::new(setup_of(&base_sys));
                Ok(MatexSetup::correct(base, &diff, &SmwOptions::default()).unwrap())
            })
            .unwrap();
        assert!(setup.is_corrected());
        assert_eq!(path, HitPath::Whatif);
        // Neither a miss nor a store write: the correction is the
        // engine's what-if hit, and it is never persisted.
        assert_eq!(counted(&cache), exactly(&[]));
        assert!(cache.store.as_ref().unwrap().load_setup(&key).is_none());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        // Memory serves the repeat; a restarted tier has nothing.
        assert_eq!(
            cache.resolve::<Setups>(9, key, never).unwrap().1,
            HitPath::Cache
        );
        let restarted = tier(&dir);
        let (_, path) = restarted
            .resolve::<Setups>(9, key, || Ok(setup_of(&edited)))
            .unwrap();
        assert_eq!(path, HitPath::Cold);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_symbolic() -> Arc<MatexSymbolic> {
        Arc::new(MatexSymbolic::analyze(&sys(), &MatexOptions::default()).unwrap())
    }

    fn anchor(pattern: u64, kind_tag: u8, gamma: f64) -> SymbolicStoreKey {
        SymbolicStoreKey {
            pattern_fp: pattern,
            kind_tag,
            gamma_decade: gamma_decade(gamma),
        }
    }

    /// A symbolic lookup that must not analyze: `None` on a miss.
    fn lookup(cache: &ArtifactCache, key: SymbolicStoreKey, span: i32) -> Option<Hit> {
        let miss = || Err(ServeError::InvalidJob("miss".into()));
        cache.symbolic(key, span, miss).ok().map(|(_, hit)| hit)
    }

    #[test]
    fn symbolics_read_through_memory_disk_compute() {
        let dir = scratch("symbolic");
        let a = tier(&dir);
        let key = anchor(7, 2, 1e-10);
        let analyze = || Ok(MatexSymbolic::analyze(&sys(), &MatexOptions::default()).unwrap());
        assert_eq!(a.symbolic(key, 1, analyze).unwrap().1, Hit::Miss);
        let planted = [(Counter::SymbolicMisses, 1), (Counter::StoreWrites, 1)];
        assert_eq!(counted(&a), exactly(&planted));
        assert!(a.store.as_ref().unwrap().load_symbolic(&key).is_some());
        // Memory: the exact decade, then a neighbour within the span.
        assert_eq!(lookup(&a, key, 1), Some(Hit::Hit));
        assert_eq!(lookup(&a, anchor(7, 2, 1e-9), 1), Some(Hit::Neighbor));
        assert_eq!(
            counted(&a),
            exactly(&[planted[0], planted[1], (Counter::SymbolicHits, 2)])
        );
        // Disk after a restart: exact decade only, hydrating memory.
        let b = tier(&dir);
        assert_eq!(lookup(&b, anchor(7, 2, 1e-9), 1), None);
        assert_eq!(lookup(&b, key, 1), Some(Hit::Hit));
        assert_eq!(
            counted(&b),
            exactly(&[(Counter::SymbolicHits, 1), (Counter::StoreHits, 1)])
        );
        assert_eq!(lookup(&b, anchor(7, 2, 1e-9), 1), Some(Hit::Neighbor));
        // A failing store: analyze, keep in memory, count no write.
        let c = faulty_tier(&dir);
        assert_eq!(c.symbolic(key, 1, analyze).unwrap().1, Hit::Miss);
        assert_eq!(counted(&c), exactly(&[(Counter::SymbolicMisses, 1)]));
        assert_eq!(lookup(&c, key, 0), Some(Hit::Hit));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decade_math() {
        assert_eq!(gamma_decade(1e-10), -10);
        assert_eq!(gamma_decade(5e-10), -10);
        assert_eq!(gamma_decade(1e-9), -9);
        assert_eq!(gamma_decade(0.0), -100_000);
        assert_eq!(gamma_decade(-3.0), -100_000);
        assert_eq!(gamma_decade(f64::NAN), -100_000);
        // The sentinel keeps decade differences overflow-free.
        let d = gamma_decade(0.0);
        assert!((gamma_decade(1.0) - d).checked_abs().is_some());
    }

    #[test]
    fn degenerate_gamma_never_neighbors_a_real_anchor() {
        let cache = tier_over(None, 4);
        let sym = sample_symbolic();
        // An anchor at decade 0 (γ = 1.0) must not be handed to a γ = 0
        // job even with a huge span, and vice versa.
        cache.plant_symbolic(anchor(9, 2, 1.0), sym.clone());
        assert_eq!(lookup(&cache, anchor(9, 2, 0.0), 10), None);
        cache.plant_symbolic(anchor(9, 2, 0.0), sym);
        assert_eq!(
            lookup(&cache, anchor(9, 2, -2.0), 0),
            Some(Hit::Hit),
            "degenerate γs share one exact slot"
        );
        assert!(lookup(&cache, anchor(9, 2, 1.0), 1).is_some());
    }

    #[test]
    fn anchors_by_decade_with_span() {
        let cache = tier_over(None, 4);
        let sym = sample_symbolic();
        cache.plant_symbolic(anchor(7, 2, 1e-10), sym.clone());
        // Same decade: exact hit.
        assert_eq!(lookup(&cache, anchor(7, 2, 3e-10), 1), Some(Hit::Hit));
        // One decade off, within span: neighbor hit.
        assert_eq!(lookup(&cache, anchor(7, 2, 1e-9), 1), Some(Hit::Neighbor));
        // Two decades off, span 1: miss.
        assert_eq!(lookup(&cache, anchor(7, 2, 1e-8), 1), None);
        // Unknown circuit: miss.
        assert_eq!(lookup(&cache, anchor(8, 2, 1e-10), 1), None);
        // Anchors never cross variants.
        cache.plant_symbolic(anchor(7, 1, 1.0), sym.clone());
        assert_eq!(lookup(&cache, anchor(7, 1, 1.0), 0), Some(Hit::Hit));
        assert_eq!(lookup(&cache, anchor(7, 0, 1e-10), 5), None);
        // Replanting a decade replaces its anchor instead of adding one.
        cache.plant_symbolic(anchor(7, 2, 2e-10), sym);
        assert_eq!(cache.sizes().symbolics, 2);
    }

    #[test]
    fn default_cache_holds_max_circuits_then_evicts() {
        let cache = ArtifactCache::new(
            &EngineOptions::default(),
            Arc::new(Counters::new(matex_obs::Obs::disabled())),
        );
        let sym = sample_symbolic();
        for pattern in 0..MAX_CIRCUITS as u64 {
            cache.plant_symbolic(anchor(pattern, 2, 1e-10), sym.clone());
        }
        assert_eq!((cache.sizes().circuits, cache.evictions()), (32, 0));
        cache.plant_symbolic(anchor(99, 2, 1e-10), sym);
        assert_eq!((cache.sizes().circuits, cache.evictions()), (32, 1));
    }

    #[test]
    fn lru_evicts_whole_circuits() {
        let cache = tier_over(None, 2);
        let sym = sample_symbolic();
        cache.plant_symbolic(anchor(1, 2, 1e-10), sym.clone());
        cache.plant_symbolic(anchor(2, 2, 1e-10), sym.clone());
        // Touch circuit 1 so circuit 2 is the LRU.
        assert!(lookup(&cache, anchor(1, 2, 1e-10), 0).is_some());
        cache.plant_symbolic(anchor(3, 2, 1e-10), sym);
        assert_eq!(cache.sizes().circuits, 2);
        assert_eq!(cache.evictions(), 1);
        assert!(lookup(&cache, anchor(2, 2, 1e-10), 0).is_none());
        assert!(lookup(&cache, anchor(1, 2, 1e-10), 0).is_some());
    }
}
