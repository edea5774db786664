//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] names exactly which failures fire and where: explicit
//! `(site, occurrence-index) → FaultKind` entries plus an optional seeded
//! probabilistic schedule that derives fire/no-fire decisions from an FNV
//! hash of `(seed, site, occurrence)` — the same plan always produces the
//! same fault sequence, so recovery tests are replayable bit-for-bit.
//!
//! The plan is consulted through a [`FaultHook`], modelled on
//! [`CancelToken`](crate::CancelToken): a cheap `Clone` handle that is
//! threaded through option structs (`MatexOptions`, which a distributed
//! run's `DistributedOptions::matex` carries to the master and every node,
//! `EngineOptions`, `StoreOptions`) and defaults to a disarmed no-op so
//! production paths pay one branch per site. Each call to
//! [`FaultHook::check`] advances the per-site occurrence counter; the
//! counters are shared across clones, so a hook handed to eight workers
//! still sees one global occurrence stream per site.
//!
//! Sites are plain strings (`"dist.node"`, `"store.write"`, …) declared at
//! the point of injection; the hook does not enumerate them up front, so a
//! plan can target sites that did not exist when it was written (they
//! simply never fire).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind with a panic — exercises `catch_unwind` supervision.
    Panic,
    /// Return the site's natural error (`NotFinite`, `io::Error`, …).
    Error,
}

/// A deterministic schedule of injected failures.
///
/// Two layers compose:
/// - **explicit entries** pin a fault to one `(site, occurrence)` pair —
///   occurrence indices are 0-based per site;
/// - a **seeded schedule** fires [`FaultKind::Error`]-or-[`FaultKind::Panic`]
///   (as configured) on roughly `rate_per_mille`/1000 of the occurrences at
///   the listed sites, decided by hashing `(seed, site, occurrence)` so the
///   pattern is reproducible across runs, thread counts and machines.
///
/// Explicit entries win over the seeded schedule at the same coordinate.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(String, u64, FaultKind)>,
    seed: u64,
    rate_per_mille: u16,
    seeded_kind: Option<FaultKind>,
    seeded_sites: Vec<String>,
}

impl FaultPlan {
    /// An empty plan: nothing ever fires.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins `kind` to fire at the `occurrence`-th consultation (0-based)
    /// of `site`.
    #[must_use]
    pub fn fail_at(mut self, site: &str, occurrence: u64, kind: FaultKind) -> Self {
        self.entries.push((site.to_string(), occurrence, kind));
        self
    }

    /// Arms the seeded probabilistic schedule: roughly `rate_per_mille`
    /// out of every 1000 occurrences fire `kind`, chosen by a hash of
    /// `(seed, site, occurrence)`. Restrict it with
    /// [`on_sites`](Self::on_sites); unrestricted it applies to every site.
    #[must_use]
    pub fn seeded(mut self, seed: u64, rate_per_mille: u16, kind: FaultKind) -> Self {
        self.seed = seed;
        self.rate_per_mille = rate_per_mille.min(1000);
        self.seeded_kind = Some(kind);
        self
    }

    /// Limits the seeded schedule to `sites` (explicit entries are
    /// unaffected).
    #[must_use]
    pub fn on_sites(mut self, sites: &[&str]) -> Self {
        self.seeded_sites = sites.iter().map(|s| (*s).to_string()).collect();
        self
    }

    /// True when the plan can never fire.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.seeded_kind.is_none()
    }

    fn kind_for(&self, site: &str, occurrence: u64) -> Option<FaultKind> {
        if let Some(&(_, _, kind)) = self
            .entries
            .iter()
            .find(|(s, o, _)| s == site && *o == occurrence)
        {
            return Some(kind);
        }
        let kind = self.seeded_kind?;
        if !self.seeded_sites.is_empty() && !self.seeded_sites.iter().any(|s| s == site) {
            return None;
        }
        (fnv(self.seed, site, occurrence) % 1000 < u64::from(self.rate_per_mille)).then_some(kind)
    }
}

/// FNV-1a over `(seed, site, occurrence)` — stable across platforms, so a
/// seeded schedule replays identically everywhere.
fn fnv(seed: u64, site: &str, occurrence: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in seed
        .to_le_bytes()
        .iter()
        .chain(site.as_bytes())
        .chain(&occurrence.to_le_bytes())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[derive(Debug)]
struct HookInner {
    plan: FaultPlan,
    occurrences: Mutex<HashMap<String, u64>>,
    injected: AtomicU64,
}

/// Injectable handle consulting a [`FaultPlan`] at named sites.
///
/// `Default` is disarmed: [`check`](Self::check) returns `None` without
/// locking anything, so leaving the hook in an options struct costs one
/// `Option` branch on the hot path. Clones share the plan, the per-site
/// occurrence counters and the injected-fault tally.
#[derive(Debug, Clone, Default)]
pub struct FaultHook {
    inner: Option<Arc<HookInner>>,
}

impl FaultHook {
    /// Arms the hook with `plan`. An empty plan yields a disarmed hook.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        if plan.is_empty() {
            return Self::default();
        }
        Self {
            inner: Some(Arc::new(HookInner {
                plan,
                occurrences: Mutex::new(HashMap::new()),
                injected: AtomicU64::new(0),
            })),
        }
    }

    /// True when a plan is attached (even one that happens never to fire).
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Consults the plan at `site`, advancing the site's occurrence
    /// counter. Returns the fault to inject, if any; the caller decides
    /// what "panic" or "error" means at its site.
    #[must_use]
    pub fn check(&self, site: &str) -> Option<FaultKind> {
        let inner = self.inner.as_ref()?;
        let occurrence = {
            let mut counts = inner.occurrences.lock().expect("fault counters poisoned");
            let slot = counts.entry(site.to_string()).or_insert(0);
            let occurrence = *slot;
            *slot += 1;
            occurrence
        };
        let kind = inner.plan.kind_for(site, occurrence);
        if kind.is_some() {
            inner.injected.fetch_add(1, Ordering::Relaxed);
        }
        kind
    }

    /// Total faults fired so far, across all sites and clones.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.injected.load(Ordering::Relaxed))
    }

    /// How many times `site` has been consulted so far.
    #[must_use]
    pub fn occurrences(&self, site: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.occurrences
                .lock()
                .expect("fault counters poisoned")
                .get(site)
                .copied()
                .unwrap_or(0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hook_never_fires() {
        let hook = FaultHook::default();
        assert!(!hook.is_armed());
        for _ in 0..100 {
            assert_eq!(hook.check("dist.node"), None);
        }
        assert_eq!(hook.injected(), 0);
        assert_eq!(hook.occurrences("dist.node"), 0);
        // An empty plan degrades to the same disarmed no-op.
        assert!(!FaultHook::new(FaultPlan::new()).is_armed());
    }

    #[test]
    fn explicit_entries_fire_at_their_occurrence_only() {
        let plan = FaultPlan::new()
            .fail_at("dist.node", 2, FaultKind::Panic)
            .fail_at("store.write", 0, FaultKind::Error);
        let hook = FaultHook::new(plan);
        assert!(hook.is_armed());
        assert_eq!(hook.check("dist.node"), None);
        assert_eq!(hook.check("dist.node"), None);
        assert_eq!(hook.check("dist.node"), Some(FaultKind::Panic));
        assert_eq!(hook.check("dist.node"), None);
        assert_eq!(hook.check("store.write"), Some(FaultKind::Error));
        assert_eq!(hook.check("store.write"), None);
        assert_eq!(hook.injected(), 2);
        assert_eq!(hook.occurrences("dist.node"), 4);
        assert_eq!(hook.occurrences("store.write"), 2);
    }

    #[test]
    fn occurrence_counters_are_shared_across_clones() {
        let hook = FaultHook::new(FaultPlan::new().fail_at("s", 3, FaultKind::Error));
        let clone = hook.clone();
        assert_eq!(hook.check("s"), None);
        assert_eq!(clone.check("s"), None);
        assert_eq!(hook.check("s"), None);
        assert_eq!(clone.check("s"), Some(FaultKind::Error));
        assert_eq!(hook.injected(), 1);
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_roughly_rated() {
        let plan = FaultPlan::new().seeded(42, 100, FaultKind::Error);
        let a = FaultHook::new(plan.clone());
        let b = FaultHook::new(plan);
        let fired_a: Vec<bool> = (0..1000).map(|_| a.check("x").is_some()).collect();
        let fired_b: Vec<bool> = (0..1000).map(|_| b.check("x").is_some()).collect();
        assert_eq!(fired_a, fired_b, "same seed must replay identically");
        let fired = fired_a.iter().filter(|f| **f).count();
        // 100‰ nominal; the FNV stream should land in a loose band.
        assert!((40..=250).contains(&fired), "fired {fired}/1000 at 100‰");
        // A different seed produces a different pattern.
        let c = FaultHook::new(FaultPlan::new().seeded(43, 100, FaultKind::Error));
        let fired_c: Vec<bool> = (0..1000).map(|_| c.check("x").is_some()).collect();
        assert_ne!(fired_a, fired_c);
    }

    #[test]
    fn seeded_schedule_respects_site_restriction() {
        let plan = FaultPlan::new()
            .seeded(7, 1000, FaultKind::Panic)
            .on_sites(&["dist.node"]);
        let hook = FaultHook::new(plan);
        assert_eq!(hook.check("store.write"), None);
        assert_eq!(hook.check("dist.node"), Some(FaultKind::Panic));
    }

    #[test]
    fn explicit_entry_overrides_seeded_schedule() {
        // Rate 1000‰ fires everywhere; the explicit entry still decides
        // the kind at its coordinate.
        let plan =
            FaultPlan::new()
                .seeded(1, 1000, FaultKind::Error)
                .fail_at("s", 0, FaultKind::Panic);
        let hook = FaultHook::new(plan);
        assert_eq!(hook.check("s"), Some(FaultKind::Panic));
        assert_eq!(hook.check("s"), Some(FaultKind::Error));
    }

    #[test]
    fn one_hook_holding_two_sites_fires_each_sites_own_schedule() {
        // A distributed run hands its master and its nodes one hook: the
        // merged plan must fire, site by site, what two hooks would.
        let node = FaultPlan::new()
            .fail_at("dist.node", 1, FaultKind::Panic)
            .fail_at("dist.node", 3, FaultKind::Error);
        let solver = FaultPlan::new().fail_at("core.solver.run", 0, FaultKind::Error);
        let merged = FaultHook::new(node.clone().fail_at("core.solver.run", 0, FaultKind::Error));
        let (node, solver) = (FaultHook::new(node), FaultHook::new(solver));
        for _ in 0..5 {
            assert_eq!(merged.check("dist.node"), node.check("dist.node"));
            assert_eq!(
                merged.check("core.solver.run"),
                solver.check("core.solver.run")
            );
        }
        assert_eq!(merged.injected(), node.injected() + solver.injected());
        assert_eq!(merged.occurrences("dist.node"), 5);
        assert_eq!(merged.occurrences("core.solver.run"), 5);
    }

    #[test]
    fn seeded_site_schedule_ignores_traffic_at_other_sites() {
        let plan = FaultPlan::new().seeded(11, 300, FaultKind::Error);
        let alone = FaultHook::new(plan.clone());
        let shared = FaultHook::new(plan);
        let a: Vec<_> = (0..200).map(|_| alone.check("dist.node")).collect();
        let b: Vec<_> = (0..200)
            .map(|i| {
                for _ in 0..i % 3 {
                    let _ = shared.check("store.write");
                }
                shared.check("dist.node")
            })
            .collect();
        assert_eq!(a, b);
        assert!(
            a.iter().any(Option::is_some),
            "300‰ over 200 draws fired nothing"
        );
    }

    #[test]
    fn sites_without_entries_are_counted_but_never_fire() {
        let hook = FaultHook::new(FaultPlan::new().fail_at("dist.node", 0, FaultKind::Panic));
        for _ in 0..4 {
            assert_eq!(hook.check("serve.job"), None);
        }
        assert_eq!(hook.occurrences("serve.job"), 4);
        assert_eq!(hook.occurrences("dist.node"), 0);
        assert_eq!(hook.injected(), 0);
        // The untouched site still fires at its own first occurrence.
        assert_eq!(hook.check("dist.node"), Some(FaultKind::Panic));
    }
}
