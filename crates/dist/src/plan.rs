//! Pre-built group plans: the cacheable front half of a distributed run.
//!
//! [`run_distributed`](crate::run_distributed) spends its first phase on
//! pure functions of `(sources, window, strategy)`: partitioning the
//! sources into groups, deriving each group's local transition spots,
//! and ordering the groups longest-processing-time first. A
//! [`GroupPlan`] captures that phase as an immutable artifact, so a
//! scenario engine serving many transients of one circuit computes it
//! once ([`plan_groups`]) and injects it into every run
//! (`DistributedOptions::plan`). Injection is numerically invisible:
//! the plan is exactly what the run would have computed.

use crate::schedule::lpt_order;
use matex_circuit::MnaSystem;
use matex_core::TransientSpec;
use matex_sparse::{WireError, WireReader, WireWriter};
use matex_waveform::{group_sources, GroupingStrategy, SpotSet};

/// One schedulable subtask of a plan: a source group and its LTS.
#[derive(Debug, Clone)]
pub struct PlanJob {
    /// Group id (0 is the constant/supply group).
    pub group: usize,
    /// Source columns belonging to the group.
    pub members: Vec<usize>,
    /// The group's local transition spots, clipped to the window.
    pub lts: SpotSet,
}

/// The immutable scheduling plan of a distributed run: jobs, global
/// transition spots, and the LPT drain order.
///
/// # Example
///
/// ```
/// use matex_circuit::PdnBuilder;
/// use matex_core::TransientSpec;
/// use matex_dist::plan_groups;
/// use matex_waveform::GroupingStrategy;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = PdnBuilder::new(8, 8).num_loads(10).num_features(3).window(2e-9).build()?;
/// let spec = TransientSpec::new(0.0, 2e-9, 4e-11)?;
/// let plan = plan_groups(&grid, &spec, GroupingStrategy::ByBumpFeature);
/// assert_eq!(plan.num_jobs(), 4); // 3 bump shapes + the supply group
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GroupPlan {
    strategy: GroupingStrategy,
    t_start: f64,
    t_stop: f64,
    num_sources: usize,
    jobs: Vec<PlanJob>,
    gts: SpotSet,
    order: Vec<usize>,
}

impl GroupPlan {
    /// Number of schedulable subtasks (slave nodes).
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The subtasks, in ascending group order.
    pub fn jobs(&self) -> &[PlanJob] {
        &self.jobs
    }

    /// Global transition spots (union of all LTS), clipped to the
    /// window.
    pub fn gts(&self) -> &SpotSet {
        &self.gts
    }

    /// Indices into [`GroupPlan::jobs`] in LPT schedule order — the
    /// dispatch *and* superposition order of the run.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Verifies this plan fits a run. The source *waveforms* are the
    /// caller's contract (a scenario engine keys plans by the system's
    /// source fingerprint); the cheap invariants — source count and the
    /// exact window — are checked here.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn check(
        &self,
        sys: &MnaSystem,
        spec: &TransientSpec,
        strategy: GroupingStrategy,
    ) -> Result<(), String> {
        if self.num_sources != sys.num_sources() {
            return Err(format!(
                "plan covers {} sources, system has {}",
                self.num_sources,
                sys.num_sources()
            ));
        }
        if self.strategy != strategy {
            return Err(format!(
                "plan derived under {:?}, run requested {:?}",
                self.strategy, strategy
            ));
        }
        if self.t_start.to_bits() != spec.t_start().to_bits()
            || self.t_stop.to_bits() != spec.t_stop().to_bits()
        {
            return Err(format!(
                "plan window [{}, {}] vs spec [{}, {}]",
                self.t_start,
                self.t_stop,
                spec.t_start(),
                spec.t_stop()
            ));
        }
        Ok(())
    }

    /// Appends the plan to `w` for the artifact store. A decoded plan
    /// dispatches the same jobs in the same LPT order over the same
    /// transition spots, so an injected decoded plan is numerically
    /// invisible — exactly like an injected fresh one.
    ///
    /// # Errors
    ///
    /// [`WireError::Invalid`] for a strategy this codec revision does
    /// not know a stable tag for.
    pub fn wire_encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        let (tag, k) = match self.strategy {
            GroupingStrategy::ByBumpFeature => (0u8, 0usize),
            GroupingStrategy::BySource => (1, 0),
            GroupingStrategy::Single => (2, 0),
            GroupingStrategy::MaxGroups(k) => (3, k),
            other => {
                return Err(WireError::Invalid(format!(
                    "strategy {other:?} has no wire tag"
                )))
            }
        };
        w.u8(tag);
        w.usize(k);
        w.f64(self.t_start);
        w.f64(self.t_stop);
        w.usize(self.num_sources);
        w.u64(self.jobs.len() as u64);
        for job in &self.jobs {
            w.usize(job.group);
            w.usizes(&job.members);
            w.f64s(job.lts.as_slice());
        }
        w.f64s(self.gts.as_slice());
        w.usizes(&self.order);
        Ok(())
    }

    /// Decodes a plan previously written by [`GroupPlan::wire_encode`].
    ///
    /// Spot sets rebuild through [`SpotSet::from_times`], whose
    /// sort-and-dedup is the identity on the already-canonical encoded
    /// data — the decoded spots are bitwise the encoded ones.
    ///
    /// The record must end after the plan, and the plan must be one a
    /// run can drain: at least one job, a schedule order that is a
    /// permutation of the jobs, and every source index below the source
    /// count in exactly one job.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, trailing bytes, an order that is not
    /// a permutation, or sources that are out of range, repeated or left
    /// out.
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        let k = r.usize()?;
        let strategy = match tag {
            0 => GroupingStrategy::ByBumpFeature,
            1 => GroupingStrategy::BySource,
            2 => GroupingStrategy::Single,
            3 => GroupingStrategy::MaxGroups(k),
            t => return Err(WireError::Invalid(format!("unknown strategy tag {t}"))),
        };
        let t_start = r.f64()?;
        let t_stop = r.f64()?;
        let num_sources = r.usize()?;
        let num_jobs = r.u64()?;
        if num_jobs > r.remaining() as u64 {
            return Err(WireError::Invalid(format!(
                "job count {num_jobs} exceeds the record"
            )));
        }
        let mut jobs = Vec::with_capacity(num_jobs as usize);
        for _ in 0..num_jobs {
            jobs.push(PlanJob {
                group: r.usize()?,
                members: r.usizes()?,
                lts: SpotSet::from_times(r.f64s()?),
            });
        }
        let gts = SpotSet::from_times(r.f64s()?);
        let order = r.usizes()?;
        if !r.is_empty() {
            return Err(WireError::Invalid(format!(
                "{} trailing bytes after the plan",
                r.remaining()
            )));
        }
        if jobs.is_empty() || !is_permutation(order.iter().copied(), jobs.len()) {
            return Err(WireError::Invalid(
                "schedule order is not a permutation of the jobs".into(),
            ));
        }
        let members = jobs.iter().flat_map(|j| j.members.iter().copied());
        if !is_permutation(members, num_sources) {
            return Err(WireError::Invalid(format!(
                "jobs do not hold each of the {num_sources} sources exactly once"
            )));
        }
        Ok(GroupPlan {
            strategy,
            t_start,
            t_stop,
            num_sources,
            jobs,
            gts,
            order,
        })
    }
}

/// `true` when `indices` lists every index below `n` exactly once. The
/// count is compared first, so `n` from a corrupt record never sizes an
/// allocation larger than the record's own list.
fn is_permutation(mut indices: impl Iterator<Item = usize> + Clone, n: usize) -> bool {
    if indices.clone().count() != n {
        return false;
    }
    let mut seen = vec![false; n];
    indices.all(|i| i < n && !std::mem::replace(&mut seen[i], true))
}

/// Derives the group plan [`run_distributed`](crate::run_distributed)
/// would compute for `(sys, spec, strategy)`: group the sources, clip
/// each group's LTS to the window, and fix the LPT schedule order
/// (cost estimate: LTS count, ties on ascending group id).
///
/// A sourceless system yields one empty job, so the run still produces
/// a well-formed (zero) result grid.
pub fn plan_groups(sys: &MnaSystem, spec: &TransientSpec, strategy: GroupingStrategy) -> GroupPlan {
    let (t_start, t_stop) = (spec.t_start(), spec.t_stop());
    let grouping = group_sources(&sys.source_waveforms(), t_stop, strategy);
    let mut jobs: Vec<PlanJob> = grouping
        .groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| PlanJob {
            group: g.id,
            members: g.members.clone(),
            lts: g.lts.clip(t_start, t_stop),
        })
        .collect();
    if jobs.is_empty() {
        jobs.push(PlanJob {
            group: 0,
            members: Vec::new(),
            lts: SpotSet::new(),
        });
    }
    let costs: Vec<usize> = jobs.iter().map(|j| j.lts.len()).collect();
    let order = lpt_order(&costs);
    GroupPlan {
        strategy,
        t_start,
        t_stop,
        num_sources: sys.num_sources(),
        jobs,
        gts: grouping.gts.clip(t_start, t_stop),
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::PdnBuilder;

    fn grid() -> MnaSystem {
        PdnBuilder::new(6, 6)
            .num_loads(8)
            .num_features(3)
            .window(1e-9)
            .build()
            .unwrap()
    }

    #[test]
    fn plan_covers_every_source_once() {
        let sys = grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let plan = plan_groups(&sys, &spec, GroupingStrategy::ByBumpFeature);
        let covered: usize = plan.jobs().iter().map(|j| j.members.len()).sum();
        assert_eq!(covered, sys.num_sources());
        assert_eq!(plan.order().len(), plan.num_jobs());
        assert!(plan
            .check(&sys, &spec, GroupingStrategy::ByBumpFeature)
            .is_ok());
    }

    #[test]
    fn check_rejects_mismatches() {
        let sys = grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let plan = plan_groups(&sys, &spec, GroupingStrategy::ByBumpFeature);
        assert!(plan.check(&sys, &spec, GroupingStrategy::Single).is_err());
        let other_spec = TransientSpec::new(0.0, 2e-9, 2e-11).unwrap();
        assert!(plan
            .check(&sys, &other_spec, GroupingStrategy::ByBumpFeature)
            .is_err());
        let other_sys = PdnBuilder::new(6, 6)
            .num_loads(4)
            .num_features(2)
            .window(1e-9)
            .build()
            .unwrap();
        assert!(plan
            .check(&other_sys, &spec, GroupingStrategy::ByBumpFeature)
            .is_err());
    }
}
