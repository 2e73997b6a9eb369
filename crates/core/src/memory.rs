//! Memory interference diagnosis and alleviation planning (§3.3.2).
//!
//! Given the suspect classes surfaced by outlier detection (plus newly
//! scheduled classes), this module recomputes their MRCs from the recent
//! access windows, decides which are *problem classes* (parameters changed
//! significantly, or no prior curve exists), and plans the narrowest
//! action: per-class buffer-pool quotas when everything fits at its
//! acceptable memory, otherwise re-placement of the biggest problem class.

use odlb_cluster::{InstanceId, Simulation};
use odlb_metrics::{ClassId, IntervalReport, ServerId, StableStateStore};
use odlb_mrc::{fit_quotas, MissRatioCurve, MrcMode, MrcParams, QuotaRequest};
use odlb_sim::SimTime;
use odlb_telemetry::{profile_span, SharedSpanProfiler};
use std::borrow::Cow;

/// MRC acceptability threshold (§2): acceptable memory is the smallest
/// size whose miss ratio is within this of ideal. The paper's 5%.
pub const MRC_THRESHOLD: f64 = 0.05;

/// Relative change of a class's MRC parameters against its stable record
/// that marks it a *problem class* (§3.3.2 "changed significantly"; the
/// paper gives no number).
const MRC_CHANGE_REL: f64 = 0.25;

/// Absolute deterioration of the ideal miss ratio that also marks a
/// problem class (§3.3.2; the paper gives no number).
const MRC_RATIO_SLACK: f64 = 0.10;

/// Floor on any enforced quota, in pages. A class whose MRC is flat still
/// needs room for its in-flight read-ahead extents and hot lookups;
/// granting its literal acceptable memory (possibly one page) would
/// thrash the prefetch pipeline. The paper has no floor: its Fig. 4 quota
/// is the index-less BestSeller's acceptable memory, 3,695 pages, where
/// our flatter curve lands here.
pub const MIN_QUOTA_PAGES: usize = 512;

/// Whether `fresh` MRC parameters differ from the stable `prior` enough
/// to mark a problem class (§3.3.2): the rule diagnosis applies.
pub fn mrc_changed(fresh: &MrcParams, prior: &MrcParams) -> bool {
    fresh.significantly_different_from(prior, MRC_CHANGE_REL, MRC_RATIO_SLACK)
}

/// Stable-store key for an instance (the paper's per-server context; one
/// engine per server in its testbed, so the instance is the natural key).
pub fn instance_key(instance: InstanceId) -> ServerId {
    ServerId(instance.0)
}

/// A suspect class whose MRC was just recomputed.
#[derive(Clone, Debug)]
pub struct ExaminedClass {
    /// The class.
    pub class: ClassId,
    /// The curve replayed from its access window.
    pub curve: MissRatioCurve,
    /// The curve's parameters, now the class's stable reference.
    pub params: MrcParams,
    /// Whether the parameters differ significantly from the stable record
    /// they replace.
    pub changed: bool,
    /// Whether the class is a likely memory-interference cause: it
    /// changed, or it is brand-new (a problem by default).
    pub problem: bool,
}

/// The planned alleviation.
#[derive(Clone, Debug, PartialEq)]
pub enum MemoryPlan {
    /// Everything fits: enforce quotas for the problem classes, keep
    /// placement (§3.3.2 option two).
    Quotas(Vec<(ClassId, usize)>),
    /// The instance is over-committed: re-place the biggest problem class
    /// on another replica of its application (§3.3.2 option one).
    Replace {
        /// The class to move.
        class: ClassId,
        /// Its acceptable memory need (pages), for target selection.
        needed_pages: usize,
    },
    /// No action derivable (e.g. no curves available).
    Nothing,
}

/// Recomputes MRCs for `suspects` on `instance` and marks the problem
/// classes among them. Fresh parameters are recorded into the stable
/// store (they become the new reference, as in the paper where the MRC
/// is only recomputed at diagnosis time). Returns every suspect that has
/// a window, in `suspects` order.
pub fn find_problem_classes(
    sim: &Simulation,
    instance: InstanceId,
    suspects: &[ClassId],
    stable: &mut StableStateStore,
    mrc_mode: MrcMode,
    now: SimTime,
    profiler: &Option<SharedSpanProfiler>,
) -> Vec<ExaminedClass> {
    let cap = sim.pool_pages(instance);
    let key = instance_key(instance);
    let mut examined = Vec::new();
    for &class in suspects {
        // The dominant cost of the MRC-update phase: one sub-span per
        // suspect recomputation, so flamegraphs attribute it separately
        // from the bookkeeping around it.
        let Some(curve) = profile_span(profiler, "recompute", || {
            sim.recompute_mrc_with(instance, class, cap, mrc_mode)
        }) else {
            continue;
        };
        let params = curve.params(cap, MRC_THRESHOLD);
        let prior = stable.get(key, class).and_then(|s| s.mrc);
        let changed = prior.is_some_and(|old| mrc_changed(&params, &old));
        stable.record_mrc(key, class, params, now);
        examined.push(ExaminedClass {
            class,
            curve,
            params,
            changed,
            // New class with no prior curve: problem by definition
            // ("this case includes new query classes …").
            problem: changed || prior.is_none(),
        });
    }
    examined
}

/// Plans the alleviation for one instance from what
/// [`find_problem_classes`] `examined` there: can all classes scheduled
/// there be given their acceptable memory simultaneously?
pub fn plan_memory_action(
    sim: &Simulation,
    instance: InstanceId,
    report: &IntervalReport,
    examined: &[ExaminedClass],
    mrc_mode: MrcMode,
    profiler: &Option<SharedSpanProfiler>,
) -> MemoryPlan {
    let problems: Vec<&ExaminedClass> = examined.iter().filter(|e| e.problem).collect();
    if problems.is_empty() {
        return MemoryPlan::Nothing;
    }
    let cap = sim.pool_pages(instance);
    // The curve of every class active on this instance — the fit must
    // account for "the rest of the application queries scheduled on the
    // same physical server" — replaying only the windows diagnosis has
    // not just replayed.
    let mut curves = Vec::new();
    profile_span(profiler, "recompute", || {
        for &class in report.per_class.keys() {
            let curve = match examined.iter().find(|e| e.class == class) {
                Some(e) => Some(Cow::Borrowed(&e.curve)),
                None => sim
                    .recompute_mrc_with(instance, class, cap, mrc_mode)
                    .map(Cow::Owned),
            };
            curves.extend(curve.map(|curve| (class, curve)));
        }
    });
    if curves.is_empty() {
        return MemoryPlan::Nothing;
    }
    let requests: Vec<QuotaRequest<'_>> = curves
        .iter()
        .map(|(class, curve)| {
            let params = curve.params(cap, MRC_THRESHOLD);
            QuotaRequest {
                id: class.as_u64(),
                curve,
                acceptable_pages: params.acceptable_memory_needed,
            }
        })
        .collect();

    // Keep at least one page for the general partition.
    let budget = cap.saturating_sub(1);
    match profile_span(profiler, "fit_quotas", || fit_quotas(budget, &requests)) {
        Some(assignments) => {
            let quotas = problems
                .iter()
                .filter_map(|p| {
                    assignments
                        .iter()
                        .find(|a| a.id == p.class.as_u64())
                        .map(|a| (p.class, a.pages.max(MIN_QUOTA_PAGES).min(budget)))
                })
                .filter(|(_, pages)| *pages > 0)
                .collect::<Vec<_>>();
            if quotas.is_empty() {
                MemoryPlan::Nothing
            } else {
                MemoryPlan::Quotas(quotas)
            }
        }
        None => {
            // Over-committed: move the problem class with the largest
            // acceptable need.
            let biggest = problems
                .iter()
                .max_by_key(|p| p.params.acceptable_memory_needed)
                .expect("problems non-empty");
            MemoryPlan::Replace {
                class: biggest.class,
                needed_pages: biggest.params.acceptable_memory_needed,
            }
        }
    }
}

/// Picks the replica of `class.app` (other than `exclude`) best suited to
/// host a re-placed class: the one with the largest pool that can fit
/// `needed_pages`. Returns `None` when no existing replica fits — the
/// controller then provisions a new one.
pub fn pick_replacement_target(
    sim: &Simulation,
    class: ClassId,
    needed_pages: usize,
    exclude: InstanceId,
) -> Option<InstanceId> {
    sim.replicas_of(class.app)
        .into_iter()
        .filter(|&i| i != exclude)
        .filter(|&i| sim.pool_pages(i) >= needed_pages)
        .max_by_key(|&i| (sim.pool_pages(i), std::cmp::Reverse(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_cluster::SimulationConfig;
    use odlb_engine::EngineConfig;
    use odlb_metrics::{AppId, Sla};
    use odlb_storage::DomainId;
    use odlb_workload::tpcw::{tpcw_workload, TpcwConfig};
    use odlb_workload::{ClientConfig, LoadFunction};

    fn sim_with_traffic() -> (Simulation, AppId, InstanceId, IntervalReport) {
        let mut sim = Simulation::new(SimulationConfig {
            seed: 21,
            ..Default::default()
        });
        let s = sim.add_server(4);
        let inst = sim.add_instance(s, DomainId(1), EngineConfig::default());
        let app = sim.add_app(
            tpcw_workload(TpcwConfig::default()),
            Sla::one_second(),
            ClientConfig::default(),
            LoadFunction::Constant(8),
        );
        sim.assign_replica(app, inst);
        sim.start();
        sim.run_interval();
        let outcome = sim.run_interval();
        let report = outcome.reports[&inst].clone();
        (sim, app, inst, report)
    }

    fn examine(
        sim: &Simulation,
        inst: InstanceId,
        suspects: &[ClassId],
        stable: &mut StableStateStore,
    ) -> Vec<ExaminedClass> {
        find_problem_classes(
            sim,
            inst,
            suspects,
            stable,
            MrcMode::Exact,
            sim.now(),
            &None,
        )
    }

    #[test]
    fn new_classes_are_problems_and_get_recorded() {
        let (sim, app, inst, _) = sim_with_traffic();
        let mut stable = StableStateStore::new();
        let suspects = vec![ClassId::new(app, 0), ClassId::new(app, 1)];
        let examined = examine(&sim, inst, &suspects, &mut stable);
        assert_eq!(examined.len(), 2);
        assert!(
            examined.iter().all(|e| e.problem && !e.changed),
            "no prior MRC: both are problems"
        );
        // Parameters are now the stable reference: re-running finds no
        // problems.
        let again = examine(&sim, inst, &suspects, &mut stable);
        assert_eq!(again.len(), 2);
        assert!(
            again.iter().all(|e| !e.problem),
            "unchanged curves are not problems"
        );
    }

    #[test]
    fn unknown_class_is_skipped() {
        let (sim, _, inst, _) = sim_with_traffic();
        let mut stable = StableStateStore::new();
        let ghost = ClassId::new(AppId(9), 0);
        let examined = examine(&sim, inst, &[ghost], &mut stable);
        assert!(examined.is_empty());
    }

    #[test]
    fn light_classes_fit_as_quotas() {
        let (sim, app, inst, report) = sim_with_traffic();
        // A light class (Home) with no stable record is the problem:
        // everything fits in the 8192-page pool, so the plan is a quota,
        // not a move.
        let home = [ClassId::new(app, 0)];
        let problems = examine(&sim, inst, &home, &mut StableStateStore::new());
        let plan = plan_memory_action(&sim, inst, &report, &problems, MrcMode::Exact, &None);
        match plan {
            MemoryPlan::Quotas(quotas) => {
                assert_eq!(quotas.len(), 1);
                assert_eq!(quotas[0].0, ClassId::new(app, 0));
                assert!(quotas[0].1 > 0);
            }
            other => panic!("expected quotas, got {other:?}"),
        }
    }

    #[test]
    fn empty_problem_set_plans_nothing() {
        let (sim, _, inst, report) = sim_with_traffic();
        let plan = plan_memory_action(&sim, inst, &report, &[], MrcMode::Exact, &None);
        assert_eq!(plan, MemoryPlan::Nothing);
    }

    #[test]
    fn replacement_target_prefers_fitting_pool() {
        let mut sim = Simulation::new(SimulationConfig::default());
        let s1 = sim.add_server(4);
        let s2 = sim.add_server(4);
        let s3 = sim.add_server(4);
        let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
        let small = sim.add_instance(
            s2,
            DomainId(1),
            EngineConfig {
                pool_pages: 1024,
                ..Default::default()
            },
        );
        let big = sim.add_instance(s3, DomainId(1), EngineConfig::default());
        let app = sim.add_app(
            tpcw_workload(TpcwConfig::default()),
            Sla::one_second(),
            ClientConfig::default(),
            LoadFunction::Constant(1),
        );
        for i in [i1, small, big] {
            sim.assign_replica(app, i);
        }
        let class = ClassId::new(app, 8);
        assert_eq!(
            pick_replacement_target(&sim, class, 7000, i1),
            Some(big),
            "only the 8192-page pool fits 7000 pages"
        );
        assert_eq!(
            pick_replacement_target(&sim, class, 500, i1),
            Some(big),
            "largest pool wins when several fit"
        );
        assert_eq!(
            pick_replacement_target(&sim, class, 9999, i1),
            None,
            "nothing fits"
        );
    }
}
