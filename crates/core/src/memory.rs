//! Memory interference diagnosis and alleviation planning (§3.3.2).
//!
//! Given the suspect classes surfaced by outlier detection (plus newly
//! scheduled classes), this module recomputes their MRCs from the recent
//! access windows, decides which are *problem classes* (parameters changed
//! significantly, or no prior curve exists), and plans the narrowest
//! action: per-class buffer-pool quotas when everything fits at its
//! acceptable memory, otherwise re-placement of the biggest problem class.

use odlb_cluster::{InstanceId, Simulation};
use odlb_metrics::{ClassId, IntervalReport, MetricKind, ServerId, StableStateStore};
use odlb_mrc::{MrcMode, MrcParams};
use odlb_telemetry::{profile_span, SharedSpanProfiler};

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
/// to mark a problem class (§3.3.2), the rule diagnosis applies: the
/// acceptable memory moved by more than `MRC_CHANGE_REL` in either
/// direction (a localized plan change, e.g. a dropped index, can reshape
/// the curve without growing it), the total memory need grew by more than
/// that share, or the ideal miss ratio deteriorated by more than
/// `MRC_RATIO_SLACK`.
pub fn mrc_changed(fresh: &MrcParams, prior: &MrcParams) -> bool {
    let acceptable = fresh.acceptable_memory_needed as f64;
    let stable_acceptable = prior.acceptable_memory_needed as f64;
    let acceptable_moved =
        (acceptable - stable_acceptable).abs() > stable_acceptable.max(1.0) * MRC_CHANGE_REL;
    let need_grew = fresh.total_memory_needed as f64
        > prior.total_memory_needed as f64 * (1.0 + MRC_CHANGE_REL);
    let ratio_worse = fresh.ideal_miss_ratio > prior.ideal_miss_ratio + MRC_RATIO_SLACK;
    acceptable_moved || need_grew || ratio_worse
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
    /// The parameters of the curve replayed from its access window, now
    /// the class's stable reference.
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
    profiler: &Option<SharedSpanProfiler>,
) -> Vec<ExaminedClass> {
    let key = instance_key(instance);
    let mut examined = Vec::new();
    for &class in suspects {
        // The dominant cost of the MRC-update phase: one sub-span per
        // suspect recomputation, so flamegraphs attribute it separately
        // from the bookkeeping around it.
        let Some(curve) = profile_span(profiler, "recompute", || {
            sim.recompute_mrc_with(instance, class, mrc_mode)
        }) else {
            continue;
        };
        let params = curve.params(MRC_THRESHOLD);
        let prior = stable.get(key, class).and_then(|s| s.mrc);
        let changed = prior.is_some_and(|old| mrc_changed(&params, &old));
        stable.record_mrc(key, class, params);
        examined.push(ExaminedClass {
            class,
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
    // Keep at least one page for the general partition.
    let budget = sim.pool_pages(instance).saturating_sub(1);
    // The acceptable memory of every class active on this instance — the
    // fit must account for "the rest of the application queries scheduled
    // on the same physical server" — replaying only the windows diagnosis
    // has not just replayed, and only until the fit has failed.
    let active = report
        .per_class
        .iter()
        .map(|(&class, v)| (class, v[MetricKind::PageAccesses]));
    let demands = profile_span(profiler, "recompute", || {
        demands_until_overflow(active, examined, budget, |class| {
            sim.recompute_mrc_with(instance, class, mrc_mode)
                .map(|curve| curve.params(MRC_THRESHOLD).acceptable_memory_needed)
        })
    });
    if demands.is_empty() {
        return MemoryPlan::Nothing;
    }
    let fits = profile_span(profiler, "fit_quotas", || quotas_fit(&demands, budget));
    plan_from(&problems, &demands, fits, budget)
}

/// The `(class, acceptable pages)` demands of the `active` classes
/// (each with its page accesses this interval) that the fit needs. The
/// `examined` ones cost nothing and are summed first; the others are
/// replayed through `replay` busiest first, ties by class, until the sum
/// exceeds `budget`. Past that point the fit has failed and no further
/// demand can change the plan, so nothing more is replayed. When
/// everything fits, every active class with a window is included.
fn demands_until_overflow(
    active: impl Iterator<Item = (ClassId, f64)>,
    examined: &[ExaminedClass],
    budget: usize,
    mut replay: impl FnMut(ClassId) -> Option<usize>,
) -> Vec<(ClassId, usize)> {
    let mut demands = Vec::new();
    let mut others = Vec::new();
    for (class, accesses) in active {
        match examined.iter().find(|e| e.class == class) {
            Some(e) => demands.push((class, e.params.acceptable_memory_needed)),
            None => others.push((class, accesses)),
        }
    }
    others.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut sum: usize = demands.iter().map(|&(_, pages)| pages).sum();
    for (class, _) in others {
        if sum > budget {
            break;
        }
        if let Some(pages) = replay(class) {
            sum += pages;
            demands.push((class, pages));
        }
    }
    demands
}

/// The plan once the fit is known: quotas for the `problems` when the
/// `demands` `fit`, else the re-placement of the problem class with the
/// largest acceptable need.
fn plan_from(
    problems: &[&ExaminedClass],
    demands: &[(ClassId, usize)],
    fits: bool,
    budget: usize,
) -> MemoryPlan {
    if !fits {
        let biggest = problems
            .iter()
            .max_by_key(|p| p.params.acceptable_memory_needed)
            .expect("problems non-empty");
        return MemoryPlan::Replace {
            class: biggest.class,
            needed_pages: biggest.params.acceptable_memory_needed,
        };
    }
    let quotas: Vec<(ClassId, usize)> = problems
        .iter()
        .filter_map(|p| demands.iter().find(|(class, _)| *class == p.class))
        .map(|&(class, pages)| (class, pages.max(MIN_QUOTA_PAGES).min(budget)))
        .filter(|(_, pages)| *pages > 0)
        .collect();
    if quotas.is_empty() {
        MemoryPlan::Nothing
    } else {
        MemoryPlan::Quotas(quotas)
    }
}

/// The §3.3.2 feasibility rule: every class on the instance can have its
/// acceptable memory at once when the demands sum to at most `budget`.
fn quotas_fit(demands: &[(ClassId, usize)], budget: usize) -> bool {
    demands.iter().map(|&(_, pages)| pages).sum::<usize>() <= budget
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
        find_problem_classes(sim, inst, suspects, stable, MrcMode::Exact, &None)
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
                // The grant is the class's acceptable memory, floored.
                let acceptable = problems[0].params.acceptable_memory_needed;
                assert_eq!(quotas[0].1, acceptable.max(MIN_QUOTA_PAGES));
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

    const A: ClassId = ClassId::new(AppId(0), 1);
    const B: ClassId = ClassId::new(AppId(0), 2);

    #[test]
    fn fit_succeeds_when_demands_fit() {
        assert!(quotas_fit(&[(A, 100), (B, 200)], 8191), "300 pages fit");
    }

    #[test]
    fn fit_fails_when_oversubscribed() {
        // The paper's Table 2 situation: BestSeller needs 6,982 pages,
        // SearchItemsByRegion 7,906 — they cannot share 8,191.
        assert!(!quotas_fit(&[(A, 6982), (B, 7906)], 8191));
    }

    #[test]
    fn fit_exact_boundary() {
        assert!(
            quotas_fit(&[(A, 4096), (B, 4096)], 8192),
            "exactly full is feasible"
        );
    }

    /// Over random demand sets, stopping the replays once the sum has
    /// passed the budget plans what replaying every class plans, and
    /// nothing is replayed past that point.
    #[test]
    fn early_exit_plans_what_replaying_every_class_plans() {
        let mut rng = odlb_sim::SimRng::new(39);
        for case in 0..2_000 {
            let budget = rng.range(0, 9_000) as usize;
            let mut examined = Vec::new();
            let mut windows = Vec::new();
            let mut active = Vec::new();
            for i in 0..rng.range(1, 12) as u32 {
                let class = ClassId::new(AppId(i % 2), i);
                let pages = rng.range(0, 4_000) as usize;
                if rng.chance(0.3) {
                    let params = MrcParams {
                        total_memory_needed: pages,
                        ideal_miss_ratio: 0.0,
                        acceptable_memory_needed: pages,
                        acceptable_miss_ratio: 0.0,
                    };
                    let problem = rng.chance(0.7);
                    examined.push(ExaminedClass {
                        class,
                        params,
                        changed: problem,
                        problem,
                    });
                } else {
                    windows.push((class, rng.chance(0.9).then_some(pages)));
                }
                // Few distinct access counts, so ties are common.
                active.push((class, rng.range(0, 8) as f64));
            }
            let window = |class| windows.iter().find(|w| w.0 == class).and_then(|w| w.1);
            let every =
                demands_until_overflow(active.iter().copied(), &examined, usize::MAX, window);
            let mut sum: usize = examined
                .iter()
                .map(|e| e.params.acceptable_memory_needed)
                .sum();
            let early =
                demands_until_overflow(active.iter().copied(), &examined, budget, |class| {
                    assert!(
                        sum <= budget,
                        "case {case}: {class:?} replayed after the fit failed"
                    );
                    let pages = window(class);
                    sum += pages.unwrap_or(0);
                    pages
                });
            let problems: Vec<&ExaminedClass> = examined.iter().filter(|e| e.problem).collect();
            if problems.is_empty() || every.is_empty() {
                assert_eq!(early.is_empty(), every.is_empty(), "case {case}");
                continue;
            }
            let plan =
                |d: &[(ClassId, usize)]| plan_from(&problems, d, quotas_fit(d, budget), budget);
            assert_eq!(plan(&early), plan(&every), "case {case}");
        }
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

    #[test]
    fn significant_change_detection() {
        let stable = MrcParams {
            total_memory_needed: 1000,
            ideal_miss_ratio: 0.01,
            acceptable_memory_needed: 800,
            acceptable_miss_ratio: 0.03,
        };
        let grown = MrcParams {
            total_memory_needed: 2000,
            ..stable
        };
        let same = MrcParams {
            total_memory_needed: 1100,
            ..stable
        };
        let worse_ratio = MrcParams {
            ideal_miss_ratio: 0.2,
            ..stable
        };
        assert!(mrc_changed(&grown, &stable), "need 2,000 > 1,250");
        assert!(
            !mrc_changed(&same, &stable),
            "need 1,100 < 1,250, acceptable unmoved"
        );
        assert!(mrc_changed(&worse_ratio, &stable), "ideal 0.2 > 0.11");
    }

    #[test]
    fn significant_difference_sees_shrinkage_too() {
        // The index-drop case: the curve flattens, so acceptable memory
        // *shrinks* sharply — still a significant (plan) change.
        let stable = MrcParams {
            total_memory_needed: 8000,
            ideal_miss_ratio: 0.01,
            acceptable_memory_needed: 6982,
            acceptable_miss_ratio: 0.03,
        };
        let flattened = MrcParams {
            total_memory_needed: 4100,
            ideal_miss_ratio: 0.02,
            acceptable_memory_needed: 3695,
            acceptable_miss_ratio: 0.05,
        };
        let same = MrcParams {
            acceptable_memory_needed: 7100,
            ..stable
        };
        assert!(mrc_changed(&flattened, &stable));
        assert!(!mrc_changed(&same, &stable));
        // Growth is also a difference.
        let grown = MrcParams {
            total_memory_needed: 12_000,
            acceptable_memory_needed: 11_000,
            ..stable
        };
        assert!(mrc_changed(&grown, &stable));
    }
}
