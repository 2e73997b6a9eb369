//! Hierarchical interval aggregation: instance → rack → cluster.
//!
//! The flat interval close re-walked every instance's per-class report
//! once *per application* (`O(apps × instances × classes)` per
//! interval), which dominates the close path once the cluster reaches
//! 100+ replicas. The aggregator instead makes **one** pass over each
//! instance report, bucketing class rows by application into per-rack
//! partial sums, then folds the rack partials into the cluster view —
//! `O(instances × classes + racks × apps)`.
//!
//! Floating-point care: within one instance, an application's classes
//! form an ascending subsequence of the `per_class` B-tree walk, so the
//! per-app accumulation here adds the same values in the same order as
//! [`IntervalReport::app_mean_latency`] / `app_throughput` did. With a
//! single rack (`rack_size == 0`, the default) the rack partial *is* the
//! historical flat sum, bit for bit — golden trace digests are
//! unchanged. Multi-rack layouts regroup the instance sums per rack,
//! which can shift the last ulp; that is the large-cluster regime
//! (`fig-scale`) where no golden digests apply.

use crate::topology::InstanceId;
use odlb_metrics::{AppId, IntervalReport, MetricKind};
use std::collections::BTreeMap;

/// Per-application partial sums over one rack — or, after
/// [`combine_racks`], over the whole cluster.
#[derive(Clone, Debug, Default)]
pub struct AppAggregate {
    /// Σ (instance mean latency × instance throughput).
    pub lat_weight: f64,
    /// Σ instance throughput — the weight behind the mean.
    pub weight: f64,
    /// Σ instance throughput (queries/s).
    pub tput: f64,
}

impl AppAggregate {
    /// Throughput-weighted mean latency (seconds), `None` when the app
    /// saw no load — the SLA operand.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.weight > 1e-12 {
            Some(self.lat_weight / self.weight)
        } else {
            None
        }
    }

    fn absorb(&mut self, other: AppAggregate) {
        self.lat_weight += other.lat_weight;
        self.weight += other.weight;
        self.tput += other.tput;
    }
}

/// One rack's partial aggregation over its instances' interval reports.
#[derive(Clone, Debug, Default)]
pub struct RackAggregate {
    /// Rack index ([`rack_of`]).
    pub rack: usize,
    /// Instances folded into this partial.
    pub instances: usize,
    /// Per-application partial sums.
    pub per_app: BTreeMap<AppId, AppAggregate>,
}

/// The rack an instance belongs to. `rack_size == 0` means one
/// cluster-wide rack (the flat layout).
pub fn rack_of(instance: InstanceId, rack_size: usize) -> usize {
    (instance.0 as usize).checked_div(rack_size).unwrap_or(0)
}

/// First aggregation level: folds each instance report into its rack's
/// partial. Reports arrive keyed by instance id (ascending), so rack
/// ids are non-decreasing and each rack's instances fold in id order —
/// the same order the flat pass visited them.
pub fn aggregate_racks(
    reports: &BTreeMap<InstanceId, IntervalReport>,
    rack_size: usize,
) -> Vec<RackAggregate> {
    let mut racks: Vec<RackAggregate> = Vec::new();
    for (&instance, report) in reports {
        let rack = rack_of(instance, rack_size);
        if racks.last().is_none_or(|r| r.rack != rack) {
            racks.push(RackAggregate {
                rack,
                ..RackAggregate::default()
            });
        }
        let partial = racks.last_mut().expect("rack just ensured");
        partial.instances += 1;
        absorb_report(partial, report);
    }
    racks
}

/// Folds one instance report into a rack partial in a single pass over
/// its per-class rows.
fn absorb_report(rack: &mut RackAggregate, report: &IntervalReport) {
    let duration = report.end.since(report.start).as_secs_f64();
    // (lat_weighted, queries, tput) per app, accumulated in the class
    // walk order `app_mean_latency` used.
    let mut per_app: BTreeMap<AppId, (f64, f64, f64)> = BTreeMap::new();
    for (class, v) in &report.per_class {
        let e = per_app.entry(class.app).or_default();
        let tput = v[MetricKind::Throughput];
        let n = tput * duration;
        e.0 += v[MetricKind::Latency] * n;
        e.1 += n;
        e.2 += tput;
    }
    for (app, (lat_weighted, queries, tput)) in per_app {
        // Mirrors `app_mean_latency` returning `None`: an instance that
        // saw (effectively) no queries of this app contributes nothing,
        // not a zero-weight term.
        if queries < 1e-9 {
            continue;
        }
        let mean = lat_weighted / queries;
        let agg = rack.per_app.entry(app).or_default();
        agg.lat_weight += mean * tput;
        agg.weight += tput;
        agg.tput += tput;
    }
}

/// Second aggregation level: folds rack partials (in rack order) into
/// the cluster view. With one rack this moves the partial through
/// unchanged.
pub fn combine_racks(racks: Vec<RackAggregate>) -> BTreeMap<AppId, AppAggregate> {
    let mut cluster: BTreeMap<AppId, AppAggregate> = BTreeMap::new();
    for rack in racks {
        for (app, partial) in rack.per_app {
            match cluster.entry(app) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(partial);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().absorb(partial);
                }
            }
        }
    }
    cluster
}

/// Convenience: both levels at once.
pub fn aggregate_cluster(
    reports: &BTreeMap<InstanceId, IntervalReport>,
    rack_size: usize,
) -> BTreeMap<AppId, AppAggregate> {
    combine_racks(aggregate_racks(reports, rack_size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_metrics::{ClassId, MetricVector};
    use odlb_sim::SimTime;

    fn report(start_s: u64, end_s: u64, rows: &[(AppId, u32, f64, f64)]) -> IntervalReport {
        // rows: (app, template, latency_s, throughput_qps)
        let mut per_class = BTreeMap::new();
        for &(app, template, lat, tput) in rows {
            let class = ClassId::new(app, template);
            let mut v = MetricVector::ZERO;
            v[MetricKind::Latency] = lat;
            v[MetricKind::Throughput] = tput;
            per_class.insert(class, v);
        }
        IntervalReport {
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(end_s),
            per_class,
            latency_histograms: BTreeMap::new(),
        }
    }

    fn sample_reports() -> BTreeMap<InstanceId, IntervalReport> {
        let a = AppId(0);
        let b = AppId(1);
        let mut reports = BTreeMap::new();
        reports.insert(
            InstanceId(0),
            report(
                0,
                10,
                &[(a, 0, 0.010, 3.0), (a, 1, 0.200, 0.5), (b, 0, 0.050, 1.0)],
            ),
        );
        reports.insert(
            InstanceId(1),
            report(0, 10, &[(a, 0, 0.020, 2.0), (b, 0, 0.040, 4.0)]),
        );
        reports.insert(InstanceId(2), report(0, 10, &[(a, 1, 0.300, 0.25)]));
        reports.insert(InstanceId(3), report(0, 10, &[(b, 0, 0.060, 2.0)]));
        reports
    }

    /// Single-rack aggregation reproduces the flat per-app pass over
    /// `app_mean_latency`/`app_throughput` **bit for bit**.
    #[test]
    fn single_rack_matches_flat_pass_exactly() {
        let reports = sample_reports();
        let cluster = aggregate_cluster(&reports, 0);
        for app in [AppId(0), AppId(1), AppId(7)] {
            let mut lat_weight = 0.0;
            let mut weight = 0.0;
            let mut tput = 0.0;
            for report in reports.values() {
                if let Some(mean) = report.app_mean_latency(app) {
                    let t = report.app_throughput(app);
                    lat_weight += mean * t;
                    weight += t;
                    tput += t;
                }
            }
            let flat_mean = if weight > 1e-12 {
                Some(lat_weight / weight)
            } else {
                None
            };
            let agg = cluster.get(&app).cloned().unwrap_or_default();
            assert_eq!(agg.lat_weight.to_bits(), lat_weight.to_bits(), "{app:?}");
            assert_eq!(agg.weight.to_bits(), weight.to_bits(), "{app:?}");
            assert_eq!(agg.tput.to_bits(), tput.to_bits(), "{app:?}");
            assert_eq!(
                agg.mean_latency().map(f64::to_bits),
                flat_mean.map(f64::to_bits),
                "{app:?}"
            );
        }
    }

    /// Racked aggregation regroups the same sums: equal to the flat
    /// answer within floating-point regrouping tolerance.
    #[test]
    fn racked_matches_flat_within_regrouping_tolerance() {
        let reports = sample_reports();
        let flat = aggregate_cluster(&reports, 0);
        for rack_size in [1, 2, 3] {
            let racks = aggregate_racks(&reports, rack_size);
            assert_eq!(racks.iter().map(|r| r.instances).sum::<usize>(), 4);
            let racked = combine_racks(racks);
            assert_eq!(racked.len(), flat.len(), "rack_size {rack_size}");
            for (app, f) in &flat {
                let r = &racked[app];
                assert!((r.tput - f.tput).abs() <= 1e-12 * f.tput.abs().max(1.0));
                let (rm, fm) = (r.mean_latency().unwrap(), f.mean_latency().unwrap());
                assert!((rm - fm).abs() <= 1e-12 * fm.abs().max(1.0));
            }
        }
    }

    #[test]
    fn rack_of_partitions_by_size() {
        assert_eq!(rack_of(InstanceId(42), 0), 0);
        assert_eq!(rack_of(InstanceId(0), 4), 0);
        assert_eq!(rack_of(InstanceId(3), 4), 0);
        assert_eq!(rack_of(InstanceId(4), 4), 1);
        assert_eq!(rack_of(InstanceId(11), 4), 2);
    }

    /// An instance whose report contains an app row with ~zero queries
    /// contributes nothing for that app — the `app_mean_latency == None`
    /// semantics of the flat pass.
    #[test]
    fn zero_query_instances_are_skipped_like_the_flat_pass() {
        let a = AppId(0);
        let mut reports = BTreeMap::new();
        reports.insert(InstanceId(0), report(0, 10, &[(a, 0, 0.5, 0.0)]));
        let agg = aggregate_cluster(&reports, 0)
            .remove(&a)
            .unwrap_or_default();
        assert_eq!(agg.mean_latency(), None);
        assert_eq!(agg.tput, 0.0);
    }
}
