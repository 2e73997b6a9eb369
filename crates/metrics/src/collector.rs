//! Per-server, per-class interval accumulation.
//!
//! One [`ClassStatsCollector`] lives beside each database engine (the
//! paper's "log analyzer, one per database system"). The engine forwards
//! flushed [`QueryLogRecord`] batches; at the end of each measurement
//! interval the decision manager closes the interval and receives an
//! [`IntervalReport`] — a per-class [`MetricVector`] of interval averages
//! and rates, exactly the operand of outlier detection.
//!
//! Besides the averages, each class's latency distribution is kept in a
//! mergeable [`LogLinearHistogram`] (O(1) record, no retained samples,
//! rank error below 0.8% at the default grouping power), so interval
//! reports carry each class's tail — and feed the telemetry series —
//! without the hot path ever holding per-query samples.

use crate::ids::ClassId;
use crate::kinds::{MetricKind, MetricVector};
use crate::logbuf::QueryLogRecord;
use odlb_sim::{SimDuration, SimTime};
use odlb_telemetry::LogLinearHistogram;
use std::collections::BTreeMap;

#[derive(Clone, Debug, Default)]
struct ClassAccumulator {
    queries: u64,
    latency_sum: SimDuration,
    latency_hist: LogLinearHistogram,
    page_accesses: u64,
    buffer_misses: u64,
    io_requests: u64,
    readaheads: u64,
    lock_wait_sum: SimDuration,
}

/// Accumulates per-class statistics within the current measurement
/// interval.
#[derive(Clone, Debug)]
pub struct ClassStatsCollector {
    interval_start: SimTime,
    per_class: BTreeMap<ClassId, ClassAccumulator>,
}

/// The closed interval's per-class metric vectors.
#[derive(Clone, Debug)]
pub struct IntervalReport {
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval.
    pub end: SimTime,
    /// Interval metrics per class observed during the interval, ordered
    /// by class for deterministic aggregation.
    pub per_class: BTreeMap<ClassId, MetricVector>,
    /// Latency distribution (simulated microseconds) per class for this
    /// interval. Same key set as `per_class`; histograms merge across
    /// classes and replicas for application-level tails.
    pub latency_histograms: BTreeMap<ClassId, LogLinearHistogram>,
}

impl IntervalReport {
    /// Mean latency (seconds) across all queries of `app`'s classes,
    /// weighted by per-class query counts — the SLA operand.
    pub fn app_mean_latency(&self, app: crate::ids::AppId) -> Option<f64> {
        let mut lat_weighted = 0.0;
        let mut queries = 0.0;
        for (class, v) in &self.per_class {
            if class.app == app {
                let tput = v[MetricKind::Throughput];
                let duration = self.end.since(self.start).as_secs_f64();
                let n = tput * duration;
                lat_weighted += v[MetricKind::Latency] * n;
                queries += n;
            }
        }
        if queries < 1e-9 {
            None
        } else {
            Some(lat_weighted / queries)
        }
    }

    /// Total throughput (queries/s) across all of `app`'s classes.
    pub fn app_throughput(&self, app: crate::ids::AppId) -> f64 {
        self.per_class
            .iter()
            .filter(|(c, _)| c.app == app)
            .map(|(_, v)| v[MetricKind::Throughput])
            .sum()
    }
}

impl ClassStatsCollector {
    /// Creates a collector whose first interval opens at `start`.
    pub fn new(start: SimTime) -> Self {
        ClassStatsCollector {
            interval_start: start,
            per_class: BTreeMap::new(),
        }
    }

    /// Ingests one completed-query record.
    pub fn record(&mut self, r: &QueryLogRecord) {
        let acc = self.per_class.entry(r.class).or_default();
        acc.queries += 1;
        acc.latency_sum += r.latency;
        acc.latency_hist.record(r.latency.as_micros());
        acc.page_accesses += r.page_accesses;
        acc.buffer_misses += r.buffer_misses;
        acc.io_requests += r.io_requests;
        acc.readaheads += r.readaheads;
        acc.lock_wait_sum += r.lock_wait;
    }

    /// Ingests a flushed batch.
    pub fn record_batch(&mut self, batch: &[QueryLogRecord]) {
        for r in batch {
            self.record(r);
        }
    }

    /// Number of queries observed for `class` in the open interval.
    pub fn queries_for(&self, class: ClassId) -> u64 {
        self.per_class.get(&class).map_or(0, |a| a.queries)
    }

    /// Closes the interval at `now`, returning per-class averages/rates
    /// and opening a fresh interval.
    pub fn close_interval(&mut self, now: SimTime) -> IntervalReport {
        let start = self.interval_start;
        let duration = now.since(start).as_secs_f64().max(1e-9);
        let mut per_class = BTreeMap::new();
        let mut latency_histograms = BTreeMap::new();
        for (class, acc) in std::mem::take(&mut self.per_class) {
            if acc.queries == 0 {
                continue;
            }
            let mut v = MetricVector::ZERO;
            v[MetricKind::Latency] = acc.latency_sum.as_secs_f64() / acc.queries as f64;
            v[MetricKind::Throughput] = acc.queries as f64 / duration;
            v[MetricKind::BufferMisses] = acc.buffer_misses as f64;
            v[MetricKind::PageAccesses] = acc.page_accesses as f64;
            v[MetricKind::IoRequests] = acc.io_requests as f64;
            v[MetricKind::ReadAheads] = acc.readaheads as f64;
            v[MetricKind::LockWaits] = acc.lock_wait_sum.as_secs_f64();
            per_class.insert(class, v);
            latency_histograms.insert(class, acc.latency_hist);
        }
        self.interval_start = now;
        IntervalReport {
            start,
            end: now,
            per_class,
            latency_histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AppId;

    fn rec(app: u32, template: u32, latency_ms: u64, accesses: u64, misses: u64) -> QueryLogRecord {
        QueryLogRecord {
            class: ClassId::new(AppId(app), template),
            completed_at: SimTime::from_secs(5),
            latency: SimDuration::from_millis(latency_ms),
            page_accesses: accesses,
            buffer_misses: misses,
            io_requests: misses,
            readaheads: 0,
            lock_wait: SimDuration::ZERO,
        }
    }

    #[test]
    fn interval_averages_and_rates() {
        let mut c = ClassStatsCollector::new(SimTime::ZERO);
        c.record(&rec(0, 1, 100, 10, 2));
        c.record(&rec(0, 1, 300, 30, 4));
        let report = c.close_interval(SimTime::from_secs(10));
        let v = report.per_class[&ClassId::new(AppId(0), 1)];
        assert!(
            (v[MetricKind::Latency] - 0.2).abs() < 1e-9,
            "mean of 0.1/0.3"
        );
        assert!((v[MetricKind::Throughput] - 0.2).abs() < 1e-9, "2 in 10s");
        assert_eq!(v[MetricKind::PageAccesses], 40.0);
        assert_eq!(v[MetricKind::BufferMisses], 6.0);
    }

    #[test]
    fn closing_resets_for_next_interval() {
        let mut c = ClassStatsCollector::new(SimTime::ZERO);
        c.record(&rec(0, 1, 100, 1, 0));
        c.close_interval(SimTime::from_secs(10));
        let empty = c.close_interval(SimTime::from_secs(20));
        assert!(empty.per_class.is_empty());
        assert_eq!(empty.start, SimTime::from_secs(10));
        assert_eq!(empty.end, SimTime::from_secs(20));
    }

    #[test]
    fn classes_are_separate() {
        let mut c = ClassStatsCollector::new(SimTime::ZERO);
        c.record(&rec(0, 1, 100, 1, 0));
        c.record(&rec(0, 2, 500, 9, 3));
        c.record(&rec(1, 1, 900, 5, 5));
        let report = c.close_interval(SimTime::from_secs(1));
        assert_eq!(report.per_class.len(), 3);
        assert_eq!(
            report.per_class.keys().copied().collect::<Vec<_>>(),
            vec![
                ClassId::new(AppId(0), 1),
                ClassId::new(AppId(0), 2),
                ClassId::new(AppId(1), 1)
            ]
        );
    }

    #[test]
    fn app_mean_latency_weights_by_query_count() {
        let mut c = ClassStatsCollector::new(SimTime::ZERO);
        // Class 1: 3 queries at 100ms. Class 2: 1 query at 500ms.
        for _ in 0..3 {
            c.record(&rec(0, 1, 100, 1, 0));
        }
        c.record(&rec(0, 2, 500, 1, 0));
        let report = c.close_interval(SimTime::from_secs(10));
        let mean = report.app_mean_latency(AppId(0)).unwrap();
        assert!(
            (mean - 0.2).abs() < 1e-9,
            "(3*0.1 + 0.5)/4 = 0.2, got {mean}"
        );
        assert!(report.app_mean_latency(AppId(9)).is_none());
    }

    #[test]
    fn app_throughput_sums_classes() {
        let mut c = ClassStatsCollector::new(SimTime::ZERO);
        c.record(&rec(0, 1, 100, 1, 0));
        c.record(&rec(0, 2, 100, 1, 0));
        c.record(&rec(1, 1, 100, 1, 0));
        let report = c.close_interval(SimTime::from_secs(1));
        assert!((report.app_throughput(AppId(0)) - 2.0).abs() < 1e-9);
        assert!((report.app_throughput(AppId(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interval_latency_quantiles_come_from_histograms() {
        let mut c = ClassStatsCollector::new(SimTime::ZERO);
        // 99 fast queries and one slow one: the mean hides the tail,
        // the histogram quantiles expose it.
        for _ in 0..99 {
            c.record(&rec(0, 1, 10, 1, 0));
        }
        c.record(&rec(0, 1, 2_000, 1, 0));
        let report = c.close_interval(SimTime::from_secs(10));
        let class = ClassId::new(AppId(0), 1);
        let hist = &report.latency_histograms[&class];
        let p50 = hist.quantile(0.5).unwrap();
        let p995 = hist.quantile(0.995).unwrap();
        // 10ms = 10_000µs, 2s = 2_000_000µs; estimates are within the
        // histogram's 0.8% relative error.
        assert!((9_900..=10_100).contains(&p50), "p50 = {p50}");
        assert!(p995 >= 1_980_000, "p995 = {p995}");
        assert!(
            !report
                .latency_histograms
                .contains_key(&ClassId::new(AppId(9), 0)),
            "unseen class has no distribution"
        );
    }

    #[test]
    fn closed_interval_histograms_reset_like_the_vectors() {
        let mut c = ClassStatsCollector::new(SimTime::ZERO);
        c.record(&rec(0, 1, 100, 1, 0));
        let first = c.close_interval(SimTime::from_secs(10));
        assert_eq!(first.latency_histograms.len(), 1);
        let empty = c.close_interval(SimTime::from_secs(20));
        assert!(empty.latency_histograms.is_empty());
    }

    #[test]
    fn batch_recording() {
        let mut c = ClassStatsCollector::new(SimTime::ZERO);
        let batch = vec![rec(0, 1, 100, 1, 0), rec(0, 1, 100, 1, 0)];
        c.record_batch(&batch);
        assert_eq!(c.queries_for(ClassId::new(AppId(0), 1)), 2);
    }
}
