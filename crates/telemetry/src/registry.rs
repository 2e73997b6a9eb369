//! The metrics registry: named, labelled counters, gauges and histograms
//! with interval snapshotting.
//!
//! Ordering is deterministic everywhere (`BTreeMap` over names and
//! rendered label sets), so two same-seed runs export byte-identical
//! Prometheus and CSV artifacts. Handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are cheap `Rc` clones emission sites cache, so the hot
//! path never repeats the name lookup. Every series owns snapshot row
//! ids from registration on, whose names and CSV labels are rendered
//! then, so a [`Snapshot`] is a column of `(row id, value)` pairs.

use crate::histogram::LogLinearHistogram;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// What a metric family measures (drives the exposition `# TYPE` line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log-linear latency distribution.
    Histogram,
}

impl FamilyKind {
    /// The exposition-format type keyword.
    pub fn label(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }
}

/// A counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Sets the cumulative total from a source that already accumulates
    /// (per-domain I/O counters, pool counters). Must be monotone.
    pub fn set_total(&self, total: u64) {
        debug_assert!(total >= self.0.get(), "counter must not decrease");
        self.0.set(total.max(self.0.get()));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A gauge handle. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// A histogram handle. Cloning shares the underlying histogram.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Rc<RefCell<LogLinearHistogram>>);

impl Histogram {
    /// Records one value.
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Adds every value `other` holds (an interval's distribution folded
    /// into a cumulative series).
    pub fn merge(&self, other: &LogLinearHistogram) {
        self.0.borrow_mut().merge(other);
    }

    /// Reads through to the underlying histogram.
    pub fn with<R>(&self, f: impl FnOnce(&LogLinearHistogram) -> R) -> R {
        f(&self.0.borrow())
    }
}

/// One labelled series' shared cell.
pub(crate) enum SeriesValue {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// How a histogram row reads its value.
type RowValue = fn(&LogLinearHistogram) -> f64;

/// A histogram series' summary rows in export order: suffix and value.
const HISTOGRAM_ROWS: [(&str, RowValue); 7] = [
    ("_count", |h| h.count() as f64),
    ("_sum", |h| h.sum() as f64),
    ("_saturated", |h| h.saturated() as u64 as f64),
    ("_p50", |h| h.quantile(0.50).unwrap_or(0) as f64),
    ("_p95", |h| h.quantile(0.95).unwrap_or(0) as f64),
    ("_p99", |h| h.quantile(0.99).unwrap_or(0) as f64),
    ("_max", |h| h.max().unwrap_or(0) as f64),
];

/// One metric family: a help string, a kind, and its series keyed by
/// their rendered `key="value"` label pairs (sorted by key), each with its
/// first snapshot row id (a histogram's [`HISTOGRAM_ROWS`] follow it).
pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: FamilyKind,
    pub(crate) series: BTreeMap<String, (SeriesValue, u32)>,
}

/// What one snapshot row id stands for, rendered at registration.
pub(crate) struct RowKey {
    name: String,
    labels: String,
    /// `name,key=value;key=value,`: the CSV row up to its value.
    pub(crate) csv: String,
}

/// A point-in-time export row (also the CSV row shape).
#[derive(Clone, Debug, PartialEq)]
pub struct SampleRow {
    /// Sample name (family name plus any histogram suffix, e.g. `_p95`).
    pub name: String,
    /// Rendered label pairs (`key="value",key="value"`), possibly empty.
    pub labels: String,
    /// The value.
    pub value: f64,
}

/// One interval snapshot: every series' value at an interval boundary.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Snapshot time in simulation microseconds.
    pub at_us: u64,
    /// 0-based interval sequence number — the same value the cluster
    /// driver stamps on its `interval_closed` trace event, so every CSV
    /// row-group joins to the decision trace of the same interval.
    pub seq: u64,
    /// `(row id, value)` of every row, in export order; the registry
    /// names each id.
    pub rows: Vec<(u32, f64)>,
}

/// The registry: every metric family, the row table naming every
/// snapshot row id, and the interval snapshot log.
#[derive(Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
    pub(crate) rows: Vec<RowKey>,
    snapshots: Vec<Snapshot>,
}

/// Characters that would corrupt an exposition or alias two label sets
/// in the CSV rendering: quotes and backslashes break the Prometheus
/// quoting, newlines break line-oriented formats, and `,`/`;`/`=` are
/// the separators of both rendered forms.
const FORBIDDEN_LABEL_CHARS: [char; 6] = ['"', '\\', '\n', ',', ';', '='];

/// Renders a label set canonically, sorted by key, in both exported
/// forms: `key="value"` joined with commas (the series key and the
/// Prometheus form) and `key=value` joined with `;` (the CSV form).
///
/// Validation happens here, once, at series registration: keys must be
/// `[A-Za-z0-9_]+` and distinct, and values must not contain any
/// [`FORBIDDEN_LABEL_CHARS`]. Registering an illegal label panics
/// immediately instead of silently rewriting the value at export time —
/// a rewrite could alias two distinct label sets into one exported key
/// (e.g. `a,b` and `a;b` both becoming `a;b` in the CSV).
fn render_labels(labels: &[(&str, &str)]) -> (String, String) {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_unstable();
    if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
        panic!("metric label key {:?} appears twice", w[0].0);
    }
    for (k, v) in &pairs {
        assert!(
            !k.is_empty() && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "metric label key {k:?} must match [A-Za-z0-9_]+"
        );
        assert!(
            !v.contains(FORBIDDEN_LABEL_CHARS),
            "metric label value {v:?} contains a forbidden character \
             (one of \" \\ newline , ; =)"
        );
    }
    let prometheus: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    let csv: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    (prometheus.join(","), csv.join(";"))
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The one get-or-create: the series `labels` select in family
    /// `name`, both created on first use.
    fn series(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: FamilyKind,
    ) -> &SeriesValue {
        let (key, csv_labels) = render_labels(labels);
        let fam = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                series: BTreeMap::new(),
            });
        assert_eq!(
            fam.kind, kind,
            "metric family '{name}' registered with two kinds"
        );
        let rows = &mut self.rows;
        let (value, _) = fam.series.entry(key).or_insert_with_key(|key| {
            let row = u32::try_from(rows.len()).expect("fewer than 2^32 rows");
            let mut push = |suffix: &str| {
                let name = format!("{name}{suffix}");
                let csv = format!("{name},{csv_labels},");
                let labels = key.clone();
                rows.push(RowKey { name, labels, csv });
            };
            match kind {
                FamilyKind::Histogram => HISTOGRAM_ROWS.iter().for_each(|(s, _)| push(s)),
                _ => push(""),
            }
            let value = match kind {
                FamilyKind::Counter => SeriesValue::Counter(Counter::default()),
                FamilyKind::Gauge => SeriesValue::Gauge(Gauge::default()),
                FamilyKind::Histogram => SeriesValue::Histogram(Histogram::default()),
            };
            (value, row)
        });
        value
    }

    /// Gets or creates a counter series.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, labels, FamilyKind::Counter) {
            SeriesValue::Counter(c) => c.clone(),
            _ => unreachable!("kind checked by series()"),
        }
    }

    /// Gets or creates a gauge series.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, FamilyKind::Gauge) {
            SeriesValue::Gauge(g) => g.clone(),
            _ => unreachable!("kind checked by series()"),
        }
    }

    /// Gets or creates a histogram series.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, labels, FamilyKind::Histogram) {
            SeriesValue::Histogram(h) => h.clone(),
            _ => unreachable!("kind checked by series()"),
        }
    }

    /// Every family by name — the one series view both exports walk.
    pub(crate) fn families(&self) -> &BTreeMap<String, Family> {
        &self.families
    }

    /// Number of registered series across all families.
    pub fn series_count(&self) -> usize {
        self.families.values().map(|f| f.series.len()).sum()
    }

    /// Every row's `(row id, value)` in export order: family name, then
    /// labels, then [`HISTOGRAM_ROWS`] order.
    fn row_values(&self) -> Vec<(u32, f64)> {
        let mut rows = Vec::with_capacity(self.rows.len());
        for (value, row) in self.families.values().flat_map(|fam| fam.series.values()) {
            match value {
                SeriesValue::Counter(c) => rows.push((*row, c.get() as f64)),
                SeriesValue::Gauge(g) => rows.push((*row, g.get())),
                SeriesValue::Histogram(h) => h.with(|h| {
                    let values = HISTOGRAM_ROWS.iter().map(|(_, value)| value(h));
                    rows.extend((*row..).zip(values));
                }),
            }
        }
        rows
    }

    /// Current values of every series as deterministic export rows.
    /// Histograms expand into `_count`, `_sum`, `_saturated` (0/1 sum
    /// overflow flag), `_p50`, `_p95`, `_p99` and `_max` rows (the
    /// summary columns a time series needs; the full bucket layout only
    /// appears in the Prometheus exposition).
    pub fn sample_rows(&self) -> Vec<SampleRow> {
        let row = |(id, value): (u32, f64)| {
            let RowKey { name, labels, .. } = &self.rows[id as usize];
            let (name, labels) = (name.clone(), labels.clone());
            SampleRow {
                name,
                labels,
                value,
            }
        };
        self.row_values().into_iter().map(row).collect()
    }

    /// Records an interval snapshot of every series at `at_us`, stamped
    /// with the interval sequence number `seq` (the driver calls this
    /// once per closed measurement interval with the same `seq` it puts
    /// in the `interval_closed` trace event, so the CSV time series
    /// joins to the controller's decision points).
    pub fn snapshot(&mut self, at_us: u64, seq: u64) {
        let rows = self.row_values();
        self.snapshots.push(Snapshot { at_us, seq, rows });
    }

    /// The recorded snapshots.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("odlb_queries_total", "Queries.", &[("app", "app0")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name + labels returns the same series.
        let c2 = reg.counter("odlb_queries_total", "Queries.", &[("app", "app0")]);
        c2.inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("odlb_depth", "Depth.", &[]);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        assert_eq!(reg.series_count(), 2);
    }

    #[test]
    fn labels_are_canonically_ordered() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("c", "h", &[("b", "2"), ("a", "1")]);
        let b = reg.counter("c", "h", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "label order must not split the series");
        assert_eq!(reg.series_count(), 1);
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn kind_conflicts_are_rejected() {
        let mut reg = MetricsRegistry::new();
        reg.counter("m", "h", &[]);
        reg.gauge("m", "h", &[]);
    }

    #[test]
    fn set_total_is_monotone() {
        let c = Counter::default();
        c.set_total(10);
        c.set_total(15);
        assert_eq!(c.get(), 15);
    }

    #[test]
    fn histogram_rows_expand_summary_columns() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat_us", "Latency.", &[("class", "app0#8")]);
        for v in 1..=100 {
            h.record(v);
        }
        let rows = reg.sample_rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "lat_us_count",
                "lat_us_sum",
                "lat_us_saturated",
                "lat_us_p50",
                "lat_us_p95",
                "lat_us_p99",
                "lat_us_max"
            ]
        );
        assert_eq!(rows[0].value, 100.0);
        assert_eq!(rows[2].value, 0.0, "unsaturated flag renders 0");
        assert_eq!(rows[6].value, 100.0);
    }

    #[test]
    fn snapshots_accumulate_in_order() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("n", "h", &[]);
        c.inc();
        reg.snapshot(10_000_000, 0);
        c.inc();
        reg.snapshot(20_000_000, 1);
        let snaps = reg.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].rows[0].1, 1.0);
        assert_eq!(snaps[1].rows[0].1, 2.0);
        assert!(snaps[0].at_us < snaps[1].at_us);
        assert_eq!((snaps[0].seq, snaps[1].seq), (0, 1));
    }

    #[test]
    #[should_panic(expected = "forbidden character")]
    fn label_values_with_separators_are_rejected_at_registration() {
        let mut reg = MetricsRegistry::new();
        // Would previously be silently rewritten to `a;b` at CSV export
        // time, aliasing with a genuine `a;b` label value.
        reg.counter("c", "h", &[("app", "a,b")]);
    }

    #[test]
    #[should_panic(expected = "forbidden character")]
    fn label_values_with_quotes_are_rejected_at_registration() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("g", "h", &[("app", "a\"b")]);
    }

    #[test]
    #[should_panic(expected = "[A-Za-z0-9_]+")]
    fn label_keys_are_validated() {
        let mut reg = MetricsRegistry::new();
        reg.counter("c", "h", &[("bad key", "v")]);
    }

    #[test]
    fn histogram_merge_folds_into_the_shared_cell() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat_us", "Latency.", &[]);
        h.record(10);
        let mut interval = crate::LogLinearHistogram::default();
        interval.record(10);
        interval.record(20);
        h.merge(&interval);
        assert_eq!(h.with(|h| h.count()), 3);
        // The registry sees the merge through the shared handle.
        assert_eq!(reg.sample_rows()[0].value, 3.0);
    }
}
