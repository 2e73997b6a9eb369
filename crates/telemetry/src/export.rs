//! Exposition formats: Prometheus text exposition for the final snapshot,
//! CSV for the per-interval time series — plus the validators the CI
//! smoke check and the `promcheck` binary run against real output.
//!
//! Both renderers iterate `BTreeMap`s and format integers wherever the
//! source value is an integer, so output is byte-identical across
//! same-seed runs and platforms.

use crate::registry::{MetricsRegistry, SeriesValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Appends a float for exposition to `out`: integers without a
/// fraction, others through the shortest round-trip `Display`
/// (deterministic per bit pattern). Non-finite values clamp to 0 so
/// every sample stays parseable.
fn render_value(out: &mut String, v: f64) {
    let _ = if !v.is_finite() {
        write!(out, "0")
    } else if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        // odlb-lint: allow(D03) — this IS the shared exposition formatter; shortest-roundtrip Display is deterministic per bit pattern
        write!(out, "{v}")
    };
}

/// Renders the registry's current state in the Prometheus text exposition
/// format (version 0.0.4): `# HELP` and `# TYPE` per family, histograms
/// as cumulative `_bucket{le=...}` series plus `_sum`, `_count` and the
/// `_saturated` overflow flag (0/1).
pub fn render_prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, fam) in registry.families() {
        let _ = writeln!(out, "# HELP {name} {}", fam.help);
        let _ = writeln!(out, "# TYPE {name} {}", fam.kind.label());
        for (labels, (value, _)) in &fam.series {
            // `{labels}` is `{l}{labels}{r}`; a bucket's `{labels,le=..}`
            // joins them with `sep`.
            let (l, r, sep) = if labels.is_empty() {
                ("", "", "")
            } else {
                ("{", "}", ",")
            };
            match value {
                SeriesValue::Counter(c) => {
                    let _ = writeln!(out, "{name}{l}{labels}{r} {}", c.get());
                }
                SeriesValue::Gauge(g) => {
                    let _ = write!(out, "{name}{l}{labels}{r} ");
                    render_value(&mut out, g.get());
                    out.push('\n');
                }
                SeriesValue::Histogram(h) => h.with(|h| {
                    for (le, cum) in h.cumulative_buckets() {
                        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
                    }
                    let (count, sum, saturated) = (h.count(), h.sum(), h.saturated() as u64);
                    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {count}");
                    let _ = writeln!(out, "{name}_sum{l}{labels}{r} {sum}");
                    let _ = writeln!(out, "{name}_count{l}{labels}{r} {count}");
                    // 1 once the sum has overflowed u64 (the `_sum` above
                    // is pinned at the ceiling and the mean is floored) —
                    // always emitted so dashboards can alert on it.
                    let _ = writeln!(out, "{name}_saturated{l}{labels}{r} {saturated}");
                }),
            }
        }
    }
    out
}

/// Renders the interval snapshots as a long-format CSV time series:
/// `time_s,seq,metric,labels,value`. `seq` is the 0-based interval
/// sequence number, identical to the `seq` of the `interval_closed`
/// trace event of the same interval — join the two streams on it.
/// Labels are `key=value` pairs joined with `;`. Each row is the
/// snapshot's `time_s,seq,` prefix, its id's registered `metric,labels,`
/// and the value, written in place.
pub fn render_csv(registry: &MetricsRegistry) -> String {
    let mut out = String::from("time_s,seq,metric,labels,value\n");
    for snap in registry.snapshots() {
        let time_s = snap.at_us as f64 / 1e6;
        let prefix = format!("{:.6},{},", time_s, snap.seq);
        for &(id, value) in &snap.rows {
            out.push_str(&prefix);
            out.push_str(&registry.rows[id as usize].csv);
            render_value(&mut out, value);
            out.push('\n');
        }
    }
    out
}

/// Summary statistics from a successful validation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExpositionStats {
    /// `# TYPE` families seen.
    pub families: usize,
    /// Sample lines seen.
    pub samples: usize,
    /// Histogram series fully checked (bucket monotonicity, count match).
    pub histograms: usize,
}

/// Splits `name{labels} value` / `name value` into parts.
fn split_sample(line: &str) -> Option<(&str, &str, &str)> {
    if let Some(open) = line.find('{') {
        let close = line.rfind('}')?;
        let value = line.get(close + 1..)?.trim();
        Some((&line[..open], line.get(open + 1..close)?, value))
    } else {
        let (name, value) = line.split_once(' ')?;
        Some((name, "", value.trim()))
    }
}

/// Strips `le="..."` from a histogram bucket label set, returning the
/// remaining labels (the series key) and the `le` value.
fn split_le(labels: &str) -> Option<(String, String)> {
    let mut rest = Vec::new();
    let mut le = None;
    for pair in labels.split(',').filter(|p| !p.is_empty()) {
        match pair.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
            Some(v) => le = Some(v.to_string()),
            None => rest.push(pair),
        }
    }
    le.map(|le| (rest.join(","), le))
}

/// A label name the `sep`-joined `key=value` pairs repeat, if any.
fn repeated_label(pairs: &str, sep: char) -> Option<&str> {
    let mut keys: Vec<&str> = pairs
        .split(sep)
        .filter_map(|p| Some(p.split_once('=')?.0))
        .collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// Every validator error names the line (CSV: data row) it is about.
fn at_line(line: usize, msg: String) -> String {
    format!("line {line}: {msg}")
}

/// What one histogram series' samples said so far, each with its line.
#[derive(Default)]
struct HistogramCheck {
    /// The latest finite bucket: `(le, cumulative count, line)`.
    last: Option<(f64, f64, usize)>,
    /// The `+Inf` bucket: `(count, line)`.
    inf: Option<(f64, usize)>,
    count: Option<f64>,
}

/// Validates a Prometheus text exposition: every sample belongs to a
/// family declared once (`# TYPE` + `# HELP` first), no series is sampled
/// twice or names a label twice, values parse as finite floats, counters
/// are integral, histogram buckets have a finite `le` or the literal
/// `+Inf`, strictly increasing `le` bounds with non-decreasing cumulative
/// counts ending in a `+Inf` bucket that equals the series' `_count`.
pub fn validate_prometheus(text: &str) -> Result<ExpositionStats, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: BTreeMap<String, bool> = BTreeMap::new();
    let mut sampled: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut stats = ExpositionStats::default();
    // Keyed by (family, series labels).
    let mut histograms: BTreeMap<(String, String), HistogramCheck> = BTreeMap::new();

    for (no, line) in text.lines().enumerate() {
        let err = |msg: String| at_line(no + 1, msg);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default();
            helped.insert(name.to_string(), true);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or_default().to_string();
            let kind = parts.next().unwrap_or_default();
            if !["counter", "gauge", "histogram"].contains(&kind) {
                return Err(err(format!("unknown type '{kind}'")));
            }
            if !helped.contains_key(&name) {
                return Err(err(format!("TYPE for '{name}' without HELP")));
            }
            if types.insert(name.clone(), kind.to_string()).is_some() {
                return Err(err(format!("family '{name}' declared twice")));
            }
            stats.families += 1;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, labels, value) =
            split_sample(line).ok_or_else(|| err(format!("unparseable sample '{line}'")))?;
        if !sampled.insert((name, labels)) {
            return Err(err(format!("series sampled twice in '{line}'")));
        }
        if let Some(key) = repeated_label(labels, ',') {
            return Err(err(format!("label '{key}' repeated in '{line}'")));
        }
        let value: f64 = value
            .parse()
            .map_err(|_| err(format!("unparseable value in '{line}'")))?;
        if !value.is_finite() {
            return Err(err(format!("non-finite value in '{line}'")));
        }
        // Resolve the family: exact match, else a histogram suffix.
        let family = if types.contains_key(name) {
            name.to_string()
        } else {
            let base = ["_bucket", "_sum", "_count", "_saturated"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .ok_or_else(|| err(format!("sample '{name}' has no TYPE line")))?;
            if types.get(base).map(String::as_str) != Some("histogram") {
                return Err(err(format!("sample '{name}' has no TYPE line")));
            }
            base.to_string()
        };
        stats.samples += 1;
        match types[&family].as_str() {
            "counter" if value < 0.0 || value != value.trunc() => {
                // odlb-lint: allow(D03) — validator error message, not an exported artifact
                return Err(err(format!("counter '{name}' has non-count value {value}")));
            }
            "histogram" => {
                if name.ends_with("_bucket") {
                    let (series, le) = split_le(labels)
                        .ok_or_else(|| err(format!("bucket without le in '{line}'")))?;
                    let le = match le.as_str() {
                        "+Inf" => f64::INFINITY,
                        _ => le
                            .parse()
                            .ok()
                            .filter(|le: &f64| le.is_finite())
                            .ok_or_else(|| err(format!("unparseable le '{le}'")))?,
                    };
                    let check = histograms
                        .entry((family.clone(), series.clone()))
                        .or_default();
                    if le.is_infinite() {
                        check.inf = Some((value, no + 1));
                    } else {
                        if let Some((prev_le, prev, _)) = check.last {
                            let series = format!("{family}{{{series}}}");
                            if le <= prev_le {
                                return Err(err(format!(
                                    "{series}: le bounds not increasing ({prev_le} then {le})"
                                )));
                            }
                            if value < prev {
                                // odlb-lint: allow(D03) — validator error message, not an exported artifact
                                return Err(err(format!(
                                    "{series}: bucket counts decrease ({prev} then {value})"
                                )));
                            }
                        }
                        check.last = Some((le, value, no + 1));
                    }
                } else if name.ends_with("_count") {
                    let check = histograms.entry((family, labels.to_string())).or_default();
                    check.count = Some(value);
                } else if name.ends_with("_saturated") && value != 0.0 && value != 1.0 {
                    // odlb-lint: allow(D03) — validator error message, not an exported artifact
                    return Err(err(format!(
                        "saturation flag '{name}' must be 0 or 1, got {value}"
                    )));
                }
            }
            _ => {}
        }
    }

    for ((family, series), check) in &histograms {
        let series = format!("{family}{{{series}}}");
        let Some((inf, inf_line)) = check.inf else {
            match check.last {
                Some((_, _, line)) => {
                    return Err(at_line(line, format!("{series}: missing +Inf bucket")))
                }
                None => continue,
            }
        };
        if check.last.is_some_and(|(_, last, _)| last > inf) {
            return Err(at_line(
                inf_line,
                format!("{series}: +Inf below last bucket"),
            ));
        }
        let count = check
            .count
            .ok_or_else(|| at_line(inf_line, format!("{series}: missing _count")))?;
        if count != inf {
            return Err(at_line(
                inf_line,
                format!("{series}: _count {count} != +Inf bucket {inf}"),
            ));
        }
        stats.histograms += 1;
    }
    Ok(stats)
}

/// Validates the CSV time series: the header, five fields per row,
/// finite non-decreasing time, a non-decreasing integral interval `seq`,
/// one row per `(seq, metric, labels)`, no label named twice, parseable
/// finite values, and monotone counters (`*_total`, `*_count`, `*_sum`
/// series must never decrease over time).
pub fn validate_csv(text: &str) -> Result<usize, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some("time_s,seq,metric,labels,value") => {}
        other => return Err(at_line(1, format!("bad header: {other:?}"))),
    }
    let mut last_time = f64::NEG_INFINITY;
    let mut last_seq = 0u64;
    let mut monotone: BTreeMap<(String, String), f64> = BTreeMap::new();
    // `(metric, labels)` keys of the current `seq`.
    let mut in_seq: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut rows = 0usize;
    for (no, line) in lines.enumerate() {
        let err = |msg: String| format!("row {}: {msg}", no + 1);
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(err(format!("expected 5 fields, got {}", fields.len())));
        }
        let time: f64 = fields[0]
            .parse()
            .map_err(|_| err(format!("unparseable time '{}'", fields[0])))?;
        if !time.is_finite() {
            return Err(err(format!("non-finite time '{}'", fields[0])));
        }
        if time < last_time {
            return Err(err("time went backwards".to_string()));
        }
        last_time = time;
        let seq: u64 = fields[1]
            .parse()
            .map_err(|_| err(format!("unparseable seq '{}'", fields[1])))?;
        if rows > 0 && seq < last_seq {
            return Err(err(format!("seq went backwards: {last_seq} -> {seq}")));
        }
        if seq != last_seq {
            in_seq.clear();
        }
        last_seq = seq;
        if !in_seq.insert((fields[2], fields[3])) {
            return Err(err(format!("duplicate row for seq {seq}")));
        }
        if let Some(key) = repeated_label(fields[3], ';') {
            return Err(err(format!("label '{key}' repeated")));
        }
        let value: f64 = fields[4]
            .parse()
            .map_err(|_| err(format!("unparseable value '{}'", fields[4])))?;
        if !value.is_finite() {
            return Err(err("non-finite value".to_string()));
        }
        let metric = fields[2];
        if metric.ends_with("_total") || metric.ends_with("_count") || metric.ends_with("_sum") {
            let key = (metric.to_string(), fields[3].to_string());
            if let Some(prev) = monotone.get(&key) {
                if value < *prev {
                    // odlb-lint: allow(D03) — validator error message, not an exported artifact
                    return Err(err(format!(
                        "counter {metric}{{{}}} decreased: {prev} -> {value}",
                        fields[3]
                    )));
                }
            }
            monotone.insert(key, value);
        }
        rows += 1;
    }
    Ok(rows)
}

/// Shape summary of a validated folded-stacks dump.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldedStats {
    /// Unique stack paths (= lines).
    pub lines: usize,
    /// Deepest stack (frames on the longest path).
    pub max_depth: usize,
}

/// Validates a folded-stacks dump (the `inferno` / `flamegraph.pl`
/// collapsed format): one `frame;frame;… <count>` line per unique
/// stack, frame names non-empty without `;` or whitespace, counts
/// unsigned integers, and lines strictly sorted by stack path (the
/// order [`crate::SpanProfiler::folded_sim`] emits) — so duplicates are
/// impossible and two dumps are comparable with a byte diff.
pub fn validate_folded(text: &str) -> Result<FoldedStats, String> {
    if text.is_empty() {
        return Err(at_line(
            1,
            "empty folded dump (no spans recorded)".to_string(),
        ));
    }
    let mut stats = FoldedStats::default();
    let mut prev: Option<Vec<&str>> = None;
    for (no, line) in text.lines().enumerate() {
        let err = |msg: String| at_line(no + 1, msg);
        let (path, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err(format!("expected '<stack> <count>', got '{line}'")))?;
        value
            .parse::<u64>()
            .map_err(|_| err(format!("unparseable count '{value}'")))?;
        let frames: Vec<&str> = path.split(';').collect();
        for frame in &frames {
            if frame.is_empty() {
                return Err(err(format!("empty frame in stack '{path}'")));
            }
            if frame.chars().any(|c| c.is_whitespace() || c == ';') {
                return Err(err(format!("bad frame '{frame}' in stack '{path}'")));
            }
        }
        if let Some(prev) = &prev {
            if *prev >= frames {
                return Err(err(format!(
                    "stacks not strictly sorted: '{}' then '{path}'",
                    prev.join(";")
                )));
            }
        }
        stats.lines += 1;
        stats.max_depth = stats.max_depth.max(frames.len());
        prev = Some(frames);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter(
            "odlb_queries_total",
            "Queries executed.",
            &[("app", "app0")],
        );
        c.add(42);
        let g = reg.gauge(
            "odlb_queue_depth",
            "Outstanding queries.",
            &[("instance", "inst0")],
        );
        g.set(3.0);
        let h = reg.histogram(
            "odlb_query_latency_us",
            "Per-query latency (microseconds).",
            &[("class", "app0#8"), ("instance", "inst0")],
        );
        for v in [120u64, 130, 5_000, 5_000, 90_000] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn exposition_round_trips_through_validator() {
        let reg = sample_registry();
        let text = render_prometheus(&reg);
        assert!(text.contains("# TYPE odlb_queries_total counter"));
        assert!(text.contains("odlb_queries_total{app=\"app0\"} 42"));
        assert!(text.contains("# TYPE odlb_query_latency_us histogram"));
        assert!(text.contains("le=\"+Inf\"} 5"));
        let stats = validate_prometheus(&text).expect("valid exposition");
        assert_eq!(stats.families, 3);
        assert_eq!(stats.histograms, 1);
        assert!(stats.samples >= 5);
    }

    #[test]
    fn validator_rejects_missing_type() {
        assert!(validate_prometheus("orphan_metric 3\n").is_err());
    }

    #[test]
    fn validator_rejects_decreasing_buckets() {
        let bad = "# HELP h x\n# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        let err = validate_prometheus(bad).unwrap_err();
        assert!(err.contains("decrease"), "{err}");
    }

    #[test]
    fn validator_rejects_count_mismatch() {
        let bad = "# HELP h x\n# TYPE h histogram\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        let err = validate_prometheus(bad).unwrap_err();
        assert!(err.contains("_count"), "{err}");
    }

    #[test]
    fn csv_round_trips_through_validator() {
        let mut reg = sample_registry();
        reg.snapshot(10_000_000, 0);
        reg.counter(
            "odlb_queries_total",
            "Queries executed.",
            &[("app", "app0")],
        )
        .add(8);
        reg.snapshot(20_000_000, 1);
        let csv = render_csv(&reg);
        assert!(csv.starts_with("time_s,seq,metric,labels,value\n"));
        assert!(csv.contains("10.000000,0,odlb_queries_total,app=app0,42"));
        assert!(csv.contains("20.000000,1,odlb_queries_total,app=app0,50"));
        // Multi-label series keep every pair, `;`-joined.
        assert!(csv.contains("odlb_query_latency_us_count,class=app0#8;instance=inst0"));
        let rows = validate_csv(&csv).expect("valid csv");
        assert_eq!(rows, 2 * (1 + 1 + 7));
    }

    /// Regression for the silent-saturation bug: a histogram whose sum
    /// overflowed must say so in both expositions (pre-fix there was no
    /// flag at all, so this sample line did not exist).
    #[test]
    fn saturation_flag_reaches_both_expositions() {
        let mut reg = sample_registry();
        let text = render_prometheus(&reg);
        assert!(
            text.contains("odlb_query_latency_us_saturated{class=\"app0#8\",instance=\"inst0\"} 0"),
            "healthy histogram exposes a 0 flag:\n{text}"
        );
        validate_prometheus(&text).expect("0 flag is valid");
        let h = reg.histogram(
            "odlb_query_latency_us",
            "Per-query latency (microseconds).",
            &[("class", "app0#8"), ("instance", "inst0")],
        );
        h.record(u64::MAX);
        h.record(u64::MAX);
        let text = render_prometheus(&reg);
        assert!(
            text.contains("odlb_query_latency_us_saturated{class=\"app0#8\",instance=\"inst0\"} 1"),
            "saturated histogram raises the flag:\n{text}"
        );
        validate_prometheus(&text).expect("1 flag is valid");
        reg.snapshot(10_000_000, 0);
        let csv = render_csv(&reg);
        assert!(
            csv.contains("odlb_query_latency_us_saturated,class=app0#8;instance=inst0,1"),
            "flag lands in the CSV time series:\n{csv}"
        );
        validate_csv(&csv).expect("csv with flag is valid");
    }

    #[test]
    fn validator_rejects_non_boolean_saturation_flag() {
        let bad = "# HELP h x\n# TYPE h histogram\n\
                   h_bucket{le=\"+Inf\"} 1\nh_sum 9\nh_count 1\nh_saturated 3\n";
        let err = validate_prometheus(bad).unwrap_err();
        assert!(err.contains("0 or 1"), "{err}");
    }

    #[test]
    fn csv_validator_rejects_shrinking_counter() {
        let bad = "time_s,seq,metric,labels,value\n1.0,0,x_total,,5\n2.0,1,x_total,,4\n";
        let err = validate_csv(bad).unwrap_err();
        assert!(err.contains("decreased"), "{err}");
    }

    #[test]
    fn csv_validator_rejects_backwards_seq() {
        let bad = "time_s,seq,metric,labels,value\n1.0,1,x,,5\n2.0,0,x,,6\n";
        let err = validate_csv(bad).unwrap_err();
        assert!(err.contains("seq went backwards"), "{err}");
    }

    /// Artifacts the renderers never write: one family or series twice, a
    /// spelled-out infinity.
    #[test]
    fn validators_reject_what_the_renderers_never_write() {
        for (bad, what) in [
            (
                "# HELP c x\n# TYPE c counter\n# TYPE c gauge\n",
                "line 3: family 'c' declared twice",
            ),
            (
                "# HELP g x\n# TYPE g gauge\ng{a=\"1\"} 1\ng{a=\"1\"} 2\n",
                "line 4: series sampled twice",
            ),
            (
                "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"inf\"} 1\n",
                "line 3: unparseable le 'inf'",
            ),
        ] {
            let err = validate_prometheus(bad).unwrap_err();
            assert!(err.contains(what), "{bad:?}: {err}");
        }
        let header = "time_s,seq,metric,labels,value\n";
        for (rows, what) in [
            ("inf,0,x,,1\n", "row 1: non-finite time"),
            (
                "1.0,0,x,a=1,1\n1.0,0,x,a=1,1\n",
                "row 2: duplicate row for seq 0",
            ),
        ] {
            let err = validate_csv(&format!("{header}{rows}")).unwrap_err();
            assert!(err.contains(what), "{rows:?}: {err}");
        }
    }

    #[test]
    fn csv_labels_is_a_pure_format_conversion() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("g", "h", &[("instance", "inst0"), ("class", "app0#8")]);
        reg.snapshot(0, 0);
        assert!(render_csv(&reg).ends_with("\n0.000000,0,g,class=app0#8;instance=inst0,0\n"));
    }

    #[test]
    fn non_finite_values_render_as_zero() {
        for (v, rendered) in [
            (f64::NAN, "0"),
            (f64::INFINITY, "0"),
            (2.0, "2"),
            (0.25, "0.25"),
        ] {
            let mut out = String::new();
            render_value(&mut out, v);
            assert_eq!(out, rendered);
        }
    }

    #[test]
    fn folded_validator_accepts_profiler_output() {
        let shared = crate::SpanProfiler::shared();
        let opt = Some(shared.clone());
        crate::profile_span(&opt, "experiments", || {
            crate::profile_span(&opt, "fig3", || {
                crate::profile_span(&opt, "controller", || {
                    crate::profile_span(&opt, "mrc_update", || ());
                });
            });
        });
        let p = shared.borrow();
        let sim = validate_folded(&p.folded_sim()).expect("valid sim dump");
        assert_eq!(sim.lines, 4);
        assert_eq!(sim.max_depth, 4);
        let wall = validate_folded(&p.folded_wall()).expect("valid wall dump");
        assert_eq!(wall, sim);
    }

    #[test]
    fn folded_validator_rejects_malformed_dumps() {
        for (bad, what) in [
            ("", "empty"),
            ("a;b\n", "expected"),
            ("a;b notanumber\n", "unparseable count"),
            ("a;;b 3\n", "empty frame"),
            ("b 1\na 2\n", "not strictly sorted"),
            ("a 1\na 2\n", "not strictly sorted"),
            ("a;b c 3\n", "bad frame"),
        ] {
            let err = validate_folded(bad).unwrap_err();
            assert!(err.contains(what), "{bad:?}: {err}");
        }
    }

    #[test]
    fn folded_order_is_by_frames_not_raw_bytes() {
        // `["a","b"] < ["a!"]` as frame vectors even though the raw
        // lines compare the other way ('!' < ';'): the validator must
        // follow the profiler's BTreeMap path order.
        let good = "a;b 1\na! 2\n";
        validate_folded(good).expect("frame order");
        let bad = "a! 2\na;b 1\n";
        assert!(validate_folded(bad).is_err());
    }
}
