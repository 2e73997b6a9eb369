//! Benchmark-side spans: one per call the benchmark makes into a layer.
//!
//! Spans are kept in memory and written when the run ends, as
//! `benchmark/out/trace-<workload>.json` (name, start, end, parent, run
//! id). They are recorded from outside the program, around its public
//! API; spans inside the program are the program's own `SpanProfiler`,
//! which the traced pass attaches through `set_profiler` and reads back.

use crate::json::Json;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span recorder for one run (one child process).
pub struct Spans {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(run_id: String) -> Self {
        Spans {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit() without enter()");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records spans for layers that time themselves and hand durations
    /// back (a figure's `FigureOutput.wall`, a sweep's `cell_walls`): the
    /// calls ran one after another and the last ended just now, so they
    /// are laid end to end, finishing now.
    pub fn record_ended(&mut self, name: &'static str, walls: &[Duration]) {
        let now = self.now_ns();
        let parent = self.open.last().copied();
        // Never start before the parent did: a reported wall can include
        // time from before the enclosing span opened (worker start-up).
        let floor = parent.map_or(0, |p| self.spans[p].start_ns);
        let total: u64 = walls.iter().map(|w| w.as_nanos() as u64).sum();
        let mut start_ns = now.saturating_sub(total).max(floor);
        for wall in walls {
            let end_ns = (start_ns + wall.as_nanos() as u64).min(now);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
            });
            start_ns = end_ns;
        }
    }

    /// Durations, in milliseconds, of every span called `name` directly
    /// under a span called `parent`.
    pub fn durations_ms(&self, name: &str, parent: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The trace document, `tails` riding along. Span ids are their
    /// positions; a parent always precedes its children.
    pub fn to_json(&self, tails: Json) -> Json {
        assert!(self.open.is_empty(), "trace written with open spans");
        Json::obj([
            ("run_id", Json::str(&self.run_id)),
            ("unit", Json::str("ns")),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::obj([
                                ("id", Json::Num(id as f64)),
                                ("name", Json::str(s.name)),
                                ("start", Json::Num(s.start_ns as f64)),
                                ("end", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("run_id", Json::str(&self.run_id)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("tails", tails),
        ])
    }
}

/// Checks a trace document: every span has a name, `start <= end`, and a
/// parent that exists and encloses it. Returns the span count.
pub fn validate_trace(doc: &Json) -> Result<usize, String> {
    let spans = doc
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("no spans array")?;
    let field = |s: &Json, key: &str| s.get(key).and_then(Json::as_f64);
    for (i, s) in spans.iter().enumerate() {
        if s.get("name")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("span {i}: no name"));
        }
        if field(s, "id") != Some(i as f64) {
            return Err(format!("span {i}: id does not match position"));
        }
        let (start, end) = field(s, "start")
            .zip(field(s, "end"))
            .ok_or(format!("span {i}: no start/end"))?;
        if start > end {
            return Err(format!("span {i}: ends before it starts"));
        }
        match s.get("parent") {
            Some(Json::Null) => {}
            Some(Json::Num(p)) => {
                let parent = spans
                    .get(*p as usize)
                    .filter(|_| *p >= 0.0 && (*p as usize) < i)
                    .ok_or(format!("span {i}: parent {p} absent"))?;
                let (ps, pe) = field(parent, "start")
                    .zip(field(parent, "end"))
                    .ok_or(format!("span {i}: parent has no start/end"))?;
                if start < ps || end > pe {
                    return Err(format!("span {i}: not enclosed by its parent"));
                }
            }
            _ => return Err(format!("span {i}: no parent field")),
        }
    }
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_the_trace_validates() {
        let mut s = Spans::new("t".to_string());
        s.enter("outer");
        s.enter("inner");
        std::thread::sleep(Duration::from_millis(2));
        s.exit();
        s.record_ended("reported", &[Duration::from_millis(1)]);
        s.exit();
        let inner = s.durations_ms("inner", "outer");
        assert!(inner.len() == 1 && inner[0] >= 2.0);
        assert!(s.durations_ms("inner", "reported").is_empty());
        let doc = crate::json::parse(&s.to_json(Json::Arr(Vec::new())).render()).unwrap();
        assert_eq!(validate_trace(&doc), Ok(3));
    }

    #[test]
    fn validation_rejects_a_missing_parent() {
        let doc = crate::json::parse(
            r#"{"spans": [{"id": 0, "name": "a", "start": 0, "end": 5, "parent": 3}]}"#,
        )
        .unwrap();
        assert!(validate_trace(&doc).unwrap_err().contains("parent"));
    }
}
