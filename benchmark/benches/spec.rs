//! `BENCHMARK.json`, compiled in: the one place metric names, units and
//! directions are written down. The command looks every name it prints
//! up here, so it cannot print a metric the file does not list. (The
//! file's bounds are the driver's; `compare` has its own, see there.)

use crate::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let array = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no '{key}' array"))
        };
        let name_of = |item: &Json| {
            item.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("BENCHMARK.json: entry without a name".to_string())
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            array(key)?
                .iter()
                .map(|m| {
                    let name = name_of(m)?;
                    let unit = m.get("unit").and_then(Json::as_str);
                    let better = m.get("better").and_then(Json::as_str);
                    match (unit, better) {
                        (Some(unit), Some(better @ ("higher" | "lower"))) => Ok(Metric {
                            unit: unit.to_string(),
                            higher_is_better: better == "higher",
                            name,
                        }),
                        _ => Err(format!("BENCHMARK.json: {name}: bad unit or direction")),
                    }
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: array("workloads")?
                .iter()
                .map(name_of)
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metric called `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
