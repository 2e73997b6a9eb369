//! Arbitrary sweep-matrix generation for property tests.
//!
//! [`arbitrary_matrix`] produces a random-but-tiny matrix in the TOML
//! subset `odlb_bench::sweep::parse_matrix` accepts, together with the
//! cell, schedule and prefix counts the generated axes imply, so property
//! tests over the sweep jobserver (interrupt/resume parity, memoization
//! byte-parity, `--jobs` independence) can assert exact expansion
//! arithmetic without re-deriving it from the text. Cell counts are
//! capped (≤ 8) so every property case stays test-suite cheap; axis
//! values are drawn without duplicates, so `expected_cells` is exact.

use crate::Gen;

/// Workload mixes the generator may reference, of the row names in
/// `odlb_bench::sweep::WORKLOADS`; "tpcw"/"rubis" are
/// excluded only because their generation cost would dominate
/// property-test time.
const WORKLOADS: [&str; 1] = ["zipf"];

/// Controller variants the generator may reference: every row name in
/// `odlb_bench::sweep::CONTROLLERS`.
const CONTROLLERS: [&str; 4] = ["selective", "cpu-only", "coarse", "vm-migration"];

/// Replica counts the generator may reference.
const REPLICAS: [&str; 3] = ["1", "2", "3"];

/// MRC-mode spellings the generator may reference.
const MRC: [&str; 3] = ["exact", "sampled:0.1", "sampled:0.5"];

/// A generated matrix plus the arithmetic its axes imply.
#[derive(Clone, Debug)]
pub struct ArbitraryMatrix {
    /// The matrix text, parseable by `odlb_bench::sweep::parse_matrix`.
    pub toml: String,
    /// Cells the matrix expands to (product of distinct axis lengths).
    pub expected_cells: usize,
    /// Distinct schedule keys — (seed, workload) pairs, since the
    /// generator keeps one `clients`/`intervals` value per matrix — i.e.
    /// the schedules a memoized one-worker sweep generates.
    pub expected_schedules: usize,
    /// Distinct prefix keys — schedule keys × replica counts — i.e. the
    /// controller-free prefixes a memoized one-worker sweep runs.
    pub expected_prefixes: usize,
}

/// Draws `n` distinct elements of `pool` in pool order.
fn distinct_subset<'a>(g: &mut Gen, pool: &[&'a str], n: usize) -> Vec<&'a str> {
    let mut picked: Vec<&str> = pool.to_vec();
    while picked.len() > n {
        let drop = g.usize_in(0, picked.len());
        picked.remove(drop);
    }
    picked
}

/// Generates a tiny matrix: 1–2 seeds × 1–2 replica counts × 1 workload
/// × 1–2 MRC modes × 1–2 controllers, capped at 8 cells, with 2–3
/// intervals and a warmup strictly below them. Quoting, spacing, comment
/// placement and axis order are themselves randomised so the parser's
/// tolerance is exercised alongside the jobserver.
pub fn arbitrary_matrix(g: &mut Gen) -> ArbitraryMatrix {
    let seeds: Vec<u64> = {
        let n = g.usize_in(1, 3);
        let base = g.u64_in(1, 1_000);
        (0..n as u64).map(|i| base + i * 7).collect()
    };
    let n_replicas = g.usize_in(1, 3);
    let replicas = distinct_subset(g, &REPLICAS, n_replicas);
    // What the seed and replica axes leave of the 8-cell cap.
    let budget = 8 / (seeds.len() * replicas.len());
    let n_controllers = g.usize_in(1, 3).min(budget);
    let controllers = distinct_subset(g, &CONTROLLERS, n_controllers);
    let n_mrc = g.usize_in(1, 3).min(budget / n_controllers);
    let mrc = distinct_subset(g, &MRC, n_mrc);
    let workloads = distinct_subset(g, &WORKLOADS, 1);
    let intervals = g.usize_in(2, 4);
    let warmup = g.usize_in(0, intervals);
    let clients = g.usize_in(2, 7);

    let mut lines = vec![
        format!("name = \"prop-{}\"", g.u64_in(0, 1_000_000)),
        format!("intervals = {intervals}"),
        format!("warmup = {warmup}"),
        format!("clients = {clients}"),
        format!(
            "seeds = [{}]",
            seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!("replicas = [{}]", replicas.join(", ")),
        format!(
            "workloads = [{}]",
            workloads
                .iter()
                .map(|w| format!("\"{w}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "mrc = [{}]",
            mrc.iter()
                .map(|m| format!("\"{m}\""))
                .collect::<Vec<_>>()
                .join(",")
        ),
        format!(
            "controllers = [{}]",
            controllers
                .iter()
                .map(|c| format!("\"{c}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];
    // Key order must not matter; neither must comments or blank lines.
    let swap = g.usize_in(1, lines.len());
    lines.swap(0, swap);
    if g.chance(0.5) {
        lines.insert(g.usize_in(0, lines.len()), "# comment line".to_string());
    }
    if g.chance(0.5) {
        lines.push(String::new());
    }

    let expected_schedules = seeds.len() * workloads.len();
    let expected_prefixes = expected_schedules * replicas.len();
    let expected_cells = expected_prefixes * mrc.len() * controllers.len();
    assert!(expected_cells <= 8, "generator must stay test-suite cheap");
    ArbitraryMatrix {
        toml: lines.join("\n"),
        expected_cells,
        expected_schedules,
        expected_prefixes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{case_seed, check};

    #[test]
    fn matrices_stay_small_and_arithmetic_is_consistent() {
        check("arbitrary_matrix_bounds", 64, |g: &mut Gen| {
            let m = arbitrary_matrix(g);
            assert!(m.expected_cells >= 1 && m.expected_cells <= 8);
            assert!(m.expected_schedules >= 1);
            assert_eq!(m.expected_prefixes % m.expected_schedules, 0);
            assert_eq!(m.expected_cells % m.expected_prefixes, 0);
            assert!(m.toml.contains("controllers"));
        });
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = arbitrary_matrix(&mut Gen::from_seed(case_seed("m", 1)));
        let b = arbitrary_matrix(&mut Gen::from_seed(case_seed("m", 1)));
        assert_eq!(a.toml, b.toml);
        assert_eq!(a.expected_cells, b.expected_cells);
    }
}
