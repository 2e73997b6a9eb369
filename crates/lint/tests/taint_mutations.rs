//! Seeded-mutation test for the presence rules.
//!
//! A clean source file is analyzed in memory, then each of ten seeded
//! nondeterminism mutations is written into it — the clock and thread
//! ones in a file of the bench crate, next door to the files whose
//! exemption rows allow a clock or a thread, and some of them a call hop
//! away from the function that returns the value; the std hash tables in
//! the two files whose tables feed artifacts (the pool's class counters,
//! the metrics exporter). Nine are flagged by the D-rule itself, at the
//! source line, in the mutated file. The tenth is
//! `available_parallelism` written into `runner.rs`, the one file whose
//! exemption row allows exactly that; what guards it is dynamic
//! (`tests/parallel_parity.rs`: the job count changes no output byte)
//! and it is listed as such in DESIGN.md.

use odlb_lint::{analyze_sources, SourceFile};

/// Clean source: a logical counter, no ambient state.
const CLEAN_SRC: &str = r#"
pub fn sample(c: &mut u64) -> u64 {
    *c += 1;
    *c
}
"#;

struct Mutation {
    name: &'static str,
    /// The rule that flags it and the line it does so at; `None` for
    /// the one mutation the file's exemption row allows.
    flagged: Option<(&'static str, u32)>,
    /// Path of the mutated source file.
    source_rel: &'static str,
    source_src: &'static str,
}

const MUTATIONS: &[Mutation] = &[
    Mutation {
        name: "wall_instant",
        flagged: Some(("D01", 4)),
        source_rel: "crates/bench/src/meter.rs",
        source_src: r#"
pub fn sample(c: &mut u64) -> u64 {
    let _ = c;
    std::time::Instant::now().elapsed().as_nanos() as u64
}
"#,
    },
    Mutation {
        name: "wall_system_time",
        flagged: Some(("D01", 4)),
        source_rel: "crates/bench/src/meter.rs",
        source_src: r#"
pub fn sample(c: &mut u64) -> u64 {
    let _ = c;
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}
"#,
    },
    Mutation {
        name: "wall_hidden_local_hop",
        flagged: Some(("D01", 8)),
        source_rel: "crates/bench/src/meter.rs",
        source_src: r#"
pub fn sample(c: &mut u64) -> u64 {
    let _ = c;
    now_ns()
}

fn now_ns() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}
"#,
    },
    Mutation {
        name: "wall_method_hop",
        flagged: Some(("D01", 6)),
        source_rel: "crates/bench/src/meter.rs",
        source_src: r#"
pub struct Meter;

impl Meter {
    pub fn read(&self) -> u64 {
        std::time::Instant::now().elapsed().as_nanos() as u64
    }
}

pub fn sample(c: &mut u64) -> u64 {
    let _ = c;
    Meter.read()
}
"#,
    },
    Mutation {
        name: "rand_thread_rng",
        flagged: Some(("D04", 4)),
        source_rel: "crates/bench/src/runner.rs",
        source_src: r#"
pub fn sample(c: &mut u64) -> u64 {
    let _ = c;
    thread_rng()
}

fn thread_rng() -> u64 {
    7
}
"#,
    },
    Mutation {
        name: "thread_identity",
        flagged: Some(("D04", 5)),
        source_rel: "crates/bench/src/runner.rs",
        source_src: r#"
pub fn sample(c: &mut u64) -> u64 {
    let _ = c;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::hash::Hash::hash(&std::thread::current().id(), &mut h);
    std::hash::Hasher::finish(&h)
}
"#,
    },
    Mutation {
        name: "parallelism",
        flagged: None,
        source_rel: "crates/bench/src/runner.rs",
        source_src: r#"
pub fn sample(c: &mut u64) -> u64 {
    let _ = c;
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}
"#,
    },
    Mutation {
        name: "ptr_addr_format",
        flagged: Some(("D04", 3)),
        source_rel: "crates/bench/src/meter.rs",
        source_src: r#"
pub fn sample(c: &mut u64) -> u64 {
    let s = format!("{:p}", c);
    s.len() as u64
}
"#,
    },
    Mutation {
        name: "std_table_returned_by_the_pool",
        flagged: Some(("D02", 2)),
        source_rel: "crates/bufferpool/src/partitioned.rs",
        source_src: r#"
pub fn drain_counters(c: &mut u64) -> std::collections::HashMap<u64, u64> {
    [(*c, 1)].into_iter().collect()
}
"#,
    },
    Mutation {
        name: "std_set_walked_by_the_exporter",
        flagged: Some(("D02", 3)),
        source_rel: "crates/cluster/src/driver/export.rs",
        source_src: r#"
pub fn sample(c: &mut u64, out: &mut String) {
    let seen = [*c, 1].into_iter().collect::<std::collections::HashSet<u64>>();
    for series in seen {
        out.push_str(&series.to_string());
    }
}
"#,
    },
];

fn lint(rel: &str, src: &str) -> Vec<odlb_lint::Diagnostic> {
    analyze_sources(&[SourceFile {
        rel: rel.to_string(),
        text: src.to_string(),
    }])
}

#[test]
fn clean_base_has_no_findings() {
    for m in MUTATIONS {
        let diags = lint(m.source_rel, CLEAN_SRC);
        assert!(diags.is_empty(), "clean base flagged: {diags:#?}");
    }
}

#[test]
fn every_seeded_mutation_is_flagged_where_it_is_written() {
    for m in MUTATIONS {
        let diags = lint(m.source_rel, m.source_src);
        let Some((rule, line)) = m.flagged else {
            assert!(
                diags.is_empty(),
                "{}: the runner's row allows this: {diags:#?}",
                m.name
            );
            continue;
        };
        assert!(
            diags.iter().any(|d| d.rule == rule && d.line == line),
            "{}: no {rule} at line {line}; got {diags:#?}",
            m.name
        );
        // Nothing else fires: the finding names the mutation's own rule.
        assert!(
            diags.iter().all(|d| d.rule == rule),
            "{}: other rules fired: {diags:#?}",
            m.name
        );
    }
    let flagged = MUTATIONS.iter().filter(|m| m.flagged.is_some()).count();
    assert_eq!((flagged, MUTATIONS.len()), (9, 10));
}
