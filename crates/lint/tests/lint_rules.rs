//! Fixture-driven tests: each file under `tests/fixtures/` seeds known
//! violations; these tests assert the exact `(line, rule)` diagnostics,
//! so any drift in the lexer or rule engine fails loudly.

use odlb_lint::{lexer, rules, Policy};
use std::path::PathBuf;

const ALL: Policy<'static> = Policy {
    allow: &[],
    float_fmt: true,
    io_unwrap: true,
};

fn lint_fixture(name: &str) -> Vec<(u32, &'static str)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: cannot read fixture: {e}", path.display()));
    let mut diags: Vec<(u32, &'static str)> = rules::check_file(name, &lexer::lex(&text), ALL)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    diags.sort();
    diags
}

#[test]
fn d01_wall_clock_fixture() {
    assert_eq!(
        lint_fixture("d01_time.rs"),
        vec![(4, "D01"), (7, "D01"), (8, "D01")]
    );
}

#[test]
fn d02_hash_iteration_fixture() {
    // The renaming `use` (line 5), the `HashSet` parameter (13) and the
    // qualified path (19) name a std table; the sort and the sum that
    // follow excuse nothing. The rename's use on line 8, the `FastMap`
    // and `BTreeMap` fields and the `#[cfg(test)]` import are silent.
    assert_eq!(
        lint_fixture("d02_hash_iter.rs"),
        vec![(5, "D02"), (13, "D02"), (19, "D02")]
    );
}

#[test]
fn d03_float_format_fixture() {
    assert_eq!(
        lint_fixture("d03_float_fmt.rs"),
        vec![(4, "D03"), (8, "D03")]
    );
}

#[test]
fn d04_thread_and_randomness_fixture() {
    // Line 4 matches both `std::thread` and `thread::spawn`; lines 7-9
    // are thread identity, host parallelism and a pointer address.
    assert_eq!(
        lint_fixture("d04_thread.rs"),
        vec![
            (4, "D04"),
            (4, "D04"),
            (5, "D04"),
            (6, "D04"),
            (7, "D04"),
            (8, "D04"),
            (9, "D04"),
        ]
    );
}

#[test]
fn d05_folded_dump_fixture() {
    // Both dump renderers fire; the copy inside `#[cfg(test)]` does not.
    assert_eq!(lint_fixture("d05_folded.rs"), vec![(5, "D05"), (7, "D05")]);
}

#[test]
fn p01_io_unwrap_fixture() {
    // A token ban: the `parse().unwrap()` on line 6 counts like the I/O
    // unwraps above it.
    assert_eq!(
        lint_fixture("p01_unwrap_io.rs"),
        vec![(4, "P01"), (5, "P01"), (6, "P01")]
    );
}

#[test]
fn tokens_inside_strings_and_comments_do_not_fire() {
    // tricky.rs hides rule tokens in strings, nested block comments and
    // raw strings; only the genuine SystemTime uses at the end count.
    assert_eq!(lint_fixture("tricky.rs"), vec![(21, "D01"), (22, "D01")]);
}

#[test]
fn lexer_edge_fixture_raw_idents_and_byte_chars() {
    // `r#type` / `r#for` and `b'\x1b'`-style escapes must not desync the
    // token stream: only the genuine wall-clock reads at the end fire
    // (line 14 `std::time`, line 15 `std::time` + `Instant::now`).
    assert_eq!(
        lint_fixture("lexer_edge.rs"),
        vec![(14, "D01"), (15, "D01"), (15, "D01")]
    );
}

#[test]
fn pragma_fixture_semantics() {
    // Suppressed-with-reason on line 4/5 vanishes; reasonless pragma is
    // S00 and its violation survives; stale and wrong-rule pragmas are
    // S00 (a pragma that suppresses nothing is itself an error).
    assert_eq!(
        lint_fixture("pragma.rs"),
        vec![
            (9, "S00"),
            (10, "D01"),
            (13, "S00"),
            (17, "S00"),
            (18, "D01"),
        ]
    );
}
