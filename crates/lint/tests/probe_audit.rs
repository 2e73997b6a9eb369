//! Coverage of the presence rules, measured: one nondeterministic
//! statement is inserted after the opening brace of every multi-line
//! function of every linted file, one probe at a time, and the rule it
//! belongs to must flag it on that line — unless the file's exemption
//! row allows that kind. Rules are file-local, so the whole sweep is one
//! re-lex of one file per probe.

use odlb_lint::{collect_files, find_workspace_root, lexer, policy_for, rules, Kind};
use std::path::Path;

/// `(kind a row could allow, statement)`; the finding must carry the
/// kind's rule.
const PROBES: [(Kind, &str); 4] = [
    (Kind::Clock, "let _p = Instant::now();"),
    (Kind::Randomness, "let _p = thread_rng();"),
    (
        Kind::HashTable,
        "let _m: HashMap<u32, u32> = HashMap::new(); for _x in _m.iter() { drop(_x); }",
    ),
    (
        Kind::ThreadIdentity,
        "let _p = std::thread::current().id();",
    ),
];

/// 1-based lines after which a probe goes: the opening-brace line of
/// every non-test function whose body spans several lines.
fn probe_sites(text: &str) -> Vec<u32> {
    let toks = lexer::lex(text).tokens;
    let in_test = rules::test_spans(&toks);
    rules::fn_spans(&toks)
        .into_iter()
        .filter(|&(start, _)| !in_test[start])
        .filter_map(|(start, end)| {
            let open = (start..end).find(|&i| toks[i].is_punct('{'))?;
            let brace_ends_its_line = toks[open + 1].line > toks[open].line;
            (brace_ends_its_line && open + 1 < end).then_some(toks[open].line)
        })
        .collect()
}

#[test]
fn every_function_outside_the_table_is_guarded() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/lint sits inside the workspace");
    let mut paths = Vec::new();
    collect_files(
        &root,
        &|p| p.extension().is_some_and(|e| e == "rs"),
        &mut paths,
    );

    // per probe: (probed, flagged, allowed by the file's row)
    let mut tally = [(0usize, 0usize, 0usize); PROBES.len()];
    let mut unguarded = Vec::new();
    let mut files = 0usize;
    for path in paths {
        let rel = path
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let Some(policy) = policy_for(&rel) else {
            continue;
        };
        files += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for site in probe_sites(&text) {
            for (p, &(kind, stmt)) in PROBES.iter().enumerate() {
                let rule = kind.rule();
                if policy.allow.contains(&kind) {
                    tally[p].2 += 1;
                    continue;
                }
                let at = site as usize;
                let probed = [&lines[..at], &[stmt], &lines[at..]].concat().join("\n");
                let flagged = rules::check_file(&rel, &lexer::lex(&probed), policy)
                    .iter()
                    .any(|d| d.rule == rule && d.line == site + 1);
                tally[p].0 += 1;
                if flagged {
                    tally[p].1 += 1;
                } else {
                    unguarded.push(format!("{rel}:{site}: {rule} missed `{stmt}`"));
                }
            }
        }
    }

    println!("probe audit over {files} linted files (probed / flagged / allowed by a row):");
    for (&(kind, stmt), (probed, flagged, allowed)) in PROBES.iter().zip(tally) {
        let rule = kind.rule();
        println!("  {rule}  {probed} / {flagged} / {allowed}  {stmt}");
        assert!(probed > 500, "{rule}: only {probed} functions probed");
    }
    assert!(
        unguarded.is_empty(),
        "{} probes went unflagged:\n{}",
        unguarded.len(),
        unguarded.join("\n")
    );
}
