//! Never-panic surfaces of the sweep jobserver (`odlb_bench::sweep`):
//! `parse_matrix` over mutated matrices and raw bytes returns `Ok` or
//! `Err`, and what it accepts passes validation; a cell whose `CELL_OK` or
//! `cell.csv` is cut at any byte or replaced with garbage (non-UTF-8
//! included) re-runs on resume, no other cell does, and the merge equals a
//! clean run's bytes.

use odlb_bench::sweep::{expand, parse_matrix, run_sweep, SweepOptions};
use odlb_testkit::matrix::arbitrary_matrix;
use odlb_testkit::{check, Gen};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Fragments a mutation may splice in: the format's own punctuation and
/// keys, numbers beside the valid domains, and non-ASCII text.
const FRAGMENTS: &[&str] = &[
    "[", "]", "\"", ",", "=", "#", "\n", " ", "0", "-1", "1e3", "2.5", "99999999", "sampled:",
    "exact", "[matrix]", "warmup", "seeds", "replicas", "name", "é", "\u{0}", "\u{feff}",
];

#[test]
fn parse_matrix_never_panics_on_mutated_matrices_or_raw_bytes() {
    check("sweep_parse_fuzz", 1200, |g: &mut Gen| {
        // A valid matrix with 1-5 spans of up to 3 bytes replaced by
        // fragments, or else raw bytes.
        let mut bytes = arbitrary_matrix(g).toml.into_bytes();
        for _ in 0..g.usize_in(1, 6) {
            let at = g.usize_in(0, bytes.len() + 1);
            let end = (at + g.usize_in(0, 4)).min(bytes.len());
            bytes.splice(at..end, FRAGMENTS[g.usize_in(0, FRAGMENTS.len())].bytes());
        }
        if g.chance(0.5) {
            bytes = g.vec_of(0, 96, |g| g.u32_in(0, 256) as u8);
        }
        // What parses passes validation.
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(spec) = parse_matrix(&text) {
            let valid = spec.warmup < spec.intervals && spec.clients >= 1;
            assert!(valid && !spec.replicas.contains(&0), "{text:?}");
        }
    });
}

#[test]
fn damaged_cells_and_only_they_rerun_and_merge_clean_bytes() {
    let matrix = "intervals = 3\nwarmup = 1\nclients = 6\nseeds = [3, 4]\nworkloads = [\"zipf\"]\n\
        mrc = [\"exact\", \"sampled:0.1\"]\ncontrollers = [\"selective\", \"coarse\"]";
    let spec = parse_matrix(matrix).expect("matrix parses");
    let sweep = |out_dir: PathBuf| {
        let opts = SweepOptions {
            jobs: 2,
            out_dir,
            memo: true,
            max_cells: None,
        };
        run_sweep(&spec, &opts).expect("sweep runs")
    };
    let tmp = std::env::temp_dir().join(format!("odlb-sweep-damage-{}", std::process::id()));
    let clean = tmp.join("clean");
    assert_eq!(sweep(clean.clone()).ran, 8);
    let read = |dir: &Path, file: &str| std::fs::read(dir.join(file)).expect("readable");
    let ids: BTreeSet<String> = expand(&spec).0.iter().map(|c| c.dir_name()).collect();

    check("sweep_damaged_cells", 6, |g: &mut Gen| {
        let dir = tmp.join(format!("damaged-{}", g.u64_in(0, u64::MAX)));
        let mut damaged = BTreeSet::new();
        while damaged.is_empty() {
            damaged = ids.iter().filter(|_| g.chance(0.3)).cloned().collect();
        }
        for id in &ids {
            let (from, to) = (clean.join("cells").join(id), dir.join("cells").join(id));
            std::fs::create_dir_all(&to).expect("mkdir");
            let hit = damaged.contains(id).then(|| g.usize_in(0, 2));
            for (k, file) in ["CELL_OK", "cell.csv"].into_iter().enumerate() {
                let mut bytes = read(&from, file);
                match (hit == Some(k)).then(|| g.usize_in(0, 3)) {
                    None => {}
                    Some(0) => bytes.truncate(g.usize_in(0, bytes.len())),
                    Some(1) => bytes = g.vec_of(0, 48, |g| g.u32_in(0, 256) as u8),
                    _ => bytes = g.vec_of(0, 48, |g| b"abc,0.1\n"[g.usize_in(0, 8)]),
                }
                std::fs::write(to.join(file), bytes).expect("write");
            }
        }
        let resumed = sweep(dir.clone());
        let ran = resumed.log.lines().filter(|l| l.contains("[     ran]"));
        let reran: BTreeSet<String> = ran.map(|l| l[5..21].to_string()).collect();
        assert_eq!((reran, resumed.ran), (damaged.clone(), damaged.len()));
        let merged = |d: &Path| [read(d, "sweep.csv"), read(d, "summary.txt")];
        assert_eq!(merged(&dir), merged(&clean), "merged bytes differ");
    });
    let _ = std::fs::remove_dir_all(&tmp);
}
