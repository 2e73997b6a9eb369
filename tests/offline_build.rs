//! The build is offline: every package either lock file resolves — the
//! workspace's and the benchmark's, transitive dependencies included —
//! is a local path package, so neither names a registry or git source.

#[test]
fn lock_files_hold_only_path_packages() {
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(lock);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{lock}: {e}"));
        assert!(text.contains("[[package]]"), "{lock}: no packages");
        let sourced = text.lines().find(|l| l.starts_with("source = "));
        assert_eq!(sourced, None, "{lock}: a package from outside the tree");
    }
}
