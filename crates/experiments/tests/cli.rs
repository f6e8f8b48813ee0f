//! The `repro` binary rejects topology flags it cannot honour: each
//! invocation must exit 2 with a `repro: ` message before any
//! experiment runs, and without creating its `--out` directory.

use std::process::Command;

#[test]
fn repro_rejects_topology_flags_it_cannot_honour() {
    let cases: [&[&str]; 4] = [
        &["--wal-crash-seed", "11"],
        &["--rebalance-seed", "5"],
        &["--shards", "0"],
        &["--shards", "x"],
    ];
    for (i, flags) in cases.into_iter().enumerate() {
        let out_dir =
            std::env::temp_dir().join(format!("wiscape-repro-cli-{i}-{}", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--out")
            .arg(&out_dir)
            .args(flags)
            .arg("fig15_overhead")
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {flags:?}: {stderr}");
        assert!(
            stderr.starts_with("repro: "),
            "repro {flags:?}: stderr {stderr:?}"
        );
        assert!(
            !out_dir.exists(),
            "repro {flags:?} created {}",
            out_dir.display()
        );
    }
}
