//! The `wiscape` binary rejects `map` flag values it cannot honour:
//! each invocation must exit 2 with a `wiscape: ` message before any
//! simulation runs, instead of producing an empty map, silently
//! ignoring a flag, or running until killed.

use std::process::Command;

#[test]
fn map_rejects_flag_values_it_cannot_honour() {
    // The two windows that saturate the simulation clock go last: if
    // their check regresses the run never ends, so the other cases
    // should fail first.
    let cases: [&[&str]; 8] = [
        &["--hours", "nan"],
        &["--hours", "-1"],
        &["--hours", "0"],
        &["--crash-seed", "11"],
        &["--rebalance-seed", "5"],
        &["--shards", "0"],
        &["--hours", "inf"],
        &["--hours", "1e30"],
    ];
    for flags in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_wiscape"))
            .arg("map")
            .args(flags)
            .output()
            .expect("spawn wiscape");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "map {flags:?}: {stderr}");
        assert!(
            stderr.starts_with("wiscape: "),
            "map {flags:?}: stderr {stderr:?}"
        );
    }
}
