//! The `wiscape` binary rejects command lines it cannot honour: `map`
//! flag values, flags outside a command's usage line, and `--recover`
//! directories that hold no single coordinator's WAL. Each invocation
//! must exit 2 with a `wiscape: ` message before any simulation runs,
//! instead of producing an empty map, silently ignoring a flag, or
//! running until killed.

use std::path::Path;
use std::process::{Command, Output};

fn wiscape(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wiscape"))
        .args(args)
        .output()
        .expect("spawn wiscape")
}

fn wiscape_map(flags: &[&str]) -> Output {
    wiscape(&[&["map"], flags].concat())
}

/// Asserts `wiscape args` exited 2 with a `wiscape: ` message; returns
/// it.
fn refused(args: &[&str]) -> String {
    let out = wiscape(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("wiscape: "),
        "{args:?}: stderr {stderr:?}"
    );
    stderr
}

/// [`refused`] for `map flags`.
fn rejected(flags: &[&str]) -> String {
    refused(&[&["map"], flags].concat())
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

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
        rejected(flags);
    }
}

#[test]
fn map_rejects_flags_outside_its_usage_line() {
    // A misspelt `--crash-seed`: ignored, it ran an 8-hour map without
    // a WAL.
    let stderr = rejected(&["--wal-crash", "3"]);
    assert!(stderr.contains("--wal-crash"), "{stderr}");
}

#[test]
fn other_commands_reject_flags_outside_their_usage_lines() {
    // Each typo used to run the command with the flag's default.
    let typos: [(&[&str], &str); 3] = [
        (&["quality", "--hr", "3"], "--hr"),
        (&["epoch", "--dys", "1"], "--dys"),
        (&["trace", "spot", "--dayz", "1"], "--dayz"),
    ];
    for (args, typo) in typos {
        let stderr = refused(args);
        assert!(stderr.contains(typo), "{stderr}");
    }
    // `epoch` reads both flags, so its usage line lists both.
    let run = wiscape(&["epoch", "--days", "1", "--region", "nj"]);
    assert!(run.status.success(), "{run:?}");
}

#[test]
fn recover_rejects_sharded_and_empty_wal_dirs() {
    let root = std::env::temp_dir().join(format!("wiscape-cli-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let path = |name: &str| root.join(name).to_str().unwrap().to_string();

    // One coordinator's WAL recovers (the control).
    let (single, single_csv) = (path("single"), path("single.csv"));
    let run = wiscape_map(&["--hours", "0.1", "--wal", &single, "--out", &single_csv]);
    assert!(run.status.success(), "{run:?}");
    let recovered = wiscape_map(&["--recover", &single, "--out", &path("recovered.csv")]);
    assert!(recovered.status.success(), "{recovered:?}");

    // A sharded run's WAL directory holds only `shard-<i>` directories.
    let sharded = path("sharded");
    let run = wiscape_map(&["--hours", "0.1", "--shards", "2", "--wal", &sharded]);
    assert!(run.status.success(), "{run:?}");
    assert_eq!(files_in(Path::new(&sharded)), ["shard-0", "shard-1"]);
    let stderr = rejected(&["--recover", &sharded]);
    for shard in ["shard-0", "shard-1"] {
        assert!(stderr.contains(shard), "{stderr}");
    }
    assert_eq!(files_in(Path::new(&sharded)), ["shard-0", "shard-1"]);

    // No manifest and no segment.
    let empty = path("empty");
    std::fs::create_dir_all(&empty).unwrap();
    rejected(&["--recover", &empty]);
    assert!(files_in(Path::new(&empty)).is_empty());

    std::fs::remove_dir_all(&root).unwrap();
}
