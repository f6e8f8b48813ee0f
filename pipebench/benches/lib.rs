//! The WiScape pipeline benchmark.
//!
//! One command runs one workload end to end through the repository's
//! public APIs — generated in virtual time from a seed, replayed back to
//! back in wall time — checks the outputs, and reports either the
//! end-to-end metrics (untraced) or the per-layer ones (traced). See
//! `BENCHMARK.json` at the repository root for the workloads and metrics,
//! and `pipebench/README.md` for the layer → metric → workload map and how
//! to run it.

pub mod field;
pub mod gen;
pub mod handle;
pub mod nation;
pub mod probe;
pub mod repro;
pub mod run;
pub mod sha256;
pub mod sys;
pub mod wire;

use std::path::Path;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "city_clean",
    "storm_lossy_wal",
    "nation_shards",
    "repro_quick",
];

/// Runs `workload` at full (`small = false`) or test size. `root` is the
/// repository checkout; `scratch` is a private directory for the WAL.
pub fn run_workload(
    workload: &str,
    small: bool,
    root: &Path,
    scratch: &Path,
    opts: &run::Opts,
) -> Option<run::Outcome> {
    let wal = scratch.join("wal");
    Some(match workload {
        "city_clean" => run::run(&wire::Wire::city(small, wal), opts),
        "storm_lossy_wal" => run::run(&wire::Wire::storm(small, wal), opts),
        "nation_shards" => run::run(&nation::Nation::new(small), opts),
        "repro_quick" => run::run(
            &repro::Repro {
                manifest: root.join("results").join("QUICK_MANIFEST.sha256"),
            },
            opts,
        ),
        _ => return None,
    })
}
