//! Golden snapshot for the observability layer: everything outside the
//! `timing` section must be byte-identical across worker counts and
//! across consecutive runs. This is the executable form of the
//! determinism contract in `OBSERVABILITY.md` — if an instrumented
//! surface ever reports a schedule-dependent value (a worker count, a
//! wall-clock read, an iteration-order artifact), this test catches it.

use wiscape_experiments::{run_many_with_charts, Scale};

/// Runs a representative instrumented workload — fig06 (the heaviest
/// `simcore::exec` user) and fig15 (the control channel + coordinator
/// ingest path) — through one `run_many_with_charts` call under
/// `threads` workers, so with more than one worker both experiments
/// update the registry at the same time, and returns the timing-free
/// snapshot.
fn snapshot_with_threads(threads: &str) -> String {
    std::env::set_var("WISCAPE_THREADS", threads);
    wiscape_obs::reset();
    let names = ["fig06", "fig15_overhead"].map(String::from);
    for result in run_many_with_charts(&names, 7, Scale::Quick) {
        result.expect("known experiment");
    }
    wiscape_obs::snapshot_json(false)
}

/// All runs happen inside one test so the `WISCAPE_THREADS` mutation
/// cannot race another test's `thread_count()` read — keep this the
/// only test in this binary that touches the variable.
#[test]
fn obs_snapshot_is_thread_count_invariant_and_run_stable() {
    wiscape_obs::set_enabled(true);
    let snap_1 = snapshot_with_threads("1");
    let snap_4 = snapshot_with_threads("4");
    let snap_8 = snapshot_with_threads("8");
    let snap_4_again = snapshot_with_threads("4");
    std::env::remove_var("WISCAPE_THREADS");
    wiscape_obs::set_enabled(false);

    assert_eq!(
        snap_1, snap_4,
        "obs snapshot must be byte-identical for 1 vs 4 workers"
    );
    assert_eq!(
        snap_4, snap_8,
        "obs snapshot must be byte-identical for 4 vs 8 workers"
    );
    assert_eq!(
        snap_4, snap_4_again,
        "obs snapshot must be byte-identical across consecutive runs"
    );

    // The workload actually exercised the instrumented surfaces: the
    // executor, the experiment runner, the control channel, and the
    // coordinator ingest path all left non-zero meters behind.
    for metric in [
        "exec/par_map_calls",
        "experiments/runs",
        "channel/server_reports_ingested",
        "coordinator/reports_accepted",
    ] {
        assert!(
            snap_1.contains(&format!("\"{metric}\"")),
            "snapshot is missing {metric}:\n{snap_1}"
        );
    }
}
