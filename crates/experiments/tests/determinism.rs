//! Regression tests for the determinism contract of the parallel
//! executor: the worker count must never change a single output byte.

use wiscape_experiments::{run_by_name, run_many_with_charts, Scale};

/// fig06 (the heaviest exec user: parallel regions and days) and tab03
/// must produce byte-identical summaries and JSON with 1 worker and
/// with 4. Then the concurrent runner: fig06, tab03, fig15 (the control
/// channel) and fig16 (regions) through one `run_many_with_charts` call
/// at 1 and at 4 workers, where the 4-worker call runs the experiments
/// at the same time; every payload must come back in input order and
/// byte-identical. All runs happen inside one test so the
/// `WISCAPE_THREADS` mutation cannot race another test's
/// `thread_count()` read — keep this the only test in this binary that
/// touches the variable.
#[test]
fn quick_experiments_are_thread_count_invariant() {
    let mut serial = Vec::new();
    for name in ["fig06", "tab03"] {
        std::env::set_var("WISCAPE_THREADS", "1");
        let (summary_1, json_1) = run_by_name(name, 7, Scale::Quick).expect("known experiment");
        std::env::set_var("WISCAPE_THREADS", "4");
        let (summary_4, json_4) = run_by_name(name, 7, Scale::Quick).expect("known experiment");
        std::env::remove_var("WISCAPE_THREADS");
        assert_eq!(
            json_1, json_4,
            "{name}: JSON must be byte-identical for 1 vs 4 workers"
        );
        assert_eq!(summary_1, summary_4, "{name}: summaries must match");
        serial.push((name, summary_1, json_1));
    }

    let names: Vec<String> = ["fig06", "tab03", "fig15_overhead", "fig16_regions"]
        .map(String::from)
        .to_vec();
    let run_many = |threads: &str| {
        std::env::set_var("WISCAPE_THREADS", threads);
        let payloads: Vec<_> = run_many_with_charts(&names, 7, Scale::Quick)
            .into_iter()
            .zip(&names)
            .map(|(result, name)| {
                let (summary, json, charts, _secs) = result.expect("known experiment");
                (name.clone(), summary, json, charts)
            })
            .collect();
        std::env::remove_var("WISCAPE_THREADS");
        payloads
    };
    let many_1 = run_many("1");
    let many_4 = run_many("4");
    assert_eq!(many_4.len(), names.len());
    for (one, four) in many_1.iter().zip(&many_4) {
        assert_eq!(
            one, four,
            "{}: run_many_with_charts payload must be byte-identical for 1 vs 4 workers",
            one.0
        );
    }
    // Input order: each slot holds its own experiment's payload.
    for (name, summary, json) in &serial {
        let slot = names.iter().position(|n| n == name).expect("listed");
        assert_eq!(
            (&many_4[slot].1, &many_4[slot].2),
            (summary, json),
            "{name}: run_many_with_charts must return payloads in input order"
        );
    }
}
