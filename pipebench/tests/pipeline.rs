//! The benchmark's own tests, at small sizes (run with `--release`: the
//! repro workload is full size by construction).

use std::path::{Path, PathBuf};
use std::time::Instant;

use pipebench::gen::generate;
use pipebench::nation::Nation;
use pipebench::probe::{self, span, Op};
use pipebench::run::{Bench, Opts};
use pipebench::wire::Wire;
use pipebench::{run_workload, WORKLOADS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn same_seed_gives_the_same_trace() {
    for wire in [
        Wire::city(true, scratch("digest-city")),
        Wire::storm(true, scratch("digest-storm")),
    ] {
        let a = generate(&wire.spec, 11).digest();
        assert_eq!(a, generate(&wire.spec, 11).digest());
        assert_ne!(a, generate(&wire.spec, 12).digest());
    }
    let nation = Nation::new(true);
    let a = nation.setup(11).digest();
    assert_eq!(a, nation.setup(11).digest());
    assert_ne!(a, nation.setup(12).digest());
}

#[test]
fn every_workload_passes_its_checks_at_a_small_size() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        // Seed 7 lets the repro workload check the committed manifest.
        let opts = Opts {
            seed: 7,
            seconds: 0.01,
            trace: i % 2 == 1,
        };
        let dir = scratch(&format!("checks-{workload}"));
        let out = run_workload(workload, true, &repo_root(), &dir, &opts).expect("known workload");
        assert!(out.correct, "{workload}: {:?}", out.failures);
        assert_eq!(out.failed, 0, "{workload}");
        assert!(out.attempted > 0, "{workload}");
        let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        if opts.trace {
            assert!(names.contains(&"trace.unattributed_s"), "{workload}");
        } else {
            assert_eq!(
                names,
                ["setup_s", "pass_p10_s", "mem_peak_mb"],
                "{workload}"
            );
        }
    }
}

#[test]
fn traced_self_times_and_remainder_account_for_the_wall_time() {
    let wire = Wire::storm(true, scratch("accounting"));
    let input = wire.setup(5);
    probe::reset();
    probe::set_enabled(true);
    let started = Instant::now();
    let out = {
        let _root = span(Op::Pass);
        wire.pass(&input, true, false)
    };
    let wall_ns = started.elapsed().as_nanos() as f64;
    probe::set_enabled(false);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    let snap = probe::snapshot();
    let root = snap.get(Op::Pass);
    let (attributed, remainder) = (snap.in_pass_self_ns, root.self_ns);
    assert_eq!(attributed + remainder, root.total_ns);
    assert!((root.total_ns as f64 - wall_ns).abs() < 0.01 * wall_ns);
    // Most of the pass is attributed to a layer.
    assert!(remainder < attributed, "{remainder} ns unattributed");
    for op in [
        Op::CodecDecode,
        Op::ServerReport,
        Op::ServerDrain,
        Op::WalIngest,
        Op::CoordFold,
        Op::RegionBuild,
        Op::WalRecover,
    ] {
        assert!(snap.get(op).count > 0, "{op:?} never ran");
    }
    probe::reset();
}
