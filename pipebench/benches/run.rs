//! The workload runner: set-up, timed passes, checks, and the metrics
//! of an untraced (end-to-end) or traced (per-layer) run.

use std::collections::BTreeMap;
use std::time::Instant;

use wiscape_core::{CoordinatorState, ZoneIndex};
use wiscape_region::{locate_hotspots, HotspotConfig, RegionConfig, RegionId, RegionSet};

use crate::probe::{self, span, Op, Snapshot};
use crate::sys;

/// Timed passes per run, at least.
const MIN_PASSES: usize = 3;
/// Timed passes per run, at most.
const MAX_PASSES: usize = 400;
/// Passes that measure memory, after the timed ones.
const MEM_PASSES: usize = 3;

/// What one pass measured and checked.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Wall time of the whole timed pipeline.
    pub wall_s: f64,
    /// Write path: first message to the end of drain/flush.
    pub ingest_s: f64,
    /// Read path: one refresh of the published map, regions, hotspots.
    pub publish_s: f64,
    /// Crash recovery (`storm_lossy_wal` only).
    pub recover_s: f64,
    /// The 19 experiments (`repro_quick` only).
    pub repro_s: f64,
    /// Operations driven through the pipeline (messages, reports or
    /// experiments).
    pub msgs: u64,
    /// Check failures; empty when the pass was correct.
    pub failures: Vec<String>,
    /// Layer counters observed by the pass.
    pub counts: Vec<(String, f64)>,
}

/// One workload of the benchmark.
pub trait Bench {
    /// The generated input.
    type Input;
    /// Generates the input from `seed` and builds what the passes need.
    fn setup(&self, seed: u64) -> Self::Input;
    /// Runs the pipeline once over `input`. `traced` drives it through
    /// the span-recording path; `check` adds the expensive checks.
    fn pass(&self, input: &Self::Input, traced: bool, check: bool) -> PassOut;
    /// Input shape and run context for the run record.
    fn describe(&self, input: &Self::Input) -> Vec<(&'static str, String)>;
    /// Extra per-layer metrics measured outside the traced passes.
    fn extras(&self, _input: &Self::Input) -> Vec<(String, f64)> {
        Vec::new()
    }
    /// How many times an untraced run repeats set-up.
    fn setup_runs(&self) -> usize {
        5
    }
}

/// Run options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// The result of a run.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations driven.
    pub attempted: u64,
    /// Operations in passes whose checks failed.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Check failures, deduplicated.
    pub failures: Vec<String>,
    /// Workload statistics for the run record.
    pub record: Vec<(String, String)>,
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `q` quantile of `v` by nearest rank (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let i = ((s.len().max(1) - 1) as f64 * q).round() as usize;
    s.get(i).copied().unwrap_or(0.0)
}

/// What a refresh of the read side produced.
pub struct Published {
    /// Regions in the partition.
    pub regions: usize,
    /// Hotspots flagged.
    pub hotspots: Vec<RegionId>,
}

/// Builds the region set and hotspot list from an exported state.
pub fn regions(state: &CoordinatorState, index: &ZoneIndex) -> Published {
    let set = {
        let _s = span(Op::RegionBuild);
        RegionSet::build(state, index, &RegionConfig::default())
    };
    let spots = {
        let _s = span(Op::RegionHotspot);
        locate_hotspots(&set, &HotspotConfig::default())
    };
    Published {
        regions: set.regions.len(),
        hotspots: spots.iter().map(|h| h.region).collect(),
    }
}

fn account(passes: &[PassOut], attempted: &mut u64, failed: &mut u64, failures: &mut Vec<String>) {
    for p in passes {
        *attempted += p.msgs;
        if !p.failures.is_empty() {
            *failed += p.msgs;
            for f in &p.failures {
                if !failures.contains(f) {
                    failures.push(f.clone());
                }
            }
        }
    }
}

/// Calibration-kernel time that defines one reference second.
const REFERENCE_CALIBRATION_S: f64 = 0.025;

/// A fixed piece of work shaped like the pipeline's (ordered-map
/// updates, small allocations); its time tracks how fast the host runs
/// at the moment. Returns its wall time in seconds.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut bytes = 0usize;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 20_000).or_insert(0u64) += i;
        if i % 8 == 0 {
            bytes += std::hint::black_box(vec![i as u8; 64 + (x % 128) as usize]).len();
        }
    }
    std::hint::black_box((map.len(), bytes));
    t.elapsed().as_secs_f64()
}

/// Runs passes until `budget_s` is spent; `calibration` (if given)
/// receives a kernel time taken right before each pass.
fn timed_passes<B: Bench>(
    b: &B,
    input: &B::Input,
    budget_s: f64,
    traced: bool,
    mut calibration: Option<&mut Vec<f64>>,
) -> Vec<PassOut> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES
        || (started.elapsed().as_secs_f64() < budget_s && passes.len() < MAX_PASSES)
    {
        if let Some(times) = calibration.as_mut() {
            times.push(calibrate());
        }
        if traced {
            probe::set_enabled(true);
            let out = {
                let _root = span(Op::Pass);
                b.pass(input, true, false)
            };
            probe::set_enabled(false);
            passes.push(out);
        } else {
            passes.push(b.pass(input, false, false));
        }
    }
    passes
}

/// Runs workload `b` as `opts` asks.
pub fn run<B: Bench>(b: &B, opts: &Opts) -> Outcome {
    if opts.trace {
        run_traced(b, opts)
    } else {
        run_untraced(b, opts)
    }
}

fn finish(
    passes: &[PassOut],
    check: &PassOut,
    metrics: Vec<(String, f64, &'static str)>,
    mut record: Vec<(String, String)>,
) -> Outcome {
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    account(passes, &mut attempted, &mut failed, &mut failures);
    account(
        std::slice::from_ref(check),
        &mut attempted,
        &mut failed,
        &mut failures,
    );
    record.push(("passes".into(), passes.len().to_string()));
    Outcome {
        correct: failures.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        failures,
        record,
    }
}

fn run_untraced<B: Bench>(b: &B, opts: &Opts) -> Outcome {
    let (mut setups, mut calibration) = (Vec::new(), Vec::new());
    let mut input = None;
    for _ in 0..b.setup_runs().max(1) {
        drop(input.take());
        calibration.push(calibrate());
        let t = Instant::now();
        input = Some(b.setup(opts.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");

    let mut passes = timed_passes(b, &input, opts.seconds, false, Some(&mut calibration));
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    // The host's speed drifts by tens of percent over minutes, so times
    // are reported in reference seconds: wall seconds scaled by how much
    // slower than reference the calibration kernel ran in this run.
    let host_factor = REFERENCE_CALIBRATION_S / quantile(&calibration, 0.1);
    // Memory passes start from a trimmed heap with a fresh high-water
    // mark, so each measures what one pass adds on top of the input.
    let (mut peaks, mut peak_reset) = (Vec::new(), true);
    for _ in 0..MEM_PASSES {
        sys::trim_heap();
        peak_reset &= sys::reset_peak();
        let base_kb = sys::status_kb("VmRSS").unwrap_or(0);
        passes.push(b.pass(&input, false, false));
        peaks.push(sys::peak_added_mb(base_kb));
    }
    let check = b.pass(&input, false, true);

    let metrics = vec![
        ("setup_s".to_string(), median(&setups) * host_factor, "s"),
        // The fast tail: interference only ever slows a pass down, and it
        // comes and goes within a run.
        (
            "pass_p10_s".to_string(),
            quantile(&walls, 0.1) * host_factor,
            "s",
        ),
        ("mem_peak_mb".to_string(), median(&peaks), "MB"),
    ];
    let mut record: Vec<(String, String)> = b
        .describe(&input)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let q: Vec<String> = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&q| format!("{:.4}", quantile(&walls, q)))
        .collect();
    record.push(("pass_s_min_p10_q1_med_q3_max".into(), q.join(" ")));
    record.push(("setup_s_wall".into(), format!("{:.4}", median(&setups))));
    record.push((
        "calibration_p10_s".into(),
        format!("{:.5}", quantile(&calibration, 0.1)),
    ));
    record.push(("host_factor".into(), format!("{host_factor:.4}")));
    record.push(("setup_runs".into(), setups.len().to_string()));
    record.push(("peak_reset".into(), peak_reset.to_string()));
    let peaks: Vec<String> = peaks.iter().map(|p| format!("{p:.2}")).collect();
    record.push(("mem_peaks_mb".into(), peaks.join(" ")));
    for (k, v) in check.counts.iter().filter(|(_, v)| *v != 0.0) {
        record.push((k.clone(), format!("{v}")));
    }
    finish(&passes, &check, metrics, record)
}

/// Every per-layer metric, in output order, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &'static str); 63] = [
        ("codec.decode_s", "s"),
        ("codec.encode_s", "s"),
        ("codec.frames_in", "count"),
        ("codec.bytes_in", "bytes"),
        ("codec.frames_out", "count"),
        ("codec.bytes_out", "bytes"),
        ("codec.decode_errors", "count"),
        ("server.checkin_self_s", "s"),
        ("server.checkin_p50_us", "us"),
        ("server.checkin_p99_us", "us"),
        ("server.report_self_s", "s"),
        ("server.drain_self_s", "s"),
        ("server.report_p50_us", "us"),
        ("server.report_p99_us", "us"),
        ("server.copies_in", "count"),
        ("server.duplicates", "count"),
        ("server.useful_ratio", "ratio"),
        ("server.staged_max", "count"),
        ("server.dedup_entries", "count"),
        ("coordinator.checkin_s", "s"),
        ("coordinator.tasks_issued", "count"),
        ("coordinator.fold_s", "s"),
        ("coordinator.flush_s", "s"),
        ("coordinator.reports_folded", "count"),
        ("coordinator.samples_folded", "count"),
        ("coordinator.reports_rejected", "count"),
        ("coordinator.export_s", "s"),
        ("coordinator.cells", "count"),
        ("coordinator.sketch_bytes", "bytes"),
        ("shard.ingest_batch_s", "s"),
        ("shard.bucket_skew", "ratio"),
        ("shard.speedup", "ratio"),
        ("shard.batches", "count"),
        ("shard.reports", "count"),
        ("shard.flush_s", "s"),
        ("shard.merge_s", "s"),
        ("wal.append_self_s", "s"),
        ("wal.snapshots", "count"),
        ("wal.records", "count"),
        ("wal.bytes_appended", "bytes"),
        ("wal.bytes_per_record", "bytes"),
        ("wal.append_errors", "count"),
        ("wal.log_bytes", "bytes"),
        ("wal.snapshot_records", "count"),
        ("wal.replayed_records", "count"),
        ("region.build_s", "s"),
        ("region.hotspot_s", "s"),
        ("region.regions", "count"),
        ("region.hotspots", "count"),
        ("region.hotspot_recall", "ratio"),
        ("link.send_s", "s"),
        ("link.dropped", "count"),
        ("link.duplicated", "count"),
        ("uplink.due_s", "s"),
        ("uplink.retries", "count"),
        ("uplink.abandoned", "count"),
        ("pipeline.ingest_msgs_per_s", "msg/s"),
        ("pipeline.publish_s", "s"),
        ("pipeline.recover_s", "s"),
        ("pipeline.repro_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead", "ratio"),
    ];
    let mut names: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    names.extend(
        wiscape_experiments::ALL_EXPERIMENTS
            .iter()
            .map(|id| (format!("experiments.{id}_s"), "s")),
    );
    names
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Derives the span-based per-layer metrics from a traced run.
pub fn span_metrics(snap: &Snapshot, setup: &Snapshot, passes: f64) -> BTreeMap<String, f64> {
    let per = |op: Op| snap.get(op).self_ns as f64 / 1e9 / passes;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("codec.decode_s", per(Op::CodecDecode));
    put("codec.encode_s", per(Op::CodecEncode));
    put("server.checkin_self_s", per(Op::ServerCheckin));
    put("server.report_self_s", per(Op::ServerReport));
    put("server.drain_self_s", per(Op::ServerDrain));
    let checkin = &snap.get(Op::ServerCheckin).hist;
    put("server.checkin_p50_us", us(checkin.quantile_ns(0.5)));
    put("server.checkin_p99_us", us(checkin.quantile_ns(0.99)));
    let report = &snap.get(Op::ServerReport).hist;
    put("server.report_p50_us", us(report.quantile_ns(0.5)));
    put("server.report_p99_us", us(report.quantile_ns(0.99)));
    put("coordinator.checkin_s", per(Op::CoordCheckin));
    put("coordinator.fold_s", per(Op::CoordFold));
    put("coordinator.flush_s", per(Op::CoordFlush));
    put(
        "coordinator.export_s",
        per(Op::CoordExport) + per(Op::CoordPublished),
    );
    put("shard.ingest_batch_s", per(Op::ShardIngestBatch));
    put("shard.flush_s", per(Op::ShardFlush));
    put("shard.merge_s", per(Op::ShardMerge));
    let durable = per(Op::WalCheckin) + per(Op::WalIngest) + per(Op::WalFlush);
    if durable > 0.0 {
        // The shadow's fold share of each durable call; the rest is WAL.
        let fold = per(Op::CoordCheckin) + per(Op::CoordFold) + per(Op::CoordFlush);
        put("wal.append_self_s", (durable - fold).max(0.0));
    }
    put("region.build_s", per(Op::RegionBuild));
    put("region.hotspot_s", per(Op::RegionHotspot));
    put("link.send_s", setup.get(Op::LinkSend).self_ns as f64 / 1e9);
    put(
        "uplink.due_s",
        setup.get(Op::UplinkDue).self_ns as f64 / 1e9,
    );
    put(
        "trace.wall_s",
        snap.get(Op::Pass).total_ns as f64 / 1e9 / passes,
    );
    put("trace.unattributed_s", per(Op::Pass));
    m
}

fn run_traced<B: Bench>(b: &B, opts: &Opts) -> Outcome {
    probe::reset();
    probe::set_enabled(true);
    let t = Instant::now();
    let input = b.setup(opts.seed);
    let setup_s = t.elapsed().as_secs_f64();
    probe::set_enabled(false);
    let setup_snap = probe::snapshot();
    probe::reset();

    // Untraced passes first (after one warm-up): the phase medians and
    // the overhead base.
    std::hint::black_box(b.pass(&input, false, false));
    let plain = timed_passes(b, &input, opts.seconds * 0.35, false, None);
    let extras = b.extras(&input);
    let traced = timed_passes(b, &input, opts.seconds * 0.35, true, None);
    let snap = probe::snapshot();
    let check = b.pass(&input, false, true);

    let n = traced.len() as f64;
    let mut values = span_metrics(&snap, &setup_snap, n);
    // Counters: averaged over the traced passes (they repeat exactly).
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    for p in &traced {
        for (k, v) in &p.counts {
            *sums.entry(k.clone()).or_default() += v;
        }
    }
    for (k, v) in sums {
        values.insert(k, v / n);
    }
    for (k, v) in extras {
        values.insert(k, v);
    }
    let med = |f: fn(&PassOut) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let msgs = plain.first().map_or(0, |p| p.msgs) as f64;
    let ingest = med(|p| p.ingest_s);
    if ingest > 0.0 && msgs > 0.0 {
        values.insert("pipeline.ingest_msgs_per_s".into(), msgs / ingest);
    }
    values.insert("pipeline.publish_s".into(), med(|p| p.publish_s));
    values.insert("pipeline.recover_s".into(), med(|p| p.recover_s));
    values.insert("pipeline.repro_s".into(), med(|p| p.repro_s));
    let plain_wall = med(|p| p.wall_s);
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    if plain_wall > 0.0 {
        values.insert("trace.overhead".into(), traced_wall / plain_wall);
    }
    let metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    let mut record: Vec<(String, String)> = b
        .describe(&input)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    record.push(("setup_s".into(), format!("{setup_s:.4}")));
    record.push(("untraced_passes".into(), plain.len().to_string()));
    record.push((
        "attributed_s".into(),
        format!("{:.6}", snap.in_pass_self_ns as f64 / 1e9 / n),
    ));
    let mut all = plain;
    all.extend(traced);
    finish(&all, &check, metrics, record)
}
