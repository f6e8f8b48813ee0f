//! Perf smoke: the hot-path throughput floors CI asserts.
//!
//! ```text
//! cargo run -p wiscape-bench --release --bin perf_smoke
//! ```
//!
//! Measures batch field evaluation, wire decode, WAL append/replay,
//! sharded ingest and adaptive regionalization, prints one `[smoke]`
//! line per reading, and exits nonzero if any of five floors fails:
//! owned decode under 2M frames/s, the SoA train path under 0.95x the
//! resolved scalar path on a 1,000-time probe train, WAL replay under 1M
//! reports/s, a >= 100k-zone region build over 2 s, or — when at least
//! 4 workers are configured — the 4-shard batch ingest under 2x the
//! single-shard rate. It takes no arguments; `WISCAPE_THREADS` pins the
//! worker count. `scripts/check.sh` runs it after the test suite;
//! `WISCAPE_SKIP_PERF_SMOKE=1` skips it there.
//!
//! The floors are deliberately tolerant: they catch an accidental
//! return to the per-byte CRC / owned-alloc decode, the scalar eval
//! path or a serial shard fold, not run-to-run noise. Throughput
//! tracking lives in the pipeline benchmark (`pipebench/`) and the
//! criterion benches (`cargo bench -p wiscape-bench`).

use std::hint::black_box;
use std::time::Instant;

use wiscape_bench::{bench_landscape, bench_point};
use wiscape_simcore::{exec, SimDuration, SimTime};
use wiscape_simnet::{NetworkField, NetworkId};

/// Batch evaluation on the probe-train shape — one point, many
/// distinct times — where the SoA path hoists the per-train work
/// (point resolution, drift noise octave forks, per-event spatial
/// weights) once and then sweeps each component across the whole train.
/// `scalar_eval_s` evaluates the same times through the best scalar
/// path — [`NetworkField::resolve`] once per train, then
/// [`NetworkField::link_quality_with`] per time — so the ratio isolates
/// the structure-of-arrays win.
struct BatchEval {
    /// `link_quality_train` evaluations per second on the train.
    batch_eval_s: f64,
    /// `resolve` + `link_quality_with` evaluations per second on the
    /// same times.
    scalar_eval_s: f64,
    /// `batch_eval_s / scalar_eval_s`.
    batch_speedup_vs_scalar: f64,
}

/// Wire-decode throughput: the owned decoder vs the borrowed zero-copy
/// view over the same 20-sample report frame, plus raw CRC-32
/// (slicing-by-8) throughput.
struct DecodeRates {
    /// `decode` (owned `WireMessage`) calls per second.
    decode_report_s: f64,
    /// `decode_ref` (borrowed `WireMessageRef`) calls per second.
    decode_report_view_s: f64,
    /// `decode_report_view_s / decode_report_s`.
    view_speedup_vs_owned: f64,
    /// `crc32` throughput over a 64 KiB buffer, gigabytes per second.
    crc32_gbps: f64,
}

/// Sharded-ingest throughput at one shard count:
/// `ShardSet::ingest_batch` reports per second with the batch bucketed
/// by owning zone-range shard and each bucket folded on its own
/// worker.
struct ShardScale {
    /// Shard count for this row.
    shards: usize,
    /// Total reports folded per second across all shards.
    aggregate_reports_s: f64,
    /// `aggregate_reports_s / (the N=1 aggregate)`.
    speedup_vs_single: f64,
}

/// Sharded-ingest scaling across shard counts 1/2/4/8. Buckets fold in
/// parallel on the deterministic executor, so the aggregate tracks
/// `WISCAPE_THREADS`: near-linear up to the worker count, flat beyond
/// it.
struct ShardRates {
    /// Worker threads available to the batch fold.
    threads: usize,
    /// One row per shard count, in `[1, 2, 4, 8]` order.
    per_count: Vec<ShardScale>,
}

/// WAL durability cost and recovery speed. Append measures the full
/// write-ahead path (encode + group append + sketch fold); replay
/// measures `DurableCoordinator::recover` over a log of ingest records.
struct RecoveryRates {
    /// `ingest_samples_tagged` calls per second through the
    /// `DurableCoordinator` (20-sample reports, encode + append + fold).
    append_report_s: f64,
    /// Reports replayed per second during recovery (scan + decode +
    /// re-fold, no snapshot shortcut).
    replay_report_s: f64,
    /// Records in the timed replay.
    replay_records: u64,
    /// Bytes appended per ingest record (frame overhead included).
    append_bytes_per_record: f64,
}

/// Runs `f` repeatedly for at least `budget_s`, returning calls/sec.
fn rate(budget_s: f64, mut f: impl FnMut()) -> f64 {
    // Warm-up + calibration pass.
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed().as_secs_f64() < budget_s * 0.2 {
        f();
        calls += 1;
    }
    let per_call = t0.elapsed().as_secs_f64() / calls as f64;
    let iters = ((budget_s / per_call) as u64).max(1);
    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / t1.elapsed().as_secs_f64()
}

fn batch_eval_rates(field: &NetworkField, p: wiscape_geo::GeoPoint) -> BatchEval {
    let t = SimTime::at(1, 12.0);
    let budget = 0.5;
    // Train shape: one point, 1000 distinct times — exactly what the
    // batched probe path hands to the evaluator.
    let times: Vec<SimTime> = (0..1000i64)
        .map(|k| t + SimDuration::from_secs(k))
        .collect();
    let n = times.len();
    let batch_eval_s = n as f64
        * rate(budget, || {
            black_box(field.link_quality_train(black_box(&p), black_box(&times)));
        });
    let scalar_eval_s = n as f64
        * rate(budget, || {
            let ctx = field.resolve(black_box(&p));
            for tq in &times {
                black_box(field.link_quality_with(&ctx, *tq));
            }
        });
    BatchEval {
        batch_eval_s,
        scalar_eval_s,
        batch_speedup_vs_scalar: batch_eval_s / scalar_eval_s,
    }
}

/// The 20-sample report message the decode rates frame and decode.
fn report_message() -> wiscape_channel::codec::WireMessage {
    use wiscape_channel::codec::{ReportMsg, WireMessage};
    use wiscape_core::{MeasurementTask, SampleReport, ZoneId};
    use wiscape_geo::CellId;
    use wiscape_mobility::ClientId;
    use wiscape_simnet::TransportKind;

    let zone = ZoneId(CellId { col: 12, row: -4 });
    WireMessage::Report(ReportMsg {
        seq: 4242,
        report: SampleReport {
            client: ClientId(7),
            task: MeasurementTask {
                zone,
                network: NetworkId::NetB,
                kind: TransportKind::Udp,
                n_packets: 20,
                packet_bytes: 1200,
            },
            zone,
            t: SimTime::at(1, 9.5),
            samples: (0..20).map(|i| 900.0 + i as f64).collect(),
        },
    })
}

fn decode_rates() -> DecodeRates {
    use wiscape_channel::codec::{crc32, decode, decode_ref, encode};

    let budget = 0.5;
    let frame = encode(&report_message());
    let decode_report_s = rate(budget, || {
        black_box(decode(black_box(&frame)).expect("valid frame"));
    });
    let decode_report_view_s = rate(budget, || {
        black_box(decode_ref(black_box(&frame)).expect("valid frame"));
    });
    let buf: Vec<u8> = (0..65_536u32)
        .map(|i| (i.wrapping_mul(31) % 251) as u8)
        .collect();
    let crc_calls_s = rate(budget, || {
        black_box(crc32(black_box(&buf)));
    });
    DecodeRates {
        decode_report_s,
        decode_report_view_s,
        view_speedup_vs_owned: decode_report_view_s / decode_report_s,
        crc32_gbps: crc_calls_s * buf.len() as f64 / 1e9,
    }
}

fn shard_rates() -> ShardRates {
    use wiscape_core::{
        CoordinatorConfig, MeasurementTask, SampleReport, ShardSet, ZoneId, ZoneIndex,
    };
    use wiscape_geo::{BoundingBox, GeoPoint};
    use wiscape_mobility::ClientId;
    use wiscape_simnet::TransportKind;

    let budget = 0.4;
    let origin = GeoPoint::new(39.0, -77.0).expect("valid origin");
    let bounds = BoundingBox::around(origin, 8000.0);
    let index = ZoneIndex::new(bounds, 200.0).expect("valid index");
    let zones: Vec<ZoneId> = index.zones().collect();
    // A batch big enough to amortize the bucketing pass, striding the
    // zone list so every shard's range gets an even share of the work.
    let batch: Vec<SampleReport> = (0..2048u64)
        .map(|i| {
            let zone = zones[(i as usize).wrapping_mul(131) % zones.len()];
            let network = if i.is_multiple_of(2) {
                NetworkId::NetA
            } else {
                NetworkId::NetB
            };
            SampleReport {
                client: ClientId(u32::try_from(i % 64).expect("small")),
                task: MeasurementTask {
                    zone,
                    network,
                    kind: TransportKind::Udp,
                    n_packets: 20,
                    packet_bytes: 1200,
                },
                zone,
                t: SimTime::at(1, 9.5),
                samples: (0..20).map(|k| 850.0 + (k + i) as f64).collect(),
            }
        })
        .collect();

    let mut per_count = Vec::new();
    let mut single_aggregate = 0.0f64;
    for n in [1usize, 2, 4, 8] {
        let mut set = ShardSet::new(index.clone(), CoordinatorConfig::default(), n);
        let batches_s = rate(budget, || {
            set.ingest_batch(black_box(&batch));
        });
        let aggregate_reports_s = batches_s * batch.len() as f64;
        if n == 1 {
            single_aggregate = aggregate_reports_s;
        }
        per_count.push(ShardScale {
            shards: n,
            aggregate_reports_s,
            speedup_vs_single: aggregate_reports_s / single_aggregate.max(1.0),
        });
    }
    ShardRates {
        threads: exec::thread_count(),
        per_count,
    }
}

/// Builds a synthetic city-scale coordinator state (≥100k zones, one
/// NetB cell per zone) with mild spatial structure plus a handful of
/// high-variance pockets so the quadtree does real split work.
fn region_state() -> (wiscape_core::ZoneIndex, wiscape_core::CoordinatorState) {
    use wiscape_core::coordinator::{CoordinatorState, ZoneCellState};
    use wiscape_core::ZoneIndex;
    use wiscape_geo::{BoundingBox, GeoPoint};
    use wiscape_stats::RunningStats;

    let origin = GeoPoint::new(39.0, -77.0).expect("valid origin");
    let bounds = BoundingBox::around(origin, 71_000.0);
    let index = ZoneIndex::new(bounds, 250.0).expect("valid index");
    let cells = index
        .zones()
        .map(|zone| {
            let (col, row) = (zone.0.col, zone.0.row);
            // Smooth large-scale structure (forces deep splits along the
            // gradients, clean merges on the plateaus) plus scattered
            // high-variance pockets (exercises the variability
            // criterion).
            let base =
                800.0 + 250.0 * (f64::from(col) / 37.0).sin() * (f64::from(row) / 29.0).cos();
            let noisy = (col * 31 + row * 17).rem_euclid(23) == 0;
            let swing = if noisy { 300.0 } else { 20.0 };
            let mut sketch = RunningStats::new();
            for k in 0..4 {
                let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                sketch.push(base + sign * swing);
            }
            ZoneCellState {
                zone,
                network: NetworkId::NetB,
                epoch: SimDuration::from_mins(30),
                epoch_start: SimTime::at(1, 0.0),
                sketch,
                issued_this_epoch: 0,
                published: None,
                quota: None,
            }
        })
        .collect();
    let state = CoordinatorState {
        cells,
        ..CoordinatorState::default()
    };
    (index, state)
}

fn recovery_rates() -> RecoveryRates {
    use wiscape_core::{CoordinatorConfig, CoordinatorHandle, ZoneIndex};
    use wiscape_geo::{BoundingBox, GeoPoint};
    use wiscape_mobility::ClientId;
    use wiscape_simnet::NetworkId;
    use wiscape_wal::{DurableCoordinator, WalOptions};

    let budget = 0.5;
    let origin = GeoPoint::new(39.0, -77.0).expect("valid origin");
    let bounds = BoundingBox::around(origin, 8000.0);
    let index = ZoneIndex::new(bounds, 200.0).expect("valid index");
    let spots: Vec<(wiscape_core::ZoneId, NetworkId)> = (0..64u64)
        .map(|i| {
            let p = origin.destination(i as f64 * 0.7, 400.0 + 90.0 * i as f64);
            let network = if i.is_multiple_of(2) {
                NetworkId::NetA
            } else {
                NetworkId::NetB
            };
            (index.zone_of(&p), network)
        })
        .collect();
    let samples: Vec<f64> = (0..20).map(|k| 900.0 + k as f64).collect();
    let t = SimTime::at(1, 9.5);
    let dir = std::env::temp_dir().join("wiscape_bench_wal_append");
    let opts = WalOptions {
        snapshot_every: u64::MAX,
        ..WalOptions::default()
    };
    let mut durable =
        DurableCoordinator::create(&dir, index.clone(), CoordinatorConfig::default(), opts)
            .expect("temp wal dir writable");
    let mut seq = 0u64;
    let append_report_s = rate(budget, || {
        seq += 1;
        let (zone, network) = spots[usize::try_from(seq).unwrap_or(0) % spots.len()];
        black_box(
            durable
                .ingest_samples_tagged(
                    ClientId(u32::try_from(seq % 8).expect("small")),
                    seq,
                    zone,
                    network,
                    t,
                    samples.iter().copied(),
                )
                .ok(),
        );
    });
    let m = durable.wal_meters();
    let append_bytes_per_record = m.bytes_appended as f64 / (m.records.max(1)) as f64;
    durable.shutdown().expect("wal shutdown");

    // Replay: a fresh log of exactly `replay_records` ingest records,
    // recovered cold (no snapshot, so every record re-folds).
    let replay_records = 200_000u64;
    let dir = std::env::temp_dir().join("wiscape_bench_wal_replay");
    let opts = WalOptions {
        snapshot_every: u64::MAX,
        ..WalOptions::default()
    };
    let mut durable =
        DurableCoordinator::create(&dir, index.clone(), CoordinatorConfig::default(), opts)
            .expect("temp wal dir writable");
    for seq in 0..replay_records {
        let (zone, network) = spots[usize::try_from(seq).unwrap_or(0) % spots.len()];
        durable
            .ingest_samples_tagged(
                ClientId(u32::try_from(seq % 8).expect("small")),
                seq,
                zone,
                network,
                t,
                samples.iter().copied(),
            )
            .ok();
    }
    durable.shutdown().expect("wal shutdown");
    drop(durable);
    let opts = WalOptions {
        snapshot_every: u64::MAX,
        ..WalOptions::default()
    };
    let t0 = Instant::now();
    // Bound, not `_`: the recovered coordinator is dropped after the
    // timer reads, so teardown stays out of the replay rate.
    let (_recovered, report) =
        DurableCoordinator::recover(&dir, index, CoordinatorConfig::default(), opts)
            .expect("recover the bench log");
    let replay_s = t0.elapsed().as_secs_f64();
    assert_eq!(report.replayed, replay_records, "replay covers the log");
    RecoveryRates {
        append_report_s,
        replay_report_s: replay_records as f64 / replay_s,
        replay_records,
        append_bytes_per_record,
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("perf_smoke: unexpected argument '{arg}' (usage: perf_smoke)");
        std::process::exit(2);
    }
    eprintln!("[smoke] batch field evaluation (train shape)...");
    let land = bench_landscape();
    let p = bench_point(&land);
    let field = land.field(NetworkId::NetB).expect("NetB present");
    let batch = batch_eval_rates(field, p);
    eprintln!(
        "[smoke] batch {:.0}/s vs scalar {:.0}/s ({:.2}x)",
        batch.batch_eval_s, batch.scalar_eval_s, batch.batch_speedup_vs_scalar,
    );
    eprintln!("[smoke] wire decode...");
    let decode = decode_rates();
    eprintln!(
        "[smoke] decode owned {:.2}M/s, view {:.2}M/s ({:.2}x), crc32 {:.1} GB/s",
        decode.decode_report_s / 1e6,
        decode.decode_report_view_s / 1e6,
        decode.view_speedup_vs_owned,
        decode.crc32_gbps,
    );
    eprintln!("[smoke] wal append + replay...");
    let recovery = recovery_rates();
    eprintln!(
        "[smoke] wal append {:.2}M reports/s, replay {:.2}M reports/s ({} records), \
         {:.0} B/record",
        recovery.append_report_s / 1e6,
        recovery.replay_report_s / 1e6,
        recovery.replay_records,
        recovery.append_bytes_per_record,
    );
    eprintln!("[smoke] sharded ingest scaling...");
    let shard = shard_rates();
    for row in &shard.per_count {
        eprintln!(
            "[smoke] shards={} aggregate {:.2}M reports/s ({:.2}x vs single)",
            row.shards,
            row.aggregate_reports_s / 1e6,
            row.speedup_vs_single,
        );
    }
    eprintln!("[smoke] adaptive regionalization (city-scale grid)...");
    let (region_index, region_state) = region_state();
    let region_config = wiscape_region::RegionConfig::default();
    // Best of three: one-shot wall times on shared machines are noisy.
    let mut region_build = f64::INFINITY;
    let mut region_count = 0usize;
    for _ in 0..3 {
        let t = Instant::now();
        let set = wiscape_region::RegionSet::build(
            black_box(&region_state),
            black_box(&region_index),
            black_box(&region_config),
        );
        region_build = region_build.min(t.elapsed().as_secs_f64());
        region_count = set.regions.len();
    }
    eprintln!(
        "[smoke] regionalized {} zones into {} regions in {:.0} ms",
        region_index.zone_count(),
        region_count,
        region_build * 1e3,
    );
    let mut ok = true;
    // A city-scale partition must be cheap enough to rebuild on every
    // coordinator publish tick: >=100k zones under a 2 s wall budget
    // (the tolerant floor; the quadtree normally does this in tens of
    // milliseconds).
    if region_index.zone_count() < 100_000 {
        eprintln!(
            "[smoke] FAIL: region grid has {} zones, expected >= 100k",
            region_index.zone_count()
        );
        ok = false;
    }
    if region_build > 2.0 {
        eprintln!("[smoke] FAIL: region build took {region_build:.2} s over the 2 s budget");
        ok = false;
    }
    // The sharded floor needs real parallelism: each shard folds its
    // bucket on its own worker, so on fewer than 4 workers the N=4 run
    // time-slices one core and the 2x target is unmeasurable.
    if shard.threads >= 4 {
        let single = shard.per_count.iter().find(|r| r.shards == 1);
        let four = shard.per_count.iter().find(|r| r.shards == 4);
        match (single, four) {
            (Some(s), Some(f)) if f.aggregate_reports_s < 2.0 * s.aggregate_reports_s => {
                eprintln!(
                    "[smoke] FAIL: 4-shard aggregate {:.0}/s is under 2x the single-shard \
                     {:.0}/s on {} workers",
                    f.aggregate_reports_s, s.aggregate_reports_s, shard.threads,
                );
                ok = false;
            }
            _ => {}
        }
    } else {
        eprintln!(
            "[smoke] SKIP: shard scaling floor needs >= 4 workers (have {})",
            shard.threads
        );
    }
    if recovery.replay_report_s < 1.0e6 {
        eprintln!(
            "[smoke] FAIL: replay_report_s {:.0}/s is under the 1M/s floor",
            recovery.replay_report_s
        );
        ok = false;
    }
    if decode.decode_report_s < 2.0e6 {
        eprintln!(
            "[smoke] FAIL: decode_report_s {:.0}/s is under the 2M/s floor",
            decode.decode_report_s
        );
        ok = false;
    }
    // 5% slack absorbs scheduler noise; the SoA path wins by far more.
    if batch.batch_eval_s < 0.95 * batch.scalar_eval_s {
        eprintln!(
            "[smoke] FAIL: batch_eval_s {:.0}/s is slower than scalar_eval_s {:.0}/s",
            batch.batch_eval_s, batch.scalar_eval_s
        );
        ok = false;
    }
    if ok {
        eprintln!("[smoke] OK");
    }
    std::process::exit(if ok { 0 } else { 1 });
}
