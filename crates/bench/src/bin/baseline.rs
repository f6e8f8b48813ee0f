//! Machine-readable core performance baseline.
//!
//! ```text
//! cargo run -p wiscape-bench --release --bin baseline [-- --out PATH | -- --smoke]
//! ```
//!
//! Measures the field-evaluation hot path (per-metric calls, shared
//! `link_quality`, `FieldCursor`, batched API) in evaluations per
//! second, plus the wall-clock of every experiment at `Scale::Quick`
//! on the deterministic parallel executor, and writes the numbers to
//! `results/BENCH_core.json` (or `--out PATH`). The `WISCAPE_THREADS`
//! environment variable pins the worker count.
//!
//! `--smoke` runs only the fast decode/batch-eval/WAL/shard
//! measurements and exits nonzero if a hot path regressed past its
//! floor (owned decode under 2M frames/s, WAL replay under 1M
//! reports/s, the SoA batch path slower than the scalar cursor on a
//! train-shaped workload, or — when at least 4 workers are configured
//! — the 4-shard batch ingest under 2x the single-shard rate). CI
//! runs this after the test suite; `WISCAPE_SKIP_PERF_SMOKE=1` skips
//! it there.

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;
use wiscape_bench::{bench_landscape, bench_point};
use wiscape_experiments::{run_many_with_charts, Scale, ALL_EXPERIMENTS};
use wiscape_simcore::{exec, SimDuration, SimTime};
use wiscape_simnet::{FieldCursor, NetworkField, NetworkId};

/// Field-evaluation throughput, evaluations per second. One
/// "evaluation" always produces all five link metrics at one `(p, t)`.
#[derive(Serialize)]
struct EvalRates {
    /// Five independent per-metric calls (the pre-cursor probe shape).
    per_metric_eval_s: f64,
    /// One `link_quality` call (shared point resolution).
    link_quality_eval_s: f64,
    /// `FieldCursor` at a fixed point, sweeping time.
    cursor_eval_s: f64,
    /// `link_quality_batch` over a 1000-point mobility-style walk.
    batch_eval_s: f64,
    /// `cursor_eval_s / per_metric_eval_s`.
    cursor_speedup_vs_per_metric: f64,
}

/// Batch evaluation on the probe-train shape — one point, many
/// distinct times — where the SoA path hoists the per-run work
/// (point resolution, drift noise octave forks, per-event spatial
/// weights) once and then sweeps each component across the whole run.
/// `cursor_eval_s` pushes the identical query list through a
/// [`FieldCursor`], the best scalar path, so the ratio isolates the
/// structure-of-arrays win.
#[derive(Serialize)]
struct BatchEval {
    /// Queries in the train-shaped batch.
    train_len: usize,
    /// `link_quality_batch` evaluations per second on the train.
    batch_eval_s: f64,
    /// `FieldCursor` evaluations per second on the same queries.
    cursor_eval_s: f64,
    /// `batch_eval_s / cursor_eval_s`.
    batch_speedup_vs_cursor: f64,
}

/// Wire-decode throughput: the owned decoder vs the borrowed zero-copy
/// view over the same 20-sample report frame, plus raw CRC-32
/// (slicing-by-8) throughput.
#[derive(Serialize)]
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

#[derive(Serialize)]
struct ExperimentTiming {
    name: String,
    seconds: f64,
}

/// Control-channel throughput: wire-codec and lossy-link operations per
/// second (one message = a 20-sample report, the common case).
#[derive(Serialize)]
struct ChannelRates {
    /// `encode` calls per second on a 20-sample report.
    encode_report_s: f64,
    /// `decode` calls per second on the same frame.
    decode_report_s: f64,
    /// Encoded size of that frame, bytes.
    report_frame_bytes: usize,
    /// Perfect-link `send` calls per second (the zero-RNG fast path).
    perfect_send_s: f64,
    /// Cellular-link `send` calls per second at 10% drop.
    cellular_send_s: f64,
}

/// Estimation-ingest throughput and per-cell footprint. One report
/// carries 20 samples, and the report set holds one report for every
/// `(zone, network)` cell of the index, in shuffled order, so each fold
/// looks up a different cell rather than cycling a few cached ones.
/// Memory counters are taken after the timed runs, when every cell has
/// been touched.
#[derive(Serialize)]
struct IngestRates {
    /// `Coordinator::ingest_report` calls per second (direct fold,
    /// no wire codec).
    coordinator_reports_s: f64,
    /// Samples folded per second on that path (`reports * 20`).
    coordinator_samples_s: f64,
    /// Reports per second through `FrameReader` and
    /// `ChannelServer::handle_report_view` (decode, dedup, immediate
    /// commit) over pre-encoded frames with fresh sequence numbers;
    /// median over passes, each on a server warmed with one report per
    /// cell.
    server_reports_s: f64,
    /// `(zone, network)` cells tracked after the runs.
    zones_tracked: usize,
    /// Payload bytes of per-zone estimation state —
    /// `zones_tracked * per_zone_state_bytes` regardless of how many
    /// observations streamed through.
    sketch_bytes: usize,
    /// Payload of one tracked cell (key plus epoch state).
    per_zone_state_bytes: usize,
}

/// Sharded-ingest throughput at one shard count:
/// `ShardSet::ingest_batch` reports per second with the batch bucketed
/// by owning zone-range shard and each bucket folded on its own
/// worker.
#[derive(Serialize)]
struct ShardScale {
    /// Shard count for this row.
    shards: usize,
    /// Reports routed to each shard per second (bucket share times the
    /// batch rate; the buckets are near-even under the contiguous
    /// zone-range assignment).
    per_shard_reports_s: Vec<f64>,
    /// Total reports folded per second across all shards.
    aggregate_reports_s: f64,
    /// `aggregate_reports_s / (the N=1 aggregate)`.
    speedup_vs_single: f64,
}

/// Sharded-ingest scaling across shard counts 1/2/4/8. Buckets fold in
/// parallel on the deterministic executor, so the aggregate tracks
/// `WISCAPE_THREADS`: near-linear up to the worker count, flat beyond
/// it (on one worker every row stays near the N=1 rate and the
/// per-shard share drops as 1/N).
#[derive(Serialize)]
struct ShardRates {
    /// Worker threads available to the batch fold.
    threads: usize,
    /// Reports per timed batch.
    batch_len: usize,
    /// One row per shard count, in `[1, 2, 4, 8]` order.
    per_count: Vec<ShardScale>,
}

/// Adaptive-regionalization throughput: `wiscape-region`'s quadtree
/// build plus the hotspot scan over it, on a synthetic city-scale
/// state (≥100k zones, one `(zone, network)` cell each).
#[derive(Serialize)]
struct RegionRates {
    /// Zones in the synthetic grid.
    zones: usize,
    /// `(zone, network)` cells in the exported state.
    cells: usize,
    /// Regions the build merges the grid into (default config).
    regions: usize,
    /// Full `RegionSet::build` passes per second.
    build_s: f64,
    /// Zones regionalized per second (`build_s * zones`).
    zones_per_s: f64,
    /// `locate_hotspots` scans per second over the built set.
    hotspot_scan_s: f64,
}

/// WAL durability cost and recovery speed. Append measures the full
/// commit-before-fold path (encode + log append + sketch fold); replay
/// measures `DurableCoordinator::recover` over a log of ingest records.
#[derive(Serialize)]
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
    /// Encoded full-state snapshot bytes per tracked `(zone, network)`
    /// cell.
    snapshot_bytes_per_zone: f64,
}

#[derive(Serialize)]
struct BenchCore {
    /// Worker count used (WISCAPE_THREADS or available parallelism).
    threads: usize,
    field_eval: EvalRates,
    batch_train: BatchEval,
    channel: ChannelRates,
    decode: DecodeRates,
    ingest: IngestRates,
    shard: ShardRates,
    recovery: RecoveryRates,
    region: RegionRates,
    /// Per-experiment wall-clock at Scale::Quick, paper order.
    experiments: Vec<ExperimentTiming>,
    /// Wall-clock of the whole parallel experiment run, seconds.
    experiments_wall_s: f64,
    /// Sum of per-experiment seconds (the serial-run estimate).
    experiments_cpu_s: f64,
    /// `experiments_cpu_s / experiments_wall_s`.
    parallel_speedup_estimate: f64,
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

fn field_eval_rates(field: &NetworkField, p: wiscape_geo::GeoPoint) -> EvalRates {
    let t = SimTime::at(1, 12.0);
    let budget = 0.5;

    let per_metric_eval_s = rate(budget, || {
        black_box((
            field.mean_tcp_kbps(black_box(&p), t),
            field.mean_udp_kbps(&p, t),
            field.mean_rtt_ms(&p, t),
            field.mean_jitter_ms(&p, t),
            field.loss_rate(&p, t),
        ));
    });

    let link_quality_eval_s = rate(budget, || {
        black_box(field.link_quality(black_box(&p), t));
    });

    let mut cursor = FieldCursor::new(field);
    let mut k = 0i64;
    let cursor_eval_s = rate(budget, || {
        k += 1;
        black_box(cursor.link_quality(black_box(&p), t + SimDuration::from_secs(k % 3600)));
    });

    let walk: Vec<(wiscape_geo::GeoPoint, SimTime)> = (0..1000)
        .map(|i| {
            (
                p.destination(i as f64 * 0.83, (i as f64 * 137.0) % 9000.0),
                t + SimDuration::from_secs(i % 3600),
            )
        })
        .collect();
    let batch_eval_s = 1000.0
        * rate(budget, || {
            black_box(field.link_quality_batch(black_box(&walk)));
        });

    EvalRates {
        per_metric_eval_s,
        link_quality_eval_s,
        cursor_eval_s,
        batch_eval_s,
        cursor_speedup_vs_per_metric: cursor_eval_s / per_metric_eval_s,
    }
}

fn batch_eval_rates(field: &NetworkField, p: wiscape_geo::GeoPoint) -> BatchEval {
    let t = SimTime::at(1, 12.0);
    let budget = 0.5;
    // Train shape: one point, 1000 distinct times — exactly what the
    // batched probe path hands to the evaluator.
    let train: Vec<(wiscape_geo::GeoPoint, SimTime)> = (0..1000i64)
        .map(|k| (p, t + SimDuration::from_secs(k)))
        .collect();
    let n = train.len();
    let batch_eval_s = n as f64
        * rate(budget, || {
            black_box(field.link_quality_batch(black_box(&train)));
        });
    let mut cursor = FieldCursor::new(field);
    let cursor_eval_s = n as f64
        * rate(budget, || {
            for (q, tq) in &train {
                black_box(cursor.link_quality(black_box(q), *tq));
            }
        });
    BatchEval {
        train_len: n,
        batch_eval_s,
        cursor_eval_s,
        batch_speedup_vs_cursor: batch_eval_s / cursor_eval_s,
    }
}

/// The 20-sample report message both codec benches frame and decode.
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

fn channel_rates() -> ChannelRates {
    use wiscape_channel::codec::{decode, encode};
    use wiscape_channel::{LinkConfig, LossyLink};
    use wiscape_simcore::StreamRng;

    let budget = 0.5;
    let msg = report_message();
    let encode_report_s = rate(budget, || {
        black_box(encode(black_box(&msg)));
    });
    let frame = encode(&msg);
    let decode_report_s = rate(budget, || {
        black_box(decode(black_box(&frame)).expect("valid frame"));
    });
    let now = SimTime::at(1, 9.5);
    let mut perfect = LossyLink::new(LinkConfig::perfect(), StreamRng::new(11).fork("perfect"));
    let perfect_send_s = rate(budget, || {
        black_box(perfect.send(black_box(frame.clone()), now, 0.0));
    });
    let mut cellular = LossyLink::new(
        LinkConfig::cellular(0.1),
        StreamRng::new(11).fork("cellular"),
    );
    let cellular_send_s = rate(budget, || {
        black_box(cellular.send(black_box(frame.clone()), now, 0.05));
    });
    ChannelRates {
        encode_report_s,
        decode_report_s,
        report_frame_bytes: frame.len(),
        perfect_send_s,
        cellular_send_s,
    }
}

fn ingest_rates() -> IngestRates {
    use rand::seq::SliceRandom;
    use wiscape_channel::codec::{encode, FrameReader, ReportMsg, WireMessage, WireMessageRef};
    use wiscape_channel::{ChannelServer, CommitPolicy};
    use wiscape_core::{
        Coordinator, CoordinatorConfig, MeasurementTask, SampleReport, ZoneId, ZoneIndex,
    };
    use wiscape_geo::{BoundingBox, GeoPoint};
    use wiscape_mobility::ClientId;
    use wiscape_simcore::StreamRng;
    use wiscape_simnet::TransportKind;

    const CLIENTS: usize = 8;
    const TIMED_ROUNDS: u64 = 4;
    let budget = 0.5;
    let origin = GeoPoint::new(39.0, -77.0).expect("valid origin");
    let bounds = BoundingBox::around(origin, 8000.0);
    let index = ZoneIndex::new(bounds, 200.0).expect("valid index");
    let now = SimTime::at(1, 9.5);
    let order = StreamRng::new(11).fork("ingest-order");

    // One 20-sample report per (zone, network) cell of the index.
    let mut cells: Vec<(ZoneId, NetworkId)> = index
        .zones()
        .flat_map(|zone| NetworkId::ALL.map(|network| (zone, network)))
        .collect();
    let report = |i: usize, (zone, network): (ZoneId, NetworkId)| SampleReport {
        client: ClientId(u32::try_from(i % CLIENTS).expect("small")),
        task: MeasurementTask {
            zone,
            network,
            kind: TransportKind::Udp,
            n_packets: 20,
            packet_bytes: 1200,
        },
        zone,
        t: now,
        samples: (0..20).map(|k| 900.0 + (k + i % 64) as f64).collect(),
    };
    cells.shuffle(&mut order.rng());
    let reports: Vec<SampleReport> = cells
        .iter()
        .enumerate()
        .map(|(i, &cell)| report(i, cell))
        .collect();

    let mut coordinator = Coordinator::new(index.clone(), CoordinatorConfig::default());
    let mut k = 0usize;
    let coordinator_reports_s = rate(budget, || {
        k += 1;
        black_box(
            coordinator
                .ingest_report(black_box(&reports[k % reports.len()]))
                .ok(),
        );
    });

    // Pre-encoded frames: one warm-up round (tracks every cell), then
    // TIMED_ROUNDS rounds, each over every cell in a fresh shuffled
    // order. Sequence numbers never repeat within a pass, so every
    // timed report takes the fresh-commit path.
    let encode_round = |round: u64, out: &mut Vec<u8>| {
        let mut round_cells = cells.clone();
        round_cells.shuffle(&mut order.fork_idx(round).rng());
        for (i, &cell) in round_cells.iter().enumerate() {
            let seq = round * round_cells.len() as u64 + i as u64;
            let msg = WireMessage::Report(ReportMsg {
                seq,
                report: report(i, cell),
            });
            out.extend_from_slice(&encode(&msg));
        }
    };
    let mut warm = Vec::new();
    encode_round(0, &mut warm);
    let mut timed = Vec::new();
    for round in 1..=TIMED_ROUNDS {
        encode_round(round, &mut timed);
    }
    let feed = |server: &mut ChannelServer, frames: &[u8]| {
        let mut n = 0u64;
        for msg in FrameReader::new(frames) {
            if let Ok(WireMessageRef::Report(view)) = msg {
                server.handle_report_view(&view, now);
                n += 1;
            }
        }
        n
    };
    let mut passes = Vec::new();
    let started = Instant::now();
    let mut server;
    loop {
        server = ChannelServer::new(
            Coordinator::new(index.clone(), CoordinatorConfig::default()),
            CommitPolicy::Immediate,
            StreamRng::new(11).fork("deployment"),
            NetworkId::ALL.to_vec(),
        );
        feed(&mut server, &warm);
        let t0 = Instant::now();
        let n = feed(&mut server, black_box(&timed));
        passes.push(n as f64 / t0.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= budget && passes.len() >= 3 {
            break;
        }
    }
    passes.sort_by(f64::total_cmp);
    let server_reports_s = passes[passes.len() / 2];

    debug_assert_eq!(
        server.sketch_bytes(),
        server.zones_tracked() * Coordinator::per_zone_state_bytes()
    );
    IngestRates {
        coordinator_reports_s,
        coordinator_samples_s: coordinator_reports_s * 20.0,
        server_reports_s,
        zones_tracked: coordinator.zones_tracked(),
        sketch_bytes: coordinator.sketch_bytes(),
        per_zone_state_bytes: Coordinator::per_zone_state_bytes(),
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
        let mut counts = vec![0u64; n];
        for r in &batch {
            counts[set.assignment().shard_of(r.zone)] += 1;
        }
        if n == 1 {
            single_aggregate = aggregate_reports_s;
        }
        per_count.push(ShardScale {
            shards: n,
            per_shard_reports_s: counts.iter().map(|&c| c as f64 * batches_s).collect(),
            aggregate_reports_s,
            speedup_vs_single: aggregate_reports_s / single_aggregate.max(1.0),
        });
    }
    ShardRates {
        threads: exec::thread_count(),
        batch_len: batch.len(),
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
    use wiscape_stats::MomentSketch;

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
            let mut sketch = MomentSketch::new();
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

fn region_rates() -> RegionRates {
    use wiscape_region::{locate_hotspots, HotspotConfig, RegionConfig, RegionSet};

    let budget = 0.4;
    let (index, state) = region_state();
    let config = RegionConfig::default();
    let set = RegionSet::build(&state, &index, &config);
    let build_s = rate(budget, || {
        black_box(RegionSet::build(
            black_box(&state),
            black_box(&index),
            black_box(&config),
        ));
    });
    let hotspot_config = HotspotConfig::default();
    let hotspot_scan_s = rate(budget * 0.5, || {
        black_box(locate_hotspots(black_box(&set), black_box(&hotspot_config)));
    });
    RegionRates {
        zones: index.zone_count(),
        cells: state.cells.len(),
        regions: set.regions.len(),
        build_s,
        zones_per_s: build_s * index.zone_count() as f64,
        hotspot_scan_s,
    }
}

fn recovery_rates() -> RecoveryRates {
    use wiscape_core::{CoordinatorConfig, CoordinatorHandle, ZoneIndex};
    use wiscape_geo::{BoundingBox, GeoPoint};
    use wiscape_mobility::ClientId;
    use wiscape_simnet::NetworkId;
    use wiscape_wal::{encode_state, DurableCoordinator, WalOptions};

    let budget = 0.5;
    let origin = GeoPoint::new(39.0, -77.0).expect("valid origin");
    let bounds = BoundingBox::around(origin, 8000.0);
    let index = ZoneIndex::new(bounds, 200.0).expect("valid index");
    // The same 64-zone / 20-sample report shape as `ingest_rates`, so
    // append_report_s is directly comparable to coordinator_reports_s:
    // the gap between them is the durability tax.
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
    let (recovered, report) =
        DurableCoordinator::recover(&dir, index, CoordinatorConfig::default(), opts)
            .expect("recover the bench log");
    let replay_s = t0.elapsed().as_secs_f64();
    assert_eq!(report.replayed, replay_records, "replay covers the log");
    let mut snap = Vec::new();
    encode_state(&recovered.coordinator_ref().export_state(), &mut snap);
    let zones = recovered.coordinator_ref().zones_tracked().max(1);
    RecoveryRates {
        append_report_s,
        replay_report_s: replay_records as f64 / replay_s,
        replay_records,
        append_bytes_per_record,
        snapshot_bytes_per_zone: snap.len() as f64 / zones as f64,
    }
}

/// `--smoke`: measure just the two hot paths this repo's perf work
/// guards, assert their floors, and exit. Floors are deliberately
/// tolerant — they catch an accidental return to the per-byte CRC /
/// owned-alloc decode or the scalar eval path, not run-to-run noise.
fn run_smoke() -> ! {
    eprintln!("[smoke] batch field evaluation (train shape)...");
    let land = bench_landscape();
    let p = bench_point(&land);
    let field = land.field(NetworkId::NetB).expect("NetB present");
    let batch = batch_eval_rates(field, p);
    eprintln!(
        "[smoke] batch {:.0}/s vs cursor {:.0}/s ({:.2}x)",
        batch.batch_eval_s, batch.cursor_eval_s, batch.batch_speedup_vs_cursor,
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
    if batch.batch_eval_s < 0.95 * batch.cursor_eval_s {
        eprintln!(
            "[smoke] FAIL: batch_eval_s {:.0}/s is slower than cursor_eval_s {:.0}/s",
            batch.batch_eval_s, batch.cursor_eval_s
        );
        ok = false;
    }
    if ok {
        eprintln!("[smoke] OK");
    }
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let mut out_path = String::from("results/BENCH_core.json");
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("baseline: --out needs a path");
                    std::process::exit(2);
                });
            }
            "--smoke" => smoke = true,
            other => {
                eprintln!(
                    "baseline: unknown argument '{other}' (usage: baseline [--out PATH | --smoke])"
                );
                std::process::exit(2);
            }
        }
    }
    if smoke {
        run_smoke();
    }

    // The baseline doubles as the reference obs capture: everything it
    // exercises records into the registry, dumped next to the report.
    wiscape_obs::set_enabled(true);

    let threads = exec::thread_count();
    eprintln!("[baseline] field evaluation rates ({threads} worker(s) configured)...");
    let land = bench_landscape();
    let p = bench_point(&land);
    let field = land.field(NetworkId::NetB).expect("NetB present");
    let field_eval = field_eval_rates(field, p);
    eprintln!(
        "[baseline] per-metric {:.0}/s, link_quality {:.0}/s, cursor {:.0}/s ({:.1}x), batch {:.0}/s",
        field_eval.per_metric_eval_s,
        field_eval.link_quality_eval_s,
        field_eval.cursor_eval_s,
        field_eval.cursor_speedup_vs_per_metric,
        field_eval.batch_eval_s,
    );

    eprintln!("[baseline] batch evaluation on the train shape...");
    let batch_train = batch_eval_rates(field, p);
    eprintln!(
        "[baseline] train batch {:.0}/s vs cursor {:.0}/s ({:.2}x)",
        batch_train.batch_eval_s, batch_train.cursor_eval_s, batch_train.batch_speedup_vs_cursor,
    );

    eprintln!("[baseline] control-channel codec + link rates...");
    let channel = channel_rates();
    eprintln!(
        "[baseline] encode {:.0}/s, decode {:.0}/s ({} B frame), link send perfect {:.0}/s, cellular {:.0}/s",
        channel.encode_report_s,
        channel.decode_report_s,
        channel.report_frame_bytes,
        channel.perfect_send_s,
        channel.cellular_send_s,
    );

    eprintln!("[baseline] decode view-path + crc rates...");
    let decode = decode_rates();
    eprintln!(
        "[baseline] decode owned {:.0}/s, view {:.0}/s ({:.2}x), crc32 {:.1} GB/s",
        decode.decode_report_s,
        decode.decode_report_view_s,
        decode.view_speedup_vs_owned,
        decode.crc32_gbps,
    );

    eprintln!("[baseline] estimation-ingest rates + sketch footprint...");
    let ingest = ingest_rates();
    eprintln!(
        "[baseline] coordinator {:.0} reports/s ({:.0} samples/s), server {:.0} reports/s; \
         {} cells x {} B = {} B of cell payload",
        ingest.coordinator_reports_s,
        ingest.coordinator_samples_s,
        ingest.server_reports_s,
        ingest.zones_tracked,
        ingest.per_zone_state_bytes,
        ingest.sketch_bytes,
    );

    eprintln!("[baseline] sharded ingest scaling (1/2/4/8 shards)...");
    let shard = shard_rates();
    for row in &shard.per_count {
        eprintln!(
            "[baseline] shards={}: aggregate {:.0} reports/s ({:.2}x vs single)",
            row.shards, row.aggregate_reports_s, row.speedup_vs_single,
        );
    }

    eprintln!("[baseline] wal append + replay recovery rates...");
    let recovery = recovery_rates();
    eprintln!(
        "[baseline] wal append {:.0} reports/s ({:.0} B/record), replay {:.0} reports/s \
         over {} records, snapshot {:.0} B/zone",
        recovery.append_report_s,
        recovery.append_bytes_per_record,
        recovery.replay_report_s,
        recovery.replay_records,
        recovery.snapshot_bytes_per_zone,
    );

    eprintln!("[baseline] adaptive regionalization (city-scale grid)...");
    let region = region_rates();
    eprintln!(
        "[baseline] region build {:.2}/s over {} zones ({:.1}M zones/s, {} regions), \
         hotspot scan {:.0}/s",
        region.build_s,
        region.zones,
        region.zones_per_s / 1e6,
        region.regions,
        region.hotspot_scan_s,
    );

    eprintln!("[baseline] running all experiments at Scale::Quick...");
    let names: Vec<String> = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    let wall = Instant::now();
    let results = run_many_with_charts(&names, 7, Scale::Quick);
    let experiments_wall_s = wall.elapsed().as_secs_f64();
    let experiments: Vec<ExperimentTiming> = names
        .iter()
        .zip(results)
        .map(|(name, r)| ExperimentTiming {
            name: name.clone(),
            seconds: r.expect("all names are known").3,
        })
        .collect();
    let experiments_cpu_s: f64 = experiments.iter().map(|e| e.seconds).sum();

    let report = BenchCore {
        threads,
        field_eval,
        batch_train,
        channel,
        decode,
        ingest,
        shard,
        recovery,
        region,
        experiments,
        experiments_wall_s,
        experiments_cpu_s,
        parallel_speedup_estimate: experiments_cpu_s / experiments_wall_s,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out_path, &json).expect("write report");
    // Obs snapshot alongside the bench report (OBS_bench.json next to
    // BENCH_core.json): the deterministic sections double as a
    // regression reference, the timing section as a coarse profile.
    let obs_path = std::path::Path::new(&out_path).with_file_name("OBS_bench.json");
    wiscape_obs::write_snapshot(&obs_path).expect("write obs snapshot");
    eprintln!("[baseline] obs snapshot -> {}", obs_path.display());
    eprintln!(
        "[baseline] {} experiments: {experiments_cpu_s:.1}s cpu / {experiments_wall_s:.1}s wall \
         ({:.1}x) -> {out_path}",
        report.experiments.len(),
        report.parallel_speedup_estimate,
    );
}
