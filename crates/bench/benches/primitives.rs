//! Criterion benches for WiScape's hot primitives: the statistics the
//! coordinator runs per epoch, the spatial index, and the simulator's
//! per-packet path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use wiscape_bench::{bench_landscape, bench_point, bench_pools, bench_series};
use wiscape_core::sampling::{nkld_curve_mode, sample_nkld, WindowMode};
use wiscape_core::{ZoneId, ZoneIndex};
use wiscape_simcore::noise::ValueNoise2D;
use wiscape_simcore::{SimTime, StreamRng};
use wiscape_simnet::{NetworkId, TransportKind};
use wiscape_stats::{allan_deviation_profile, Ecdf, RunningStats};

fn stats_benches(c: &mut Criterion) {
    let series = bench_series(20_000);
    let taus: Vec<f64> = (0..24)
        .map(|i| 60.0 * 10f64.powf(3.0 * i as f64 / 23.0))
        .collect();
    c.bench_function("allan_profile_20k_samples_24_taus", |b| {
        b.iter(|| allan_deviation_profile(black_box(&series), black_box(&taus)).unwrap())
    });

    let (pool_a, pool_b) = bench_pools(5_000);
    c.bench_function("nkld_5k_vs_5k", |b| {
        b.iter(|| sample_nkld(black_box(&pool_a), black_box(&pool_b)).unwrap())
    });

    // Fig 7's quick shape: 30 checkpoints of 40 scattered draws each,
    // from a 7,390-sample pool, against a 7,670-sample reference.
    let (reference, mut incoming) = bench_pools(7_670);
    incoming.truncate(7_390);
    let checkpoints: Vec<usize> = (1..=30).map(|k| k * 10).collect();
    c.bench_function("nkld_curve_fig07_quick", |b| {
        b.iter(|| {
            let mut rng = StreamRng::new(7).rng();
            nkld_curve_mode(
                black_box(&reference),
                black_box(&incoming),
                &checkpoints,
                40,
                WindowMode::Scattered,
                &mut rng,
            )
            .unwrap()
        })
    });

    let values: Vec<f64> = pool_a.clone();
    c.bench_function("running_stats_5k_push", |b| {
        b.iter(|| {
            let mut s = RunningStats::new();
            for &v in &values {
                s.push(v);
            }
            black_box(s.rel_std_dev())
        })
    });

    c.bench_function("ecdf_build_and_quantiles_5k", |b| {
        b.iter_batched(
            || values.clone(),
            |v| {
                let e = Ecdf::new(v).unwrap();
                black_box((e.percentile(5.0), e.percentile(95.0), e.median()))
            },
            BatchSize::SmallInput,
        )
    });
}

fn spatial_benches(c: &mut Criterion) {
    let land = bench_landscape();
    let index = ZoneIndex::around(land.origin(), 7000.0).unwrap();
    let points: Vec<_> = (0..1000)
        .map(|i| {
            land.origin()
                .destination(i as f64 * 0.7, 100.0 + (i * 13) as f64 % 6000.0)
        })
        .collect();
    c.bench_function("zone_index_1k_lookups", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for p in &points {
                let ZoneId(cell) = index.zone_of(black_box(p));
                acc += (cell.col + cell.row) as i64;
            }
            black_box(acc)
        })
    });

    let noise = ValueNoise2D::new(StreamRng::new(1).fork("bench"));
    c.bench_function("value_noise_fbm_1k_evals", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1000 {
                acc += noise.fbm(i as f64 * 0.37, i as f64 * 0.11, 3, 0.5);
            }
            black_box(acc)
        })
    });
}

fn simulator_benches(c: &mut Criterion) {
    let land = bench_landscape();
    let p = bench_point(&land);
    let t = SimTime::at(1, 12.0);
    c.bench_function("field_link_quality", |b| {
        b.iter(|| {
            black_box(
                land.link_quality(NetworkId::NetB, black_box(&p), black_box(t))
                    .unwrap(),
            )
        })
    });
    // Train shape: one point, 1000 distinct times — what the batched
    // probe path hands to the evaluator. The SoA train path resolves the
    // point once and hoists the drift octave forks and event spatial
    // weights; the resolved scalar path resolves once and then calls
    // `link_quality_with` per time.
    let field = land.field(NetworkId::NetB).unwrap();
    let times: Vec<SimTime> = (0..1000i64)
        .map(|k| t + wiscape_simcore::SimDuration::from_secs(k))
        .collect();
    c.bench_function("field_link_quality_train_1k", |b| {
        b.iter(|| black_box(field.link_quality_train(black_box(&p), black_box(&times))))
    });
    c.bench_function("field_link_quality_resolved_train_1k", |b| {
        b.iter(|| {
            let ctx = field.resolve(black_box(&p));
            for tq in &times {
                black_box(field.link_quality_with(&ctx, *tq));
            }
        })
    });
    c.bench_function("probe_train_100_packets", |b| {
        b.iter(|| {
            black_box(
                land.probe_train(NetworkId::NetB, TransportKind::Udp, &p, t, 100, 1200)
                    .unwrap()
                    .estimated_kbps(),
            )
        })
    });
    c.bench_function("tcp_download_1mb", |b| {
        b.iter(|| {
            black_box(
                land.tcp_download(NetworkId::NetB, &p, t, 1_000_000)
                    .unwrap(),
            )
        })
    });
    c.bench_function("ping", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            black_box(land.ping(NetworkId::NetB, &p, t, seq).unwrap())
        })
    });
}

fn coordinator_benches(c: &mut Criterion) {
    use wiscape_core::{Coordinator, CoordinatorConfig};
    use wiscape_mobility::ClientId;
    let land = bench_landscape();
    let index = ZoneIndex::around(land.origin(), 7000.0).unwrap();
    let points: Vec<_> = (0..200)
        .map(|i| {
            land.origin()
                .destination(i as f64 * 0.9, 100.0 + (i * 31) as f64 % 6000.0)
        })
        .collect();
    c.bench_function("coordinator_200_checkins", |b| {
        b.iter_batched(
            || Coordinator::new(index.clone(), CoordinatorConfig::default()),
            |mut coord| {
                for (i, p) in points.iter().enumerate() {
                    let tasks = coord.client_checkin(
                        ClientId(i as u32),
                        p,
                        SimTime::from_secs(i as i64 * 10),
                        &[NetworkId::NetB],
                        0.0,
                    );
                    black_box(tasks.len());
                }
                black_box(coord.packets_requested())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    stats_benches,
    spatial_benches,
    simulator_benches,
    coordinator_benches
);
criterion_main!(benches);
