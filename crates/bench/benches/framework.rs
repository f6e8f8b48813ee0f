//! Criterion benches for the framework's composite paths: dataset
//! generation rates and the full deployment loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wiscape_bench::{bench_landscape, bench_point};
use wiscape_channel::{perfect_link, ChannelDeployment};
use wiscape_core::ZoneIndex;
use wiscape_datasets::{spot, standalone, wirover};
use wiscape_mobility::{ClientId, Fleet};
use wiscape_simcore::{SimDuration, SimTime};

fn dataset_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("datasets");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    let land = bench_landscape();
    group.bench_function("standalone_1day_2buses", |b| {
        b.iter(|| {
            black_box(standalone::generate(
                &land,
                1,
                &standalone::StandaloneParams {
                    days: 1,
                    buses: 2,
                    download_interval_s: 600,
                    ping_interval_s: 120,
                    ..Default::default()
                },
            ))
        })
    });
    group.bench_function("wirover_1day_2buses", |b| {
        b.iter(|| {
            black_box(wirover::generate(
                &land,
                1,
                &wirover::WiRoverParams {
                    days: 1,
                    buses: 2,
                    include_intercity: false,
                    ping_interval_s: 60,
                    ..Default::default()
                },
            ))
        })
    });
    // One day of 10 s rounds (Table 4's cadence) at one point on all
    // three networks, with the default 20-packet trains.
    let point = bench_point(&land);
    group.bench_function("spot_1day_10s", |b| {
        b.iter(|| {
            black_box(spot::generate(
                &land,
                ClientId(700),
                point,
                &spot::SpotParams {
                    days: 1,
                    interval_s: 10,
                    ..Default::default()
                },
            ))
        })
    });
    group.finish();
}

fn deployment_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("deployment");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    group.bench_function("three_bus_morning", |b| {
        b.iter(|| {
            let land = bench_landscape();
            let mut fleet = Fleet::new(1);
            fleet.add_transit_buses(3, land.origin(), 5000.0, 8);
            let index = ZoneIndex::around(land.origin(), 6000.0).unwrap();
            let mut config = perfect_link();
            config.deployment.checkin_interval = SimDuration::from_secs(120);
            let mut d = ChannelDeployment::new(land, fleet, index, config);
            d.run(SimTime::at(1, 8.0), SimTime::at(1, 11.0));
            black_box(d.stats())
        })
    });
    group.finish();
}

criterion_group!(benches, dataset_benches, deployment_benches);
criterion_main!(benches);
