//! Integration: WiScape's published map driving the §4.2 applications,
//! coordinator-to-application (not dataset-to-application).

use wiscape::apps::{run_mar_drive, run_multisim_drive, DrivingClient, ZoneQualityMap};
use wiscape::datasets::short_segment;
use wiscape::prelude::*;

/// Builds a quality map straight from a *coordinator* run whose clients
/// drove the segment — the full production path, including the control
/// channel the reports cross in a real deployment (`perfect_link()`
/// keeps it bitwise-identical to a loop of direct coordinator calls).
fn coordinator_map(seed: u64) -> (Landscape, ZoneQualityMap) {
    let land = Landscape::new(LandscapeConfig::madison(seed));
    let mut fleet = Fleet::new(seed);
    // A car driving the short segment is the only collector, so the
    // published map covers exactly the zones the apps will traverse.
    fleet.add_short_segment_car(land.origin(), 0.7);
    let index = ZoneIndex::around(land.origin(), 25_000.0).unwrap();
    let mut config = perfect_link();
    config.deployment = DeploymentConfig {
        checkin_interval: SimDuration::from_secs(45),
        ..Default::default()
    };
    let mut deployment = ChannelDeployment::new(land.clone(), fleet, index, config);
    deployment.run(SimTime::at(1, 7.0), SimTime::at(1, 22.0));
    let coordinator = deployment.coordinator();
    let map =
        ZoneQualityMap::from_estimates(coordinator.index().clone(), &coordinator.all_published());
    (land, map)
}

#[test]
fn coordinator_published_map_feeds_the_applications() {
    let (land, map) = coordinator_map(120);
    assert!(
        map.len() > 30,
        "{} map entries from the coordinator",
        map.len()
    );
    let route = short_segment::segment_route(&land, &short_segment::ShortSegmentParams::default());
    let start = SimTime::at(2, 10.0);
    let driver = DrivingClient::new(route, 15.3, start);
    let requests: Vec<Vec<u64>> = (0..40).map(|i| vec![40_000 + (i % 7) * 90_000]).collect();
    let ws = run_multisim_drive(
        &land,
        &driver,
        start,
        &requests,
        SelectionPolicy::WiScapeBest,
        Some(&map),
        &NetworkId::ALL,
    )
    .unwrap();
    assert_eq!(ws.per_request.len(), 40);
    assert!(ws.total.as_secs_f64() > 1.0);
    // The coordinator-driven map must not be *worse* than knowing
    // nothing (round robin).
    let rr = run_multisim_drive(
        &land,
        &driver,
        start,
        &requests,
        SelectionPolicy::RoundRobin,
        None,
        &NetworkId::ALL,
    )
    .unwrap();
    assert!(
        ws.total.as_secs_f64() <= rr.total.as_secs_f64() * 1.05,
        "WiScape {:.1}s vs RR {:.1}s",
        ws.total.as_secs_f64(),
        rr.total.as_secs_f64()
    );
}

#[test]
fn mar_aggregates_bandwidth_from_all_three_networks() {
    let (land, map) = coordinator_map(121);
    let route = short_segment::segment_route(&land, &short_segment::ShortSegmentParams::default());
    let start = SimTime::at(2, 10.0);
    let driver = DrivingClient::new(route, 15.3, start);
    let sizes: Vec<u64> = (0..60).map(|i| 50_000 + (i % 11) * 70_000).collect();
    let out = run_mar_drive(
        &land,
        &driver,
        start,
        &sizes,
        MarScheduler::WiScape,
        Some(&map),
    )
    .unwrap();
    // All interfaces used, all bytes moved.
    assert_eq!(out.per_interface_bytes.len(), 3);
    assert_eq!(out.bytes(), sizes.iter().sum::<u64>());
    // Aggregation beats the best single network substantially.
    let total_bytes = out.bytes() as f64;
    let agg_kbps = total_bytes * 8.0 / 1000.0 / out.total.as_secs_f64();
    assert!(
        agg_kbps > 1500.0,
        "aggregate goodput {agg_kbps:.0} kbps should exceed any single carrier"
    );
}

#[test]
fn multisim_policies_are_consistent_under_repetition() {
    let (land, map) = coordinator_map(122);
    let route = short_segment::segment_route(&land, &short_segment::ShortSegmentParams::default());
    let start = SimTime::at(2, 10.0);
    let driver = DrivingClient::new(route, 15.3, start);
    let requests: Vec<Vec<u64>> = (0..10).map(|i| vec![100_000 + i * 10_000]).collect();
    let run = || {
        run_multisim_drive(
            &land,
            &driver,
            start,
            &requests,
            SelectionPolicy::WiScapeBest,
            Some(&map),
            &NetworkId::ALL,
        )
        .unwrap()
        .total
    };
    assert_eq!(run(), run(), "simulation is deterministic");
}
