//! End-to-end integration: the full WiScape loop (fleet → coordinator →
//! agents → published map) against the simulated landscape, validated
//! against ground truth — the system-level version of the paper's Fig 8.

use wiscape::prelude::*;

fn build_deployment(seed: u64) -> ChannelDeployment {
    let land = Landscape::new(LandscapeConfig::madison(seed));
    let mut fleet = Fleet::new(seed);
    fleet
        .add_transit_buses(5, land.origin(), 6000.0, 10)
        .add_static_spot(land.origin())
        .add_static_spot(land.origin().destination(1.0, 2000.0));
    let index = ZoneIndex::around(land.origin(), 7000.0).unwrap();
    let mut config = perfect_link();
    config.deployment = DeploymentConfig {
        checkin_interval: SimDuration::from_secs(60),
        ..Default::default()
    };
    ChannelDeployment::new(land, fleet, index, config)
}

#[test]
fn published_map_tracks_ground_truth_across_zones() {
    let mut d = build_deployment(101);
    d.run(SimTime::at(1, 7.0), SimTime::at(1, 19.0));
    let published = d.coordinator().all_published();
    assert!(published.len() > 50, "{} estimates", published.len());

    // Compare every published NetB estimate against the field's mean at
    // the zone center mid-window.
    let mut errors = Vec::new();
    for ((zone, network), e) in &published {
        if *network != NetworkId::NetB || e.samples < 20 {
            continue;
        }
        let center = d.coordinator().index().center_of(*zone);
        let truth = d
            .landscape()
            .link_quality(NetworkId::NetB, &center, e.formed_at)
            .unwrap()
            .udp_kbps;
        errors.push((e.mean - truth).abs() / truth);
    }
    assert!(errors.len() > 10, "{} well-sampled zones", errors.len());
    let median = {
        let mut v = errors.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    // Zone centers vs actual sample positions + drift: the paper's Fig 8
    // regime is a few percent; allow a loose system-level bound.
    assert!(median < 0.15, "median error {median}");
}

#[test]
fn client_burden_stays_minimal() {
    // WiScape's core promise: a handful of small probes per client-hour.
    let mut d = build_deployment(102);
    let hours = 6.0;
    d.run(SimTime::at(1, 8.0), SimTime::at(1, 14.0));
    let stats = d.stats();
    let clients = 7.0;
    let packets_per_client_hour = stats.packets_requested as f64 / clients / hours;
    // 20-packet tasks, ~1.2 KB each: even a few hundred packets/hour is
    // ~10 KB/min. Assert we stay well under an aggressive bound.
    assert!(
        packets_per_client_hour < 4000.0,
        "{packets_per_client_hour} packets/client/hour"
    );
    // And that measurement actually happened.
    assert!(stats.reports > 50, "{stats:?}");
}

#[test]
fn alerts_fire_for_the_stadium_event_zone() {
    // Run monitoring over game day with a client parked at the stadium;
    // the surge must move the published latency-proxy... WiScape tracks
    // throughput here, which the event halves — expect a change alert in
    // the stadium zone.
    let land = Landscape::new(LandscapeConfig::madison(103));
    let stadium = wiscape::simnet::config::stadium_location();
    let mut fleet = Fleet::new(103);
    fleet.add_static_spot(stadium);
    let index = ZoneIndex::around(land.origin(), 7000.0).unwrap();
    let mut config = perfect_link();
    config.deployment = DeploymentConfig {
        checkin_interval: SimDuration::from_secs(45),
        ..Default::default()
    };
    let mut d = ChannelDeployment::new(land, fleet, index, config);
    // Saturday 08:00 through 16:00 covers pre-game, game, post-game.
    d.run(SimTime::at(5, 8.0), SimTime::at(5, 16.0));
    let zone = d.coordinator().index().zone_of(&stadium);
    let zone_alerts: Vec<_> = d
        .coordinator()
        .alerts()
        .iter()
        .filter(|a| a.zone == zone)
        .collect();
    assert!(
        !zone_alerts.is_empty(),
        "the game-day throughput collapse must trigger a change alert"
    );
    // At least one alert shows a big swing.
    assert!(
        zone_alerts.iter().any(|a| a.sigmas > 2.0),
        "alerts: {zone_alerts:?}"
    );
}

#[test]
fn deployments_are_reproducible_and_seed_sensitive() {
    let run = |seed: u64| {
        let mut d = build_deployment(seed);
        d.run(SimTime::at(1, 9.0), SimTime::at(1, 12.0));
        let mut v: Vec<(String, String, u64, i64)> = d
            .coordinator()
            .all_published()
            .iter()
            .map(|((zone, network), e)| {
                (
                    zone.to_string(),
                    network.to_string(),
                    e.samples,
                    (e.mean * 1000.0) as i64,
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(run(104), run(104), "same seed, same published map");
    assert_ne!(run(104), run(105), "different seed, different map");
}
