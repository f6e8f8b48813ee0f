//! Quickstart: run a small WiScape deployment and inspect the map.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```
//!
//! Builds the Madison-like landscape, drives a small bus fleet through a
//! simulated day, and prints the coordinator's published per-zone
//! estimates, the client overhead, and any change alerts.

use wiscape::prelude::*;

fn main() {
    let seed = 42;
    println!("== WiScape quickstart (seed {seed}) ==\n");

    // 1. The world: a simulated three-network cellular landscape.
    let land = Landscape::new(LandscapeConfig::madison(seed));
    println!(
        "landscape: {} networks around ({:.4}, {:.4})",
        land.networks().len(),
        land.origin().lat_deg(),
        land.origin().lon_deg()
    );

    // 2. The collectors: five transit buses plus a static node.
    let mut fleet = Fleet::new(seed);
    fleet
        .add_transit_buses(5, land.origin(), 6000.0, 10)
        .add_static_spot(land.origin());
    println!("fleet: {} clients", fleet.len());

    // 3. The framework: 250 m zones, default coordinator tuning.
    let index = ZoneIndex::around(land.origin(), 7000.0).expect("valid zone index");
    println!(
        "zones: {} x {:.2} km² covering the city\n",
        index.zone_count(),
        index.zone_area_sq_km()
    );
    let mut config = perfect_link();
    config.deployment = DeploymentConfig {
        checkin_interval: SimDuration::from_secs(60),
        ..Default::default()
    };
    let mut deployment = ChannelDeployment::new(land, fleet, index, config);

    // 4. Run a simulated working day.
    let start = SimTime::at(1, 7.0);
    let end = SimTime::at(1, 19.0);
    println!("running {start} -> {end} ...");
    deployment.run(start, end);

    let stats = deployment.stats();
    println!(
        "\ncheck-ins: {}   tasks: {}   probe packets requested: {}",
        stats.checkins, stats.tasks_issued, stats.packets_requested
    );

    // 5. The product: a per-zone, per-network performance map.
    let published = deployment.coordinator().all_published();
    println!("\npublished estimates: {}", published.len());
    println!("  zone            network  mean kbps  (±std)   samples");
    for ((zone, network), e) in published.iter().take(12) {
        println!(
            "  {:<15} {:<8} {:>8.0}  (±{:>5.0})  {:>6}",
            zone.to_string(),
            network.to_string(),
            e.mean,
            e.std_dev,
            e.samples
        );
    }
    if published.len() > 12 {
        println!("  ... and {} more", published.len() - 12);
    }

    let alerts = deployment.coordinator().alerts();
    println!("\nchange alerts: {}", alerts.len());
    for a in alerts.iter().take(5) {
        println!(
            "  {} {}: {:.0} -> {:.0} kbps ({:.1}σ) at {}",
            a.zone, a.network, a.old_mean, a.new_mean, a.sigmas, a.at
        );
    }

    // 6. Sanity: compare one estimate against ground truth.
    let origin = deployment.landscape().origin();
    let zone = deployment.coordinator().index().zone_of(&origin);
    if let Some(est) = deployment.coordinator().published(zone, NetworkId::NetB) {
        let truth = deployment
            .landscape()
            .link_quality(NetworkId::NetB, &origin, SimTime::at(1, 13.0))
            .expect("NetB present")
            .udp_kbps;
        println!(
            "\ncenter zone NetB: estimate {:.0} kbps vs ground truth {:.0} kbps ({:+.1}%)",
            est.mean,
            truth,
            (est.mean / truth - 1.0) * 100.0
        );
    }
}
