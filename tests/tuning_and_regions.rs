//! Integration: the §3.4 closed-loop tuners and the second study region
//! through the public facade.

use wiscape::core::normalize::{learn_scales, CategorySamples};
use wiscape::mobility::DeviceCategory;
use wiscape::prelude::*;

#[test]
fn nj_deployment_works_with_two_networks() {
    let land = Landscape::new(LandscapeConfig::new_brunswick(130));
    let mut fleet = Fleet::new(130);
    fleet
        .add_transit_buses(3, land.origin(), 4000.0, 6)
        .add_static_spot(land.origin());
    let index = ZoneIndex::around(land.origin(), 5000.0).unwrap();
    let mut d = ChannelDeployment::new(land, fleet, index, perfect_link());
    d.run(SimTime::at(1, 8.0), SimTime::at(1, 14.0));
    let published = d.coordinator().all_published();
    assert!(published.len() > 10, "{} estimates", published.len());
    // Only NetB and NetC appear.
    assert!(published
        .iter()
        .all(|((_, network), _)| matches!(network, NetworkId::NetB | NetworkId::NetC)));
    // NJ estimates should reflect the faster NJ bases (Table 3).
    let netc_means: Vec<f64> = published
        .iter()
        .filter(|((_, network), e)| *network == NetworkId::NetC && e.samples >= 20)
        .map(|(_, e)| e.mean)
        .collect();
    assert!(!netc_means.is_empty());
    let mean = netc_means.iter().sum::<f64>() / netc_means.len() as f64;
    assert!(
        mean > 1200.0,
        "NetC-NJ zone means should be well above WI levels: {mean}"
    );
}

#[test]
fn auto_tuned_deployment_publishes_with_learned_parameters() {
    let land = Landscape::new(LandscapeConfig::madison(131));
    let spot = land.origin();
    let mut fleet = Fleet::new(131);
    fleet.add_static_spot(spot);
    let index = ZoneIndex::around(land.origin(), 5000.0).unwrap();
    let mut config = perfect_link();
    config.deployment = DeploymentConfig {
        checkin_interval: SimDuration::from_secs(30),
        auto_tune: true,
        retune_interval: SimDuration::from_hours(3),
        ..Default::default()
    };
    let mut d = ChannelDeployment::new(land, fleet, index, config);
    d.run(SimTime::at(0, 0.0), SimTime::at(2, 0.0));
    // With two simulated days of a static client, at least one zone gets
    // tuned parameters and the published map still tracks truth.
    let zone = d.coordinator().index().zone_of(&spot);
    let est = d
        .coordinator()
        .published(zone, NetworkId::NetB)
        .expect("spot zone published");
    let truth = d
        .landscape()
        .link_quality(NetworkId::NetB, &spot, est.formed_at)
        .unwrap()
        .udp_kbps;
    let err = (est.mean - truth).abs() / truth;
    assert!(err < 0.25, "estimate {} vs truth {truth}", est.mean);
    // The tuners ran (history requirements are met by a 2-day run when
    // quotas are generous).
    assert!(
        d.stats().quotas_tuned + d.stats().epochs_tuned > 0,
        "{:?}",
        d.stats()
    );
}

#[test]
fn phone_samples_normalize_into_laptop_units() {
    // The §6 future-work path end to end through the facade: phones see
    // ~0.8x; after learning scales from co-located batches, normalized
    // phone estimates agree with laptop estimates.
    let land = Landscape::new(LandscapeConfig::madison(132));
    let index = ZoneIndex::around(land.origin(), 6000.0).unwrap();
    let factor = 0.8;
    let mut batches = Vec::new();
    for i in 0..5 {
        let p = land
            .origin()
            .destination(i as f64 * 1.1, 400.0 + 800.0 * i as f64);
        let t = SimTime::at(1, 10.0 + i as f64);
        let laptop = land
            .probe_train(NetworkId::NetC, TransportKind::Udp, &p, t, 80, 1200)
            .unwrap();
        let phone = land
            .probe_train_for_device(
                NetworkId::NetC,
                TransportKind::Udp,
                &p,
                t + SimDuration::from_secs(20),
                80,
                1200,
                factor,
            )
            .unwrap();
        for (cat, train) in [
            (DeviceCategory::LaptopModem, laptop),
            (DeviceCategory::Phone, phone),
        ] {
            batches.push(CategorySamples {
                zone: index.zone_of(&p),
                network: NetworkId::NetC,
                category: cat,
                values: train.received_kbps(),
            });
        }
    }
    let scales = learn_scales(&batches, DeviceCategory::LaptopModem, 3);
    let learned = scales.scale(NetworkId::NetC, DeviceCategory::Phone);
    assert!((learned - factor).abs() < 0.05, "learned {learned}");
    // A normalized phone reading lands near the laptop reading.
    let laptop_mean = batches[0].values.iter().sum::<f64>() / batches[0].values.len() as f64;
    let phone_mean = batches[1].values.iter().sum::<f64>() / batches[1].values.len() as f64;
    let normalized = scales.normalize(NetworkId::NetC, DeviceCategory::Phone, phone_mean);
    assert!(
        (normalized - laptop_mean).abs() / laptop_mean < 0.08,
        "normalized {normalized} vs laptop {laptop_mean}"
    );
}
