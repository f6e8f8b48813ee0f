//! The Short-segment dataset: repeated drives of a 20 km road stretch.
//!
//! Paper Table 2: "20 km road stretch, 3 months, NetA/B/C, Madison WI",
//! driven regularly at ~55 km/h. This dataset feeds the persistent-
//! dominance analysis (Fig 12/13) and the application experiments of
//! §4.2 run along the same road.

use std::sync::Arc;

use wiscape_mobility::{FixedRouteCar, MobileClient, Route};
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::{Landscape, TransportKind};

use crate::record::{Dataset, MeasurementRecord, Metric};

/// Generation parameters for the Short-segment dataset.
#[derive(Debug, Clone, Copy)]
pub struct ShortSegmentParams {
    /// Simulated days.
    pub days: i64,
    /// Seconds between measurement rounds while driving.
    pub interval_s: i64,
    /// Packets per probe train.
    pub train_packets: u32,
    /// Probe packet size, bytes.
    pub packet_bytes: u32,
    /// Bearing of the segment leaving the city center, radians.
    pub bearing_rad: f64,
}

impl Default for ShortSegmentParams {
    fn default() -> Self {
        Self {
            days: 10,
            interval_s: 30,
            train_packets: 20,
            packet_bytes: 1200,
            bearing_rad: 0.7,
        }
    }
}

/// Builds the canonical short-segment route for a landscape (shared by
/// the dataset generator and the §4.2 application experiments so they
/// measure the same road).
pub fn segment_route(land: &Landscape, params: &ShortSegmentParams) -> Route {
    wiscape_mobility::short_segment_route(
        land.origin(),
        params.bearing_rad,
        &StreamRng::new(land.config().seed ^ 0x5353), // "SS"
    )
}

/// Generates the Short-segment dataset: TCP and UDP trains for every
/// network at each measurement round along the drive. A round's two
/// trains on one network are built from one field evaluation at the
/// car's position ([`Landscape::train_from_quality`]).
pub fn generate(land: &Landscape, seed: u64, params: &ShortSegmentParams) -> Dataset {
    let route = Arc::new(segment_route(land, params));
    let car = FixedRouteCar::new(
        wiscape_mobility::ClientId(2000),
        route,
        4,
        15.3,
        StreamRng::new(seed ^ 0x5347), // "SG"
    );
    let networks = land.networks();
    let mut ds = Dataset::new("Short segment");
    for day in 0..params.days {
        let day_start = SimTime::at(day, 6.0);
        let day_end = SimTime::at(day, 23.0);
        let mut t = day_start;
        while t < day_end {
            if let Some(fix) = car.position_at(t) {
                for &net in &networks {
                    let quality = land
                        .link_quality(net, &fix.point, t)
                        .expect("network present");
                    for (kind, metric) in [
                        (TransportKind::Tcp, Metric::TcpKbps),
                        (TransportKind::Udp, Metric::UdpKbps),
                    ] {
                        let train = land
                            .train_from_quality(
                                net,
                                kind,
                                t,
                                params.train_packets,
                                params.packet_bytes,
                                &quality,
                            )
                            .expect("network present");
                        if let Some(est) = train.estimated_kbps() {
                            ds.records.push(MeasurementRecord {
                                client: car.id(),
                                network: net,
                                metric,
                                t,
                                point: fix.point,
                                speed_mps: fix.speed_mps,
                                value: est,
                            });
                        }
                    }
                    // A few pings per round: latency matters as much as
                    // throughput to the §4.2 applications.
                    let mut rtt_sum = 0.0;
                    let mut rtt_n = 0u32;
                    for seq in 0..4u64 {
                        let ping_t = t + SimDuration::from_millis(200 * seq as i64);
                        if let Ok(wiscape_simnet::PingOutcome::Reply { rtt_ms }) =
                            land.ping(net, &fix.point, ping_t, seq)
                        {
                            rtt_sum += rtt_ms;
                            rtt_n += 1;
                        }
                    }
                    if rtt_n > 0 {
                        ds.records.push(MeasurementRecord {
                            client: car.id(),
                            network: net,
                            metric: Metric::PingRttMs,
                            t,
                            point: fix.point,
                            speed_mps: fix.speed_mps,
                            value: rtt_sum / rtt_n as f64,
                        });
                    }
                }
            }
            t = t + SimDuration::from_secs(params.interval_s);
        }
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_simnet::{LandscapeConfig, NetworkId};

    fn land() -> Landscape {
        Landscape::new(LandscapeConfig::madison(12))
    }

    fn small(land: &Landscape) -> Dataset {
        generate(
            land,
            12,
            &ShortSegmentParams {
                days: 2,
                interval_s: 120,
                ..Default::default()
            },
        )
    }

    #[test]
    fn covers_the_whole_stretch_for_all_networks() {
        let land = land();
        let ds = small(&land);
        for net in [NetworkId::NetA, NetworkId::NetB, NetworkId::NetC] {
            let recs = ds.select(net, Metric::TcpKbps);
            assert!(recs.len() > 60, "{net}: {}", recs.len());
            let far = recs
                .iter()
                .filter(|r| r.point.fast_distance(&land.origin()) > 15_000.0)
                .count();
            assert!(far > 5, "{net}: samples at the far end: {far}");
        }
    }

    #[test]
    fn speeds_are_highway_like() {
        let land = land();
        let ds = small(&land);
        for r in &ds.records {
            assert!((r.speed_mps - 15.3).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_and_route_is_stable() {
        let land = land();
        let a = small(&land);
        let b = small(&land);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.records[3], b.records[3]);
        let p = ShortSegmentParams::default();
        let r1 = segment_route(&land, &p);
        let r2 = segment_route(&land, &p);
        assert_eq!(r1.path().points(), r2.path().points());
    }

    /// The loop [`generate`] replaced, verbatim: one
    /// [`Landscape::probe_train`] call per (round, network, transport),
    /// each evaluating the field at the car's position again.
    fn per_transport(land: &Landscape, seed: u64, params: &ShortSegmentParams) -> Dataset {
        let route = Arc::new(segment_route(land, params));
        let car = FixedRouteCar::new(
            wiscape_mobility::ClientId(2000),
            route,
            4,
            15.3,
            StreamRng::new(seed ^ 0x5347), // "SG"
        );
        let mut ds = Dataset::new("Short segment");
        for day in 0..params.days {
            let day_start = SimTime::at(day, 6.0);
            let day_end = SimTime::at(day, 23.0);
            let mut t = day_start;
            while t < day_end {
                if let Some(fix) = car.position_at(t) {
                    for net in land.networks() {
                        for (kind, metric) in [
                            (TransportKind::Tcp, Metric::TcpKbps),
                            (TransportKind::Udp, Metric::UdpKbps),
                        ] {
                            let train = land
                                .probe_train(
                                    net,
                                    kind,
                                    &fix.point,
                                    t,
                                    params.train_packets,
                                    params.packet_bytes,
                                )
                                .expect("network present");
                            if let Some(est) = train.estimated_kbps() {
                                ds.records.push(MeasurementRecord {
                                    client: car.id(),
                                    network: net,
                                    metric,
                                    t,
                                    point: fix.point,
                                    speed_mps: fix.speed_mps,
                                    value: est,
                                });
                            }
                        }
                        // A few pings per round: latency matters as much as
                        // throughput to the §4.2 applications.
                        let mut rtt_sum = 0.0;
                        let mut rtt_n = 0u32;
                        for seq in 0..4u64 {
                            let ping_t = t + SimDuration::from_millis(200 * seq as i64);
                            if let Ok(wiscape_simnet::PingOutcome::Reply { rtt_ms }) =
                                land.ping(net, &fix.point, ping_t, seq)
                            {
                                rtt_sum += rtt_ms;
                                rtt_n += 1;
                            }
                        }
                        if rtt_n > 0 {
                            ds.records.push(MeasurementRecord {
                                client: car.id(),
                                network: net,
                                metric: Metric::PingRttMs,
                                t,
                                point: fix.point,
                                speed_mps: fix.speed_mps,
                                value: rtt_sum / rtt_n as f64,
                            });
                        }
                    }
                }
                t = t + SimDuration::from_secs(params.interval_s);
            }
        }
        ds
    }

    #[test]
    fn shared_evaluation_matches_per_transport_probes_bitwise() {
        let land = land();
        for (seed, days, interval_s) in [(12, 3, 90), (5, 2, 37)] {
            let params = ShortSegmentParams {
                days,
                interval_s,
                train_packets: 12,
                ..Default::default()
            };
            let shared = generate(&land, seed, &params);
            let direct = per_transport(&land, seed, &params);
            assert!(shared.records.len() > 500, "{}", shared.records.len());
            assert_eq!(shared.records.len(), direct.records.len());
            for (i, (a, b)) in shared.records.iter().zip(&direct.records).enumerate() {
                assert_eq!(a, b, "record {i}");
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "record {i}");
            }
        }
    }
}
