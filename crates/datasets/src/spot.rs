//! The Static ("Spot") datasets: continuous measurement at fixed points.
//!
//! Paper Table 2: Static-WI (5 locations, 5 months, NetA/B/C) and
//! Static-NJ (2 locations, 1 month, NetB/C). Each node runs periodic
//! TCP and UDP probe trains, recording throughput, jitter, and loss.

use wiscape_geo::GeoPoint;
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::{Landscape, LinkQuality, TransportKind};

use crate::record::{Dataset, MeasurementRecord, Metric};

/// Generation parameters for a Spot dataset.
#[derive(Debug, Clone, Copy)]
pub struct SpotParams {
    /// Simulated days per location.
    pub days: i64,
    /// Seconds between measurement rounds (each round = one TCP train,
    /// one UDP train).
    pub interval_s: i64,
    /// Packets per probe train.
    pub train_packets: u32,
    /// Probe packet size, bytes (paper: 200–2048 B).
    pub packet_bytes: u32,
}

impl Default for SpotParams {
    fn default() -> Self {
        Self {
            days: 7,
            interval_s: 60,
            train_packets: 20,
            packet_bytes: 1200,
        }
    }
}

/// Round start times evaluated per field sweep: one resolution of the
/// fixed point serves a block of rounds, and the field means held at once
/// stay bounded (networks × `ROUND_BLOCK`).
const ROUND_BLOCK: usize = 64;

/// Generates a Spot dataset at one static location, measuring every
/// network present in the landscape.
///
/// Produces [`Metric::TcpKbps`], [`Metric::UdpKbps`], [`Metric::JitterMs`],
/// and [`Metric::LossRate`] records each round, in (round, network,
/// transport) order. Each network's field is swept over a block of
/// rounds through [`NetworkField::link_quality_train`], and a round's TCP
/// and UDP trains are both built from that one evaluation with
/// [`Landscape::train_from_quality`]: bitwise the per-round
/// [`Landscape::probe_train`] calls, which evaluate the field once per
/// train.
///
/// [`NetworkField::link_quality_train`]: wiscape_simnet::NetworkField::link_quality_train
pub fn generate(
    land: &Landscape,
    client: ClientId,
    point: GeoPoint,
    params: &SpotParams,
) -> Dataset {
    let mut ds = Dataset::new("Static");
    let networks = land.networks();
    let step = SimDuration::from_secs(params.interval_s);
    let mut rounds = (0..params.days).flat_map(|day| {
        let day_end = SimTime::at(day + 1, 0.0);
        std::iter::successors(Some(SimTime::at(day, 0.0)), move |t| Some(*t + step))
            .take_while(move |t| *t < day_end)
    });
    let mut starts = Vec::with_capacity(ROUND_BLOCK);
    loop {
        starts.clear();
        starts.extend(rounds.by_ref().take(ROUND_BLOCK));
        if starts.is_empty() {
            return ds;
        }
        let qualities: Vec<Vec<LinkQuality>> = networks
            .iter()
            .map(|&net| {
                let field = land.field(net).expect("network present");
                field.link_quality_train(&point, &starts)
            })
            .collect();
        for (k, &t) in starts.iter().enumerate() {
            for (&network, quality) in networks.iter().zip(&qualities) {
                let train = |kind| {
                    land.train_from_quality(
                        network,
                        kind,
                        t,
                        params.train_packets,
                        params.packet_bytes,
                        &quality[k],
                    )
                    .expect("network present")
                };
                let mut push = |metric, value| {
                    ds.records.push(MeasurementRecord {
                        client,
                        network,
                        metric,
                        t,
                        point,
                        speed_mps: 0.0,
                        value,
                    })
                };
                if let Some(est) = train(TransportKind::Tcp).estimated_kbps() {
                    push(Metric::TcpKbps, est);
                }
                let udp = train(TransportKind::Udp);
                if let Some(est) = udp.estimated_kbps() {
                    push(Metric::UdpKbps, est);
                }
                // Jitter and loss ride on the UDP train (RFC 3393 IPDV
                // is defined on the probe stream).
                if let Some(j) = udp.jitter_ms() {
                    push(Metric::JitterMs, j);
                }
                push(Metric::LossRate, udp.loss_rate());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_simnet::{LandscapeConfig, NetworkId};

    fn land() -> Landscape {
        Landscape::new(LandscapeConfig::madison(10))
    }

    fn healthy_point(land: &Landscape) -> GeoPoint {
        crate::locations::representative_static_locations(land, 1, 5000.0, 100.0)[0].point
    }

    fn small(land: &Landscape) -> Dataset {
        generate(
            land,
            ClientId(100),
            healthy_point(land),
            &SpotParams {
                days: 1,
                interval_s: 600,
                ..Default::default()
            },
        )
    }

    #[test]
    fn covers_all_networks_and_metrics() {
        let land = land();
        let ds = small(&land);
        for net in [NetworkId::NetA, NetworkId::NetB, NetworkId::NetC] {
            for metric in [
                Metric::TcpKbps,
                Metric::UdpKbps,
                Metric::JitterMs,
                Metric::LossRate,
            ] {
                let n = ds.values(net, metric).len();
                assert!(n >= 140, "{net} {metric:?}: {n} records"); // 144 rounds/day
            }
        }
    }

    #[test]
    fn levels_match_table3_calibration() {
        let land = land();
        let ds = small(&land);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let udp_a = mean(&ds.values(NetworkId::NetA, Metric::UdpKbps));
        let udp_b = mean(&ds.values(NetworkId::NetB, Metric::UdpKbps));
        // Spatial field keeps points within ±~25% of the base; NetA must
        // clearly exceed NetB at a representative location.
        assert!(udp_a > udp_b, "NetA {udp_a} vs NetB {udp_b}");
        let jit_a = mean(&ds.values(NetworkId::NetA, Metric::JitterMs));
        let jit_b = mean(&ds.values(NetworkId::NetB, Metric::JitterMs));
        assert!(jit_a > jit_b, "jitter A {jit_a} vs B {jit_b}");
        let loss_b = mean(&ds.values(NetworkId::NetB, Metric::LossRate));
        assert!(loss_b < 0.01, "loss {loss_b}");
    }

    #[test]
    fn deterministic() {
        let land = land();
        let a = small(&land);
        let b = small(&land);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.records[42], b.records[42]);
    }

    /// The loop [`generate`] replaced, verbatim: one
    /// [`Landscape::probe_train`] call per (round, network, transport),
    /// each resolving the point again.
    fn per_round(
        land: &Landscape,
        client: ClientId,
        point: GeoPoint,
        params: &SpotParams,
    ) -> Dataset {
        let mut ds = Dataset::new("Static");
        for day in 0..params.days {
            let day_start = SimTime::at(day, 0.0);
            let day_end = SimTime::at(day + 1, 0.0);
            let mut t = day_start;
            while t < day_end {
                for net in land.networks() {
                    for (kind, metric) in [
                        (TransportKind::Tcp, Metric::TcpKbps),
                        (TransportKind::Udp, Metric::UdpKbps),
                    ] {
                        let train = land
                            .probe_train(
                                net,
                                kind,
                                &point,
                                t,
                                params.train_packets,
                                params.packet_bytes,
                            )
                            .expect("network present");
                        if let Some(est) = train.estimated_kbps() {
                            ds.records.push(MeasurementRecord {
                                client,
                                network: net,
                                metric,
                                t,
                                point,
                                speed_mps: 0.0,
                                value: est,
                            });
                        }
                        // Jitter and loss ride on the UDP train (RFC 3393
                        // IPDV is defined on the probe stream).
                        if kind == TransportKind::Udp {
                            if let Some(j) = train.jitter_ms() {
                                ds.records.push(MeasurementRecord {
                                    client,
                                    network: net,
                                    metric: Metric::JitterMs,
                                    t,
                                    point,
                                    speed_mps: 0.0,
                                    value: j,
                                });
                            }
                            ds.records.push(MeasurementRecord {
                                client,
                                network: net,
                                metric: Metric::LossRate,
                                t,
                                point,
                                speed_mps: 0.0,
                                value: train.loss_rate(),
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
    fn batched_rounds_match_per_round_probes_bitwise() {
        let land = land();
        assert_eq!(land.networks().len(), 3);
        // 87 rounds a day: two days are two full blocks and a partial one.
        let params = SpotParams {
            days: 2,
            interval_s: 1000,
            train_packets: 6,
            ..Default::default()
        };
        assert_ne!(2 * 87 % ROUND_BLOCK, 0);
        let point = healthy_point(&land);
        let batched = generate(&land, ClientId(9), point, &params);
        let direct = per_round(&land, ClientId(9), point, &params);
        assert_eq!(batched.records.len(), direct.records.len());
        assert!(batched.records.len() >= 2 * 87 * 3 * 3);
        for (i, (a, b)) in batched.records.iter().zip(&direct.records).enumerate() {
            assert_eq!(a, b, "record {i}");
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "record {i}");
        }
    }

    #[test]
    fn nj_region_works_too() {
        let land = Landscape::new(LandscapeConfig::new_brunswick(10));
        let ds = generate(
            &land,
            ClientId(200),
            healthy_point(&land),
            &SpotParams {
                days: 1,
                interval_s: 1200,
                ..Default::default()
            },
        );
        assert!(ds.values(NetworkId::NetB, Metric::UdpKbps).len() > 50);
        assert!(ds.values(NetworkId::NetA, Metric::UdpKbps).is_empty());
    }
}
