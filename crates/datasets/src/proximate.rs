//! The Proximate datasets: client-sourced samples around each Spot.
//!
//! Paper Table 2: measurements collected by driving a car within the
//! 250 m zone of each Static location. These are the "what WiScape would
//! actually see" traces: sporadic, position-varying samples inside a
//! zone, used for the composability analysis (§3.3, Fig 7) and sample
//! sizing (Table 5).

use wiscape_geo::GeoPoint;
use wiscape_mobility::{MobileClient, ProximateDriver};
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::{Landscape, TransportKind};

use crate::record::{Dataset, MeasurementRecord, Metric};

/// Generation parameters for a Proximate dataset.
#[derive(Debug, Clone, Copy)]
pub struct ProximateParams {
    /// Simulated days.
    pub days: i64,
    /// Seconds between measurement rounds while the driver is active.
    pub interval_s: i64,
    /// Packets per probe train.
    pub train_packets: u32,
    /// Probe packet size, bytes.
    pub packet_bytes: u32,
    /// Zone radius the driver stays within, meters (paper: 250).
    pub radius_m: f64,
}

impl Default for ProximateParams {
    fn default() -> Self {
        Self {
            days: 7,
            interval_s: 60,
            train_packets: 20,
            packet_bytes: 1200,
            radius_m: 250.0,
        }
    }
}

/// Generates a Proximate dataset around `spot` using a circling driver
/// (client id is derived from `driver_index`). A round's TCP and UDP
/// trains on one network are built from one field evaluation at the
/// driver's position ([`Landscape::train_from_quality`]).
pub fn generate(
    land: &Landscape,
    driver_index: u32,
    spot: GeoPoint,
    seed: u64,
    params: &ProximateParams,
) -> Dataset {
    let driver = ProximateDriver::new(
        wiscape_mobility::ClientId(1000 + driver_index),
        spot,
        params.radius_m,
        StreamRng::new(seed ^ 0x5052), // "PR"
    );
    let networks = land.networks();
    let mut ds = Dataset::new("Proximate");
    for day in 0..params.days {
        let day_start = SimTime::at(day, 6.0);
        let day_end = SimTime::at(day, 23.0);
        let mut t = day_start;
        while t < day_end {
            if let Some(fix) = driver.position_at(t) {
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
                                client: driver.id(),
                                network: net,
                                metric,
                                t,
                                point: fix.point,
                                speed_mps: fix.speed_mps,
                                value: est,
                            });
                        }
                        if kind == TransportKind::Udp {
                            if let Some(j) = train.jitter_ms() {
                                ds.records.push(MeasurementRecord {
                                    client: driver.id(),
                                    network: net,
                                    metric: Metric::JitterMs,
                                    t,
                                    point: fix.point,
                                    speed_mps: fix.speed_mps,
                                    value: j,
                                });
                            }
                        }
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
        Landscape::new(LandscapeConfig::madison(11))
    }

    fn spot(land: &Landscape) -> GeoPoint {
        crate::locations::representative_static_locations(land, 1, 5000.0, 100.0)[0].point
    }

    fn small(land: &Landscape) -> Dataset {
        generate(
            land,
            0,
            spot(land),
            11,
            &ProximateParams {
                days: 2,
                interval_s: 120,
                ..Default::default()
            },
        )
    }

    #[test]
    fn samples_stay_within_the_zone() {
        let land = land();
        let s = spot(&land);
        let ds = small(&land);
        assert!(!ds.is_empty());
        for r in &ds.records {
            assert!(r.point.fast_distance(&s) <= 260.0);
        }
    }

    #[test]
    fn proximate_mean_matches_static_mean() {
        // The Table 3 claim: client-sourced (Proximate) estimates track
        // the Static ground truth at the same zone within a few percent.
        let land = land();
        let s = spot(&land);
        let prox = small(&land);
        let stat = crate::spot::generate(
            &land,
            wiscape_mobility::ClientId(5),
            s,
            &crate::spot::SpotParams {
                days: 2,
                interval_s: 120,
                ..Default::default()
            },
        );
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let mp = mean(prox.values(NetworkId::NetB, Metric::UdpKbps));
        let ms = mean(stat.values(NetworkId::NetB, Metric::UdpKbps));
        let err = (mp - ms).abs() / ms;
        assert!(err < 0.06, "proximate {mp} vs static {ms}: err {err}");
    }

    #[test]
    fn sessions_are_sporadic_not_continuous() {
        let land = land();
        let ds = small(&land);
        // 2 days × 17 h at 2 min cadence would be 1020 rounds if always
        // on; the driver only runs a few 1 h sessions per day.
        let tcp_b = ds.values(NetworkId::NetB, Metric::TcpKbps);
        assert!(tcp_b.len() > 30, "{}", tcp_b.len());
        assert!(tcp_b.len() < 400, "{}", tcp_b.len());
    }

    #[test]
    fn deterministic() {
        let land = land();
        let a = small(&land);
        let b = small(&land);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.records[7], b.records[7]);
    }

    /// The loop [`generate`] replaced, verbatim: one
    /// [`Landscape::probe_train`] call per (round, network, transport),
    /// each evaluating the field at the driver's position again.
    fn per_transport(
        land: &Landscape,
        driver_index: u32,
        spot: GeoPoint,
        seed: u64,
        params: &ProximateParams,
    ) -> Dataset {
        let driver = ProximateDriver::new(
            wiscape_mobility::ClientId(1000 + driver_index),
            spot,
            params.radius_m,
            StreamRng::new(seed ^ 0x5052), // "PR"
        );
        let mut ds = Dataset::new("Proximate");
        for day in 0..params.days {
            let day_start = SimTime::at(day, 6.0);
            let day_end = SimTime::at(day, 23.0);
            let mut t = day_start;
            while t < day_end {
                if let Some(fix) = driver.position_at(t) {
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
                                    client: driver.id(),
                                    network: net,
                                    metric,
                                    t,
                                    point: fix.point,
                                    speed_mps: fix.speed_mps,
                                    value: est,
                                });
                            }
                            if kind == TransportKind::Udp {
                                if let Some(j) = train.jitter_ms() {
                                    ds.records.push(MeasurementRecord {
                                        client: driver.id(),
                                        network: net,
                                        metric: Metric::JitterMs,
                                        t,
                                        point: fix.point,
                                        speed_mps: fix.speed_mps,
                                        value: j,
                                    });
                                }
                            }
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
        let s = spot(&land);
        for (seed, days, interval_s) in [(11, 3, 90), (4, 2, 37)] {
            let params = ProximateParams {
                days,
                interval_s,
                train_packets: 12,
                ..Default::default()
            };
            let shared = generate(&land, 0, s, seed, &params);
            let direct = per_transport(&land, 0, s, seed, &params);
            assert!(shared.records.len() > 500, "{}", shared.records.len());
            assert_eq!(shared.records.len(), direct.records.len());
            for (i, (a, b)) in shared.records.iter().zip(&direct.records).enumerate() {
                assert_eq!(a, b, "record {i}");
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "record {i}");
            }
        }
    }
}
