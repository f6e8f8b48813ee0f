//! The multi-sim application (paper §4.2.2).
//!
//! A phone with several SIM cards can attach to any one network at a
//! time. Without knowledge it must pick blindly (stay on one carrier, or
//! rotate); with WiScape's zone map it switches to the locally best
//! network as the vehicle moves. The paper reports ~30% lower HTTP
//! latency versus the best single carrier (Table 6) and 13–32% on named
//! sites (Fig 14a).

use wiscape_simcore::SimTime;
use wiscape_simnet::{Landscape, NetworkId, UnknownNetwork};

use crate::drive::{DriveOutcome, DrivingClient};
use crate::netmap::ZoneQualityMap;

/// How the multi-sim client picks its network per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionPolicy {
    /// Always use one carrier (the paper's Multisim-NetX baselines).
    Fixed(NetworkId),
    /// Rotate carriers request by request (knowledge-free baseline).
    RoundRobin,
    /// Use the WiScape zone map to pick the locally best carrier;
    /// falls back to the first candidate where the map has no data.
    WiScapeBest,
}

/// Runs a multi-sim drive: the client fetches `requests` (each a list of
/// object sizes — one object for SURGE pages, many for a depth-1 site
/// fetch) back to back while driving.
pub fn run_multisim_drive(
    land: &Landscape,
    driver: &DrivingClient,
    start: SimTime,
    requests: &[Vec<u64>],
    policy: SelectionPolicy,
    map: Option<&ZoneQualityMap>,
    candidates: &[NetworkId],
) -> Result<DriveOutcome, UnknownNetwork> {
    assert!(
        !candidates.is_empty(),
        "need at least one candidate network"
    );
    let mut now = start;
    let mut per_request = Vec::with_capacity(requests.len());
    let mut bytes = 0u64;
    for (i, objects) in requests.iter().enumerate() {
        let p = driver.position_at(now);
        let net = match policy {
            SelectionPolicy::Fixed(n) => n,
            SelectionPolicy::RoundRobin => candidates[i % candidates.len()],
            SelectionPolicy::WiScapeBest => {
                // Minimize predicted fetch latency for this request's
                // total size (round trips + transfer), per §4.2.2.
                let bytes: u64 = objects.iter().sum();
                map.and_then(|m| m.fastest_network(&p, candidates, bytes))
                    .unwrap_or(candidates[0])
            }
        };
        let result =
            wiscape_workload::fetch_objects(land, net, now, objects, |t| driver.position_at(t))?;
        per_request.push(result.duration);
        bytes += result.bytes;
        now = now + result.duration;
    }
    Ok(DriveOutcome {
        total: now - start,
        per_request,
        bytes,
    })
}

/// Convenience: a single-object request list from page sizes.
pub fn single_object_requests(sizes: &[u64]) -> Vec<Vec<u64>> {
    sizes.iter().map(|&s| vec![s]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_core::ZoneIndex;
    use wiscape_geo::GeoPoint;
    use wiscape_mobility::short_segment_route;
    use wiscape_simcore::StreamRng;
    use wiscape_simnet::LandscapeConfig;

    fn setup() -> (Landscape, DrivingClient) {
        let land = Landscape::new(LandscapeConfig::madison(21));
        let route = short_segment_route(land.origin(), 0.7, &StreamRng::new(21));
        let driver = DrivingClient::new(route, 15.0, SimTime::at(1, 9.0));
        (land, driver)
    }

    /// A quality map built from ground truth along the route (an
    /// idealized WiScape).
    fn truth_map(land: &Landscape, driver: &DrivingClient) -> ZoneQualityMap {
        let index = ZoneIndex::around(land.origin(), 25_000.0).unwrap();
        let mut obs: Vec<(GeoPoint, NetworkId, f64)> = Vec::new();
        let t = SimTime::at(1, 9.0);
        for s in 0..90 {
            let p = driver.route().point_at(s as f64 * 250.0);
            for net in NetworkId::ALL {
                let q = land.link_quality(net, &p, t).unwrap();
                obs.push((p, net, q.tcp_kbps));
            }
        }
        ZoneQualityMap::from_observations(index, &obs)
    }

    #[test]
    fn wiscape_beats_fixed_carriers() {
        let (land, driver) = setup();
        let map = truth_map(&land, &driver);
        let requests: Vec<Vec<u64>> = (0..60).map(|i| vec![30_000 + (i % 7) * 40_000]).collect();
        let start = SimTime::at(1, 9.0);
        let wiscape = run_multisim_drive(
            &land,
            &driver,
            start,
            &requests,
            SelectionPolicy::WiScapeBest,
            Some(&map),
            &NetworkId::ALL,
        )
        .unwrap();
        for net in NetworkId::ALL {
            let fixed = run_multisim_drive(
                &land,
                &driver,
                start,
                &requests,
                SelectionPolicy::Fixed(net),
                None,
                &NetworkId::ALL,
            )
            .unwrap();
            assert!(
                wiscape.total <= fixed.total,
                "WiScape {:?} should beat fixed {net} {:?}",
                wiscape.total,
                fixed.total
            );
        }
    }

    #[test]
    fn round_robin_runs_and_uses_all_networks() {
        let (land, driver) = setup();
        let requests = single_object_requests(&[50_000, 50_000, 50_000]);
        let out = run_multisim_drive(
            &land,
            &driver,
            SimTime::at(1, 9.0),
            &requests,
            SelectionPolicy::RoundRobin,
            None,
            &NetworkId::ALL,
        )
        .unwrap();
        assert_eq!(out.per_request.len(), 3);
        assert_eq!(out.bytes, 150_000);
        assert!(out.total.as_secs_f64() > 0.0);
    }

    #[test]
    fn wiscape_without_map_falls_back() {
        let (land, driver) = setup();
        let requests = single_object_requests(&[10_000]);
        let out = run_multisim_drive(
            &land,
            &driver,
            SimTime::at(1, 9.0),
            &requests,
            SelectionPolicy::WiScapeBest,
            None,
            &[NetworkId::NetB],
        )
        .unwrap();
        assert_eq!(out.per_request.len(), 1);
    }

    #[test]
    fn total_equals_sum_of_requests() {
        let (land, driver) = setup();
        let requests = single_object_requests(&[20_000, 30_000]);
        let out = run_multisim_drive(
            &land,
            &driver,
            SimTime::at(1, 9.0),
            &requests,
            SelectionPolicy::Fixed(NetworkId::NetB),
            None,
            &NetworkId::ALL,
        )
        .unwrap();
        let sum: f64 = out.per_request.iter().map(|d| d.as_secs_f64()).sum();
        assert!((out.total.as_secs_f64() - sum).abs() < 1e-9);
    }
}
