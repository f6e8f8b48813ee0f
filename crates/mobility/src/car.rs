//! Personal cars on fixed routes.

use std::sync::Arc;

use wiscape_geo::GeoPoint;
use wiscape_simcore::{SimTime, StreamRng};

use crate::client::{day_key, ClientId, DeviceCategory, MobileClient, PositionFix};
use crate::route::Route;

/// A car driven regularly over a fixed route (the paper's Region
/// datasets: "client devices placed inside personal automobiles and
/// regularly driven over fixed routes", at ~55 km/h average).
///
/// The car makes `drives_per_day` out-and-back trips, starting at hours
/// spread through the day (offset per-day by a small jitter so samples
/// land in different epochs).
#[derive(Debug, Clone)]
pub struct FixedRouteCar {
    id: ClientId,
    route: Arc<Route>,
    drives_per_day: u32,
    speed_mps: f64,
    /// The car's `"jitter"` node: drive `k` of day `d` draws its start
    /// from `jitter.fork_idx(d).fork_idx(k)`.
    jitter: StreamRng,
}

impl FixedRouteCar {
    /// Creates a car on `route` doing `drives_per_day` round trips at
    /// `speed_mps` (clamped to 8–25 m/s).
    pub fn new(
        id: ClientId,
        route: Arc<Route>,
        drives_per_day: u32,
        speed_mps: f64,
        stream: StreamRng,
    ) -> Self {
        Self {
            id,
            route,
            drives_per_day: drives_per_day.max(1),
            speed_mps: speed_mps.clamp(8.0, 25.0),
            jitter: stream.fork("car").fork_idx(id.0 as u64).fork("jitter"),
        }
    }

    /// The fixed route.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// Start hour of drive `k` (0-based) on the day whose jitter node is
    /// `day_jitter`.
    fn drive_start_hour(&self, day_jitter: StreamRng, k: u32) -> f64 {
        // Drives spread between 07:00 and 21:00 with ±20 min daily jitter.
        let span = 14.0;
        let base = 7.0 + span * (k as f64 + 0.5) / self.drives_per_day as f64;
        let j = day_jitter.fork_idx(k as u64).draw_unit_f64();
        base + (j - 0.5) * (40.0 / 60.0)
    }
}

impl MobileClient for FixedRouteCar {
    fn id(&self) -> ClientId {
        self.id
    }

    fn category(&self) -> DeviceCategory {
        DeviceCategory::LaptopModem
    }

    fn platform(&self) -> &'static str {
        "fixed-route-car"
    }

    fn position_at(&self, t: SimTime) -> Option<PositionFix> {
        let h = t.hour_of_day();
        let day_jitter = self.jitter.fork_idx(day_key(t.day_index()));
        let len = self.route.length_m();
        let round_trip_s = 2.0 * len / self.speed_mps;
        for k in 0..self.drives_per_day {
            let start = self.drive_start_hour(day_jitter, k);
            let into_s = (h - start) * 3600.0;
            if into_s >= 0.0 && into_s < round_trip_s {
                let dist = into_s * self.speed_mps;
                let s = if dist <= len { dist } else { 2.0 * len - dist };
                return Some(PositionFix {
                    point: self.route.point_at(s),
                    speed_mps: self.speed_mps,
                });
            }
        }
        None
    }
}

/// A driver circling within a zone around a static location — how the
/// paper collected its Proximate datasets ("driving around in a car
/// within a 250 meter radius" of each Static spot).
///
/// The car traces a loop of radius `radius_m` around `center` during a
/// few daily sessions.
#[derive(Debug, Clone)]
pub struct ProximateDriver {
    id: ClientId,
    center: GeoPoint,
    radius_m: f64,
    sessions_per_day: u32,
    session_len_h: f64,
    speed_mps: f64,
    /// The driver's `"jitter"` node: session `k` of day `d` draws its
    /// start from `jitter.fork_idx(d).fork_idx(k)`.
    jitter: StreamRng,
    /// The driver's `"wobble"` node: minute `m` of a session draws its
    /// radius from `wobble.fork_idx(m)`.
    wobble: StreamRng,
}

impl ProximateDriver {
    /// Creates a proximate driver looping at `radius_m` (clamped to
    /// 30–250 m per the paper's zone radius) around `center`.
    pub fn new(id: ClientId, center: GeoPoint, radius_m: f64, stream: StreamRng) -> Self {
        let driver = stream.fork("proximate").fork_idx(id.0 as u64);
        Self {
            id,
            center,
            radius_m: radius_m.clamp(30.0, 250.0),
            sessions_per_day: 4,
            session_len_h: 1.0,
            speed_mps: 8.0,
            jitter: driver.fork("jitter"),
            wobble: driver.fork("wobble"),
        }
    }

    /// Start hour of session `k` on the day whose jitter node is
    /// `day_jitter`.
    fn session_start_hour(&self, day_jitter: StreamRng, k: u32) -> f64 {
        let base = 8.0 + 12.0 * k as f64 / self.sessions_per_day as f64;
        let j = day_jitter.fork_idx(k as u64).draw_unit_f64();
        base + (j - 0.5)
    }
}

impl MobileClient for ProximateDriver {
    fn id(&self) -> ClientId {
        self.id
    }

    fn category(&self) -> DeviceCategory {
        DeviceCategory::LaptopModem
    }

    fn platform(&self) -> &'static str {
        "proximate-driver"
    }

    fn position_at(&self, t: SimTime) -> Option<PositionFix> {
        let h = t.hour_of_day();
        let day_jitter = self.jitter.fork_idx(day_key(t.day_index()));
        for k in 0..self.sessions_per_day {
            let start = self.session_start_hour(day_jitter, k);
            if h >= start && h < start + self.session_len_h {
                let into_s = (h - start) * 3600.0;
                // Loop around the center at constant angular rate; vary
                // the radius a little so fixes are not all on one circle.
                let circumference = std::f64::consts::TAU * self.radius_m;
                let angle = std::f64::consts::TAU * (into_s * self.speed_mps / circumference);
                let wobble =
                    0.6 + 0.4 * self.wobble.fork_idx((into_s / 60.0) as u64).draw_unit_f64();
                return Some(PositionFix {
                    point: self.center.destination(angle, self.radius_m * wobble),
                    speed_mps: self.speed_mps,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::short_segment_route;
    use wiscape_simcore::SimDuration;

    fn center() -> GeoPoint {
        GeoPoint::new(43.0731, -89.4012).unwrap()
    }

    fn car() -> FixedRouteCar {
        let route = Arc::new(short_segment_route(center(), 0.7, &StreamRng::new(1)));
        FixedRouteCar::new(ClientId(10), route, 3, 15.0, StreamRng::new(1))
    }

    #[test]
    fn drives_happen_and_cover_route() {
        let c = car();
        let mut fixes = 0;
        let mut max_d = 0.0f64;
        for k in 0..24 * 60 {
            let t = SimTime::at(1, k as f64 / 60.0);
            if let Some(f) = c.position_at(t) {
                fixes += 1;
                max_d = max_d.max(f.point.haversine_distance(&center()));
                assert_eq!(f.speed_mps, 15.0);
            }
        }
        // 3 round trips of 40 km at 15 m/s ≈ 2.2 h total driving.
        assert!(fixes > 60, "{fixes} fixes");
        assert!(max_d > 15_000.0, "never reached far end: {max_d}");
    }

    #[test]
    fn idle_outside_drives() {
        let c = car();
        assert!(c.position_at(SimTime::at(1, 2.0)).is_none());
        assert!(c.position_at(SimTime::at(1, 5.0)).is_none());
    }

    #[test]
    fn return_leg_comes_back() {
        let c = car();
        let len = c.route().length_m();
        let round_trip_h = 2.0 * len / 15.0 / 3600.0;
        // Find a drive start by scanning.
        let day = 4;
        let mut start_h = None;
        for k in 0..24 * 360 {
            let h = k as f64 / 360.0;
            if c.position_at(SimTime::at(day, h)).is_some() {
                start_h = Some(h);
                break;
            }
        }
        let start_h = start_h.expect("car drives on day 4");
        let near_end = c
            .position_at(SimTime::at(day, start_h + round_trip_h * 0.98))
            .expect("still driving");
        assert!(
            near_end.point.haversine_distance(&center()) < 3500.0,
            "should be nearly home: {}",
            near_end.point.haversine_distance(&center())
        );
    }

    #[test]
    fn proximate_driver_stays_in_zone() {
        let d = ProximateDriver::new(ClientId(20), center(), 250.0, StreamRng::new(2));
        let mut fixes = 0;
        for k in 0..24 * 120 {
            let t = SimTime::at(2, k as f64 / 120.0);
            if let Some(f) = d.position_at(t) {
                fixes += 1;
                let dist = f.point.haversine_distance(&center());
                assert!(dist <= 255.0, "outside zone: {dist}");
            }
        }
        assert!(fixes > 100, "{fixes} fixes");
    }

    #[test]
    fn proximate_positions_vary() {
        let d = ProximateDriver::new(ClientId(21), center(), 200.0, StreamRng::new(3));
        let mut pts = std::collections::HashSet::new();
        for k in 0..24 * 60 {
            let t = SimTime::at(3, k as f64 / 60.0);
            if let Some(f) = d.position_at(t) {
                pts.insert((
                    (f.point.lat_deg() * 1e5) as i64,
                    (f.point.lon_deg() * 1e5) as i64,
                ));
            }
        }
        assert!(pts.len() > 30, "only {} distinct positions", pts.len());
    }

    #[test]
    fn radius_is_clamped() {
        let d = ProximateDriver::new(ClientId(22), center(), 10_000.0, StreamRng::new(4));
        for k in 0..24 * 30 {
            let t = SimTime::at(1, k as f64 / 30.0);
            if let Some(f) = d.position_at(t) {
                assert!(f.point.haversine_distance(&center()) <= 255.0);
            }
        }
    }

    /// The car and the driver [`FixedRouteCar`] and [`ProximateDriver`]
    /// replaced: every drive or session start forks `"jitter"` and the
    /// day from the client's stream, and every fix forks `"wobble"`.
    struct ReferenceClient {
        stream: StreamRng,
    }

    impl ReferenceClient {
        fn car(id: ClientId, stream: StreamRng) -> Self {
            let stream = stream.fork("car").fork_idx(id.0 as u64);
            Self { stream }
        }

        fn driver(id: ClientId, stream: StreamRng) -> Self {
            let stream = stream.fork("proximate").fork_idx(id.0 as u64);
            Self { stream }
        }

        fn jitter(&self, day: i64, k: u32) -> f64 {
            self.stream
                .fork("jitter")
                .fork_idx(day.rem_euclid(1 << 20) as u64)
                .fork_idx(k as u64)
                .draw_unit_f64()
        }

        fn drive_start_hour(&self, drives_per_day: u32, day: i64, k: u32) -> f64 {
            let base = 7.0 + 14.0 * (k as f64 + 0.5) / drives_per_day as f64;
            base + (self.jitter(day, k) - 0.5) * (40.0 / 60.0)
        }

        fn car_position_at(&self, car: &FixedRouteCar, t: SimTime) -> Option<PositionFix> {
            let h = t.hour_of_day();
            let day = t.day_index();
            let len = car.route.length_m();
            let round_trip_s = 2.0 * len / car.speed_mps;
            for k in 0..car.drives_per_day {
                let start = self.drive_start_hour(car.drives_per_day, day, k);
                let into_s = (h - start) * 3600.0;
                if into_s >= 0.0 && into_s < round_trip_s {
                    let dist = into_s * car.speed_mps;
                    let s = if dist <= len { dist } else { 2.0 * len - dist };
                    return Some(PositionFix {
                        point: car.route.point_at(s),
                        speed_mps: car.speed_mps,
                    });
                }
            }
            None
        }

        fn session_start_hour(&self, sessions_per_day: u32, day: i64, k: u32) -> f64 {
            let base = 8.0 + 12.0 * k as f64 / sessions_per_day as f64;
            base + (self.jitter(day, k) - 0.5)
        }

        fn driver_position_at(&self, d: &ProximateDriver, t: SimTime) -> Option<PositionFix> {
            let h = t.hour_of_day();
            let day = t.day_index();
            for k in 0..d.sessions_per_day {
                let start = self.session_start_hour(d.sessions_per_day, day, k);
                if h >= start && h < start + d.session_len_h {
                    let into_s = (h - start) * 3600.0;
                    let circumference = std::f64::consts::TAU * d.radius_m;
                    let angle = std::f64::consts::TAU * (into_s * d.speed_mps / circumference);
                    let wobble = 0.6
                        + 0.4
                            * self
                                .stream
                                .fork("wobble")
                                .fork_idx((into_s / 60.0) as u64)
                                .draw_unit_f64();
                    return Some(PositionFix {
                        point: d.center.destination(angle, d.radius_m * wobble),
                        speed_mps: d.speed_mps,
                    });
                }
            }
            None
        }
    }

    fn fix_bits(fix: Option<PositionFix>) -> Option<[u64; 3]> {
        fix.map(|f| {
            [
                f.point.lat_deg().to_bits(),
                f.point.lon_deg().to_bits(),
                f.speed_mps.to_bits(),
            ]
        })
    }

    const DAYS: [i64; 7] = [-2, 0, 1, 2, 5, 6, (1 << 20) + 1];

    /// A 20 s grid over `day`, every exact hour, and the microseconds
    /// around each of `edges` (hours of `day`).
    fn query_times(day: i64, edges: &[f64]) -> Vec<SimTime> {
        let us = SimDuration::from_micros(1);
        let mut times: Vec<SimTime> = (0..86_400 / 20)
            .map(|k| SimTime::at(day, 0.0) + SimDuration::from_secs(20 * k))
            .collect();
        let hours = (0..=24).map(f64::from);
        for t in hours
            .chain(edges.iter().copied())
            .map(|h| SimTime::at(day, h))
        {
            times.extend([t - us, t, t + us]);
        }
        times
    }

    #[test]
    fn car_positions_match_reference_bitwise() {
        let (mut fixes, mut edges_hit) = (0, 0);
        for (id, drives) in [(10, 3), (11, 4), (12, 1)] {
            let stream = StreamRng::new(id as u64);
            let route = Arc::new(short_segment_route(center(), 0.7, &stream));
            let c = FixedRouteCar::new(ClientId(id), route, drives, 15.3, stream);
            let old = ReferenceClient::car(ClientId(id), stream);
            let round_trip_h = 2.0 * c.route.length_m() / c.speed_mps / 3600.0;
            for day in DAYS {
                let edges: Vec<f64> = (0..drives)
                    .map(|k| old.drive_start_hour(drives, day, k))
                    .flat_map(|start| [start, start + round_trip_h])
                    .collect();
                for t in query_times(day, &edges) {
                    let got = c.position_at(t);
                    let want = old.car_position_at(&c, t);
                    assert_eq!(fix_bits(got), fix_bits(want), "car {id} at {t:?}");
                    fixes += usize::from(got.is_some());
                }
                // A drive's first microsecond is on the road.
                edges_hit += edges
                    .iter()
                    .step_by(2)
                    .filter(|&&h| {
                        let t = SimTime::at(day, h) + SimDuration::from_micros(1);
                        c.position_at(t).is_some()
                    })
                    .count();
            }
        }
        assert!(fixes > 5_000, "{fixes} fixes");
        assert!(edges_hit > 40, "{edges_hit} drive starts on the road");
    }

    #[test]
    fn driver_positions_match_reference_bitwise() {
        let (mut fixes, mut edges_hit) = (0, 0);
        for (id, radius) in [(20, 250.0), (21, 120.0), (22, 10_000.0)] {
            let stream = StreamRng::new(id as u64);
            let d = ProximateDriver::new(ClientId(id), center(), radius, stream);
            let old = ReferenceClient::driver(ClientId(id), stream);
            for day in DAYS {
                let edges: Vec<f64> = (0..d.sessions_per_day)
                    .map(|k| old.session_start_hour(d.sessions_per_day, day, k))
                    .flat_map(|start| [start, start + d.session_len_h])
                    .collect();
                for t in query_times(day, &edges) {
                    let got = d.position_at(t);
                    let want = old.driver_position_at(&d, t);
                    assert_eq!(fix_bits(got), fix_bits(want), "driver {id} at {t:?}");
                    fixes += usize::from(got.is_some());
                }
                edges_hit += edges
                    .iter()
                    .step_by(2)
                    .filter(|&&h| {
                        let t = SimTime::at(day, h) + SimDuration::from_micros(1);
                        d.position_at(t).is_some()
                    })
                    .count();
            }
        }
        assert!(fixes > 5_000, "{fixes} fixes");
        assert!(edges_hit > 60, "{edges_hit} session starts in session");
    }
}
