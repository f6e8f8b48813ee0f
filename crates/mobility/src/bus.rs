//! Transit and intercity buses.

use std::sync::Arc;

use wiscape_simcore::{SimTime, StreamRng};

use crate::client::{day_key, ClientId, DeviceCategory, MobileClient, PositionFix};
use crate::route::Route;

/// A Madison-style transit bus.
///
/// Buses run from 06:00 to midnight and are assigned a route *randomly
/// each day* (the paper notes this daily shuffling is what lets five
/// buses cover the whole city within a month). Along the route the bus
/// shuttles back and forth, with a per-day average speed drawn from a
/// city-driving range and short dwell pauses at the termini.
#[derive(Debug, Clone)]
pub struct TransitBus {
    id: ClientId,
    routes: Arc<Vec<Route>>,
    /// The bus's `"day-route"` node: day `d`'s route draws from
    /// `day_route.fork_idx(d)`.
    day_route: StreamRng,
    /// The bus's `"hour-speed"` node: hour `h` of day `d` draws its speed
    /// from `hour_speed.fork_idx(d).fork_idx(h)`.
    hour_speed: StreamRng,
    service_start_h: f64,
    service_end_h: f64,
}

/// Driving speed, m/s, drawn from hour `hour`'s node under a day's
/// `"hour-speed"` node.
fn hour_speed(day_speeds: StreamRng, hour: u32) -> f64 {
    4.5 + 8.0 * day_speeds.fork_idx(hour as u64).draw_unit_f64()
}

impl TransitBus {
    /// Creates bus `id` drawing daily from `routes`.
    pub fn new(id: ClientId, routes: Arc<Vec<Route>>, stream: StreamRng) -> Self {
        let bus = stream.fork("transit-bus").fork_idx(id.0 as u64);
        Self {
            id,
            routes,
            day_route: bus.fork("day-route"),
            hour_speed: bus.fork("hour-speed"),
            service_start_h: 6.0,
            service_end_h: 24.0,
        }
    }

    /// The route this bus runs on `day`.
    pub fn route_for_day(&self, day: i64) -> &Route {
        let pick = self.day_route.fork_idx(day_key(day)).draw_u64() as usize;
        &self.routes[pick % self.routes.len()]
    }

    /// Driving speed during hour `hour` of `day`, m/s. City traffic
    /// varies hour to hour (16–45 km/h), so a zone visited at different
    /// times sees the bus at different speeds — which is what makes the
    /// paper's speed-vs-latency independence check (Fig 2) meaningful.
    pub fn speed_for_hour(&self, day: i64, hour: u32) -> f64 {
        hour_speed(self.hour_speed.fork_idx(day_key(day)), hour)
    }

    /// Distance driven since service start at 06:00, meters, integrating
    /// the hourly speeds drawn under the day's node `day_speeds`.
    fn distance_since_service_start(&self, day_speeds: StreamRng, hour_of_day: f64) -> f64 {
        let start = self.service_start_h;
        if hour_of_day <= start {
            return 0.0;
        }
        let mut dist = 0.0;
        let mut h = start;
        while h < hour_of_day {
            let seg_end = (h.floor() + 1.0).min(hour_of_day);
            dist += hour_speed(day_speeds, h.floor() as u32) * (seg_end - h) * 3600.0;
            h = seg_end;
        }
        dist
    }
}

impl MobileClient for TransitBus {
    fn id(&self) -> ClientId {
        self.id
    }

    fn category(&self) -> DeviceCategory {
        DeviceCategory::SingleBoardComputer
    }

    fn platform(&self) -> &'static str {
        "transit-bus"
    }

    fn position_at(&self, t: SimTime) -> Option<PositionFix> {
        let h = t.hour_of_day();
        if h < self.service_start_h || h >= self.service_end_h {
            return None;
        }
        let day = t.day_index();
        let route = self.route_for_day(day);
        // The day's speed node, forked once for every hour of the query.
        let day_speeds = self.hour_speed.fork_idx(day_key(day));
        // Shuttle: cumulative distance folds into a triangle wave over
        // the route length.
        let len = route.length_m();
        let dist = self.distance_since_service_start(day_speeds, h);
        let phase = (dist / len).rem_euclid(2.0);
        let s = if phase <= 1.0 {
            phase * len
        } else {
            (2.0 - phase) * len
        };
        Some(PositionFix {
            point: route.point_at(s),
            speed_mps: hour_speed(day_speeds, h.floor() as u32),
        })
    }
}

/// An intercity bus plying a long corridor (Madison–Chicago).
///
/// Departs the origin at `depart_hour` every day, drives the corridor at
/// highway speed, waits, and returns; out of service otherwise.
#[derive(Debug, Clone)]
pub struct IntercityBus {
    id: ClientId,
    route: Arc<Route>,
    depart_hour: f64,
    speed_mps: f64,
    layover_s: f64,
}

impl IntercityBus {
    /// Creates an intercity bus departing daily at `depart_hour`, driving
    /// at `speed_mps` (highway: ~25–33 m/s).
    pub fn new(id: ClientId, route: Arc<Route>, depart_hour: f64, speed_mps: f64) -> Self {
        Self {
            id,
            route,
            depart_hour,
            speed_mps: speed_mps.clamp(15.0, 36.0),
            layover_s: 3600.0,
        }
    }

    /// The corridor this bus drives.
    pub fn route(&self) -> &Route {
        &self.route
    }
}

impl MobileClient for IntercityBus {
    fn id(&self) -> ClientId {
        self.id
    }

    fn category(&self) -> DeviceCategory {
        DeviceCategory::SingleBoardComputer
    }

    fn platform(&self) -> &'static str {
        "intercity-bus"
    }

    fn position_at(&self, t: SimTime) -> Option<PositionFix> {
        let h = t.hour_of_day();
        let since_depart_s = (h - self.depart_hour) * 3600.0;
        if since_depart_s < 0.0 {
            return None;
        }
        let len = self.route.length_m();
        let leg_s = len / self.speed_mps;
        if since_depart_s < leg_s {
            // Outbound.
            return Some(PositionFix {
                point: self.route.point_at(since_depart_s * self.speed_mps),
                speed_mps: self.speed_mps,
            });
        }
        let after_layover = since_depart_s - leg_s - self.layover_s;
        if after_layover >= 0.0 && after_layover < leg_s {
            // Return leg.
            return Some(PositionFix {
                point: self.route.point_at(len - after_layover * self.speed_mps),
                speed_mps: self.speed_mps,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{intercity_route, madison_routes};
    use wiscape_geo::GeoPoint;
    use wiscape_simcore::SimDuration;

    fn center() -> GeoPoint {
        GeoPoint::new(43.0731, -89.4012).unwrap()
    }

    fn bus() -> TransitBus {
        let routes = Arc::new(madison_routes(center(), 7000.0, 8, &StreamRng::new(1)));
        TransitBus::new(ClientId(0), routes, StreamRng::new(1))
    }

    #[test]
    fn out_of_service_at_night() {
        let b = bus();
        assert!(b.position_at(SimTime::at(1, 3.0)).is_none());
        assert!(b.position_at(SimTime::at(1, 5.9)).is_none());
        assert!(b.position_at(SimTime::at(1, 6.1)).is_some());
        assert!(b.position_at(SimTime::at(1, 23.9)).is_some());
    }

    #[test]
    fn route_rotates_across_days() {
        let b = bus();
        let names: std::collections::HashSet<&str> =
            (0..30).map(|d| b.route_for_day(d).name()).collect();
        assert!(names.len() >= 4, "only {} routes in 30 days", names.len());
    }

    #[test]
    fn same_day_same_route() {
        let b = bus();
        assert_eq!(b.route_for_day(5).name(), b.route_for_day(5).name());
    }

    #[test]
    fn bus_moves_at_city_speed() {
        let b = bus();
        let day = 2;
        let f1 = b.position_at(SimTime::at(day, 10.0)).unwrap();
        let f2 = b
            .position_at(SimTime::at(day, 10.0) + SimDuration::from_secs(60))
            .unwrap();
        let d = f1.point.haversine_distance(&f2.point);
        // 60 s at 4.5-12.5 m/s, unless the shuttle folded at a terminus.
        assert!(d < 1000.0, "moved {d} m in 60 s");
        assert!((4.5..=12.5).contains(&b.speed_for_hour(day, 10)));
    }

    #[test]
    fn speeds_vary_within_a_day() {
        let b = bus();
        let speeds: std::collections::HashSet<i64> = (6..24)
            .map(|h| (b.speed_for_hour(3, h) * 1000.0) as i64)
            .collect();
        assert!(speeds.len() > 10, "hourly speeds should differ: {speeds:?}");
        // Deterministic per (day, hour).
        assert_eq!(b.speed_for_hour(3, 9), b.speed_for_hour(3, 9));
    }

    #[test]
    fn position_is_continuous_across_hour_boundaries() {
        let b = bus();
        let before = b.position_at(SimTime::at(2, 10.999)).unwrap();
        let after = b.position_at(SimTime::at(2, 11.001)).unwrap();
        let d = before.point.haversine_distance(&after.point);
        assert!(d < 150.0, "jump of {d} m across an hour boundary");
    }

    #[test]
    fn bus_stays_on_its_route() {
        let b = bus();
        let day = 3;
        let route = b.route_for_day(day);
        for k in 0..50 {
            let t = SimTime::at(day, 7.0 + k as f64 * 0.3);
            if let Some(fix) = b.position_at(t) {
                let d = route.path().distance_to_nearest_vertex(&fix.point);
                assert!(d < 1200.0, "off route by {d} m");
            }
        }
    }

    #[test]
    fn coverage_over_a_month_is_broad() {
        // Five buses over 28 days should visit many distinct 500 m cells.
        let routes = Arc::new(madison_routes(center(), 7000.0, 10, &StreamRng::new(9)));
        let grid =
            wiscape_geo::SquareGrid::new(wiscape_geo::BoundingBox::around(center(), 8000.0), 500.0)
                .unwrap();
        let mut cells = std::collections::HashSet::new();
        for id in 0..5 {
            let b = TransitBus::new(ClientId(id), routes.clone(), StreamRng::new(9));
            for day in 0..28 {
                for k in 0..36 {
                    let t = SimTime::at(day, 6.5 + k as f64 * 0.48);
                    if let Some(fix) = b.position_at(t) {
                        cells.insert(grid.cell_of(&fix.point));
                    }
                }
            }
        }
        assert!(cells.len() > 150, "covered only {} cells", cells.len());
    }

    #[test]
    fn intercity_schedule_and_legs() {
        let chicago = GeoPoint::new(41.8781, -87.6298).unwrap();
        let route = Arc::new(intercity_route(center(), chicago, &StreamRng::new(2)));
        let b = IntercityBus::new(ClientId(50), route.clone(), 8.0, 27.0);
        assert!(b.position_at(SimTime::at(1, 7.5)).is_none());
        let depart = b.position_at(SimTime::at(1, 8.0)).unwrap();
        assert!(depart.point.haversine_distance(&center()) < 500.0);
        // Mid-outbound: somewhere along, moving at highway speed.
        let mid = b.position_at(SimTime::at(1, 9.5)).unwrap();
        assert!((mid.speed_mps - 27.0).abs() < 1e-9);
        assert!(mid.point.haversine_distance(&center()) > 50_000.0);
        // Leg takes ~2.2 h at 27 m/s for ~215 km; at 8h + leg + 1h
        // layover the bus heads back.
        let leg_h = route.length_m() / 27.0 / 3600.0;
        let back = b
            .position_at(SimTime::at(1, 8.0 + leg_h + 1.0 + 0.2))
            .unwrap();
        assert!(back.point.haversine_distance(&chicago) < 40_000.0);
        // Long after both legs: out of service.
        assert!(b
            .position_at(SimTime::at(1, 8.0 + 2.0 * leg_h + 1.0 + 0.5))
            .is_none());
    }

    #[test]
    fn platforms_and_categories() {
        let b = bus();
        assert_eq!(b.platform(), "transit-bus");
        assert_eq!(b.category(), DeviceCategory::SingleBoardComputer);
    }

    /// The transit bus [`TransitBus`] replaced: every query forks its
    /// `"day-route"` node from the bus's stream, and every hour since
    /// service start forks `"hour-speed"`, the day and the hour again.
    struct ReferenceBus {
        routes: Arc<Vec<Route>>,
        stream: StreamRng,
    }

    impl ReferenceBus {
        fn new(id: ClientId, routes: Arc<Vec<Route>>, stream: StreamRng) -> Self {
            let stream = stream.fork("transit-bus").fork_idx(id.0 as u64);
            Self { routes, stream }
        }

        fn route_for_day(&self, day: i64) -> &Route {
            let pick = self
                .stream
                .fork("day-route")
                .fork_idx(day.rem_euclid(1 << 20) as u64)
                .draw_u64() as usize;
            &self.routes[pick % self.routes.len()]
        }

        fn speed_for_hour(&self, day: i64, hour: u32) -> f64 {
            let u = self
                .stream
                .fork("hour-speed")
                .fork_idx(day.rem_euclid(1 << 20) as u64)
                .fork_idx(hour as u64)
                .draw_unit_f64();
            4.5 + 8.0 * u
        }

        fn distance_since_service_start(&self, day: i64, hour_of_day: f64) -> f64 {
            let start = 6.0;
            if hour_of_day <= start {
                return 0.0;
            }
            let mut dist = 0.0;
            let mut h = start;
            while h < hour_of_day {
                let seg_end = (h.floor() + 1.0).min(hour_of_day);
                dist += self.speed_for_hour(day, h.floor() as u32) * (seg_end - h) * 3600.0;
                h = seg_end;
            }
            dist
        }

        fn position_at(&self, t: SimTime) -> Option<PositionFix> {
            let h = t.hour_of_day();
            if !(6.0..24.0).contains(&h) {
                return None;
            }
            let day = t.day_index();
            let route = self.route_for_day(day);
            let len = route.length_m();
            let dist = self.distance_since_service_start(day, h);
            let phase = (dist / len).rem_euclid(2.0);
            let s = if phase <= 1.0 {
                phase * len
            } else {
                (2.0 - phase) * len
            };
            Some(PositionFix {
                point: route.point_at(s),
                speed_mps: self.speed_for_hour(day, h.floor() as u32),
            })
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

    /// Query times on `day`: a 20 s grid, every exact hour and the
    /// microseconds around it, service start and the day's last
    /// microsecond.
    fn query_times(day: i64) -> Vec<SimTime> {
        let us = SimDuration::from_micros(1);
        let mut times: Vec<SimTime> = (0..86_400 / 20)
            .map(|k| SimTime::at(day, 0.0) + SimDuration::from_secs(20 * k))
            .collect();
        for hour in 0..=24 {
            let t = SimTime::at(day, hour as f64);
            times.extend([t - us, t, t + us]);
        }
        times
    }

    #[test]
    fn positions_match_reference_bitwise() {
        let routes = Arc::new(madison_routes(center(), 7000.0, 8, &StreamRng::new(4)));
        let (mut fixes, mut idle) = (0, 0);
        for id in 0..3 {
            let stream = StreamRng::new(4 + id as u64);
            let bus = TransitBus::new(ClientId(id), routes.clone(), stream);
            let old = ReferenceBus::new(ClientId(id), routes.clone(), stream);
            for day in [-2, 0, 1, 2, 5, 6, (1 << 20) + 1] {
                assert_eq!(bus.route_for_day(day).name(), old.route_for_day(day).name());
                for hour in 0..24 {
                    let (got, want) =
                        (bus.speed_for_hour(day, hour), old.speed_for_hour(day, hour));
                    assert_eq!(got.to_bits(), want.to_bits());
                }
                for t in query_times(day) {
                    let got = bus.position_at(t);
                    assert_eq!(
                        fix_bits(got),
                        fix_bits(old.position_at(t)),
                        "bus {id} at {t:?}"
                    );
                    fixes += usize::from(got.is_some());
                    idle += usize::from(got.is_none());
                }
            }
        }
        assert!(fixes > 10_000 && idle > 1_000, "{fixes} fixes, {idle} idle");
    }
}
