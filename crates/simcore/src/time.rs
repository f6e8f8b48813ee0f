//! Simulated time.
//!
//! Time is kept as integer **microseconds** since the simulation epoch,
//! which is defined as *midnight at the start of a Monday*. Integer time
//! makes event ordering exact and serialization lossless; microsecond
//! resolution comfortably covers per-packet timestamps at cellular rates.

use serde::{Deserialize, Serialize};

/// Microseconds in one second.
pub const MICROS_PER_SEC: i64 = 1_000_000;
/// Seconds in one day.
pub const SECS_PER_DAY: i64 = 86_400;

/// A span of simulated time (signed, microsecond resolution).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(i64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole microseconds.
    pub const fn from_micros(us: i64) -> Self {
        Self(us)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Self(ms * 1_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        Self(s * MICROS_PER_SEC)
    }

    /// From whole minutes.
    pub const fn from_mins(m: i64) -> Self {
        Self(m * 60 * MICROS_PER_SEC)
    }

    /// From whole hours.
    pub const fn from_hours(h: i64) -> Self {
        Self(h * 3600 * MICROS_PER_SEC)
    }

    /// From fractional seconds (rounded to the nearest microsecond).
    pub fn from_secs_f64(s: f64) -> Self {
        Self((s * MICROS_PER_SEC as f64).round() as i64)
    }

    /// Whole microseconds.
    pub const fn as_micros(&self) -> i64 {
        self.0
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Fractional minutes.
    pub fn as_mins_f64(&self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Whether this duration is negative.
    pub const fn is_negative(&self) -> bool {
        self.0 < 0
    }
}

impl core::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl core::ops::Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl core::ops::Mul<i64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl core::ops::Div<i64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

/// An instant of simulated time: microseconds since the simulation epoch
/// (midnight starting a Monday).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(i64);

impl SimTime {
    /// The simulation epoch (t = 0, Monday 00:00).
    pub const EPOCH: SimTime = SimTime(0);

    /// From whole microseconds since the epoch.
    pub const fn from_micros(us: i64) -> Self {
        Self(us)
    }

    /// From whole seconds since the epoch.
    pub const fn from_secs(s: i64) -> Self {
        Self(s * MICROS_PER_SEC)
    }

    /// Convenience constructor: day index plus hour-of-day.
    ///
    /// `SimTime::at(3, 14.5)` is Thursday 14:30 (day 0 is Monday).
    pub fn at(day: i64, hour: f64) -> Self {
        Self::from_micros(
            day * SECS_PER_DAY * MICROS_PER_SEC
                + (hour * 3600.0 * MICROS_PER_SEC as f64).round() as i64,
        )
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(&self) -> i64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Day index since the epoch (day 0 = Monday). Negative times floor.
    pub fn day_index(&self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY * MICROS_PER_SEC)
    }

    /// Day of week, 0 = Monday … 6 = Sunday.
    pub fn day_of_week(&self) -> u8 {
        (self.day_index().rem_euclid(7)) as u8
    }

    /// Whether the day is Saturday or Sunday.
    pub fn is_weekend(&self) -> bool {
        self.day_of_week() >= 5
    }

    /// Hour of day in `[0, 24)`, fractional.
    pub fn hour_of_day(&self) -> f64 {
        let us_into_day = self.0.rem_euclid(SECS_PER_DAY * MICROS_PER_SEC);
        us_into_day as f64 / (3600.0 * MICROS_PER_SEC as f64)
    }

    /// Duration elapsed since `earlier` (negative if `earlier` is later).
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }
}

impl core::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl core::ops::Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_micros())
    }
}

impl core::ops::Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl core::fmt::Display for SimTime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        const DAYS: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
        let h = self.hour_of_day();
        let hh = h as i64;
        let mm = ((h - hh as f64) * 60.0) as i64;
        write!(
            f,
            "day {} ({}) {:02}:{:02}",
            self.day_index(),
            DAYS[self.day_of_week() as usize],
            hh,
            mm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_mins(3), SimDuration::from_secs(180));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(10);
        let b = SimDuration::from_secs(4);
        assert_eq!(a + b, SimDuration::from_secs(14));
        assert_eq!(a - b, SimDuration::from_secs(6));
        assert_eq!(b - a, SimDuration::from_secs(-6));
        assert!((b - a).is_negative());
        assert_eq!(a * 3, SimDuration::from_secs(30));
        assert_eq!(a / 2, SimDuration::from_secs(5));
    }

    #[test]
    fn time_arithmetic_round_trip() {
        let t = SimTime::from_secs(1000);
        let d = SimDuration::from_millis(2500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t.since(SimTime::EPOCH), SimDuration::from_secs(1000));
    }

    #[test]
    fn calendar_helpers() {
        let monday_noon = SimTime::at(0, 12.0);
        assert_eq!(monday_noon.day_of_week(), 0);
        assert!(!monday_noon.is_weekend());
        assert!((monday_noon.hour_of_day() - 12.0).abs() < 1e-9);

        let saturday = SimTime::at(5, 15.5);
        assert_eq!(saturday.day_of_week(), 5);
        assert!(saturday.is_weekend());
        assert!((saturday.hour_of_day() - 15.5).abs() < 1e-9);

        let next_monday = SimTime::at(7, 0.0);
        assert_eq!(next_monday.day_of_week(), 0);
        assert_eq!(next_monday.day_index(), 7);
    }

    #[test]
    fn hour_of_day_wraps() {
        let t = SimTime::at(2, 23.0) + SimDuration::from_hours(2);
        assert_eq!(t.day_index(), 3);
        assert!((t.hour_of_day() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let t = SimTime::at(5, 14.25);
        let s = format!("{t}");
        assert!(s.contains("Sat"), "{s}");
        assert!(s.contains("14:15"), "{s}");
    }

    #[test]
    fn ordering_matches_micros() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::EPOCH < SimTime::from_micros(1));
    }

    #[test]
    fn negative_times_floor_correctly() {
        let t = SimTime::from_secs(-1);
        assert_eq!(t.day_index(), -1);
        assert!((t.hour_of_day() - (24.0 - 1.0 / 3600.0)).abs() < 1e-6);
    }
}
