//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use wiscape_simcore::dist::{BoundedPareto, Exponential, LogNormal, Normal, Zipf};
use wiscape_simcore::noise::{ValueNoise1D, ValueNoise2D};
use wiscape_simcore::process::DiurnalProfile;
use wiscape_simcore::{SimDuration, SimTime, StreamRng};

proptest! {
    #[test]
    fn sim_time_arithmetic_round_trips(base in -1_000_000_000i64..1_000_000_000, d in -1_000_000_000i64..1_000_000_000) {
        let t = SimTime::from_micros(base);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur) - t, dur);
    }

    #[test]
    fn hour_of_day_is_always_valid(us in -10_000_000_000_000i64..10_000_000_000_000) {
        let t = SimTime::from_micros(us);
        let h = t.hour_of_day();
        prop_assert!((0.0..24.0).contains(&h), "h = {h}");
        prop_assert!(t.day_of_week() < 7);
    }

    #[test]
    fn stream_rng_paths_are_stable_and_distinct(seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
        let root = StreamRng::new(seed);
        prop_assert_eq!(root.fork_idx(a).draw_u64(), root.fork_idx(a).draw_u64());
        if a != b {
            prop_assert_ne!(root.fork_idx(a).draw_u64(), root.fork_idx(b).draw_u64());
        }
    }

    #[test]
    fn noise_is_bounded_and_deterministic(seed in any::<u64>(), x in -1e4..1e4f64, y in -1e4..1e4f64) {
        let n1 = ValueNoise1D::new(StreamRng::new(seed));
        let n2 = ValueNoise2D::new(StreamRng::new(seed));
        let v1 = n1.at(x);
        let v2 = n2.at(x, y);
        prop_assert!(v1.abs() <= 1.0 + 1e-9);
        prop_assert!(v2.abs() <= 1.0 + 1e-9);
        prop_assert_eq!(v1, ValueNoise1D::new(StreamRng::new(seed)).at(x));
        prop_assert_eq!(v2, ValueNoise2D::new(StreamRng::new(seed)).at(x, y));
        prop_assert!(n1.fbm(x, 4, 0.5).abs() <= 1.0 + 1e-9);
        prop_assert!(n2.fbm(x, y, 4, 0.5).abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn diurnal_stays_in_band(depth in 0.0..0.9f64, weekend in 0.0..2.0f64, us in 0i64..1_000_000_000_000) {
        let p = DiurnalProfile::new(depth, weekend);
        let t = SimTime::from_micros(us);
        let load = p.load(t);
        prop_assert!((0.0..=1.0).contains(&load));
        prop_assert!(p.capacity_factor(t) >= 1.0 - depth - 1e-12);
        prop_assert!(p.capacity_factor(t) <= 1.0 + 1e-12);
        prop_assert!(p.latency_factor(t) >= 1.0 - 1e-12);
    }

    #[test]
    fn normal_samples_are_finite(mean in -1e6..1e6f64, std in 0.0..1e4f64, seed in any::<u64>()) {
        let d = Normal::new(mean, std).unwrap();
        let mut rng = StreamRng::new(seed).rng();
        for _ in 0..20 {
            prop_assert!(d.sample(&mut rng).is_finite());
        }
    }

    #[test]
    fn lognormal_is_positive(mean in 1e-3..1e6f64, cv in 0.0..2.0f64, seed in any::<u64>()) {
        let d = LogNormal::from_mean_cv(mean, cv).unwrap();
        let mut rng = StreamRng::new(seed).rng();
        for _ in 0..20 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn exponential_is_nonnegative(rate in 1e-6..1e6f64, seed in any::<u64>()) {
        let d = Exponential::new(rate).unwrap();
        let mut rng = StreamRng::new(seed).rng();
        for _ in 0..20 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn bounded_pareto_respects_bounds(alpha in 0.1..3.0f64, lo in 1.0..1e3f64, span in 1.0..1e6f64, seed in any::<u64>()) {
        let hi = lo + span;
        let d = BoundedPareto::new(alpha, lo, hi).unwrap();
        let mut rng = StreamRng::new(seed).rng();
        for _ in 0..50 {
            let v = d.sample(&mut rng);
            prop_assert!(v >= lo * (1.0 - 1e-9) && v <= hi * (1.0 + 1e-9), "v = {v}");
        }
    }

    #[test]
    fn zipf_ranks_in_range(n in 1usize..500, s in 0.0..3.0f64, seed in any::<u64>()) {
        let d = Zipf::new(n, s).unwrap();
        let mut rng = StreamRng::new(seed).rng();
        for _ in 0..50 {
            let r = d.sample(&mut rng);
            prop_assert!((1..=n).contains(&r));
        }
    }
}
