//! Property-based tests for the WiScape framework.

use proptest::prelude::*;
use wiscape_core::{
    persistent_dominant, Better, Coordinator, CoordinatorConfig, DominanceOutcome, Observation,
    ZoneAggregator, ZoneIndex,
};
use wiscape_geo::{BoundingBox, GeoPoint};
use wiscape_mobility::ClientId;
use wiscape_simcore::SimTime;
use wiscape_simnet::NetworkId;

fn center() -> GeoPoint {
    GeoPoint::new(43.0731, -89.4012).unwrap()
}

proptest! {
    #[test]
    fn zone_index_total_and_consistent(
        radius in 50.0..1000.0f64,
        bearing in 0.0..std::f64::consts::TAU,
        dist in 0.0..20_000.0f64,
    ) {
        let index = ZoneIndex::new(BoundingBox::around(center(), 7000.0), radius).unwrap();
        let p = center().destination(bearing, dist);
        let z = index.zone_of(&p);
        // Total: every point gets a zone; points within a quarter radius
        // of each other share it or are in adjacent cells.
        let q = p.destination(bearing, radius / 8.0);
        let zq = index.zone_of(&q);
        prop_assert!((z.0.col - zq.0.col).abs() <= 1);
        prop_assert!((z.0.row - zq.0.row).abs() <= 1);
        // Zone centers map back into their own zone.
        prop_assert_eq!(index.zone_of(&index.center_of(z)), z);
    }

    #[test]
    fn aggregator_mean_is_sample_mean(values in prop::collection::vec(1.0..1e4f64, 1..100)) {
        let index = ZoneIndex::around(center(), 5000.0).unwrap();
        let mut agg = ZoneAggregator::new(index);
        for &v in &values {
            agg.ingest(&Observation {
                network: NetworkId::NetB,
                point: center(),
                t: SimTime::EPOCH,
                value: v,
            });
        }
        let z = agg.index().zone_of(&center());
        let s = agg.stats(z, NetworkId::NetB).unwrap();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.max(1.0));
        prop_assert_eq!(s.count() as usize, values.len());
        // No raw retention: the aggregator's footprint is one cell.
        prop_assert_eq!(
            agg.sketch_bytes(),
            std::mem::size_of::<wiscape_stats::RunningStats>()
                + std::mem::size_of::<(wiscape_core::ZoneId, NetworkId)>()
        );
    }

    #[test]
    fn moment_sketch_matches_from_slice_bitwise(
        values in prop::collection::vec(-1e6..1e6f64, 1..200),
    ) {
        // Streaming a series through the sketch must be *bit-identical*
        // to the batch Welford pass over the retained slice — this is
        // the byte-identity contract of the refactor.
        let mut sk = wiscape_stats::RunningStats::new();
        for &v in &values {
            sk.push(v);
        }
        let batch = wiscape_stats::RunningStats::from_slice(&values);
        prop_assert_eq!(sk.count(), batch.count());
        prop_assert_eq!(sk.mean().to_bits(), batch.mean().to_bits());
        prop_assert_eq!(
            sk.sample_variance().to_bits(),
            batch.sample_variance().to_bits()
        );
        prop_assert_eq!(sk.min(), batch.min());
        prop_assert_eq!(sk.max(), batch.max());
    }

    #[test]
    fn moment_sketch_fixed_order_merge_is_deterministic_and_exact(
        values in prop::collection::vec(1.0..1e4f64, 2..200),
        cut in 0usize..200,
    ) {
        // Shards merged in a fixed order give the same bits every time,
        // and the merged moments agree with the batch pass to floating
        // round-off.
        let cut = cut % values.len();
        let shard = |r: &[f64]| {
            let mut s = wiscape_stats::RunningStats::new();
            for &v in r {
                s.push(v);
            }
            s
        };
        let (a, b) = (shard(&values[..cut]), shard(&values[cut..]));
        let mut m1 = a;
        m1.merge(&b);
        let mut m2 = a;
        m2.merge(&b);
        prop_assert_eq!(m1.mean().to_bits(), m2.mean().to_bits());
        prop_assert_eq!(
            m1.sample_variance().to_bits(),
            m2.sample_variance().to_bits()
        );
        let batch = wiscape_stats::RunningStats::from_slice(&values);
        prop_assert_eq!(m1.count(), batch.count());
        prop_assert!((m1.mean() - batch.mean()).abs() <= 1e-9 * batch.mean().abs().max(1.0));
        prop_assert!(
            (m1.sample_variance() - batch.sample_variance()).abs()
                <= 1e-6 * batch.sample_variance().abs().max(1.0)
        );
    }

    #[test]
    fn dominance_is_antisymmetric(
        mean_a in 100.0..3000.0f64,
        mean_b in 100.0..3000.0f64,
        spread in 1.0..500.0f64,
    ) {
        let mk = |m: f64| -> Vec<f64> {
            (0..40).map(|i| m - spread / 2.0 + spread * i as f64 / 39.0).collect()
        };
        let samples = vec![(NetworkId::NetA, mk(mean_a)), (NetworkId::NetB, mk(mean_b))];
        match persistent_dominant(&samples, Better::Higher) {
            DominanceOutcome::Dominant(n) => {
                // The winner must have the larger mean, and flipping the
                // direction must never crown the same network.
                let bigger = if mean_a >= mean_b { NetworkId::NetA } else { NetworkId::NetB };
                prop_assert_eq!(n, bigger);
                if let DominanceOutcome::Dominant(m) =
                    persistent_dominant(&samples, Better::Lower)
                {
                    prop_assert_ne!(m, n);
                }
            }
            DominanceOutcome::None => {
                // Overlapping tails: the gap must be within the combined
                // spread scale.
                prop_assert!((mean_a - mean_b).abs() <= spread * 1.01);
            }
            DominanceOutcome::Insufficient => prop_assert!(false, "40 samples is sufficient"),
        }
    }

    #[test]
    fn coordinator_never_exceeds_quota_in_an_epoch(
        quota in 20u32..300,
        per_task in 5u32..50,
        checkins in 1usize..400,
    ) {
        let index = ZoneIndex::around(center(), 5000.0).unwrap();
        let mut coord = Coordinator::new(
            index,
            CoordinatorConfig {
                target_samples_per_epoch: quota,
                packets_per_task: per_task,
                ..Default::default()
            },
        );
        let mut issued_packets = 0u64;
        for k in 0..checkins {
            // All within one epoch (default 30 min).
            let t = SimTime::from_secs((k as i64) % 1700);
            let tasks = coord.client_checkin(
                ClientId(k as u32),
                &center(),
                t,
                &[NetworkId::NetB],
                0.0, // always issue when needed
            );
            issued_packets += tasks.iter().map(|t| t.n_packets as u64).sum::<u64>();
        }
        // Never more than one task beyond the quota.
        prop_assert!(issued_packets <= (quota + per_task) as u64);
        prop_assert_eq!(issued_packets, coord.packets_requested());
    }

    #[test]
    fn issue_probability_is_a_probability(needed in 0u32..10_000) {
        let index = ZoneIndex::around(center(), 2000.0).unwrap();
        let coord = Coordinator::new(index, CoordinatorConfig::default());
        let p = coord.issue_probability(needed);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn quota_override_round_trips(quota in 1u32..500) {
        let index = ZoneIndex::around(center(), 2000.0).unwrap();
        let mut coord = Coordinator::new(index, CoordinatorConfig::default());
        let z = coord.index().zone_of(&center());
        coord.set_zone_quota(z, NetworkId::NetC, quota);
        prop_assert_eq!(coord.zone_quota(z, NetworkId::NetC), quota.max(1));
        // Other zones keep the default.
        let other = coord.index().zone_of(&center().destination(0.0, 3000.0));
        prop_assert_eq!(
            coord.zone_quota(other, NetworkId::NetC),
            coord.config().target_samples_per_epoch
        );
    }
}
