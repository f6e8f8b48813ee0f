//! Property tests for the SoA train field evaluator.
//!
//! The contract under test: [`NetworkField::link_quality_train`] is
//! bitwise identical to per-time [`NetworkField::link_quality`] for
//! *any* point, seed, train length (empty trains included) and time
//! order.

use proptest::prelude::*;
use wiscape_simcore::SimTime;
use wiscape_simnet::{LandscapeConfig, NetworkField, NetworkId};

/// Proptest-chosen trains: each `(bearing_deg, dist_m, secs)` triple is
/// one point queried at each of `secs` (seconds into the week, in drawn
/// order, so unsorted and repeated times occur too).
fn arb_trains() -> impl Strategy<Value = Vec<(f64, f64, Vec<i64>)>> {
    prop::collection::vec(
        (
            0.0..360.0f64,
            0.0..12_000.0f64,
            prop::collection::vec(0..7 * 86_400i64, 0..12),
        ),
        1..12,
    )
}

fn quality_bits(q: &wiscape_simnet::LinkQuality) -> [u64; 5] {
    [
        q.tcp_kbps.to_bits(),
        q.udp_kbps.to_bits(),
        q.rtt_ms.to_bits(),
        q.jitter_ms.to_bits(),
        q.loss_rate.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn train_is_bitwise_identical_to_scalar(
        seed in 0..64u64,
        trains in arb_trains(),
    ) {
        let cfg = LandscapeConfig::madison(seed);
        let field = NetworkField::new(&cfg, NetworkId::NetB).expect("NetB present");
        for (bearing, dist, secs) in &trains {
            let p = cfg.origin.destination(*bearing, *dist);
            let times: Vec<SimTime> = secs
                .iter()
                .map(|s| SimTime::from_micros(s * 1_000_000))
                .collect();
            let train = field.link_quality_train(&p, &times);
            prop_assert_eq!(train.len(), times.len());
            for (t, q) in times.iter().zip(&train) {
                prop_assert_eq!(
                    quality_bits(q),
                    quality_bits(&field.link_quality(&p, *t)),
                    "scalar mismatch at ({:?}, {:?})", p, t
                );
            }
        }
    }
}
