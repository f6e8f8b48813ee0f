//! **Table 5** — back-to-back packets needed to estimate throughput
//! within 97% of the expected value.
//!
//! Paper: NetA-WI 90 (UDP) / 60 (TCP); NetB-WI 60/40; NetC-WI 40/40;
//! NetB-NJ 120/120; NetC-NJ 70/50. We regenerate per-packet sample
//! pools at a representative zone and run the paper's resampling
//! procedure (100 iterations per candidate count).

use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use wiscape_core::sampling::{packets_for_accuracy, AccuracyTarget};
use wiscape_datasets::locations;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::{Landscape, LandscapeConfig, LinkQuality, NetworkId, TransportKind};

use crate::common::Scale;

/// One table row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tab05Row {
    /// Network-region label.
    pub label: String,
    /// Packets needed for UDP.
    pub udp_packets: Option<usize>,
    /// Packets needed for TCP.
    pub tcp_packets: Option<usize>,
}

/// Result of the Table 5 regeneration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tab05 {
    /// All rows (WI then NJ).
    pub rows: Vec<Tab05Row>,
}

/// Start times of the back-to-back bursts: one stable period.
fn burst_starts(scale: Scale) -> Vec<SimTime> {
    let t = SimTime::at(2, 10.0);
    (0..scale.pick(20, 50))
        .map(|burst| t + SimDuration::from_secs(burst * 2))
        .collect()
}

/// The pool of per-packet instantaneous throughputs of one `kind` train
/// per burst from `spot`, and the ground truth: the field mean over the
/// bursts (the paper's "expected value"). `qualities` holds the field at
/// `spot` at each burst, so both transports share one evaluation.
fn burst_pool(
    land: &Landscape,
    net: NetworkId,
    kind: TransportKind,
    bursts: &[SimTime],
    qualities: &[LinkQuality],
) -> (Vec<f64>, f64) {
    let mut pool = Vec::new();
    let mut truth_acc = 0.0;
    let mut truth_n = 0;
    for (&bt, q) in bursts.iter().zip(qualities) {
        let train = land
            .train_from_quality(net, kind, bt, 60, 1200, q)
            .expect("network present");
        pool.extend(train.received_kbps());
        truth_acc += match kind {
            TransportKind::Udp => q.udp_kbps,
            TransportKind::Tcp => q.tcp_kbps,
        };
        truth_n += 1;
    }
    (pool, truth_acc / truth_n as f64)
}

fn region_rows(land: &Landscape, seed: u64, scale: Scale, region: &str, out: &mut Vec<Tab05Row>) {
    let spot = locations::representative_static_locations(land, 1, 5000.0, 100.0)[0].point;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x7AB5);
    let target = AccuracyTarget {
        iterations: scale.pick(60, 100),
        ..Default::default()
    };
    let bursts = burst_starts(scale);
    for net in land.networks() {
        let qualities = land
            .field(net)
            .expect("network present")
            .link_quality_train(&spot, &bursts);
        let mut needed = [None, None];
        for (slot, kind) in [(0usize, TransportKind::Udp), (1, TransportKind::Tcp)] {
            let (pool, truth) = burst_pool(land, net, kind, &bursts, &qualities);
            needed[slot] = packets_for_accuracy(&pool, truth, 400, &target, &mut rng);
        }
        out.push(Tab05Row {
            label: format!("{net}-{region}"),
            udp_packets: needed[0],
            tcp_packets: needed[1],
        });
    }
}

/// Runs the experiment.
pub fn run(seed: u64, scale: Scale) -> Tab05 {
    let mut rows = Vec::new();
    region_rows(
        &Landscape::new(LandscapeConfig::madison(seed)),
        seed,
        scale,
        "WI",
        &mut rows,
    );
    region_rows(
        &Landscape::new(LandscapeConfig::new_brunswick(seed)),
        seed,
        scale,
        "NJ",
        &mut rows,
    );
    Tab05 { rows }
}

impl Tab05 {
    /// Finds a row.
    pub fn row(&self, label: &str) -> Option<&Tab05Row> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Markdown summary.
    pub fn summary(&self) -> String {
        let fmt = |v: Option<usize>| v.map(|n| n.to_string()).unwrap_or_else(|| ">400".into());
        let mut lines =
            vec!["**Table 5 (packets for 97% accuracy).** measured (paper):".to_string()];
        let paper: &[(&str, &str, &str)] = &[
            ("NetA-WI", "90", "60"),
            ("NetB-WI", "60", "40"),
            ("NetC-WI", "40", "40"),
            ("NetB-NJ", "120", "120"),
            ("NetC-NJ", "70", "50"),
        ];
        for r in &self.rows {
            let (pu, pt) = paper
                .iter()
                .find(|(l, _, _)| *l == r.label)
                .map(|(_, u, t)| (*u, *t))
                .unwrap_or(("?", "?"));
            lines.push(format!(
                "  {}: UDP {} ({pu}), TCP {} ({pt})",
                r.label,
                fmt(r.udp_packets),
                fmt(r.tcp_packets)
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool [`burst_pool`] replaced, verbatim: a probe train per
    /// burst, then the field evaluated again at the same point and time
    /// for the truth.
    fn reference_pool(
        land: &Landscape,
        net: NetworkId,
        kind: TransportKind,
        spot: &wiscape_geo::GeoPoint,
        scale: Scale,
    ) -> (Vec<f64>, f64) {
        let t = SimTime::at(2, 10.0);
        let mut pool = Vec::new();
        let mut truth_acc = 0.0;
        let mut truth_n = 0;
        for burst in 0..scale.pick(20, 50) {
            let bt = t + SimDuration::from_secs(burst * 2);
            let train = land
                .probe_train(net, kind, spot, bt, 60, 1200)
                .expect("network present");
            pool.extend(train.received_kbps());
            let q = land.link_quality(net, spot, bt).expect("present");
            truth_acc += match kind {
                TransportKind::Udp => q.udp_kbps,
                TransportKind::Tcp => q.tcp_kbps,
            };
            truth_n += 1;
        }
        (pool, truth_acc / truth_n as f64)
    }

    #[test]
    fn shared_evaluation_matches_reference_pools_bitwise() {
        for seed in [7, 42] {
            for land in [
                Landscape::new(LandscapeConfig::madison(seed)),
                Landscape::new(LandscapeConfig::new_brunswick(seed)),
            ] {
                let spot =
                    locations::representative_static_locations(&land, 1, 5000.0, 100.0)[0].point;
                for scale in [Scale::Quick, Scale::Full] {
                    let bursts = burst_starts(scale);
                    for net in land.networks() {
                        let field = land.field(net).unwrap();
                        let qualities = field.link_quality_train(&spot, &bursts);
                        for kind in [TransportKind::Udp, TransportKind::Tcp] {
                            let (pool, truth) = burst_pool(&land, net, kind, &bursts, &qualities);
                            let (want_pool, want_truth) =
                                reference_pool(&land, net, kind, &spot, scale);
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&pool), bits(&want_pool), "{net} {kind:?}");
                            assert_eq!(truth.to_bits(), want_truth.to_bits(), "{net} {kind:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packet_counts_land_in_paper_range_and_order() {
        let r = run(42, Scale::Quick);
        assert_eq!(r.rows.len(), 5);
        for row in &r.rows {
            let u = row.udp_packets.expect("UDP converges");
            let t = row.tcp_packets.expect("TCP converges");
            assert!((10..=250).contains(&u), "{}: UDP {u}", row.label);
            assert!((10..=250).contains(&t), "{}: TCP {t}", row.label);
        }
        // Orderings the paper shows: NetB-NJ needs the most UDP packets;
        // NetC-WI among the least.
        let bnj = r.row("NetB-NJ").unwrap().udp_packets.unwrap();
        let cwi = r.row("NetC-WI").unwrap().udp_packets.unwrap();
        assert!(bnj > cwi, "NetB-NJ {bnj} vs NetC-WI {cwi}");
        assert!(!r.summary().is_empty());
    }
}
