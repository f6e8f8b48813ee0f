//! **Fig 7** — NKLD of client-sourced UDP-throughput samples vs the
//! zone's long-term distribution, as a function of sample count.
//!
//! Four panels: temporal (same location, different times) and spatial
//! (different locations in the zone, same epoch), for WI and NJ. The
//! paper's crossings of the 0.1 similarity threshold: ~50–60 (WI
//! temporal), ~80 (WI spatial), ~80–90 (NJ temporal), ~100 (NJ
//! spatial) — always of order 100, with NJ needing more than WI.

use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use wiscape_core::sampling::{nkld_curve_mode, WindowMode};
use wiscape_datasets::locations;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::{Landscape, LandscapeConfig, NetworkId, TransportKind};

use crate::common::Scale;

/// One NKLD panel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NkldPanel {
    /// Region label.
    pub region: String,
    /// "temporal" or "spatial".
    pub mode: String,
    /// `(n_samples, mean NKLD)` curve.
    pub curve: Vec<(f64, f64)>,
    /// First checkpoint at or below the 0.1 threshold, if reached.
    pub crossing: Option<usize>,
}

/// Result of the Fig 7 regeneration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig07 {
    /// The four panels.
    pub panels: Vec<NkldPanel>,
}

/// Per-packet UDP samples at `p` over several days (the long-term
/// reference distribution) and at varied offsets (temporal windows).
fn samples_at(land: &Landscape, p: &wiscape_geo::GeoPoint, days: i64, cadence_s: i64) -> Vec<f64> {
    // All trains share the point, so the whole sweep's start times go
    // through one SoA field pass, and each train is built from its
    // start's quality.
    let mut starts = Vec::new();
    for day in 0..days {
        let mut t = SimTime::at(day, 0.0);
        let end = SimTime::at(day + 1, 0.0);
        while t < end {
            starts.push(t);
            t = t + SimDuration::from_secs(cadence_s);
        }
    }
    let net = NetworkId::NetB;
    let qualities = land
        .field(net)
        .expect("NetB present")
        .link_quality_train(p, &starts);
    let mut out = Vec::new();
    for (&start, quality) in starts.iter().zip(&qualities) {
        let train = land
            .train_from_quality(net, TransportKind::Udp, start, 4, 1200, quality)
            .expect("NetB present");
        out.extend(train.received_kbps());
    }
    out
}

fn region_panels(land: &Landscape, seed: u64, scale: Scale, region: &str) -> Vec<NkldPanel> {
    let spot = locations::representative_static_locations(land, 1, 5000.0, 100.0)[0].point;
    let days = scale.pick(4, 10);
    let cadence = scale.pick(180, 60);
    let reference = samples_at(land, &spot, days, cadence);
    // Temporal: windows of the same location's series (collected at
    // different times) vs the long-term reference.
    let temporal_incoming = samples_at(land, &spot, days, cadence + 7);
    // Spatial: samples collected at other points inside the zone.
    let mut spatial_incoming = Vec::new();
    for k in 0..5 {
        let q = spot.destination(k as f64 * 1.3, 60.0 + 45.0 * k as f64);
        spatial_incoming.extend(samples_at(land, &q, days.min(2), cadence));
    }
    let checkpoints: Vec<usize> = (1..=30).map(|k| k * 10).collect();
    let iterations = scale.pick(40, 100);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xF167);
    let mut panels = Vec::new();
    for (mode, incoming) in [
        ("temporal", temporal_incoming),
        ("spatial", spatial_incoming),
    ] {
        // Scattered draws: WiScape accumulates a zone's samples across
        // many client visits at different times, not one sitting.
        let curve = nkld_curve_mode(
            &reference,
            &incoming,
            &checkpoints,
            iterations,
            WindowMode::Scattered,
            &mut rng,
        )
        .expect("enough samples");
        let crossing = curve.iter().find(|(_, v)| *v <= 0.1).map(|(n, _)| *n);
        panels.push(NkldPanel {
            region: region.to_string(),
            mode: mode.to_string(),
            curve: curve.into_iter().map(|(n, v)| (n as f64, v)).collect(),
            crossing,
        });
    }
    panels
}

/// Runs the experiment.
pub fn run(seed: u64, scale: Scale) -> Fig07 {
    let wi = Landscape::new(LandscapeConfig::madison(seed));
    let nj = Landscape::new(LandscapeConfig::new_brunswick(seed));
    let mut panels = region_panels(&wi, seed, scale, "WI");
    panels.extend(region_panels(&nj, seed, scale, "NJ"));
    Fig07 { panels }
}

impl Fig07 {
    /// Markdown summary.
    pub fn summary(&self) -> String {
        let rows = self
            .panels
            .iter()
            .map(|p| {
                format!(
                    "{} {}: crossing at {}",
                    p.region,
                    p.mode,
                    p.crossing
                        .map(|n| format!("{n} samples"))
                        .unwrap_or_else(|| "not reached by 300".into())
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        format!(
            "**Fig 7 (NKLD sample sizing).** 0.1-threshold crossings: {rows}. \
             Paper: 50-120 samples, NJ needing more than WI; ~100 samples \
             suffice in all cases."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_decrease_and_cross_at_order_100() {
        let r = run(41, Scale::Quick);
        assert_eq!(r.panels.len(), 4);
        for p in &r.panels {
            // Monotone-ish: first point well above last point.
            let first = p.curve.first().unwrap().1;
            let last = p.curve.last().unwrap().1;
            assert!(
                first > last,
                "{} {}: {first} -> {last} must decrease",
                p.region,
                p.mode
            );
            let n = p.crossing.expect("curve must reach 0.1 by 300 samples");
            assert!(
                (20..=300).contains(&n),
                "{} {}: crossing {n}",
                p.region,
                p.mode
            );
        }
        assert!(!r.summary().is_empty());
    }
}
