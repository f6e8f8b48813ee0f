//! Cross-device-category normalization — the paper's named future work.
//!
//! §3.3: *"a mobile phone, among its other characteristics, has a more
//! constrained radio front-end and antenna system, than a USB modem.
//! Potentially data collected from such devices with different
//! capabilities need to go through a normalization or scaling process"*;
//! §6 commits to "examining techniques for normalization across
//! categories" as future work.
//!
//! This module implements the obvious first technique: learn, per
//! `(network, category)` pair, the multiplicative scale between a
//! category's samples and the reference category's samples **in the same
//! zones** (co-location controls for the zone's true quality), as the
//! median of per-zone mean ratios; then divide a category's samples by
//! its scale before composing them into zone statistics.
//!
//! In the simulator, a category's weaker radio is
//! [`LinkQuality::on_device`] applied to the field's means before its
//! probe train is built; the tests here learn that factor back.
//!
//! [`LinkQuality::on_device`]: wiscape_simnet::LinkQuality::on_device

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wiscape_mobility::DeviceCategory;
use wiscape_simnet::NetworkId;

use crate::zone::ZoneId;

/// A per-zone sample batch from one device category.
#[derive(Debug, Clone)]
pub struct CategorySamples {
    /// Zone the samples came from.
    pub zone: ZoneId,
    /// Network measured.
    pub network: NetworkId,
    /// Device category of the reporting client.
    pub category: DeviceCategory,
    /// Throughput samples (kbit/s).
    pub values: Vec<f64>,
}

/// Learned multiplicative scales per `(network, category)`, relative to
/// the reference category (scale 1.0).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CategoryScales {
    reference: DeviceCategory,
    scales: BTreeMap<(NetworkId, DeviceCategory), f64>,
    /// Zones that contributed to each scale.
    support: BTreeMap<(NetworkId, DeviceCategory), usize>,
}

impl CategoryScales {
    /// The reference category (laptops/SBCs in the paper's deployment).
    pub fn reference(&self) -> DeviceCategory {
        self.reference
    }

    /// The learned scale for a `(network, category)`; 1.0 for the
    /// reference or when never learned.
    pub fn scale(&self, network: NetworkId, category: DeviceCategory) -> f64 {
        if category == self.reference {
            return 1.0;
        }
        self.scales
            .get(&(network, category))
            .copied()
            .unwrap_or(1.0)
    }

    /// Zones that supported a learned scale (0 when never learned).
    pub fn support(&self, network: NetworkId, category: DeviceCategory) -> usize {
        self.support.get(&(network, category)).copied().unwrap_or(0)
    }

    /// Normalizes one sample from `category` into reference-category
    /// units.
    pub fn normalize(&self, network: NetworkId, category: DeviceCategory, value: f64) -> f64 {
        value / self.scale(network, category).max(1e-9)
    }
}

/// Learns category scales from co-located sample batches.
///
/// For every `(network, category)` with at least `min_shared_zones`
/// zones in common with the reference category, the scale is the median
/// over shared zones of `mean(category in zone) / mean(reference in
/// zone)`.
pub fn learn_scales(
    batches: &[CategorySamples],
    reference: DeviceCategory,
    min_shared_zones: usize,
) -> CategoryScales {
    // (net, zone, category) -> mean.
    let mut means: BTreeMap<(NetworkId, ZoneId, DeviceCategory), (f64, usize)> = BTreeMap::new();
    for b in batches {
        if b.values.is_empty() {
            continue;
        }
        let mean = b.values.iter().sum::<f64>() / b.values.len() as f64;
        let e = means
            .entry((b.network, b.zone, b.category))
            .or_insert((0.0, 0));
        // Merge multiple batches for the same key by running mean.
        e.0 = (e.0 * e.1 as f64 + mean) / (e.1 + 1) as f64;
        e.1 += 1;
    }
    // Collect ratios per (net, category).
    let mut ratios: BTreeMap<(NetworkId, DeviceCategory), Vec<f64>> = BTreeMap::new();
    for (&(net, zone, cat), &(mean, _)) in &means {
        if cat == reference {
            continue;
        }
        if let Some(&(ref_mean, _)) = means.get(&(net, zone, reference)) {
            if ref_mean > 0.0 {
                ratios.entry((net, cat)).or_default().push(mean / ref_mean);
            }
        }
    }
    let mut scales = BTreeMap::new();
    let mut support = BTreeMap::new();
    for ((net, cat), mut rs) in ratios {
        if rs.len() < min_shared_zones.max(1) {
            continue;
        }
        rs.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        let median = rs[rs.len() / 2];
        support.insert((net, cat), rs.len());
        scales.insert((net, cat), median);
    }
    CategoryScales {
        reference,
        scales,
        support,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_geo::CellId;

    fn zone(i: i32) -> ZoneId {
        ZoneId(CellId::new(i, 0))
    }

    fn batch(z: i32, cat: DeviceCategory, base: f64, factor: f64) -> CategorySamples {
        CategorySamples {
            zone: zone(z),
            network: NetworkId::NetB,
            category: cat,
            values: (0..30)
                .map(|k| base * factor * (1.0 + 0.02 * ((k % 5) as f64 - 2.0)))
                .collect(),
        }
    }

    #[test]
    fn recovers_the_phone_attenuation_factor() {
        // Phones deliver 0.78x of what laptops see in the same zones,
        // with per-zone base quality varying 600..1400 kbps.
        let mut batches = Vec::new();
        for (i, base) in [600.0, 900.0, 1100.0, 1400.0, 800.0].iter().enumerate() {
            batches.push(batch(i as i32, DeviceCategory::LaptopModem, *base, 1.0));
            batches.push(batch(i as i32, DeviceCategory::Phone, *base, 0.78));
        }
        let scales = learn_scales(&batches, DeviceCategory::LaptopModem, 3);
        let s = scales.scale(NetworkId::NetB, DeviceCategory::Phone);
        assert!((s - 0.78).abs() < 0.02, "learned {s}");
        assert_eq!(scales.support(NetworkId::NetB, DeviceCategory::Phone), 5);
        // Normalization brings a phone sample back to laptop units.
        let normalized = scales.normalize(NetworkId::NetB, DeviceCategory::Phone, 780.0);
        assert!(
            (normalized - 1000.0).abs() < 30.0,
            "normalized {normalized}"
        );
    }

    #[test]
    fn reference_category_is_identity() {
        let scales = learn_scales(&[], DeviceCategory::LaptopModem, 1);
        assert_eq!(
            scales.scale(NetworkId::NetA, DeviceCategory::LaptopModem),
            1.0
        );
        assert_eq!(
            scales.normalize(NetworkId::NetA, DeviceCategory::LaptopModem, 500.0),
            500.0
        );
        assert_eq!(scales.reference(), DeviceCategory::LaptopModem);
    }

    #[test]
    fn insufficient_overlap_learns_nothing() {
        let batches = vec![
            batch(0, DeviceCategory::LaptopModem, 1000.0, 1.0),
            batch(0, DeviceCategory::Phone, 1000.0, 0.8),
            // Phone also seen in zone 1, but no laptop there.
            batch(1, DeviceCategory::Phone, 900.0, 0.8),
        ];
        let scales = learn_scales(&batches, DeviceCategory::LaptopModem, 3);
        // Only 1 shared zone < 3 required -> fallback scale 1.0.
        assert_eq!(scales.scale(NetworkId::NetB, DeviceCategory::Phone), 1.0);
        assert_eq!(scales.support(NetworkId::NetB, DeviceCategory::Phone), 0);
    }

    #[test]
    fn scales_are_per_network() {
        let mut batches = Vec::new();
        for i in 0..4 {
            batches.push(batch(i, DeviceCategory::LaptopModem, 1000.0, 1.0));
            batches.push(batch(i, DeviceCategory::Phone, 1000.0, 0.7));
            // NetA batches with a different factor.
            let mut a1 = batch(i, DeviceCategory::LaptopModem, 1500.0, 1.0);
            a1.network = NetworkId::NetA;
            let mut a2 = batch(i, DeviceCategory::Phone, 1500.0, 0.9);
            a2.network = NetworkId::NetA;
            batches.push(a1);
            batches.push(a2);
        }
        let scales = learn_scales(&batches, DeviceCategory::LaptopModem, 2);
        assert!((scales.scale(NetworkId::NetB, DeviceCategory::Phone) - 0.7).abs() < 0.02);
        assert!((scales.scale(NetworkId::NetA, DeviceCategory::Phone) - 0.9).abs() < 0.02);
    }

    #[test]
    fn end_to_end_with_simulated_phones() {
        // Full loop against the landscape: laptops and phones measure
        // the same zones; the learned scale recovers the simulated
        // device factor within a few percent.
        use wiscape_simcore::SimTime;
        use wiscape_simnet::{Landscape, LandscapeConfig, TransportKind};
        let land = Landscape::new(LandscapeConfig::madison(90));
        let index = crate::ZoneIndex::around(land.origin(), 6000.0).unwrap();
        let phone_factor = 0.78;
        let mut batches = Vec::new();
        for i in 0..6 {
            let p = land
                .origin()
                .destination(i as f64, 300.0 + 700.0 * i as f64);
            let t = SimTime::at(1, 9.0 + i as f64);
            let z = index.zone_of(&p);
            let laptop = land
                .probe_train(NetworkId::NetB, TransportKind::Udp, &p, t, 60, 1200)
                .unwrap();
            let phone_t = t + wiscape_simcore::SimDuration::from_secs(30);
            let phone_quality = land
                .link_quality(NetworkId::NetB, &p, phone_t)
                .unwrap()
                .on_device(phone_factor);
            let phone = land
                .train_from_quality(
                    NetworkId::NetB,
                    TransportKind::Udp,
                    phone_t,
                    60,
                    1200,
                    &phone_quality,
                )
                .unwrap();
            batches.push(CategorySamples {
                zone: z,
                network: NetworkId::NetB,
                category: DeviceCategory::LaptopModem,
                values: laptop.received_kbps(),
            });
            batches.push(CategorySamples {
                zone: z,
                network: NetworkId::NetB,
                category: DeviceCategory::Phone,
                values: phone.received_kbps(),
            });
        }
        let scales = learn_scales(&batches, DeviceCategory::LaptopModem, 3);
        let s = scales.scale(NetworkId::NetB, DeviceCategory::Phone);
        assert!(
            (s - phone_factor).abs() < 0.05,
            "learned {s} vs {phone_factor}"
        );
    }
}
