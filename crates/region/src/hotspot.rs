//! Hotspot and surge localization from aggregated region metrics.
//!
//! Both localizers consume a [`RegionSet`] only — pooled sketch
//! statistics, never raw samples — mirroring the O&M-metrics-only
//! constraint from the hotspot-localization literature (PAPERS.md).
//!
//! * [`locate_hotspots`] finds *chronic* patches: regions whose
//!   relative standard deviation sits a configurable factor above the
//!   fleet median. The paper's Fig 9 licenses this: planted degraded
//!   zones show ~24% rel-std against ~4% fleet-wide, a 6× separation,
//!   so the default 3× bar splits the populations cleanly.
//! * [`locate_surges`] finds *load* events by differencing: it pools a
//!   second (current-window) coordinator export over the **same**
//!   region partition and flags regions whose pooled mean dropped by
//!   more than a threshold fraction against the baseline window.
//!
//! [`score_patches`] turns either flagged list into precision/recall
//! against simnet's planted ground truth (see `ANALYTICS.md` for the
//! two-tier truth methodology).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wiscape_core::{CoordinatorState, ZoneId};
use wiscape_stats::RunningStats;

use crate::quadtree::{sort_canonical, Keyed, RegionId, RegionSet};

/// Tuning knobs for chronic-patch (hotspot) detection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotspotConfig {
    /// Ignore regions with fewer pooled samples (their rel-std is
    /// statistically meaningless).
    pub min_samples: u64,
    /// Flag a region when its *within-zone* (temporal) rel-std exceeds
    /// this multiple of the fleet-median within-zone rel-std. `None`
    /// disables the variability criterion. The within-zone view
    /// (see [`crate::Region::within_rel_std`]) subtracts each region's
    /// between-zone spatial spread first, so large merged regions are
    /// compared on equal footing with single-zone ones; the paper's
    /// chronically-degraded patches sit at 3–6× the fleet's temporal
    /// variability (Fig 9), well above the default 2× bar.
    pub rel_std_factor: Option<f64>,
    /// Flag a region when its mean sits this *fraction* below the
    /// sample-weighted fleet mean. `None` disables the deficit
    /// criterion (the default: absolute means vary legitimately across
    /// a city — Fig 1 shows a 2.25× zone-mean spread — so deficit alone
    /// over-flags; prefer [`locate_surges`] for load events).
    pub deficit_threshold: Option<f64>,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        Self {
            min_samples: 20,
            rel_std_factor: Some(2.0),
            deficit_threshold: None,
        }
    }
}

/// One flagged chronic-patch candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hotspot {
    /// The flagged region.
    pub region: RegionId,
    /// Ranking score: how many times over its threshold the strongest
    /// enabled criterion sits (≥ 1.0 by construction).
    pub score: f64,
    /// The region's within-zone (temporal) relative standard
    /// deviation — pooled rel-std with the between-zone spatial
    /// component subtracted out.
    pub rel_std: f64,
    /// The fleet-median within-zone rel-std the region was compared
    /// against.
    pub baseline_rel_std: f64,
    /// The region's pooled mean.
    pub mean: f64,
    /// Fractional shortfall of the region mean vs the fleet mean
    /// (clamped at 0 for regions above the fleet mean).
    pub mean_deficit: f64,
    /// Pooled samples backing the flag.
    pub samples: u64,
}

/// Ranks chronic-patch candidates from aggregated region metrics.
///
/// Deterministic: baselines fold in region (Morton) order, the median
/// uses a total order on floats, and the ranking sorts by
/// `(score desc, region id asc)`.
pub fn locate_hotspots(set: &RegionSet, config: &HotspotConfig) -> Vec<Hotspot> {
    let m = crate::metrics();
    m.hotspot_scans.inc();

    let eligible: Vec<&crate::Region> = set
        .regions
        .iter()
        .filter(|r| r.samples() >= config.min_samples)
        .collect();

    // Fleet baselines over eligible regions (within-zone view, so
    // multi-zone regions don't inflate the median with spatial spread).
    let mut rel_stds: Vec<f64> = eligible.iter().map(|r| r.within_rel_std()).collect();
    rel_stds.sort_by(f64::total_cmp);
    let baseline_rel_std = median_of_sorted(&rel_stds);
    let mut total = 0u64;
    let mut wsum = 0.0f64;
    for r in &eligible {
        total = total.wrapping_add(r.samples());
        wsum += (r.samples() as f64) * r.mean();
    }
    let fleet_mean = if total > 0 {
        wsum / (total as f64)
    } else {
        0.0
    };

    let mut out = Vec::new();
    for r in eligible {
        let rel_std = r.within_rel_std();
        let ratio = if baseline_rel_std > f64::EPSILON {
            rel_std / baseline_rel_std
        } else {
            0.0
        };
        let deficit = if fleet_mean > f64::EPSILON {
            ((fleet_mean - r.mean()) / fleet_mean).max(0.0)
        } else {
            0.0
        };
        let mut score = 0.0f64;
        if let Some(factor) = config.rel_std_factor {
            if factor > f64::EPSILON && ratio > factor {
                score = score.max(ratio / factor);
            }
        }
        if let Some(threshold) = config.deficit_threshold {
            if threshold > f64::EPSILON && deficit > threshold {
                score = score.max(deficit / threshold);
            }
        }
        if score > 0.0 {
            out.push(Hotspot {
                region: r.id,
                score,
                rel_std,
                baseline_rel_std,
                mean: r.mean(),
                mean_deficit: deficit,
                samples: r.samples(),
            });
        }
    }
    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.region.cmp(&b.region))
    });
    m.hotspots_max.set_max(out.len() as f64);
    out
}

/// Tuning knobs for surge (load-event) detection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurgeConfig {
    /// Require at least this many samples in *both* windows.
    pub min_samples: u64,
    /// Flag a region whose current-window pooled mean dropped by more
    /// than this fraction of its baseline-window mean.
    pub drop_threshold: f64,
}

impl Default for SurgeConfig {
    fn default() -> Self {
        Self {
            min_samples: 20,
            drop_threshold: 0.25,
        }
    }
}

/// One flagged surge candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Surge {
    /// The flagged region (from the current-window partition).
    pub region: RegionId,
    /// Baseline-window pooled mean.
    pub baseline_mean: f64,
    /// Current-window pooled mean.
    pub current_mean: f64,
    /// Fractional drop: `1 − current/baseline`.
    pub drop: f64,
    /// Current-window pooled samples.
    pub samples: u64,
}

/// Flags regions whose pooled mean collapsed against a quiet baseline.
///
/// `current` is the partition built from the *anomalous* window (e.g.
/// game hour): because the quadtree splits on spatial mean
/// heterogeneity, a localized surge forces fine regions exactly around
/// itself, so its depressed zones are not diluted into healthy
/// neighbors. `baseline` (a quiet-window coordinator export over the
/// same grid) is then pooled onto that *same* partition so the
/// difference is like-for-like. Differencing a region against itself
/// cancels legitimate spatial variation in absolute means, which is
/// what makes this criterion clean where a fleet-wide deficit bar is
/// not.
pub fn locate_surges(
    current: &RegionSet,
    baseline: &CoordinatorState,
    config: &SurgeConfig,
) -> Vec<Surge> {
    let m = crate::metrics();
    m.surge_scans.inc();

    // Pool the baseline window onto the current partition. Each zone's
    // cells fold in the canonical (zone, network) order the region build
    // uses, and zones pool in ascending order, whatever the cell order.
    let mut cells: Vec<Keyed<'_>> = baseline.cells.iter().map(Keyed::of).collect();
    sort_canonical(&mut cells);
    let mut pooled: BTreeMap<RegionId, RunningStats> = BTreeMap::new();
    for zone_cells in cells.chunk_by(|a, b| a.zone == b.zone) {
        let Some(region) = zone_cells.first().and_then(|c| current.region_of(c.zone)) else {
            continue;
        };
        let mut sketch = RunningStats::new();
        for c in zone_cells {
            sketch.merge(&c.cell.sketch);
        }
        pooled.entry(region.id).or_default().merge(&sketch);
    }

    let mut out = Vec::new();
    for r in &current.regions {
        let Some(base) = pooled.get(&r.id) else {
            continue;
        };
        if r.samples() < config.min_samples || base.count() < config.min_samples {
            continue;
        }
        let base_mean = base.mean();
        if base_mean <= f64::EPSILON {
            continue;
        }
        let drop = 1.0 - r.mean() / base_mean;
        if drop > config.drop_threshold {
            out.push(Surge {
                region: r.id,
                baseline_mean: base_mean,
                current_mean: r.mean(),
                drop,
                samples: r.samples(),
            });
        }
    }
    out.sort_by(|a, b| {
        b.drop
            .total_cmp(&a.drop)
            .then_with(|| a.region.cmp(&b.region))
    });
    out
}

/// Planted ground truth for scoring, from simnet's event models.
///
/// Two tiers: `core_zones` are zones squarely inside a planted patch
/// (recall is measured against these — every one must be covered);
/// `affected_zones` is the superset of zones touched at all (precision
/// is measured against these — a flag is correct if it overlaps any).
/// The two-tier split keeps boundary zones, where the planted effect
/// tapers below the detection threshold, from being scored as errors in
/// either direction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatchTruth {
    /// Zones squarely inside planted patches (recall denominator).
    pub core_zones: Vec<ZoneId>,
    /// All zones touched by planted patches (precision reference);
    /// must be a superset of `core_zones`.
    pub affected_zones: Vec<ZoneId>,
}

/// Precision/recall of a flagged region list against planted truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatchScore {
    /// Regions flagged by the localizer.
    pub flagged: usize,
    /// Flagged regions overlapping at least one affected zone.
    pub true_positives: usize,
    /// Core truth zones (recall denominator).
    pub truth_zones: usize,
    /// Core truth zones covered by at least one flagged region.
    pub covered_truth_zones: usize,
    /// `true_positives / flagged` (1.0 when nothing was flagged).
    pub precision: f64,
    /// `covered_truth_zones / truth_zones` (1.0 when no truth planted).
    pub recall: f64,
}

/// Scores flagged regions against planted ground truth.
///
/// A flagged region is a true positive iff it contains at least one
/// affected zone; a core truth zone is covered iff some flagged region
/// contains it.
pub fn score_patches(flagged: &[RegionId], truth: &PatchTruth) -> PatchScore {
    let true_positives = flagged
        .iter()
        .filter(|region| truth.affected_zones.iter().any(|z| region.contains(*z)))
        .count();
    let covered = truth
        .core_zones
        .iter()
        .filter(|z| flagged.iter().any(|region| region.contains(**z)))
        .count();
    let precision = if flagged.is_empty() {
        1.0
    } else {
        (true_positives as f64) / (flagged.len() as f64)
    };
    let recall = if truth.core_zones.is_empty() {
        1.0
    } else {
        (covered as f64) / (truth.core_zones.len() as f64)
    };
    PatchScore {
        flagged: flagged.len(),
        true_positives,
        truth_zones: truth.core_zones.len(),
        covered_truth_zones: covered,
        precision,
        recall,
    }
}

/// Canonical byte rendering of a hotspot ranking (`to_bits` hex floats,
/// rank order preserved) for byte-identity gates.
pub fn hotspot_fingerprint(spots: &[Hotspot]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "hotspots n={}", spots.len());
    for h in spots {
        let _ = writeln!(
            out,
            "hotspot ({},{},{}) score={:x} rel={:x} base={:x} mean={:x} deficit={:x} samples={}",
            h.region.col0,
            h.region.row0,
            h.region.size,
            h.score.to_bits(),
            h.rel_std.to_bits(),
            h.baseline_rel_std.to_bits(),
            h.mean.to_bits(),
            h.mean_deficit.to_bits(),
            h.samples,
        );
    }
    out
}

/// Median of a `total_cmp`-sorted list (midpoint average for even
/// lengths; 0.0 for empty input).
fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let mid = n / 2;
    if n % 2 == 1 {
        sorted.get(mid).copied().unwrap_or(0.0)
    } else {
        let a = sorted.get(mid.wrapping_sub(1)).copied().unwrap_or(0.0);
        let b = sorted.get(mid).copied().unwrap_or(0.0);
        (a + b) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadtree::{RegionConfig, RegionSet};
    use wiscape_core::{Coordinator, CoordinatorConfig, ZoneIndex};
    use wiscape_geo::GeoPoint;
    use wiscape_simcore::SimTime;
    use wiscape_simnet::NetworkId;

    fn index() -> ZoneIndex {
        let center = GeoPoint::new(43.0731, -89.4012).unwrap();
        ZoneIndex::around(center, 1500.0).unwrap()
    }

    /// A landscape where one zone cluster is high-variance (chronic)
    /// and the rest is quiet; optionally one cluster's mean collapses
    /// (surge window).
    fn build_state(
        index: &ZoneIndex,
        chronic: &[ZoneId],
        surged: &[ZoneId],
    ) -> wiscape_core::CoordinatorState {
        let mut coord = Coordinator::new(index.clone(), CoordinatorConfig::default());
        let t = SimTime::from_secs(60);
        for zone in index.zones() {
            let is_chronic = chronic.contains(&zone);
            let is_surged = surged.contains(&zone);
            let base = if is_surged { 300.0 } else { 800.0 };
            let swing = if is_chronic { 400.0 } else { 20.0 };
            let samples = (0..40u32).map(move |i| {
                let phase = f64::from(i % 2) * 2.0 - 1.0; // ±1
                base + phase * swing
            });
            coord
                .ingest_samples(zone, NetworkId::NetB, t, samples)
                .unwrap();
        }
        coord.export_state()
    }

    fn chronic_zones(index: &ZoneIndex) -> Vec<ZoneId> {
        // A 2×2 patch away from the grid edge.
        index
            .zones()
            .filter(|z| z.0.col >= 2 && z.0.col <= 3 && z.0.row >= 2 && z.0.row <= 3)
            .collect()
    }

    #[test]
    fn chronic_patch_is_found_with_perfect_score() {
        let index = index();
        let chronic = chronic_zones(&index);
        assert!(!chronic.is_empty());
        let state = build_state(&index, &chronic, &[]);
        let set = RegionSet::build(&state, &index, &RegionConfig::default());
        let spots = locate_hotspots(&set, &HotspotConfig::default());
        assert!(!spots.is_empty(), "planted patch must be flagged");
        let flagged: Vec<RegionId> = spots.iter().map(|h| h.region).collect();
        let truth = PatchTruth {
            core_zones: chronic.clone(),
            affected_zones: chronic.clone(),
        };
        let score = score_patches(&flagged, &truth);
        assert_eq!(score.precision, 1.0, "{score:?}");
        assert_eq!(score.recall, 1.0, "{score:?}");
    }

    #[test]
    fn quiet_fleet_has_no_hotspots() {
        let index = index();
        let state = build_state(&index, &[], &[]);
        let set = RegionSet::build(&state, &index, &RegionConfig::default());
        let spots = locate_hotspots(&set, &HotspotConfig::default());
        assert!(spots.is_empty(), "{spots:?}");
    }

    #[test]
    fn surge_detected_by_differencing_same_partition() {
        let index = index();
        let surged = chronic_zones(&index);
        let baseline_state = build_state(&index, &[], &[]);
        let surge_state = build_state(&index, &[], &surged);
        let set = RegionSet::build(&surge_state, &index, &RegionConfig::default());
        let surges = locate_surges(&set, &baseline_state, &SurgeConfig::default());
        assert!(!surges.is_empty(), "collapsed patch must be flagged");
        let flagged: Vec<RegionId> = surges.iter().map(|s| s.region).collect();
        let truth = PatchTruth {
            core_zones: surged.clone(),
            affected_zones: surged.clone(),
        };
        let score = score_patches(&flagged, &truth);
        assert_eq!(score.recall, 1.0, "{score:?}");
        // Differencing a window against itself yields zero drop.
        let none = locate_surges(&set, &surge_state, &SurgeConfig::default());
        assert!(none.is_empty(), "{none:?}");
    }

    /// Every zone reports on all three networks, with 13, 17 and 29
    /// samples, so the order a zone's network sketches merge in shows in
    /// the low bits of its pooled mean.
    fn three_network_state(index: &ZoneIndex, surged: &[ZoneId]) -> CoordinatorState {
        let mut coord = Coordinator::new(index.clone(), CoordinatorConfig::default());
        let t = SimTime::from_secs(60);
        for zone in index.zones() {
            let base = if surged.contains(&zone) { 300.0 } else { 800.0 };
            for (network, n, offset) in [
                (NetworkId::NetA, 13u32, 40.439),
                (NetworkId::NetB, 17, -12.317),
                (NetworkId::NetC, 29, 6.213),
            ] {
                let samples = (0..n).map(move |i| base + offset + f64::from(i % 7) * 4.2);
                coord.ingest_samples(zone, network, t, samples).unwrap();
            }
        }
        coord.export_state()
    }

    #[test]
    fn surges_do_not_depend_on_baseline_cell_order() {
        let index = index();
        let surged = chronic_zones(&index);
        let baseline = three_network_state(&index, &[]);
        let set = RegionSet::build(
            &three_network_state(&index, &surged),
            &index,
            &RegionConfig::default(),
        );
        let config = SurgeConfig::default();
        let bits = |surges: Vec<Surge>| -> Vec<(RegionId, u64, u64, u64)> {
            surges
                .iter()
                .map(|s| {
                    let (base, cur, drop) = (s.baseline_mean, s.current_mean, s.drop);
                    (s.region, base.to_bits(), cur.to_bits(), drop.to_bits())
                })
                .collect()
        };
        let sorted = bits(locate_surges(&set, &baseline, &config));
        assert!(!sorted.is_empty(), "collapsed patch must be flagged");
        let mut reversed = baseline.clone();
        reversed.cells.reverse();
        assert_eq!(bits(locate_surges(&set, &reversed, &config)), sorted);
    }

    #[test]
    fn ranking_fingerprint_is_stable() {
        let index = index();
        let chronic = chronic_zones(&index);
        let state = build_state(&index, &chronic, &[]);
        let set = RegionSet::build(&state, &index, &RegionConfig::default());
        let a = hotspot_fingerprint(&locate_hotspots(&set, &HotspotConfig::default()));
        let b = hotspot_fingerprint(&locate_hotspots(&set, &HotspotConfig::default()));
        assert_eq!(a, b);
        assert!(a.starts_with("hotspots n="));
    }

    #[test]
    fn empty_inputs_score_cleanly() {
        let truth = PatchTruth {
            core_zones: vec![],
            affected_zones: vec![],
        };
        let s = score_patches(&[], &truth);
        assert_eq!((s.precision, s.recall), (1.0, 1.0));
        assert_eq!(median_of_sorted(&[]), 0.0);
        assert_eq!(median_of_sorted(&[3.0]), 3.0);
        assert_eq!(median_of_sorted(&[1.0, 3.0]), 2.0);
    }
}
