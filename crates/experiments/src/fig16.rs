//! **Fig 16** (beyond the paper) — fixed-zone vs adaptive-region
//! estimation error per sample budget, plus hotspot localization
//! scored against simnet's planted ground truth.
//!
//! The paper fixes zones at ~250 m (§3.1). `wiscape-region` derives a
//! coarser data-driven partition by quadtree-merging homogeneous zones
//! (exact, via sketch merge). This experiment quantifies the payoff:
//! at small per-zone sample budgets the pooled regional estimate
//! averages away sampling noise that a starved single zone cannot,
//! while at large budgets the fixed grid catches up and fine spatial
//! structure starts to favor it — the classic bias/variance crossover.
//!
//! Two localization passes ride the same machinery:
//!
//! * **Chronic patches** — a quiet multi-day window is regionalized and
//!   [`wiscape_region::locate_hotspots`] flags high-variability
//!   regions; flagged patches are scored against the landscape's
//!   planted degraded cells (precision/recall).
//! * **Stadium surge** — the Saturday game window is regionalized and
//!   [`wiscape_region::locate_surges`] differences it against a
//!   pre-game baseline on the same partition; flags are scored against
//!   zones inside the event footprint.
//!
//! The ingest path deliberately runs through [`wiscape_core::ShardSet`]
//! on the installed topology's `--shards` count, so the CI shard passes
//! gate this figure's byte-identity across topologies too.

use serde::{Deserialize, Serialize};
use wiscape_core::{CoordinatorConfig, MeasurementTask, SampleReport, ShardSet, ZoneId, ZoneIndex};
use wiscape_mobility::ClientId;
use wiscape_region::{
    locate_hotspots, locate_surges, region_fingerprint, score_patches, HotspotConfig, PatchTruth,
    RegionConfig, RegionSet,
};
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::{Landscape, LandscapeConfig, NetworkId, TransportKind};

use crate::common::Scale;
use crate::topology;

/// Probe shapes (paper Table 5 range): the estimation sweep uses the
/// cheapest viable train — high per-sample noise is exactly the regime
/// where regional pooling pays — while the localization passes use a
/// longer train for stable per-zone statistics.
const SWEEP_PACKETS: u32 = 2;
const LOCALIZE_PACKETS: u32 = 8;
const PACKET_BYTES: u32 = 1000;

/// Precision/recall of one localization pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatchReport {
    /// Regions in the partition the pass ran over.
    pub regions: usize,
    /// Regions flagged.
    pub flagged: usize,
    /// Planted truth zones (recall denominator).
    pub truth_zones: usize,
    /// Fraction of flags overlapping planted truth.
    pub precision: f64,
    /// Fraction of planted truth zones covered by flags.
    pub recall: f64,
    /// Ranked flags `(region id, score)`, strongest first.
    pub ranking: Vec<(String, f64)>,
}

/// Result of the Fig 16 regeneration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig16 {
    /// Zones in the estimation grid.
    pub zones: usize,
    /// Per-zone sample budgets swept.
    pub budgets: Vec<u32>,
    /// Mean absolute relative error (%) of the fixed 250 m grid.
    pub fixed_err_pct: Vec<f64>,
    /// Mean absolute relative error (%) of the adaptive partition.
    pub adaptive_err_pct: Vec<f64>,
    /// Adaptive region count at each budget.
    pub regions_per_budget: Vec<usize>,
    /// Chronic-patch localization scored against planted degraded
    /// cells.
    pub chronic: PatchReport,
    /// Stadium-surge localization scored against the event footprint.
    pub surge: PatchReport,
    /// Largest fractional mean drop among flagged surge regions (%).
    pub surge_top_drop_pct: f64,
    /// FNV-1a digest of the chronic partition's canonical fingerprint
    /// (a compact stand-in for the full byte string in the artifact).
    pub partition_digest: String,
}

/// FNV-1a 64-bit over a string — a stable, dependency-free digest for
/// embedding fingerprint identity in the JSON artifact.
fn fnv1a(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One probing pass: a time window, a per-zone sample budget, and a
/// probe-train shape.
struct Sweep {
    start: SimTime,
    window: SimDuration,
    budget: u32,
    n_packets: u32,
}

/// Draws `sweep.budget` probe-train samples per zone at stream-forked
/// times inside the sweep window and returns them as ingestable
/// reports.
fn sample_reports(
    land: &Landscape,
    index: &ZoneIndex,
    net: NetworkId,
    stream: &StreamRng,
    sweep: &Sweep,
) -> Vec<SampleReport> {
    let Sweep {
        start,
        window,
        budget,
        n_packets,
    } = *sweep;
    let window_s = window.as_secs_f64();
    let mut reports = Vec::new();
    for (zi, zone) in index.zones().enumerate() {
        let center = index.center_of(zone);
        let zrng = stream.fork_idx(zi as u64);
        let mut samples = Vec::with_capacity(budget as usize);
        let mut t_first = start;
        for k in 0..budget {
            let u = zrng.fork_idx(u64::from(k)).draw_unit_f64();
            let t = start + SimDuration::from_secs((u * window_s) as i64);
            if k == 0 {
                t_first = t;
            }
            let train = land
                .probe_train(net, TransportKind::Tcp, &center, t, n_packets, PACKET_BYTES)
                .expect("network exists");
            if let Some(kbps) = train.estimated_kbps() {
                samples.push(kbps);
            }
        }
        if samples.is_empty() {
            continue;
        }
        reports.push(SampleReport {
            client: ClientId(zi as u32),
            task: MeasurementTask {
                zone,
                network: net,
                kind: TransportKind::Tcp,
                n_packets,
                packet_bytes: PACKET_BYTES,
            },
            zone,
            t: t_first,
            samples,
        });
    }
    reports
}

/// Folds reports through the sharded ingest path (on the installed
/// topology's shard count) and returns the merged state.
fn ingest(index: &ZoneIndex, reports: &[SampleReport]) -> wiscape_core::CoordinatorState {
    let shards = topology::installed().and_then(|t| t.shards).unwrap_or(1);
    // One epoch spanning the whole simulated week: this experiment
    // studies spatial pooling, not epoch dynamics.
    let config = CoordinatorConfig {
        default_epoch: SimDuration::from_mins(7 * 24 * 60),
        ..CoordinatorConfig::default()
    };
    let mut set = ShardSet::new(index.clone(), config, shards);
    set.ingest_batch(reports);
    set.merged_state()
}

/// Dense ground truth: the field mean at the zone center averaged over
/// the window.
fn ground_truth(
    land: &Landscape,
    index: &ZoneIndex,
    net: NetworkId,
    start: SimTime,
    window: SimDuration,
    steps: u32,
) -> Vec<(ZoneId, f64)> {
    let step_s = window.as_secs_f64() / f64::from(steps);
    index
        .zones()
        .map(|zone| {
            let center = index.center_of(zone);
            let mut acc = 0.0;
            for k in 0..steps {
                let t = start + SimDuration::from_secs((f64::from(k) * step_s) as i64);
                let q = land.link_quality(net, &center, t).expect("network exists");
                acc += q.tcp_kbps;
            }
            (zone, acc / f64::from(steps))
        })
        .collect()
}

fn patch_report(
    set: &RegionSet,
    flagged: &[(String, f64)],
    ids: &[wiscape_region::RegionId],
    truth: &PatchTruth,
) -> PatchReport {
    let score = score_patches(ids, truth);
    PatchReport {
        regions: set.regions.len(),
        flagged: score.flagged,
        truth_zones: score.truth_zones,
        precision: score.precision,
        recall: score.recall,
        ranking: flagged.to_vec(),
    }
}

/// Runs the experiment.
pub fn run(seed: u64, scale: Scale) -> Fig16 {
    let land = Landscape::new(LandscapeConfig::madison(seed));
    let index = ZoneIndex::around(land.origin(), scale.pick(2200.0, 4500.0)).expect("valid index");
    let net = NetworkId::NetB;
    let rng = StreamRng::new(seed).fork("fig16");

    // ---- Estimation sweep: fixed grid vs adaptive regions ----------
    // A quiet Tuesday; budgets sample it at forked random times.
    let day_start = SimTime::at(1, 0.0);
    let day = SimDuration::from_mins(24 * 60);
    let truth = ground_truth(&land, &index, net, day_start, day, 96);
    let budgets: Vec<u32> = scale.pick(vec![1, 8, 32], vec![1, 2, 4, 8, 16, 32, 64]);
    // Tighter homogeneity bar than the zone-formation default: when the
    // goal is estimation, pool only near-identical zones so regional
    // bias stays below the noise being averaged away. The low split
    // floor lets even budget-starved partitions refine where the data
    // supports it.
    let est_cfg = RegionConfig {
        split_rel_spatial_std: 0.04,
        min_split_samples: 8,
        ..RegionConfig::default()
    };
    let mut fixed_err_pct = Vec::new();
    let mut adaptive_err_pct = Vec::new();
    let mut regions_per_budget = Vec::new();
    for (bi, &budget) in budgets.iter().enumerate() {
        let brng = rng.fork("budget").fork_idx(bi as u64);
        let reports = sample_reports(
            &land,
            &index,
            net,
            &brng,
            &Sweep {
                start: day_start,
                window: day,
                budget,
                n_packets: SWEEP_PACKETS,
            },
        );
        let state = ingest(&index, &reports);
        let by_zone: std::collections::BTreeMap<ZoneId, &wiscape_stats::RunningStats> =
            state.cells.iter().map(|c| (c.zone, &c.sketch)).collect();
        let set = RegionSet::build(&state, &index, &est_cfg);
        let mut fixed = Vec::new();
        let mut adaptive = Vec::new();
        for (zone, t) in &truth {
            if *t <= f64::EPSILON {
                continue;
            }
            if let Some(sketch) = by_zone.get(zone) {
                if sketch.count() > 0 {
                    fixed.push((sketch.mean() - t).abs() / t * 100.0);
                }
            }
            if let Some(region) = set.region_of(*zone) {
                adaptive.push((region.mean() - t).abs() / t * 100.0);
            }
        }
        fixed_err_pct.push(crate::common::mean(&fixed));
        adaptive_err_pct.push(crate::common::mean(&adaptive));
        regions_per_budget.push(set.regions.len());
    }

    // ---- Chronic-patch localization -------------------------------
    // A generous two-day quiet window; degraded cells reveal
    // themselves through ~9× temporal variability (paper Fig 9).
    let chronic_budget = scale.pick(48, 96);
    let chronic_window = SimDuration::from_mins(2 * 24 * 60);
    let chronic_reports = sample_reports(
        &land,
        &index,
        net,
        &rng.fork("chronic"),
        &Sweep {
            start: day_start,
            window: chronic_window,
            budget: chronic_budget,
            n_packets: LOCALIZE_PACKETS,
        },
    );
    let chronic_state = ingest(&index, &chronic_reports);
    let chronic_set = RegionSet::build(&chronic_state, &index, &RegionConfig::default());
    let spots = locate_hotspots(&chronic_set, &HotspotConfig::default());
    let chronic_truth_zones: Vec<ZoneId> = index
        .zones()
        .filter(|z| land.is_degraded(&index.center_of(*z)))
        .collect();
    let chronic_truth = PatchTruth {
        core_zones: chronic_truth_zones.clone(),
        affected_zones: chronic_truth_zones,
    };
    let chronic_ids: Vec<wiscape_region::RegionId> = spots.iter().map(|h| h.region).collect();
    let chronic_ranked: Vec<(String, f64)> = spots
        .iter()
        .map(|h| (h.region.to_string(), h.score))
        .collect();
    let chronic = patch_report(&chronic_set, &chronic_ranked, &chronic_ids, &chronic_truth);
    let partition_digest = fnv1a(&region_fingerprint(&chronic_set));

    // ---- Stadium-surge localization -------------------------------
    // Saturday game window (11:00–14:00 plateau) vs the same morning's
    // pre-game baseline, differenced on the game-window partition.
    let surge_budget = scale.pick(24, 48);
    let game_start = SimTime::at(5, 11.5);
    let game_window = SimDuration::from_mins(120);
    let quiet_start = SimTime::at(5, 6.0);
    let quiet_window = SimDuration::from_mins(180);
    let game_reports = sample_reports(
        &land,
        &index,
        net,
        &rng.fork("game"),
        &Sweep {
            start: game_start,
            window: game_window,
            budget: surge_budget,
            n_packets: LOCALIZE_PACKETS,
        },
    );
    let quiet_reports = sample_reports(
        &land,
        &index,
        net,
        &rng.fork("quiet"),
        &Sweep {
            start: quiet_start,
            window: quiet_window,
            budget: surge_budget,
            n_packets: LOCALIZE_PACKETS,
        },
    );
    let game_state = ingest(&index, &game_reports);
    let quiet_state = ingest(&index, &quiet_reports);
    let game_set = RegionSet::build(&game_state, &index, &RegionConfig::default());
    let surges = locate_surges(&game_set, &quiet_state, &Default::default());
    let mut surge_core = Vec::new();
    let mut surge_affected = Vec::new();
    for zone in index.zones() {
        let center = index.center_of(zone);
        let weight = land
            .config()
            .events
            .iter()
            .map(|e| e.spatial_weight(&center))
            .fold(0.0, f64::max);
        if weight >= 0.6 {
            surge_core.push(zone);
        }
        if weight >= 0.05 {
            surge_affected.push(zone);
        }
    }
    let surge_truth = PatchTruth {
        core_zones: surge_core,
        affected_zones: surge_affected,
    };
    let surge_ids: Vec<wiscape_region::RegionId> = surges.iter().map(|s| s.region).collect();
    let surge_ranked: Vec<(String, f64)> = surges
        .iter()
        .map(|s| (s.region.to_string(), s.drop))
        .collect();
    let surge = patch_report(&game_set, &surge_ranked, &surge_ids, &surge_truth);
    let surge_top_drop_pct = surges.first().map(|s| s.drop * 100.0).unwrap_or(0.0);

    Fig16 {
        zones: index.zone_count(),
        budgets,
        fixed_err_pct,
        adaptive_err_pct,
        regions_per_budget,
        chronic,
        surge,
        surge_top_drop_pct,
        partition_digest,
    }
}

impl Fig16 {
    /// Markdown summary.
    pub fn summary(&self) -> String {
        let low = self
            .budgets
            .first()
            .zip(self.fixed_err_pct.first())
            .zip(self.adaptive_err_pct.first());
        let lead = match low {
            Some(((b, f), a)) => {
                format!("At {b} samples/zone: fixed {f:.1}% vs adaptive {a:.1}% error")
            }
            None => "(no budgets swept)".to_string(),
        };
        format!(
            "**Fig 16 (adaptive regions, beyond the paper).** {lead} over \
             {} zones; chronic patches precision {:.2} / recall {:.2} \
             ({} planted); stadium surge precision {:.2} / recall {:.2}, \
             top drop {:.0}%.",
            self.zones,
            self.chronic.precision,
            self.chronic.recall,
            self.chronic.truth_zones,
            self.surge.precision,
            self.surge.recall,
            self.surge_top_drop_pct,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_wins_at_low_budget_and_converges() {
        let r = run(7, Scale::Quick);
        let (first_fixed, first_adaptive) = (r.fixed_err_pct[0], r.adaptive_err_pct[0]);
        assert!(
            first_adaptive < first_fixed,
            "pooling must beat starved zones at the lowest budget: \
             adaptive {first_adaptive:.2}% vs fixed {first_fixed:.2}%"
        );
        // Fixed-grid error must shrink monotonically-ish with budget.
        let last_fixed = *r.fixed_err_pct.last().unwrap();
        assert!(last_fixed < first_fixed);
    }

    #[test]
    fn chronic_patches_all_detected_cleanly() {
        let r = run(7, Scale::Quick);
        assert!(
            r.chronic.truth_zones >= 1,
            "the quick extent must contain planted degraded zones"
        );
        assert_eq!(r.chronic.precision, 1.0, "{:?}", r.chronic);
        assert_eq!(r.chronic.recall, 1.0, "{:?}", r.chronic);
    }

    #[test]
    fn stadium_surge_localized() {
        let r = run(7, Scale::Quick);
        assert!(r.surge.truth_zones >= 1, "stadium zones inside extent");
        assert!(r.surge.flagged >= 1, "game-window drop must be flagged");
        assert_eq!(r.surge.precision, 1.0, "{:?}", r.surge);
        assert_eq!(r.surge.recall, 1.0, "{:?}", r.surge);
        assert!(r.surge_top_drop_pct > 25.0);
    }

    #[test]
    fn digest_is_stable_across_runs() {
        let a = run(7, Scale::Quick);
        let b = run(7, Scale::Quick);
        assert_eq!(a.partition_digest, b.partition_digest);
        assert_eq!(a.fixed_err_pct, b.fixed_err_pct);
        assert_eq!(a.adaptive_err_pct, b.adaptive_err_pct);
    }
}
