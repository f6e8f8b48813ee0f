//! Quality ablations for WiScape's design choices (see `DESIGN.md`).
//!
//! Each study isolates one knob the paper fixed by analysis and shows
//! what moves when it changes:
//!
//! * [`zone_radius`] — zone size vs estimation accuracy and zone
//!   coverage (extends Fig 4 / Fig 8);
//! * [`epoch_policy`] — fixed epochs vs the Allan-chosen epoch
//!   (justifies §3.2.2);
//! * [`sample_count`] — probe count vs estimate error (extends Table 5);
//! * [`change_threshold`] — the 2σ alert rule vs alert noise
//!   (justifies §3.4);
//! * [`mar_schedulers`] — plain RR vs weighted RR vs WiScape-informed
//!   striping (extends Table 6).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use wiscape_apps::{run_mar_drive, DrivingClient, MarScheduler, ZoneQualityMap};
use wiscape_core::estimator::{summarize, zone_errors};
use wiscape_core::{EpochConfig, EpochEstimator, Observation, ZoneAggregator, ZoneIndex};
use wiscape_datasets::{short_segment, standalone, Metric};
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::{Landscape, LandscapeConfig, NetworkId, TransportKind};

/// One row of the zone-radius ablation.
#[derive(Debug, Clone)]
pub struct ZoneRadiusRow {
    /// Zone radius, meters.
    pub radius_m: f64,
    /// Zones with enough samples on both sides of the split.
    pub zones: usize,
    /// Fraction of zones within 4% error.
    pub frac_within_4pct: f64,
    /// Median relative error.
    pub median_error: f64,
}

/// Zone radius vs estimation accuracy: the client/truth split of Fig 8
/// repeated for several radii. Small zones are homogeneous but starve
/// for samples; large zones have samples but mix terrain.
pub fn zone_radius(seed: u64) -> Vec<ZoneRadiusRow> {
    let land = Landscape::new(LandscapeConfig::madison(seed));
    let ds = standalone::generate(
        &land,
        seed,
        &standalone::StandaloneParams {
            days: 4,
            download_interval_s: 180,
            ping_interval_s: 3600,
            ..Default::default()
        },
    );
    let mut rows = Vec::new();
    for radius in [100.0, 250.0, 500.0, 750.0] {
        let index = ZoneIndex::new(
            wiscape_geo::BoundingBox::around(land.origin(), 8000.0),
            radius,
        )
        .expect("valid index");
        let mut client = ZoneAggregator::new(index.clone());
        let mut truth = ZoneAggregator::new(index.clone());
        for (i, r) in ds
            .select(NetworkId::NetB, Metric::TcpKbps)
            .iter()
            .enumerate()
        {
            let obs = Observation {
                network: r.network,
                point: r.point,
                t: r.t,
                value: r.value,
            };
            if i % 4 == 0 {
                client.ingest(&obs);
            } else {
                truth.ingest(&obs);
            }
        }
        let est: Vec<_> = client
            .zone_map(NetworkId::NetB, 8)
            .into_iter()
            .map(|z| (z.zone, z.mean))
            .collect();
        let tru: Vec<_> = truth
            .zone_map(NetworkId::NetB, 24)
            .into_iter()
            .map(|z| (z.zone, z.mean))
            .collect();
        let errors = zone_errors(&est, &tru);
        if let Some(s) = summarize(&errors) {
            rows.push(ZoneRadiusRow {
                radius_m: radius,
                zones: s.zones,
                frac_within_4pct: s.frac_within_4pct,
                median_error: s.median,
            });
        }
    }
    rows
}

/// One row of the epoch-policy ablation.
#[derive(Debug, Clone)]
pub struct EpochPolicyRow {
    /// Policy label.
    pub policy: String,
    /// Epoch used, minutes.
    pub epoch_min: f64,
    /// Mean |estimate − truth| / truth across epochs.
    pub mean_error: f64,
    /// Number of measurement samples consumed (cost).
    pub samples_used: usize,
}

/// Fixed epochs vs the Allan-derived epoch at one zone: shorter epochs
/// track drift closely but waste samples; very long epochs average over
/// distinct network states. The Allan choice balances the two.
pub fn epoch_policy(seed: u64) -> Vec<EpochPolicyRow> {
    let land = Landscape::new(LandscapeConfig::madison(seed));
    let p = crate::bench_point(&land);
    // One measurement (20-packet train estimate) per minute for 3 days.
    let mut samples: Vec<(SimTime, f64)> = Vec::new();
    let mut t = SimTime::at(0, 0.0);
    while t < SimTime::at(3, 0.0) {
        let train = land
            .probe_train(NetworkId::NetB, TransportKind::Udp, &p, t, 20, 1200)
            .expect("NetB present");
        if let Some(est) = train.estimated_kbps() {
            samples.push((t, est));
        }
        t = t + SimDuration::from_secs(60);
    }
    let series: Vec<wiscape_stats::TimedValue> = samples
        .iter()
        .map(|(t, v)| wiscape_stats::TimedValue::new(t.as_secs_f64(), *v))
        .collect();
    let allan_epoch = EpochEstimator::new(EpochConfig::default())
        .estimate(&series)
        .expect("long series")
        .epoch;

    let mut rows = Vec::new();
    for (label, epoch) in [
        ("fixed 5 min".to_string(), SimDuration::from_mins(5)),
        ("fixed 30 min".to_string(), SimDuration::from_mins(30)),
        ("Allan-chosen".to_string(), allan_epoch),
        ("fixed 240 min".to_string(), SimDuration::from_mins(240)),
    ] {
        // WiScape draws at most ~20 samples per epoch (one task) and
        // publishes the epoch mean; error vs the field truth at epoch
        // end, averaged over all epochs.
        let epoch_s = epoch.as_secs_f64();
        let mut err_acc = 0.0;
        let mut err_n = 0;
        let mut used = 0usize;
        let t0 = samples[0].0.as_secs_f64();
        let mut idx = 0usize;
        let mut epoch_id = 0;
        while idx < samples.len() {
            let window_end = t0 + (epoch_id + 1) as f64 * epoch_s;
            let mut vals = Vec::new();
            while idx < samples.len() && samples[idx].0.as_secs_f64() < window_end {
                // Cap the per-epoch budget like the coordinator does.
                if vals.len() < 20 {
                    vals.push(samples[idx].1);
                }
                idx += 1;
            }
            epoch_id += 1;
            if vals.is_empty() {
                continue;
            }
            used += vals.len();
            let est = vals.iter().sum::<f64>() / vals.len() as f64;
            let at = SimTime::from_secs(window_end as i64);
            let truth = land
                .link_quality(NetworkId::NetB, &p, at)
                .expect("present")
                .udp_kbps;
            err_acc += (est - truth).abs() / truth;
            err_n += 1;
        }
        rows.push(EpochPolicyRow {
            policy: label,
            epoch_min: epoch.as_mins_f64(),
            mean_error: err_acc / err_n.max(1) as f64,
            samples_used: used,
        });
    }
    rows
}

/// One row of the sample-count ablation.
#[derive(Debug, Clone)]
pub struct SampleCountRow {
    /// Packets per estimate.
    pub packets: usize,
    /// Mean relative error of the estimate.
    pub mean_error: f64,
    /// 95th percentile relative error.
    pub p95_error: f64,
}

/// Probe count vs estimate error: the Table 5 trade-off as a full curve.
pub fn sample_count(seed: u64) -> Vec<SampleCountRow> {
    let land = Landscape::new(LandscapeConfig::madison(seed));
    let p = crate::bench_point(&land);
    let t = SimTime::at(2, 10.0);
    // A large pool of per-packet samples plus the ground truth.
    let pool = land
        .probe_train(NetworkId::NetB, TransportKind::Udp, &p, t, 4000, 1200)
        .expect("NetB present")
        .received_kbps();
    let truth = land
        .link_quality(NetworkId::NetB, &p, t)
        .expect("present")
        .udp_kbps;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for packets in [5usize, 10, 20, 40, 60, 90, 120, 200] {
        let mut errs: Vec<f64> = (0..200)
            .map(|_| {
                let est: f64 =
                    pool.choose_multiple(&mut rng, packets).sum::<f64>() / packets as f64;
                (est - truth).abs() / truth
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        rows.push(SampleCountRow {
            packets,
            mean_error: errs.iter().sum::<f64>() / errs.len() as f64,
            p95_error: errs[(errs.len() * 95) / 100],
        });
    }
    rows
}

/// One row of the change-threshold ablation.
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// Alert threshold in sigmas.
    pub sigma: f64,
    /// Alerts in the stadium zone on game day (want ≥ 1).
    pub game_day_alerts: usize,
    /// Alerts in the stadium zone on a quiet day (want 0).
    pub quiet_day_alerts: usize,
}

/// The 2σ publish/alert rule vs alternatives: lower thresholds catch the
/// game-day shift earlier but alert on ordinary drift; higher thresholds
/// sleep through real events.
pub fn change_threshold(seed: u64) -> Vec<ThresholdRow> {
    use wiscape_channel::{perfect_link, ChannelDeployment};
    let stadium = wiscape_simnet::config::stadium_location();
    let mut rows = Vec::new();
    for sigma in [1.0, 2.0, 4.0, 8.0] {
        let count_alerts = |day: i64| {
            let land = Landscape::new(LandscapeConfig::madison(seed));
            let mut fleet = wiscape_mobility::Fleet::new(seed);
            fleet.add_static_spot(stadium);
            let index = ZoneIndex::around(land.origin(), 7000.0).expect("valid");
            let zone = index.zone_of(&stadium);
            let mut config = perfect_link();
            config.deployment.checkin_interval = SimDuration::from_secs(45);
            config.deployment.coordinator.change_threshold_sigma = sigma;
            let mut d = ChannelDeployment::new(land, fleet, index, config);
            d.run(SimTime::at(day, 8.0), SimTime::at(day, 16.0));
            d.coordinator()
                .alerts()
                .iter()
                .filter(|a| a.zone == zone)
                .count()
        };
        rows.push(ThresholdRow {
            sigma,
            game_day_alerts: count_alerts(5),  // Saturday: game day
            quiet_day_alerts: count_alerts(2), // Wednesday: quiet
        });
    }
    rows
}

/// One row of the MAR scheduler ablation.
#[derive(Debug, Clone)]
pub struct SchedulerRow {
    /// Scheduler label.
    pub scheduler: String,
    /// Total completion seconds for the batch.
    pub total_s: f64,
}

/// Striping schedulers on the same drive and batch: naive RR (no map),
/// throughput-weighted RR, WiScape-informed.
pub fn mar_schedulers(seed: u64) -> Vec<SchedulerRow> {
    let land = Landscape::new(LandscapeConfig::madison(seed));
    let params = short_segment::ShortSegmentParams::default();
    let route = short_segment::segment_route(&land, &params);
    // Client-sourced map (throughput + rtt) along the segment.
    let ds = short_segment::generate(
        &land,
        seed,
        &short_segment::ShortSegmentParams {
            days: 3,
            interval_s: 90,
            ..params
        },
    );
    let index = ZoneIndex::around(land.origin(), 25_000.0).expect("valid");
    let tput: Vec<_> = ds
        .records
        .iter()
        .filter(|r| r.metric == Metric::TcpKbps)
        .map(|r| (r.point, r.network, r.value))
        .collect();
    let rtts: Vec<_> = ds
        .records
        .iter()
        .filter(|r| r.metric == Metric::PingRttMs)
        .map(|r| (r.point, r.network, r.value))
        .collect();
    let map = ZoneQualityMap::from_observations(index, &tput).with_rtt_observations(&rtts);

    let start = SimTime::at(2, 9.0);
    let driver = DrivingClient::new(route, 15.3, start);
    let mut rng = StreamRng::new(seed).fork("batch").rng();
    let pool = wiscape_workload::PagePool::surge(1000, &StreamRng::new(seed));
    let sizes: Vec<u64> = pool
        .request_sequence(120, &mut rng)
        .iter()
        .map(|p| p.size_bytes)
        .collect();
    let mut rows = Vec::new();
    for (label, sched, use_map) in [
        ("naive RR (no map)", MarScheduler::WeightedRoundRobin, false),
        ("weighted RR", MarScheduler::WeightedRoundRobin, true),
        ("WiScape", MarScheduler::WiScape, true),
    ] {
        let out = run_mar_drive(
            &land,
            &driver,
            start,
            &sizes,
            sched,
            use_map.then_some(&map),
        )
        .expect("networks present");
        rows.push(SchedulerRow {
            scheduler: label.to_string(),
            total_s: out.total.as_secs_f64(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_radius_trades_coverage_for_homogeneity() {
        let rows = zone_radius(200);
        assert!(rows.len() >= 3);
        // Larger zones qualify fewer-but-bigger bins... at minimum every
        // row must have sane stats.
        for r in &rows {
            assert!(r.zones > 3, "{r:?}");
            assert!(r.median_error < 0.25, "{r:?}");
        }
    }

    #[test]
    fn allan_epoch_is_competitive_with_the_best_fixed_epoch() {
        let rows = epoch_policy(201);
        let allan = rows.iter().find(|r| r.policy == "Allan-chosen").unwrap();
        let worst_fixed = rows
            .iter()
            .filter(|r| r.policy != "Allan-chosen")
            .map(|r| r.mean_error)
            .fold(0.0f64, f64::max);
        assert!(
            allan.mean_error <= worst_fixed,
            "Allan {} vs worst fixed {worst_fixed}",
            allan.mean_error
        );
        // And far cheaper than the 5-minute policy.
        let five = rows.iter().find(|r| r.policy == "fixed 5 min").unwrap();
        assert!(allan.samples_used <= five.samples_used);
    }

    #[test]
    fn error_decreases_with_sample_count() {
        let rows = sample_count(202);
        assert!(rows.first().unwrap().mean_error > rows.last().unwrap().mean_error);
        // Around the paper's ~90-packet regime the error is ~3%.
        let at90 = rows.iter().find(|r| r.packets == 90).unwrap();
        assert!(at90.p95_error < 0.08, "{at90:?}");
    }

    #[test]
    fn two_sigma_catches_the_game_without_quiet_noise_of_eight_sigma() {
        let rows = change_threshold(203);
        let at = |s: f64| rows.iter().find(|r| r.sigma == s).unwrap();
        assert!(at(2.0).game_day_alerts >= 1, "{:?}", at(2.0));
        // A very high threshold misses the event.
        assert!(at(8.0).game_day_alerts <= at(1.0).game_day_alerts);
        // A very low threshold is noisier on quiet days.
        assert!(at(1.0).quiet_day_alerts >= at(2.0).quiet_day_alerts);
    }

    #[test]
    fn wiscape_scheduler_wins_the_ablation() {
        let rows = mar_schedulers(204);
        let get = |label: &str| rows.iter().find(|r| r.scheduler == label).unwrap().total_s;
        assert!(get("WiScape") < get("weighted RR") * 1.02);
        assert!(get("WiScape") < get("naive RR (no map)") * 1.02);
    }
}
