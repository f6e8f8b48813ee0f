//! **Fig 15** (repro-only) — control-channel overhead: bytes per
//! zone-epoch and estimation-error degradation under report loss.
//!
//! The paper's overhead analysis argues the coordinator↔client control
//! traffic is a negligible fraction of the measurement traffic itself,
//! and that client reporting tolerates the cellular uplink's loss. A
//! lossless channel cannot exercise that claim; this experiment runs the
//! deployment loop over lossy `wiscape-channel` links and sweeps
//! report-loss rate × client count, comparing two delivery disciplines
//! per cell:
//!
//! * **reliable** — sequence numbers, acks, exponential-backoff
//!   retries (the shipped `Uplink` defaults): loss costs retransmission
//!   *bytes* but the published map converges to the lossless one;
//! * **fire-and-forget** — one transmission per report: loss costs
//!   *samples*, so zone estimates degrade instead.
//!
//! Both arms are pure functions of the master seed, so the output is
//! byte-identical across runs and `WISCAPE_THREADS` settings.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use wiscape_channel::report_loss;
use wiscape_core::{ZoneEstimate, ZoneId, ZoneIndex};
use wiscape_mobility::Fleet;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::{Landscape, LandscapeConfig, NetworkId};

use crate::common::Scale;
use crate::topology;

/// Channel cost + accuracy of one delivery discipline in one cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelCost {
    /// Total control-channel bytes (check-ins + tasks + reports + acks).
    pub control_bytes: u64,
    /// Control bytes per zone per coordinator epoch.
    pub bytes_per_zone_epoch: f64,
    /// Report retransmissions.
    pub retries: u64,
    /// Reports abandoned after exhausting their attempts.
    pub abandoned: u64,
    /// Zone-network estimates published.
    pub published: usize,
    /// Mean absolute relative error vs the lossless run (%), over
    /// zone-network pairs published by both.
    pub mean_abs_rel_error_pct: f64,
    /// Zone-network pairs the lossless run published that this run lost.
    pub missing_zone_pairs: usize,
}

/// One (loss rate, client count) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadCell {
    /// Report-frame drop probability on the uplink.
    pub loss_rate: f64,
    /// Mobile clients in the fleet (buses; plus one static spot).
    pub clients: usize,
    /// Cost with retries enabled (shipped defaults).
    pub reliable: ChannelCost,
    /// Cost with a single transmission per report.
    pub fire_and_forget: ChannelCost,
}

/// Result of the Fig 15 regeneration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15 {
    /// The loss × clients sweep.
    pub cells: Vec<OverheadCell>,
    /// Coordinator epoch length used for the per-zone-epoch rate, min.
    pub epoch_mins: f64,
    /// Simulated deployment window, hours.
    pub hours: f64,
}

struct RunOutcome {
    published: Vec<((ZoneId, NetworkId), ZoneEstimate)>,
    control_bytes: u64,
    retries: u64,
    abandoned: u64,
}

fn run_one(seed: u64, clients: usize, hours: f64, loss: f64, max_attempts: u32) -> RunOutcome {
    let land = Landscape::new(LandscapeConfig::madison(seed));
    let mut fleet = Fleet::new(seed);
    fleet
        .add_transit_buses(clients, land.origin(), 6000.0, 10)
        .add_static_spot(land.origin());
    let index = ZoneIndex::around(land.origin(), 7000.0).expect("valid zone index");
    let mut config = report_loss(loss);
    config.uplink.max_attempts = max_attempts;
    let start = SimTime::at(1, 7.0);
    let end = start + SimDuration::from_secs_f64(hours * 3600.0);
    // `repro --wal`/`--shards` run every cell on the installed topology
    // (one WAL subdirectory per run); each must publish the bytes of
    // the plain in-memory run, and CI diffs the artifacts.
    let mut topology = topology::installed().cloned().unwrap_or_default();
    if let Some(wal) = &mut topology.wal {
        let loss_permille = (loss * 1000.0).round() as u64;
        wal.dir = wal.dir.join(format!(
            "fig15_s{seed}_c{clients}_l{loss_permille}_a{max_attempts}"
        ));
    }
    topology::run(
        &topology,
        land,
        fleet,
        index,
        config,
        (start, end),
        |coordinator, run| RunOutcome {
            published: coordinator.all_published(),
            control_bytes: run.meters.control_bytes(),
            retries: run.meters.uplink.retries,
            abandoned: run.meters.uplink.abandoned,
        },
    )
    .unwrap_or_else(|e| panic!("fig15 on {topology:?}: {e}"))
}

/// Mean absolute relative error (%) and missing-pair count vs `base`.
fn error_vs(
    base: &[((ZoneId, NetworkId), ZoneEstimate)],
    got: &[((ZoneId, NetworkId), ZoneEstimate)],
) -> (f64, usize) {
    let map: BTreeMap<_, _> = got.iter().map(|&(key, e)| (key, e.mean)).collect();
    let mut sum = 0.0;
    let mut n = 0usize;
    let mut missing = 0usize;
    for (key, e) in base {
        match map.get(key) {
            Some(&m) if e.mean.abs() > f64::EPSILON => {
                sum += ((m - e.mean) / e.mean).abs();
                n += 1;
            }
            Some(_) => {}
            None => missing += 1,
        }
    }
    let mean = if n > 0 { sum / n as f64 * 100.0 } else { 0.0 };
    (mean, missing)
}

fn cost(
    out: &RunOutcome,
    base: &[((ZoneId, NetworkId), ZoneEstimate)],
    zone_epochs: f64,
) -> ChannelCost {
    let (err, missing) = error_vs(base, &out.published);
    ChannelCost {
        control_bytes: out.control_bytes,
        bytes_per_zone_epoch: out.control_bytes as f64 / zone_epochs.max(1.0),
        retries: out.retries,
        abandoned: out.abandoned,
        published: out.published.len(),
        mean_abs_rel_error_pct: err,
        missing_zone_pairs: missing,
    }
}

/// Runs the experiment.
pub fn run(seed: u64, scale: Scale) -> Fig15 {
    let hours = scale.pick(2.0, 6.0);
    let epoch_mins = 30.0;
    let losses: &[f64] = match scale {
        Scale::Quick => &[0.0, 0.1, 0.2],
        Scale::Full => &[0.0, 0.05, 0.1, 0.2, 0.3],
    };
    let client_counts: &[usize] = match scale {
        Scale::Quick => &[2, 5],
        Scale::Full => &[2, 5, 10],
    };
    let epochs = hours * 60.0 / epoch_mins;
    let mut cells = Vec::new();
    for &clients in client_counts {
        let base = run_one(seed, clients, hours, 0.0, 12);
        let zones: BTreeSet<_> = base.published.iter().map(|((zone, _), _)| zone).collect();
        let zone_epochs = zones.len() as f64 * epochs;
        for &loss in losses {
            let reliable = if loss == 0.0 {
                cost(&base, &base.published, zone_epochs)
            } else {
                let out = run_one(seed, clients, hours, loss, 12);
                cost(&out, &base.published, zone_epochs)
            };
            let fire_and_forget = if loss == 0.0 {
                reliable.clone()
            } else {
                let out = run_one(seed, clients, hours, loss, 1);
                cost(&out, &base.published, zone_epochs)
            };
            cells.push(OverheadCell {
                loss_rate: loss,
                clients,
                reliable,
                fire_and_forget,
            });
        }
    }
    Fig15 {
        cells,
        epoch_mins,
        hours,
    }
}

impl Fig15 {
    /// Markdown summary.
    pub fn summary(&self) -> String {
        let worst = self
            .cells
            .iter()
            .filter(|c| c.loss_rate > 0.0)
            .max_by(|a, b| a.loss_rate.total_cmp(&b.loss_rate))
            .or_else(|| self.cells.last());
        let lossless = self.cells.first();
        match (lossless, worst) {
            (Some(l), Some(w)) => format!(
                "**Fig 15 (control-channel overhead; repro-only).** At {} clients \
                 the control channel costs {:.0} B per zone-epoch lossless; at {:.0}% \
                 report loss, reliable delivery pays {:.0} B ({} retries) yet keeps \
                 estimation error at {:.2}%, while fire-and-forget saves the retries \
                 but degrades error to {:.2}% and loses {} zone estimates — the repro \
                 side of the paper's overhead argument that client reporting stays a \
                 negligible, loss-tolerant fraction of measured traffic.",
                w.clients,
                l.reliable.bytes_per_zone_epoch,
                w.loss_rate * 100.0,
                w.reliable.bytes_per_zone_epoch,
                w.reliable.retries,
                w.reliable.mean_abs_rel_error_pct,
                w.fire_and_forget.mean_abs_rel_error_pct,
                w.fire_and_forget.missing_zone_pairs,
            ),
            _ => "**Fig 15 (control-channel overhead; repro-only).** No cells \
                  (paper overhead argument not exercised)."
                .to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_sweep_behaves_like_the_paper_argues() {
        let r = run(9, Scale::Quick);
        assert_eq!(r.cells.len(), 6);
        for c in &r.cells {
            // Loss never makes the channel cheaper under retries.
            let lossless = r
                .cells
                .iter()
                .find(|o| o.clients == c.clients && o.loss_rate == 0.0)
                .unwrap();
            assert!(
                c.reliable.control_bytes >= lossless.reliable.control_bytes,
                "retries at loss {} must cost bytes",
                c.loss_rate
            );
            if c.loss_rate > 0.0 {
                assert!(c.reliable.retries > 0, "loss {} retries", c.loss_rate);
                assert_eq!(c.fire_and_forget.retries, 0);
                assert!(
                    c.fire_and_forget.abandoned > 0,
                    "fire-and-forget at loss {} must drop reports",
                    c.loss_rate
                );
                // Reliable delivery recovers the lossless map.
                assert!(
                    c.reliable.mean_abs_rel_error_pct <= f64::EPSILON,
                    "reliable error {}%",
                    c.reliable.mean_abs_rel_error_pct
                );
                assert_eq!(c.reliable.missing_zone_pairs, 0);
            }
        }
        assert!(r.summary().to_lowercase().contains("paper"));
    }

    #[test]
    fn output_is_deterministic() {
        let a = serde_json::to_string(&run(5, Scale::Quick)).unwrap();
        let b = serde_json::to_string(&run(5, Scale::Quick)).unwrap();
        assert_eq!(a, b);
    }
}
