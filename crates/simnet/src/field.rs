//! The ground-truth performance field.
//!
//! [`NetworkField`] evaluates the *expected* (mean) link quality of one
//! operator at any `(location, time)`. Per-packet dispersion on top of
//! these means is applied by the probe engine ([`crate::probe`]), keeping
//! "what the network truly offers" separate from "what one packet saw" —
//! the distinction WiScape's sample-count analysis (§3.3) is about.
//!
//! # Evaluation paths
//!
//! Every metric is assembled from small `*_value` helpers, so the two
//! evaluation paths — one per query shape — cannot drift apart
//! numerically:
//!
//! * [`NetworkField::link_quality`] — all five metrics at one `(p, t)`,
//!   sharing the resolved point context (projection, drift track,
//!   coherence time, degraded flag, spatial factors) across metrics. It
//!   is [`NetworkField::resolve`] followed by
//!   [`NetworkField::link_quality_with`];
//! * [`NetworkField::rtt_loss`] — RTT and loss alone at one `(p, t)`
//!   (the ping shape), resolving only the part of the point context
//!   those two metrics read, which [`NetworkField::resolve`] is built on;
//! * [`NetworkField::link_quality_train`] — one point over a train of
//!   times (the probe-train shape), resolved once and swept
//!   structure-of-arrays style.
//!
//! All produce bitwise-identical results by construction: they evaluate
//! the same expression trees in the same order; only the layout of
//! intermediate inputs differs.

use serde::{Deserialize, Serialize};
use wiscape_geo::{GeoPoint, LocalProjection, Vec2};
use wiscape_simcore::noise::{ValueNoise1D, ValueNoise2D};
use wiscape_simcore::{SimDuration, SimTime, StreamRng};

use crate::config::{LandscapeConfig, NetworkParams};
use crate::network::NetworkId;
use crate::towers::TowerLayout;

/// Expected round-trip time and loss of one network at one place and
/// instant: the two [`LinkQuality`] fields a ping reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttLoss {
    /// Mean application-level round-trip time, ms.
    pub rtt_ms: f64,
    /// Packet loss probability in `[0, 1]`.
    pub loss_rate: f64,
}

/// Expected link quality of one network at one place and instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkQuality {
    /// Mean TCP downlink throughput, kbit/s.
    pub tcp_kbps: f64,
    /// Mean UDP downlink throughput, kbit/s.
    pub udp_kbps: f64,
    /// Mean application-level round-trip time, ms.
    pub rtt_ms: f64,
    /// Mean instantaneous packet delay variation (IPDV jitter), ms.
    pub jitter_ms: f64,
    /// Packet loss probability in `[0, 1]`.
    pub loss_rate: f64,
}

/// The ground-truth field of a single operator.
#[derive(Debug, Clone)]
pub struct NetworkField {
    params: NetworkParams,
    proj: LocalProjection,
    towers: TowerLayout,
    spatial_tput: ValueNoise2D,
    spatial_rtt: ValueNoise2D,
    spatial_jitter: ValueNoise2D,
    /// Stream for per-cell temporal drift tracks.
    drift_stream: StreamRng,
    /// Stream for per-cell coherence-time assignment.
    coherence_stream: StreamRng,
    degraded_stream: StreamRng,
    spatial_corr_m: f64,
    drift_cell_m: f64,
    degraded_cell_m: f64,
    coherence_base: SimDuration,
    coherence_spread: f64,
    degraded: crate::events::DegradedZoneModel,
    events: Vec<crate::events::SpecialEvent>,
    /// Spatial mean of the tower proximity factor, measured at
    /// construction so the tower term can be centered (keeps regional
    /// means on calibration).
    tower_mean: f64,
}

/// Integer drift-cell coordinates (zone-scale temporal coherence unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DriftCell {
    /// Column (east) index.
    pub i: i64,
    /// Row (north) index.
    pub j: i64,
}

/// Everything about a point that does not depend on time: projected
/// position, drift noise track, coherence time, degraded flag, and the
/// three spatial multipliers. Resolving it once and reusing it across
/// evaluations skips the RNG forking, hashing, and `ValueNoise`
/// reconstruction that dominate single-point queries.
#[derive(Debug, Clone, Copy)]
pub struct PointCtx {
    p: GeoPoint,
    latency: LatencyCtx,
    spatial_tput: f64,
    spatial_jitter: f64,
}

/// The part of a [`PointCtx`] that RTT and loss read: degraded flag,
/// drift track, coherence time and the latency spatial multiplier. It
/// skips the throughput factor's fBm and tower scan and the jitter
/// factor's fBm.
#[derive(Debug, Clone, Copy)]
struct LatencyCtx {
    degraded: bool,
    tau: SimDuration,
    track: ValueNoise1D,
    /// Drift amplitude, already multiplied by the degraded-zone
    /// variability factor where applicable.
    drift_amp: f64,
    spatial_rtt: f64,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

impl NetworkField {
    /// Builds the field of network `id` from a landscape configuration.
    ///
    /// Returns `None` when the network is absent from the region.
    pub fn new(config: &LandscapeConfig, id: NetworkId) -> Option<Self> {
        let params = config.network(id)?.clone();
        let proj = LocalProjection::new(config.origin);
        let root = StreamRng::new(config.seed).fork("net").fork_idx(id.index());
        let towers = TowerLayout::new(proj, params.tower_spacing_m, root.fork("towers"));
        // Measure the layout's mean proximity factor over a wide lattice
        // of sample points; used to center the tower term at 1.
        let tower_mean = {
            let mut sum = 0.0;
            let mut n = 0;
            for i in -12..=12 {
                for j in -12..=12 {
                    let p = proj.from_xy(&wiscape_geo::Vec2::new(
                        i as f64 * 1370.0,
                        j as f64 * 1370.0,
                    ));
                    sum += towers.proximity_factor(&p);
                    n += 1;
                }
            }
            sum / n as f64
        };
        Some(Self {
            proj,
            towers,
            spatial_tput: ValueNoise2D::new(root.fork("spatial-tput")),
            spatial_rtt: ValueNoise2D::new(root.fork("spatial-rtt")),
            spatial_jitter: ValueNoise2D::new(root.fork("spatial-jitter")),
            drift_stream: root.fork("drift"),
            coherence_stream: StreamRng::new(config.seed).fork("coherence"),
            degraded_stream: StreamRng::new(config.seed).fork("zones"),
            spatial_corr_m: config.spatial_corr_m,
            drift_cell_m: config.drift_cell_m,
            degraded_cell_m: config.degraded_cell_m,
            coherence_base: config.coherence_base,
            coherence_spread: config.coherence_spread,
            degraded: config.degraded,
            events: config.events.clone(),
            tower_mean,
            params,
        })
    }

    /// The parameters this field was built from.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// The drift cell containing projected position `v`.
    fn cell_of_xy(&self, v: &Vec2) -> DriftCell {
        DriftCell {
            i: (v.x / self.drift_cell_m).floor() as i64,
            j: (v.y / self.drift_cell_m).floor() as i64,
        }
    }

    /// The drift cell containing `p`.
    pub fn drift_cell(&self, p: &GeoPoint) -> DriftCell {
        self.cell_of_xy(&self.proj.to_xy(p))
    }

    /// The degraded-grid cell indices of projected position `v`.
    fn degraded_indices(&self, v: &Vec2) -> (i64, i64) {
        (
            (v.x / self.degraded_cell_m).floor() as i64,
            (v.y / self.degraded_cell_m).floor() as i64,
        )
    }

    /// Whether degraded-grid cell `(i, j)` is chronically degraded.
    fn degraded_cell(&self, i: i64, j: i64) -> bool {
        self.degraded.is_degraded(&self.degraded_stream, i, j)
    }

    /// Whether `p` lies in a chronically degraded cell.
    ///
    /// Degradation is a *zone* property shared by all networks (bad
    /// terrain, obstructions), so it is keyed off a landscape-level
    /// stream rather than a per-network one.
    pub fn is_degraded(&self, p: &GeoPoint) -> bool {
        let v = self.proj.to_xy(p);
        let (i, j) = self.degraded_indices(&v);
        self.degraded_cell(i, j)
    }

    /// The 1-D drift noise track of cell `c`.
    fn cell_track(&self, c: DriftCell) -> ValueNoise1D {
        ValueNoise1D::new(
            self.drift_stream
                .fork_idx(zigzag(c.i))
                .fork_idx(zigzag(c.j)),
        )
    }

    /// The coherence time assigned to cell `c`.
    fn cell_coherence(&self, c: DriftCell) -> SimDuration {
        let u = self
            .coherence_stream
            .fork_idx(zigzag(c.i))
            .fork_idx(zigzag(c.j))
            .draw_unit_f64();
        let factor = 1.0 + self.coherence_spread * (2.0 * u - 1.0);
        SimDuration::from_secs_f64(self.coherence_base.as_secs_f64() * factor)
    }

    /// The local coherence time of the epoch-scale drift at `p`.
    ///
    /// Varies around the regional base by ±`coherence_spread`, assigned
    /// per drift cell; shared across networks (it models how the local
    /// user population's behavior changes, not operator internals).
    pub fn coherence_time(&self, p: &GeoPoint) -> SimDuration {
        self.cell_coherence(self.drift_cell(p))
    }

    /// Smooth coverage multiplier from metro/rural buildout: 1 inside
    /// the metro core, fading to `1 - rural_falloff` over the taper.
    /// `dist_m` is the projected distance from the region origin.
    fn coverage_value(&self, dist_m: f64) -> f64 {
        if self.params.rural_falloff <= 0.0 {
            return 1.0;
        }
        let t = ((dist_m - self.params.metro_radius_m) / self.params.rural_taper_m).clamp(0.0, 1.0);
        let smooth = t * t * (3.0 - 2.0 * t);
        1.0 - self.params.rural_falloff * smooth
    }

    /// Throughput spatial multiplier at projected position `v` of `p`
    /// (mean ≈ 1 inside the metro area).
    fn spatial_tput_value(&self, v: &Vec2, p: &GeoPoint) -> f64 {
        let n = self
            .spatial_tput
            .fbm(v.x / self.spatial_corr_m, v.y / self.spatial_corr_m, 3, 0.5);
        let tower = self.towers.proximity_factor(p);
        (1.0 + self.params.spatial_amp * n)
            * (1.0 + self.params.tower_weight * (tower - self.tower_mean))
            * self.coverage_value(v.norm())
    }

    /// Latency spatial multiplier at projected position `v`.
    fn spatial_rtt_value(&self, v: &Vec2) -> f64 {
        1.0 + 0.45
            * self
                .spatial_rtt
                .fbm(v.x / self.spatial_corr_m, v.y / self.spatial_corr_m, 3, 0.5)
    }

    /// Jitter spatial multiplier at projected position `v`.
    fn spatial_jitter_value(&self, v: &Vec2) -> f64 {
        1.0 + 0.25
            * self
                .spatial_jitter
                .fbm(v.x / self.spatial_corr_m, v.y / self.spatial_corr_m, 2, 0.5)
    }

    /// Zone-coherent temporal drift multiplier (mean ≈ 1) from a resolved
    /// cell track: a 1-D value-noise track per drift cell, with the time
    /// axis scaled by the cell's coherence time `tau`, so the track
    /// decorrelates over roughly one coherence time, which is what the
    /// Allan-deviation epoch search (Fig 6) recovers. Multi-scale drift
    /// with energy *rising* toward coarse scales (octave spacings τ, 2τ,
    /// 4τ, 8τ with growing amplitude): below the coherence time the
    /// track is smooth, above it the Allan deviation keeps climbing —
    /// which is what makes the Fig 6 minimum land near τ instead of
    /// running off to infinity.
    fn drift_value(&self, track: &ValueNoise1D, tau: SimDuration, amp: f64, t: SimTime) -> f64 {
        let x = t.as_secs_f64() / tau.as_secs_f64();
        (1.0 + amp * track.fbm(x / 16.0, 5, 0.5)).max(0.05)
    }

    /// Centered diurnal multiplier for capacity (long-run mean ≈ 1).
    fn diurnal_tput_factor(&self, t: SimTime) -> f64 {
        1.0 - self.params.diurnal.depth * (self.params.diurnal.load(t) - 0.5)
    }

    /// Centered diurnal multiplier for latency (long-run mean ≈ 1).
    fn diurnal_rtt_factor(&self, t: SimTime) -> f64 {
        1.0 + self.params.diurnal.depth * (self.params.diurnal.load(t) - 0.5)
    }

    /// Product of all special-event throughput factors at `(p, t)`.
    fn event_tput_factor(&self, p: &GeoPoint, t: SimTime) -> f64 {
        self.events
            .iter()
            .map(|e| e.throughput_factor(p, t))
            .product()
    }

    /// Product of all special-event latency factors at `(p, t)`.
    fn event_rtt_factor(&self, p: &GeoPoint, t: SimTime) -> f64 {
        self.events.iter().map(|e| e.latency_factor(p, t)).product()
    }

    /// UDP throughput from its pre-resolved factors, kbit/s, capped at
    /// the radio technology's rated ceiling.
    fn udp_value(&self, spatial: f64, drift: f64, diurnal: f64, event: f64, degraded: bool) -> f64 {
        let mut v = self.params.base_udp_kbps * spatial * drift * diurnal * event;
        if degraded {
            v *= self.degraded.throughput_penalty;
        }
        v.clamp(10.0, self.params.id.max_downlink_kbps())
    }

    /// TCP throughput from the UDP mean, kbit/s.
    fn tcp_value(&self, udp_kbps: f64) -> f64 {
        (udp_kbps * self.params.tcp_ratio).clamp(10.0, self.params.id.max_downlink_kbps())
    }

    /// RTT from its pre-resolved factors, ms. Latency reuses the
    /// capacity drift, inverted and attenuated: a 10% capacity dip
    /// raises RTT ~1.5% (latency reacts much less than throughput to
    /// epoch-scale load changes).
    fn rtt_value(&self, spatial: f64, drift: f64, diurnal: f64, event: f64) -> f64 {
        let drift_rtt = 1.0 + 0.15 * (1.0 - drift);
        (self.params.base_rtt_ms * spatial * drift_rtt * diurnal * event).max(5.0)
    }

    /// Jitter from its pre-resolved factors, ms.
    fn jitter_value(&self, spatial: f64, event_rtt: f64) -> f64 {
        (self.params.base_jitter_ms * spatial * event_rtt.sqrt()).max(0.1)
    }

    /// Loss rate from its pre-resolved factors. Degraded zones use the
    /// chronic failure probability (Fig 9); events add congestion loss.
    fn loss_value(&self, degraded: bool, event_rtt: f64) -> f64 {
        let base = if degraded {
            self.degraded.ping_fail_prob
        } else {
            self.params.base_loss
        };
        let event_extra = 0.02 * (event_rtt - 1.0).max(0.0);
        (base + event_extra).clamp(0.0, 0.5)
    }

    /// Packet-loss probability at `(p, t)`.
    pub fn loss_rate(&self, p: &GeoPoint, t: SimTime) -> f64 {
        self.loss_value(self.is_degraded(p), self.event_rtt_factor(p, t))
    }

    /// Resolves what RTT and loss read about projected position `v`.
    fn resolve_latency(&self, v: &Vec2) -> LatencyCtx {
        let cell = self.cell_of_xy(v);
        let (di, dj) = self.degraded_indices(v);
        let degraded = self.degraded_cell(di, dj);
        let mut drift_amp = self.params.drift_amp;
        if degraded {
            drift_amp *= self.degraded.variability_multiplier;
        }
        LatencyCtx {
            degraded,
            tau: self.cell_coherence(cell),
            track: self.cell_track(cell),
            drift_amp,
            spatial_rtt: self.spatial_rtt_value(v),
        }
    }

    /// Resolves everything time-independent about `p` once, for reuse
    /// across many [`NetworkField::link_quality_with`] evaluations.
    pub fn resolve(&self, p: &GeoPoint) -> PointCtx {
        let v = self.proj.to_xy(p);
        PointCtx {
            p: *p,
            latency: self.resolve_latency(&v),
            spatial_tput: self.spatial_tput_value(&v, p),
            spatial_jitter: self.spatial_jitter_value(&v),
        }
    }

    /// Full mean link quality at time `t` of the point `ctx` was resolved
    /// at, bitwise identical to [`NetworkField::link_quality`] at the
    /// same point and time.
    pub fn link_quality_with(&self, ctx: &PointCtx, t: SimTime) -> LinkQuality {
        let p = &ctx.p;
        let latency = &ctx.latency;
        let drift = self.drift_value(&latency.track, latency.tau, latency.drift_amp, t);
        let event_rtt = self.event_rtt_factor(p, t);
        let udp_kbps = self.udp_value(
            ctx.spatial_tput,
            drift,
            self.diurnal_tput_factor(t),
            self.event_tput_factor(p, t),
            latency.degraded,
        );
        LinkQuality {
            tcp_kbps: self.tcp_value(udp_kbps),
            udp_kbps,
            rtt_ms: self.rtt_value(
                latency.spatial_rtt,
                drift,
                self.diurnal_rtt_factor(t),
                event_rtt,
            ),
            jitter_ms: self.jitter_value(ctx.spatial_jitter, event_rtt),
            loss_rate: self.loss_value(latency.degraded, event_rtt),
        }
    }

    /// Full mean link quality at `(p, t)`.
    pub fn link_quality(&self, p: &GeoPoint, t: SimTime) -> LinkQuality {
        self.link_quality_with(&self.resolve(p), t)
    }

    /// Mean RTT and loss at `(p, t)`, bitwise identical to those fields
    /// of [`NetworkField::link_quality`]: the same helpers over the same
    /// inputs, with the throughput and jitter factors never resolved.
    pub fn rtt_loss(&self, p: &GeoPoint, t: SimTime) -> RttLoss {
        let latency = self.resolve_latency(&self.proj.to_xy(p));
        let drift = self.drift_value(&latency.track, latency.tau, latency.drift_amp, t);
        let event_rtt = self.event_rtt_factor(p, t);
        RttLoss {
            rtt_ms: self.rtt_value(
                latency.spatial_rtt,
                drift,
                self.diurnal_rtt_factor(t),
                event_rtt,
            ),
            loss_rate: self.loss_value(latency.degraded, event_rtt),
        }
    }

    /// Mean link quality at `p` for each time of a probe train, in
    /// `times` order, bitwise identical to calling
    /// [`NetworkField::link_quality`] per time.
    ///
    /// The point is resolved once, then the train is evaluated
    /// structure-of-arrays style: every component (drift, diurnal, event
    /// factors) sweeps the whole train through a flat `f64` buffer before
    /// the next component starts, and [`LinkQuality`] values are only
    /// assembled in a final combine pass. Drift-octave stream forking and
    /// per-event spatial weights are hoisted out of the per-time loop;
    /// every element-wise expression is the one
    /// [`NetworkField::link_quality_with`] evaluates, with identical
    /// inputs and operation order, which is what keeps the results
    /// bitwise identical.
    pub fn link_quality_train(&self, p: &GeoPoint, times: &[SimTime]) -> Vec<LinkQuality> {
        let ctx = self.resolve(p);
        let latency = &ctx.latency;
        let n = times.len();

        // Drift pass: fork the track's fbm octaves once, then sweep the
        // train. `drift_value` computes `fbm(x / 16.0, 5, 0.5)` on exactly
        // these layers with exactly this `x`.
        let layers = latency.track.fbm_layers(5, 0.5);
        let tau_secs = latency.tau.as_secs_f64();
        let drift: Vec<f64> = times
            .iter()
            .map(|t| {
                let x = t.as_secs_f64() / tau_secs;
                (1.0 + latency.drift_amp * layers.at(x / 16.0)).max(0.05)
            })
            .collect();

        // Diurnal pass: `load(t)` is shared between the throughput and
        // latency factors (the scalar path calls it twice with the same
        // `t`).
        let depth = self.params.diurnal.depth;
        let mut diurnal_tput = Vec::with_capacity(n);
        let mut diurnal_rtt = Vec::with_capacity(n);
        for t in times {
            let load = self.params.diurnal.load(*t);
            diurnal_tput.push(1.0 - depth * (load - 0.5));
            diurnal_rtt.push(1.0 + depth * (load - 0.5));
        }

        // Event pass, event-major so each event's spatial weight is
        // computed once per train. The factor products accumulate in
        // event order starting from 1.0 — the fold `iter().product()`
        // performs in the scalar path. An event with zero spatial weight
        // contributes a factor of exactly 1.0, which multiplication
        // leaves bitwise unchanged, so those events are skipped.
        let mut event_rtt = vec![1.0; n];
        let mut event_tput = vec![1.0; n];
        for e in &self.events {
            let w_spatial = e.spatial_weight(p);
            if w_spatial == 0.0 {
                continue;
            }
            for (k, t) in times.iter().enumerate() {
                let w = e.activation(*t) * w_spatial;
                event_rtt[k] *= 1.0 + (e.latency_multiplier - 1.0) * w;
                event_tput[k] *= 1.0 + (e.throughput_multiplier - 1.0) * w;
            }
        }

        // Combine pass: assemble each LinkQuality from the precomputed
        // components through the same `*_value` helpers the scalar path
        // uses.
        (0..n)
            .map(|k| {
                let udp_kbps = self.udp_value(
                    ctx.spatial_tput,
                    drift[k],
                    diurnal_tput[k],
                    event_tput[k],
                    latency.degraded,
                );
                LinkQuality {
                    tcp_kbps: self.tcp_value(udp_kbps),
                    udp_kbps,
                    rtt_ms: self.rtt_value(
                        latency.spatial_rtt,
                        drift[k],
                        diurnal_rtt[k],
                        event_rtt[k],
                    ),
                    jitter_ms: self.jitter_value(ctx.spatial_jitter, event_rtt[k]),
                    loss_rate: self.loss_value(latency.degraded, event_rtt[k]),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{madison_center, stadium_location};

    fn field(net: NetworkId) -> NetworkField {
        NetworkField::new(&LandscapeConfig::madison(42), net).unwrap()
    }

    fn noon() -> SimTime {
        SimTime::at(1, 12.0)
    }

    #[test]
    fn absent_network_yields_none() {
        let cfg = LandscapeConfig::new_brunswick(1);
        assert!(NetworkField::new(&cfg, NetworkId::NetA).is_none());
        assert!(NetworkField::new(&cfg, NetworkId::NetB).is_some());
    }

    #[test]
    fn deterministic_across_instances() {
        let a = field(NetworkId::NetB);
        let b = field(NetworkId::NetB);
        let p = madison_center().destination(0.9, 2345.0);
        assert_eq!(a.link_quality(&p, noon()), b.link_quality(&p, noon()));
    }

    #[test]
    fn regional_mean_tracks_calibration() {
        // Spatio-temporal average over many points/times should land near
        // the configured base (Table 3).
        let f = field(NetworkId::NetB);
        let c = madison_center();
        let mut sum = 0.0;
        let mut n = 0;
        // Sample widely: the spatial field's correlation length is 3 km,
        // so averaging out its ±50% swings needs many patches.
        for i in 0..1600 {
            let p = c.destination(i as f64 * 0.7, 200.0 + (i as f64 * 209.0) % 14_000.0);
            if f.is_degraded(&p) {
                continue; // degraded cells are deliberately below base
            }
            let t = SimTime::at((i % 7) as i64, (i % 24) as f64);
            sum += f.link_quality(&p, t).udp_kbps;
            n += 1;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 867.0).abs() / 867.0 < 0.10,
            "regional mean {mean} vs base 867"
        );
    }

    #[test]
    fn spatial_variation_is_smooth_within_a_drift_cell() {
        // The smooth spatial field never jumps; the *drift* layer is
        // zone-granular by design (a per-cell temporal track), so only
        // same-cell neighbors are required to be close.
        let f = field(NetworkId::NetA);
        let c = madison_center();
        let mut prev = f.link_quality(&c, noon()).udp_kbps;
        let mut prev_cell = f.drift_cell(&c);
        let mut checked = 0;
        for i in 1..500 {
            let p = c.destination(0.3, i as f64 * 10.0);
            let cur = f.link_quality(&p, noon()).udp_kbps;
            let cell = f.drift_cell(&p);
            if cell == prev_cell {
                assert!(
                    (cur - prev).abs() / prev < 0.08,
                    "spatial jump at {i}: {prev} -> {cur}"
                );
                checked += 1;
            }
            prev = cur;
            prev_cell = cell;
        }
        assert!(checked > 400, "too few same-cell comparisons: {checked}");
    }

    #[test]
    fn nearby_points_are_similar_far_points_differ_more() {
        // The zone-homogeneity premise (paper §3.1).
        let f = field(NetworkId::NetB);
        let c = madison_center();
        let mut near_diff = 0.0;
        let mut far_diff = 0.0;
        for i in 0..60 {
            let base = c.destination(i as f64 * 0.4, (i as f64 * 211.0) % 7000.0);
            let q0 = f.link_quality(&base, noon()).udp_kbps;
            let near = f
                .link_quality(&base.destination(1.0, 100.0), noon())
                .udp_kbps;
            let far = f
                .link_quality(&base.destination(1.0, 4000.0), noon())
                .udp_kbps;
            near_diff += (near - q0).abs() / q0;
            far_diff += (far - q0).abs() / q0;
        }
        assert!(
            far_diff > 2.0 * near_diff,
            "near {near_diff} vs far {far_diff}"
        );
    }

    #[test]
    fn drift_changes_over_an_epoch_but_not_within_seconds() {
        let f = field(NetworkId::NetB);
        let p = madison_center().destination(1.3, 1234.0);
        let t0 = noon();
        let v0 = f.link_quality(&p, t0).udp_kbps;
        let v_sec = f.link_quality(&p, t0 + SimDuration::from_secs(10)).udp_kbps;
        assert!((v_sec - v0).abs() / v0 < 0.01, "10 s moved {v0} -> {v_sec}");
        // Across many whole coherence times, drift must visibly move.
        let mut max_rel = 0.0f64;
        for k in 1..40 {
            let v = f
                .link_quality(&p, t0 + SimDuration::from_mins(75 * k))
                .udp_kbps;
            max_rel = max_rel.max((v - v0).abs() / v0);
        }
        assert!(max_rel > 0.02, "drift too small: {max_rel}");
    }

    #[test]
    fn stadium_event_raises_latency_about_3_7x() {
        let f = field(NetworkId::NetB);
        let p = stadium_location();
        let quiet = f.link_quality(&p, SimTime::at(5, 9.0)).rtt_ms;
        let game = f.link_quality(&p, SimTime::at(5, 12.5)).rtt_ms;
        let ratio = game / quiet;
        assert!(
            (3.0..=4.5).contains(&ratio),
            "stadium ratio {ratio} (quiet {quiet}, game {game})"
        );
        // Throughput drops during the game.
        let tq = f.link_quality(&p, SimTime::at(5, 9.0)).udp_kbps;
        let tg = f.link_quality(&p, SimTime::at(5, 12.5)).udp_kbps;
        assert!(tg < 0.7 * tq, "throughput {tq} -> {tg}");
    }

    #[test]
    fn degraded_cells_exist_and_lose_pings() {
        let f = field(NetworkId::NetB);
        let c = madison_center();
        let mut found = 0;
        let mut total = 0;
        for i in 0..3000 {
            let p = c.destination(i as f64 * 0.13, 100.0 + (i as f64 * 97.0) % 9000.0);
            total += 1;
            if f.is_degraded(&p) {
                found += 1;
                assert!(f.loss_rate(&p, noon()) >= 0.05);
            } else {
                assert!(f.loss_rate(&p, noon()) < 0.01);
            }
        }
        let frac = found as f64 / total as f64;
        assert!(frac > 0.01 && frac < 0.12, "degraded fraction {frac}");
    }

    #[test]
    fn throughput_respects_technology_ceiling() {
        for net in NetworkId::ALL {
            let f = field(net);
            let c = madison_center();
            for i in 0..200 {
                let p = c.destination(i as f64, (i as f64 * 131.0) % 8000.0);
                let t = SimTime::at((i % 7) as i64, (i % 24) as f64);
                let q = f.link_quality(&p, t);
                assert!(q.udp_kbps <= net.max_downlink_kbps());
                assert!(q.tcp_kbps <= net.max_downlink_kbps());
            }
        }
    }

    #[test]
    fn coherence_time_varies_by_cell_within_spread() {
        let f = field(NetworkId::NetB);
        let c = madison_center();
        let base = 75.0 * 60.0;
        let mut distinct = std::collections::HashSet::new();
        for i in 0..50 {
            let p = c.destination(0.7, i as f64 * 700.0);
            let tau = f.coherence_time(&p).as_secs_f64();
            assert!(tau >= base * 0.6 && tau <= base * 1.4, "tau {tau}");
            distinct.insert((tau * 1000.0) as i64);
        }
        assert!(distinct.len() > 5, "coherence should vary across cells");
    }

    #[test]
    fn jitter_and_rtt_levels_match_calibration() {
        let f_a = field(NetworkId::NetA);
        let f_b = field(NetworkId::NetB);
        let c = madison_center();
        let mut ja = 0.0;
        let mut jb = 0.0;
        let mut rb = 0.0;
        let mut n = 0;
        for i in 0..200 {
            let p = c.destination(i as f64 * 1.1, 150.0 + (i as f64 * 71.0) % 5000.0);
            let t = SimTime::at((i % 5) as i64, 6.0 + (i % 16) as f64);
            let qb = f_b.link_quality(&p, t);
            ja += f_a.link_quality(&p, t).jitter_ms;
            jb += qb.jitter_ms;
            rb += qb.rtt_ms;
            n += 1;
        }
        let (ja, jb, rb) = (ja / n as f64, jb / n as f64, rb / n as f64);
        assert!((ja - 7.4).abs() < 1.5, "NetA jitter {ja}");
        assert!((jb - 3.0).abs() < 1.0, "NetB jitter {jb}");
        assert!((rb - 113.0).abs() < 25.0, "NetB rtt {rb}");
        assert!(ja > jb, "NetA must be jitterier than NetB");
    }

    /// A deterministic spread of test query points: a spiral around the
    /// Madison center crossing many drift and degraded cells, with a mix
    /// of repeated and fresh timestamps.
    fn query_walk(n: usize) -> Vec<(GeoPoint, SimTime)> {
        let c = madison_center();
        (0..n)
            .map(|i| {
                let p = c.destination(i as f64 * 0.83, 50.0 + (i as f64 * 137.0) % 11_000.0);
                let t = SimTime::at((i % 7) as i64, (i % 24) as f64)
                    + SimDuration::from_secs((i as i64 * 311) % 3600);
                (p, t)
            })
            .collect()
    }

    #[test]
    fn loss_rate_matches_link_quality_bitwise() {
        for net in NetworkId::ALL {
            let f = field(net);
            for (p, t) in query_walk(60) {
                assert_eq!(f.loss_rate(&p, t), f.link_quality(&p, t).loss_rate);
            }
        }
    }

    #[test]
    fn rtt_loss_matches_link_quality_bitwise() {
        let bits = |rtt: f64, loss: f64| [rtt.to_bits(), loss.to_bits()];
        let game = SimTime::at(5, 12.5);
        let quiet = SimTime::at(5, 9.0);
        for net in NetworkId::ALL {
            let f = field(net);
            // The stadium during and outside a game, then a spread of
            // healthy and degraded cells.
            let mut queries = vec![(stadium_location(), game), (stadium_location(), quiet)];
            queries.extend(query_walk(400));
            let mut degraded = 0;
            for (p, t) in queries {
                let q = f.link_quality(&p, t);
                let r = f.rtt_loss(&p, t);
                assert_eq!(bits(r.rtt_ms, r.loss_rate), bits(q.rtt_ms, q.loss_rate));
                degraded += usize::from(f.is_degraded(&p));
            }
            assert!(degraded > 5, "{net:?}: {degraded} degraded queries");
            // The event is live: its latency factor moved both metrics.
            let (during, before) = (
                f.rtt_loss(&stadium_location(), game),
                f.rtt_loss(&stadium_location(), quiet),
            );
            assert!(during.rtt_ms > 2.0 * before.rtt_ms && during.loss_rate > before.loss_rate);
        }
    }

    #[test]
    fn train_matches_individual_queries() {
        // Long same-point time sweeps exercise the hoisted drift-octave
        // and event-weight paths.
        let f = field(NetworkId::NetB);
        let mut trains: Vec<(GeoPoint, Vec<SimTime>)> = query_walk(12)
            .into_iter()
            .map(|(p, t0)| {
                let times = (0..40u64)
                    .map(|k| t0 + SimDuration::from_secs_f64(k as f64 * 37.5))
                    .collect();
                (p, times)
            })
            .collect();
        // The stadium during a game, so event factors are live.
        let game = (0..60i64)
            .map(|k| SimTime::at(5, 12.0) + SimDuration::from_secs(k * 60))
            .collect();
        trains.push((stadium_location(), game));
        trains.push((madison_center(), Vec::new()));
        for (p, times) in &trains {
            let train = f.link_quality_train(p, times);
            assert_eq!(train.len(), times.len());
            for (t, q) in times.iter().zip(&train) {
                assert_eq!(*q, f.link_quality(p, *t));
            }
        }
    }
}
