//! Packet-level measurement primitives.
//!
//! These functions generate the raw records a WiScape client would log
//! (paper Table 1: packet sequence number, receive timestamp, GPS
//! coordinates): UDP/TCP probe trains, full TCP downloads, and pings.
//! All randomness is keyed by `(stream, send-time, sequence number)`, so
//! probes are reproducible and independent of call order. That is what
//! lets a train draw a packet's one-way delay only when its jitter is
//! read: the draw on demand is the draw the packet loop would have made.

use serde::{Deserialize, Serialize};
use wiscape_geo::GeoPoint;
use wiscape_simcore::{SimDuration, SimTime, StreamRng};

use crate::field::{LinkQuality, NetworkField};

/// Transport used by a probe train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransportKind {
    /// TCP measurement packets.
    Tcp,
    /// UDP measurement packets.
    Udp,
}

/// One probe packet as logged by the client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketSample {
    /// Sequence number within the train.
    pub seq: u32,
    /// When the packet was sent.
    pub send_time: SimTime,
    /// Payload size in bytes.
    pub size_bytes: u32,
    /// Instantaneous throughput this packet observed, kbit/s
    /// (meaningless if lost).
    pub inst_kbps: f64,
    /// Whether the packet arrived.
    pub received: bool,
}

/// Result of a probe train (back-to-back measurement packets).
///
/// A packet's one-way delay is drawn only when [`UdpTrain::jitter_ms`]
/// reads it: its randomness is keyed by the train's stream node, its
/// send time and its sequence number, so a delay drawn on demand is the
/// delay the packet loop would have drawn.
#[derive(Debug, Clone)]
pub struct UdpTrain {
    /// Transport used.
    pub kind: TransportKind,
    /// Per-packet records.
    pub packets: Vec<PacketSample>,
    /// The train's stream node; packet `seq` sent at `t` draws from
    /// `node.fork_idx(t).fork_idx(seq)`.
    node: StreamRng,
    /// Mean round-trip time of the field at the train's start, ms.
    rtt_ms: f64,
    /// Standard deviation of a packet's one-way delay, ms.
    jitter_sigma: f64,
}

impl UdpTrain {
    /// Number of packets sent.
    pub fn sent(&self) -> usize {
        self.packets.len()
    }

    /// Number of packets received.
    pub fn received(&self) -> usize {
        self.packets.iter().filter(|p| p.received).count()
    }

    /// Observed loss rate in `[0, 1]`.
    pub fn loss_rate(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        1.0 - self.received() as f64 / self.sent() as f64
    }

    /// Throughput estimate: mean of per-packet instantaneous throughputs
    /// over received packets, kbit/s. `None` if nothing arrived.
    pub fn estimated_kbps(&self) -> Option<f64> {
        let (sum, n) = self
            .packets
            .iter()
            .filter(|p| p.received)
            .fold((0.0, 0usize), |(sum, n), p| (sum + p.inst_kbps, n + 1));
        (n > 0).then(|| sum / n as f64)
    }

    /// Per-packet instantaneous throughputs of received packets.
    pub fn received_kbps(&self) -> Vec<f64> {
        self.packets
            .iter()
            .filter(|p| p.received)
            .map(|p| p.inst_kbps)
            .collect()
    }

    /// IPDV jitter estimate: mean absolute difference of consecutive
    /// received packets' one-way delays, ms (RFC 3393 style). Draws each
    /// received packet's delay, in packet order.
    pub fn jitter_ms(&self) -> Option<f64> {
        let mut prev: Option<f64> = None;
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for d in self
            .packets
            .iter()
            .filter(|p| p.received)
            .map(|p| self.one_way_delay_ms(p))
        {
            if let Some(prev) = prev {
                sum += (d - prev).abs();
                pairs += 1;
            }
            prev = Some(d);
        }
        (pairs > 0).then(|| sum / pairs as f64)
    }

    /// One-way delay packet `p` of this train experienced, ms.
    fn one_way_delay_ms(&self, p: &PacketSample) -> f64 {
        let node = self
            .node
            .fork_idx(p.send_time.as_micros() as u64)
            .fork_idx(p.seq as u64);
        (self.rtt_ms / 2.0 + self.jitter_sigma * std_normal(node.fork("delay"))).max(0.1)
    }
}

/// Result of a full TCP object download.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TcpDownload {
    /// Object size, bytes.
    pub size_bytes: u64,
    /// Total transfer time (connection setup + slow start + transfer).
    pub duration: SimDuration,
    /// Application goodput, kbit/s.
    pub goodput_kbps: f64,
}

/// Outcome of a single ping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PingOutcome {
    /// Reply received with this round-trip time, ms.
    Reply {
        /// Round-trip time in milliseconds.
        rtt_ms: f64,
    },
    /// Timed out / lost.
    Lost,
}

impl PingOutcome {
    /// RTT if a reply arrived.
    pub fn rtt_ms(&self) -> Option<f64> {
        match self {
            PingOutcome::Reply { rtt_ms } => Some(*rtt_ms),
            PingOutcome::Lost => None,
        }
    }
}

/// Standard normal variate from a hash node (Box–Muller on two hash
/// uniforms) — cheap enough for per-packet use.
fn std_normal(node: StreamRng) -> f64 {
    let u1 = 1.0 - node.fork_idx(0).draw_unit_f64();
    let u2 = node.fork_idx(1).draw_unit_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal multiplier with arithmetic mean 1 and coefficient of
/// variation `cv`: its parameters are derived from `cv` once, and each
/// [`UnitMeanLogNormal::draw`] costs one normal variate.
#[derive(Debug, Clone, Copy)]
struct UnitMeanLogNormal {
    /// `(mu, sigma)` of the underlying normal; `None` when `cv <= 0`,
    /// where every draw is exactly 1.
    params: Option<(f64, f64)>,
}

impl UnitMeanLogNormal {
    fn new(cv: f64) -> Self {
        if cv <= 0.0 {
            return Self { params: None };
        }
        let sigma2 = (1.0 + cv * cv).ln();
        Self {
            params: Some((-sigma2 / 2.0, sigma2.sqrt())),
        }
    }

    /// One multiplier drawn from a hash node.
    fn draw(&self, node: StreamRng) -> f64 {
        match self.params {
            None => 1.0,
            Some((mu, sigma)) => (mu + sigma * std_normal(node)).exp(),
        }
    }
}

/// Uniform `[0,1)` draw from a hash node.
fn unit(node: StreamRng) -> f64 {
    node.draw_unit_f64()
}

/// Sends a train of `n_packets` back-to-back probe packets of
/// `size_bytes` each over `kind`, starting at `start` from point `p`.
///
/// Each packet observes an instantaneous throughput drawn log-normally
/// around the field mean with the network's per-packet `fine_cv`; its
/// arrival spacing follows from that rate, so the train's duration is
/// consistent with its measured throughput.
pub fn probe_train(
    field: &NetworkField,
    stream: &StreamRng,
    kind: TransportKind,
    p: &GeoPoint,
    start: SimTime,
    n_packets: u32,
    size_bytes: u32,
) -> UdpTrain {
    probe_train_with_device(field, stream, kind, p, start, n_packets, size_bytes, 1.0)
}

/// [`probe_train`] for a device whose radio front-end attenuates
/// deliverable throughput by `device_factor` (≤ 1). The paper (§3.3)
/// notes that phones, with their constrained antennas, cannot be
/// composed with laptop measurements without normalization — this hook
/// is what makes that heterogeneity exist in the simulation so the
/// normalizer (`wiscape-core::normalize`) has something to learn.
// lint:allow(S001): probe parameters mirror the wire-level probe train; a struct would obscure the 1:1 mapping.
#[allow(clippy::too_many_arguments)]
pub fn probe_train_with_device(
    field: &NetworkField,
    stream: &StreamRng,
    kind: TransportKind,
    p: &GeoPoint,
    start: SimTime,
    n_packets: u32,
    size_bytes: u32,
    device_factor: f64,
) -> UdpTrain {
    // A train lasts a few seconds at most — far below the drift and
    // diurnal time scales — so evaluate the field means once.
    let quality = field.link_quality(p, start);
    train_from_quality(
        field,
        stream,
        kind,
        start,
        n_packets,
        size_bytes,
        device_factor,
        &quality,
    )
}

/// Generates one probe train per entry of `starts`, all from point `p`,
/// evaluating the field means through
/// [`NetworkField::link_quality_train`]. Each returned train is bitwise
/// identical to [`probe_train`] called with the matching start time
/// (packet randomness is keyed by send times only, and the train's field
/// means are bitwise identical to per-time evaluation).
pub fn probe_trains(
    field: &NetworkField,
    stream: &StreamRng,
    kind: TransportKind,
    p: &GeoPoint,
    starts: &[SimTime],
    n_packets: u32,
    size_bytes: u32,
) -> Vec<UdpTrain> {
    starts
        .iter()
        .zip(field.link_quality_train(p, starts))
        .map(|(start, quality)| {
            train_from_quality(
                field, stream, kind, *start, n_packets, size_bytes, 1.0, &quality,
            )
        })
        .collect()
}

/// Generates the packet records of one train of `kind` starting at
/// `start` from field means already evaluated at the train's point and
/// start time — the shared tail of [`probe_train_with_device`] and
/// [`probe_trains`]. A caller that sends several trains from one point
/// and time (a round's TCP and UDP trains) evaluates the field once and
/// builds each train here.
///
/// Each packet draws its throughput and its loss; its one-way delay is
/// drawn only if [`UdpTrain::jitter_ms`] asks for it. The next packet
/// leaves when this one's wire time at its observed rate has passed.
// lint:allow(S001): probe parameters mirror the wire-level probe train; a struct would obscure the 1:1 mapping.
#[allow(clippy::too_many_arguments)]
pub fn train_from_quality(
    field: &NetworkField,
    stream: &StreamRng,
    kind: TransportKind,
    start: SimTime,
    n_packets: u32,
    size_bytes: u32,
    device_factor: f64,
    quality: &LinkQuality,
) -> UdpTrain {
    let params = field.params();
    let (cv, kind_label) = match kind {
        TransportKind::Tcp => (params.fine_cv_tcp, 1u64),
        TransportKind::Udp => (params.fine_cv_udp, 2u64),
    };
    // The same for every packet of the train: its stream node and the
    // throughput multiplier's parameters.
    let node = stream.fork("train").fork_idx(kind_label);
    let tput = UnitMeanLogNormal::new(cv);
    let mut packets = Vec::with_capacity(n_packets as usize);
    let mut send_time = start;
    let device_factor = device_factor.clamp(0.05, 1.0);
    let mean_kbps = device_factor
        * match kind {
            TransportKind::Tcp => quality.tcp_kbps,
            TransportKind::Udp => quality.udp_kbps,
        };
    let loss_rate = quality.loss_rate;
    for seq in 0..n_packets {
        let t = send_time;
        let packet = node.fork_idx(t.as_micros() as u64).fork_idx(seq as u64);
        let inst_kbps =
            (mean_kbps * tput.draw(packet.fork("tput"))).clamp(1.0, params.id.max_downlink_kbps());
        let lost = unit(packet.fork("loss")) < loss_rate;
        packets.push(PacketSample {
            seq,
            send_time: t,
            size_bytes,
            inst_kbps,
            received: !lost,
        });
        // Wire time of this packet at the observed instantaneous rate.
        let wire_ms = (size_bytes as f64 * 8.0) / inst_kbps; // kbit / kbps = ms
        send_time = t + SimDuration::from_secs_f64(wire_ms / 1000.0);
    }
    UdpTrain {
        kind,
        packets,
        node,
        rtt_ms: quality.rtt_ms,
        // Jitter sigma giving the target mean IPDV: E|ΔN(0,σ)| = 2σ/√π.
        jitter_sigma: quality.jitter_ms * std::f64::consts::PI.sqrt() / 2.0,
    }
}

/// Downloads a `size_bytes` object over TCP starting at `start`.
///
/// The transfer model is: connection setup (1.5 RTT) + slow-start ramp
/// (≈2 RTT equivalent) + bulk transfer at an effective rate drawn around
/// the field's TCP mean. Per-download dispersion shrinks with object
/// size (`cv / sqrt(packets)`), matching how a 1 MB download averages
/// ~700 packets' worth of channel noise — this is why the Standalone
/// dataset's per-download samples are far tighter than per-packet ones.
pub fn tcp_download(
    field: &NetworkField,
    stream: &StreamRng,
    p: &GeoPoint,
    start: SimTime,
    size_bytes: u64,
) -> TcpDownload {
    let params = field.params();
    let quality = field.link_quality(p, start);
    let mean_kbps = quality.tcp_kbps;
    let rtt_ms = quality.rtt_ms;
    let mss = 1200.0;
    let n_pkts = (size_bytes as f64 / mss).max(1.0);
    // Residual per-download dispersion: channel noise averaged over the
    // packets, floored by session-level effects (~1.5%).
    let cv = (params.fine_cv_tcp / n_pkts.sqrt()).max(0.015);
    let node = stream
        .fork("dl")
        .fork_idx(start.as_micros() as u64)
        .fork_idx(size_bytes);
    let rate_kbps = (mean_kbps * UnitMeanLogNormal::new(cv).draw(node))
        .clamp(1.0, params.id.max_downlink_kbps());
    let setup_ms = 1.5 * rtt_ms;
    let slow_start_ms = 2.0 * rtt_ms;
    let transfer_ms = size_bytes as f64 * 8.0 / rate_kbps;
    let total_ms = setup_ms + slow_start_ms + transfer_ms;
    TcpDownload {
        size_bytes,
        duration: SimDuration::from_secs_f64(total_ms / 1000.0),
        goodput_kbps: size_bytes as f64 * 8.0 / total_ms,
    }
}

/// Sends one ping at time `t` with sequence `seq`. A ping reads only the
/// field's RTT and loss ([`NetworkField::rtt_loss`]).
pub fn ping(
    field: &NetworkField,
    stream: &StreamRng,
    p: &GeoPoint,
    t: SimTime,
    seq: u64,
) -> PingOutcome {
    let node = stream
        .fork("ping")
        .fork_idx(t.as_micros() as u64)
        .fork_idx(seq);
    let quality = field.rtt_loss(p, t);
    if unit(node.fork("loss")) < quality.loss_rate {
        return PingOutcome::Lost;
    }
    let rtt = UnitMeanLogNormal::new(field.params().fine_cv_rtt);
    PingOutcome::Reply {
        rtt_ms: (quality.rtt_ms * rtt.draw(node.fork("rtt"))).max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{madison_center, stadium_location, LandscapeConfig};
    use crate::network::NetworkId;

    fn setup() -> (NetworkField, StreamRng) {
        let cfg = LandscapeConfig::madison(7);
        (
            NetworkField::new(&cfg, NetworkId::NetB).unwrap(),
            StreamRng::new(7).fork("probe"),
        )
    }

    fn healthy_point(field: &NetworkField) -> GeoPoint {
        let c = madison_center();
        for i in 0..200 {
            let p = c.destination(i as f64 * 0.37, 120.0 + i as f64 * 61.0);
            if !field.is_degraded(&p) {
                return p;
            }
        }
        c
    }

    #[test]
    fn train_is_deterministic() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let t = SimTime::at(2, 10.0);
        let a = probe_train(&f, &s, TransportKind::Udp, &p, t, 50, 1200);
        let b = probe_train(&f, &s, TransportKind::Udp, &p, t, 50, 1200);
        assert_eq!(a.packets, b.packets);
    }

    #[test]
    fn train_estimate_converges_to_field_mean() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let t = SimTime::at(2, 10.0);
        let truth = f.link_quality(&p, t).udp_kbps;
        let train = probe_train(&f, &s, TransportKind::Udp, &p, t, 400, 1200);
        let est = train.estimated_kbps().unwrap();
        assert!(
            (est - truth).abs() / truth < 0.05,
            "est {est} vs truth {truth}"
        );
    }

    #[test]
    fn more_packets_estimate_better_on_average() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let mut err_small = 0.0;
        let mut err_large = 0.0;
        for k in 0..40 {
            let t = SimTime::at(2, 8.0) + SimDuration::from_mins(k * 7);
            let truth = f.link_quality(&p, t).udp_kbps;
            let small = probe_train(
                &f,
                &s.fork_idx(k as u64),
                TransportKind::Udp,
                &p,
                t,
                5,
                1200,
            );
            let large = probe_train(
                &f,
                &s.fork_idx(k as u64),
                TransportKind::Udp,
                &p,
                t,
                150,
                1200,
            );
            err_small += ((small.estimated_kbps().unwrap() - truth) / truth).abs();
            err_large += ((large.estimated_kbps().unwrap() - truth) / truth).abs();
        }
        assert!(
            err_large < 0.5 * err_small,
            "150-pkt error {err_large} vs 5-pkt {err_small}"
        );
    }

    #[test]
    fn jitter_estimate_matches_field_mean() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let t = SimTime::at(2, 10.0);
        let train = probe_train(&f, &s, TransportKind::Udp, &p, t, 600, 1200);
        let est = train.jitter_ms().unwrap();
        let truth = f.link_quality(&p, t).jitter_ms;
        assert!(
            (est - truth).abs() / truth < 0.15,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn loss_is_rare_on_healthy_paths() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let train = probe_train(
            &f,
            &s,
            TransportKind::Udp,
            &p,
            SimTime::at(1, 9.0),
            1000,
            1200,
        );
        assert!(train.loss_rate() < 0.01, "loss {}", train.loss_rate());
    }

    #[test]
    fn tcp_train_uses_tcp_mean() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let t = SimTime::at(2, 10.0);
        let train = probe_train(&f, &s, TransportKind::Tcp, &p, t, 300, 1200);
        let est = train.estimated_kbps().unwrap();
        let truth = f.link_quality(&p, t).tcp_kbps;
        assert!(
            (est - truth).abs() / truth < 0.06,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn download_duration_consistent_with_goodput() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let dl = tcp_download(&f, &s, &p, SimTime::at(3, 14.0), 1_000_000);
        let implied = dl.size_bytes as f64 * 8.0 / dl.duration.as_millis_f64();
        assert!((implied - dl.goodput_kbps).abs() < 1.0);
        // 1 MB at ~845 kbps is ~10 s.
        let secs = dl.duration.as_secs_f64();
        assert!((5.0..25.0).contains(&secs), "duration {secs}");
    }

    #[test]
    fn small_downloads_pay_proportionally_more_latency() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let t = SimTime::at(3, 14.0);
        let small = tcp_download(&f, &s, &p, t, 3_000);
        let big = tcp_download(&f, &s, &p, t, 1_000_000);
        assert!(small.goodput_kbps < 0.5 * big.goodput_kbps);
    }

    #[test]
    fn ping_reflects_field_rtt() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let t = SimTime::at(2, 10.0);
        let mut sum = 0.0;
        let mut n = 0;
        for seq in 0..500 {
            if let PingOutcome::Reply { rtt_ms } = ping(&f, &s, &p, t, seq) {
                sum += rtt_ms;
                n += 1;
            }
        }
        let mean = sum / n as f64;
        let truth = f.link_quality(&p, t).rtt_ms;
        assert!(
            (mean - truth).abs() / truth < 0.05,
            "mean {mean} truth {truth}"
        );
        assert!(n > 490);
    }

    #[test]
    fn pings_fail_often_in_degraded_cells() {
        let cfg = LandscapeConfig::madison(7);
        let f = NetworkField::new(&cfg, NetworkId::NetB).unwrap();
        let s = StreamRng::new(7).fork("probe");
        let c = madison_center();
        // Find a degraded point.
        let p = (0..5000)
            .map(|i| c.destination(i as f64 * 0.11, 100.0 + i as f64 * 41.0))
            .find(|p| f.is_degraded(p))
            .expect("some degraded cell exists");
        let lost = (0..500)
            .filter(|&seq| {
                matches!(
                    ping(&f, &s, &p, SimTime::at(1, 9.0), seq),
                    PingOutcome::Lost
                )
            })
            .count();
        assert!(lost > 10, "expected frequent failures, got {lost}/500");
    }

    #[test]
    fn batched_trains_match_scalar_trains_bitwise() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let starts: Vec<SimTime> = (0..25)
            .map(|k| SimTime::at(2, 9.0) + SimDuration::from_mins(k * 11))
            .collect();
        let batched = probe_trains(&f, &s, TransportKind::Udp, &p, &starts, 8, 1200);
        assert_eq!(batched.len(), starts.len());
        for (start, train) in starts.iter().zip(&batched) {
            let scalar = probe_train(&f, &s, TransportKind::Udp, &p, *start, 8, 1200);
            assert_eq!(train.packets, scalar.packets);
        }
    }

    /// The per-call log-normal [`UnitMeanLogNormal`] replaced.
    fn reference_lognormal(node: StreamRng, cv: f64) -> f64 {
        if cv <= 0.0 {
            return 1.0;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = -sigma2 / 2.0;
        (mu + sigma2.sqrt() * std_normal(node)).exp()
    }

    /// A packet of the eager train: the record the packet loop kept
    /// before delays were drawn on demand.
    #[derive(Debug, Clone, Copy)]
    struct EagerPacket {
        seq: u32,
        send_time: SimTime,
        recv_time: Option<SimTime>,
        size_bytes: u32,
        inst_kbps: f64,
        one_way_delay_ms: f64,
    }

    /// The train [`train_from_quality`] replaced, with its accessors:
    /// every packet draws its one-way delay and its receive time in the
    /// loop, whether or not anything reads them.
    struct EagerTrain {
        packets: Vec<EagerPacket>,
    }

    impl EagerTrain {
        fn received(&self) -> usize {
            self.packets
                .iter()
                .filter(|p| p.recv_time.is_some())
                .count()
        }

        fn loss_rate(&self) -> f64 {
            if self.packets.is_empty() {
                return 0.0;
            }
            1.0 - self.received() as f64 / self.packets.len() as f64
        }

        fn estimated_kbps(&self) -> Option<f64> {
            let (sum, n) = self
                .packets
                .iter()
                .filter(|p| p.recv_time.is_some())
                .fold((0.0, 0usize), |(sum, n), p| (sum + p.inst_kbps, n + 1));
            (n > 0).then(|| sum / n as f64)
        }

        fn received_kbps(&self) -> Vec<f64> {
            self.packets
                .iter()
                .filter(|p| p.recv_time.is_some())
                .map(|p| p.inst_kbps)
                .collect()
        }

        fn jitter_ms(&self) -> Option<f64> {
            let mut prev: Option<f64> = None;
            let mut sum = 0.0;
            let mut pairs = 0usize;
            for d in self
                .packets
                .iter()
                .filter(|p| p.recv_time.is_some())
                .map(|p| p.one_way_delay_ms)
            {
                if let Some(prev) = prev {
                    sum += (d - prev).abs();
                    pairs += 1;
                }
                prev = Some(d);
            }
            (pairs > 0).then(|| sum / pairs as f64)
        }
    }

    /// The eager [`probe_train_with_device`], for 1,200-byte packets.
    fn reference_train(
        field: &NetworkField,
        stream: &StreamRng,
        kind: TransportKind,
        p: &GeoPoint,
        start: SimTime,
        n_packets: u32,
        device_factor: f64,
    ) -> EagerTrain {
        let size_bytes = 1200;
        let quality = field.link_quality(p, start);
        let params = field.params();
        let (cv, kind_label) = match kind {
            TransportKind::Tcp => (params.fine_cv_tcp, 1u64),
            TransportKind::Udp => (params.fine_cv_udp, 2u64),
        };
        let train = stream.fork("train").fork_idx(kind_label);
        let tput = UnitMeanLogNormal::new(cv);
        let mut packets = Vec::with_capacity(n_packets as usize);
        let mut send_time = start;
        let device_factor = device_factor.clamp(0.05, 1.0);
        let mean_kbps = device_factor
            * match kind {
                TransportKind::Tcp => quality.tcp_kbps,
                TransportKind::Udp => quality.udp_kbps,
            };
        let loss_rate = quality.loss_rate;
        let rtt = quality.rtt_ms;
        let jitter_sigma = quality.jitter_ms * std::f64::consts::PI.sqrt() / 2.0;
        for seq in 0..n_packets {
            let t = send_time;
            let node = train.fork_idx(t.as_micros() as u64).fork_idx(seq as u64);
            let inst_kbps = (mean_kbps * tput.draw(node.fork("tput")))
                .clamp(1.0, params.id.max_downlink_kbps());
            let lost = unit(node.fork("loss")) < loss_rate;
            let one_way_delay_ms =
                (rtt / 2.0 + jitter_sigma * std_normal(node.fork("delay"))).max(0.1);
            let wire_ms = (size_bytes as f64 * 8.0) / inst_kbps;
            let recv_time = (!lost).then(|| {
                t + SimDuration::from_secs_f64(wire_ms / 1000.0)
                    + SimDuration::from_secs_f64(one_way_delay_ms / 1000.0)
            });
            packets.push(EagerPacket {
                seq,
                send_time: t,
                recv_time,
                size_bytes,
                inst_kbps,
                one_way_delay_ms,
            });
            send_time = t + SimDuration::from_secs_f64(wire_ms / 1000.0);
        }
        EagerTrain { packets }
    }

    /// The ping [`ping`] replaced: all five field metrics for its two.
    fn reference_ping(
        field: &NetworkField,
        stream: &StreamRng,
        p: &GeoPoint,
        t: SimTime,
        seq: u64,
    ) -> PingOutcome {
        let node = stream
            .fork("ping")
            .fork_idx(t.as_micros() as u64)
            .fork_idx(seq);
        let quality = field.link_quality(p, t);
        if unit(node.fork("loss")) < quality.loss_rate {
            return PingOutcome::Lost;
        }
        let cv = field.params().fine_cv_rtt;
        PingOutcome::Reply {
            rtt_ms: (quality.rtt_ms * reference_lognormal(node.fork("rtt"), cv)).max(1.0),
        }
    }

    type PacketBits = (u32, SimTime, bool, u32, u64);

    fn packet_bits(train: &UdpTrain) -> Vec<PacketBits> {
        train
            .packets
            .iter()
            .map(|p| {
                let kbps = p.inst_kbps.to_bits();
                (p.seq, p.send_time, p.received, p.size_bytes, kbps)
            })
            .collect()
    }

    fn eager_packet_bits(train: &EagerTrain) -> Vec<PacketBits> {
        train
            .packets
            .iter()
            .map(|p| {
                let (received, kbps) = (p.recv_time.is_some(), p.inst_kbps.to_bits());
                (p.seq, p.send_time, received, p.size_bytes, kbps)
            })
            .collect()
    }

    fn opt_bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    fn vec_bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    fn ping_bits(outcome: PingOutcome) -> Option<u64> {
        outcome.rtt_ms().map(f64::to_bits)
    }

    /// The shipped Madison field, and the same field with every
    /// per-packet coefficient of variation at 0 (the log-normal's
    /// constant branch).
    fn fields() -> [NetworkField; 2] {
        let cfg = LandscapeConfig::madison(7);
        let mut flat = cfg.clone();
        for n in &mut flat.networks {
            (n.fine_cv_udp, n.fine_cv_tcp, n.fine_cv_rtt) = (0.0, 0.0, 0.0);
        }
        [cfg, flat].map(|c| NetworkField::new(&c, NetworkId::NetB).unwrap())
    }

    /// Healthy and degraded points, and the stadium.
    fn probe_points(field: &NetworkField) -> Vec<GeoPoint> {
        let c = madison_center();
        let degraded = (0..5000)
            .map(|i| c.destination(i as f64 * 0.11, 100.0 + i as f64 * 41.0))
            .find(|p| field.is_degraded(p))
            .expect("some degraded cell exists");
        vec![healthy_point(field), degraded, stadium_location()]
    }

    #[test]
    fn trains_match_reference_loop_bitwise() {
        let s = StreamRng::new(7).fork("probe");
        let (mut lossy, mut lossy_jitter) = (0, 0);
        for f in fields() {
            for p in probe_points(&f) {
                for start in [SimTime::at(1, 9.0), SimTime::at(5, 12.5)] {
                    for kind in [TransportKind::Udp, TransportKind::Tcp] {
                        for n in [0, 1, 2, 60] {
                            for device in [0.0, 0.01, 0.05, 0.7, 1.0, 1.5] {
                                let got = probe_train_with_device(
                                    &f, &s, kind, &p, start, n, 1200, device,
                                );
                                let want = reference_train(&f, &s, kind, &p, start, n, device);
                                assert_eq!(packet_bits(&got), eager_packet_bits(&want));
                                assert_eq!(got.loss_rate().to_bits(), want.loss_rate().to_bits());
                                assert_eq!(
                                    opt_bits(got.estimated_kbps()),
                                    opt_bits(want.estimated_kbps())
                                );
                                assert_eq!(
                                    vec_bits(got.received_kbps()),
                                    vec_bits(want.received_kbps())
                                );
                                assert_eq!(opt_bits(got.jitter_ms()), opt_bits(want.jitter_ms()));
                                let lost = got.received() < got.sent();
                                lossy += usize::from(lost);
                                lossy_jitter += usize::from(lost && got.jitter_ms().is_some());
                            }
                        }
                    }
                }
            }
        }
        assert!(lossy > 0, "no train lost a packet");
        assert!(lossy_jitter > 0, "no lossy train had a jitter estimate");
    }

    #[test]
    fn pings_match_reference_bitwise() {
        let s = StreamRng::new(7).fork("probe");
        let (mut lost, mut replies) = (0, 0);
        for f in fields() {
            for p in probe_points(&f) {
                for t in [
                    SimTime::at(1, 9.0),
                    SimTime::at(5, 9.0),
                    SimTime::at(5, 12.5),
                ] {
                    for seq in 0..200 {
                        let got = ping(&f, &s, &p, t, seq);
                        assert_eq!(
                            ping_bits(got),
                            ping_bits(reference_ping(&f, &s, &p, t, seq))
                        );
                        if got == PingOutcome::Lost {
                            lost += 1;
                        } else {
                            replies += 1;
                        }
                    }
                }
            }
        }
        assert!(
            lost > 10 && replies > 1000,
            "{lost} lost, {replies} replies"
        );
    }

    #[test]
    fn lognormal_matches_reference_bitwise() {
        let s = StreamRng::new(3).fork("lognormal");
        for cv in [-1.0, 0.0, 1e-300, 1e-8, 0.05, 0.3, 1.0, 7.5, f64::NAN] {
            let dist = UnitMeanLogNormal::new(cv);
            for k in 0..200 {
                let node = s.fork_idx(k);
                assert_eq!(
                    dist.draw(node).to_bits(),
                    reference_lognormal(node, cv).to_bits(),
                    "cv {cv}"
                );
            }
        }
    }

    #[test]
    fn empty_train_edge_cases() {
        let (f, s) = setup();
        let p = healthy_point(&f);
        let train = probe_train(&f, &s, TransportKind::Udp, &p, SimTime::EPOCH, 0, 1200);
        assert_eq!(train.sent(), 0);
        assert_eq!(train.estimated_kbps(), None);
        assert_eq!(train.jitter_ms(), None);
        assert_eq!(train.loss_rate(), 0.0);
    }
}
