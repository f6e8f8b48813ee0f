//! The landscape facade: one object answering every ground-truth and
//! probe query for a region.

use wiscape_geo::GeoPoint;
use wiscape_simcore::{SimDuration, SimTime, StreamRng};

use crate::config::LandscapeConfig;
use crate::field::{LinkQuality, NetworkField};
use crate::network::NetworkId;
use crate::probe::{self, PingOutcome, TcpDownload, TransportKind, UdpTrain};

/// A simulated wide-area cellular landscape.
///
/// Construct one from a [`LandscapeConfig`] preset, then query ground
/// truth (`link_quality`) or run client-style probes (`probe_train`,
/// `tcp_download`, `ping`). All methods are `&self`; the landscape is
/// immutable and cheap to share.
///
/// ```
/// use wiscape_simnet::{Landscape, LandscapeConfig, NetworkId};
/// use wiscape_simcore::SimTime;
/// let land = Landscape::new(LandscapeConfig::madison(42));
/// let p = land.origin();
/// let q = land.link_quality(NetworkId::NetB, &p, SimTime::at(1, 12.0)).unwrap();
/// assert!(q.udp_kbps > 100.0 && q.rtt_ms > 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct Landscape {
    config: LandscapeConfig,
    fields: Vec<NetworkField>,
    probe_stream: StreamRng,
}

/// Error returned when querying a network absent from the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownNetwork(pub NetworkId);

impl core::fmt::Display for UnknownNetwork {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "network {} is not present in this region", self.0)
    }
}

impl std::error::Error for UnknownNetwork {}

impl Landscape {
    /// Builds the landscape for a configuration.
    pub fn new(config: LandscapeConfig) -> Self {
        let fields = config
            .network_ids()
            .into_iter()
            .filter_map(|id| NetworkField::new(&config, id))
            .collect();
        let probe_stream = StreamRng::new(config.seed).fork("probe");
        Self {
            config,
            fields,
            probe_stream,
        }
    }

    /// The configuration this landscape was built from.
    pub fn config(&self) -> &LandscapeConfig {
        &self.config
    }

    /// The region origin (city center).
    pub fn origin(&self) -> GeoPoint {
        self.config.origin
    }

    /// Networks available in this region.
    pub fn networks(&self) -> Vec<NetworkId> {
        self.fields.iter().map(|f| f.params().id).collect()
    }

    /// The ground-truth field of one network.
    pub fn field(&self, net: NetworkId) -> Result<&NetworkField, UnknownNetwork> {
        self.fields
            .iter()
            .find(|f| f.params().id == net)
            .ok_or(UnknownNetwork(net))
    }

    /// Mean link quality of `net` at `(p, t)`.
    pub fn link_quality(
        &self,
        net: NetworkId,
        p: &GeoPoint,
        t: SimTime,
    ) -> Result<LinkQuality, UnknownNetwork> {
        Ok(self.field(net)?.link_quality(p, t))
    }

    /// Whether `p` lies in a chronically degraded zone.
    pub fn is_degraded(&self, p: &GeoPoint) -> bool {
        self.fields
            .first()
            .map(|f| f.is_degraded(p))
            .unwrap_or(false)
    }

    /// Ground-truth drift coherence time at `p` (what the Allan search
    /// should recover).
    pub fn coherence_time(&self, p: &GeoPoint) -> Option<SimDuration> {
        self.fields.first().map(|f| f.coherence_time(p))
    }

    /// Runs a back-to-back probe train from a device whose radio
    /// attenuates throughput by `device_factor` (phones ≈ 0.7–0.85;
    /// laptops/SBCs 1.0). See [`probe::probe_train_with_device`].
    // lint:allow(S001): probe parameters mirror the wire-level probe train; a struct would obscure the 1:1 mapping.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_train_for_device(
        &self,
        net: NetworkId,
        kind: TransportKind,
        p: &GeoPoint,
        start: SimTime,
        n_packets: u32,
        size_bytes: u32,
        device_factor: f64,
    ) -> Result<UdpTrain, UnknownNetwork> {
        Ok(probe::probe_train_with_device(
            self.field(net)?,
            &self.probe_stream.fork_idx(net.index()),
            kind,
            p,
            start,
            n_packets,
            size_bytes,
            device_factor,
        ))
    }

    /// Runs one probe train per entry of `starts`, all from point `p`,
    /// evaluating the field means as one train (see
    /// [`probe::probe_trains`]). Each train is bitwise identical to the
    /// corresponding [`Landscape::probe_train`] call.
    pub fn probe_trains(
        &self,
        net: NetworkId,
        kind: TransportKind,
        p: &GeoPoint,
        starts: &[SimTime],
        n_packets: u32,
        size_bytes: u32,
    ) -> Result<Vec<UdpTrain>, UnknownNetwork> {
        Ok(probe::probe_trains(
            self.field(net)?,
            &self.probe_stream.fork_idx(net.index()),
            kind,
            p,
            starts,
            n_packets,
            size_bytes,
        ))
    }

    /// Builds a probe train from field means the caller already
    /// evaluated at the train's point and start time (see
    /// [`probe::train_from_quality`]): bitwise the train
    /// [`Landscape::probe_train`] sends from that point at `start`, when
    /// `quality` is [`Landscape::link_quality`] there. A round's TCP and
    /// UDP trains share one evaluation this way.
    pub fn train_from_quality(
        &self,
        net: NetworkId,
        kind: TransportKind,
        start: SimTime,
        n_packets: u32,
        size_bytes: u32,
        quality: &LinkQuality,
    ) -> Result<UdpTrain, UnknownNetwork> {
        Ok(probe::train_from_quality(
            self.field(net)?,
            &self.probe_stream.fork_idx(net.index()),
            kind,
            start,
            n_packets,
            size_bytes,
            1.0,
            quality,
        ))
    }

    /// Runs a back-to-back probe train (see [`probe::probe_train`]).
    pub fn probe_train(
        &self,
        net: NetworkId,
        kind: TransportKind,
        p: &GeoPoint,
        start: SimTime,
        n_packets: u32,
        size_bytes: u32,
    ) -> Result<UdpTrain, UnknownNetwork> {
        Ok(probe::probe_train(
            self.field(net)?,
            &self.probe_stream.fork_idx(net.index()),
            kind,
            p,
            start,
            n_packets,
            size_bytes,
        ))
    }

    /// Downloads an object over TCP (see [`probe::tcp_download`]).
    pub fn tcp_download(
        &self,
        net: NetworkId,
        p: &GeoPoint,
        start: SimTime,
        size_bytes: u64,
    ) -> Result<TcpDownload, UnknownNetwork> {
        Ok(probe::tcp_download(
            self.field(net)?,
            &self.probe_stream.fork_idx(net.index()),
            p,
            start,
            size_bytes,
        ))
    }

    /// Sends one ping (see [`probe::ping`]).
    pub fn ping(
        &self,
        net: NetworkId,
        p: &GeoPoint,
        t: SimTime,
        seq: u64,
    ) -> Result<PingOutcome, UnknownNetwork> {
        Ok(probe::ping(
            self.field(net)?,
            &self.probe_stream.fork_idx(net.index()),
            p,
            t,
            seq,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_network_errors() {
        let land = Landscape::new(LandscapeConfig::new_brunswick(3));
        let p = land.origin();
        let err = land.link_quality(NetworkId::NetA, &p, SimTime::EPOCH);
        assert_eq!(err, Err(UnknownNetwork(NetworkId::NetA)));
        assert!(land.ping(NetworkId::NetA, &p, SimTime::EPOCH, 0).is_err());
    }

    #[test]
    fn networks_match_config() {
        let wi = Landscape::new(LandscapeConfig::madison(3));
        assert_eq!(wi.networks().len(), 3);
        let nj = Landscape::new(LandscapeConfig::new_brunswick(3));
        assert_eq!(nj.networks(), vec![NetworkId::NetB, NetworkId::NetC]);
    }

    #[test]
    fn landscape_is_reproducible() {
        let a = Landscape::new(LandscapeConfig::madison(5));
        let b = Landscape::new(LandscapeConfig::madison(5));
        let p = a.origin().destination(1.0, 3000.0);
        let t = SimTime::at(2, 15.0);
        assert_eq!(
            a.link_quality(NetworkId::NetC, &p, t).unwrap(),
            b.link_quality(NetworkId::NetC, &p, t).unwrap()
        );
        let ta = a
            .probe_train(NetworkId::NetB, TransportKind::Udp, &p, t, 30, 1200)
            .unwrap();
        let tb = b
            .probe_train(NetworkId::NetB, TransportKind::Udp, &p, t, 30, 1200)
            .unwrap();
        assert_eq!(ta.packets, tb.packets);
    }

    #[test]
    fn batched_probe_trains_match_scalar_calls() {
        let land = Landscape::new(LandscapeConfig::madison(5));
        let p = land.origin().destination(0.8, 2100.0);
        let starts: Vec<SimTime> = (0..10)
            .map(|k| SimTime::at(2, 9.0) + SimDuration::from_mins(k * 13))
            .collect();
        let batched = land
            .probe_trains(NetworkId::NetB, TransportKind::Udp, &p, &starts, 6, 1200)
            .unwrap();
        for (start, train) in starts.iter().zip(&batched) {
            let scalar = land
                .probe_train(NetworkId::NetB, TransportKind::Udp, &p, *start, 6, 1200)
                .unwrap();
            assert_eq!(train.packets, scalar.packets);
        }
    }

    #[test]
    fn trains_from_one_evaluation_match_probe_trains() {
        let land = Landscape::new(LandscapeConfig::madison(5));
        let p = land.origin().destination(2.1, 1700.0);
        for net in land.networks() {
            for t in [SimTime::at(1, 7.5), SimTime::at(4, 18.25)] {
                let quality = land.link_quality(net, &p, t).unwrap();
                for kind in [TransportKind::Tcp, TransportKind::Udp] {
                    let shared = land
                        .train_from_quality(net, kind, t, 20, 1200, &quality)
                        .unwrap();
                    let direct = land.probe_train(net, kind, &p, t, 20, 1200).unwrap();
                    assert_eq!(shared.packets, direct.packets);
                    let jitter = |train: &UdpTrain| train.jitter_ms().map(f64::to_bits);
                    assert_eq!(jitter(&shared), jitter(&direct));
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Landscape::new(LandscapeConfig::madison(5));
        let b = Landscape::new(LandscapeConfig::madison(6));
        let p = a.origin().destination(1.0, 3000.0);
        let t = SimTime::at(2, 15.0);
        assert_ne!(
            a.link_quality(NetworkId::NetB, &p, t).unwrap().udp_kbps,
            b.link_quality(NetworkId::NetB, &p, t).unwrap().udp_kbps
        );
    }

    #[test]
    fn networks_differ_at_same_point() {
        let land = Landscape::new(LandscapeConfig::madison(5));
        let p = land.origin().destination(0.5, 2500.0);
        let t = SimTime::at(1, 10.0);
        let qa = land.link_quality(NetworkId::NetA, &p, t).unwrap();
        let qb = land.link_quality(NetworkId::NetB, &p, t).unwrap();
        assert_ne!(qa.udp_kbps, qb.udp_kbps);
        assert_ne!(qa.rtt_ms, qb.rtt_ms);
    }

    #[test]
    fn coherence_time_reported() {
        let land = Landscape::new(LandscapeConfig::madison(5));
        let tau = land.coherence_time(&land.origin()).unwrap();
        let mins = tau.as_mins_f64();
        assert!((45.0..=110.0).contains(&mins), "tau {mins} min");
    }
}
