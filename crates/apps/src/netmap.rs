//! The application-facing view of WiScape's knowledge: a per-zone,
//! per-network quality map.
//!
//! Applications do not talk to the coordinator directly; they read its
//! published estimates (or any equivalently shaped source, e.g. an
//! aggregated client-sourced dataset) through this map.

use std::collections::BTreeMap;

use wiscape_core::{ZoneEstimate, ZoneId, ZoneIndex};
use wiscape_geo::GeoPoint;
use wiscape_simnet::NetworkId;
use wiscape_stats::MeanSketch;

/// Per-zone per-network mean quality: TCP throughput (kbit/s), plus an
/// optional RTT layer (ms) enabling latency-aware fetch predictions.
#[derive(Debug, Clone)]
pub struct ZoneQualityMap {
    index: ZoneIndex,
    map: BTreeMap<(ZoneId, NetworkId), f64>,
    rtt: BTreeMap<(ZoneId, NetworkId), f64>,
}

/// Handshake + request round trips a fetch pays before data flows
/// (matches the probe engine's TCP model).
const FETCH_RTTS: f64 = 3.5;

/// RTT assumed when a zone has no latency estimate, ms.
const DEFAULT_RTT_MS: f64 = 130.0;

impl ZoneQualityMap {
    /// Creates an empty map over `index`.
    pub fn new(index: ZoneIndex) -> Self {
        Self {
            index,
            map: BTreeMap::new(),
            rtt: BTreeMap::new(),
        }
    }

    /// Builds the map from published [`ZoneEstimate`]s keyed by
    /// `(zone, network)`, wherever they came from — a local coordinator,
    /// or estimates that crossed the control channel (`wiscape-channel`)
    /// from a remote one.
    pub fn from_estimates(
        index: ZoneIndex,
        estimates: &[((ZoneId, NetworkId), ZoneEstimate)],
    ) -> Self {
        let mut m = Self::new(index);
        for &(key, e) in estimates {
            m.map.insert(key, e.mean);
        }
        m
    }

    /// Builds the map from raw `(point, network, value)` observations by
    /// averaging per zone (the "client-sourced map" used in §4.2 where
    /// the short-segment dataset itself supplies the estimates). One
    /// constant-size [`MeanSketch`] per populated cell; no raw retention.
    pub fn from_observations<'a>(
        index: ZoneIndex,
        obs: impl IntoIterator<Item = &'a (GeoPoint, NetworkId, f64)>,
    ) -> Self {
        let mut sums: BTreeMap<(ZoneId, NetworkId), MeanSketch> = BTreeMap::new();
        for (p, net, v) in obs {
            let z = index.zone_of(p);
            sums.entry((z, *net)).or_default().push(*v);
        }
        Self {
            index,
            map: sums.into_iter().map(|(k, s)| (k, s.mean())).collect(),
            rtt: BTreeMap::new(),
        }
    }

    /// Adds per-zone RTT estimates (ms) from raw observations, enabling
    /// latency-aware predictions.
    pub fn with_rtt_observations<'a>(
        mut self,
        obs: impl IntoIterator<Item = &'a (GeoPoint, NetworkId, f64)>,
    ) -> Self {
        let mut sums: BTreeMap<(ZoneId, NetworkId), MeanSketch> = BTreeMap::new();
        for (p, net, v) in obs {
            let z = self.index.zone_of(p);
            sums.entry((z, *net)).or_default().push(*v);
        }
        self.rtt = sums.into_iter().map(|(k, s)| (k, s.mean())).collect();
        self
    }

    /// RTT estimate (ms) for a network at a point's zone, if known.
    pub fn estimate_rtt_ms(&self, p: &GeoPoint, net: NetworkId) -> Option<f64> {
        self.rtt.get(&(self.index.zone_of(p), net)).copied()
    }

    /// Predicted wall-clock seconds to fetch `bytes` over `net` at `p`:
    /// connection round trips plus transfer at the zone's estimated
    /// rate. `None` when the zone has no throughput estimate for `net`.
    pub fn predicted_fetch_secs(&self, p: &GeoPoint, net: NetworkId, bytes: u64) -> Option<f64> {
        let tput = self.estimate(p, net)?.max(1.0);
        let rtt_ms = self
            .estimate_rtt_ms(p, net)
            .or_else(|| self.network_mean_rtt(net))
            .unwrap_or(DEFAULT_RTT_MS);
        Some(FETCH_RTTS * rtt_ms / 1000.0 + bytes as f64 * 8.0 / 1000.0 / tput)
    }

    /// The network predicted to fetch `bytes` fastest at `p` among
    /// `candidates` (latency-aware); `None` when no estimates exist.
    pub fn fastest_network(
        &self,
        p: &GeoPoint,
        candidates: &[NetworkId],
        bytes: u64,
    ) -> Option<NetworkId> {
        candidates
            .iter()
            .filter_map(|&n| self.predicted_fetch_secs(p, n, bytes).map(|s| (n, s)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("predictions are finite"))
            .map(|(n, _)| n)
    }

    /// Mean RTT of a network across all its zones, ms.
    pub fn network_mean_rtt(&self, net: NetworkId) -> Option<f64> {
        let mut s = MeanSketch::new();
        for (_, &v) in self.rtt.iter().filter(|((_, n), _)| *n == net) {
            s.push(v);
        }
        (!s.is_empty()).then(|| s.mean())
    }

    /// The zone index in use.
    pub fn index(&self) -> &ZoneIndex {
        &self.index
    }

    /// Inserts/overwrites one entry.
    pub fn insert(&mut self, zone: ZoneId, net: NetworkId, value: f64) {
        self.map.insert((zone, net), value);
    }

    /// Estimate for a network at a point's zone, if known.
    pub fn estimate(&self, p: &GeoPoint, net: NetworkId) -> Option<f64> {
        self.map.get(&(self.index.zone_of(p), net)).copied()
    }

    /// The best network (largest estimate) at a point's zone among
    /// `candidates`, if any estimate exists.
    pub fn best_network(&self, p: &GeoPoint, candidates: &[NetworkId]) -> Option<NetworkId> {
        let zone = self.index.zone_of(p);
        candidates
            .iter()
            .filter_map(|&n| self.map.get(&(zone, n)).map(|&v| (n, v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("estimates are finite"))
            .map(|(n, _)| n)
    }

    /// Number of populated entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Mean estimate of a network across all its zones (used for the
    /// weighted round robin baseline's static weights).
    pub fn network_mean(&self, net: NetworkId) -> Option<f64> {
        let mut s = MeanSketch::new();
        for (_, &v) in self.map.iter().filter(|((_, n), _)| *n == net) {
            s.push(v);
        }
        (!s.is_empty()).then(|| s.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn center() -> GeoPoint {
        GeoPoint::new(43.0731, -89.4012).unwrap()
    }

    fn index() -> ZoneIndex {
        ZoneIndex::around(center(), 5000.0).unwrap()
    }

    #[test]
    fn from_observations_averages_per_zone() {
        let obs = vec![
            (center(), NetworkId::NetA, 1000.0),
            (center(), NetworkId::NetA, 1200.0),
            (center(), NetworkId::NetB, 800.0),
        ];
        let m = ZoneQualityMap::from_observations(index(), &obs);
        assert_eq!(m.len(), 2);
        assert_eq!(m.estimate(&center(), NetworkId::NetA), Some(1100.0));
        assert_eq!(m.estimate(&center(), NetworkId::NetB), Some(800.0));
        assert_eq!(m.estimate(&center(), NetworkId::NetC), None);
    }

    #[test]
    fn best_network_picks_maximum() {
        let obs = vec![
            (center(), NetworkId::NetA, 1000.0),
            (center(), NetworkId::NetB, 1500.0),
            (center(), NetworkId::NetC, 900.0),
        ];
        let m = ZoneQualityMap::from_observations(index(), &obs);
        assert_eq!(
            m.best_network(&center(), &NetworkId::ALL),
            Some(NetworkId::NetB)
        );
        // Restricted candidates.
        assert_eq!(
            m.best_network(&center(), &[NetworkId::NetA, NetworkId::NetC]),
            Some(NetworkId::NetA)
        );
        // Unknown zone.
        let far = center().destination(0.0, 4000.0);
        assert_eq!(m.best_network(&far, &NetworkId::ALL), None);
    }

    #[test]
    fn network_mean_across_zones() {
        let far = center().destination(0.0, 3000.0);
        let obs = vec![
            (center(), NetworkId::NetA, 1000.0),
            (far, NetworkId::NetA, 2000.0),
        ];
        let m = ZoneQualityMap::from_observations(index(), &obs);
        assert_eq!(m.network_mean(NetworkId::NetA), Some(1500.0));
        assert_eq!(m.network_mean(NetworkId::NetB), None);
    }

    #[test]
    fn insert_and_empty() {
        let mut m = ZoneQualityMap::new(index());
        assert!(m.is_empty());
        let z = m.index().zone_of(&center());
        m.insert(z, NetworkId::NetC, 1234.0);
        assert_eq!(m.estimate(&center(), NetworkId::NetC), Some(1234.0));
    }
}
