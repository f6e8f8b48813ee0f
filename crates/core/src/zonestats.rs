//! Per-zone sample aggregation.
//!
//! [`ZoneAggregator`] bins arbitrary observations into zones and keeps
//! one constant-size [`RunningStats`] per `(zone, network)` — it never
//! retains raw samples, so memory is O(populated zones) regardless of
//! how many observations stream through. It backs the paper's §3.1
//! homogeneity analysis (CDF of per-zone relative standard deviation,
//! Fig 4), the city map of Fig 1, and the ground-truth side of the
//! Fig 8 validation.
//!
//! Experiments that genuinely need raw per-zone values (percentiles,
//! NKLD resampling) pull them offline via `wiscape_datasets::offline`
//! instead of asking the aggregation pipeline to hoard them.

use std::collections::BTreeMap;

use wiscape_geo::GeoPoint;
use wiscape_simcore::SimTime;
use wiscape_simnet::NetworkId;
use wiscape_stats::RunningStats;

use crate::zone::{ZoneId, ZoneIndex};

/// A single observation to aggregate: one metric value at a place/time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Which network produced the value.
    pub network: NetworkId,
    /// Where it was measured.
    pub point: GeoPoint,
    /// When it was measured.
    pub t: SimTime,
    /// The metric value (one aggregator per metric).
    pub value: f64,
}

/// Aggregates observations of **one metric** into zones.
#[derive(Debug, Clone)]
pub struct ZoneAggregator {
    index: ZoneIndex,
    stats: BTreeMap<(ZoneId, NetworkId), RunningStats>,
}

impl ZoneAggregator {
    /// Creates an aggregator over `index`. Memory stays proportional to
    /// the number of populated `(zone, network)` cells; raw samples are
    /// never retained.
    pub fn new(index: ZoneIndex) -> Self {
        Self {
            index,
            stats: BTreeMap::new(),
        }
    }

    /// The zone index in use.
    pub fn index(&self) -> &ZoneIndex {
        &self.index
    }

    /// Ingests one observation.
    pub fn ingest(&mut self, obs: &Observation) {
        let zone = self.index.zone_of(&obs.point);
        self.stats
            .entry((zone, obs.network))
            .or_default()
            .push(obs.value);
    }

    /// Ingests many observations.
    pub fn ingest_all<'a>(&mut self, obs: impl IntoIterator<Item = &'a Observation>) {
        for o in obs {
            self.ingest(o);
        }
    }

    /// Statistics for one zone/network, if any samples landed there.
    pub fn stats(&self, zone: ZoneId, network: NetworkId) -> Option<&RunningStats> {
        self.stats.get(&(zone, network))
    }

    /// Merges another aggregator's sketches into this one. Callers must
    /// merge shards in a fixed order (the executor's shard index) for
    /// deterministic results; the per-key fold itself walks sorted
    /// `(zone, network)` keys.
    pub fn merge(&mut self, other: &ZoneAggregator) {
        for (key, sketch) in &other.stats {
            self.stats.entry(*key).or_default().merge(sketch);
        }
    }

    /// All `(zone, network)` keys with at least `min_samples` samples.
    pub fn populated(&self, min_samples: u64) -> Vec<(ZoneId, NetworkId)> {
        let mut keys: Vec<_> = self
            .stats
            .iter()
            .filter(|(_, s)| s.count() >= min_samples)
            .map(|(k, _)| *k)
            .collect();
        keys.sort();
        keys
    }

    /// Relative standard deviations of every zone of `network` with at
    /// least `min_samples` samples — the Fig 4 statistic.
    pub fn rel_std_devs(&self, network: NetworkId, min_samples: u64) -> Vec<f64> {
        let mut out: Vec<(ZoneId, f64)> = self
            .stats
            .iter()
            .filter(|((_, n), s)| *n == network && s.count() >= min_samples)
            .map(|((z, _), s)| (*z, s.rel_std_dev()))
            .collect();
        out.sort_by_key(|a| a.0);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Total resident bytes of the per-zone sketches — O(populated
    /// cells), never O(samples).
    pub fn sketch_bytes(&self) -> usize {
        self.stats.len()
            * (std::mem::size_of::<RunningStats>() + std::mem::size_of::<(ZoneId, NetworkId)>())
    }

    /// Per-zone mean map for one network (Fig 1's dots): zone id, zone
    /// center, mean, relative std dev, sample count.
    pub fn zone_map(&self, network: NetworkId, min_samples: u64) -> Vec<ZoneSummary> {
        let mut out: Vec<ZoneSummary> = self
            .stats
            .iter()
            .filter(|((_, n), s)| *n == network && s.count() >= min_samples)
            .map(|((z, _), s)| ZoneSummary {
                zone: *z,
                center: self.index.center_of(*z),
                mean: s.mean(),
                rel_std_dev: s.rel_std_dev(),
                count: s.count(),
            })
            .collect();
        out.sort_by_key(|a| a.zone);
        out
    }
}

/// Summary row of the per-zone map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneSummary {
    /// The zone.
    pub zone: ZoneId,
    /// Zone center.
    pub center: GeoPoint,
    /// Mean of the metric in the zone.
    pub mean: f64,
    /// Relative standard deviation in the zone.
    pub rel_std_dev: f64,
    /// Number of samples.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn center() -> GeoPoint {
        GeoPoint::new(43.0731, -89.4012).unwrap()
    }

    fn agg() -> ZoneAggregator {
        ZoneAggregator::new(ZoneIndex::around(center(), 5000.0).unwrap())
    }

    fn obs(p: GeoPoint, v: f64) -> Observation {
        Observation {
            network: NetworkId::NetB,
            point: p,
            t: SimTime::EPOCH,
            value: v,
        }
    }

    #[test]
    fn aggregates_by_zone() {
        let mut a = agg();
        let p1 = center();
        let p2 = center().destination(0.0, 3000.0);
        a.ingest(&obs(p1, 100.0));
        a.ingest(&obs(p1.destination(1.0, 30.0), 110.0));
        a.ingest(&obs(p2, 500.0));
        let z1 = a.index().zone_of(&p1);
        let z2 = a.index().zone_of(&p2);
        assert_ne!(z1, z2);
        assert_eq!(a.stats(z1, NetworkId::NetB).unwrap().count(), 2);
        assert_eq!(a.stats(z1, NetworkId::NetB).unwrap().mean(), 105.0);
        assert_eq!(a.stats(z2, NetworkId::NetB).unwrap().count(), 1);
        assert_eq!(a.stats(z2, NetworkId::NetB).unwrap().mean(), 500.0);
        assert!(a.stats(z2, NetworkId::NetA).is_none());
    }

    #[test]
    fn populated_respects_threshold() {
        let mut a = agg();
        for k in 0..5 {
            a.ingest(&obs(center(), k as f64));
        }
        a.ingest(&obs(center().destination(0.0, 3000.0), 1.0));
        assert_eq!(a.populated(5).len(), 1);
        assert_eq!(a.populated(1).len(), 2);
        assert_eq!(a.populated(10).len(), 0);
    }

    #[test]
    fn rel_std_devs_match_manual() {
        let mut a = agg();
        for v in [10.0, 11.0, 9.0, 10.0] {
            a.ingest(&obs(center(), v));
        }
        let r = a.rel_std_devs(NetworkId::NetB, 2);
        assert_eq!(r.len(), 1);
        let expect = wiscape_stats::rel_std_dev(&[10.0, 11.0, 9.0, 10.0]);
        assert!((r[0] - expect).abs() < 1e-12);
        assert!(a.rel_std_devs(NetworkId::NetA, 1).is_empty());
    }

    #[test]
    fn memory_is_o_zones_not_o_samples() {
        let mut a = agg();
        a.ingest(&obs(center(), 1.0));
        let after_one = a.sketch_bytes();
        for k in 0..10_000 {
            a.ingest(&obs(center(), k as f64));
        }
        // Ten thousand more samples into the same zone: zero growth.
        assert_eq!(a.sketch_bytes(), after_one);
        // A new zone grows the footprint by exactly one cell.
        a.ingest(&obs(center().destination(0.0, 3000.0), 1.0));
        assert!(a.sketch_bytes() > after_one);
    }

    #[test]
    fn merge_combines_shards() {
        let mut a = agg();
        let mut b = agg();
        for v in [10.0, 12.0] {
            a.ingest(&obs(center(), v));
        }
        for v in [14.0, 16.0] {
            b.ingest(&obs(center(), v));
        }
        a.merge(&b);
        let z = a.index().zone_of(&center());
        let s = a.stats(z, NetworkId::NetB).unwrap();
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn zone_map_rows_are_consistent() {
        let mut a = agg();
        for k in 0..10 {
            a.ingest(&obs(center(), 100.0 + k as f64));
        }
        let map = a.zone_map(NetworkId::NetB, 5);
        assert_eq!(map.len(), 1);
        let row = &map[0];
        assert_eq!(row.count, 10);
        assert!((row.mean - 104.5).abs() < 1e-12);
        assert_eq!(a.index().zone_of(&row.center), row.zone);
    }

    #[test]
    fn networks_are_kept_separate() {
        let mut a = agg();
        a.ingest(&Observation {
            network: NetworkId::NetA,
            point: center(),
            t: SimTime::EPOCH,
            value: 1.0,
        });
        a.ingest(&obs(center(), 2.0));
        let z = a.index().zone_of(&center());
        assert_eq!(a.stats(z, NetworkId::NetA).unwrap().mean(), 1.0);
        assert_eq!(a.stats(z, NetworkId::NetB).unwrap().mean(), 2.0);
    }
}
