//! wiscape-region: adaptive regionalization and hotspot localization.
//!
//! The paper fixes zones at ~250 m (§3.1). This crate treats that grid
//! as the *atomic* spatial unit and derives a coarser, data-driven
//! partition on top of it: a deterministic quadtree over zone indices
//! that keeps homogeneous areas merged (pooling their samples) and
//! splits heterogeneous ones down to single zones. Merging is cheap
//! because the coordinator's per-zone state is a mergeable
//! [`wiscape_stats::RunningStats`]: merging two regions merges their
//! moments (count, mean, M2, min, max) in a fixed order, and no raw
//! sample is needed.
//!
//! On top of the region partition sit two localizers that consume only
//! aggregated per-region metrics (never raw samples, so the layer is
//! D005-clean by construction):
//!
//! * [`locate_hotspots`] — chronic-patch detection: regions whose
//!   relative standard deviation sits far above the fleet median
//!   (paper Fig 9: degraded zones show ~24% rel-std vs ~4% overall),
//!   optionally combined with a mean-throughput deficit criterion.
//! * [`locate_surges`] — load-surge detection: regions whose pooled
//!   mean dropped sharply against a baseline window built on the same
//!   partition (the stadium-event signature: ~0.45× throughput).
//!
//! Everything here is deterministic in the `state_fingerprint` sense:
//! [`region_fingerprint`] and [`hotspot_fingerprint`] hex-encode every
//! float via `to_bits`, and the quadtree canonicalizes its input into
//! `(zone, network)`-sorted order first, so the output bytes are
//! identical across `WISCAPE_THREADS`, shard counts, and any
//! permutation of the ingest order. See `ANALYTICS.md` for the full
//! contract and the precision/recall methodology.
//!
//! ```
//! use wiscape_core::{Coordinator, CoordinatorConfig, ZoneIndex};
//! use wiscape_geo::GeoPoint;
//! use wiscape_region::{region_fingerprint, RegionConfig, RegionSet};
//! use wiscape_simcore::SimTime;
//! use wiscape_simnet::NetworkId;
//!
//! let center = GeoPoint::new(43.0731, -89.4012)?;
//! let index = ZoneIndex::around(center, 1000.0)?;
//! let mut coord = Coordinator::new(index.clone(), CoordinatorConfig::default());
//! let t = SimTime::from_secs(60);
//! for zone in index.zones() {
//!     let kbps = 800.0 + 10.0 * f64::from(zone.0.col + zone.0.row);
//!     coord.ingest_samples(zone, NetworkId::NetB, t, (0..8).map(|i| kbps + f64::from(i)))?;
//! }
//! let set = RegionSet::build(&coord.export_state(), &index, &RegionConfig::default());
//! assert!(!set.regions.is_empty());
//! // Every zone resolves to exactly one region of the partition.
//! for zone in index.zones() {
//!     assert!(set.region_of(zone).is_some());
//! }
//! // Canonical bytes: identical for any worker count or shard count.
//! assert!(region_fingerprint(&set).starts_with("regions"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hotspot;
mod quadtree;

pub use hotspot::{
    hotspot_fingerprint, locate_hotspots, locate_surges, score_patches, Hotspot, HotspotConfig,
    PatchScore, PatchTruth, Surge, SurgeConfig,
};
pub use quadtree::{
    region_fingerprint, NetworkRegionStat, Region, RegionConfig, RegionId, RegionSet,
};

use std::sync::OnceLock;

/// Obs handles for the analytics surface (see `OBSERVABILITY.md`).
/// Counters and `set_max` gauges only — commutative updates, so the
/// registry snapshot stays bitwise identical under `exec::par_map`.
struct RegionMetrics {
    builds: wiscape_obs::Counter,
    splits: wiscape_obs::Counter,
    cells_skipped: wiscape_obs::Counter,
    hotspot_scans: wiscape_obs::Counter,
    surge_scans: wiscape_obs::Counter,
    regions_max: wiscape_obs::Gauge,
    hotspots_max: wiscape_obs::Gauge,
}

fn obs_metrics() -> &'static RegionMetrics {
    static M: OnceLock<RegionMetrics> = OnceLock::new();
    M.get_or_init(|| RegionMetrics {
        builds: wiscape_obs::counter("region/builds"),
        splits: wiscape_obs::counter("region/splits"),
        cells_skipped: wiscape_obs::counter("region/cells_skipped"),
        hotspot_scans: wiscape_obs::counter("region/hotspot_scans"),
        surge_scans: wiscape_obs::counter("region/surge_scans"),
        regions_max: wiscape_obs::gauge("region/regions_max"),
        hotspots_max: wiscape_obs::gauge("region/hotspots_max"),
    })
}

pub(crate) use obs_metrics as metrics;
