//! # WiScape — client-assisted monitoring of wide-area wireless networks
//!
//! This crate is the paper's primary contribution: a measurement
//! framework in which a central coordinator instructs opportunistically
//! available mobile clients to collect a *small* number of network
//! measurements per **zone** (spatial bin, §3.1) per **epoch**
//! (zone-specific stability interval, §3.2), and aggregates them into a
//! statistically sound coarse-grained performance map.
//!
//! The pieces, in the order the paper develops them:
//!
//! * [`zone`] — spatial aggregation: the zone index (default 250 m
//!   radius, chosen in Fig 4);
//! * [`zonestats`] — per-zone sample aggregation and the relative-
//!   standard-deviation homogeneity analysis;
//! * [`epoch`] — temporal aggregation: Allan-deviation epoch estimation
//!   (Fig 6);
//! * [`sampling`] — how many samples are enough: NKLD-based similarity
//!   sizing (Fig 7) and accuracy-targeted packet counts (Table 5);
//! * [`coordinator`] + [`agent`] — the control loop: task issuance with
//!   per-client probability, report ingestion, per-epoch estimation, and
//!   2σ change detection (§3.4);
//! * [`estimator`] — validation against ground truth (Fig 8);
//! * [`anomaly`] — operator aids: chronic ping-failure zones (Fig 9) and
//!   latency-surge detection (Fig 10);
//! * [`dominance`] — persistent network dominance (Figs 11–13), the
//!   basis of the §4.2 multi-network applications.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod anomaly;
pub mod coordinator;
pub mod dominance;
pub mod epoch;
pub mod estimator;
pub mod normalize;
pub mod sampling;
pub mod shard;
pub mod tuning;
pub mod zone;
pub mod zonestats;

pub use agent::{ClientAgent, MeasurementReport};
pub use coordinator::{
    ChangeAlert, Coordinator, CoordinatorConfig, CoordinatorHandle, CoordinatorState, IngestError,
    IngestSummary, MeasurementTask, SampleReport, ZoneCellState, ZoneEstimate,
};
pub use dominance::{dominance_ratio, persistent_dominant, Better, DominanceOutcome};
pub use epoch::{EpochConfig, EpochEstimator};
pub use normalize::{learn_scales, CategorySamples, CategoryScales};
pub use sampling::{packets_for_accuracy, samples_until_similar, AccuracyTarget};
pub use shard::{
    merge_states, state_fingerprint, AlertMerge, RebalanceMove, ShardAssignment, ShardSet,
};
pub use tuning::{EpochTuner, HistoryStore, QuotaTuner, ZoneHistory};
pub use zone::{ZoneId, ZoneIndex};
pub use zonestats::{Observation, ZoneAggregator};
