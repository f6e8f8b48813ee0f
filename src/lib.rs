//! # WiScape
//!
//! A client-assisted monitoring framework for wide-area wireless
//! networks — a full reproduction of *"Can they hear me now?: A case for
//! a client-assisted approach to monitoring wide-area wireless networks"*
//! (IMC 2011), including the simulated cellular landscape, mobility
//! substrate, dataset generators, and application layer the evaluation
//! depends on.
//!
//! This facade crate re-exports the whole workspace. Start with
//! [`prelude`], or with the sub-crates directly:
//!
//! * [`geo`] — geodesy (points, projections, routes, grids);
//! * [`stats`] — statistics (moments, ECDF, Allan deviation, NKLD);
//! * [`simcore`] — deterministic simulation kernel (clock, RNG streams,
//!   noise, diurnal processes, the deterministic parallel executor);
//! * [`simnet`] — the cellular landscape simulator and probe engine;
//! * [`mobility`] — buses, cars, and static clients;
//! * [`datasets`] — regenerators for the paper's seven datasets;
//! * [`core`] — the WiScape framework itself (zones, epochs, sampling,
//!   coordinator, agents, tuners, anomaly and dominance analysis);
//! * [`channel`] — the client ↔ coordinator control channel (wire
//!   codec, lossy-link simulation, reliable report delivery) and the
//!   deployment loop that runs over it;
//! * [`workload`] — SURGE pages, named-site page sets, HTTP model;
//! * [`apps`] — multi-sim selection and the MAR striping gateway;
//! * [`region`] — adaptive regionalization and hotspot localization
//!   over the coordinator's sketch state (see `ANALYTICS.md`);
//! * [`experiments`] — one module per paper table/figure;
//! * [`obs`] — the deterministic observability registry every
//!   instrumented layer reports through (see `OBSERVABILITY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use wiscape::prelude::*;
//!
//! // A deterministic Madison-like landscape with three networks.
//! let land = Landscape::new(LandscapeConfig::madison(42));
//!
//! // Five transit buses + one static node collect measurements.
//! let mut fleet = Fleet::new(42);
//! fleet
//!     .add_transit_buses(5, land.origin(), 5000.0, 10)
//!     .add_static_spot(land.origin());
//!
//! // Run the WiScape control loop for a simulated morning.
//! let index = ZoneIndex::around(land.origin(), 6000.0).unwrap();
//! let mut deployment = ChannelDeployment::new(land, fleet, index, perfect_link());
//! deployment.run(SimTime::at(1, 8.0), SimTime::at(1, 11.0));
//!
//! // The coordinator now publishes per-zone network estimates.
//! assert!(!deployment.coordinator().all_published().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wiscape_apps as apps;
pub use wiscape_channel as channel;
pub use wiscape_core as core;
pub use wiscape_datasets as datasets;
pub use wiscape_experiments as experiments;
pub use wiscape_geo as geo;
pub use wiscape_mobility as mobility;
pub use wiscape_obs as obs;
pub use wiscape_region as region;
pub use wiscape_simcore as simcore;
pub use wiscape_simnet as simnet;
pub use wiscape_stats as stats;
pub use wiscape_wal as wal;
pub use wiscape_workload as workload;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use wiscape_apps::{MarScheduler, SelectionPolicy, ZoneQualityMap};
    pub use wiscape_channel::{
        lossy_cellular, perfect_link, report_loss, ChannelConfig, ChannelDeployment,
        DeploymentConfig,
    };
    pub use wiscape_core::{
        Better, ChangeAlert, ClientAgent, Coordinator, CoordinatorConfig, EpochConfig,
        EpochEstimator, ZoneId, ZoneIndex,
    };
    pub use wiscape_datasets::{Dataset, MeasurementRecord, Metric};
    pub use wiscape_geo::{BoundingBox, GeoPoint, Polyline};
    pub use wiscape_mobility::{ClientId, Fleet, MobileClient};
    pub use wiscape_simcore::{SimDuration, SimTime, StreamRng};
    pub use wiscape_simnet::{Landscape, LandscapeConfig, LinkQuality, NetworkId, TransportKind};
    pub use wiscape_stats::{Ecdf, RunningStats};
    pub use wiscape_workload::PagePool;
}
