//! Cellular wireless landscape simulator.
//!
//! This crate stands in for the three commercial 3G networks the paper
//! measured for over a year (see the substitution table in `DESIGN.md`).
//! It is a *procedural* simulator: every quantity is a deterministic
//! function of `(network, location, time, seed)`, so it can be queried at
//! any point without storing state, and two runs with the same seed agree
//! bit-for-bit.
//!
//! The performance model is layered exactly along the statistical axes the
//! paper's methodology probes:
//!
//! ```text
//! observable(net, p, t, pkt) =
//!     spatial_base(net, p)            # smooth field + tower proximity  (§3.1, zones)
//!   × diurnal(net, t)                 # daily load rhythm
//!   × slow_drift(net, cell(p), t)     # zone-coherent epoch-scale drift (§3.2, epochs)
//!   × event_modifier(p, t)            # e.g. stadium game surge         (§4.1)
//!   × fine_noise(net, p, t, pkt)      # per-packet dispersion           (§3.3, sample counts)
//! ```
//!
//! * [`network`] — network identities and radio technology specs;
//! * [`towers`] — procedural (infinite, jittered-lattice) tower layouts;
//! * [`config`] — per-network and per-region parameters, with presets for
//!   the paper's Madison (WI) and New Brunswick (NJ) regions;
//! * [`field`] — the ground-truth performance field;
//! * [`events`] — special events (stadium surge) and degraded zones;
//! * [`probe`] — packet-level measurement primitives (UDP trains, TCP
//!   downloads, pings) producing the records clients report;
//! * [`landscape`] — the facade tying it all together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod events;
pub mod field;
pub mod landscape;
pub mod network;
pub mod probe;
pub mod towers;

pub use config::{LandscapeConfig, NetworkParams, RegionPreset};
pub use events::{DegradedZoneModel, SpecialEvent};
pub use field::{DriftCell, LinkQuality, NetworkField, PointCtx, RttLoss};
pub use landscape::{Landscape, UnknownNetwork};
pub use network::{NetworkId, Technology};
pub use probe::{
    train_from_quality, PacketSample, PingOutcome, TcpDownload, TransportKind, UdpTrain,
};
