//! Deterministic simulation kernel for WiScape.
//!
//! Following the smoltcp idiom adopted for this workspace, the simulator
//! runs on an **explicit clock**: no component reads wall time or a
//! global RNG; every call takes a [`SimTime`] and randomness comes from
//! named, seed-derived [`rng::StreamRng`] streams. Two runs with the same
//! master seed produce bit-identical results. The kernel keeps no event
//! queue: the deployment loop (`wiscape-channel`'s `ChannelDeployment`)
//! orders its in-flight frames by (arrival, transmission index) itself.
//!
//! Contents:
//! * [`time`] — simulated clock ([`SimTime`], [`SimDuration`]) with
//!   calendar helpers (time of day, day index) used by diurnal models and
//!   bus schedules;
//! * [`rng`] — hierarchical deterministic RNG streams;
//! * [`dist`] — textbook samplers (normal, lognormal, exponential,
//!   Pareto, Zipf) so the workspace needs no `rand_distr` dependency;
//! * [`noise`] — smooth hash-based value noise in 1-D (time) and 2-D
//!   (space), the building block of spatially/temporally correlated
//!   performance fields;
//! * [`process`] — diurnal load profiles;
//! * [`exec`] — deterministic parallel execution (order-preserving
//!   `par_map` whose output is independent of the worker count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod exec;
pub mod noise;
pub mod process;
pub mod rng;
pub mod time;

pub use rng::StreamRng;
pub use time::{SimDuration, SimTime};
