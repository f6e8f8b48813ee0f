//! # wiscape-channel — the client ↔ coordinator control channel
//!
//! The paper's coordinator "instructs" clients and clients "report"
//! samples over a cellular control channel whose cost and loss
//! behaviour the overhead analysis argues is negligible. This crate
//! makes that channel a real (simulated) thing:
//!
//! * [`codec`] — a compact binary wire format for the four control
//!   messages (check-in, task, report, ack): varints, length-prefixed
//!   framing, CRC-32, typed decode errors, total decoding (no panics on
//!   arbitrary bytes);
//! * [`link`] — a deterministic seedable lossy link (drop / delay /
//!   reorder / duplicate) whose drop probability couples to the zone's
//!   own simnet quality, driven entirely by the sim clock;
//! * [`uplink`] — client-side reliable report delivery: bounded queue,
//!   sequence numbers, batching, exponential backoff with seeded
//!   jitter;
//! * [`server`] — coordinator-side decode, `(client, seq)` dedup, and
//!   idempotent ingest, so at-least-once delivery never double-counts a
//!   sample. It drives any `CoordinatorHandle`: a plain coordinator, a
//!   WAL-backed one, or a [`wiscape_core::ShardSet`] of N zone-range
//!   shards — the one sharded wire path, with dedup and staging done
//!   once, above the shards;
//! * [`deployment`] — the WiScape deployment loop (paper §3.4): clients
//!   check in, run their tasks and report over the channel. Under
//!   [`perfect_link`] it is the plain direct-call loop bit for bit, and
//!   it degrades gracefully (and reproducibly) under loss.
//!
//! Everything is a pure function of the master seed: link fates and
//! backoff jitter draw from dedicated `StreamRng` forks that are
//! disjoint from the measurement stream, so *enabling* the channel
//! cannot perturb what is measured — only whether and when it arrives.
//!
//! A message round-trips the wire format exactly, and a perfect link
//! delivers it unchanged with zero delay:
//!
//! ```
//! use wiscape_channel::{decode, encode, CheckinRequest, WireMessage};
//! use wiscape_channel::{LinkConfig, LossyLink};
//! use wiscape_geo::GeoPoint;
//! use wiscape_mobility::ClientId;
//! use wiscape_simcore::{SimTime, StreamRng};
//!
//! let msg = WireMessage::Checkin(CheckinRequest {
//!     client: ClientId(3),
//!     tick: 7,
//!     point: GeoPoint::new(43.07, -89.40).unwrap(),
//!     t: SimTime::at(1, 8.0),
//! });
//! let bytes = encode(&msg);
//! assert_eq!(decode(&bytes).unwrap(), msg);
//!
//! let mut link = LossyLink::new(
//!     LinkConfig::perfect(),
//!     StreamRng::new(7).fork("channel"),
//! );
//! let deliveries = link.send(bytes.clone(), SimTime::at(1, 8.0), 0.0);
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(deliveries[0].frame, bytes);
//! assert_eq!(deliveries[0].at, SimTime::at(1, 8.0));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod deployment;
pub mod link;
pub mod server;
pub mod uplink;

pub use codec::{
    decode, encode, AckMsg, CheckinRequest, DecodeError, ReportMsg, TaskAssignment, WireMessage,
};
pub use deployment::{
    lossy_cellular, perfect_link, report_loss, ChannelConfig, ChannelDeployment, ChannelRunMeters,
    DeploymentConfig, DeploymentStats,
};
pub use link::{Delivery, LinkConfig, LinkMeters, LossyLink};
pub use server::{ChannelServer, CommitPolicy, ServerMeters};
pub use uplink::{Uplink, UplinkConfig, UplinkMeters};
