//! wiscape-wal: event-sourced durability for the coordinator.
//!
//! The paper's coordinator is a long-running service folding client
//! reports into per-zone sketches; this crate gives it crash safety
//! without giving up the workspace's bitwise-reproducibility bar:
//!
//! * **Event log** ([`log`], [`record`]) — every committed mutation
//!   (check-ins, sample reports in canonical `(t, client, seq)` order,
//!   tuner updates, flushes) is appended to a segmented binary log
//!   before it folds into the sketches. Records, snapshots and the
//!   manifest are `wiscape-channel` frames, sealed and opened by the
//!   codec's one frame implementation under their own magic, with the
//!   codec's varint and raw-bit fields. One decoder,
//!   [`decode_record_view`], reads every record, and decoding is
//!   total: corrupt or torn bytes produce typed [`WalError`]s, never
//!   panics.
//! * **Snapshots** ([`snapshot`]) — the full fold state serialized
//!   with exact integers and raw f64 bits, written atomically and
//!   anchored by a manifest. Recovery is snapshot + log-suffix replay,
//!   and it proves itself: the recovered state's snapshot encoding is
//!   compared byte-for-byte against the uninterrupted one.
//! * **Deterministic crash injection** ([`crash`]) — a seeded
//!   [`CrashPlan`] (the same `StreamRng` fork discipline as the
//!   channel's lossy links) kills the coordinator at append, fold, or
//!   snapshot boundaries, including mid-record torn writes; a given
//!   seed always crashes the same run the same way.
//!
//! [`DurableCoordinator`] packages the three behind the
//! [`wiscape_core::CoordinatorHandle`] trait, so the channel server
//! drives a durable coordinator exactly as it drives a bare one.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod crash;
pub mod durable;
pub mod log;
pub mod record;
pub mod snapshot;

pub use crash::{CrashPlan, CrashPoint};
pub use durable::{DurableCoordinator, RecoveryReport, WalMeters, WalOptions};
pub use log::{scan_views, ScanSummary, WalWriter, DEFAULT_SEGMENT_BYTES, GROUP_BYTES};
pub use record::{decode_record_view, IngestView, RecordEncoder, RecordView, WalError, WalRecord};
pub use snapshot::{
    decode_state, encode_state, load_snapshot, read_manifest, write_snapshot, SnapshotWriteMode,
};

use std::path::PathBuf;
use std::sync::OnceLock;

/// Per-run WAL wiring chosen on the command line and read by the
/// experiment drivers (which construct their own coordinators deep
/// inside deterministic run loops, where threading a parameter through
/// every call site would distort the reproduction code).
#[derive(Debug, Clone)]
pub struct WalRunConfig {
    /// Root directory for WAL subdirectories (one per run).
    pub dir: PathBuf,
    /// Seed for the injected crash; `None` runs without one.
    pub crash_seed: Option<u64>,
    /// Snapshot cadence in records.
    pub snapshot_every: u64,
}

static RUN_CONFIG: OnceLock<WalRunConfig> = OnceLock::new();

/// Installs the process-wide WAL run configuration. First caller wins;
/// returns whether this call installed it.
pub fn set_run_config(config: WalRunConfig) -> bool {
    RUN_CONFIG.set(config).is_ok()
}

/// The process-wide WAL run configuration, if one was installed.
pub fn run_config() -> Option<&'static WalRunConfig> {
    RUN_CONFIG.get()
}
