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
//! `wiscape map --wal` and `repro --wal` build theirs, one directory and
//! [`WalOptions`] each, in `wiscape-experiments`' topology runner.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod crash;
pub mod durable;
pub mod log;
pub mod record;
pub mod snapshot;

pub use crash::{CrashPlan, CrashPoint};
pub use durable::{DurableCoordinator, RecoveryReport, WalMeters, WalOptions, NO_WAL};
pub use log::{scan_views, ScanSummary, WalWriter, DEFAULT_SEGMENT_BYTES, GROUP_BYTES};
pub use record::{decode_record_view, IngestView, RecordEncoder, RecordView, WalError, WalRecord};
pub use snapshot::{
    decode_state, encode_state, load_snapshot, read_manifest, write_snapshot, SnapshotWriteMode,
};
