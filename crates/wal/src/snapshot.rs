//! Bitwise coordinator snapshots and the manifest that anchors them.
//!
//! A snapshot serializes the coordinator's full fold state — every
//! `(zone, network)` cell with its epoch bounds, the raw parts of its
//! `RunningStats` moments, issued counts, published estimates
//! and quota overrides, plus the alert list and ingest counters — as
//! exact integers and raw f64 bit patterns. Decoding a snapshot and
//! re-encoding it yields identical bytes, which is what lets recovery
//! prove itself: `encode(recovered) == encode(live)` is a bitwise
//! proof, not an approximate one.
//!
//! Files:
//!
//! * `snap-{records:010}.bin` — state after folding the first
//!   `records` log records. Written to a `.tmp` sibling first, then
//!   renamed; a torn `.tmp` (crash mid-serialization) is ignored by
//!   recovery.
//! * `MANIFEST` — a tiny framed file naming the record count of the
//!   authoritative snapshot. Also written via rename, so recovery
//!   either sees the old manifest or the new one, never half of each.
//!   A missing manifest means "fresh log, replay from zero".
//!
//! The zone index and coordinator config are deliberately *not*
//! serialized: they are compile-time-deterministic inputs the caller
//! re-supplies at recovery, exactly as it supplied them at first boot.

use std::fs;
use std::path::{Path, PathBuf};

use wiscape_channel::codec::{
    open_frame, put_f64, put_i64, put_network, put_time, put_varint, put_zone, seal_frame,
    DecodeError, Reader,
};
use wiscape_core::{ChangeAlert, CoordinatorState, ZoneCellState, ZoneEstimate};
use wiscape_simcore::SimDuration;
use wiscape_stats::RunningStats;

use crate::record::{io_err, WalError};

/// Snapshot file magic: `"WS"`.
pub const SNAP_MAGIC: [u8; 2] = [0x57, 0x53];
/// Manifest file magic: `"WM"`.
pub const MANIFEST_MAGIC: [u8; 2] = [0x57, 0x4D];
/// Snapshot/manifest format version.
pub const SNAP_VERSION: u8 = 3;

/// Path of the snapshot covering the first `records` log records.
pub fn snapshot_path(dir: &Path, records: u64) -> PathBuf {
    dir.join(format!("snap-{records:010}.bin"))
}

/// Path of the manifest file.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Serializes `state` into the snapshot body format (no frame).
///
/// Cells are emitted in the order `CoordinatorState` carries them,
/// which `Coordinator::export_state` produces from its ordered map —
/// so equal states always serialize to equal bytes.
pub fn encode_state(state: &CoordinatorState, out: &mut Vec<u8>) {
    out.clear();
    put_varint(out, state.cells.len() as u64);
    for cell in &state.cells {
        put_cell(out, cell);
    }
    put_varint(out, state.alerts.len() as u64);
    for alert in &state.alerts {
        put_zone(out, alert.zone);
        put_network(out, alert.network);
        put_f64(out, alert.old_mean);
        put_f64(out, alert.new_mean);
        put_f64(out, alert.sigmas);
        put_time(out, alert.at);
    }
    put_varint(out, state.packets_requested);
    put_varint(out, state.malformed_dropped);
    put_varint(out, state.reports_rejected);
}

/// Serializes one `(zone, network)` cell in the snapshot cell format.
/// Shared with the WAL's migration records so a migrated cell carries
/// exactly the bytes a snapshot of it would.
pub(crate) fn put_cell(out: &mut Vec<u8>, cell: &ZoneCellState) {
    put_zone(out, cell.zone);
    put_network(out, cell.network);
    put_i64(out, cell.epoch.as_micros());
    put_time(out, cell.epoch_start);
    let (count, mean, m2, min, max) = cell.sketch.raw_parts();
    put_varint(out, count);
    put_f64(out, mean);
    put_f64(out, m2);
    put_f64(out, min);
    put_f64(out, max);
    put_varint(out, u64::from(cell.issued_this_epoch));
    match &cell.published {
        Some(est) => {
            out.push(1);
            put_estimate(out, est);
        }
        None => out.push(0),
    }
    match cell.quota {
        Some(q) => {
            out.push(1);
            put_varint(out, u64::from(q));
        }
        None => out.push(0),
    }
}

/// Decodes one cell written by [`put_cell`].
pub(crate) fn take_cell(r: &mut Reader<'_>) -> Result<ZoneCellState, WalError> {
    let zone = r.zone()?;
    let network = r.network()?;
    let epoch = SimDuration::from_micros(r.i64()?);
    let epoch_start = r.time()?;
    let count = r.varint()?;
    let mean = r.f64()?;
    let m2 = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    let sketch = RunningStats::from_raw_parts(count, mean, m2, min, max);
    let issued = u32::try_from(r.varint()?)
        .map_err(|_| WalError::Frame(DecodeError::BadValue("issued count")))?;
    let published = match r.u8()? {
        0 => None,
        1 => Some(take_estimate(r)?),
        _ => return Err(WalError::Frame(DecodeError::BadValue("published flag"))),
    };
    let quota = match r.u8()? {
        0 => None,
        1 => Some(
            u32::try_from(r.varint()?)
                .map_err(|_| WalError::Frame(DecodeError::BadValue("quota")))?,
        ),
        _ => return Err(WalError::Frame(DecodeError::BadValue("quota flag"))),
    };
    Ok(ZoneCellState {
        zone,
        network,
        epoch,
        epoch_start,
        sketch,
        issued_this_epoch: issued,
        published,
        quota,
    })
}

/// Serializes a cell's published estimate; its key is the cell's.
fn put_estimate(out: &mut Vec<u8>, est: &ZoneEstimate) {
    put_f64(out, est.mean);
    put_f64(out, est.std_dev);
    put_varint(out, est.samples);
    put_time(out, est.formed_at);
}

/// Decodes a snapshot body produced by [`encode_state`].
pub fn decode_state(body: &[u8]) -> Result<CoordinatorState, WalError> {
    let mut r = Reader::new(body);
    let cells_n = usize::try_from(r.varint()?)
        .map_err(|_| WalError::Frame(DecodeError::BadValue("cell count")))?;
    // Each cell is at least ~30 bytes; reject counts the body cannot hold.
    if cells_n > body.len() {
        return Err(WalError::Frame(DecodeError::BadValue("cell count")));
    }
    let mut state = CoordinatorState::default();
    state.cells.reserve(cells_n);
    for _ in 0..cells_n {
        state.cells.push(take_cell(&mut r)?);
    }
    let alerts_n = usize::try_from(r.varint()?)
        .map_err(|_| WalError::Frame(DecodeError::BadValue("alert count")))?;
    if alerts_n > body.len() {
        return Err(WalError::Frame(DecodeError::BadValue("alert count")));
    }
    state.alerts.reserve(alerts_n);
    for _ in 0..alerts_n {
        state.alerts.push(ChangeAlert {
            zone: r.zone()?,
            network: r.network()?,
            old_mean: r.f64()?,
            new_mean: r.f64()?,
            sigmas: r.f64()?,
            at: r.time()?,
        });
    }
    state.packets_requested = r.varint()?;
    state.malformed_dropped = r.varint()?;
    state.reports_rejected = r.varint()?;
    if r.remaining() != 0 {
        return Err(WalError::Frame(DecodeError::TrailingBytes(r.remaining())));
    }
    Ok(state)
}

fn take_estimate(r: &mut Reader<'_>) -> Result<ZoneEstimate, WalError> {
    Ok(ZoneEstimate {
        mean: r.f64()?,
        std_dev: r.f64()?,
        samples: r.varint()?,
        formed_at: r.time()?,
    })
}

/// A snapshot or manifest file: one codec frame under `magic`.
fn frame(magic: [u8; 2], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 16);
    seal_frame(&mut out, magic, SNAP_VERSION, body);
    out
}

/// The body of a whole snapshot or manifest file: one codec frame under
/// `magic`, with nothing after it.
fn unframe(magic: [u8; 2], bytes: &[u8]) -> Result<&[u8], WalError> {
    let (body, used) = open_frame(bytes, magic, SNAP_VERSION)?;
    match bytes.len().saturating_sub(used) {
        0 => Ok(body),
        trailing => Err(WalError::Frame(DecodeError::TrailingBytes(trailing))),
    }
}

/// How much of a snapshot write completes before the injected crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotWriteMode {
    /// Snapshot file and manifest both land (no crash, or PostSnapshot).
    Full,
    /// Crash mid-serialization: only the given byte count of the
    /// `.tmp` file lands, and it is never renamed.
    TornTmp(usize),
    /// Crash after the snapshot file renames but before the manifest
    /// update: the snapshot exists as an orphan the manifest never
    /// names.
    BeforeManifest,
}

/// Writes the snapshot of `body` (an [`encode_state`] buffer) covering
/// `records` records, then the manifest, honoring `mode`'s crash
/// semantics. Returns the number of snapshot-file bytes written.
pub fn write_snapshot(
    dir: &Path,
    records: u64,
    body: &[u8],
    mode: SnapshotWriteMode,
) -> Result<u64, WalError> {
    let framed = frame(SNAP_MAGIC, body);
    let path = snapshot_path(dir, records);
    let tmp = dir.join(format!("snap-{records:010}.bin.tmp"));
    match mode {
        SnapshotWriteMode::TornTmp(keep) => {
            let keep = keep.min(framed.len());
            let partial = framed.get(..keep).unwrap_or(&framed);
            fs::write(&tmp, partial).map_err(io_err("write snapshot"))?;
            // Crash before rename: the torn tmp stays behind.
            Ok(keep as u64)
        }
        SnapshotWriteMode::BeforeManifest => {
            fs::write(&tmp, &framed).map_err(io_err("write snapshot"))?;
            fs::rename(&tmp, &path).map_err(io_err("rename snapshot"))?;
            // Crash before the manifest update.
            Ok(framed.len() as u64)
        }
        SnapshotWriteMode::Full => {
            fs::write(&tmp, &framed).map_err(io_err("write snapshot"))?;
            fs::rename(&tmp, &path).map_err(io_err("rename snapshot"))?;
            write_manifest(dir, records)?;
            Ok(framed.len() as u64)
        }
    }
}

/// Atomically points the manifest at the snapshot covering `records`.
pub fn write_manifest(dir: &Path, records: u64) -> Result<(), WalError> {
    let mut body = Vec::with_capacity(10);
    put_varint(&mut body, records);
    let framed = frame(MANIFEST_MAGIC, &body);
    let tmp = dir.join("MANIFEST.tmp");
    fs::write(&tmp, &framed).map_err(io_err("write manifest"))?;
    fs::rename(&tmp, manifest_path(dir)).map_err(io_err("rename manifest"))?;
    Ok(())
}

/// Reads the manifest. `Ok(None)` means no manifest exists (fresh log:
/// replay everything from record zero). A present-but-corrupt manifest
/// is a typed error, never a silent fresh start.
pub fn read_manifest(dir: &Path) -> Result<Option<u64>, WalError> {
    let bytes = match fs::read(manifest_path(dir)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read manifest")(e)),
    };
    let mut r = Reader::new(unframe(MANIFEST_MAGIC, &bytes)?);
    let records = r.varint()?;
    if r.remaining() != 0 {
        return Err(WalError::Frame(DecodeError::TrailingBytes(r.remaining())));
    }
    Ok(Some(records))
}

/// Loads and decodes the snapshot covering `records` records.
pub fn load_snapshot(dir: &Path, records: u64) -> Result<CoordinatorState, WalError> {
    let bytes = fs::read(snapshot_path(dir, records)).map_err(io_err("read snapshot"))?;
    decode_state(unframe(SNAP_MAGIC, &bytes)?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::path::PathBuf;
    use wiscape_core::ZoneId;
    use wiscape_geo::CellId;
    use wiscape_simcore::SimTime;
    use wiscape_simnet::NetworkId;

    /// A one-cell state with an alert (the record tests migrate its cell).
    pub(crate) fn sample_state() -> CoordinatorState {
        let mut sketch = RunningStats::new();
        for v in [812.5, 793.25, 1024.0, 640.125] {
            sketch.push(v);
        }
        CoordinatorState {
            cells: vec![ZoneCellState {
                zone: ZoneId(CellId { col: 4, row: -2 }),
                network: NetworkId::NetB,
                epoch: SimDuration::from_micros(1_800_000_000),
                epoch_start: SimTime::from_micros(3_600_000_000),
                sketch,
                issued_this_epoch: 7,
                published: Some(ZoneEstimate {
                    mean: 817.46875,
                    std_dev: 161.0220581,
                    samples: 150,
                    formed_at: SimTime::from_micros(3_600_000_000),
                }),
                quota: Some(140),
            }],
            alerts: vec![ChangeAlert {
                zone: ZoneId(CellId { col: 4, row: -2 }),
                network: NetworkId::NetB,
                old_mean: 900.0,
                new_mean: 817.46875,
                sigmas: 2.5,
                at: SimTime::from_micros(3_600_000_000),
            }],
            packets_requested: 12_345,
            malformed_dropped: 3,
            reports_rejected: 8,
        }
    }

    #[test]
    fn state_round_trips_bitwise() {
        let state = sample_state();
        let mut body = Vec::new();
        encode_state(&state, &mut body);
        let back = decode_state(&body).unwrap();
        let mut body2 = Vec::new();
        encode_state(&back, &mut body2);
        assert_eq!(body, body2, "decode/encode must be a bitwise fixpoint");
    }

    #[test]
    fn truncated_or_corrupt_snapshots_are_typed_errors() {
        let state = sample_state();
        let mut body = Vec::new();
        encode_state(&state, &mut body);
        let framed = frame(SNAP_MAGIC, &body);
        for cut in 0..framed.len() {
            match unframe(SNAP_MAGIC, &framed[..cut]) {
                Err(WalError::Frame(_)) => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }
        let mut bad = framed.clone();
        bad[10] ^= 0x40;
        assert!(matches!(unframe(SNAP_MAGIC, &bad), Err(WalError::Frame(_))));
        // Body-level truncation (valid frame, short body).
        for cut in 0..body.len() {
            match decode_state(&body[..cut]) {
                Err(WalError::Frame(_)) => {}
                Ok(s) => panic!("cut {cut} decoded {} cells", s.cells.len()),
                Err(other) => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wiscape-wal-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_and_snapshot_round_trip_on_disk() {
        let dir = temp_dir("disk");
        assert_eq!(read_manifest(&dir).unwrap(), None);
        let state = sample_state();
        let mut body = Vec::new();
        encode_state(&state, &mut body);
        write_snapshot(&dir, 42, &body, SnapshotWriteMode::Full).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(42));
        let loaded = load_snapshot(&dir, 42).unwrap();
        let mut body2 = Vec::new();
        encode_state(&loaded, &mut body2);
        assert_eq!(body, body2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tmp_and_orphan_snapshots_leave_manifest_intact() {
        let dir = temp_dir("torn");
        let state = sample_state();
        let mut body = Vec::new();
        encode_state(&state, &mut body);
        write_snapshot(&dir, 10, &body, SnapshotWriteMode::Full).unwrap();
        // Torn tmp at a later position: manifest still names 10.
        write_snapshot(&dir, 20, &body, SnapshotWriteMode::TornTmp(5)).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(10));
        // Orphan snapshot (renamed, manifest not updated): still 10.
        write_snapshot(&dir, 30, &body, SnapshotWriteMode::BeforeManifest).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(10));
        assert!(load_snapshot(&dir, 10).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
