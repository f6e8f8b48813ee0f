//! Golden frame bytes. Every frame the workspace writes has one layout
//! (magic, version, varint body length, body, CRC-32) and differs only
//! in its magic: `WC` on the wire, `WL` for WAL records, `WS` for
//! snapshots, `WM` for the manifest. These tests pin the absolute bytes
//! of one frame of each kind, plus the `MigrateIn` record, the one WAL
//! record that carries a cell, so an envelope or body change shows even
//! when its encoder and decoder still agree. The snapshot's cell has a
//! published estimate and the `MigrateIn` record's cell has none, so
//! both arms of the estimate codec are pinned. They require `BadMagic`
//! from every decoder fed another kind's frame, and
//! `UnsupportedVersion(1)` or `UnsupportedVersion(2)` from every WAL
//! decoder fed a frame of an older layout: version-1 cells carried two
//! more f64s, and version-2 estimates a second copy of their cell's
//! `(zone, network)` key.

use std::path::{Path, PathBuf};

use wiscape_channel::codec::{
    decode_ref, encode, encode_ack_one, CheckinRequest, DecodeError, WireMessage,
};
use wiscape_core::{
    CoordinatorConfig, CoordinatorState, ZoneCellState, ZoneEstimate, ZoneId, ZoneIndex,
};
use wiscape_geo::{CellId, GeoPoint};
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::NetworkId;
use wiscape_stats::RunningStats;
use wiscape_wal::{
    decode_record_view, encode_state, load_snapshot, read_manifest, write_snapshot,
    DurableCoordinator, RecordEncoder, RecordView, SnapshotWriteMode, WalError, WalOptions,
    WalRecord,
};

/// [`checkin`].
const CHECKIN_HEX: &str = "5743011601070336ab3e575b894540efc9c342ad5956c080890fbe43edf2";
/// `encode_ack_one(ClientId(9), 300)`.
const ACK_HEX: &str = "57430105040901ac02a9e6d4a3";
/// [`ingest_record`].
const INGEST_HEX: &str = "574c031c0209ac02051801fed9c40902000000000064894000000000000000809844a5b7";
/// [`migrate_in_record`].
const MIGRATE_IN_HEX: &str = "574c0335070108030180c8ceb40d80909de91a03abaaaaaaaa648b4054555555d901e0400000000000ca884000000000000090400700018c013105b037";
/// `snap-0000000042.bin` as [`snapshot_files`] writes it.
const SNAPSHOT_HEX: &str = "575303500108030180c8ceb40d80909de91a03abaaaaaaaa648b4054555555d901e0400000000000ca88400000000000009040070100000000c08b8940954330b3b4206440960180c8ceb40d018c0100b96003083cdcbaa4";
/// `MANIFEST` as [`snapshot_files`] writes it.
const MANIFEST_HEX: &str = "574d03012a5b26b909";
/// [`ingest_record`] as version 2 wrote it.
const V2_INGEST_HEX: &str =
    "574c021c0209ac02051801fed9c40902000000000064894000000000000000809844a5b7";
/// [`migrate_in_record`] as version 2 wrote it.
const V2_MIGRATE_IN_HEX: &str = "574c0235070108030180c8ceb40d80909de91a03abaaaaaaaa648b4054555555d901e0400000000000ca884000000000000090400700018c013105b037";
/// `snap-0000000042.bin` as version 2 wrote it, for a cell with no
/// published estimate.
const V2_SNAPSHOT_HEX: &str = "575302390108030180c8ceb40d80909de91a03abaaaaaaaa648b4054555555d901e0400000000000ca884000000000000090400700018c0100b9600308444d9401";
/// `MANIFEST` as version 2 wrote it.
const V2_MANIFEST_HEX: &str = "574d02012a5b26b909";
/// [`ingest_record`] as version 1 wrote it.
const V1_INGEST_HEX: &str =
    "574c011c0209ac02051801fed9c40902000000000064894000000000000000809844a5b7";
/// `snap-0000000042.bin` as version 1 wrote it: after `max`, the cell
/// carries a compensated sum (2629.75) and its correction term (0).
const V1_SNAPSHOT_HEX: &str = "575301490108030180c8ceb40d80909de91a03abaaaaaaaa648b4054555555d901e0400000000000ca8840000000000000904000000000808ba44000000000000000000700018c0100b9600308c190b5bc";
/// `MANIFEST` as version 1 wrote it.
const V1_MANIFEST_HEX: &str = "574d01012a5b26b909";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn checkin() -> Vec<u8> {
    encode(&WireMessage::Checkin(CheckinRequest {
        client: ClientId(7),
        tick: 3,
        point: GeoPoint::new(43.0731, -89.4012).unwrap(),
        t: SimTime::from_micros(123_456),
    }))
}

fn ingest_record() -> Vec<u8> {
    let mut enc = RecordEncoder::with_capacity(64);
    enc.begin(2); // ingest tag
    enc.put_client(ClientId(9));
    enc.put_u64(300);
    enc.put_zone(ZoneId(CellId { col: -3, row: 12 }));
    enc.put_network(NetworkId::NetB);
    enc.put_time(SimTime::from_micros(9_999_999));
    enc.put_u64(2);
    enc.put_f64(812.5);
    enc.put_f64(-0.0);
    let mut frame = Vec::new();
    enc.seal_into(&mut frame);
    frame
}

/// The one cell of [`snapshot_files`] and [`migrate_in_record`], with
/// the given published estimate.
fn cell(published: Option<ZoneEstimate>) -> ZoneCellState {
    let mut sketch = RunningStats::new();
    for v in [812.5, 793.25, 1024.0] {
        sketch.push(v);
    }
    ZoneCellState {
        zone: ZoneId(CellId { col: 4, row: -2 }),
        network: NetworkId::NetB,
        epoch: SimDuration::from_micros(1_800_000_000),
        epoch_start: SimTime::from_micros(3_600_000_000),
        sketch,
        issued_this_epoch: 7,
        published,
        quota: Some(140),
    }
}

/// The published estimate of the snapshot's cell.
fn estimate() -> ZoneEstimate {
    ZoneEstimate {
        mean: 817.46875,
        std_dev: 161.0220581,
        samples: 150,
        formed_at: SimTime::from_micros(1_800_000_000),
    }
}

/// A zone-range handoff into a coordinator of [`cell`] with no
/// published estimate.
fn migrate_in_record() -> Vec<u8> {
    let mut enc = RecordEncoder::with_capacity(64);
    enc.begin(7); // migrate-in tag
    enc.put_u64(1);
    enc.put_cell(&cell(None));
    let mut frame = Vec::new();
    enc.seal_into(&mut frame);
    frame
}

fn dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wiscape-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a one-cell snapshot covering 42 records into `dir` and
/// returns the snapshot file and the manifest. The cell has a
/// published estimate.
fn snapshot_files(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let state = CoordinatorState {
        cells: vec![cell(Some(estimate()))],
        packets_requested: 12_345,
        malformed_dropped: 3,
        reports_rejected: 8,
        ..CoordinatorState::default()
    };
    let mut body = Vec::new();
    encode_state(&state, &mut body);
    write_snapshot(dir, 42, &body, SnapshotWriteMode::Full).unwrap();
    let snap = std::fs::read(dir.join("snap-0000000042.bin")).unwrap();
    (snap, std::fs::read(dir.join("MANIFEST")).unwrap())
}

fn files_in(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let bytes = std::fs::read(e.path()).unwrap();
            (e.file_name().into_string().unwrap(), bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_frame_kind_keeps_its_bytes() {
    assert_eq!(hex(&checkin()), CHECKIN_HEX);
    assert_eq!(hex(&encode_ack_one(ClientId(9), 300)), ACK_HEX);
    assert_eq!(hex(&ingest_record()), INGEST_HEX);
    assert_eq!(hex(&migrate_in_record()), MIGRATE_IN_HEX);
    match decode_record_view(&migrate_in_record()) {
        Ok((RecordView::Owned(WalRecord::MigrateIn { cells }), _)) => {
            assert_eq!(cells, [cell(None)]);
        }
        other => panic!("not a migrate-in record: {other:?}"),
    }
    let dir = dir("bytes");
    let (snap, manifest) = snapshot_files(&dir);
    assert_eq!(hex(&snap), SNAPSHOT_HEX);
    assert_eq!(hex(&manifest), MANIFEST_HEX);
    assert_eq!(read_manifest(&dir), Ok(Some(42)));
    let state = load_snapshot(&dir, 42).unwrap();
    assert_eq!(state.cells, [cell(Some(estimate()))]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_decoder_refuses_another_kinds_frame() {
    let bad_magic = Err(WalError::Frame(DecodeError::BadMagic));
    assert_eq!(decode_ref(&ingest_record()), Err(DecodeError::BadMagic));
    assert_eq!(decode_record_view(&checkin()).map(|_| ()), bad_magic);
    let dir = dir("foreign");
    let (snap, manifest) = snapshot_files(&dir);
    for foreign in [&ingest_record(), &snap] {
        std::fs::write(dir.join("MANIFEST"), foreign).unwrap();
        assert_eq!(read_manifest(&dir).map(|_| ()), bad_magic);
    }
    for foreign in [&ingest_record(), &manifest] {
        std::fs::write(dir.join("snap-0000000042.bin"), foreign).unwrap();
        assert_eq!(load_snapshot(&dir, 42).map(|_| ()), bad_magic);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_1_and_2_frames_and_directories_are_refused() {
    let index = ZoneIndex::around(GeoPoint::new(43.0731, -89.4012).unwrap(), 1000.0).unwrap();
    let recover = |dir: &Path| {
        DurableCoordinator::recover(
            dir,
            index.clone(),
            CoordinatorConfig::default(),
            WalOptions::default(),
        )
        .map(|_| ())
    };
    assert_eq!(
        decode_record_view(&unhex(V2_MIGRATE_IN_HEX)).map(|_| ()),
        Err(WalError::Frame(DecodeError::UnsupportedVersion(2)))
    );
    for (version, ingest, snapshot, manifest) in [
        (1, V1_INGEST_HEX, V1_SNAPSHOT_HEX, V1_MANIFEST_HEX),
        (2, V2_INGEST_HEX, V2_SNAPSHOT_HEX, V2_MANIFEST_HEX),
    ] {
        let old = Err(WalError::Frame(DecodeError::UnsupportedVersion(version)));
        assert_eq!(decode_record_view(&unhex(ingest)).map(|_| ()), old);
        let dir = dir(&format!("v{version}"));
        std::fs::write(dir.join("snap-0000000042.bin"), unhex(snapshot)).unwrap();
        std::fs::write(dir.join("MANIFEST"), unhex(manifest)).unwrap();
        assert_eq!(load_snapshot(&dir, 42).map(|_| ()), old);
        assert_eq!(read_manifest(&dir).map(|_| ()), old);

        // Recovery refuses an old WAL directory, through its manifest
        // or, without one, through its first segment, and writes
        // nothing.
        std::fs::write(dir.join("wal-0000000000.seg"), unhex(ingest)).unwrap();
        let before = files_in(&dir);
        assert_eq!(recover(&dir), old, "v{version} through the manifest");
        assert_eq!(files_in(&dir), before);
        std::fs::remove_file(dir.join("MANIFEST")).unwrap();
        let before = files_in(&dir);
        assert_eq!(recover(&dir), old, "v{version} through the first segment");
        assert_eq!(files_in(&dir), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
