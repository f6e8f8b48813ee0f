//! WAL record encoding: the coordinator's mutation events as
//! length-prefixed, CRC-framed binary records.
//!
//! A record is a channel frame: [`RecordEncoder::seal_into`] and
//! [`decode_record_view`] call the codec's `seal_frame` and
//! `open_frame`, under the magic `"WL"` instead of the wire's `"WC"`,
//! and every field reuses the codec's primitives (varints, zigzag
//! integers, raw-bit f64s) — the WAL is "the channel, persisted". The
//! body is a tag byte followed by the event's fields.
//!
//! [`decode_record_view`] is the one record decoder: `Ingest` records
//! (the bulk of any log) come back as an [`IngestView`] whose samples
//! stay in the frame bytes, the rare control records as an owned
//! [`WalRecord`]. Decoding is *total*: arbitrary bytes produce a typed
//! [`WalError`], never a panic, and a frame cut short mid-write (a torn
//! tail) is distinguishable as a truncation error.

use std::io::ErrorKind;

use wiscape_channel::codec::{
    open_frame, put_f64, put_network, put_point, put_time, put_u32, put_varint, put_zone,
    seal_frame, DecodeError, Reader, SampleIter,
};
use wiscape_core::{ZoneCellState, ZoneId};
use wiscape_geo::GeoPoint;
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::NetworkId;

/// WAL frame magic: `"WL"`.
pub const WAL_MAGIC: [u8; 2] = [0x57, 0x4C];
/// WAL format version.
pub const WAL_VERSION: u8 = 3;

pub(crate) const TAG_CHECKIN: u8 = 1;
pub(crate) const TAG_INGEST: u8 = 2;
pub(crate) const TAG_SET_QUOTA: u8 = 3;
pub(crate) const TAG_SET_EPOCH: u8 = 4;
pub(crate) const TAG_FLUSH: u8 = 5;
pub(crate) const TAG_MIGRATE_OUT: u8 = 6;
pub(crate) const TAG_MIGRATE_IN: u8 = 7;

/// Why a WAL operation failed. Everything on the recovery surface is
/// typed — corrupt or truncated bytes can never panic the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// A filesystem operation failed.
    Io {
        /// The operation that failed (static label, e.g. `"append"`).
        op: &'static str,
        /// The underlying I/O error kind.
        kind: ErrorKind,
    },
    /// A record or snapshot frame failed to decode.
    Frame(DecodeError),
    /// Bytes that decode structurally but violate a WAL invariant.
    Corrupt(&'static str),
}

impl From<DecodeError> for WalError {
    fn from(e: DecodeError) -> Self {
        WalError::Frame(e)
    }
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Io { op, kind } => write!(f, "wal i/o failure during {op}: {kind:?}"),
            WalError::Frame(e) => write!(f, "wal frame error: {e}"),
            WalError::Corrupt(what) => write!(f, "wal corruption: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

/// Maps the I/O error of a failed `op` to [`WalError::Io`].
pub(crate) fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> WalError {
    move |e| WalError::Io { op, kind: e.kind() }
}

/// One decoded coordinator mutation event other than a sample report
/// (those decode as an [`IngestView`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A client check-in (may issue tasks; mutates pacing state).
    Checkin {
        /// The client.
        client: ClientId,
        /// The client's reported position.
        point: GeoPoint,
        /// Check-in time.
        t: SimTime,
        /// The caller-supplied task coin (exact bits).
        coin: f64,
        /// Networks the check-in covers.
        networks: Vec<NetworkId>,
    },
    /// A quota-tuner update.
    SetQuota {
        /// The zone.
        zone: ZoneId,
        /// The network.
        network: NetworkId,
        /// New per-epoch sample quota.
        quota: u32,
    },
    /// An epoch-tuner update.
    SetEpoch {
        /// The zone.
        zone: ZoneId,
        /// The network.
        network: NetworkId,
        /// New epoch length.
        epoch: SimDuration,
    },
    /// An end-of-run (or periodic) epoch finalization.
    Flush {
        /// Finalization time.
        t: SimTime,
    },
    /// A zone-range handoff out of this coordinator (shard
    /// rebalancing): every cell with `lo <= zone <= hi` leaves.
    MigrateOut {
        /// Inclusive lower bound of the departing zone range.
        lo: ZoneId,
        /// Inclusive upper bound of the departing zone range.
        hi: ZoneId,
    },
    /// A zone-range handoff into this coordinator: the migrated cells,
    /// carried bit-exactly in the snapshot cell format.
    MigrateIn {
        /// The installed cells.
        cells: Vec<ZoneCellState>,
    },
}

/// Incremental record encoder holding a reusable body buffer.
///
/// The append path is allocation-free after construction: `begin`
/// resets the buffer, the `put_*` methods append primitive fields via
/// the channel codec, and [`RecordEncoder::seal_into`] assembles the
/// framed record into a caller-owned scratch buffer.
#[derive(Debug, Default)]
pub struct RecordEncoder {
    body: Vec<u8>,
}

impl RecordEncoder {
    /// An encoder with a warm scratch buffer.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            body: Vec::with_capacity(cap),
        }
    }

    /// Starts a record body with `tag`.
    pub fn begin(&mut self, tag: u8) {
        self.body.clear();
        self.body.push(tag);
    }

    /// Appends a varint field.
    pub fn put_u64(&mut self, v: u64) {
        put_varint(&mut self.body, v);
    }

    /// Appends a 32-bit varint field.
    pub fn put_u32(&mut self, v: u32) {
        put_u32(&mut self.body, v);
    }

    /// Appends an f64 field as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        put_f64(&mut self.body, v);
    }

    /// Appends a client id.
    pub fn put_client(&mut self, c: ClientId) {
        put_u32(&mut self.body, c.0);
    }

    /// Appends a zone id.
    pub fn put_zone(&mut self, z: ZoneId) {
        put_zone(&mut self.body, z);
    }

    /// Appends a network id.
    pub fn put_network(&mut self, n: NetworkId) {
        put_network(&mut self.body, n);
    }

    /// Appends a geographic point (exact lat/lon bits).
    pub fn put_point(&mut self, p: &GeoPoint) {
        put_point(&mut self.body, p);
    }

    /// Appends a simulation time.
    pub fn put_time(&mut self, t: SimTime) {
        put_time(&mut self.body, t);
    }

    /// Appends one zone cell in the snapshot cell format (shared with
    /// snapshot serialization, so migrated bytes equal snapshot bytes).
    pub fn put_cell(&mut self, cell: &ZoneCellState) {
        crate::snapshot::put_cell(&mut self.body, cell);
    }

    /// Appends a duration as its microsecond count.
    pub fn put_duration(&mut self, d: SimDuration) {
        let us = d.as_micros();
        let folded = u64::try_from(us).unwrap_or(0);
        put_varint(&mut self.body, folded);
    }

    /// Frames the accumulated body into `frame` through the codec's
    /// `seal_frame` under [`WAL_MAGIC`]. `frame` is cleared first so the
    /// caller can reuse one scratch buffer per append.
    pub fn seal_into(&mut self, frame: &mut Vec<u8>) {
        frame.clear();
        seal_frame(frame, WAL_MAGIC, WAL_VERSION, &self.body);
    }
}

/// A committed sample report (the `(t, client, seq)` identity is the
/// channel's canonical commit order): header fields decoded, samples
/// left as raw little-endian bytes inside the frame, so replay folds
/// them without a per-record allocation.
#[derive(Debug, Clone, Copy)]
pub struct IngestView<'a> {
    /// Reporting client.
    pub client: ClientId,
    /// The client's report sequence number.
    pub seq: u64,
    /// Reported fine zone.
    pub zone: ZoneId,
    /// Measured network.
    pub network: NetworkId,
    /// Measurement time.
    pub t: SimTime,
    raw: &'a [u8],
}

impl<'a> IngestView<'a> {
    /// The samples, decoded lazily from the raw frame bytes.
    pub fn samples(&self) -> SampleIter<'a> {
        SampleIter::new(self.raw)
    }
}

/// One decoded record, borrowing where it matters: `Ingest` samples
/// stay in the frame, everything else (rare control records) is owned.
#[derive(Debug, Clone)]
pub enum RecordView<'a> {
    /// A committed sample report, samples still in the frame bytes.
    Ingest(IngestView<'a>),
    /// Any other record kind, fully decoded.
    Owned(WalRecord),
}

impl RecordView<'_> {
    /// The event time carried by the record, if it has one (used for
    /// the virtual-time replay span metric).
    pub fn event_time(&self) -> Option<SimTime> {
        match self {
            RecordView::Ingest(v) => Some(v.t),
            RecordView::Owned(WalRecord::Checkin { t, .. } | WalRecord::Flush { t }) => Some(*t),
            RecordView::Owned(_) => None,
        }
    }
}

/// Decodes one record frame from the front of `buf`, returning the
/// record and the bytes it consumed.
///
/// Total over arbitrary input: truncated bytes yield
/// `WalError::Frame(DecodeError::Truncated { .. })` (the torn-tail
/// signal the log scanner truncates on), corrupt bytes a typed magic /
/// version / checksum / field error. Never panics.
pub fn decode_record_view(buf: &[u8]) -> Result<(RecordView<'_>, usize), WalError> {
    let (body, consumed) = open_frame(buf, WAL_MAGIC, WAL_VERSION)?;
    if body.first() != Some(&TAG_INGEST) {
        return Ok((RecordView::Owned(decode_body(body)?), consumed));
    }
    let mut r = Reader::new(body);
    let _tag = r.u8()?;
    let client = r.client()?;
    let seq = r.varint()?;
    let zone = r.zone()?;
    let network = r.network()?;
    let t = r.time()?;
    let n = usize::try_from(r.varint()?)
        .map_err(|_| WalError::Frame(DecodeError::BadValue("sample count")))?;
    let need = n
        .checked_mul(8)
        .ok_or(WalError::Frame(DecodeError::BadValue("sample count")))?;
    let raw = r.take(need)?;
    if r.remaining() != 0 {
        return Err(WalError::Frame(DecodeError::TrailingBytes(r.remaining())));
    }
    Ok((
        RecordView::Ingest(IngestView {
            client,
            seq,
            zone,
            network,
            t,
            raw,
        }),
        consumed,
    ))
}

/// Decodes the body of every record kind but `Ingest`, which
/// [`decode_record_view`] keeps as an [`IngestView`].
fn decode_body(body: &[u8]) -> Result<WalRecord, WalError> {
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let record = match tag {
        TAG_CHECKIN => {
            let client = r.client()?;
            let point = r.point()?;
            let t = r.time()?;
            let coin = r.f64()?;
            let n = usize::try_from(r.varint()?)
                .map_err(|_| WalError::Frame(DecodeError::BadValue("network count")))?;
            if r.remaining() < n {
                return Err(WalError::Frame(DecodeError::Truncated {
                    needed: n,
                    have: r.remaining(),
                }));
            }
            let mut networks = Vec::with_capacity(n);
            for _ in 0..n {
                networks.push(r.network()?);
            }
            WalRecord::Checkin {
                client,
                point,
                t,
                coin,
                networks,
            }
        }
        TAG_SET_QUOTA => WalRecord::SetQuota {
            zone: r.zone()?,
            network: r.network()?,
            quota: r.u32()?,
        },
        TAG_SET_EPOCH => {
            let zone = r.zone()?;
            let network = r.network()?;
            let us = r.varint()?;
            let us = i64::try_from(us)
                .map_err(|_| WalError::Frame(DecodeError::BadValue("epoch micros")))?;
            WalRecord::SetEpoch {
                zone,
                network,
                epoch: SimDuration::from_micros(us),
            }
        }
        TAG_FLUSH => WalRecord::Flush { t: r.time()? },
        TAG_MIGRATE_OUT => WalRecord::MigrateOut {
            lo: r.zone()?,
            hi: r.zone()?,
        },
        TAG_MIGRATE_IN => {
            let n = usize::try_from(r.varint()?)
                .map_err(|_| WalError::Frame(DecodeError::BadValue("cell count")))?;
            // Each cell is at least ~30 bytes; reject counts the body
            // cannot hold.
            if n > body.len() {
                return Err(WalError::Frame(DecodeError::BadValue("cell count")));
            }
            let mut cells = Vec::with_capacity(n);
            for _ in 0..n {
                cells.push(crate::snapshot::take_cell(&mut r)?);
            }
            WalRecord::MigrateIn { cells }
        }
        other => return Err(WalError::Frame(DecodeError::UnknownTag(other))),
    };
    if r.remaining() != 0 {
        return Err(WalError::Frame(DecodeError::TrailingBytes(r.remaining())));
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_geo::CellId;

    /// The zone and samples of [`ingest_frame`]: a negative NaN
    /// included, so comparisons must be bitwise.
    const ZONE: ZoneId = ZoneId(CellId { col: -3, row: 12 });
    const SAMPLES: [f64; 4] = [812.5, -f64::NAN, 0.0, 1e-300];

    /// One record of each of the six owned kinds.
    fn owned_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Checkin {
                client: ClientId(7),
                point: GeoPoint::new(43.0731, -89.4012).unwrap(),
                t: SimTime::from_micros(123_456),
                coin: 0.3250001,
                networks: vec![NetworkId::NetA, NetworkId::NetC],
            },
            WalRecord::SetQuota {
                zone: ZoneId(CellId { col: 0, row: 0 }),
                network: NetworkId::NetA,
                quota: 140,
            },
            WalRecord::SetEpoch {
                zone: ZoneId(CellId { col: 5, row: -5 }),
                network: NetworkId::NetC,
                epoch: SimDuration::from_micros(1_800_000_000),
            },
            WalRecord::Flush {
                t: SimTime::from_micros(7_200_000_000),
            },
            WalRecord::MigrateOut {
                lo: ZoneId(CellId { col: -3, row: 12 }),
                hi: ZoneId(CellId { col: 5, row: -5 }),
            },
            WalRecord::MigrateIn {
                cells: crate::snapshot::tests::sample_state().cells,
            },
        ]
    }

    fn encode(rec: &WalRecord) -> Vec<u8> {
        let mut enc = RecordEncoder::with_capacity(64);
        let mut frame = Vec::new();
        match rec {
            WalRecord::Checkin {
                client,
                point,
                t,
                coin,
                networks,
            } => {
                enc.begin(TAG_CHECKIN);
                enc.put_client(*client);
                enc.put_point(point);
                enc.put_time(*t);
                enc.put_f64(*coin);
                enc.put_u64(networks.len() as u64);
                for n in networks {
                    enc.put_network(*n);
                }
            }
            WalRecord::SetQuota {
                zone,
                network,
                quota,
            } => {
                enc.begin(TAG_SET_QUOTA);
                enc.put_zone(*zone);
                enc.put_network(*network);
                enc.put_u32(*quota);
            }
            WalRecord::SetEpoch {
                zone,
                network,
                epoch,
            } => {
                enc.begin(TAG_SET_EPOCH);
                enc.put_zone(*zone);
                enc.put_network(*network);
                enc.put_duration(*epoch);
            }
            WalRecord::Flush { t } => {
                enc.begin(TAG_FLUSH);
                enc.put_time(*t);
            }
            WalRecord::MigrateOut { lo, hi } => {
                enc.begin(TAG_MIGRATE_OUT);
                enc.put_zone(*lo);
                enc.put_zone(*hi);
            }
            WalRecord::MigrateIn { cells } => {
                enc.begin(TAG_MIGRATE_IN);
                enc.put_u64(cells.len() as u64);
                for cell in cells {
                    enc.put_cell(cell);
                }
            }
        }
        enc.seal_into(&mut frame);
        frame
    }

    fn ingest_frame() -> Vec<u8> {
        let mut enc = RecordEncoder::with_capacity(64);
        enc.begin(TAG_INGEST);
        enc.put_client(ClientId(9));
        enc.put_u64(300);
        enc.put_zone(ZONE);
        enc.put_network(NetworkId::NetB);
        enc.put_time(SimTime::EPOCH);
        enc.put_u64(SAMPLES.len() as u64);
        for s in SAMPLES {
            enc.put_f64(s);
        }
        let mut frame = Vec::new();
        enc.seal_into(&mut frame);
        frame
    }

    /// One frame of each of the seven record kinds.
    fn sample_frames() -> Vec<Vec<u8>> {
        let mut frames: Vec<Vec<u8>> = owned_records().iter().map(encode).collect();
        frames.push(ingest_frame());
        frames
    }

    #[test]
    fn round_trips_every_record_kind() {
        for rec in owned_records() {
            let frame = encode(&rec);
            let (back, used) = decode_record_view(&frame).unwrap();
            assert_eq!(used, frame.len());
            match back {
                RecordView::Owned(back) => assert_eq!(back, rec),
                other => panic!("expected {rec:?}, got {other:?}"),
            }
        }
        let frame = ingest_frame();
        let Ok((RecordView::Ingest(v), used)) = decode_record_view(&frame) else {
            panic!("not an ingest view");
        };
        assert_eq!(used, frame.len());
        assert_eq!((v.client, v.seq, v.zone), (ClientId(9), 300, ZONE));
        assert_eq!((v.network, v.t), (NetworkId::NetB, SimTime::EPOCH));
        // NaN-safe bitwise comparison.
        let bits: Vec<u64> = v.samples().map(f64::to_bits).collect();
        assert_eq!(bits, SAMPLES.map(f64::to_bits));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for frame in sample_frames() {
            for cut in 0..frame.len() {
                match decode_record_view(&frame[..cut]) {
                    Err(WalError::Frame(_)) => {}
                    other => panic!("cut at {cut}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn corrupt_bytes_are_typed_errors() {
        for frame in sample_frames() {
            let (orig, _) = decode_record_view(&frame).unwrap();
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                // Flipping any single bit must not round-trip silently.
                match decode_record_view(&bad) {
                    Ok((rec, used)) => {
                        // A flip inside the length varint can only shrink
                        // the claimed body if crc happens to match — it
                        // cannot: the crc is computed over the body.
                        assert!(used <= bad.len());
                        assert_ne!(format!("{rec:?}"), format!("{orig:?}"), "bit {bit}");
                    }
                    Err(WalError::Frame(_)) => {}
                    Err(other) => panic!("bit {bit}: {other:?}"),
                }
            }
        }
    }
}
