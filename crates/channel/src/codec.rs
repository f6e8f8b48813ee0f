//! The compact binary wire codec for the control channel.
//!
//! Frame layout (all multi-byte integers little-endian):
//!
//! ```text
//! +-------+-------+---------+-----------------+----------+
//! | magic | ver   | varint  | body            | crc32    |
//! | 2 B   | 1 B   | len(b)  | tag + fields    | 4 B (LE) |
//! +-------+-------+---------+-----------------+----------+
//! ```
//!
//! * `magic` = `0x57 0x43` (`"WC"`), `ver` = 1;
//! * `len` is the body length as an LEB128 varint;
//! * `body` starts with a one-byte message tag (see [`WireMessage`])
//!   followed by the message fields: unsigned integers as varints,
//!   signed integers zigzag-folded first, `f64` as its raw IEEE-754
//!   bits in 8 LE bytes (bit-exact round-trips, NaN included);
//! * `crc32` is the IEEE CRC-32 of the body.
//!
//! [`seal_frame`] (with its in-place form for the wire messages, which
//! writes a body straight into the frame) and [`open_frame`] are the
//! only code that writes or checks this envelope, and they serve every
//! frame in the workspace:
//! wire messages (`"WC"`) here, and in `wiscape-wal` the log records
//! (`"WL"`), snapshots (`"WS"`) and the manifest (`"WM"`), which differ
//! only in their magic and body.
//!
//! Decoding is total: any byte slice either yields a message or a
//! typed [`DecodeError`] — never a panic, never an allocation larger
//! than the input. This file is the wire-decode surface guarded by
//! lint rule **S003**: no `as` numeric casts (conversions go through
//! `From`/`TryFrom`/`to_le_bytes`, so silent truncation cannot hide).

use wiscape_core::{MeasurementTask, SampleReport, ZoneId};
use wiscape_geo::{CellId, GeoPoint};
use wiscape_mobility::ClientId;
use wiscape_simcore::SimTime;
use wiscape_simnet::{NetworkId, TransportKind};

/// Frame magic: `"WC"` (WiScape Channel).
pub const MAGIC: [u8; 2] = [0x57, 0x43];
/// Wire protocol version.
pub const VERSION: u8 = 1;

const TAG_CHECKIN: u8 = 1;
const TAG_TASK: u8 = 2;
const TAG_REPORT: u8 = 3;
const TAG_ACK: u8 = 4;

/// A client's periodic coarse-position check-in (client → coordinator).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckinRequest {
    /// Reporting client.
    pub client: ClientId,
    /// The client's local check-in counter (monotone per client); the
    /// coordinator folds it into its task-issuance coin so pacing stays
    /// reproducible under loss.
    pub tick: u64,
    /// Coarse position (tower-granularity in a real deployment).
    pub point: GeoPoint,
    /// Client clock at check-in.
    pub t: SimTime,
}

/// A measurement task addressed to one client (coordinator → client).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskAssignment {
    /// Destination client.
    pub client: ClientId,
    /// The task to run.
    pub task: MeasurementTask,
}

/// A sequenced sample report (client → coordinator). The `seq` is the
/// client-local sequence number the delivery layer dedups on.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportMsg {
    /// Client-local sequence number (assigned by the uplink queue).
    pub seq: u64,
    /// The report payload.
    pub report: SampleReport,
}

/// A selective acknowledgement (coordinator → client).
#[derive(Debug, Clone, PartialEq)]
pub struct AckMsg {
    /// Destination client.
    pub client: ClientId,
    /// Report sequence numbers received (possibly as duplicates).
    pub seqs: Vec<u64>,
}

/// The four control-channel message types.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Client check-in.
    Checkin(CheckinRequest),
    /// Task assignment.
    Task(TaskAssignment),
    /// Sample report.
    Report(ReportMsg),
    /// Selective ack.
    Ack(AckMsg),
}

/// A borrowed decode of a [`ReportMsg`]: scalar fields are decoded
/// eagerly (they are `Copy` and fit in registers), but the sample block
/// stays a slice of the frame buffer — no `Vec<f64>` is allocated until
/// (unless) the caller asks for an owned message. Samples iterate
/// lazily via [`ReportView::samples`], reading each `f64` straight from
/// its 8 little-endian wire bytes, bit-for-bit the same values the
/// owned decoder produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportView<'a> {
    /// Client-local sequence number (assigned by the uplink queue).
    pub seq: u64,
    /// Reporting client.
    pub client: ClientId,
    /// The task this answers.
    pub task: MeasurementTask,
    /// Fine zone confirmed by the client's GPS at execution time.
    pub zone: ZoneId,
    /// When the measurement ran.
    pub t: SimTime,
    /// Raw sample block: exactly `n * 8` LE bytes, length-validated at
    /// decode time.
    samples: &'a [u8],
}

impl<'a> ReportView<'a> {
    /// Number of samples carried.
    pub fn n_samples(&self) -> usize {
        self.samples.len() / 8
    }

    /// The samples, decoded lazily from the wire bytes.
    pub fn samples(&self) -> SampleIter<'a> {
        SampleIter::new(self.samples)
    }

    /// The raw sample block: [`Self::n_samples`] values of 8
    /// little-endian bytes each, as they sit in the frame.
    pub fn sample_bytes(&self) -> &'a [u8] {
        self.samples
    }

    /// Materializes the owned message (allocates the sample vector).
    pub fn to_msg(&self) -> ReportMsg {
        ReportMsg {
            seq: self.seq,
            report: SampleReport {
                client: self.client,
                task: self.task,
                zone: self.zone,
                t: self.t,
                samples: self.samples().collect(),
            },
        }
    }
}

/// Lazy sample decoder over a raw block of 8-byte LE samples: a
/// [`ReportView`]'s, a staged report's, or a WAL ingest record's.
#[derive(Debug, Clone)]
pub struct SampleIter<'a> {
    chunks: core::slice::ChunksExact<'a, u8>,
}

impl<'a> SampleIter<'a> {
    /// Decodes a raw sample block (see [`ReportView::sample_bytes`]);
    /// a trailing partial value is ignored.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            chunks: bytes.chunks_exact(8),
        }
    }
}

impl Iterator for SampleIter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.chunks.next().map(|c| {
            let mut bits = [0u8; 8];
            bits.copy_from_slice(c);
            f64::from_bits(u64::from_le_bytes(bits))
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.chunks.size_hint()
    }
}

impl ExactSizeIterator for SampleIter<'_> {}

/// A borrowed decode of an [`AckMsg`]: the varint-encoded sequence
/// numbers stay in the frame buffer (validated at decode time) and are
/// re-read lazily by [`AckView::seqs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckView<'a> {
    /// Destination client.
    pub client: ClientId,
    /// Number of sequence numbers carried.
    n: usize,
    /// The validated varint block.
    seqs: &'a [u8],
}

impl<'a> AckView<'a> {
    /// Number of acknowledged sequence numbers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the ack covers no sequences.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The acknowledged sequence numbers, decoded lazily.
    pub fn seqs(&self) -> AckSeqIter<'a> {
        AckSeqIter {
            buf: self.seqs,
            pos: 0,
            left: self.n,
        }
    }

    /// Materializes the owned message (allocates the seq vector).
    pub fn to_msg(&self) -> AckMsg {
        AckMsg {
            client: self.client,
            seqs: self.seqs().collect(),
        }
    }
}

/// Lazy varint decoder over an [`AckView`]'s sequence block. The block
/// was fully validated when the frame decoded, so iteration is total.
#[derive(Debug, Clone)]
pub struct AckSeqIter<'a> {
    buf: &'a [u8],
    pos: usize,
    left: usize,
}

impl Iterator for AckSeqIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut r = Reader::new(self.buf.get(self.pos..).unwrap_or(&[]));
        // Cannot fail: the block was varint-validated at decode time.
        let v = r.varint().ok()?;
        self.pos += r.pos;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for AckSeqIter<'_> {}

/// The borrowed counterpart of [`WireMessage`], produced by
/// [`decode_prefix_ref`] / [`FrameReader`]. `Checkin` and `Task` carry
/// no heap data, so their owned forms are reused; `Report` and `Ack`
/// borrow their variable-length payloads from the frame buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessageRef<'a> {
    /// Client check-in.
    Checkin(CheckinRequest),
    /// Task assignment.
    Task(TaskAssignment),
    /// Sample report (borrowed samples).
    Report(ReportView<'a>),
    /// Selective ack (borrowed seq block).
    Ack(AckView<'a>),
}

impl WireMessageRef<'_> {
    /// Materializes the owned message.
    pub fn to_message(&self) -> WireMessage {
        match self {
            WireMessageRef::Checkin(c) => WireMessage::Checkin(c.clone()),
            WireMessageRef::Task(a) => WireMessage::Task(*a),
            WireMessageRef::Report(v) => WireMessage::Report(v.to_msg()),
            WireMessageRef::Ack(v) => WireMessage::Ack(v.to_msg()),
        }
    }
}

/// Why a frame failed to decode. Every variant is a normal return — the
/// decoder never panics on arbitrary input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends before the frame does.
    Truncated {
        /// Bytes the decoder needed at the failure point.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first two bytes are not the frame magic.
    BadMagic,
    /// The version byte names a protocol we do not speak.
    UnsupportedVersion(u8),
    /// The body checksum does not match.
    BadChecksum {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received body.
        found: u32,
    },
    /// The body starts with an unknown message tag.
    UnknownTag(u8),
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow,
    /// Bytes remain after a complete frame (strict single-frame decode).
    TrailingBytes(usize),
    /// A field decoded to a value outside its domain.
    BadValue(&'static str),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} byte(s), have {have}")
            }
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:#010x}, body is {found:#010x}"
                )
            }
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::VarintOverflow => write!(f, "varint overflows 64 bits"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after frame"),
            DecodeError::BadValue(what) => write!(f, "field out of domain: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320).
// ---------------------------------------------------------------------

/// One 256-entry table lookup, keyed by a `u8` — the index is in
/// bounds by construction (`u8` covers exactly the table's domain).
fn tbl(t: &[u32; 256], b: u8) -> u32 {
    // lint:allow(P001): 256-entry table indexed by u8; usize::from(u8) < 256 by type, cannot panic.
    t[usize::from(b)]
}

/// One CRC step over a single byte via the base table (also the tail
/// loop of the sliced path).
fn crc32_byte(tables: &[[u32; 256]; 8], crc: u32, b: u8) -> u32 {
    let [t0, ..] = tables;
    let [lsb, ..] = crc.to_le_bytes();
    tbl(t0, lsb ^ b) ^ (crc >> 8)
}

/// One table-0 folding step of the slicing recurrence:
/// `crc(k) = t0[lsb(crc(k-1))] ^ (crc(k-1) >> 8)`.
fn crc32_fold(t0: &[u32; 256], crc: u32) -> u32 {
    let [lsb, ..] = crc.to_le_bytes();
    tbl(t0, lsb) ^ (crc >> 8)
}

/// The eight slicing tables, generated once from the bitwise definition
/// (so the reference implementation is still in the source, auditable,
/// and the tables cannot drift from it).
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &mut t;
        for (b, slot) in (0..=255u8).zip(t0.iter_mut()) {
            let mut crc = u32::from(b);
            let mut k = 0;
            while k < 8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                k += 1;
            }
            *slot = crc;
        }
        let t0: &[u32; 256] = t0;
        let entries = t0.iter().zip(
            t1.iter_mut().zip(
                t2.iter_mut().zip(
                    t3.iter_mut().zip(
                        t4.iter_mut()
                            .zip(t5.iter_mut().zip(t6.iter_mut().zip(t7.iter_mut()))),
                    ),
                ),
            ),
        );
        for (base, (s1, (s2, (s3, (s4, (s5, (s6, s7))))))) in entries {
            let mut crc = *base;
            crc = crc32_fold(t0, crc);
            *s1 = crc;
            crc = crc32_fold(t0, crc);
            *s2 = crc;
            crc = crc32_fold(t0, crc);
            *s3 = crc;
            crc = crc32_fold(t0, crc);
            *s4 = crc;
            crc = crc32_fold(t0, crc);
            *s5 = crc;
            crc = crc32_fold(t0, crc);
            *s6 = crc;
            crc = crc32_fold(t0, crc);
            *s7 = crc;
        }
        t
    })
}

/// IEEE CRC-32 of `bytes`, slicing-by-8: each iteration folds eight
/// input bytes through eight precomputed tables instead of running the
/// 8-step bitwise loop per byte. Output is identical to the bitwise
/// definition (the tables are generated from it above).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc32_tables();
    let [t0, t1, t2, t3, t4, t5, t6, t7] = t;
    let mut crc = 0xFFFF_FFFF_u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // `chunks_exact(8)` yields only full chunks; the `else` arm is
        // unreachable but costs nothing and keeps the path panic-free.
        let Some(&[b0, b1, b2, b3, b4, b5, b6, b7]) = chunk.first_chunk::<8>() else {
            continue;
        };
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        let [l0, l1, l2, l3] = lo.to_le_bytes();
        let [h0, h1, h2, h3] = hi.to_le_bytes();
        crc = tbl(t7, l0)
            ^ tbl(t6, l1)
            ^ tbl(t5, l2)
            ^ tbl(t4, l3)
            ^ tbl(t3, h0)
            ^ tbl(t2, h1)
            ^ tbl(t1, h2)
            ^ tbl(t0, h3);
    }
    for &b in chunks.remainder() {
        crc = crc32_byte(t, crc, b);
    }
    !crc
}

// ---------------------------------------------------------------------
// Primitive writers.
// ---------------------------------------------------------------------

/// Hands `v` to `each_byte` as an LEB128 varint, low group first, one
/// byte at a time.
fn leb128(mut v: u64, mut each_byte: impl FnMut(u8)) {
    loop {
        let low = v & 0x7F;
        v >>= 7;
        let [mut byte, ..] = low.to_le_bytes();
        if v != 0 {
            byte |= 0x80;
        }
        each_byte(byte);
        if v == 0 {
            break;
        }
    }
}

/// The number of bytes [`leb128`] emits for `v` (1 to 10).
fn varint_len(v: u64) -> usize {
    let mut len = 0;
    leb128(v, |_| len += 1);
    len
}

/// Appends `v` as an LEB128 varint (the WAL reuses the codec's
/// primitive field encodings; see `wiscape-wal`).
pub fn put_varint(out: &mut Vec<u8>, v: u64) {
    leb128(v, |byte| out.push(byte));
}

/// Zigzag-folds a signed 64-bit value into an unsigned one so small
/// magnitudes (of either sign) stay short on the wire.
fn zigzag(v: i64) -> u64 {
    let folded = v.wrapping_shl(1) ^ (v >> 63);
    u64::from_le_bytes(folded.to_le_bytes())
}

fn unzigzag(u: u64) -> i64 {
    let half = u >> 1;
    let mask = (u & 1).wrapping_neg();
    i64::from_le_bytes((half ^ mask).to_le_bytes())
}

/// Appends `v` zigzag-folded as a varint.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_varint(out, zigzag(v));
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    put_i64(out, i64::from(v));
}

/// Appends `v` as a varint.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    put_varint(out, u64::from(v));
}

/// Appends `v` as its exact little-endian bit pattern (8 bytes):
/// the round-trip through [`Reader::f64`] is bitwise.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a network id as a single byte.
pub fn put_network(out: &mut Vec<u8>, net: NetworkId) {
    out.push(match net {
        NetworkId::NetA => 0,
        NetworkId::NetB => 1,
        NetworkId::NetC => 2,
    });
}

fn put_kind(out: &mut Vec<u8>, kind: TransportKind) {
    out.push(match kind {
        TransportKind::Tcp => 0,
        TransportKind::Udp => 1,
    });
}

/// Appends a zone id as two zigzag varints (col, row).
pub fn put_zone(out: &mut Vec<u8>, zone: ZoneId) {
    put_i32(out, zone.0.col);
    put_i32(out, zone.0.row);
}

/// Appends a geographic point as two raw-bit f64 fields (lat, lon).
pub fn put_point(out: &mut Vec<u8>, p: &GeoPoint) {
    put_f64(out, p.lat_deg());
    put_f64(out, p.lon_deg());
}

/// Appends a simulation time as its microsecond count (zigzag varint).
pub fn put_time(out: &mut Vec<u8>, t: SimTime) {
    put_i64(out, t.as_micros());
}

fn put_task_fields(out: &mut Vec<u8>, task: &MeasurementTask) {
    put_zone(out, task.zone);
    put_network(out, task.network);
    put_kind(out, task.kind);
    put_u32(out, task.n_packets);
    put_u32(out, task.packet_bytes);
}

// ---------------------------------------------------------------------
// Primitive readers.
// ---------------------------------------------------------------------

/// A bounds-checked, panic-free cursor over an encoded byte buffer.
///
/// Every accessor returns a typed [`DecodeError`] instead of slicing,
/// so arbitrary (corrupt, truncated, hostile) bytes can never panic
/// the decode path. Shared with `wiscape-wal`, whose log records use
/// the same primitive field encodings.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Takes the next `n` bytes, or a typed truncation error.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n);
        let out = end.and_then(|e| self.buf.get(self.pos..e));
        match out {
            Some(out) => {
                self.pos += n;
                Ok(out)
            }
            None => Err(DecodeError::Truncated {
                needed: n,
                have: self.remaining(),
            }),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        match self.take(1)? {
            &[b] => Ok(b),
            _ => Err(DecodeError::Truncated { needed: 1, have: 0 }),
        }
    }

    /// Reads an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value: u64 = 0;
        let mut shift: u32 = 0;
        loop {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7F);
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(DecodeError::VarintOverflow);
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag varint.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(unzigzag(self.varint()?))
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        i32::try_from(self.i64()?).map_err(|_| DecodeError::BadValue("32-bit signed field"))
    }

    /// Reads a varint bounded to 32 bits.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError::BadValue("32-bit unsigned field"))
    }

    /// Reads an f64 from its exact little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        let raw = self.take(8)?;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Reads a network id byte.
    pub fn network(&mut self) -> Result<NetworkId, DecodeError> {
        match self.u8()? {
            0 => Ok(NetworkId::NetA),
            1 => Ok(NetworkId::NetB),
            2 => Ok(NetworkId::NetC),
            _ => Err(DecodeError::BadValue("network id")),
        }
    }

    fn kind(&mut self) -> Result<TransportKind, DecodeError> {
        match self.u8()? {
            0 => Ok(TransportKind::Tcp),
            1 => Ok(TransportKind::Udp),
            _ => Err(DecodeError::BadValue("transport kind")),
        }
    }

    /// Reads a zone id (col, row zigzag varints).
    pub fn zone(&mut self) -> Result<ZoneId, DecodeError> {
        let col = self.i32()?;
        let row = self.i32()?;
        Ok(ZoneId(CellId { col, row }))
    }

    /// Reads and validates a geographic point (lat, lon raw-bit f64s).
    pub fn point(&mut self) -> Result<GeoPoint, DecodeError> {
        let lat = self.f64()?;
        let lon = self.f64()?;
        GeoPoint::new(lat, lon).map_err(|_| DecodeError::BadValue("geographic coordinates"))
    }

    /// Reads a simulation time (microsecond zigzag varint).
    pub fn time(&mut self) -> Result<SimTime, DecodeError> {
        Ok(SimTime::from_micros(self.i64()?))
    }

    /// Reads a client id (32-bit varint).
    pub fn client(&mut self) -> Result<ClientId, DecodeError> {
        Ok(ClientId(self.u32()?))
    }

    fn task_fields(&mut self) -> Result<MeasurementTask, DecodeError> {
        Ok(MeasurementTask {
            zone: self.zone()?,
            network: self.network()?,
            kind: self.kind()?,
            n_packets: self.u32()?,
            packet_bytes: self.u32()?,
        })
    }
}

// ---------------------------------------------------------------------
// Message bodies.
// ---------------------------------------------------------------------

/// The widest varint of a `u32` (or zigzag `i32`) field, in bytes.
const U32_MAX_LEN: usize = 5;
/// The widest varint of a `u64` (or zigzag `i64`) field, in bytes.
const U64_MAX_LEN: usize = 10;
/// The widest zone ([`put_zone`]): two zigzag `i32`s.
const ZONE_MAX_LEN: usize = 2 * U32_MAX_LEN;
/// The widest task fields ([`put_task_fields`]): zone, network, kind,
/// packet count and packet size.
const TASK_MAX_LEN: usize = ZONE_MAX_LEN + 1 + 1 + 2 * U32_MAX_LEN;
/// The widest body of a single-sequence ack ([`encode_ack_one`]): tag,
/// client, count and sequence.
const ACK_ONE_MAX_LEN: usize = 1 + U32_MAX_LEN + 1 + U64_MAX_LEN;

/// An upper bound on the length of `msg`'s body ([`encode_body`]): the
/// tag and each field at its widest encoding.
fn body_max_len(msg: &WireMessage) -> usize {
    match msg {
        // Client, tick, point (two raw f64s), time.
        WireMessage::Checkin(_) => 1 + U32_MAX_LEN + U64_MAX_LEN + 16 + U64_MAX_LEN,
        // Client, task.
        WireMessage::Task(_) => 1 + U32_MAX_LEN + TASK_MAX_LEN,
        // Sequence, client, task, zone, time, sample count, samples.
        WireMessage::Report(r) => {
            let fixed = 1 + U64_MAX_LEN + U32_MAX_LEN + TASK_MAX_LEN + ZONE_MAX_LEN;
            let samples = r.report.samples.len().saturating_mul(8);
            (fixed + 2 * U64_MAX_LEN).saturating_add(samples)
        }
        // Client, sequence count, sequences.
        WireMessage::Ack(a) => {
            let seqs = a.seqs.len().saturating_mul(U64_MAX_LEN);
            (1 + U32_MAX_LEN + U64_MAX_LEN).saturating_add(seqs)
        }
    }
}

/// Appends `msg`'s body (its tag and fields) to `body`.
fn encode_body(msg: &WireMessage, body: &mut Vec<u8>) {
    match msg {
        WireMessage::Checkin(c) => {
            body.push(TAG_CHECKIN);
            put_u32(body, c.client.0);
            put_varint(body, c.tick);
            put_point(body, &c.point);
            put_time(body, c.t);
        }
        WireMessage::Task(a) => {
            body.push(TAG_TASK);
            put_u32(body, a.client.0);
            put_task_fields(body, &a.task);
        }
        WireMessage::Report(r) => {
            body.push(TAG_REPORT);
            put_varint(body, r.seq);
            put_u32(body, r.report.client.0);
            put_task_fields(body, &r.report.task);
            put_zone(body, r.report.zone);
            put_time(body, r.report.t);
            put_varint(
                body,
                u64::try_from(r.report.samples.len()).unwrap_or(u64::MAX),
            );
            for &s in &r.report.samples {
                put_f64(body, s);
            }
        }
        WireMessage::Ack(a) => {
            body.push(TAG_ACK);
            put_u32(body, a.client.0);
            put_varint(body, u64::try_from(a.seqs.len()).unwrap_or(u64::MAX));
            for &s in &a.seqs {
                put_varint(body, s);
            }
        }
    }
}

/// Decodes one message body into borrowed views. This is the *only*
/// body decoder — the owned path materializes from it — so owned and
/// borrowed decoding cannot disagree, on values or on errors. Allocates
/// nothing (lint rule S004).
fn decode_body_ref(body: &[u8]) -> Result<WireMessageRef<'_>, DecodeError> {
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let msg = match tag {
        TAG_CHECKIN => WireMessageRef::Checkin(CheckinRequest {
            client: r.client()?,
            tick: r.varint()?,
            point: r.point()?,
            t: r.time()?,
        }),
        TAG_TASK => WireMessageRef::Task(TaskAssignment {
            client: r.client()?,
            task: r.task_fields()?,
        }),
        TAG_REPORT => {
            let seq = r.varint()?;
            let client = r.client()?;
            let task = r.task_fields()?;
            let zone = r.zone()?;
            let t = r.time()?;
            let n = r.varint()?;
            // Each sample is 8 bytes: a length field larger than the
            // remaining body is a lie, not a reason to slice.
            let n = usize::try_from(n).map_err(|_| DecodeError::BadValue("sample count"))?;
            let need = n
                .checked_mul(8)
                .ok_or(DecodeError::BadValue("sample count"))?;
            let samples = r.take(need)?;
            WireMessageRef::Report(ReportView {
                seq,
                client,
                task,
                zone,
                t,
                samples,
            })
        }
        TAG_ACK => {
            let client = r.client()?;
            let n = usize::try_from(r.varint()?).map_err(|_| DecodeError::BadValue("ack count"))?;
            // Acks are varints (>= 1 byte each): bound the claim by what
            // the body can actually hold.
            if r.remaining() < n {
                return Err(DecodeError::Truncated {
                    needed: n,
                    have: r.remaining(),
                });
            }
            // Validate every varint now so AckSeqIter is total later.
            let start = r.pos;
            let mut k = 0;
            while k < n {
                let _ = r.varint()?;
                k += 1;
            }
            WireMessageRef::Ack(AckView {
                client,
                n,
                // `start <= r.pos <= body.len()` by Reader construction;
                // the empty fallback keeps the path total regardless.
                seqs: body.get(start..r.pos).unwrap_or(&[]),
            })
        }
        other => return Err(DecodeError::UnknownTag(other)),
    };
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Appends one frame around `body` to `out`: `magic`, `version`, the
/// body length as a varint, the body, and the CRC-32 of the body. See
/// the module docs for the layout and its users.
pub fn seal_frame(out: &mut Vec<u8>, magic: [u8; 2], version: u8, body: &[u8]) {
    seal_frame_with(out, magic, version, body.len(), |out| {
        out.extend_from_slice(body)
    });
}

/// Appends one frame to `out` whose body `write_body` appends in place,
/// so the body is never built in a buffer of its own: the one frame
/// writer. The length field is laid out for a body of `body_max_len`
/// bytes; a body whose length takes fewer varint bytes moves left once
/// to close the gap (a longer one moves right). Callers size `out`
/// ([`frame_capacity`]): reserving here made each fresh ack frame
/// slower than allocating it with its capacity up front.
fn seal_frame_with(
    out: &mut Vec<u8>,
    magic: [u8; 2],
    version: u8,
    body_max_len: usize,
    write_body: impl FnOnce(&mut Vec<u8>),
) {
    out.extend_from_slice(&magic);
    out.push(version);
    let len_at = out.len();
    let laid_out = varint_len(u64::try_from(body_max_len).unwrap_or(u64::MAX));
    let body_at = len_at + laid_out;
    out.resize(body_at, 0);
    write_body(out);
    let body_len = u64::try_from(out.len() - body_at).unwrap_or(u64::MAX);
    let used = varint_len(body_len);
    if used == laid_out {
        let mut field = out.get_mut(len_at..body_at).into_iter().flatten();
        leb128(body_len, |byte| {
            if let Some(slot) = field.next() {
                *slot = byte;
            }
        });
    } else {
        let (mut field, mut n) = ([0u8; 10], 0);
        leb128(body_len, |byte| {
            if let Some(slot) = field.get_mut(n) {
                *slot = byte;
            }
            n += 1;
        });
        out.splice(len_at..body_at, field.into_iter().take(used));
    }
    let crc = crc32(out.get(len_at + used..).unwrap_or_default());
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The capacity that holds a frame whose body is at most
/// `body_max_len` bytes, as [`seal_frame_with`] lays it out: magic,
/// version, the length field, the body and the CRC.
fn frame_capacity(body_max_len: usize) -> usize {
    let len_field = varint_len(u64::try_from(body_max_len).unwrap_or(u64::MAX));
    (3 + len_field + 4).saturating_add(body_max_len)
}

/// Opens the frame at the front of `buf`, checking its magic, version,
/// length and CRC, and returns the body with the number of bytes the
/// whole frame took. What follows the frame is the caller's: a stream
/// reads on, a single-frame file rejects it. The one frame checker
/// (see [`seal_frame`]); allocates nothing (lint rule S004).
pub fn open_frame(buf: &[u8], magic: [u8; 2], version: u8) -> Result<(&[u8], usize), DecodeError> {
    let mut r = Reader::new(buf);
    if r.take(2)? != magic {
        return Err(DecodeError::BadMagic);
    }
    let found_version = r.u8()?;
    if found_version != version {
        return Err(DecodeError::UnsupportedVersion(found_version));
    }
    let len = usize::try_from(r.varint()?).map_err(|_| DecodeError::BadValue("frame length"))?;
    let body = r.take(len)?;
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(r.take(4)?);
    let expected = u32::from_le_bytes(crc_bytes);
    let found = crc32(body);
    if expected != found {
        return Err(DecodeError::BadChecksum { expected, found });
    }
    Ok((body, r.pos))
}

/// Encodes one message as a self-delimiting frame: one allocation, sized
/// for the message's widest encoding, with the body written in place.
pub fn encode(msg: &WireMessage) -> Vec<u8> {
    let body_max = body_max_len(msg);
    let mut out = Vec::with_capacity(frame_capacity(body_max));
    seal_frame_with(&mut out, MAGIC, VERSION, body_max, |body| {
        encode_body(msg, body)
    });
    out
}

/// Encodes the ack frame for a single report sequence: byte-identical
/// to `encode(&WireMessage::Ack(AckMsg { client, seqs: vec![seq] }))`
/// without building the one-element vector (the server acks every
/// report copy individually, so this is its hottest encode path).
pub fn encode_ack_one(client: ClientId, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_capacity(ACK_ONE_MAX_LEN));
    seal_frame_with(&mut out, MAGIC, VERSION, ACK_ONE_MAX_LEN, |body| {
        body.push(TAG_ACK);
        put_u32(body, client.0);
        put_varint(body, 1);
        put_varint(body, seq);
    });
    out
}

/// Decodes one frame from the start of `bytes` into borrowed views,
/// returning the message and the number of bytes consumed (for
/// concatenated-frame streams). Zero-copy: the returned views slice the
/// input buffer; nothing is allocated (lint rule S004).
pub fn decode_prefix_ref(bytes: &[u8]) -> Result<(WireMessageRef<'_>, usize), DecodeError> {
    let (body, used) = open_frame(bytes, MAGIC, VERSION)?;
    Ok((decode_body_ref(body)?, used))
}

/// Decodes exactly one frame into borrowed views; trailing bytes are an
/// error.
pub fn decode_ref(bytes: &[u8]) -> Result<WireMessageRef<'_>, DecodeError> {
    let (msg, used) = decode_prefix_ref(bytes)?;
    if used != bytes.len() {
        return Err(DecodeError::TrailingBytes(bytes.len() - used));
    }
    Ok(msg)
}

/// Decodes exactly one frame into an owned message; trailing bytes are
/// an error. Materializes [`decode_ref`]'s views, so values and errors
/// are identical by construction.
pub fn decode(bytes: &[u8]) -> Result<WireMessage, DecodeError> {
    decode_ref(bytes).map(|m| m.to_message())
}

/// Streaming decoder over a batched transmission (concatenated frames).
/// Each call to [`FrameReader::next_frame`] decodes one frame in place
/// and hands back borrowed views — no accumulation `Vec`, no per-frame
/// copies. After any error the reader is exhausted (a torn byte poisons
/// everything behind it; frame boundaries cannot be trusted past it).
#[derive(Debug, Clone)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Starts reading frames from the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Decodes the next frame, or `None` at end of input. Allocates
    /// nothing (lint rule S004).
    pub fn next_frame(&mut self) -> Option<Result<WireMessageRef<'a>, DecodeError>> {
        if self.pos >= self.buf.len() {
            return None;
        }
        match decode_prefix_ref(self.buf.get(self.pos..).unwrap_or(&[])) {
            Ok((msg, used)) => {
                self.pos += used;
                Some(Ok(msg))
            }
            Err(e) => {
                self.pos = self.buf.len();
                Some(Err(e))
            }
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
}

impl<'a> Iterator for FrameReader<'a> {
    type Item = Result<WireMessageRef<'a>, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(seq: u64) -> WireMessage {
        WireMessage::Report(ReportMsg {
            seq,
            report: SampleReport {
                client: ClientId(7),
                task: MeasurementTask {
                    zone: ZoneId(CellId { col: -3, row: 11 }),
                    network: NetworkId::NetB,
                    kind: TransportKind::Udp,
                    n_packets: 20,
                    packet_bytes: 1200,
                },
                zone: ZoneId(CellId { col: -3, row: 12 }),
                t: SimTime::at(2, 13.5),
                samples: vec![812.25, 799.0, f64::NAN, 0.0],
            },
        })
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let msg = sample_report(42);
        let bytes = encode(&msg);
        let back = decode(&bytes).unwrap();
        // NaN breaks PartialEq; compare through the bit patterns.
        match (&msg, &back) {
            (WireMessage::Report(a), WireMessage::Report(b)) => {
                assert_eq!(a.seq, b.seq);
                assert_eq!(a.report.client, b.report.client);
                assert_eq!(a.report.task, b.report.task);
                assert_eq!(a.report.zone, b.report.zone);
                assert_eq!(a.report.t, b.report.t);
                let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.report.samples), bits(&b.report.samples));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    /// The encoder [`encode`] replaced: the body built in a `Vec` of its
    /// own, then copied into the frame.
    fn reference_encode(msg: &WireMessage) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        encode_body(msg, &mut body);
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        put_varint(&mut out, u64::try_from(body.len()).unwrap());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// The LEB128 writer [`put_varint`] replaced.
    fn reference_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let low = v & 0x7F;
            v >>= 7;
            let [mut byte, ..] = low.to_le_bytes();
            if v != 0 {
                byte |= 0x80;
            }
            out.push(byte);
            if v == 0 {
                break;
            }
        }
    }

    /// Every message kind at its narrowest and widest field values, with
    /// sample and sequence counts across the one-, two- and three-byte
    /// length fields.
    fn frames_to_check() -> Vec<WireMessage> {
        let mut msgs = Vec::new();
        let zones = [
            CellId { col: 0, row: 0 },
            CellId {
                col: i32::MIN,
                row: i32::MAX,
            },
        ];
        for (client, tick, t) in [
            (0, 0, SimTime::EPOCH),
            (u32::MAX, u64::MAX, SimTime::from_micros(i64::MIN)),
            (77, 300, SimTime::at(2, 13.5)),
        ] {
            msgs.push(WireMessage::Checkin(CheckinRequest {
                client: ClientId(client),
                tick,
                point: GeoPoint::new(43.0731, -89.4012).unwrap(),
                t,
            }));
            for zone in zones {
                let task = MeasurementTask {
                    zone: ZoneId(zone),
                    network: NetworkId::NetC,
                    kind: TransportKind::Tcp,
                    n_packets: client,
                    packet_bytes: client,
                };
                msgs.push(WireMessage::Task(TaskAssignment {
                    client: ClientId(client),
                    task,
                }));
                for n in [0, 1, 5, 6, 14, 15, 16, 60, 2038, 2039, 2045, 2047] {
                    msgs.push(WireMessage::Report(ReportMsg {
                        seq: tick,
                        report: SampleReport {
                            client: ClientId(client),
                            task,
                            zone: ZoneId(zone),
                            t,
                            samples: (0..n).map(|k| k as f64 * 0.5).collect(),
                        },
                    }));
                }
            }
            for n in [0, 1, 2, 12, 13, 20, 1700] {
                msgs.push(WireMessage::Ack(AckMsg {
                    client: ClientId(client),
                    seqs: (0..n).map(|k| tick.wrapping_add(k)).collect(),
                }));
            }
        }
        msgs
    }

    #[test]
    fn frames_match_reference_encoder_in_one_allocation() {
        let (mut moved_left, mut in_place) = (0, 0);
        for msg in frames_to_check() {
            let frame = encode(&msg);
            assert_eq!(frame, reference_encode(&msg), "{msg:?}");
            // Capacity as reserved up front: the frame never grew, so its
            // one allocation is the only one.
            assert_eq!(frame.capacity(), frame_capacity(body_max_len(&msg)));
            let (body, _) = open_frame(&frame, MAGIC, VERSION).unwrap();
            let laid_out = varint_len(u64::try_from(body_max_len(&msg)).unwrap());
            let used = varint_len(u64::try_from(body.len()).unwrap());
            moved_left += usize::from(used < laid_out);
            in_place += usize::from(used == laid_out);
        }
        assert!(
            moved_left > 10 && in_place > 10,
            "{moved_left} moved, {in_place} in place"
        );
        for client in [0, 9, 127, 128, u32::MAX] {
            for seq in [0, 1, 127, 128, 300, u64::MAX] {
                let frame = encode_ack_one(ClientId(client), seq);
                let msg = WireMessage::Ack(AckMsg {
                    client: ClientId(client),
                    seqs: vec![seq],
                });
                assert_eq!(frame, reference_encode(&msg));
                assert_eq!(frame.capacity(), frame_capacity(ACK_ONE_MAX_LEN));
            }
        }
    }

    #[test]
    fn sealed_frames_match_reference_for_every_body_length() {
        for len in (0..300).chain([16_383, 16_384, 16_385]) {
            let body: Vec<u8> = (0..len).map(|k| (k % 251) as u8).collect();
            let mut frame = Vec::new();
            seal_frame(&mut frame, MAGIC, VERSION, &body);
            let mut want = MAGIC.to_vec();
            want.push(VERSION);
            reference_varint(&mut want, len as u64);
            want.extend_from_slice(&body);
            want.extend_from_slice(&crc32(&body).to_le_bytes());
            assert_eq!(frame, want, "body of {len} bytes");
            // A bound wider or narrower than the body moves it, same bytes.
            for bound in [0, len / 2, len + 200, len * 200] {
                let mut moved = vec![0xEE];
                seal_frame_with(&mut moved, MAGIC, VERSION, bound, |out| {
                    out.extend_from_slice(&body)
                });
                assert_eq!(moved.get(1..), Some(&want[..]), "{len} B under {bound}");
            }
        }
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            put_varint(&mut got, v);
            reference_varint(&mut want, v);
            assert_eq!(got, want, "{v}");
        }
    }

    #[test]
    fn checkin_task_ack_round_trip() {
        let msgs = [
            WireMessage::Checkin(CheckinRequest {
                client: ClientId(0),
                tick: u64::MAX,
                point: GeoPoint::new(43.0731, -89.4012).unwrap(),
                t: SimTime::from_micros(-5),
            }),
            WireMessage::Task(TaskAssignment {
                client: ClientId(u32::MAX),
                task: MeasurementTask {
                    zone: ZoneId(CellId {
                        col: i32::MIN,
                        row: i32::MAX,
                    }),
                    network: NetworkId::NetC,
                    kind: TransportKind::Tcp,
                    n_packets: 0,
                    packet_bytes: u32::MAX,
                },
            }),
            WireMessage::Ack(AckMsg {
                client: ClientId(9),
                seqs: vec![0, 1, u64::MAX],
            }),
        ];
        for msg in &msgs {
            assert_eq!(&decode(&encode(msg)).unwrap(), msg);
        }
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_cut() {
        let bytes = encode(&sample_report(3));
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { .. }) || cut < 3,
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode(&sample_report(9));
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    decode(&corrupt).is_err(),
                    "flip byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn oversized_length_claims_do_not_allocate() {
        // A report body claiming u64::MAX samples with a 30-byte frame
        // must fail fast with a typed error.
        let mut body = vec![TAG_REPORT];
        put_varint(&mut body, 1); // seq
        put_u32(&mut body, 1); // client
        put_task_fields(
            &mut body,
            &MeasurementTask {
                zone: ZoneId(CellId { col: 0, row: 0 }),
                network: NetworkId::NetA,
                kind: TransportKind::Udp,
                n_packets: 1,
                packet_bytes: 1,
            },
        );
        put_zone(&mut body, ZoneId(CellId { col: 0, row: 0 }));
        put_time(&mut body, SimTime::EPOCH);
        put_varint(&mut body, u64::MAX); // sample count lie
        let mut frame = Vec::new();
        seal_frame(&mut frame, MAGIC, VERSION, &body);
        let err = decode(&frame).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::BadValue(_) | DecodeError::Truncated { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn concatenated_frames_decode_in_order() {
        let a = encode(&WireMessage::Ack(AckMsg {
            client: ClientId(1),
            seqs: vec![5],
        }));
        let b = encode(&WireMessage::Ack(AckMsg {
            client: ClientId(2),
            seqs: vec![6, 7],
        }));
        let stream: Vec<u8> = a.iter().chain(&b).copied().collect();
        let msgs: Vec<WireMessage> = FrameReader::new(&stream)
            .map(|m| m.map(|m| m.to_message()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(msgs.len(), 2);
        assert!(decode(&stream).is_err(), "strict decode rejects trailing");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The slicing-by-8 path must agree with the bitwise definition at
    /// every length (chunked main loop + per-byte tail).
    #[test]
    fn crc32_sliced_matches_bitwise_reference_at_every_length() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFF_u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(151) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn report_view_matches_owned_decode() {
        let msg = sample_report(42);
        let bytes = encode(&msg);
        let (view, used) = decode_prefix_ref(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        let WireMessageRef::Report(v) = view else {
            panic!("wrong shape");
        };
        let WireMessage::Report(owned) = decode(&bytes).unwrap() else {
            panic!("wrong shape");
        };
        assert_eq!(v.seq, owned.seq);
        assert_eq!(v.client, owned.report.client);
        assert_eq!(v.task, owned.report.task);
        assert_eq!(v.zone, owned.report.zone);
        assert_eq!(v.t, owned.report.t);
        assert_eq!(v.n_samples(), owned.report.samples.len());
        let view_bits: Vec<u64> = v.samples().map(f64::to_bits).collect();
        let owned_bits: Vec<u64> = owned.report.samples.iter().map(|s| s.to_bits()).collect();
        assert_eq!(view_bits, owned_bits, "NaN included, bit for bit");
        // And the materialized message equals the owned decode.
        assert_eq!(view_bits.len(), v.to_msg().report.samples.len());
    }

    #[test]
    fn ack_view_is_lazy_but_validated() {
        let msg = WireMessage::Ack(AckMsg {
            client: ClientId(9),
            seqs: vec![0, 127, 128, u64::MAX],
        });
        let bytes = encode(&msg);
        let WireMessageRef::Ack(v) = decode_ref(&bytes).unwrap() else {
            panic!("wrong shape");
        };
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.seqs().collect::<Vec<_>>(), vec![0, 127, 128, u64::MAX]);
        assert_eq!(WireMessage::Ack(v.to_msg()), msg);
    }

    #[test]
    fn frame_reader_streams_and_poisons_after_error() {
        let a = encode(&WireMessage::Ack(AckMsg {
            client: ClientId(1),
            seqs: vec![5],
        }));
        let b = encode(&sample_report(2));
        let mut stream: Vec<u8> = a.iter().chain(&b).copied().collect();
        let mut reader = FrameReader::new(&stream);
        assert!(matches!(
            reader.next_frame(),
            Some(Ok(WireMessageRef::Ack(_)))
        ));
        assert!(matches!(
            reader.next_frame(),
            Some(Ok(WireMessageRef::Report(_)))
        ));
        assert!(reader.next_frame().is_none());
        assert_eq!(reader.remaining(), 0);
        // Corrupt the second frame: the reader reports one error, then
        // refuses to resynchronize.
        let flip = a.len() + 7;
        stream[flip] ^= 0x10;
        let mut reader = FrameReader::new(&stream);
        assert!(matches!(reader.next_frame(), Some(Ok(_))));
        assert!(matches!(reader.next_frame(), Some(Err(_))));
        assert!(reader.next_frame().is_none());
    }

    #[test]
    fn encode_ack_one_is_byte_identical_to_the_general_encoder() {
        for (client, seq) in [
            (ClientId(0), 0u64),
            (ClientId(7), 127),
            (ClientId(u32::MAX), u64::MAX),
        ] {
            let general = encode(&WireMessage::Ack(AckMsg {
                client,
                seqs: vec![seq],
            }));
            assert_eq!(encode_ack_one(client, seq), general);
        }
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0xFF; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint().unwrap_err(), DecodeError::VarintOverflow);
    }
}
