//! Segmented append-only log storage.
//!
//! Records live in files named `wal-{index:010}.seg`, where `index` is
//! the global record index of the segment's first record. The writer
//! collects framed records in a fixed-size group buffer and writes each
//! group to the current segment in one system call (group commit); it
//! rotates to a new segment once the current one passes a byte
//! threshold. Rotation is deferred to non-hot call sites (building a
//! filename allocates, and the hot append path must stay
//! allocation-free).
//!
//! The scanner, [`scan_views`], replays the whole directory in order,
//! decoding each record with [`decode_record_view`] straight out of a
//! fixed-size read window, so its memory does not grow with the segment
//! (a deferred rotation can leave one large). Its torn-tail
//! policy mirrors journaled filesystems: a truncated frame at the very
//! end of the *final* segment is treated as an interrupted append and
//! cleanly dropped; a truncated frame anywhere else, or any corrupt
//! frame (bad magic, bad checksum, bad field), is a typed
//! [`WalError`] — never a panic, and never a silent skip.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use wiscape_channel::codec::DecodeError;

use crate::record::{decode_record_view, io_err, RecordView, WalError};

/// Bytes a scan reads from a segment at a time.
const SCAN_BYTES: u64 = 1 << 20;

/// Default segment rotation threshold in bytes.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Builds the path of the segment whose first record has global
/// index `first`.
pub fn segment_path(dir: &Path, first: u64) -> PathBuf {
    dir.join(format!("wal-{first:010}.seg"))
}

/// Opens (creating) the segment whose first record has global index
/// `first`, for appending.
fn open_segment(dir: &Path, first: u64) -> Result<File, WalError> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(segment_path(dir, first))
        .map_err(io_err("open segment"))
}

/// Lists the segment files under `dir` as `(first_record_index, path)`
/// pairs in ascending order. Non-segment files are ignored.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segs: Vec<(u64, PathBuf)> = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segs),
        Err(e) => return Err(io_err("list")(e)),
    };
    for entry in entries {
        let entry = entry.map_err(io_err("list"))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
        else {
            continue;
        };
        let Some(first) = stem.parse::<u64>().ok() else {
            continue;
        };
        segs.push((first, entry.path()));
    }
    segs.sort();
    Ok(segs)
}

/// Bytes in one write group: the in-memory buffer a [`WalWriter`]
/// collects records in before they go to the OS in one `write_all`.
pub const GROUP_BYTES: usize = 256 << 10;

/// Obs handles of the write path: counters only (registration is the
/// already-inventoried alloc-suppressed `wiscape_obs::counter`, and
/// `inc`/`add` are allocation-free).
pub(crate) struct WalObs {
    pub(crate) bytes_appended: wiscape_obs::Counter,
    pub(crate) records: wiscape_obs::Counter,
    pub(crate) append_errors: wiscape_obs::Counter,
    pub(crate) group_writes: wiscape_obs::Counter,
}

pub(crate) fn wal_obs() -> &'static WalObs {
    static M: OnceLock<WalObs> = OnceLock::new();
    M.get_or_init(|| WalObs {
        bytes_appended: wiscape_obs::counter("wal/bytes_appended"),
        records: wiscape_obs::counter("wal/records"),
        append_errors: wiscape_obs::counter("wal/append_errors"),
        group_writes: wiscape_obs::counter("wal/group_writes"),
    })
}

/// Append-only writer over the segment files of one WAL directory.
///
/// Appends collect in one pre-sized group buffer of [`GROUP_BYTES`];
/// the group goes to the OS in a single `write_all` when the next frame
/// would not fit, or when the owner calls [`WalWriter::write_group`]
/// (directly, or through [`WalWriter::maybe_rotate`],
/// [`WalWriter::append_torn`] or [`WalWriter::sync`]). Dropping a
/// writer writes nothing: a drop stands for process death, and the
/// unwritten group dies with the process.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    /// The current segment.
    file: File,
    /// Bytes written to the current segment so far.
    seg_bytes: u64,
    /// Records written to the OS across all segments.
    records: u64,
    /// Bytes written to the OS across all segments.
    bytes: u64,
    /// Records whose group write failed.
    lost_records: u64,
    /// Writes issued, one per group (or per frame larger than a group).
    group_writes: u64,
    /// The group not yet written: whole frames, in append order.
    group: Vec<u8>,
    /// Records in `group`.
    group_records: u64,
    segment_limit: u64,
}

impl WalWriter {
    /// A writer positioned at the start of an empty directory.
    pub fn create(dir: &Path, segment_limit: u64) -> Result<Self, WalError> {
        fs::create_dir_all(dir).map_err(io_err("create dir"))?;
        let file = open_segment(dir, 0)?;
        Ok(Self::new(dir, file, segment_limit, 0, 0, 0))
    }

    /// A writer resuming after `records` already-durable records, with
    /// the final segment (starting at `seg_first`, currently holding
    /// `valid_bytes` valid bytes) truncated to drop any torn tail.
    pub fn resume(
        dir: &Path,
        segment_limit: u64,
        records: u64,
        bytes: u64,
        seg_first: u64,
        valid_bytes: u64,
    ) -> Result<Self, WalError> {
        let path = segment_path(dir, seg_first);
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err("reopen"))?;
        file.set_len(valid_bytes).map_err(io_err("truncate"))?;
        file.seek(SeekFrom::End(0)).map_err(io_err("seek"))?;
        Ok(Self::new(
            dir,
            file,
            segment_limit,
            valid_bytes,
            records,
            bytes,
        ))
    }

    fn new(
        dir: &Path,
        file: File,
        segment_limit: u64,
        seg_bytes: u64,
        records: u64,
        bytes: u64,
    ) -> Self {
        Self {
            dir: dir.to_path_buf(),
            file,
            seg_bytes,
            records,
            bytes,
            lost_records: 0,
            group_writes: 0,
            group: Vec::with_capacity(GROUP_BYTES),
            group_records: 0,
            segment_limit: segment_limit.max(1),
        }
    }

    /// Records written to the OS. Records still in the group, and
    /// records of a failed group write, are not counted.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes written to the OS.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes
    }

    /// Global index the next appended record gets: the records written
    /// plus those waiting in the group.
    pub fn next_record(&self) -> u64 {
        self.records + self.group_records
    }

    /// Records lost to failed group writes.
    pub fn lost_records(&self) -> u64 {
        self.lost_records
    }

    /// Writes issued to the OS.
    pub fn group_writes(&self) -> u64 {
        self.group_writes
    }

    /// Writes the group, then rotates to a fresh segment if the current
    /// one is past the byte limit. Allocates (filename), so callers
    /// keep it off the hot ingest path; appends simply continue into
    /// the oversized segment until the next non-hot boundary.
    pub fn maybe_rotate(&mut self) -> Result<(), WalError> {
        self.write_group()?;
        if self.seg_bytes >= self.segment_limit {
            self.file = open_segment(&self.dir, self.records)?;
            self.seg_bytes = 0;
        }
        Ok(())
    }

    /// Adds one framed record to the group. Hot-path safe: no
    /// allocation, and no system call unless the frame does not fit in
    /// what is left of the group, in which case the group is written
    /// first. A frame larger than a whole group is written on its own.
    /// An `Err` reports a failed write; its records are counted in
    /// [`Self::lost_records`].
    pub fn append(&mut self, frame: &[u8]) -> Result<(), WalError> {
        let mut out = Ok(());
        if frame.len() > GROUP_BYTES - self.group.len() {
            out = self.write_group();
        }
        if frame.len() > GROUP_BYTES {
            return out.and(self.write_out(frame, 1));
        }
        self.group.extend_from_slice(frame);
        self.group_records += 1;
        out
    }

    /// Writes the group to the OS in one `write_all`. On failure the
    /// group's records are dropped and counted in
    /// [`Self::lost_records`]; [`Self::records`] and
    /// [`Self::bytes_appended`] stay at what reached the OS before.
    pub fn write_group(&mut self) -> Result<(), WalError> {
        if self.group.is_empty() {
            return Ok(());
        }
        let group = std::mem::take(&mut self.group);
        let records = std::mem::take(&mut self.group_records);
        let out = self.write_out(&group, records);
        self.group = group;
        self.group.clear();
        out
    }

    /// One write of `records` whole frames.
    fn write_out(&mut self, frames: &[u8], records: u64) -> Result<(), WalError> {
        let obs = wal_obs();
        if let Err(e) = self.file.write_all(frames) {
            self.lost_records += records;
            obs.append_errors.add(records);
            return Err(io_err("append")(e));
        }
        let len = frames.len() as u64;
        self.records += records;
        self.bytes += len;
        self.seg_bytes += len;
        self.group_writes += 1;
        obs.records.add(records);
        obs.bytes_appended.add(len);
        obs.group_writes.inc();
        Ok(())
    }

    /// Writes the group, then only the first `keep` bytes of `frame` —
    /// a simulated torn write. The writer's record accounting is *not*
    /// advanced; the torn bytes are an artifact on disk that recovery
    /// must drop.
    pub fn append_torn(&mut self, frame: &[u8], keep: usize) -> Result<(), WalError> {
        self.write_group()?;
        let keep = keep.min(frame.len());
        let Some(partial) = frame.get(..keep) else {
            return Err(WalError::Corrupt("torn range"));
        };
        self.file.write_all(partial).map_err(io_err("append"))
    }

    /// Writes the group, then syncs the current segment to disk.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.write_group()?;
        self.file.sync_all().map_err(io_err("sync"))
    }
}

/// What a full scan of the log found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSummary {
    /// Records decoded (including any skipped before the snapshot
    /// position).
    pub records_seen: u64,
    /// Valid bytes across all segments (torn tail excluded).
    pub valid_bytes: u64,
    /// Torn bytes dropped from the final segment's tail.
    pub torn_bytes: u64,
    /// First record index of the final segment.
    pub last_seg_first: u64,
    /// Valid bytes within the final segment.
    pub last_seg_valid_bytes: u64,
}

/// Scans every segment under `dir` in order, invoking `visit` with the
/// [`RecordView`] of each record whose global index is `>= skip`
/// (records before `skip` are decoded for integrity but not delivered —
/// they are covered by a snapshot). `Ingest` samples stay inside the
/// read window, so replay folds them without a per-record allocation.
/// Each segment is read in windows of `SCAN_BYTES` (1 MiB), so a scan holds
/// one window (grown only to fit a record that is larger), however
/// large the segment.
///
/// Torn-tail policy: a `Truncated` decode error at the tail of the
/// final segment is clean truncation (counted in
/// [`ScanSummary::torn_bytes`]); the same error in an earlier segment,
/// or any other decode error anywhere, is returned as a typed
/// [`WalError`].
pub fn scan_views<F>(dir: &Path, skip: u64, mut visit: F) -> Result<ScanSummary, WalError>
where
    F: FnMut(u64, RecordView<'_>) -> Result<(), WalError>,
{
    let segs = list_segments(dir)?;
    let mut summary = ScanSummary::default();
    let mut index: u64 = 0;
    let total = segs.len();
    let mut buf = Vec::new();
    for (pos, (first, path)) in segs.into_iter().enumerate() {
        if first != index {
            return Err(WalError::Corrupt("segment sequence gap"));
        }
        let is_last = pos + 1 == total;
        let mut file = File::open(&path).map_err(io_err("read segment"))?;
        buf.clear();
        let mut off = 0usize;
        let mut eof = false;
        summary.last_seg_first = first;
        summary.last_seg_valid_bytes = 0;
        loop {
            let rest = buf.get(off..).unwrap_or_default();
            if rest.is_empty() && eof {
                break;
            }
            let cut = match decode_record_view(rest) {
                Ok((record, used)) => {
                    if index >= skip {
                        visit(index, record)?;
                    }
                    off += used;
                    index += 1;
                    summary.records_seen += 1;
                    summary.valid_bytes += used as u64;
                    summary.last_seg_valid_bytes += used as u64;
                    continue;
                }
                Err(e @ WalError::Frame(DecodeError::Truncated { .. })) => e,
                Err(e) => return Err(e),
            };
            if !eof {
                // The window ends inside a record: slide it, read on.
                buf.drain(..off);
                off = 0;
                eof = read_window(&mut file, &mut buf)?;
            } else if is_last {
                // Interrupted append: everything before `off` is
                // intact, the tail is dropped.
                summary.torn_bytes = (buf.len() - off) as u64;
                break;
            } else {
                return Err(cut);
            }
        }
    }
    Ok(summary)
}

/// Appends up to [`SCAN_BYTES`] more bytes of `file` to `buf`,
/// returning whether the file is exhausted.
fn read_window(file: &mut File, buf: &mut Vec<u8>) -> Result<bool, WalError> {
    let read = file
        .take(SCAN_BYTES)
        .read_to_end(buf)
        .map_err(io_err("read segment"))?;
    Ok((read as u64) < SCAN_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordEncoder, WalRecord, TAG_FLUSH, TAG_INGEST};
    use wiscape_core::ZoneId;
    use wiscape_geo::CellId;
    use wiscape_mobility::ClientId;
    use wiscape_simcore::SimTime;
    use wiscape_simnet::NetworkId;

    fn flush_frame(t_us: i64) -> Vec<u8> {
        let mut enc = RecordEncoder::with_capacity(16);
        let mut frame = Vec::new();
        enc.begin(TAG_FLUSH);
        enc.put_time(SimTime::from_micros(t_us));
        enc.seal_into(&mut frame);
        frame
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wiscape-wal-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn appends_rotate_and_scan_in_order() {
        let dir = temp_dir("rotate");
        let mut w = WalWriter::create(&dir, 64).unwrap();
        for i in 0..20 {
            w.maybe_rotate().unwrap();
            w.append(&flush_frame(i)).unwrap();
        }
        w.sync().unwrap();
        assert!(list_segments(&dir).unwrap().len() > 1, "expected rotation");
        let mut seen = Vec::new();
        let summary = scan_views(&dir, 0, |idx, view| {
            match view {
                RecordView::Owned(WalRecord::Flush { t }) => seen.push((idx, t.as_micros())),
                other => panic!("unexpected {other:?}"),
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(summary.records_seen, 20);
        assert_eq!(summary.torn_bytes, 0);
        let expect: Vec<(u64, i64)> = (0..20).map(|i| (i as u64, i as i64)).collect();
        assert_eq!(seen, expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_in_final_segment_is_clean() {
        let dir = temp_dir("torn");
        let mut w = WalWriter::create(&dir, u64::MAX).unwrap();
        w.append(&flush_frame(1)).unwrap();
        let frame = flush_frame(2);
        w.append_torn(&frame, frame.len() - 3).unwrap();
        w.sync().unwrap();
        let summary = scan_views(&dir, 0, |_, _| Ok(())).unwrap();
        assert_eq!(summary.records_seen, 1);
        assert_eq!(summary.torn_bytes, (frame.len() - 3) as u64);
        // Resume truncates the tail and the next append lands clean.
        let mut w2 = WalWriter::resume(
            &dir,
            u64::MAX,
            summary.records_seen,
            summary.valid_bytes,
            summary.last_seg_first,
            summary.last_seg_valid_bytes,
        )
        .unwrap();
        w2.append(&flush_frame(3)).unwrap();
        w2.sync().unwrap();
        let summary2 = scan_views(&dir, 0, |_, _| Ok(())).unwrap();
        assert_eq!(summary2.records_seen, 2);
        assert_eq!(summary2.torn_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    fn indices_on_disk(dir: &Path) -> Vec<u64> {
        let mut seen = Vec::new();
        let summary = scan_views(dir, 0, |idx, _| {
            seen.push(idx);
            Ok(())
        })
        .unwrap();
        assert_eq!(summary.torn_bytes, 0);
        seen
    }

    /// A drop stands for process death: the group not yet written dies
    /// with the writer, and every earlier group stays on disk.
    #[test]
    fn dropped_writer_leaves_only_earlier_groups() {
        let dir = temp_dir("drop");
        let mut w = WalWriter::create(&dir, u64::MAX).unwrap();
        for i in 0..3 {
            w.append(&flush_frame(i)).unwrap();
        }
        w.write_group().unwrap();
        for i in 3..5 {
            w.append(&flush_frame(i)).unwrap();
        }
        assert_eq!((w.records(), w.next_record()), (3, 5));
        drop(w);
        assert_eq!(indices_on_disk(&dir), vec![0, 1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A group goes out when the next frame would not fit, and a frame
    /// larger than a whole group goes out on its own, after the group
    /// before it.
    #[test]
    fn full_groups_and_oversize_frames_write_in_order() {
        let dir = temp_dir("full");
        let mut w = WalWriter::create(&dir, u64::MAX).unwrap();
        let frame = flush_frame(1);
        let per_group = GROUP_BYTES / frame.len();
        for _ in 0..=per_group {
            w.append(&frame).unwrap();
        }
        assert_eq!(w.group_writes(), 1, "the full group went out");
        assert_eq!(w.records(), per_group as u64);
        // One ingest record of 40,000 samples: 320 kB, over a group.
        let mut enc = RecordEncoder::with_capacity(16);
        let mut big = Vec::new();
        enc.begin(TAG_INGEST);
        enc.put_client(ClientId(1));
        enc.put_u64(0);
        enc.put_zone(ZoneId(CellId { col: 0, row: 0 }));
        enc.put_network(NetworkId::NetA);
        enc.put_time(SimTime::EPOCH);
        enc.put_u64(40_000);
        for i in 0..40_000 {
            enc.put_f64(f64::from(i));
        }
        enc.seal_into(&mut big);
        assert!(big.len() > GROUP_BYTES);
        w.append(&big).unwrap();
        assert_eq!(w.group_writes(), 3, "the open group, then the big frame");
        w.append(&frame).unwrap();
        w.sync().unwrap();
        assert_eq!(w.group_writes(), 4);
        let expect = per_group as u64 + 3;
        assert_eq!(w.records(), expect);
        assert_eq!(indices_on_disk(&dir), (0..expect).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failed group write loses the group: its records are counted,
    /// and the written totals stay at what reached the OS.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_group_write_counts_its_records() {
        let dir = temp_dir("enospc");
        fs::create_dir_all(&dir).unwrap();
        std::os::unix::fs::symlink("/dev/full", segment_path(&dir, 0)).unwrap();
        let mut w = WalWriter::create(&dir, u64::MAX).unwrap();
        for i in 0..3 {
            w.append(&flush_frame(i)).unwrap();
        }
        assert!(w.write_group().is_err());
        assert_eq!(
            (w.records(), w.bytes_appended(), w.group_writes()),
            (0, 0, 0)
        );
        assert_eq!((w.lost_records(), w.next_record()), (3, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A segment several windows long, with records straddling every
    /// window edge, one record larger than a window, and a torn tail,
    /// scans exactly like the bytes say.
    #[test]
    fn scan_windows_carry_records_across_their_edges() {
        let dir = temp_dir("windows");
        let mut w = WalWriter::create(&dir, u64::MAX).unwrap();
        let mut lens = Vec::new();
        let mut enc = RecordEncoder::with_capacity(16);
        let mut frame = Vec::new();
        for (i, n) in (0..400u64)
            .map(|i| (i, 1 + (i * 7919) % 2_000))
            .chain([(400, 140_000)])
        {
            enc.begin(TAG_INGEST);
            enc.put_client(ClientId(1));
            enc.put_u64(i);
            enc.put_zone(ZoneId(CellId { col: 0, row: 0 }));
            enc.put_network(NetworkId::NetA);
            enc.put_time(SimTime::EPOCH);
            enc.put_u64(n);
            for k in 0..n {
                enc.put_f64(k as f64);
            }
            enc.seal_into(&mut frame);
            w.append(&frame).unwrap();
            lens.push(n);
        }
        assert!(
            frame.len() as u64 > SCAN_BYTES,
            "the last record outgrows a window"
        );
        let tail = flush_frame(9);
        w.append_torn(&tail, tail.len() - 2).unwrap();
        w.sync().unwrap();
        assert!(w.bytes_appended() > 3 * SCAN_BYTES);
        let mut seen = Vec::new();
        let summary = scan_views(&dir, 0, |idx, view| {
            match view {
                RecordView::Ingest(v) => seen.push((idx, v.samples().len() as u64)),
                RecordView::Owned(other) => panic!("unexpected {other:?}"),
            }
            Ok(())
        })
        .unwrap();
        let expect: Vec<(u64, u64)> = lens
            .iter()
            .copied()
            .enumerate()
            .map(|(i, n)| (i as u64, n))
            .collect();
        assert_eq!(seen, expect);
        assert_eq!(summary.valid_bytes, w.bytes_appended());
        assert_eq!(summary.torn_bytes, (tail.len() - 2) as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_middle_is_typed_error() {
        let dir = temp_dir("corrupt");
        let mut w = WalWriter::create(&dir, u64::MAX).unwrap();
        w.append(&flush_frame(1)).unwrap();
        w.append(&flush_frame(2)).unwrap();
        w.sync().unwrap();
        let (first, path) = list_segments(&dir).unwrap().remove(0);
        assert_eq!(first, 0);
        let mut data = fs::read(&path).unwrap();
        data[4] ^= 0xFF; // inside the first record's body
        fs::write(&path, &data).unwrap();
        match scan_views(&dir, 0, |_, _| Ok(())) {
            Err(WalError::Frame(_)) => {}
            other => panic!("expected frame error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
