//! The durable coordinator: write-ahead event sourcing around the
//! in-memory [`Coordinator`].
//!
//! Every mutation that reaches the coordinator through the
//! [`CoordinatorHandle`] trait is first encoded as a WAL record and
//! appended to the writer's group, *then* folded into the live sketch
//! state — the channel's canonical `(t, client, seq)` commit order
//! becomes the log order. The group reaches the OS in one write before
//! anything that depends on its records leaves the process: at
//! [`CoordinatorHandle::commit_group`] (the channel server calls it
//! before its acks go out), at every non-hot operation (whose tasks or
//! effects the caller sees on return), before a snapshot, at segment
//! rotation, at [`DurableCoordinator::shutdown`], and whenever the group
//! is full. A fold is process-local: a death loses it together with the
//! unwritten group, and the client of an un-acked report retries.
//! Only what reaches this handle is logged: a report the channel
//! server has staged under its watermark policy is already acked but
//! not yet here, so a death before the watermark commits it (at
//! `drain` in the shipped configurations) loses it, and its client does
//! not retry.
//! Periodically the full fold state is snapshotted (bitwise, see
//! [`crate::snapshot`]) and the manifest advanced, bounding replay
//! length.
//!
//! # Crash model
//!
//! An armed [`CrashPlan`] kills the coordinator at a chosen pipeline
//! boundary. The *disk* effect happens immediately — a skipped append,
//! a torn frame prefix, a torn snapshot `.tmp`, an orphan snapshot the
//! manifest never names — exactly what a process death at that
//! boundary leaves behind. A record crash cuts the group at its target
//! record: the records before it are written, then the crash point
//! decides the target's fate. The *restart* is lazy: the sample-ingest
//! path is a declared alloc-free hot path (lint rule A001), and
//! rebuilding a coordinator allocates, so the rebuild runs at the next
//! non-hot operation (check-in, tuner update, flush, or
//! [`DurableCoordinator::shutdown`]). While the crash is pending,
//! incoming commits queue in an in-memory redelivery buffer — the
//! stand-in for the channel's at-least-once redelivery — and fold into
//! the live state so task issuance never stalls.
//!
//! At restart the recovered coordinator (manifest snapshot + log
//! suffix replay + redelivered frames) is proven equal to the live one
//! by comparing their snapshot encodings byte for byte; any mismatch
//! increments `wal/recovery_mismatches`, which tests and CI pin to
//! zero. The recovered instance then *replaces* the live one, so the
//! run's artifacts are genuinely produced through recovery, not merely
//! checked against it.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use wiscape_core::{
    Coordinator, CoordinatorConfig, CoordinatorHandle, IngestError, IngestSummary, MeasurementTask,
    ZoneCellState, ZoneId, ZoneIndex,
};
use wiscape_geo::GeoPoint;
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::NetworkId;

use crate::crash::{CrashPlan, CrashPoint};
use crate::log::{list_segments, scan_views, wal_obs, WalWriter, DEFAULT_SEGMENT_BYTES};
use crate::record::{
    decode_record_view, io_err, RecordEncoder, RecordView, WalError, WalRecord, TAG_CHECKIN,
    TAG_FLUSH, TAG_INGEST, TAG_MIGRATE_IN, TAG_MIGRATE_OUT, TAG_SET_EPOCH, TAG_SET_QUOTA,
};
use crate::snapshot::{
    encode_state, load_snapshot, read_manifest, write_snapshot, SnapshotWriteMode,
};

/// Obs handles for the recovery path only. Kept out of the write
/// path's counters because span registration allocates without an
/// A001 suppression — these must never be touched from the hot append
/// path.
struct RecoveryObs {
    snapshots: wiscape_obs::Counter,
    replayed_records: wiscape_obs::Counter,
    recoveries: wiscape_obs::Counter,
    recovery_mismatches: wiscape_obs::Counter,
    /// Virtual-time width of each replayed log suffix.
    replay: wiscape_obs::Span,
}

fn recovery_obs() -> &'static RecoveryObs {
    static M: OnceLock<RecoveryObs> = OnceLock::new();
    M.get_or_init(|| RecoveryObs {
        snapshots: wiscape_obs::counter("wal/snapshots"),
        replayed_records: wiscape_obs::counter("wal/replayed_records"),
        recoveries: wiscape_obs::counter("wal/recoveries"),
        recovery_mismatches: wiscape_obs::counter("wal/recovery_mismatches"),
        replay: wiscape_obs::span("wal/replay"),
    })
}

/// The error [`DurableCoordinator::recover`] returns for a directory
/// that holds neither a manifest nor a log segment.
pub const NO_WAL: WalError = WalError::Io {
    op: "find manifest or segment",
    kind: std::io::ErrorKind::NotFound,
};

/// Durability tuning (and the optional injected crash).
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Take a snapshot after this many records since the last one.
    pub snapshot_every: u64,
    /// The injected crash, if any.
    pub plan: CrashPlan,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            snapshot_every: 4096,
            plan: CrashPlan::none(),
        }
    }
}

/// What a recovery pass found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records covered by the snapshot the manifest named (0 = none).
    pub snapshot_records: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed: u64,
    /// Torn bytes dropped from the final segment's tail.
    pub torn_bytes: u64,
    /// Total durable records after recovery.
    pub records: u64,
}

/// Cumulative WAL meters for one coordinator instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalMeters {
    /// Records written to the OS (after a restart, what the recovered
    /// log holds plus what was written since). Records still in the
    /// writer's group are not counted.
    pub records: u64,
    /// Bytes written to the OS across all segments.
    pub bytes_appended: u64,
    /// Group writes issued: one `write(2)` of whole records each.
    pub group_writes: u64,
    /// Snapshots fully committed (manifest advanced).
    pub snapshots: u64,
    /// Bytes in the most recent committed snapshot file.
    pub last_snapshot_bytes: u64,
    /// In-run restarts performed.
    pub recoveries: u64,
    /// Restarts whose recovered state did not byte-match the live
    /// state (must stay 0).
    pub recovery_mismatches: u64,
    /// Records replayed across all in-run restarts.
    pub replayed_records: u64,
    /// Records lost to a failed group write, plus failed torn appends
    /// and snapshot writes.
    pub append_errors: u64,
}

/// A [`Coordinator`] wrapped in write-ahead durability. See the module
/// docs for the commit and crash model.
#[derive(Debug)]
pub struct DurableCoordinator {
    inner: Coordinator,
    writer: WalWriter,
    enc: RecordEncoder,
    /// Scratch frame for the record being committed.
    frame: Vec<u8>,
    /// Concatenated frames committed while a crash was pending
    /// (the redelivery buffer).
    pending: Vec<u8>,
    /// A crash fired; restart at the next non-hot boundary.
    crash_pending: bool,
    /// The single-shot plan already fired.
    crash_consumed: bool,
    plan: CrashPlan,
    snapshot_every: u64,
    segment_bytes: u64,
    /// Records covered by the last manifest-committed snapshot.
    records_at_snapshot: u64,
    dir: PathBuf,
    index: ZoneIndex,
    config: CoordinatorConfig,
    meters: WalMeters,
}

impl DurableCoordinator {
    /// A fresh durable coordinator over an empty (or emptied) WAL
    /// directory: stale `wal-*.seg`, `snap-*` and `MANIFEST*` files
    /// from earlier runs are removed first.
    pub fn create(
        dir: &Path,
        index: ZoneIndex,
        config: CoordinatorConfig,
        opts: WalOptions,
    ) -> Result<Self, WalError> {
        std::fs::create_dir_all(dir).map_err(io_err("create dir"))?;
        clean_wal_dir(dir)?;
        let writer = WalWriter::create(dir, opts.segment_bytes)?;
        Ok(Self {
            inner: Coordinator::new(index.clone(), config.clone()),
            writer,
            enc: RecordEncoder::with_capacity(256),
            frame: Vec::with_capacity(512),
            pending: Vec::new(),
            crash_pending: false,
            crash_consumed: false,
            plan: opts.plan,
            snapshot_every: opts.snapshot_every.max(1),
            segment_bytes: opts.segment_bytes,
            records_at_snapshot: 0,
            dir: dir.to_path_buf(),
            index,
            config,
            meters: WalMeters::default(),
        })
    }

    /// Rebuilds a coordinator from the WAL directory: latest
    /// manifest-committed snapshot (if any) plus a replay of the log
    /// suffix, with any torn tail truncated. The caller re-supplies
    /// the same zone index and config the original run used — they are
    /// deterministic inputs, deliberately not serialized.
    ///
    /// A directory that holds neither a manifest nor a segment (empty,
    /// missing, or someone else's) is refused with [`NO_WAL`] before
    /// any file is created in it.
    pub fn recover(
        dir: &Path,
        index: ZoneIndex,
        config: CoordinatorConfig,
        opts: WalOptions,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let manifest = read_manifest(dir)?;
        if manifest.is_none() && list_segments(dir)?.is_empty() {
            return Err(NO_WAL);
        }
        let mut inner = Coordinator::new(index.clone(), config.clone());
        let snapshot_records = match manifest {
            Some(records) => {
                inner.restore_state(load_snapshot(dir, records)?);
                records
            }
            None => 0,
        };
        let mut replayed: u64 = 0;
        let mut first_t: Option<SimTime> = None;
        let mut last_t: Option<SimTime> = None;
        // Ingest records (the bulk of any log) fold straight from the
        // segment buffer, no per-record allocation.
        let summary = scan_views(dir, snapshot_records, |_, view| {
            if let Some(t) = view.event_time() {
                first_t.get_or_insert(t);
                last_t = Some(t);
            }
            replay(&mut inner, view);
            replayed += 1;
            Ok(())
        })?;
        let writer = WalWriter::resume(
            dir,
            opts.segment_bytes,
            summary.records_seen,
            summary.valid_bytes,
            summary.last_seg_first,
            summary.last_seg_valid_bytes,
        )?;
        let obs = recovery_obs();
        obs.recoveries.inc();
        obs.replayed_records.add(replayed);
        if let (Some(a), Some(b)) = (first_t, last_t) {
            let width = (b - a).as_micros();
            obs.replay.record_micros(u64::try_from(width).unwrap_or(0));
        }
        let report = RecoveryReport {
            snapshot_records,
            replayed,
            torn_bytes: summary.torn_bytes,
            records: summary.records_seen,
        };
        let mut me = Self {
            inner,
            writer,
            enc: RecordEncoder::with_capacity(256),
            frame: Vec::with_capacity(512),
            pending: Vec::new(),
            crash_pending: false,
            crash_consumed: false,
            plan: opts.plan,
            snapshot_every: opts.snapshot_every.max(1),
            segment_bytes: opts.segment_bytes,
            records_at_snapshot: snapshot_records,
            dir: dir.to_path_buf(),
            index,
            config,
            meters: WalMeters::default(),
        };
        me.meters.replayed_records = replayed;
        Ok((me, report))
    }

    /// The live coordinator.
    pub fn coordinator_ref(&self) -> &Coordinator {
        &self.inner
    }

    /// Cumulative WAL meters (records include the redelivery queue
    /// only after the restart that drains it).
    pub fn wal_meters(&self) -> WalMeters {
        let mut m = self.meters;
        m.records = self.writer.records();
        m.bytes_appended = self.writer.bytes_appended();
        m.group_writes += self.writer.group_writes();
        m.append_errors += self.writer.lost_records();
        m
    }

    /// Whether an injected crash has fired and its restart has not run
    /// yet (resolved at the next non-hot operation or [`Self::shutdown`]).
    pub fn crash_pending(&self) -> bool {
        self.crash_pending
    }

    /// End-of-run: resolves a still-pending crash (restart + proof),
    /// then writes the group and syncs the log to disk.
    pub fn shutdown(&mut self) -> Result<(), WalError> {
        self.maybe_restart();
        self.writer.sync()
    }

    // ---- hot path -----------------------------------------------------

    /// Encodes one ingest record into the scratch frame. Hot:
    /// allocation-free after warm-up (the scratch buffers grow once).
    fn encode_ingest<I>(
        &mut self,
        client: ClientId,
        seq: u64,
        zone: ZoneId,
        network: NetworkId,
        t: SimTime,
        samples: I,
    ) where
        I: Iterator<Item = f64> + ExactSizeIterator,
    {
        self.enc.begin(TAG_INGEST);
        self.enc.put_client(client);
        self.enc.put_u64(seq);
        self.enc.put_zone(zone);
        self.enc.put_network(network);
        self.enc.put_time(t);
        self.enc.put_u64(samples.len() as u64);
        for s in samples {
            self.enc.put_f64(s);
        }
        self.enc.seal_into(&mut self.frame);
    }

    /// Commits the scratch frame to the group: the crash plan decides
    /// whether it lands whole, torn, or queues for redelivery. Hot: no
    /// allocation, no restart — restarts run at non-hot boundaries.
    /// Write failures are counted by the writer.
    fn commit_frame(&mut self) {
        if self.crash_pending {
            self.pending.extend_from_slice(&self.frame);
            return;
        }
        if self.crash_consumed || !self.plan.fires_at(self.writer.next_record()) {
            let _ = self.writer.append(&self.frame);
            return;
        }
        // The crash cuts the group at this record: the records before
        // it reach the OS, then the crash point decides its fate.
        self.crash_consumed = true;
        self.crash_pending = true;
        let _ = self.writer.write_group();
        match self.plan.point {
            CrashPoint::PreAppend => {
                self.pending.extend_from_slice(&self.frame);
            }
            CrashPoint::TornAppend => {
                let keep = self.plan.torn_keep(self.frame.len());
                if self.writer.append_torn(&self.frame, keep).is_err() {
                    self.meters.append_errors += 1;
                    wal_obs().append_errors.inc();
                }
                self.pending.extend_from_slice(&self.frame);
            }
            _ => {
                // PostAppend / PostFold: the record is durable.
                let _ = self.writer.append(&self.frame);
                let _ = self.writer.write_group();
            }
        }
    }

    // ---- non-hot boundaries -------------------------------------------

    /// Logs the scratch frame of a non-hot operation: a pending restart
    /// and a due rotation run first, then the frame commits and the
    /// group — this record included — is written, before the
    /// operation's effects can leave the process.
    fn log_op(&mut self) {
        self.maybe_restart();
        let _ = self.writer.maybe_rotate();
        self.commit_frame();
        let _ = self.writer.write_group();
    }

    /// Ends a non-hot operation: the restart a crash in it left
    /// pending, then a due snapshot.
    fn settle(&mut self) {
        self.maybe_restart();
        self.maybe_snapshot();
    }

    /// Runs the deferred restart if a crash is pending. Non-hot only.
    fn maybe_restart(&mut self) {
        if self.crash_pending {
            self.restart_now();
        }
    }

    /// The lazy restart: recover from disk, re-deliver the pending
    /// frames, prove the recovered state byte-identical to the live
    /// one, then adopt it.
    fn restart_now(&mut self) {
        self.crash_pending = false;
        let opts = WalOptions {
            segment_bytes: self.segment_bytes,
            snapshot_every: self.snapshot_every,
            plan: CrashPlan::none(),
        };
        let recovered = Self::recover(&self.dir, self.index.clone(), self.config.clone(), opts);
        let Ok((mut fresh, report)) = recovered else {
            // Unrecoverable disk state: count it, keep serving from
            // the live coordinator (tests pin this to zero too).
            self.meters.recovery_mismatches += 1;
            recovery_obs().recovery_mismatches.inc();
            self.pending.clear();
            return;
        };
        // Re-deliver the frames committed while "down", decoded and
        // replayed exactly as recovery replays the log.
        let mut off = 0usize;
        while let Some(rest) = self.pending.get(off..).filter(|rest| !rest.is_empty()) {
            let Ok((view, used)) = decode_record_view(rest) else {
                // Unreachable: we encoded these frames ourselves.
                self.meters.recovery_mismatches += 1;
                recovery_obs().recovery_mismatches.inc();
                break;
            };
            if let Some(frame) = rest.get(..used) {
                let _ = fresh.writer.append(frame);
            }
            replay(&mut fresh.inner, view);
            off += used;
        }
        self.pending.clear();
        // The bitwise proof: live and recovered snapshot encodings
        // must be identical.
        let mut live = Vec::new();
        encode_state(&self.inner.export_state(), &mut live);
        let mut rebuilt = Vec::new();
        encode_state(&fresh.inner.export_state(), &mut rebuilt);
        if live != rebuilt {
            self.meters.recovery_mismatches += 1;
            recovery_obs().recovery_mismatches.inc();
        }
        // The dead writer's group is empty (the crash wrote it); carry
        // its write counters over to the new one's.
        self.meters.group_writes += self.writer.group_writes();
        self.meters.append_errors += self.writer.lost_records();
        self.inner = fresh.inner;
        self.writer = fresh.writer;
        self.records_at_snapshot = fresh.records_at_snapshot;
        self.meters.recoveries += 1;
        self.meters.replayed_records += report.replayed;
    }

    /// Writes the group, then takes a snapshot when enough records
    /// accumulated since the last one. Non-hot only (serialization
    /// allocates).
    fn maybe_snapshot(&mut self) {
        let _ = self.writer.write_group();
        let records = self.writer.records();
        if records.saturating_sub(self.records_at_snapshot) < self.snapshot_every {
            return;
        }
        let mode = if !self.crash_consumed && self.plan.fires_at_snapshot(records) {
            self.crash_consumed = true;
            match self.plan.point {
                CrashPoint::SnapshotTorn => {
                    self.crash_pending = true;
                    SnapshotWriteMode::TornTmp(self.plan.torn_keep(4096).max(3))
                }
                CrashPoint::PreManifest => {
                    self.crash_pending = true;
                    SnapshotWriteMode::BeforeManifest
                }
                // PostSnapshot: the snapshot commits, then the crash.
                _ => {
                    self.crash_pending = true;
                    SnapshotWriteMode::Full
                }
            }
        } else {
            SnapshotWriteMode::Full
        };
        let mut body = Vec::new();
        encode_state(&self.inner.export_state(), &mut body);
        match write_snapshot(&self.dir, records, &body, mode) {
            Ok(bytes) => {
                if mode == SnapshotWriteMode::Full {
                    self.records_at_snapshot = records;
                    self.meters.snapshots += 1;
                    self.meters.last_snapshot_bytes = bytes;
                    recovery_obs().snapshots.inc();
                }
            }
            Err(_) => {
                self.meters.append_errors += 1;
                wal_obs().append_errors.inc();
            }
        }
        if self.crash_pending {
            // Snapshot crashes happen at non-hot boundaries, so the
            // restart (and its proof) runs immediately.
            self.restart_now();
        }
    }
}

/// Applies one decoded record to a coordinator — the replay half of
/// event sourcing, shared by recovery and redelivery. Must mirror the
/// live fold in [`CoordinatorHandle`] exactly.
fn replay(c: &mut Coordinator, view: RecordView<'_>) {
    match view {
        RecordView::Ingest(v) => {
            let _ = c.ingest_samples(v.zone, v.network, v.t, v.samples());
        }
        RecordView::Owned(WalRecord::Checkin {
            client,
            point,
            t,
            coin,
            networks,
        }) => {
            let _tasks = c.client_checkin(client, &point, t, &networks, coin);
        }
        RecordView::Owned(WalRecord::SetQuota {
            zone,
            network,
            quota,
        }) => c.set_zone_quota(zone, network, quota),
        RecordView::Owned(WalRecord::SetEpoch {
            zone,
            network,
            epoch,
        }) => c.set_zone_epoch(zone, network, epoch),
        RecordView::Owned(WalRecord::Flush { t }) => c.flush(t),
        RecordView::Owned(WalRecord::MigrateOut { lo, hi }) => {
            let _ = c.take_range(lo, hi);
        }
        RecordView::Owned(WalRecord::MigrateIn { cells }) => c.install_cells(cells),
    }
}

/// Removes stale WAL artifacts from `dir` (previous runs' segments,
/// snapshots, manifests, and torn temp files).
fn clean_wal_dir(dir: &Path) -> Result<(), WalError> {
    for entry in std::fs::read_dir(dir).map_err(io_err("clean dir"))? {
        let entry = entry.map_err(io_err("clean dir"))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = (name.starts_with("wal-") && name.contains(".seg"))
            || name.starts_with("snap-")
            || name.starts_with("MANIFEST");
        if stale {
            std::fs::remove_file(entry.path()).map_err(io_err("clean dir"))?;
        }
    }
    Ok(())
}

impl CoordinatorHandle for DurableCoordinator {
    fn as_coordinator(&self) -> &Coordinator {
        &self.inner
    }

    fn checkin_tagged(
        &mut self,
        client: ClientId,
        point: &GeoPoint,
        t: SimTime,
        networks: &[NetworkId],
        coin: f64,
    ) -> Vec<MeasurementTask> {
        self.enc.begin(TAG_CHECKIN);
        self.enc.put_client(client);
        self.enc.put_point(point);
        self.enc.put_time(t);
        self.enc.put_f64(coin);
        self.enc.put_u64(networks.len() as u64);
        for n in networks {
            self.enc.put_network(*n);
        }
        self.enc.seal_into(&mut self.frame);
        self.log_op();
        let tasks = self.inner.client_checkin(client, point, t, networks, coin);
        self.settle();
        tasks
    }

    fn ingest_samples_tagged<I>(
        &mut self,
        client: ClientId,
        seq: u64,
        zone: ZoneId,
        network: NetworkId,
        t: SimTime,
        samples: I,
    ) -> Result<IngestSummary, IngestError>
    where
        I: Iterator<Item = f64> + ExactSizeIterator + Clone,
    {
        self.encode_ingest(client, seq, zone, network, t, samples.clone());
        self.commit_frame();
        self.inner.ingest_samples(zone, network, t, samples)
    }

    fn set_zone_quota_tagged(&mut self, zone: ZoneId, network: NetworkId, quota: u32) {
        self.enc.begin(TAG_SET_QUOTA);
        self.enc.put_zone(zone);
        self.enc.put_network(network);
        self.enc.put_u32(quota);
        self.enc.seal_into(&mut self.frame);
        self.log_op();
        self.inner.set_zone_quota(zone, network, quota);
        self.settle();
    }

    fn set_zone_epoch_tagged(&mut self, zone: ZoneId, network: NetworkId, epoch: SimDuration) {
        self.enc.begin(TAG_SET_EPOCH);
        self.enc.put_zone(zone);
        self.enc.put_network(network);
        self.enc.put_duration(epoch);
        self.enc.seal_into(&mut self.frame);
        self.log_op();
        self.inner.set_zone_epoch(zone, network, epoch);
        self.settle();
    }

    fn migrate_out_tagged(&mut self, lo: ZoneId, hi: ZoneId) -> Vec<ZoneCellState> {
        self.enc.begin(TAG_MIGRATE_OUT);
        self.enc.put_zone(lo);
        self.enc.put_zone(hi);
        self.enc.seal_into(&mut self.frame);
        self.log_op();
        let cells = self.inner.take_range(lo, hi);
        self.settle();
        cells
    }

    fn migrate_in_tagged(&mut self, cells: Vec<ZoneCellState>) {
        self.enc.begin(TAG_MIGRATE_IN);
        self.enc.put_u64(cells.len() as u64);
        for cell in &cells {
            self.enc.put_cell(cell);
        }
        self.enc.seal_into(&mut self.frame);
        self.log_op();
        self.inner.install_cells(cells);
        self.settle();
    }

    fn flush_tagged(&mut self, now: SimTime) {
        self.enc.begin(TAG_FLUSH);
        self.enc.put_time(now);
        self.enc.seal_into(&mut self.frame);
        self.log_op();
        self.inner.flush(now);
        self.settle();
    }

    /// Writes the group: every record committed so far reaches the OS.
    /// Failures are counted in [`WalMeters::append_errors`].
    fn commit_group(&mut self) {
        let _ = self.writer.write_group();
    }
}
