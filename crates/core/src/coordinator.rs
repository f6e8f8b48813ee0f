//! The measurement coordinator (paper §3.4, "Putting it all together").
//!
//! Deployment loop:
//!
//! 1. each client periodically reports its coarse zone (in real systems,
//!    from its associated cell tower) — [`Coordinator::client_checkin`];
//! 2. once per **epoch** per zone, the coordinator hands out measurement
//!    tasks with a probability chosen so the epoch collects roughly the
//!    required number of samples (from the NKLD analysis, ≈100);
//! 3. clients execute tasks and report samples —
//!    [`Coordinator::ingest_report`];
//! 4. at epoch end the coordinator forms the zone estimate; if it moved
//!    by more than `change_threshold_sigma` standard deviations from the
//!    published value, the published record is updated and a
//!    [`ChangeAlert`] is emitted (the operator signal of §4.1).

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::{NetworkId, TransportKind};
use wiscape_stats::RunningStats;

use crate::zone::{ZoneId, ZoneIndex};

mod cells;
use cells::CellTable;

/// Obs handles for the ingest surface (see `OBSERVABILITY.md`). All of
/// these mirror the coordinator's own typed counters into the shared
/// registry with commutative updates only, so totals stay bitwise
/// identical under `exec::par_map` no matter the worker count.
struct IngestMetrics {
    packets_requested: wiscape_obs::Counter,
    reports_accepted: wiscape_obs::Counter,
    reports_rejected: wiscape_obs::Counter,
    samples_accepted: wiscape_obs::Counter,
    malformed_dropped: wiscape_obs::Counter,
    /// Per-epoch sample counts at finalize time (bin width 1).
    zone_samples: wiscape_obs::Histogram,
    /// High-water marks (commutative `set_max`, parallel-safe).
    zones_tracked: wiscape_obs::Gauge,
    sketch_bytes: wiscape_obs::Gauge,
    /// Cells keyed outside the zone index: the one cell count only the
    /// input bounds.
    out_of_index_cells: wiscape_obs::Gauge,
}

fn obs_metrics() -> &'static IngestMetrics {
    static M: OnceLock<IngestMetrics> = OnceLock::new();
    M.get_or_init(|| IngestMetrics {
        packets_requested: wiscape_obs::counter("coordinator/packets_requested"),
        reports_accepted: wiscape_obs::counter("coordinator/reports_accepted"),
        reports_rejected: wiscape_obs::counter("coordinator/reports_rejected"),
        samples_accepted: wiscape_obs::counter("coordinator/samples_accepted"),
        malformed_dropped: wiscape_obs::counter("coordinator/malformed_dropped"),
        zone_samples: wiscape_obs::histogram("coordinator/zone_samples", 1.0),
        zones_tracked: wiscape_obs::gauge("coordinator/zones_tracked_max"),
        sketch_bytes: wiscape_obs::gauge("coordinator/sketch_bytes_max"),
        out_of_index_cells: wiscape_obs::gauge("coordinator/out_of_index_cells_max"),
    })
}

/// Coordinator tuning knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoordinatorConfig {
    /// Samples the coordinator tries to collect per zone per epoch
    /// (paper: ~100, from the NKLD analysis).
    pub target_samples_per_epoch: u32,
    /// Packets per issued probe task (paper Table 5 range).
    pub packets_per_task: u32,
    /// Probe packet size, bytes.
    pub packet_bytes: u32,
    /// Epoch used for a zone until an Allan estimate is available.
    pub default_epoch: SimDuration,
    /// Publish/alert threshold in standard deviations (paper: "say by
    /// more than twice the standard deviation").
    pub change_threshold_sigma: f64,
    /// Expected number of client check-ins per zone per epoch, used to
    /// set the task probability. In a real deployment the coordinator
    /// measures this; here it is configured.
    pub expected_checkins_per_epoch: f64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            target_samples_per_epoch: 100,
            packets_per_task: 20,
            packet_bytes: 1200,
            default_epoch: SimDuration::from_mins(30),
            change_threshold_sigma: 2.0,
            expected_checkins_per_epoch: 50.0,
        }
    }
}

/// A measurement task issued to a client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurementTask {
    /// Zone the coordinator believes the client is in.
    pub zone: ZoneId,
    /// Network to measure.
    pub network: NetworkId,
    /// Transport to probe.
    pub kind: TransportKind,
    /// Number of back-to-back packets to send.
    pub n_packets: u32,
    /// Packet size, bytes.
    pub packet_bytes: u32,
}

/// A published per-zone, per-network estimate. Its `(zone, network)`
/// is the key of the cell that holds it; [`Coordinator::all_published`]
/// pairs the two.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoneEstimate {
    /// Mean of the epoch's samples (kbit/s for throughput tasks).
    pub mean: f64,
    /// Standard deviation of the epoch's samples.
    pub std_dev: f64,
    /// Number of samples behind the estimate.
    pub samples: u64,
    /// Epoch end time at which this estimate was formed.
    pub formed_at: SimTime,
}

/// Emitted when a zone's published estimate moved substantially.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChangeAlert {
    /// The zone whose estimate changed.
    pub zone: ZoneId,
    /// The network.
    pub network: NetworkId,
    /// Previously published mean.
    pub old_mean: f64,
    /// Newly published mean.
    pub new_mean: f64,
    /// Magnitude of the change in previous standard deviations.
    pub sigmas: f64,
    /// When the change was detected.
    pub at: SimTime,
}

/// Per-(zone, network) epoch state.
///
/// Fixed size: the epoch's samples live in a [`RunningStats`], never a
/// buffer, so coordinator memory is O(tracked zones) no matter how many
/// reports stream through (lint rule D005 enforces this).
#[derive(Debug, Clone, Copy)]
struct ZoneState {
    epoch: SimDuration,
    epoch_start: SimTime,
    current: RunningStats,
    issued_this_epoch: u32,
    published: Option<ZoneEstimate>,
    /// Per-zone sample quota override (from the NKLD tuner); falls back
    /// to the config's global target when unset.
    quota: Option<u32>,
}

impl ZoneState {
    fn fresh(epoch: SimDuration, epoch_start: SimTime) -> Self {
        Self {
            epoch,
            epoch_start,
            current: RunningStats::new(),
            issued_this_epoch: 0,
            published: None,
            quota: None,
        }
    }

    fn from_cell(cell: &ZoneCellState) -> Self {
        Self {
            epoch: cell.epoch,
            epoch_start: cell.epoch_start,
            current: cell.sketch,
            issued_this_epoch: cell.issued_this_epoch,
            published: cell.published,
            quota: cell.quota,
        }
    }

    fn to_cell(self, (zone, network): (ZoneId, NetworkId)) -> ZoneCellState {
        ZoneCellState {
            zone,
            network,
            epoch: self.epoch,
            epoch_start: self.epoch_start,
            sketch: self.current,
            issued_this_epoch: self.issued_this_epoch,
            published: self.published,
            quota: self.quota,
        }
    }
}

/// A client's sample report for a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleReport {
    /// Reporting client.
    pub client: ClientId,
    /// The task this answers.
    pub task: MeasurementTask,
    /// Fine zone confirmed by the client's GPS at execution time.
    pub zone: ZoneId,
    /// When the measurement ran.
    pub t: SimTime,
    /// Per-packet samples (throughput kbit/s).
    pub samples: Vec<f64>,
}

/// Why [`Coordinator::ingest_report`] rejected an entire report.
///
/// Rejected reports never touch zone state; the coordinator counts them
/// in [`Coordinator::reports_rejected`] so deployments can monitor a
/// misbehaving client population without crashing the control loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestError {
    /// The report carried no samples at all.
    EmptyReport,
    /// The reported fine zone lies outside the coordinator's index.
    UnknownZone(ZoneId),
}

impl core::fmt::Display for IngestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IngestError::EmptyReport => write!(f, "report carries no samples"),
            IngestError::UnknownZone(z) => {
                write!(f, "zone {z:?} is outside the coordinator's index")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Per-report accounting returned by [`Coordinator::ingest_report`].
///
/// Malformed samples (non-finite or negative throughput) are dropped
/// and counted rather than poisoning the zone estimate; the totals also
/// accumulate in [`Coordinator::malformed_dropped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestSummary {
    /// Samples accepted into the zone's running estimate.
    pub accepted: u32,
    /// Samples dropped because they were NaN or infinite.
    pub dropped_non_finite: u32,
    /// Samples dropped because throughput was negative.
    pub dropped_negative: u32,
}

impl IngestSummary {
    /// Total samples dropped from this report.
    pub fn dropped(&self) -> u32 {
        self.dropped_non_finite + self.dropped_negative
    }
}

/// The WiScape measurement coordinator.
#[derive(Debug, Clone)]
pub struct Coordinator {
    config: CoordinatorConfig,
    index: ZoneIndex,
    cells: CellTable,
    alerts: Vec<ChangeAlert>,
    /// Total packets requested from clients (the client-burden meter).
    packets_requested: u64,
    /// Malformed samples dropped across all ingested reports.
    malformed_dropped: u64,
    /// Whole reports rejected (empty / unknown zone).
    reports_rejected: u64,
}

impl Coordinator {
    /// Creates a coordinator over a zone index.
    pub fn new(index: ZoneIndex, config: CoordinatorConfig) -> Self {
        Self {
            config,
            cells: CellTable::new(&index),
            index,
            alerts: Vec::new(),
            packets_requested: 0,
            malformed_dropped: 0,
            reports_rejected: 0,
        }
    }

    /// The zone index.
    pub fn index(&self) -> &ZoneIndex {
        &self.index
    }

    /// The configuration.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.config
    }

    /// Installs a zone-specific epoch (e.g. from an Allan-deviation
    /// estimate) for all networks in that zone.
    pub fn set_zone_epoch(&mut self, zone: ZoneId, network: NetworkId, epoch: SimDuration) {
        let default_epoch = self.config.default_epoch;
        if let Some(state) = self.cells.cell_or_insert((zone, network), || {
            ZoneState::fresh(default_epoch, SimTime::EPOCH)
        }) {
            state.epoch = epoch;
        }
    }

    /// The epoch currently in force for a zone/network.
    pub fn zone_epoch(&self, zone: ZoneId, network: NetworkId) -> SimDuration {
        self.cells
            .cell((zone, network))
            .map(|s| s.epoch)
            .unwrap_or(self.config.default_epoch)
    }

    /// Installs a zone-specific per-epoch sample quota (from the NKLD
    /// tuner, paper §3.4).
    pub fn set_zone_quota(&mut self, zone: ZoneId, network: NetworkId, quota: u32) {
        let default_epoch = self.config.default_epoch;
        if let Some(state) = self.cells.cell_or_insert((zone, network), || {
            ZoneState::fresh(default_epoch, SimTime::EPOCH)
        }) {
            state.quota = Some(quota.max(1));
        }
    }

    /// The sample quota currently in force for a zone/network.
    pub fn zone_quota(&self, zone: ZoneId, network: NetworkId) -> u32 {
        self.cells
            .cell((zone, network))
            .and_then(|s| s.quota)
            .unwrap_or(self.config.target_samples_per_epoch)
    }

    /// Task-issuance probability for a zone that still needs `needed`
    /// task executions this epoch (exposed so deployments can inspect
    /// the coordinator's pacing).
    pub fn issue_probability(&self, needed: u32) -> f64 {
        (needed as f64 / self.config.expected_checkins_per_epoch).clamp(0.0, 1.0)
    }

    /// A client reports being (coarsely) at `point` at time `t`;
    /// the coordinator may hand back measurement tasks.
    ///
    /// `coin` is a uniform `[0,1)` draw supplied by the caller (keeps the
    /// coordinator deterministic and testable).
    pub fn client_checkin(
        &mut self,
        _client: ClientId,
        point: &wiscape_geo::GeoPoint,
        t: SimTime,
        networks: &[NetworkId],
        coin: f64,
    ) -> Vec<MeasurementTask> {
        let zone = self.index.zone_of(point);
        let mut tasks = Vec::new();
        for &network in networks {
            let default_epoch = self.config.default_epoch;
            let Some(state) = self
                .cells
                .cell_or_insert((zone, network), || ZoneState::fresh(default_epoch, t))
            else {
                continue;
            };
            // Epoch rollover is handled in ingest/finalize; here we only
            // roll the window forward if long past.
            if t - state.epoch_start >= state.epoch {
                // Epoch ended without finalization (e.g. no samples) —
                // start a fresh one.
                Self::finalize_epoch(
                    &mut self.alerts,
                    self.config.change_threshold_sigma,
                    zone,
                    network,
                    state,
                    t,
                );
                state.epoch_start = t;
                state.current = RunningStats::new();
                state.issued_this_epoch = 0;
            }
            let target = state.quota.unwrap_or(self.config.target_samples_per_epoch);
            let have = state.current.count() as u32
                + state.issued_this_epoch * self.config.packets_per_task;
            if have >= target {
                continue;
            }
            let needed_tasks = (target - have).div_ceil(self.config.packets_per_task);
            let p = (needed_tasks as f64 / self.config.expected_checkins_per_epoch).clamp(0.0, 1.0);
            if coin < p {
                state.issued_this_epoch += 1;
                self.packets_requested += self.config.packets_per_task as u64;
                obs_metrics()
                    .packets_requested
                    .add(self.config.packets_per_task as u64);
                tasks.push(MeasurementTask {
                    zone,
                    network,
                    kind: TransportKind::Udp,
                    n_packets: self.config.packets_per_task,
                    packet_bytes: self.config.packet_bytes,
                });
            }
        }
        tasks
    }

    fn finalize_epoch(
        alerts: &mut Vec<ChangeAlert>,
        threshold_sigma: f64,
        zone: ZoneId,
        network: NetworkId,
        state: &mut ZoneState,
        now: SimTime,
    ) {
        if state.current.is_empty() {
            return;
        }
        obs_metrics()
            .zone_samples
            .record(state.current.count() as f64);
        let estimate = ZoneEstimate {
            mean: state.current.mean(),
            std_dev: state.current.sample_std_dev(),
            samples: state.current.count(),
            formed_at: now,
        };
        match state.published {
            None => state.published = Some(estimate),
            Some(prev) => {
                let sigma = prev.std_dev.max(prev.mean.abs() * 1e-3).max(1e-9);
                let sigmas = (estimate.mean - prev.mean).abs() / sigma;
                if sigmas > threshold_sigma {
                    alerts.push(ChangeAlert {
                        zone,
                        network,
                        old_mean: prev.mean,
                        new_mean: estimate.mean,
                        sigmas,
                        at: now,
                    });
                    state.published = Some(estimate);
                }
                // Otherwise: keep the published record (the paper's
                // server only updates on substantial change).
            }
        }
    }

    /// Ingests a client's sample report.
    ///
    /// The ingest surface is fed by untrusted clients, so it must never
    /// panic: structurally invalid reports (no samples, zone outside
    /// the index) are rejected with a typed [`IngestError`], and
    /// individually malformed samples (NaN, infinite, or negative
    /// throughput) are dropped and counted instead of entering the zone
    /// estimate. See [`IngestSummary`] for the per-report accounting.
    pub fn ingest_report(&mut self, report: &SampleReport) -> Result<IngestSummary, IngestError> {
        self.ingest_samples(
            report.zone,
            report.task.network,
            report.t,
            report.samples.iter().copied(),
        )
    }

    /// The allocation-free core of [`Coordinator::ingest_report`]: folds
    /// one report's samples — supplied as any re-iterable exact-size
    /// stream — into the `(zone, network)` sketch. The wire layer feeds
    /// this directly from borrowed frame views (`wiscape-channel`'s
    /// `ReportView::samples`), so a report can go wire → sketch without
    /// an intermediate `Vec<f64>`; `ingest_report` is the same call over
    /// a slice iterator, which keeps the two paths identical bit for
    /// bit, counter for counter.
    pub fn ingest_samples<I>(
        &mut self,
        zone: ZoneId,
        network: NetworkId,
        t: SimTime,
        samples: I,
    ) -> Result<IngestSummary, IngestError>
    where
        I: Iterator<Item = f64> + ExactSizeIterator + Clone,
    {
        let n_samples = samples.len();
        if n_samples == 0 {
            self.reports_rejected += 1;
            obs_metrics().reports_rejected.inc();
            return Err(IngestError::EmptyReport);
        }
        if !self.index.in_bounds(zone) {
            self.reports_rejected += 1;
            obs_metrics().reports_rejected.inc();
            return Err(IngestError::UnknownZone(zone));
        }
        // Classification pass: count malformed samples without
        // allocating a scratch buffer (the ingest path is O(1) memory
        // per report).
        let mut summary = IngestSummary::default();
        for s in samples.clone() {
            if !s.is_finite() {
                summary.dropped_non_finite += 1;
            } else if s < 0.0 {
                summary.dropped_negative += 1;
            }
        }
        self.malformed_dropped += u64::from(summary.dropped());
        obs_metrics()
            .malformed_dropped
            .add(u64::from(summary.dropped()));
        if summary.dropped() as usize == n_samples {
            // Every sample was malformed: drop the report without
            // touching epoch bookkeeping (a garbage report must not
            // roll an epoch over).
            return Ok(summary);
        }
        let default_epoch = self.config.default_epoch;
        let Some(state) = self
            .cells
            .cell_or_insert((zone, network), || ZoneState::fresh(default_epoch, t))
        else {
            // Unreachable: the table always finds or stores the cell.
            return Ok(summary);
        };
        if t - state.epoch_start >= state.epoch {
            Self::finalize_epoch(
                &mut self.alerts,
                self.config.change_threshold_sigma,
                zone,
                network,
                state,
                t,
            );
            state.epoch_start = t;
            state.current = RunningStats::new();
            state.issued_this_epoch = 0;
        }
        // Fold pass: valid samples stream straight into the sketch, in
        // report order.
        for s in samples {
            if s.is_finite() && s >= 0.0 {
                state.current.push(s);
                summary.accepted += 1;
            }
        }
        let m = obs_metrics();
        m.reports_accepted.inc();
        m.samples_accepted.add(u64::from(summary.accepted));
        Ok(summary)
    }

    /// Forces epoch finalization for every zone at `now` (end-of-run
    /// flush).
    pub fn flush(&mut self, now: SimTime) {
        let threshold = self.config.change_threshold_sigma;
        let alerts = &mut self.alerts;
        self.cells.walk_mut(|(zone, network), state| {
            Self::finalize_epoch(alerts, threshold, zone, network, state, now);
        });
        let m = obs_metrics();
        m.zones_tracked.set_max(self.cells.tracked() as f64);
        m.sketch_bytes.set_max(self.sketch_bytes() as f64);
        m.out_of_index_cells
            .set_max(self.cells.tracked_out_of_index() as f64);
    }

    /// The published estimate for a zone/network, if any.
    pub fn published(&self, zone: ZoneId, network: NetworkId) -> Option<ZoneEstimate> {
        self.cells.cell((zone, network)).and_then(|s| s.published)
    }

    /// All published estimates with their `(zone, network)` keys, in
    /// key order.
    pub fn all_published(&self) -> Vec<((ZoneId, NetworkId), ZoneEstimate)> {
        let mut out = Vec::new();
        self.cells
            .walk(|key, s| out.extend(s.published.map(|e| (key, e))));
        out
    }

    /// Change alerts emitted so far.
    pub fn alerts(&self) -> &[ChangeAlert] {
        &self.alerts
    }

    /// Total probe packets requested from clients (the overhead meter —
    /// WiScape's whole point is keeping this small).
    pub fn packets_requested(&self) -> u64 {
        self.packets_requested
    }

    /// Malformed samples dropped (and counted) across all reports.
    pub fn malformed_dropped(&self) -> u64 {
        self.malformed_dropped
    }

    /// Whole reports rejected at the ingest boundary.
    pub fn reports_rejected(&self) -> u64 {
        self.reports_rejected
    }

    /// The current epoch's moments for a zone/network, if the
    /// coordinator tracks it (monitoring/diagnostics surface).
    pub fn current_sketch(&self, zone: ZoneId, network: NetworkId) -> Option<&RunningStats> {
        self.cells.cell((zone, network)).map(|s| &s.current)
    }

    /// Number of `(zone, network)` cells the coordinator tracks.
    pub fn zones_tracked(&self) -> usize {
        self.cells.tracked()
    }

    /// Payload bytes of all per-zone aggregation state: exactly
    /// `zones_tracked() * per_zone_state_bytes()`, proportional to the
    /// zone count, never the observation count. This counts cell
    /// payloads only; the resident footprint adds the cell table's fixed
    /// 12 B of slots per index zone and the unfilled tail of its last
    /// storage chunk (DESIGN.md, "Streaming estimation & memory model").
    pub fn sketch_bytes(&self) -> usize {
        self.cells.tracked() * Self::per_zone_state_bytes()
    }

    /// Payload of one tracked cell: its key plus its epoch state. Not
    /// the resident cost of a cell (see [`Coordinator::sketch_bytes`]).
    pub fn per_zone_state_bytes() -> usize {
        std::mem::size_of::<(ZoneId, NetworkId)>() + std::mem::size_of::<ZoneState>()
    }

    /// Exports the coordinator's full *dynamic* state — every tracked
    /// `(zone, network)` cell plus alert and counter history — as a
    /// plain value the WAL snapshots to disk.
    ///
    /// Static identity (the [`ZoneIndex`] and [`CoordinatorConfig`]) is
    /// deliberately not part of the export: recovery reconstructs it
    /// from the same deployment parameters, and
    /// [`Coordinator::restore_state`] on a coordinator built with the
    /// same index/config reproduces this coordinator bit for bit (cells
    /// come out in sorted key order; the sketches round-trip through
    /// their `raw_parts` surfaces).
    pub fn export_state(&self) -> CoordinatorState {
        let mut cells = Vec::with_capacity(self.cells.tracked());
        self.export_cells_into(&mut cells);
        CoordinatorState {
            cells,
            alerts: self.alerts.clone(),
            packets_requested: self.packets_requested,
            malformed_dropped: self.malformed_dropped,
            reports_rejected: self.reports_rejected,
        }
    }

    /// Appends every tracked cell to `out`, in sorted `(zone, network)`
    /// order: the one cell walk behind [`Coordinator::export_state`]
    /// and the shard merge, which walks every shard into one vector.
    pub(crate) fn export_cells_into(&self, out: &mut Vec<ZoneCellState>) {
        self.cells.walk(|key, s| out.push(s.to_cell(key)));
    }

    /// Replaces the coordinator's dynamic state with an exported
    /// [`CoordinatorState`] (the WAL recovery path). The index and
    /// config are untouched; see [`Coordinator::export_state`].
    pub fn restore_state(&mut self, state: CoordinatorState) {
        self.cells.untrack_all();
        self.install_cells(state.cells);
        self.alerts = state.alerts;
        self.packets_requested = state.packets_requested;
        self.malformed_dropped = state.malformed_dropped;
        self.reports_rejected = state.reports_rejected;
    }

    /// Removes and returns every tracked cell whose zone lies in
    /// `lo..=hi`, in sorted `(zone, network)` order — the donor side of
    /// a shard zone-range migration.
    pub fn take_range(&mut self, lo: ZoneId, hi: ZoneId) -> Vec<ZoneCellState> {
        let mut keys = Vec::new();
        self.cells.walk(|key, _| {
            if key.0 >= lo && key.0 <= hi {
                keys.push(key);
            }
        });
        keys.into_iter()
            .filter_map(|key| Some(self.cells.untrack(key)?.to_cell(key)))
            .collect()
    }

    /// Installs cells produced by [`Coordinator::take_range`] on
    /// another shard — the receiver side of a zone-range migration.
    /// Cells already tracked under the same key are replaced.
    pub fn install_cells(&mut self, cells: Vec<ZoneCellState>) {
        for cell in cells {
            let state = ZoneState::from_cell(&cell);
            if let Some(slot) = self
                .cells
                .cell_or_insert((cell.zone, cell.network), || state)
            {
                *slot = state;
            }
        }
    }
}

/// One `(zone, network)` cell of exported coordinator state (the
/// public mirror of the private per-zone epoch record).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneCellState {
    /// The zone.
    pub zone: ZoneId,
    /// The network.
    pub network: NetworkId,
    /// Epoch length in force for this cell.
    pub epoch: SimDuration,
    /// When the current epoch started.
    pub epoch_start: SimTime,
    /// The current epoch's moments.
    pub sketch: RunningStats,
    /// Tasks issued so far this epoch.
    pub issued_this_epoch: u32,
    /// The published estimate, if any.
    pub published: Option<ZoneEstimate>,
    /// Per-zone sample quota override, if any.
    pub quota: Option<u32>,
}

/// Full dynamic coordinator state, exported by
/// [`Coordinator::export_state`] and reinstated by
/// [`Coordinator::restore_state`]. Cells are in sorted
/// `(zone, network)` order.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorState {
    /// Every tracked `(zone, network)` cell.
    pub cells: Vec<ZoneCellState>,
    /// Change-alert history.
    pub alerts: Vec<ChangeAlert>,
    /// Total probe packets requested from clients.
    pub packets_requested: u64,
    /// Malformed samples dropped across all reports.
    pub malformed_dropped: u64,
    /// Whole reports rejected at the ingest boundary.
    pub reports_rejected: u64,
}

/// The coordinator surface the channel layer drives.
///
/// [`Coordinator`] implements it by delegating straight to its
/// inherent methods; `wiscape-wal`'s `DurableCoordinator` implements
/// it by appending each mutation to its event log *before* folding it
/// into the wrapped coordinator, which is what makes snapshot+replay
/// recovery byte-identical, and by writing the appended records to the
/// OS before anything that depends on them leaves the process (see
/// [`CoordinatorHandle::commit_group`] for what that covers). The
/// `client`/`seq` tags identify the committed report in the log's
/// canonical `(t, client, seq)` order; the plain coordinator ignores
/// them.
pub trait CoordinatorHandle {
    /// Read-only view of the underlying coordinator.
    fn as_coordinator(&self) -> &Coordinator;

    /// [`Coordinator::client_checkin`], tagged for the event log.
    fn checkin_tagged(
        &mut self,
        client: ClientId,
        point: &wiscape_geo::GeoPoint,
        t: SimTime,
        networks: &[NetworkId],
        coin: f64,
    ) -> Vec<MeasurementTask>;

    /// [`Coordinator::ingest_samples`], tagged with the committed
    /// report's identity for the event log.
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
        I: Iterator<Item = f64> + ExactSizeIterator + Clone;

    /// [`Coordinator::set_zone_quota`], tagged for the event log.
    fn set_zone_quota_tagged(&mut self, zone: ZoneId, network: NetworkId, quota: u32);

    /// [`Coordinator::set_zone_epoch`], tagged for the event log.
    fn set_zone_epoch_tagged(&mut self, zone: ZoneId, network: NetworkId, epoch: SimDuration);

    /// [`Coordinator::flush`], tagged for the event log.
    fn flush_tagged(&mut self, now: SimTime);

    /// [`Coordinator::take_range`], tagged for the event log: the donor
    /// side of a shard zone-range rebalance. Durable implementations
    /// append a migration record *before* removing the cells so a crash
    /// mid-migration replays to the same post-move state.
    fn migrate_out_tagged(&mut self, lo: ZoneId, hi: ZoneId) -> Vec<ZoneCellState>;

    /// [`Coordinator::install_cells`], tagged for the event log: the
    /// receiver side of a shard zone-range rebalance.
    fn migrate_in_tagged(&mut self, cells: Vec<ZoneCellState>);

    /// Group commit: writes every event-log record this handle has
    /// buffered to the OS. The channel server calls it at the end of
    /// each `receive`, before the acks and tasks of that transmission
    /// leave. Under the server's `Immediate` policy that puts every
    /// acked report's record on disk before its ack. Under `Watermark`
    /// it does not: a staged report is acked at once, but reaches this
    /// handle, and so the log, only when the watermark commits it (at
    /// `drain`, when the settle window outlasts the run), and a death
    /// before then loses it. A handle without a log has nothing to
    /// write.
    fn commit_group(&mut self) {}
}

impl CoordinatorHandle for Coordinator {
    fn as_coordinator(&self) -> &Coordinator {
        self
    }

    fn checkin_tagged(
        &mut self,
        client: ClientId,
        point: &wiscape_geo::GeoPoint,
        t: SimTime,
        networks: &[NetworkId],
        coin: f64,
    ) -> Vec<MeasurementTask> {
        self.client_checkin(client, point, t, networks, coin)
    }

    fn ingest_samples_tagged<I>(
        &mut self,
        _client: ClientId,
        _seq: u64,
        zone: ZoneId,
        network: NetworkId,
        t: SimTime,
        samples: I,
    ) -> Result<IngestSummary, IngestError>
    where
        I: Iterator<Item = f64> + ExactSizeIterator + Clone,
    {
        self.ingest_samples(zone, network, t, samples)
    }

    fn set_zone_quota_tagged(&mut self, zone: ZoneId, network: NetworkId, quota: u32) {
        self.set_zone_quota(zone, network, quota);
    }

    fn set_zone_epoch_tagged(&mut self, zone: ZoneId, network: NetworkId, epoch: SimDuration) {
        self.set_zone_epoch(zone, network, epoch);
    }

    fn flush_tagged(&mut self, now: SimTime) {
        self.flush(now);
    }

    fn migrate_out_tagged(&mut self, lo: ZoneId, hi: ZoneId) -> Vec<ZoneCellState> {
        self.take_range(lo, hi)
    }

    fn migrate_in_tagged(&mut self, cells: Vec<ZoneCellState>) {
        self.install_cells(cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_geo::GeoPoint;

    fn center() -> GeoPoint {
        GeoPoint::new(43.0731, -89.4012).unwrap()
    }

    fn coordinator() -> Coordinator {
        Coordinator::new(
            ZoneIndex::around(center(), 5000.0).unwrap(),
            CoordinatorConfig::default(),
        )
    }

    fn report(c: &Coordinator, t: SimTime, values: &[f64]) -> SampleReport {
        let zone = c.index().zone_of(&center());
        SampleReport {
            client: ClientId(1),
            task: MeasurementTask {
                zone,
                network: NetworkId::NetB,
                kind: TransportKind::Udp,
                n_packets: values.len() as u32,
                packet_bytes: 1200,
            },
            zone,
            t,
            samples: values.to_vec(),
        }
    }

    #[test]
    fn issues_tasks_until_target_met() {
        let mut c = coordinator();
        let nets = [NetworkId::NetB];
        let mut issued = 0;
        // Stay within one 30-minute epoch.
        for k in 0..150 {
            let t = SimTime::from_secs(k * 10);
            // coin = 0 -> always issue when needed.
            issued += c
                .client_checkin(ClientId(k as u32), &center(), t, &nets, 0.0)
                .len();
        }
        // 100 samples / 20 per task = 5 tasks, then stop for the epoch.
        assert_eq!(issued, 5);
        assert_eq!(c.packets_requested(), 100);
        // The next epoch starts collection afresh.
        issued += c
            .client_checkin(
                ClientId(9),
                &center(),
                SimTime::from_secs(31 * 60),
                &nets,
                0.0,
            )
            .len();
        assert_eq!(issued, 6);
    }

    #[test]
    fn issue_probability_scales_with_need() {
        let c = coordinator();
        assert!((c.issue_probability(5) - 0.1).abs() < 1e-12);
        assert_eq!(c.issue_probability(1000), 1.0);
        assert_eq!(c.issue_probability(0), 0.0);
    }

    #[test]
    fn coin_gates_task_issue() {
        let mut c = coordinator();
        let nets = [NetworkId::NetB];
        // needed 5 tasks of 50 expected checkins -> p = 0.1.
        let t = SimTime::from_secs(1);
        assert!(c
            .client_checkin(ClientId(1), &center(), t, &nets, 0.5)
            .is_empty());
        assert_eq!(
            c.client_checkin(ClientId(1), &center(), t, &nets, 0.05)
                .len(),
            1
        );
    }

    #[test]
    fn quota_exactly_met_stops_issuance() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        let nets = [NetworkId::NetB];
        c.set_zone_quota(zone, NetworkId::NetB, 40);
        // Exactly the quota arrives in one epoch: have == target is the
        // stop condition, not have > target.
        let vals: Vec<f64> = (0..40).map(|i| 100.0 + i as f64).collect();
        c.ingest_report(&report(&c, SimTime::from_secs(0), &vals))
            .unwrap();
        assert!(c
            .client_checkin(ClientId(1), &center(), SimTime::from_secs(10), &nets, 0.0)
            .is_empty());
        assert_eq!(c.packets_requested(), 0);
    }

    #[test]
    fn one_sample_short_issues_exactly_one_task() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        let nets = [NetworkId::NetB];
        c.set_zone_quota(zone, NetworkId::NetB, 40);
        let vals: Vec<f64> = (0..39).map(|i| 100.0 + i as f64).collect();
        c.ingest_report(&report(&c, SimTime::from_secs(0), &vals))
            .unwrap();
        // 1 sample missing -> 1 task needed -> p = 1/50; a low coin wins.
        let t = SimTime::from_secs(10);
        assert_eq!(
            c.client_checkin(ClientId(1), &center(), t, &nets, 0.01)
                .len(),
            1
        );
        // The outstanding task already covers the deficit: nothing more
        // is issued this epoch, even with coin = 0.
        assert!(c
            .client_checkin(ClientId(2), &center(), SimTime::from_secs(20), &nets, 0.0)
            .is_empty());
        assert_eq!(c.packets_requested(), 20);
    }

    #[test]
    fn quota_exceeded_mid_epoch_is_ingested_but_stops_issuance() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        let nets = [NetworkId::NetB];
        c.set_zone_quota(zone, NetworkId::NetB, 40);
        // Opportunistic over-delivery (50 > 40) is kept, not rejected …
        let vals: Vec<f64> = (0..50).map(|i| 100.0 + i as f64).collect();
        c.ingest_report(&report(&c, SimTime::from_secs(0), &vals))
            .unwrap();
        assert_eq!(c.reports_rejected(), 0);
        // … and pacing treats the surplus as quota met.
        assert!(c
            .client_checkin(ClientId(1), &center(), SimTime::from_secs(10), &nets, 0.0)
            .is_empty());
        assert_eq!(c.packets_requested(), 0);
        // The surplus samples all enter the epoch estimate.
        c.ingest_report(&report(&c, SimTime::from_secs(31 * 60), &[100.0]))
            .unwrap();
        assert_eq!(c.published(zone, NetworkId::NetB).unwrap().samples, 50);
    }

    #[test]
    fn issue_probability_at_zero_need_never_issues() {
        let c = coordinator();
        // needed == 0 is a hard floor: p == 0.0 exactly, and the strict
        // `coin < p` gate means even coin == 0.0 cannot issue.
        let p = c.issue_probability(0);
        assert_eq!(p, 0.0);
        assert!(0.0 >= p, "coin < p must be false for every coin in [0,1)");
    }

    #[test]
    fn publishes_first_estimate_after_epoch() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        c.ingest_report(&report(&c, SimTime::from_secs(0), &[100.0, 110.0]))
            .unwrap();
        assert!(c.published(zone, NetworkId::NetB).is_none());
        // Next report lands after the default 30 min epoch -> finalize.
        c.ingest_report(&report(&c, SimTime::from_secs(31 * 60), &[120.0]))
            .unwrap();
        let e = c.published(zone, NetworkId::NetB).unwrap();
        assert_eq!(e.samples, 2);
        assert_eq!(e.mean, 105.0);
        assert!(c.alerts().is_empty(), "first publish is not a change");
    }

    #[test]
    fn stable_zone_does_not_alert() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        for k in 0..5 {
            let t = SimTime::from_secs(k * 31 * 60);
            c.ingest_report(&report(&c, t, &[100.0, 102.0, 98.0, 101.0]))
                .unwrap();
        }
        c.flush(SimTime::from_secs(3 * 3600));
        assert!(c.published(zone, NetworkId::NetB).is_some());
        assert!(c.alerts().is_empty());
    }

    #[test]
    fn big_shift_alerts_and_updates() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        c.ingest_report(&report(&c, SimTime::from_secs(0), &[100.0, 102.0, 98.0]))
            .unwrap();
        // Finalizes first epoch, publishes ~100.
        c.ingest_report(&report(
            &c,
            SimTime::from_secs(31 * 60),
            &[400.0, 410.0, 390.0],
        ))
        .unwrap();
        // Finalizes second epoch (mean 400, >> 2 sigma away).
        c.ingest_report(&report(&c, SimTime::from_secs(62 * 60), &[400.0]))
            .unwrap();
        assert_eq!(c.alerts().len(), 1);
        let a = c.alerts()[0];
        assert_eq!(a.old_mean, 100.0);
        assert_eq!(a.new_mean, 400.0);
        assert!(a.sigmas > 2.0);
        assert_eq!(c.published(zone, NetworkId::NetB).unwrap().mean, 400.0);
    }

    #[test]
    fn small_shift_keeps_old_published_value() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        c.ingest_report(&report(&c, SimTime::from_secs(0), &[100.0, 110.0, 90.0]))
            .unwrap();
        c.ingest_report(&report(
            &c,
            SimTime::from_secs(31 * 60),
            &[105.0, 108.0, 102.0],
        ))
        .unwrap();
        c.ingest_report(&report(&c, SimTime::from_secs(62 * 60), &[105.0]))
            .unwrap();
        // Second estimate within 2 sigma of first -> record unchanged.
        assert_eq!(c.published(zone, NetworkId::NetB).unwrap().mean, 100.0);
        assert!(c.alerts().is_empty());
    }

    #[test]
    fn zone_epoch_override_is_used() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        c.set_zone_epoch(zone, NetworkId::NetB, SimDuration::from_mins(75));
        assert_eq!(
            c.zone_epoch(zone, NetworkId::NetB),
            SimDuration::from_mins(75)
        );
        // A report 40 min later must NOT finalize (epoch is 75 min now).
        c.ingest_report(&report(&c, SimTime::from_secs(0), &[100.0]))
            .unwrap();
        c.ingest_report(&report(&c, SimTime::from_secs(40 * 60), &[200.0]))
            .unwrap();
        assert!(c.published(zone, NetworkId::NetB).is_none());
        // But 80 min later it must.
        c.ingest_report(&report(&c, SimTime::from_secs(80 * 60), &[200.0]))
            .unwrap();
        assert!(c.published(zone, NetworkId::NetB).is_some());
    }

    #[test]
    fn separate_zones_are_independent() {
        let mut c = coordinator();
        let far = center().destination(0.0, 3000.0);
        let z1 = c.index().zone_of(&center());
        let z2 = c.index().zone_of(&far);
        assert_ne!(z1, z2);
        let mut r = report(&c, SimTime::from_secs(0), &[100.0]);
        c.ingest_report(&r).unwrap();
        r.zone = z2;
        r.samples = vec![900.0];
        c.ingest_report(&r).unwrap();
        c.flush(SimTime::from_secs(3600 * 2));
        assert_eq!(c.published(z1, NetworkId::NetB).unwrap().mean, 100.0);
        assert_eq!(c.published(z2, NetworkId::NetB).unwrap().mean, 900.0);
        let mut want = vec![(z1, NetworkId::NetB), (z2, NetworkId::NetB)];
        want.sort();
        let keys: Vec<_> = c.all_published().iter().map(|&(key, _)| key).collect();
        assert_eq!(keys, want, "published in key order");
    }

    #[test]
    fn empty_report_is_rejected() {
        let mut c = coordinator();
        let r = report(&c, SimTime::from_secs(0), &[]);
        assert_eq!(c.ingest_report(&r), Err(IngestError::EmptyReport));
        assert_eq!(c.reports_rejected(), 1);
        assert!(c.all_published().is_empty());
    }

    #[test]
    fn out_of_bounds_zone_is_rejected() {
        let mut c = coordinator();
        let mut r = report(&c, SimTime::from_secs(0), &[100.0]);
        let far = center().destination(0.0, 500_000.0);
        r.zone = c.index().zone_of(&far);
        assert_eq!(c.ingest_report(&r), Err(IngestError::UnknownZone(r.zone)));
        assert_eq!(c.reports_rejected(), 1);
    }

    #[test]
    fn malformed_samples_are_dropped_and_counted() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        let r = report(
            &c,
            SimTime::from_secs(0),
            &[100.0, f64::NAN, -5.0, 110.0, f64::INFINITY],
        );
        let s = c.ingest_report(&r).unwrap();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.dropped_non_finite, 2);
        assert_eq!(s.dropped_negative, 1);
        assert_eq!(c.malformed_dropped(), 3);
        // The surviving samples form the estimate; the garbage does not.
        c.flush(SimTime::from_secs(3600));
        assert_eq!(c.published(zone, NetworkId::NetB).unwrap().mean, 105.0);
    }

    #[test]
    fn fully_malformed_report_does_not_roll_epoch() {
        let mut c = coordinator();
        let zone = c.index().zone_of(&center());
        c.ingest_report(&report(&c, SimTime::from_secs(0), &[100.0, 110.0]))
            .unwrap();
        // An all-garbage report past the epoch boundary must not
        // finalize the epoch.
        let s = c
            .ingest_report(&report(&c, SimTime::from_secs(31 * 60), &[f64::NAN]))
            .unwrap();
        assert_eq!(s.accepted, 0);
        assert!(c.published(zone, NetworkId::NetB).is_none());
    }

    /// Determinism regression (previously hazardous path): `flush`
    /// iterated a `HashMap`, so alert emission order depended on hash
    /// iteration order. The cell table walks in sorted `(zone, network)`
    /// key order regardless of ingest order.
    #[test]
    fn flush_alert_order_is_ingest_order_independent() {
        let run = |order: &[f64]| {
            let mut c = coordinator();
            for &bearing in order {
                let p = center().destination(bearing, 3000.0);
                let zone = c.index().zone_of(&p);
                let mut r = report(&c, SimTime::from_secs(0), &[100.0, 101.0, 99.0]);
                r.zone = zone;
                r.task.zone = zone;
                c.ingest_report(&r).unwrap();
                let mut r2 = report(&c, SimTime::from_secs(31 * 60), &[400.0, 401.0, 399.0]);
                r2.zone = zone;
                r2.task.zone = zone;
                c.ingest_report(&r2).unwrap();
            }
            c.flush(SimTime::from_secs(62 * 60));
            c.alerts().to_vec()
        };
        let a = run(&[0.0, 90.0, 180.0, 270.0]);
        let b = run(&[270.0, 90.0, 0.0, 180.0]);
        assert_eq!(a.len(), 4);
        assert_eq!(a, b, "alert stream must not depend on ingest order");
        let keys: Vec<_> = a.iter().map(|al| (al.zone, al.network)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "alerts emitted in sorted key order");
    }

    /// A cell's payload: its 12 B key and its 112 B epoch state, whose
    /// published estimate stores no second copy of the key.
    #[test]
    fn a_cell_holds_its_key_once() {
        assert_eq!(std::mem::size_of::<ZoneState>(), 112);
        assert_eq!(Coordinator::per_zone_state_bytes(), 124);
    }

    #[test]
    fn overhead_meter_counts_packets() {
        let mut c = coordinator();
        let nets = [NetworkId::NetB, NetworkId::NetC];
        c.client_checkin(ClientId(1), &center(), SimTime::from_secs(0), &nets, 0.0);
        assert_eq!(c.packets_requested(), 40); // one 20-packet task per net
    }
}
