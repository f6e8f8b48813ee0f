//! Sharded multi-coordinator scale-out.
//!
//! A single [`Coordinator`] folds every zone of the map; at carrier
//! scale (millions of reporting handsets) the ingest path must scale
//! horizontally. This module partitions the zone index into **N
//! contiguous zone ranges**, runs one coordinator handle per range, and
//! folds the per-shard state back together with a deterministic merge
//! tier whose output is provably **bit-identical** to a
//! single-coordinator run — the same proof discipline as the channel's
//! `perfect_link()` and the WAL's snapshot+replay recovery.
//!
//! [`ShardSet`] is itself a [`CoordinatorHandle`], so the sharded wire
//! path is the ordinary channel server over it
//! (`ChannelServer<ShardSet<C>>` in `wiscape-channel`). Each shard is a
//! plain [`Coordinator`] or a WAL-backed handle with its own event log.
//! `wiscape map --shards` and `repro --shards` build their sets and
//! rebalance them mid-run in `wiscape-experiments`' topology runner.
//!
//! Why the merge is bitwise-exact:
//!
//! * Every non-flush coordinator operation touches exactly **one**
//!   zone: a sample report folds into one `(zone, network)` cell, a
//!   check-in or a quota/epoch install touches one zone. Routing each
//!   operation to the shard owning its zone therefore preserves the
//!   per-cell operation subsequence exactly, and each cell's state is a
//!   pure fold of that subsequence — so every cell ends bit-identical
//!   to the single-coordinator run. A tuned quota or epoch goes to the
//!   owner only: a broadcast would materialize the cell on every shard
//!   and double it in the merge.
//! * Every decision that is not a fold is made once, above the set, by
//!   the one server: a `(client, seq)` is deduplicated before it is
//!   routed (so a retry straddling a rebalance cannot fold twice after
//!   its zone changed owner), staged reports commit in one global
//!   `(t, client, seq)` order, and each task coin is drawn once and
//!   spent on the owning shard.
//! * The counters are commutative sums, so totals are
//!   shard-count-invariant.
//! * Change alerts are chronological. [`AlertMerge`] drains each
//!   shard's newly emitted alerts immediately after every routed
//!   operation, reconstructing the exact single-coordinator alert
//!   stream; flush alerts (all stamped with the same instant) are
//!   collected across shards and sorted by `(zone, network)` — the
//!   precise order a single coordinator's sorted-cell flush emits them.
//! * Zone-range **rebalancing** moves whole cells between shards via
//!   [`CoordinatorHandle::migrate_out_tagged`] /
//!   [`CoordinatorHandle::migrate_in_tagged`] (durably: WAL migration
//!   records), which does not alter any cell's fold, so the merged
//!   bytes stay identical across any seeded mid-stream move. The move
//!   is checked against the assignment before any cell leaves its
//!   shard, so an inapplicable move changes nothing.
//!
//! The shard/merge code is part of the panic-proved surface (lint rule
//! P001 roots): no indexing, no `unwrap`, total routing.

use std::sync::OnceLock;

use wiscape_geo::GeoPoint;
use wiscape_mobility::ClientId;
use wiscape_simcore::{exec, SimDuration, SimTime, StreamRng};
use wiscape_simnet::NetworkId;

use crate::coordinator::{
    ChangeAlert, Coordinator, CoordinatorConfig, CoordinatorHandle, CoordinatorState, IngestError,
    IngestSummary, MeasurementTask, SampleReport, ZoneCellState,
};
use crate::zone::{ZoneId, ZoneIndex};

/// Obs counters for the shard tier (see `OBSERVABILITY.md`). All
/// updates are commutative adds, so snapshot totals stay bitwise
/// identical for any worker count. Counters only: the routed ingest
/// path reaches this from the server's alloc-free commit, and only
/// counter registration is inventoried as alloc-exempt — the
/// `shard/shards_max` gauge is registered where it is set, in
/// [`ShardSet::from_handles`].
struct ShardMetrics {
    checkins_routed: wiscape_obs::Counter,
    reports_routed: wiscape_obs::Counter,
    batches: wiscape_obs::Counter,
    rebalances: wiscape_obs::Counter,
    cells_migrated: wiscape_obs::Counter,
    merges: wiscape_obs::Counter,
}

fn metrics() -> &'static ShardMetrics {
    static M: OnceLock<ShardMetrics> = OnceLock::new();
    M.get_or_init(|| ShardMetrics {
        checkins_routed: wiscape_obs::counter("shard/checkins_routed"),
        reports_routed: wiscape_obs::counter("shard/reports_routed"),
        batches: wiscape_obs::counter("shard/batches"),
        rebalances: wiscape_obs::counter("shard/rebalances"),
        cells_migrated: wiscape_obs::counter("shard/cells_migrated"),
        merges: wiscape_obs::counter("shard/merges"),
    })
}

/// Partition of the zone index into contiguous zone ranges, each owned
/// by one shard.
///
/// `starts` holds the first zone of each range in ascending [`ZoneId`]
/// order; `owners` maps each range to the shard that folds it. Routing
/// is total: zones below the first start (including out-of-bounds ids,
/// which the owning coordinator then rejects exactly as a single
/// coordinator would) fall to the first range's owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    starts: Vec<ZoneId>,
    owners: Vec<usize>,
}

impl ShardAssignment {
    /// Partitions `index` into `shards` contiguous ranges of
    /// near-equal zone count (range `k` owned by shard `k`).
    pub fn even(index: &ZoneIndex, shards: usize) -> Self {
        let n = shards.max(1);
        let mut zones: Vec<ZoneId> = index.zones().collect();
        zones.sort_unstable();
        let mut starts = Vec::with_capacity(n);
        let mut owners = Vec::with_capacity(n);
        let per = zones.len().div_ceil(n).max(1);
        for (k, chunk) in zones.chunks(per).enumerate() {
            if let Some(&first) = chunk.first() {
                starts.push(first);
                owners.push(k);
            }
        }
        Self { starts, owners }
    }

    /// Number of contiguous ranges.
    pub fn ranges(&self) -> usize {
        self.starts.len()
    }

    /// The first zone of range `k`, if it exists.
    pub fn range_start(&self, k: usize) -> Option<ZoneId> {
        self.starts.get(k).copied()
    }

    /// The shard owning range `k`, if it exists.
    pub fn owner_of_range(&self, k: usize) -> Option<usize> {
        self.owners.get(k).copied()
    }

    /// Replaces the range→shard ownership map (used by determinism
    /// tests to prove merge invariance under owner permutations).
    /// Returns `false` (unchanged) if the length does not match.
    pub fn set_owners(&mut self, owners: Vec<usize>) -> bool {
        if owners.len() == self.owners.len() {
            self.owners = owners;
            true
        } else {
            false
        }
    }

    /// The shard owning `zone`. Total: ids below the first range
    /// boundary route to the first range's owner.
    pub fn shard_of(&self, zone: ZoneId) -> usize {
        let range = self
            .starts
            .partition_point(|s| *s <= zone)
            .saturating_sub(1);
        self.owners.get(range).copied().unwrap_or(0)
    }

    /// Applies a boundary move: the range following `mv.from`'s range
    /// now begins at `mv.lo`. Returns whether the assignment changed.
    pub fn apply(&mut self, mv: &RebalanceMove) -> bool {
        let range = self
            .starts
            .partition_point(|s| *s <= mv.lo)
            .saturating_sub(1);
        let next = range.saturating_add(1);
        let ok = self.owners.get(range).copied() == Some(mv.from)
            && self.owners.get(next).copied() == Some(mv.to);
        if ok {
            if let Some(s) = self.starts.get_mut(next) {
                *s = mv.lo;
                return true;
            }
        }
        false
    }
}

/// A zone-range move between two adjacent shards: zones `lo..=hi`
/// leave shard `from` and join shard `to` (the owner of the next
/// range, whose boundary slides down to `lo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceMove {
    /// Donor shard.
    pub from: usize,
    /// Receiving shard.
    pub to: usize,
    /// First zone moved (the receiving range's new start).
    pub lo: ZoneId,
    /// Last zone moved, inclusive.
    pub hi: ZoneId,
}

impl RebalanceMove {
    /// Moves the upper half of range `k`'s zones to the owner of range
    /// `k + 1`. `None` when the split is impossible (no next range, or
    /// fewer than two zones in the range).
    pub fn split_upper(index: &ZoneIndex, assignment: &ShardAssignment, k: usize) -> Option<Self> {
        let from = assignment.owner_of_range(k)?;
        let to = assignment.owner_of_range(k.checked_add(1)?)?;
        let lo_bound = assignment.range_start(k)?;
        let hi_bound = assignment.range_start(k.checked_add(1)?)?;
        let mut zones: Vec<ZoneId> = index
            .zones()
            .filter(|z| *z >= lo_bound && *z < hi_bound)
            .collect();
        zones.sort_unstable();
        if zones.len() < 2 {
            return None;
        }
        let lo = zones.get(zones.len() / 2).copied()?;
        let hi = zones.last().copied()?;
        Some(Self { from, to, lo, hi })
    }

    /// Seeded move: forks a [`StreamRng`] on `"rebalance"` to pick the
    /// donor range, then splits its upper half — the same
    /// deterministic-injection discipline as the WAL's `CrashPlan`.
    pub fn seeded(seed: u64, index: &ZoneIndex, assignment: &ShardAssignment) -> Option<Self> {
        let ranges = assignment.ranges();
        if ranges < 2 {
            return None;
        }
        let stream = StreamRng::new(seed).fork("rebalance");
        let k = (stream.fork("range").draw_u64() % (ranges as u64 - 1)) as usize;
        Self::split_upper(index, assignment, k)
    }
}

/// Deterministic reconstruction of the single-coordinator alert
/// stream from per-shard alert logs.
///
/// Each shard appends alerts chronologically to its own log; a cursor
/// per shard marks how far this merge has drained it. Draining
/// *immediately after every routed operation* ([`AlertMerge::note`])
/// interleaves the per-shard streams in true chronological order,
/// because each operation can only emit alerts on the one shard it
/// routed to. Synchronized flushes ([`AlertMerge::note_flush`]) stamp
/// every alert with the same instant, so their canonical order is
/// sorted `(zone, network)` — exactly the order a single coordinator's
/// sorted-cell flush emits.
#[derive(Debug, Clone, Default)]
pub struct AlertMerge {
    cursors: Vec<usize>,
    merged: Vec<ChangeAlert>,
}

impl AlertMerge {
    /// A merge over `shards` per-shard alert logs.
    pub fn new(shards: usize) -> Self {
        Self {
            cursors: vec![0; shards],
            merged: Vec::new(),
        }
    }

    /// Drains shard `shard`'s newly emitted alerts (its log suffix past
    /// this merge's cursor) into the merged stream, in log order.
    pub fn note(&mut self, shard: usize, alerts: &[ChangeAlert]) {
        if let Some(cursor) = self.cursors.get_mut(shard) {
            if let Some(new) = alerts.get(*cursor..) {
                self.merged.extend_from_slice(new);
            }
            *cursor = alerts.len();
        }
    }

    /// Drains every shard's new alerts after a synchronized flush,
    /// appending them in sorted `(zone, network)` order.
    pub fn note_flush(&mut self, per_shard: &[&[ChangeAlert]]) {
        let mut batch: Vec<ChangeAlert> = Vec::new();
        for (shard, alerts) in per_shard.iter().enumerate() {
            if let Some(cursor) = self.cursors.get_mut(shard) {
                if let Some(new) = alerts.get(*cursor..) {
                    batch.extend_from_slice(new);
                }
                *cursor = alerts.len();
            }
        }
        batch.sort_by_key(|a| (a.zone, a.network));
        self.merged.extend_from_slice(&batch);
    }

    /// The merged chronological alert stream.
    pub fn merged(&self) -> &[ChangeAlert] {
        &self.merged
    }
}

/// Folds the shards' coordinators into one [`CoordinatorState`]: every
/// shard's cells walked straight into one vector sized for all of them
/// and stably sorted by `(zone, network)` (each cell lives on exactly
/// one shard), counters summed, the alert stream supplied by the
/// caller's [`AlertMerge`]. With shards that own ascending zone ranges
/// in shard order, as [`ShardAssignment::even`] builds them, the walk
/// already yields sorted cells and the sort is one linear pass; it
/// still puts permuted owners and rebalanced ranges into canonical
/// order.
pub fn merge_states(shards: &[&Coordinator], alerts: Vec<ChangeAlert>) -> CoordinatorState {
    let tracked = shards
        .iter()
        .fold(0usize, |n, c| n.saturating_add(c.zones_tracked()));
    let mut merged = CoordinatorState {
        cells: Vec::with_capacity(tracked),
        alerts,
        packets_requested: 0,
        malformed_dropped: 0,
        reports_rejected: 0,
    };
    for c in shards {
        c.export_cells_into(&mut merged.cells);
        merged.packets_requested = merged.packets_requested.wrapping_add(c.packets_requested());
        merged.malformed_dropped = merged.malformed_dropped.wrapping_add(c.malformed_dropped());
        merged.reports_rejected = merged.reports_rejected.wrapping_add(c.reports_rejected());
    }
    merged.cells.sort_by_key(|c| (c.zone, c.network));
    metrics().merges.inc();
    merged
}

/// A canonical fingerprint of a [`CoordinatorState`]: every float
/// captured via `to_bits`, every integer exact, cells in their stored
/// order. Two states fingerprint equal iff the WAL snapshot codec
/// would serialize them to identical bytes — the determinism tests'
/// bit-exact comparator (usable from crates below `wiscape-wal`).
pub fn state_fingerprint(state: &CoordinatorState) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in &state.cells {
        let (count, mean, m2, min, max) = c.sketch.raw_parts();
        let _ = write!(
            out,
            "cell {:?} {:?} epoch={:?} start={:?} \
             sketch=({count},{:x},{:x},{:x},{:x}) issued={}",
            c.zone,
            c.network,
            c.epoch,
            c.epoch_start,
            mean.to_bits(),
            m2.to_bits(),
            min.to_bits(),
            max.to_bits(),
            c.issued_this_epoch,
        );
        match c.published {
            None => out.push_str(" pub=-"),
            Some(e) => {
                let _ = write!(
                    out,
                    " pub=({:x},{:x},{},{:?})",
                    e.mean.to_bits(),
                    e.std_dev.to_bits(),
                    e.samples,
                    e.formed_at,
                );
            }
        }
        match c.quota {
            None => out.push_str(" quota=-\n"),
            Some(q) => {
                let _ = writeln!(out, " quota={q}");
            }
        }
    }
    for a in &state.alerts {
        let _ = writeln!(
            out,
            "alert {:?} {:?} {:x} {:x} {:x} {:?}",
            a.zone,
            a.network,
            a.old_mean.to_bits(),
            a.new_mean.to_bits(),
            a.sigmas.to_bits(),
            a.at,
        );
    }
    let _ = writeln!(
        out,
        "counters {} {} {}",
        state.packets_requested, state.malformed_dropped, state.reports_rejected,
    );
    out
}

/// N coordinator handles over one zone index, with routed operations,
/// a batched parallel ingest path, seeded rebalancing, and the
/// deterministic merge back to single-coordinator state.
///
/// As a [`CoordinatorHandle`] it routes every tagged call to the shard
/// owning the call's zone. [`CoordinatorHandle::as_coordinator`] serves
/// a merged view that each [`CoordinatorHandle::flush_tagged`]
/// refreshes: the merged state as of the last flush, or an empty
/// coordinator over the shared index before the first. Until that first
/// refresh the view costs one coordinator slot table, 4 B per index
/// zone and network. After it, the view also holds a copy of every
/// shard's cells: at `nation_shards` scale, 316,875 cells of 124 B,
/// about 39 MB on top of the shards' own.
#[derive(Debug, Clone)]
pub struct ShardSet<C: CoordinatorHandle = Coordinator> {
    shards: Vec<C>,
    assignment: ShardAssignment,
    merge: AlertMerge,
    index: ZoneIndex,
    merged: Coordinator,
}

impl ShardSet<Coordinator> {
    /// `shards` coordinators over `index` with an even contiguous
    /// zone-range assignment.
    pub fn new(index: ZoneIndex, config: CoordinatorConfig, shards: usize) -> Self {
        let assignment = ShardAssignment::even(&index, shards);
        Self::with_assignment(index, config, shards, assignment)
    }

    /// As [`ShardSet::new`] with an explicit assignment (permuted
    /// ownership, pre-split ranges).
    pub fn with_assignment(
        index: ZoneIndex,
        config: CoordinatorConfig,
        shards: usize,
        assignment: ShardAssignment,
    ) -> Self {
        let fleet = (0..shards.max(1))
            .map(|_| Coordinator::new(index.clone(), config.clone()))
            .collect();
        Self::from_handles(fleet, assignment, index, config)
    }

    /// Batched parallel ingest: reports are bucketed by owning shard
    /// (stable, preserving per-shard arrival order) and each shard
    /// folds its bucket serially on its own worker
    /// ([`exec::par_map_mut`]), so the folded cells are bitwise
    /// identical for any `WISCAPE_THREADS`. Alerts emitted mid-batch
    /// are drained in shard order afterwards (chronological-exact when
    /// the batch stays within one epoch, as the throughput benches
    /// do).
    pub fn ingest_batch(&mut self, reports: &[SampleReport]) {
        metrics().batches.inc();
        metrics().reports_routed.add(reports.len() as u64);
        let fleet = std::mem::take(&mut self.shards);
        let mut work: Vec<(Coordinator, Vec<usize>)> =
            fleet.into_iter().map(|c| (c, Vec::new())).collect();
        for (i, report) in reports.iter().enumerate() {
            let shard = self.assignment.shard_of(report.zone);
            if let Some(bucket) = work.get_mut(shard) {
                bucket.1.push(i);
            }
        }
        exec::par_map_mut(&mut work, |_, (coordinator, bucket)| {
            for &i in bucket.iter() {
                if let Some(report) = reports.get(i) {
                    let _ = coordinator.ingest_report(report);
                }
            }
        });
        for (shard, (coordinator, _)) in work.iter().enumerate() {
            self.merge.note(shard, coordinator.alerts());
        }
        self.shards = work.into_iter().map(|(c, _)| c).collect();
    }
}

impl<C: CoordinatorHandle> ShardSet<C> {
    /// A set over externally built handles, one per shard in shard
    /// order, owning the zone ranges of `assignment` — the durable
    /// entry point: pass one WAL-backed handle per shard and each logs
    /// its own event stream, rebalance migrations included. `config`
    /// is the handles' coordinator configuration (for the merged view).
    pub fn from_handles(
        handles: Vec<C>,
        assignment: ShardAssignment,
        index: ZoneIndex,
        config: CoordinatorConfig,
    ) -> Self {
        let n = handles.len();
        wiscape_obs::gauge("shard/shards_max").set_max(n as f64);
        Self {
            shards: handles,
            assignment,
            merge: AlertMerge::new(n),
            merged: Coordinator::new(index.clone(), config),
            index,
        }
    }

    /// The current zone-range assignment.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// The shared zone index.
    pub fn index(&self) -> &ZoneIndex {
        &self.index
    }

    /// The per-shard handles, in shard order.
    pub fn shards(&self) -> &[C] {
        &self.shards
    }

    /// Mutable per-shard handles, in shard order (end-of-run WAL
    /// shutdown and meters).
    pub fn shards_mut(&mut self) -> std::slice::IterMut<'_, C> {
        self.shards.iter_mut()
    }

    /// Flushes every shard at `now` and merges the flush alerts in
    /// canonical sorted order. Unlike
    /// [`CoordinatorHandle::flush_tagged`], leaves the merged view
    /// as it was; read [`ShardSet::merged_state`] instead.
    pub fn flush(&mut self, now: SimTime) {
        for c in self.shards.iter_mut() {
            c.flush_tagged(now);
        }
        let logs: Vec<&[ChangeAlert]> = self
            .shards
            .iter()
            .map(|c| c.as_coordinator().alerts())
            .collect();
        self.merge.note_flush(&logs);
    }

    /// Moves the cells of `mv`'s zone range from shard `mv.from` to
    /// `mv.to` and slides the range boundary. Returns the number of
    /// cells migrated. The move is checked against the assignment
    /// before any cell leaves its shard, so an inapplicable move is a
    /// no-op that returns 0.
    ///
    /// With WAL-backed handles this logs a `MigrateOut` on the source
    /// and a `MigrateIn` on the destination, so both logs replay to the
    /// post-migration ownership.
    pub fn rebalance(&mut self, mv: &RebalanceMove) -> usize {
        let mut next = self.assignment.clone();
        if mv.to >= self.shards.len() || !next.apply(mv) {
            return 0;
        }
        let cells = match self.shards.get_mut(mv.from) {
            Some(c) => c.migrate_out_tagged(mv.lo, mv.hi),
            None => return 0,
        };
        let n = cells.len();
        if let Some(c) = self.shards.get_mut(mv.to) {
            c.migrate_in_tagged(cells);
        }
        self.assignment = next;
        metrics().rebalances.inc();
        metrics().cells_migrated.add(n as u64);
        n
    }

    /// The merged dynamic state — provably identical to what a single
    /// coordinator fed the same operation stream would export. One
    /// [`merge_states`] over the shards' coordinators: their cells are
    /// copied once, straight into the returned state.
    pub fn merged_state(&self) -> CoordinatorState {
        let shards: Vec<&Coordinator> = self.shards.iter().map(C::as_coordinator).collect();
        merge_states(&shards, self.merge.merged().to_vec())
    }

    /// Runs `op` on the shard owning `zone`, then notes that shard's
    /// new alerts; `None` when the owner does not exist.
    fn on_owner<R>(&mut self, zone: ZoneId, op: impl FnOnce(&mut C) -> R) -> Option<R> {
        let shard = self.assignment.shard_of(zone);
        let c = self.shards.get_mut(shard)?;
        let out = op(c);
        self.merge.note(shard, c.as_coordinator().alerts());
        Some(out)
    }
}

impl<C: CoordinatorHandle> CoordinatorHandle for ShardSet<C> {
    /// The merged view as of the last flush (see [`ShardSet`]).
    fn as_coordinator(&self) -> &Coordinator {
        &self.merged
    }

    /// Routed to the shard owning the check-in point's zone. The coin
    /// is drawn once by the caller and spent on exactly one shard, so
    /// quota pacing decisions are made once however zones are
    /// partitioned.
    fn checkin_tagged(
        &mut self,
        client: ClientId,
        point: &GeoPoint,
        t: SimTime,
        networks: &[NetworkId],
        coin: f64,
    ) -> Vec<MeasurementTask> {
        metrics().checkins_routed.inc();
        let zone = self.index.zone_of(point);
        self.on_owner(zone, |c| c.checkin_tagged(client, point, t, networks, coin))
            .unwrap_or_default()
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
        metrics().reports_routed.inc();
        self.on_owner(zone, |c| {
            c.ingest_samples_tagged(client, seq, zone, network, t, samples)
        })
        .unwrap_or(Err(IngestError::UnknownZone(zone)))
    }

    /// Installed on the owning shard only, so exactly one cell
    /// materializes.
    fn set_zone_quota_tagged(&mut self, zone: ZoneId, network: NetworkId, quota: u32) {
        self.on_owner(zone, |c| c.set_zone_quota_tagged(zone, network, quota));
    }

    /// Installed on the owning shard only (see `set_zone_quota_tagged`).
    fn set_zone_epoch_tagged(&mut self, zone: ZoneId, network: NetworkId, epoch: SimDuration) {
        self.on_owner(zone, |c| c.set_zone_epoch_tagged(zone, network, epoch));
    }

    /// Flushes every shard, then refreshes the merged view.
    fn flush_tagged(&mut self, now: SimTime) {
        self.flush(now);
        self.merged.restore_state(self.merged_state());
    }

    /// Takes the range's cells from every shard, in `(zone, network)`
    /// order.
    fn migrate_out_tagged(&mut self, lo: ZoneId, hi: ZoneId) -> Vec<ZoneCellState> {
        let mut cells: Vec<ZoneCellState> = self
            .shards
            .iter_mut()
            .flat_map(|c| c.migrate_out_tagged(lo, hi))
            .collect();
        cells.sort_by_key(|c| (c.zone, c.network));
        cells
    }

    /// Installs each cell on the shard owning its zone.
    fn migrate_in_tagged(&mut self, cells: Vec<ZoneCellState>) {
        let mut per_shard: Vec<Vec<ZoneCellState>> =
            self.shards.iter().map(|_| Vec::new()).collect();
        for cell in cells {
            if let Some(bucket) = per_shard.get_mut(self.assignment.shard_of(cell.zone)) {
                bucket.push(cell);
            }
        }
        for (c, bucket) in self.shards.iter_mut().zip(per_shard) {
            if !bucket.is_empty() {
                c.migrate_in_tagged(bucket);
            }
        }
    }

    /// Commits every shard's group.
    fn commit_group(&mut self) {
        for c in &mut self.shards {
            c.commit_group();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_simnet::TransportKind;

    fn center() -> GeoPoint {
        GeoPoint::new(43.0731, -89.4012).unwrap()
    }

    fn index() -> ZoneIndex {
        ZoneIndex::around(center(), 4000.0).unwrap()
    }

    fn report(zone: ZoneId, t: SimTime, values: &[f64]) -> SampleReport {
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

    /// Commits `r` through the handle surface, as the channel server does.
    fn ingest(h: &mut impl CoordinatorHandle, r: &SampleReport) {
        let _ = h.ingest_samples_tagged(
            r.client,
            0,
            r.zone,
            r.task.network,
            r.t,
            r.samples.iter().copied(),
        );
    }

    #[test]
    fn even_assignment_covers_all_zones_contiguously() {
        let idx = index();
        for n in [1usize, 2, 3, 4, 7] {
            let a = ShardAssignment::even(&idx, n);
            assert!(a.ranges() <= n);
            let mut zones: Vec<ZoneId> = idx.zones().collect();
            zones.sort_unstable();
            let owners: Vec<usize> = zones.iter().map(|z| a.shard_of(*z)).collect();
            // Contiguous: owner sequence over sorted zones never revisits
            // an owner after leaving it.
            let mut seen = Vec::new();
            for &o in &owners {
                match seen.last() {
                    Some(&last) if last == o => {}
                    _ => {
                        assert!(!seen.contains(&o), "owner {o} revisited");
                        seen.push(o);
                    }
                }
            }
            assert!(owners.iter().all(|&o| o < n));
            // Near-even: range sizes differ by at most the chunk remainder.
            if n <= zones.len() {
                assert_eq!(seen.len(), a.ranges());
            }
        }
    }

    #[test]
    fn shard_of_is_total() {
        let idx = index();
        let a = ShardAssignment::even(&idx, 4);
        // Way out-of-bounds zones still route somewhere.
        let far = center().destination(0.0, 500_000.0);
        let z = idx.zone_of(&far);
        assert!(a.shard_of(z) < 4);
        let far_south = center().destination(180.0, 500_000.0);
        let z2 = idx.zone_of(&far_south);
        assert!(a.shard_of(z2) < 4);
    }

    #[test]
    fn sharded_run_merges_to_single_coordinator_state() {
        let idx = index();
        let cfg = CoordinatorConfig::default();
        let nets = [NetworkId::NetB, NetworkId::NetC];
        let stream = StreamRng::new(7).fork("shard-test");

        // Deterministic mixed op stream over many zones and epochs:
        // check-ins (with precomputed coins), task-driven reports, and
        // occasional malformed reports.
        enum Op {
            Checkin(ClientId, GeoPoint, SimTime, f64),
            Ingest(SampleReport),
        }
        let mut ops = Vec::new();
        for k in 0i64..400 {
            let p = center().destination((k % 360) as f64, 200.0 + (k % 17) as f64 * 200.0);
            let t = SimTime::from_secs(k * 30);
            let coin = stream.fork("coin").fork_idx(k as u64).draw_unit_f64();
            ops.push(Op::Checkin(ClientId((k % 50) as u32), p, t, coin));
            let zone = idx.zone_of(&p);
            let base = 100.0 + (k % 7) as f64 * 40.0;
            ops.push(Op::Ingest(report(zone, t, &[base, base + 1.0, base - 1.0])));
            if k % 5 == 0 {
                ops.push(Op::Ingest(report(zone, t, &[90.0, f64::NAN, 110.0])));
            }
        }

        let single = {
            let mut c = Coordinator::new(idx.clone(), cfg.clone());
            for op in &ops {
                match op {
                    Op::Checkin(id, p, t, coin) => {
                        let _ = c.client_checkin(*id, p, *t, &nets, *coin);
                    }
                    Op::Ingest(r) => {
                        let _ = c.ingest_report(r);
                    }
                }
            }
            c.flush(SimTime::from_secs(4 * 3600));
            state_fingerprint(&c.export_state())
        };
        for n in [1usize, 2, 3, 4, 5] {
            let mut s = ShardSet::new(idx.clone(), cfg.clone(), n);
            for op in &ops {
                match op {
                    Op::Checkin(id, p, t, coin) => {
                        let _ = s.checkin_tagged(*id, p, *t, &nets, *coin);
                    }
                    Op::Ingest(r) => ingest(&mut s, r),
                }
            }
            s.flush(SimTime::from_secs(4 * 3600));
            assert_eq!(state_fingerprint(&s.merged_state()), single, "shards={n}");
        }
    }

    #[test]
    fn owner_permutation_does_not_change_merge() {
        let idx = index();
        let cfg = CoordinatorConfig::default();
        let run = |owners: Option<Vec<usize>>| {
            let mut a = ShardAssignment::even(&idx, 4);
            if let Some(o) = owners {
                assert!(a.set_owners(o));
            }
            let mut s = ShardSet::with_assignment(idx.clone(), cfg.clone(), 4, a);
            for k in 0i64..300 {
                let p = center().destination((k % 360) as f64, 150.0 + (k % 23) as f64 * 150.0);
                let zone = idx.zone_of(&p);
                let base = 50.0 + (k % 11) as f64 * 30.0;
                ingest(
                    &mut s,
                    &report(zone, SimTime::from_secs(k * 20), &[base, base + 2.0]),
                );
            }
            s.flush(SimTime::from_secs(3 * 3600));
            state_fingerprint(&s.merged_state())
        };
        let identity = run(None);
        assert_eq!(run(Some(vec![3, 1, 0, 2])), identity);
        assert_eq!(run(Some(vec![1, 0, 3, 2])), identity);
    }

    #[test]
    fn seeded_rebalance_preserves_merged_state() {
        let idx = index();
        let cfg = CoordinatorConfig::default();
        let run = |rebalance_at: Option<i64>| {
            let mut s = ShardSet::new(idx.clone(), cfg.clone(), 3);
            for k in 0i64..300 {
                if Some(k) == rebalance_at {
                    let mv = RebalanceMove::seeded(11, &idx, s.assignment()).expect("move");
                    // An early move may migrate zero cells (range not yet
                    // tracked); the boundary still slides.
                    let before = s.assignment().clone();
                    s.rebalance(&mv);
                    assert_ne!(s.assignment(), &before);
                }
                let p = center().destination((k % 360) as f64, 150.0 + (k % 23) as f64 * 150.0);
                let zone = idx.zone_of(&p);
                let base = 50.0 + (k % 11) as f64 * 30.0;
                ingest(
                    &mut s,
                    &report(zone, SimTime::from_secs(k * 40), &[base, base + 2.0]),
                );
            }
            s.flush(SimTime::from_secs(6 * 3600));
            state_fingerprint(&s.merged_state())
        };
        let base = run(None);
        assert_eq!(run(Some(150)), base);
        assert_eq!(run(Some(1)), base);
    }

    #[test]
    fn ingest_batch_matches_routed_ingest() {
        let idx = index();
        let cfg = CoordinatorConfig::default();
        let reports: Vec<SampleReport> = (0i64..500)
            .map(|k| {
                let p = center().destination((k % 360) as f64, 100.0 + (k % 29) as f64 * 120.0);
                let zone = idx.zone_of(&p);
                report(
                    zone,
                    SimTime::from_secs(10 + k % 50),
                    &[80.0 + (k % 13) as f64],
                )
            })
            .collect();
        let mut routed = ShardSet::new(idx.clone(), cfg.clone(), 4);
        for r in &reports {
            ingest(&mut routed, r);
        }
        routed.flush(SimTime::from_secs(3600 * 2));
        let mut batched = ShardSet::new(idx.clone(), cfg.clone(), 4);
        batched.ingest_batch(&reports);
        batched.flush(SimTime::from_secs(3600 * 2));
        assert_eq!(
            state_fingerprint(&batched.merged_state()),
            state_fingerprint(&routed.merged_state()),
        );
    }

    #[test]
    fn merged_view_is_the_state_as_of_the_last_flush() {
        let idx = index();
        let mut s = ShardSet::new(idx.clone(), CoordinatorConfig::default(), 2);
        let zone = idx.zone_of(&center());
        ingest(
            &mut s,
            &report(zone, SimTime::from_secs(0), &[100.0, 110.0]),
        );
        assert_eq!(s.as_coordinator().zones_tracked(), 0, "no flush yet");
        s.flush_tagged(SimTime::from_secs(3600));
        assert_eq!(
            state_fingerprint(&s.as_coordinator().export_state()),
            state_fingerprint(&s.merged_state()),
        );
        assert_eq!(s.as_coordinator().zones_tracked(), 1);
    }

    /// As a handle, the set migrates a zone range exactly as one
    /// coordinator would: the same cells out, and back in on their
    /// owners.
    #[test]
    fn set_migrations_match_a_single_coordinator() {
        let idx = index();
        let cfg = CoordinatorConfig::default();
        let mut single = Coordinator::new(idx.clone(), cfg.clone());
        let mut s = ShardSet::new(idx.clone(), cfg, 3);
        for k in 0i64..200 {
            let p = center().destination((k % 360) as f64, 150.0 + (k % 23) as f64 * 150.0);
            let r = report(
                idx.zone_of(&p),
                SimTime::from_secs(k * 20),
                &[60.0 + k as f64],
            );
            ingest(&mut single, &r);
            ingest(&mut s, &r);
        }
        let mut zones: Vec<ZoneId> = idx.zones().collect();
        zones.sort_unstable();
        let (lo, hi) = (zones[zones.len() / 4], zones[zones.len() * 3 / 4]);
        let out = s.migrate_out_tagged(lo, hi);
        assert!(!out.is_empty());
        assert_eq!(out, single.take_range(lo, hi));
        s.migrate_in_tagged(out.clone());
        single.install_cells(out);
        s.flush(SimTime::from_secs(3 * 3600));
        single.flush(SimTime::from_secs(3 * 3600));
        assert_eq!(
            state_fingerprint(&s.merged_state()),
            state_fingerprint(&single.export_state()),
        );
    }

    /// A move whose `from`/`to` do not own adjacent ranges at `lo` must
    /// leave every cell where it is: moving the cells anyway while the
    /// assignment stays put routes the next report for the zone to the
    /// old owner, which then tracks a second cell for the same key.
    #[test]
    fn inapplicable_rebalance_is_a_no_op() {
        let idx = index();
        let cfg = CoordinatorConfig::default();
        let zone = idx.zones().min().expect("index has zones");
        let first = report(zone, SimTime::from_secs(0), &[100.0, 110.0]);
        let second = report(zone, SimTime::from_secs(60), &[104.0]);
        let end = SimTime::from_secs(3600);

        let mut single = Coordinator::new(idx.clone(), cfg.clone());
        ingest(&mut single, &first);
        ingest(&mut single, &second);
        single.flush(end);

        let mut s = ShardSet::new(idx.clone(), cfg, 3);
        assert_eq!(s.assignment().shard_of(zone), 0);
        ingest(&mut s, &first);
        let before = s.assignment().clone();
        let mv = RebalanceMove {
            from: 0,
            to: 2,
            lo: zone,
            hi: zone,
        };
        assert_eq!(s.rebalance(&mv), 0);
        assert_eq!(s.assignment(), &before);
        ingest(&mut s, &second);
        s.flush(end);
        assert_eq!(
            state_fingerprint(&s.merged_state()),
            state_fingerprint(&single.export_state()),
        );
    }
}
