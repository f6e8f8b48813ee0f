//! One runner for the four coordinator topologies of a channel-driven
//! deployment: a bare `Coordinator`, a `ShardSet` of zone-range shards,
//! a WAL-backed `DurableCoordinator`, or a `ShardSet` with one WAL per
//! shard. [`run`] builds the one a [`Topology`] names, drives it,
//! applies the seeded rebalance at the midpoint, drains, and shuts
//! every WAL down; `wiscape map` and fig15 both call it. `repro`
//! installs its topology once ([`install`]) for fig15 and fig16, which
//! build their deployments deep inside run loops, to read
//! ([`installed`]).

use std::path::PathBuf;
use std::sync::OnceLock;

use wiscape_channel::{ChannelConfig, ChannelDeployment, ChannelRunMeters, DeploymentStats};
use wiscape_core::{
    Coordinator, CoordinatorConfig, CoordinatorHandle, RebalanceMove, ShardAssignment, ShardSet,
    ZoneIndex,
};
use wiscape_mobility::Fleet;
use wiscape_simcore::SimTime;
use wiscape_simnet::Landscape;
use wiscape_wal::{CrashPlan, DurableCoordinator, WalError, WalMeters, WalOptions};

/// Records between WAL snapshots.
const SNAPSHOT_EVERY: u64 = 256;

/// Where a run's coordinator state lives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    /// Zone-range shards (at least 1) behind the one server; `None`
    /// runs a single coordinator.
    pub shards: Option<usize>,
    /// Seed of one zone-range rebalance at the midpoint of a sharded
    /// run.
    pub rebalance_seed: Option<u64>,
    /// Event-log every commit; `None` keeps the state in memory only.
    pub wal: Option<WalTopology>,
}

/// The WAL half of a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTopology {
    /// Log directory; shard `i` logs under `dir/shard-<i>`.
    pub dir: PathBuf,
    /// Seed of the injected crash (shard `i` uses `seed + i`).
    pub crash_seed: Option<u64>,
}

/// A combination of topology flags that no run can honour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagError {
    /// A crash seed without `--wal`.
    CrashSeedWithoutWal,
    /// `--rebalance-seed` without `--shards`.
    RebalanceSeedWithoutShards,
    /// `--shards 0`.
    NoShards,
}

impl FlagError {
    /// The message, naming the crash-seed flag `crash_flag` (`wiscape
    /// map` and `repro` spell it differently).
    pub fn message(self, crash_flag: &str) -> String {
        match self {
            Self::CrashSeedWithoutWal => format!("{crash_flag} requires --wal DIR"),
            Self::RebalanceSeedWithoutShards => "--rebalance-seed requires --shards N".into(),
            Self::NoShards => "--shards must be at least 1".into(),
        }
    }
}

impl Topology {
    /// The topology of a command line's parsed `--shards`,
    /// `--rebalance-seed`, `--wal` and crash-seed flags.
    pub fn new(
        shards: Option<usize>,
        rebalance_seed: Option<u64>,
        wal_dir: Option<PathBuf>,
        crash_seed: Option<u64>,
    ) -> Result<Self, FlagError> {
        if crash_seed.is_some() && wal_dir.is_none() {
            return Err(FlagError::CrashSeedWithoutWal);
        }
        if rebalance_seed.is_some() && shards.is_none() {
            return Err(FlagError::RebalanceSeedWithoutShards);
        }
        if shards == Some(0) {
            return Err(FlagError::NoShards);
        }
        let wal = wal_dir.map(|dir| WalTopology { dir, crash_seed });
        Ok(Self {
            shards,
            rebalance_seed,
            wal,
        })
    }
}

static INSTALLED: OnceLock<Topology> = OnceLock::new();

/// Installs the process-wide topology. First caller wins; returns
/// whether this call installed it.
pub fn install(topology: Topology) -> bool {
    INSTALLED.set(topology).is_ok()
}

/// The process-wide topology, if one was installed.
pub fn installed() -> Option<&'static Topology> {
    INSTALLED.get()
}

/// Why a topology run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The WAL in the directory could not be created.
    Create(PathBuf, WalError),
    /// A WAL failed to shut down.
    Shutdown(WalError),
    /// A recovery did not byte-match the live run.
    Diverged,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Create(dir, e) => write!(f, "wal {}: {e}", dir.display()),
            Self::Shutdown(e) => write!(f, "wal shutdown: {e}"),
            Self::Diverged => f.write_str("wal recovery diverged from the live run"),
        }
    }
}

impl std::error::Error for RunError {}

/// The midpoint rebalance of a sharded run with a rebalance seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rebalance {
    /// `cells` cells moved from shard `from` to shard `to`.
    Moved {
        /// Cells moved.
        cells: usize,
        /// The shard that gave up the range.
        from: usize,
        /// The shard that took it.
        to: usize,
    },
    /// The seed drew no applicable move.
    NoMove,
}

/// What a run leaves besides its final coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// The deployment's counters.
    pub stats: DeploymentStats,
    /// The channel's counters.
    pub meters: ChannelRunMeters,
    /// Reports still unacknowledged after the drain.
    pub pending_reports: usize,
    /// The midpoint rebalance, if the run is sharded with a seed.
    pub rebalance: Option<Rebalance>,
    /// The WAL meters summed over every log, if the run has a WAL.
    pub wal: Option<WalMeters>,
}

/// Runs `fleet`'s deployment over `land` on `topology` through
/// `window` (`(start, end)`), then hands the final coordinator and the
/// run's summary to `harvest`. A failed WAL shutdown, or a recovery
/// that diverged from the live run, is an error instead.
pub fn run<R>(
    topology: &Topology,
    land: Landscape,
    fleet: Fleet,
    index: ZoneIndex,
    config: ChannelConfig,
    window: (SimTime, SimTime),
    harvest: impl FnOnce(&Coordinator, &RunSummary) -> R,
) -> Result<R, RunError> {
    let coordinator = config.deployment.coordinator.clone();
    let seed = topology.rebalance_seed;
    match (&topology.wal, topology.shards) {
        (None, None) => {
            let bare = Coordinator::new(index, coordinator);
            let d = ChannelDeployment::with_coordinator(land, fleet, bare, config);
            drive(d, window, |_| None, |_| Ok(None), harvest)
        }
        (None, Some(n)) => {
            let set = ShardSet::new(index, coordinator, n);
            let d = ChannelDeployment::with_coordinator(land, fleet, set, config);
            drive(d, window, |set| rebalance(set, seed), |_| Ok(None), harvest)
        }
        (Some(wal), None) => {
            let durable = wal.open(None, &index, &coordinator)?;
            let d = ChannelDeployment::with_coordinator(land, fleet, durable, config);
            drive(d, window, |_| None, |c| close(std::iter::once(c)), harvest)
        }
        (Some(wal), Some(n)) => {
            let handles = (0..n)
                .map(|i| wal.open(Some(i), &index, &coordinator))
                .collect::<Result<_, _>>()?;
            let assignment = ShardAssignment::even(&index, n);
            let set = ShardSet::from_handles(handles, assignment, index, coordinator);
            let d = ChannelDeployment::with_coordinator(land, fleet, set, config);
            let close_shards = |set: &mut ShardSet<_>| close(set.shards_mut());
            drive(d, window, |set| rebalance(set, seed), close_shards, harvest)
        }
    }
}

impl WalTopology {
    /// A fresh WAL-backed coordinator under `dir`, or under
    /// `dir/shard-<i>` for shard `i`.
    fn open(
        &self,
        shard: Option<usize>,
        index: &ZoneIndex,
        config: &CoordinatorConfig,
    ) -> Result<DurableCoordinator, RunError> {
        let dir = shard.map_or_else(|| self.dir.clone(), |i| self.dir.join(format!("shard-{i}")));
        let offset = shard.unwrap_or(0) as u64;
        let plan = self.crash_seed.map_or_else(CrashPlan::none, |seed| {
            CrashPlan::seeded(seed.wrapping_add(offset), 500)
        });
        let opts = WalOptions {
            snapshot_every: SNAPSHOT_EVERY,
            plan,
            ..WalOptions::default()
        };
        DurableCoordinator::create(&dir, index.clone(), config.clone(), opts)
            .map_err(|e| RunError::Create(dir, e))
    }
}

/// Runs `d` to the check-in round nearest the midpoint (a split run
/// draws the same task coins as an unsplit one), applies `mid_run`,
/// runs on and drains, then `close`s the handle and harvests.
fn drive<C: CoordinatorHandle, R>(
    mut d: ChannelDeployment<C>,
    (start, end): (SimTime, SimTime),
    mid_run: impl FnOnce(&mut C) -> Option<Rebalance>,
    close: impl FnOnce(&mut C) -> Result<Option<WalMeters>, RunError>,
    harvest: impl FnOnce(&Coordinator, &RunSummary) -> R,
) -> Result<R, RunError> {
    let interval = d.checkin_interval();
    let rounds = (end - start).as_micros() / interval.as_micros().max(1);
    let mid = start + interval * (rounds / 2);
    d.run_until(start, mid);
    let rebalance = mid_run(d.handle_mut());
    d.run_until(mid, end);
    d.finish(end);
    let wal = close(d.handle_mut())?;
    let summary = RunSummary {
        stats: d.stats(),
        meters: d.meters(),
        pending_reports: d.pending_reports(),
        rebalance,
        wal,
    };
    Ok(harvest(d.coordinator(), &summary))
}

/// The seeded zone-range move, when the run has a rebalance seed.
fn rebalance<C: CoordinatorHandle>(set: &mut ShardSet<C>, seed: Option<u64>) -> Option<Rebalance> {
    let mv = RebalanceMove::seeded(seed?, set.index(), set.assignment());
    Some(mv.map_or(Rebalance::NoMove, |mv| Rebalance::Moved {
        cells: set.rebalance(&mv),
        from: mv.from,
        to: mv.to,
    }))
}

/// Shuts every WAL down, in order, and sums their meters.
fn close<'a>(
    wals: impl Iterator<Item = &'a mut DurableCoordinator>,
) -> Result<Option<WalMeters>, RunError> {
    let mut t = WalMeters::default();
    for wal in wals {
        wal.shutdown().map_err(RunError::Shutdown)?;
        let m = wal.wal_meters();
        if m.recovery_mismatches != 0 {
            return Err(RunError::Diverged);
        }
        t.records += m.records;
        t.bytes_appended += m.bytes_appended;
        t.group_writes += m.group_writes;
        t.snapshots += m.snapshots;
        t.last_snapshot_bytes += m.last_snapshot_bytes;
        t.recoveries += m.recoveries;
        t.replayed_records += m.replayed_records;
        t.append_errors += m.append_errors;
    }
    Ok(Some(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_channel::report_loss;
    use wiscape_core::state_fingerprint;
    use wiscape_simcore::SimDuration;
    use wiscape_simnet::LandscapeConfig;

    /// Every topology runs one small lossy world (two hours, long
    /// enough for crash seed 11 to fire in the single WAL) to the bare
    /// run's state, counters and channel meters. A recovery mismatch
    /// fails the run itself (`RunError::Diverged`).
    #[test]
    fn every_topology_publishes_the_bare_state() {
        let lossy_run = |topology: &Topology| {
            let land = Landscape::new(LandscapeConfig::madison(31));
            let mut fleet = Fleet::new(31);
            fleet
                .add_transit_buses(3, land.origin(), 5000.0, 8)
                .add_static_spot(land.origin());
            let index = ZoneIndex::around(land.origin(), 6000.0).expect("valid zone index");
            let start = SimTime::at(1, 8.0);
            let window = (start, start + SimDuration::from_hours(2));
            run(
                topology,
                land,
                fleet,
                index,
                report_loss(0.1),
                window,
                |c, run| (state_fingerprint(&c.export_state()), *run),
            )
            .unwrap_or_else(|e| panic!("{topology:?}: {e}"))
        };
        let (want, bare) = lossy_run(&Topology::default());
        assert!(bare.meters.uplink.retries > 0, "loss forces retries");
        assert_eq!((bare.rebalance, bare.wal), (None, None));
        let tmp = std::env::temp_dir().join(format!("wiscape-topology-{}", std::process::id()));
        let wal = |tag: &str| WalTopology {
            dir: tmp.join(tag),
            crash_seed: Some(11),
        };
        for (shards, wal) in [
            (4, None),
            (1, Some(wal("single"))),
            (4, Some(wal("sharded"))),
        ] {
            let sharded = shards > 1;
            let topology = Topology {
                shards: sharded.then_some(shards),
                rebalance_seed: sharded.then_some(5),
                wal,
            };
            let (got, run) = lossy_run(&topology);
            assert_eq!(got, want, "{topology:?}");
            assert_eq!((run.stats, run.meters), (bare.stats, bare.meters));
            let moved = matches!(run.rebalance, Some(Rebalance::Moved { cells, .. }) if cells > 0);
            assert_eq!(moved, sharded, "{topology:?}: {:?}", run.rebalance);
            if topology.wal.is_some() {
                let m = run.wal.expect("a WAL run sums its meters");
                assert!(m.recoveries >= 1, "{topology:?}: no crash fired");
            }
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
