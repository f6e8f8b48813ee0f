//! The WiScape deployment loop (paper §3.4), run over the wire protocol.
//!
//! [`ChannelDeployment`] wires the full control loop over simulated
//! time:
//!
//! 1. mobile clients (a [`Fleet`]) periodically check in with their
//!    coarse position;
//! 2. the coordinator probabilistically issues measurement tasks so
//!    each zone collects its per-epoch sample quota;
//! 3. each client's [`ClientAgent`] executes its tasks against the
//!    simulated landscape and reports per-packet samples tagged with the
//!    GPS-precise zone;
//! 4. the coordinator aggregates, finalizes epochs, and emits
//!    [`wiscape_core::ChangeAlert`]s on 2σ shifts.
//!
//! Every coordinator interaction crosses the simulated control channel,
//! as a client-assisted tool's results cross the network it measures:
//! check-ins and reports are encoded, framed, and sent over a per-client
//! [`LossyLink`]; task assignments and acks come back the same way;
//! reports ride the reliable [`Uplink`] queue.
//!
//! **Perfect-link invariant**: with [`perfect_link`] the transport is a
//! direct function call (zero loss, zero delay, no channel RNG draws),
//! the server derives each task coin from the
//! `fork("coin").fork_idx(round).fork_idx(client)` path, and reports are
//! committed on arrival — so the published map, alerts, and stats are
//! bitwise-identical to a loop of plain coordinator calls that folds
//! each report as soon as its task runs (the test module keeps that loop
//! as the reference). Channel randomness (link fates, backoff jitter)
//! lives under separate `fork("channel")` paths and therefore cannot
//! perturb the measurement stream even when enabled.

use std::collections::BTreeMap;

use wiscape_core::{
    ClientAgent, Coordinator, CoordinatorConfig, CoordinatorHandle, EpochTuner, HistoryStore,
    QuotaTuner,
};
use wiscape_geo::GeoPoint;
use wiscape_mobility::{ClientId, Fleet};
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::{Landscape, NetworkId};

use crate::codec::{decode_ref, encode, CheckinRequest, WireMessage, WireMessageRef};
use crate::link::{LinkConfig, LinkMeters, LossyLink};
use crate::server::{ChannelServer, CommitPolicy, ServerMeters};
use crate::uplink::{Uplink, UplinkConfig, UplinkMeters};

/// Configuration of a deployment run.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Coordinator tuning.
    pub coordinator: CoordinatorConfig,
    /// How often each client checks in.
    pub checkin_interval: SimDuration,
    /// Which networks to monitor (defaults to all present).
    pub networks: Vec<NetworkId>,
    /// Enable closed-loop tuning (paper §3.4): per-zone sample quotas
    /// from the NKLD analysis and per-zone epochs from the Allan
    /// deviation, re-estimated every `retune_interval`.
    pub auto_tune: bool,
    /// How often the tuners re-run over accumulated history.
    pub retune_interval: SimDuration,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        Self {
            coordinator: CoordinatorConfig::default(),
            checkin_interval: SimDuration::from_secs(60),
            networks: Vec::new(),
            auto_tune: false,
            retune_interval: SimDuration::from_hours(6),
        }
    }
}

/// Outcome counters of a deployment run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeploymentStats {
    /// Client check-ins sent (under [`perfect_link`] every one is also
    /// processed).
    pub checkins: u64,
    /// Measurement tasks issued.
    pub tasks_issued: u64,
    /// Reports successfully ingested.
    pub reports: u64,
    /// Probe packets clients were asked to send (the client burden).
    pub packets_requested: u64,
    /// Zones whose sample quota has been NKLD-tuned.
    pub quotas_tuned: u64,
    /// Zones whose epoch has been Allan-tuned.
    pub epochs_tuned: u64,
}

/// Configuration of a channel-backed deployment.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// The underlying deployment parameters (coordinator, check-in
    /// interval, networks, tuning).
    pub deployment: DeploymentConfig,
    /// Client → coordinator link model for check-ins.
    pub uplink_link: LinkConfig,
    /// Coordinator → client link model (tasks, acks).
    pub downlink_link: LinkConfig,
    /// Client → coordinator link model for report frames. Split from
    /// the check-in link so experiments can study *report* loss (the
    /// acceptance case of the paper's overhead argument) without also
    /// perturbing task issuance.
    pub report_link: LinkConfig,
    /// Per-client reliable report queue policy.
    pub uplink: UplinkConfig,
    /// When deduplicated reports commit into the coordinator.
    pub commit: CommitPolicy,
    /// Extra post-run rounds allowed for retransmissions to drain.
    pub max_drain_rounds: u32,
}

/// The perfect-link configuration: perfect links in every direction and
/// immediate commit, so the channel adds no loss, delay or randomness
/// and a run is the plain control loop (see the module docs).
pub fn perfect_link() -> ChannelConfig {
    ChannelConfig {
        deployment: DeploymentConfig::default(),
        uplink_link: LinkConfig::perfect(),
        downlink_link: LinkConfig::perfect(),
        report_link: LinkConfig::perfect(),
        uplink: UplinkConfig::default(),
        commit: CommitPolicy::Immediate,
        max_drain_rounds: 0,
    }
}

/// Report-path loss only: check-ins, tasks, and acks flow over perfect
/// links (so the *same* measurements are taken), while report frames
/// are dropped with probability `drop_rate`. With the deep-watermark
/// commit this isolates the delivery layer: once retries drain, the
/// published map must equal the `drop_rate = 0` run exactly.
pub fn report_loss(drop_rate: f64) -> ChannelConfig {
    ChannelConfig {
        deployment: DeploymentConfig::default(),
        uplink_link: LinkConfig::perfect(),
        downlink_link: LinkConfig::perfect(),
        report_link: LinkConfig {
            drop_rate,
            ..LinkConfig::perfect()
        },
        uplink: UplinkConfig::default(),
        commit: CommitPolicy::Watermark(SimDuration::from_hours(24 * 365)),
        max_drain_rounds: 500,
    }
}

/// A lossy-cellular configuration: both directions drop `drop_rate` of
/// frames (plus the zone's own loss), with delay/jitter/duplication,
/// and reports commit through a deep watermark so the published map
/// depends only on the set of delivered reports.
pub fn lossy_cellular(drop_rate: f64) -> ChannelConfig {
    ChannelConfig {
        deployment: DeploymentConfig::default(),
        uplink_link: LinkConfig::cellular(drop_rate),
        downlink_link: LinkConfig::cellular(drop_rate),
        report_link: LinkConfig::cellular(drop_rate),
        uplink: UplinkConfig::default(),
        commit: CommitPolicy::Watermark(SimDuration::from_hours(24 * 365)),
        max_drain_rounds: 200,
    }
}

/// Aggregated channel-side counters of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelRunMeters {
    /// Server endpoint counters.
    pub server: ServerMeters,
    /// Client → server check-in link counters, summed over clients.
    pub up: LinkMeters,
    /// Server → client link counters, summed over clients.
    pub down: LinkMeters,
    /// Client → server report link counters, summed over clients.
    pub report: LinkMeters,
    /// Uplink (reliable queue) counters, summed over clients.
    pub uplink: UplinkMeters,
}

impl ChannelRunMeters {
    /// Total control-channel bytes put on the air in both directions.
    pub fn control_bytes(&self) -> u64 {
        self.up.bytes_sent + self.down.bytes_sent + self.report.bytes_sent
    }
}

enum Inbound {
    /// Frame headed to the coordinator endpoint.
    ToServer(ClientId, Vec<u8>),
    /// Frame headed back to a client.
    ToClient(ClientId, Vec<u8>),
}

struct ClientState {
    agent: ClientAgent,
    uplink: Uplink,
    link_up: LossyLink,
    link_down: LossyLink,
    link_report: LossyLink,
}

/// A running WiScape deployment over a simulated landscape.
///
/// Generic over the [`CoordinatorHandle`] behind its [`ChannelServer`]:
/// the default is a plain [`Coordinator`]; see
/// [`ChannelDeployment::with_coordinator`] for a WAL-backed handle or a
/// `ShardSet` of zone-range shards. The control loop is the same code
/// whatever the handle, which is the sharded- and durable-parity
/// argument.
pub struct ChannelDeployment<C: CoordinatorHandle = Coordinator> {
    land: Landscape,
    fleet: Fleet,
    server: ChannelServer<C>,
    config: ChannelConfig,
    stream: StreamRng,
    clients: BTreeMap<ClientId, ClientState>,
    /// Delayed frames keyed by `(arrival, transmission index)`.
    in_flight: BTreeMap<(SimTime, u64), Inbound>,
    flight_seq: u64,
    /// Fixes of the round being processed (for executing late tasks).
    fixes: BTreeMap<ClientId, GeoPoint>,
    stats: DeploymentStats,
    history: HistoryStore,
    /// NKLD quota tuner (public so runs can lower `min_history`).
    pub quota_tuner: QuotaTuner,
    /// Allan epoch tuner (public so runs can lower `min_history`).
    pub epoch_tuner: EpochTuner,
    last_retune: Option<SimTime>,
    carrier: Option<NetworkId>,
    /// Rounds executed so far: `run_until` keeps numbering ticks from
    /// here, so a run split around a mid-stream rebalance draws the
    /// same task coins as an unsplit run.
    rounds_done: u64,
    /// The time the next `run_until`/`finish` call resumes from.
    clock: SimTime,
}

impl ChannelDeployment {
    /// Creates a deployment monitoring `config.deployment.networks` (all
    /// of the landscape's networks when that list is empty).
    pub fn new(
        land: Landscape,
        fleet: Fleet,
        index: wiscape_core::ZoneIndex,
        config: ChannelConfig,
    ) -> Self {
        let coordinator = Coordinator::new(index, config.deployment.coordinator.clone());
        Self::with_coordinator(land, fleet, coordinator, config)
    }
}

impl<C: CoordinatorHandle> ChannelDeployment<C> {
    /// [`ChannelDeployment::new`] over an externally built coordinator
    /// handle. Pass a `DurableCoordinator` and every committed mutation
    /// is event-logged before it folds; pass a `ShardSet` and the
    /// zones are split across its shards (one log per shard when its
    /// handles are durable).
    pub fn with_coordinator(
        land: Landscape,
        fleet: Fleet,
        coordinator: C,
        mut config: ChannelConfig,
    ) -> Self {
        if config.deployment.networks.is_empty() {
            config.deployment.networks = land.networks();
        }
        let seed = land.config().seed;
        let stream = StreamRng::new(seed).fork("deployment");
        let server = ChannelServer::new(
            coordinator,
            config.commit,
            stream,
            config.deployment.networks.clone(),
        );
        let channel_stream = StreamRng::new(seed).fork("channel");
        let mut clients = BTreeMap::new();
        for client in fleet.clients() {
            let id = client.id();
            let per_client = channel_stream.fork_idx(u64::from(id.0));
            clients.insert(
                id,
                ClientState {
                    agent: ClientAgent::new(id),
                    uplink: Uplink::new(id, config.uplink.clone(), per_client.fork("uplink")),
                    link_up: LossyLink::new(config.uplink_link.clone(), per_client.fork("up")),
                    link_down: LossyLink::new(
                        config.downlink_link.clone(),
                        per_client.fork("down"),
                    ),
                    link_report: LossyLink::new(
                        config.report_link.clone(),
                        per_client.fork("report"),
                    ),
                },
            );
        }
        // The control channel rides the first monitored network.
        let carrier = config.deployment.networks.first().copied();
        Self {
            land,
            fleet,
            server,
            config,
            stream,
            clients,
            in_flight: BTreeMap::new(),
            flight_seq: 0,
            fixes: BTreeMap::new(),
            stats: DeploymentStats::default(),
            history: HistoryStore::new(),
            quota_tuner: QuotaTuner::default(),
            epoch_tuner: EpochTuner::default(),
            last_retune: None,
            carrier,
            rounds_done: 0,
            clock: SimTime::EPOCH,
        }
    }

    /// Mutable access to the coordinator handle behind the server
    /// (mid-run rebalancing of a `ShardSet`, end-of-run WAL inspection,
    /// forced snapshots).
    pub fn handle_mut(&mut self) -> &mut C {
        self.server.handle_mut()
    }

    /// The server endpoint (coordinator + channel meters).
    pub fn server(&self) -> &ChannelServer<C> {
        &self.server
    }

    /// The check-in interval driving round timing (for callers that
    /// split a run on a round boundary).
    pub fn checkin_interval(&self) -> SimDuration {
        self.config.deployment.checkin_interval
    }

    /// The wrapped coordinator (and its published map). Over a
    /// `ShardSet` this is the merged state as of the last flush, which
    /// [`ChannelDeployment::finish`] refreshes.
    pub fn coordinator(&self) -> &Coordinator {
        self.server.coordinator()
    }

    /// The landscape under measurement.
    pub fn landscape(&self) -> &Landscape {
        &self.land
    }

    /// Run counters.
    pub fn stats(&self) -> DeploymentStats {
        self.stats
    }

    /// Accumulated per-zone sample history (feeds the §3.4 tuners).
    pub fn history(&self) -> &HistoryStore {
        &self.history
    }

    /// Reports still waiting for an ack across all clients.
    pub fn pending_reports(&self) -> usize {
        self.clients.values().map(|c| c.uplink.pending_len()).sum()
    }

    /// Aggregated channel meters.
    pub fn meters(&self) -> ChannelRunMeters {
        let mut m = ChannelRunMeters {
            server: self.server.meters(),
            ..Default::default()
        };
        fn add(into: &mut LinkMeters, from: LinkMeters) {
            into.frames_sent += from.frames_sent;
            into.bytes_sent += from.bytes_sent;
            into.frames_dropped += from.frames_dropped;
            into.frames_duplicated += from.frames_duplicated;
            into.frames_delivered += from.frames_delivered;
            into.bytes_delivered += from.bytes_delivered;
        }
        for c in self.clients.values() {
            let ul = c.uplink.meters();
            add(&mut m.up, c.link_up.meters());
            add(&mut m.down, c.link_down.meters());
            add(&mut m.report, c.link_report.meters());
            m.uplink.enqueued += ul.enqueued;
            m.uplink.overflow_dropped += ul.overflow_dropped;
            m.uplink.transmissions += ul.transmissions;
            m.uplink.retries += ul.retries;
            m.uplink.acked += ul.acked;
            m.uplink.abandoned += ul.abandoned;
        }
        m
    }

    /// Simnet loss rate at `point` on the control carrier (0.0 when the
    /// link model does not couple to zone quality).
    fn zone_loss(&self, id: ClientId, now: SimTime) -> f64 {
        let couples = self.config.uplink_link.zone_loss_scale > 0.0
            || self.config.downlink_link.zone_loss_scale > 0.0
            || self.config.report_link.zone_loss_scale > 0.0;
        if !couples {
            return 0.0;
        }
        let (Some(carrier), Some(point)) = (self.carrier, self.fixes.get(&id)) else {
            return 0.0;
        };
        match self.land.field(carrier) {
            Ok(field) => field.loss_rate(point, now),
            Err(_) => 0.0,
        }
    }

    /// Sends a client-originated frame up (`report` selects the report
    /// link over the check-in link); immediate deliveries are processed
    /// synchronously (the perfect-link path), delayed ones are queued.
    fn send_up(&mut self, id: ClientId, frame: Vec<u8>, now: SimTime, report: bool) {
        let loss = self.zone_loss(id, now);
        let state = self.clients.get_mut(&id).expect("known client");
        let link = if report {
            &mut state.link_report
        } else {
            &mut state.link_up
        };
        let deliveries = link.send(frame, now, loss);
        for d in deliveries {
            if d.at <= now {
                self.server_receive(id, &d.frame, now);
            } else {
                self.in_flight
                    .insert((d.at, self.flight_seq), Inbound::ToServer(id, d.frame));
                self.flight_seq += 1;
            }
        }
    }

    /// Sends a server-originated frame down to `id`; same immediate /
    /// delayed split as [`ChannelDeployment::send_up`].
    fn send_down(&mut self, id: ClientId, frame: Vec<u8>, now: SimTime) {
        let loss = self.zone_loss(id, now);
        let deliveries = self
            .clients
            .get_mut(&id)
            .expect("known client")
            .link_down
            .send(frame, now, loss);
        for d in deliveries {
            if d.at <= now {
                self.client_receive(id, &d.frame, now);
            } else {
                self.in_flight
                    .insert((d.at, self.flight_seq), Inbound::ToClient(id, d.frame));
                self.flight_seq += 1;
            }
        }
    }

    fn server_receive(&mut self, from: ClientId, frame: &[u8], now: SimTime) {
        let replies = self.server.receive(frame, now);
        for reply in replies {
            self.send_down(from, reply, now);
        }
    }

    fn client_receive(&mut self, id: ClientId, frame: &[u8], now: SimTime) {
        // Borrowed decode: tasks and acks carry no heap payload, so the
        // client endpoint never allocates a message either.
        let Ok(msg) = decode_ref(frame) else {
            // Corrupt frames are modelled as drops by the link, but a
            // defensive endpoint still must not panic on garbage.
            return;
        };
        match msg {
            WireMessageRef::Task(assignment) => {
                // Execute at the client's position *this* round; a task
                // arriving while the client is off-shift is skipped
                // (nobody is there to run the probe).
                let Some(point) = self.fixes.get(&id).copied() else {
                    return;
                };
                let state = self.clients.get_mut(&id).expect("known client");
                if let Ok(report) = state.agent.execute(
                    &self.land,
                    self.server.coordinator().index(),
                    &assignment.task,
                    &point,
                    now,
                ) {
                    if self.config.deployment.auto_tune {
                        self.history.record(
                            report.zone,
                            report.task.network,
                            report.t,
                            &report.samples,
                        );
                    }
                    state.uplink.enqueue(report, now);
                }
            }
            WireMessageRef::Ack(ack) => {
                let state = self.clients.get_mut(&id).expect("known client");
                state.uplink.handle_ack_view(&ack);
            }
            // Server-bound traffic delivered to a client is dropped.
            WireMessageRef::Checkin(_) | WireMessageRef::Report(_) => {}
        }
    }

    /// Delivers every in-flight frame whose arrival time has come, in
    /// `(arrival, transmission index)` order.
    fn deliver_due(&mut self, now: SimTime) {
        loop {
            let Some((&key, _)) = self.in_flight.iter().next() else {
                return;
            };
            if key.0 > now {
                return;
            }
            let inbound = self.in_flight.remove(&key).expect("first key exists");
            match inbound {
                Inbound::ToServer(from, frame) => self.server_receive(from, &frame, now),
                Inbound::ToClient(id, frame) => self.client_receive(id, &frame, now),
            }
        }
    }

    /// Re-runs the NKLD quota tuner and the Allan epoch tuner over every
    /// zone with enough history, installing the results in the
    /// coordinator. Called automatically from [`ChannelDeployment::run`]
    /// when `auto_tune` is on; public so operators can retune on demand.
    pub fn retune(&mut self, now: SimTime) {
        let min = self
            .quota_tuner
            .min_history
            .min(self.epoch_tuner.min_history);
        for (zone, net) in self.history.keys_with_min(min) {
            let Some(h) = self.history.history(zone, net) else {
                continue;
            };
            let micros_bits = u64::from_le_bytes(now.as_micros().to_le_bytes());
            let seed = self.stream.fork("retune").fork_idx(micros_bits).draw_u64();
            // Through the handle, so a WAL-backed handle logs the update
            // and a `ShardSet` installs it on the owning shard only.
            if let Some(q) = self.quota_tuner.quota(h, seed) {
                self.server.handle_mut().set_zone_quota_tagged(zone, net, q);
                self.stats.quotas_tuned += 1;
            }
            if let Some(e) = self.epoch_tuner.epoch(h) {
                self.server.handle_mut().set_zone_epoch_tagged(zone, net, e);
                self.stats.epochs_tuned += 1;
            }
        }
        self.last_retune = Some(now);
    }

    fn round(&mut self, round_idx: u64, now: SimTime) {
        // Refresh fixes first: late frames delivered this round execute
        // at the position the client actually occupies now.
        self.fixes.clear();
        for client in self.fleet.clients() {
            if let Some(fix) = client.position_at(now) {
                self.fixes.insert(client.id(), fix.point);
            }
        }
        self.deliver_due(now);
        let ids: Vec<ClientId> = self.fleet.clients().iter().map(|c| c.id()).collect();
        for id in ids {
            let Some(point) = self.fixes.get(&id).copied() else {
                continue;
            };
            self.stats.checkins += 1;
            let checkin = encode(&WireMessage::Checkin(CheckinRequest {
                client: id,
                tick: round_idx,
                point,
                t: now,
            }));
            self.send_up(id, checkin, now, false);
            // Transmission opportunity: fresh reports from tasks that
            // just ran, plus any retries that have backed off enough.
            let frames = self
                .clients
                .get_mut(&id)
                .expect("known client")
                .uplink
                .due_frames(now);
            for frame in frames {
                self.send_up(id, frame, now, true);
            }
        }
        if self.config.deployment.auto_tune {
            let due = match self.last_retune {
                None => true,
                Some(last) => now - last >= self.config.deployment.retune_interval,
            };
            if due {
                self.retune(now);
            }
        }
    }

    /// Advances the deployment from `start` to `end` (exclusive), then
    /// lets retransmissions drain for up to `max_drain_rounds` extra
    /// check-in intervals before committing staged reports and
    /// finalizing every epoch at `end`.
    pub fn run(&mut self, start: SimTime, end: SimTime) {
        self.run_until(start, end);
        self.finish(end);
    }

    /// Advances main-phase rounds from `start` (or, on a continuation,
    /// from where the previous segment stopped) up to `end`
    /// (exclusive), without draining. Tick numbering continues across
    /// calls, so `run_until(a, m); run_until(m, b); finish(b)` draws
    /// the same task coins as `run(a, b)` — the hook for mid-stream
    /// rebalancing between segments.
    pub fn run_until(&mut self, start: SimTime, end: SimTime) {
        let mut now = if self.rounds_done > 0 && self.clock > start {
            self.clock
        } else {
            start
        };
        while now < end {
            self.rounds_done += 1;
            self.round(self.rounds_done, now);
            now = now + self.config.deployment.checkin_interval;
        }
        self.clock = now;
    }

    /// Runs the drain phase (no new check-ins, just deliveries and
    /// retries, up to `max_drain_rounds` intervals), then commits
    /// staged reports and finalizes every epoch at `end`. Call once,
    /// after the last [`ChannelDeployment::run_until`] segment.
    pub fn finish(&mut self, end: SimTime) {
        let mut now = self.clock;
        let mut extra = 0;
        while extra < self.config.max_drain_rounds
            && (!self.in_flight.is_empty() || self.pending_reports() > 0)
        {
            extra += 1;
            self.fixes.clear();
            for client in self.fleet.clients() {
                if let Some(fix) = client.position_at(now) {
                    self.fixes.insert(client.id(), fix.point);
                }
            }
            self.deliver_due(now);
            let ids: Vec<ClientId> = self.clients.keys().copied().collect();
            for id in ids {
                let frames = self
                    .clients
                    .get_mut(&id)
                    .expect("known client")
                    .uplink
                    .due_frames(now);
                for frame in frames {
                    self.send_up(id, frame, now, true);
                }
            }
            now = now + self.config.deployment.checkin_interval;
        }
        self.clock = now;
        self.server.drain(end);
        self.stats.tasks_issued = self.server.meters().tasks_sent;
        self.stats.reports = self.server.meters().reports_ingested;
        self.stats.packets_requested = self.server.coordinator().packets_requested();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_core::{state_fingerprint, ShardSet, ZoneIndex};
    use wiscape_simnet::LandscapeConfig;

    /// Three transit buses and a static spot around the origin.
    fn world(seed: u64) -> (Landscape, Fleet, ZoneIndex) {
        let land = Landscape::new(LandscapeConfig::madison(seed));
        let mut fleet = Fleet::new(seed);
        fleet.add_transit_buses(3, land.origin(), 5000.0, 8);
        fleet.add_static_spot(land.origin());
        let index = ZoneIndex::around(land.origin(), 6000.0).unwrap();
        (land, fleet, index)
    }

    /// One static spot at the stadium, whose game-day crowd halves its
    /// throughput.
    fn stadium_world(seed: u64) -> (Landscape, Fleet, ZoneIndex) {
        let land = Landscape::new(LandscapeConfig::madison(seed));
        let mut fleet = Fleet::new(seed);
        fleet.add_static_spot(wiscape_simnet::config::stadium_location());
        let index = ZoneIndex::around(land.origin(), 7000.0).unwrap();
        (land, fleet, index)
    }

    /// [`perfect_link`] with a check-in every `secs` seconds.
    fn perfect(secs: i64) -> ChannelConfig {
        let mut cfg = perfect_link();
        cfg.deployment.checkin_interval = SimDuration::from_secs(secs);
        cfg
    }

    fn channel_deployment(seed: u64, config: ChannelConfig) -> ChannelDeployment {
        let (land, fleet, index) = world(seed);
        ChannelDeployment::new(land, fleet, index, config)
    }

    /// The control loop as plain coordinator calls: the reference the
    /// perfect-link parity test holds [`ChannelDeployment`] to. Same
    /// rounds, fleet order and coin path; each report folds as soon as
    /// its task runs. It has no tuning and monitors every network: the
    /// parity inputs run with `auto_tune` off and `networks` empty.
    fn direct_calls(
        (land, fleet, index): (Landscape, Fleet, ZoneIndex),
        config: &DeploymentConfig,
        start: SimTime,
        end: SimTime,
    ) -> (Coordinator, DeploymentStats) {
        let networks = land.networks();
        let stream = StreamRng::new(land.config().seed).fork("deployment");
        let mut coordinator = Coordinator::new(index, config.coordinator.clone());
        let mut stats = DeploymentStats::default();
        let mut now = start;
        let mut round = 0u64;
        while now < end {
            round += 1;
            for client in fleet.clients() {
                let Some(fix) = client.position_at(now) else {
                    continue;
                };
                stats.checkins += 1;
                let coin = stream
                    .fork("coin")
                    .fork_idx(round)
                    .fork_idx(u64::from(client.id().0))
                    .draw_unit_f64();
                let tasks =
                    coordinator.client_checkin(client.id(), &fix.point, now, &networks, coin);
                let agent = ClientAgent::new(client.id());
                for task in tasks {
                    stats.tasks_issued += 1;
                    let executed =
                        agent.execute(&land, coordinator.index(), &task, &fix.point, now);
                    if let Ok(report) = executed {
                        if coordinator.ingest_report(&report).is_ok() {
                            stats.reports += 1;
                        }
                    }
                }
            }
            now = now + config.checkin_interval;
        }
        coordinator.flush(end);
        stats.packets_requested = coordinator.packets_requested();
        (coordinator, stats)
    }

    #[test]
    fn perfect_link_matches_direct_deployment_bitwise() {
        // (world, seed, check-in secs, day, from hour, to hour). The
        // stadium's game day raises alerts, so the alert comparison is
        // not one of two empty lists.
        let inputs = [
            (world as fn(u64) -> _, 60, 120, 1, 8.0, 12.0),
            (stadium_world, 103, 45, 5, 8.0, 16.0),
        ];
        for (build, seed, secs, day, from, to) in inputs {
            let (start, end) = (SimTime::at(day, from), SimTime::at(day, to));
            let cfg = perfect(secs);
            let (direct, direct_stats) = direct_calls(build(seed), &cfg.deployment, start, end);
            let (land, fleet, index) = build(seed);
            let mut over_channel = ChannelDeployment::new(land, fleet, index, cfg);
            over_channel.run(start, end);
            assert_eq!(over_channel.stats(), direct_stats, "seed {seed}");
            let a = over_channel.coordinator().all_published();
            let b = direct.all_published();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x, y, "published estimates must be bitwise equal");
            }
            assert_eq!(over_channel.coordinator().alerts(), direct.alerts());
            assert_eq!(
                state_fingerprint(&over_channel.coordinator().export_state()),
                state_fingerprint(&direct.export_state()),
                "seed {seed}"
            );
            if seed == 103 {
                assert!(!direct.alerts().is_empty(), "game day raises alerts");
            }
            // And the channel actually carried traffic to do it.
            let m = over_channel.meters();
            assert!(m.up.frames_sent > 0 && m.down.frames_sent > 0);
            assert_eq!(m.up.frames_dropped, 0);
            assert_eq!(m.uplink.retries, 0);
        }
    }

    #[test]
    fn deployment_produces_published_estimates() {
        let mut d = channel_deployment(60, perfect(120));
        d.run(SimTime::at(1, 8.0), SimTime::at(1, 14.0));
        let stats = d.stats();
        assert!(stats.checkins > 300, "{stats:?}");
        assert!(stats.tasks_issued > 20, "{stats:?}");
        assert_eq!(stats.reports, stats.tasks_issued, "all tasks on known nets");
        let published = d.coordinator().all_published();
        assert!(
            published.len() > 5,
            "{} published estimates",
            published.len()
        );
        for (key, e) in &published {
            assert!(e.mean > 50.0 && e.mean < 7200.0, "estimate {key:?} {e:?}");
            assert!(e.samples >= 1);
        }
    }

    #[test]
    fn estimates_track_ground_truth() {
        let mut d = channel_deployment(61, perfect(120));
        d.run(SimTime::at(1, 8.0), SimTime::at(1, 16.0));
        // The static spot's zone gets steady samples; compare against
        // ground truth there.
        let p = d.landscape().origin();
        let zone = d.coordinator().index().zone_of(&p);
        let est = d
            .coordinator()
            .published(zone, NetworkId::NetB)
            .expect("spot zone is measured");
        let truth = d
            .landscape()
            .link_quality(NetworkId::NetB, &p, SimTime::at(1, 12.0))
            .unwrap()
            .udp_kbps;
        let err = (est.mean - truth).abs() / truth;
        assert!(
            err < 0.25,
            "estimate {} vs truth {truth}: err {err}",
            est.mean
        );
    }

    #[test]
    fn overhead_is_bounded_by_design() {
        // The whole point of WiScape: per zone per epoch, at most
        // ~target_samples packets are requested.
        let mut d = channel_deployment(62, perfect(120));
        let cfg = d.config.deployment.coordinator.clone();
        d.run(SimTime::at(1, 8.0), SimTime::at(1, 12.0));
        let zones_touched: std::collections::HashSet<_> = d
            .coordinator()
            .all_published()
            .iter()
            .map(|&(key, _)| key)
            .collect();
        // 4 hours / 30 min epochs = up to 8 epochs per zone-network.
        let max_packets =
            (zones_touched.len().max(1) as u64 + 200) * cfg.target_samples_per_epoch as u64 * 9;
        assert!(
            d.stats().packets_requested < max_packets,
            "{} packets vs bound {max_packets}",
            d.stats().packets_requested
        );
    }

    #[test]
    fn auto_tune_installs_quotas_and_epochs() {
        // A static spot feeds one zone steadily; with auto-tune on and a
        // short retune interval, that zone's quota and epoch get set
        // from its own history.
        let land = Landscape::new(LandscapeConfig::madison(64));
        let spot = land.origin();
        let mut fleet = Fleet::new(64);
        fleet.add_static_spot(spot);
        let index = ZoneIndex::around(land.origin(), 6000.0).unwrap();
        let mut config = perfect_link();
        config.deployment = DeploymentConfig {
            checkin_interval: SimDuration::from_secs(30),
            auto_tune: true,
            retune_interval: SimDuration::from_hours(2),
            ..Default::default()
        };
        let mut d = ChannelDeployment::new(land, fleet, index, config);
        // Lower the tuners' history requirements so a day suffices.
        d.quota_tuner.min_history = 300;
        d.epoch_tuner.min_history = 300;
        d.run(SimTime::at(1, 0.0), SimTime::at(2, 0.0));
        let stats = d.stats();
        assert!(stats.quotas_tuned > 0, "{stats:?}");
        assert!(stats.epochs_tuned > 0, "{stats:?}");
        let zone = d.coordinator().index().zone_of(&spot);
        let quota = d.coordinator().zone_quota(zone, NetworkId::NetB);
        assert!(
            (10..=300).contains(&quota),
            "tuned quota {quota} should be Fig 7-scale"
        );
        let epoch = d.coordinator().zone_epoch(zone, NetworkId::NetB);
        let cfg = d.epoch_tuner.config.clone();
        assert!(epoch >= cfg.min_epoch && epoch <= cfg.max_epoch);
        assert!(!d.history().keys_with_min(100).is_empty());
    }

    #[test]
    fn auto_tune_off_keeps_defaults() {
        let mut d = channel_deployment(65, perfect(120));
        d.run(SimTime::at(1, 9.0), SimTime::at(1, 12.0));
        assert_eq!(d.stats().quotas_tuned, 0);
        assert_eq!(d.stats().epochs_tuned, 0);
    }

    #[test]
    fn lossy_run_never_double_counts_and_matches_lossless_after_drain() {
        let run = |drop_rate: f64| {
            let mut cfg = report_loss(drop_rate);
            cfg.deployment.checkin_interval = SimDuration::from_secs(120);
            // Retries must fit the run: tight backoff for the test.
            cfg.uplink.rto_initial = SimDuration::from_secs(120);
            cfg.uplink.rto_max = SimDuration::from_mins(10);
            cfg.uplink.max_attempts = 40;
            let mut d = channel_deployment(61, cfg);
            d.run(SimTime::at(1, 8.0), SimTime::at(1, 12.0));
            d
        };
        let lossless = run(0.0);
        let lossy = run(0.2);

        // Dedup invariant: every unique sequence was counted exactly
        // once (ingested or rejected), duplicates were dropped.
        let m = lossy.server.meters();
        assert_eq!(
            m.reports_ingested + m.reports_rejected,
            lossy.server.unique_seqs(),
            "ingested count must equal unique sequence numbers"
        );
        assert!(
            lossy.meters().uplink.retries > 0,
            "loss should force retries"
        );
        assert_eq!(lossy.pending_reports(), 0, "all reports drained");
        assert_eq!(lossy.meters().uplink.abandoned, 0, "nothing abandoned");

        // With everything delivered and watermark-ordered commit, the
        // published map is identical to the lossless run.
        let a = lossless.coordinator().all_published();
        let b = lossy.coordinator().all_published();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "lossy (drained) must match lossless");
        }
    }

    #[test]
    fn channel_run_is_deterministic() {
        let mut lossy = lossy_cellular(0.15);
        lossy.deployment.checkin_interval = SimDuration::from_secs(120);
        for (seed, cfg) in [(62, lossy), (63, perfect(120))] {
            let run = || {
                let mut d = channel_deployment(seed, cfg.clone());
                d.run(SimTime::at(1, 9.0), SimTime::at(1, 11.0));
                (d.stats(), d.meters(), d.coordinator().all_published())
            };
            let (s1, m1, p1) = run();
            let (s2, m2, p2) = run();
            assert_eq!(s1, s2);
            assert_eq!(m1, m2);
            assert_eq!(p1, p2);
        }
    }

    fn sharded_deployment(
        seed: u64,
        config: ChannelConfig,
        n: usize,
    ) -> ChannelDeployment<ShardSet> {
        let (land, fleet, index) = world(seed);
        let set = ShardSet::new(index, config.deployment.coordinator.clone(), n);
        ChannelDeployment::with_coordinator(land, fleet, set, config)
    }

    #[test]
    fn sharded_run_matches_single_for_any_shard_count() {
        let cfg = perfect(120);
        let start = SimTime::at(1, 8.0);
        let end = SimTime::at(1, 12.0);
        let mut single = channel_deployment(64, cfg.clone());
        single.run(start, end);
        let want = state_fingerprint(&single.coordinator().export_state());
        for n in [1usize, 2, 4] {
            let mut sharded = sharded_deployment(64, cfg.clone(), n);
            sharded.run(start, end);
            assert_eq!(
                state_fingerprint(&sharded.coordinator().export_state()),
                want,
                "sharded (n={n}) must be bitwise identical to single"
            );
            assert_eq!(sharded.stats(), single.stats(), "stats (n={n})");
            assert_eq!(sharded.meters(), single.meters(), "meters (n={n})");
        }
    }

    #[test]
    fn sharded_lossy_watermark_matches_single_after_drain() {
        let mut cfg = report_loss(0.2);
        cfg.deployment.checkin_interval = SimDuration::from_secs(120);
        cfg.uplink.rto_initial = SimDuration::from_secs(120);
        cfg.uplink.rto_max = SimDuration::from_mins(10);
        cfg.uplink.max_attempts = 40;
        let start = SimTime::at(1, 8.0);
        let end = SimTime::at(1, 12.0);
        let mut single = channel_deployment(65, cfg.clone());
        single.run(start, end);
        let mut sharded = sharded_deployment(65, cfg, 4);
        sharded.run(start, end);
        assert_eq!(sharded.pending_reports(), 0);
        assert!(sharded.meters().uplink.retries > 0, "loss forces retries");
        assert_eq!(
            state_fingerprint(&sharded.coordinator().export_state()),
            state_fingerprint(&single.coordinator().export_state()),
            "lossy sharded run (drained) must match single bitwise"
        );
    }

    #[test]
    fn mid_run_rebalance_preserves_bitwise_parity() {
        let cfg = perfect(120);
        let start = SimTime::at(1, 8.0);
        let mid = SimTime::at(1, 10.0); // on a check-in boundary
        let end = SimTime::at(1, 12.0);
        let mut single = channel_deployment(66, cfg.clone());
        single.run(start, end);
        let mut sharded = sharded_deployment(66, cfg, 4);
        sharded.run_until(start, mid);
        let mv = wiscape_core::RebalanceMove::seeded(
            7,
            single.coordinator().index(),
            sharded.handle_mut().assignment(),
        )
        .expect("seeded move exists");
        let moved = sharded.handle_mut().rebalance(&mv);
        assert!(moved > 0, "mid-run rebalance must migrate live cells");
        sharded.run_until(mid, end);
        sharded.finish(end);
        assert_eq!(
            state_fingerprint(&sharded.coordinator().export_state()),
            state_fingerprint(&single.coordinator().export_state()),
            "rebalanced sharded run must match single bitwise"
        );
        assert_eq!(sharded.stats(), single.stats());
    }

    #[test]
    fn split_run_equals_unsplit_run() {
        let mut cfg = lossy_cellular(0.1);
        cfg.deployment.checkin_interval = SimDuration::from_secs(120);
        let start = SimTime::at(1, 8.0);
        let mid = SimTime::at(1, 10.0);
        let end = SimTime::at(1, 12.0);
        let mut whole = channel_deployment(67, cfg.clone());
        whole.run(start, end);
        let mut split = channel_deployment(67, cfg);
        split.run_until(start, mid);
        split.run_until(mid, end);
        split.finish(end);
        assert_eq!(split.stats(), whole.stats());
        assert_eq!(split.meters(), whole.meters());
        assert_eq!(
            state_fingerprint(&split.coordinator().export_state()),
            state_fingerprint(&whole.coordinator().export_state()),
        );
    }

    #[test]
    fn report_loss_costs_retransmission_bytes() {
        let bytes = |drop: f64| {
            let mut cfg = report_loss(drop);
            cfg.deployment.checkin_interval = SimDuration::from_secs(120);
            cfg.uplink.rto_initial = SimDuration::from_secs(120);
            let mut d = channel_deployment(63, cfg);
            d.run(SimTime::at(1, 9.0), SimTime::at(1, 11.0));
            d.meters().control_bytes()
        };
        let clean = bytes(0.0);
        let dirty = bytes(0.25);
        assert!(clean > 0);
        assert!(
            dirty > clean,
            "retransmissions must cost bytes: {dirty} vs {clean}"
        );
    }
}
