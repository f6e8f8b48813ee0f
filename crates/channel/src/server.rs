//! Coordinator-side channel endpoint: decode, dedup, idempotent ingest.
//!
//! The [`ChannelServer`] wraps a [`Coordinator`] behind the wire
//! protocol. Its contract with the lossy transport:
//!
//! * **at-least-once in, exactly-once through** — every received report
//!   is acknowledged (even rejected ones, so clients stop retrying),
//!   but a `(client, seq)` pair is ingested at most once no matter how
//!   many copies arrive;
//! * **idempotent acks** — re-acking an already-retired sequence is a
//!   no-op on the client, so duplicated or reordered acks are harmless;
//! * **typed rejection** — frames that fail to decode are counted in
//!   [`ServerMeters::decode_errors`] and dropped, never panicking,
//!   mirroring the coordinator's own `malformed_dropped` /
//!   `reports_rejected` philosophy one layer down.
//!
//! The [`CommitPolicy`] decides *when* a deduplicated report reaches
//! [`Coordinator::ingest_report`]. `Immediate` ingests on arrival —
//! with a perfect link the server then makes the calls of a plain
//! direct-call control loop, in its order, which is the bitwise-parity
//! argument.
//! `Watermark` stages reports and ingests them in `(t, client, seq)`
//! order once they are older than the settle window, which makes the
//! published map independent of delivery order (and hence of the loss
//! pattern) provided every report is eventually delivered within the
//! window: floating-point accumulation in the zone estimator is
//! order-sensitive, so order-independence has to be manufactured by
//! sorting, not assumed.
//!
//! Acks leave at the end of each `receive`, after the handle's
//! `commit_group`. Under `Immediate` that writes a durable handle's
//! record of every acked report first. Under `Watermark` a report is
//! acked when it is staged and reaches the handle only when the
//! watermark commits it, so a process death before then loses reports
//! that were already acked (with a settle window longer than the run,
//! as in `report_loss` and `lossy_cellular`, that is every report
//! until `drain`).
//!
//! Staging keeps no owned report: the staging map holds each report's
//! cell and the position of its raw sample bytes, which are copied out
//! of the frame into fixed 1 MiB chunks and read back through
//! [`SampleIter`] at commit. A chunk is reused once every report in it
//! has committed, so no staged report allocates.
//!
//! Committed samples land in the coordinator's per-zone
//! `wiscape_stats::RunningStats` moments — constant state per
//! `(zone, network)` cell. Server memory is O(zones), plus the staging
//! map and chunks, which hold what the settle window holds (the
//! production configurations settle for one year, so in practice every
//! report until drain), plus the dedup set, which keeps every
//! `(client, seq)` ever received and so is O(reports).
//!
//! The sharded topology is this same server over a
//! [`wiscape_core::ShardSet`] handle: dedup, staging and acks happen
//! here once, and the set routes each committed operation to the shard
//! owning its zone.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use wiscape_core::{Coordinator, CoordinatorHandle, ZoneId};
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::NetworkId;

use crate::codec::{
    encode, encode_ack_one, CheckinRequest, FrameReader, ReportView, SampleIter, TaskAssignment,
    WireMessage, WireMessageRef,
};

/// When deduplicated reports are committed into the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Ingest on arrival. With a perfect link each report folds as soon
    /// as its task runs, as in a direct-call loop; with loss, the
    /// published map depends on arrival order.
    Immediate,
    /// Stage reports and ingest them in `(t, client, seq)` order once
    /// `now - t` exceeds the settle window. The published map is then a
    /// function of the *set* of delivered reports, not their order.
    Watermark(SimDuration),
}

/// Traffic and dedup counters of the server endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerMeters {
    /// Frames received (after transport, before decode).
    pub frames_received: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Frames dropped with a typed decode error.
    pub decode_errors: u64,
    /// Check-ins processed.
    pub checkins: u64,
    /// Task assignments sent.
    pub tasks_sent: u64,
    /// Report copies that were duplicates of an already-seen sequence.
    pub duplicates_dropped: u64,
    /// Unique reports committed into the coordinator.
    pub reports_ingested: u64,
    /// Unique reports the coordinator rejected (still acked).
    pub reports_rejected: u64,
    /// Ack frames produced.
    pub acks_sent: u64,
    /// Bytes of produced frames (tasks + acks).
    pub bytes_sent: u64,
}

/// Obs mirrors of [`ServerMeters`]: every field that increments also
/// bumps the shared registry (counter adds are commutative, so the
/// totals are schedule-independent). The typed meter struct remains the
/// programmatic API; the registry is the uniform snapshot/report path.
struct ServerObs {
    frames_received: wiscape_obs::Counter,
    bytes_received: wiscape_obs::Counter,
    decode_errors: wiscape_obs::Counter,
    checkins: wiscape_obs::Counter,
    tasks_sent: wiscape_obs::Counter,
    duplicates_dropped: wiscape_obs::Counter,
    reports_ingested: wiscape_obs::Counter,
    reports_rejected: wiscape_obs::Counter,
    acks_sent: wiscape_obs::Counter,
    bytes_sent: wiscape_obs::Counter,
}

fn server_obs() -> &'static ServerObs {
    static M: OnceLock<ServerObs> = OnceLock::new();
    M.get_or_init(|| ServerObs {
        frames_received: wiscape_obs::counter("channel/server_frames_received"),
        bytes_received: wiscape_obs::counter("channel/server_bytes_received"),
        decode_errors: wiscape_obs::counter("channel/server_decode_errors"),
        checkins: wiscape_obs::counter("channel/server_checkins"),
        tasks_sent: wiscape_obs::counter("channel/server_tasks_sent"),
        duplicates_dropped: wiscape_obs::counter("channel/server_duplicates_dropped"),
        reports_ingested: wiscape_obs::counter("channel/server_reports_ingested"),
        reports_rejected: wiscape_obs::counter("channel/server_reports_rejected"),
        acks_sent: wiscape_obs::counter("channel/server_acks_sent"),
        bytes_sent: wiscape_obs::counter("channel/server_bytes_sent"),
    })
}

/// Bytes in one staging chunk.
const CHUNK_BYTES: usize = 1 << 20;

/// Commit order of a staged report: `(t, client, seq)`.
type StageKey = (SimTime, ClientId, u64);

/// A staged report: the cell it folds into and where its raw sample
/// bytes sit in [`Staging`].
#[derive(Debug, Clone, Copy)]
struct Staged {
    zone: ZoneId,
    network: NetworkId,
    /// Index of the chunk holding the samples.
    chunk: usize,
    /// Byte offset of the samples in the chunk.
    at: usize,
    /// Byte length of the samples.
    len: usize,
}

/// The raw sample bytes of the staged reports, copied from their frames
/// into chunks of [`CHUNK_BYTES`]; a report larger than that gets a
/// chunk of its own size. A chunk fills front to back and is never
/// reallocated. Once every report in it has committed it is emptied and
/// filled again, so the chunk count follows the bytes staged at one
/// time, not the length of the stream.
#[derive(Debug, Clone, Default)]
struct Staging {
    chunks: Vec<Chunk>,
    /// The chunk being filled.
    open: usize,
}

#[derive(Debug, Clone)]
struct Chunk {
    bytes: Vec<u8>,
    /// Staged reports whose samples are in this chunk.
    live: usize,
}

impl Staging {
    /// Copies `samples` into the open chunk, or else into the first
    /// empty chunk large enough, which becomes the open one, and returns
    /// `(chunk, offset)`. When no chunk has room, `new_chunk` is called
    /// with the capacity of the chunk to add.
    fn copy_in(
        &mut self,
        samples: &[u8],
        new_chunk: impl FnOnce(usize) -> Vec<u8>,
    ) -> (usize, usize) {
        let fits = |c: &Chunk| c.bytes.capacity() - c.bytes.len() >= samples.len();
        if !self.chunks.get(self.open).is_some_and(fits) {
            match self.chunks.iter().position(|c| c.live == 0 && fits(c)) {
                Some(empty) => self.open = empty,
                None => {
                    self.open = self.chunks.len();
                    let bytes = new_chunk(CHUNK_BYTES.max(samples.len()));
                    self.chunks.push(Chunk { bytes, live: 0 });
                }
            }
        }
        let Some(chunk) = self.chunks.get_mut(self.open) else {
            // Unreachable: the branch above left `open` on a chunk.
            return (self.open, 0);
        };
        let at = chunk.bytes.len();
        chunk.bytes.extend_from_slice(samples);
        chunk.live += 1;
        (self.open, at)
    }

    /// The staged samples of `s`.
    fn staged_samples(&self, s: &Staged) -> SampleIter<'_> {
        let bytes = self
            .chunks
            .get(s.chunk)
            .and_then(|c| c.bytes.get(s.at..s.at + s.len));
        SampleIter::new(bytes.unwrap_or_default())
    }

    /// Notes that one report in `chunk` committed, emptying the chunk
    /// for reuse when it was the last.
    fn release(&mut self, chunk: usize) {
        if let Some(c) = self.chunks.get_mut(chunk) {
            c.live = c.live.saturating_sub(1);
            if c.live == 0 {
                c.bytes.clear();
            }
        }
    }
}

/// The coordinator's channel endpoint.
///
/// Generic over the [`CoordinatorHandle`] it drives: the default is a
/// plain [`Coordinator`]; `wiscape-wal` substitutes its
/// `DurableCoordinator` so every committed mutation is appended to an
/// event log before it folds into sketch state; a
/// [`wiscape_core::ShardSet`] of either splits the zones across shards.
#[derive(Debug, Clone)]
pub struct ChannelServer<C: CoordinatorHandle = Coordinator> {
    coordinator: C,
    policy: CommitPolicy,
    stream: StreamRng,
    networks: Vec<NetworkId>,
    seen: BTreeMap<ClientId, BTreeSet<u64>>,
    staged: BTreeMap<StageKey, Staged>,
    staging: Staging,
    meters: ServerMeters,
}

impl<C: CoordinatorHandle> ChannelServer<C> {
    /// Wraps `coordinator` behind the wire protocol.
    ///
    /// `stream` is the deployment's measurement fork
    /// (`StreamRng::new(seed).fork("deployment")`): the task-issuance
    /// coin for a check-in with counter `tick` from client `c` is drawn
    /// from `fork("coin").fork_idx(tick).fork_idx(c)`, a path no
    /// transport draw touches, so a perfect link changes no decision.
    pub fn new(
        coordinator: C,
        policy: CommitPolicy,
        stream: StreamRng,
        networks: Vec<NetworkId>,
    ) -> Self {
        Self {
            coordinator,
            policy,
            stream,
            networks,
            seen: BTreeMap::new(),
            staged: BTreeMap::new(),
            staging: Staging::default(),
            meters: ServerMeters::default(),
        }
    }

    /// The wrapped coordinator (and its published map).
    pub fn coordinator(&self) -> &Coordinator {
        self.coordinator.as_coordinator()
    }

    /// Mutable access to the coordinator handle, for tuner
    /// installation: routing quota/epoch updates through the handle
    /// keeps them in the event log when the handle is WAL-backed.
    pub fn handle_mut(&mut self) -> &mut C {
        &mut self.coordinator
    }

    /// Channel meters so far.
    pub fn meters(&self) -> ServerMeters {
        self.meters
    }

    /// Total distinct `(client, seq)` report sequences ever accepted —
    /// the dedup invariant is `reports_ingested + reports_rejected ==
    /// unique_seqs()`.
    pub fn unique_seqs(&self) -> u64 {
        self.seen
            .values()
            .map(|s| u64::try_from(s.len()).unwrap_or(u64::MAX))
            .sum()
    }

    /// Number of `(zone, network)` cells the wrapped coordinator tracks.
    pub fn zones_tracked(&self) -> usize {
        self.coordinator.as_coordinator().zones_tracked()
    }

    /// Resident bytes of the coordinator's per-zone estimation state —
    /// O(zones) however many reports stream through. The server's own
    /// report state is not counted: the watermark staging holds what the
    /// settle window holds (one year in the production configurations,
    /// so every report until drain), and the dedup set keeps every
    /// `(client, seq)` ever received.
    pub fn sketch_bytes(&self) -> usize {
        self.coordinator.as_coordinator().sketch_bytes()
    }

    /// Reports currently staged awaiting the watermark (0 under
    /// [`CommitPolicy::Immediate`]).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Handles one received transmission (a concatenation of frames) at
    /// `now`, returning the reply frames (task assignments for
    /// check-ins, acks for reports) to put on the downlink. The
    /// handle's group is committed before the replies are returned, so
    /// every report an ack covers is written to the event log first.
    pub fn receive(&mut self, bytes: &[u8], now: SimTime) -> Vec<Vec<u8>> {
        let obs = server_obs();
        self.meters.frames_received += 1;
        obs.frames_received.inc();
        let nbytes = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
        self.meters.bytes_received += nbytes;
        obs.bytes_received.add(nbytes);
        // Zero-copy decode: the views borrow `bytes` directly; no owned
        // `ReportMsg` (and no per-report `Vec<f64>`) is built on this
        // path. The whole transmission is still validated before any
        // message takes effect — a torn byte anywhere poisons the rest
        // of the stream, so drop it all and let retransmission recover.
        let mut msgs: Vec<WireMessageRef<'_>> = Vec::new();
        for item in FrameReader::new(bytes) {
            match item {
                Ok(msg) => msgs.push(msg),
                Err(_) => {
                    self.meters.decode_errors += 1;
                    obs.decode_errors.inc();
                    return Vec::new();
                }
            }
        }
        let mut replies = Vec::new();
        for msg in msgs {
            match msg {
                WireMessageRef::Checkin(req) => {
                    for assignment in self.handle_checkin(&req) {
                        let frame = encode(&WireMessage::Task(assignment));
                        let fbytes = u64::try_from(frame.len()).unwrap_or(u64::MAX);
                        self.meters.bytes_sent += fbytes;
                        obs.bytes_sent.add(fbytes);
                        replies.push(frame);
                    }
                }
                WireMessageRef::Report(view) => {
                    let (client, seq) = (view.client, view.seq);
                    self.handle_report_view(&view, now);
                    let frame = encode_ack_one(client, seq);
                    self.meters.acks_sent += 1;
                    obs.acks_sent.inc();
                    let fbytes = u64::try_from(frame.len()).unwrap_or(u64::MAX);
                    self.meters.bytes_sent += fbytes;
                    obs.bytes_sent.add(fbytes);
                    replies.push(frame);
                }
                // Server-bound traffic only; a client-bound message
                // looping back is a protocol violation we just drop.
                WireMessageRef::Task(_) | WireMessageRef::Ack(_) => {
                    self.meters.decode_errors += 1;
                    obs.decode_errors.inc();
                }
            }
        }
        self.coordinator.commit_group();
        replies
    }

    /// Processes a check-in, deriving the task-issuance coin from the
    /// client's own check-in counter so the decision is reproducible
    /// even when some check-ins are lost in transit.
    pub fn handle_checkin(&mut self, req: &CheckinRequest) -> Vec<TaskAssignment> {
        self.meters.checkins += 1;
        server_obs().checkins.inc();
        let coin = self
            .stream
            .fork("coin")
            .fork_idx(req.tick)
            .fork_idx(u64::from(req.client.0))
            .draw_unit_f64();
        let tasks =
            self.coordinator
                .checkin_tagged(req.client, &req.point, req.t, &self.networks, coin);
        let n_tasks = u64::try_from(tasks.len()).unwrap_or(u64::MAX);
        self.meters.tasks_sent += n_tasks;
        server_obs().tasks_sent.add(n_tasks);
        tasks
            .into_iter()
            .map(|task| TaskAssignment {
                client: req.client,
                task,
            })
            .collect()
    }

    /// Dedups and (per policy) commits one report copy from a borrowed
    /// frame view. On the immediate path the samples fold straight
    /// from the wire bytes into the zone sketch; on the watermark path
    /// their raw bytes are copied into a staging chunk. Neither builds
    /// an owned `SampleReport` or a `Vec<f64>` (lint rule S004 keeps
    /// this function allocation-free, bar the inventoried chunk). The
    /// caller acks separately via [`encode_ack_one`], whatever the
    /// outcome, so the client stops retrying; a caller that does not
    /// go through [`Self::receive`] commits the handle's group
    /// ([`CoordinatorHandle::commit_group`]) before its acks leave.
    pub fn handle_report_view(&mut self, view: &ReportView<'_>, now: SimTime) {
        let client = view.client;
        let fresh = self.seen.entry(client).or_default().insert(view.seq);
        if fresh {
            match self.policy {
                CommitPolicy::Immediate => self.commit_view(view),
                CommitPolicy::Watermark(_) => {
                    let samples = view.sample_bytes();
                    // lint:allow(S004): a staging chunk, 1 MiB or one oversize report; added only when every chunk is full or still holds uncommitted reports, so chunks follow the bytes staged at once, not the report count.
                    let (chunk, at) = self.staging.copy_in(samples, Vec::with_capacity);
                    let staged = Staged {
                        zone: view.zone,
                        network: view.task.network,
                        chunk,
                        at,
                        len: samples.len(),
                    };
                    self.staged.insert((view.t, client, view.seq), staged);
                }
            }
        } else {
            self.meters.duplicates_dropped += 1;
            server_obs().duplicates_dropped.inc();
        }
        if let CommitPolicy::Watermark(settle) = self.policy {
            self.advance(now, settle);
        }
    }

    /// Folds one deduplicated report into the coordinator's per-zone
    /// sketch, streaming the samples from the frame bytes: O(1) state
    /// per `(zone, network)` cell and no per-report allocation (the
    /// ingest path filters and folds the samples in place — see
    /// `Coordinator::ingest_samples`).
    fn commit_view(&mut self, view: &ReportView<'_>) {
        let ok = self
            .coordinator
            .ingest_samples_tagged(
                view.client,
                view.seq,
                view.zone,
                view.task.network,
                view.t,
                view.samples(),
            )
            .is_ok();
        self.note_commit(ok);
    }

    /// Folds one staged report from its chunk bytes, then frees them.
    /// Same call, samples and bits as [`Self::commit_view`] on the
    /// frame the bytes were copied from.
    fn commit_staged(&mut self, (t, client, seq): StageKey, s: Staged) {
        let ok = self
            .coordinator
            .ingest_samples_tagged(
                client,
                seq,
                s.zone,
                s.network,
                t,
                self.staging.staged_samples(&s),
            )
            .is_ok();
        self.note_commit(ok);
        self.staging.release(s.chunk);
    }

    fn note_commit(&mut self, ok: bool) {
        if ok {
            self.meters.reports_ingested += 1;
            server_obs().reports_ingested.inc();
        } else {
            self.meters.reports_rejected += 1;
            server_obs().reports_rejected.inc();
        }
    }

    /// Commits staged reports older than the settle window, in sorted
    /// `(t, client, seq)` order.
    fn advance(&mut self, now: SimTime, settle: SimDuration) {
        while let Some(entry) = self.staged.first_entry() {
            if now - entry.key().0 < settle {
                break;
            }
            let (key, staged) = entry.remove_entry();
            self.commit_staged(key, staged);
        }
    }

    /// Commits every staged report (watermark runs), in sorted
    /// `(t, client, seq)` order, returns the staging chunks to the
    /// allocator, and finalizes all epochs at `end`. Call once, after
    /// retransmissions have drained.
    pub fn drain(&mut self, end: SimTime) {
        while let Some((key, staged)) = self.staged.pop_first() {
            self.commit_staged(key, staged);
        }
        self.staging = Staging::default();
        self.coordinator.flush_tagged(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, AckMsg, ReportMsg};
    use wiscape_core::{
        state_fingerprint, CoordinatorConfig, MeasurementTask, RebalanceMove, SampleReport,
        ShardSet, ZoneIndex,
    };
    use wiscape_geo::GeoPoint;
    use wiscape_simnet::TransportKind;

    fn center() -> GeoPoint {
        GeoPoint::new(43.0731, -89.4012).unwrap()
    }

    fn index() -> ZoneIndex {
        ZoneIndex::around(center(), 5000.0).unwrap()
    }

    fn over<C: CoordinatorHandle>(handle: C, policy: CommitPolicy) -> ChannelServer<C> {
        ChannelServer::new(
            handle,
            policy,
            StreamRng::new(5).fork("deployment"),
            vec![NetworkId::NetB],
        )
    }

    fn server(policy: CommitPolicy) -> ChannelServer {
        over(
            Coordinator::new(index(), CoordinatorConfig::default()),
            policy,
        )
    }

    fn sharded(n: usize) -> ChannelServer<ShardSet> {
        over(
            ShardSet::new(index(), CoordinatorConfig::default(), n),
            CommitPolicy::Immediate,
        )
    }

    fn report(zone: ZoneId, client: u32, t: SimTime, samples: &[f64]) -> SampleReport {
        SampleReport {
            client: ClientId(client),
            task: MeasurementTask {
                zone,
                network: NetworkId::NetB,
                kind: TransportKind::Udp,
                n_packets: 1,
                packet_bytes: 100,
            },
            zone,
            t,
            samples: samples.to_vec(),
        }
    }

    fn report_frame(zone: ZoneId, client: u32, seq: u64, t: SimTime, samples: &[f64]) -> Vec<u8> {
        encode(&WireMessage::Report(ReportMsg {
            seq,
            report: report(zone, client, t, samples),
        }))
    }

    /// A report frame from client 1 for the zone at the index center.
    fn home_frame(seq: u64, t: SimTime, samples: &[f64]) -> Vec<u8> {
        report_frame(index().zone_of(&center()), 1, seq, t, samples)
    }

    /// Delivers one report frame and returns the sequences its one
    /// reply acks.
    fn acked(s: &mut ChannelServer, frame: &[u8], now: SimTime) -> Vec<u64> {
        let replies = s.receive(frame, now);
        assert_eq!(replies.len(), 1, "one ack per report frame");
        match decode(&replies[0]).unwrap() {
            WireMessage::Ack(ack) => ack.seqs,
            other => panic!("expected an ack, got {other:?}"),
        }
    }

    #[test]
    fn duplicates_never_double_count() {
        let mut s = server(CommitPolicy::Immediate);
        let frame = home_frame(0, SimTime::EPOCH, &[100.0]);
        for _ in 0..5 {
            assert_eq!(
                acked(&mut s, &frame, SimTime::EPOCH),
                vec![0],
                "every copy is acked"
            );
        }
        assert_eq!(s.meters().reports_ingested, 1);
        assert_eq!(s.meters().duplicates_dropped, 4);
        assert_eq!(s.unique_seqs(), 1);
        s.drain(SimTime::from_secs(3600));
        let zone = s.coordinator().index().zone_of(&center());
        let e = s.coordinator().published(zone, NetworkId::NetB).unwrap();
        assert_eq!(e.samples, 1, "one sample despite five copies");
    }

    #[test]
    fn rejected_reports_are_still_acked_and_deduped() {
        let mut s = server(CommitPolicy::Immediate);
        let frame = home_frame(7, SimTime::EPOCH, &[]); // empty -> coordinator rejects
        assert_eq!(acked(&mut s, &frame, SimTime::EPOCH), vec![7]);
        assert_eq!(s.meters().reports_rejected, 1);
        assert_eq!(acked(&mut s, &frame, SimTime::EPOCH), vec![7]);
        assert_eq!(s.meters().duplicates_dropped, 1);
        assert_eq!(s.meters().reports_rejected, 1, "rejection not repeated");
    }

    #[test]
    fn watermark_commits_in_time_order_regardless_of_arrival() {
        // `n` samples per report; returns the published estimate, the
        // state fingerprint, and the staging chunks in use before the
        // drain.
        let ingest = |arrival_order: &[u64], n: usize| {
            let mut s = server(CommitPolicy::Watermark(SimDuration::from_hours(100)));
            for &seq in arrival_order {
                let t = SimTime::from_secs(i64::try_from(seq).unwrap() * 60);
                let samples: Vec<f64> = (0..n)
                    .map(|k| 100.0 + 7.0 * (seq as f64) + (k as f64) / 8.0)
                    .collect();
                let frame = home_frame(seq, t, &samples);
                assert_eq!(acked(&mut s, &frame, t), vec![seq]);
            }
            let chunks = s.staging.chunks.len();
            s.drain(SimTime::from_secs(100 * 3600));
            assert_eq!(s.meters().reports_ingested, arrival_order.len() as u64);
            let zone = s.coordinator().index().zone_of(&center());
            let published = s.coordinator().published(zone, NetworkId::NetB).unwrap();
            let fingerprint = state_fingerprint(&s.coordinator().export_state());
            (published, fingerprint, chunks)
        };
        let (a, fa, _) = ingest(&[0, 1, 2, 3, 4], 1);
        let (b, fb, _) = ingest(&[4, 2, 0, 3, 1], 1);
        assert_eq!(a, b, "published estimate independent of arrival order");
        assert_eq!(fa, fb);
        assert_eq!(a.samples, 5);

        // 100 reports of 32 kB each: the staged bytes span four chunks.
        let forward: Vec<u64> = (0..100).collect();
        let shuffled: Vec<u64> = (0..100).map(|i| (i * 37) % 100).collect();
        let (a, fa, chunks_a) = ingest(&forward, 4_000);
        let (b, fb, chunks_b) = ingest(&shuffled, 4_000);
        assert!(
            chunks_a >= 3 && chunks_b >= 3,
            "{chunks_a}, {chunks_b} chunks"
        );
        assert_eq!(a, b, "across chunks too");
        assert_eq!(fa, fb);
    }

    /// Reports past the staging's sizes — more sample bytes than one
    /// chunk, more samples than `u16::MAX`, exactly one chunk — stage
    /// and commit bitwise like the owned reports they were encoded from.
    #[test]
    fn oversize_reports_stage_and_commit_like_owned_reports() {
        let zone = index().zone_of(&center());
        let sizes = [3usize, 70_000, 140_000, 5, 131_072, 2];
        let reports: Vec<SampleReport> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let t = SimTime::from_secs(60 * i64::try_from(i).unwrap());
                let samples: Vec<f64> = (0..n).map(|k| 300.0 + (k % 97) as f64 * 0.5).collect();
                report(zone, 1, t, &samples)
            })
            .collect();
        let mut s = server(CommitPolicy::Watermark(SimDuration::from_hours(100)));
        for (seq, r) in reports.iter().enumerate().rev() {
            let frame = encode(&WireMessage::Report(ReportMsg {
                seq: seq as u64,
                report: r.clone(),
            }));
            s.receive(&frame, r.t);
        }
        assert!(
            s.staging
                .chunks
                .iter()
                .any(|c| c.bytes.len() == 140_000 * 8 && c.bytes.capacity() == c.bytes.len()),
            "the 1.1 MB report has a chunk of its own size"
        );
        let mut owned = Coordinator::new(index(), CoordinatorConfig::default());
        for r in &reports {
            owned.ingest_report(r).unwrap();
        }
        let end = SimTime::from_secs(100 * 3600);
        s.drain(end);
        owned.flush(end);
        assert_eq!(s.meters().reports_ingested, 6);
        assert_eq!(
            state_fingerprint(&s.coordinator().export_state()),
            state_fingerprint(&owned.export_state())
        );
    }

    /// A long stream under a shallow watermark reuses its chunks: the
    /// chunk count follows the bytes staged at one time (a minute of
    /// reports), not the 100,000 reports (16 MB of samples) streamed.
    #[test]
    fn staging_chunks_stay_bounded_under_a_shallow_watermark() {
        let mut s = server(CommitPolicy::Watermark(SimDuration::from_secs(60)));
        let zone = index().zone_of(&center());
        let samples = [250.0; 20];
        let mut peak = 0;
        for i in 0..100_000u64 {
            let t = SimTime::from_secs(i64::try_from(i).unwrap());
            let client = u32::try_from(i % 50).unwrap();
            s.receive(&report_frame(zone, client, i / 50, t, &samples), t);
            peak = peak.max(s.staging.chunks.len());
        }
        assert!(s.staged_len() > 0, "the window still holds reports");
        assert!(peak <= 2, "{peak} chunks for one minute of reports");
        s.drain(SimTime::from_secs(200_000));
        assert_eq!(s.meters().reports_ingested, 100_000);
        assert_eq!(s.staged_len(), 0);
    }

    /// One check-in and report stream over zones spread across the
    /// whole index, every fourth report frame duplicated, into a single
    /// server and into the same server over N shards: reply bytes,
    /// merged state, meters and dedup counts must all match.
    #[test]
    fn sharded_receive_matches_single_bitwise() {
        let idx = index();
        let zones: Vec<ZoneId> = idx.zones().collect();
        for n in [1usize, 2, 4] {
            let mut one = server(CommitPolicy::Immediate);
            let mut many = sharded(n);
            for (seq, (i, &zone)) in zones.iter().enumerate().step_by(3).enumerate() {
                let t = SimTime::from_secs(i64::try_from(i).unwrap() * 30);
                let client = 1 + (i as u32 % 5);
                let checkin = encode(&WireMessage::Checkin(CheckinRequest {
                    client: ClientId(client),
                    tick: i as u64,
                    point: idx.center_of(zone),
                    t,
                }));
                let v = 100.0 + 13.0 * (i as f64);
                let report = report_frame(zone, client, seq as u64, t, &[v]);
                let copies = if i % 4 == 0 { 2 } else { 1 };
                for frame in std::iter::once(&checkin).chain(std::iter::repeat_n(&report, copies)) {
                    assert_eq!(
                        one.receive(frame, t),
                        many.receive(frame, t),
                        "reply frames must match (n={n})"
                    );
                }
            }
            let end = SimTime::from_secs(100_000);
            one.drain(end);
            many.drain(end);
            assert_eq!(
                state_fingerprint(&one.coordinator().export_state()),
                state_fingerprint(&many.coordinator().export_state()),
                "merged state must be bitwise identical (n={n})"
            );
            assert_eq!(one.meters(), many.meters(), "meters (n={n})");
            assert_eq!(one.unique_seqs(), many.unique_seqs());
        }
    }

    /// A quota tuned on a zone that a rebalance then moves lands on
    /// exactly one shard and migrates with it, and a retry of a report
    /// sent before the move is still a duplicate after it.
    #[test]
    fn quota_routes_to_owner_and_survives_rebalance() {
        let mut one = server(CommitPolicy::Immediate);
        let mut many = sharded(2);
        let mv = RebalanceMove::seeded(33, &index(), many.handle_mut().assignment())
            .expect("seeded move exists for 2 shards");
        let zone = mv.lo;
        assert_eq!(many.handle_mut().assignment().shard_of(zone), mv.from);

        one.handle_mut()
            .set_zone_quota_tagged(zone, NetworkId::NetB, 77);
        many.handle_mut()
            .set_zone_quota_tagged(zone, NetworkId::NetB, 77);
        let cells: usize = many
            .handle_mut()
            .shards()
            .iter()
            .map(|c| c.export_state().cells.len())
            .sum();
        assert_eq!(cells, 1, "quota must land on exactly one shard");

        let t = SimTime::from_secs(60);
        let frame = report_frame(zone, 9, 0, t, &[512.0]);
        one.receive(&frame, t);
        many.receive(&frame, t);

        assert_eq!(many.handle_mut().rebalance(&mv), 1, "the quota cell moves");
        assert_eq!(many.handle_mut().assignment().shard_of(zone), mv.to);

        let t2 = SimTime::from_secs(120);
        let frame2 = report_frame(zone, 9, 1, t2, &[498.0]);
        one.receive(&frame2, t2);
        many.receive(&frame2, t2);
        // Retry of seq 0 after the rebalance: still a duplicate.
        many.receive(&frame, t2);
        assert_eq!(many.meters().duplicates_dropped, 1);

        let end = SimTime::from_secs(100_000);
        one.drain(end);
        many.drain(end);
        assert_eq!(
            state_fingerprint(&one.coordinator().export_state()),
            state_fingerprint(&many.coordinator().export_state()),
            "tuned + rebalanced sharded state must match single"
        );
    }

    #[test]
    fn receive_drops_garbage_with_a_meter_not_a_panic() {
        let mut s = server(CommitPolicy::Immediate);
        assert!(s
            .receive(&[0xDE, 0xAD, 0xBE, 0xEF], SimTime::EPOCH)
            .is_empty());
        assert_eq!(s.meters().decode_errors, 1);
        // And a client-bound message arriving at the server is dropped.
        let stray = encode(&WireMessage::Ack(AckMsg {
            client: ClientId(1),
            seqs: vec![1],
        }));
        assert!(s.receive(&stray, SimTime::EPOCH).is_empty());
        assert_eq!(s.meters().decode_errors, 2);
    }

    #[test]
    fn checkin_round_trip_issues_wire_tasks() {
        let mut s = server(CommitPolicy::Immediate);
        // Force issuance: with a fresh zone the coin threshold is 0.1;
        // scan ticks until one coin lands under it.
        let mut issued = Vec::new();
        for tick in 0..200 {
            let req = CheckinRequest {
                client: ClientId(2),
                tick,
                point: center(),
                t: SimTime::from_secs(i64::try_from(tick).unwrap()),
            };
            let frame = encode(&WireMessage::Checkin(req));
            issued.extend(s.receive(&frame, SimTime::EPOCH));
            if !issued.is_empty() {
                break;
            }
        }
        assert!(!issued.is_empty(), "some coin under p within 200 ticks");
        match decode(&issued[0]).unwrap() {
            WireMessage::Task(a) => {
                assert_eq!(a.client, ClientId(2));
                assert_eq!(a.task.n_packets, 20);
            }
            other => panic!("{other:?}"),
        }
        assert!(s.meters().tasks_sent >= 1);
        assert!(s.meters().bytes_sent > 0);
    }
}
