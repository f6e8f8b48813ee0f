//! Open-loop load generation for the wire workloads.
//!
//! Clients check in on a fixed virtual-time schedule and push reports
//! through the repository's own [`Uplink`] and [`LossyLink`]. The server
//! side is modelled only as far as the channel contract fixes it: every
//! delivered report copy is acked through the client's downlink, which
//! is what retires (or, when the ack is lost, retries) the report. The
//! result is a time-ordered list of server-bound frames with their
//! arrival instants, independent of how fast the server later runs.

use std::collections::{BTreeMap, BTreeSet};

use wiscape_channel::codec::{
    decode_ref, encode, encode_ack_one, CheckinRequest, WireMessage, WireMessageRef,
};
use wiscape_channel::{ChannelConfig, LinkMeters, LossyLink, Uplink, UplinkMeters};
use wiscape_core::{MeasurementTask, SampleReport, ZoneId, ZoneIndex};
use wiscape_geo::{CellId, GeoPoint};
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::{NetworkId, TransportKind};

use crate::field::{Draws, Field};
use crate::probe::{span, Op};
use crate::sha256::Sha256;

/// Shape of a generated wire workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Half-extent of the zone index around the origin, metres.
    pub extent_m: f64,
    /// Clients in the fleet.
    pub clients: u32,
    /// Rounds in which every client checks in.
    pub rounds: u32,
    /// Extra rounds (no check-ins) allowed for retries to drain.
    pub drain_rounds: u32,
    /// Virtual time between rounds.
    pub interval: SimDuration,
    /// A client starts a new report on one check-in in this many, on
    /// average (0: no new reports).
    pub checkins_per_report: u64,
    /// Reports already queued in each client's uplink before round one.
    pub backlog: usize,
    /// Virtual span over which the backlog was measured.
    pub backlog_span: SimDuration,
    /// Samples per report.
    pub samples: usize,
    /// Planted chronic patches in the field.
    pub patches: usize,
    /// Links, uplink policy and commit policy.
    pub channel: ChannelConfig,
}

/// What a server-bound frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A check-in; the index into [`Trace::checkins`].
    Checkin(u32),
    /// A copy of report `seq` of `client`.
    Report {
        /// Sending client.
        client: u32,
        /// Uplink sequence number.
        seq: u64,
    },
}

/// One server-bound frame as it arrives.
#[derive(Debug, Clone, Copy)]
pub struct Msg {
    /// Arrival instant.
    pub at: SimTime,
    off: u32,
    len: u32,
    /// What the frame carries.
    pub kind: Kind,
}

/// Counters of the generator run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    /// Check-in copies delivered to the server.
    pub checkin_copies: u64,
    /// Report copies delivered to the server.
    pub report_copies: u64,
    /// Distinct reports delivered.
    pub unique_reports: u64,
    /// Report copies that arrived after a higher sequence of their client.
    pub reordered_copies: u64,
    /// Reports queued by clients.
    pub generated_reports: u64,
    /// Link counters summed over all directions and clients.
    pub link: LinkMeters,
    /// Uplink counters summed over clients.
    pub uplink: UplinkMeters,
    /// Rounds simulated.
    pub rounds: u32,
    /// Clients still holding reports when the simulation stopped.
    pub pending_at_end: u64,
}

/// A generated workload: the frames, and what they mean.
pub struct Trace {
    /// The zone index the clients move over.
    pub index: ZoneIndex,
    /// The field the samples came from.
    pub field: Field,
    bytes: Vec<u8>,
    /// Server-bound frames in arrival order.
    pub msgs: Vec<Msg>,
    /// Every check-in a client sent, by [`Kind::Checkin`] index.
    pub checkins: Vec<CheckinRequest>,
    /// Every report a client queued, by client then sequence number.
    pub reports: Vec<Vec<SampleReport>>,
    /// Distinct `(client, seq)` reports delivered at least once.
    pub delivered: BTreeSet<(u32, u64)>,
    /// Drain/flush instant (one interval after the last round).
    pub end: SimTime,
    /// Generator counters.
    pub stats: GenStats,
}

impl Trace {
    /// The bytes of `msg`.
    pub fn frame(&self, msg: &Msg) -> &[u8] {
        &self.bytes[msg.off as usize..(msg.off + msg.len) as usize]
    }

    /// Total server-bound bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// SHA-256 over every frame and its arrival instant, in order.
    pub fn digest(&self) -> String {
        let mut h = Sha256::default();
        for m in &self.msgs {
            h.update(&m.at.as_micros().to_le_bytes());
            h.update(self.frame(m));
        }
        h.hex()
    }

    fn record(&mut self, at: SimTime, frame: &[u8], kind: Kind) {
        let off = u32::try_from(self.bytes.len()).expect("trace under 4 GiB");
        self.bytes.extend_from_slice(frame);
        self.msgs.push(Msg {
            at,
            off,
            len: frame.len() as u32,
            kind,
        });
    }
}

/// The benchmark's map origin (Madison, WI, the paper's home city).
pub fn origin() -> GeoPoint {
    GeoPoint::new(43.0731, -89.4012).expect("valid origin")
}

struct Client {
    col: i32,
    row: i32,
    uplink: Uplink,
    up: LossyLink,
    down: LossyLink,
    report: LossyLink,
    max_seq: Option<u64>,
}

enum Event {
    ToServer(u32, Vec<u8>, Kind),
    ToClient(u32, Vec<u8>),
}

struct Sim<'a> {
    spec: &'a Spec,
    trace: Trace,
    clients: Vec<Client>,
    events: BTreeMap<(SimTime, u64), Event>,
    event_seq: u64,
    draws: Draws,
}

impl Sim<'_> {
    fn step(&mut self, c: usize) {
        let (cols, rows) = (
            self.trace.index.grid().cols(),
            self.trace.index.grid().rows(),
        );
        let cl = &mut self.clients[c];
        if self.draws.below(4) == 0 {
            cl.col = (cl.col + self.draws.below(3) as i32 - 1).clamp(0, cols - 1);
            cl.row = (cl.row + self.draws.below(3) as i32 - 1).clamp(0, rows - 1);
        }
    }

    fn zone(&self, c: usize) -> ZoneId {
        ZoneId(CellId::new(self.clients[c].col, self.clients[c].row))
    }

    fn new_report(&mut self, c: usize, t: SimTime) {
        let zone = self.zone(c);
        let network = NetworkId::ALL[self.draws.below(3) as usize];
        let mut samples = Vec::with_capacity(self.spec.samples);
        self.trace.field.sample_into(
            zone,
            network,
            self.spec.samples,
            &mut self.draws,
            &mut samples,
        );
        let report = SampleReport {
            client: ClientId(c as u32),
            task: MeasurementTask {
                zone,
                network,
                kind: TransportKind::Udp,
                n_packets: self.spec.samples as u32,
                packet_bytes: 1200,
            },
            zone,
            t,
            samples,
        };
        if self.clients[c].uplink.enqueue(report.clone(), t) {
            self.trace.reports[c].push(report);
        }
    }

    fn send(&mut self, c: usize, frame: Vec<u8>, now: SimTime, kind: Kind) {
        let cl = &mut self.clients[c];
        let link = match kind {
            Kind::Checkin(_) => &mut cl.up,
            Kind::Report { .. } => &mut cl.report,
        };
        let deliveries = {
            let _s = span(Op::LinkSend);
            link.send(frame, now, 0.0)
        };
        for d in deliveries {
            if d.at <= now {
                self.deliver_to_server(now, c as u32, &d.frame, kind);
            } else {
                self.push(d.at, Event::ToServer(c as u32, d.frame, kind));
            }
        }
    }

    fn push(&mut self, at: SimTime, event: Event) {
        self.events.insert((at, self.event_seq), event);
        self.event_seq += 1;
    }

    fn deliver_to_server(&mut self, at: SimTime, client: u32, frame: &[u8], kind: Kind) {
        self.trace.record(at, frame, kind);
        let Kind::Report { seq, .. } = kind else {
            self.trace.stats.checkin_copies += 1;
            return;
        };
        let stats = &mut self.trace.stats;
        stats.report_copies += 1;
        if self.trace.delivered.insert((client, seq)) {
            stats.unique_reports += 1;
        }
        let cl = &mut self.clients[client as usize];
        if cl.max_seq.is_some_and(|m| seq < m) {
            stats.reordered_copies += 1;
        }
        cl.max_seq = cl.max_seq.max(Some(seq));
        // The server acks every report copy it decodes.
        let ack = encode_ack_one(ClientId(client), seq);
        let deliveries = {
            let _s = span(Op::LinkSend);
            cl.down.send(ack, at, 0.0)
        };
        for d in deliveries {
            if d.at <= at {
                self.deliver_to_client(client, &d.frame);
            } else {
                self.push(d.at, Event::ToClient(client, d.frame));
            }
        }
    }

    fn deliver_to_client(&mut self, client: u32, frame: &[u8]) {
        if let Ok(WireMessageRef::Ack(ack)) = decode_ref(frame) {
            self.clients[client as usize].uplink.handle_ack_view(&ack);
        }
    }

    fn deliver_due(&mut self, now: SimTime) {
        while let Some(entry) = self.events.first_entry() {
            if entry.key().0 > now {
                return;
            }
            let ((at, _), event) = entry.remove_entry();
            match event {
                Event::ToServer(c, frame, kind) => self.deliver_to_server(at, c, &frame, kind),
                Event::ToClient(c, frame) => self.deliver_to_client(c, &frame),
            }
        }
    }

    fn transmit_due(&mut self, c: usize, now: SimTime) {
        let frames = {
            let _s = span(Op::UplinkDue);
            self.clients[c].uplink.due_frames(now)
        };
        for frame in frames {
            let Ok(WireMessageRef::Report(view)) = decode_ref(&frame) else {
                continue;
            };
            let kind = Kind::Report {
                client: c as u32,
                seq: view.seq,
            };
            self.send(c, frame, now, kind);
        }
    }
}

/// Generates the workload described by `spec` from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Trace {
    let root = StreamRng::new(seed).fork("pipebench");
    let index = ZoneIndex::around(origin(), spec.extent_m).expect("valid zone index");
    let field = Field::new(&index, spec.patches, root.fork("field"));
    let (cols, rows) = (index.grid().cols(), index.grid().rows());
    let mut draws = Draws::new(root.fork("clients"));
    let channel = root.fork("channel");
    let clients: Vec<Client> = (0..spec.clients)
        .map(|i| {
            let per = channel.fork_idx(u64::from(i));
            Client {
                col: draws.below(cols as u64) as i32,
                row: draws.below(rows as u64) as i32,
                uplink: Uplink::new(ClientId(i), spec.channel.uplink.clone(), per.fork("uplink")),
                up: LossyLink::new(spec.channel.uplink_link.clone(), per.fork("up")),
                down: LossyLink::new(spec.channel.downlink_link.clone(), per.fork("down")),
                report: LossyLink::new(spec.channel.report_link.clone(), per.fork("report")),
                max_seq: None,
            }
        })
        .collect();
    let n = clients.len();
    let mut sim = Sim {
        spec,
        trace: Trace {
            index,
            field,
            bytes: Vec::new(),
            msgs: Vec::new(),
            checkins: Vec::new(),
            reports: vec![Vec::new(); n],
            delivered: BTreeSet::new(),
            end: SimTime::EPOCH,
            stats: GenStats::default(),
        },
        clients,
        events: BTreeMap::new(),
        event_seq: 0,
        draws,
    };

    let start = SimTime::at(1, 8.0);
    // The backlog a coverage gap left in every client's queue.
    if spec.backlog > 0 {
        let step = spec.backlog_span.as_micros() / spec.backlog as i64;
        for c in 0..n {
            for k in 0..spec.backlog {
                sim.step(c);
                let jitter = sim.draws.below(step.max(1) as u64) as i64;
                let t = SimTime::from_micros(
                    start.as_micros() - spec.backlog_span.as_micros() + k as i64 * step + jitter,
                );
                sim.new_report(c, t);
            }
        }
    }

    let mut now = start;
    let mut round = 0u32;
    loop {
        let main = round < spec.rounds;
        let idle = sim.events.is_empty() && sim.clients.iter().all(|c| c.uplink.pending_len() == 0);
        if (!main && idle) || round >= spec.rounds + spec.drain_rounds {
            break;
        }
        sim.deliver_due(now);
        for c in 0..n {
            if main {
                sim.step(c);
                let req = CheckinRequest {
                    client: ClientId(c as u32),
                    tick: u64::from(round) + 1,
                    point: sim.trace.index.center_of(sim.zone(c)),
                    t: now,
                };
                let idx = sim.trace.checkins.len() as u32;
                let frame = encode(&WireMessage::Checkin(req.clone()));
                sim.trace.checkins.push(req);
                sim.send(c, frame, now, Kind::Checkin(idx));
                if spec.checkins_per_report > 0 && sim.draws.below(spec.checkins_per_report) == 0 {
                    sim.new_report(c, now);
                }
            }
            sim.transmit_due(c, now);
        }
        now = now + spec.interval;
        round += 1;
    }

    let mut trace = sim.trace;
    trace.end = now;
    let stats = &mut trace.stats;
    stats.rounds = round;
    for cl in &sim.clients {
        for m in [cl.up.meters(), cl.down.meters(), cl.report.meters()] {
            stats.link.frames_sent += m.frames_sent;
            stats.link.frames_dropped += m.frames_dropped;
            stats.link.frames_duplicated += m.frames_duplicated;
            stats.link.frames_delivered += m.frames_delivered;
        }
        let u = cl.uplink.meters();
        stats.uplink.enqueued += u.enqueued;
        stats.uplink.overflow_dropped += u.overflow_dropped;
        stats.uplink.transmissions += u.transmissions;
        stats.uplink.retries += u.retries;
        stats.uplink.acked += u.acked;
        stats.uplink.abandoned += u.abandoned;
        stats.pending_at_end += cl.uplink.pending_len() as u64;
    }
    stats.generated_reports = stats.uplink.enqueued;
    trace
}
