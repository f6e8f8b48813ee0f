//! The two wire workloads: encoded client frames through the channel
//! server into a coordinator, then the published map, the region set and
//! the hotspot list.
//!
//! * `city_clean`: a steady metro over perfect links, committed on
//!   arrival into a bare [`Coordinator`].
//! * `storm_lossy_wal`: clients back from a coverage gap drain full
//!   uplink queues over lossy cellular links into a deep-watermark server
//!   over a [`DurableCoordinator`]; the process then dies without
//!   shutting down and the coordinator is recovered from its log.
//!
//! The untraced pass drives the server through `receive`, as a
//! deployment does. The traced pass drives the same frames through the
//! public pieces `receive` is made of, with a span around each.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use wiscape_channel::codec::{encode, encode_ack_one, FrameReader, WireMessage, WireMessageRef};
use wiscape_channel::{lossy_cellular, perfect_link, ChannelServer, CommitPolicy};
use wiscape_core::{
    state_fingerprint, Coordinator, CoordinatorConfig, CoordinatorHandle, CoordinatorState,
};
use wiscape_region::score_patches;
use wiscape_simcore::{SimDuration, StreamRng};
use wiscape_simnet::NetworkId;
use wiscape_wal::{DurableCoordinator, WalMeters, WalOptions};

use crate::gen::{generate, Kind, Spec, Trace};
use crate::handle::{HandleCounts, Traced};
use crate::probe::{span, Op};
use crate::run::{regions, Bench, PassOut};

/// What the pass needs to know about the handle under the server.
pub trait HandleInfo: CoordinatorHandle {
    /// WAL meters, for durable handles.
    fn wal(&self) -> Option<WalMeters> {
        None
    }
    /// Call counters, for traced handles.
    fn counts(&self) -> Option<HandleCounts> {
        None
    }
}

impl HandleInfo for Coordinator {}

impl HandleInfo for DurableCoordinator {
    fn wal(&self) -> Option<WalMeters> {
        Some(self.wal_meters())
    }
}

impl<C: HandleInfo> HandleInfo for Traced<C> {
    fn wal(&self) -> Option<WalMeters> {
        self.inner.wal()
    }
    fn counts(&self) -> Option<HandleCounts> {
        Some(self.counts)
    }
}

/// A wire workload.
pub struct Wire {
    /// Generator shape.
    pub spec: Spec,
    /// Durable coordinator plus a simulated crash and recovery.
    pub durable: bool,
    /// Where durable passes keep their WAL.
    pub wal_dir: PathBuf,
}

impl Wire {
    /// `city_clean` at full or small size.
    pub fn city(small: bool, wal_dir: PathBuf) -> Self {
        let mut channel = perfect_link();
        channel.commit = CommitPolicy::Immediate;
        Self {
            spec: Spec {
                extent_m: if small { 4_000.0 } else { 20_000.0 },
                clients: if small { 120 } else { 2_000 },
                rounds: if small { 30 } else { 150 },
                drain_rounds: 10,
                interval: SimDuration::from_secs(60),
                checkins_per_report: 3,
                backlog: 0,
                backlog_span: SimDuration::ZERO,
                samples: 20,
                patches: if small { 2 } else { 12 },
                channel,
            },
            durable: false,
            wal_dir,
        }
    }

    /// `storm_lossy_wal` at full or small size.
    pub fn storm(small: bool, wal_dir: PathBuf) -> Self {
        let channel = lossy_cellular(0.1);
        Self {
            spec: Spec {
                extent_m: if small { 4_000.0 } else { 20_000.0 },
                clients: if small { 40 } else { 600 },
                rounds: 24,
                drain_rounds: 200,
                interval: SimDuration::from_secs(60),
                checkins_per_report: 0,
                backlog: channel.uplink.queue_capacity,
                backlog_span: SimDuration::from_hours(2),
                samples: 20,
                patches: if small { 2 } else { 12 },
                channel,
            },
            durable: true,
            wal_dir,
        }
    }
}

/// A generated wire workload and its expected final state.
pub struct WireInput {
    /// The frames.
    pub trace: Trace,
    seed: u64,
}

/// Counters of one pass over the frames.
#[derive(Debug, Default)]
struct WireCounts {
    frames_in: u64,
    bytes_in: u64,
    frames_out: u64,
    bytes_out: u64,
    decode_errors: u64,
    report_acks: u64,
    staged_max: u64,
}

fn drive<C: CoordinatorHandle>(
    server: &mut ChannelServer<C>,
    trace: &Trace,
    traced: bool,
) -> WireCounts {
    let mut w = WireCounts::default();
    if !traced {
        for m in &trace.msgs {
            let replies = server.receive(trace.frame(m), m.at);
            if matches!(m.kind, Kind::Report { .. }) {
                w.report_acks += replies.len() as u64;
            }
            black_box(replies);
        }
        // Nothing commits before drain under a deep watermark, so the
        // staging buffer peaks here.
        w.staged_max = server.staged_len() as u64;
        server.drain(trace.end);
        return w;
    }
    for m in &trace.msgs {
        let bytes = trace.frame(m);
        w.bytes_in += bytes.len() as u64;
        let mut reader = FrameReader::new(bytes);
        loop {
            let item = {
                let _s = span(Op::CodecDecode);
                reader.next_frame()
            };
            match item {
                None => break,
                Some(Err(_)) => {
                    w.decode_errors += 1;
                    break;
                }
                Some(Ok(WireMessageRef::Checkin(req))) => {
                    w.frames_in += 1;
                    let tasks = {
                        let _s = span(Op::ServerCheckin);
                        server.handle_checkin(&req)
                    };
                    for task in tasks {
                        let frame = {
                            let _s = span(Op::CodecEncode);
                            encode(&WireMessage::Task(task))
                        };
                        w.frames_out += 1;
                        w.bytes_out += frame.len() as u64;
                        black_box(frame);
                    }
                }
                Some(Ok(WireMessageRef::Report(view))) => {
                    w.frames_in += 1;
                    {
                        let _s = span(Op::ServerReport);
                        server.handle_report_view(&view, m.at);
                    }
                    let frame = {
                        let _s = span(Op::CodecEncode);
                        encode_ack_one(view.client, view.seq)
                    };
                    w.report_acks += 1;
                    w.frames_out += 1;
                    w.bytes_out += frame.len() as u64;
                    black_box(frame);
                    w.staged_max = w.staged_max.max(server.staged_len() as u64);
                }
                Some(Ok(_)) => {
                    w.frames_in += 1;
                    w.decode_errors += 1;
                }
            }
        }
    }
    let _s = span(Op::ServerDrain);
    server.drain(trace.end);
    w
}

/// Fingerprint of a plain coordinator fed the delivered check-ins and
/// reports directly, in the order the server commits them.
fn reference(input: &WireInput, watermark: bool) -> String {
    let trace = &input.trace;
    let mut c = Coordinator::new(trace.index.clone(), CoordinatorConfig::default());
    let coins = server_stream(input.seed).fork("coin");
    let mut reports = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for m in &trace.msgs {
        match m.kind {
            Kind::Checkin(i) => {
                let req = &trace.checkins[i as usize];
                let coin = coins
                    .fork_idx(req.tick)
                    .fork_idx(u64::from(req.client.0))
                    .draw_unit_f64();
                c.client_checkin(req.client, &req.point, req.t, &NetworkId::ALL, coin);
            }
            Kind::Report { client, seq } if !watermark && seen.insert((client, seq)) => {
                let _ = c.ingest_report(&trace.reports[client as usize][seq as usize]);
            }
            Kind::Report { .. } => {}
        }
    }
    if watermark {
        // A deep watermark commits every distinct report at drain, in
        // (t, client, seq) order.
        for &(client, seq) in &trace.delivered {
            let r = &trace.reports[client as usize][seq as usize];
            reports.push((r.t, client, seq));
        }
        reports.sort_unstable();
        for (_, client, seq) in reports {
            let _ = c.ingest_report(&trace.reports[client as usize][seq as usize]);
        }
    }
    c.flush(trace.end);
    state_fingerprint(&c.export_state())
}

fn server_stream(seed: u64) -> StreamRng {
    StreamRng::new(seed).fork("deployment")
}

fn fail(failures: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        failures.push(what());
    }
}

impl Wire {
    fn server<C: CoordinatorHandle>(&self, handle: C, seed: u64) -> ChannelServer<C> {
        ChannelServer::new(
            handle,
            self.spec.channel.commit,
            server_stream(seed),
            NetworkId::ALL.to_vec(),
        )
    }

    fn fresh_durable(&self, input: &WireInput) -> DurableCoordinator {
        DurableCoordinator::create(
            &self.wal_dir,
            input.trace.index.clone(),
            CoordinatorConfig::default(),
            WalOptions::default(),
        )
        .expect("WAL directory is writable")
    }

    fn run_pass<C: HandleInfo>(
        &self,
        input: &WireInput,
        mut server: ChannelServer<C>,
        traced: bool,
        check: bool,
    ) -> PassOut {
        let trace = &input.trace;
        let t0 = Instant::now();
        let w = drive(&mut server, trace, traced);
        let ingest_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let coordinator = server.coordinator();
        let state = {
            let _s = span(Op::CoordExport);
            coordinator.export_state()
        };
        let published = {
            let _s = span(Op::CoordPublished);
            coordinator.all_published()
        };
        let read = regions(&state, &trace.index);
        let publish_s = t1.elapsed().as_secs_f64();

        let mut out = PassOut {
            ingest_s,
            publish_s,
            msgs: trace.msgs.len() as u64,
            ..PassOut::default()
        };
        let f = &mut out.failures;
        let meters = server.meters();
        let unique = server.unique_seqs();
        let st = &trace.stats;
        fail(f, w.report_acks == st.report_copies, || {
            format!(
                "{} of {} report copies acked",
                w.report_acks, st.report_copies
            )
        });
        fail(f, w.decode_errors + meters.decode_errors == 0, || {
            "decode errors on well-formed frames".into()
        });
        fail(
            f,
            meters.reports_ingested + meters.reports_rejected == unique,
            || {
                format!(
                    "ingested {} + rejected {} != unique sequences {unique}",
                    meters.reports_ingested, meters.reports_rejected
                )
            },
        );
        fail(f, unique == trace.delivered.len() as u64, || {
            format!(
                "{unique} distinct reports folded, {} delivered",
                trace.delivered.len()
            )
        });
        fail(
            f,
            st.generated_reports <= st.unique_reports + st.uplink.abandoned,
            || "a generated report was neither delivered nor abandoned".into(),
        );
        fail(f, st.pending_at_end == 0, || {
            format!("{} reports still queued at the end", st.pending_at_end)
        });
        let live = check.then(|| state_fingerprint(&state));
        if let Some(live) = &live {
            fail(f, *live == reference(input, self.durable), || {
                "final state differs from a plain coordinator fed the same input".into()
            });
        }
        let wal = server.handle_mut().wal();
        let counts = server.handle_mut().counts();

        let mut recover_s = 0.0;
        let mut recovered = None;
        let mut log_bytes = 0u64;
        if self.durable {
            // Process death: the server goes away without `shutdown`.
            drop(server);
            log_bytes = wal_log_bytes(&self.wal_dir);
            let t2 = Instant::now();
            let rec = {
                let _s = span(Op::WalRecover);
                DurableCoordinator::recover(
                    &self.wal_dir,
                    trace.index.clone(),
                    CoordinatorConfig::default(),
                    WalOptions::default(),
                )
            };
            recover_s = t2.elapsed().as_secs_f64();
            match rec {
                Ok((rec, report)) => {
                    if let Some(live) = &live {
                        let same =
                            state_fingerprint(&rec.coordinator_ref().export_state()) == *live;
                        fail(&mut out.failures, same, || {
                            "recovered state differs from the live state".into()
                        });
                    }
                    recovered = Some(report);
                }
                Err(e) => out.failures.push(format!("recovery failed: {e}")),
            }
        }
        out.recover_s = recover_s;
        out.wall_s = ingest_s + publish_s + recover_s;

        {
            let c = counts.unwrap_or_default();
            let truth = trace.field.truth();
            let mut put = |k: &str, v: f64| out.counts.push((k.to_string(), v));
            put("codec.frames_in", w.frames_in as f64);
            put("codec.bytes_in", w.bytes_in as f64);
            put("codec.frames_out", w.frames_out as f64);
            put("codec.bytes_out", w.bytes_out as f64);
            put("codec.decode_errors", w.decode_errors as f64);
            put("server.copies_in", st.report_copies as f64);
            put("server.duplicates", meters.duplicates_dropped as f64);
            let useful = unique as f64 / st.report_copies.max(1) as f64;
            put("server.useful_ratio", useful);
            put("server.staged_max", w.staged_max as f64);
            put("server.dedup_entries", unique as f64);
            put("coordinator.tasks_issued", c.tasks as f64);
            put("coordinator.reports_folded", c.folded as f64);
            put("coordinator.samples_folded", c.samples as f64);
            put("coordinator.reports_rejected", c.rejected as f64);
            put("coordinator.cells", state.cells.len() as f64);
            put("coordinator.sketch_bytes", coordinator_bytes(&state) as f64);
            put("region.regions", read.regions as f64);
            put("region.hotspots", read.hotspots.len() as f64);
            put(
                "region.hotspot_recall",
                score_patches(&read.hotspots, &truth).recall,
            );
            put("link.dropped", st.link.frames_dropped as f64);
            put("link.duplicated", st.link.frames_duplicated as f64);
            put("uplink.retries", st.uplink.retries as f64);
            put("uplink.abandoned", st.uplink.abandoned as f64);
            if let Some(m) = wal {
                put("wal.snapshots", m.snapshots as f64);
                put("wal.records", m.records as f64);
                put("wal.bytes_appended", m.bytes_appended as f64);
                put(
                    "wal.bytes_per_record",
                    m.bytes_appended as f64 / m.records.max(1) as f64,
                );
                put("wal.append_errors", m.append_errors as f64);
                put("wal.log_bytes", log_bytes as f64);
            }
            if let Some(r) = recovered {
                put("wal.snapshot_records", r.snapshot_records as f64);
                put("wal.replayed_records", r.replayed as f64);
            }
        }
        black_box(published);
        out
    }
}

/// Fixed per-cell bytes of the exported state (the coordinator's
/// `sketch_bytes` accounting).
fn coordinator_bytes(state: &CoordinatorState) -> usize {
    state.cells.len() * Coordinator::per_zone_state_bytes()
}

/// Bytes of every log segment under `dir`.
fn wal_log_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Bench for Wire {
    type Input = WireInput;

    fn setup(&self, seed: u64) -> WireInput {
        let trace = generate(&self.spec, seed);
        let input = WireInput { trace, seed };
        // Build (and discard) the server the passes build fresh, so the
        // index, server and WAL directory are part of set-up.
        if self.durable {
            black_box(self.server(self.fresh_durable(&input), seed));
        } else {
            let c = Coordinator::new(input.trace.index.clone(), CoordinatorConfig::default());
            black_box(self.server(c, seed));
        }
        input
    }

    fn pass(&self, input: &WireInput, traced: bool, check: bool) -> PassOut {
        let index = input.trace.index.clone();
        match (self.durable, traced) {
            (false, false) => {
                let c = Coordinator::new(index, CoordinatorConfig::default());
                self.run_pass(input, self.server(c, input.seed), false, check)
            }
            (false, true) => {
                let c = Traced::new(Coordinator::new(index, CoordinatorConfig::default()), None);
                self.run_pass(input, self.server(c, input.seed), true, check)
            }
            (true, false) => {
                let d = self.fresh_durable(input);
                self.run_pass(input, self.server(d, input.seed), false, check)
            }
            (true, true) => {
                let shadow = Coordinator::new(index, CoordinatorConfig::default());
                let d = Traced::new(self.fresh_durable(input), Some(shadow));
                self.run_pass(input, self.server(d, input.seed), true, check)
            }
        }
    }

    fn describe(&self, input: &WireInput) -> Vec<(&'static str, String)> {
        let t = &input.trace;
        let st = &t.stats;
        let copies = st.report_copies.max(1) as f64;
        let mut out = vec![
            ("zones", t.index.zone_count().to_string()),
            ("networks", NetworkId::ALL.len().to_string()),
            ("clients", self.spec.clients.to_string()),
            ("rounds", st.rounds.to_string()),
            ("messages", t.msgs.len().to_string()),
            ("trace_bytes", t.byte_len().to_string()),
            ("checkins", st.checkin_copies.to_string()),
            ("report_copies", st.report_copies.to_string()),
            ("unique_reports", st.unique_reports.to_string()),
            (
                "checkins_per_report_copy",
                format!("{:.3}", st.checkin_copies as f64 / copies),
            ),
            (
                "duplicate_share",
                format!(
                    "{:.4}",
                    (st.report_copies - st.unique_reports) as f64 / copies
                ),
            ),
            (
                "reorder_share",
                format!("{:.4}", st.reordered_copies as f64 / copies),
            ),
            ("generated_reports", st.generated_reports.to_string()),
            ("abandoned", st.uplink.abandoned.to_string()),
            ("planted_patches", t.field.patches().to_string()),
            ("trace_digest", t.digest()),
        ];
        if self.durable {
            out.push(("wal_fs", crate::sys::fs_type(&self.wal_dir)));
        }
        out
    }
}
