//! Group commit through the channel server.
//!
//! 1. **Write before ack, under `CommitPolicy::Immediate`.** Every
//!    report a server has acked is in the log when the process dies,
//!    even without `shutdown`: `receive` commits the handle's group
//!    before its replies leave, for a single durable coordinator and
//!    for a sharded set of them.
//! 2. **Ack before write, under `CommitPolicy::Watermark`.** `receive`
//!    acks a report when it is staged, but its record is written only
//!    when the watermark commits it. With a settle window longer than
//!    the run, as in every shipped watermark configuration, that is at
//!    `drain`: a death before it loses every acked report.
//! 3. **One write per group.** A run of hot ingest records between two
//!    non-hot boundaries costs one `write(2)` per full group, not one
//!    per record.

use std::path::{Path, PathBuf};

use wiscape_channel::codec::{decode, encode, ReportMsg, WireMessage};
use wiscape_channel::{ChannelServer, CommitPolicy};
use wiscape_core::{
    merge_states, state_fingerprint, Coordinator, CoordinatorConfig, CoordinatorHandle,
    CoordinatorState, MeasurementTask, SampleReport, ShardAssignment, ShardSet, ZoneIndex,
};
use wiscape_geo::GeoPoint;
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::{NetworkId, TransportKind};
use wiscape_wal::{DurableCoordinator, WalOptions, GROUP_BYTES};

fn index() -> ZoneIndex {
    let center = GeoPoint::new(43.0731, -89.4012).unwrap();
    ZoneIndex::around(center, 5000.0).unwrap()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wiscape-wal-group-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> DurableCoordinator {
    DurableCoordinator::create(
        dir,
        index(),
        CoordinatorConfig::default(),
        WalOptions::default(),
    )
    .unwrap()
}

fn recovered(dir: &Path) -> DurableCoordinator {
    DurableCoordinator::recover(
        dir,
        index(),
        CoordinatorConfig::default(),
        WalOptions::default(),
    )
    .unwrap()
    .0
}

fn recovered_state(dir: &Path) -> CoordinatorState {
    recovered(dir).coordinator_ref().export_state()
}

/// 60 reports (seq = position) over zones spread across the index, all
/// inside one epoch, so folding them raises no alert.
fn reports() -> Vec<SampleReport> {
    let zones: Vec<_> = index().zones().collect();
    (0..60u32)
        .map(|i| {
            let zone = zones[(i as usize * 7919) % zones.len()];
            SampleReport {
                client: ClientId(1 + i % 4),
                task: MeasurementTask {
                    zone,
                    network: NetworkId::NetB,
                    kind: TransportKind::Udp,
                    n_packets: 3,
                    packet_bytes: 100,
                },
                zone,
                t: SimTime::from_secs(i64::from(i)),
                samples: vec![400.0 + f64::from(i), 380.5, 412.25],
            }
        })
        .collect()
}

/// Sends the reports three to a transmission and returns the ones the
/// replies acked.
fn deliver<C: CoordinatorHandle>(
    server: &mut ChannelServer<C>,
    reports: &[SampleReport],
) -> Vec<SampleReport> {
    let mut acked = Vec::new();
    for (k, batch) in reports.chunks(3).enumerate() {
        let mut transmission = Vec::new();
        for (j, r) in batch.iter().enumerate() {
            transmission.extend(encode(&WireMessage::Report(ReportMsg {
                seq: (k * 3 + j) as u64,
                report: r.clone(),
            })));
        }
        let now = batch[0].t;
        for reply in server.receive(&transmission, now) {
            let WireMessage::Ack(ack) = decode(&reply).unwrap() else {
                panic!("a report transmission is answered with acks");
            };
            acked.extend(ack.seqs.iter().map(|&seq| reports[seq as usize].clone()));
        }
    }
    acked
}

fn server<C: CoordinatorHandle>(handle: C) -> ChannelServer<C> {
    server_with(handle, CommitPolicy::Immediate)
}

fn server_with<C: CoordinatorHandle>(handle: C, policy: CommitPolicy) -> ChannelServer<C> {
    ChannelServer::new(
        handle,
        policy,
        StreamRng::new(5).fork("deployment"),
        vec![NetworkId::NetB],
    )
}

/// A plain coordinator fed exactly the acked reports.
fn acked_state(acked: &[SampleReport]) -> CoordinatorState {
    let mut c = Coordinator::new(index(), CoordinatorConfig::default());
    for r in acked {
        c.ingest_report(r).unwrap();
    }
    assert!(c.alerts().is_empty());
    c.export_state()
}

#[test]
fn acked_reports_survive_a_drop_without_shutdown() {
    let dir = fresh_dir("one");
    let mut s = server(durable(&dir));
    let acked = deliver(&mut s, &reports());
    assert_eq!(acked.len(), 60);
    // Process death: no drain, no shutdown.
    drop(s);
    assert_eq!(
        state_fingerprint(&recovered_state(&dir)),
        state_fingerprint(&acked_state(&acked)),
        "every acked report must be in the log"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acked_reports_survive_a_drop_without_shutdown_sharded() {
    let dirs = [fresh_dir("shard0"), fresh_dir("shard1")];
    let set = ShardSet::from_handles(
        dirs.iter().map(|d| durable(d)).collect(),
        ShardAssignment::even(&index(), 2),
        index(),
        CoordinatorConfig::default(),
    );
    let mut s = server(set);
    let acked = deliver(&mut s, &reports());
    assert!(s
        .handle_mut()
        .shards()
        .iter()
        .all(|d| d.coordinator_ref().zones_tracked() > 0));
    drop(s);
    let shards: Vec<DurableCoordinator> = dirs.iter().map(|d| recovered(d)).collect();
    let coordinators: Vec<&Coordinator> = shards.iter().map(|d| d.coordinator_ref()).collect();
    let merged = merge_states(&coordinators, Vec::new());
    assert_eq!(
        state_fingerprint(&merged),
        state_fingerprint(&acked_state(&acked)),
        "every acked report must be in its shard's log"
    );
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn watermark_reports_reach_the_log_at_drain_not_at_ack() {
    let policy = CommitPolicy::Watermark(SimDuration::from_hours(24 * 365));
    let end = SimTime::from_secs(3600);
    let dir = fresh_dir("watermark");
    let mut s = server_with(durable(&dir), policy);
    let acked = deliver(&mut s, &reports());
    assert_eq!(acked.len(), 60);
    assert_eq!(s.staged_len(), 60);
    // Process death before the drain: every acked report was staged
    // only, so the log holds none of them.
    drop(s);
    assert_eq!(recovered_state(&dir).cells.len(), 0);

    let mut s = server_with(durable(&dir), policy);
    let acked = deliver(&mut s, &reports());
    s.drain(end);
    drop(s);
    let mut plain = Coordinator::new(index(), CoordinatorConfig::default());
    for r in &acked {
        plain.ingest_report(r).unwrap();
    }
    plain.flush(end);
    assert_eq!(
        state_fingerprint(&recovered_state(&dir)),
        state_fingerprint(&plain.export_state()),
        "the drain logs every staged report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_appends_issue_one_write_per_full_group() {
    let dir = fresh_dir("writes");
    let mut d = durable(&dir);
    let zone = index().zones().next().unwrap();
    d.flush_tagged(SimTime::EPOCH);
    let before = d.wal_meters();
    let samples: Vec<f64> = (0..20).map(|k| 500.0 + f64::from(k)).collect();
    for seq in 0..10_000u64 {
        let t = SimTime::from_secs(i64::try_from(seq).unwrap());
        d.ingest_samples_tagged(
            ClientId(1),
            seq,
            zone,
            NetworkId::NetA,
            t,
            samples.iter().copied(),
        )
        .unwrap();
    }
    d.flush_tagged(SimTime::from_secs(10_000));
    let after = d.wal_meters();
    assert_eq!(after.records - before.records, 10_001, "ingests + flush");
    let bytes = after.bytes_appended - before.bytes_appended;
    let writes = after.group_writes - before.group_writes;
    let bound = bytes.div_ceil(GROUP_BYTES as u64) + 1;
    assert!(
        writes <= bound,
        "{writes} writes for {bytes} bytes (bound {bound})"
    );
    assert_eq!(after.append_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
