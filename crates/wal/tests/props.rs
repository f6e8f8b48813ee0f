//! Property tests for the WAL subsystem.
//!
//! The contracts under test:
//!
//! 1. **Crash transparency.** For any operation stream and any crash
//!    seed, a durable coordinator that crashes and recovers mid-run
//!    finishes with fold state *bitwise identical* to an uninterrupted
//!    bare coordinator fed the same stream — and its own recovery
//!    proof (`recovery_mismatches`) stays zero.
//! 2. **Recovery closure.** Recovering from the directory a finished
//!    run left behind reproduces that run's final state exactly.
//! 3. **Totality.** Arbitrary bytes fed to the record, snapshot, and
//!    log-scan decoders produce typed errors, never panics; corrupting
//!    a committed non-final segment is always detected.
//! 4. **No snapshot fallback.** A damaged named snapshot or manifest is
//!    a typed recovery error, though older snapshots and the whole log
//!    are still on disk.

use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use wiscape_channel::codec::DecodeError;
use wiscape_core::{Coordinator, CoordinatorConfig, CoordinatorHandle, ZoneId, ZoneIndex};
use wiscape_geo::{CellId, GeoPoint};
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::NetworkId;
use wiscape_wal::snapshot::{manifest_path, snapshot_path, write_manifest};
use wiscape_wal::{
    decode_record_view, decode_state, encode_state, read_manifest, scan_views, CrashPlan,
    DurableCoordinator, WalError, WalOptions, WalWriter, NO_WAL,
};

#[derive(Debug, Clone)]
enum Op {
    Checkin {
        client: u32,
        lat: f64,
        lon: f64,
        nets: u8,
        coin: f64,
    },
    Ingest {
        client: u32,
        seq: u64,
        col: i32,
        row: i32,
        net: u8,
        samples: Vec<f64>,
    },
    SetQuota {
        col: i32,
        row: i32,
        net: u8,
        quota: u32,
    },
    SetEpoch {
        col: i32,
        row: i32,
        net: u8,
        mins: u32,
    },
    Flush,
    /// A zone-range handoff: take every cell up to `(col, row)` out of
    /// the coordinator and install it back — the WAL sees a
    /// `MigrateOut`/`MigrateIn` pair, exactly what one side of a shard
    /// rebalance appends, while the fold state is unchanged.
    Migrate {
        col: i32,
        row: i32,
    },
}

fn net_of(pick: u8) -> NetworkId {
    match pick % 3 {
        0 => NetworkId::NetA,
        1 => NetworkId::NetB,
        _ => NetworkId::NetC,
    }
}

fn net_subset(bits: u8) -> Vec<NetworkId> {
    let mut nets = Vec::new();
    for (i, n) in NetworkId::ALL.iter().enumerate() {
        if bits & (1 << i) != 0 {
            nets.push(*n);
        }
    }
    if nets.is_empty() {
        nets.push(NetworkId::NetA);
    }
    nets
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0..9u32,
        (any::<u32>(), any::<u64>()),
        (42.99..43.15f64, -89.55..-89.25f64),
        (-6..6i32, -6..6i32),
        ((any::<u8>(), 0.0..1.0f64), (1..200u32, 1..120u32)),
        prop::collection::vec(0.0..2000.0f64, 0..6),
    )
        .prop_map(
            |(
                pick,
                (client, seq),
                (lat, lon),
                (col, row),
                ((bits, coin), (quota, mins)),
                samples,
            )| {
                match pick {
                    0 | 1 => Op::Checkin {
                        client,
                        lat,
                        lon,
                        nets: bits,
                        coin,
                    },
                    // Ingest dominates, as it does on the wire.
                    2..=5 => Op::Ingest {
                        client,
                        seq,
                        col,
                        row,
                        net: bits,
                        samples,
                    },
                    6 => Op::SetQuota {
                        col,
                        row,
                        net: bits,
                        quota,
                    },
                    8 => Op::Migrate { col, row },
                    _ => {
                        if mins % 2 == 0 {
                            Op::SetEpoch {
                                col,
                                row,
                                net: bits,
                                mins,
                            }
                        } else {
                            Op::Flush
                        }
                    }
                }
            },
        )
}

fn apply<H: CoordinatorHandle>(h: &mut H, op: &Op, t: SimTime) {
    match op {
        Op::Checkin {
            client,
            lat,
            lon,
            nets,
            coin,
        } => {
            let point = GeoPoint::new(*lat, *lon).unwrap();
            let _ = h.checkin_tagged(ClientId(*client), &point, t, &net_subset(*nets), *coin);
        }
        Op::Ingest {
            client,
            seq,
            col,
            row,
            net,
            samples,
        } => {
            let _ = h.ingest_samples_tagged(
                ClientId(*client),
                *seq,
                ZoneId(CellId {
                    col: *col,
                    row: *row,
                }),
                net_of(*net),
                t,
                samples.iter().copied(),
            );
        }
        Op::SetQuota {
            col,
            row,
            net,
            quota,
        } => h.set_zone_quota_tagged(
            ZoneId(CellId {
                col: *col,
                row: *row,
            }),
            net_of(*net),
            *quota,
        ),
        Op::SetEpoch {
            col,
            row,
            net,
            mins,
        } => h.set_zone_epoch_tagged(
            ZoneId(CellId {
                col: *col,
                row: *row,
            }),
            net_of(*net),
            SimDuration::from_mins(i64::from(*mins)),
        ),
        Op::Flush => h.flush_tagged(t),
        Op::Migrate { col, row } => {
            let lo = ZoneId(CellId { col: -7, row: -7 });
            let hi = ZoneId(CellId {
                col: *col,
                row: *row,
            });
            let cells = h.migrate_out_tagged(lo, hi);
            h.migrate_in_tagged(cells);
        }
    }
}

/// WAL records an op appends (`Migrate` is an out/in record pair).
fn records_of(op: &Op) -> u64 {
    match op {
        Op::Migrate { .. } => 2,
        _ => 1,
    }
}

fn index_and_config() -> (ZoneIndex, CoordinatorConfig) {
    let center = GeoPoint::new(43.0731, -89.4012).unwrap();
    let index = ZoneIndex::around(center, 2500.0).unwrap();
    (index, CoordinatorConfig::default())
}

fn op_time(i: usize) -> SimTime {
    // 90 s apart: a few hundred ops span several 30-minute epochs.
    SimTime::from_micros(i as i64 * 90_000_000)
}

fn state_bytes(c: &Coordinator) -> Vec<u8> {
    let mut out = Vec::new();
    encode_state(&c.export_state(), &mut out);
    out
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "wiscape-wal-props-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_opts(plan: CrashPlan) -> WalOptions {
    WalOptions {
        // Small segments and frequent snapshots so every property run
        // exercises rotation, snapshot commits, and replay suffixes.
        segment_bytes: 512,
        snapshot_every: 8,
        plan,
    }
}

proptest! {
    #[test]
    fn crashed_run_matches_uninterrupted(
        ops in prop::collection::vec(arb_op(), 1..60),
        seed in any::<u64>(),
    ) {
        let (index, config) = index_and_config();

        // Uninterrupted reference: a bare in-memory coordinator.
        let mut baseline = Coordinator::new(index.clone(), config.clone());
        for (i, op) in ops.iter().enumerate() {
            apply(&mut baseline, op, op_time(i));
        }

        // Durable run with a seeded crash somewhere in the stream.
        let dir = fresh_dir("crash");
        let plan = CrashPlan::seeded(seed, ops.len() as u64);
        let mut durable =
            DurableCoordinator::create(&dir, index.clone(), config.clone(), wal_opts(plan))
                .unwrap();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut durable, op, op_time(i));
        }
        durable.shutdown().unwrap();

        let expected_records: u64 = ops.iter().map(records_of).sum();
        let meters = durable.wal_meters();
        prop_assert_eq!(meters.recovery_mismatches, 0, "recovery proof failed (seed {})", seed);
        prop_assert_eq!(meters.records, expected_records, "every op must be durable");
        let live = state_bytes(durable.coordinator_ref());
        let reference = state_bytes(&baseline);
        prop_assert_eq!(live, reference, "crashed run diverged (seed {})", seed);

        // Recovery closure: a cold recover from the finished directory
        // reproduces the final state bitwise.
        let (cold, report) =
            DurableCoordinator::recover(&dir, index, config, wal_opts(CrashPlan::none())).unwrap();
        prop_assert_eq!(report.records, expected_records);
        prop_assert_eq!(state_bytes(cold.coordinator_ref()), state_bytes(&baseline));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncrashed_run_is_bitwise_identical(ops in prop::collection::vec(arb_op(), 1..40)) {
        let (index, config) = index_and_config();
        let mut baseline = Coordinator::new(index.clone(), config.clone());
        let dir = fresh_dir("clean");
        let mut durable =
            DurableCoordinator::create(&dir, index, config, wal_opts(CrashPlan::none())).unwrap();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut baseline, op, op_time(i));
            apply(&mut durable, op, op_time(i));
        }
        durable.shutdown().unwrap();
        let meters = durable.wal_meters();
        prop_assert_eq!(meters.recoveries, 0);
        prop_assert_eq!(state_bytes(durable.coordinator_ref()), state_bytes(&baseline));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn random_bytes_never_panic_in_wal_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        // Record decoder: typed result, never a panic.
        match decode_record_view(&bytes) {
            Ok((_, used)) => prop_assert!(used <= bytes.len()),
            Err(WalError::Frame(_)) => {}
            Err(other) => prop_assert!(false, "not a frame error: {:?}", other),
        }
        // Snapshot decoder likewise.
        let _ = decode_state(&bytes);
        // Log scanner over a directory whose only segment is these
        // bytes: either a clean (possibly empty) scan with a torn
        // tail, or a typed error.
        let dir = fresh_dir("fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-0000000000.seg"), &bytes).unwrap();
        match scan_views(&dir, 0, |_, _| Ok(())) {
            Ok(summary) => {
                prop_assert!(summary.valid_bytes + summary.torn_bytes <= bytes.len() as u64);
            }
            Err(WalError::Frame(_)) | Err(WalError::Corrupt(_)) => {}
            Err(WalError::Io { .. }) => prop_assert!(false, "unexpected io error"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupting_a_sealed_segment_is_detected(
        ops in prop::collection::vec(arb_op(), 20..40),
        victim in any::<u64>(),
        bit in 0..8u32,
    ) {
        let (index, config) = index_and_config();
        let dir = fresh_dir("detect");
        let mut durable = DurableCoordinator::create(
            &dir,
            index.clone(),
            config.clone(),
            wal_opts(CrashPlan::none()),
        )
        .unwrap();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut durable, op, op_time(i));
        }
        durable.shutdown().unwrap();

        // Corrupt one byte of the FIRST segment (guaranteed non-final:
        // 512-byte segments over 20+ records always rotate at least
        // once). Strict scanning must refuse the log.
        let segs = wiscape_wal::log::list_segments(&dir).unwrap();
        prop_assume!(segs.len() > 1);
        let (_, first_seg) = &segs[0];
        let mut data = std::fs::read(first_seg).unwrap();
        prop_assume!(!data.is_empty());
        let i = (victim % data.len() as u64) as usize;
        data[i] ^= 1u8 << bit;
        std::fs::write(first_seg, &data).unwrap();
        let result = DurableCoordinator::recover(&dir, index, config, wal_opts(CrashPlan::none()));
        prop_assert!(result.is_err(), "single-bit corruption in a sealed segment must be detected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writer_tails_recover_cleanly(
        frames in prop::collection::vec(prop::collection::vec(0.0..100.0f64, 1..4), 1..10),
        keep_frac in 0.0..1.0f64,
    ) {
        // A torn tail produced by the writer itself (not the crash
        // plan): scan truncates it, resume drops it, and the next
        // append lands clean.
        let dir = fresh_dir("tail");
        let mut w = WalWriter::create(&dir, u64::MAX).unwrap();
        let mut enc = wiscape_wal::RecordEncoder::with_capacity(64);
        let mut frame = Vec::new();
        for (i, samples) in frames.iter().enumerate() {
            enc.begin(2); // ingest tag
            enc.put_client(ClientId(1));
            enc.put_u64(i as u64);
            enc.put_zone(ZoneId(CellId { col: 0, row: 0 }));
            enc.put_network(NetworkId::NetA);
            enc.put_time(op_time(i));
            enc.put_u64(samples.len() as u64);
            for s in samples {
                enc.put_f64(*s);
            }
            enc.seal_into(&mut frame);
            w.append(&frame).unwrap();
        }
        let keep = ((frame.len() as f64) * keep_frac) as usize;
        prop_assume!(keep < frame.len());
        w.append_torn(&frame, keep).unwrap();
        w.sync().unwrap();

        let summary = scan_views(&dir, 0, |_, _| Ok(())).unwrap();
        prop_assert_eq!(summary.records_seen, frames.len() as u64);
        prop_assert_eq!(summary.torn_bytes, keep as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A real two-shard handoff under injected crashes: two durable
/// coordinators split the zone space, a mid-stream rebalance moves a
/// column band from one WAL to the other via `MigrateOut`/`MigrateIn`
/// records, and seeded crashes fire on both logs. The merged final
/// state must fingerprint-equal a single uninterrupted coordinator fed
/// the same stream, with both recovery proofs clean.
#[test]
fn two_shard_migration_with_seeded_crashes_matches_single() {
    use wiscape_core::{merge_states, state_fingerprint, AlertMerge};

    let (index, config) = index_and_config();
    let boundary = |after_move: bool| if after_move { -3i32 } else { 0 };

    #[derive(Clone, Copy)]
    enum Ev {
        Ingest { col: i32, row: i32, net: u8, v: f64 },
        Quota { col: i32, row: i32, q: u32 },
        Flush,
    }
    let mut evs = Vec::new();
    for i in 0..300i64 {
        let col = ((i * 7) % 12 - 6) as i32;
        let row = ((i * 5) % 12 - 6) as i32;
        match i % 17 {
            16 => evs.push(Ev::Flush),
            15 => evs.push(Ev::Quota {
                col,
                row,
                q: 40 + (i % 90) as u32,
            }),
            _ => evs.push(Ev::Ingest {
                col,
                row,
                net: (i % 3) as u8,
                v: 500.0 + (i as f64) * 1.75,
            }),
        }
    }

    for seed in [11u64, 29, 47] {
        // Uninterrupted single-coordinator reference.
        let mut single = Coordinator::new(index.clone(), config.clone());
        let apply_ev = |h: &mut dyn FnMut(&Ev, SimTime), evs: &[Ev]| {
            for (i, ev) in evs.iter().enumerate() {
                h(ev, op_time(i));
            }
        };
        apply_ev(
            &mut |ev, t| match *ev {
                Ev::Ingest { col, row, net, v } => {
                    let _ = single.ingest_samples_tagged(
                        ClientId(1),
                        0,
                        ZoneId(CellId { col, row }),
                        net_of(net),
                        t,
                        [v].into_iter(),
                    );
                }
                Ev::Quota { col, row, q } => {
                    single.set_zone_quota_tagged(ZoneId(CellId { col, row }), NetworkId::NetA, q)
                }
                Ev::Flush => single.flush_tagged(t),
            },
            &evs,
        );

        // Sharded run: shard 0 owns col < boundary, shard 1 the rest,
        // each behind its own WAL with a seeded crash plan.
        let dir_a = fresh_dir(&format!("mig-a-{seed}"));
        let dir_b = fresh_dir(&format!("mig-b-{seed}"));
        let mut a = DurableCoordinator::create(
            &dir_a,
            index.clone(),
            config.clone(),
            wal_opts(CrashPlan::seeded(seed, 120)),
        )
        .unwrap();
        let mut b = DurableCoordinator::create(
            &dir_b,
            index.clone(),
            config.clone(),
            wal_opts(CrashPlan::seeded(seed.wrapping_add(1), 120)),
        )
        .unwrap();
        let mut merge = AlertMerge::new(2);
        let mut moved = false;
        for (i, ev) in evs.iter().enumerate() {
            let t = op_time(i);
            if i == 150 {
                // Rebalance: columns [-3, -1] move from shard 0 to 1.
                let lo = ZoneId(CellId {
                    col: -3,
                    row: i32::MIN,
                });
                let hi = ZoneId(CellId {
                    col: -1,
                    row: i32::MAX,
                });
                let cells = a.migrate_out_tagged(lo, hi);
                assert!(!cells.is_empty(), "rebalance must move tracked cells");
                b.migrate_in_tagged(cells);
                moved = true;
            }
            match *ev {
                Ev::Ingest { col, row, net, v } => {
                    let shard = usize::from(col >= boundary(moved));
                    let h: &mut DurableCoordinator = if shard == 0 { &mut a } else { &mut b };
                    let _ = h.ingest_samples_tagged(
                        ClientId(1),
                        0,
                        ZoneId(CellId { col, row }),
                        net_of(net),
                        t,
                        [v].into_iter(),
                    );
                    merge.note(shard, h.coordinator_ref().alerts());
                }
                Ev::Quota { col, row, q } => {
                    let shard = usize::from(col >= boundary(moved));
                    let h: &mut DurableCoordinator = if shard == 0 { &mut a } else { &mut b };
                    h.set_zone_quota_tagged(ZoneId(CellId { col, row }), NetworkId::NetA, q);
                    merge.note(shard, h.coordinator_ref().alerts());
                }
                Ev::Flush => {
                    a.flush_tagged(t);
                    b.flush_tagged(t);
                    merge.note_flush(&[a.coordinator_ref().alerts(), b.coordinator_ref().alerts()]);
                }
            }
        }
        a.shutdown().unwrap();
        b.shutdown().unwrap();
        assert_eq!(a.wal_meters().recovery_mismatches, 0, "seed {seed}");
        assert_eq!(b.wal_meters().recovery_mismatches, 0, "seed {seed}");

        let merged = merge_states(
            &[a.coordinator_ref(), b.coordinator_ref()],
            merge.merged().to_vec(),
        );
        assert_eq!(
            state_fingerprint(&merged),
            state_fingerprint(&single.export_state()),
            "merged sharded state diverged (seed {seed})"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

/// Recovery loads the snapshot the manifest names and replays the log
/// after it. It does not fall back to an older snapshot, or to a replay
/// from record zero, when that snapshot or the manifest is damaged: a
/// flipped snapshot byte, a byte appended to the manifest and a
/// manifest naming a missing snapshot are each a typed error.
#[test]
fn damaged_snapshot_or_manifest_is_a_typed_error_without_fallback() {
    let (index, config) = index_and_config();
    let opts = || wal_opts(CrashPlan::none());
    let dir = fresh_dir("nofallback");
    let mut c = DurableCoordinator::create(&dir, index.clone(), config.clone(), opts()).unwrap();
    for i in 0..60usize {
        let op = match i % 4 {
            3 => Op::Flush,
            k => Op::Ingest {
                client: 1,
                seq: i as u64,
                col: k as i32,
                row: 0,
                net: 0,
                samples: vec![500.0 + i as f64],
            },
        };
        apply(&mut c, &op, op_time(i));
    }
    c.shutdown().unwrap();
    let recover =
        || DurableCoordinator::recover(&dir, index.clone(), config.clone(), opts()).map(|_| ());
    assert_eq!(recover(), Ok(()));
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension() == Some("bin".as_ref()))
        .count();
    assert!(snapshots >= 3, "older snapshots stay on disk");

    // A flipped byte in the body of the snapshot the manifest names.
    let snap = snapshot_path(&dir, read_manifest(&dir).unwrap().unwrap());
    let intact = std::fs::read(&snap).unwrap();
    let mut flipped = intact.clone();
    flipped[intact.len() / 2] ^= 0x01;
    std::fs::write(&snap, &flipped).unwrap();
    let checksum = recover();
    assert!(matches!(
        checksum,
        Err(WalError::Frame(DecodeError::BadChecksum { .. }))
    ));
    std::fs::write(&snap, &intact).unwrap();
    // A byte appended to the manifest.
    let mut manifest = std::fs::read(manifest_path(&dir)).unwrap();
    manifest.push(0);
    std::fs::write(manifest_path(&dir), &manifest).unwrap();
    assert_eq!(
        recover(),
        Err(WalError::Frame(DecodeError::TrailingBytes(1)))
    );
    // A manifest naming a missing snapshot.
    write_manifest(&dir, 999_999).unwrap();
    let kind = ErrorKind::NotFound;
    assert_eq!(
        recover(),
        Err(WalError::Io {
            op: "read snapshot",
            kind
        })
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory with no manifest and no segment holds no WAL: recovery
/// refuses it with a typed error and creates no file in it, instead of
/// returning an empty coordinator and starting a log there.
#[test]
fn a_directory_without_a_wal_is_refused_and_left_empty() {
    let (index, config) = index_and_config();
    let dir = fresh_dir("nowal");
    std::fs::create_dir_all(&dir).unwrap();
    let result = DurableCoordinator::recover(&dir, index, config, wal_opts(CrashPlan::none()));
    assert_eq!(result.map(|_| ()), Err(NO_WAL));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
