//! Property-based and corpus tests for the wire codec.
//!
//! The contract under test: `decode(encode(m)) == m` for every
//! representable message, and `decode` on *any* byte slice — truncated,
//! bit-flipped, or outright random — returns a typed error rather than
//! panicking or mis-decoding.

use proptest::prelude::*;
use wiscape_channel::codec::{
    crc32, decode, decode_ref, encode, AckMsg, CheckinRequest, DecodeError, FrameReader, ReportMsg,
    TaskAssignment, WireMessage, WireMessageRef,
};
use wiscape_core::{MeasurementTask, SampleReport, ZoneId};
use wiscape_geo::{CellId, GeoPoint};
use wiscape_mobility::ClientId;
use wiscape_simcore::SimTime;
use wiscape_simnet::{NetworkId, TransportKind};

fn arb_task() -> impl Strategy<Value = MeasurementTask> {
    (
        (any::<i32>(), any::<i32>()),
        0..3u32,
        0..2u32,
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(
            |((col, row), net, kind, n_packets, packet_bytes)| MeasurementTask {
                zone: ZoneId(CellId { col, row }),
                network: match net {
                    0 => NetworkId::NetA,
                    1 => NetworkId::NetB,
                    _ => NetworkId::NetC,
                },
                kind: if kind == 0 {
                    TransportKind::Tcp
                } else {
                    TransportKind::Udp
                },
                n_packets,
                packet_bytes,
            },
        )
}

fn arb_report() -> impl Strategy<Value = SampleReport> {
    (
        any::<u32>(),
        arb_task(),
        (any::<i32>(), any::<i32>()),
        any::<i64>(),
        prop::collection::vec(-1e9..1e9f64, 0..64),
    )
        .prop_map(|(client, task, (col, row), t, samples)| SampleReport {
            client: ClientId(client),
            task,
            zone: ZoneId(CellId { col, row }),
            t: SimTime::from_micros(t),
            samples,
        })
}

fn arb_message() -> impl Strategy<Value = WireMessage> {
    (
        0..4u32,
        (
            any::<u32>(),
            any::<u64>(),
            (-89.0..89.0f64, -179.0..179.0f64),
            any::<i64>(),
        ),
        arb_task(),
        (any::<u64>(), arb_report()),
        prop::collection::vec(any::<u64>(), 0..32),
    )
        .prop_map(
            |(pick, (client, tick, (lat, lon), t), task, (seq, report), seqs)| match pick {
                0 => WireMessage::Checkin(CheckinRequest {
                    client: ClientId(client),
                    tick,
                    point: GeoPoint::new(lat, lon).unwrap(),
                    t: SimTime::from_micros(t),
                }),
                1 => WireMessage::Task(TaskAssignment {
                    client: ClientId(client),
                    task,
                }),
                2 => WireMessage::Report(ReportMsg { seq, report }),
                _ => WireMessage::Ack(AckMsg {
                    client: ClientId(client),
                    seqs,
                }),
            },
        )
}

proptest! {
    #[test]
    fn round_trip_is_identity(msg in arb_message()) {
        let bytes = encode(&msg);
        let back = decode(&bytes);
        prop_assert_eq!(back.as_ref().ok(), Some(&msg), "{:?}", back);
    }

    #[test]
    fn truncation_never_panics_and_always_errors(msg in arb_message(), cut_frac in 0.0..1.0f64) {
        let bytes = encode(&msg);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn single_bit_flips_never_decode_to_a_different_message(
        msg in arb_message(),
        flip in any::<usize>(),
        bit in 0..8u32,
    ) {
        let bytes = encode(&msg);
        let mut corrupt = bytes.clone();
        let i = flip % corrupt.len();
        corrupt[i] ^= 1u8 << bit;
        // Either a typed error, or (if the flip were to hit redundant
        // encoding slack, which our encoder never emits) the identical
        // message — but never a silently different one.
        match decode(&corrupt) {
            Err(_) => {}
            Ok(back) => prop_assert_eq!(back, msg, "undetected mutation at byte {}", i),
        }
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
        let _ = FrameReader::new(&bytes)
            .map(|m| m.map(|m| m.to_message()))
            .collect::<Result<Vec<_>, _>>();
    }

    #[test]
    fn random_bodies_with_valid_framing_never_panic(
        body in prop::collection::vec(any::<u8>(), 0..128)
    ) {
        // Hand-frame arbitrary garbage with a correct magic, version,
        // length, and CRC so decoding always reaches the body parser.
        let mut frame = vec![0x57, 0x43, 1];
        let mut len = body.len() as u64;
        loop {
            let low = (len & 0x7F) as u8;
            len >>= 7;
            frame.push(if len != 0 { low | 0x80 } else { low });
            if len == 0 { break; }
        }
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        let _ = decode(&frame);
    }

    #[test]
    fn view_decode_matches_owned_decode_field_for_field(msg in arb_message()) {
        let bytes = encode(&msg);
        let owned = decode(&bytes).expect("round trip");
        let view = decode_ref(&bytes).expect("borrowed round trip");
        match (&owned, &view) {
            (WireMessage::Checkin(a), WireMessageRef::Checkin(b)) => prop_assert_eq!(a, b),
            (WireMessage::Task(a), WireMessageRef::Task(b)) => prop_assert_eq!(a, b),
            (WireMessage::Report(a), WireMessageRef::Report(b)) => {
                prop_assert_eq!(a.seq, b.seq);
                prop_assert_eq!(a.report.client, b.client);
                prop_assert_eq!(&a.report.task, &b.task);
                prop_assert_eq!(a.report.zone, b.zone);
                prop_assert_eq!(a.report.t, b.t);
                prop_assert_eq!(a.report.samples.len(), b.n_samples());
                let owned_bits: Vec<u64> =
                    a.report.samples.iter().map(|s| s.to_bits()).collect();
                let view_bits: Vec<u64> = b.samples().map(f64::to_bits).collect();
                prop_assert_eq!(owned_bits, view_bits);
            }
            (WireMessage::Ack(a), WireMessageRef::Ack(b)) => {
                prop_assert_eq!(a.client, b.client);
                prop_assert_eq!(a.seqs.clone(), b.seqs().collect::<Vec<_>>());
            }
            _ => prop_assert!(false, "variant mismatch: {:?} vs {:?}", owned, view),
        }
        prop_assert_eq!(view.to_message(), owned);
    }

    #[test]
    fn view_decode_errors_match_owned_decode_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        match (decode(&bytes), decode_ref(&bytes)) {
            (Ok(owned), Ok(view)) => prop_assert_eq!(owned, view.to_message()),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "owned {:?} vs view {:?}", a, b),
        }
    }

    #[test]
    fn view_decode_errors_match_owned_decode_on_corrupted_frames(
        msg in arb_message(),
        flip in any::<usize>(),
        bit in 0..8u32,
        cut_frac in 0.0..1.0f64,
    ) {
        // Same parity check aimed at near-valid frames: bit flips and
        // truncations of real encodings reach far deeper into the body
        // parser than uniformly random bytes do.
        let bytes = encode(&msg);
        let mut corrupt = bytes.clone();
        let i = flip % corrupt.len();
        corrupt[i] ^= 1u8 << bit;
        corrupt.truncate(((corrupt.len() as f64) * cut_frac) as usize);
        match (decode(&corrupt), decode_ref(&corrupt)) {
            (Ok(owned), Ok(view)) => prop_assert_eq!(owned, view.to_message()),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "owned {:?} vs view {:?}", a, b),
        }
    }

    #[test]
    fn frame_streams_decode_to_the_sent_sequence(
        msgs in prop::collection::vec(arb_message(), 0..8)
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode(m));
        }
        let back: Vec<WireMessage> = FrameReader::new(&stream)
            .map(|m| m.map(|m| m.to_message()))
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(back, msgs);
    }
}

/// Fixed fuzz-ish corpus: inputs that historically trip naive decoders.
#[test]
fn corpus_of_hostile_frames_yields_typed_errors() {
    let valid = encode(&WireMessage::Ack(AckMsg {
        client: ClientId(1),
        seqs: vec![1, 2, 3],
    }));
    let corpus: Vec<(Vec<u8>, &str)> = vec![
        (vec![], "empty input"),
        (vec![0x57], "half a magic"),
        (vec![0x00, 0x00, 0x01, 0x00], "wrong magic"),
        (vec![0x57, 0x43], "magic only"),
        (vec![0x57, 0x43, 0xFF], "future version"),
        (vec![0x57, 0x43, 1], "no length"),
        (
            vec![
                0x57, 0x43, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
            ],
            "varint length overflowing 64 bits",
        ),
        (
            vec![0x57, 0x43, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
            "length far past the buffer",
        ),
        (
            vec![0x57, 0x43, 1, 0x00, 0, 0, 0, 0],
            "empty body with zero crc",
        ),
        (
            {
                let mut v = valid.clone();
                v.truncate(v.len() - 1);
                v
            },
            "missing last crc byte",
        ),
        (
            {
                let mut v = valid.clone();
                let i = v.len() - 1;
                v[i] ^= 0x01;
                v
            },
            "flipped crc bit",
        ),
        (
            {
                let mut v = valid.clone();
                v.push(0x00);
                v
            },
            "trailing byte",
        ),
        (
            {
                let mut v = valid.clone();
                v[3] ^= 0x40; // tamper with the body length field
                v
            },
            "tampered length",
        ),
    ];
    for (bytes, what) in corpus {
        let out = decode(&bytes);
        assert!(out.is_err(), "{what}: decoded {out:?} from {bytes:?}");
        // The borrowed decoder fails identically on every corpus entry.
        match decode_ref(&bytes) {
            Ok(v) => panic!("{what}: view-decoded {v:?} from {bytes:?}"),
            Err(e) => assert_eq!(Err(e), out, "{what}: error mismatch"),
        }
    }
}

/// The error taxonomy is stable: specific corruptions map to specific
/// variants (operators alert on these counters).
#[test]
fn error_variants_are_distinguished() {
    let valid = encode(&WireMessage::Task(TaskAssignment {
        client: ClientId(4),
        task: MeasurementTask {
            zone: ZoneId(CellId { col: 1, row: -1 }),
            network: NetworkId::NetA,
            kind: TransportKind::Tcp,
            n_packets: 10,
            packet_bytes: 1000,
        },
    }));
    assert!(matches!(
        decode(&[0x00, 0x43, 1, 0]),
        Err(DecodeError::BadMagic)
    ));
    assert!(matches!(
        decode(&[0x57, 0x43, 9, 0]),
        Err(DecodeError::UnsupportedVersion(9))
    ));
    assert!(matches!(
        decode(&valid[..valid.len() - 2]),
        Err(DecodeError::Truncated { .. })
    ));
    let mut flipped = valid.clone();
    flipped[5] ^= 0xFF;
    assert!(matches!(
        decode(&flipped),
        Err(DecodeError::BadChecksum { .. })
    ));
    let mut trailing = valid.clone();
    trailing.push(0xAB);
    assert!(matches!(
        decode(&trailing),
        Err(DecodeError::TrailingBytes(1))
    ));
}
