//! Criterion benches for the control channel: wire-codec encode/decode,
//! CRC-32, and the lossy-link fate machinery — the per-report costs the
//! overhead analysis (Fig 15) multiplies by millions of clients.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wiscape_channel::codec::{
    crc32, decode, decode_ref, encode, FrameReader, ReportMsg, WireMessage,
};
use wiscape_channel::{LinkConfig, LossyLink};
use wiscape_core::{MeasurementTask, SampleReport, ZoneId};
use wiscape_geo::CellId;
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimTime, StreamRng};
use wiscape_simnet::{NetworkId, TransportKind};

fn sample_report(samples: usize) -> SampleReport {
    let zone = ZoneId(CellId { col: 12, row: -4 });
    SampleReport {
        client: ClientId(7),
        task: MeasurementTask {
            zone,
            network: NetworkId::NetB,
            kind: TransportKind::Udp,
            n_packets: 20,
            packet_bytes: 1200,
        },
        zone,
        t: SimTime::at(1, 9.5),
        samples: (0..samples).map(|i| 900.0 + i as f64).collect(),
    }
}

fn report_msg(samples: usize) -> WireMessage {
    WireMessage::Report(ReportMsg {
        seq: 4242,
        report: sample_report(samples),
    })
}

fn codec_benches(c: &mut Criterion) {
    let msg = report_msg(20);
    c.bench_function("codec_encode_report_20_samples", |b| {
        b.iter(|| encode(black_box(&msg)))
    });

    let frame = encode(&msg);
    c.bench_function("codec_decode_report_20_samples", |b| {
        b.iter(|| decode(black_box(&frame)).unwrap())
    });
    // The zero-copy path: same frame, borrowed view, no sample Vec.
    c.bench_function("codec_decode_report_20_samples_view", |b| {
        b.iter(|| decode_ref(black_box(&frame)).unwrap())
    });

    let stream: Vec<u8> = (0..16).flat_map(|_| encode(&msg)).collect();
    c.bench_function("codec_stream_16_frames_reader", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for f in FrameReader::new(black_box(&stream)) {
                f.unwrap();
                n += 1;
            }
            black_box(n)
        })
    });

    let body = vec![0xA5u8; 1500];
    c.bench_function("crc32_1500_bytes", |b| b.iter(|| crc32(black_box(&body))));
    let big: Vec<u8> = (0..65_536u32)
        .map(|i| (i.wrapping_mul(31) % 251) as u8)
        .collect();
    c.bench_function("crc32_64kib", |b| b.iter(|| crc32(black_box(&big))));
}

fn link_benches(c: &mut Criterion) {
    let frame = encode(&report_msg(20));
    let now = SimTime::at(1, 9.5);

    let stream = StreamRng::new(11).fork("bench-perfect");
    let mut perfect = LossyLink::new(LinkConfig::perfect(), stream);
    c.bench_function("lossy_link_send_perfect", |b| {
        b.iter(|| black_box(perfect.send(black_box(frame.clone()), now, 0.0)))
    });

    let stream = StreamRng::new(11).fork("bench-cellular");
    let mut cellular = LossyLink::new(LinkConfig::cellular(0.1), stream);
    c.bench_function("lossy_link_send_cellular_10pct", |b| {
        b.iter(|| black_box(cellular.send(black_box(frame.clone()), now, 0.05)))
    });
}

criterion_group!(benches, codec_benches, link_benches);
criterion_main!(benches);
