//! `nation_shards`: a national-scale state fed through the shard tier.
//!
//! Report batches go into `ShardSet::ingest_batch`, then `flush`,
//! `merged_state`, `RegionSet::build` and `locate_hotspots`. Shards equal
//! workers equal the executor's thread count, since `par_map_mut` spawns
//! one thread per shard.

use std::hint::black_box;
use std::time::Instant;

use wiscape_core::{
    state_fingerprint, Coordinator, CoordinatorConfig, MeasurementTask, SampleReport,
    ShardAssignment, ShardSet, ZoneIndex,
};
use wiscape_mobility::ClientId;
use wiscape_simcore::{exec, SimDuration, SimTime, StreamRng};
use wiscape_simnet::{NetworkId, TransportKind};

use wiscape_region::score_patches;

use crate::field::{Draws, Field};
use crate::gen::origin;
use crate::probe::{span, Op};
use crate::run::{median, regions, Bench, PassOut};

/// Reports per `ingest_batch` call.
const BATCH: usize = 8192;

/// The workload.
pub struct Nation {
    /// Half-extent of the zone index, metres.
    pub extent_m: f64,
    /// Samples per report.
    pub samples: usize,
    /// Planted chronic patches.
    pub patches: usize,
    /// Shards (and workers).
    pub shards: usize,
}

impl Nation {
    /// Full size (≥100k zones) or the small test size.
    pub fn new(small: bool) -> Self {
        Self {
            extent_m: if small { 10_000.0 } else { 72_000.0 },
            samples: 20,
            patches: if small { 2 } else { 24 },
            shards: exec::thread_count(),
        }
    }
}

/// The generated stream: one report per `(zone, network)` cell, in a
/// seeded random order, all inside one coordinator epoch.
pub struct NationInput {
    index: ZoneIndex,
    field: Field,
    reports: Vec<SampleReport>,
    end: SimTime,
}

impl NationInput {
    /// SHA-256 over every report's identity, time and samples, in order.
    pub fn digest(&self) -> String {
        let mut h = crate::sha256::Sha256::default();
        for r in &self.reports {
            h.update(&r.zone.0.col.to_le_bytes());
            h.update(&r.zone.0.row.to_le_bytes());
            h.update(&[r.task.network as u8]);
            h.update(&r.t.as_micros().to_le_bytes());
            for s in &r.samples {
                h.update(&s.to_bits().to_le_bytes());
            }
        }
        h.hex()
    }
}

impl Nation {
    fn ingest(&self, input: &NationInput, shards: usize) -> (ShardSet, f64) {
        let mut set = ShardSet::new(input.index.clone(), CoordinatorConfig::default(), shards);
        let t0 = Instant::now();
        for batch in input.reports.chunks(BATCH) {
            let _s = span(Op::ShardIngestBatch);
            set.ingest_batch(batch);
        }
        {
            let _s = span(Op::ShardFlush);
            set.flush(input.end);
        }
        (set, t0.elapsed().as_secs_f64())
    }

    /// Mean over batches of the largest shard bucket over the mean one.
    fn bucket_skew(&self, input: &NationInput) -> f64 {
        let assignment = ShardAssignment::even(&input.index, self.shards);
        let mut skews = Vec::new();
        for batch in input.reports.chunks(BATCH) {
            let n = self.shards.max(1);
            let mut buckets = vec![0u64; n];
            for r in batch {
                buckets[assignment.shard_of(r.zone).min(n - 1)] += 1;
            }
            let max = buckets.iter().copied().max().unwrap_or(0) as f64;
            let mean = batch.len() as f64 / buckets.len() as f64;
            skews.push(max / mean.max(1.0));
        }
        skews.iter().sum::<f64>() / skews.len().max(1) as f64
    }
}

impl Bench for Nation {
    type Input = NationInput;

    fn setup(&self, seed: u64) -> NationInput {
        let root = StreamRng::new(seed).fork("pipebench");
        let index = ZoneIndex::around(origin(), self.extent_m).expect("valid zone index");
        let field = Field::new(&index, self.patches, root.fork("field"));
        let mut draws = Draws::new(root.fork("reports"));
        let mut cells: Vec<(wiscape_core::ZoneId, NetworkId)> = index
            .zones()
            .flat_map(|z| NetworkId::ALL.map(|n| (z, n)))
            .collect();
        // Fisher-Yates: arrival order is independent of zone order.
        for i in (1..cells.len()).rev() {
            cells.swap(i, draws.below(i as u64 + 1) as usize);
        }
        let start = SimTime::at(1, 8.0);
        let span_us = SimDuration::from_mins(25).as_micros();
        let n = cells.len().max(1) as i64;
        let reports = cells
            .iter()
            .enumerate()
            .map(|(i, &(zone, network))| {
                let mut samples = Vec::with_capacity(self.samples);
                field.sample_into(zone, network, self.samples, &mut draws, &mut samples);
                SampleReport {
                    client: ClientId((i % 65_536) as u32),
                    task: MeasurementTask {
                        zone,
                        network,
                        kind: TransportKind::Udp,
                        n_packets: self.samples as u32,
                        packet_bytes: 1200,
                    },
                    zone,
                    t: SimTime::from_micros(start.as_micros() + i as i64 * span_us / n),
                    samples,
                }
            })
            .collect();
        let input = NationInput {
            end: SimTime::from_micros(start.as_micros() + span_us),
            index,
            field,
            reports,
        };
        black_box(ShardSet::new(
            input.index.clone(),
            CoordinatorConfig::default(),
            self.shards,
        ));
        input
    }

    fn pass(&self, input: &NationInput, _traced: bool, check: bool) -> PassOut {
        let (set, ingest_s) = self.ingest(input, self.shards);
        let t1 = Instant::now();
        let state = {
            let _s = span(Op::ShardMerge);
            set.merged_state()
        };
        let published: usize = {
            let _s = span(Op::CoordPublished);
            set.shards().iter().map(|c| c.all_published().len()).sum()
        };
        let read = regions(&state, &input.index);
        let publish_s = t1.elapsed().as_secs_f64();

        let mut out = PassOut {
            wall_s: ingest_s + publish_s,
            ingest_s,
            publish_s,
            msgs: input.reports.len() as u64,
            ..PassOut::default()
        };
        let truth = input.field.truth();
        let hit = score_patches(&read.hotspots, &truth).recall;
        if hit < 1.0 {
            out.failures
                .push(format!("hotspot recall {hit:.3} of the planted patches"));
        }
        let cells = input.index.zone_count() * NetworkId::ALL.len();
        if state.cells.len() != cells || published != cells {
            out.failures.push(format!(
                "{} cells, {published} published, expected {cells}",
                state.cells.len()
            ));
        }
        if check {
            let mut single = Coordinator::new(input.index.clone(), CoordinatorConfig::default());
            for r in &input.reports {
                let _ = single.ingest_report(r);
            }
            single.flush(input.end);
            if state_fingerprint(&single.export_state()) != state_fingerprint(&state) {
                out.failures
                    .push("merged shard state differs from a single-coordinator fold".into());
            }
        }
        let mut put = |k: &str, v: f64| out.counts.push((k.to_string(), v));
        put("shard.batches", input.reports.len().div_ceil(BATCH) as f64);
        put("shard.reports", input.reports.len() as f64);
        put("coordinator.cells", state.cells.len() as f64);
        put(
            "coordinator.sketch_bytes",
            (state.cells.len() * Coordinator::per_zone_state_bytes()) as f64,
        );
        put("coordinator.reports_folded", input.reports.len() as f64);
        put(
            "coordinator.samples_folded",
            (input.reports.len() * self.samples) as f64,
        );
        put("region.regions", read.regions as f64);
        put("region.hotspots", read.hotspots.len() as f64);
        put("region.hotspot_recall", hit);
        out
    }

    fn describe(&self, input: &NationInput) -> Vec<(&'static str, String)> {
        vec![
            ("zones", input.index.zone_count().to_string()),
            ("networks", NetworkId::ALL.len().to_string()),
            ("reports", input.reports.len().to_string()),
            ("samples_per_report", self.samples.to_string()),
            ("batch", BATCH.to_string()),
            ("shards", self.shards.to_string()),
            ("planted_patches", input.field.patches().to_string()),
            ("bucket_skew", format!("{:.4}", self.bucket_skew(input))),
            ("trace_digest", input.digest()),
        ]
    }

    fn extras(&self, input: &NationInput) -> Vec<(String, f64)> {
        // The same stream on one shard (so one worker) against the full
        // shard count, untraced.
        let one: Vec<f64> = (0..3).map(|_| self.ingest(input, 1).1).collect();
        let many: Vec<f64> = (0..3).map(|_| self.ingest(input, self.shards).1).collect();
        vec![
            (
                "shard.speedup".into(),
                median(&one) / median(&many).max(1e-9),
            ),
            ("shard.bucket_skew".into(), self.bucket_skew(input)),
        ]
    }
}
