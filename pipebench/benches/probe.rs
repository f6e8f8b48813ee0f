//! Bench-side span tracer.
//!
//! Spans are recorded around calls into the library's public API, never
//! inside it. Each span is aggregated in memory per [`Op`] as it closes
//! (count, busy time, self time, latency histogram), so millions of calls
//! cost a fixed amount of memory. A span's self time is its duration minus
//! the durations of the spans it directly encloses; over one root span the
//! self times therefore sum exactly to the root's duration, and the root's
//! own self time is the unattributed remainder.
//!
//! The tracer is per thread and off by default. While off, opening a span
//! costs one thread-local flag read and records nothing.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// The operations the benchmark times, one per layer boundary it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One timed pass of a workload (the root of every in-pass span).
    Pass,
    /// `FrameReader::next_frame` on a server-bound transmission.
    CodecDecode,
    /// `encode` / `encode_ack_one` of a reply frame.
    CodecEncode,
    /// `ChannelServer::handle_checkin`.
    ServerCheckin,
    /// `ChannelServer::handle_report_view`.
    ServerReport,
    /// `ChannelServer::drain`.
    ServerDrain,
    /// `checkin_tagged` on a bare coordinator.
    CoordCheckin,
    /// `ingest_samples_tagged` on a bare coordinator.
    CoordFold,
    /// `flush_tagged` on a bare coordinator.
    CoordFlush,
    /// `Coordinator::export_state`.
    CoordExport,
    /// `Coordinator::all_published`.
    CoordPublished,
    /// `checkin_tagged` on the durable coordinator (append + fold).
    WalCheckin,
    /// `ingest_samples_tagged` on the durable coordinator.
    WalIngest,
    /// `flush_tagged` on the durable coordinator (append, fold, snapshot).
    WalFlush,
    /// `DurableCoordinator::recover`.
    WalRecover,
    /// `ShardSet::ingest_batch`.
    ShardIngestBatch,
    /// `ShardSet::flush`.
    ShardFlush,
    /// `ShardSet::merged_state`.
    ShardMerge,
    /// `RegionSet::build`.
    RegionBuild,
    /// `locate_hotspots`.
    RegionHotspot,
    /// One experiment of the repro run (attributed, not opened).
    Experiment,
    /// `LossyLink::send` in the load generator.
    LinkSend,
    /// `Uplink::due_frames` in the load generator.
    UplinkDue,
}

const OPS: usize = Op::UplinkDue as usize + 1;

/// Log-linear latency histogram over nanoseconds: exact below 64 ns,
/// then 32 sub-buckets per power of two (about 3% resolution).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
}

const SUB_BITS: u32 = 5;

impl Hist {
    fn new() -> Self {
        Self {
            counts: vec![0; 64 + 58 * (1 << SUB_BITS)],
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        64 + ((exp - 6) as usize) * (1 << SUB_BITS) + sub as usize
    }

    fn lower_bound(bucket: usize) -> u64 {
        if bucket < 64 {
            return bucket as u64;
        }
        let k = bucket - 64;
        let exp = (k >> SUB_BITS) as u32 + 6;
        let sub = (k & ((1 << SUB_BITS) - 1)) as u64;
        (1u64 << exp) | (sub << (exp - SUB_BITS))
    }

    fn record(&mut self, ns: u64) {
        let b = Self::bucket(ns).min(self.counts.len() - 1);
        self.counts[b] += 1;
    }

    /// The `q` quantile in nanoseconds (lower edge of its bucket).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower_bound(b);
            }
        }
        0
    }
}

/// Aggregate of every closed span of one [`Op`].
#[derive(Clone)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Per-call duration histogram.
    pub hist: Hist,
}

struct Frame {
    op: Op,
    start: Instant,
    child_ns: u64,
}

struct Tracer {
    stack: Vec<Frame>,
    aggs: Vec<Agg>,
    /// Self time of spans closed beneath a [`Op::Pass`] root.
    in_pass_self_ns: u64,
}

impl Tracer {
    fn new() -> Self {
        Self {
            stack: Vec::with_capacity(16),
            aggs: (0..OPS)
                .map(|_| Agg {
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                    hist: Hist::new(),
                })
                .collect(),
            in_pass_self_ns: 0,
        }
    }

    fn close(&mut self, op: Op, dur_ns: u64, child_ns: u64) {
        let self_ns = dur_ns.saturating_sub(child_ns);
        let agg = &mut self.aggs[op as usize];
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.self_ns += self_ns;
        agg.hist.record(dur_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        if self.stack.first().is_some_and(|root| root.op == Op::Pass) {
            self.in_pass_self_ns += self_ns;
        }
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// An open span; closes when dropped.
#[must_use = "a span closes when this guard drops"]
pub struct Span {
    active: bool,
}

/// Opens a span of `op` (a no-op while tracing is off).
pub fn span(op: Op) -> Span {
    if !ON.with(Cell::get) {
        return Span { active: false };
    }
    TRACER.with(|t| {
        t.borrow_mut().stack.push(Frame {
            op,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    Span { active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Instant::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            if let Some(frame) = t.stack.pop() {
                let dur = end.duration_since(frame.start).as_nanos() as u64;
                t.close(frame.op, dur, frame.child_ns);
            }
        });
    }
}

/// Records a span of `op` that already ran for `ns` inside the current
/// span (used for work timed by the library itself, e.g. per-experiment
/// wall times returned by the repro runner).
pub fn attribute(op: Op, ns: u64) {
    if !ON.with(Cell::get) {
        return;
    }
    TRACER.with(|t| t.borrow_mut().close(op, ns, 0));
}

/// Turns tracing on or off for this thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// Drops every aggregate recorded so far on this thread.
pub fn reset() {
    TRACER.with(|t| *t.borrow_mut() = Tracer::new());
}

/// A copy of the aggregates recorded on this thread.
pub struct Snapshot {
    aggs: Vec<Agg>,
    /// Self time of every span closed beneath a pass root.
    pub in_pass_self_ns: u64,
}

impl Snapshot {
    /// The aggregate of `op`.
    pub fn get(&self, op: Op) -> &Agg {
        &self.aggs[op as usize]
    }
}

/// Snapshots this thread's aggregates.
pub fn snapshot() -> Snapshot {
    TRACER.with(|t| {
        let t = t.borrow();
        Snapshot {
            aggs: t.aggs.clone(),
            in_pass_self_ns: t.in_pass_self_ns,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_round_trip_within_resolution() {
        for ns in [0u64, 1, 63, 64, 65, 100, 1_000, 12_345, 9_876_543, 1 << 40] {
            let lo = Hist::lower_bound(Hist::bucket(ns));
            assert!(lo <= ns, "{ns} -> {lo}");
            assert!(ns - lo <= ns / 32 + 1, "{ns} -> {lo}");
        }
        let mut h = Hist::new();
        for ns in 1..=100u64 {
            h.record(ns * 1000);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((48_000..=50_000).contains(&p50), "{p50}");
        assert!(h.quantile_ns(0.99) >= 96_000);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        reset();
        set_enabled(true);
        {
            let _root = span(Op::Pass);
            {
                let _a = span(Op::ServerCheckin);
                let _b = span(Op::CoordCheckin);
                std::hint::black_box((0..10_000).sum::<u64>());
            }
            let _c = span(Op::CodecEncode);
        }
        set_enabled(false);
        let s = snapshot();
        let root = s.get(Op::Pass);
        assert_eq!(root.count, 1);
        assert_eq!(s.in_pass_self_ns + root.self_ns, root.total_ns);
        assert!(s.get(Op::ServerCheckin).total_ns >= s.get(Op::CoordCheckin).total_ns);
        reset();
    }
}
