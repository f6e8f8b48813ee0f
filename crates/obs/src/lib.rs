//! Deterministic observability for the WiScape workspace.
//!
//! Every instrumented layer (the parallel executor, the coordinator's
//! ingest path, the control channel, the experiment runner) records
//! telemetry through one process-wide registry defined here. The layer
//! is built around a hard contract:
//!
//! **Determinism.** Every value outside the `timing` section of a
//! snapshot is a pure function of the workload — bitwise identical
//! across runs and across `WISCAPE_THREADS` settings. That is possible
//! because the deterministic sections only admit *commutative* updates:
//! counter adds, integer histogram-bin increments, virtual-duration
//! span accumulation, and `Gauge::set_max`. Scheduling can reorder
//! them, never change their sum. Plain `Gauge::set` is last-write-wins
//! and therefore reserved for serial contexts (a CLI main, a bench
//! harness) — never inside `exec::par_map` workers.
//!
//! **Wall-clock quarantine.** Real elapsed time is useful but
//! irreproducible, so it lives exclusively in the [`timing`] module and
//! is rendered as the *last* top-level key of a snapshot, where
//! [`strip_timing`] can remove it for byte-identity comparisons.
//!
//! **Near-no-op when disabled.** Collection is off by default; every
//! update is gated on one relaxed atomic load, so un-instrumented runs
//! pay a branch, not a lock.
//!
//! # Example
//!
//! ```
//! wiscape_obs::set_enabled(true);
//! wiscape_obs::reset();
//!
//! let frames = wiscape_obs::counter("channel/frames_received");
//! frames.add(3);
//! let samples = wiscape_obs::histogram("coordinator/zone_samples", 1.0);
//! samples.record(12.0);
//! wiscape_obs::span("map/sim_window").record_micros(3_600_000_000);
//!
//! let json = wiscape_obs::snapshot_json(false);
//! assert!(json.contains("\"channel/frames_received\": 3"));
//! assert!(!json.contains("\"timing\""));
//! # wiscape_obs::set_enabled(false);
//! ```
//!
//! See `OBSERVABILITY.md` at the workspace root for the metric naming
//! scheme and the full determinism contract.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod timing;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Whether collection is enabled (process-global, off by default).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns whether collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off. Handles stay valid across toggles:
/// registration always happens, only the *updates* are gated, so a
/// handle cached in a `static` before `set_enabled(true)` records
/// normally afterwards.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A monotone event counter.
///
/// Adds are commutative, so totals are independent of scheduling —
/// safe to bump from `exec::par_map` workers.
///
/// ```
/// wiscape_obs::set_enabled(true);
/// wiscape_obs::reset();
/// let c = wiscape_obs::counter("doc/example_counter");
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// # wiscape_obs::set_enabled(false);
/// ```
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter (no-op while collection is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value (stored as `f64`).
///
/// `set` is last-write-wins: call it only from serial contexts, never
/// inside parallel workers, or the recorded value depends on the
/// schedule. `set_max` is commutative (for non-negative values) and is
/// the parallel-safe alternative for high-water marks.
///
/// ```
/// wiscape_obs::set_enabled(true);
/// wiscape_obs::reset();
/// let g = wiscape_obs::gauge("doc/example_gauge");
/// g.set_max(2.0);
/// g.set_max(7.0);
/// g.set_max(3.0);
/// assert_eq!(g.get(), 7.0);
/// # wiscape_obs::set_enabled(false);
/// ```
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge (last write wins; serial contexts only).
    pub fn set(&self, v: f64) {
        if enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` exceeds the current value.
    /// Commutative for non-negative finite values, so safe under
    /// parallelism (the IEEE-754 bit patterns of non-negative floats
    /// order like the floats themselves).
    pub fn set_max(&self, v: f64) {
        if !enabled() || v.is_nan() || v < 0.0 {
            return;
        }
        self.0.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared state behind a [`Histogram`] handle.
struct HistogramState {
    /// Bin width; bin index is `(v / width).round() as i64`.
    width: f64,
    bins: Mutex<BTreeMap<i64, u64>>,
}

/// A fixed-bin-width histogram of observed values.
///
/// Bins are integer counts keyed by `(v / width).round()`, so merges
/// and concurrent records are exactly order-insensitive: recording from
/// many threads yields bitwise-identical bins regardless of schedule.
/// Non-finite values are dropped (counted in no bin).
///
/// ```
/// wiscape_obs::set_enabled(true);
/// wiscape_obs::reset();
/// let h = wiscape_obs::histogram("doc/example_hist", 0.5);
/// h.record(1.1); // bin 2
/// h.record(0.9); // bin 2
/// h.record(0.2); // bin 0
/// assert_eq!(h.count(), 3);
/// # wiscape_obs::set_enabled(false);
/// ```
#[derive(Clone)]
pub struct Histogram(Arc<HistogramState>);

impl Histogram {
    /// Records one observation (no-op while disabled or for
    /// non-finite values).
    pub fn record(&self, v: f64) {
        if !enabled() || !v.is_finite() {
            return;
        }
        let idx = (v / self.0.width).round() as i64;
        let mut bins = self
            .0
            .bins
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *bins.entry(idx).or_insert(0) += 1;
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0
            .bins
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .sum()
    }
}

/// Shared state behind a [`Span`] handle: an occurrence count plus a
/// total duration in integer microseconds (commutative adds).
struct SpanState {
    count: AtomicU64,
    total_us: AtomicU64,
}

/// An accumulated span: how many times a region ran and for how long.
///
/// Spans in the deterministic `spans` section carry **virtual**
/// durations — simulated time, or any other value derived from the
/// workload rather than the wall clock — so they are byte-identical
/// across runs. Wall-clock spans live in [`timing`] instead.
///
/// ```
/// wiscape_obs::set_enabled(true);
/// wiscape_obs::reset();
/// let s = wiscape_obs::span("doc/example_span");
/// s.record_micros(1_500);
/// s.record_micros(500);
/// assert_eq!(s.total_micros(), 2_000);
/// assert_eq!(s.count(), 2);
/// # wiscape_obs::set_enabled(false);
/// ```
#[derive(Clone)]
pub struct Span(Arc<SpanState>);

impl Span {
    /// Records one occurrence lasting `us` virtual microseconds.
    pub fn record_micros(&self, us: u64) {
        if enabled() {
            self.0.count.fetch_add(1, Ordering::Relaxed);
            self.0.total_us.fetch_add(us, Ordering::Relaxed);
        }
    }

    /// Number of recorded occurrences.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Accumulated duration in microseconds.
    pub fn total_micros(&self) -> u64 {
        self.0.total_us.load(Ordering::Relaxed)
    }
}

/// The process-wide registry. `BTreeMap`-backed so snapshot iteration
/// is sorted by construction (lint rule D001 applies to this crate).
#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, Span>,
    timing: BTreeMap<String, Span>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

// Lock poisoning is recovered, not propagated: a metrics mutex is only
// poisoned if another meter panicked mid-update, and losing one bin
// increment is strictly better than cascading the panic into the
// ingest path (P001: the coordinator reaches these locks on every
// sample batch).
fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    f(&mut registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// Registers (or retrieves) the counter named `name`. Cheap enough to
/// call per event, but hot paths should cache the handle in a
/// `static OnceLock`.
pub fn counter(name: &str) -> Counter {
    with_registry(|r| {
        r.counters
            // lint:allow(A001): one-time name registration; hot paths hold the returned handle in a static OnceLock and never re-enter.
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    })
}

/// Registers (or retrieves) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    with_registry(|r| {
        r.gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0))))
            .clone()
    })
}

/// Registers (or retrieves) the histogram named `name` with the given
/// bin width. The width is fixed at first registration; later calls
/// with a different width return the existing histogram unchanged.
pub fn histogram(name: &str, bin_width: f64) -> Histogram {
    let width = if bin_width.is_finite() && bin_width > 0.0 {
        bin_width
    } else {
        1.0
    };
    with_registry(|r| {
        r.histograms
            .entry(name.to_string())
            .or_insert_with(|| {
                Histogram(Arc::new(HistogramState {
                    width,
                    bins: Mutex::new(BTreeMap::new()),
                }))
            })
            .clone()
    })
}

/// Registers (or retrieves) the virtual-duration span named `name`.
pub fn span(name: &str) -> Span {
    with_registry(|r| {
        r.spans
            .entry(name.to_string())
            .or_insert_with(|| {
                Span(Arc::new(SpanState {
                    count: AtomicU64::new(0),
                    total_us: AtomicU64::new(0),
                }))
            })
            .clone()
    })
}

/// Registers (or retrieves) the wall-clock span named `name`. Only the
/// [`timing`] module records into these; they render under the
/// `timing` snapshot key, exempt from byte-identity.
pub(crate) fn timing_span(name: &str) -> Span {
    with_registry(|r| {
        r.timing
            .entry(name.to_string())
            .or_insert_with(|| {
                Span(Arc::new(SpanState {
                    count: AtomicU64::new(0),
                    total_us: AtomicU64::new(0),
                }))
            })
            .clone()
    })
}

/// Zeroes every registered metric **in place**: registrations (and any
/// handles cached in `static`s) stay valid, values restart from zero.
/// Call between workloads that must produce independent snapshots —
/// e.g. the golden test runs the same workload under several
/// `WISCAPE_THREADS` settings in one process.
pub fn reset() {
    with_registry(|r| {
        for c in r.counters.values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in r.gauges.values() {
            g.0.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for h in r.histograms.values() {
            h.0.bins
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clear();
        }
        for s in r.spans.values().chain(r.timing.values()) {
            s.0.count.store(0, Ordering::Relaxed);
            s.0.total_us.store(0, Ordering::Relaxed);
        }
    });
}

/// Escapes a metric name for JSON string context. Names are plain
/// `layer/metric` identifiers in practice; this keeps the emitter total
/// anyway.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` for the snapshot: shortest round-trip decimal for
/// finite values (Rust's `{}`, stable across platforms), `null` for
/// non-finite ones (JSON has no NaN/Inf).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Keep gauges visibly floating-point so the schema is uniform.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn emit_section<V>(
    out: &mut String,
    key: &str,
    map: &BTreeMap<String, V>,
    mut emit_value: impl FnMut(&mut String, &V),
    last: bool,
) {
    out.push_str(&format!("  \"{key}\": {{"));
    let mut first = true;
    for (name, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": ", escape(name)));
        emit_value(out, v);
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push('}');
    out.push_str(if last { "\n" } else { ",\n" });
}

fn emit_span_value(out: &mut String, s: &Span, duration_key: &str) {
    out.push_str(&format!(
        "{{ \"count\": {}, \"{}\": {} }}",
        s.count(),
        duration_key,
        s.total_micros()
    ));
}

/// Renders the registry as a stable, sorted, pretty-printed JSON
/// document. Keys appear in a fixed order with `timing` last;
/// everything before `timing` is bitwise-reproducible (see the crate
/// docs). Pass `include_timing = false` to omit the wall-clock section
/// entirely — the form the golden byte-identity test compares.
///
/// ```
/// wiscape_obs::set_enabled(true);
/// wiscape_obs::reset();
/// wiscape_obs::counter("doc/snap").inc();
/// let with_timing = wiscape_obs::snapshot_json(true);
/// let without = wiscape_obs::snapshot_json(false);
/// assert_eq!(wiscape_obs::strip_timing(&with_timing), without);
/// # wiscape_obs::set_enabled(false);
/// ```
pub fn snapshot_json(include_timing: bool) -> String {
    with_registry(|r| {
        let mut out = String::from("{\n  \"schema\": \"wiscape-obs/1\",\n");
        emit_section(
            &mut out,
            "counters",
            &r.counters,
            |o, c: &Counter| o.push_str(&c.get().to_string()),
            false,
        );
        emit_section(
            &mut out,
            "gauges",
            &r.gauges,
            |o, g: &Gauge| o.push_str(&fmt_f64(g.get())),
            false,
        );
        emit_section(
            &mut out,
            "histograms",
            &r.histograms,
            |o, h: &Histogram| {
                let bins =
                    h.0.bins
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                o.push_str(&format!(
                    "{{ \"bin_width\": {}, \"count\": {}, \"bins\": {{",
                    fmt_f64(h.0.width),
                    bins.values().sum::<u64>()
                ));
                let mut first = true;
                for (idx, n) in bins.iter() {
                    if !first {
                        o.push(',');
                    }
                    first = false;
                    o.push_str(&format!(" \"{idx}\": {n}"));
                }
                o.push_str(" } }");
            },
            false,
        );
        emit_section(
            &mut out,
            "spans",
            &r.spans,
            |o, s: &Span| emit_span_value(o, s, "total_virtual_us"),
            !include_timing,
        );
        if include_timing {
            emit_section(
                &mut out,
                "timing",
                &r.timing,
                |o, s: &Span| emit_span_value(o, s, "total_wall_us"),
                true,
            );
        }
        out.push('}');
        out.push('\n');
        out
    })
}

/// Removes the `timing` section from a snapshot produced by
/// [`snapshot_json`], yielding exactly `snapshot_json(false)`. Returns
/// the input unchanged if no timing section is present.
pub fn strip_timing(json: &str) -> String {
    match json.find(",\n  \"timing\": {") {
        // The timing section is by construction the last key: replace
        // the leading comma with the span-section terminator and close
        // the document.
        Some(at) => format!("{}\n}}\n", &json[..at].trim_end_matches(",\n").to_string()),
        None => json.to_string(),
    }
}

/// Writes `snapshot_json(true)` to `path`, creating parent directories
/// as needed.
pub fn write_snapshot(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, snapshot_json(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and Rust runs tests concurrently,
    // so every test here serializes on one lock and owns enable/reset.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().expect("test serial lock")
    }

    #[test]
    fn disabled_updates_are_dropped() {
        let _g = serial();
        set_enabled(false);
        reset();
        let c = counter("test/disabled");
        c.add(5);
        assert_eq!(c.get(), 0);
        set_enabled(true);
        c.add(5);
        assert_eq!(c.get(), 5);
        set_enabled(false);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let _g = serial();
        set_enabled(true);
        reset();
        counter("test/z_last").add(2);
        counter("test/a_first").inc();
        gauge("test/gauge").set(2.5);
        histogram("test/hist", 1.0).record(3.2);
        span("test/span").record_micros(10);
        let a = snapshot_json(false);
        let b = snapshot_json(false);
        assert_eq!(a, b);
        let first = a.find("test/a_first").expect("a_first present");
        let last = a.find("test/z_last").expect("z_last present");
        assert!(first < last, "sections must iterate sorted");
        assert!(a.contains("\"test/gauge\": 2.5"));
        assert!(a.ends_with("}\n"));
        set_enabled(false);
    }

    #[test]
    fn strip_timing_matches_timing_free_snapshot() {
        let _g = serial();
        set_enabled(true);
        reset();
        counter("test/strip").inc();
        {
            let _span = timing::wall_span("test/strip_wall");
        }
        let with = snapshot_json(true);
        assert!(with.contains("\"timing\""));
        assert!(
            with.rfind("\"timing\"") > with.rfind("\"spans\""),
            "timing must be the last section"
        );
        assert_eq!(strip_timing(&with), snapshot_json(false));
        // Already-stripped input round-trips unchanged.
        let bare = snapshot_json(false);
        assert_eq!(strip_timing(&bare), bare);
        set_enabled(false);
    }

    #[test]
    fn reset_preserves_registrations_and_handles() {
        let _g = serial();
        set_enabled(true);
        reset();
        let c = counter("test/reset_keep");
        c.add(3);
        reset();
        assert_eq!(c.get(), 0);
        // The old handle still feeds the registered metric.
        c.add(2);
        assert!(snapshot_json(false).contains("\"test/reset_keep\": 2"));
        set_enabled(false);
    }

    #[test]
    fn histogram_bins_follow_the_sketch_rule() {
        let _g = serial();
        set_enabled(true);
        reset();
        let h = histogram("test/bins", 0.5);
        h.record(1.1); // (1.1/0.5).round() = 2
        h.record(0.9); // 2
        h.record(-0.2); // 0
        h.record(f64::NAN); // dropped
        assert_eq!(h.count(), 3);
        let snap = snapshot_json(false);
        assert!(snap.contains("\"2\": 2"), "{snap}");
        assert!(snap.contains("\"0\": 1"), "{snap}");
        set_enabled(false);
    }

    #[test]
    fn concurrent_counting_is_schedule_independent() {
        let _g = serial();
        set_enabled(true);
        reset();
        let c = counter("test/parallel");
        let h = histogram("test/parallel_hist", 1.0);
        // lint:allow(D004): obs sits below simcore in the dependency graph, so this schedule-independence test must drive raw threads itself.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        c.inc();
                        h.record((i % 7) as f64);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        set_enabled(false);
    }
}
