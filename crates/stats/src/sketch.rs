//! Constant-memory, mergeable streaming sketches.
//!
//! This module and [`RunningStats`] are the streaming backbone of the
//! estimation pipeline: every hot-path consumer holds a fixed-size
//! accumulator instead of retaining raw samples. Zone aggregation, the
//! coordinator's epoch state and the region layer hold a
//! [`RunningStats`], the one mergeable moment type; the map builders,
//! latency binning and the epoch search hold the sketches below. All of
//! them share three properties:
//!
//! 1. **Incremental** — `push` is `O(1)` and allocation-free;
//! 2. **Mergeable** — `merge` combines two shards; shards are always
//!    combined in a *fixed order* (sorted `(zone, network)` key order,
//!    or explicit shard index), which makes merged floating-point
//!    results deterministic even where they are not associative;
//! 3. **Deterministic** — for a fixed push sequence the resulting
//!    bytes are identical across runs, platforms, and worker counts.
//!
//! # Byte-identity with the retained-sample pipeline
//!
//! The refactor away from raw-sample retention must not move a single
//! output bit, so each sketch reproduces the *exact* floating-point
//! operation sequence of the batch code it replaces:
//!
//! * [`RunningStats`] is its own batch form: a cell folds each sample
//!   with the same Welford `push` that `RunningStats::from_slice` runs,
//!   so streamed moments are bit-identical to the batch ones on the
//!   same values in the same order.
//! * [`MeanSketch`] is the naive `(sum, count)` fold used by the map
//!   builders and latency binning — same adds, same divide, same bits.
//! * [`AllanSketch`] replays `allan_deviation_profile` as a left fold
//!   over time-ordered pushes: per-τ current-bin Welford state, the
//!   previous bin mean, and the running sum of squared successive
//!   differences. For non-decreasing timestamps the profile is
//!   bit-identical to the batch computation.
//!
//! None of them keeps a distribution: consumers that publish quantiles
//! (the dominance 5/95 rule, CDF figures) pull raw values through the
//! explicit offline `datasets` helper into a [`crate::Ecdf`].

use serde::{Deserialize, Serialize};

use crate::{AllanPoint, RunningStats, StatsError};

/// Naive `(sum, count)` mean fold as a sketch.
///
/// This reproduces — bit for bit — the `e.0 += v; e.1 += 1; sum / n`
/// pattern previously open-coded by the map builders and the latency
/// binner, so migrating them onto the sketch moves no output bits.
/// Prefer [`RunningStats`] for new code that also needs spread.
///
/// ```
/// use wiscape_stats::sketch::MeanSketch;
///
/// let mut latency = MeanSketch::new();
/// latency.push(110.0);
/// latency.push(130.0);
/// assert_eq!(latency.mean(), 120.0);
/// assert_eq!(latency.mem_bytes(), 16);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MeanSketch {
    sum: f64,
    count: u64,
}

impl MeanSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one value (no finiteness filter: exact replacement for the
    /// open-coded fold, which had none).
    pub fn push(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    /// Merges another sketch. Merge shards in a fixed order.
    pub fn merge(&mut self, other: &MeanSketch) {
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Running sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean (`sum / count`); 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Resident bytes of this sketch (constant).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Per-τ accumulator state of an [`AllanSketch`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TauState {
    tau: f64,
    /// Bin index of the currently open bin (valid once `open` is true).
    cur_idx: u64,
    /// Whether a bin is open (at least one valid sample binned).
    open: bool,
    /// Welford state of the open bin.
    cur: RunningStats,
    /// Mean of the most recently closed bin.
    prev_mean: Option<f64>,
    /// Left-fold sum of squared successive bin-mean differences, in
    /// bin order — exactly the `windows(2)` fold of the batch code.
    sum_sq: f64,
    /// Closed (non-empty) bins so far.
    bins_closed: u64,
}

impl TauState {
    fn new(tau: f64) -> Self {
        Self {
            tau,
            cur_idx: 0,
            open: false,
            cur: RunningStats::new(),
            prev_mean: None,
            sum_sq: 0.0,
            bins_closed: 0,
        }
    }

    fn push(&mut self, dt: f64, value: f64) {
        // Negative dt saturates to bin 0 via the `as` cast, matching
        // the documented out-of-order clamp.
        let idx = (dt / self.tau).floor() as u64;
        if !self.open {
            self.cur_idx = idx;
            self.open = true;
        } else if idx > self.cur_idx {
            self.close_bin();
            self.cur_idx = idx;
        }
        // idx < cur_idx (out-of-order push): clamped into the open bin.
        self.cur.push(value);
    }

    fn close_bin(&mut self) {
        let mean = self.cur.mean();
        if let Some(prev) = self.prev_mean {
            self.sum_sq += (mean - prev).powi(2);
        }
        self.prev_mean = Some(mean);
        self.bins_closed += 1;
        self.cur = RunningStats::new();
    }

    /// Closes the open bin and produces the profile point, replicating
    /// `allan_deviation` over the bin means. `None` for < 2 bins.
    fn finish(mut self, global_mean: f64) -> Option<AllanPoint> {
        if self.open {
            self.close_bin();
        }
        let n = self.bins_closed;
        if n < 2 {
            return None;
        }
        let dev = (self.sum_sq / (2.0 * (n - 1) as f64)).sqrt();
        Some(AllanPoint {
            tau: self.tau,
            deviation: dev / global_mean.abs(),
            intervals: n as usize,
        })
    }
}

/// Incremental Allan-deviation accumulator over a fixed candidate-τ
/// set: the streaming replacement for retaining a measurement series
/// and calling [`crate::allan_deviation_profile`] on it.
///
/// For **non-decreasing timestamps** (how every pipeline source emits),
/// [`AllanSketch::profile`] is bit-identical to the batch profile of
/// the same `(t, value)` sequence: the global mean is the same naive
/// ordered sum, bins anchor at the first timestamp with the same
/// `floor((t - t0) / τ)` index, and the deviation is the same left
/// fold over successive bin means. An out-of-order push is clamped
/// into the open bin and flagged via [`AllanSketch::saw_out_of_order`].
///
/// Memory is `O(taus)` — one fixed-size `TauState` per candidate —
/// regardless of how many samples stream through.
///
/// ```
/// use wiscape_stats::sketch::AllanSketch;
///
/// // Stream (timestamp, value) pairs; ask for the deviation profile.
/// let mut a = AllanSketch::new(&[60.0, 300.0]).unwrap();
/// for i in 0..600 {
///     a.push(i as f64, if i % 2 == 0 { 900.0 } else { 800.0 });
/// }
/// let profile = a.profile().unwrap();
/// assert_eq!(profile.len(), 2);
/// assert!(profile.iter().all(|p| p.deviation >= 0.0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllanSketch {
    taus: Vec<TauState>,
    /// Pushes seen, including non-finite ones (mirrors the batch
    /// `series.len()` check).
    raw_count: u64,
    /// Naive ordered sum of all pushed values (mirrors the batch global
    /// mean; goes NaN if garbage streams in, exactly like the batch).
    sum: f64,
    t0: Option<f64>,
    last_t: f64,
    saw_non_finite: bool,
    saw_out_of_order: bool,
}

impl AllanSketch {
    /// Creates a sketch over candidate intervals `taus` (same time unit
    /// as the pushed timestamps; each must be finite and positive).
    pub fn new(taus: &[f64]) -> Result<Self, StatsError> {
        if taus.iter().any(|&t| !(t.is_finite() && t > 0.0)) {
            return Err(StatsError::InvalidBinWidth);
        }
        Ok(Self {
            taus: taus.iter().map(|&t| TauState::new(t)).collect(),
            raw_count: 0,
            sum: 0.0,
            t0: None,
            last_t: f64::NEG_INFINITY,
            saw_non_finite: false,
            saw_out_of_order: false,
        })
    }

    /// Adds one timestamped value. Push in non-decreasing `t` order for
    /// exact batch parity.
    pub fn push(&mut self, t: f64, value: f64) {
        self.raw_count += 1;
        self.sum += value;
        if !t.is_finite() || !value.is_finite() {
            // The profile will error like the batch path; skip binning.
            self.saw_non_finite = true;
            return;
        }
        let t0 = *self.t0.get_or_insert(t);
        if t < self.last_t {
            self.saw_out_of_order = true;
        }
        self.last_t = t;
        let dt = t - t0;
        for state in &mut self.taus {
            state.push(dt, value);
        }
    }

    /// Total pushes seen (including dropped non-finite ones).
    pub fn count(&self) -> u64 {
        self.raw_count
    }

    /// Whether any push carried a non-finite timestamp or value.
    pub fn saw_non_finite(&self) -> bool {
        self.saw_non_finite
    }

    /// Whether any push arrived with a timestamp before the first one
    /// (exact batch parity is void if so).
    pub fn saw_out_of_order(&self) -> bool {
        self.saw_out_of_order
    }

    /// The normalized Allan-deviation profile of everything pushed so
    /// far, matching [`crate::allan_deviation_profile`] exactly for
    /// time-ordered input. Candidates with fewer than two non-empty
    /// bins are omitted; the sketch itself is not consumed.
    pub fn profile(&self) -> Result<Vec<AllanPoint>, StatsError> {
        if self.raw_count < 4 {
            return Err(StatsError::NotEnoughSamples {
                needed: 4,
                got: self.raw_count as usize,
            });
        }
        let global_mean = self.sum / self.raw_count as f64;
        if !global_mean.is_finite() || global_mean == 0.0 {
            return Err(StatsError::NonFinite);
        }
        if self.saw_non_finite {
            // A finite global mean despite garbage (e.g. a non-finite
            // timestamp): the batch binner would reject the series.
            return Err(StatsError::NonFinite);
        }
        Ok(self
            .taus
            .iter()
            .filter_map(|s| s.clone().finish(global_mean))
            .collect())
    }

    /// Resident bytes: fixed header plus one fixed-size state per
    /// candidate τ (constant; independent of the sample count).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.taus.len() * std::mem::size_of::<TauState>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allan_deviation_profile, TimedValue};

    #[test]
    fn mean_sketch_replicates_naive_fold() {
        let data = [813.2, 991.0, 1204.8, 77.7];
        let mut naive_sum = 0.0f64;
        let mut naive_n = 0u32;
        let mut sketch = MeanSketch::new();
        for &v in &data {
            naive_sum += v;
            naive_n += 1;
            sketch.push(v);
        }
        let naive_mean = naive_sum / naive_n as f64;
        assert_eq!(sketch.mean().to_bits(), naive_mean.to_bits());
        assert_eq!(sketch.count(), 4);
        assert_eq!(sketch.sum().to_bits(), naive_sum.to_bits());
    }

    #[test]
    fn mean_sketch_merge_is_exact_for_ordered_shards() {
        let mut a = MeanSketch::new();
        a.push(1.5);
        a.push(2.5);
        let mut b = MeanSketch::new();
        b.push(4.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 8.0);
        assert_eq!(MeanSketch::new().mean(), 0.0);
    }

    #[test]
    fn allan_sketch_rejects_bad_taus() {
        assert!(AllanSketch::new(&[1.0, 0.0]).is_err());
        assert!(AllanSketch::new(&[-2.0]).is_err());
        assert!(AllanSketch::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn allan_sketch_matches_batch_profile_exactly() {
        // Irregular, time-ordered series with drift + deterministic noise.
        let series: Vec<TimedValue> = (0..800)
            .map(|i| {
                let t = i as f64 * 1.7 + ((i * 13) % 5) as f64 * 0.21;
                let v = 500.0
                    + 0.05 * t
                    + (((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 97) as f64;
                TimedValue::new(t, v)
            })
            .collect();
        let taus = [2.0, 5.0, 17.0, 60.0, 250.0, 5000.0];
        let batch = allan_deviation_profile(&series, &taus).unwrap();
        let mut sk = AllanSketch::new(&taus).unwrap();
        for tv in &series {
            sk.push(tv.t, tv.value);
        }
        let streamed = sk.profile().unwrap();
        assert_eq!(batch.len(), streamed.len());
        for (b, s) in batch.iter().zip(&streamed) {
            assert_eq!(b.tau, s.tau);
            assert_eq!(b.intervals, s.intervals);
            assert_eq!(
                b.deviation.to_bits(),
                s.deviation.to_bits(),
                "tau={} batch={} streamed={}",
                b.tau,
                b.deviation,
                s.deviation
            );
        }
        assert!(!sk.saw_out_of_order());
        assert!(!sk.saw_non_finite());
    }

    #[test]
    fn allan_sketch_replicates_batch_errors() {
        let mut sk = AllanSketch::new(&[5.0]).unwrap();
        for i in 0..3 {
            sk.push(i as f64, 1.0);
        }
        assert!(matches!(
            sk.profile(),
            Err(StatsError::NotEnoughSamples { needed: 4, got: 3 })
        ));
        sk.push(3.0, f64::NAN);
        // Now 4 pushes but the global sum is NaN -> NonFinite, exactly
        // like the batch path.
        assert!(matches!(sk.profile(), Err(StatsError::NonFinite)));
        assert!(sk.saw_non_finite());

        // Zero global mean is rejected too.
        let mut zero = AllanSketch::new(&[1.0]).unwrap();
        for i in 0..4 {
            zero.push(i as f64, if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        assert!(matches!(zero.profile(), Err(StatsError::NonFinite)));
    }

    #[test]
    fn allan_sketch_out_of_order_is_flagged_and_clamped() {
        let mut sk = AllanSketch::new(&[1.0]).unwrap();
        sk.push(10.0, 5.0);
        sk.push(11.0, 6.0);
        sk.push(9.0, 5.5); // before t0: clamped into the open bin
        sk.push(12.0, 6.5);
        assert!(sk.saw_out_of_order());
        assert!(sk.profile().is_ok());
    }

    #[test]
    fn allan_sketch_memory_is_constant() {
        let taus: Vec<f64> = (1..=24).map(|i| i as f64).collect();
        let mut sk = AllanSketch::new(&taus).unwrap();
        let before = sk.mem_bytes();
        for i in 0..10_000 {
            sk.push(i as f64, 100.0 + (i % 11) as f64);
        }
        assert_eq!(sk.mem_bytes(), before);
        assert!(before < 10_000);
    }

    #[test]
    fn allan_sketch_omits_single_bin_taus() {
        // tau covering everything -> one bin -> omitted (batch parity).
        let series: Vec<TimedValue> = (0..50)
            .map(|i| TimedValue::new(i as f64, 5.0 + (i % 3) as f64))
            .collect();
        let taus = [10.0, 1000.0];
        let batch = allan_deviation_profile(&series, &taus).unwrap();
        let mut sk = AllanSketch::new(&taus).unwrap();
        for tv in &series {
            sk.push(tv.t, tv.value);
        }
        let streamed = sk.profile().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(streamed.len(), 1);
        assert_eq!(streamed[0].tau, 10.0);
    }
}
