//! Running moments and simple summary statistics.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance/min/max accumulator
/// (Welford's algorithm), mergeable for parallel aggregation.
///
/// This is the workhorse of zone statistics and the one mergeable
/// moment type: WiScape's coordinator keeps one `RunningStats` per
/// (zone, network) cell and epoch, and the region layer pools zones by
/// merging them.
///
/// ```
/// use wiscape_stats::RunningStats;
/// let mut s = RunningStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    /// The empty accumulator of [`RunningStats::new`]: its min and max
    /// start at +∞ and −∞, so the first sample sets both.
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds an accumulator from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds a sample. Non-finite samples are ignored (a lost probe is
    /// accounted for by loss-rate statistics, not by poisoning moments).
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// combination).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact internal representation `(count, mean, m2, min, max)`.
    ///
    /// This is the snapshot/restore surface used by the WAL: the floats
    /// are handed out verbatim so a serializer that stores their raw
    /// bits can reproduce the accumulator bitwise via
    /// [`RunningStats::from_raw_parts`].
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`RunningStats::raw_parts`] output.
    ///
    /// No validation or normalization is applied: the round-trip
    /// `from_raw_parts(s.raw_parts())` is bitwise-identical to `s`.
    pub fn from_raw_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Self {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Whether no samples have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (n-1 denominator); 0 with fewer than two
    /// samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (n denominator); 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Relative standard deviation (sample std-dev / |mean|), the zone
    /// homogeneity measure of paper §3.1. Returns 0 for an empty
    /// accumulator and `f64::INFINITY` when the mean is zero but samples
    /// vary.
    pub fn rel_std_dev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let sd = self.sample_std_dev();
        if sd == 0.0 {
            return 0.0;
        }
        if self.mean == 0.0 {
            return f64::INFINITY;
        }
        sd / self.mean.abs()
    }

    /// Smallest sample seen; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Arithmetic mean of a slice; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    RunningStats::from_slice(values).mean()
}

/// Unbiased sample variance of a slice.
pub fn variance(values: &[f64]) -> f64 {
    RunningStats::from_slice(values).sample_variance()
}

/// Unbiased sample standard deviation of a slice.
pub fn std_dev(values: &[f64]) -> f64 {
    RunningStats::from_slice(values).sample_std_dev()
}

/// Relative standard deviation (std/|mean|) of a slice.
pub fn rel_std_dev(values: &[f64]) -> f64 {
    RunningStats::from_slice(values).rel_std_dev()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroed() {
        let s = RunningStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.rel_std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(RunningStats::default(), s);
    }

    #[test]
    fn single_sample() {
        let s = RunningStats::from_slice(&[3.5]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn known_moments() {
        let s = RunningStats::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.sample_variance(), 2.5);
        assert_eq!(s.population_variance(), 2.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn ignores_non_finite() {
        let mut s = RunningStats::new();
        s.push(1.0);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100)
            .map(|i| (i as f64) * 0.37 + (i % 7) as f64)
            .collect();
        let whole = RunningStats::from_slice(&data);
        let mut a = RunningStats::from_slice(&data[..33]);
        let b = RunningStats::from_slice(&data[33..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::from_slice(&[1.0, 2.0]);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e.count(), before.count());
        assert_eq!(e.mean(), before.mean());
    }

    #[test]
    fn rel_std_dev_matches_definition() {
        let data = [10.0, 12.0, 8.0, 11.0, 9.0];
        let r = rel_std_dev(&data);
        assert!((r - std_dev(&data) / mean(&data)).abs() < 1e-15);
    }

    #[test]
    fn rel_std_dev_zero_mean_varying_samples() {
        let s = RunningStats::from_slice(&[-1.0, 1.0]);
        assert_eq!(s.rel_std_dev(), f64::INFINITY);
    }

    #[test]
    fn constant_series_has_zero_rel_std() {
        assert_eq!(rel_std_dev(&[5.0; 40]), 0.0);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Classic catastrophic-cancellation case for naive two-pass sums.
        let base = 1e9;
        let data: Vec<f64> = [4.0, 7.0, 13.0, 16.0].iter().map(|v| v + base).collect();
        let s = RunningStats::from_slice(&data);
        assert!(
            (s.sample_variance() - 30.0).abs() < 1e-3,
            "{}",
            s.sample_variance()
        );
    }
}
