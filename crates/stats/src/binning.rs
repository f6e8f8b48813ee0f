//! Time binning of irregular measurement series.
//!
//! The paper contrasts statistics of the same trace aggregated at a
//! coarse time scale (30-minute bins) and a fine one (10-second bins) —
//! Table 4 — and the Allan-deviation epoch search re-bins a series at many
//! candidate widths. Both are built on [`bin_series`].

use serde::{Deserialize, Serialize};

use crate::{RunningStats, StatsError};

/// A timestamped scalar sample. The time unit is the caller's choice but
/// must be consistent within a series (WiScape uses seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedValue {
    /// Timestamp.
    pub t: f64,
    /// Measured value.
    pub value: f64,
}

impl TimedValue {
    /// Creates a timestamped sample.
    pub fn new(t: f64, value: f64) -> Self {
        Self { t, value }
    }
}

/// Bins a timestamped series into consecutive `width`-length intervals
/// anchored at the earliest timestamp, returning per-bin statistics for
/// each **non-empty** bin, in time order.
///
/// The input need not be sorted; binning sorts a copy internally.
pub fn bin_series(series: &[TimedValue], width: f64) -> Result<Vec<RunningStats>, StatsError> {
    if !(width.is_finite() && width > 0.0) {
        return Err(StatsError::InvalidBinWidth);
    }
    if series.is_empty() {
        return Ok(Vec::new());
    }
    if series
        .iter()
        .any(|tv| !tv.t.is_finite() || !tv.value.is_finite())
    {
        return Err(StatsError::NonFinite);
    }
    let t0 = series.iter().map(|tv| tv.t).fold(f64::INFINITY, f64::min);
    // Accumulate into a sparse map keyed by bin index; emit in order.
    let mut bins: std::collections::BTreeMap<u64, RunningStats> = std::collections::BTreeMap::new();
    for tv in series {
        let idx = ((tv.t - t0) / width).floor() as u64;
        bins.entry(idx).or_default().push(tv.value);
    }
    Ok(bins.into_values().collect())
}

/// Per-bin means of a timestamped series (see [`bin_series`]).
pub fn bin_means(series: &[TimedValue], width: f64) -> Result<Vec<f64>, StatsError> {
    Ok(bin_series(series, width)?
        .into_iter()
        .map(|s| s.mean())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tv(t: f64, v: f64) -> TimedValue {
        TimedValue::new(t, v)
    }

    #[test]
    fn rejects_bad_width() {
        let s = [tv(0.0, 1.0)];
        assert!(bin_series(&s, 0.0).is_err());
        assert!(bin_series(&s, -1.0).is_err());
        assert!(bin_series(&s, f64::NAN).is_err());
    }

    #[test]
    fn empty_series_gives_no_bins() {
        assert!(bin_series(&[], 10.0).unwrap().is_empty());
    }

    #[test]
    fn bins_anchor_at_first_timestamp() {
        let s = [tv(100.0, 1.0), tv(104.0, 2.0), tv(111.0, 3.0)];
        let bins = bin_series(&s, 10.0).unwrap();
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].count(), 2);
        assert_eq!(bins[0].mean(), 1.5);
        assert_eq!(bins[1].count(), 1);
        assert_eq!(bins[1].mean(), 3.0);

        // A bin's min and max come from its own samples, never from the
        // zeros of an empty accumulator.
        let s = [tv(0.0, 5.0), tv(1.0, 7.0), tv(10.0, -3.0)];
        let bins = bin_series(&s, 10.0).unwrap();
        assert_eq!((bins[0].min(), bins[0].max()), (Some(5.0), Some(7.0)));
        assert_eq!((bins[1].min(), bins[1].max()), (Some(-3.0), Some(-3.0)));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = [tv(111.0, 3.0), tv(100.0, 1.0), tv(104.0, 2.0)];
        let means = bin_means(&s, 10.0).unwrap();
        assert_eq!(means, vec![1.5, 3.0]);
    }

    #[test]
    fn empty_bins_are_skipped() {
        let s = [tv(0.0, 1.0), tv(95.0, 9.0)];
        let bins = bin_series(&s, 10.0).unwrap();
        assert_eq!(bins.len(), 2); // bins 1..8 are empty and omitted
    }

    #[test]
    fn rejects_non_finite() {
        assert!(bin_series(&[tv(f64::NAN, 1.0)], 1.0).is_err());
        assert!(bin_series(&[tv(0.0, f64::INFINITY)], 1.0).is_err());
    }

    #[test]
    fn coarse_bins_have_smaller_std_than_fine_bins() {
        // Reproduces the Table 4 phenomenon on synthetic data: i.i.d.
        // noise averaged over wide bins has lower dispersion of bin means
        // than over narrow bins.
        let series: Vec<TimedValue> = (0..4000)
            .map(|i| {
                // Deterministic pseudo-noise.
                let x = ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0;
                tv(i as f64, 100.0 + (x - 0.5) * 40.0)
            })
            .collect();
        let fine = bin_means(&series, 10.0).unwrap();
        let coarse = bin_means(&series, 400.0).unwrap();
        let sd_fine = crate::std_dev(&fine);
        let sd_coarse = crate::std_dev(&coarse);
        assert!(
            sd_fine > 2.0 * sd_coarse,
            "fine {sd_fine} should exceed coarse {sd_coarse}"
        );
    }

    #[test]
    fn single_bin_when_width_covers_span() {
        let s = [tv(0.0, 1.0), tv(5.0, 2.0), tv(9.0, 3.0)];
        let bins = bin_series(&s, 100.0).unwrap();
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].count(), 3);
        assert_eq!(bins[0].mean(), 2.0);
    }
}
