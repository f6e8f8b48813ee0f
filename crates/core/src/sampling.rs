//! Sample-count sizing (paper §3.3).
//!
//! Two questions govern how little WiScape can measure:
//!
//! 1. **Distribution similarity** — after how many client-sourced samples
//!    does their distribution become statistically similar (NKLD ≤ 0.1)
//!    to the zone's long-term distribution? (Fig 7: ~50–90 in Madison,
//!    ~80–120 in New Brunswick.) → [`samples_until_similar`].
//! 2. **Point accuracy** — how many back-to-back packets are needed so
//!    the mean estimate lands within X% of ground truth with high
//!    confidence? (Table 5: 40–120 depending on network/region.)
//!    → [`packets_for_accuracy`].

use rand::seq::SliceRandom;
use rand::Rng;
use wiscape_stats::{nkld, Histogram, StatsError, NKLD_SIMILARITY_THRESHOLD};

/// Histogram bins used when discretizing distributions for NKLD. The
/// paper does not report its binning; 10 bins over the pooled range is
/// fine-grained enough to distinguish shifted distributions yet coarse
/// enough that a few tens of samples can populate it (the regime where
/// Fig 7's curves cross the 0.1 threshold).
pub const NKLD_BINS: usize = 10;

/// Laplace smoothing applied to NKLD histograms so divergences stay
/// finite on sparse samples.
pub const NKLD_SMOOTHING: f64 = 0.5;

/// NKLD between two sample sets over their pooled support.
pub fn sample_nkld(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    if a.is_empty() || b.is_empty() {
        return Err(StatsError::NotEnoughSamples { needed: 1, got: 0 });
    }
    let range = pooled_range(bounds(NO_BOUNDS, a), b);
    nkld(&smoothed_pmf(range, a)?, &smoothed_pmf(range, b)?)
}

/// The `(min, max)` of no samples: the identity of [`bounds`].
const NO_BOUNDS: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// Folds `samples` into running `(min, max)` bounds, in slice order
/// (`f64::min` and `f64::max` skip NaN). Folding `a` and then `b` is
/// the one fold over `a` chained with `b`, so bounds computed once for
/// a fixed `a` can be extended per `b` with bitwise the same result.
fn bounds((lo, hi): (f64, f64), samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((lo, hi), |(lo, hi), &x| (f64::min(lo, x), f64::max(hi, x)))
}

/// The binning range `[lo, hi)` of `samples` pooled with the samples
/// whose bounds are `pooled`: their joint min and max, widened to one
/// unit when every pooled sample is equal.
fn pooled_range(pooled: (f64, f64), samples: &[f64]) -> (f64, f64) {
    let (lo, hi) = bounds(pooled, samples);
    (lo, if hi > lo { hi } else { lo + 1.0 })
}

/// The one NKLD binning: `samples` in [`NKLD_BINS`] bins over `range`,
/// Laplace-smoothed by [`NKLD_SMOOTHING`].
fn smoothed_pmf((lo, hi): (f64, f64), samples: &[f64]) -> Result<Vec<f64>, StatsError> {
    Ok(Histogram::from_samples(lo, hi, NKLD_BINS, samples)?.pmf_smoothed(NKLD_SMOOTHING))
}

/// How [`nkld_curve_mode`] draws an `n`-sample subset from the incoming
/// pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// A random contiguous window — "one client collected n consecutive
    /// samples in one sitting". Exposes epoch-scale drift: the window
    /// sits inside one epoch, so its distribution is offset from the
    /// long-term one until n spans several epochs.
    Contiguous,
    /// A random scattered subset — "n samples accumulated across visits
    /// at different times within the zone", which is how WiScape's
    /// opportunistic collection actually accumulates an epoch's quota.
    Scattered,
}

/// The Fig 7 curve: average NKLD between `n` samples drawn from
/// `incoming` (per `mode`) and the `reference` distribution, for each
/// `n` in `checkpoints`, averaged over `iterations` random draws.
///
/// Every draw's NKLD is bitwise [`sample_nkld`]`(reference, draw)`, but
/// the reference is not re-scanned per draw: its bounds are folded
/// once, and it is binned once over its own range and otherwise only
/// when a draw's pooled range differs bitwise from the last range that
/// was not its own. A draw whose samples lie inside the reference's
/// range, which is most of them, pools to the reference's own range and
/// reuses that pmf, also right after a draw that widened the range.
pub fn nkld_curve_mode<R: Rng>(
    reference: &[f64],
    incoming: &[f64],
    checkpoints: &[usize],
    iterations: usize,
    mode: WindowMode,
    rng: &mut R,
) -> Result<Vec<(usize, f64)>, StatsError> {
    if reference.len() < 4 || incoming.len() < 4 {
        return Err(StatsError::NotEnoughSamples {
            needed: 4,
            got: reference.len().min(incoming.len()),
        });
    }
    let reference_bounds = bounds(NO_BOUNDS, reference);
    let range_bits = |(lo, hi): (f64, f64)| [lo.to_bits(), hi.to_bits()];
    let own_key = range_bits(pooled_range(reference_bounds, &[]));
    // The reference pmf over its own range, and over the last pooled
    // range that was not its own; each keyed by its range's bits and
    // binned on first use.
    let mut own: Option<([u64; 2], Vec<f64>)> = None;
    let mut widened: Option<([u64; 2], Vec<f64>)> = None;
    let mut out = Vec::with_capacity(checkpoints.len());
    for &n in checkpoints {
        let n = n.max(1);
        let mut acc = 0.0;
        let mut cnt = 0;
        for _ in 0..iterations.max(1) {
            let scattered: Vec<f64>;
            let take: &[f64] = if n >= incoming.len() {
                incoming
            } else {
                match mode {
                    WindowMode::Contiguous => {
                        let start = rng.gen_range(0..=incoming.len() - n);
                        &incoming[start..start + n]
                    }
                    WindowMode::Scattered => {
                        scattered = incoming.choose_multiple(rng, n).copied().collect();
                        &scattered
                    }
                }
            };
            let range = pooled_range(reference_bounds, take);
            let key = range_bits(range);
            let slot = if key == own_key {
                &mut own
            } else {
                &mut widened
            };
            let reference_pmf = match slot {
                Some((k, pmf)) if *k == key => pmf,
                slot => &slot.insert((key, smoothed_pmf(range, reference)?)).1,
            };
            acc += nkld(reference_pmf, &smoothed_pmf(range, take)?)?;
            cnt += 1;
        }
        out.push((n, acc / cnt as f64));
    }
    Ok(out)
}

/// [`nkld_curve_mode`] with contiguous windows (the conservative mode).
pub fn nkld_curve<R: Rng>(
    reference: &[f64],
    incoming: &[f64],
    checkpoints: &[usize],
    iterations: usize,
    rng: &mut R,
) -> Result<Vec<(usize, f64)>, StatsError> {
    nkld_curve_mode(
        reference,
        incoming,
        checkpoints,
        iterations,
        WindowMode::Contiguous,
        rng,
    )
}

/// Smallest checkpoint count at which the averaged NKLD drops to the
/// paper's similarity threshold (0.1); `None` if it never does.
pub fn samples_until_similar<R: Rng>(
    reference: &[f64],
    incoming: &[f64],
    checkpoints: &[usize],
    iterations: usize,
    rng: &mut R,
) -> Result<Option<usize>, StatsError> {
    let curve = nkld_curve(reference, incoming, checkpoints, iterations, rng)?;
    Ok(curve
        .into_iter()
        .find(|(_, v)| *v <= NKLD_SIMILARITY_THRESHOLD)
        .map(|(n, _)| n))
}

/// Accuracy target for [`packets_for_accuracy`].
#[derive(Debug, Clone, Copy)]
pub struct AccuracyTarget {
    /// Maximum relative error of the mean estimate (paper: 3% → "97%
    /// accuracy").
    pub rel_error: f64,
    /// Required success probability across trials (we use 95%).
    pub confidence: f64,
    /// Resampling iterations per candidate count (paper: 100).
    pub iterations: usize,
}

impl Default for AccuracyTarget {
    fn default() -> Self {
        Self {
            rel_error: 0.03,
            confidence: 0.95,
            iterations: 100,
        }
    }
}

/// Table 5's question: the minimum number of back-to-back packets whose
/// mean estimates `truth` within `target.rel_error` in at least
/// `target.confidence` of trials. Candidates are multiples of 10
/// (matching the paper's granularity); returns `None` if even
/// `max_packets` fails.
pub fn packets_for_accuracy<R: Rng>(
    pool: &[f64],
    truth: f64,
    max_packets: usize,
    target: &AccuracyTarget,
    rng: &mut R,
) -> Option<usize> {
    if pool.is_empty() || !(truth.is_finite() && truth != 0.0) {
        return None;
    }
    let mut n = 10;
    while n <= max_packets {
        let mut ok = 0;
        for _ in 0..target.iterations {
            let mean: f64 = pool.choose_multiple(rng, n.min(pool.len())).sum::<f64>()
                / n.min(pool.len()) as f64;
            if ((mean - truth) / truth).abs() <= target.rel_error {
                ok += 1;
            }
        }
        if ok as f64 >= target.confidence * target.iterations as f64 {
            return Some(n);
        }
        n += 10;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    /// Log-normal-ish samples around `mean` with relative spread `cv`.
    fn pool(mean: f64, cv: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let d = wiscape_simcore::dist::LogNormal::from_mean_cv(mean, cv).unwrap();
        (0..n).map(|_| d.sample(&mut r)).collect()
    }

    #[test]
    fn same_distribution_becomes_similar_within_paper_scale() {
        // The Fig 7 regime: windows drawn from the same distribution
        // cross the 0.1 threshold at on the order of 100 samples.
        let p = pool(1000.0, 0.1, 4000, 1);
        let q = pool(1000.0, 0.1, 4000, 2);
        let checkpoints: Vec<usize> = (1..=25).map(|k| k * 10).collect();
        let mut r = rng();
        let n = samples_until_similar(&p, &q, &checkpoints, 50, &mut r).unwrap();
        let n = n.expect("must converge by 250 samples");
        assert!((60..=250).contains(&n), "crossing at {n}");
    }

    #[test]
    fn nkld_curve_decreases_with_n() {
        let reference = pool(1000.0, 0.12, 4000, 2);
        let incoming = pool(1000.0, 0.12, 4000, 3);
        let mut r = rng();
        let curve = nkld_curve(&reference, &incoming, &[5, 20, 80, 320], 50, &mut r).unwrap();
        assert!(curve[0].1 > curve[3].1, "curve {curve:?}");
    }

    #[test]
    fn different_distributions_never_similar() {
        let reference = pool(1000.0, 0.1, 2000, 4);
        let shifted = pool(2000.0, 0.1, 2000, 5);
        let mut r = rng();
        let n = samples_until_similar(&reference, &shifted, &[20, 80, 320], 30, &mut r).unwrap();
        assert_eq!(n, None);
    }

    /// Samples with block-wise mean drift: consecutive blocks of
    /// `block` samples share a mean offset of relative scale
    /// `drift_cv` — the structure client-sourced windows actually have
    /// (a window lands inside one epoch of the zone's drift).
    fn drifting_pool(
        mean: f64,
        cv: f64,
        drift_cv: f64,
        block: usize,
        n: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let noise = wiscape_simcore::dist::LogNormal::from_mean_cv(1.0, cv).unwrap();
        let shift = wiscape_simcore::dist::Normal::new(0.0, drift_cv).unwrap();
        let mut out = Vec::with_capacity(n);
        let mut offset = 0.0;
        for i in 0..n {
            if i % block == 0 {
                offset = shift.sample(&mut r);
            }
            out.push(mean * (1.0 + offset) * noise.sample(&mut r));
        }
        out
    }

    #[test]
    fn higher_variance_needs_more_samples() {
        // The Fig 7 WI-vs-NJ contrast: zones with stronger epoch-scale
        // drift need more contiguous samples before their window
        // distribution matches the long-term one.
        let checkpoints: Vec<usize> = (1..=40).map(|k| k * 5).collect();
        let calm_ref = drifting_pool(1000.0, 0.10, 0.02, 50, 6000, 6);
        let calm_in = drifting_pool(1000.0, 0.10, 0.02, 50, 6000, 7);
        let wild_ref = drifting_pool(1000.0, 0.10, 0.15, 50, 6000, 8);
        let wild_in = drifting_pool(1000.0, 0.10, 0.15, 50, 6000, 9);
        let mut r = rng();
        let n_calm = samples_until_similar(&calm_ref, &calm_in, &checkpoints, 60, &mut r)
            .unwrap()
            .expect("calm should converge");
        let n_wild = samples_until_similar(&wild_ref, &wild_in, &checkpoints, 60, &mut r)
            .unwrap()
            .unwrap_or(usize::MAX);
        assert!(n_wild > n_calm, "wild {n_wild} vs calm {n_calm}");
    }

    #[test]
    fn packets_for_accuracy_tracks_cv_like_table5() {
        // cv 0.145 (NetA-WI UDP) needs ~90; cv 0.097 (NetC-WI) ~40.
        let mut r = rng();
        let high = packets_for_accuracy(
            &pool(1000.0, 0.145, 20_000, 10),
            1000.0,
            400,
            &AccuracyTarget::default(),
            &mut r,
        )
        .unwrap();
        let low = packets_for_accuracy(
            &pool(1000.0, 0.097, 20_000, 11),
            1000.0,
            400,
            &AccuracyTarget::default(),
            &mut r,
        )
        .unwrap();
        assert!(high > low, "high-cv {high} vs low-cv {low}");
        assert!((60..=150).contains(&high), "high {high}");
        assert!((20..=80).contains(&low), "low {low}");
    }

    #[test]
    fn packets_for_accuracy_edge_cases() {
        let mut r = rng();
        assert_eq!(
            packets_for_accuracy(&[], 100.0, 100, &AccuracyTarget::default(), &mut r),
            None
        );
        assert_eq!(
            packets_for_accuracy(&[1.0], 0.0, 100, &AccuracyTarget::default(), &mut r),
            None
        );
        // Impossible target never met.
        let p = pool(1000.0, 0.5, 1000, 12);
        let res = packets_for_accuracy(
            &p,
            1000.0,
            20,
            &AccuracyTarget {
                rel_error: 0.001,
                ..Default::default()
            },
            &mut r,
        );
        assert_eq!(res, None);
    }

    type Curve = Result<Vec<(usize, f64)>, StatsError>;

    /// The loop [`nkld_curve_mode`] replaced: each draw through
    /// [`sample_nkld`], re-binning the reference every time. Also returns
    /// each draw's pooled `(min, max)`, folded over the reference chained
    /// with the draw as `sample_nkld` used to fold it.
    fn per_draw_curve(
        reference: &[f64],
        incoming: &[f64],
        checkpoints: &[usize],
        iterations: usize,
        mode: WindowMode,
        rng: &mut ChaCha8Rng,
    ) -> (Curve, Vec<(f64, f64)>) {
        let mut ranges = Vec::new();
        let mut out = Vec::new();
        for &n in checkpoints {
            let n = n.max(1);
            let mut acc = 0.0;
            let mut cnt = 0;
            for _ in 0..iterations.max(1) {
                let take: Vec<f64> = if n >= incoming.len() {
                    incoming.to_vec()
                } else {
                    match mode {
                        WindowMode::Contiguous => {
                            let start = rng.gen_range(0..=incoming.len() - n);
                            incoming[start..start + n].to_vec()
                        }
                        WindowMode::Scattered => {
                            incoming.choose_multiple(rng, n).copied().collect()
                        }
                    }
                };
                let pooled = || reference.iter().chain(&take).copied();
                ranges.push((
                    pooled().fold(f64::INFINITY, f64::min),
                    pooled().fold(f64::NEG_INFINITY, f64::max),
                ));
                match sample_nkld(reference, &take) {
                    Ok(v) => acc += v,
                    Err(e) => return (Err(e), ranges),
                }
                cnt += 1;
            }
            out.push((n, acc / cnt as f64));
        }
        (Ok(out), ranges)
    }

    fn bits(curve: Curve) -> Result<Vec<(usize, u64)>, StatsError> {
        curve.map(|c| c.into_iter().map(|(n, v)| (n, v.to_bits())).collect())
    }

    #[test]
    fn reference_memo_matches_per_draw_nkld_bitwise() {
        // Integers 0..=10 on the reference's bin edges, a -0.0 beside its
        // 0.0s, and NaN; the incoming pool reaches one unit past either
        // end, so some draws widen the pooled range and most keep it.
        let edges: Vec<f64> = (0..400)
            .map(|i| match i {
                0 => -0.0,
                _ if i % 37 == 5 => f64::NAN,
                _ => (i % 11) as f64,
            })
            .collect();
        let wider: Vec<f64> = (0..300)
            .map(|i| match i {
                _ if i % 41 == 3 => f64::NAN,
                _ if i % 29 == 0 => -0.0,
                _ => ((i * 7) % 25) as f64 * 0.5 - 1.0,
            })
            .collect();
        // Widening only the top of the range keeps `lo` while `hi`
        // moves, so a memo keyed on one end alone reuses a stale pmf.
        let above: Vec<f64> = (0..300)
            .map(|i| {
                if i % 23 == 0 {
                    14.0 + (i % 5) as f64
                } else {
                    (i % 10) as f64
                }
            })
            .collect();
        // A constant reference pools to `[5, 6)` whether or not a draw
        // holds a 6.0.
        let constant = vec![5.0; 64];
        let mostly_constant: Vec<f64> = (0..80)
            .map(|i| if i % 9 == 0 { 6.0 } else { 5.0 })
            .collect();
        // An infinite sample fails the first draw that holds it.
        let with_inf: Vec<f64> = (0..300)
            .map(|i| {
                if i == 250 {
                    f64::INFINITY
                } else {
                    (i % 10) as f64
                }
            })
            .collect();
        // Every fourth sample lies above the reference's range, so short
        // draws keep leaving that range and coming back to it.
        let alternating: Vec<f64> = (0..300)
            .map(|i| {
                if i % 4 == 3 {
                    12.0 + (i % 3) as f64
                } else {
                    (i % 10) as f64
                }
            })
            .collect();
        let lognormal = (pool(1000.0, 0.1, 2000, 21), pool(1000.0, 0.1, 1500, 22));
        let cases: [(&str, &[f64], &[f64]); 8] = [
            ("edges/wider", &edges, &wider),
            ("edges/above", &edges, &above),
            ("edges/alternating", &edges, &alternating),
            ("wider/edges", &wider, &edges),
            ("constant", &constant, &mostly_constant),
            ("edges/inf", &edges, &with_inf),
            ("inf/edges", &with_inf, &edges),
            ("lognormal", &lognormal.0, &lognormal.1),
        ];
        let (mut kept, mut changed, mut returned, mut errors) = (0, 0, 0, 0);
        for mode in [WindowMode::Contiguous, WindowMode::Scattered] {
            for (name, reference, incoming) in cases {
                let checkpoints = [1, 2, 5, 20, 100, incoming.len() - 1, incoming.len() + 3];
                let seed = 7 + reference.len() as u64;
                let mut r = ChaCha8Rng::seed_from_u64(seed);
                let memo = nkld_curve_mode(reference, incoming, &checkpoints, 25, mode, &mut r);
                let mut r = ChaCha8Rng::seed_from_u64(seed);
                let (direct, ranges) =
                    per_draw_curve(reference, incoming, &checkpoints, 25, mode, &mut r);
                errors += usize::from(direct.is_err());
                assert_eq!(bits(memo), bits(direct), "{name} {mode:?}");
                let range_bits = |r: &(f64, f64)| [r.0.to_bits(), r.1.to_bits()];
                let own = range_bits(&(
                    reference.iter().copied().fold(f64::INFINITY, f64::min),
                    reference.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                ));
                for w in ranges.windows(2) {
                    if range_bits(&w[0]) == range_bits(&w[1]) {
                        kept += 1;
                    } else {
                        changed += 1;
                    }
                    returned += usize::from(
                        name == "edges/alternating"
                            && range_bits(&w[0]) != range_bits(&w[1])
                            && range_bits(&w[1]) == own,
                    );
                }
            }
        }
        // Both memo paths ran: draws that reuse the last pooled range
        // and draws that re-bin the reference, and draws back in the
        // reference's own range right after one that left it; so did the
        // error path.
        assert!(
            kept > 100 && changed > 100 && returned > 20,
            "kept {kept}, changed {changed}, returned {returned}"
        );
        assert_eq!(errors, 4);
    }

    #[test]
    fn sample_nkld_edges() {
        assert!(sample_nkld(&[], &[1.0]).is_err());
        // Constant identical samples: NKLD 0.
        let v = vec![5.0; 50];
        assert!(sample_nkld(&v, &v).unwrap() < 1e-9);
    }
}
