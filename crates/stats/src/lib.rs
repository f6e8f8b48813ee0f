//! Statistics substrate for WiScape.
//!
//! Every statistical primitive the paper's methodology relies on lives
//! here, implemented from first principles so the framework has no opaque
//! dependencies:
//!
//! * running moments (Welford) and relative standard deviation — used to
//!   size zones (paper §3.1, Fig 4);
//! * empirical CDFs and percentiles — used throughout the evaluation and
//!   for the persistent-dominance rule (paper §4.2.1);
//! * time binning — the 30-minute vs 10-second contrast (paper §3.2.1,
//!   Table 4);
//! * **Allan deviation** — zone-specific epoch estimation (paper §3.2.2,
//!   Fig 6);
//! * histograms, entropy, KL divergence and the **symmetric normalized KLD
//!   (NKLD)** — sample-count sizing (paper §3.3, Fig 7);
//! * Pearson correlation — the speed-vs-latency independence check
//!   (paper §2, Fig 2);
//! * **streaming sketches** ([`sketch`]) — constant-memory, mergeable
//!   accumulators (naive means, incremental Allan deviation) that, with
//!   [`RunningStats`], back the retain-nothing estimation pipeline.
//!
//! All functions are pure and deterministic; nothing here consumes
//! randomness.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod allan;
mod binning;
mod corr;
mod ecdf;
mod histogram;
mod kld;
mod moments;
pub mod sketch;

pub use allan::{allan_deviation, allan_deviation_profile, profile_argmin, AllanPoint};
pub use binning::{bin_means, bin_series, TimedValue};
pub use corr::pearson_correlation;
pub use ecdf::Ecdf;
pub use histogram::Histogram;
pub use kld::{entropy, kl_divergence, nkld, NKLD_SIMILARITY_THRESHOLD};
pub use moments::{mean, rel_std_dev, std_dev, variance, RunningStats};
pub use sketch::{AllanSketch, MeanSketch};

/// Errors produced by statistical routines on degenerate input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The operation needs at least this many samples.
    NotEnoughSamples {
        /// Samples required.
        needed: usize,
        /// Samples supplied.
        got: usize,
    },
    /// A histogram or binning operation was given a non-positive width.
    InvalidBinWidth,
    /// Input contained NaN or infinite values.
    NonFinite,
    /// The two inputs must have equal, non-zero length.
    LengthMismatch,
    /// Histogram range is empty or inverted.
    InvalidRange,
}

impl core::fmt::Display for StatsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StatsError::NotEnoughSamples { needed, got } => {
                write!(f, "need >= {needed} samples, got {got}")
            }
            StatsError::InvalidBinWidth => write!(f, "bin width must be positive and finite"),
            StatsError::NonFinite => write!(f, "input contains non-finite values"),
            StatsError::LengthMismatch => write!(f, "inputs must have equal non-zero length"),
            StatsError::InvalidRange => write!(f, "empty or inverted histogram range"),
        }
    }
}

impl std::error::Error for StatsError {}

pub(crate) fn ensure_finite(values: &[f64]) -> Result<(), StatsError> {
    if values.iter().any(|v| !v.is_finite()) {
        Err(StatsError::NonFinite)
    } else {
        Ok(())
    }
}
