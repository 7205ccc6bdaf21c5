//! Run metrics and aggregation helpers.

use crate::msg::LatencyBreakdown;
use crate::scheme::SchemeKind;

/// Everything one full-system run produces — the raw material for every
/// figure in §6.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// The scheme simulated.
    pub scheme: SchemeKind,
    /// Benchmark name.
    pub benchmark: String,
    /// Core cycles until every PE retired its quota and got its replies.
    pub cycles: u64,
    /// Execution time in nanoseconds.
    pub exec_ns: f64,
    /// Instructions per cycle over all PEs.
    pub ipc: f64,
    /// `false` if the run hit the cycle cap before finishing.
    pub completed: bool,
    /// Figure 10's latency split (nanoseconds).
    pub latency: LatencyBreakdown,
    /// Dynamic NoC energy in joules.
    pub dynamic_j: f64,
    /// Leakage NoC energy in joules.
    pub leakage_j: f64,
    /// Energy-delay product in joule·seconds.
    pub edp: f64,
    /// Total NoC area in mm².
    pub area_mm2: f64,
    /// µbumps consumed by interposer links.
    pub ubumps: usize,
    /// Measured reply share of NoC bits (§2.2 reports 0.727).
    pub reply_bit_fraction: f64,
}

impl RunMetrics {
    /// Total NoC energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.dynamic_j + self.leakage_j
    }
}

/// Geometric mean of positive values — the paper's cross-benchmark
/// average for normalized metrics.
///
/// Edge cases (pinned by unit tests, do not change silently):
/// * an empty slice yields `0.0` (a missing benchmark set reads as "no
///   result", not a crash or a misleading `1.0`);
/// * any `0.0` element collapses the mean to `0.0` (`ln(0) = -inf`,
///   `exp(-inf) = 0`), matching the limit of the product form;
/// * negative elements yield `NaN` (`ln` of a negative is `NaN`) — the
///   caller fed in something that is not a ratio, and a loud `NaN`
///   beats a silently wrong average.
///
/// ```
/// # use equinox_core::metrics::geomean;
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let ln_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (ln_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 8.0]) - 8.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn geomean_zero_element_collapses_to_zero() {
        assert_eq!(geomean(&[0.0, 2.0, 4.0]), 0.0);
        assert_eq!(geomean(&[0.0]), 0.0);
    }

    #[test]
    fn geomean_negative_element_is_nan() {
        assert!(geomean(&[-1.0]).is_nan());
        assert!(geomean(&[2.0, -3.0]).is_nan());
    }
}
