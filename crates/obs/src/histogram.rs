//! Fixed-bucket histograms with interpolated percentiles.

/// A histogram over `u64` samples with bucket bounds fixed at
/// construction, so [`Histogram::record`] never allocates.
///
/// `bounds` are strictly increasing *upper* edges: bucket `i`
/// (`i < bounds.len()`) counts samples `v` with
/// `bounds[i-1] <= v < bounds[i]` (bucket 0 starts at 0), and one
/// implicit overflow bucket counts `v >= bounds[last]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given upper bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "need at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. Allocation-free.
    #[inline]
    pub fn record(&mut self, v: u64) {
        // Index of the first bound > v = the covering bucket.
        let i = self.bounds.partition_point(|&b| b <= v);
        self.counts[i] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The configured upper bucket edges.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; the last is the
    /// overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Serializes the recorded values (per-bucket counts and the running
    /// aggregates). The bucket bounds are construction-time configuration
    /// and are *not* written.
    pub fn snap_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        self.counts.snap(e);
        e.put_u64(self.count);
        e.put_u64(self.sum);
        e.put_u64(self.min);
        e.put_u64(self.max);
    }

    /// The `q`-quantile (`q` clamped to `0.0..=1.0`) by linear
    /// interpolation inside the covering bucket.
    ///
    /// With `target = q * count`, the covering bucket is the first
    /// non-empty bucket whose cumulative count reaches `target`; the
    /// returned value is `lo + (target - cum_before) / bucket_count *
    /// (hi - lo)`, where `[lo, hi)` are the bucket's edges (the
    /// overflow bucket interpolates up to the observed maximum).
    /// Returns 0.0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0.0f64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && cum + c >= target {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] as f64 };
                let hi = if i < self.bounds.len() {
                    self.bounds[i] as f64
                } else {
                    (self.max as f64).max(lo)
                };
                let frac = ((target - cum) / c).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            cum += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values_land_in_the_right_bucket() {
        // Buckets: [0,10) [10,20) [20,30) [30,∞).
        let mut h = Histogram::new(&[10, 20, 30]);
        for v in [0, 9, 10, 19, 20, 29, 30, 1000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
    }

    #[test]
    fn quantiles_interpolate_exactly() {
        // 100 samples uniform in bucket [0,100): quantile(q) must land
        // at exactly q*100 under the documented interpolation.
        let mut h = Histogram::new(&[100, 200]);
        for _ in 0..100 {
            h.record(50);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.95), 95.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn quantiles_cross_buckets() {
        // 50 samples in [0,10), 50 in [10,20): the median sits exactly
        // on the shared edge, p75 in the middle of the second bucket.
        let mut h = Histogram::new(&[10, 20]);
        for _ in 0..50 {
            h.record(5);
        }
        for _ in 0..50 {
            h.record(15);
        }
        assert_eq!(h.quantile(0.5), 10.0);
        assert_eq!(h.quantile(0.75), 15.0);
    }

    #[test]
    fn overflow_bucket_interpolates_to_max() {
        let mut h = Histogram::new(&[10]);
        for _ in 0..10 {
            h.record(110); // all overflow; max = 110
        }
        assert_eq!(h.quantile(1.0), 110.0);
        assert_eq!(h.quantile(0.5), 60.0); // midway between bound and max
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new(&[1, 2]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[10, 10]);
    }
}
