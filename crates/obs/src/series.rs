//! Interval time-series sampling into preallocated columns.

/// Handle to one registered series (column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// A columnar time series: one shared cycle axis plus any number of
/// named `f64` columns, all preallocated to a fixed row capacity so
/// [`TimeSeries::sample`] never allocates. When the capacity is
/// reached, further rows are counted in [`TimeSeries::dropped`]
/// instead of recorded (the run outlived its sampling budget).
#[derive(Debug)]
pub struct TimeSeries {
    interval: u64,
    capacity: usize,
    cycles: Vec<u64>,
    columns: Vec<(String, Vec<f64>)>,
    dropped: u64,
}

impl TimeSeries {
    /// Creates a sampler recording every `interval` cycles (min 1) with
    /// room for `capacity` rows.
    pub fn new(interval: u64, capacity: usize) -> Self {
        TimeSeries {
            interval: interval.max(1),
            capacity,
            cycles: Vec::with_capacity(capacity),
            columns: Vec::new(),
            dropped: 0,
        }
    }

    /// Registers a named column. Must happen before the first sample.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or registration after sampling began.
    pub fn add(&mut self, name: &str) -> SeriesId {
        assert!(self.cycles.is_empty(), "register columns before sampling");
        assert!(
            self.columns.iter().all(|(n, _)| n != name),
            "duplicate series '{name}'"
        );
        self.columns
            .push((name.to_string(), Vec::with_capacity(self.capacity)));
        SeriesId(self.columns.len() - 1)
    }

    /// The configured sampling interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// `true` when no rows are recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Rows refused because the capacity was exhausted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records one row. `values` must supply every column in
    /// registration order. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the column count.
    pub fn sample(&mut self, cycle: u64, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "one value per column");
        if self.cycles.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.cycles.push(cycle);
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.1.push(v);
        }
    }

    /// Serializes recorded rows and the dropped counter. Interval,
    /// capacity and column names are construction-time configuration
    /// and are not written.
    pub fn snap_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        self.cycles.snap(e);
        e.put_usize(self.columns.len());
        for (_, vals) in &self.columns {
            vals.snap(e);
        }
        e.put_u64(self.dropped);
    }

    /// The shared cycle axis.
    pub fn cycles(&self) -> &[u64] {
        &self.cycles
    }

    /// One column's recorded values.
    #[cfg(test)]
    fn values(&self, id: SeriesId) -> &[f64] {
        &self.columns[id.0].1
    }

    /// All columns `(name, values)` in registration order.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.columns.iter().map(|(n, v)| (n.as_str(), v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_line_up_across_columns() {
        let mut ts = TimeSeries::new(100, 8);
        let a = ts.add("throughput");
        let b = ts.add("in_flight");
        ts.sample(100, &[1.0, 5.0]);
        ts.sample(200, &[2.0, 6.0]);
        assert_eq!(ts.cycles(), &[100, 200]);
        assert_eq!(ts.values(a), &[1.0, 2.0]);
        assert_eq!(ts.values(b), &[5.0, 6.0]);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn capacity_overflow_counts_dropped_rows() {
        let mut ts = TimeSeries::new(1, 2);
        let _ = ts.add("x");
        ts.sample(1, &[1.0]);
        ts.sample(2, &[2.0]);
        ts.sample(3, &[3.0]);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.dropped(), 1);
        assert_eq!(ts.cycles(), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "one value per column")]
    fn wrong_arity_rejected() {
        let mut ts = TimeSeries::new(1, 2);
        let _ = ts.add("x");
        ts.sample(1, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "before sampling")]
    fn late_registration_rejected() {
        let mut ts = TimeSeries::new(1, 2);
        let _ = ts.add("x");
        ts.sample(1, &[1.0]);
        let _ = ts.add("y");
    }
}
