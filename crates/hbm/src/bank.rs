//! DRAM bank state: open row tracking and per-access latency.

use crate::config::HbmTiming;

/// Row-buffer outcome of an access, in decreasing speed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowOutcome {
    /// Requested row already open: column access only.
    Hit,
    /// Bank idle (no row open): activate + column access.
    Miss,
    /// Different row open: precharge + activate + column access.
    Conflict,
}

/// One DRAM bank.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bank {
    /// Currently open row (open-page policy: rows stay open).
    open_row: Option<u64>,
    /// Cycle until which the bank is busy with its current access.
    busy_until: u64,
    /// Row-buffer hit/miss/conflict counters for statistics.
    pub hits: u64,
    /// Row misses (bank was idle).
    pub misses: u64,
    /// Row conflicts (had to precharge).
    pub conflicts: u64,
}

impl Bank {
    /// `true` if the bank can accept a new access at `now`.
    pub(crate) fn ready(&self, now: u64) -> bool {
        now >= self.busy_until
    }

    /// First cycle at which the bank is ready again (next-event query).
    pub(crate) fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// What the row buffer would do for `row` (without issuing).
    pub(crate) fn probe(&self, row: u64) -> RowOutcome {
        match self.open_row {
            Some(r) if r == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        }
    }

    /// Issues an access to `row` at `now`, returning the cycle at which
    /// the data burst completes. The row stays open afterwards.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank is still busy.
    pub(crate) fn access(&mut self, row: u64, write: bool, now: u64, t: &HbmTiming) -> u64 {
        debug_assert!(self.ready(now), "bank busy until {}", self.busy_until);
        let outcome = self.probe(row);
        let latency = match outcome {
            RowOutcome::Hit => {
                self.hits += 1;
                t.t_cl + t.t_burst
            }
            RowOutcome::Miss => {
                self.misses += 1;
                t.t_rcd + t.t_cl + t.t_burst
            }
            RowOutcome::Conflict => {
                self.conflicts += 1;
                t.t_rp + t.t_rcd + t.t_cl + t.t_burst
            }
        } + if write { t.t_wr } else { 0 };
        self.open_row = Some(row);
        self.busy_until = now + latency;
        now + latency
    }
}

impl equinox_snap::Snap for Bank {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        self.open_row.snap(e);
        e.put_u64(self.busy_until);
        e.put_u64(self.hits);
        e.put_u64(self.misses);
        e.put_u64(self.conflicts);
    }
    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        Ok(Bank {
            open_row: Option::restore(d)?,
            busy_until: d.u64()?,
            hits: d.u64()?,
            misses: d.u64()?,
            conflicts: d.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_faster_than_miss_faster_than_conflict() {
        let t = HbmTiming::default();
        let mut b = Bank::default();
        let miss_done = b.access(5, false, 0, &t);
        let hit_done = b.access(5, false, miss_done, &t) - miss_done;
        let conflict_done = b.access(9, false, miss_done + hit_done, &t) - (miss_done + hit_done);
        assert!(hit_done < miss_done);
        assert!(miss_done < conflict_done);
        assert!(conflict_done > hit_done);
        assert_eq!((b.hits, b.misses, b.conflicts), (1, 1, 1));
    }

    #[test]
    fn probe_matches_state() {
        let t = HbmTiming::default();
        let mut b = Bank::default();
        assert_eq!(b.probe(3), RowOutcome::Miss);
        let done = b.access(3, false, 0, &t);
        assert_eq!(b.probe(3), RowOutcome::Hit);
        assert_eq!(b.probe(4), RowOutcome::Conflict);
        assert!(!b.ready(done - 1));
        assert!(b.ready(done));
    }

    #[test]
    fn writes_cost_recovery_time() {
        let t = HbmTiming::default();
        let mut a = Bank::default();
        let mut b = Bank::default();
        let read_done = a.access(1, false, 0, &t);
        let write_done = b.access(1, true, 0, &t);
        assert_eq!(write_done, read_done + t.t_wr);
    }
}
