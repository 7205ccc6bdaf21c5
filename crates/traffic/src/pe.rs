//! The processing-element (streaming multiprocessor) model.
//!
//! A PE retires one instruction per cycle while it can. An instruction is
//! a memory operation with probability `mem_rate`; memory operations must
//! claim an MSHR (bounded outstanding misses) and be accepted by the
//! network interface, otherwise the PE stalls — this is how reply-network
//! congestion back-pressures the cores and stretches execution time, the
//! effect Figure 9(a) measures.
//!
//! Addresses are generated with per-benchmark burstiness and spatial
//! locality: a burst walks sequential cache lines (producing HBM row
//! hits), and bursts jump around a per-PE working set.

use crate::profile::BenchmarkProfile;
use equinox_exec::Rng;

/// A memory operation emitted by a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Byte address (cache-line aligned).
    pub addr: u64,
    /// `true` for stores.
    pub write: bool,
}

/// Per-PE execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles stalled waiting for an MSHR or the NI.
    pub stall_cycles: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
}

/// One processing element.
#[derive(Debug)]
pub struct Pe {
    profile: BenchmarkProfile,
    quota: u64,
    remaining: u64,
    outstanding: u32,
    mshr_cap: u32,
    rng: Rng,
    /// Next sequential address of the current burst.
    cursor: u64,
    burst_left: u32,
    /// Base of this PE's working set.
    base: u64,
    /// Working-set span in bytes.
    span: u64,
    /// A pending mem-op the NI refused; retried before new work.
    pending: Option<MemOp>,
    /// Statistics.
    pub stats: PeStats,
}

/// Cache-line size in bytes (64 B, Table 1's L2 line).
pub(crate) const LINE_BYTES: u64 = 64;

impl Pe {
    /// Creates a PE running `profile`, with its instruction quota scaled
    /// by `scale`. `index` seeds the address stream and picks the working
    /// set; `mshr_cap` bounds outstanding memory operations.
    pub fn new(profile: BenchmarkProfile, index: usize, scale: f64, mshr_cap: u32, seed: u64) -> Self {
        let quota = ((profile.instrs as f64 * scale).round() as u64).max(1);
        let base = (index as u64) << 28;
        let mut rng = Rng::seed_from_u64(seed ^ ((index as u64) << 32) ^ 0x5EED);
        let cursor = base + (rng.random_range(0..1u64 << 16)) * LINE_BYTES;
        Pe {
            profile,
            quota,
            remaining: quota,
            outstanding: 0,
            mshr_cap,
            rng,
            cursor,
            burst_left: 0,
            base,
            span: 1 << 24,
            pending: None,
            stats: PeStats::default(),
        }
    }

    /// Advances one cycle. `ni_ready` says whether the network interface
    /// can accept a request this cycle. Returns a memory operation iff one
    /// is issued (the caller must deliver it). When the PE wants to issue
    /// but cannot (MSHRs full or NI busy), it stalls in place.
    pub fn tick(&mut self, ni_ready: bool) -> Option<MemOp> {
        if self.done() {
            return None;
        }
        // Retry a refused op first.
        if let Some(op) = self.pending {
            if ni_ready && self.outstanding < self.mshr_cap {
                self.pending = None;
                self.issue(op);
                return Some(op);
            }
            self.stats.stall_cycles += 1;
            return None;
        }
        if self.remaining == 0 {
            // Only waiting for outstanding replies.
            return None;
        }
        let is_mem = self.rng.random::<f64>() < self.profile.mem_rate;
        if !is_mem {
            self.remaining -= 1;
            self.stats.retired += 1;
            return None;
        }
        let op = self.next_op();
        if ni_ready && self.outstanding < self.mshr_cap {
            self.remaining -= 1;
            self.stats.retired += 1;
            self.issue(op);
            Some(op)
        } else {
            // Hold the op; the instruction has not retired yet.
            self.pending = Some(op);
            self.remaining -= 1;
            self.stats.retired += 1;
            self.stats.stall_cycles += 1;
            None
        }
    }

    fn issue(&mut self, _op: MemOp) {
        self.outstanding += 1;
        self.stats.mem_ops += 1;
    }

    /// Generates the next address following the burst/locality model.
    fn next_op(&mut self) -> MemOp {
        if self.burst_left == 0 || self.rng.random::<f64>() >= self.profile.locality {
            // Start a new burst somewhere in the working set.
            let lines = self.span / LINE_BYTES;
            self.cursor = self.base + self.rng.random_range(0..lines) * LINE_BYTES;
            self.burst_left = 1 + self.rng.random_range(0..self.profile.burst * 2);
        }
        let addr = self.cursor;
        self.cursor += LINE_BYTES;
        self.burst_left = self.burst_left.saturating_sub(1);
        let write = self.rng.random::<f64>() >= self.profile.read_frac;
        MemOp { addr, write }
    }

    /// Records the arrival of one reply (releases an MSHR).
    ///
    /// # Panics
    ///
    /// Panics if no memory operation is outstanding.
    pub fn complete(&mut self) {
        assert!(self.outstanding > 0, "reply without outstanding request");
        self.outstanding -= 1;
    }

    /// `true` when the instruction quota is retired, nothing is pending,
    /// and every reply has arrived.
    pub fn done(&self) -> bool {
        self.remaining == 0 && self.outstanding == 0 && self.pending.is_none()
    }

    /// Outstanding memory operations.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Serializes the PE's dynamic state (progress counters, RNG, the
    /// address-stream cursor and a held-back op). The profile, quota,
    /// MSHR cap and working-set geometry are build-time.
    pub fn snap_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        e.put_u64(self.remaining);
        e.put_u32(self.outstanding);
        self.rng.snap(e);
        e.put_u64(self.cursor);
        e.put_u32(self.burst_left);
        match self.pending {
            None => e.put_bool(false),
            Some(op) => {
                e.put_bool(true);
                e.put_u64(op.addr);
                e.put_bool(op.write);
            }
        }
        e.put_u64(self.stats.retired);
        e.put_u64(self.stats.stall_cycles);
        e.put_u64(self.stats.mem_ops);
    }

    /// Restores state written by [`Pe::snap_state`] into a PE built with
    /// the same constructor arguments.
    pub fn restore_state(
        &mut self,
        d: &mut equinox_snap::Dec,
    ) -> Result<(), equinox_snap::SnapError> {
        use equinox_snap::{Snap, SnapError};
        let remaining = d.u64()?;
        if remaining > self.quota {
            return Err(SnapError::BadValue("pe remaining over quota"));
        }
        let outstanding = d.u32()?;
        if outstanding > self.mshr_cap {
            return Err(SnapError::BadValue("pe outstanding over mshr cap"));
        }
        self.remaining = remaining;
        self.outstanding = outstanding;
        self.rng = Rng::restore(d)?;
        self.cursor = d.u64()?;
        self.burst_left = d.u32()?;
        self.pending = if d.bool()? {
            Some(MemOp {
                addr: d.u64()?,
                write: d.bool()?,
            })
        } else {
            None
        };
        self.stats.retired = d.u64()?;
        self.stats.stall_cycles = d.u64()?;
        self.stats.mem_ops = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::benchmark;

    fn pe(name: &str, scale: f64) -> Pe {
        Pe::new(benchmark(name).unwrap(), 3, scale, 16, 42)
    }

    #[test]
    fn pure_compute_finishes_without_memory() {
        let mut p = Pe::new(
            BenchmarkProfile {
                name: "synthetic",
                mem_rate: 0.0,
                read_frac: 0.8,
                l2_hit: 0.5,
                locality: 0.5,
                burst: 1,
                instrs: 100,
            },
            0,
            1.0,
            16,
            1,
        );
        for _ in 0..100 {
            assert_eq!(p.tick(true), None);
        }
        assert!(p.done());
        assert_eq!(p.stats.retired, 100);
    }

    #[test]
    fn memory_ops_respect_mshr_cap() {
        let mut p = pe("kmeans", 1.0);
        let mut issued = 0;
        for _ in 0..500 {
            if p.tick(true).is_some() {
                issued += 1;
            }
            assert!(p.outstanding() <= 16);
        }
        assert!(issued >= 16, "kmeans must issue plenty of mem ops");
        assert!(!p.done(), "replies never arrived");
        // Drain replies; PE must finish.
        while p.outstanding() > 0 {
            p.complete();
        }
        for _ in 0..5000 {
            if p.tick(true).is_some() {
                p.complete(); // instant replies
            }
            if p.done() {
                break;
            }
        }
        assert!(p.done());
    }

    #[test]
    fn ni_backpressure_stalls() {
        let mut p = pe("kmeans", 1.0);
        let mut issued = 0;
        for _ in 0..200 {
            if p.tick(false).is_some() {
                issued += 1;
            }
        }
        assert_eq!(issued, 0, "NI never ready -> nothing issues");
        assert!(p.stats.stall_cycles > 0);
    }

    #[test]
    fn addresses_are_line_aligned_and_in_working_set() {
        let mut p = pe("bfs", 1.0);
        for _ in 0..2000 {
            if let Some(op) = p.tick(true) {
                assert_eq!(op.addr % LINE_BYTES, 0);
                assert_eq!(op.addr >> 28, 3, "within PE 3's working set");
                p.complete();
            }
            if p.done() {
                break;
            }
        }
    }

    #[test]
    fn read_fraction_approximates_profile() {
        let prof = benchmark("backprop").unwrap(); // read_frac 0.80
        let mut p = Pe::new(prof, 0, 50.0, 1024, 7);
        let mut reads = 0u32;
        let mut total = 0u32;
        for _ in 0..200_000 {
            if let Some(op) = p.tick(true) {
                total += 1;
                if !op.write {
                    reads += 1;
                }
                p.complete();
            }
            if p.done() {
                break;
            }
        }
        assert!(total > 1000);
        let frac = reads as f64 / total as f64;
        assert!((frac - prof.read_frac).abs() < 0.05, "measured {frac}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let collect = || {
            let mut p = pe("cfd", 0.2);
            let mut ops = Vec::new();
            for _ in 0..2000 {
                if let Some(op) = p.tick(true) {
                    ops.push(op);
                    p.complete();
                }
                if p.done() {
                    break;
                }
            }
            ops
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    #[should_panic(expected = "reply without outstanding")]
    fn spurious_reply_panics() {
        let mut p = pe("bfs", 1.0);
        p.complete();
    }

    #[test]
    fn bursts_produce_sequential_lines() {
        // With locality 1.0 and long bursts, consecutive ops are mostly
        // sequential lines.
        let prof = BenchmarkProfile {
            name: "seq",
            mem_rate: 1.0,
            read_frac: 1.0,
            l2_hit: 0.0,
            locality: 1.0,
            burst: 64,
            instrs: 500,
        };
        let mut p = Pe::new(prof, 1, 1.0, 1024, 3);
        let mut last = None;
        let mut seq = 0;
        let mut total = 0;
        for _ in 0..2000 {
            if let Some(op) = p.tick(true) {
                if let Some(prev) = last {
                    total += 1;
                    if op.addr == prev + LINE_BYTES {
                        seq += 1;
                    }
                }
                last = Some(op.addr);
                p.complete();
            }
            if p.done() {
                break;
            }
        }
        assert!(total > 100);
        assert!(seq as f64 / total as f64 > 0.8, "{seq}/{total} sequential");
    }
}
