//! Workload assembly: a benchmark profile instantiated over a PE array.

use crate::profile::BenchmarkProfile;

/// A benchmark run description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The benchmark's traffic profile.
    pub profile: BenchmarkProfile,
    /// Multiplier on the per-PE instruction quota (tests use ≤ 0.3,
    /// benches 1.0+).
    pub scale: f64,
    /// MSHRs per PE (outstanding memory operations).
    pub mshrs: u32,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Workload {
    /// A workload with the paper-ish defaults: 48 MSHRs per SM.
    pub fn new(profile: BenchmarkProfile, scale: f64, seed: u64) -> Self {
        Workload {
            profile,
            scale,
            mshrs: 48,
            seed,
        }
    }

    /// Total instructions across `num_pes` PEs (the IPC denominator's
    /// numerator).
    pub fn total_instrs(&self, num_pes: usize) -> u64 {
        ((self.profile.instrs as f64 * self.scale).round() as u64).max(1) * num_pes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::Pe;
    use crate::profile::benchmark;

    #[test]
    fn total_instrs_scales() {
        let w1 = Workload::new(benchmark("hotspot").unwrap(), 1.0, 1);
        let w2 = Workload::new(benchmark("hotspot").unwrap(), 2.0, 1);
        assert_eq!(w2.total_instrs(10), 2 * w1.total_instrs(10));
    }

    #[test]
    fn pes_have_distinct_address_streams() {
        let w = Workload::new(benchmark("bfs").unwrap(), 1.0, 9);
        let mut pes: Vec<Pe> = (0..2).map(|i| Pe::new(w.profile, i, w.scale, w.mshrs, w.seed)).collect();
        let mut a0 = None;
        let mut a1 = None;
        for _ in 0..200 {
            if a0.is_none() {
                if let Some(op) = pes[0].tick(true) {
                    a0 = Some(op.addr);
                    pes[0].complete();
                }
            }
            if a1.is_none() {
                if let Some(op) = pes[1].tick(true) {
                    a1 = Some(op.addr);
                    pes[1].complete();
                }
            }
        }
        assert_ne!(a0.unwrap() >> 28, a1.unwrap() >> 28, "separate working sets");
    }
}
