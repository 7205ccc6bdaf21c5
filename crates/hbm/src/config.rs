//! HBM stack configuration and timing.
//!
//! Timings are expressed in *controller cycles*; we clock the controller
//! together with the core (1.126 GHz, Table 1), a small approximation of
//! HBM2's 1 GHz that keeps the whole simulation on one clock. The default
//! values are HBM2-class (tRCD/tRP/tCL ≈ 14 ns, 64 B bursts).


/// DRAM timing parameters, in controller cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmTiming {
    /// Activate-to-read delay (row open).
    pub t_rcd: u64,
    /// Precharge delay (row close).
    pub t_rp: u64,
    /// CAS latency (column read).
    pub t_cl: u64,
    /// Data-bus occupancy of one 64 B burst.
    pub t_burst: u64,
    /// Write recovery added to write accesses.
    pub t_wr: u64,
}

impl Default for HbmTiming {
    fn default() -> Self {
        HbmTiming {
            t_rcd: 16,
            t_rp: 16,
            t_cl: 16,
            t_burst: 4,
            t_wr: 18,
        }
    }
}

/// Configuration of one HBM stack (one per memory controller / CB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmConfig {
    /// Channels per stack (Table 1 / §5: 16 channels per chip).
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Cache-line / burst size in bytes.
    pub line_bytes: u64,
    /// Per-channel request queue capacity (backpressure threshold).
    pub queue_cap: usize,
    /// DRAM timings.
    pub timing: HbmTiming,
}

impl HbmConfig {
    /// HBM2-class stack: 16 channels × 16 banks, 1 KiB rows, 64 B lines.
    pub fn hbm2() -> Self {
        HbmConfig {
            channels: 16,
            banks_per_channel: 16,
            row_bytes: 1024,
            line_bytes: 64,
            queue_cap: 32,
            timing: HbmTiming::default(),
        }
    }

    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        HbmConfig {
            channels: 2,
            banks_per_channel: 2,
            row_bytes: 256,
            line_bytes: 64,
            queue_cap: 4,
            timing: HbmTiming::default(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a message.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.banks_per_channel == 0 {
            return Err("need at least one channel and one bank".into());
        }
        if self.row_bytes == 0 || self.line_bytes == 0 || self.row_bytes < self.line_bytes {
            return Err("row must hold at least one line".into());
        }
        if self.queue_cap == 0 {
            return Err("queue capacity must be nonzero".into());
        }
        if self.timing.t_burst == 0 {
            return Err("burst occupancy must be nonzero".into());
        }
        Ok(())
    }

    /// Peak data bandwidth of a stack in bytes per controller cycle:
    /// every channel can move one line per `t_burst` cycles.
    ///
    /// ```
    /// # use equinox_hbm::HbmConfig;
    /// let c = HbmConfig::hbm2();
    /// // 16 channels * 64B / 4 cycles = 256 B/cycle ≈ 288 GB/s at 1.126 GHz,
    /// // i.e. HBM2-class per-stack bandwidth (§2.2's 256 GB/s).
    /// assert_eq!(c.peak_bytes_per_cycle(), 256.0);
    /// ```
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.channels as f64 * self.line_bytes as f64 / self.timing.t_burst as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_valid() {
        assert!(HbmConfig::hbm2().validate().is_ok());
        assert!(HbmConfig::tiny().validate().is_ok());
    }

    #[test]
    fn invalid_rejected() {
        let mut c = HbmConfig::hbm2();
        c.channels = 0;
        assert!(c.validate().is_err());
        let mut c = HbmConfig::hbm2();
        c.row_bytes = 32; // smaller than a line
        assert!(c.validate().is_err());
        let mut c = HbmConfig::hbm2();
        c.timing.t_burst = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bandwidth_scales_with_channels() {
        let mut c = HbmConfig::hbm2();
        let b16 = c.peak_bytes_per_cycle();
        c.channels = 8;
        assert_eq!(c.peak_bytes_per_cycle() * 2.0, b16);
    }
}
