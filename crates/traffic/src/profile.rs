//! Benchmark traffic profiles.
//!
//! Each of the 29 benchmarks the paper runs (Rodinia \[42\] + NVIDIA CUDA
//! SDK \[43\]) becomes a parameter vector. The values are chosen to mirror
//! the qualitative behaviour the paper reports per benchmark:
//!
//! * `kmeans`, `heartwall`, `monteCarlo`, `particlefilter` — bandwidth
//!   hungry (DA2Mesh helps them; VC-Mono gains 13.1% on `kmeans`);
//! * `fastWalshTransform`, `scan`, `sortingNetworks` — bursty injection
//!   (MultiPort helps);
//! * `gaussian`, `myocyte` — compute/latency dominated, little queuing;
//! * the remainder span the middle of the intensity range.
//!
//! The suite-average read fraction is ≈0.84, which reproduces the paper's
//! 72.7% / 27.3% reply/request bit split (a read is 1 request flit vs 5
//! reply flits; a write is the reverse; reply share = (4·r + 1) / 6).


/// Synthetic traffic parameters of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (matches the paper's figures).
    pub name: &'static str,
    /// Memory operations per instruction (0‥1).
    pub mem_rate: f64,
    /// Fraction of memory operations that are reads.
    pub read_frac: f64,
    /// L2 (cache-bank) hit probability.
    pub l2_hit: f64,
    /// Probability that the next access continues the current sequential
    /// burst (spatial locality; drives HBM row hits).
    pub locality: f64,
    /// Mean burst length in accesses (≥ 1).
    pub burst: u32,
    /// Instructions per PE, at scale 1.0.
    pub instrs: u64,
}

impl BenchmarkProfile {
    /// Expected fraction of NoC *bits* that are replies for this profile,
    /// assuming 1-flit read requests / write replies and 5-flit read
    /// replies / write requests.
    #[cfg(test)]
    fn reply_bit_fraction(&self) -> f64 {
        let r = self.read_frac;
        (4.0 * r + 1.0) / 6.0
    }
}

macro_rules! profiles {
    ($($name:literal : $mem:expr, $read:expr, $hit:expr, $loc:expr, $burst:expr, $instrs:expr;)+) => {
        &[$(BenchmarkProfile {
            name: $name,
            mem_rate: $mem,
            read_frac: $read,
            l2_hit: $hit,
            locality: $loc,
            burst: $burst,
            instrs: $instrs,
        }),+]
    };
}

/// The full 29-benchmark suite (Rodinia + CUDA SDK), in the order the
/// paper's figures use.
pub fn all_benchmarks() -> &'static [BenchmarkProfile] {
    profiles! {
        // Rodinia
        "backprop":          0.28, 0.80, 0.55, 0.70, 4, 1000;
        "bfs":               0.35, 0.90, 0.35, 0.30, 1, 1000;
        "b+tree":            0.30, 0.92, 0.45, 0.40, 2, 1000;
        "cfd":               0.40, 0.85, 0.40, 0.60, 4, 1000;
        "dwt2d":             0.25, 0.82, 0.60, 0.80, 4, 1000;
        "gaussian":          0.06, 0.88, 0.75, 0.85, 2, 1000;
        "heartwall":         0.45, 0.86, 0.30, 0.55, 6, 1000;
        "hotspot":           0.22, 0.84, 0.60, 0.75, 4, 1000;
        "hotspot3D":         0.30, 0.85, 0.50, 0.70, 4, 1000;
        "huffman":           0.18, 0.90, 0.55, 0.35, 1, 1000;
        "kmeans":            0.50, 0.88, 0.25, 0.65, 6, 1000;
        "lavaMD":            0.20, 0.83, 0.65, 0.75, 4, 1000;
        "leukocyte":         0.26, 0.85, 0.58, 0.70, 3, 1000;
        "lud":               0.24, 0.80, 0.62, 0.75, 3, 1000;
        "myocyte":           0.05, 0.78, 0.80, 0.85, 2, 1000;
        "nn":                0.32, 0.93, 0.42, 0.50, 2, 1000;
        "nw":                0.28, 0.82, 0.55, 0.65, 3, 1000;
        "particlefilter":    0.42, 0.87, 0.32, 0.50, 5, 1000;
        "pathfinder":        0.26, 0.86, 0.58, 0.75, 4, 1000;
        "srad":              0.34, 0.84, 0.48, 0.70, 4, 1000;
        "streamcluster":     0.38, 0.90, 0.35, 0.55, 4, 1000;
        // NVIDIA CUDA SDK
        "fastWalshTrans":    0.44, 0.85, 0.38, 0.45, 8, 1000;
        "monteCarlo":        0.46, 0.90, 0.28, 0.40, 6, 1000;
        "scan":              0.40, 0.83, 0.42, 0.50, 8, 1000;
        "sortingNetworks":   0.42, 0.82, 0.40, 0.45, 8, 1000;
        "blackScholes":      0.30, 0.88, 0.50, 0.80, 4, 1000;
        "convolutionSep":    0.27, 0.86, 0.58, 0.80, 4, 1000;
        "histogram":         0.33, 0.75, 0.45, 0.35, 2, 1000;
        "reduction":         0.36, 0.92, 0.40, 0.70, 6, 1000;
    }
}

/// Looks up a benchmark profile by name.
///
/// ```
/// # use equinox_traffic::profile::benchmark;
/// assert!(benchmark("kmeans").is_some());
/// assert!(benchmark("doom").is_none());
/// ```
pub fn benchmark(name: &str) -> Option<BenchmarkProfile> {
    all_benchmarks().iter().copied().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_29_unique_benchmarks() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 29, "the paper evaluates 29 benchmarks");
        let mut names: Vec<_> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 29);
    }

    #[test]
    fn parameters_in_valid_ranges() {
        for b in all_benchmarks() {
            assert!(b.mem_rate > 0.0 && b.mem_rate <= 1.0, "{}", b.name);
            assert!(b.read_frac > 0.5 && b.read_frac <= 1.0, "{}", b.name);
            assert!(b.l2_hit >= 0.0 && b.l2_hit <= 1.0, "{}", b.name);
            assert!(b.locality >= 0.0 && b.locality <= 1.0, "{}", b.name);
            assert!(b.burst >= 1, "{}", b.name);
            assert!(b.instrs > 0, "{}", b.name);
        }
    }

    #[test]
    fn suite_average_reply_share_matches_paper() {
        // §2.2: replies are 72.7% of NoC bits. Calibration keeps the
        // traffic-weighted suite average within a couple of points.
        let all = all_benchmarks();
        let (mut num, mut den) = (0.0, 0.0);
        for b in all {
            let weight = b.mem_rate; // traffic volume weight
            num += b.reply_bit_fraction() * weight;
            den += weight;
        }
        let avg = num / den;
        assert!(
            (avg - 0.727).abs() < 0.03,
            "suite reply-bit share {avg:.3} vs paper 0.727"
        );
    }

    #[test]
    fn paper_characterizations_hold() {
        let k = benchmark("kmeans").unwrap();
        let g = benchmark("gaussian").unwrap();
        let m = benchmark("myocyte").unwrap();
        assert!(k.mem_rate > 3.0 * g.mem_rate, "kmeans network-bound, gaussian not");
        assert!(m.mem_rate < 0.1, "myocyte compute-bound");
        for bursty in ["fastWalshTrans", "scan", "sortingNetworks"] {
            assert!(benchmark(bursty).unwrap().burst >= 8);
        }
    }
}
