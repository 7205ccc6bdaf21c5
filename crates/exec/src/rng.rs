//! Small, fast, seedable PRNG for deterministic simulation.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded through
//! splitmix64 so that nearby user seeds (0, 1, 2, ...) yield well-mixed,
//! statistically independent states. Both algorithms are public domain.
//!
//! Two properties matter for the simulator:
//!
//! * **Determinism** — the sequence depends only on the seed, never on
//!   platform, build flags, or crate versions (the previous external
//!   `rand` dependency could change streams across releases).
//! * **Stream splitting** — [`Rng::stream`] derives the seed for logical
//!   stream `i` of a run through an extra splitmix64 round, so parallel
//!   workers get independent sequences that are a pure function of
//!   `(seed, i)` and therefore independent of how many threads execute
//!   them (see DESIGN.md, "Determinism contract").

/// One splitmix64 step: advances `state` and returns the next output.
///
/// Used both as the seeding PRNG for xoshiro and as a standalone mixer
/// for deriving per-stream seeds.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (splitmix64-expanded, per
    /// the xoshiro authors' recommendation). Named to match the old
    /// `rand::SeedableRng` call sites.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // All-zero state is the one invalid xoshiro state; splitmix64
        // cannot produce four zero outputs in a row, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Derives the generator for logical stream `index` of a run seeded
    /// with `seed`. Streams are a pure function of `(seed, index)`:
    /// worker threads that process streams in any order or any grouping
    /// observe identical sequences.
    pub fn stream(seed: u64, index: u64) -> Self {
        let mut sm = seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(index.wrapping_add(1));
        let mixed = splitmix64(&mut sm) ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        Rng::seed_from_u64(mixed)
    }

    /// Next raw 64-bit output (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample of type `T` (replacement for `rand`'s
    /// `rng.random::<T>()`). `f64` lies in `[0, 1)`.
    #[inline]
    pub fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform sample from `range` (replacement for `rand`'s
    /// `rng.random_range(a..b)`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<T: RangeSample>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// Uniform `u64` below `bound` via Lemire's multiply-shift with
    /// rejection (exactly uniform, no modulo bias).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "cannot sample from an empty range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

impl equinox_snap::Snap for Rng {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        self.s.snap(e);
    }
    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        let s = <[u64; 4]>::restore(d)?;
        if s == [0; 4] {
            // The all-zero state is the one state xoshiro cannot leave.
            return Err(equinox_snap::SnapError::BadValue("all-zero rng state"));
        }
        Ok(Rng { s })
    }
}

/// Types that [`Rng::random`] can produce.
pub trait Sample {
    fn sample(rng: &mut Rng) -> Self;
}

impl Sample for f64 {
    /// 53 uniform mantissa bits scaled into `[0, 1)`.
    #[inline]
    fn sample(rng: &mut Rng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for u64 {
    #[inline]
    fn sample(rng: &mut Rng) -> u64 {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample(rng: &mut Rng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for bool {
    #[inline]
    fn sample(rng: &mut Rng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Types that [`Rng::random_range`] can produce.
pub trait RangeSample: Sized {
    fn sample_range(rng: &mut Rng, range: std::ops::Range<Self>) -> Self;
}

macro_rules! impl_range_sample {
    ($($ty:ty),*) => {$(
        impl RangeSample for $ty {
            #[inline]
            fn sample_range(rng: &mut Rng, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample from an empty range");
                let span = (range.end as u64) - (range.start as u64);
                range.start + rng.below(span) as $ty
            }
        }
    )*};
}

impl_range_sample!(usize, u64, u32, u16, u8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // xoshiro256** from the all-splitmix64(0) seed; first outputs are
        // fixed forever — any change to the generator is a determinism
        // break and must fail here.
        let mut rng = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = Rng::seed_from_u64(0);
        let second: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, second);
        assert_eq!(
            first,
            [
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532
            ],
            "stream changed: determinism break"
        );
    }

    #[test]
    fn seeds_give_distinct_streams() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = Rng::seed_from_u64(42);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.random::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_respects_bounds_and_hits_all_values() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.random_range(0usize..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..10 reachable");
        for _ in 0..1_000 {
            let v = rng.random_range(5u64..7);
            assert!((5..7).contains(&v));
        }
        // Unit-width range is the degenerate-but-valid case.
        assert_eq!(rng.random_range(9u32..10), 9);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = rng.random_range(3usize..3);
    }

    #[test]
    fn snapshot_resumes_the_exact_stream() {
        use equinox_snap::{Dec, Enc, Snap, SnapError};
        let mut rng = Rng::stream(7, 3);
        for _ in 0..100 {
            rng.next_u64();
        }
        let mut e = Enc::new();
        rng.snap(&mut e);
        let bytes = e.into_bytes();
        let expect: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let mut d = Dec::new(&bytes);
        let mut restored = Rng::restore(&mut d).unwrap();
        d.finish().unwrap();
        let got: Vec<u64> = (0..16).map(|_| restored.next_u64()).collect();
        assert_eq!(expect, got, "restored rng must continue the stream");
        // The all-zero state must be refused, never restored.
        let mut e = Enc::new();
        [0u64; 4].snap(&mut e);
        let z = e.into_bytes();
        assert_eq!(
            Rng::restore(&mut Dec::new(&z)).unwrap_err(),
            SnapError::BadValue("all-zero rng state")
        );
    }

    #[test]
    fn streams_are_independent_of_grouping() {
        // stream(seed, i) is a pure function — no hidden state.
        let a = Rng::stream(99, 0);
        let b = Rng::stream(99, 1);
        let a2 = Rng::stream(99, 0);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let base = Rng::seed_from_u64(99);
        assert_ne!(a, base, "stream 0 differs from the root stream");
    }
}
