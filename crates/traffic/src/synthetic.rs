//! Synthetic (non-benchmark) traffic patterns for stressing fabrics.
//!
//! The Rodinia-calibrated profiles in [`crate::profile`] exercise the
//! paper's Many-to-Few-to-Many pattern; these patterns instead provide
//! the classical adversarial workloads of the NoC literature — uniform
//! random, hotspot, transpose and bursty on/off — used by the `fabric`
//! scenario to probe a topology's saturation and deadlock-freedom
//! behavior where benchmark traffic would be too forgiving.
//!
//! All patterns are pure functions of `(source, grid, cycle, rng)` with
//! the in-repo deterministic [`Rng`], so runs are reproducible and
//! thread-count independent.

use equinox_exec::Rng;

/// Fraction of hotspot-pattern packets aimed at the hotspot node.
pub(crate) const HOTSPOT_FRACTION: f64 = 0.3;

/// Bursty on/off duty cycle: each source injects during the first
/// [`BURST_ON`] cycles of every [`BURST_PERIOD`]-cycle window, with a
/// per-source phase shift so bursts collide but are not global.
pub(crate) const BURST_PERIOD: u64 = 64;
/// On-cycles per burst window (25% duty).
pub(crate) const BURST_ON: u64 = 16;

/// A synthetic destination/activity pattern over a `w × h` node grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyntheticPattern {
    /// Uniform random destinations (excluding self).
    #[default]
    Uniform,
    /// [`HOTSPOT_FRACTION`] of packets target the grid's center node,
    /// the rest are uniform — the many-to-one stress that exposes
    /// ejection-side backpressure.
    Hotspot,
    /// Matrix transpose: `(x, y) → (y, x)` on square grids (the
    /// index-complement `n-1-i` permutation on rectangular ones) —
    /// long deterministic flows that defeat adaptive load balancing.
    Transpose,
    /// Uniform destinations but injection gated to phase-shifted on/off
    /// bursts ([`BURST_ON`] of every [`BURST_PERIOD`] cycles) —
    /// transient congestion far above the average offered load.
    BurstyOnOff,
}

impl SyntheticPattern {
    /// Canonical lower-case name (the spec/CLI token).
    pub fn name(self) -> &'static str {
        match self {
            SyntheticPattern::Uniform => "uniform",
            SyntheticPattern::Hotspot => "hotspot",
            SyntheticPattern::Transpose => "transpose",
            SyntheticPattern::BurstyOnOff => "bursty",
        }
    }

    /// Parses a pattern name (the `--traffic` values).
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "uniform" => Ok(SyntheticPattern::Uniform),
            "hotspot" => Ok(SyntheticPattern::Hotspot),
            "transpose" => Ok(SyntheticPattern::Transpose),
            "bursty" => Ok(SyntheticPattern::BurstyOnOff),
            other => Err(format!(
                "unknown traffic pattern '{other}' (expected uniform, hotspot, transpose or bursty)"
            )),
        }
    }

    /// Every registered pattern, in spec order.
    pub fn all() -> [SyntheticPattern; 4] {
        [
            SyntheticPattern::Uniform,
            SyntheticPattern::Hotspot,
            SyntheticPattern::Transpose,
            SyntheticPattern::BurstyOnOff,
        ]
    }

    /// Whether node `src` injects at `cycle` (always true except for the
    /// off-phases of [`SyntheticPattern::BurstyOnOff`]).
    pub fn active(self, cycle: u64, src: usize) -> bool {
        match self {
            SyntheticPattern::BurstyOnOff => {
                // Prime-stride phase shift: sources burst at staggered
                // offsets, overlapping enough to pile up at routers.
                (cycle + src as u64 * 7) % BURST_PERIOD < BURST_ON
            }
            _ => true,
        }
    }

    /// Destination node index for a packet from `src` on a `w × h`
    /// grid, or `None` when the pattern maps `src` to itself (the
    /// transpose diagonal; such sources simply stay silent). `rng` is
    /// only consulted by the randomized patterns.
    pub fn dest(self, src: usize, w: u16, h: u16, rng: &mut Rng) -> Option<usize> {
        let n = w as usize * h as usize;
        debug_assert!(src < n);
        match self {
            SyntheticPattern::Uniform | SyntheticPattern::BurstyOnOff => {
                // Draw from n-1 slots and skip over src: uniform over
                // the other nodes without rejection-loop divergence.
                let mut d = rng.random_range(0..n - 1);
                if d >= src {
                    d += 1;
                }
                Some(d)
            }
            SyntheticPattern::Hotspot => {
                let hot = (h as usize / 2) * w as usize + w as usize / 2;
                if src != hot && rng.random::<f64>() < HOTSPOT_FRACTION {
                    Some(hot)
                } else {
                    let mut d = rng.random_range(0..n - 1);
                    if d >= src {
                        d += 1;
                    }
                    Some(d)
                }
            }
            SyntheticPattern::Transpose => {
                let d = if w == h {
                    let (x, y) = (src % w as usize, src / w as usize);
                    x * w as usize + y
                } else {
                    n - 1 - src
                };
                (d != src).then_some(d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in SyntheticPattern::all() {
            assert_eq!(SyntheticPattern::parse(p.name()), Ok(p));
        }
        assert_eq!(SyntheticPattern::parse(" Hotspot "), Ok(SyntheticPattern::Hotspot));
        assert!(SyntheticPattern::parse("tornado").is_err());
    }

    #[test]
    fn uniform_never_self_targets_and_covers_all() {
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = [false; 12];
        for _ in 0..2_000 {
            let d = SyntheticPattern::Uniform.dest(5, 4, 3, &mut rng).unwrap();
            assert_ne!(d, 5);
            assert!(d < 12);
            seen[d] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, 11, "every other node reachable");
    }

    #[test]
    fn hotspot_concentrates_on_the_center() {
        let mut rng = Rng::seed_from_u64(2);
        let hot = 2 * 4 + 2; // center of 4×4
        let trials = 4_000;
        let hits = (0..trials)
            .filter(|_| SyntheticPattern::Hotspot.dest(0, 4, 4, &mut rng) == Some(hot))
            .count();
        let frac = hits as f64 / trials as f64;
        // HOTSPOT_FRACTION plus the uniform tail's 1/15 share.
        assert!(frac > HOTSPOT_FRACTION, "hotspot share {frac} too low");
        assert!(frac < HOTSPOT_FRACTION + 0.15, "hotspot share {frac} too high");
    }

    #[test]
    fn transpose_is_an_involution() {
        let mut rng = Rng::seed_from_u64(3);
        for src in 0..16usize {
            match SyntheticPattern::Transpose.dest(src, 4, 4, &mut rng) {
                Some(d) => {
                    assert_eq!(SyntheticPattern::Transpose.dest(d, 4, 4, &mut rng), Some(src));
                }
                None => {
                    // Fixed points are exactly the diagonal.
                    assert_eq!(src % 4, src / 4);
                }
            }
        }
        // Rectangular grids use the index complement.
        assert_eq!(SyntheticPattern::Transpose.dest(0, 4, 3, &mut rng), Some(11));
    }

    #[test]
    fn bursty_duty_cycle_and_phase() {
        let p = SyntheticPattern::BurstyOnOff;
        let on = (0..BURST_PERIOD).filter(|&c| p.active(c, 0)).count() as u64;
        assert_eq!(on, BURST_ON, "duty cycle");
        // Different sources are phase-shifted, not synchronized.
        assert!((0..BURST_PERIOD).any(|c| p.active(c, 0) != p.active(c, 3)));
        // Everything else always injects.
        assert!(SyntheticPattern::Uniform.active(123, 4));
    }
}
