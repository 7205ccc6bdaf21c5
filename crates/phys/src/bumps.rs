//! Micro-bump (µbump) accounting.
//!
//! Because dies are flip-chip attached face-down onto the interposer, every
//! interposer wire needs a µbump wherever it attaches to a die, and each
//! µbump consumes top-die silicon area (§2.1, §3.2.3). The paper's §6.6
//! compares:
//!
//! * **Interposer-CMesh** — 128 uni-directional 256-bit links between the
//!   processor die and the interposer, one µbump per wire:
//!   128 × 256 = 32,768 µbumps.
//! * **EquiNox** — 24 uni-directional 128-bit links that dive into the
//!   interposer and come back up to the processor die, i.e. two µbumps per
//!   wire: 24 × 128 × 2 = 6,144 µbumps (an 81.25% reduction).
//!
//! With a 40 µm bump pitch each µbump occupies `pitch²` of die surface, so
//! a 128-bit bi-directional link costs about 0.41 mm² (the paper quotes
//! ≈0.34 mm² for a denser hexagonal packing; we expose the pitch so either
//! convention can be computed).


/// µbump geometry and per-link accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BumpModel {
    /// Bump pitch in micrometres (paper default: 40 µm, \[22\]).
    pub pitch_um: f64,
}

impl Default for BumpModel {
    fn default() -> Self {
        BumpModel { pitch_um: 40.0 }
    }
}

impl BumpModel {

    /// Total µbump count for `links` uni-directional links of
    /// `bits_per_link` wires, each wire attaching to `attachments_per_wire`
    /// die surfaces (1 = die→interposer only, 2 = die→interposer→die).
    ///
    /// ```
    /// # use equinox_phys::bumps::BumpModel;
    /// let m = BumpModel::default();
    /// // Interposer-CMesh (§6.6)
    /// assert_eq!(m.bump_count(128, 256, 1), 32_768);
    /// // EquiNox (§6.6)
    /// assert_eq!(m.bump_count(24, 128, 2), 6_144);
    /// ```
    pub fn bump_count(&self, links: usize, bits_per_link: usize, attachments_per_wire: usize) -> usize {
        links * bits_per_link * attachments_per_wire
    }

    /// Die area consumed by `count` µbumps, in mm².
    ///
    /// Each bump claims a `pitch × pitch` square of die surface.
    ///
    /// ```
    /// # use equinox_phys::bumps::BumpModel;
    /// let m = BumpModel::default();
    /// let area = m.bump_area_mm2(6_144);
    /// assert!((area - 9.8304).abs() < 1e-9);
    /// ```
    pub fn bump_area_mm2(&self, count: usize) -> f64 {
        let pitch_mm = self.pitch_um * 1e-3;
        count as f64 * pitch_mm * pitch_mm
    }
}

/// Relative saving of `ours` vs `theirs` as a fraction in `[0, 1]`.
///
/// ```
/// # use equinox_phys::bumps::saving_fraction;
/// assert!((saving_fraction(6_144.0, 32_768.0) - 0.8125).abs() < 1e-12);
/// ```
pub fn saving_fraction(ours: f64, theirs: f64) -> f64 {
    if theirs <= 0.0 {
        0.0
    } else {
        1.0 - ours / theirs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_section_6_6_numbers() {
        let m = BumpModel::default();
        let cmesh = m.bump_count(128, 256, 1);
        let equinox = m.bump_count(24, 128, 2);
        assert_eq!(cmesh, 32_768);
        assert_eq!(equinox, 6_144);
        let saving = saving_fraction(equinox as f64, cmesh as f64);
        assert!((saving - 0.8125).abs() < 1e-12, "paper reports 81.25%");
    }

    #[test]
    fn area_scales_with_pitch_squared() {
        let a = BumpModel { pitch_um: 40.0 }.bump_area_mm2(100);
        let b = BumpModel { pitch_um: 80.0 }.bump_area_mm2(100);
        assert!((b / a - 4.0).abs() < 1e-12);
    }
}
