//! The hot-zone scoring policy (§4.2).
//!
//! The eight tiles surrounding a CB are its *hot zone*: the four direct
//! neighbours form the Direct Access Zone (DAZ, first hop of every injected
//! packet), the four diagonal neighbours the Corner Access Zone (CAZ,
//! likely second hop). When the hot zones of two CBs overlap, injection
//! traffic of both banks contends on the same tiles.
//!
//! The policy assigns each tile a penalty of `1 + 2 + … + m` where `m` is
//! the number of its four direct neighbours that are hot-zone *overlap*
//! tiles — a compounding penalty reflecting that congestion from multiple
//! overlaps multiplies queuing delay. The placement's score is the sum over
//! all tiles; **lower is better**.

use equinox_phys::Coord;

/// Which hot-zone class a tile belongs to for a given CB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ZoneKind {
    /// Direct Access Zone — orthogonal neighbour of the CB.
    Daz,
    /// Corner Access Zone — diagonal neighbour of the CB.
    Caz,
}

/// Scores CB placements on a `width × height` mesh by hot-zone overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementScorer {
    width: u16,
    height: u16,
}

impl PlacementScorer {
    /// Creates a scorer for a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be nonzero");
        PlacementScorer { width, height }
    }

    /// For each tile, the list of `(cb_index, zone)` memberships.
    fn zone_map(&self, cbs: &[Coord]) -> Vec<Vec<(usize, ZoneKind)>> {
        let mut map = vec![Vec::new(); self.width as usize * self.height as usize];
        for (i, &cb) in cbs.iter().enumerate() {
            for t in cb.daz(self.width, self.height) {
                map[t.to_index(self.width)].push((i, ZoneKind::Daz));
            }
            for t in cb.caz(self.width, self.height) {
                map[t.to_index(self.width)].push((i, ZoneKind::Caz));
            }
        }
        map
    }

    /// Tiles that belong to the hot zones of two or more distinct CBs.
    ///
    /// In an N-Queen placement these are always DAZ–CAZ overlaps (DAZ–DAZ
    /// and CAZ–CAZ are geometrically impossible, §4.2); knight-move
    /// placements may produce the other kinds too (§6.8).
    pub fn overlap_tiles(&self, cbs: &[Coord]) -> Vec<Coord> {
        self.zone_map(cbs)
            .iter()
            .enumerate()
            .filter(|(_, members)| {
                let mut owners: Vec<usize> = members.iter().map(|&(i, _)| i).collect();
                owners.dedup();
                owners.sort_unstable();
                owners.dedup();
                owners.len() >= 2
            })
            .map(|(idx, _)| Coord::from_index(idx, self.width))
            .collect()
    }

    /// The penalty score of a placement: for every tile, if `m` of its four
    /// direct neighbours are overlap tiles, add `m·(m+1)/2`. Lower is
    /// better.
    ///
    /// ```
    /// # use equinox_placement::score::PlacementScorer;
    /// # use equinox_phys::Coord;
    /// let s = PlacementScorer::new(8, 8);
    /// // Far-apart CBs: no overlaps, zero penalty.
    /// assert_eq!(s.penalty(&[Coord::new(1, 1), Coord::new(6, 6)]), 0);
    /// // Hot zones overlapping: positive penalty.
    /// assert!(s.penalty(&[Coord::new(2, 2), Coord::new(4, 3)]) > 0);
    /// ```
    pub fn penalty(&self, cbs: &[Coord]) -> u64 {
        let overlaps = self.overlap_tiles(cbs);
        let mut is_overlap = vec![false; self.width as usize * self.height as usize];
        for t in &overlaps {
            is_overlap[t.to_index(self.width)] = true;
        }
        let mut total = 0u64;
        for y in 0..self.height {
            for x in 0..self.width {
                let t = Coord::new(x, y);
                let m = t
                    .daz(self.width, self.height)
                    .into_iter()
                    .filter(|n| is_overlap[n.to_index(self.width)])
                    .count() as u64;
                total += m * (m + 1) / 2;
            }
        }
        total
    }

    /// Counts overlap tiles by the pair of zone kinds involved, returned as
    /// `(daz_daz, daz_caz, caz_caz)`. Used by the knight-placement analysis
    /// of §6.8 and to verify the N-Queen impossibility claim.
    #[cfg(test)]
    fn overlap_kinds(&self, cbs: &[Coord]) -> (usize, usize, usize) {
        let map = self.zone_map(cbs);
        let (mut dd, mut dc, mut cc) = (0, 0, 0);
        for members in &map {
            let mut seen_pairs = (false, false, false);
            for (ai, &(cb_a, ka)) in members.iter().enumerate() {
                for &(cb_b, kb) in &members[ai + 1..] {
                    if cb_a == cb_b {
                        continue;
                    }
                    match (ka, kb) {
                        (ZoneKind::Daz, ZoneKind::Daz) => seen_pairs.0 = true,
                        (ZoneKind::Caz, ZoneKind::Caz) => seen_pairs.2 = true,
                        _ => seen_pairs.1 = true,
                    }
                }
            }
            if seen_pairs.0 {
                dd += 1;
            }
            if seen_pairs.1 {
                dc += 1;
            }
            if seen_pairs.2 {
                cc += 1;
            }
        }
        (dd, dc, cc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nqueen::{solutions, to_placement};
    use crate::scheme::Placement;

    #[test]
    fn isolated_cbs_have_zero_penalty() {
        let s = PlacementScorer::new(8, 8);
        assert_eq!(s.penalty(&[Coord::new(1, 1), Coord::new(5, 5)]), 0);
        assert!(s.overlap_tiles(&[Coord::new(1, 1), Coord::new(5, 5)]).is_empty());
    }

    #[test]
    fn adjacent_cbs_overlap_heavily() {
        let s = PlacementScorer::new(8, 8);
        let tight = s.penalty(&[Coord::new(3, 3), Coord::new(4, 3)]);
        let loose = s.penalty(&[Coord::new(2, 3), Coord::new(5, 3)]);
        assert!(tight > loose, "closer CBs must score worse: {tight} vs {loose}");
    }

    #[test]
    fn nqueen_has_no_dazdaz_or_cazcaz_overlaps() {
        // §4.2: "in N-Queen placement, it is not possible to have DAZ-DAZ
        // or CAZ-CAZ overlaps".
        let s = PlacementScorer::new(8, 8);
        for sol in solutions(8) {
            let p = to_placement(8, &sol, None);
            let (dd, _dc, cc) = s.overlap_kinds(&p.cbs);
            assert_eq!(dd, 0, "DAZ-DAZ overlap in {sol:?}");
            assert_eq!(cc, 0, "CAZ-CAZ overlap in {sol:?}");
        }
    }

    #[test]
    fn nqueen_beats_top_and_diamond() {
        let s = PlacementScorer::new(8, 8);
        let best_nq = solutions(8)
            .iter()
            .map(|sol| s.penalty(&to_placement(8, sol, None).cbs))
            .min()
            .unwrap();
        let top = s.penalty(&Placement::top(8, 8, 8).cbs);
        let diamond = s.penalty(&Placement::diamond(8, 8, 8).cbs);
        assert!(best_nq < diamond, "N-Queen {best_nq} !< Diamond {diamond}");
        assert!(best_nq < top, "N-Queen {best_nq} !< Top {top}");
    }

    #[test]
    fn compounding_penalty_example() {
        // A tile with two overlap neighbours contributes 1+2 = 3, not 2
        // (the paper's Figure 5 walk-through).
        let s = PlacementScorer::new(8, 8);
        // Construct CBs so overlap tiles can be pinpointed: CBs at (2,2)
        // and (4,4) share hot-zone tile (3,3).
        let cbs = [Coord::new(2, 2), Coord::new(4, 4)];
        let overlaps = s.overlap_tiles(&cbs);
        assert_eq!(overlaps, vec![Coord::new(3, 3)]);
        // Four tiles have (3,3) as a direct neighbour; each adds 1.
        assert_eq!(s.penalty(&cbs), 4);
    }

    #[test]
    fn hot_zone_membership() {
        // A CB's DAZ and CAZ are the eight tiles around it: not its own
        // tile, nothing two steps away.
        let s = PlacementScorer::new(8, 8);
        let map = s.zone_map(&[Coord::new(3, 3)]);
        let zoned = |x, y| !map[Coord::new(x, y).to_index(8)].is_empty();
        assert!(zoned(4, 4) && zoned(3, 2));
        assert!(!zoned(3, 3), "CB itself is not its hot zone");
        assert!(!zoned(5, 3));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_grid_rejected() {
        let _ = PlacementScorer::new(0, 8);
    }
}
