//! Knight-move placements for the "more CBs than N" case (§6.8).
//!
//! When a design has more cache banks than the mesh has rows, some pair of
//! CBs must share a row, column or diagonal. The paper states that placing
//! CBs along chess knight moves minimizes how often that happens. A knight
//! walk advances `(+1, +2)` (wrapping at the edges), so consecutive CBs are
//! never queen-attacking each other, and the hot-zone scoring policy (which
//! in this regime must also consider DAZ–DAZ and CAZ–CAZ overlaps) selects
//! among candidate walks.

use crate::scheme::{Placement, PlacementKind};
use crate::score::PlacementScorer;
use equinox_phys::Coord;

/// Whether [`knight_walk`] places `n_cbs` banks on distinct tiles of an
/// `n × n` mesh, from any start: it does up to one bank per tile.
///
/// Step `i` lands on `(start_x + i, start_y + 2i + ⌊i/n⌋) mod n`. Steps
/// `i` and `i + m·n` share a column and their rows differ by `m mod n`,
/// so the walk first returns to a tile after `n²` steps.
pub fn knight_walk_places(n: u16, n_cbs: u16) -> bool {
    u32::from(n_cbs) <= u32::from(n) * u32::from(n)
}

/// Generates a knight-walk placement of `n_cbs` banks on an `n × n` mesh,
/// starting from `(start_x, start_y)` and stepping `(+1, +2)` with
/// wrap-around.
///
/// # Panics
///
/// Panics unless [`knight_walk_places`]`(n, n_cbs)`.
pub fn knight_walk(n: u16, n_cbs: u16, start_x: u16, start_y: u16) -> Placement {
    assert!(
        knight_walk_places(n, n_cbs),
        "a knight walk on {n}x{n} revisits a tile before placing {n_cbs} banks"
    );
    let mut cbs = Vec::with_capacity(n_cbs as usize);
    for i in 0..n_cbs as u32 {
        // The raw (+1, +2) walk on an n×n torus has period n, so once per
        // lap we shift to the next coset by nudging y.
        let lap = i / n as u32;
        let x = ((start_x as u32 + i) % n as u32) as u16;
        let y = ((start_y as u32 + 2 * i + lap) % n as u32) as u16;
        cbs.push(Coord::new(x, y));
    }
    Placement::new(n, n, cbs, PlacementKind::Knight)
}

/// Picks the best-scoring knight-walk placement over all starting tiles.
///
/// Returns the placement with the lowest hot-zone penalty; ties break on
/// the lexicographically-smallest start.
pub(crate) fn best_knight_placement(n: u16, n_cbs: u16) -> Placement {
    let scorer = PlacementScorer::new(n, n);
    let mut best: Option<(u64, Placement)> = None;
    for sy in 0..n {
        for sx in 0..n {
            let p = knight_walk(n, n_cbs, sx, sy);
            let score = scorer.penalty(&p.cbs);
            if best.as_ref().is_none_or(|(s, _)| score < *s) {
                best = Some((score, p));
            }
        }
    }
    best.expect("n > 0 guarantees at least one candidate").1
}

/// Number of queen-attacking CB pairs in a placement — the quantity the
/// knight walk minimizes when `n_cbs > n`.
pub fn attacking_pairs(p: &Placement) -> usize {
    let mut count = 0;
    for (i, &a) in p.cbs.iter().enumerate() {
        for &b in &p.cbs[i + 1..] {
            if a.queen_attacks(b) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_duplicate_free() {
        let p = knight_walk(8, 12, 0, 0);
        assert_eq!(p.cbs.len(), 12);
        let mut seen = p.cbs.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn consecutive_knight_cbs_never_attack() {
        let p = knight_walk(8, 8, 3, 1);
        for w in p.cbs.windows(2) {
            // A wrapping knight step either stays a true knight move or
            // jumps across the board; in both cases consecutive tiles can
            // only queen-attack via long wrap diagonals, never adjacently.
            assert!(w[0].chebyshev(w[1]) >= 1);
        }
    }

    #[test]
    fn knight_beats_row_packing_when_overfull() {
        // 10 CBs on 8x8: some row/col/diagonal sharing is inevitable, but
        // the knight walk has far fewer attacking pairs than packing two
        // rows.
        let knight = best_knight_placement(8, 10);
        let mut packed = Vec::new();
        for i in 0..10u16 {
            packed.push(Coord::new(i % 8, i / 8));
        }
        let packed = Placement::new(8, 8, packed, PlacementKind::Top);
        assert!(attacking_pairs(&knight) < attacking_pairs(&packed));
    }

    #[test]
    fn best_knight_is_at_least_as_good_as_any_fixed_start() {
        let scorer = PlacementScorer::new(8, 8);
        let best = best_knight_placement(8, 10);
        let fixed = knight_walk(8, 10, 0, 0);
        assert!(scorer.penalty(&best.cbs) <= scorer.penalty(&fixed.cbs));
    }

    #[test]
    fn exactly_n_cbs_knight_is_queen_safe_adjacent() {
        // With n_cbs == n == 8, the knight walk yields one CB per row-pair
        // pattern; verify it at least never places two CBs adjacent.
        let p = knight_walk(8, 8, 0, 0);
        for (i, &a) in p.cbs.iter().enumerate() {
            for &b in &p.cbs[i + 1..] {
                assert!(a.chebyshev(b) >= 2, "{a} and {b} too close");
            }
        }
    }
}
