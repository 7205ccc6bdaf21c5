//! Randomized (seeded, deterministic) tests for placement engines and
//! the scoring policy.

use equinox_exec::Rng;
use equinox_placement::knight::{knight_walk, knight_walk_places};
use equinox_placement::nqueen::{solutions_limited, to_placement};
use equinox_placement::score::PlacementScorer;
use equinox_placement::select::best_nqueen_placement;
use equinox_phys::Coord;

#[test]
fn nqueen_solutions_are_queen_safe() {
    let mut rng = Rng::seed_from_u64(0x9E1);
    for _ in 0..32 {
        let n = rng.random_range(4u16..9);
        let limit = rng.random_range(1usize..30);
        for sol in solutions_limited(n, limit) {
            let p = to_placement(n, &sol, None);
            assert!(p.is_queen_safe());
            assert_eq!(p.cbs.len(), n as usize);
        }
    }
}

#[test]
fn deleting_queens_preserves_safety() {
    let mut rng = Rng::seed_from_u64(0x9E2);
    let sols = solutions_limited(8, 1);
    for _ in 0..64 {
        let mut keep = std::collections::BTreeSet::new();
        for _ in 0..rng.random_range(1usize..8) {
            keep.insert(rng.random_range(0u16..8));
        }
        let rows: Vec<u16> = keep.into_iter().collect();
        let p = to_placement(8, &sols[0], Some(&rows));
        assert!(p.is_queen_safe());
        assert_eq!(p.cbs.len(), rows.len());
    }
}

#[test]
fn knight_walks_are_duplicate_free() {
    // Every shorter walk is a prefix of the n²-bank one, so this covers
    // every count `knight_walk_places` admits, from every start; one
    // bank more would need a tile twice.
    for n in 2u16..=10 {
        assert!(!knight_walk_places(n, n * n + 1));
        for (sx, sy) in (0..n).flat_map(|x| (0..n).map(move |y| (x, y))) {
            let p = knight_walk(n, n * n, sx, sy);
            let mut seen = p.cbs.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), usize::from(n * n), "{n}x{n} from ({sx}, {sy})");
        }
    }
}

#[test]
fn penalty_zero_iff_no_overlaps() {
    let mut rng = Rng::seed_from_u64(0x9E4);
    for _ in 0..256 {
        let a = Coord::new(rng.random_range(0u16..8), rng.random_range(0u16..8));
        let b = Coord::new(rng.random_range(0u16..8), rng.random_range(0u16..8));
        if a == b {
            continue;
        }
        let s = PlacementScorer::new(8, 8);
        let overlaps = s.overlap_tiles(&[a, b]);
        let penalty = s.penalty(&[a, b]);
        assert_eq!(
            overlaps.is_empty(),
            penalty == 0,
            "overlaps {overlaps:?} penalty {penalty}"
        );
        // Far-apart CBs can never overlap (hot zones have radius 1).
        if a.chebyshev(b) > 3 {
            assert_eq!(penalty, 0);
        }
    }
}

#[test]
fn single_cb_has_zero_penalty() {
    for x in 0..8 {
        for y in 0..8 {
            let s = PlacementScorer::new(8, 8);
            assert_eq!(s.penalty(&[Coord::new(x, y)]), 0);
        }
    }
}

#[test]
fn best_placement_no_worse_than_any_sample() {
    let scorer = PlacementScorer::new(8, 8);
    for seed in 0u64..50 {
        let best = best_nqueen_placement(8, 8, usize::MAX, seed);
        // Compare against a handful of raw solutions.
        for sol in solutions_limited(8, 5) {
            let p = to_placement(8, &sol, None);
            assert!(scorer.penalty(&best.cbs) <= scorer.penalty(&p.cbs));
        }
    }
}
