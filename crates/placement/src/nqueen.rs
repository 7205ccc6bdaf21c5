//! N-Queen solution enumeration.
//!
//! The paper places CBs like queens on a chessboard so that no two share a
//! row, column or diagonal (§4.2): this simultaneously balances injection
//! traffic and keeps CB→EIR interposer wires from being forced to cross.
//! Solutions are not unique (92 for 8×8), so downstream code scores them
//! with the hot-zone policy and keeps the best.

use crate::scheme::{Placement, PlacementKind};
use equinox_phys::Coord;

/// Enumerates N-Queen solutions on an `n × n` board.
///
/// A solution is a vector `cols` where `cols[row]` is the queen's column in
/// `row`. Solutions are produced in lexicographic order of `cols`, up to
/// `limit` of them (use `usize::MAX` for all).
///
/// For `n = 8` there are exactly 92 solutions; for `n = 12` there are
/// 14,200. For `n = 16` (about 14.8M) pass a finite `limit`.
///
/// ```
/// # use equinox_placement::nqueen::solutions_limited;
/// assert_eq!(solutions_limited(6, usize::MAX).len(), 4);
/// assert_eq!(solutions_limited(8, 10).len(), 10);
/// ```
pub fn solutions_limited(n: u16, limit: usize) -> Vec<Vec<u16>> {
    let mut out = Vec::new();
    if n == 0 || limit == 0 {
        return out;
    }
    let n = n as usize;
    let mut cols = vec![0u16; n];
    let mut col_used = vec![false; n];
    let mut diag_used = vec![false; 2 * n - 1]; // row + col
    let mut anti_used = vec![false; 2 * n - 1]; // row - col + n - 1
    search(
        0,
        n,
        limit,
        &mut cols,
        &mut col_used,
        &mut diag_used,
        &mut anti_used,
        &mut out,
    );
    out
}

/// `true` when an `n × n` board has an N-Queen solution — every `n`
/// but 0, 2 and 3 (a known result; [`solutions`] agrees up to 9), so
/// the question costs no search.
pub fn solvable(n: u16) -> bool {
    !matches!(n, 0 | 2 | 3)
}

/// Enumerates *all* N-Queen solutions on an `n × n` board.
///
/// Convenience wrapper for [`solutions_limited`] with no cap; only sensible
/// for `n <= 13` or so.
pub fn solutions(n: u16) -> Vec<Vec<u16>> {
    solutions_limited(n, usize::MAX)
}

#[allow(clippy::too_many_arguments)]
fn search(
    row: usize,
    n: usize,
    limit: usize,
    cols: &mut Vec<u16>,
    col_used: &mut [bool],
    diag_used: &mut [bool],
    anti_used: &mut [bool],
    out: &mut Vec<Vec<u16>>,
) {
    if out.len() >= limit {
        return;
    }
    if row == n {
        out.push(cols.clone());
        return;
    }
    for col in 0..n {
        let d = row + col;
        let a = row + n - 1 - col;
        if col_used[col] || diag_used[d] || anti_used[a] {
            continue;
        }
        cols[row] = col as u16;
        col_used[col] = true;
        diag_used[d] = true;
        anti_used[a] = true;
        search(row + 1, n, limit, cols, col_used, diag_used, anti_used, out);
        col_used[col] = false;
        diag_used[d] = false;
        anti_used[a] = false;
        if out.len() >= limit {
            return;
        }
    }
}

/// Converts an N-Queen solution (`cols[row] = column`) into a [`Placement`]
/// on an `n × n` mesh, keeping only the CBs in `keep_rows` (pass
/// `None` to keep all `n`). Used for the "fewer CBs than N" case of §6.8,
/// where redundant queens are deleted.
pub fn to_placement(n: u16, cols: &[u16], keep_rows: Option<&[u16]>) -> Placement {
    let cbs: Vec<Coord> = match keep_rows {
        None => cols
            .iter()
            .enumerate()
            .map(|(y, &x)| Coord::new(x, y as u16))
            .collect(),
        Some(rows) => rows
            .iter()
            .map(|&y| Coord::new(cols[y as usize], y))
            .collect(),
    };
    Placement::new(n, n, cbs, PlacementKind::NQueen)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known N-Queen solution counts.
    #[test]
    fn classic_counts() {
        assert_eq!(solutions(1).len(), 1);
        assert_eq!(solutions(2).len(), 0);
        assert_eq!(solutions(3).len(), 0);
        assert_eq!(solutions(4).len(), 2);
        assert_eq!(solutions(5).len(), 10);
        assert_eq!(solutions(6).len(), 4);
        assert_eq!(solutions(7).len(), 40);
        // The paper: "In case of an 8×8 network, there are 92 different
        // N-Queen placements" (§4.2).
        assert_eq!(solutions(8).len(), 92);
        for n in 0..10 {
            assert_eq!(solvable(n), !solutions_limited(n, 1).is_empty(), "n = {n}");
        }
    }

    #[test]
    fn every_solution_is_queen_safe() {
        for sol in solutions(8) {
            let p = to_placement(8, &sol, None);
            assert!(p.is_queen_safe(), "solution {sol:?} not queen-safe");
        }
    }

    #[test]
    fn limit_respected_and_prefix_stable() {
        let all = solutions(8);
        let some = solutions_limited(8, 5);
        assert_eq!(some.len(), 5);
        assert_eq!(&all[..5], &some[..]);
    }

    #[test]
    fn deleted_queens_keep_safety() {
        // §6.8: with fewer CBs than N, delete redundant queens; remaining
        // CBs are still mutually non-attacking.
        let sol = &solutions(12)[0];
        let p = to_placement(12, sol, Some(&[0, 2, 4, 6, 8, 10, 11, 1]));
        assert_eq!(p.cbs.len(), 8);
        assert!(p.is_queen_safe());
    }

    #[test]
    fn twelve_queens_count() {
        assert_eq!(solutions(12).len(), 14_200);
    }
}
