//! The placement data type and the classic reference placements.
//!
//! Top, Side, Diagonal and Diamond were proposed for all-to-all CPU traffic
//! (Abts et al. \[21\]); the paper's Figure 4 analyzes them on the reply
//! network of a throughput processor to motivate the N-Queen placement.

use equinox_phys::Coord;
use std::fmt;

/// Which placement family a [`Placement`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementKind {
    /// All CBs along the top row — maximal row alignment (worst case).
    Top,
    /// CBs split between the west and east edge columns.
    Side,
    /// CBs along the main diagonal.
    Diagonal,
    /// Diamond lattice: `x ≡ y + n/2 (mod n)` — one CB per row and column,
    /// with runs of diagonally-adjacent CBs (the property §4.2 criticizes).
    Diamond,
    /// N-Queen based placement (§4.2): no shared row, column or diagonal.
    NQueen,
    /// Knight-move placement for more CBs than rows (§6.8).
    Knight,
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlacementKind::Top => "Top",
            PlacementKind::Side => "Side",
            PlacementKind::Diagonal => "Diagonal",
            PlacementKind::Diamond => "Diamond",
            PlacementKind::NQueen => "N-Queen",
            PlacementKind::Knight => "Knight",
        };
        f.write_str(s)
    }
}

/// A concrete assignment of cache banks to tiles on a `width × height`
/// mesh. Tiles not listed in `cbs` hold processing elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Mesh width in tiles.
    pub width: u16,
    /// Mesh height in tiles.
    pub height: u16,
    /// Cache-bank tiles, in memory-controller order.
    pub cbs: Vec<Coord>,
    /// The family this placement belongs to.
    pub kind: PlacementKind,
}

impl Placement {
    /// Creates a placement after validating that every CB is on the grid
    /// and no two CBs share a tile.
    ///
    /// # Panics
    ///
    /// Panics if a CB falls outside the grid or two CBs coincide.
    pub fn new(width: u16, height: u16, cbs: Vec<Coord>, kind: PlacementKind) -> Self {
        for (i, c) in cbs.iter().enumerate() {
            assert!(
                c.x < width && c.y < height,
                "CB {i} at {c} outside {width}x{height} grid"
            );
            assert!(
                !cbs[..i].contains(c),
                "duplicate CB position {c}"
            );
        }
        Placement {
            width,
            height,
            cbs,
            kind,
        }
    }

    /// `true` if `tile` hosts a cache bank.
    pub fn is_cb(&self, tile: Coord) -> bool {
        self.cbs.contains(&tile)
    }

    /// Index of the CB at `tile`, if any.
    pub fn cb_index(&self, tile: Coord) -> Option<usize> {
        self.cbs.iter().position(|&c| c == tile)
    }

    /// Iterator over all PE tiles in row-major order.
    pub fn pe_tiles(&self) -> impl Iterator<Item = Coord> + '_ {
        let (w, h) = (self.width, self.height);
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
            .filter(move |t| !self.is_cb(*t))
    }

    /// `true` if no two CBs share a row, column or diagonal — the N-Queen
    /// property (§4.2).
    pub fn is_queen_safe(&self) -> bool {
        for (i, &a) in self.cbs.iter().enumerate() {
            for &b in &self.cbs[i + 1..] {
                if a.queen_attacks(b) {
                    return false;
                }
            }
        }
        true
    }

    /// All CBs along the top row (`y = 0`). Requires `n_cbs <= width`.
    pub fn top(width: u16, height: u16, n_cbs: u16) -> Self {
        assert!(n_cbs <= width, "Top placement needs n_cbs <= width");
        // Spread evenly across the row.
        let cbs = (0..n_cbs)
            .map(|i| Coord::new(i * width / n_cbs, 0))
            .collect();
        Placement::new(width, height, cbs, PlacementKind::Top)
    }

    /// CBs split between the west (`x = 0`) and east (`x = width-1`)
    /// edges, staggered by one row to avoid same-row pairs across edges.
    pub fn side(width: u16, height: u16, n_cbs: u16) -> Self {
        let half = n_cbs / 2;
        let mut cbs = Vec::with_capacity(n_cbs as usize);
        for i in 0..half {
            cbs.push(Coord::new(0, (2 * i) % height));
        }
        for i in 0..(n_cbs - half) {
            cbs.push(Coord::new(width - 1, (2 * i + 1) % height));
        }
        Placement::new(width, height, cbs, PlacementKind::Side)
    }

    /// CBs along the main diagonal, spread over the full grid.
    pub fn diagonal(width: u16, height: u16, n_cbs: u16) -> Self {
        let n = width.min(height);
        assert!(n_cbs <= n, "Diagonal placement needs n_cbs <= min(w,h)");
        let cbs = (0..n_cbs)
            .map(|i| {
                let p = i * n / n_cbs;
                Coord::new(p, p)
            })
            .collect();
        Placement::new(width, height, cbs, PlacementKind::Diagonal)
    }

    /// Diamond lattice placement: on an `n × n` grid, CB `y` sits at
    /// `x = (y + n/2) mod n` (rows spread over the grid when
    /// `n_cbs < n`). One CB per row and column, but consecutive CBs are
    /// diagonally adjacent — exactly the wiring hazard §4.2 points out.
    pub fn diamond(width: u16, height: u16, n_cbs: u16) -> Self {
        let n = width.min(height);
        assert!(n_cbs <= n, "Diamond placement needs n_cbs <= min(w,h)");
        let cbs = (0..n_cbs)
            .map(|i| {
                let y = i * n / n_cbs;
                let x = (y + n / 2) % n;
                Coord::new(x, y)
            })
            .collect();
        Placement::new(width, height, cbs, PlacementKind::Diamond)
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} placement on {}x{} ({} CBs):",
            self.kind,
            self.width,
            self.height,
            self.cbs.len()
        )?;
        for y in 0..self.height {
            for x in 0..self.width {
                let ch = if self.is_cb(Coord::new(x, y)) { 'C' } else { '.' };
                write!(f, "{ch} ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_places_all_in_row_zero() {
        let p = Placement::top(8, 8, 8);
        assert_eq!(p.cbs.len(), 8);
        assert!(p.cbs.iter().all(|c| c.y == 0));
        assert!(!p.is_queen_safe());
    }

    #[test]
    fn side_places_on_edges() {
        let p = Placement::side(8, 8, 8);
        assert_eq!(p.cbs.len(), 8);
        assert!(p.cbs.iter().all(|c| c.x == 0 || c.x == 7));
    }

    #[test]
    fn diagonal_is_row_column_unique_but_diagonal_aligned() {
        let p = Placement::diagonal(8, 8, 8);
        for (i, &a) in p.cbs.iter().enumerate() {
            for &b in &p.cbs[i + 1..] {
                assert_ne!(a.x, b.x);
                assert_ne!(a.y, b.y);
            }
        }
        assert!(!p.is_queen_safe(), "diagonal CBs attack each other");
    }

    #[test]
    fn diamond_is_row_column_unique_with_diagonal_neighbors() {
        let p = Placement::diamond(8, 8, 8);
        for (i, &a) in p.cbs.iter().enumerate() {
            for &b in &p.cbs[i + 1..] {
                assert_ne!(a.x, b.x, "diamond must not share columns");
                assert_ne!(a.y, b.y, "diamond must not share rows");
            }
        }
        // The §4.2 hazard: at least one diagonally-adjacent CB pair.
        let has_diag_neighbors = p.cbs.iter().enumerate().any(|(i, &a)| {
            p.cbs[i + 1..].iter().any(|&b| a.chebyshev(b) == 1)
        });
        assert!(has_diag_neighbors);
    }

    #[test]
    fn pe_tiles_complement_cbs() {
        let p = Placement::diamond(8, 8, 8);
        assert_eq!(p.pe_tiles().count(), 56);
        assert!(p.pe_tiles().all(|t| !p.is_cb(t)));
    }

    #[test]
    fn cb_index_lookup() {
        let p = Placement::diagonal(8, 8, 8);
        assert_eq!(p.cb_index(Coord::new(0, 0)), Some(0));
        assert_eq!(p.cb_index(Coord::new(1, 0)), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_off_grid_cb() {
        let _ = Placement::new(4, 4, vec![Coord::new(4, 0)], PlacementKind::Top);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_cb() {
        let _ = Placement::new(
            4,
            4,
            vec![Coord::new(1, 1), Coord::new(1, 1)],
            PlacementKind::Top,
        );
    }

    #[test]
    fn larger_grids_supported() {
        for n in [12u16, 16] {
            let p = Placement::diamond(n, n, 8);
            assert_eq!(p.cbs.len(), 8);
            assert!(p.cbs.iter().all(|c| c.x < n && c.y < n));
        }
    }
}
