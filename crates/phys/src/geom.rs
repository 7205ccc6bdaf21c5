//! Tile-grid coordinates and directions.
//!
//! The processor die is a `width × height` grid of tiles; each tile holds
//! either a processing element (PE) or a last-level cache bank (CB) plus
//! its router. All placement, routing and interposer-wiring code in the
//! workspace shares this coordinate system. `(0, 0)` is the top-left tile,
//! `x` grows to the right (east) and `y` grows downwards (south), matching
//! the figures in the paper.

use std::fmt;

/// Position of a tile (router / PE / CB) on the processor-die grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column index, growing eastwards.
    pub x: u16,
    /// Row index, growing southwards.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate from column `x` and row `y`.
    ///
    /// ```
    /// # use equinox_phys::geom::Coord;
    /// let c = Coord::new(3, 5);
    /// assert_eq!((c.x, c.y), (3, 5));
    /// ```
    pub const fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Flattens this coordinate to a node index in row-major order for a
    /// grid that is `width` tiles wide.
    ///
    /// ```
    /// # use equinox_phys::geom::Coord;
    /// assert_eq!(Coord::new(2, 1).to_index(8), 10);
    /// ```
    pub const fn to_index(self, width: u16) -> usize {
        self.y as usize * width as usize + self.x as usize
    }

    /// Inverse of [`Coord::to_index`].
    ///
    /// ```
    /// # use equinox_phys::geom::Coord;
    /// assert_eq!(Coord::from_index(10, 8), Coord::new(2, 1));
    /// ```
    pub const fn from_index(index: usize, width: u16) -> Self {
        Coord {
            x: (index % width as usize) as u16,
            y: (index / width as usize) as u16,
        }
    }

    /// Manhattan (hop-count) distance to `other` — the minimal number of
    /// mesh hops between the two routers.
    ///
    /// ```
    /// # use equinox_phys::geom::Coord;
    /// assert_eq!(Coord::new(1, 1).manhattan(Coord::new(4, 3)), 5);
    /// ```
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }

    /// Chebyshev (king-move) distance to `other`. Two tiles with Chebyshev
    /// distance 1 are in each other's *hot zone* (§4.2).
    ///
    /// ```
    /// # use equinox_phys::geom::Coord;
    /// assert_eq!(Coord::new(1, 1).chebyshev(Coord::new(2, 2)), 1);
    /// ```
    pub fn chebyshev(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x).max(self.y.abs_diff(other.y)) as u32
    }

    /// `true` if the two tiles share a row, a column, or a diagonal — the
    /// "queen attack" relation used by the N-Queen placement (§4.2).
    ///
    /// ```
    /// # use equinox_phys::geom::Coord;
    /// assert!(Coord::new(0, 0).queen_attacks(Coord::new(3, 3)));
    /// assert!(!Coord::new(0, 0).queen_attacks(Coord::new(1, 2)));
    /// ```
    pub fn queen_attacks(self, other: Coord) -> bool {
        if self == other {
            return false;
        }
        self.x == other.x
            || self.y == other.y
            || self.x.abs_diff(other.x) == self.y.abs_diff(other.y)
    }

    /// The neighbouring tile one hop in `dir`, if it stays inside a
    /// `width × height` grid.
    ///
    /// ```
    /// # use equinox_phys::geom::{Coord, Direction};
    /// let c = Coord::new(0, 0);
    /// assert_eq!(c.step(Direction::East, 8, 8), Some(Coord::new(1, 0)));
    /// assert_eq!(c.step(Direction::West, 8, 8), None);
    /// ```
    pub fn step(self, dir: Direction, width: u16, height: u16) -> Option<Coord> {
        let (dx, dy) = dir.offset();
        let nx = self.x as i32 + dx;
        let ny = self.y as i32 + dy;
        if nx < 0 || ny < 0 || nx >= width as i32 || ny >= height as i32 {
            None
        } else {
            Some(Coord::new(nx as u16, ny as u16))
        }
    }

    /// The eight tiles surrounding this one (the CB *hot zone* of §4.2),
    /// clipped to the grid. Direct-access-zone (DAZ) tiles are the four
    /// orthogonal neighbours; corner-access-zone (CAZ) tiles are the four
    /// diagonal neighbours.
    #[cfg(test)]
    fn hot_zone(self, width: u16, height: u16) -> Vec<Coord> {
        let mut out = Vec::with_capacity(8);
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = self.x as i32 + dx;
                let ny = self.y as i32 + dy;
                if nx >= 0 && ny >= 0 && nx < width as i32 && ny < height as i32 {
                    out.push(Coord::new(nx as u16, ny as u16));
                }
            }
        }
        out
    }

    /// The four orthogonal neighbours (DAZ tiles), clipped to the grid.
    pub fn daz(self, width: u16, height: u16) -> Vec<Coord> {
        Direction::ALL
            .iter()
            .filter_map(|&d| self.step(d, width, height))
            .collect()
    }

    /// The four diagonal neighbours (CAZ tiles), clipped to the grid.
    pub fn caz(self, width: u16, height: u16) -> Vec<Coord> {
        let mut out = Vec::with_capacity(4);
        for (dx, dy) in [(-1i32, -1i32), (1, -1), (-1, 1), (1, 1)] {
            let nx = self.x as i32 + dx;
            let ny = self.y as i32 + dy;
            if nx >= 0 && ny >= 0 && nx < width as i32 && ny < height as i32 {
                out.push(Coord::new(nx as u16, ny as u16));
            }
        }
        out
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(u16, u16)> for Coord {
    fn from((x, y): (u16, u16)) -> Self {
        Coord::new(x, y)
    }
}

/// One of the four mesh directions.
///
/// The order matches the conventional mesh port numbering used by
/// `equinox-noc` (North, East, South, West).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards decreasing `y`.
    North,
    /// Towards increasing `x`.
    East,
    /// Towards increasing `y`.
    South,
    /// Towards decreasing `x`.
    West,
}

impl Direction {
    /// All four directions in port order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The `(dx, dy)` unit offset of this direction.
    pub(crate) const fn offset(self) -> (i32, i32) {
        match self {
            Direction::North => (0, -1),
            Direction::East => (1, 0),
            Direction::South => (0, 1),
            Direction::West => (-1, 0),
        }
    }

    /// The opposite direction.
    ///
    /// ```
    /// # use equinox_phys::geom::Direction;
    /// assert_eq!(Direction::North.opposite(), Direction::South);
    /// ```
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// Index of this direction in [`Direction::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for y in 0..8u16 {
            for x in 0..8u16 {
                let c = Coord::new(x, y);
                assert_eq!(Coord::from_index(c.to_index(8), 8), c);
            }
        }
    }

    #[test]
    fn manhattan_is_symmetric_and_zero_on_self() {
        let a = Coord::new(2, 7);
        let b = Coord::new(5, 1);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(a), 0);
        assert_eq!(a.manhattan(b), 3 + 6);
    }

    #[test]
    fn queen_attack_relation() {
        let c = Coord::new(3, 3);
        assert!(c.queen_attacks(Coord::new(3, 0))); // same column
        assert!(c.queen_attacks(Coord::new(0, 3))); // same row
        assert!(c.queen_attacks(Coord::new(6, 0))); // anti-diagonal
        assert!(c.queen_attacks(Coord::new(5, 5))); // diagonal
        assert!(!c.queen_attacks(Coord::new(4, 1))); // knight move
        assert!(!c.queen_attacks(c)); // not self-attacking
    }

    #[test]
    fn step_clips_at_boundaries() {
        let c = Coord::new(7, 7);
        assert_eq!(c.step(Direction::East, 8, 8), None);
        assert_eq!(c.step(Direction::South, 8, 8), None);
        assert_eq!(c.step(Direction::North, 8, 8), Some(Coord::new(7, 6)));
        assert_eq!(c.step(Direction::West, 8, 8), Some(Coord::new(6, 7)));
    }

    #[test]
    fn hot_zone_sizes() {
        // Interior tile: 8 neighbours; corner: 3; edge: 5.
        assert_eq!(Coord::new(4, 4).hot_zone(8, 8).len(), 8);
        assert_eq!(Coord::new(0, 0).hot_zone(8, 8).len(), 3);
        assert_eq!(Coord::new(0, 4).hot_zone(8, 8).len(), 5);
    }

    #[test]
    fn daz_caz_partition_hot_zone() {
        let c = Coord::new(4, 4);
        let mut union: Vec<_> = c.daz(8, 8);
        union.extend(c.caz(8, 8));
        union.sort();
        let mut hz = c.hot_zone(8, 8);
        hz.sort();
        assert_eq!(union, hz);
    }

    #[test]
    fn direction_opposites_and_offsets() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            let (dx, dy) = d.offset();
            let (ox, oy) = d.opposite().offset();
            assert_eq!((dx + ox, dy + oy), (0, 0));
            assert_eq!(Direction::ALL[d.index()], d);
        }
    }

    #[test]
    fn chebyshev_vs_manhattan() {
        let a = Coord::new(0, 0);
        let b = Coord::new(3, 2);
        assert_eq!(a.chebyshev(b), 3);
        assert!(a.chebyshev(b) <= a.manhattan(b));
    }
}
