//! Straight wire segments in the redistribution layers and crossing tests.
//!
//! EquiNox routes each CB→EIR interposer link as a straight segment between
//! the two tile centres (the paper's Figure 3 draws them exactly so). Two
//! segments that *properly cross* — intersect at a point interior to both —
//! cannot share an RDL metal layer, so the MCTS evaluation function counts
//! crossings (§4.3) and the physical model turns the crossing graph into a
//! layer count ([`crate::rdl`]).
//!
//! Segments that merely share an endpoint (e.g. the four links fanning out
//! of one CB) do **not** count as crossings: they originate from the same
//! µbump cluster and are trivially routable on one layer.

use crate::geom::Coord;
use std::fmt;

/// A straight interposer wire between two tile centres.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Source tile (usually a CB).
    pub a: Coord,
    /// Destination tile (usually an EIR).
    pub b: Coord,
}

impl Segment {
    /// Creates a segment between tiles `a` and `b`.
    ///
    /// ```
    /// # use equinox_phys::{geom::Coord, segment::Segment};
    /// let s = Segment::new(Coord::new(0, 0), Coord::new(2, 2));
    /// assert_eq!(s.hop_length(), 4);
    /// ```
    pub const fn new(a: Coord, b: Coord) -> Self {
        Segment { a, b }
    }

    /// Manhattan length of the segment in hops — the paper measures
    /// interposer link length in mesh hops ("2-hop links").
    pub fn hop_length(&self) -> u32 {
        self.a.manhattan(self.b)
    }

    /// Euclidean length in tile pitches.
    ///
    /// ```
    /// # use equinox_phys::{geom::Coord, segment::Segment};
    /// let s = Segment::new(Coord::new(0, 0), Coord::new(3, 4));
    /// assert!((s.euclid_length() - 5.0).abs() < 1e-12);
    /// ```
    pub fn euclid_length(&self) -> f64 {
        let dx = self.a.x as f64 - self.b.x as f64;
        let dy = self.a.y as f64 - self.b.y as f64;
        (dx * dx + dy * dy).sqrt()
    }

    /// `true` if this segment and `other` properly cross, i.e. intersect at
    /// a point that is not a shared endpoint. Collinear overlapping
    /// segments also count as crossing (they would contend for the same
    /// routing track).
    pub fn crosses(&self, other: &Segment) -> bool {
        // Shared endpoints never count: links fanning out of one CB are
        // routable on a single layer.
        if self.a == other.a || self.a == other.b || self.b == other.a || self.b == other.b {
            return false;
        }
        segments_intersect(
            to_f64(self.a),
            to_f64(self.b),
            to_f64(other.a),
            to_f64(other.b),
        )
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.a, self.b)
    }
}

fn to_f64(c: Coord) -> (f64, f64) {
    (c.x as f64, c.y as f64)
}

/// Orientation of the ordered triple (p, q, r): >0 counter-clockwise,
/// <0 clockwise, 0 collinear.
fn orient(p: (f64, f64), q: (f64, f64), r: (f64, f64)) -> f64 {
    (q.0 - p.0) * (r.1 - p.1) - (q.1 - p.1) * (r.0 - p.0)
}

fn on_segment(p: (f64, f64), q: (f64, f64), r: (f64, f64)) -> bool {
    q.0 >= p.0.min(r.0) && q.0 <= p.0.max(r.0) && q.1 >= p.1.min(r.1) && q.1 <= p.1.max(r.1)
}

/// Classic segment-intersection predicate (inclusive of touching interiors).
fn segments_intersect(p1: (f64, f64), q1: (f64, f64), p2: (f64, f64), q2: (f64, f64)) -> bool {
    let o1 = orient(p1, q1, p2);
    let o2 = orient(p1, q1, q2);
    let o3 = orient(p2, q2, p1);
    let o4 = orient(p2, q2, q1);

    if (o1 > 0.0) != (o2 > 0.0) && (o3 > 0.0) != (o4 > 0.0) && o1 != 0.0 && o2 != 0.0 {
        return true;
    }
    // Collinear / touching cases.
    (o1 == 0.0 && on_segment(p1, p2, q1))
        || (o2 == 0.0 && on_segment(p1, q2, q1))
        || (o3 == 0.0 && on_segment(p2, p1, q2))
        || (o4 == 0.0 && on_segment(p2, q1, q2))
}

/// Counts the number of properly-crossing pairs among `segments`.
///
/// This is the "number of intersection points" metric of the MCTS
/// evaluation function (§4.3). The count is over unordered pairs; three
/// mutually-crossing wires yield 3.
///
/// ```
/// # use equinox_phys::{geom::Coord, segment::{count_crossings, Segment}};
/// let wires = [
///     Segment::new(Coord::new(0, 1), Coord::new(2, 1)), // horizontal
///     Segment::new(Coord::new(1, 0), Coord::new(1, 2)), // vertical, crosses
///     Segment::new(Coord::new(5, 5), Coord::new(6, 5)), // far away
/// ];
/// assert_eq!(count_crossings(&wires), 1);
/// ```
pub fn count_crossings(segments: &[Segment]) -> usize {
    let mut n = 0;
    for i in 0..segments.len() {
        for j in (i + 1)..segments.len() {
            if segments[i].crosses(&segments[j]) {
                n += 1;
            }
        }
    }
    n
}

/// Returns the list of crossing pairs (indices into `segments`).
pub(crate) fn crossing_pairs(segments: &[Segment]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..segments.len() {
        for j in (i + 1)..segments.len() {
            if segments[i].crosses(&segments[j]) {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: u16, y: u16) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn perpendicular_cross() {
        let h = Segment::new(c(0, 1), c(2, 1));
        let v = Segment::new(c(1, 0), c(1, 2));
        assert!(h.crosses(&v));
        assert!(v.crosses(&h));
    }

    #[test]
    fn shared_endpoint_is_not_a_crossing() {
        let a = Segment::new(c(2, 2), c(4, 2));
        let b = Segment::new(c(2, 2), c(2, 4));
        assert!(!a.crosses(&b));
    }

    #[test]
    fn disjoint_segments_do_not_cross() {
        let a = Segment::new(c(0, 0), c(1, 0));
        let b = Segment::new(c(5, 5), c(6, 6));
        assert!(!a.crosses(&b));
    }

    #[test]
    fn diagonal_neighbor_cb_links_cross() {
        // The paper's Diamond-placement example (§4.2): upper CB at (3,2)
        // with a horizontal x+ link, lower CB at (4,3) with a vertical y-
        // link; even one-hop links intersect.
        let upper = Segment::new(c(3, 2), c(4, 2));
        let lower = Segment::new(c(4, 3), c(4, 1));
        assert!(upper.crosses(&lower));
    }

    #[test]
    fn collinear_overlap_counts() {
        let a = Segment::new(c(0, 0), c(4, 0));
        let b = Segment::new(c(1, 0), c(3, 0));
        assert!(a.crosses(&b));
    }

    #[test]
    fn touching_interior_counts() {
        // b's endpoint lies in the middle of a (T junction): wires touch,
        // must be on separate layers.
        let a = Segment::new(c(0, 0), c(4, 0));
        let b = Segment::new(c(2, 0), c(2, 3));
        assert!(a.crosses(&b));
    }

    #[test]
    fn count_matches_pairs() {
        let wires = [
            Segment::new(c(0, 1), c(4, 1)),
            Segment::new(c(1, 0), c(1, 3)),
            Segment::new(c(3, 0), c(3, 3)),
        ];
        assert_eq!(count_crossings(&wires), 2);
        assert_eq!(crossing_pairs(&wires), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn diagonal_cross() {
        let a = Segment::new(c(0, 0), c(2, 2));
        let b = Segment::new(c(2, 0), c(0, 2));
        assert!(a.crosses(&b));
    }
}
