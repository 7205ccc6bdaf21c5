//! Topology as a first-class abstraction.
//!
//! Historically the network builder, the route-compute stage and the
//! escape-VC auditor all assumed a 2D mesh. This module factors that
//! assumption into a [`Topology`] trait: a fabric describes its link
//! graph ([`Topology::links`]), its productive output ports per
//! (current, destination) pair ([`Topology::route`]) and its
//! deadlock-freedom *escape contract* ([`Topology::escape_port`]), and
//! `Network` builds, routes and audits against that description. Adding
//! a fabric is a one-file change: implement the trait, register the
//! [`TopologyKind`], done.
//!
//! # Conventions shared by every fabric
//!
//! * Nodes are laid out on a `width × height` grid: node `i` sits at
//!   [`Coord::from_index`]`(i, width)`. This keeps NI indexing, heat
//!   maps, placement logic and obs link grids topology-agnostic.
//! * Every router has the uniform five-port shape: network ports
//!   `0..4` and the local (injection/ejection) port
//!   [`crate::router::PORT_LOCAL`]. Ports a fabric does not wire stay
//!   [`crate::router::OutputRole::Dead`] and cost nothing.
//! * [`Topology::route`] returns at most two candidate ports in
//!   preference order (the allocator's credit tie-break may swap two),
//!   and **must** include the escape port so the escape VC is always
//!   reachable (Duato's condition).
//!
//! # Escape contracts
//!
//! * **Mesh** — the escape VC is restricted to the dimension-ordered
//!   (XY) port; the XY channel dependence graph is acyclic.
//! * **Ring** — nodes form one bidirectional cycle in boustrophedon
//!   (snake) order over the grid. The escape path is *linearized*: it
//!   travels toward the destination in linear ring order and never
//!   crosses the wrap edge, so escape channels form two disjoint
//!   directed paths (acyclic). Minimal-adaptive routing may use the
//!   wrap links on non-escape VCs; to keep indirect dependencies out of
//!   the escape graph the fabric *captures* escaped packets
//!   ([`Topology::captures_escape`]): once a flit travels on the escape
//!   VC over a network link it stays on escape VCs to the destination.
//! * **HierarchicalRing** — each row is a local bidirectional ring and
//!   the column-0 hubs form a global ring. The escape path is
//!   hierarchical and wrap-free (linear to the hub, linear along the
//!   global ring, linear into the destination row), ordered
//!   row-backward < global < row-forward, hence acyclic; escaped
//!   packets are captured exactly as on the ring.

use crate::config::RoutingKind;
use equinox_phys::{Coord, Direction};
use std::fmt;

/// The registered fabrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopologyKind {
    /// 2D mesh, XY escape (the paper's fabric).
    #[default]
    Mesh,
    /// One bidirectional ring in snake order over the grid.
    Ring,
    /// Row rings bridged by a global ring over the column-0 hubs.
    HierRing,
}

impl TopologyKind {
    /// Stable lower-case name (spec values, artifact JSON).
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Ring => "ring",
            TopologyKind::HierRing => "hring",
        }
    }

    /// Parses a spec-layer name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the legal names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "mesh" => Ok(TopologyKind::Mesh),
            "ring" => Ok(TopologyKind::Ring),
            "hring" => Ok(TopologyKind::HierRing),
            other => Err(format!(
                "unknown topology '{other}' (expected mesh, ring or hring)"
            )),
        }
    }

    /// Stable tag written into a network's snapshot.
    pub(crate) fn tag(self) -> u8 {
        match self {
            TopologyKind::Mesh => 0,
            TopologyKind::Ring => 1,
            TopologyKind::HierRing => 2,
        }
    }

    /// Instantiates the fabric for a `width × height` grid.
    ///
    /// # Panics
    ///
    /// Panics on dimensions the fabric cannot be built on; call
    /// [`crate::config::NocConfig::validate`] first for an error value.
    pub(crate) fn build(self, width: u16, height: u16) -> Box<dyn Topology> {
        match self {
            TopologyKind::Mesh => Box::new(Mesh { width, height }),
            TopologyKind::Ring => Box::new(Ring::new(width, height)),
            TopologyKind::HierRing => Box::new(HierRing::new(width, height)),
        }
    }
}

/// One directed network link of a fabric's graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TopoLink {
    /// Source node (row-major grid index).
    pub from: usize,
    /// Output port on the source router (`< PORT_LOCAL`).
    pub from_port: usize,
    /// Destination node.
    pub to: usize,
    /// Input port on the destination router (`< PORT_LOCAL`).
    pub to_port: usize,
}

/// Up to two candidate output ports in preference order. Two slots
/// suffice for every registered fabric (a mesh has at most two
/// productive directions, a ring a minimal and an escape port), and the
/// fixed capacity keeps route compute allocation-free.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PortSet {
    ports: [u8; 2],
    len: u8,
}

impl PortSet {
    /// The empty set.
    pub(crate) const fn new() -> Self {
        PortSet { ports: [0; 2], len: 0 }
    }

    /// Appends `port` unless it is already present.
    ///
    /// # Panics
    ///
    /// Panics beyond two distinct ports — no supported fabric offers
    /// more than two productive directions per hop.
    pub(crate) fn push(&mut self, port: usize) {
        if self.as_slice().contains(&(port as u8)) {
            return;
        }
        assert!(self.len < 2, "PortSet overflow");
        self.ports[self.len as usize] = port as u8;
        self.len += 1;
    }

    /// The candidate ports, in preference order.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.ports[..self.len as usize]
    }
}

/// A fabric: link graph + productive-direction function + escape
/// contract. See the module docs for the conventions implementations
/// must uphold.
pub(crate) trait Topology: fmt::Debug + Send + Sync {
    /// Which registered fabric this is.
    fn kind(&self) -> TopologyKind;
    /// Grid width (node `i` is at `Coord::from_index(i, width)`).
    fn width(&self) -> u16;
    /// Grid height.
    fn height(&self) -> u16;

    /// Number of nodes (= routers).
    fn num_nodes(&self) -> usize {
        self.width() as usize * self.height() as usize
    }

    /// The node table: grid coordinate → node index.
    fn node_index(&self, c: Coord) -> usize {
        c.to_index(self.width())
    }

    /// Inverse of [`Topology::node_index`].
    fn node_coord(&self, i: usize) -> Coord {
        Coord::from_index(i, self.width())
    }

    /// Every directed network link, in a deterministic build order.
    fn links(&self) -> Vec<TopoLink>;

    /// Productive output ports from `cur` toward `dst` (`cur != dst`),
    /// in preference order. Must always include
    /// [`Topology::escape_port`]`(cur, dst)`.
    fn route(&self, routing: RoutingKind, cur: usize, dst: usize) -> PortSet;

    /// The port the deadlock-free escape path takes from `cur` toward
    /// `dst` (`None` when `cur == dst`). The escape VC of each message
    /// class is allocatable only on this port, and the per-fabric
    /// escape channel dependence graph must be acyclic — the invariant
    /// the auditor checks generically.
    fn escape_port(&self, cur: usize, dst: usize) -> Option<usize>;

    /// `true` if a flit that arrives over a network link on the escape
    /// VC must stay on the escape path (port *and* VC) until ejection.
    /// Ring-like fabrics use this to keep adaptive wrap detours from
    /// introducing indirect dependencies between escape channels.
    fn captures_escape(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------- mesh

/// The 2D mesh: minimal adaptive routing over the productive
/// directions, X-first dimension-order escape. [`Mesh::links`]
/// enumerates links in the order the golden flit traces and link IDs
/// were pinned with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mesh {
    width: u16,
    height: u16,
}

impl Topology for Mesh {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Mesh
    }
    fn width(&self) -> u16 {
        self.width
    }
    fn height(&self) -> u16 {
        self.height
    }

    fn links(&self) -> Vec<TopoLink> {
        let mut out = Vec::new();
        for i in 0..self.num_nodes() {
            let c = self.node_coord(i);
            for dir in Direction::ALL {
                if let Some(nc) = c.step(dir, self.width, self.height) {
                    out.push(TopoLink {
                        from: i,
                        from_port: dir.index(),
                        to: self.node_index(nc),
                        to_port: dir.opposite().index(),
                    });
                }
            }
        }
        out
    }

    fn route(&self, routing: RoutingKind, cur: usize, dst: usize) -> PortSet {
        let mut set = PortSet::new();
        if routing == RoutingKind::Xy {
            // Deterministic routing degenerates to the escape path.
            if let Some(p) = self.escape_port(cur, dst) {
                set.push(p);
            }
            return set;
        }
        // Every productive direction, X before Y, so the X-first escape
        // port is always one of them.
        let (c, d) = (self.node_coord(cur), self.node_coord(dst));
        if c.x != d.x {
            set.push(if c.x < d.x { Direction::East } else { Direction::West }.index());
        }
        if c.y != d.y {
            set.push(if c.y < d.y { Direction::South } else { Direction::North }.index());
        }
        set
    }

    fn escape_port(&self, cur: usize, dst: usize) -> Option<usize> {
        // X-first dimension order: exhaust X, then Y.
        let (c, d) = (self.node_coord(cur), self.node_coord(dst));
        let dir = if c.x < d.x {
            Direction::East
        } else if c.x > d.x {
            Direction::West
        } else if c.y < d.y {
            Direction::South
        } else if c.y > d.y {
            Direction::North
        } else {
            return None;
        };
        Some(dir.index())
    }
}

// ---------------------------------------------------------------- ring

/// Ring port facing the previous node in ring order.
const PORT_PREV: usize = 0;
/// Ring port facing the next node in ring order.
const PORT_NEXT: usize = 1;

/// One bidirectional ring over all `width × height` nodes in
/// boustrophedon (snake) order, so consecutive ring neighbours are
/// physically adjacent on the grid. Port [`PORT_PREV`] faces the
/// previous node, [`PORT_NEXT`] the next; ports 2 and 3 stay dead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ring {
    width: u16,
    height: u16,
}

impl Ring {
    /// # Panics
    ///
    /// Panics with fewer than two nodes.
    pub(crate) fn new(width: u16, height: u16) -> Self {
        assert!(
            width as usize * height as usize >= 2,
            "a ring needs at least two nodes"
        );
        Ring { width, height }
    }

    /// Snake position of node index `i`: even rows run left-to-right,
    /// odd rows right-to-left.
    fn pos(&self, i: usize) -> usize {
        let w = self.width as usize;
        let (x, y) = (i % w, i / w);
        y * w + if y % 2 == 0 { x } else { w - 1 - x }
    }

    /// Node index at snake position `p`.
    fn at(&self, p: usize) -> usize {
        let w = self.width as usize;
        let (q, y) = (p % w, p / w);
        y * w + if y % 2 == 0 { q } else { w - 1 - q }
    }
}

impl Topology for Ring {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Ring
    }
    fn width(&self) -> u16 {
        self.width
    }
    fn height(&self) -> u16 {
        self.height
    }

    fn links(&self) -> Vec<TopoLink> {
        let n = self.num_nodes();
        let mut out = Vec::new();
        for p in 0..n {
            let (a, b) = (self.at(p), self.at((p + 1) % n));
            out.push(TopoLink { from: a, from_port: PORT_NEXT, to: b, to_port: PORT_PREV });
            out.push(TopoLink { from: b, from_port: PORT_PREV, to: a, to_port: PORT_NEXT });
        }
        out
    }

    fn route(&self, routing: RoutingKind, cur: usize, dst: usize) -> PortSet {
        let n = self.num_nodes();
        let (sc, sd) = (self.pos(cur), self.pos(dst));
        let escape = if sd > sc { PORT_NEXT } else { PORT_PREV };
        let mut set = PortSet::new();
        if routing == RoutingKind::Xy {
            // Deterministic routing degenerates to the escape path.
            set.push(escape);
            return set;
        }
        let fwd = (sd + n - sc) % n;
        let bwd = n - fwd;
        // Minimal direction first (wrap links are fair game on adaptive
        // VCs), then the linear escape direction.
        set.push(if fwd <= bwd { PORT_NEXT } else { PORT_PREV });
        set.push(escape);
        set
    }

    fn escape_port(&self, cur: usize, dst: usize) -> Option<usize> {
        if cur == dst {
            return None;
        }
        Some(if self.pos(dst) > self.pos(cur) {
            PORT_NEXT
        } else {
            PORT_PREV
        })
    }

    fn captures_escape(&self) -> bool {
        true
    }
}

// ----------------------------------------------------- hierarchical ring

/// Hub port facing the previous row's hub on the global ring.
const PORT_GLOBAL_PREV: usize = 2;
/// Hub port facing the next row's hub on the global ring.
const PORT_GLOBAL_NEXT: usize = 3;

/// Rows as local bidirectional rings (ports [`PORT_PREV`]/[`PORT_NEXT`]
/// along x with wrap), bridged by one global bidirectional ring over
/// the column-0 hubs (ports [`PORT_GLOBAL_PREV`]/[`PORT_GLOBAL_NEXT`]
/// along y with wrap). Traffic between rows transfers at the hubs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HierRing {
    width: u16,
    height: u16,
}

impl HierRing {
    /// # Panics
    ///
    /// Panics unless both dimensions are at least two (each row must be
    /// a real ring and there must be a global ring to bridge them).
    pub(crate) fn new(width: u16, height: u16) -> Self {
        assert!(
            width >= 2 && height >= 2,
            "a hierarchical ring needs width >= 2 and height >= 2"
        );
        HierRing { width, height }
    }

    fn xy(&self, i: usize) -> (usize, usize) {
        let w = self.width as usize;
        (i % w, i / w)
    }
}

impl Topology for HierRing {
    fn kind(&self) -> TopologyKind {
        TopologyKind::HierRing
    }
    fn width(&self) -> u16 {
        self.width
    }
    fn height(&self) -> u16 {
        self.height
    }

    fn links(&self) -> Vec<TopoLink> {
        let (w, h) = (self.width as usize, self.height as usize);
        let mut out = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let (a, b) = (y * w + x, y * w + (x + 1) % w);
                out.push(TopoLink { from: a, from_port: PORT_NEXT, to: b, to_port: PORT_PREV });
                out.push(TopoLink { from: b, from_port: PORT_PREV, to: a, to_port: PORT_NEXT });
            }
        }
        for y in 0..h {
            let (a, b) = (y * w, ((y + 1) % h) * w);
            out.push(TopoLink {
                from: a,
                from_port: PORT_GLOBAL_NEXT,
                to: b,
                to_port: PORT_GLOBAL_PREV,
            });
            out.push(TopoLink {
                from: b,
                from_port: PORT_GLOBAL_PREV,
                to: a,
                to_port: PORT_GLOBAL_NEXT,
            });
        }
        out
    }

    fn route(&self, routing: RoutingKind, cur: usize, dst: usize) -> PortSet {
        let escape = self.escape_port(cur, dst).expect("route requires cur != dst");
        let mut set = PortSet::new();
        if routing == RoutingKind::Xy {
            set.push(escape);
            return set;
        }
        let (w, h) = (self.width as usize, self.height as usize);
        let ((cx, cy), (dx, dy)) = (self.xy(cur), self.xy(dst));
        // Minimal next hop within the current ring phase (wrap allowed),
        // then the wrap-free escape direction.
        let minimal = if cy == dy {
            let fwd = (dx + w - cx) % w;
            if fwd <= w - fwd { PORT_NEXT } else { PORT_PREV }
        } else if cx != 0 {
            // Reach the hub of this row first.
            let fwd = (w - cx) % w;
            if fwd < cx { PORT_NEXT } else { PORT_PREV }
        } else {
            let fwd = (dy + h - cy) % h;
            if fwd <= h - fwd { PORT_GLOBAL_NEXT } else { PORT_GLOBAL_PREV }
        };
        set.push(minimal);
        set.push(escape);
        set
    }

    fn escape_port(&self, cur: usize, dst: usize) -> Option<usize> {
        if cur == dst {
            return None;
        }
        let ((cx, cy), (dx, dy)) = (self.xy(cur), self.xy(dst));
        Some(if cy == dy {
            // Linear within the row (never the row wrap edge).
            if dx > cx { PORT_NEXT } else { PORT_PREV }
        } else if cx != 0 {
            // Linear toward the hub at x = 0.
            PORT_PREV
        } else {
            // Linear along the global ring (never the column wrap edge).
            if dy > cy { PORT_GLOBAL_NEXT } else { PORT_GLOBAL_PREV }
        })
    }

    fn captures_escape(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::PORT_LOCAL;

    fn check_link_graph(t: &dyn Topology) {
        let links = t.links();
        // Every input port is fed by at most one link, every output
        // port drives at most one, and endpoints are in range.
        let n = t.num_nodes();
        let mut in_used = vec![[false; 4]; n];
        let mut out_used = vec![[false; 4]; n];
        for l in &links {
            assert!(l.from < n && l.to < n, "{l:?} endpoint out of range");
            assert!(l.from_port < PORT_LOCAL && l.to_port < PORT_LOCAL);
            assert!(!out_used[l.from][l.from_port], "double-driven output {l:?}");
            assert!(!in_used[l.to][l.to_port], "double-fed input {l:?}");
            out_used[l.from][l.from_port] = true;
            in_used[l.to][l.to_port] = true;
        }
        // Routing only ever returns wired ports, includes the escape
        // port, and the escape path reaches the destination (bounded by
        // the node count per phase ordering argument — 3n is generous).
        for (cur, outs) in out_used.iter().enumerate() {
            for dst in 0..n {
                if cur == dst {
                    assert_eq!(t.escape_port(cur, dst), None);
                    continue;
                }
                let esc = t.escape_port(cur, dst).expect("escape port exists");
                for routing in [RoutingKind::Xy, RoutingKind::MinimalAdaptive] {
                    let set = t.route(routing, cur, dst);
                    assert!(!set.as_slice().is_empty(), "no route {cur}->{dst}");
                    assert!(
                        set.as_slice().contains(&(esc as u8)),
                        "escape port missing from candidates {cur}->{dst}"
                    );
                    for &p in set.as_slice() {
                        assert!(
                            outs[p as usize],
                            "unwired candidate port {p} at {cur}->{dst}"
                        );
                    }
                }
                // Walk the escape path to the destination.
                let (mut at, mut hops) = (cur, 0usize);
                while at != dst {
                    let p = t.escape_port(at, dst).expect("progress");
                    let l = links
                        .iter()
                        .find(|l| l.from == at && l.from_port == p)
                        .expect("escape port wired");
                    at = l.to;
                    hops += 1;
                    assert!(hops <= 3 * n, "escape path loops {cur}->{dst}");
                }
            }
        }
    }

    #[test]
    fn mesh_link_graph_and_routes_are_sound() {
        check_link_graph(&Mesh { width: 4, height: 3 });
    }

    #[test]
    fn ring_link_graph_and_routes_are_sound() {
        check_link_graph(&Ring::new(4, 4));
        check_link_graph(&Ring::new(5, 3));
    }

    #[test]
    fn hier_ring_link_graph_and_routes_are_sound() {
        check_link_graph(&HierRing::new(4, 4));
        check_link_graph(&HierRing::new(5, 3));
    }

    #[test]
    fn mesh_candidates_shorten_the_distance_and_the_escape_is_x_first() {
        // Every pair of a 5x4 mesh under both routing kinds. Adaptive
        // routing offers one candidate per dimension still to cover, X
        // first; XY offers the escape port alone.
        let m = Mesh { width: 5, height: 4 };
        let hop = |c: Coord, p: usize| c.step(Direction::ALL[p], 5, 4).expect("port stays on the grid");
        for cur in 0..m.num_nodes() {
            for dst in 0..m.num_nodes() {
                let (c, d) = (m.node_coord(cur), m.node_coord(dst));
                let Some(esc) = m.escape_port(cur, dst) else {
                    assert_eq!(cur, dst, "only the destination has no escape port");
                    continue;
                };
                // X-first: the escape hop moves along X until X matches.
                let next = hop(c, esc);
                assert!(next.manhattan(d) < c.manhattan(d), "{c:?}->{d:?}");
                assert_eq!(next.y != c.y, c.x == d.x, "{c:?}->{d:?} escape {esc}");
                let xy = m.route(RoutingKind::Xy, cur, dst);
                assert_eq!(xy.as_slice(), [esc as u8]);
                let adaptive = m.route(RoutingKind::MinimalAdaptive, cur, dst);
                let dims = usize::from(c.x != d.x) + usize::from(c.y != d.y);
                assert_eq!(adaptive.as_slice().len(), dims, "{c:?}->{d:?}");
                assert_eq!(adaptive.as_slice()[0], esc as u8, "{c:?}->{d:?}");
                for &p in adaptive.as_slice() {
                    let next = hop(c, p as usize);
                    assert!(next.manhattan(d) < c.manhattan(d), "{c:?}->{d:?} port {p}");
                }
            }
        }
    }

    #[test]
    fn ring_snake_order_is_a_permutation_of_adjacent_nodes() {
        let r = Ring::new(4, 4);
        let n = r.num_nodes();
        for p in 0..n {
            assert_eq!(r.pos(r.at(p)), p, "pos/at must be inverses");
            // Consecutive ring positions other than the wrap edge are
            // grid-adjacent (the point of the snake order).
            if p + 1 < n {
                let (a, b) = (r.node_coord(r.at(p)), r.node_coord(r.at(p + 1)));
                assert_eq!(a.manhattan(b), 1, "snake neighbours {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn ring_escape_never_crosses_the_wrap_edge() {
        let r = Ring::new(4, 4);
        let n = r.num_nodes();
        let (first, last) = (r.at(0), r.at(n - 1));
        // From the linear end toward the linear start the escape path
        // must go backward through the whole line, not over the wrap.
        assert_eq!(r.escape_port(last, first), Some(PORT_PREV));
        assert_eq!(r.escape_port(first, last), Some(PORT_NEXT));
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [TopologyKind::Mesh, TopologyKind::Ring, TopologyKind::HierRing] {
            assert_eq!(TopologyKind::parse(k.name()), Ok(k));
        }
        assert!(TopologyKind::parse("torus").is_err());
    }
}
