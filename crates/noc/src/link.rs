//! Links: pipelined flit channels with a reverse credit channel.
//!
//! Every input port of every router is fed by exactly one link. Mesh links
//! connect neighbouring routers; NI links connect a network interface's
//! injection buffer to a router input port (the local port, or — in
//! EquiNox — an EIR's extra port, in which case the link physically lives
//! in the interposer's RDL and is tagged [`LinkKind::Interposer`] so the
//! energy and µbump models can account for it separately).
//!
//! A link's latency is fixed and it carries at most one flit and one
//! credit per cycle (a router output has one switch-allocation winner, a
//! router input port returns one credit, an injector accepts one flit),
//! and both are taken off exactly on their arrival cycle. So each
//! direction is a ring of `latency + 1` slots — the `+ 1` because an
//! injector sends before the cycle's delivery runs — and all rings of a
//! network live in two arenas owned by [`Links`].

use crate::flit::{Slot, SlotExt, EMPTY_SLOT};

/// Physical class of a link, for energy/area accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Regular on-die link between adjacent routers.
    Mesh,
    /// Link routed in the interposer RDLs (EquiNox CB→EIR links,
    /// Interposer-CMesh links).
    Interposer,
    /// Short NI→router connection inside a tile.
    NiLocal,
}

/// Where a link's returned credits go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CreditDst {
    /// Credits replenish an upstream router's output-VC counters.
    RouterOutput { router: u32, port: u8 },
    /// Credits replenish an injector's NI-side counters.
    Injector { injector: u32 },
}

/// Occupancy of one ring of `cap` slots: where the oldest entry sits and
/// how many follow it. The head returns to 0 whenever the ring empties.
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    head: u32,
    len: u32,
}

impl Ring {
    /// Slot of the `k`-th oldest entry.
    #[inline]
    fn pos(&self, k: u32, cap: u32) -> u32 {
        let pos = self.head + k;
        if pos >= cap {
            pos - cap
        } else {
            pos
        }
    }

    /// Claims and returns the slot after the newest entry.
    #[inline]
    fn push(&mut self, cap: u32) -> u32 {
        assert!(self.len < cap, "link ring overflow");
        self.len += 1;
        self.pos(self.len - 1, cap)
    }

    /// Drops the oldest entry.
    #[inline]
    fn pop(&mut self, cap: u32) {
        self.len -= 1;
        self.head = if self.len == 0 { 0 } else { self.pos(1, cap) };
    }
}

/// A unidirectional pipelined channel carrying flits downstream and
/// credits upstream, each with the link's latency.
#[derive(Debug)]
pub(crate) struct Link {
    pub kind: LinkKind,
    pub latency: u32,
    /// Downstream endpoint.
    pub to_router: u32,
    pub to_port: u8,
    /// Upstream credit endpoint.
    pub credit_dst: CreditDst,
    /// Cumulative flits sent down this link (per-link utilization).
    pub flits_carried: u64,
    /// First slot of this link's two rings (`latency + 1` slots each) in
    /// the arenas.
    base: u32,
    flits: Ring,
    credits: Ring,
}

/// Every link of a network, with the flit and credit rings in two flat
/// arenas.
#[derive(Debug, Default)]
pub(crate) struct Links {
    links: Vec<Link>,
    /// In-flight flits, stamped with their arrival cycle.
    flit_slots: Vec<Slot>,
    /// In-flight credits as `(arrival_cycle, vc)`.
    credit_slots: Vec<(u64, u8)>,
}

impl Link {
    /// Number of flits currently in flight (used by drain checks).
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.flits.len as usize
    }

    /// Number of credits currently in flight back upstream (used by the
    /// activity gate to keep a link on the credit worklist).
    #[inline]
    pub fn credits_pending(&self) -> usize {
        self.credits.len as usize
    }

    /// Slots per ring.
    #[inline]
    fn cap(&self) -> u32 {
        self.latency + 1
    }
}

impl std::ops::Index<usize> for Links {
    type Output = Link;
    #[inline]
    fn index(&self, li: usize) -> &Link {
        &self.links[li]
    }
}

impl Links {
    /// Appends a link and returns its id.
    pub fn push(
        &mut self,
        kind: LinkKind,
        latency: u32,
        to_router: usize,
        to_port: usize,
        credit_dst: CreditDst,
    ) -> usize {
        assert!(latency >= 1, "links need at least one cycle of latency");
        let base = self.flit_slots.len();
        let cap = latency as usize + 1;
        self.flit_slots.resize(base + cap, EMPTY_SLOT);
        self.credit_slots.resize(base + cap, (0, 0));
        self.links.push(Link {
            kind,
            latency,
            to_router: to_router as u32,
            to_port: to_port as u8,
            credit_dst,
            flits_carried: 0,
            base: base as u32,
            flits: Ring::default(),
            credits: Ring::default(),
        });
        self.links.len() - 1
    }

    pub fn len(&self) -> usize {
        self.links.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Sends a flit; it arrives downstream at `now + latency`.
    #[inline]
    pub fn send_flit(&mut self, li: usize, now: u64, mut flit: Slot) {
        flit.set_stamp(now + self.links[li].latency as u64);
        debug_assert!(
            self.flits(li).last().is_none_or(|f| f.stamp() < flit.stamp()),
            "more than one flit per cycle on a link"
        );
        let l = &mut self.links[li];
        let at = l.base + l.flits.push(l.cap());
        self.flit_slots[at as usize] = flit;
        l.flits_carried += 1;
    }

    /// Sends a credit back upstream for `vc`; arrives at `now + latency`.
    #[inline]
    pub fn send_credit(&mut self, li: usize, now: u64, vc: u8) {
        let l = &mut self.links[li];
        let at = l.base + l.credits.push(l.cap());
        self.credit_slots[at as usize] = (now + l.latency as u64, vc);
    }

    /// Pops the oldest flit if it has arrived by `now`.
    #[inline]
    pub fn recv_flit(&mut self, li: usize, now: u64) -> Option<Slot> {
        let l = &mut self.links[li];
        let slot = self.flit_slots[(l.base + l.flits.head) as usize];
        if l.flits.len == 0 || slot.stamp() > now {
            return None;
        }
        l.flits.pop(l.cap());
        Some(slot)
    }

    /// Pops the oldest credit if it has arrived by `now`.
    #[inline]
    pub fn recv_credit(&mut self, li: usize, now: u64) -> Option<u8> {
        let l = &mut self.links[li];
        let (at, vc) = self.credit_slots[(l.base + l.credits.head) as usize];
        if l.credits.len == 0 || at > now {
            return None;
        }
        l.credits.pop(l.cap());
        Some(vc)
    }

    /// All in-flight flits of link `li`, oldest first.
    pub fn flits(&self, li: usize) -> impl Iterator<Item = &Slot> {
        let l = &self.links[li];
        (0..l.flits.len).map(move |k| &self.flit_slots[(l.base + l.flits.pos(k, l.cap())) as usize])
    }

    /// All in-flight credits of link `li` as `(arrival, vc)`, oldest first.
    fn credits(&self, li: usize) -> impl Iterator<Item = (u64, u8)> + '_ {
        let l = &self.links[li];
        (0..l.credits.len)
            .map(move |k| self.credit_slots[(l.base + l.credits.pos(k, l.cap())) as usize])
    }

    /// Flits in flight destined for downstream input VC `vc` (audit).
    pub fn flits_in_flight_on_vc(&self, li: usize, vc: u8) -> u32 {
        self.flits(li).filter(|f| f.vc() == vc).count() as u32
    }

    /// Credits in flight back upstream for VC `vc` (audit).
    pub fn credits_in_flight_for_vc(&self, li: usize, vc: u8) -> u32 {
        self.credits(li).filter(|&(_, v)| v == vc).count() as u32
    }

    /// Serializes link `li`'s dynamic state (in-flight flits/credits and
    /// the carried counter) in the format of the `VecDeque` pipelines
    /// this replaced; endpoints and latency are topology.
    pub fn snap_state(&self, li: usize, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        let l = &self.links[li];
        e.put_usize(l.in_flight());
        for f in self.flits(li) {
            (f.stamp(), f.flit()).snap(e);
        }
        e.put_usize(l.credits_pending());
        for c in self.credits(li) {
            c.snap(e);
        }
        e.put_u64(l.flits_carried);
    }

    /// Restores state written by [`Links::snap_state`]. `vcs` bounds the
    /// VC ids carried by flits and credits, which index flat arrays
    /// downstream.
    pub fn restore_state(
        &mut self,
        li: usize,
        d: &mut equinox_snap::Dec,
        vcs: u8,
    ) -> Result<(), equinox_snap::SnapError> {
        use crate::flit::Flit;
        use equinox_snap::{Snap, SnapError};
        let l = &mut self.links[li];
        let base = l.base as usize;
        let n = d.usize()?;
        if n > l.latency as usize + 1 {
            return Err(SnapError::BadValue("link flits over latency"));
        }
        for k in 0..n {
            let (at, f) = <(u64, Flit)>::restore(d)?;
            if f.vc >= vcs {
                return Err(SnapError::BadValue("link flit vc"));
            }
            self.flit_slots[base + k] = Slot::pack(at, &f);
        }
        l.flits = Ring { head: 0, len: n as u32 };
        let n = d.usize()?;
        if n > l.latency as usize + 1 {
            return Err(SnapError::BadValue("link credits over latency"));
        }
        for k in 0..n {
            let c = <(u64, u8)>::restore(d)?;
            if c.1 >= vcs {
                return Err(SnapError::BadValue("link credit vc"));
            }
            self.credit_slots[base + k] = c;
        }
        l.credits = Ring { head: 0, len: n as u32 };
        l.flits_carried = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{MessageClass, PacketDesc};
    use equinox_phys::Coord;

    fn test_flit() -> Slot {
        let f = PacketDesc::new(
            0,
            Coord::new(0, 0),
            Coord::new(1, 1),
            MessageClass::Reply,
            1,
        )
        .flits(8)[0];
        Slot::pack(0, &f)
    }

    fn test_link(latency: u32) -> Links {
        let mut links = Links::default();
        links.push(
            LinkKind::Mesh,
            latency,
            1,
            0,
            CreditDst::RouterOutput { router: 0, port: 1 },
        );
        links
    }

    #[test]
    fn flit_arrives_after_latency() {
        let mut l = test_link(3);
        l.send_flit(0, 10, test_flit());
        assert_eq!(l.recv_flit(0, 11), None);
        assert_eq!(l.recv_flit(0, 12), None);
        assert!(l.recv_flit(0, 13).is_some());
        assert_eq!(l.recv_flit(0, 13), None, "only one flit was sent");
    }

    #[test]
    fn credits_travel_independently() {
        let mut l = test_link(2);
        l.send_credit(0, 5, 1);
        l.send_credit(0, 6, 0);
        assert_eq!(l.recv_credit(0, 6), None);
        assert_eq!(l.recv_credit(0, 7), Some(1));
        assert_eq!(l.recv_credit(0, 7), None);
        assert_eq!(l.recv_credit(0, 8), Some(0));
    }

    #[test]
    fn in_flight_counts() {
        let mut l = test_link(5);
        assert_eq!(l[0].in_flight(), 0);
        l.send_flit(0, 0, test_flit());
        assert_eq!(l[0].in_flight(), 1);
        let _ = l.recv_flit(0, 5);
        assert_eq!(l[0].in_flight(), 0);
    }

    #[test]
    fn a_full_pipeline_wraps_the_ring_in_order() {
        // One flit per cycle, an injector's schedule: sent before the
        // cycle's delivery, so latency + 1 flits are in flight at once.
        for latency in [1u32, 2, 5] {
            let mut l = test_link(latency);
            let mut next = 0u64;
            for now in 0..40u64 {
                let mut f = test_flit();
                f[1] = now; // the packet id
                l.send_flit(0, now, f);
                l.send_credit(0, now, (now % 3) as u8);
                if let Some(got) = l.recv_flit(0, now) {
                    assert_eq!(got.pkt().0, next, "latency {latency}");
                    assert_eq!(l.recv_credit(0, now), Some((next % 3) as u8));
                    next += 1;
                }
                assert!(l[0].in_flight() <= latency as usize + 1);
                let stamps: Vec<u64> = l.flits(0).map(|f| f.stamp()).collect();
                assert!(stamps.windows(2).all(|w| w[0] < w[1]), "oldest first");
            }
            assert_eq!(next, 40 - latency as u64);
        }
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        let _ = test_link(0);
    }
}
