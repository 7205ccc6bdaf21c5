//! Virtual-channel router state, laid out flat for the whole network.
//!
//! Each router has paired input/output ports. Ports 0–3 are the mesh
//! directions (N, E, S, W), port 4 is the primary local port (NI injection
//! on the input side, packet ejection on the output side), and ports 5+
//! are scheme-specific extras: MultiPort's additional injection/ejection
//! ports, or the one extra input port every EIR gains in EquiNox (§4.4).
//!
//! There is no per-router object tree. [`RouterCore`] holds one
//! [`RouterState`] line per router and one array per port or VC field,
//! indexed by dense ids:
//!
//! * port `p` of router `r` is `port_base + p`;
//! * with `V` VCs per port, its input VC `(p, v)` and its output VC
//!   `(p, v)` are both `vc_base + p * V + v` (`vc_base = port_base * V`);
//! * `p * V + v` is also the VC's bit in the router's mask words, which
//!   is why ports × VCs of one router must fit 64.
//!
//! The per-cycle pipeline (route computation, VC allocation, separable
//! input-first switch allocation, switch traversal) is driven by
//! [`crate::network::Network::step`], which owns the links and statistics;
//! this module holds the state and keeps its masks and counters true.

use crate::flit::{PacketTable, Slot, SlotExt, EMPTY_SLOT};
use equinox_phys::Coord;
use std::collections::VecDeque;

/// Primary local port; ports `0..PORT_LOCAL` are the network ports
/// (`Direction::index` order on a mesh).
pub(crate) const PORT_LOCAL: usize = 4;

/// "No allocation" in [`InVc::out_port`], [`InVc::out_vc`] and
/// [`RouterCore::out_owner`].
pub(crate) const NONE: u8 = u8::MAX;
/// "No feeding link" in [`RouterCore::feed_link`].
pub(crate) const NO_LINK: u32 = u32::MAX;

/// What an output port drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutputRole {
    /// Drives a link (index into the network's link table).
    Link(u32),
    /// Ejects flits into a local sink queue. `sink` restricts which flits
    /// may leave here (concentrated meshes tag one port per attached
    /// node); `None` accepts anything.
    Eject { sink: Option<u32> },
    /// Unused side of a paired port (e.g. the output side of an
    /// injection-only port).
    Dead,
}

/// One virtual channel of an input port: a ring of `depth` slots in the
/// slot arena plus the output allocated to the packet draining from it.
/// The ring holds the `len` buffered flits, oldest first, and behind them
/// the `pending` flits still on the feeding link, staged in arrival order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InVc {
    /// Ring position of the oldest flit. Reset to 0 whenever the ring
    /// empties, so a lightly loaded VC keeps reusing its first slots.
    head: u8,
    /// Buffered flits: the ones the pipeline sees.
    pub len: u8,
    /// Staged flits: sent down the feeding link, not yet arrived, and
    /// invisible to every stage, mask and counter until they do.
    pub pending: u8,
    /// Output port allocated to the packet currently draining, or
    /// [`NONE`]; set and cleared together with `out_vc`.
    pub out_port: u8,
    /// Output VC allocated to that packet, or [`NONE`].
    pub out_vc: u8,
    /// First slot of this VC's ring.
    slot_base: u32,
}

impl InVc {
    /// Arena index of the `k`-th oldest slot of a ring of `depth`.
    #[inline]
    fn slot(&self, k: usize, depth: usize) -> usize {
        let pos = self.head as usize + k;
        self.slot_base as usize + if pos >= depth { pos - depth } else { pos }
    }
}

/// The words of one router that every pipeline stage reads, together on
/// one cache line. Mask bit `p * V + v` stands for VC `v` of port `p`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouterState {
    /// Input VCs holding at least one flit.
    pub occupied: u64,
    /// Input VCs holding an output VC.
    pub allocated: u64,
    /// Output VCs no packet owns.
    pub out_free: u64,
    /// Output VCs that can take a flit this cycle: a link output with a
    /// downstream credit, or any VC of an ejection port whose queue is
    /// below the cap. Never set on a dead port.
    pub out_ready: u64,
    /// Ports (bit `p`, not `p * V + v`) whose ejection queue holds a
    /// flit: set by [`RouterCore::eject_push`], cleared by the
    /// [`RouterCore::eject_pop`] that empties the queue.
    pub ejecting: u64,
    /// Buffered flits per message class (0 = request, 1 = reply).
    pub class_flits: [u32; 2],
    /// Global id of port 0.
    pub port_base: u32,
    /// Global id of VC 0 of port 0.
    pub vc_base: u32,
    /// This router's coordinate.
    pub coord: Coord,
    /// Number of paired ports.
    pub nports: u8,
}

// One cache line: every stage of a router's cycle reads these words.
const _: () = assert!(std::mem::size_of::<RouterState>() <= 64);

/// The routers of one network.
#[derive(Debug)]
pub(crate) struct RouterCore {
    /// VCs per port.
    vcs: usize,
    /// Slots per input VC.
    depth: usize,
    /// Flits an ejection queue holds before its port stops granting.
    eject_cap: usize,
    pub routers: Vec<RouterState>,
    /// Per router, the VCs of its ejection ports as mask bits. Kept off
    /// the [`RouterState`] line, which has no room for another word.
    pub eject_vcs: Vec<u64>,
    // ---- per port
    /// Link feeding the input side, or [`NO_LINK`].
    pub feed_link: Vec<u32>,
    /// Round-robin pointer of the input side's switch arbitration.
    pub in_sa_ptr: Vec<u8>,
    /// Round-robin pointer of the output side's switch arbitration.
    pub out_sa_ptr: Vec<u8>,
    out_role: Vec<OutputRole>,
    /// Ejection queue of the output side (used by `Eject` ports only),
    /// stamped with the cycle each flit was parked.
    eject: Vec<VecDeque<Slot>>,
    // ---- per VC
    pub in_vcs: Vec<InVc>,
    /// Downstream credits of each output VC.
    out_credits: Vec<u8>,
    /// Mask bit of the input VC owning each output VC, or [`NONE`].
    out_owner: Vec<u8>,
    /// Per input VC: the output VCs whose availability would let its
    /// blocked head be allocated, as mask bits; 0 when no such set is
    /// recorded. Written by the network's VC allocator, cleared by
    /// [`RouterCore::grant`]; never serialised.
    pub want: Vec<u64>,
    /// Input-VC rings, stamped with the enqueue cycle.
    slots: Vec<Slot>,
    /// What the flits of each live packet share; the slots carry handles
    /// into it.
    pub packets: PacketTable,
}

impl RouterCore {
    /// One router per coordinate, each with `ports` paired ports, `vcs`
    /// VCs per port and `depth` flits of buffering per VC. All ports
    /// start dead and unfed; the network builder wires them up.
    pub(crate) fn new(coords: &[Coord], ports: usize, vcs: u8, depth: usize, eject_cap: usize) -> Self {
        let (n, v) = (coords.len(), vcs as usize);
        assert!(depth < NONE as usize, "VC buffers are indexed with a u8");
        let routers = coords
            .iter()
            .enumerate()
            .map(|(r, &c)| RouterState {
                occupied: 0,
                allocated: 0,
                out_free: 0,
                out_ready: 0,
                ejecting: 0,
                class_flits: [0; 2],
                port_base: (r * ports) as u32,
                vc_base: (r * ports * v) as u32,
                coord: c,
                nports: ports as u8,
            })
            .collect();
        let in_vcs = (0..n * ports * v)
            .map(|ivc| InVc {
                head: 0,
                len: 0,
                pending: 0,
                out_port: NONE,
                out_vc: NONE,
                slot_base: (ivc * depth) as u32,
            })
            .collect();
        let mut core = RouterCore {
            vcs: v,
            depth,
            eject_cap,
            routers,
            eject_vcs: vec![0; n],
            feed_link: vec![NO_LINK; n * ports],
            in_sa_ptr: vec![0; n * ports],
            out_sa_ptr: vec![0; n * ports],
            out_role: vec![OutputRole::Dead; n * ports],
            eject: vec![VecDeque::new(); n * ports],
            in_vcs,
            out_credits: vec![depth as u8; n * ports * v],
            out_owner: vec![NONE; n * ports * v],
            want: vec![0; n * ports * v],
            slots: vec![EMPTY_SLOT; n * ports * v * depth],
            packets: PacketTable::default(),
        };
        for r in 0..n {
            core.check_width(r);
            core.routers[r].out_free = core.port_bits(r, 0, ports);
        }
        core
    }

    /// Mask of the VCs of ports `from..to` of router `r`.
    fn port_bits(&self, r: usize, from: usize, to: usize) -> u64 {
        debug_assert!(from < to && to <= self.num_ports(r));
        (u64::MAX >> (64 - (to - from) * self.vcs)) << (from * self.vcs)
    }

    fn check_width(&self, r: usize) {
        let bits = self.num_ports(r) * self.vcs;
        assert!(
            (1..=64).contains(&bits),
            "router {r}: {} ports x {} VCs do not fit the 64-bit allocation masks",
            self.num_ports(r),
            self.vcs
        );
    }

    /// Appends a fresh paired port to router `r` and returns its index.
    /// Every later router's ids shift up by one port; nothing outside
    /// this struct stores a global id, so there is nothing else to fix.
    /// The new VCs' rings go to the end of the slot arena.
    pub(crate) fn add_port(&mut self, r: usize) -> usize {
        let port = self.num_ports(r);
        let gp = self.routers[r].port_base as usize + port;
        let gv = gp * self.vcs;
        self.routers[r].nports += 1;
        self.check_width(r);
        for later in &mut self.routers[r + 1..] {
            later.port_base += 1;
            later.vc_base += self.vcs as u32;
        }
        self.feed_link.insert(gp, NO_LINK);
        self.in_sa_ptr.insert(gp, 0);
        self.out_sa_ptr.insert(gp, 0);
        self.out_role.insert(gp, OutputRole::Dead);
        self.eject.insert(gp, VecDeque::new());
        for v in 0..self.vcs {
            let slot_base = self.slots.len() as u32;
            self.slots.resize(self.slots.len() + self.depth, EMPTY_SLOT);
            self.in_vcs.insert(
                gv + v,
                InVc {
                    head: 0,
                    len: 0,
                    pending: 0,
                    out_port: NONE,
                    out_vc: NONE,
                    slot_base,
                },
            );
            self.out_credits.insert(gv + v, self.depth as u8);
            self.out_owner.insert(gv + v, NONE);
            self.want.insert(gv + v, 0);
        }
        self.routers[r].out_free |= self.port_bits(r, port, port + 1);
        port
    }

    /// Makes room in the packet table for every packet that can be live
    /// at once, so that a run never grows it: each live packet has a flit
    /// in a VC slot or an ejection queue (at most `eject_cap` per
    /// ejection port), or is the packet one of the network's `injectors`
    /// is streaming, all of whose sent flits have left. The network calls
    /// this whenever it adds a port.
    pub(crate) fn reserve_packets(&mut self, injectors: usize) {
        let eject_ports = self.out_role.iter().filter(|r| matches!(r, OutputRole::Eject { .. })).count();
        self.packets.reserve(self.slots.len() + self.eject_cap * eject_ports + injectors);
    }

    /// Gives output port `p` of router `r` its role.
    pub(crate) fn set_role(&mut self, r: usize, p: usize, role: OutputRole) {
        let gp = self.port(r, p);
        self.out_role[gp] = role;
        let bits = self.port_bits(r, p, p + 1);
        let eject = if matches!(role, OutputRole::Eject { .. }) { bits } else { 0 };
        self.eject_vcs[r] = self.eject_vcs[r] & !bits | eject;
        self.refresh_ready(r, p);
    }

    /// Re-derives the `out_ready` bits of output port `p` of router `r`
    /// from its role, credits and ejection queue.
    fn refresh_ready(&mut self, r: usize, p: usize) {
        let gp = self.port(r, p);
        let bits = self.port_bits(r, p, p + 1);
        let ready = match self.out_role[gp] {
            OutputRole::Link(_) => (0..self.vcs)
                .filter(|&v| self.out_credits[gp * self.vcs + v] > 0)
                .fold(0, |m, v| m | 1 << (p * self.vcs + v)),
            OutputRole::Eject { .. } if self.eject[gp].len() < self.eject_cap => bits,
            _ => 0,
        };
        let s = &mut self.routers[r];
        s.out_ready = s.out_ready & !bits | ready;
    }

    /// The role of output port `p` of router `r`.
    #[inline]
    pub(crate) fn role(&self, r: usize, p: usize) -> OutputRole {
        self.out_role[self.port(r, p)]
    }

    pub(crate) fn len(&self) -> usize {
        self.routers.len()
    }

    /// VCs per port.
    #[inline]
    pub(crate) fn vcs(&self) -> usize {
        self.vcs
    }

    /// Number of paired ports of router `r`.
    #[inline]
    pub(crate) fn num_ports(&self, r: usize) -> usize {
        self.routers[r].nports as usize
    }

    /// Global id of port `p` of router `r`.
    #[inline]
    pub(crate) fn port(&self, r: usize, p: usize) -> usize {
        debug_assert!(p < self.num_ports(r));
        self.routers[r].port_base as usize + p
    }

    /// Global id of the VC at mask bit `bit` of router `r`.
    #[inline]
    pub(crate) fn vc(&self, r: usize, bit: usize) -> usize {
        self.routers[r].vc_base as usize + bit
    }

    /// Total flits buffered in router `r`.
    pub(crate) fn buffered(&self, r: usize) -> u32 {
        let s = &self.routers[r];
        s.class_flits[0] + s.class_flits[1]
    }

    /// The oldest flit of input VC `ivc`, which must not be empty.
    #[inline]
    pub(crate) fn front(&self, ivc: usize) -> &Slot {
        let vc = &self.in_vcs[ivc];
        debug_assert!(vc.len > 0);
        &self.slots[vc.slot_base as usize + vc.head as usize]
    }

    /// The flits buffered in input VC `ivc`, oldest first.
    pub(crate) fn flits(&self, ivc: usize) -> impl Iterator<Item = &Slot> {
        let vc = self.in_vcs[ivc];
        (0..vc.len as usize).map(move |k| &self.slots[vc.slot(k, self.depth)])
    }

    /// Every flit buffered in router `r`.
    pub(crate) fn router_flits(&self, r: usize) -> impl Iterator<Item = &Slot> {
        let base = self.routers[r].vc_base as usize;
        (base..base + self.num_ports(r) * self.vcs).flat_map(|ivc| self.flits(ivc))
    }

    /// The flits staged in input VC `ivc`, oldest first.
    pub(crate) fn staged(&self, ivc: usize) -> impl Iterator<Item = &Slot> {
        let vc = self.in_vcs[ivc];
        (vc.len as usize..(vc.len + vc.pending) as usize)
            .map(move |k| &self.slots[vc.slot(k, self.depth)])
    }

    /// Every flit staged anywhere in the network.
    pub(crate) fn all_staged(&self) -> impl Iterator<Item = &Slot> {
        (0..self.in_vcs.len()).flat_map(|ivc| self.staged(ivc))
    }

    /// Flits staged in the VCs of input port `p` of router `r`: what its
    /// feeding link has in flight.
    pub(crate) fn staged_on_port(&self, r: usize, p: usize) -> usize {
        let base = self.vc(r, p * self.vcs);
        self.in_vcs[base..base + self.vcs].iter().map(|vc| vc.pending as usize).sum()
    }

    /// Hands the flits staged in the VCs of input port `p` of router `r`
    /// to `visit` in arrival order — the order the feeding link carries
    /// them, one per cycle, so no two share a stamp. Read in place.
    pub(crate) fn visit_staged_on_port(&self, r: usize, p: usize, mut visit: impl FnMut(&Slot)) {
        let base = self.vc(r, p * self.vcs);
        // Per VC of the port, how many of its staged flits went out.
        let mut taken = [0u8; 64];
        loop {
            let mut next: Option<(usize, &Slot)> = None;
            for (v, vc) in self.in_vcs[base..base + self.vcs].iter().enumerate() {
                if taken[v] < vc.pending {
                    let s = &self.slots[vc.slot((vc.len + taken[v]) as usize, self.depth)];
                    if next.is_none_or(|(_, n)| s.stamp() < n.stamp()) {
                        next = Some((v, s));
                    }
                }
            }
            let Some((v, s)) = next else { return };
            taken[v] += 1;
            visit(s);
        }
    }

    /// `true` if the input VC at mask bit `bit` of router `r` has a free
    /// slot for one more staged flit.
    #[cfg(test)]
    pub(crate) fn has_room(&self, r: usize, bit: usize) -> bool {
        let vc = &self.in_vcs[self.vc(r, bit)];
        ((vc.len + vc.pending) as usize) < self.depth
    }

    /// Stages `slot`, stamped with its arrival cycle, behind everything
    /// in the input VC at mask bit `bit` of router `r`; it stays out of
    /// sight until [`RouterCore::arrive`]. Credits leave the room: an
    /// upstream sends only into a slot it holds a credit for.
    #[inline]
    pub(crate) fn stage(&mut self, r: usize, bit: usize, slot: Slot) {
        let vc = &mut self.in_vcs[self.routers[r].vc_base as usize + bit];
        assert!(
            ((vc.len + vc.pending) as usize) < self.depth,
            "buffer overflow at router {r} input VC bit {bit}"
        );
        self.slots[vc.slot((vc.len + vc.pending) as usize, self.depth)] = slot;
        vc.pending += 1;
    }

    /// The oldest flit staged in the input VC at mask bit `bit` of router
    /// `r`, of class `class`, arrives: it joins the buffered flits.
    #[inline]
    pub(crate) fn arrive(&mut self, r: usize, bit: usize, class: usize) {
        let s = &mut self.routers[r];
        let vc = &mut self.in_vcs[s.vc_base as usize + bit];
        debug_assert!(vc.pending > 0, "router {r} input VC bit {bit}: nothing staged arrives");
        vc.pending -= 1;
        vc.len += 1;
        s.occupied |= 1 << bit;
        s.class_flits[class] += 1;
    }

    /// Removes and returns the oldest flit of the (non-empty) input VC at
    /// mask bit `bit` of router `r`.
    #[inline]
    pub(crate) fn pop(&mut self, r: usize, bit: usize) -> Slot {
        let s = &mut self.routers[r];
        let vc = &mut self.in_vcs[s.vc_base as usize + bit];
        debug_assert!(vc.len > 0);
        let slot = self.slots[vc.slot_base as usize + vc.head as usize];
        vc.len -= 1;
        if vc.len == 0 {
            s.occupied &= !(1 << bit);
        }
        vc.head = if vc.len + vc.pending == 0 || vc.head as usize + 1 == self.depth {
            0
        } else {
            vc.head + 1
        };
        s.class_flits[slot.class_ix()] -= 1;
        slot
    }

    /// Gives output VC `ov` of port `op` to the packet at the front of
    /// the input VC at mask bit `bit`.
    #[inline]
    pub(crate) fn grant(&mut self, r: usize, bit: usize, op: usize, ov: usize) {
        let s = &mut self.routers[r];
        let base = s.vc_base as usize;
        let out_bit = op * self.vcs + ov;
        debug_assert!(s.out_free & 1 << out_bit != 0 && s.allocated & 1 << bit == 0);
        self.out_owner[base + out_bit] = bit as u8;
        s.out_free &= !(1 << out_bit);
        let vc = &mut self.in_vcs[base + bit];
        (vc.out_port, vc.out_vc) = (op as u8, ov as u8);
        s.allocated |= 1 << bit;
        self.want[base + bit] = 0;
    }

    /// Undoes [`RouterCore::grant`] when the packet's tail leaves.
    #[inline]
    pub(crate) fn release(&mut self, r: usize, bit: usize) {
        let s = &mut self.routers[r];
        let base = s.vc_base as usize;
        let vc = &mut self.in_vcs[base + bit];
        let out_bit = vc.out_port as usize * self.vcs + vc.out_vc as usize;
        (vc.out_port, vc.out_vc) = (NONE, NONE);
        s.allocated &= !(1 << bit);
        self.out_owner[base + out_bit] = NONE;
        s.out_free |= 1 << out_bit;
    }

    /// Downstream credits of the output VC at mask bit `out_bit`.
    #[inline]
    pub(crate) fn credits(&self, r: usize, out_bit: usize) -> u32 {
        self.out_credits[self.vc(r, out_bit)] as u32
    }

    /// A credit came back for the link output VC at mask bit `out_bit`.
    #[inline]
    pub(crate) fn return_credit(&mut self, r: usize, out_bit: usize) {
        let s = &mut self.routers[r];
        self.out_credits[s.vc_base as usize + out_bit] += 1;
        s.out_ready |= 1 << out_bit;
    }

    /// A flit left through the link output VC at mask bit `out_bit`.
    #[inline]
    pub(crate) fn spend_credit(&mut self, r: usize, out_bit: usize) {
        let s = &mut self.routers[r];
        let c = &mut self.out_credits[s.vc_base as usize + out_bit];
        *c -= 1;
        if *c == 0 {
            s.out_ready &= !(1 << out_bit);
        }
    }

    /// The ejection queue of port `p` of router `r`.
    #[inline]
    pub(crate) fn eject_queue(&self, r: usize, p: usize) -> &VecDeque<Slot> {
        &self.eject[self.port(r, p)]
    }

    /// All ejection queues, router by router and port by port.
    pub(crate) fn eject_queues(&self) -> &[VecDeque<Slot>] {
        &self.eject
    }

    /// The same queues, for re-stamping the parked flits. Their lengths
    /// feed `out_ready` and must not change through this.
    pub(crate) fn eject_queues_mut(&mut self) -> &mut [VecDeque<Slot>] {
        &mut self.eject
    }

    /// Parks `slot` in the ejection queue of port `p`; a queue that
    /// reaches the cap stops its port from granting.
    #[inline]
    pub(crate) fn eject_push(&mut self, r: usize, p: usize, slot: Slot) {
        let gp = self.port(r, p);
        self.eject[gp].push_back(slot);
        self.routers[r].ejecting |= 1 << p;
        if self.eject[gp].len() >= self.eject_cap {
            self.routers[r].out_ready &= !self.port_bits(r, p, p + 1);
        }
    }

    /// Takes the oldest flit out of the ejection queue of port `p`.
    #[inline]
    pub(crate) fn eject_pop(&mut self, r: usize, p: usize) -> Option<Slot> {
        let gp = self.port(r, p);
        let slot = self.eject[gp].pop_front()?;
        if self.eject[gp].is_empty() {
            self.routers[r].ejecting &= !(1 << p);
        }
        if self.eject[gp].len() < self.eject_cap {
            self.routers[r].out_ready |= self.port_bits(r, p, p + 1);
        }
        Some(slot)
    }

    /// The derived words of router `r` — `(occupied, allocated,
    /// out_free, out_ready, ejecting, class_flits)` — recomputed from
    /// the arrays they summarise.
    #[cfg(test)]
    pub(crate) fn scan(&self, r: usize) -> (u64, u64, u64, u64, u64, [u32; 2]) {
        let (mut occupied, mut allocated, mut out_free, mut out_ready) = (0u64, 0u64, 0u64, 0u64);
        for bit in 0..self.num_ports(r) * self.vcs {
            let vc = &self.in_vcs[self.vc(r, bit)];
            occupied |= u64::from(vc.len > 0) << bit;
            allocated |= u64::from(vc.out_port != NONE) << bit;
            assert_eq!(vc.out_port == NONE, vc.out_vc == NONE);
            out_free |= u64::from(self.out_owner[self.vc(r, bit)] == NONE) << bit;
            let ready = match self.role(r, bit / self.vcs) {
                OutputRole::Link(_) => self.credits(r, bit) > 0,
                OutputRole::Eject { .. } => {
                    self.eject_queue(r, bit / self.vcs).len() < self.eject_cap
                }
                OutputRole::Dead => false,
            };
            out_ready |= u64::from(ready) << bit;
        }
        let ejecting = (0..self.num_ports(r))
            .filter(|&p| !self.eject_queue(r, p).is_empty())
            .fold(0, |m, p| m | 1 << p);
        let mut class_flits = [0; 2];
        for f in self.router_flits(r) {
            class_flits[f.class_ix()] += 1;
        }
        (occupied, allocated, out_free, out_ready, ejecting, class_flits)
    }

    /// The same words as the router's line holds them, in
    /// [`RouterCore::scan`]'s order.
    #[cfg(test)]
    pub(crate) fn words(&self, r: usize) -> (u64, u64, u64, u64, u64, [u32; 2]) {
        let s = &self.routers[r];
        (s.occupied, s.allocated, s.out_free, s.out_ready, s.ejecting, s.class_flits)
    }

    /// Serializes router `r`'s dynamic state — per-input-VC buffers and
    /// allocations, arbiter pointers, per-output-VC credits/owners — in
    /// the format of the per-router structs this layout replaced.
    /// Port roles and feed links are topology and skipped; ejection
    /// queues are written by the network, after the injectors.
    pub(crate) fn snap_state(&self, r: usize, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        let base = self.routers[r].port_base as usize;
        let ports = base..base + self.num_ports(r);
        let opt = |x: u8| (x != NONE).then_some(x);
        for gp in ports.clone() {
            e.put_usize(self.in_sa_ptr[gp] as usize);
            for ivc in gp * self.vcs..(gp + 1) * self.vcs {
                let vc = &self.in_vcs[ivc];
                e.put_usize(vc.len as usize);
                for s in self.flits(ivc) {
                    (s.stamp(), self.packets.flit(s)).snap(e);
                }
                opt(vc.out_port).map(usize::from).snap(e);
                opt(vc.out_vc).snap(e);
            }
        }
        for gp in ports {
            e.put_usize(self.out_sa_ptr[gp] as usize);
            for ovc in gp * self.vcs..(gp + 1) * self.vcs {
                e.put_u32(self.out_credits[ovc] as u32);
                opt(self.out_owner[ovc])
                    .map(|bit| (bit as usize / self.vcs, (bit as usize % self.vcs) as u8))
                    .snap(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{MessageClass, PacketDesc};

    fn core(n: usize, vcs: u8, depth: usize) -> RouterCore {
        let coords: Vec<Coord> = (0..n).map(|i| Coord::new(i as u16, 0)).collect();
        RouterCore::new(&coords, 5, vcs, depth, 4)
    }

    /// A one-flit packet stamped `id`, under handle `id` (these tests keep
    /// no packet table: the handle only tells the slots apart).
    fn flit(id: u64, class: MessageClass) -> Slot {
        let f = PacketDesc::new(id, Coord::new(0, 0), Coord::new(1, 1), class, 1).flits(8)[0];
        Slot::pack(id, id as u32, &f)
    }

    /// Stages `slot` and lets it arrive at once.
    fn push(c: &mut RouterCore, r: usize, bit: usize, slot: Slot) {
        c.stage(r, bit, slot);
        c.arrive(r, bit, slot.class_ix());
    }

    #[test]
    fn construction_shapes() {
        let c = core(3, 2, 5);
        assert_eq!(c.len(), 3);
        assert_eq!(c.num_ports(1), 5);
        assert_eq!(c.vc(2, 3), 23);
        assert_eq!(c.credits(1, 9), 5);
        assert_eq!(c.routers[0].out_free, (1 << 10) - 1);
        assert_eq!(c.routers[0].out_ready, 0, "every port starts dead");
        assert_eq!(c.buffered(0), 0);
    }

    #[test]
    fn add_port_shifts_later_routers_and_keeps_their_state() {
        let mut c = core(3, 2, 5);
        let fed = c.port(2, 1);
        c.feed_link[fed] = 77;
        push(&mut c, 2, 3, flit(9, MessageClass::Reply));
        c.grant(2, 3, 4, 1);
        let p = c.add_port(0);
        assert_eq!(p, 5);
        assert_eq!((c.num_ports(0), c.num_ports(1), c.num_ports(2)), (6, 5, 5));
        assert_eq!(c.routers[0].out_free, (1 << 12) - 1);
        assert!(matches!(c.role(0, 5), OutputRole::Dead));
        assert_eq!(c.feed_link[c.port(2, 1)], 77);
        assert_eq!(c.front(c.vc(2, 3)).handle() as u64, 9);
        assert_eq!(c.out_owner[c.vc(2, 4 * 2 + 1)], 3);
        // The new port's VCs work and do not alias anyone's ring.
        push(&mut c, 0, 5 * 2, flit(1, MessageClass::Request));
        assert_eq!(c.front(c.vc(0, 10)).handle() as u64, 1);
        assert_eq!(c.front(c.vc(2, 3)).handle() as u64, 9);
        c.release(2, 3);
        assert_eq!(c.pop(2, 3).handle() as u64, 9);
        let s = &c.routers[2];
        assert_eq!((s.occupied, s.allocated, s.out_free), (0, 0, (1 << 10) - 1));
    }

    #[test]
    #[should_panic(expected = "do not fit the 64-bit allocation masks")]
    fn a_router_wider_than_the_masks_is_refused() {
        let mut c = core(1, 12, 2);
        c.add_port(0);
    }

    #[test]
    fn vc_ring_wraps_in_fifo_order_at_depth_one_and_five() {
        for depth in [1usize, 5] {
            let mut c = core(1, 2, depth);
            let (mut staged, mut arrived, mut popped) = (0u64, 0u64, 0u64);
            // Fill with staged flits, let some arrive, drain part of what
            // arrived, and repeat, so the head crosses the end of the
            // ring many times with and without flits staged behind it.
            for round in 0..40 {
                while c.has_room(0, 3) {
                    c.stage(0, 3, flit(staged, MessageClass::Reply));
                    staged += 1;
                }
                for _ in 0..(staged - arrived).min(1 + round % 3) {
                    c.arrive(0, 3, 1);
                    arrived += 1;
                }
                let ids: Vec<u64> = c.flits(3).map(|s| s.handle() as u64).collect();
                assert_eq!(ids, (popped..arrived).collect::<Vec<_>>(), "depth {depth}");
                let ids: Vec<u64> = c.staged(3).map(|s| s.handle() as u64).collect();
                assert_eq!(ids, (arrived..staged).collect::<Vec<_>>(), "depth {depth}");
                for _ in 0..(arrived - popped).min(1 + round % depth as u64) {
                    assert_eq!(c.front(3).handle() as u64, popped);
                    assert_eq!(c.pop(0, 3).stamp(), popped);
                    popped += 1;
                }
                assert_eq!(c.routers[0].occupied != 0, c.in_vcs[3].len > 0);
                assert_eq!(c.words(0), c.scan(0), "depth {depth} round {round}");
            }
            assert_eq!(c.buffered(0) as u64, arrived - popped);
            assert_eq!(c.routers[0].class_flits[0], 0);
        }
    }

    #[test]
    fn staged_flits_stay_out_of_sight_until_they_arrive() {
        let mut c = core(1, 2, 3);
        // Port 1: a visible request on VC 0, replies staged on both VCs
        // arriving at cycles 7 (VC 1), 8 (VC 0) and 9 (VC 1).
        push(&mut c, 0, 2, flit(1, MessageClass::Request));
        for (bit, at) in [(3, 7), (2, 8), (3, 9)] {
            c.stage(0, bit, flit(at, MessageClass::Reply));
        }
        assert_eq!(c.words(0), c.scan(0));
        assert_eq!((c.routers[0].occupied, c.routers[0].class_flits), (1 << 2, [1, 0]));
        assert_eq!(c.staged_on_port(0, 1), 3);
        let mut order = Vec::new();
        c.visit_staged_on_port(0, 1, |s| order.push(s.stamp()));
        assert_eq!(order, [7, 8, 9], "arrival order across the port's VCs");
        assert_eq!(c.all_staged().count(), 3);
        // The visible request leaves; its VC keeps the staged reply.
        assert_eq!(c.pop(0, 2).handle() as u64, 1);
        assert_eq!(c.routers[0].occupied, 0);
        assert_eq!(c.staged(2).map(|s| s.stamp()).collect::<Vec<_>>(), [8]);
        c.arrive(0, 3, 1);
        c.arrive(0, 2, 1);
        assert_eq!(c.words(0), c.scan(0));
        assert_eq!((c.routers[0].occupied, c.routers[0].class_flits), (0b11 << 2, [0, 2]));
        assert_eq!(c.front(c.vc(0, 2)).stamp(), 8);
        assert_eq!(c.staged_on_port(0, 1), 1);
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn pushing_past_the_depth_is_refused() {
        // Staged flits hold their slots: one buffered and one staged fill
        // a VC two deep.
        let mut c = core(1, 1, 2);
        push(&mut c, 0, 0, flit(0, MessageClass::Reply));
        c.stage(0, 0, flit(1, MessageClass::Reply));
        assert!(!c.has_room(0, 0));
        c.stage(0, 0, flit(2, MessageClass::Reply));
    }

    #[test]
    fn out_ready_follows_credits_and_ejection_room() {
        let mut c = core(1, 2, 2);
        c.set_role(0, 1, OutputRole::Link(0));
        c.set_role(0, 4, OutputRole::Eject { sink: None });
        let (link_vc1, eject_bits) = (1 << 3, 0b11 << 8);
        assert_eq!(c.routers[0].out_ready, 0b11 << 2 | eject_bits);
        assert_eq!(c.eject_vcs[0], eject_bits);
        c.spend_credit(0, 3);
        assert_ne!(c.routers[0].out_ready & link_vc1, 0, "one credit left");
        c.spend_credit(0, 3);
        assert_eq!(c.routers[0].out_ready & link_vc1, 0);
        c.return_credit(0, 3);
        assert_ne!(c.routers[0].out_ready & link_vc1, 0);
        // The cap (4) closes both VCs of the ejection port at once.
        let f = flit(0, MessageClass::Reply);
        for k in 0..4 {
            assert_eq!(
                c.routers[0].out_ready & eject_bits,
                eject_bits,
                "{k} parked"
            );
            c.eject_push(0, 4, f);
            assert_eq!(c.routers[0].ejecting, 1 << 4);
        }
        assert_eq!(c.routers[0].out_ready & eject_bits, 0);
        assert!(c.eject_pop(0, 4).is_some());
        assert_eq!(c.routers[0].out_ready & eject_bits, eject_bits);
        assert_eq!(c.routers[0].ejecting, 1 << 4, "three flits still parked");
        while c.eject_pop(0, 4).is_some() {}
        assert_eq!(c.routers[0].ejecting, 0, "the emptying pop clears the bit");
        c.set_role(0, 1, OutputRole::Dead);
        assert_eq!(c.routers[0].out_ready, eject_bits);
        c.set_role(0, 4, OutputRole::Dead);
        assert_eq!((c.routers[0].out_ready, c.eject_vcs[0]), (0, 0));
    }
}
