//! Network interfaces and injection policies.
//!
//! Every traffic source (a PE's request side, a CB's reply side) owns an
//! [`InjectionQueue`]: a bounded message queue plus the in-flight packet
//! being serialized one flit per cycle. What distinguishes the seven
//! schemes is the [`InjectPolicy`] that picks *which network and which
//! injector* a new packet claims, wired from the scheme's
//! [`NiKind`] by [`InjectPolicy::for_node`]. Under [`NiKind::Equinox`] it
//! is the Buffer Selector of Figure 8, implementing the paper's *Buffer
//! Selection 1* policy: shortest-path EIRs only, round-robin between the
//! up-to-two quadrant candidates, local-router fallback, retry otherwise.

use crate::msg::{Message, PacketTracker};
use crate::scheme::{NiKind, CONCENTRATION};
use equinox_noc::flit::PacketDesc;
use equinox_noc::link::LinkKind;
use equinox_noc::network::{InjectorId, Network};
use equinox_phys::Coord;
use std::collections::VecDeque;

/// Minimum base-mesh hop distance at which Interposer-CMesh prefers the
/// concentrated mesh (for endpoints under different CMesh routers).
const CMESH_THRESHOLD: u32 = 2;

/// A [`NiKind`] wired into a machine: the scheme-specific choice of
/// network + injector for each new packet.
#[derive(Debug)]
pub struct InjectPolicy {
    kind: NiKind,
    /// The networks that take the NI's message class, ascending (under
    /// `CmeshSplit`: the base mesh, then the concentrated one), and the
    /// first of them inline: `choose` reads it on every call.
    nets: Vec<usize>,
    net: usize,
    /// The injectors the NI holds handles to: `CmeshSplit`'s port on the
    /// concentrated mesh; `MultiPort`'s ports, the local one first;
    /// `Equinox`'s local injector, then one per entry of `eirs`. The other
    /// kinds use each network's local injector.
    injectors: Vec<InjectorId>,
    /// `Equinox`: the EIR tiles of this CB.
    eirs: Vec<Coord>,
    /// Round-robin cursor (over `nets`, `injectors` or `eirs` by kind).
    rr: usize,
}

impl InjectPolicy {
    /// Wires an NI of `kind` at `node` into `nets`, attaching the ports
    /// it adds (MultiPort's on the node's router; EquiNox's one per
    /// entry of `eirs`, in order). `carrying` lists the networks that
    /// take the NI's message class, ascending; cache bank number `index`
    /// starts DA2Mesh's round-robin on its own subnet; `cmesh_injector`
    /// is the node's port on the concentrated mesh, which the caller
    /// attaches for every node in turn ([`NiKind::CmeshSplit`] panics
    /// without it).
    pub fn for_node(
        kind: NiKind,
        nets: &mut [Network],
        carrying: &[usize],
        node: Coord,
        index: usize,
        eirs: &[Coord],
        cmesh_injector: Option<InjectorId>,
    ) -> Self {
        let net = carrying[0];
        let injectors = match kind {
            NiKind::Local | NiKind::SubnetRoundRobin => Vec::new(),
            NiKind::CmeshSplit => {
                vec![cmesh_injector.expect("the node has a concentrated-mesh port")]
            }
            NiKind::MultiPort(ports) => {
                let mut v = vec![nets[net].local_injector(node)];
                for _ in 1..ports {
                    v.push(nets[net].add_injection_port(node, 1, LinkKind::NiLocal));
                }
                v
            }
            NiKind::Equinox => {
                let mut v = vec![nets[net].local_injector(node)];
                for &e in eirs {
                    v.push(nets[net].add_injection_port(e, 1, LinkKind::Interposer));
                }
                v
            }
        };
        let eirs = if kind == NiKind::Equinox { eirs.to_vec() } else { Vec::new() };
        let rr = if kind == NiKind::SubnetRoundRobin { index } else { 0 };
        InjectPolicy { kind, nets: carrying.to_vec(), net, injectors, eirs, rr }
    }

    /// The interposer injectors of an EquiNox CB NI, in group order.
    pub(crate) fn eir_injectors(&self) -> Option<&[InjectorId]> {
        (self.kind == NiKind::Equinox).then(|| &self.injectors[1..])
    }

    /// Snapshot tag of the kind, and the bound on the cursor.
    fn tag_and_rr_bound(&self) -> (u8, usize) {
        match self.kind {
            NiKind::Local => (0, 1),
            NiKind::CmeshSplit => (1, 1),
            NiKind::SubnetRoundRobin => (2, self.nets.len()),
            NiKind::MultiPort(_) => (3, self.injectors.len()),
            NiKind::Equinox => (4, self.eirs.len().max(1)),
        }
    }
}

/// A packet being pushed into a network, one flit per cycle. Holds only
/// the packet *description*; each flit is rebuilt on demand, so streaming
/// a packet never allocates.
#[derive(Debug)]
struct Inflight {
    desc: PacketDesc,
    /// Ejection sink tag stamped on every flit (may differ from the
    /// row-major default on concentrated meshes).
    sink: u32,
    /// Next flit index to inject.
    next: u16,
    net: usize,
    injector: InjectorId,
}

impl Inflight {
    /// The next flit to inject into network `net` (of mesh width `width`).
    fn next_flit(&self, width: u16) -> equinox_noc::flit::Flit {
        self.desc.flit_at(self.next, width).with_sink(self.sink)
    }
}

/// A bounded source queue feeding one injection policy.
///
/// The queue streams **one packet per injection buffer concurrently**:
/// a baseline NI has a single buffer, but EquiNox's CB NI drains its five
/// single-packet buffers in parallel (Figure 8) and MultiPort its four —
/// that parallel drain is precisely the injection-bandwidth multiplication
/// these schemes buy.
#[derive(Debug)]
pub struct InjectionQueue {
    node: Coord,
    queue: VecDeque<Message>,
    cap: usize,
    inflight: Vec<Inflight>,
    policy: InjectPolicy,
}

impl InjectionQueue {
    /// Creates a queue holding up to `cap` waiting messages.
    pub fn new(node: Coord, cap: usize, policy: InjectPolicy) -> Self {
        assert!(cap > 0, "queues need capacity");
        InjectionQueue {
            node,
            queue: VecDeque::new(),
            cap,
            inflight: Vec::new(),
            policy,
        }
    }

    /// `true` if another message fits.
    pub(crate) fn can_accept(&self) -> bool {
        self.queue.len() < self.cap
    }

    /// Enqueues a message, handing it back when the queue is full so the
    /// caller can apply backpressure instead of crashing.
    pub(crate) fn try_push(&mut self, msg: Message) -> Result<(), Message> {
        if self.can_accept() {
            self.queue.push_back(msg);
            Ok(())
        } else {
            Err(msg)
        }
    }

    /// Enqueues a message.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; check [`InjectionQueue::can_accept`]
    /// or use [`InjectionQueue::try_push`] where backpressure is possible.
    pub fn push(&mut self, msg: Message) {
        assert!(
            self.try_push(msg).is_ok(),
            "injection queue overflow at {}",
            self.node
        );
    }

    /// Messages waiting plus packets in flight.
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    /// `true` when nothing is queued or in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }

    /// Packets whose head flit is already in a network but whose tail is
    /// not — the NI-side residency term of system-level packet accounting
    /// (packets with the head still pending count with the queue, packets
    /// fully streamed leave `inflight`).
    pub(crate) fn streaming_packets(&self) -> usize {
        self.inflight.iter().filter(|fl| fl.next >= 1).count()
    }

    /// One cycle: advance every in-flight packet by one flit (each claims
    /// its own injection buffer, so they stream in parallel), then claim
    /// free injectors for queued messages per the policy.
    pub fn tick(&mut self, nets: &mut [Network], tracker: &mut PacketTracker, now: u64) {
        for fl in &mut self.inflight {
            if fl.next < fl.desc.len {
                let flit = fl.next_flit(nets[fl.net].width());
                if nets[fl.net].try_inject_flit(fl.injector, flit) {
                    if fl.next == 0 {
                        tracker.mark_injected(flit.pkt.0, now);
                    }
                    fl.next += 1;
                }
            }
        }
        self.inflight.retain(|fl| fl.next < fl.desc.len);
        // Start as many new packets as the policy finds free buffers for.
        while let Some(&msg) = self.queue.front() {
            let Some((net, injector, src, dst, sink)) = self.choose(nets, &msg) else {
                break;
            };
            let bits = nets[net].config().link_bits;
            let desc = msg.to_desc(bits, src, dst);
            self.queue.pop_front();
            let mut fl = Inflight {
                desc,
                sink,
                next: 0,
                net,
                injector,
            };
            // Push the head flit immediately: the injector reserves its
            // VC, so a second message cannot claim the same buffer.
            let head = fl.next_flit(nets[net].width());
            if nets[net].try_inject_flit(injector, head) {
                tracker.mark_injected(head.pkt.0, now);
                fl.next = 1;
            }
            if fl.next < fl.desc.len {
                self.inflight.push(fl);
            }
        }
    }

    /// Serializes the queue contents, the in-flight packet streams and
    /// the policy's round-robin cursor (if any). Node, capacity and the
    /// policy's wiring (networks, injectors, thresholds) are build-time
    /// configuration and are skipped.
    pub(crate) fn snap_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        self.queue.snap(e);
        e.put_usize(self.inflight.len());
        for fl in &self.inflight {
            fl.desc.snap(e);
            e.put_u32(fl.sink);
            e.put_u16(fl.next);
            e.put_usize(fl.net);
            fl.injector.snap(e);
        }
        e.put_u8(self.policy.tag_and_rr_bound().0);
        e.put_usize(self.policy.rr);
    }

    /// Restores state written by [`InjectionQueue::snap_state`] into a
    /// queue built with the same capacity and policy wiring. `nets` is
    /// the system's network list, used to bound-check restored injector
    /// handles and network indices.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut equinox_snap::Dec,
        nets: &[Network],
    ) -> Result<(), equinox_snap::SnapError> {
        use equinox_snap::{Snap, SnapError};
        let queue: VecDeque<Message> = VecDeque::restore(d)?;
        if queue.len() > self.cap {
            return Err(SnapError::BadValue("ni queue over capacity"));
        }
        let n_inflight = d.usize()?;
        if n_inflight > d.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut inflight = Vec::with_capacity(n_inflight);
        for _ in 0..n_inflight {
            let desc = PacketDesc::restore(d)?;
            let sink = d.u32()?;
            let next = d.u16()?;
            let net = d.usize()?;
            let injector = InjectorId::restore(d)?;
            if net >= nets.len() {
                return Err(SnapError::BadValue("ni inflight network index"));
            }
            if !nets[net].injector_valid(injector) {
                return Err(SnapError::BadValue("ni inflight injector"));
            }
            if next > desc.len {
                return Err(SnapError::BadValue("ni inflight flit cursor"));
            }
            inflight.push(Inflight {
                desc,
                sink,
                next,
                net,
                injector,
            });
        }
        let (tag, rr_bound) = self.policy.tag_and_rr_bound();
        if d.u8()? != tag {
            return Err(SnapError::BadValue("injection policy tag mismatch"));
        }
        let rr = d.usize()?;
        if rr >= rr_bound {
            return Err(SnapError::BadValue("ni round-robin cursor"));
        }
        self.policy.rr = rr;
        self.queue = queue;
        self.inflight = inflight;
        Ok(())
    }

    /// Applies the policy: returns `(net, injector, src, dst, sink)` for
    /// the message, or `None` to retry next cycle.
    fn choose(
        &mut self,
        nets: &[Network],
        msg: &Message,
    ) -> Option<(usize, InjectorId, Coord, Coord, u32)> {
        let node = self.node;
        let p = &mut self.policy;
        let n = p.net;
        // The (net, injector) pair as a claim, if the injector is free.
        let claim = |n: usize, inj: InjectorId| {
            let sink = || msg.dst.to_index(nets[n].width()) as u32;
            nets[n].injector_ready(inj, msg.class).then(|| (n, inj, msg.src, msg.dst, sink()))
        };
        match p.kind {
            NiKind::Local => claim(n, nets[n].local_injector(node)),
            NiKind::CmeshSplit => {
                let (cmesh, cmesh_injector, c) = (p.nets[1], p.injectors[0], CONCENTRATION);
                let csrc = Coord::new(msg.src.x / c, msg.src.y / c);
                let cdst = Coord::new(msg.dst.x / c, msg.dst.y / c);
                let far = msg.src.manhattan(msg.dst) > CMESH_THRESHOLD && csrc != cdst;
                if far && nets[cmesh].injector_ready(cmesh_injector, msg.class) {
                    // Sink = base-mesh node index, matched by the tagged
                    // ejection port on the destination's CMesh router.
                    let sink = msg.dst.to_index(nets[n].width()) as u32;
                    Some((cmesh, cmesh_injector, csrc, cdst, sink))
                } else {
                    claim(n, nets[n].local_injector(node))
                }
            }
            NiKind::SubnetRoundRobin => {
                let len = p.nets.len();
                for k in 0..len {
                    let net = p.nets[(p.rr + k) % len];
                    if let Some(c) = claim(net, nets[net].local_injector(node)) {
                        p.rr = (p.rr + k + 1) % len;
                        return Some(c);
                    }
                }
                None
            }
            NiKind::MultiPort(_) => {
                let len = p.injectors.len();
                for k in 0..len {
                    if let Some(c) = claim(n, p.injectors[(p.rr + k) % len]) {
                        p.rr = (p.rr + k + 1) % len;
                        return Some(c);
                    }
                }
                None
            }
            NiKind::Equinox => {
                // Buffer Selection 1: only EIRs on a shortest path. The
                // candidates live in an inline bitmask over the full EIR
                // list (a CB has 4 EIRs; 32 is ample), so the per-message
                // hot path never allocates — and the round-robin cursor
                // indexes the *full* list, keeping its meaning stable
                // across messages with different shortest-path sets (a
                // cursor modulo the per-message candidate count drifts
                // and can starve one quadrant EIR).
                let (local, eir_injectors) = (p.injectors[0], &p.injectors[1..]);
                debug_assert!(p.eirs.len() <= 32, "EIR bitmask limited to 32 entries");
                let direct = msg.src.manhattan(msg.dst);
                let mut sp_mask = 0u32;
                for (i, e) in p.eirs.iter().enumerate() {
                    if msg.src.manhattan(*e) + e.manhattan(msg.dst) == direct {
                        sp_mask |= 1 << i;
                    }
                }
                let dx = msg.dst.x as i32 - msg.src.x as i32;
                let dy = msg.dst.y as i32 - msg.src.y as i32;
                debug_assert!(dx != 0 || dy != 0, "CB does not message itself");
                if dx == 0 || dy == 0 {
                    // On-axis: at most one shortest-path EIR exists.
                    if sp_mask != 0 {
                        let found = claim(n, eir_injectors[sp_mask.trailing_zeros() as usize]);
                        if found.is_some() {
                            return found;
                        }
                    }
                } else if sp_mask != 0 {
                    // Quadrant: up to two candidates, round-robin.
                    let m = p.eirs.len();
                    for k in 0..m {
                        let i = (p.rr + k) % m;
                        if sp_mask & (1 << i) == 0 {
                            continue;
                        }
                        let found = claim(n, eir_injectors[i]);
                        if found.is_some() {
                            p.rr = (i + 1) % m;
                            return found;
                        }
                    }
                }
                // Fall back to the local buffer; otherwise retry.
                claim(n, local)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MemOpKind;
    use equinox_noc::config::NocConfig;
    use equinox_noc::flit::MessageClass;

    fn setup() -> (Vec<Network>, PacketTracker) {
        (vec![Network::new(NocConfig::mesh(8))], PacketTracker::new())
    }

    /// The shared constructor on network 0, as a CB NI with these EIRs.
    fn wire(kind: NiKind, nets: &mut [Network], node: Coord, eirs: &[Coord]) -> InjectPolicy {
        InjectPolicy::for_node(kind, nets, &[0], node, 0, eirs, None)
    }

    fn local(nets: &mut [Network], node: Coord) -> InjectPolicy {
        wire(NiKind::Local, nets, node, &[])
    }

    #[test]
    fn local_policy_delivers() {
        let (mut nets, mut tracker) = setup();
        let src = Coord::new(0, 0);
        let dst = Coord::new(3, 3);
        let msg = tracker.create(src, dst, MessageClass::Reply, MemOpKind::Read, 0, 0);
        let mut ni = InjectionQueue::new(src, 4, local(&mut nets, src));
        ni.push(msg);
        let mut tail = false;
        for t in 0..200 {
            ni.tick(&mut nets, &mut tracker, t);
            nets[0].step();
            while let Some(f) = nets[0].pop_ejected_node(dst) {
                if f.is_tail() {
                    tail = true;
                }
            }
        }
        assert!(tail, "5-flit reply must arrive");
        assert!(ni.is_idle());
        assert!(tracker.record(msg.id).injected.is_some());
    }

    #[test]
    fn queue_capacity_respected() {
        let (mut nets, mut tracker) = setup();
        let src = Coord::new(0, 0);
        let mut ni = InjectionQueue::new(src, 2, local(&mut nets, src));
        for _ in 0..2 {
            let m = tracker.create(src, Coord::new(1, 1), MessageClass::Request, MemOpKind::Read, 0, 0);
            assert!(ni.can_accept());
            ni.push(m);
        }
        assert!(!ni.can_accept());
        assert_eq!(ni.backlog(), 2);
    }

    #[test]
    fn equinox_policy_prefers_shortest_path_eir() {
        let mut nets = vec![Network::new(NocConfig::mesh(8))];
        let mut tracker = PacketTracker::new();
        let cb = Coord::new(2, 2);
        // EIR east at (4,2), EIR west at (0,2).
        let policy = wire(NiKind::Equinox, &mut nets, cb, &[Coord::new(4, 2), Coord::new(0, 2)]);
        let mut ni = InjectionQueue::new(cb, 4, policy);
        // Destination due east: the east EIR is on the shortest path.
        let msg = tracker.create(cb, Coord::new(7, 2), MessageClass::Reply, MemOpKind::Read, 0, 0);
        ni.push(msg);
        for t in 0..100 {
            ni.tick(&mut nets, &mut tracker, t);
            nets[0].step();
            while nets[0].pop_ejected_node(Coord::new(7, 2)).is_some() {}
        }
        assert!(
            nets[0].stats().link_flits_interposer >= 5,
            "packet must ride the east EIR interposer link"
        );
    }

    #[test]
    fn equinox_policy_falls_back_to_local_when_no_sp_eir() {
        let mut nets = vec![Network::new(NocConfig::mesh(8))];
        let mut tracker = PacketTracker::new();
        let cb = Coord::new(2, 2);
        let policy = wire(NiKind::Equinox, &mut nets, cb, &[Coord::new(4, 2)]);
        let mut ni = InjectionQueue::new(cb, 4, policy);
        // Destination due WEST: the east EIR is not on a shortest path.
        let msg = tracker.create(cb, Coord::new(0, 2), MessageClass::Reply, MemOpKind::Read, 0, 0);
        ni.push(msg);
        let mut tail = false;
        for t in 0..100 {
            ni.tick(&mut nets, &mut tracker, t);
            nets[0].step();
            while let Some(f) = nets[0].pop_ejected_node(Coord::new(0, 2)) {
                if f.is_tail() {
                    tail = true;
                }
            }
        }
        assert!(tail);
        assert_eq!(
            nets[0].stats().link_flits_interposer, 0,
            "no detour through the east EIR"
        );
    }

    #[test]
    fn subnet_round_robin_spreads_packets() {
        let mut cfg = NocConfig::mesh(4);
        cfg.link_bits = 16;
        cfg.vc_buf_flits = 40;
        let mut nets = vec![Network::new(cfg.clone()), Network::new(cfg)];
        let mut tracker = PacketTracker::new();
        let src = Coord::new(0, 0);
        let policy = InjectPolicy::for_node(NiKind::SubnetRoundRobin, &mut nets, &[0, 1], src, 0, &[], None);
        let mut ni = InjectionQueue::new(src, 8, policy);
        for _ in 0..2 {
            let m = tracker.create(src, Coord::new(3, 3), MessageClass::Reply, MemOpKind::Read, 0, 0);
            ni.push(m);
        }
        for t in 0..400 {
            ni.tick(&mut nets, &mut tracker, t);
            for n in nets.iter_mut() {
                n.step();
                while n.pop_ejected_node(Coord::new(3, 3)).is_some() {}
            }
        }
        assert!(nets[0].stats().injected_flits > 0);
        assert!(nets[1].stats().injected_flits > 0, "round-robin must use both subnets");
    }

    #[test]
    fn multi_injector_streams_packets_in_parallel() {
        let mut nets = vec![Network::new(NocConfig::mesh(8))];
        let mut tracker = PacketTracker::new();
        let cb = Coord::new(3, 3);
        let policy = wire(NiKind::MultiPort(4), &mut nets, cb, &[]);
        assert_eq!(nets[0].router_ports(cb), 8, "three ports beside the local one");
        let mut ni = InjectionQueue::new(cb, 8, policy);
        for k in 0..4 {
            let dst = Coord::new(7, k);
            let m = tracker.create(cb, dst, MessageClass::Reply, MemOpKind::Read, 0, 0);
            ni.push(m);
        }
        // One tick claims all four buffers at once.
        ni.tick(&mut nets, &mut tracker, 0);
        assert_eq!(ni.backlog(), 4, "all four packets in flight");
        let mut got = 0;
        for t in 1..400 {
            ni.tick(&mut nets, &mut tracker, t);
            nets[0].step();
            for k in 0..4 {
                while let Some(f) = nets[0].pop_ejected_node(Coord::new(7, k)) {
                    if f.is_tail() {
                        got += 1;
                    }
                }
            }
        }
        assert_eq!(got, 4);
        assert!(ni.is_idle());
    }

    #[test]
    fn cmesh_split_routes_far_packets_through_the_cmesh() {
        // Base 8x8 + a 4x4 concentrated net; a far packet must use the
        // CMesh, a near one the base mesh.
        let base = Network::new(NocConfig::mesh(8));
        let mut ccfg = NocConfig::mesh(4);
        ccfg.link_bits = 256;
        ccfg.vc_buf_flits = 3;
        let mut cmesh = Network::new(ccfg);
        // Tag ejection for the far destination (7,7) = node 63 on its
        // cmesh router (3,3); neutralize the default tag.
        for r in 0..16 {
            cmesh.set_ejection_sink(r, 4, Some(u32::MAX));
        }
        let (er, ep) = cmesh.add_ejection_port(Coord::new(3, 3), Some(63));
        let src = Coord::new(0, 0);
        let inj = cmesh.add_injection_port(Coord::new(0, 0), 1, equinox_noc::link::LinkKind::Interposer);
        let mut nets = vec![base, cmesh];
        let mut tracker = PacketTracker::new();
        let policy = InjectPolicy::for_node(NiKind::CmeshSplit, &mut nets, &[0, 1], src, 0, &[], Some(inj));
        let mut ni = InjectionQueue::new(src, 4, policy);
        let far = tracker.create(src, Coord::new(7, 7), MessageClass::Reply, MemOpKind::Read, 0, 0);
        let near = tracker.create(src, Coord::new(1, 0), MessageClass::Request, MemOpKind::Read, 0, 0);
        ni.push(far);
        ni.push(near);
        let mut far_via_cmesh = false;
        let mut near_via_base = false;
        for t in 0..300 {
            ni.tick(&mut nets, &mut tracker, t);
            nets[0].step();
            nets[1].step();
            while let Some(f) = nets[1].pop_ejected(er, ep) {
                if f.is_tail() {
                    far_via_cmesh = true;
                }
            }
            while let Some(f) = nets[0].pop_ejected_node(Coord::new(1, 0)) {
                if f.is_tail() {
                    near_via_base = true;
                }
            }
        }
        assert!(far_via_cmesh, "far packet must ride the concentrated mesh");
        assert!(near_via_base, "near packet must stay on the base mesh");
        let _ = &mut nets;
    }

    /// Runs tick/step/drain until the NI is idle and the net quiescent.
    fn drain(ni: &mut InjectionQueue, nets: &mut [Network], tracker: &mut PacketTracker, dsts: &[Coord]) {
        for t in 0..2_000 {
            ni.tick(nets, tracker, t);
            for n in nets.iter_mut() {
                n.step();
                for &d in dsts {
                    while n.pop_ejected_node(d).is_some() {}
                }
            }
            if ni.is_idle() && nets.iter().all(|n| n.quiescent()) {
                return;
            }
        }
        panic!("network failed to drain");
    }

    #[test]
    fn equinox_two_equal_candidates_alternate() {
        // Two shortest-path EIRs for every message: round-robin must split
        // the packets exactly evenly between them.
        let mut nets = vec![Network::new(NocConfig::mesh(8))];
        let mut tracker = PacketTracker::new();
        let cb = Coord::new(2, 2);
        let e1 = Coord::new(4, 2); // shortest-path for (5,5)
        let off = Coord::new(0, 2); // never on a shortest path to (5,5)
        let e2 = Coord::new(2, 4); // shortest-path for (5,5)
        let policy = wire(NiKind::Equinox, &mut nets, cb, &[e1, off, e2]);
        let mut ni = InjectionQueue::new(cb, 8, policy);
        let dst = Coord::new(5, 5);
        for _ in 0..4 {
            let m = tracker.create(cb, dst, MessageClass::Reply, MemOpKind::Read, 0, 0);
            ni.push(m);
            drain(&mut ni, &mut nets, &mut tracker, &[dst]);
        }
        // Flits from e1 traverse only routers in the (4,2)..(5,5) rectangle
        // and flits from e2 only (2,4)..(5,5), so the EIR routers' own flit
        // counters isolate the per-EIR packet split.
        let s = nets[0].stats();
        let f1 = s.router_flits[e1.to_index(8)];
        let f2 = s.router_flits[e2.to_index(8)];
        assert_eq!(f1, f2, "equal candidates must alternate ({f1} vs {f2})");
        assert!(f1 > 0);
        assert_eq!(s.router_flits[off.to_index(8)], 0, "off-path EIR unused");
    }

    #[test]
    fn equinox_rr_cursor_covers_all_eirs_across_mixed_destinations() {
        // Regression for the stale-cursor bug: with the cursor taken
        // modulo the per-message shortest-path count, an alternating
        // destination pattern keeps selecting the same EIRs and starves
        // another that is eligible every other message. The cursor must
        // range over the full EIR list.
        let mut nets = vec![Network::new(NocConfig::mesh(8))];
        let mut tracker = PacketTracker::new();
        let cb = Coord::new(2, 2);
        let e1 = Coord::new(4, 2);
        let e2 = Coord::new(3, 3);
        let e3 = Coord::new(2, 4);
        let policy = wire(NiKind::Equinox, &mut nets, cb, &[e1, e2, e3]);
        let mut ni = InjectionQueue::new(cb, 8, policy);
        let dst_a = Coord::new(5, 5); // all three EIRs on a shortest path
        let dst_b = Coord::new(4, 3); // only e1 and e2 on a shortest path
        for i in 0..6 {
            let dst = if i % 2 == 0 { dst_a } else { dst_b };
            let m = tracker.create(cb, dst, MessageClass::Reply, MemOpKind::Read, 0, 0);
            ni.push(m);
            drain(&mut ni, &mut nets, &mut tracker, &[dst]);
        }
        // No traffic for these destinations passes through another EIR's
        // router, so each counter is nonzero iff that EIR injected.
        let s = nets[0].stats();
        for e in [e1, e2, e3] {
            assert!(
                s.router_flits[e.to_index(8)] > 0,
                "EIR at {e:?} was starved by the round-robin cursor"
            );
        }
    }

    #[test]
    fn try_push_reports_overflow_without_losing_the_message() {
        let (mut nets, mut tracker) = setup();
        let src = Coord::new(0, 0);
        let mut ni = InjectionQueue::new(src, 1, local(&mut nets, src));
        let m1 = tracker.create(src, Coord::new(1, 1), MessageClass::Request, MemOpKind::Read, 0, 0);
        let m2 = tracker.create(src, Coord::new(2, 2), MessageClass::Request, MemOpKind::Read, 1, 0);
        assert!(ni.try_push(m1).is_ok());
        let back = ni.try_push(m2).expect_err("queue is full");
        assert_eq!(back.id, m2.id, "rejected message is returned intact");
        assert_eq!(ni.backlog(), 1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_beyond_capacity_panics() {
        let (mut nets, mut tracker) = setup();
        let src = Coord::new(0, 0);
        let mut ni = InjectionQueue::new(src, 1, local(&mut nets, src));
        for _ in 0..2 {
            let m = tracker.create(src, Coord::new(1, 1), MessageClass::Request, MemOpKind::Read, 0, 0);
            ni.push(m);
        }
    }
}
