//! The network: routers, links, injectors and the per-cycle schedule.
//!
//! [`Network::step`] advances one clock cycle in two phases:
//!
//! 1. **Arrivals** — the credits and flits due this cycle come off the
//!    links' two arrival wheels: credits into upstream counters, flits
//!    into sight in the input VCs they were staged in when sent.
//! 2. **Router stages** — every router performs route computation for new
//!    head flits, VC allocation (adaptive candidates preferred by
//!    downstream credit count, XY escape fallback), separable input-first
//!    switch allocation with round-robin arbiters, and switch traversal,
//!    which stages flits in the downstream input VC of the outgoing link
//!    (or parks them in an ejection queue) and returns a credit upstream
//!    for the freed buffer slot.
//!
//! Router state lives in the flat arrays of [`RouterCore`]; the stages
//! walk each router's mask words (`occupied`, `allocated`, `out_free`,
//! `out_ready`) bit by bit, lowest first, which is port-major, VC-minor
//! order.
//!
//! Network interfaces interact only through [`InjectorId`] handles (each an
//! extra input port fed by a private link with NI-side credit counters) and
//! the per-port ejection queues.

use crate::audit::{self, AuditConfig, AuditState, Violation};
use crate::config::NocConfig;
use crate::flit::{Flit, MessageClass, PacketEntry, Slot, SlotExt};
use crate::link::{CreditDst, LinkKind, Links};
use crate::router::{OutputRole, RouterCore, NONE, NO_LINK, PORT_LOCAL};
use crate::stats::NetStats;
use crate::topology::Topology;
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::worklist::Worklist;
use equinox_obs::{NetCause, StallGrid};
use equinox_phys::Coord;

/// Handle to one injection point (an input port on some router, fed by a
/// dedicated link with credit-based backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectorId(pub(crate) usize);

impl equinox_snap::Snap for InjectorId {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_usize(self.0);
    }
}

#[derive(Debug)]
pub(crate) struct Injector {
    link: usize,
    /// NI-side credit counter per VC of the fed input port.
    pub(crate) credits: Vec<u32>,
    /// The VC chosen for the packet currently being streamed in and that
    /// packet's handle in the packet table, for its body flits; `None`
    /// between packets.
    streaming: Option<(u8, u32)>,
    /// Cycle of the last accepted flit (enforces one flit per cycle).
    last_cycle: u64,
    /// Total flits accepted through this injector (observability).
    flits: u64,
}

/// What [`Topology::route`] and [`Topology::escape_port`] say about one
/// `(current, destination)` pair, as the VC allocator wants it. Both are
/// pure functions of the pair, so the answer is computed the first time
/// a head flit asks and kept: a head that stays blocked for a hundred
/// cycles costs one virtual call, not a hundred, and a network that
/// never routes some pair never pays for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    /// 0 while the pair has not been asked for; else `1 +` the number of
    /// entries of `ports` in use.
    filled: u8,
    /// The candidate ports that drive a link, in preference order.
    ports: [u8; 2],
    /// The escape port, or [`NONE`] at the destination itself.
    escape: u8,
}

impl Route {
    const UNKNOWN: Route = Route { filled: 0, ports: [NONE; 2], escape: NONE };

    fn candidates(&self) -> &[u8] {
        &self.ports[..self.filled as usize - 1]
    }
}

/// What the VC allocator did with the pipeline-clear heads it met, since
/// the network was built (grants are [`NetStats::vc_allocs`]). A
/// diagnostic of the simulator, not of the simulated machine: not in the
/// stats, not serialised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VcAllocCounts {
    /// Allocator runs.
    pub attempts: u64,
    /// Runs for a head whose recorded want had opened — each one a grant.
    pub retried: u64,
    /// Heads not re-tried because none of the output VCs they want was
    /// free and ready (activity gate only).
    pub skipped: u64,
}

/// The VCs a message class may be allocated, fixed by the partition.
#[derive(Debug, Clone, Copy, Default)]
struct ClassVcs {
    /// The class's own VCs as a mask over one port's VCs.
    own: u64,
    /// Its escape VC (the first of its own).
    escape: u8,
    /// The other class's VCs, `start..end`, if this class may borrow
    /// them at a router holding no flit of the other class (VC-Mono);
    /// empty otherwise.
    foreign: (u8, u8),
}

/// A cycle-accurate network over one of the registered
/// [`crate::topology`] fabrics.
#[derive(Debug)]
pub struct Network {
    pub(crate) cfg: NocConfig,
    /// The fabric description the network was built from: link graph,
    /// productive-direction function, escape contract.
    pub(crate) topo: Box<dyn Topology>,
    pub(crate) core: RouterCore,
    pub(crate) links: Links,
    pub(crate) injectors: Vec<Injector>,
    stats: NetStats,
    alloc_counts: VcAllocCounts,
    pub(crate) cycle: u64,
    /// Cached local injector ids per node (row-major).
    local_injectors: Vec<InjectorId>,
    /// [`Route`] per `(current, destination)` pair, row per current.
    routes: Vec<Route>,
    /// Per message class (0 = request, 1 = reply).
    class_vcs: [ClassVcs; 2],
    /// The port a mask bit belongs to (`bit / vcs_per_port`).
    bit_port: [u8; 64],
    /// Switch-allocation scratch: per output port, the input ports whose
    /// winning VC wants it. All zero between routers.
    sa_requests: [u64; 64],
    /// Switch-allocation scratch: per input port, its winning VC.
    sa_winner_vc: [u8; 64],
    /// Opt-in flit-event recorder (disabled by default).
    trace: Trace,
    /// Opt-in invariant auditor (disabled by default; boxed so the
    /// disabled case costs one pointer and a branch per cycle).
    pub(crate) audit: Option<Box<AuditState>>,
    /// Opt-in stall-cause attribution (reported by the system's obs
    /// block): per-router × per-cause stall-cycle counters + per-class
    /// totals, armed by
    /// [`Network::enable_stalls`]. Disabled by default; same one-branch
    /// discipline as the auditor.
    stall: Option<Box<StallGrid>>,
    /// Routers that may do work this cycle (≥ 1 buffered flit).
    active_routers: Worklist,
    /// Routers with a flit parked in some ejection queue (`ejecting`
    /// mask non-zero) — what [`Network::next_ejecting`] walks, so a sink
    /// drain costs per parked flit, not per port.
    ejecting_routers: Worklist,
}

impl Network {
    /// Builds the network described by `cfg.topology`: every node gets a
    /// uniform 5-port router (4 network ports + local; ports the fabric
    /// does not wire stay dead), the fabric's link graph is wired both
    /// ways, and each node gets one local injector and one ejection port
    /// tagged with the node's row-major index.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NocConfig::validate`].
    pub fn new(cfg: NocConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid NoC config: {e}");
        }
        let topo = cfg.topology.build(cfg.width, cfg.height);
        let n = topo.num_nodes();
        let coords: Vec<Coord> = (0..n).map(|i| topo.node_coord(i)).collect();
        let vcs = cfg.vcs_per_port;
        let class_vcs = [false, true].map(|reply| {
            let own = cfg.partition.range_for(reply, vcs);
            let foreign = if reply && cfg.partition.mono() {
                cfg.partition.range_for(false, vcs)
            } else {
                0..0
            };
            ClassVcs {
                own: (own.start..own.end).fold(0, |m, v| m | 1 << v),
                escape: own.start,
                foreign: (foreign.start, foreign.end),
            }
        });
        let mut bit_port = [0; 64];
        for (bit, port) in bit_port.iter_mut().enumerate() {
            *port = (bit / vcs as usize) as u8;
        }
        let mut net = Network {
            core: RouterCore::new(&coords, 5, vcs, cfg.vc_buf_flits, cfg.eject_cap),
            stats: NetStats::new(n),
            alloc_counts: VcAllocCounts::default(),
            topo,
            links: Links::default(),
            injectors: Vec::new(),
            cycle: 0,
            local_injectors: Vec::new(),
            routes: vec![Route::UNKNOWN; n * n],
            class_vcs,
            bit_port,
            sa_requests: [0; 64],
            sa_winner_vc: [0; 64],
            cfg,
            trace: Trace::default(),
            audit: None,
            stall: None,
            active_routers: Worklist::with_len(n),
            ejecting_routers: Worklist::with_len(n),
        };
        // Network links, in the fabric's deterministic build order (link
        // ids are observable through link-utilization grids, so the order
        // is part of each fabric's contract).
        for l in net.topo.links() {
            let link_id = net.push_link(
                LinkKind::Mesh,
                net.cfg.link_latency,
                l.to,
                l.to_port,
                CreditDst::RouterOutput {
                    router: l.from as u32,
                    port: l.from_port as u8,
                },
            );
            net.core.set_role(l.from, l.from_port, OutputRole::Link(link_id as u32));
        }
        // Local ports: ejection with sink tag, plus one NI injector.
        for (i, &c) in coords.iter().enumerate() {
            net.core.set_role(i, PORT_LOCAL, OutputRole::Eject { sink: Some(i as u32) });
            let id = net.attach_injector(c, PORT_LOCAL, net.cfg.ni_latency, LinkKind::NiLocal);
            net.local_injectors.push(id);
        }
        net.core.reserve_packets(net.injectors.len());
        net
    }

    /// Appends a link feeding input port `to_port` of `to_router`.
    fn push_link(
        &mut self,
        kind: LinkKind,
        latency: u32,
        to_router: usize,
        to_port: usize,
        credit_dst: CreditDst,
    ) -> usize {
        let id = self.links.push(kind, latency, to_router, to_port, credit_dst);
        let fed = self.core.port(to_router, to_port);
        self.core.feed_link[fed] = id as u32;
        id
    }

    fn attach_injector(
        &mut self,
        node: Coord,
        port: usize,
        latency: u32,
        kind: LinkKind,
    ) -> InjectorId {
        let r = self.topo.node_index(node);
        let injector_idx = self.injectors.len();
        let link_id = self.push_link(
            kind,
            latency,
            r,
            port,
            CreditDst::Injector {
                injector: injector_idx as u32,
            },
        );
        self.injectors.push(Injector {
            link: link_id,
            credits: vec![self.cfg.vc_buf_flits as u32; self.cfg.vcs_per_port as usize],
            streaming: None,
            last_cycle: u64::MAX,
            flits: 0,
        });
        InjectorId(injector_idx)
    }

    /// Adds an extra injection port to the router at `node`, fed by a link
    /// of the given latency and kind, and returns its handle. This is how
    /// MultiPort's extra CB ports and EquiNox's CB→EIR interposer links
    /// are modelled.
    ///
    /// # Panics
    ///
    /// Panics on a zero `latency`. Also panics if a flit or credit is in
    /// flight and `(latency + 1).next_power_of_two()` exceeds the arrival
    /// wheels' bucket count, which the longest existing link set: the
    /// wheels grow only while they are empty. Adding every port before
    /// the first step never panics.
    pub fn add_injection_port(&mut self, node: Coord, latency: u32, kind: LinkKind) -> InjectorId {
        let (_, port) = self.add_port(node);
        let id = self.attach_injector(node, port, latency, kind);
        self.core.reserve_packets(self.injectors.len());
        id
    }

    /// Appends a paired port, dead on both sides, to the router at
    /// `node` and returns `(router, port)`.
    fn add_port(&mut self, node: Coord) -> (usize, usize) {
        let r = self.topo.node_index(node);
        (r, self.core.add_port(r))
    }

    /// Adds an extra ejection port (output only) to the router at `node`,
    /// restricted to flits whose sink tag equals `sink` (or any flit if
    /// `None`). Returns `(router, port)` for use with [`Network::pop_ejected`].
    pub fn add_ejection_port(&mut self, node: Coord, sink: Option<u32>) -> (usize, usize) {
        let (r, port) = self.add_port(node);
        self.core.set_role(r, port, OutputRole::Eject { sink });
        self.core.reserve_packets(self.injectors.len());
        (r, port)
    }

    /// Re-tags an existing ejection port (used by concentrated meshes to
    /// map each local port to a base-mesh node id).
    ///
    /// # Panics
    ///
    /// Panics if `(router, port)` is not an ejection port.
    pub fn set_ejection_sink(&mut self, router: usize, port: usize, sink: Option<u32>) {
        match self.core.role(router, port) {
            OutputRole::Eject { .. } => self.core.set_role(router, port, OutputRole::Eject { sink }),
            other => panic!("port {port} of router {router} is {other:?}, not an ejection port"),
        }
    }

    /// The local (port-4) injector of `node`.
    pub fn local_injector(&self, node: Coord) -> InjectorId {
        self.local_injectors[self.topo.node_index(node)]
    }

    /// Total flits accepted through this injector since construction
    /// (observability: per-EIR load sampling).
    pub fn injector_flits(&self, id: InjectorId) -> u64 {
        self.injectors[id.0].flits
    }

    /// Number of links in the network (mesh links plus every NI/EIR
    /// feed), the denominator of link-utilization figures.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Fills `out` with the cumulative flit count carried by each link
    /// (index = link id). Reuses the caller's buffer so a sampling loop
    /// stays allocation-free after the first call.
    pub fn link_flit_counts(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.links.iter().map(|l| l.flits_carried));
    }

    /// `true` if the injector could accept the head flit of a new packet
    /// of `class` this cycle: it is between packets, no flit was already
    /// injected this cycle, and some VC in the class's partition has
    /// downstream credit. Packets may follow each other back-to-back
    /// through the same VC (standard wormhole injection); what makes an NI
    /// buffer "single-packet" is that the injector streams one packet at a
    /// time.
    pub fn injector_ready(&self, id: InjectorId, class: MessageClass) -> bool {
        let inj = &self.injectors[id.0];
        if inj.last_cycle == self.cycle {
            return false;
        }
        if inj.streaming.is_some() {
            return false;
        }
        self.free_vc(inj, class).is_some()
    }

    /// Picks the emptiest credited VC of the class partition.
    fn free_vc(&self, inj: &Injector, class: MessageClass) -> Option<u8> {
        let range = self
            .cfg
            .partition
            .range_for(class.is_reply(), self.cfg.vcs_per_port);
        range
            .clone()
            .filter(|&v| inj.credits[v as usize] > 0)
            .max_by_key(|&v| inj.credits[v as usize])
    }

    /// Tries to inject one flit. Head flits claim a fresh VC (requiring an
    /// empty downstream buffer); body/tail flits continue on the claimed
    /// VC. At most one flit per injector per cycle. Returns `false` (and
    /// consumes nothing) when the flit cannot be accepted this cycle.
    pub fn try_inject_flit(&mut self, id: InjectorId, mut flit: Flit) -> bool {
        let cfgdepth = self.cfg.vc_buf_flits as u32;
        let class = flit.class;
        let (vc, handle) = {
            let inj = &self.injectors[id.0];
            if inj.last_cycle == self.cycle {
                return false;
            }
            match (flit.is_head(), inj.streaming) {
                // A packet is still streaming through this buffer; a new
                // head must wait for its tail (single-packet injector
                // discipline).
                (true, Some(_)) => return false,
                (true, None) => match self.free_vc(inj, class) {
                    Some(v) => (v, None),
                    None => return false,
                },
                (false, Some((v, h))) if inj.credits[v as usize] > 0 => (v, Some(h)),
                (false, _) => return false,
            }
        };
        // A head takes its packet's handle; body flits reuse it.
        let handle = handle.unwrap_or_else(|| self.core.packets.alloc(&flit));
        debug_assert_eq!(
            self.core.packets.get(handle).id,
            flit.pkt,
            "a body flit of another packet than its injector is streaming"
        );
        let inj = &mut self.injectors[id.0];
        debug_assert!(inj.credits[vc as usize] > 0 && inj.credits[vc as usize] <= cfgdepth);
        inj.credits[vc as usize] -= 1;
        inj.last_cycle = self.cycle;
        inj.flits += 1;
        inj.streaming = (!flit.is_tail()).then_some((vc, handle));
        flit.vc = vc;
        let link = inj.link;
        let to_router = self.links[link].to_router as usize;
        self.send_flit(link, self.cycle, Slot::pack(0, handle, &flit));
        self.stats.injected_flits += 1;
        if let Some(a) = self.audit.as_deref_mut() {
            a.injected[audit::class_ix(class)] += 1;
        }
        if self.trace.enabled() {
            self.trace.record(TraceEvent {
                cycle: self.cycle,
                router: to_router,
                pkt: flit.pkt,
                seq: flit.seq,
                kind: TraceKind::Inject,
            });
        }
        true
    }

    /// Pops one ejected flit from `(router, port)`, if any. A tail is its
    /// packet's last flit in the network, so popping it frees the
    /// packet's entry.
    pub fn pop_ejected(&mut self, router: usize, port: usize) -> Option<Flit> {
        let slot = self.core.eject_pop(router, port)?;
        if self.core.routers[router].ejecting == 0 {
            self.ejecting_routers.remove(router);
        }
        let f = self.core.packets.flit(&slot);
        if slot.is_tail() {
            self.core.packets.release(slot.handle());
        }
        if let Some(a) = self.audit.as_deref_mut() {
            a.note_pop(f.class);
        }
        self.note_eject_pop(router, &slot);
        Some(f)
    }

    /// Pops one ejected flit from any ejection port of the router at
    /// `node` (the local port or an extra after it).
    pub fn pop_ejected_node(&mut self, node: Coord) -> Option<Flit> {
        let r = self.topo.node_index(node);
        let ports = self.core.routers[r].ejecting;
        if ports == 0 {
            return None;
        }
        self.pop_ejected(r, ports.trailing_zeros() as usize)
    }

    /// The first router at or after index `from` with a flit parked in an
    /// ejection queue, and the mask of its ports that hold one (bit `p` =
    /// port `p`). A cursor rather than a callback so that the caller
    /// decides, port by port, whether to [`Network::pop_ejected`] — a
    /// sink that cannot accept leaves the flits where they are — and
    /// resumes from `router + 1`:
    ///
    /// ```text
    /// let mut from = 0;
    /// while let Some((router, ports)) = net.next_ejecting(from) {
    ///     from = router + 1;
    ///     // for each set bit p of `ports`, lowest first: pop, or don't
    /// }
    /// ```
    ///
    /// Walked that way the order is router ascending, port ascending,
    /// oldest flit first — the order of polling every `(router, port)`.
    /// It is exact: a bit is set if and only if that queue is non-empty
    /// (set when a flit traverses to the port, cleared by the pop that
    /// empties the queue).
    #[inline]
    pub fn next_ejecting(&self, from: usize) -> Option<(usize, u64)> {
        let r = self.ejecting_routers.next_from(from)?;
        Some((r, self.core.routers[r].ejecting))
    }

    /// Pops every parked flit and hands it to `sink(router, port, flit)`
    /// in [`Network::next_ejecting`]'s order: the drain of a consumer
    /// that never declines.
    pub fn drain_ejected(&mut self, mut sink: impl FnMut(usize, usize, Flit)) {
        let mut from = 0;
        while let Some((r, mut ports)) = self.next_ejecting(from) {
            from = r + 1;
            while ports != 0 {
                let p = ports.trailing_zeros() as usize;
                ports &= ports - 1;
                while let Some(f) = self.pop_ejected(r, p) {
                    sink(r, p, f);
                }
            }
        }
    }

    /// Attribution hook for an ejection-queue pop: on a tail flit,
    /// charges the packet's wait in the queue — read off the stamp the
    /// popped slot was parked with — to `eject_wait`. A flit ejected
    /// during the step at cycle `t` could earliest be popped once the
    /// clock reads `t + 1`, so the wait is `(cycle - 1) - entry` — zero
    /// for an ideal sink.
    #[inline]
    fn note_eject_pop(&mut self, router: usize, slot: &Slot) {
        let cycle = self.cycle;
        if let Some(grid) = self.stall.as_deref_mut() {
            if slot.is_tail() {
                let wait = cycle.saturating_sub(1).saturating_sub(slot.stamp());
                grid.charge(router, NetCause::EjectWait, slot.class_ix(), wait);
            }
        }
    }

    /// Advances the network one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        if self.cfg.activity_gate {
            self.step_gated(now);
        } else {
            self.step_exhaustive(now);
        }
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        if self.audit.is_some() {
            self.audit_step();
        }
    }

    /// Reference schedule: every router, in id order. The gated sweep
    /// must match this bit-for-bit.
    fn step_exhaustive(&mut self, now: u64) {
        self.deliver(now);
        for r in 0..self.core.len() {
            self.route_and_allocate(r);
            self.switch(r, now);
        }
    }

    /// Activity-gated schedule: only routers with buffered flits are
    /// visited, in ascending id order — the same relative order as the
    /// exhaustive sweep, whose skipped routers are exact no-ops (an empty
    /// router allocates nothing and grants nothing, so none of its
    /// arbiter state advances). The worklist drops the routers that went
    /// quiet as it is walked; a router is re-activated when a flit
    /// arrives at it.
    ///
    /// Taking the worklist out of `self` is safe because the router
    /// stages never insert into it: a flit they send is staged, and
    /// arrives at the earliest next cycle (links have latency ≥ 1).
    fn step_gated(&mut self, now: u64) {
        self.deliver(now);
        let mut active = std::mem::take(&mut self.active_routers);
        active.sweep(|r| {
            self.route_and_allocate(r);
            self.switch(r, now);
            self.core.routers[r].occupied != 0
        });
        self.active_routers = active;
    }

    /// Takes what arrives at `now` off the links' wheels: credits into
    /// their upstream counters, then flits into sight, activating the
    /// routers they arrive at. Deliveries within a cycle commute — a
    /// link carries at most one flit and one credit per cycle and feeds
    /// one `(router, port)` — so the wheels' order is as good as the
    /// link order it replaces.
    fn deliver(&mut self, now: u64) {
        let vcs = self.core.vcs();
        self.links.take_credits(now, |dst, vc| match dst {
            CreditDst::RouterOutput { router, port } => {
                self.core.return_credit(router as usize, port as usize * vcs + vc as usize);
            }
            CreditDst::Injector { injector } => {
                self.injectors[injector as usize].credits[vc as usize] += 1;
            }
        });
        self.links.take_flits(now, |r, bit, class| {
            self.core.arrive(r, bit, class);
            self.stats.buffer_writes += 1;
            self.active_routers.insert(r);
        });
    }

    /// Sends `slot` down link `li` at `now`: it is staged, stamped with
    /// its arrival cycle, in the downstream input VC it names.
    #[inline]
    fn send_flit(&mut self, li: usize, now: u64, mut slot: Slot) {
        let (r, p, kind) = {
            let l = &self.links[li];
            (l.to_router as usize, l.to_port as usize, l.kind)
        };
        let bit = p * self.core.vcs() + slot.vc() as usize;
        slot.set_stamp(self.links.send_flit(li, now, bit, slot.class_ix()));
        self.core.stage(r, bit, slot);
        self.stats.count_link_flit(kind);
    }

    /// The [`Route`] from router `cur` toward node `dst`.
    #[inline]
    fn route(&mut self, cur: usize, dst: usize) -> Route {
        let at = cur * self.core.len() + dst;
        let known = self.routes[at];
        if known.filled != 0 {
            return known;
        }
        let route = self.compute_route(cur, dst);
        self.routes[at] = route;
        route
    }

    /// Asks the fabric. Candidates that do not drive a link are dropped.
    #[cold]
    fn compute_route(&self, cur: usize, dst: usize) -> Route {
        let mut route = Route {
            filled: 1,
            ports: [NONE; 2],
            escape: self.topo.escape_port(cur, dst).map_or(NONE, |p| p as u8),
        };
        if cur != dst {
            for &p in self.topo.route(self.cfg.routing, cur, dst).as_slice() {
                if matches!(self.core.role(cur, p as usize), OutputRole::Link(_)) {
                    route.ports[route.filled as usize - 1] = p;
                    route.filled += 1;
                }
            }
        }
        route
    }

    /// Route computation + VC allocation for every input VC of router `ri`
    /// whose head-of-line flit is a packet head without an allocated
    /// output.
    ///
    /// Under the activity gate a head that fails keeps the allocator's
    /// `want` — the output VCs whose availability would have let it
    /// through — and is skipped until one of them is free and ready
    /// (ejection VCs need only be free). The skip is exact: allocation
    /// succeeds if and only if `want & avail != 0`, and nothing in
    /// `want` depends on the cycle (DESIGN.md "Blocked heads and due
    /// channels"). Debug builds re-run the allocator on every skip. A
    /// head with a want has cleared the pipeline, so it is skipped before
    /// its slot is read; only an armed stall grid reads its class. Only a
    /// pipeline-clear head that is tried reads its packet's entry, for
    /// the destination and sink.
    fn route_and_allocate(&mut self, ri: usize) {
        let s = &self.core.routers[ri];
        let mut waiting = s.occupied & !s.allocated;
        let (coord, vc_base) = (s.coord, s.vc_base as usize);
        let eject_vcs = self.core.eject_vcs[ri];
        while waiting != 0 {
            let bit = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let want = self.core.want[vc_base + bit];
            let s = &self.core.routers[ri];
            let blocked = want != 0 && want & s.out_free & (s.out_ready | eject_vcs) == 0;
            if blocked {
                debug_assert!(
                    self.refused(ri, bit),
                    "router {ri} skipped input VC bit {bit}, whose head could be allocated"
                );
                self.alloc_counts.skipped += 1;
                if let Some(grid) = self.stall.as_deref_mut() {
                    // A vc_alloc stall cycle, as for a refused head below.
                    grid.charge(ri, NetCause::VcAlloc, self.core.front(vc_base + bit).class_ix(), 1);
                }
                continue;
            }
            let head = self.core.front(vc_base + bit);
            // Pipeline gating: the head must have cleared the router's
            // extra stages before allocation.
            if head.stamp() + self.cfg.pipeline_extra as u64 > self.cycle {
                continue;
            }
            debug_assert!(head.is_head(), "non-head flit awaiting allocation");
            let class = head.class_ix();
            let &PacketEntry { dst, sink, .. } = self.core.packets.get(head.handle());
            // Row-major node ids are every fabric's convention.
            let route = (dst != coord).then(|| self.route(ri, dst.to_index(self.cfg.width)));
            let grant = self.allocate(ri, bit, class, sink, route);
            debug_assert!(
                want == 0 || grant.is_ok(),
                "router {ri} input VC bit {bit}: a wanted output VC opened but allocation failed"
            );
            self.alloc_counts.attempts += 1;
            self.alloc_counts.retried += u64::from(want != 0);
            match grant {
                Ok((op, ov)) => {
                    self.core.grant(ri, bit, op, ov);
                    self.stats.vc_allocs += 1;
                }
                Err(want) => {
                    if self.cfg.activity_gate {
                        self.core.want[vc_base + bit] = want;
                    }
                    if let Some(grid) = self.stall.as_deref_mut() {
                        // The head sat pipeline-clear at the front of its
                        // VC this cycle and got no output VC: one vc_alloc
                        // stall cycle. Mutually exclusive with the switch
                        // post-pass charges, which require an allocation.
                        grid.charge(ri, NetCause::VcAlloc, class, 1);
                    }
                }
            }
        }
    }

    /// `true` if the allocator, run read-only, refuses the head of the
    /// input VC at mask bit `bit` of router `ri` — what a skip asserts.
    fn refused(&self, ri: usize, bit: usize) -> bool {
        let head = self.core.front(self.core.vc(ri, bit));
        let &PacketEntry { dst, sink, .. } = self.core.packets.get(head.handle());
        let route = (dst != self.core.routers[ri].coord)
            .then(|| self.routes[ri * self.core.len() + dst.to_index(self.cfg.width)]);
        self.allocate(ri, bit, head.class_ix(), sink, route).is_err()
    }

    /// VC allocation for the head of class `class` at input mask bit
    /// `bit` of router `ri`: toward its destination along `route`, or —
    /// `None` — out of an ejection port accepting `sink`. Returns the
    /// granted output `(port, vc)`, or `Err(want)`: the output VCs whose
    /// availability alone decides whether this head can be allocated (0
    /// when availability does not decide it).
    fn allocate(
        &self,
        ri: usize,
        bit: usize,
        class: usize,
        sink: u32,
        route: Option<Route>,
    ) -> Result<(usize, usize), u64> {
        match route {
            Some(route) => self.alloc_direction(ri, bit, route, class),
            None => self.alloc_ejection(ri, sink, class),
        }
    }

    /// Finds a free output VC on an ejection port accepting `sink`.
    /// Ejection ports are the local port and the extras after it. The
    /// want is the class's VCs on every such port.
    fn alloc_ejection(&self, ri: usize, sink: u32, class: usize) -> Result<(usize, usize), u64> {
        let vcs = self.core.vcs();
        let (free, own) = (self.core.routers[ri].out_free, self.class_vcs[class].own);
        let mut want = 0;
        for op in PORT_LOCAL..self.core.num_ports(ri) {
            let OutputRole::Eject { sink: tag } = self.core.role(ri, op) else {
                continue;
            };
            if tag.is_some_and(|t| t != sink) {
                continue;
            }
            let usable = (free >> (op * vcs)) & own;
            if usable != 0 {
                return Ok((op, usable.trailing_zeros() as usize));
            }
            want |= own << (op * vcs);
        }
        Err(want)
    }

    /// Finds a free output VC along `route` for the head at input mask
    /// bit `bit`: adaptive VCs on the credit-richest candidate port
    /// first, then the escape VC on the fabric's escape port. The want
    /// is what the candidate ports offer the class — or the one escape
    /// VC of a captured flit.
    ///
    /// Escape capture (ring fabrics): a flit that arrived over a network
    /// link on its class's escape VC must stay on the escape path — port
    /// *and* VC — so no adaptive detour can re-enter the escape layer
    /// and create an indirect channel dependence.
    ///
    /// Monopolization (VC-Mono) widens the choice to the foreign
    /// partition when no foreign-class flit is buffered at the router.
    /// Only the *reply* class may monopolize: replies are unconditionally
    /// consumed at the PEs, so a reply parked in a request VC always
    /// drains, whereas a request monopolizing reply VCs at a CB router
    /// can block the very replies whose progress the CB needs to accept
    /// more requests — a protocol deadlock. Whether a borrow succeeds
    /// depends on credit counts and on the other class's flits, so a
    /// class that may borrow keeps no want on its way (`Err(0)`).
    fn alloc_direction(
        &self,
        ri: usize,
        bit: usize,
        route: Route,
        class: usize,
    ) -> Result<(usize, usize), u64> {
        let vcs = self.core.vcs();
        let ClassVcs { own, escape, foreign } = self.class_vcs[class];
        let escape = escape as usize;
        let s = &self.core.routers[ri];
        // Candidate and escape ports are network ports, whose output is a
        // link or dead, and a dead port is never ready.
        let open = s.out_free & s.out_ready;
        let captured = self.topo.captures_escape()
            && bit < PORT_LOCAL * vcs
            && bit == self.bit_port[bit] as usize * vcs + escape;
        if captured {
            let p = route.escape as usize;
            debug_assert!(p < PORT_LOCAL, "captured flit routed at its destination");
            let out_bit = p * vcs + escape;
            return if open >> out_bit & 1 != 0 { Ok((p, escape)) } else { Err(1 << out_bit) };
        }
        let mut ports = route.ports;
        // Prefer the port with more free downstream credit (adaptive);
        // stable on ties.
        if let [a, b] = *route.candidates() {
            let credit_sum = |p: u8| {
                let mut usable = own;
                let mut sum = 0;
                while usable != 0 {
                    sum += self.core.credits(ri, p as usize * vcs + usable.trailing_zeros() as usize);
                    usable &= usable - 1;
                }
                sum
            };
            if credit_sum(b) > credit_sum(a) {
                ports.swap(0, 1);
            }
        }
        let mut want = 0;
        for &p in &ports[..route.candidates().len()] {
            let on_escape_path = p == route.escape;
            let p = p as usize;
            let mut offered = own;
            if !on_escape_path {
                offered &= !(1 << escape); // escape VC only along the escape path
            }
            want |= offered << (p * vcs);
            let usable = (open >> (p * vcs)) & offered;
            if usable != 0 {
                return Ok((p, usable.trailing_zeros() as usize));
            }
            // Monopolized (foreign-class) VCs are borrowed only when the
            // downstream buffer is completely idle AND only along the
            // escape port: all traffic in a borrowed VC then follows the
            // escape discipline, keeping that VC layer's
            // channel-dependence graph acyclic (borrowing as extra
            // *adaptive* channels was observed to wedge wormhole cycles
            // under saturation).
            if on_escape_path && s.class_flits[0] == 0 {
                for v in foreign.0 as usize..foreign.1 as usize {
                    let out_bit = p * vcs + v;
                    if s.out_free >> out_bit & 1 != 0
                        && self.core.credits(ri, out_bit) as usize == self.cfg.vc_buf_flits
                    {
                        return Ok((p, v));
                    }
                }
            }
        }
        Err(if foreign.0 < foreign.1 { 0 } else { want })
    }

    /// Separable input-first switch allocation followed by traversal.
    fn switch(&mut self, ri: usize, now: u64) {
        let s = &self.core.routers[ri];
        let mut ready = s.occupied & s.allocated;
        if ready == 0 {
            return;
        }
        let (out_ready, port_base, vc_base) = (s.out_ready, s.port_base as usize, s.vc_base as usize);
        let nports = s.nports as usize;
        let vcs = self.core.vcs();
        let port_mask = (1u64 << vcs) - 1;
        let pipeline_extra = self.cfg.pipeline_extra as u64;
        // Input arbitration: per input port, the first VC at or after the
        // round-robin pointer that is allocated, pipeline-clear and whose
        // output can take a flit asks for that output.
        let mut requested = 0u64;
        while ready != 0 {
            let ip = self.bit_port[ready.trailing_zeros() as usize] as usize;
            let shift = ip * vcs;
            let candidates = (ready >> shift) & port_mask;
            ready &= !(port_mask << shift);
            let start = self.core.in_sa_ptr[port_base + ip] as usize;
            // Bit k of `turn` is VC (start + k) mod vcs.
            let mut turn = (candidates >> start | candidates << (vcs - start)) & port_mask;
            while turn != 0 {
                let k = start + turn.trailing_zeros() as usize;
                turn &= turn - 1;
                let iv = if k >= vcs { k - vcs } else { k };
                let ivc = vc_base + shift + iv;
                if pipeline_extra != 0 && self.core.front(ivc).stamp() + pipeline_extra > now {
                    continue; // still in the pipeline
                }
                let vc = &self.core.in_vcs[ivc];
                if out_ready >> (vc.out_port as usize * vcs + vc.out_vc as usize) & 1 != 0 {
                    self.sa_requests[vc.out_port as usize] |= 1 << ip;
                    self.sa_winner_vc[ip] = iv as u8;
                    requested |= 1 << vc.out_port;
                    break;
                }
            }
        }
        // Output arbitration: one input per output port, the nearest
        // requester at or after the round-robin pointer.
        while requested != 0 {
            let op = requested.trailing_zeros() as usize;
            requested &= requested - 1;
            let requests = std::mem::take(&mut self.sa_requests[op]);
            let start = self.core.out_sa_ptr[port_base + op] as usize;
            let from_start = requests >> start << start;
            let chosen = if from_start != 0 { from_start } else { requests }.trailing_zeros() as usize;
            self.core.out_sa_ptr[port_base + op] = if chosen + 1 == nports { 0 } else { chosen as u8 + 1 };
            self.traverse(ri, chosen, self.sa_winner_vc[chosen] as usize, op, now);
        }
        if self.stall.is_some() {
            self.charge_switch_stalls(ri, now);
        }
    }

    /// Attribution post-pass after switch allocation: any input VC still
    /// fronted by a pipeline-clear *head* flit that holds an output VC
    /// did not traverse this cycle (a traversal would have popped it;
    /// a departing tail releases the output VC, and a head that just
    /// arrived has none). Charges one stall cycle per such packet — to
    /// `credit_starve` when the allocated output cannot accept a flit,
    /// otherwise to `switch_loss` (it could move but lost input- or
    /// output-stage arbitration). Charging only head-fronted VCs keeps
    /// the per-packet invariant "≤ 1 in-network charge per cycle" (a
    /// packet's head exists in exactly one place), which is what makes
    /// the per-class attribution sum to end-to-end latency.
    fn charge_switch_stalls(&mut self, ri: usize, now: u64) {
        let s = &self.core.routers[ri];
        let (mut held, out_ready) = (s.occupied & s.allocated, s.out_ready);
        let vcs = self.core.vcs();
        let grid = self.stall.as_deref_mut().expect("stalls enabled");
        while held != 0 {
            let ivc = self.core.vc(ri, held.trailing_zeros() as usize);
            held &= held - 1;
            let head = self.core.front(ivc);
            if !head.is_head() || head.stamp() + self.cfg.pipeline_extra as u64 > now {
                continue;
            }
            let vc = &self.core.in_vcs[ivc];
            let can_go = out_ready >> (vc.out_port as usize * vcs + vc.out_vc as usize) & 1 != 0;
            let cause = if can_go {
                NetCause::SwitchLoss
            } else {
                NetCause::CreditStarve
            };
            grid.charge(ri, cause, head.class_ix(), 1);
        }
    }

    /// Moves one flit from input `(ip, iv)` through output `op`.
    fn traverse(&mut self, ri: usize, ip: usize, iv: usize, op: usize, now: u64) {
        let vcs = self.core.vcs();
        let bit = ip * vcs + iv;
        let fed = self.core.port(ri, ip);
        self.core.in_sa_ptr[fed] = if iv + 1 == vcs { 0 } else { iv as u8 + 1 };
        let ov = self.core.in_vcs[self.core.vc(ri, bit)].out_vc;
        let mut flit = self.core.pop(ri, bit);
        debug_assert_eq!(flit.vc() as usize, iv, "flit buffered in wrong VC");
        if flit.is_tail() {
            self.core.release(ri, bit);
        }
        let enq = flit.stamp();
        flit.set_vc(ov);
        self.stats.buffer_reads += 1;
        self.stats.xbar_traversals += 1;
        self.stats.router_flits[ri] += 1;
        self.stats.router_cycles[ri] += now.saturating_sub(enq) + 1;
        let feed = self.core.feed_link[fed];
        if feed != NO_LINK {
            // Return a credit for the freed input-buffer slot.
            self.links.send_credit(feed as usize, now, iv as u8);
        }
        let kind = match self.core.role(ri, op) {
            OutputRole::Link(l) => {
                self.core.spend_credit(ri, op * vcs + ov as usize);
                self.send_flit(l as usize, now, flit);
                TraceKind::Hop
            }
            OutputRole::Eject { .. } => {
                // The stamp is the entry cycle `note_eject_pop` charges
                // the queue wait from.
                flit.set_stamp(now);
                self.core.eject_push(ri, op, flit);
                self.ejecting_routers.insert(ri);
                self.stats.ejected_flits += 1;
                TraceKind::Eject
            }
            OutputRole::Dead => unreachable!("flit routed to dead port"),
        };
        if self.trace.enabled() {
            self.trace.record(TraceEvent {
                cycle: now,
                router: ri,
                pkt: self.core.packets.get(flit.handle()).id,
                seq: flit.seq(),
                kind,
            });
        }
    }

    /// `true` when no flit is buffered anywhere, in flight on a link, or
    /// waiting in an ejection queue. A scan over the router masks and
    /// the flit wheel: nothing on the per-cycle path asks (the auditor's
    /// watchdog on a stall, drain tails, tests).
    pub fn quiescent(&self) -> bool {
        !self.has_ejected()
            && self.core.routers.iter().all(|s| s.occupied == 0)
            && self.links.flits_in_flight() == 0
    }

    /// `true` when any flit sits in an eject queue — the one case a
    /// `pop_ejected` call can succeed.
    pub fn has_ejected(&self) -> bool {
        !self.ejecting_routers.is_empty()
    }

    /// Enables the invariant auditor. The per-class injection ledgers are
    /// seeded with the flits currently resident so flit conservation holds
    /// even when auditing starts mid-run.
    pub fn enable_audit(&mut self, cfg: AuditConfig) {
        let mut state = AuditState::new(cfg);
        state.injected = audit::resident_by_class(self);
        state.last_progress_cycle = self.cycle;
        self.audit = Some(Box::new(state));
    }

    /// Arms stall-cause attribution (reported by the system's obs block):
    /// per-router × per-cause stall-cycle counters charged by the router
    /// pipeline.
    /// Flits already parked in ejection queues are re-stamped with the
    /// current cycle, so their wait before arming is not charged. The
    /// grid is allocated here; the armed steady state allocates nothing.
    pub fn enable_stalls(&mut self) {
        let cycle = self.cycle;
        for slot in self.core.eject_queues_mut().iter_mut().flatten() {
            slot.set_stamp(cycle);
        }
        self.stall = Some(Box::new(StallGrid::new(self.core.len())));
    }

    /// The stall-attribution grid, when armed.
    pub fn stall_grid(&self) -> Option<&StallGrid> {
        self.stall.as_deref()
    }

    /// Violations retained so far (always empty while
    /// `panic_on_violation` is set, since those panic instead).
    pub fn audit_violations(&self) -> &[Violation] {
        self.audit.as_deref().map_or(&[], |a| &a.violations)
    }

    /// Conservation/escape sweeps performed so far — lets tests assert the
    /// auditor actually ran rather than being vacuously green.
    pub fn audit_sweeps(&self) -> u64 {
        self.audit.as_deref().map_or(0, |a| a.sweeps)
    }

    /// Tail flits currently resident in this network (router buffers,
    /// links, ejection queues). One per packet in flight, which is what
    /// system-level packet accounting needs.
    pub fn resident_tail_flits(&self) -> u64 {
        let bufs = (0..self.core.len())
            .flat_map(|r| self.core.router_flits(r))
            .filter(|f| f.is_tail())
            .count();
        let links = self.core.all_staged().filter(|f| f.is_tail()).count();
        let eject = self
            .core
            .eject_queues()
            .iter()
            .flatten()
            .filter(|f| f.is_tail())
            .count();
        (bufs + links + eject) as u64
    }

    /// Fault-injection hook for auditor tests: steals one credit from the
    /// first link-role output VC `vc` of the router at `node` that has
    /// any. Returns `false` if no credit was available to leak. Breaks the
    /// credit-conservation invariant by construction — never call outside
    /// tests.
    #[doc(hidden)]
    pub fn fault_leak_credit(&mut self, node: Coord, vc: u8) -> bool {
        let r = self.topo.node_index(node);
        for p in 0..self.core.num_ports(r) {
            let out_bit = p * self.core.vcs() + vc as usize;
            if matches!(self.core.role(r, p), OutputRole::Link(_)) && self.core.credits(r, out_bit) > 0 {
                self.core.spend_credit(r, out_bit);
                return true;
            }
        }
        false
    }

    /// Fault-injection hook for auditor tests: silently discards the
    /// oldest flit of the first non-empty input VC of the router at
    /// `node`. Returns `false` when nothing was buffered there. Breaks
    /// both flit and credit conservation, and a dropped tail leaves its
    /// packet's entry taken — never call outside tests.
    #[doc(hidden)]
    pub fn fault_drop_flit(&mut self, node: Coord) -> bool {
        let r = self.topo.node_index(node);
        let occupied = self.core.routers[r].occupied;
        if occupied == 0 {
            return false;
        }
        let bit = occupied.trailing_zeros() as usize;
        self.core.pop(r, bit);
        // A want describes the head it was recorded for.
        let ivc = self.core.vc(r, bit);
        self.core.want[ivc] = 0;
        true
    }

    /// Per-cycle audit work: watchdog progress tracking every cycle, full
    /// conservation/escape sweeps every `check_interval` cycles. Performs
    /// no allocation unless a violation is found.
    fn audit_step(&mut self) {
        let a = self.audit.as_deref().expect("audit enabled");
        let (interval, window) = (a.cfg.check_interval.max(1), a.cfg.watchdog_window);
        let progress = self.stats.injected_flits + self.stats.xbar_traversals + a.pops;
        let mut fresh = Vec::new();
        {
            let a = self.audit.as_deref_mut().expect("audit enabled");
            if progress != a.last_progress {
                a.last_progress = progress;
                a.last_progress_cycle = self.cycle;
            }
        }
        let stalled = self.cycle - self.audit.as_deref().expect("audit enabled").last_progress_cycle;
        if window > 0 && stalled >= window {
            if !self.quiescent() {
                fresh.push(Violation::Deadlock(audit::deadlock_report(self, stalled)));
            }
            // Restart the window — an idle network is simply idle, and
            // after a report (panic off) don't re-report every cycle.
            self.audit.as_deref_mut().expect("audit enabled").last_progress_cycle = self.cycle;
        }
        if self.cycle.is_multiple_of(interval) {
            audit::sweep(self, &mut fresh);
            self.audit.as_deref_mut().expect("audit enabled").sweeps += 1;
        }
        audit::record_violations(self, fresh);
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// How the VC allocator's attempts split (see [`VcAllocCounts`]).
    pub fn vc_alloc_counts(&self) -> VcAllocCounts {
        self.alloc_counts
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Grid width in routers.
    pub fn width(&self) -> u16 {
        self.cfg.width
    }

    /// Grid height in routers.
    pub fn height(&self) -> u16 {
        self.cfg.height
    }

    /// Total buffered flits (for saturation diagnostics).
    pub fn buffered_flits(&self) -> usize {
        (0..self.core.len()).map(|r| self.core.buffered(r) as usize).sum()
    }

    /// Number of ports on the router at `node` (for area accounting).
    pub fn router_ports(&self, node: Coord) -> usize {
        self.core.num_ports(self.topo.node_index(node))
    }

    /// Enables flit-event tracing with the given ring capacity
    /// (0 disables it again).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Trace::new(capacity);
    }

    /// Drains all recorded trace events.
    pub fn drain_trace(&mut self) -> Vec<crate::trace::TraceEvent> {
        self.trace.drain()
    }

    /// Mean router port count across the network (for energy scaling).
    pub fn avg_ports(&self) -> f64 {
        if self.core.len() == 0 {
            return 0.0;
        }
        self.core.feed_link.len() as f64 / self.core.len() as f64
    }

    /// Serializes all dynamic network state: the clock, statistics, every
    /// router/link/injector, ejection queues, trace events and (when the
    /// auditor is armed) its ledgers. Topology, config, scratch buffers,
    /// the route memo, the activity worklists and the ejection set are
    /// *not* written: all follow from what is (at a step boundary,
    /// worklist membership equals the retention predicates the gated
    /// sweep itself uses; the ejection set mirrors the queues). The
    /// byte format predates the flat router core and is the per-router,
    /// per-port, per-VC nesting of the structs it replaced; the link
    /// section is re-derived from the staged flits and the credit wheel
    /// (`snap_link`).
    pub fn snapshot_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        // Shape tag: another fabric's state never writes these bytes.
        e.put_u8(self.topo.kind().tag());
        e.put_u16(self.cfg.width);
        e.put_u16(self.cfg.height);
        e.put_u64(self.cycle);
        self.stats.snap(e);
        e.put_usize(self.core.len());
        for r in 0..self.core.len() {
            self.core.snap_state(r, e);
        }
        e.put_usize(self.links.len());
        for li in 0..self.links.len() {
            self.snap_link(li, e);
        }
        e.put_usize(self.injectors.len());
        for inj in &self.injectors {
            inj.credits.snap(e);
            inj.streaming.map(|(vc, _)| vc).snap(e);
            e.put_u64(inj.last_cycle);
            e.put_u64(inj.flits);
        }
        e.put_usize(self.core.len());
        for r in 0..self.core.len() {
            e.put_usize(self.core.num_ports(r));
            for p in 0..self.core.num_ports(r) {
                let q = self.core.eject_queue(r, p);
                e.put_usize(q.len());
                for s in q {
                    self.core.packets.flit(s).snap(e);
                }
            }
        }
        self.trace.snap_state(e);
        match self.audit.as_deref() {
            None => e.put_bool(false),
            Some(a) => {
                e.put_bool(true);
                a.snap_state(e);
            }
        }
        match self.stall.as_deref() {
            None => e.put_bool(false),
            Some(grid) => {
                e.put_bool(true);
                grid.snap_state(e);
                // The parked flits' entry stamps, queue by queue (the
                // flits themselves went out above, unstamped).
                for q in self.core.eject_queues() {
                    e.put_usize(q.len());
                    for s in q {
                        e.put_u64(s.stamp());
                    }
                }
            }
        }
    }

    /// Serializes link `li`'s dynamic state in the format of the
    /// `VecDeque` pipelines links once were: the flits in flight as
    /// `(arrival, Flit)` — staged in the fed port's VCs, read there in
    /// arrival order — then the credits in flight as `(arrival, vc)`,
    /// oldest first, then the carried counter. Endpoints and latency are
    /// topology.
    fn snap_link(&self, li: usize, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        let l = &self.links[li];
        let (r, p) = (l.to_router as usize, l.to_port as usize);
        e.put_usize(self.core.staged_on_port(r, p));
        let packets = &self.core.packets;
        self.core.visit_staged_on_port(r, p, |s| (s.stamp(), packets.flit(s)).snap(e));
        e.put_usize(self.links.credits(li, self.cycle).count());
        for c in self.links.credits(li, self.cycle) {
            c.snap(e);
        }
        e.put_u64(l.flits_carried);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoutingKind;
    use crate::flit::PacketDesc;
    use crate::topology::TopologyKind;

    fn drive_packet(net: &mut Network, pkt: PacketDesc, max_cycles: u64) -> Option<u64> {
        let injector = net.local_injector(pkt.src);
        let mut flits = pkt.flits(net.width()).into_iter().peekable();
        let start = net.cycle;
        for _ in 0..max_cycles {
            if let Some(&f) = flits.peek() {
                if net.try_inject_flit(injector, f) {
                    flits.next();
                }
            }
            net.step();
            let mut tail_seen = false;
            while let Some(f) = net.pop_ejected_node(pkt.dst) {
                assert_eq!(f.pkt, pkt.id);
                if f.is_tail() {
                    tail_seen = true;
                }
            }
            if tail_seen {
                return Some(net.cycle - start);
            }
        }
        None
    }

    #[test]
    fn single_packet_delivery_xy() {
        let mut cfg = NocConfig::mesh(8);
        cfg.routing = RoutingKind::Xy;
        let mut net = Network::new(cfg);
        let pkt = PacketDesc::new(0, Coord::new(0, 0), Coord::new(7, 7), MessageClass::Reply, 5);
        let lat = drive_packet(&mut net, pkt, 500).expect("delivered");
        // 14 hops with ~2 cycles/hop + serialization; sanity band.
        assert!(lat >= 14, "too fast: {lat}");
        assert!(lat <= 120, "too slow: {lat}");
        assert!(net.quiescent());
    }

    #[test]
    fn single_packet_delivery_adaptive() {
        let mut net = Network::new(NocConfig::mesh(8));
        let pkt = PacketDesc::new(1, Coord::new(7, 0), Coord::new(0, 7), MessageClass::Reply, 5);
        assert!(drive_packet(&mut net, pkt, 500).is_some());
        assert!(net.quiescent());
    }

    #[test]
    fn delivery_to_self_distance_one() {
        let mut net = Network::new(NocConfig::mesh(8));
        let pkt = PacketDesc::new(2, Coord::new(3, 3), Coord::new(3, 4), MessageClass::Request, 1);
        assert!(drive_packet(&mut net, pkt, 100).is_some());
    }

    #[test]
    fn many_packets_all_to_one_drain() {
        // Few-to-many reversed: every node sends to (0,0); network must
        // deliver all and drain (no deadlock under contention).
        let mut net = Network::new(NocConfig::mesh(4));
        let dst = Coord::new(0, 0);
        let mut pending: Vec<std::iter::Peekable<std::vec::IntoIter<Flit>>> = Vec::new();
        let mut expected = 0;
        for i in 0..16u64 {
            let src = Coord::from_index(i as usize, 4);
            if src == dst {
                continue;
            }
            let pkt = PacketDesc::new(i, src, dst, MessageClass::Reply, 5);
            pending.push(pkt.flits(4).into_iter().peekable());
            expected += 5;
        }
        let injectors: Vec<InjectorId> = (0..16)
            .map(|i| net.local_injector(Coord::from_index(i, 4)))
            .collect();
        let mut got = 0;
        for _ in 0..3000 {
            for (k, flits) in pending.iter_mut().enumerate() {
                let src = if k < dst.to_index(4) { k } else { k + 1 };
                if let Some(&f) = flits.peek() {
                    if net.try_inject_flit(injectors[src], f) {
                        flits.next();
                    }
                }
            }
            net.step();
            while net.pop_ejected_node(dst).is_some() {
                got += 1;
            }
            if got == expected {
                break;
            }
        }
        assert_eq!(got, expected, "all flits must arrive");
        assert!(net.quiescent());
    }

    #[test]
    fn extra_injection_port_works() {
        let mut net = Network::new(NocConfig::mesh(8));
        // Inject at a remote router (2 hops from source tile), like an EIR.
        let eir = net.add_injection_port(Coord::new(4, 2), 1, LinkKind::Interposer);
        let pkt = PacketDesc::new(9, Coord::new(2, 2), Coord::new(7, 2), MessageClass::Reply, 5);
        let mut flits = pkt.flits(8).into_iter().peekable();
        let mut done = false;
        for _ in 0..300 {
            if let Some(&f) = flits.peek() {
                if net.try_inject_flit(eir, f) {
                    flits.next();
                }
            }
            net.step();
            while let Some(f) = net.pop_ejected_node(Coord::new(7, 2)) {
                if f.is_tail() {
                    done = true;
                }
            }
        }
        assert!(done, "packet via EIR injection must arrive");
        assert!(net.stats().link_flits_interposer >= 5);
    }

    #[test]
    fn tagged_ejection_ports_separate_sinks() {
        let mut net = Network::new(NocConfig::mesh(4));
        // Give router (1,1) a second ejection port for sink 99; packets
        // tagged 99 leave there, others via the default port.
        let (r, p) = net.add_ejection_port(Coord::new(1, 1), Some(99));
        let inj = net.local_injector(Coord::new(0, 0));
        let pkt = PacketDesc::new(5, Coord::new(0, 0), Coord::new(1, 1), MessageClass::Reply, 1);
        let f = pkt.flits(4)[0].with_sink(99);
        assert!(net.try_inject_flit(inj, f));
        for _ in 0..50 {
            net.step();
        }
        assert!(net.pop_ejected(r, p).is_some(), "flit must use tagged port");
        assert!(net.pop_ejected_node(Coord::new(1, 1)).is_none());
    }

    #[test]
    fn one_flit_per_cycle_per_injector() {
        let mut net = Network::new(NocConfig::mesh(8));
        let inj = net.local_injector(Coord::new(0, 0));
        let pkt = PacketDesc::new(0, Coord::new(0, 0), Coord::new(5, 5), MessageClass::Reply, 3);
        let flits = pkt.flits(8);
        assert!(net.try_inject_flit(inj, flits[0]));
        assert!(!net.try_inject_flit(inj, flits[1]), "second flit same cycle");
        net.step();
        assert!(net.try_inject_flit(inj, flits[1]));
    }

    #[test]
    fn injector_backpressure_blocks_heads() {
        // Keep injecting packets without stepping the destination far
        // away; eventually all VC buffers fill and injection refuses.
        let mut cfg = NocConfig::mesh(4);
        cfg.vcs_per_port = 1;
        let mut net = Network::new(cfg);
        let inj = net.local_injector(Coord::new(0, 0));
        let mut id = 0u64;
        let mut refused = false;
        for _ in 0..200 {
            let pkt = PacketDesc::new(id, Coord::new(0, 0), Coord::new(3, 3), MessageClass::Reply, 5);
            let mut ok_all = true;
            for f in pkt.flits(4) {
                if !net.try_inject_flit(inj, f) {
                    ok_all = false;
                    refused = true;
                    break;
                }
                net.step();
            }
            if !ok_all {
                break;
            }
            id += 1;
        }
        assert!(refused || id > 10, "either backpressure or free flow");
    }

    #[test]
    fn single_network_class_partition_respected() {
        let mut net = Network::new(NocConfig::single_net(4, false));
        let inj = net.local_injector(Coord::new(0, 0));
        // Request packets must land in VCs 0..2, replies in 2..4.
        let req = PacketDesc::new(0, Coord::new(0, 0), Coord::new(2, 0), MessageClass::Request, 1);
        let rep = PacketDesc::new(1, Coord::new(0, 0), Coord::new(2, 0), MessageClass::Reply, 1);
        assert!(net.try_inject_flit(inj, req.flits(4)[0]));
        net.step();
        assert!(net.try_inject_flit(inj, rep.flits(4)[0]));
        let mut seen = Vec::new();
        for _ in 0..60 {
            net.step();
            while let Some(f) = net.pop_ejected_node(Coord::new(2, 0)) {
                seen.push(f);
            }
        }
        assert_eq!(seen.len(), 2);
        assert!(net.quiescent());
    }

    #[test]
    fn injector_ready_reflects_credits() {
        let mut net = Network::new(NocConfig::mesh(8));
        let inj = net.local_injector(Coord::new(0, 0));
        assert!(net.injector_ready(inj, MessageClass::Reply));
        let pkt = PacketDesc::new(0, Coord::new(0, 0), Coord::new(1, 0), MessageClass::Reply, 2);
        let flits = pkt.flits(8);
        assert!(net.try_inject_flit(inj, flits[0]));
        // Mid-packet: not ready for a new head.
        assert!(!net.injector_ready(inj, MessageClass::Reply));
    }

    #[test]
    fn pipeline_extra_adds_per_hop_latency() {
        let base = {
            let mut net = Network::new(NocConfig::mesh(8));
            let pkt = PacketDesc::new(0, Coord::new(0, 0), Coord::new(5, 0), MessageClass::Reply, 1);
            drive_packet(&mut net, pkt, 400).expect("delivered")
        };
        let deep = {
            let mut cfg = NocConfig::mesh(8);
            cfg.pipeline_extra = 2;
            let mut net = Network::new(cfg);
            let pkt = PacketDesc::new(0, Coord::new(0, 0), Coord::new(5, 0), MessageClass::Reply, 1);
            drive_packet(&mut net, pkt, 400).expect("delivered")
        };
        // 5 hops (+ final ejection) each gain ~2 cycles of pipeline.
        assert!(
            deep >= base + 2 * 5,
            "deep {deep} vs base {base}: pipeline must add latency"
        );
    }

    #[test]
    fn zero_load_latency_matches_the_analytic_model() {
        // Single 1-flit packet, empty mesh. The default router is
        // single-cycle (RC/VA/SA/ST all resolve within a step when
        // uncontended), so the ideal is: 1 cycle NI link + 1 cycle per
        // hop (link traversal) + ejection pop on arrival.
        let mut net = Network::new(NocConfig::mesh(8));
        let hops = 6u64; // (0,0) -> (3,3)
        let pkt = PacketDesc::new(0, Coord::new(0, 0), Coord::new(3, 3), MessageClass::Request, 1);
        let lat = drive_packet(&mut net, pkt, 300).expect("delivered");
        let ideal = 1 + hops + 1;
        assert!(
            lat >= ideal && lat <= ideal + 4,
            "zero-load latency {lat} outside [{ideal}, {}]",
            ideal + 4
        );
    }

    #[test]
    fn trace_records_a_packet_journey() {
        let mut net = Network::new(NocConfig::mesh(4));
        net.enable_trace(256);
        let pkt = PacketDesc::new(7, Coord::new(0, 0), Coord::new(2, 1), MessageClass::Reply, 2);
        drive_packet(&mut net, pkt, 200).expect("delivered");
        let events = net.drain_trace();
        let head: Vec<_> = events.iter().filter(|e| e.seq == 0).collect();
        // Head flit: 1 inject + one hop event per forwarding router
        // (manhattan distance = 3) + 1 eject at (2,1).
        assert_eq!(head.first().map(|e| e.kind), Some(crate::trace::TraceKind::Inject));
        assert_eq!(head.last().map(|e| e.kind), Some(crate::trace::TraceKind::Eject));
        assert_eq!(head.len(), 1 + 3 + 1);
        // Cycles are monotone along the path.
        assert!(head.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn route_memo_equals_the_topology_for_every_pair() {
        let mut cfgs = vec![NocConfig::mesh(8), NocConfig::mesh(8)];
        cfgs[1].width = 12;
        cfgs.push(NocConfig::fabric(TopologyKind::Ring, 6));
        cfgs.push(NocConfig::fabric(TopologyKind::HierRing, 6));
        for routing in [RoutingKind::MinimalAdaptive, RoutingKind::Xy] {
            for cfg in &cfgs {
                let mut cfg = cfg.clone();
                cfg.routing = routing;
                let mut net = Network::new(cfg);
                let n = net.core.len();
                // Twice: the first pass fills the memo, the second reads it.
                for pass in 0..2 {
                    for cur in 0..n {
                        for dst in (0..n).filter(|&dst| dst != cur) {
                            let route = net.route(cur, dst);
                            let what = format!("{:?} {routing:?} {cur}->{dst} pass {pass}", net.topo.kind());
                            assert_eq!(
                                route.candidates(),
                                net.topo.route(routing, cur, dst).as_slice(),
                                "{what}"
                            );
                            assert_eq!(
                                Some(route.escape as usize),
                                net.topo.escape_port(cur, dst),
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn masks_and_class_counters_equal_a_scan_throughout_a_randomised_run() {
        use equinox_exec::Rng;
        // Both classes on a monopolizing single network, an extra
        // injection port and a tagged extra ejection port, and sinks
        // that stay shut for a while so ejection queues hit their cap.
        let build = || {
            let mut net = Network::new(NocConfig::single_net(4, true));
            let extra = net.add_injection_port(Coord::new(2, 1), 2, LinkKind::Interposer);
            let tagged = net.add_ejection_port(Coord::new(1, 2), Some(77));
            net.enable_stalls();
            (net, extra, tagged)
        };
        // Every derived word of every router equals a scan of the arrays
        // it summarises, and the ejection set holds exactly the routers
        // with a non-empty ejection queue.
        // The packet table holds exactly the packets with a flit buffered,
        // staged or parked, and those the injectors are streaming.
        let check = |net: &Network, when: &str| {
            for r in 0..net.core.len() {
                assert_eq!(net.core.words(r), net.core.scan(r), "router {r} {when}");
            }
            let parked: Vec<usize> = (0..net.core.len()).filter(|&r| net.core.scan(r).4 != 0).collect();
            assert_eq!(net.ejecting_routers.ids(), parked, "ejection set {when}");
            assert_eq!(net.has_ejected(), !parked.is_empty(), "{when}");
            let mut held: Vec<u32> = (0..net.core.len())
                .flat_map(|r| net.core.router_flits(r))
                .chain(net.core.all_staged())
                .chain(net.core.eject_queues().iter().flatten())
                .map(|s| s.handle())
                .chain(net.injectors.iter().filter_map(|inj| inj.streaming.map(|(_, h)| h)))
                .collect();
            held.sort_unstable();
            held.dedup();
            assert_eq!(net.core.packets.live(), held, "packet table {when}");
        };
        let (mut net, extra, (tr, tp)) = build();
        let mut rng = Rng::seed_from_u64(0xC0FFEE);
        let nodes: Vec<Coord> = (0..16).map(|i| Coord::from_index(i, 4)).collect();
        let mut injectors: Vec<(InjectorId, Coord)> =
            nodes.iter().map(|&c| (net.local_injector(c), c)).collect();
        injectors.push((extra, Coord::new(0, 0)));
        let mut streams: Vec<Vec<Flit>> = vec![Vec::new(); injectors.len()];
        let mut next_id = 0;
        for t in 0..1500u64 {
            for (k, &(inj, src)) in injectors.iter().enumerate() {
                if streams[k].is_empty() && t < 1000 {
                    let dst = nodes[rng.random_range(0..16usize)];
                    if dst == src {
                        continue;
                    }
                    let class = if rng.random::<bool>() {
                        MessageClass::Reply
                    } else {
                        MessageClass::Request
                    };
                    let tagged = dst == Coord::new(1, 2) && rng.random::<bool>();
                    let len = rng.random_range(1u16..6);
                    streams[k] = PacketDesc::new(next_id, src, dst, class, len)
                        .flits(4)
                        .into_iter()
                        .map(|f| if tagged { f.with_sink(77) } else { f })
                        .rev()
                        .collect();
                    next_id += 1;
                }
                if let Some(&f) = streams[k].last() {
                    if net.try_inject_flit(inj, f) {
                        streams[k].pop();
                    }
                }
            }
            net.step();
            check(&net, &format!("after the step of cycle {t}"));
            if t >= 300 && t % 3 == 0 {
                for &c in &nodes {
                    while net.pop_ejected_node(c).is_some() {
                        check(&net, &format!("after a pop at {c:?} in cycle {t}"));
                    }
                }
                while net.pop_ejected(tr, tp).is_some() {
                    check(&net, &format!("after a pop at the tagged port in cycle {t}"));
                }
                assert!(!net.has_ejected(), "the sinks drained everything");
            }
            if t == 280 {
                let capped = net.core.eject_queues().iter().filter(|q| q.len() >= 16).count();
                assert!(capped > 0, "no ejection queue was at its cap");
            }
        }
        assert!(net.quiescent(), "traffic must drain");
        assert!(net.stats().ejected_flits > 2000);
        assert_eq!(net.core.packets.live(), [], "a drained network holds no packet");
        let capped = net.stall_grid().unwrap();
        assert!(
            (0..2).any(|c| capped.class_total(c, equinox_obs::NetCause::CreditStarve) > 0),
            "the shut sinks never back-pressured the network"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut net = Network::new(NocConfig::mesh(8));
        let pkt = PacketDesc::new(0, Coord::new(0, 0), Coord::new(3, 0), MessageClass::Reply, 5);
        drive_packet(&mut net, pkt, 300).expect("delivered");
        let s = net.stats();
        assert_eq!(s.injected_flits, 5);
        assert_eq!(s.ejected_flits, 5);
        assert!(s.buffer_writes >= 5);
        assert_eq!(s.buffer_reads, s.xbar_traversals);
        assert!(s.link_flits_mesh >= 5 * 2, "at least 3 hops minus local");
        assert!(s.vc_allocs >= 4, "one per hop");
        assert!(s.router_flits.iter().sum::<u64>() >= 5);
    }

    #[test]
    fn uncontended_packet_accrues_no_stall_charges() {
        // A lone packet on an empty mesh, drained every cycle: nothing
        // ever blocks it, so every in-network cause must stay at zero —
        // the attribution layer must not invent stalls.
        use equinox_obs::NetCause;
        let mut net = Network::new(NocConfig::mesh(8));
        net.enable_stalls();
        let pkt = PacketDesc::new(0, Coord::new(0, 0), Coord::new(5, 4), MessageClass::Reply, 5);
        drive_packet(&mut net, pkt, 400).expect("delivered");
        let g = net.stall_grid().expect("armed");
        for class in 0..equinox_obs::STALL_CLASSES {
            for cause in [
                NetCause::VcAlloc,
                NetCause::SwitchLoss,
                NetCause::CreditStarve,
                NetCause::EjectWait,
            ] {
                assert_eq!(
                    g.class_total(class, cause),
                    0,
                    "phantom {cause:?} charge for class {class}"
                );
            }
        }
    }

    #[test]
    fn contended_traffic_charges_stalls_consistently() {
        use equinox_obs::NetCause;
        // All-to-one with a lazy sink (popped every 4th cycle): the hot
        // router must show switch contention and the stalled sink must
        // show ejection wait. Per-router cells and per-class totals are
        // two views of the same charges and must agree.
        let mut net = Network::new(NocConfig::mesh(4));
        net.enable_stalls();
        let dst = Coord::new(0, 0);
        let mut pending = Vec::new();
        for i in 0..16u64 {
            let src = Coord::from_index(i as usize, 4);
            if src != dst {
                let pkt = PacketDesc::new(i, src, dst, MessageClass::Reply, 5);
                pending.push((src, pkt.flits(4).into_iter().peekable()));
            }
        }
        for t in 0..2000u64 {
            for (src, flits) in pending.iter_mut() {
                if let Some(&f) = flits.peek() {
                    let inj = net.local_injector(*src);
                    if net.try_inject_flit(inj, f) {
                        flits.next();
                    }
                }
            }
            net.step();
            if t % 4 == 0 {
                while net.pop_ejected_node(dst).is_some() {}
            }
        }
        while net.pop_ejected_node(dst).is_some() {}
        assert!(net.quiescent(), "traffic must drain");
        let g = net.stall_grid().expect("armed");
        let rep = 1; // all packets are replies
        assert!(
            g.class_total(rep, NetCause::SwitchLoss) + g.class_total(rep, NetCause::CreditStarve)
                > 0,
            "many-to-one must lose switch arbitration somewhere"
        );
        assert!(
            g.class_total(rep, NetCause::EjectWait) > 0,
            "a lazy sink must charge ejection wait"
        );
        assert_eq!(g.class_sum(0), 0, "no request traffic, no request charges");
        for cause in [
            NetCause::VcAlloc,
            NetCause::SwitchLoss,
            NetCause::CreditStarve,
            NetCause::EjectWait,
        ] {
            let cells: u64 = g.heat(cause).sum();
            assert_eq!(
                cells,
                g.class_total(0, cause) + g.class_total(1, cause),
                "{cause:?}: per-router cells must sum to the class totals"
            );
        }
    }

}
