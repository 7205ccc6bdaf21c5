//! Simulation invariant auditor and deadlock/livelock watchdog.
//!
//! The cycle-accurate simulator's results are only as trustworthy as its
//! conservation laws: a leaked credit or a dropped flit does not crash
//! anything — it silently skews every downstream figure. This module turns
//! such latent bugs into loud, diagnosable failures. Three families of
//! checks run against a [`Network`] at a configurable interval:
//!
//! 1. **Conservation.** For every link/VC pair, the credit loop must be
//!    airtight: upstream credits held + flits in flight on the link
//!    (staged downstream) + flits buffered downstream + credits in flight
//!    back upstream must equal the VC buffer depth at every cycle
//!    boundary. Independently,
//!    flits are conserved per message class: everything injected is either
//!    ejected or still resident (buffered, on a link, or in an ejection
//!    queue).
//! 2. **Escape-VC compliance.** Deadlock freedom rests on the Duato
//!    escape construction: the escape VC of each class partition (and any
//!    monopolized foreign VC) may only be allocated along the fabric's
//!    escape path — [`crate::topology::Topology::escape_port`], the XY
//!    dimension-order port on a mesh — and on fabrics with escape capture
//!    a flit that arrived on the escape VC must stay on it. A violation
//!    here means the channel-dependence graph can cycle — the exact
//!    property EquiNox's EIR ports must preserve (§4.4). The check is
//!    generic over the topology: it asks the fabric for the escape port
//!    instead of assuming dimension order.
//! 3. **Watchdog.** If no flit moves for a configurable window while work
//!    is pending, the network is wedged; instead of hanging a sweep, the
//!    auditor emits a structured [`DeadlockReport`] naming the stuck
//!    packets, their router/VC/credit state, and the blocked-on edges.
//!
//! The auditor is an opt-in [`AuditState`] boxed inside the network:
//! disabled (the default) it costs one branch per cycle and zero
//! allocations, so the alloc-free and golden-trace guarantees are
//! untouched. Enabled, the sweeps are read-only walks; they allocate only
//! when a violation is actually found.

use crate::flit::{MessageClass, SlotExt};
use crate::link::CreditDst;
use crate::network::Network;
use crate::router::{OutputRole, NONE, PORT_LOCAL};
use equinox_phys::Coord;
use std::fmt;

/// How many stuck flits a [`DeadlockReport`] lists in full.
const MAX_REPORTED_STUCK: usize = 64;
/// Cap on retained violations when `panic_on_violation` is off.
const MAX_RETAINED_VIOLATIONS: usize = 256;

/// Auditor knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Cycles between conservation / escape-compliance sweeps (the
    /// watchdog's cheap progress counter runs every cycle regardless).
    /// Clamped to at least 1.
    pub check_interval: u64,
    /// Zero-progress cycles (with work pending) before the watchdog
    /// declares a deadlock. 0 disables the watchdog.
    pub watchdog_window: u64,
    /// Panic with a full report on the first violation (the default, so
    /// sweeps fail fast); when off, violations accumulate for inspection
    /// via [`Network::audit_violations`].
    pub panic_on_violation: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            check_interval: 64,
            watchdog_window: 20_000,
            panic_on_violation: true,
        }
    }
}

impl AuditConfig {
    /// Checks every cycle with a short watchdog — for tests.
    pub fn strict() -> Self {
        AuditConfig {
            check_interval: 1,
            watchdog_window: 2_000,
            panic_on_violation: true,
        }
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The credit loop of one link/VC does not sum to the buffer depth.
    CreditConservation {
        /// Link index in the network's link table.
        link: usize,
        /// Downstream router fed by the link.
        router: usize,
        /// Downstream input port.
        port: usize,
        /// Virtual channel.
        vc: u8,
        /// Expected sum (the VC buffer depth).
        depth: u32,
        /// Credits held by the upstream endpoint.
        upstream: u32,
        /// Flits buffered in the downstream input VC.
        buffered: u32,
        /// Flits in flight on the link.
        flits_in_flight: u32,
        /// Credits in flight back upstream.
        credits_in_flight: u32,
    },
    /// Injected ≠ ejected + resident for one message class.
    FlitConservation {
        /// The class whose ledger is off.
        class: MessageClass,
        /// Flits injected since the audit was enabled (plus the residents
        /// at enable time).
        injected: u64,
        /// Flits ejected (popped from ejection queues).
        ejected: u64,
        /// Flits currently buffered, on links, or in ejection queues.
        resident: u64,
    },
    /// An escape (or monopolized, or captured) VC was allocated off the
    /// fabric's escape path.
    EscapeVcViolation {
        /// Router where the allocation lives.
        router: usize,
        /// Router coordinate.
        coord: Coord,
        /// Input port of the offending VC.
        port: usize,
        /// Input VC index.
        vc: usize,
        /// Allocated output VC (escape or foreign).
        out_vc: u8,
        /// Allocated output port.
        out_port: usize,
        /// The escape port the allocation should have used.
        escape_port: Option<usize>,
        /// Destination of the packet holding the allocation.
        dst: Coord,
    },
    /// The watchdog found pending work with zero progress for a window.
    Deadlock(DeadlockReport),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CreditConservation {
                link,
                router,
                port,
                vc,
                depth,
                upstream,
                buffered,
                flits_in_flight,
                credits_in_flight,
            } => write!(
                f,
                "credit conservation broken on link {link} -> router {router} port {port} vc {vc}: \
                 upstream {upstream} + buffered {buffered} + flits-in-flight {flits_in_flight} + \
                 credits-in-flight {credits_in_flight} = {} != depth {depth}",
                upstream + buffered + flits_in_flight + credits_in_flight
            ),
            Violation::FlitConservation {
                class,
                injected,
                ejected,
                resident,
            } => write!(
                f,
                "flit conservation broken for {class:?}: injected {injected} != \
                 ejected {ejected} + resident {resident}"
            ),
            Violation::EscapeVcViolation {
                router,
                coord,
                port,
                vc,
                out_vc,
                out_port,
                escape_port,
                dst,
            } => write!(
                f,
                "escape-VC discipline broken at router {router} {coord:?} input ({port},{vc}): \
                 output vc {out_vc} allocated on port {out_port}, but the escape port toward \
                 {dst:?} is {escape_port:?}"
            ),
            Violation::Deadlock(report) => write!(f, "{report}"),
        }
    }
}

/// One stuck head-of-line flit in a [`DeadlockReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StuckFlit {
    /// Router holding the flit.
    pub router: usize,
    /// Router coordinate.
    pub coord: Coord,
    /// Input port.
    pub port: usize,
    /// Input VC.
    pub vc: usize,
    /// Owning packet.
    pub pkt: crate::flit::PacketId,
    /// Flit sequence number within the packet.
    pub seq: u16,
    /// Message class.
    pub class: MessageClass,
    /// Packet destination.
    pub dst: Coord,
    /// Allocated `(out_port, out_vc, downstream_credits)`, or `None` while
    /// the head still waits for VC allocation.
    pub allocation: Option<(usize, u8, u32)>,
}

/// A zero-credit dependence edge in the blocked-on graph: the flit at
/// `(from, via_port)` waits for buffer space at router `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedEdge {
    /// Upstream router.
    pub from: usize,
    /// Output port the allocation holds.
    pub via_port: usize,
    /// Downstream router that owes credits.
    pub to: usize,
    /// The starved output VC.
    pub vc: u8,
}

/// Structured diagnosis emitted by the watchdog instead of hanging.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockReport {
    /// Cycle the report was taken at.
    pub cycle: u64,
    /// Zero-progress cycles observed.
    pub stalled_for: u64,
    /// Flits buffered in routers.
    pub buffered_flits: u64,
    /// Flits in flight on links.
    pub link_flits: u64,
    /// Flits parked in ejection queues.
    pub eject_flits: u64,
    /// Stuck head-of-line flits (first [`MAX_REPORTED_STUCK`]).
    pub stuck: Vec<StuckFlit>,
    /// Zero-credit dependences between routers.
    pub edges: Vec<BlockedEdge>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock: no forward progress for {} cycles at cycle {} with work pending \
             ({} buffered, {} on links, {} in ejection queues)",
            self.stalled_for, self.cycle, self.buffered_flits, self.link_flits, self.eject_flits
        )?;
        writeln!(f, "  stuck head-of-line flits ({} shown):", self.stuck.len())?;
        for s in &self.stuck {
            match s.allocation {
                Some((op, ov, credits)) => writeln!(
                    f,
                    "    {} seq {} ({:?} -> {:?}) at router {} {:?} in ({},{}) \
                     allocated out ({}, vc {}) with {} downstream credits",
                    s.pkt, s.seq, s.class, s.dst, s.router, s.coord, s.port, s.vc, op, ov, credits
                )?,
                None => writeln!(
                    f,
                    "    {} seq {} ({:?} -> {:?}) at router {} {:?} in ({},{}) \
                     awaiting VC allocation",
                    s.pkt, s.seq, s.class, s.dst, s.router, s.coord, s.port, s.vc
                )?,
            }
        }
        writeln!(f, "  blocked-on edges (zero-credit):")?;
        for e in &self.edges {
            writeln!(
                f,
                "    router {} --port {} vc {}--> router {}",
                e.from, e.via_port, e.vc, e.to
            )?;
        }
        Ok(())
    }
}

/// Per-network auditor state, boxed inside [`Network`] when enabled.
#[derive(Debug)]
pub(crate) struct AuditState {
    pub(crate) cfg: AuditConfig,
    /// Flits injected per class (seeded with the residents at enable time
    /// so mid-run enabling stays consistent). Index 0 = Request, 1 = Reply.
    pub(crate) injected: [u64; 2],
    /// Flits popped from ejection queues per class.
    pub(crate) ejected: [u64; 2],
    /// Ejection-queue pops (progress signal not covered by `NetStats`).
    pub(crate) pops: u64,
    /// Progress counter value at the last observed change.
    pub(crate) last_progress: u64,
    /// Cycle of the last observed change.
    pub(crate) last_progress_cycle: u64,
    /// Violations retained when `panic_on_violation` is off.
    pub(crate) violations: Vec<Violation>,
    /// Conservation sweeps performed (lets tests prove the auditor ran).
    pub(crate) sweeps: u64,
}

impl AuditState {
    /// Records an ejection-queue pop: both a per-class ledger entry and a
    /// forward-progress signal for the watchdog (queue drains bump no
    /// `NetStats` counter, so a network whose only activity is the NI
    /// emptying its queues must not look stalled).
    pub(crate) fn note_pop(&mut self, class: MessageClass) {
        self.pops += 1;
        self.ejected[class_ix(class)] += 1;
    }

    pub(crate) fn new(cfg: AuditConfig) -> Self {
        AuditState {
            cfg,
            injected: [0; 2],
            ejected: [0; 2],
            pops: 0,
            last_progress: 0,
            last_progress_cycle: 0,
            violations: Vec::new(),
            sweeps: 0,
        }
    }

    /// Serializes the auditor's ledgers and watchdog counters. The config
    /// is build-time; retained violations are diagnostic output, not
    /// simulation state, and are *not* carried across a snapshot (with
    /// `panic_on_violation` — the default for checkpointed runs — they
    /// are always empty anyway).
    pub(crate) fn snap_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        debug_assert!(
            self.violations.is_empty(),
            "snapshotting discards retained audit violations"
        );
        self.injected.snap(e);
        self.ejected.snap(e);
        e.put_u64(self.pops);
        e.put_u64(self.last_progress);
        e.put_u64(self.last_progress_cycle);
        e.put_u64(self.sweeps);
    }
}

/// Class index for the per-class ledgers.
pub(crate) fn class_ix(class: MessageClass) -> usize {
    match class {
        MessageClass::Request => 0,
        MessageClass::Reply => 1,
    }
}

/// Runs the conservation and escape-compliance sweeps over `net`,
/// appending any violations to `out`. Read-only; allocates only on
/// failure.
pub(crate) fn sweep(net: &Network, out: &mut Vec<Violation>) {
    check_credit_conservation(net, out);
    check_flit_conservation(net, out);
    check_escape_compliance(net, out);
}

/// Per-link/VC credit-loop conservation: upstream credits + flits on the
/// link + flits buffered downstream + credits returning upstream must
/// equal the buffer depth. A link's flits in flight are its downstream
/// VCs' staged counts; its credits are counted in one pass over its
/// slots of the credit wheel.
fn check_credit_conservation(net: &Network, out: &mut Vec<Violation>) {
    let depth = net.cfg.vc_buf_flits as u32;
    let vcs = net.core.vcs();
    for (li, link) in net.links.iter().enumerate() {
        let (r, p) = (link.to_router as usize, link.to_port as usize);
        // Per VC (≤ 64: a router's VCs fit one mask word).
        let mut returning = [0u32; 64];
        for (_, vc) in net.links.credits(li, net.cycle) {
            returning[vc as usize] += 1;
        }
        for (vc, &credits_in_flight) in returning[..vcs].iter().enumerate() {
            let upstream = match link.credit_dst {
                CreditDst::RouterOutput { router, port } => {
                    net.core.credits(router as usize, port as usize * vcs + vc)
                }
                CreditDst::Injector { injector } => net.injectors[injector as usize].credits[vc],
            };
            let ivc = &net.core.in_vcs[net.core.vc(r, p * vcs + vc)];
            let (buffered, flits_in_flight) = (ivc.len as u32, ivc.pending as u32);
            if upstream + buffered + flits_in_flight + credits_in_flight != depth {
                out.push(Violation::CreditConservation {
                    link: li,
                    router: r,
                    port: p,
                    vc: vc as u8,
                    depth,
                    upstream,
                    buffered,
                    flits_in_flight,
                    credits_in_flight,
                });
            }
        }
    }
}

/// Counts flits resident in `net` per class: router input buffers, links
/// (staged downstream), and ejection queues.
pub(crate) fn resident_by_class(net: &Network) -> [u64; 2] {
    let mut resident = [0u64; 2];
    for r in 0..net.core.len() {
        for f in net.core.router_flits(r) {
            resident[f.class_ix()] += 1;
        }
    }
    for f in net.core.all_staged() {
        resident[f.class_ix()] += 1;
    }
    for (f, _) in net.core.eject_queues().iter().flatten() {
        resident[f.class_ix()] += 1;
    }
    resident
}

fn check_flit_conservation(net: &Network, out: &mut Vec<Violation>) {
    let Some(a) = net.audit.as_deref() else { return };
    let resident = resident_by_class(net);
    for class in [MessageClass::Request, MessageClass::Reply] {
        let ix = class_ix(class);
        if a.injected[ix] != a.ejected[ix] + resident[ix] {
            out.push(Violation::FlitConservation {
                class,
                injected: a.injected[ix],
                ejected: a.ejected[ix],
                resident: resident[ix],
            });
        }
    }
}

/// Escape-VC discipline, checked against the fabric's own contract: an
/// input VC allocated to the escape VC of its class partition (or to a
/// borrowed foreign-class VC under VC-Mono) on a *link* output must hold
/// the topology's escape port toward the packet's destination, and on
/// capturing fabrics a flit that arrived over a network link on its
/// escape VC must also have been allocated the escape VC again.
fn check_escape_compliance(net: &Network, out: &mut Vec<Violation>) {
    let total = net.cfg.vcs_per_port;
    let vcs = net.core.vcs();
    let captures = net.topo.captures_escape();
    for ri in 0..net.core.len() {
        for ip in 0..net.core.num_ports(ri) {
            for iv in 0..vcs {
                let ivc = net.core.vc(ri, ip * vcs + iv);
                let vc = &net.core.in_vcs[ivc];
                if vc.out_port == NONE || vc.len == 0 {
                    continue;
                }
                let (op, ov) = (vc.out_port as usize, vc.out_vc);
                if !matches!(net.core.role(ri, op), OutputRole::Link(_)) {
                    continue;
                }
                let f = net.core.packets.flit(net.core.front(ivc), iv as u8);
                let own = net.cfg.partition.range_for(f.class.is_reply(), total);
                let captured = captures && ip < PORT_LOCAL && iv == own.start as usize;
                let constrained = ov == own.start || !own.contains(&ov);
                if !captured && !constrained {
                    continue;
                }
                let escape = net.topo.escape_port(ri, net.topo.node_index(f.dst));
                if Some(op) != escape || (captured && ov != own.start) {
                    out.push(Violation::EscapeVcViolation {
                        router: ri,
                        coord: net.topo.node_coord(ri),
                        port: ip,
                        vc: iv,
                        out_vc: ov,
                        out_port: op,
                        escape_port: escape,
                        dst: f.dst,
                    });
                }
            }
        }
    }
}

/// Builds the structured deadlock diagnosis for a wedged network.
pub(crate) fn deadlock_report(net: &Network, stalled_for: u64) -> DeadlockReport {
    let mut stuck = Vec::new();
    let mut edges = Vec::new();
    let mut buffered_flits = 0u64;
    let vcs = net.core.vcs();
    for ri in 0..net.core.len() {
        for ip in 0..net.core.num_ports(ri) {
            for iv in 0..vcs {
                let ivc = net.core.vc(ri, ip * vcs + iv);
                let vc = &net.core.in_vcs[ivc];
                buffered_flits += vc.len as u64;
                if vc.len == 0 {
                    continue;
                }
                let f = net.core.packets.flit(net.core.front(ivc), iv as u8);
                let allocation = (vc.out_port != NONE).then(|| {
                    let (op, ov) = (vc.out_port as usize, vc.out_vc);
                    let credits = match net.core.role(ri, op) {
                        OutputRole::Link(li) => {
                            let c = net.core.credits(ri, op * vcs + ov as usize);
                            if c == 0 {
                                edges.push(BlockedEdge {
                                    from: ri,
                                    via_port: op,
                                    to: net.links[li as usize].to_router as usize,
                                    vc: ov,
                                });
                            }
                            c
                        }
                        // Eject ports block on queue space, not
                        // credits; report the free slots instead.
                        OutputRole::Eject { .. } => {
                            (net.cfg.eject_cap - net.core.eject_queue(ri, op).len()) as u32
                        }
                        OutputRole::Dead => 0,
                    };
                    (op, ov, credits)
                });
                if stuck.len() < MAX_REPORTED_STUCK {
                    stuck.push(StuckFlit {
                        router: ri,
                        coord: net.topo.node_coord(ri),
                        port: ip,
                        vc: iv,
                        pkt: f.pkt,
                        seq: f.seq,
                        class: f.class,
                        dst: f.dst,
                        allocation,
                    });
                }
            }
        }
    }
    let link_flits = net.links.flits_in_flight() as u64;
    let eject_flits: u64 = net.core.eject_queues().iter().map(|q| q.len() as u64).sum();
    DeadlockReport {
        cycle: net.cycle,
        stalled_for,
        buffered_flits,
        link_flits,
        eject_flits,
        stuck,
        edges,
    }
}

/// Records fresh violations on the network's audit state, panicking if so
/// configured.
pub(crate) fn record_violations(net: &mut Network, fresh: Vec<Violation>) {
    if fresh.is_empty() {
        return;
    }
    let a = net.audit.as_deref_mut().expect("audit enabled");
    if a.cfg.panic_on_violation {
        let mut msg = format!(
            "NoC audit failed at cycle {} with {} violation(s):\n",
            net.cycle,
            fresh.len()
        );
        for v in &fresh {
            msg.push_str(&format!("  - {v}\n"));
        }
        panic!("{msg}");
    }
    let room = MAX_RETAINED_VIOLATIONS.saturating_sub(a.violations.len());
    a.violations.extend(fresh.into_iter().take(room));
}
