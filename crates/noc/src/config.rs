//! Network configuration.
//!
//! Mirrors Table 1 of the paper: 8×8 / 12×12 / 16×16 meshes, minimal
//! adaptive routing, 2 VCs per port with one packet of buffering per VC,
//! and a separable input-first allocator (which is the allocator the
//! simulator implements — it is not configurable because none of the seven
//! schemes varies it).

use crate::topology::TopologyKind;
use std::ops::Range;

/// Routing algorithm for a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// Dimension-ordered X-then-Y routing. Deterministic, deadlock-free.
    Xy,
    /// Minimal adaptive routing: any productive direction on adaptive VCs,
    /// with VC 0 of each class partition reserved as an XY escape channel
    /// (Duato). Degrades to pure XY when a partition has a single VC.
    MinimalAdaptive,
}

/// How virtual channels are shared between message classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcPartition {
    /// All VCs belong to whatever class the network carries — used by the
    /// separate-network schemes where request and reply have their own
    /// physical networks.
    Shared,
    /// Single physical network: requests and replies get disjoint VC
    /// ranges to avoid protocol deadlock. With `mono` set (the VC-Mono
    /// scheme), a class may claim the other class's VCs at a router where
    /// no flit of the other class is currently present.
    ByClass {
        /// VCs usable by request packets.
        request: Range<u8>,
        /// VCs usable by reply packets.
        reply: Range<u8>,
        /// Enable VC monopolization (the VC-Mono scheme, DAC'15 \[4\]).
        mono: bool,
    },
}

impl VcPartition {
    /// The VC range class `reply` may *normally* use (ignoring
    /// monopolization) given `total` VCs per port.
    pub(crate) fn range_for(&self, reply: bool, total: u8) -> Range<u8> {
        match self {
            VcPartition::Shared => 0..total,
            VcPartition::ByClass { request, reply: rep, .. } => {
                if reply {
                    rep.clone()
                } else {
                    request.clone()
                }
            }
        }
    }

    /// `true` if monopolization is enabled.
    pub(crate) fn mono(&self) -> bool {
        matches!(self, VcPartition::ByClass { mono: true, .. })
    }
}

/// Full configuration of one physical network.
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Fabric the routers are wired into (mesh unless a scheme opts into
    /// one of the ring reply fabrics).
    pub topology: TopologyKind,
    /// Grid width in routers.
    pub width: u16,
    /// Grid height in routers.
    pub height: u16,
    /// Virtual channels per port (Table 1: 2).
    pub vcs_per_port: u8,
    /// Buffer depth per VC in flits (Table 1: 1 packet = 5 flits at
    /// 128-bit flits and 64 B cache lines).
    pub vc_buf_flits: usize,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Latency of a mesh link in cycles.
    pub link_latency: u32,
    /// Latency of the NI→router injection link in cycles.
    pub ni_latency: u32,
    /// VC sharing policy.
    pub partition: VcPartition,
    /// Link width in bits — only used by the energy model and for
    /// computing serialization (flits per packet) in upper layers.
    pub link_bits: u32,
    /// Clock frequency in GHz, used to convert latencies to nanoseconds
    /// when networks with different clocks are compared (DA2Mesh).
    pub freq_ghz: f64,
    /// Extra router pipeline stages beyond the single-cycle minimum.
    /// A flit that arrives in an input buffer at cycle `t` becomes
    /// eligible for allocation at `t + pipeline_extra`, modelling the
    /// RC/VA/SA/ST stage registers of a deeper router (BookSim's
    /// `routing_delay`/`vc_alloc_delay` knobs). 0 keeps the aggressive
    /// 2-cycle-per-hop router the rest of the evaluation uses.
    pub pipeline_extra: u32,
    /// Ejection-queue capacity in flits. When a network interface stops
    /// draining an ejection port (e.g. a busy cache bank), the queue fills
    /// to this cap and the router stops granting the port — backpressure
    /// then propagates into the network, which is how reply-side
    /// congestion stretches request latencies (§6.4's parking-lot effect).
    pub eject_cap: usize,
    /// Step only routers on the active worklist instead of sweeping the
    /// whole mesh every cycle. A router with no buffered
    /// flit is an exact no-op in every pipeline stage, so gating is
    /// bit-identical to the exhaustive sweep; this flag exists purely as
    /// a cross-checking escape hatch (`--no-activity-gate`).
    pub activity_gate: bool,
}

impl NocConfig {
    /// Square mesh of the given size with Table 1's parameters.
    pub fn mesh(n: u16) -> Self {
        NocConfig {
            topology: TopologyKind::Mesh,
            width: n,
            height: n,
            vcs_per_port: 2,
            vc_buf_flits: 5,
            routing: RoutingKind::MinimalAdaptive,
            link_latency: 1,
            ni_latency: 1,
            partition: VcPartition::Shared,
            link_bits: 128,
            freq_ghz: 1.126,
            pipeline_extra: 0,
            eject_cap: 16,
            // Gating is bit-identical to the exhaustive sweep, so the
            // default is unconditionally on; callers that want the
            // cross-checking escape hatch set this explicitly (the
            // drivers plumb it down from the resolved experiment spec).
            activity_gate: true,
        }
    }

    /// Square grid of the given size wired as `topology`, with otherwise
    /// default parameters. `fabric(TopologyKind::Mesh, n)` equals
    /// [`NocConfig::mesh`].
    pub fn fabric(topology: TopologyKind, n: u16) -> Self {
        NocConfig {
            topology,
            ..Self::mesh(n)
        }
    }

    /// Single-network configuration per Table 1: 2 VCs per port, one per
    /// message class (the class split is mandatory for protocol-deadlock
    /// freedom). With a single VC per class the escape discipline forces
    /// dimension-order routing — one of the structural reasons the
    /// single-network schemes trail the separate-network ones (§6.1).
    /// VC-Mono (`mono`) lets replies borrow the request VC at routers
    /// with no buffered request, restoring some adaptivity and buffering.
    pub fn single_net(n: u16, mono: bool) -> Self {
        NocConfig {
            vcs_per_port: 2,
            partition: VcPartition::ByClass {
                request: 0..1,
                reply: 1..2,
                mono,
            },
            ..Self::mesh(n)
        }
    }

    /// Number of routers in the grid.
    pub fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: zero
    /// dimensions, dimensions the chosen topology cannot be built on,
    /// zero VCs/buffers, more VCs or deeper buffers than the router core
    /// indexes, or a class partition that exceeds `vcs_per_port` /
    /// overlaps / is empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 || self.height == 0 {
            return Err("grid dimensions must be nonzero".into());
        }
        match self.topology {
            TopologyKind::Mesh => {}
            TopologyKind::Ring => {
                if self.num_nodes() < 2 {
                    return Err("a ring topology needs at least two nodes".into());
                }
            }
            TopologyKind::HierRing => {
                if self.width < 2 || self.height < 2 {
                    return Err(
                        "a hierarchical ring needs width >= 2 and height >= 2 \
                         (each row is a ring, bridged by a global ring)"
                            .into(),
                    );
                }
            }
        }
        if self.vcs_per_port == 0 {
            return Err("need at least one VC per port".into());
        }
        if self.vc_buf_flits == 0 {
            return Err("VC buffers must hold at least one flit".into());
        }
        // The router core keeps one mask bit per VC of a router and u8
        // ring positions per VC buffer. Ports added after construction
        // are checked against the same bound when they are added.
        if self.vcs_per_port as usize * 5 > 64 {
            return Err("a five-port router's VCs must fit 64 mask bits (vcs_per_port <= 12)".into());
        }
        if self.vc_buf_flits >= u8::MAX as usize {
            return Err("VC buffers hold at most 254 flits".into());
        }
        if self.link_latency == 0 || self.ni_latency == 0 {
            return Err("link latencies must be at least one cycle".into());
        }
        if self.freq_ghz <= 0.0 {
            return Err("clock frequency must be positive".into());
        }
        if self.eject_cap == 0 {
            return Err("ejection queues need capacity".into());
        }
        if self.topology != TopologyKind::Mesh && self.partition.mono() {
            return Err(
                "VC monopolization (VC-Mono) is only supported on the mesh: a borrowed \
                 foreign VC defeats the escape-capture discipline ring fabrics rely on"
                    .into(),
            );
        }
        if let VcPartition::ByClass { request, reply, .. } = &self.partition {
            if request.is_empty() || reply.is_empty() {
                return Err("each class needs at least one VC".into());
            }
            if request.end > self.vcs_per_port || reply.end > self.vcs_per_port {
                return Err("class VC range exceeds vcs_per_port".into());
            }
            if request.start < reply.end && reply.start < request.end {
                return Err("class VC ranges overlap".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(NocConfig::mesh(8).validate().is_ok());
        assert!(NocConfig::mesh(12).validate().is_ok());
        assert!(NocConfig::single_net(8, true).validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = NocConfig::mesh(8);
        c.width = 0;
        assert!(c.validate().is_err());

        let mut c = NocConfig::mesh(8);
        c.vc_buf_flits = 0;
        assert!(c.validate().is_err());

        let mut c = NocConfig::mesh(8);
        c.vcs_per_port = 12;
        assert!(c.validate().is_ok(), "5 ports x 12 VCs = 60 mask bits");
        c.vcs_per_port = 13;
        assert!(c.validate().is_err(), "65 mask bits");

        let mut c = NocConfig::mesh(8);
        c.vc_buf_flits = 254;
        assert!(c.validate().is_ok());
        c.vc_buf_flits = 255;
        assert!(c.validate().is_err(), "ring positions are u8 with a sentinel");

        let mut c = NocConfig::single_net(8, false);
        c.partition = VcPartition::ByClass {
            request: 0..3,
            reply: 2..4,
            mono: false,
        };
        assert!(c.validate().is_err(), "overlapping ranges");

        let mut c = NocConfig::single_net(8, false);
        c.partition = VcPartition::ByClass {
            request: 0..2,
            reply: 2..5,
            mono: false,
        };
        assert!(c.validate().is_err(), "range beyond vcs_per_port");
    }

    #[test]
    fn topology_dimension_constraints() {
        assert!(NocConfig::fabric(TopologyKind::Ring, 4).validate().is_ok());
        assert!(NocConfig::fabric(TopologyKind::HierRing, 4).validate().is_ok());

        let mut c = NocConfig::fabric(TopologyKind::Ring, 1);
        assert!(c.validate().is_err(), "one-node ring");
        c.height = 2;
        assert!(c.validate().is_ok(), "1x2 ring is a legal two-node ring");

        let mut c = NocConfig::fabric(TopologyKind::HierRing, 4);
        c.height = 1;
        assert!(c.validate().is_err(), "hier ring needs height >= 2");
        let mut c = NocConfig::fabric(TopologyKind::HierRing, 4);
        c.width = 1;
        assert!(c.validate().is_err(), "hier ring needs width >= 2");
    }

    #[test]
    fn partition_ranges() {
        let p = VcPartition::ByClass {
            request: 0..2,
            reply: 2..4,
            mono: false,
        };
        assert_eq!(p.range_for(false, 4), 0..2);
        assert_eq!(p.range_for(true, 4), 2..4);
        assert!(!p.mono());
        assert_eq!(VcPartition::Shared.range_for(true, 2), 0..2);
    }

    #[test]
    fn node_count() {
        assert_eq!(NocConfig::mesh(8).num_nodes(), 64);
        assert_eq!(NocConfig::mesh(16).num_nodes(), 256);
    }
}
