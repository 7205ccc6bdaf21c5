//! Event counters collected by the simulator.
//!
//! The counters are the raw material of two downstream consumers:
//!
//! * the DSENT-style energy model in `equinox-power`, which charges an
//!   energy per buffer write/read, crossbar traversal, allocation and link
//!   flit (split by link class so interposer wires can be costed
//!   differently), plus leakage per cycle;
//! * the placement heat maps of Figure 4, built from the per-router
//!   `router_flits` / `router_cycles` accumulators (average cycles a flit
//!   spends in each router).

use crate::link::LinkKind;

/// Aggregate event counters for one physical network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Simulated cycles (of this network's clock).
    pub cycles: u64,
    /// Flits written into input-VC buffers.
    pub buffer_writes: u64,
    /// Flits read out of input-VC buffers (= switch-allocation grants).
    pub buffer_reads: u64,
    /// Flits that crossed the switch.
    pub xbar_traversals: u64,
    /// Successful output-VC allocations (one per packet per hop).
    pub vc_allocs: u64,
    /// Flits carried by regular mesh links.
    pub link_flits_mesh: u64,
    /// Flits carried by interposer (RDL) links.
    pub link_flits_interposer: u64,
    /// Flits carried by NI-to-router local connections.
    pub link_flits_ni: u64,
    /// Flits ejected to network interfaces.
    pub ejected_flits: u64,
    /// Flits injected by network interfaces.
    pub injected_flits: u64,
    /// Per-router count of flits that traversed the router.
    pub router_flits: Vec<u64>,
    /// Per-router total cycles those flits spent inside the router
    /// (buffer entry to switch traversal, inclusive).
    pub router_cycles: Vec<u64>,
}

impl equinox_snap::Snap for NetStats {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u64(self.cycles);
        e.put_u64(self.buffer_writes);
        e.put_u64(self.buffer_reads);
        e.put_u64(self.xbar_traversals);
        e.put_u64(self.vc_allocs);
        e.put_u64(self.link_flits_mesh);
        e.put_u64(self.link_flits_interposer);
        e.put_u64(self.link_flits_ni);
        e.put_u64(self.ejected_flits);
        e.put_u64(self.injected_flits);
        self.router_flits.snap(e);
        self.router_cycles.snap(e);
    }
}

impl NetStats {
    /// Creates zeroed stats for `routers` routers.
    pub(crate) fn new(routers: usize) -> Self {
        NetStats {
            router_flits: vec![0; routers],
            router_cycles: vec![0; routers],
            ..Default::default()
        }
    }

    /// Records a flit crossing a link of the given kind.
    pub(crate) fn count_link_flit(&mut self, kind: LinkKind) {
        match kind {
            LinkKind::Mesh => self.link_flits_mesh += 1,
            LinkKind::Interposer => self.link_flits_interposer += 1,
            LinkKind::NiLocal => self.link_flits_ni += 1,
        }
    }

    /// Average number of cycles a flit spends in router `r`, the quantity
    /// plotted in the paper's Figure 4 heat maps. Routers that never saw a
    /// flit report 0.
    pub(crate) fn avg_router_cycles(&self, r: usize) -> f64 {
        if self.router_flits[r] == 0 {
            0.0
        } else {
            self.router_cycles[r] as f64 / self.router_flits[r] as f64
        }
    }

    /// The heat map over all routers (row-major).
    pub fn heat_map(&self) -> Vec<f64> {
        (0..self.router_flits.len())
            .map(|r| self.avg_router_cycles(r))
            .collect()
    }

    /// Population variance of the heat map — the paper's Figure 4 reports
    /// this per placement (N-Queen: 0.54 vs Top: 16+).
    pub fn heat_variance(&self) -> f64 {
        let heat = self.heat_map();
        if heat.is_empty() {
            return 0.0;
        }
        let mean = heat.iter().sum::<f64>() / heat.len() as f64;
        heat.iter().map(|h| (h - mean).powi(2)).sum::<f64>() / heat.len() as f64
    }

    /// Total flits over all link classes.
    pub fn total_link_flits(&self) -> u64 {
        self.link_flits_mesh + self.link_flits_interposer + self.link_flits_ni
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_math() {
        let mut s = NetStats::new(2);
        s.router_flits = vec![10, 0];
        s.router_cycles = vec![30, 0];
        assert_eq!(s.avg_router_cycles(0), 3.0);
        assert_eq!(s.avg_router_cycles(1), 0.0);
        assert_eq!(s.heat_map(), vec![3.0, 0.0]);
        // mean 1.5, variance ((1.5)^2 + (1.5)^2)/2 = 2.25
        assert!((s.heat_variance() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn link_kind_counting() {
        let mut s = NetStats::new(1);
        s.count_link_flit(LinkKind::Mesh);
        s.count_link_flit(LinkKind::Interposer);
        s.count_link_flit(LinkKind::Interposer);
        s.count_link_flit(LinkKind::NiLocal);
        assert_eq!(s.link_flits_mesh, 1);
        assert_eq!(s.link_flits_interposer, 2);
        assert_eq!(s.link_flits_ni, 1);
        assert_eq!(s.total_link_flits(), 4);
    }

    #[test]
    fn empty_variance_is_zero() {
        let s = NetStats::new(0);
        assert_eq!(s.heat_variance(), 0.0);
    }
}
