//! The Figure 4 experiment: per-router congestion heat maps under the
//! five CB placements.
//!
//! Runs the reply network alone under the few-to-many pattern (each CB
//! streams reply packets to uniformly random PEs) and reports the average
//! number of cycles a flit spends in each router plus the across-router
//! variance — the paper's placement-quality signal (Top ≫ Diamond >
//! N-Queen, whose variance is 0.54 in Figure 4).

use equinox_noc::config::NocConfig;
use equinox_noc::flit::{Flit, MessageClass, PacketDesc};
use equinox_noc::network::Network;
use equinox_phys::Coord;
use equinox_placement::Placement;
use equinox_exec::Rng;

/// Result of a heat-map run.
#[derive(Debug, Clone)]
pub struct HeatMap {
    /// Grid side (the map is row-major `width × width`).
    pub width: u16,
    /// Average cycles a flit spends in each router.
    pub heat: Vec<f64>,
    /// Population variance across routers.
    pub variance: f64,
}

impl HeatMap {
    /// Renders the map as an ASCII grid (one row per grid row).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for y in 0..self.width {
            for x in 0..self.width {
                let v = self.heat[(y * self.width + x) as usize];
                out.push_str(&format!("{v:5.1} "));
            }
            out.push('\n');
        }
        out
    }
}

/// Simulates the reply network under `placement` with every CB injecting
/// 5-flit reply packets to uniform-random PEs at `offered` packets per CB
/// per cycle, for `cycles` cycles after a 10% warm-up. Deterministic in
/// `seed`.
pub fn placement_heatmap(placement: &Placement, offered: f64, cycles: u64, seed: u64) -> HeatMap {
    assert_eq!(placement.width, placement.height, "square meshes only");
    let n = placement.width;
    let mut net = Network::new(NocConfig::mesh(n));
    let mut rng = Rng::seed_from_u64(seed);
    let pes: Vec<Coord> = placement.pe_tiles().collect();
    let mut pkt_id = 0u64;
    // Per-CB injection state: queued flits of the packet being streamed.
    let mut pending: Vec<Vec<Flit>> = vec![Vec::new(); placement.cbs.len()];
    let warmup = cycles / 10;

    for _ in 0..(cycles + warmup) {
        for (ci, &cb) in placement.cbs.iter().enumerate() {
            if pending[ci].is_empty() && rng.random::<f64>() < offered {
                let dst = pes[rng.random_range(0..pes.len())];
                let desc = PacketDesc::new(pkt_id, cb, dst, MessageClass::Reply, 5);
                pkt_id += 1;
                let mut flits = desc.flits(n);
                flits.reverse(); // pop from the back
                pending[ci] = flits;
            }
            if let Some(&flit) = pending[ci].last() {
                let inj = net.local_injector(cb);
                if net.try_inject_flit(inj, flit) {
                    pending[ci].pop();
                }
            }
        }
        net.step();
        // PEs drain instantly.
        net.drain_ejected(|_, _, _| {});
    }
    let stats = net.stats();
    HeatMap { width: n, heat: stats.heat_map(), variance: stats.heat_variance() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_placement::select::best_nqueen_placement;

    #[test]
    fn heat_is_positive_under_load() {
        let p = Placement::diamond(8, 8, 8);
        let h = placement_heatmap(&p, 0.3, 3_000, 1);
        assert_eq!(h.heat.len(), 64);
        assert!(h.heat.iter().any(|&v| v > 0.0));
        assert!(h.variance > 0.0);
    }

    #[test]
    fn top_placement_is_most_unbalanced() {
        // Figure 4's qualitative ordering: Top has far higher variance
        // than Diamond, and N-Queen is the most balanced.
        // 0.8 packets/CB/cycle offered: deep enough into congestion that
        // the hot zones show (the paper's Figure 4 is captured under full
        // benchmark load).
        let top = placement_heatmap(&Placement::top(8, 8, 8), 0.8, 4_000, 2);
        let diamond = placement_heatmap(&Placement::diamond(8, 8, 8), 0.8, 4_000, 2);
        let nqueen = placement_heatmap(&best_nqueen_placement(8, 8, usize::MAX, 0), 0.8, 4_000, 2);
        assert!(
            top.variance > diamond.variance,
            "Top {} !> Diamond {}",
            top.variance,
            diamond.variance
        );
        assert!(
            nqueen.variance <= diamond.variance * 1.05,
            "N-Queen {} should not exceed Diamond {}",
            nqueen.variance,
            diamond.variance
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let p = Placement::diagonal(8, 8, 8);
        let a = placement_heatmap(&p, 0.2, 1_000, 9);
        let b = placement_heatmap(&p, 0.2, 1_000, 9);
        assert_eq!(a.heat, b.heat);
    }

    #[test]
    fn render_has_eight_rows() {
        let p = Placement::diamond(8, 8, 8);
        let h = placement_heatmap(&p, 0.1, 500, 3);
        assert_eq!(h.render().lines().count(), 8);
    }
}
