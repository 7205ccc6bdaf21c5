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
    /// Grid width (the map is row-major `width × height`).
    pub width: u16,
    /// Grid height. [`HeatMap::square`] builds the common square case.
    pub height: u16,
    /// Average cycles a flit spends in each router.
    pub heat: Vec<f64>,
    /// Population variance across routers.
    pub variance: f64,
}

impl HeatMap {
    /// A `width × width` map (every paper scenario; rectangular grids
    /// come from the topology-generalized fabrics).
    pub(crate) fn square(width: u16, heat: Vec<f64>, variance: f64) -> Self {
        HeatMap { width, height: width, heat, variance }
    }

    /// The map as structured JSON for the `obs/v1` artifact block:
    /// `{"width": W, "variance": V, "heat": [W*H values, row-major]}`.
    /// A `"height"` key is emitted only for non-square grids, keeping
    /// the block byte-identical for every historical (square) run.
    /// The ASCII [`HeatMap::render`] stays for stderr reports.
    pub(crate) fn to_json(&self) -> equinox_config::Json {
        use equinox_config::Json;
        let mut j = Json::obj().with("width", self.width);
        if self.height != self.width {
            j = j.with("height", self.height);
        }
        j.with("variance", self.variance)
            .with(
                "heat",
                self.heat.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
            )
    }

    /// Renders the map as an ASCII grid (one row per grid row).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for y in 0..self.height {
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
    HeatMap::square(n, stats.heat_map(), stats.heat_variance())
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
    fn json_shape_matches_grid() {
        let p = Placement::diamond(8, 8, 8);
        let h = placement_heatmap(&p, 0.1, 500, 3);
        let j = h.to_json();
        assert_eq!(j.get("width").and_then(|v| v.as_u64()), Some(8));
        let heat = j.get("heat").and_then(|v| v.as_arr()).expect("heat array");
        assert_eq!(heat.len(), 64, "row-major width*width grid");
        assert!(heat.iter().all(|v| v.as_f64().is_some()));
        let var = j.get("variance").and_then(|v| v.as_f64()).expect("variance");
        assert!((var - h.variance).abs() < 1e-12);
        // The JSON block must round-trip through the artifact parser.
        let parsed = equinox_config::parse_json(&j.pretty()).expect("valid JSON");
        assert_eq!(parsed, j);
    }

    #[test]
    fn non_square_maps_carry_height() {
        let h = HeatMap {
            width: 3,
            height: 2,
            heat: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            variance: 0.0,
        };
        assert_eq!(h.render().lines().count(), 2, "one line per grid row");
        let j = h.to_json();
        assert_eq!(j.get("height").and_then(|v| v.as_u64()), Some(2));
        // Square maps keep the historical shape: no "height" key.
        let sq = HeatMap::square(2, vec![0.0; 4], 0.0);
        assert!(sq.to_json().get("height").is_none());
    }

    #[test]
    fn render_has_eight_rows() {
        let p = Placement::diamond(8, 8, 8);
        let h = placement_heatmap(&p, 0.1, 500, 3);
        assert_eq!(h.render().lines().count(), 8);
    }
}
