//! Area model.
//!
//! Calibrated to 28 nm standard-cell synthesis (the paper's Design
//! Compiler flow, §5). The dominant term is the matrix crossbar, whose
//! wiring plane scales with `(ports × flit_bits)²` — both dimensions of
//! the wiring matrix grow with total port width. Buffers contribute
//! linearly in bits; allocators are small.


/// Structural description of one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterGeometry {
    /// Paired ports (mesh 5; +1 per EIR input port; CMesh routers 10).
    pub ports: usize,
    /// Virtual channels per port.
    pub vcs: usize,
    /// Buffer depth per VC, in flits.
    pub buf_flits: usize,
    /// Flit width in bits.
    pub flit_bits: usize,
}

/// SRAM-equivalent area per buffer bit, µm².
const BUF_UM2_PER_BIT: f64 = 0.6;
/// Crossbar wiring pitch per bit-track, µm (area = (ports·bits·pitch)²).
const XBAR_PITCH_UM: f64 = 0.4;
/// Allocator/arbiter area per port·VC, µm².
const ALLOC_UM2_PER_PORT_VC: f64 = 600.0;
/// Fixed control overhead per router, µm².
const CONTROL_UM2: f64 = 2_000.0;

impl RouterGeometry {
    /// The paper's baseline reply-network router: 5 ports, 2 VCs,
    /// 5-flit (one packet) buffers, 128-bit flits.
    pub fn baseline() -> Self {
        RouterGeometry {
            ports: 5,
            vcs: 2,
            buf_flits: 5,
            flit_bits: 128,
        }
    }

    /// Total input buffering in bits.
    pub(crate) fn buffer_bits(&self) -> usize {
        self.ports * self.vcs * self.buf_flits * self.flit_bits
    }

    /// Router area in mm².
    ///
    /// ```
    /// # use equinox_power::area::RouterGeometry;
    /// let base = RouterGeometry::baseline().area_mm2();
    /// // A 6-port EIR router is bigger; a 16-bit subnet router is far
    /// // smaller (crossbar shrinks quadratically with width).
    /// let eir = RouterGeometry { ports: 6, ..RouterGeometry::baseline() };
    /// let narrow = RouterGeometry { flit_bits: 16, buf_flits: 40, vcs: 2, ports: 5 };
    /// assert!(eir.area_mm2() > base);
    /// assert!(narrow.area_mm2() < base / 2.0);
    /// ```
    pub fn area_mm2(&self) -> f64 {
        let buf = self.buffer_bits() as f64 * BUF_UM2_PER_BIT;
        // Matrix crossbar: both wiring dimensions grow with ports × width,
        // but datapaths wider than 128 bits are built as parallel 128-bit
        // bit slices (each slice its own wiring matrix), as real wide
        // routers are — otherwise a 256-bit 10-port CMesh router would be
        // charged a full square millimetre of monolithic matrix.
        let slice_bits = self.flit_bits.min(128);
        let slices = self.flit_bits.div_ceil(128).max(1);
        let side = self.ports as f64 * slice_bits as f64 * XBAR_PITCH_UM;
        let xbar = slices as f64 * side * side;
        let alloc = self.ports as f64 * self.vcs as f64 * ALLOC_UM2_PER_PORT_VC;
        (buf + xbar + alloc + CONTROL_UM2) * 1e-6
    }
}

/// Structural description of one network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NiGeometry {
    /// Number of packet injection buffers (baseline NI: 1; EquiNox CB NI:
    /// 5 single-packet buffers, §4.4; MultiPort CB NI: 4).
    pub buffers: usize,
    /// Capacity of each buffer in flits.
    pub buf_flits: usize,
    /// Flit width in bits.
    pub flit_bits: usize,
}

impl NiGeometry {
    /// Baseline single-buffer NI for 5-flit packets at 128 bits.
    pub fn baseline() -> Self {
        NiGeometry {
            buffers: 1,
            buf_flits: 5,
            flit_bits: 128,
        }
    }

    /// NI area in mm² (buffers plus a demultiplexer/selector that grows
    /// with the buffer count — the Buffer Selector of Figure 8).
    pub fn area_mm2(&self) -> f64 {
        let bits = (self.buffers * self.buf_flits * self.flit_bits) as f64;
        let buf = bits * BUF_UM2_PER_BIT;
        let selector = if self.buffers > 1 {
            500.0 + 150.0 * self.buffers as f64
        } else {
            0.0
        };
        (buf + selector + 800.0) * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_router_area_in_sane_band() {
        let a = RouterGeometry::baseline().area_mm2();
        assert!(a > 0.02 && a < 0.3, "5-port 128b router = {a} mm²");
    }

    #[test]
    fn crossbar_quadratic_within_slice_linear_across() {
        let narrow = RouterGeometry {
            flit_bits: 64,
            ..RouterGeometry::baseline()
        };
        let base = RouterGeometry::baseline();
        // 64 -> 128 bits: same slice, quadratic growth (>2x).
        assert!(base.area_mm2() / narrow.area_mm2() > 2.0);
        // 128 -> 256 bits: two slices, ~2x growth, not 4x.
        let wide = RouterGeometry {
            flit_bits: 256,
            ..RouterGeometry::baseline()
        };
        let ratio = wide.area_mm2() / base.area_mm2();
        assert!(ratio > 1.6 && ratio < 2.6, "ratio {ratio}");
    }

    #[test]
    fn cmesh_router_is_much_larger() {
        // Interposer-CMesh routers: 2x ports of a basic router and 256-bit
        // links (§6.5) — they dwarf the baseline (2x slices x 4x matrix).
        let cmesh = RouterGeometry {
            ports: 10,
            vcs: 2,
            buf_flits: 3,
            flit_bits: 256,
        };
        assert!(cmesh.area_mm2() > 4.0 * RouterGeometry::baseline().area_mm2());
    }

    #[test]
    fn extra_port_costs_a_few_percent_at_network_scale() {
        // EquiNox adds 1 port to 24 of 64 routers: the network-level area
        // increase must be modest (the paper reports +4.6% vs
        // SeparateBase including NI changes).
        let base = RouterGeometry::baseline().area_mm2() * 64.0;
        let eir = RouterGeometry {
            ports: 6,
            ..RouterGeometry::baseline()
        };
        let equinox = RouterGeometry::baseline().area_mm2() * 40.0 + eir.area_mm2() * 24.0;
        let overhead = equinox / base - 1.0;
        assert!(overhead > 0.02 && overhead < 0.25, "overhead {overhead}");
    }

    #[test]
    fn ni_with_five_buffers_is_bigger_but_small() {
        let base = NiGeometry::baseline().area_mm2();
        let equinox = NiGeometry {
            buffers: 5,
            ..NiGeometry::baseline()
        };
        assert!(equinox.area_mm2() > base);
        assert!(equinox.area_mm2() < 10.0 * base);
    }

    #[test]
    fn buffer_bits_counts() {
        assert_eq!(RouterGeometry::baseline().buffer_bits(), 5 * 2 * 5 * 128);
    }
}
