//! Dynamic and leakage energy.
//!
//! Events are charged per flit, scaled linearly by flit width (charging
//! and discharging proportionally more bit-lines/wires), except the
//! crossbar whose traversal energy grows with `width × ports` (longer
//! wires in a wider matrix). Link energy is per flit per millimetre;
//! interposer (RDL) wires are slightly cheaper per millimetre than on-die
//! global wires thanks to their thick, low-resistance copper (§2.3 \[18\]).
//! Leakage is proportional to area and simulated time.


/// Per-event energy coefficients (pJ at 128-bit reference width, 28 nm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyCoeffs {
    /// Buffer write, pJ per 128-bit flit.
    pub buf_write_pj: f64,
    /// Buffer read, pJ per 128-bit flit.
    pub buf_read_pj: f64,
    /// Crossbar traversal, pJ per 128-bit flit through a 5-port switch.
    pub xbar_pj: f64,
    /// VC / switch allocation, pJ per grant.
    pub alloc_pj: f64,
    /// On-die link, pJ per 128-bit flit per millimetre.
    pub link_pj_per_mm: f64,
    /// Interposer RDL link, pJ per 128-bit flit per millimetre.
    pub rdl_pj_per_mm: f64,
    /// Leakage power density, W per mm² of NoC area.
    pub leak_w_per_mm2: f64,
}

impl Default for EnergyCoeffs {
    fn default() -> Self {
        EnergyCoeffs {
            buf_write_pj: 1.2,
            buf_read_pj: 0.9,
            xbar_pj: 1.5,
            alloc_pj: 0.15,
            link_pj_per_mm: 1.3,
            rdl_pj_per_mm: 1.05,
            leak_w_per_mm2: 0.05,
        }
    }
}

/// Event totals for one physical network, as extracted from the
/// simulator's `NetStats` by the system layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventCounts {
    /// Flits written to input buffers.
    pub buffer_writes: u64,
    /// Flits read from input buffers.
    pub buffer_reads: u64,
    /// Crossbar traversals.
    pub xbar_traversals: u64,
    /// Allocation grants.
    pub allocs: u64,
    /// Flit·millimetres over on-die links (mesh + NI).
    pub mesh_flit_mm: f64,
    /// Flit·millimetres over interposer links.
    pub rdl_flit_mm: f64,
    /// Flit width of this network, bits.
    pub flit_bits: u32,
    /// Average port count of traversed routers (for crossbar scaling).
    pub avg_ports: f64,
}

/// Computes energies from event counts, widths and areas.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyModel {
    /// The coefficient set in use.
    pub coeffs: EnergyCoeffs,
}

impl EnergyModel {
    /// Dynamic energy of one network in joules.
    ///
    /// ```
    /// # use equinox_power::energy::{EnergyModel, EventCounts};
    /// let m = EnergyModel::default();
    /// let mut ev = EventCounts { buffer_writes: 1000, flit_bits: 128, avg_ports: 5.0, ..Default::default() };
    /// let narrow = EventCounts { flit_bits: 16, ..ev };
    /// assert!(m.dynamic_joules(&ev) > m.dynamic_joules(&narrow));
    /// ```
    pub fn dynamic_joules(&self, ev: &EventCounts) -> f64 {
        let w = ev.flit_bits as f64 / 128.0;
        let p = if ev.avg_ports > 0.0 { ev.avg_ports / 5.0 } else { 1.0 };
        let c = &self.coeffs;
        let pj = ev.buffer_writes as f64 * c.buf_write_pj * w
            + ev.buffer_reads as f64 * c.buf_read_pj * w
            + ev.xbar_traversals as f64 * c.xbar_pj * w * p
            + ev.allocs as f64 * c.alloc_pj
            + ev.mesh_flit_mm * c.link_pj_per_mm * w
            + ev.rdl_flit_mm * c.rdl_pj_per_mm * w;
        pj * 1e-12
    }

    /// Leakage energy in joules for `area_mm2` of NoC over `seconds`.
    pub fn leakage_joules(&self, area_mm2: f64, seconds: f64) -> f64 {
        self.coeffs.leak_w_per_mm2 * area_mm2 * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_events() -> EventCounts {
        EventCounts {
            buffer_writes: 10_000,
            buffer_reads: 10_000,
            xbar_traversals: 10_000,
            allocs: 2_500,
            mesh_flit_mm: 15_000.0,
            rdl_flit_mm: 0.0,
            flit_bits: 128,
            avg_ports: 5.0,
        }
    }

    #[test]
    fn energy_positive_and_width_scaled() {
        let m = EnergyModel::default();
        let e128 = m.dynamic_joules(&base_events());
        let mut ev = base_events();
        ev.flit_bits = 256;
        let e256 = m.dynamic_joules(&ev);
        assert!(e128 > 0.0);
        assert!(e256 > 1.8 * e128 && e256 < 2.2 * e128, "roughly linear in width");
    }

    #[test]
    fn rdl_cheaper_than_die_wire_per_mm() {
        let m = EnergyModel::default();
        let mut die = base_events();
        die.mesh_flit_mm = 1000.0;
        die.rdl_flit_mm = 0.0;
        let mut rdl = base_events();
        rdl.mesh_flit_mm = 0.0;
        rdl.rdl_flit_mm = 1000.0;
        assert!(m.dynamic_joules(&rdl) < m.dynamic_joules(&die));
    }

    #[test]
    fn leakage_proportional_to_area_and_time() {
        let m = EnergyModel::default();
        let a = m.leakage_joules(10.0, 1e-6);
        assert!((m.leakage_joules(20.0, 1e-6) / a - 2.0).abs() < 1e-9);
        assert!((m.leakage_joules(10.0, 2e-6) / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_events_zero_energy() {
        let m = EnergyModel::default();
        assert_eq!(
            m.dynamic_joules(&EventCounts {
                flit_bits: 128,
                avg_ports: 5.0,
                ..Default::default()
            }),
            0.0
        );
    }

    #[test]
    fn more_ports_cost_more_crossbar_energy() {
        let m = EnergyModel::default();
        let mut ev = base_events();
        ev.buffer_writes = 0;
        ev.buffer_reads = 0;
        ev.allocs = 0;
        ev.mesh_flit_mm = 0.0;
        let e5 = m.dynamic_joules(&ev);
        ev.avg_ports = 10.0;
        assert!((m.dynamic_joules(&ev) / e5 - 2.0).abs() < 1e-9);
    }
}
