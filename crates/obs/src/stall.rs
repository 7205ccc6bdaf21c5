//! Stall-cause taxonomy and per-router attribution grids.
//!
//! Every cycle a delivered packet spends between creation and ejection
//! is charged to exactly one named cause, so the per-cause totals sum
//! to the measured end-to-end latency per message class (on completed
//! runs; see DESIGN.md "Stall-cause taxonomy"). Causes split into two
//! layers:
//!
//! * charged by the router pipeline (this module's [`StallGrid`], fed
//!   by `equinox-noc`): [`NetCause::VcAlloc`], [`NetCause::SwitchLoss`],
//!   [`NetCause::CreditStarve`], [`NetCause::EjectWait`];
//! * charged by the system layer (`equinox-core`): injection-queue
//!   wait at the NI/EIR, and link serialization as the per-class
//!   residual (hop traversal + body-flit streaming — the cycles a
//!   packet is *moving*, not stalled).
//!
//! The grid is a flat `routers × causes` counter array: charging is a
//! single indexed add (no hashing, no allocation), matching the audit
//! pattern's obs-off zero-cost discipline — when attribution is off the
//! router pipeline holds no grid at all and pays one branch per event.

use equinox_snap::{Enc, Snap};

/// Number of message classes attribution distinguishes
/// (0 = request, 1 = reply).
pub const STALL_CLASSES: usize = 2;

/// In-network stall causes charged per router by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum NetCause {
    /// Head flit at the front of an input VC, pipeline delay elapsed,
    /// but virtual-channel allocation failed (no free output VC on the
    /// routed port).
    VcAlloc = 0,
    /// Head flit holds an output VC with credit available, but lost
    /// switch allocation this cycle (input- or output-stage arbitration).
    SwitchLoss = 1,
    /// Head flit holds an output VC but that VC has no downstream
    /// credit (or the ejection queue is full), so it cannot even bid
    /// for the switch.
    CreditStarve = 2,
    /// Tail flit sat in a router ejection queue waiting for the
    /// NI/CB-side sink to pop it.
    EjectWait = 3,
}

/// Number of in-network causes a [`StallGrid`] tracks.
pub(crate) const NET_CAUSES: usize = 4;

/// Names of the in-network causes, indexed by `NetCause as usize`.
pub const NET_CAUSE_NAMES: [&str; NET_CAUSES] =
    ["vc_alloc", "switch_loss", "credit_starve", "eject_wait"];

/// Per-router × per-cause stall-cycle counters plus per-class totals.
///
/// One network (subnet) owns one grid; the system layer emits each grid
/// in its network's entry of the `equinox.obs/v3` block and sums the
/// class totals across subnets for the breakdown rows and stream frames.
/// All values are cycle-derived and therefore deterministic.
#[derive(Debug, Clone)]
pub struct StallGrid {
    routers: usize,
    /// `routers × NET_CAUSES`, row-major by router.
    cells: Vec<u64>,
    /// Per-class totals, `[class][cause]`.
    class_cycles: [[u64; NET_CAUSES]; STALL_CLASSES],
}

impl StallGrid {
    /// An all-zero grid for `routers` routers.
    pub fn new(routers: usize) -> Self {
        StallGrid {
            routers,
            cells: vec![0; routers * NET_CAUSES],
            class_cycles: [[0; NET_CAUSES]; STALL_CLASSES],
        }
    }

    /// Charges `cycles` stall cycles of `cause` to `router` on behalf
    /// of message class `class` (0 = request, 1 = reply).
    #[inline]
    pub fn charge(&mut self, router: usize, cause: NetCause, class: usize, cycles: u64) {
        self.cells[router * NET_CAUSES + cause as usize] += cycles;
        self.class_cycles[class][cause as usize] += cycles;
    }

    /// Stall cycles of `cause` charged to `router`.
    pub(crate) fn cell(&self, router: usize, cause: NetCause) -> u64 {
        self.cells[router * NET_CAUSES + cause as usize]
    }

    /// Total stall cycles of `cause` charged for `class`.
    pub fn class_total(&self, class: usize, cause: NetCause) -> u64 {
        self.class_cycles[class][cause as usize]
    }

    /// Total in-network stall cycles charged for `class`, all causes.
    pub fn class_sum(&self, class: usize) -> u64 {
        self.class_cycles[class].iter().sum()
    }

    /// Row-major per-router heat values for one cause.
    pub fn heat(&self, cause: NetCause) -> impl Iterator<Item = u64> + '_ {
        (0..self.routers).map(move |r| self.cell(r, cause))
    }

    /// Serializes the counters (the shape is build-derived and not
    /// written).
    pub fn snap_state(&self, e: &mut Enc) {
        self.cells.snap(e);
        for class in &self.class_cycles {
            for &v in class {
                e.put_u64(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_router_and_per_class() {
        let mut g = StallGrid::new(4);
        g.charge(2, NetCause::VcAlloc, 0, 3);
        g.charge(2, NetCause::VcAlloc, 1, 1);
        g.charge(0, NetCause::EjectWait, 1, 5);
        assert_eq!(g.cell(2, NetCause::VcAlloc), 4);
        assert_eq!(g.cell(0, NetCause::EjectWait), 5);
        assert_eq!(g.cell(1, NetCause::SwitchLoss), 0);
        assert_eq!(g.class_total(0, NetCause::VcAlloc), 3);
        assert_eq!(g.class_total(1, NetCause::VcAlloc), 1);
        assert_eq!(g.class_sum(1), 6);
        let heat: Vec<u64> = g.heat(NetCause::VcAlloc).collect();
        assert_eq!(heat, vec![0, 0, 4, 0]);
    }

    #[test]
    fn cause_name_tables_are_consistent() {
        assert_eq!(NET_CAUSE_NAMES[NetCause::VcAlloc as usize], "vc_alloc");
        assert_eq!(NET_CAUSE_NAMES[NetCause::SwitchLoss as usize], "switch_loss");
        assert_eq!(NET_CAUSE_NAMES[NetCause::CreditStarve as usize], "credit_starve");
        assert_eq!(NET_CAUSE_NAMES[NetCause::EjectWait as usize], "eject_wait");
    }
}
