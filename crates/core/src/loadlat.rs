//! Load–latency curves for the reply network.
//!
//! The classic NoC characterization: sweep the offered injection rate at
//! the CBs and measure average packet latency. The curve's knee is the
//! saturation point of the few-to-many injection path — the quantity
//! EquiNox's EIRs push to the right. Used by the `loadlat` scenario, the
//! benchmark's `idle-loadlat` workload and the saturation validation
//! tests.

use equinox_noc::config::NocConfig;
use equinox_noc::flit::MessageClass;
use equinox_noc::network::Network;
use equinox_phys::Coord;
use equinox_placement::Placement;
use equinox_exec::Rng;

use crate::design::EquiNoxDesign;
use crate::msg::{MemOpKind, PacketTracker};
use crate::ni::{InjectPolicy, InjectionQueue};
use crate::scheme::NiKind;

/// One measured point of the curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load, reply packets per CB per cycle.
    pub offered: f64,
    /// Accepted throughput, reply flits per cycle (whole network).
    pub throughput: f64,
    /// Mean packet latency in cycles (creation to tail ejection).
    pub latency: f64,
}

/// The CB-side injection structure to sweep.
#[derive(Debug, Clone)]
pub enum ReplySide {
    /// One local injection buffer per CB (the separate-network baseline).
    Local,
    /// An EquiNox design: local buffer + one buffer per EIR with the
    /// Buffer Selection 1 policy.
    Equinox(EquiNoxDesign),
}

/// Sweeps `offered` reply loads (packets per CB per cycle) on the reply
/// network alone and returns one [`LoadPoint`] per rate. Each rate is an
/// independent simulation, so the sweep fans out on the
/// [`equinox_exec`] worker pool; results come back in input order and
/// every point is a pure function of `(rate, seed)`, so the curve is
/// identical for any worker count. Deterministic in `seed`. Auditing
/// and activity gating ride into every fanned-out worker by value.
///
/// # Panics
///
/// Panics if `placement` is not square, an offered rate is not in
/// `(0, 1]` or `cycles` is over [`equinox_config::LOADLAT_CYCLES_LIMIT`].
pub fn load_latency_curve_cfg(
    placement: &Placement,
    side: &ReplySide,
    offered: &[f64],
    cycles: u64,
    seed: u64,
    audit: Option<equinox_noc::AuditConfig>,
    activity_gate: bool,
) -> Vec<LoadPoint> {
    assert_eq!(placement.width, placement.height, "square meshes only");
    assert!(
        cycles <= equinox_config::LOADLAT_CYCLES_LIMIT,
        "cycles = {cycles}: a point's {cycles} + {} warm-up cycles must stay under u32::MAX",
        cycles / 5
    );
    for &rate in offered {
        assert!(rate > 0.0 && rate <= 1.0, "offered rate {rate} out of (0,1]");
    }
    equinox_exec::par_map(offered.to_vec(), |_, rate| {
        measure(placement, side, rate, cycles, seed, audit.clone(), activity_gate, |_| {})
    })
}

/// One point; `watch` sees the tracker at the end of every cycle.
#[allow(clippy::too_many_arguments)]
fn measure(
    placement: &Placement,
    side: &ReplySide,
    offered: f64,
    cycles: u64,
    seed: u64,
    audit: Option<equinox_noc::AuditConfig>,
    activity_gate: bool,
    mut watch: impl FnMut(&PacketTracker),
) -> LoadPoint {
    let n = placement.width;
    let mut cfg = NocConfig::mesh(n);
    cfg.activity_gate = activity_gate;
    let mut net = Network::new(cfg);
    if let Some(acfg) = audit {
        net.enable_audit(acfg);
    }
    let mut tracker = PacketTracker::new();
    let mut rng = Rng::seed_from_u64(seed);
    let pes: Vec<Coord> = placement.pe_tiles().collect();

    // Build the CB-side NIs.
    let (kind, groups) = match side {
        ReplySide::Local => (NiKind::Local, None),
        ReplySide::Equinox(design) => (NiKind::Equinox, Some(&design.selection.groups)),
    };
    let mut nets = vec![net];
    let mut nis: Vec<InjectionQueue> = placement
        .cbs
        .iter()
        .enumerate()
        .map(|(ci, &cb)| {
            let eirs = groups.map_or(&[][..], |g| &g[ci]);
            let policy = InjectPolicy::for_node(kind, &mut nets, &[0], cb, ci, eirs, None);
            InjectionQueue::new(cb, 16, policy)
        })
        .collect();

    let warmup = cycles / 5;
    // Sum and count of the measured packets' latencies: exact in u64.
    let (mut lat_sum, mut lat_count) = (0u64, 0u64);
    let mut ejected_flits = 0u64;

    for t in 0..(cycles + warmup) {
        for (ci, &cb) in placement.cbs.iter().enumerate() {
            if nis[ci].can_accept() && rng.random::<f64>() < offered {
                let dst = pes[rng.random_range(0..pes.len())];
                let msg = tracker.create(cb, dst, MessageClass::Reply, MemOpKind::Read, 0, t);
                nis[ci].push(msg);
            }
            // An idle NI's tick is a pure no-op (nothing queued, nothing
            // in flight), so the gate skips the call, as `System::step`
            // does.
            if !(activity_gate && nis[ci].is_idle()) {
                nis[ci].tick(&mut nets, &mut tracker, t);
            }
        }
        nets[0].step();
        // PEs drain instantly.
        nets[0].drain_ejected(|_, _, f| {
            if t >= warmup {
                ejected_flits += 1;
            }
            if f.is_tail() {
                let latency = tracker.mark_ejected(f.pkt.0, t);
                if t - latency >= warmup {
                    lat_sum += latency;
                    lat_count += 1;
                }
            }
        });
        // A tail's row is read only as it arrives, so the point keeps
        // just its live window of rows.
        tracker.retire();
        watch(&tracker);
    }
    let latency = if lat_count == 0 {
        f64::INFINITY
    } else {
        lat_sum as f64 / lat_count as f64
    };
    LoadPoint {
        offered,
        throughput: ejected_flits as f64 / cycles as f64,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_placement::Placement;

    #[test]
    fn latency_grows_with_load() {
        let p = Placement::diamond(8, 8, 8);
        let pts = load_latency_curve_cfg(&p, &ReplySide::Local, &[0.05, 0.5], 3_000, 1, None, true);
        assert!(pts[0].latency < pts[1].latency, "{pts:?}");
        assert!(pts[1].throughput > pts[0].throughput);
    }

    #[test]
    fn equinox_extends_saturation_throughput() {
        let design = EquiNoxDesign::quick(8, 8);
        let curve = |side: &ReplySide| {
            load_latency_curve_cfg(&design.placement, side, &[1.0], 4_000, 2, None, true)
        };
        let base = curve(&ReplySide::Local);
        let eq = curve(&ReplySide::Equinox(design.clone()));
        assert!(
            eq[0].throughput > 1.4 * base[0].throughput,
            "EquiNox {} vs local {} flits/cycle",
            eq[0].throughput,
            base[0].throughput
        );
    }

    #[test]
    fn a_saturated_point_holds_only_its_live_window() {
        // After `retire` the delivered prefix P is under max(RETIRE_MIN,
        // held / 2), and held = P + L for the live window L (the oldest
        // packet not yet ejected and every later one). So held <
        // max(RETIRE_MIN + L, 2L), and while L stays under RETIRE_MIN a
        // point holds under 2 · RETIRE_MIN rows, however long it runs.
        use crate::msg::RETIRE_MIN;
        let p = Placement::diamond(8, 8, 8);
        let (mut peak_held, mut peak_window, mut created) = (0, 0, 0);
        measure(&p, &ReplySide::Local, 1.0, 20_000, 3, None, true, |tr| {
            let window = (tr.len() as u64 - tr.oldest_live()) as usize;
            assert!(tr.held() < (RETIRE_MIN + window).max(2 * window), "{} rows, window {window}", tr.held());
            peak_held = peak_held.max(tr.held());
            peak_window = peak_window.max(window);
            created = tr.len();
        });
        // The live window is the network's, not the tracker's: about 190
        // packets here (8 CBs create at most 8 a cycle, and the oldest
        // live packet is some 120 cycles old).
        assert!(peak_window < RETIRE_MIN, "live window {peak_window}");
        assert!(peak_held < 2 * RETIRE_MIN, "{peak_held} rows held");
        assert!(created > 10 * 2 * RETIRE_MIN, "only {created} packets: the bound says nothing");
    }

    #[test]
    #[should_panic(expected = "cycles = 3579139413: ")]
    fn rejects_a_point_past_the_trackers_last_cycle() {
        let p = Placement::diamond(8, 8, 8);
        let cycles = equinox_config::LOADLAT_CYCLES_LIMIT + 1;
        let _ = load_latency_curve_cfg(&p, &ReplySide::Local, &[0.5], cycles, 1, None, true);
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn rejects_bad_rates() {
        let p = Placement::diamond(8, 8, 8);
        let _ = load_latency_curve_cfg(&p, &ReplySide::Local, &[1.5], 100, 1, None, true);
    }
}
