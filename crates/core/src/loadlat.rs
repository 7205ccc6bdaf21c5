//! Load–latency curves for the reply network.
//!
//! The classic NoC characterization: sweep the offered injection rate at
//! the CBs and measure average packet latency. The curve's knee is the
//! saturation point of the few-to-many injection path — the quantity
//! EquiNox's EIRs push to the right. Used by the `load_latency` example
//! and the saturation validation tests.

use equinox_noc::config::NocConfig;
use equinox_noc::flit::{Flit, MessageClass};
use equinox_noc::link::LinkKind;
use equinox_noc::network::{InjectorId, Network};
use equinox_phys::Coord;
use equinox_placement::Placement;
use equinox_exec::Rng;
use std::collections::HashMap;

use crate::design::EquiNoxDesign;
use crate::msg::{MemOpKind, PacketTracker};
use crate::ni::{InjectPolicy, InjectionQueue};

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
/// Panics if `placement` is not square or an offered rate is not in
/// `(0, 1]`.
#[allow(clippy::too_many_arguments)]
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
    for &rate in offered {
        assert!(rate > 0.0 && rate <= 1.0, "offered rate {rate} out of (0,1]");
    }
    equinox_exec::par_map(offered.to_vec(), |_, rate| {
        measure(placement, side, rate, cycles, seed, audit.clone(), activity_gate, None)
    })
}

/// [`load_latency_curve_cfg`] with a content-addressed warm-state cache:
/// each point's warm-up phase is snapshotted into `checkpoint_dir` (keyed
/// by placement, reply side, rate, seed, cycle budget and knobs) and
/// restored on later invocations, skipping the warm-up simulation
/// entirely. Sound because the simulation is bit-deterministic: the
/// restored state is byte-identical to the state a straight-through run
/// reaches at the warm-up boundary, so the measured phase — and the
/// returned curve — is bit-identical to [`load_latency_curve_cfg`]'s. A
/// corrupt or mismatched cache entry is ignored (the point runs cold and
/// rewrites it).
///
/// # Panics
///
/// Panics if `placement` is not square or an offered rate is not in
/// `(0, 1]`.
#[allow(clippy::too_many_arguments)]
pub fn load_latency_curve_checkpointed(
    placement: &Placement,
    side: &ReplySide,
    offered: &[f64],
    cycles: u64,
    seed: u64,
    audit: Option<equinox_noc::AuditConfig>,
    activity_gate: bool,
    checkpoint_dir: &str,
) -> Vec<LoadPoint> {
    assert_eq!(placement.width, placement.height, "square meshes only");
    for &rate in offered {
        assert!(rate > 0.0 && rate <= 1.0, "offered rate {rate} out of (0,1]");
    }
    let cache = equinox_snap::CheckpointCache::new(checkpoint_dir);
    equinox_exec::par_map(offered.to_vec(), |_, rate| {
        measure(
            placement,
            side,
            rate,
            cycles,
            seed,
            audit.clone(),
            activity_gate,
            Some(&cache),
        )
    })
}

/// Section tags of a load-latency warm checkpoint.
mod warm_tags {
    pub const NET: u32 = 1;
    pub const NIS: u32 = 2;
    pub const TRACKER: u32 = 3;
    pub const RNG: u32 = 4;
    pub const CREATED: u32 = 5;
}

/// Cache key for one measured point's warm state. Everything the warm
/// phase's evolution depends on goes in: the placement, the reply-side
/// structure (EIR groups for EquiNox), the offered rate (injection draws
/// compare against it every cycle, so warm state is rate-dependent), the
/// seed, the warm-up length and the audit/gating knobs.
fn warm_key(
    placement: &Placement,
    side: &ReplySide,
    offered: f64,
    cycles: u64,
    seed: u64,
    audit: &Option<equinox_noc::AuditConfig>,
    activity_gate: bool,
) -> u64 {
    let mut e = equinox_snap::Enc::new();
    e.put_u16(placement.width);
    e.put_u16(placement.height);
    e.put_usize(placement.cbs.len());
    for &cb in &placement.cbs {
        e.put_u16(cb.x);
        e.put_u16(cb.y);
    }
    match side {
        ReplySide::Local => e.put_u8(0),
        ReplySide::Equinox(design) => {
            e.put_u8(1);
            e.put_usize(design.selection.groups.len());
            for g in &design.selection.groups {
                e.put_usize(g.len());
                for &eir in g {
                    e.put_u16(eir.x);
                    e.put_u16(eir.y);
                }
            }
        }
    }
    e.put_f64(offered);
    e.put_u64(cycles);
    e.put_u64(seed);
    match audit {
        Some(a) => {
            e.put_u8(1);
            e.put_u64(a.check_interval);
            e.put_u64(a.watchdog_window);
            e.put_bool(a.panic_on_violation);
        }
        None => e.put_u8(0),
    }
    e.put_bool(activity_gate);
    equinox_snap::fnv1a(&e.into_bytes())
}

/// Serializes the warm-boundary state of one measured point.
fn warm_snapshot(
    net: &Network,
    nis: &[InjectionQueue],
    tracker: &PacketTracker,
    rng: &Rng,
    created: &HashMap<u64, u64>,
) -> Vec<u8> {
    use equinox_snap::{Enc, Snap};
    let mut ne = Enc::new();
    net.snapshot_state(&mut ne);
    let mut qe = Enc::new();
    qe.put_usize(nis.len());
    for ni in nis {
        ni.snap_state(&mut qe);
    }
    let mut te = Enc::new();
    tracker.snap(&mut te);
    let mut re = Enc::new();
    rng.snap(&mut re);
    let mut ce = Enc::new();
    let mut pairs: Vec<(u64, u64)> = created.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    pairs.snap(&mut ce);
    equinox_snap::write_snapshot(&[
        (warm_tags::NET, ne.into_bytes()),
        (warm_tags::NIS, qe.into_bytes()),
        (warm_tags::TRACKER, te.into_bytes()),
        (warm_tags::RNG, re.into_bytes()),
        (warm_tags::CREATED, ce.into_bytes()),
    ])
}

/// Restores a [`warm_snapshot`] into a freshly-built point simulation.
fn warm_restore(
    bytes: &[u8],
    nets: &mut [Network],
    nis: &mut [InjectionQueue],
) -> Result<(PacketTracker, Rng, HashMap<u64, u64>), equinox_snap::SnapError> {
    use equinox_snap::{read_snapshot, section, Dec, Snap, SnapError};
    let sections = read_snapshot(bytes)?;
    let mut d = Dec::new(section(&sections, warm_tags::NET)?);
    nets[0].restore_state(&mut d)?;
    d.finish()?;
    let mut d = Dec::new(section(&sections, warm_tags::NIS)?);
    if d.usize()? != nis.len() {
        return Err(SnapError::BadValue("warm checkpoint NI count"));
    }
    for ni in nis.iter_mut() {
        ni.restore_state(&mut d, nets)?;
    }
    d.finish()?;
    let mut d = Dec::new(section(&sections, warm_tags::TRACKER)?);
    let tracker = PacketTracker::restore(&mut d)?;
    d.finish()?;
    let mut d = Dec::new(section(&sections, warm_tags::RNG)?);
    let rng = Rng::restore(&mut d)?;
    d.finish()?;
    let mut d = Dec::new(section(&sections, warm_tags::CREATED)?);
    let pairs: Vec<(u64, u64)> = Vec::restore(&mut d)?;
    d.finish()?;
    Ok((tracker, rng, pairs.into_iter().collect()))
}

#[allow(clippy::too_many_arguments)]
fn measure(
    placement: &Placement,
    side: &ReplySide,
    offered: f64,
    cycles: u64,
    seed: u64,
    audit: Option<equinox_noc::AuditConfig>,
    activity_gate: bool,
    cache: Option<&equinox_snap::CheckpointCache>,
) -> LoadPoint {
    let n = placement.width;
    let mut cfg = NocConfig::mesh(n);
    cfg.activity_gate = activity_gate;
    let mut net = Network::mesh(cfg);
    if let Some(acfg) = audit.clone() {
        net.enable_audit(acfg);
    }
    let mut tracker = PacketTracker::new();
    let mut rng = Rng::seed_from_u64(seed);
    let pes: Vec<Coord> = placement.pe_tiles().collect();

    // Build the CB-side NIs.
    let mut nis: Vec<InjectionQueue> = placement
        .cbs
        .iter()
        .enumerate()
        .map(|(ci, &cb)| {
            let policy = match side {
                ReplySide::Local => InjectPolicy::Local { net: 0 },
                ReplySide::Equinox(design) => {
                    let eirs: Vec<(Coord, InjectorId)> = design.selection.groups[ci]
                        .iter()
                        .map(|&e| (e, net.add_injection_port(e, 1, LinkKind::Interposer)))
                        .collect();
                    InjectPolicy::Equinox {
                        net: 0,
                        local: net.local_injector(cb),
                        eirs,
                        rr: 0,
                    }
                }
            };
            InjectionQueue::new(cb, 16, policy)
        })
        .collect();

    let warmup = cycles / 5;
    let mut done_lat: Vec<u64> = Vec::new();
    let mut ejected_flits = 0u64;
    let mut created: HashMap<u64, u64> = HashMap::new();
    let mut nets = vec![net];

    // Resume from a cached warm checkpoint when one matches; otherwise
    // run the warm-up cold and leave a checkpoint behind for next time.
    let key = cache.map(|_| warm_key(placement, side, offered, cycles, seed, &audit, activity_gate));
    let mut start = 0u64;
    if let (Some(c), Some(k)) = (cache, key) {
        if let Ok(Some(bytes)) = c.load("warm", k) {
            if let Ok((t, r, m)) = warm_restore(&bytes, &mut nets, &mut nis) {
                tracker = t;
                rng = r;
                created = m;
                start = warmup;
            }
        }
    }

    for t in start..(cycles + warmup) {
        if t == warmup && start == 0 {
            if let (Some(c), Some(k)) = (cache, key) {
                let _ = c.store("warm", k, &warm_snapshot(&nets[0], &nis, &tracker, &rng, &created));
            }
        }
        for (ci, &cb) in placement.cbs.iter().enumerate() {
            if nis[ci].can_accept() && rng.random::<f64>() < offered {
                let dst = pes[rng.random_range(0..pes.len())];
                let msg = tracker.create(cb, dst, MessageClass::Reply, MemOpKind::Read, 0, t);
                created.insert(msg.id, t);
                nis[ci].push(msg);
            }
            nis[ci].tick(&mut nets, &mut tracker, t);
        }
        nets[0].step();
        // With nothing in any eject queue (O(1) check) no pop can
        // succeed, so the sinks are skipped wholesale.
        if !nets[0].has_ejected() {
            continue;
        }
        for &pe in &pes {
            while let Some(f) = sink(&mut nets[0], pe) {
                if t >= warmup {
                    ejected_flits += 1;
                }
                if f.is_tail() {
                    // Dropping the entry here bounds the map at the number
                    // of packets in flight instead of growing one entry
                    // per packet ever created.
                    if let Some(c) = created.remove(&f.pkt.0) {
                        if c >= warmup {
                            done_lat.push(t - c);
                        }
                    }
                }
            }
        }
    }
    let latency = if done_lat.is_empty() {
        f64::INFINITY
    } else {
        done_lat.iter().sum::<u64>() as f64 / done_lat.len() as f64
    };
    LoadPoint {
        offered,
        throughput: ejected_flits as f64 / cycles as f64,
        latency,
    }
}

fn sink(net: &mut Network, pe: Coord) -> Option<Flit> {
    net.pop_ejected_node(pe)
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
    fn checkpointed_curve_is_bit_identical_to_straight_through() {
        let dir = std::env::temp_dir().join(format!("eqsn_loadlat_{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let design = EquiNoxDesign::quick(8, 8);
        let rates = [0.1, 0.9];
        for side in [ReplySide::Local, ReplySide::Equinox(design.clone())] {
            let straight =
                load_latency_curve_cfg(&design.placement, &side, &rates, 2_500, 7, None, true);
            // Cold pass populates the warm cache; warm pass resumes from it.
            let cold = load_latency_curve_checkpointed(
                &design.placement, &side, &rates, 2_500, 7, None, true, &dir_s,
            );
            let warm = load_latency_curve_checkpointed(
                &design.placement, &side, &rates, 2_500, 7, None, true, &dir_s,
            );
            assert_eq!(straight, cold);
            assert_eq!(straight, warm);
        }
        let n_ckpts = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(n_ckpts, 4, "one warm checkpoint per (side, rate)");
        // Corrupt every checkpoint: points must fall back to cold runs
        // (rewriting the entries) and still produce the exact curve.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), b"garbage").unwrap();
        }
        let straight =
            load_latency_curve_cfg(&design.placement, &ReplySide::Local, &rates, 2_500, 7, None, true);
        let recovered = load_latency_curve_checkpointed(
            &design.placement, &ReplySide::Local, &rates, 2_500, 7, None, true, &dir_s,
        );
        assert_eq!(straight, recovered);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn rejects_bad_rates() {
        let p = Placement::diamond(8, 8, 8);
        let _ = load_latency_curve_cfg(&p, &ReplySide::Local, &[1.5], 100, 1, None, true);
    }
}
