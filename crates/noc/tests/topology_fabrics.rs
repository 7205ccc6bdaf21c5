//! Network-level tests for the non-mesh reply fabrics (ring and
//! hierarchical ring): randomized delivery, saturating many-to-one
//! drains under the strict auditor, and snapshot round-trips including
//! cross-topology rejection.
//!
//! The mesh has golden-trace coverage; these fabrics are validated by
//! property instead — every packet delivered exactly once, in order,
//! with the network draining to quiescence while the per-cycle audit
//! (credit conservation, escape compliance, watchdog) runs in panic
//! mode.

use equinox_exec::Rng;
use equinox_noc::config::{NocConfig, RoutingKind};
use equinox_noc::flit::{Flit, MessageClass, PacketDesc};
use equinox_noc::network::Network;
use equinox_noc::{AuditConfig, TopologyKind};
use equinox_phys::Coord;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Traffic {
    src: Coord,
    dst: Coord,
    len: u16,
    class: MessageClass,
}

fn random_traffic(w: u16, h: u16, max_packets: usize, rng: &mut Rng) -> Vec<Traffic> {
    let count = rng.random_range(1..max_packets);
    (0..count)
        .map(|_| loop {
            let src = Coord::new(rng.random_range(0..w), rng.random_range(0..h));
            let dst = Coord::new(rng.random_range(0..w), rng.random_range(0..h));
            if src == dst {
                continue;
            }
            break Traffic {
                src,
                dst,
                len: rng.random_range(1u16..6),
                class: if rng.random::<bool>() {
                    MessageClass::Reply
                } else {
                    MessageClass::Request
                },
            };
        })
        .collect()
}

/// Drives a packet set through the network under the strict auditor and
/// checks delivery, exactly-once semantics, in-order flits per packet,
/// and drain to quiescence.
fn exercise(mut net: Network, packets: Vec<Traffic>) {
    net.enable_audit(AuditConfig::strict());
    let w = net.width();
    let mut sources: Vec<(Coord, Vec<Flit>)> = packets
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut flits = PacketDesc::new(i as u64, t.src, t.dst, t.class, t.len).flits(w);
            flits.reverse();
            (t.src, flits)
        })
        .collect();
    let mut got: BTreeMap<u64, u16> = BTreeMap::new();
    let mut last_seq: BTreeMap<u64, i32> = BTreeMap::new();
    let budget = 6_000 + 300 * packets.len() as u64;
    for _ in 0..budget {
        for (src, flits) in sources.iter_mut() {
            if let Some(&f) = flits.last() {
                let inj = net.local_injector(*src);
                if net.try_inject_flit(inj, f) {
                    flits.pop();
                }
            }
        }
        net.step();
        for t in &packets {
            while let Some(f) = net.pop_ejected_node(t.dst) {
                let prev = last_seq.insert(f.pkt.0, f.seq as i32);
                assert!(
                    prev.is_none_or(|p| p < f.seq as i32),
                    "flit reordering within packet {}",
                    f.pkt.0
                );
                *got.entry(f.pkt.0).or_insert(0) += 1;
            }
        }
        if got.len() == packets.len() && got.iter().all(|(id, &c)| c == packets[*id as usize].len)
        {
            break;
        }
    }
    for (i, t) in packets.iter().enumerate() {
        assert_eq!(
            got.get(&(i as u64)).copied().unwrap_or(0),
            t.len,
            "packet {i} incomplete"
        );
    }
    assert!(net.quiescent(), "network must drain");
    assert!(net.audit_violations().is_empty());
    let s = net.stats();
    assert_eq!(s.injected_flits, s.ejected_flits);
    assert_eq!(s.buffer_reads, s.xbar_traversals);
}

fn fabric_cfg(kind: TopologyKind, w: u16, h: u16, routing: RoutingKind) -> NocConfig {
    let mut cfg = NocConfig::fabric(kind, w.max(h));
    cfg.width = w;
    cfg.height = h;
    cfg.routing = routing;
    cfg
}

const CASES: u64 = 16;

#[test]
fn ring_delivers_random_traffic_both_routings() {
    for routing in [RoutingKind::MinimalAdaptive, RoutingKind::Xy] {
        for case in 0..CASES {
            let mut rng = Rng::stream(0x21, case);
            let packets = random_traffic(4, 4, 20, &mut rng);
            exercise(
                Network::new(fabric_cfg(TopologyKind::Ring, 4, 4, routing)),
                packets,
            );
        }
    }
}

#[test]
fn ring_rectangular_delivers() {
    for case in 0..CASES {
        let mut rng = Rng::stream(0x22, case);
        let packets = random_traffic(5, 3, 16, &mut rng);
        exercise(
            Network::new(fabric_cfg(
                TopologyKind::Ring,
                5,
                3,
                RoutingKind::MinimalAdaptive,
            )),
            packets,
        );
    }
}

#[test]
fn hring_delivers_random_traffic_both_routings() {
    for routing in [RoutingKind::MinimalAdaptive, RoutingKind::Xy] {
        for case in 0..CASES {
            let mut rng = Rng::stream(0x23, case);
            let packets = random_traffic(4, 4, 20, &mut rng);
            exercise(
                Network::new(fabric_cfg(TopologyKind::HierRing, 4, 4, routing)),
                packets,
            );
        }
    }
}

#[test]
fn hring_rectangular_delivers() {
    for case in 0..CASES {
        let mut rng = Rng::stream(0x24, case);
        let packets = random_traffic(5, 3, 16, &mut rng);
        exercise(
            Network::new(fabric_cfg(
                TopologyKind::HierRing,
                5,
                3,
                RoutingKind::MinimalAdaptive,
            )),
            packets,
        );
    }
}

/// Saturating many-to-one: every node floods packets at one hotspot
/// while the strict auditor sweeps every cycle, then injection stops
/// and the network must drain. This is the adversarial pattern that
/// exposes escape-channel deadlocks — the hotspot's ejection queue
/// backs traffic up across the whole fabric.
fn saturate_one_hotspot(kind: TopologyKind, routing: RoutingKind) {
    let mut net = Network::new(fabric_cfg(kind, 4, 4, routing));
    net.enable_audit(AuditConfig::strict());
    let w = net.width();
    let hotspot = Coord::new(0, 0);
    let mut id = 0u64;
    let mut queues: Vec<(Coord, Vec<Flit>)> = (0..net.height())
        .flat_map(|y| (0..w).map(move |x| Coord::new(x, y)))
        .filter(|&c| c != hotspot)
        .map(|src| {
            let mut flits = Vec::new();
            for _ in 0..4 {
                let mut f =
                    PacketDesc::new(id, src, hotspot, MessageClass::Reply, 5).flits(w);
                id += 1;
                flits.append(&mut f);
            }
            flits.reverse();
            (src, flits)
        })
        .collect();
    let expect: u64 = queues.iter().map(|(_, q)| q.len() as u64).sum();
    let mut got = 0u64;
    for _ in 0..30_000 {
        for (src, flits) in queues.iter_mut() {
            if let Some(&f) = flits.last() {
                let inj = net.local_injector(*src);
                if net.try_inject_flit(inj, f) {
                    flits.pop();
                }
            }
        }
        net.step();
        while net.pop_ejected_node(hotspot).is_some() {
            got += 1;
        }
        if got == expect && net.quiescent() {
            break;
        }
    }
    assert_eq!(got, expect, "hotspot must receive every flit");
    assert!(net.quiescent(), "network must drain after injection stops");
    assert!(net.audit_violations().is_empty());
}

#[test]
fn ring_saturating_hotspot_drains_under_audit() {
    saturate_one_hotspot(TopologyKind::Ring, RoutingKind::MinimalAdaptive);
    saturate_one_hotspot(TopologyKind::Ring, RoutingKind::Xy);
}

#[test]
fn hring_saturating_hotspot_drains_under_audit() {
    saturate_one_hotspot(TopologyKind::HierRing, RoutingKind::MinimalAdaptive);
    saturate_one_hotspot(TopologyKind::HierRing, RoutingKind::Xy);
}

/// Snapshots a ring mid-flight, keeps running the original, restores
/// the snapshot into a fresh network and runs it the same number of
/// cycles: both must finish with identical statistics (the snapshot
/// captures the complete dynamic state).
#[test]
fn ring_snapshot_round_trip_mid_flight() {
    let cfg = fabric_cfg(TopologyKind::Ring, 4, 4, RoutingKind::MinimalAdaptive);
    let mut net = Network::new(cfg.clone());
    let w = net.width();
    let mut rng = Rng::stream(0x25, 7);
    let packets = random_traffic(4, 4, 20, &mut rng);
    let mut sources: Vec<(Coord, Vec<Flit>)> = packets
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut flits = PacketDesc::new(i as u64, t.src, t.dst, t.class, t.len).flits(w);
            flits.reverse();
            (t.src, flits)
        })
        .collect();
    // Inject everything and run a handful of cycles so flits are in
    // flight, then snapshot.
    for _ in 0..6 {
        for (src, flits) in sources.iter_mut() {
            if let Some(&f) = flits.last() {
                let inj = net.local_injector(*src);
                if net.try_inject_flit(inj, f) {
                    flits.pop();
                }
            }
        }
        net.step();
    }
    let mut enc = equinox_snap::Enc::new();
    net.snapshot_state(&mut enc);
    let bytes = enc.into_bytes();

    let drain = |net: &mut Network| {
        for _ in 0..4_000 {
            net.step();
            for y in 0..net.height() {
                for x in 0..net.width() {
                    while net.pop_ejected_node(Coord::new(x, y)).is_some() {}
                }
            }
            if net.quiescent() {
                break;
            }
        }
    };

    drain(&mut net);
    assert!(net.quiescent());

    let mut restored = Network::new(cfg);
    let mut dec = equinox_snap::Dec::new(&bytes);
    restored
        .restore_state(&mut dec)
        .expect("restore into identically configured network");
    drain(&mut restored);
    assert!(restored.quiescent());
    assert_eq!(net.stats(), restored.stats(), "divergent replay after restore");
}

/// A snapshot taken on one fabric must refuse to restore into another,
/// even at identical dimensions — link and port meanings differ.
#[test]
fn restore_rejects_cross_topology_snapshots() {
    let mut ring = Network::new(fabric_cfg(
        TopologyKind::Ring,
        4,
        4,
        RoutingKind::MinimalAdaptive,
    ));
    let mut enc = equinox_snap::Enc::new();
    ring.snapshot_state(&mut enc);
    let bytes = enc.into_bytes();

    let mut mesh = Network::new(NocConfig::mesh(4));
    let mut dec = equinox_snap::Dec::new(&bytes);
    assert!(matches!(
        mesh.restore_state(&mut dec),
        Err(equinox_snap::SnapError::BadValue("snapshot topology kind"))
    ));

    // Same fabric, different dimensions: also rejected.
    let mut small = Network::new(fabric_cfg(
        TopologyKind::Ring,
        4,
        3,
        RoutingKind::MinimalAdaptive,
    ));
    let mut dec = equinox_snap::Dec::new(&bytes);
    assert!(matches!(
        small.restore_state(&mut dec),
        Err(equinox_snap::SnapError::BadValue("snapshot grid dimensions"))
    ));
    let _ = ring.pop_ejected_node(Coord::new(0, 0));
}
