//! Fault-injection tests for the invariant auditor and watchdog.
//!
//! A clean network must pass the strictest audit silently; a seeded
//! fault (leaked credit, dropped flit) must be detected at the next
//! sweep; a wedged network must produce a structured deadlock report
//! within the watchdog window instead of hanging.

use equinox_noc::config::NocConfig;
use equinox_noc::flit::{Flit, MessageClass, PacketDesc};
use equinox_noc::network::Network;
use equinox_noc::{AuditConfig, Violation};
use equinox_phys::Coord;
use std::collections::VecDeque;

/// Streams `packets` 5-flit reply packets along each `(src, dst)` flow,
/// popping every node's ejection queue each cycle. Returns the number of
/// flits that arrived.
fn drive(net: &mut Network, flows: &[(Coord, Coord)], packets: usize, cycles: u64) -> u64 {
    let width = net.width();
    let mut id = 0u64;
    let mut queues: Vec<(equinox_noc::InjectorId, VecDeque<Flit>)> = flows
        .iter()
        .map(|&(src, dst)| {
            let inj = net.local_injector(src);
            let mut q = VecDeque::new();
            for _ in 0..packets {
                let desc = PacketDesc::new(id, src, dst, MessageClass::Reply, 5);
                id += 1;
                q.extend(desc.flits(width));
            }
            (inj, q)
        })
        .collect();
    let mut got = 0u64;
    for _ in 0..cycles {
        for (inj, q) in &mut queues {
            if let Some(&f) = q.front() {
                if net.try_inject_flit(*inj, f) {
                    q.pop_front();
                }
            }
        }
        net.step();
        for y in 0..net.height() {
            for x in 0..net.width() {
                while net.pop_ejected_node(Coord::new(x, y)).is_some() {
                    got += 1;
                }
            }
        }
    }
    got
}

fn crossing_flows() -> Vec<(Coord, Coord)> {
    vec![
        (Coord::new(0, 0), Coord::new(3, 3)),
        (Coord::new(3, 0), Coord::new(0, 3)),
        (Coord::new(0, 3), Coord::new(3, 0)),
        (Coord::new(1, 2), Coord::new(2, 1)),
    ]
}

#[test]
fn clean_traffic_passes_strict_audit() {
    let mut net = Network::new(NocConfig::mesh(4));
    // Per-cycle sweeps, panic on the first violation: a healthy network
    // must run this gauntlet silently.
    net.enable_audit(AuditConfig::strict());
    let got = drive(&mut net, &crossing_flows(), 6, 2_000);
    assert_eq!(got, 4 * 6 * 5, "all flits delivered under audit");
    assert!(net.audit_sweeps() >= 1_000, "sweeps actually ran");
    assert!(net.audit_violations().is_empty());
}

#[test]
fn auditor_detects_a_leaked_credit() {
    let mut net = Network::new(NocConfig::mesh(4));
    let cfg = AuditConfig {
        panic_on_violation: false,
        ..AuditConfig::strict()
    };
    net.enable_audit(cfg);
    assert!(
        net.fault_leak_credit(Coord::new(1, 1), 0),
        "fault hook found a credit to leak"
    );
    net.step();
    let vs = net.audit_violations();
    assert!(
        vs.iter()
            .any(|v| matches!(v, Violation::CreditConservation { .. })),
        "expected a credit-conservation violation, got {vs:?}"
    );
}

#[test]
fn auditor_detects_a_dropped_flit() {
    let mut net = Network::new(NocConfig::mesh(4));
    let cfg = AuditConfig {
        panic_on_violation: false,
        ..AuditConfig::strict()
    };
    net.enable_audit(cfg);
    // Single-cycle routers forward an uncontended flit the same step it
    // arrives, so between steps the buffers are empty. Flood one sink
    // without draining it: once its ejection queue fills, flits park in
    // the router buffers and stay there across the step boundary.
    let inj = net.local_injector(Coord::new(0, 0));
    let width = net.width();
    let mut flits: VecDeque<Flit> = VecDeque::new();
    for id in 0..8 {
        let desc = PacketDesc::new(id, Coord::new(0, 0), Coord::new(3, 3), MessageClass::Reply, 5);
        flits.extend(desc.flits(width));
    }
    let mut dropped = false;
    for _ in 0..200 {
        if let Some(&f) = flits.front() {
            if net.try_inject_flit(inj, f) {
                flits.pop_front();
            }
        }
        if net.buffered_flits() > 0 {
            'search: for y in 0..4 {
                for x in 0..4 {
                    if net.fault_drop_flit(Coord::new(x, y)) {
                        dropped = true;
                        break 'search;
                    }
                }
            }
        }
        net.step();
        if dropped {
            break;
        }
    }
    assert!(dropped, "traffic never reached a router buffer");
    let vs = net.audit_violations();
    assert!(
        vs.iter()
            .any(|v| matches!(v, Violation::FlitConservation { .. })),
        "expected a flit-conservation violation, got {vs:?}"
    );
}

#[test]
fn watchdog_diagnoses_a_wedged_network() {
    let mut net = Network::new(NocConfig::mesh(4));
    net.enable_audit(AuditConfig {
        check_interval: 64,
        watchdog_window: 200,
        panic_on_violation: false,
    });
    // Everyone floods node (0,0) and nobody ever drains its ejection
    // queue: the queue fills (cap 16), backpressure freezes the mesh,
    // and progress stops with work very much pending.
    let flows = [
        (Coord::new(3, 3), Coord::new(0, 0)),
        (Coord::new(0, 3), Coord::new(0, 0)),
        (Coord::new(3, 0), Coord::new(0, 0)),
        (Coord::new(1, 1), Coord::new(0, 0)),
    ];
    let width = net.width();
    let mut id = 0u64;
    let mut queues: Vec<(equinox_noc::InjectorId, VecDeque<Flit>)> = flows
        .iter()
        .map(|&(src, dst)| {
            let inj = net.local_injector(src);
            let mut q = VecDeque::new();
            for _ in 0..4 {
                let desc = PacketDesc::new(id, src, dst, MessageClass::Reply, 5);
                id += 1;
                q.extend(desc.flits(width));
            }
            (inj, q)
        })
        .collect();
    for _ in 0..1_000 {
        for (inj, q) in &mut queues {
            if let Some(&f) = q.front() {
                if net.try_inject_flit(*inj, f) {
                    q.pop_front();
                }
            }
        }
        net.step();
        // No pops: the sink is wedged.
    }
    let vs = net.audit_violations();
    let report = vs
        .iter()
        .find_map(|v| match v {
            Violation::Deadlock(r) => Some(r),
            _ => None,
        })
        .expect("watchdog fired within the window");
    assert!(report.stalled_for >= 200);
    assert!(report.eject_flits > 0, "the full ejection queue shows up");
    assert!(
        !report.stuck.is_empty(),
        "head-of-line flits are named: {report:?}"
    );
    assert!(
        report.stuck.iter().all(|s| s.dst == Coord::new(0, 0)),
        "every stuck flit heads for the wedged sink"
    );
}

#[test]
#[should_panic(expected = "credit conservation")]
fn audit_panics_on_violation_by_default() {
    let mut net = Network::new(NocConfig::mesh(4));
    net.enable_audit(AuditConfig::strict());
    assert!(net.fault_leak_credit(Coord::new(2, 2), 1));
    net.step();
}
