//! Randomized (but fully deterministic, seeded) tests of the NoC
//! simulator's core guarantees: every injected packet is delivered
//! exactly once, the network drains, and the event accounting balances
//! — under randomized traffic from the in-repo PRNG.

use equinox_exec::Rng;
use equinox_noc::config::{NocConfig, RoutingKind, VcPartition};
use equinox_noc::flit::{Flit, MessageClass, PacketDesc};
use equinox_noc::network::{InjectorId, Network};
use equinox_noc::{LinkKind, TopologyKind};
use equinox_phys::Coord;
use equinox_snap::Enc;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Traffic {
    src: Coord,
    dst: Coord,
    len: u16,
    class: MessageClass,
}

/// One random packet on an `n`×`n` mesh with distinct endpoints.
fn traffic(n: u16, rng: &mut Rng) -> Traffic {
    loop {
        let src = Coord::new(rng.random_range(0..n), rng.random_range(0..n));
        let dst = Coord::new(rng.random_range(0..n), rng.random_range(0..n));
        if src == dst {
            continue;
        }
        return Traffic {
            src,
            dst,
            len: rng.random_range(1u16..6),
            class: if rng.random::<bool>() {
                MessageClass::Reply
            } else {
                MessageClass::Request
            },
        };
    }
}

fn traffic_vec(n: u16, max_packets: usize, rng: &mut Rng) -> Vec<Traffic> {
    let count = rng.random_range(1..max_packets);
    (0..count).map(|_| traffic(n, rng)).collect()
}

/// Drives a random packet set through the network and checks delivery,
/// exactly-once semantics, in-order flits per packet, and drain.
fn exercise(mut net: Network, packets: Vec<Traffic>) {
    let n = net.width();
    let mut sources: Vec<(Coord, Vec<Flit>)> = packets
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut flits = PacketDesc::new(i as u64, t.src, t.dst, t.class, t.len).flits(n);
            flits.reverse();
            (t.src, flits)
        })
        .collect();
    let mut got: BTreeMap<u64, u16> = BTreeMap::new();
    let mut last_seq: BTreeMap<u64, i32> = BTreeMap::new();
    let budget = 4_000 + 200 * packets.len() as u64;
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
    let s = net.stats();
    assert_eq!(s.injected_flits, s.ejected_flits);
    assert_eq!(s.buffer_reads, s.xbar_traversals);
}

const CASES: u64 = 24;

#[test]
fn adaptive_mesh_delivers_everything() {
    for case in 0..CASES {
        let mut rng = Rng::stream(0xAD, case);
        let packets = traffic_vec(5, 24, &mut rng);
        exercise(Network::new(NocConfig::mesh(5)), packets);
    }
}

#[test]
fn xy_mesh_delivers_everything() {
    for case in 0..CASES {
        let mut rng = Rng::stream(0x01, case);
        let packets = traffic_vec(5, 24, &mut rng);
        let mut cfg = NocConfig::mesh(5);
        cfg.routing = RoutingKind::Xy;
        exercise(Network::new(cfg), packets);
    }
}

#[test]
fn single_network_with_classes_delivers() {
    for case in 0..CASES {
        let mut rng = Rng::stream(0x51, case);
        let packets = traffic_vec(4, 16, &mut rng);
        exercise(Network::new(NocConfig::single_net(4, false)), packets);
    }
}

#[test]
fn vc_mono_delivers() {
    for case in 0..CASES {
        let mut rng = Rng::stream(0x7C, case);
        let packets = traffic_vec(4, 16, &mut rng);
        exercise(Network::new(NocConfig::single_net(4, true)), packets);
    }
}

/// The ejection cursor against the loop it replaced: one network is
/// drained through `next_ejecting`, its twin by polling every
/// `(router, port)` in ascending order, under the same random traffic —
/// both classes, a tagged extra ejection port on one router (how the
/// concentrated mesh attaches its nodes) and sinks that refuse to pop
/// on some cycles, so queues back up to their cap and flits are left
/// parked across steps. Both must hand over the same flits, from the
/// same ports, in the same order, on the same cycles.
#[test]
fn ejection_cursor_hands_over_what_polling_every_port_does() {
    const N: u16 = 4;
    const TAG: u32 = 77;
    let tagged_node = Coord::new(1, 2);
    let build = || {
        let mut net = Network::new(NocConfig::single_net(N, false));
        let tagged = net.add_ejection_port(tagged_node, Some(TAG));
        (net, tagged)
    };
    let ((mut cursor, tagged), (mut polled, _)) = (build(), build());
    let nodes: Vec<Coord> = (0..(N * N) as usize).map(|i| Coord::from_index(i, N)).collect();
    // A sink that declines: shut for two cycles out of every seven,
    // staggered by port so open and shut ports sit side by side.
    let open = |r: usize, p: usize, t: u64| t >= 2_500 || (t + 3 * r as u64 + p as u64) % 7 >= 2;

    let mut rng = Rng::stream(0xE1EC, 0);
    let mut streams: Vec<Vec<Flit>> = vec![Vec::new(); nodes.len()];
    let mut next_id = 0;
    let (mut from_cursor, mut from_polling) = (Vec::new(), Vec::new());
    let mut declined_with_flits_parked = 0;
    for t in 0..3_000u64 {
        for (k, &src) in nodes.iter().enumerate() {
            if streams[k].is_empty() && t < 2_000 && rng.random::<f64>() < 0.4 {
                let tr = traffic(N, &mut rng);
                if tr.dst == src {
                    continue;
                }
                let tag = tr.dst == tagged_node && rng.random::<bool>();
                streams[k] = PacketDesc::new(next_id, src, tr.dst, tr.class, tr.len)
                    .flits(N)
                    .into_iter()
                    .map(|f| if tag { f.with_sink(TAG) } else { f })
                    .rev()
                    .collect();
                next_id += 1;
            }
            if let Some(&f) = streams[k].last() {
                let (a, b) = (cursor.local_injector(src), polled.local_injector(src));
                let accepted = cursor.try_inject_flit(a, f);
                assert_eq!(accepted, polled.try_inject_flit(b, f), "cycle {t}: back-pressure differs");
                if accepted {
                    streams[k].pop();
                }
            }
        }
        cursor.step();
        polled.step();

        let mut at = 0;
        while let Some((r, mut ports)) = cursor.next_ejecting(at) {
            at = r + 1;
            while ports != 0 {
                let p = ports.trailing_zeros() as usize;
                ports &= ports - 1;
                if !open(r, p, t) {
                    declined_with_flits_parked += 1;
                    continue;
                }
                while let Some(f) = cursor.pop_ejected(r, p) {
                    from_cursor.push((t, r, p, f));
                }
            }
        }
        for (r, &node) in nodes.iter().enumerate() {
            for p in (0..polled.router_ports(node)).filter(|&p| open(r, p, t)) {
                while let Some(f) = polled.pop_ejected(r, p) {
                    from_polling.push((t, r, p, f));
                }
            }
        }
        assert_eq!(from_cursor.len(), from_polling.len(), "cycle {t}");
        assert_eq!(cursor.has_ejected(), polled.has_ejected(), "cycle {t}");
    }
    assert!(from_cursor == from_polling, "the two drains handed over different flit sequences");
    assert!(from_cursor.len() > 3_000, "only {} flits crossed", from_cursor.len());
    assert!(
        from_cursor.iter().any(|&(_, r, p, _)| (r, p) == tagged),
        "nothing left through the tagged port"
    );
    assert!(declined_with_flits_parked > 100, "the shut sinks never left a flit parked");
    assert!(cursor.quiescent() && polled.quiescent(), "traffic must drain");
    assert_eq!(cursor.stats(), polled.stats());
    assert_eq!(cursor.next_ejecting(0), None);
}

/// One network of a [`blocked_heads_are_skipped_exactly`] case: its
/// injection points `(injector, node)` and the destinations packets draw
/// from, `(node, sink tag)`.
type Case = (Network, Vec<(InjectorId, Coord)>, Vec<(Coord, Option<u32>)>);
type Build = fn(NocConfig) -> Case;

/// Every node injects at its local port and may be sent to.
fn plain(cfg: NocConfig) -> Case {
    let net = Network::new(cfg);
    let nodes: Vec<Coord> = (0..net.width() * net.height())
        .map(|i| Coord::from_index(i as usize, net.width()))
        .collect();
    let injectors = nodes.iter().map(|&c| (net.local_injector(c), c)).collect();
    (net, injectors, nodes.into_iter().map(|c| (c, None)).collect())
}

/// Interposer-CMesh's shape: 2×2 routers with four VCs in two class
/// partitions, each concentrating four nodes of a 4×4 grid through four
/// extra injection ports and four sink-tagged ejection ports (13 ports),
/// the routers' own local ejection neutralised.
fn concentrated(cfg: NocConfig) -> Case {
    let mut net = Network::new(cfg);
    for r in 0..4 {
        net.set_ejection_sink(r, 4, Some(u32::MAX));
    }
    let (mut injectors, mut dsts) = (Vec::new(), Vec::new());
    for idx in 0..16u32 {
        let node = Coord::from_index(idx as usize, 4);
        let cnode = Coord::new(node.x / 2, node.y / 2);
        injectors.push((net.add_injection_port(cnode, 1, LinkKind::Interposer), cnode));
        net.add_ejection_port(cnode, Some(idx));
        dsts.push((cnode, Some(idx)));
    }
    (net, injectors, dsts)
}

/// Blocked heads are skipped exactly. A gated network, which records a
/// blocked head's want and skips the head until an output VC it wants is
/// free and ready, runs next to an exhaustive twin, which re-tries every
/// head every cycle, under random back-pressured load: both classes,
/// sinks that stay shut five cycles in nine, ejection queues of two (so a
/// port's VCs are free while its full queue is not ready).
/// After every step the twins have made the same grants (equal stats,
/// stall charges included), and every head the twin tried the gated
/// network either tried or skipped. In debug builds each skip re-runs the
/// allocator and requires a refusal, and each re-try of a wanted head
/// requires a grant — so a grant happened exactly when `avail & want` was
/// non-empty. Covers the mesh and both ring fabrics at one to four VCs,
/// two extra pipeline stages, VC-Mono and the concentrated mesh's tagged
/// ejection ports.
#[test]
fn blocked_heads_are_skipped_exactly() {
    let with = |topology: TopologyKind, vcs: u8| {
        let mut cfg = NocConfig::fabric(topology, 4);
        cfg.vcs_per_port = vcs;
        cfg.eject_cap = 2;
        cfg.pipeline_extra = if vcs == 3 { 2 } else { 0 };
        cfg
    };
    let mut cases: Vec<(String, NocConfig, Build)> = Vec::new();
    for topology in [TopologyKind::Mesh, TopologyKind::Ring, TopologyKind::HierRing] {
        for vcs in 1..=4 {
            cases.push((format!("{topology:?} {vcs} VCs"), with(topology, vcs), plain));
        }
    }
    let mut mono4 = with(TopologyKind::Mesh, 4);
    mono4.partition = VcPartition::ByClass { request: 0..2, reply: 2..4, mono: true };
    cases.push(("VC-Mono 2 VCs".into(), NocConfig::single_net(4, true), plain));
    cases.push(("VC-Mono 4 VCs".into(), mono4, plain));
    let mut cmesh = NocConfig::mesh(2);
    cmesh.vcs_per_port = 4;
    cmesh.vc_buf_flits = 3;
    cmesh.eject_cap = 2;
    cmesh.partition = VcPartition::ByClass { request: 0..2, reply: 2..4, mono: false };
    cases.push(("concentrated 13-port".into(), cmesh, concentrated));

    for (case, (name, cfg, build)) in cases.into_iter().enumerate() {
        let twin = |gate: bool| {
            let mut cfg = cfg.clone();
            cfg.activity_gate = gate;
            let (mut net, injectors, dsts) = build(cfg);
            net.enable_stalls();
            (net, injectors, dsts)
        };
        let ((mut gated, injectors, dsts), (mut exhaustive, ..)) = (twin(true), twin(false));
        let width = gated.width();
        let open = |r: usize, p: usize, t: u64| t >= 900 || (t + 3 * r as u64 + p as u64) % 9 >= 5;
        let mut rng = Rng::stream(0x5C1B, case as u64);
        let mut streams: Vec<Vec<Flit>> = vec![Vec::new(); injectors.len()];
        let mut next_id = 0;
        for t in 0..1_500u64 {
            for (k, &(inj, src)) in injectors.iter().enumerate() {
                if streams[k].is_empty() && t < 700 && rng.random::<f64>() < 0.5 {
                    let (dst, tag) = dsts[rng.random_range(0..dsts.len())];
                    if dst == src && tag.is_none() {
                        continue;
                    }
                    let tr = traffic(width, &mut rng); // for its class and length
                    streams[k] = PacketDesc::new(next_id, src, dst, tr.class, tr.len)
                        .flits(width)
                        .into_iter()
                        .map(|f| tag.map_or(f, |s| f.with_sink(s)))
                        .rev()
                        .collect();
                    next_id += 1;
                }
                if let Some(&f) = streams[k].last() {
                    let accepted = gated.try_inject_flit(inj, f);
                    assert_eq!(accepted, exhaustive.try_inject_flit(inj, f), "{name}, cycle {t}");
                    if accepted {
                        streams[k].pop();
                    }
                }
            }
            gated.step();
            exhaustive.step();
            let (g, e) = (gated.vc_alloc_counts(), exhaustive.vc_alloc_counts());
            assert_eq!(g.attempts + g.skipped, e.attempts, "{name}, cycle {t}: heads met");
            assert!(gated.stats() == exhaustive.stats(), "{name}, cycle {t}: the grants differ");
            for net in [&mut gated, &mut exhaustive] {
                let mut at = 0;
                while let Some((r, mut ports)) = net.next_ejecting(at) {
                    at = r + 1;
                    while ports != 0 {
                        let p = ports.trailing_zeros() as usize;
                        ports &= ports - 1;
                        if open(r, p, t) {
                            while net.pop_ejected(r, p).is_some() {}
                        }
                    }
                }
            }
        }
        assert!(gated.quiescent() && exhaustive.quiescent(), "{name}: traffic must drain");
        let snapshot = |net: &Network| {
            let mut e = Enc::new();
            net.snapshot_state(&mut e);
            e.into_bytes()
        };
        assert!(snapshot(&gated) == snapshot(&exhaustive), "{name}: the twins ended apart");
        let (g, e) = (gated.vc_alloc_counts(), exhaustive.vc_alloc_counts());
        assert!(g.skipped > 0 && g.retried > 0, "{name}: vacuous, {g:?}");
        assert_eq!((e.skipped, e.retried), (0, 0), "{name}: the exhaustive twin keeps no want");
    }
}
