//! Digest goldens for the router paths `golden_trace.txt` does not
//! reach.
//!
//! `golden_trace.txt` pins four 4×4 meshes at light load, event by
//! event. The scenarios here pin what a rewrite of the router core
//! actually risks — saturation, routers wider than five ports, one-VC
//! subnets with deep buffers, the ring fabrics' escape capture, the
//! extra pipeline stages, VC monopolization under load and ejection
//! back-pressure — and were generated by the per-router
//! `Vec<InputPort>`/`VecDeque` implementation that preceded the flat
//! core. The last, links of three and four cycles, was generated by the
//! per-link flit and credit rings that preceded the arrival wheels.
//! A saturated 8×8 run fires hundreds of thousands of events, so
//! the golden keeps a digest per 256-cycle window (a divergence is
//! localised to a window) instead of every event, plus the final
//! counters, the stall-attribution totals and a digest of the snapshot
//! bytes taken mid-run (the snapshot format is part of the contract).
//!
//! Every scenario runs gated and exhaustive.
//!
//! To regenerate after an *intentional* behavior change, run with
//! `EQUINOX_REGEN_GOLDEN=1 cargo test -p equinox-noc --test golden_stress`
//! and commit the new file alongside the change that justifies it.

use equinox_exec::Rng;
use equinox_noc::config::{NocConfig, RoutingKind, VcPartition};
use equinox_noc::flit::{Flit, MessageClass, PacketDesc};
use equinox_noc::network::{InjectorId, Network};
use equinox_noc::{LinkKind, TopologyKind};
use equinox_obs::NetCause;
use equinox_phys::Coord;
use equinox_snap::{fnv1a, Enc};
use std::fmt::Write as _;

/// Events are digested and dropped every `WINDOW` cycles.
const WINDOW: u64 = 256;

/// How the sinks behave.
#[derive(Clone, Copy)]
enum Drain {
    /// Every node and every tagged port is emptied every cycle.
    Eager,
    /// The first `held` nodes (row-major) are not drained at all before
    /// cycle `until`, then only every `every`-th cycle; the rest are
    /// emptied every cycle.
    Lazy { held: usize, until: u64, every: u64 },
}

/// One scenario instance: the network plus everything that drives it.
struct Rig {
    net: Network,
    /// `(injector, flits in reverse order)`: each source offers its next
    /// flit every cycle until it is accepted.
    sources: Vec<(InjectorId, Vec<Flit>)>,
    /// Extra ejection ports, drained through `pop_ejected`.
    tagged: Vec<(usize, usize)>,
    nodes: Vec<Coord>,
    drain: Drain,
}

impl Rig {
    fn new(net: Network, drain: Drain) -> Self {
        let (w, h) = (net.width(), net.height());
        Rig {
            net,
            sources: Vec::new(),
            tagged: Vec::new(),
            nodes: (0..h).flat_map(|y| (0..w).map(move |x| Coord::new(x, y))).collect(),
            drain,
        }
    }

    fn cycle(&mut self, t: u64) {
        for (inj, flits) in self.sources.iter_mut() {
            if let Some(&f) = flits.last() {
                if self.net.try_inject_flit(*inj, f) {
                    flits.pop();
                }
            }
        }
        self.net.step();
        for (i, &node) in self.nodes.iter().enumerate() {
            if let Drain::Lazy { held, until, every } = self.drain {
                if i < held && (t < until || !t.is_multiple_of(every)) {
                    continue;
                }
            }
            while self.net.pop_ejected_node(node).is_some() {}
        }
        for &(r, p) in &self.tagged {
            while self.net.pop_ejected(r, p).is_some() {}
        }
    }

    /// Digest of the events recorded since the last call.
    fn window_line(&mut self, out: &mut String, t: u64) {
        let events = self.net.drain_trace();
        let mut e = Enc::new();
        for ev in &events {
            e.put_u64(ev.cycle);
            e.put_usize(ev.router);
            e.put_u64(ev.pkt.0);
            e.put_u16(ev.seq);
            e.put_u8(ev.kind as u8);
        }
        writeln!(
            out,
            "window {t} events={} digest={:016x}",
            events.len(),
            fnv1a(&e.into_bytes())
        )
        .expect("write");
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.net.snapshot_state(&mut e);
        e.into_bytes()
    }

    fn summary(&self, out: &mut String) {
        let s = self.net.stats();
        writeln!(
            out,
            "stats injected={} ejected={} reads={} writes={} xbar={} vc_allocs={} mesh={} interposer={} ni={}",
            s.injected_flits,
            s.ejected_flits,
            s.buffer_reads,
            s.buffer_writes,
            s.xbar_traversals,
            s.vc_allocs,
            s.link_flits_mesh,
            s.link_flits_interposer,
            s.link_flits_ni
        )
        .expect("write");
        let mut e = Enc::new();
        for (&f, &c) in s.router_flits.iter().zip(&s.router_cycles) {
            e.put_u64(f);
            e.put_u64(c);
        }
        let mut links = Vec::new();
        self.net.link_flit_counts(&mut links);
        for &l in &links {
            e.put_u64(l);
        }
        for (inj, _) in &self.sources {
            e.put_u64(self.net.injector_flits(*inj));
        }
        writeln!(
            out,
            "heat digest={:016x} buffered={} quiescent={}",
            fnv1a(&e.into_bytes()),
            self.net.buffered_flits(),
            self.net.quiescent()
        )
        .expect("write");
        let g = self.net.stall_grid().expect("stalls armed");
        for (class, name) in ["request", "reply"].iter().enumerate() {
            writeln!(
                out,
                "stalls {name} vc_alloc={} switch_loss={} credit_starve={} eject_wait={}",
                g.class_total(class, NetCause::VcAlloc),
                g.class_total(class, NetCause::SwitchLoss),
                g.class_total(class, NetCause::CreditStarve),
                g.class_total(class, NetCause::EjectWait)
            )
            .expect("write");
        }
    }
}

/// Runs one scenario for `cycles` and returns its golden text, with a
/// digest of the snapshot bytes taken halfway through.
fn run(name: &str, build: &dyn Fn() -> Rig, cycles: u64) -> String {
    let mut rig = build();
    rig.net.enable_trace(1 << 16);
    rig.net.enable_stalls();
    let mut out = String::new();
    writeln!(out, "# scenario {name}").expect("write");
    for t in 0..cycles {
        rig.cycle(t);
        if (t + 1) % WINDOW == 0 {
            rig.window_line(&mut out, t + 1);
        }
        if t + 1 == cycles / 2 / WINDOW * WINDOW {
            let bytes = rig.snapshot();
            writeln!(
                out,
                "snapshot {} bytes={} digest={:016x}",
                t + 1,
                bytes.len(),
                fnv1a(&bytes)
            )
            .expect("write");
        }
    }
    rig.summary(&mut out);
    out
}

/// Seeded packet generator shared by the scenarios.
struct Gen {
    rng: Rng,
    next_id: u64,
    width: u16,
}

impl Gen {
    fn new(seed: u64, width: u16) -> Self {
        Gen { rng: Rng::seed_from_u64(seed), next_id: 0, width }
    }

    fn class(&mut self) -> MessageClass {
        if self.rng.random::<bool>() {
            MessageClass::Reply
        } else {
            MessageClass::Request
        }
    }

    /// `count` packets from `src` to destinations uniform over `dsts`,
    /// lengths uniform over `len`, as one reversed flit stream.
    fn stream(
        &mut self,
        src: Coord,
        dsts: &[Coord],
        count: usize,
        len: std::ops::Range<u16>,
        class: Option<MessageClass>,
    ) -> Vec<Flit> {
        let mut flits = Vec::new();
        for _ in 0..count {
            let dst = loop {
                let d = dsts[self.rng.random_range(0..dsts.len())];
                if d != src {
                    break d;
                }
            };
            let class = class.unwrap_or_else(|| self.class());
            let l = self.rng.random_range(len.clone());
            flits.extend(PacketDesc::new(self.next_id, src, dst, class, l).flits(self.width));
            self.next_id += 1;
        }
        flits.reverse();
        flits
    }
}

fn gated(mut cfg: NocConfig, gate: bool) -> NocConfig {
    cfg.activity_gate = gate;
    cfg
}

/// Saturated 8×8 adaptive mesh. Eight "cache banks" stream replies
/// through four EIR-style interposer injection ports each (latencies 1
/// and 2) next to their local port; four routers carry a sink-tagged
/// extra ejection port that a fifth of the packets to them must use.
fn sat_eir(gate: bool) -> Rig {
    let mut rig = Rig::new(Network::new(gated(NocConfig::mesh(8), gate)), Drain::Eager);
    let mut gen = Gen::new(0xE1, 8);
    let nodes = rig.nodes.clone();
    let tagged_nodes = [Coord::new(1, 6), Coord::new(6, 1), Coord::new(3, 3), Coord::new(4, 5)];
    for (i, &node) in tagged_nodes.iter().enumerate() {
        rig.tagged.push(rig.net.add_ejection_port(node, Some(1000 + i as u32)));
    }
    // Flits are stored in reverse, so walking backwards meets each
    // packet's head first.
    let retag = |flits: &mut Vec<Flit>, rng: &mut Rng| {
        let mut tag = None;
        for f in flits.iter_mut().rev() {
            if f.is_head() {
                let at = tagged_nodes.iter().position(|&n| n == f.dst);
                tag = at.filter(|_| rng.random_range(0u32..5) == 0).map(|i| 1000 + i as u32);
            }
            if let Some(t) = tag {
                *f = f.with_sink(t);
            }
        }
    };
    for &src in &nodes {
        let mut flits = gen.stream(src, &nodes, 400, 1..6, None);
        retag(&mut flits, &mut gen.rng);
        let inj = rig.net.local_injector(src);
        rig.sources.push((inj, flits));
    }
    let cbs = [(1, 1), (5, 0), (2, 4), (6, 3), (0, 6), (4, 7), (7, 5), (3, 2)];
    for (k, &(x, y)) in cbs.iter().enumerate() {
        let cb = Coord::new(x, y);
        let eirs = [
            Coord::new((x + 2) % 8, y),
            Coord::new(x, (y + 2) % 8),
            Coord::new((x + 7) % 8, (y + 1) % 8),
            Coord::new((x + 1) % 8, (y + 6) % 8),
        ];
        for (j, &eir) in eirs.iter().enumerate() {
            let lat = 1 + ((k + j) % 2) as u32;
            let inj = rig.net.add_injection_port(eir, lat, LinkKind::Interposer);
            let mut flits = gen.stream(cb, &nodes, 150, 5..6, Some(MessageClass::Reply));
            retag(&mut flits, &mut gen.rng);
            rig.sources.push((inj, flits));
        }
    }
    rig
}

/// A DA2Mesh-style subnet: one VC per port, 40-flit buffers, 16-bit
/// links, 36-flit packets.
fn subnet(gate: bool) -> Rig {
    let mut cfg = NocConfig::mesh(8);
    cfg.link_bits = 16;
    cfg.vc_buf_flits = 40;
    cfg.vcs_per_port = 1;
    cfg.freq_ghz = 1.126 * 2.5;
    let mut rig = Rig::new(Network::new(gated(cfg, gate)), Drain::Eager);
    let mut gen = Gen::new(0xE2, 8);
    let nodes = rig.nodes.clone();
    for &src in nodes.iter().step_by(2) {
        let flits = gen.stream(src, &nodes, 40, 36..37, Some(MessageClass::Reply));
        let inj = rig.net.local_injector(src);
        rig.sources.push((inj, flits));
    }
    rig
}

/// Every node of an `n`×`n` fabric streams `count` random packets of
/// one to five flits at destinations drawn from `dsts`.
fn all_to(rig: &mut Rig, gen: &mut Gen, dsts: &[Coord], count: usize) {
    for &src in &rig.nodes.clone() {
        let flits = gen.stream(src, dsts, count, 1..6, None);
        let inj = rig.net.local_injector(src);
        rig.sources.push((inj, flits));
    }
}

/// A 6×6 ring fabric under hotspot traffic: two thirds of the packets
/// go to one of two hot nodes, the rest anywhere.
fn ring_hotspot(kind: TopologyKind, gate: bool) -> Rig {
    let mut rig = Rig::new(Network::new(gated(NocConfig::fabric(kind, 6), gate)), Drain::Eager);
    let mut gen = Gen::new(0xE3, 6);
    let nodes = rig.nodes.clone();
    let hot = [Coord::new(0, 0), Coord::new(4, 3)];
    for &src in &nodes {
        let mut flits = Vec::new();
        for _ in 0..60 {
            let dsts: &[Coord] = if gen.rng.random_range(0u32..3) < 2 { &hot } else { &nodes };
            // Reverse order: each new packet goes in front of the ones
            // that will be sent before it.
            let mut one = gen.stream(src, dsts, 1, 1..6, None);
            one.append(&mut flits);
            flits = one;
        }
        let inj = rig.net.local_injector(src);
        rig.sources.push((inj, flits));
    }
    rig
}

/// Two extra pipeline stages per router on a loaded 6×6 XY mesh.
fn pipeline_extra(gate: bool) -> Rig {
    let mut cfg = NocConfig::mesh(6);
    cfg.pipeline_extra = 2;
    cfg.routing = RoutingKind::Xy;
    let mut rig = Rig::new(Network::new(gated(cfg, gate)), Drain::Eager);
    let nodes = rig.nodes.clone();
    all_to(&mut rig, &mut Gen::new(0xE4, 6), &nodes, 300);
    rig
}

/// VC monopolization on a saturated single network, both classes.
fn mono_sat(gate: bool) -> Rig {
    let cfg = gated(NocConfig::single_net(6, true), gate);
    let mut rig = Rig::new(Network::new(cfg), Drain::Eager);
    let nodes = rig.nodes.clone();
    all_to(&mut rig, &mut Gen::new(0xE5, 6), &nodes, 320);
    rig
}

/// Ejection back-pressure: everyone sends to the first six nodes, whose
/// sinks stay shut for 700 cycles and then open every third cycle.
fn undrained(gate: bool) -> Rig {
    let drain = Drain::Lazy { held: 6, until: 700, every: 3 };
    let mut rig = Rig::new(Network::new(gated(NocConfig::mesh(6), gate)), drain);
    let nodes = rig.nodes.clone();
    all_to(&mut rig, &mut Gen::new(0xE6, 6), &nodes[..6], 60);
    rig
}

/// An Interposer-CMesh-shaped network: 4×4 routers with four VCs in two
/// class partitions, each concentrating four nodes through four extra
/// injection ports and four sink-tagged ejection ports (13 ports), the
/// routers' own local ejection neutralised.
fn cmesh(gate: bool) -> Rig {
    let mut cfg = NocConfig::mesh(4);
    cfg.vcs_per_port = 4;
    cfg.vc_buf_flits = 3;
    cfg.link_bits = 256;
    cfg.partition = VcPartition::ByClass { request: 0..2, reply: 2..4, mono: false };
    let mut rig = Rig::new(Network::new(gated(cfg, gate)), Drain::Eager);
    for r in 0..16 {
        rig.net.set_ejection_sink(r, 4, Some(u32::MAX));
    }
    let mut gen = Gen::new(0xE7, 4);
    let mut handles = Vec::new();
    for idx in 0..64usize {
        let node = Coord::from_index(idx, 8);
        let cnode = Coord::new(node.x / 2, node.y / 2);
        let inj = rig.net.add_injection_port(cnode, 1, LinkKind::Interposer);
        let port = rig.net.add_ejection_port(cnode, Some(idx as u32));
        rig.tagged.push(port);
        handles.push((cnode, inj));
    }
    for &(cnode, inj) in &handles {
        let mut flits = Vec::new();
        for _ in 0..220 {
            let to = gen.rng.random_range(0..64usize);
            let (tnode, _) = handles[to];
            let class = gen.class();
            let len = gen.rng.random_range(1u16..4);
            let pkt = PacketDesc::new(gen.next_id, cnode, tnode, class, len);
            gen.next_id += 1;
            let mut one: Vec<Flit> =
                pkt.flits(4).into_iter().map(|f| f.with_sink(to as u32)).collect();
            one.reverse();
            one.append(&mut flits);
            flits = one;
        }
        rig.sources.push((inj, flits));
    }
    rig
}

/// Links longer than a cycle: a saturated 6×6 adaptive mesh, both
/// classes, with 3-cycle mesh links, 2-cycle NI links and two 4-cycle
/// interposer injection ports, so several flits and credits are in
/// flight on one link at once and the mid-run snapshot carries them.
fn long_links(gate: bool) -> Rig {
    let mut cfg = NocConfig::mesh(6);
    cfg.link_latency = 3;
    cfg.ni_latency = 2;
    let mut rig = Rig::new(Network::new(gated(cfg, gate)), Drain::Eager);
    let mut gen = Gen::new(0xE8, 6);
    let nodes = rig.nodes.clone();
    all_to(&mut rig, &mut gen, &nodes, 300);
    for (src, eir) in [(Coord::new(1, 1), Coord::new(3, 1)), (Coord::new(4, 4), Coord::new(4, 2))] {
        let inj = rig.net.add_injection_port(eir, 4, LinkKind::Interposer);
        let flits = gen.stream(src, &nodes, 200, 5..6, Some(MessageClass::Reply));
        rig.sources.push((inj, flits));
    }
    rig
}

fn full(gate: bool) -> String {
    let mut out = String::new();
    out += &run("sat-8x8-eir-tagged", &|| sat_eir(gate), 2048);
    out += &run("subnet-1vc-36flit", &|| subnet(gate), 3072);
    out += &run("ring-6x6-hotspot", &|| ring_hotspot(TopologyKind::Ring, gate), 3072);
    out += &run("hring-6x6-hotspot", &|| ring_hotspot(TopologyKind::HierRing, gate), 3072);
    out += &run("pipeline-extra-2", &|| pipeline_extra(gate), 2048);
    out += &run("vc-mono-6x6-saturated", &|| mono_sat(gate), 2048);
    out += &run("undrained-sinks", &|| undrained(gate), 2560);
    out += &run("cmesh-13-port", &|| cmesh(gate), 2048);
    out += &run("long-links-3-2-4", &|| long_links(gate), 2560);
    out
}

fn assert_matches_golden(actual: &str, what: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_stress.txt");
    let golden = std::fs::read_to_string(path)
        .expect("golden_stress.txt missing; regenerate with EQUINOX_REGEN_GOLDEN=1");
    let (g, a): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    let mut scenario = "";
    for i in 0..g.len().max(a.len()) {
        let gl = g.get(i).copied().unwrap_or("<eof>");
        let al = a.get(i).copied().unwrap_or("<eof>");
        if gl.starts_with('#') {
            scenario = gl;
        }
        assert_eq!(gl, al, "{what} run diverges from the golden at line {} ({scenario})", i + 1);
    }
}

#[test]
fn gated_stress_run_matches_the_golden() {
    let actual = full(true);
    if std::env::var("EQUINOX_REGEN_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_stress.txt");
        std::fs::write(path, &actual).expect("write golden");
        return;
    }
    assert_matches_golden(&actual, "gated");
}

#[test]
fn exhaustive_stress_run_matches_the_golden() {
    if std::env::var("EQUINOX_REGEN_GOLDEN").is_ok() {
        return;
    }
    assert_matches_golden(&full(false), "exhaustive");
}
