//! Absolute golden for what each scheme is made of and what it does.
//!
//! `run_metrics.json` pins SeparateBase and `golden_obs.txt` EquiNox and
//! DA2Mesh; the other four schemes, the 12×12 mesh and the ring reply
//! fabrics were only ever compared run against run. This test pins every
//! scheme at system level: all seven at 8×8 `kmeans` and 12×12 `bfs`, and
//! the three two-network schemes whose reply subnet follows the spec's
//! topology on `ring` and `hring` — the whole [`RunMetrics`] with floats
//! as bits (area and µbumps among them) and, per network, link count,
//! router ports summed over the grid, injected and ejected flits and
//! crossbar traversals. A change to how `System::build` wires a scheme
//! (port order, injector ids, which subnet carries what) moves a line
//! here even when the run still completes.
//!
//! To regenerate after an *intentional* change to the simulated
//! behaviour, run with
//! `EQUINOX_REGEN_GOLDEN=1 cargo test -p equinox-core --test golden_schemes`
//! and commit the new file alongside the change that justifies it.

use equinox_core::scheme::SchemeKind;
use equinox_core::system::{System, SystemConfig};
use equinox_core::EquiNoxDesign;
use equinox_noc::TopologyKind;
use equinox_phys::Coord;
use equinox_traffic::{profile::benchmark, Workload};
use std::fmt::Write as _;

/// One run's golden lines: the metrics, then one line per network.
fn lines(scheme: SchemeKind, n: u16, bench: &str, topo: TopologyKind, design: &EquiNoxDesign) -> String {
    let workload = Workload::new(benchmark(bench).unwrap(), 0.05, 42);
    let mut cfg = SystemConfig::new(scheme, n, workload);
    cfg.max_cycles = 400_000;
    cfg.reply_topology = topo;
    // `EquiNoxDesign::quick(n, 8)` is what `System::build` searches when
    // handed none; searched once per size here and shared.
    cfg.design = Some(design.clone());
    let mut sys = System::build(cfg);
    let m = sys.run();
    let tag = format!("{scheme:?} {n}x{n} {bench} {}", topo.name());
    assert!(m.completed, "{tag} stalled at cycle {}", m.cycles);
    let mut out = String::new();
    let floats = [
        m.exec_ns,
        m.ipc,
        m.latency.req_queue_ns,
        m.latency.req_net_ns,
        m.latency.rep_queue_ns,
        m.latency.rep_net_ns,
        m.dynamic_j,
        m.leakage_j,
        m.edp,
        m.area_mm2,
        m.reply_bit_fraction,
    ];
    write!(out, "{tag} | {} {} cycles {} ubumps {} bits", m.scheme.name(), m.benchmark, m.cycles, m.ubumps)
        .unwrap();
    for f in floats {
        write!(out, " {:016x}", f.to_bits()).unwrap();
    }
    out.push('\n');
    assert_eq!(m.area_mm2.to_bits(), sys.area_mm2().to_bits());
    assert_eq!(m.ubumps, sys.ubumps());
    for (i, net) in sys.networks().iter().enumerate() {
        let ports: usize = (0..net.height())
            .flat_map(|y| (0..net.width()).map(move |x| Coord::new(x, y)))
            .map(|c| net.router_ports(c))
            .sum();
        let s = net.stats();
        writeln!(
            out,
            "{tag} | net{i} links {} ports {ports} injected {} ejected {} xbar {}",
            net.num_links(),
            s.injected_flits,
            s.ejected_flits,
            s.xbar_traversals
        )
        .unwrap();
    }
    out
}

#[test]
fn every_scheme_matches_golden_bit_for_bit() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_schemes.txt");
    let mut actual = String::new();
    for (n, bench) in [(8, "kmeans"), (12, "bfs")] {
        let design = EquiNoxDesign::quick(n, 8);
        for scheme in SchemeKind::ALL {
            actual += &lines(scheme, n, bench, TopologyKind::Mesh, &design);
        }
        if n == 8 {
            for topo in [TopologyKind::Ring, TopologyKind::HierRing] {
                for scheme in [SchemeKind::SeparateBase, SchemeKind::MultiPort, SchemeKind::EquiNox] {
                    actual += &lines(scheme, n, bench, topo, &design);
                }
            }
        }
    }
    if std::env::var("EQUINOX_REGEN_GOLDEN").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden_schemes.txt missing; regenerate with EQUINOX_REGEN_GOLDEN=1");
    assert_eq!(
        golden, actual,
        "a scheme's construction or behaviour drifted from the stored bits; if \
         intentional, regenerate with EQUINOX_REGEN_GOLDEN=1"
    );
}
