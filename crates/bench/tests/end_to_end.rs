//! Cross-crate integration tests: every scheme boots, runs a benchmark to
//! completion, and reports coherent metrics.

use equinox_core::{SchemeKind, System, SystemConfig};
use equinox_noc::AuditConfig;
use equinox_traffic::{profile::benchmark, Workload};

fn run(scheme: SchemeKind, bench: &str, scale: f64) -> equinox_core::RunMetrics {
    let profile = benchmark(bench).expect("benchmark in suite");
    let workload = Workload::new(profile, scale, 42);
    let mut cfg = SystemConfig::new(scheme, 8, workload);
    cfg.max_cycles = 400_000;
    System::build(cfg).run()
}

#[test]
fn all_seven_schemes_complete_a_network_bound_benchmark() {
    for scheme in SchemeKind::ALL {
        let m = run(scheme, "kmeans", 0.1);
        assert!(m.completed, "{} stalled at {}", scheme.name(), m.cycles);
        assert!(m.cycles > 100);
        assert!(m.ipc > 0.0);
        assert!(m.energy_j() > 0.0);
        assert!(m.edp > 0.0);
        assert!(m.area_mm2 > 1.0);
    }
}

#[test]
fn all_seven_schemes_complete_a_compute_bound_benchmark() {
    for scheme in SchemeKind::ALL {
        let m = run(scheme, "myocyte", 0.1);
        assert!(m.completed, "{} stalled", scheme.name());
    }
}

#[test]
fn all_seven_schemes_pass_an_audited_smoke_run() {
    // Same machines, with the invariant auditor armed: credit/flit
    // conservation, escape-VC discipline and packet accounting are
    // checked throughout, and any violation panics the test.
    for scheme in SchemeKind::ALL {
        let profile = benchmark("kmeans").expect("benchmark in suite");
        let mut cfg = SystemConfig::new(scheme, 8, Workload::new(profile, 0.05, 42));
        cfg.max_cycles = 400_000;
        cfg.audit = Some(AuditConfig {
            check_interval: 16,
            ..AuditConfig::default()
        });
        let mut sys = System::build(cfg);
        let m = sys.run();
        assert!(m.completed, "{} stalled under audit", scheme.name());
        assert!(sys.audit_findings().is_empty());
        for net in sys.networks() {
            assert!(
                net.audit_sweeps() > 0,
                "{}: auditor never swept a network",
                scheme.name()
            );
        }
    }
}

#[test]
fn reply_bits_dominate_like_the_paper() {
    // §2.2: replies carry ~72.7% of NoC bits.
    let m = run(SchemeKind::SeparateBase, "kmeans", 0.1);
    assert!(
        m.reply_bit_fraction > 0.6 && m.reply_bit_fraction < 0.85,
        "reply bit share {}",
        m.reply_bit_fraction
    );
}

#[test]
fn equinox_beats_separate_base_when_network_bound() {
    let base = run(SchemeKind::SeparateBase, "kmeans", 0.15);
    let eq = run(SchemeKind::EquiNox, "kmeans", 0.15);
    assert!(
        eq.cycles < base.cycles,
        "EquiNox {} !< SeparateBase {}",
        eq.cycles,
        base.cycles
    );
    assert!(eq.edp < base.edp, "EDP must improve too");
}

#[test]
fn single_network_is_the_slowest_family() {
    let single = run(SchemeKind::SingleBase, "kmeans", 0.15);
    let eq = run(SchemeKind::EquiNox, "kmeans", 0.15);
    assert!(
        (eq.cycles as f64) < 0.85 * single.cycles as f64,
        "EquiNox {} should be well under SingleBase {}",
        eq.cycles,
        single.cycles
    );
}

#[test]
fn ubump_accounting_matches_section_6_6_shape() {
    let cmesh = run(SchemeKind::InterposerCMesh, "gaussian", 0.05);
    let eq = run(SchemeKind::EquiNox, "gaussian", 0.05);
    assert_eq!(cmesh.ubumps, 32_768, "paper's CMesh count");
    assert!(eq.ubumps > 0);
    assert!(
        (eq.ubumps as f64) < 0.35 * cmesh.ubumps as f64,
        "EquiNox {} vs CMesh {} — paper reports 81.25% saving",
        eq.ubumps,
        cmesh.ubumps
    );
}

#[test]
fn area_ordering_matches_figure_11() {
    let single = run(SchemeKind::SingleBase, "gaussian", 0.02).area_mm2;
    let separate = run(SchemeKind::SeparateBase, "gaussian", 0.02).area_mm2;
    let da2 = run(SchemeKind::Da2Mesh, "gaussian", 0.02).area_mm2;
    let cmesh = run(SchemeKind::InterposerCMesh, "gaussian", 0.02).area_mm2;
    let eq = run(SchemeKind::EquiNox, "gaussian", 0.02).area_mm2;
    assert!(single < separate, "single nets are smaller");
    assert!(da2 < separate, "DA2Mesh's narrow routers are cheaper");
    assert!(cmesh > separate, "CMesh routers dominate Figure 11");
    assert!(eq > separate && eq < separate * 1.25, "EquiNox adds a few percent");
}

#[test]
fn latency_split_shows_backpressure() {
    // §6.4: request latency exceeds reply latency because reply-injection
    // congestion backpressures the request network (the parking-lot
    // effect).
    let m = run(SchemeKind::SeparateBase, "kmeans", 0.15);
    assert!(
        m.latency.request_ns() > m.latency.reply_ns(),
        "request {} !> reply {}",
        m.latency.request_ns(),
        m.latency.reply_ns()
    );
}
