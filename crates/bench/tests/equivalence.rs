//! Activity-gated stepping must be a pure optimization: skipping idle
//! routers, idle links, idle NIs and parked cache banks may change how
//! much work the simulator does, never what it computes. These tests pin
//! bit-identity between gated (the default) and exhaustive
//! (`--no-activity-gate`) runs — metrics, per-network event counters,
//! and, when the invariant auditor is on, its sweep schedule — across
//! the paper's schemes, single- and separate-network topologies, and
//! both subnet clock ratios (CMesh at 1:1, DA2Mesh at 2.5:1).
//!
//! The gate is set explicitly on every config (never via the
//! `EQUINOX_NO_ACTIVITY_GATE` environment variable): the env var is
//! process-global and tests in this binary run concurrently.

use equinox_core::{RunMetrics, SchemeKind, System, SystemConfig};
use equinox_noc::stats::NetStats;
use equinox_noc::AuditConfig;
use equinox_traffic::{profile::benchmark, Workload};

/// Everything a run observably produces: its metrics, each network's
/// full event-counter block, and each network's audit sweep count.
struct Observed {
    metrics: RunMetrics,
    net_stats: Vec<NetStats>,
    audit_sweeps: Vec<u64>,
    findings: usize,
}

fn run_observed(
    scheme: SchemeKind,
    bench: &str,
    rate: f64,
    seed: u64,
    gate: bool,
    audit: Option<AuditConfig>,
) -> Observed {
    let workload = Workload::new(benchmark(bench).unwrap(), rate, seed);
    let mut cfg = SystemConfig::new(scheme, 8, workload);
    cfg.max_cycles = 60_000;
    cfg.activity_gate = gate;
    cfg.audit = audit;
    let mut sys = System::build(cfg);
    let metrics = sys.run();
    Observed {
        metrics,
        net_stats: sys.networks().iter().map(|n| n.stats().clone()).collect(),
        audit_sweeps: sys.networks().iter().map(|n| n.audit_sweeps()).collect(),
        findings: sys.audit_findings().len(),
    }
}

/// Bit-exact comparison of two runs (`RunMetrics` holds floats, so
/// compare bit patterns rather than deriving `PartialEq`).
fn assert_observed_identical(a: &Observed, b: &Observed, what: &str) {
    assert_eq!(a.metrics.cycles, b.metrics.cycles, "{what}: cycles diverged");
    assert_eq!(
        a.metrics.completed, b.metrics.completed,
        "{what}: completion diverged"
    );
    assert_eq!(
        a.metrics.ipc.to_bits(),
        b.metrics.ipc.to_bits(),
        "{what}: IPC diverged"
    );
    assert_eq!(
        a.metrics.exec_ns.to_bits(),
        b.metrics.exec_ns.to_bits(),
        "{what}: exec time diverged"
    );
    assert_eq!(
        a.metrics.edp.to_bits(),
        b.metrics.edp.to_bits(),
        "{what}: EDP diverged"
    );
    assert_eq!(
        a.metrics.dynamic_j.to_bits(),
        b.metrics.dynamic_j.to_bits(),
        "{what}: dynamic energy diverged"
    );
    assert_eq!(
        a.metrics.latency.total_ns().to_bits(),
        b.metrics.latency.total_ns().to_bits(),
        "{what}: latency diverged"
    );
    assert_eq!(
        a.net_stats, b.net_stats,
        "{what}: per-network event counters diverged"
    );
    assert_eq!(
        a.audit_sweeps, b.audit_sweeps,
        "{what}: audit sweep schedules diverged"
    );
    assert_eq!(a.findings, b.findings, "{what}: audit findings diverged");
}

/// Gated and exhaustive runs are bit-identical for every scheme shape:
/// a single shared network with and without VC monopolization, the
/// concentrated mesh's 13-port routers at half clock, separate
/// request/reply networks, the multi-port router, the EquiNox injection
/// routers, and the DA2Mesh subnet running at 2.5 core cycles per
/// network cycle.
#[test]
fn gated_run_is_bit_identical_to_exhaustive_run() {
    for scheme in [
        SchemeKind::SingleBase,
        SchemeKind::VcMono,
        SchemeKind::InterposerCMesh,
        SchemeKind::SeparateBase,
        SchemeKind::MultiPort,
        SchemeKind::EquiNox,
        SchemeKind::Da2Mesh,
    ] {
        let gated = run_observed(scheme, "hotspot", 0.08, 17, true, None);
        let full = run_observed(scheme, "hotspot", 0.08, 17, false, None);
        assert_observed_identical(&gated, &full, scheme.name());
        assert!(
            gated.metrics.cycles > 0,
            "{}: run must simulate something",
            scheme.name()
        );
    }
}

/// With the auditor on, gating must not move, merge or drop a single
/// audit evaluation: every per-network sweep and every system-level
/// check lands on the same cycle with the same observations, so the
/// sweep counts and findings match the exhaustive audited run — and the
/// metrics still match the unaudited ones.
#[test]
fn audited_gated_run_matches_audited_exhaustive_run() {
    for scheme in [SchemeKind::SeparateBase, SchemeKind::EquiNox] {
        let audit = || Some(AuditConfig::default());
        let gated = run_observed(scheme, "hotspot", 0.08, 11, true, audit());
        let full = run_observed(scheme, "hotspot", 0.08, 11, false, audit());
        assert_observed_identical(&gated, &full, scheme.name());
        assert!(
            gated.audit_sweeps.iter().all(|&s| s > 0),
            "{}: audit sweeps must actually run",
            scheme.name()
        );
        let unaudited = run_observed(scheme, "hotspot", 0.08, 11, true, None);
        assert_eq!(
            gated.metrics.cycles, unaudited.metrics.cycles,
            "{}: auditing perturbed a gated run",
            scheme.name()
        );
    }
}

/// Strict auditing (a sweep every cycle, a tight watchdog) on
/// memory-heavy traffic, where cache banks spend most cycles parked on
/// timed events: every per-cycle check must see the same state gated as
/// exhaustive — no missed or doubled check, no finding.
#[test]
fn strict_audit_caps_every_skip_and_stays_identical() {
    let gated = run_observed(
        SchemeKind::EquiNox,
        "bfs",
        0.2,
        31,
        true,
        Some(AuditConfig::strict()),
    );
    let full = run_observed(
        SchemeKind::EquiNox,
        "bfs",
        0.2,
        31,
        false,
        Some(AuditConfig::strict()),
    );
    assert_observed_identical(&gated, &full, "EquiNox/strict");
}
