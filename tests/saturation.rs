//! Analytic-model validation: open-loop saturation throughputs of the
//! injection structures match what the architecture predicts. These are
//! the numbers from which every full-system result follows, so they are
//! pinned here as a regression fence.

use equinox_suite::core::loadlat::{load_latency_curve_cfg, ReplySide};
use equinox_suite::core::EquiNoxDesign;
use equinox_suite::placement::Placement;

#[test]
fn baseline_reply_injection_saturates_at_one_flit_per_cb_cycle() {
    // 8 CBs x 1 local injector x 1 flit/cycle = 8 flits/cycle ceiling;
    // VC ping-ponging sustains most of it.
    let p = Placement::diamond(8, 8, 8);
    let pts = load_latency_curve_cfg(&p, &ReplySide::Local, &[1.0], 6_000, 3, None, true);
    let thr = pts[0].throughput;
    assert!(
        thr > 6.5 && thr <= 8.2,
        "baseline saturation {thr} flits/cycle outside [6.5, 8.2]"
    );
}

#[test]
fn equinox_at_least_doubles_reply_injection_bandwidth() {
    let design = EquiNoxDesign::search_k(8, 8, 800, 7, 2);
    let curve = |side: &ReplySide| {
        load_latency_curve_cfg(&design.placement, side, &[1.0], 6_000, 3, None, true)
    };
    let base = curve(&ReplySide::Local);
    let eq = curve(&ReplySide::Equinox(design.clone()));
    let ratio = eq[0].throughput / base[0].throughput;
    assert!(
        ratio > 2.0,
        "EquiNox multiplies injection bandwidth by {ratio:.2} (expected > 2x)"
    );
}

#[test]
fn audited_load_point_matches_unaudited_point() {
    // The drivers pass auditing down by value from the resolved spec
    // (`--audit`). The audited curve must be bit-identical — the audit
    // sweeps are read-only — and violation-free (the default config
    // panics on the first one). Gating off must be bit-identical too.
    let p = Placement::diamond(8, 8, 8);
    let plain = load_latency_curve_cfg(&p, &ReplySide::Local, &[0.3], 2_000, 5, None, true);
    let audited = load_latency_curve_cfg(
        &p,
        &ReplySide::Local,
        &[0.3],
        2_000,
        5,
        Some(equinox_suite::noc::AuditConfig::default()),
        true,
    );
    let ungated = load_latency_curve_cfg(&p, &ReplySide::Local, &[0.3], 2_000, 5, None, false);
    assert_eq!(plain, audited, "auditor must not perturb the measurement");
    assert_eq!(plain, ungated, "activity gating must be bit-identical");
}

#[test]
fn below_saturation_both_accept_the_offered_load() {
    let design = EquiNoxDesign::search_k(8, 8, 400, 7, 1);
    for side in [ReplySide::Local, ReplySide::Equinox(design.clone())] {
        let pts = load_latency_curve_cfg(&design.placement, &side, &[0.1], 6_000, 3, None, true);
        // 0.1 pkts/CB/cycle x 8 CBs x 5 flits = 4 flits/cycle offered.
        let thr = pts[0].throughput;
        assert!(
            (thr - 4.0).abs() < 0.5,
            "accepted {thr} flits/cycle vs 4.0 offered"
        );
        assert!(pts[0].latency < 40.0, "uncongested latency {}", pts[0].latency);
    }
}
