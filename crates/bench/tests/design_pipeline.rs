//! Integration tests of the §4 design pipeline across crates:
//! placement → MCTS → physical checks.

use equinox_core::{EquiNoxDesign, SchemeKind, System, SystemConfig};
use equinox_mcts::eval::{evaluate, EvalWeights};
use equinox_mcts::problem::EirProblem;
use equinox_noc::AuditConfig;
use equinox_phys::segment::count_crossings;
use equinox_traffic::{profile::benchmark, Workload};

fn design() -> EquiNoxDesign {
    EquiNoxDesign::search_k(8, 8, 600, 7, 2)
}

#[test]
fn pipeline_produces_a_physically_viable_design() {
    let d = design();
    assert!(d.placement.is_queen_safe(), "CBs must be non-attacking");
    assert!(d.selection.is_exclusive(&d.placement), "EIRs are not shared");
    let segs = d.segments();
    assert!(
        count_crossings(&segs) <= 2,
        "crossings {} (paper reaches 0)",
        count_crossings(&segs)
    );
    assert!(d.rdl_layers() <= 2, "layers {}", d.rdl_layers());
    let problem = EirProblem::new(d.placement.clone());
    assert!(
        problem.wire.all_single_cycle(&segs),
        "every RDL wire must be repeater-free"
    );
}

#[test]
fn every_cb_gets_equivalent_injection_routers() {
    let d = design();
    for (i, g) in d.selection.groups.iter().enumerate() {
        assert!(
            !g.is_empty(),
            "CB {i} has no EIRs — a starved CB paces the whole machine"
        );
        for e in g {
            let hops = d.placement.cbs[i].manhattan(*e);
            assert!((2..=3).contains(&hops), "EIR at {hops} hops");
        }
    }
    assert!(d.num_links() >= 16, "got {} links", d.num_links());
}

#[test]
fn design_improves_the_evaluation_over_no_eirs() {
    let d = design();
    let problem = EirProblem::new(d.placement.clone());
    let w = EvalWeights::default();
    let with = evaluate(&problem, &d.selection, &w);
    let without = evaluate(
        &problem,
        &equinox_mcts::problem::EirSelection {
            groups: vec![Vec::new(); 8],
        },
        &w,
    );
    assert!(with.cost < without.cost);
    assert!(with.avg_hops < without.avg_hops);
    assert!(with.max_load < without.max_load);
}

#[test]
fn ubumps_scale_with_selected_links() {
    let d = design();
    assert_eq!(d.ubump_count(128), d.num_links() * 256);
}

#[test]
fn designed_system_runs_clean_under_audit() {
    // The searched design's EIR ports and interposer links go through the
    // same credit/escape-VC discipline as the mesh proper; an audited
    // run proves the design search never emits a machine that only works
    // by leaking flits.
    let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 7);
    let mut cfg = SystemConfig::new(SchemeKind::EquiNox, 8, workload);
    cfg.design = Some(design());
    cfg.audit = Some(AuditConfig {
        check_interval: 16,
        ..AuditConfig::default()
    });
    let m = System::build(cfg).run();
    assert!(m.completed, "EquiNox stalled under audit at {}", m.cycles);
}

#[test]
fn designs_exist_for_larger_meshes() {
    // Scalability path (§6.7/§6.8): 12×12 with 8 CBs deletes redundant
    // N-Queen rows.
    let d = EquiNoxDesign::search_k(12, 8, 200, 1, 1);
    assert_eq!(d.placement.cbs.len(), 8);
    assert!(d.placement.is_queen_safe());
    assert!(d.selection.is_exclusive(&d.placement));
    assert!(d.num_links() >= 8);
}
