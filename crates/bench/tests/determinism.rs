//! Reproducibility: every layer of the stack is deterministic in its
//! seed, so published numbers can be regenerated bit-for-bit — and,
//! since experiments fan out on the `equinox-exec` worker pool, also
//! independent of the worker count. One simulation always runs on one
//! thread.
//!
//! The worker count is always set **by value** (`set_threads`, never
//! via the `EQUINOX_THREADS` environment variable): env vars are
//! process-global and tests in this binary run concurrently.

use equinox_bench::{matrix_cells, run_cells, Cell};
use equinox_core::loadlat::{load_latency_curve_cfg, ReplySide};
use equinox_core::{EquiNoxDesign, RunMetrics, SchemeKind, System, SystemConfig};
use equinox_exec::set_threads;
use equinox_placement::Placement;
use equinox_traffic::{profile::benchmark, Workload};

fn run(seed: u64) -> (u64, f64) {
    let workload = Workload::new(benchmark("hotspot").unwrap(), 0.08, seed);
    let cfg = SystemConfig::new(SchemeKind::SeparateBase, 8, workload);
    let m = System::build(cfg).run();
    (m.cycles, m.energy_j())
}

#[test]
fn same_seed_same_run() {
    let a = run(11);
    let b = run(11);
    assert_eq!(a.0, b.0, "cycle counts must match exactly");
    assert_eq!(a.1, b.1, "energy must match exactly");
}

#[test]
fn different_seeds_differ() {
    let a = run(11);
    let b = run(12);
    assert_ne!(a.0, b.0, "different traffic must change the run");
}

#[test]
fn design_search_is_deterministic() {
    let a = EquiNoxDesign::search_k(8, 8, 300, 5, 1);
    let b = EquiNoxDesign::search_k(8, 8, 300, 5, 1);
    assert_eq!(a, b);
}

#[test]
fn equinox_run_with_fixed_design_is_deterministic() {
    let design = EquiNoxDesign::search_k(8, 8, 200, 5, 1);
    let go = || {
        let workload = Workload::new(benchmark("bfs").unwrap(), 0.08, 3);
        let mut cfg = SystemConfig::new(SchemeKind::EquiNox, 8, workload);
        cfg.design = Some(design.clone());
        System::build(cfg).run()
    };
    let a = go();
    let b = go();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.latency.total_ns(), b.latency.total_ns());
}

/// Every observable of a run, bit-exact (`RunMetrics` holds floats, so
/// compare their bit patterns rather than deriving `PartialEq`).
fn assert_metrics_identical(a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.cycles, b.cycles, "cycle counts diverged");
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "IPC diverged");
    assert_eq!(a.exec_ns.to_bits(), b.exec_ns.to_bits(), "exec time diverged");
    assert_eq!(a.edp.to_bits(), b.edp.to_bits(), "EDP diverged");
    assert_eq!(
        a.latency.total_ns().to_bits(),
        b.latency.total_ns().to_bits(),
        "latency diverged"
    );
}

// Note on `set_threads`: the worker count is a process-global, and tests
// in this binary run concurrently. That is safe here precisely because
// worker-count independence is the contract under test — any
// interleaving of these flips must still produce identical results, or
// the assertions below fail.

#[test]
fn audited_run_is_bit_identical_to_unaudited_run() {
    // The auditor's sweeps are read-only: enabling it must not perturb a
    // single metric, or `--audit` validation runs would not vouch for the
    // published (unaudited) numbers.
    let go = |audit: bool| {
        let workload = Workload::new(benchmark("hotspot").unwrap(), 0.08, 11);
        let mut cfg = SystemConfig::new(SchemeKind::SeparateBase, 8, workload);
        cfg.audit = audit.then(equinox_noc::AuditConfig::default);
        System::build(cfg).run()
    };
    let plain = go(false);
    let audited = go(true);
    assert_metrics_identical(&plain, &audited);
}

#[test]
fn sweep_matrix_is_worker_count_independent() {
    let schemes = &SchemeKind::ALL[..2];
    let benches = ["gaussian", "bfs"];
    let mut spec = equinox_config::ExperimentSpec::default();
    spec.scale = 0.05;
    spec.seeds = vec![1, 2];
    let go = || run_cells(matrix_cells(schemes, 8, &benches, &spec), &mut Vec::new()).unwrap();
    set_threads(1);
    let seq = go();
    set_threads(4);
    let par = go();
    set_threads(0);
    assert_eq!((seq.len(), par.len()), (4, 4));
    for (a, b) in seq.iter().zip(&par) {
        assert_metrics_identical(a, b);
    }
}

#[test]
fn load_latency_curve_is_worker_count_independent() {
    let p = Placement::diamond(8, 8, 8);
    let rates = [0.05, 0.2, 0.4];
    set_threads(1);
    let seq = load_latency_curve_cfg(&p, &ReplySide::Local, &rates, 2_000, 1, None, true);
    set_threads(3);
    let par = load_latency_curve_cfg(&p, &ReplySide::Local, &rates, 2_000, 1, None, true);
    set_threads(0);
    assert_eq!(seq, par, "curve must not depend on worker count");
}

#[test]
fn design_search_is_worker_count_independent() {
    set_threads(1);
    let a = EquiNoxDesign::search_k(8, 8, 150, 5, 2);
    set_threads(4);
    let b = EquiNoxDesign::search_k(8, 8, 150, 5, 2);
    set_threads(0);
    assert_eq!(a, b, "top-k placement fan-out must not depend on worker count");
}

/// One obs-armed EquiNox run's `equinox.obs/v3` block, pretty-printed.
fn obs_snapshot() -> String {
    let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 7);
    let mut cfg = SystemConfig::new(SchemeKind::EquiNox, 8, workload);
    cfg.obs = Some(equinox_core::ObsConfig {
        interval: 500,
        ..Default::default()
    });
    let mut sys = System::build(cfg);
    let m = sys.run();
    assert!(m.completed);
    sys.obs_json().expect("obs armed").pretty()
}

#[test]
fn ring_reply_fabric_completes_with_its_topology_threaded_through() {
    // A SeparateBase run whose reply subnet is a ring: the spec's
    // topology reaches the config, and the ring finishes the workload.
    use equinox_config::spec::field_by_flag;
    use equinox_config::{ExperimentSpec, Layer, Raw};
    let mut spec = ExperimentSpec::default();
    spec.set(field_by_flag("--topology").unwrap(), Raw::Text("ring"), Layer::Cli)
        .unwrap();
    let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 7);
    let cfg = SystemConfig::from_spec(SchemeKind::SeparateBase, 8, workload, &spec);
    assert_eq!(
        cfg.reply_topology,
        equinox_noc::TopologyKind::Ring,
        "apply_spec must thread the topology through"
    );
    let m = System::build(cfg).run();
    assert!(m.completed, "ring reply fabric must finish the workload");
}

/// One full `equinox.artifact/v1` envelope (metrics + the obs block) of
/// a bfs run, pretty-printed and followed by every network's `NetStats`
/// `Debug` text (every counter and both per-router vectors), that is
/// optionally forked: when `fork_cycle` is `Some(c)`, the system is stepped to
/// cycle `c`, snapshotted, restored into a *fresh* identically-
/// configured build, and finished there. Everything observable —
/// metrics, NetStats and the obs block — comes from whichever system
/// finished the run. Returns the artifact and the run's cycle count (so
/// callers can pick fork points strictly inside the run).
fn forked_artifact_snapshot(scheme: SchemeKind, fork_cycle: Option<u64>) -> (String, u64) {
    use equinox_bench::artifact::{artifact, run_metrics_json};
    use equinox_config::{ExperimentSpec, Json};
    let spec = ExperimentSpec::default();
    let build = || {
        let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 7);
        let mut cfg = SystemConfig::from_spec(scheme, 8, workload, &spec);
        cfg.obs = Some(equinox_core::ObsConfig {
            interval: 500,
            ..Default::default()
        });
        System::build(cfg)
    };
    let mut sys = build();
    if let Some(c) = fork_cycle {
        while sys.cycle() < c {
            sys.step();
        }
        let snap = sys.snapshot();
        sys = build();
        sys.restore(&snap).expect("identical build accepts the snapshot");
        assert!(sys.cycle() >= c, "restore resumes at the snapshot cycle");
    }
    let m = sys.run();
    assert!(m.completed);
    let results = Json::obj()
        .with("metrics", run_metrics_json(&m))
        .with("obs", sys.obs_json().expect("obs armed"));
    let mut text = artifact("determinism", &spec, results).pretty();
    for net in sys.networks() {
        text += &format!("\n{:?}", net.stats());
    }
    (text, m.cycles)
}

#[test]
fn forked_run_artifact_is_byte_identical_to_straight_through() {
    // The checkpoint/fork contract: snapshotting mid-run and finishing
    // from a restored fresh build must change nothing observable — the
    // full artifact, including the obs block, is byte-identical to a
    // straight-through run's. Da2Mesh exercises the multi-network shape,
    // EquiNox the EIR injection ports. Fork points are fractions of the
    // measured completion cycle so the snapshot always lands mid-run.
    for scheme in [SchemeKind::EquiNox, SchemeKind::Da2Mesh] {
        let (straight, total) = forked_artifact_snapshot(scheme, None);
        for frac in [4u64, 2] {
            let fork_at = (total / frac).max(1);
            let (forked, _) = forked_artifact_snapshot(scheme, Some(fork_at));
            if straight != forked {
                for (a, b) in straight.lines().zip(forked.lines()) {
                    if a != b {
                        panic!(
                            "{}: artifact diverged when forked at cycle {fork_at}:\n  straight: {a}\n  forked:   {b}",
                            scheme.name()
                        );
                    }
                }
                panic!(
                    "{}: artifact diverged in length when forked at cycle {fork_at}",
                    scheme.name()
                );
            }
        }
    }
}

#[test]
fn result_cache_replays_bit_identical_metrics() {
    // The content-addressed result cache: with `checkpoint_dir` armed,
    // the first call computes and stores each matrix cell, the second
    // replays it from disk — and both are bit-identical to an uncached
    // run of the same spec. The cache dir is per-test and set by value
    // on the spec (never via the environment; tests run concurrently).
    use equinox_config::ExperimentSpec;
    let dir = std::env::temp_dir().join(format!("eqsn_det_cache_{}", std::process::id()));
    let mut spec = ExperimentSpec::default();
    spec.scale = 0.05;
    let run = |spec: &ExperimentSpec| {
        let cell = Cell::new(SchemeKind::SeparateBase, 8, "gaussian", spec);
        run_cells(vec![cell], &mut Vec::new()).unwrap().remove(0)
    };
    let straight = run(&spec);
    spec.checkpoint_dir = dir.to_string_lossy().into_owned();
    let cold = run(&spec);
    let warm = run(&spec);
    assert_metrics_identical(&straight, &cold);
    assert_metrics_identical(&straight, &warm);
    // A replay is bit-identical to a recompute by design, so the two
    // calls above cannot show the cache was read. Plant a sentinel in
    // the one `run_*` entry: a real hit returns it.
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(entries.len(), 1, "one cell, one entry: {entries:?}");
    let mut sentinel = straight.clone();
    sentinel.cycles += 1;
    let sealed = equinox_bench::cache::seal(&equinox_bench::cache::encode_metrics(&sentinel));
    std::fs::write(&entries[0], sealed).unwrap();
    let hit = run(&spec);
    assert_eq!(hit.cycles, straight.cycles + 1, "the stored entry must be served, not recomputed");
    // A corrupted entry is a miss, not bad data: the cell recomputes.
    for entry in std::fs::read_dir(&dir).unwrap() {
        std::fs::write(entry.unwrap().path(), b"junk").unwrap();
    }
    let recovered = run(&spec);
    assert_metrics_identical(&straight, &recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_block_is_worker_count_independent() {
    // The artifact's obs block holds only cycle-derived data (the
    // wall-clock span profile is exported separately, to the Chrome
    // trace), so its full rendering — breakdown rows, histograms, time
    // series, heat and stall grids, link counters — must be byte-identical
    // across repeated runs and worker counts.
    set_threads(1);
    let seq = obs_snapshot();
    set_threads(4);
    let par = obs_snapshot();
    set_threads(0);
    assert_eq!(seq, par, "obs block must not depend on worker count");
    let again = obs_snapshot();
    assert_eq!(seq, again, "obs block must be reproducible run-to-run");
}
