//! Reproducibility: every layer of the stack is deterministic in its
//! seed, so published numbers can be regenerated bit-for-bit — and,
//! since PR 1 fans experiments out on the `equinox-exec` worker pool,
//! also independent of the worker count. Intra-run parallelism
//! (`--sim-threads`, the per-subnet `StepTeam` fan-out inside one
//! `System::step`) extends the same contract: full artifacts, obs/v1
//! blocks and golden flit traces must be byte-identical for any lane
//! count.
//!
//! The sim-thread count is always set **by value** on the spec/config
//! (never via the `EQUINOX_SIM_THREADS` environment variable): env
//! vars are process-global and tests in this binary run concurrently.

use equinox_suite::bench::{matrix_cells, run_cells, Cell};
use equinox_suite::core::loadlat::{load_latency_curve_cfg, ReplySide};
use equinox_suite::core::{EquiNoxDesign, RunMetrics, SchemeKind, System, SystemConfig};
use equinox_suite::exec::set_threads;
use equinox_suite::placement::Placement;
use equinox_suite::traffic::{profile::benchmark, Workload};

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
        cfg.audit = audit.then(equinox_suite::noc::AuditConfig::default);
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
    let mut spec = equinox_suite::config::ExperimentSpec::default();
    spec.scale = 0.05;
    spec.seeds = vec![1, 2];
    let go = || run_cells(matrix_cells(schemes, 8, &benches, &spec), &mut Vec::new());
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

/// One obs-armed EquiNox run's `equinox.obs/v1` block, pretty-printed.
fn obs_snapshot() -> String {
    let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 7);
    let mut cfg = SystemConfig::new(SchemeKind::EquiNox, 8, workload);
    cfg.obs = Some(equinox_suite::core::ObsConfig {
        interval: 500,
        ..Default::default()
    });
    let mut sys = System::build(cfg);
    let m = sys.run();
    assert!(m.completed);
    sys.obs_json().expect("obs armed").pretty()
}

/// One full `equinox.artifact/v1` envelope (metrics + per-network
/// counters + the obs/v1 block) for a run at the given sim-thread
/// count, pretty-printed.
///
/// One canonical spec is embedded in every envelope: the spec block
/// records the `sim_threads` knob itself, which legitimately differs
/// between the runs under comparison, so the lane count is applied at
/// the config level and everything *observable* — metrics, NetStats,
/// obs/v1 — must be byte-identical.
fn artifact_snapshot(scheme: SchemeKind, sim_threads: usize) -> String {
    use equinox_suite::bench::artifact::{artifact, net_stats_json, run_metrics_json};
    use equinox_suite::config::{ExperimentSpec, Json};
    let spec = ExperimentSpec::default();
    let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 7);
    let mut cfg = SystemConfig::from_spec(scheme, 8, workload, &spec);
    cfg.obs = Some(equinox_suite::core::ObsConfig {
        interval: 500,
        ..Default::default()
    });
    cfg.sim_threads = sim_threads;
    let mut sys = System::build(cfg);
    let m = sys.run();
    assert!(m.completed);
    let nets: Vec<Json> = sys.networks().iter().map(|n| net_stats_json(n.stats())).collect();
    let results = Json::obj()
        .with("metrics", run_metrics_json(&m))
        .with("net_stats", nets)
        .with("obs", sys.obs_json().expect("obs armed"));
    artifact("determinism", &spec, results).pretty()
}

#[test]
fn artifact_is_sim_thread_count_independent() {
    // DA2Mesh exercises the real fan-out (nine subnets, 2.5:1 subnet
    // clocks); SingleBase pins the degenerate single-net path, which
    // must resolve to serial stepping and the same bytes.
    for scheme in [SchemeKind::Da2Mesh, SchemeKind::SingleBase] {
        let serial = artifact_snapshot(scheme, 1);
        for k in [2usize, 8] {
            let par = artifact_snapshot(scheme, k);
            assert_eq!(
                serial,
                par,
                "{}: artifact diverged at {k} sim-threads",
                scheme.name()
            );
        }
    }
}

#[test]
fn ring_reply_fabric_artifact_is_sim_thread_count_independent() {
    // The sim-thread contract extends to the generalized topologies: a
    // SeparateBase run whose reply subnet is a ring produces the same
    // full artifact (metrics + NetStats + obs/v1) for any lane count.
    use equinox_suite::bench::artifact::{artifact, net_stats_json, run_metrics_json};
    use equinox_suite::config::spec::field_by_flag;
    use equinox_suite::config::{ExperimentSpec, Json, Layer};
    let mut spec = ExperimentSpec::default();
    spec.set_str(field_by_flag("--topology").unwrap(), "ring", Layer::Cli)
        .unwrap();
    let snapshot = |sim_threads: usize| {
        let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 7);
        let mut cfg = SystemConfig::from_spec(SchemeKind::SeparateBase, 8, workload, &spec);
        assert_eq!(
            cfg.reply_topology,
            equinox_suite::noc::TopologyKind::Ring,
            "apply_spec must thread the topology through"
        );
        cfg.obs = Some(equinox_suite::core::ObsConfig {
            interval: 500,
            ..Default::default()
        });
        cfg.sim_threads = sim_threads;
        let mut sys = System::build(cfg);
        let m = sys.run();
        assert!(m.completed, "ring reply fabric must finish the workload");
        let nets: Vec<Json> = sys.networks().iter().map(|n| net_stats_json(n.stats())).collect();
        let results = Json::obj()
            .with("metrics", run_metrics_json(&m))
            .with("net_stats", nets)
            .with("obs", sys.obs_json().expect("obs armed"));
        artifact("determinism", &spec, results).pretty()
    };
    let serial = snapshot(1);
    for k in [2usize, 8] {
        let par = snapshot(k);
        assert_eq!(serial, par, "ring artifact diverged at {k} sim-threads");
    }
}

#[test]
fn sim_threads_spec_field_reaches_the_system() {
    use equinox_suite::config::spec::field_by_flag;
    use equinox_suite::config::{ExperimentSpec, Layer};
    let mut spec = ExperimentSpec::default();
    spec.set_str(field_by_flag("--sim-threads").unwrap(), "8", Layer::Env)
        .unwrap();
    assert_eq!(spec.sim_threads, 8);
    let workload = Workload::new(benchmark("hotspot").unwrap(), 0.05, 3);
    let cfg = SystemConfig::from_spec(SchemeKind::Da2Mesh, 8, workload, &spec);
    assert_eq!(cfg.sim_threads, 8, "apply_spec must copy the field");
    let sys = System::build(cfg);
    assert_eq!(sys.sim_lanes(), 8, "nine subnets stepped on eight lanes");
}

#[test]
fn parallel_flit_trace_matches_serial_golden() {
    // The flit trace is the finest-grained observable the simulator
    // has: every injection, hop and ejection with its cycle, router,
    // packet and sequence number. Serial and parallel stepping must
    // produce literally the same event streams, per network, in order.
    let go = |sim_threads: usize| {
        let workload = Workload::new(benchmark("hotspot").unwrap(), 0.08, 13);
        let mut cfg = SystemConfig::new(SchemeKind::Da2Mesh, 8, workload);
        cfg.max_cycles = 30_000;
        cfg.trace_capacity = 1 << 16;
        cfg.sim_threads = sim_threads;
        let mut sys = System::build(cfg);
        let m = sys.run();
        (m.cycles, sys.drain_traces())
    };
    let (c1, t1) = go(1);
    let (c4, t4) = go(4);
    assert_eq!(c1, c4, "cycle counts diverged");
    let events: usize = t1.iter().map(|(_, e)| e.len()).sum();
    assert!(events > 0, "trace must capture real flit events");
    assert_eq!(
        t1, t4,
        "golden flit traces diverged between serial and parallel stepping"
    );
}

/// The [`artifact_snapshot`] envelope for a run that is optionally
/// forked: when `fork_cycle` is `Some(c)`, the system is stepped to
/// cycle `c`, snapshotted, restored into a *fresh* identically-
/// configured build, and finished there. Everything observable —
/// metrics, NetStats and the obs/v1 block — comes from whichever system
/// finished the run. Returns the artifact and the run's cycle count (so
/// callers can pick fork points strictly inside the run).
fn forked_artifact_snapshot(scheme: SchemeKind, fork_cycle: Option<u64>) -> (String, u64) {
    use equinox_suite::bench::artifact::{artifact, net_stats_json, run_metrics_json};
    use equinox_suite::config::{ExperimentSpec, Json};
    let spec = ExperimentSpec::default();
    let build = || {
        let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 7);
        let mut cfg = SystemConfig::from_spec(scheme, 8, workload, &spec);
        cfg.obs = Some(equinox_suite::core::ObsConfig {
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
    let nets: Vec<Json> = sys.networks().iter().map(|n| net_stats_json(n.stats())).collect();
    let results = Json::obj()
        .with("metrics", run_metrics_json(&m))
        .with("net_stats", nets)
        .with("obs", sys.obs_json().expect("obs armed"));
    (artifact("determinism", &spec, results).pretty(), m.cycles)
}

#[test]
fn forked_run_artifact_is_byte_identical_to_straight_through() {
    // The checkpoint/fork contract: snapshotting mid-run and finishing
    // from a restored fresh build must change nothing observable — the
    // full artifact, including the obs/v1 block, is byte-identical to a
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
    use equinox_suite::config::ExperimentSpec;
    let dir = std::env::temp_dir().join(format!("eqsn_det_cache_{}", std::process::id()));
    let mut spec = ExperimentSpec::default();
    spec.scale = 0.05;
    let run = |spec: &ExperimentSpec| {
        let cell = Cell::new(SchemeKind::SeparateBase, 8, "gaussian", spec);
        run_cells(vec![cell], &mut Vec::new()).remove(0)
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
    std::fs::write(&entries[0], equinox_suite::bench::cache::encode_metrics(&sentinel)).unwrap();
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
    // The artifact's obs/v1 block holds only cycle-derived data (the
    // wall-clock span profile is exported separately, to the Chrome
    // trace), so its full rendering — counters, latency histograms,
    // time series, heat grids, link counters — must be byte-identical
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
