//! End-to-end tests of the unified `equinox` driver and the artifact
//! layer: every registered scenario resolves and is listed in `--help`,
//! malformed command lines die loudly, a real scenario round-trips
//! through the artifact envelope, and a full `RunMetrics` emission is
//! pinned against a golden snapshot (regenerate with
//! `EQUINOX_REGEN_GOLDEN=1`).

use equinox_bench::artifact::run_metrics_json;
use equinox_bench::scenarios::{scenario, scenarios};
use equinox_config::{parse_json, ExperimentSpec, Json};
use equinox_core::{SchemeKind, SystemConfig};
use std::path::Path;
use std::process::Command;

fn driver() -> Command {
    Command::new(env!("CARGO_BIN_EXE_equinox"))
}

#[test]
fn every_scenario_resolves_and_appears_in_help() {
    let out = driver().arg("--help").output().expect("run driver");
    assert!(out.status.success(), "--help must exit 0");
    let help = String::from_utf8(out.stdout).expect("utf8 help");
    for s in scenarios() {
        assert!(scenario(s.name).is_some(), "{} must resolve", s.name);
        assert!(help.contains(s.name), "--help must list '{}'", s.name);
    }
    // The flag section comes from the shared registry.
    for flag in ["--scale", "--seeds", "--no-activity-gate", "--spec", "--out", "--topology", "--traffic"] {
        assert!(help.contains(flag), "--help must list '{flag}'");
    }
}

#[test]
fn unknown_scenario_is_fatal() {
    let out = driver().arg("fig99").output().expect("run driver");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("fig99"), "stderr must name the scenario: {err}");
}

#[test]
fn malformed_values_and_unknown_flags_are_fatal() {
    for (args, needle) in [
        (vec!["table1", "--scale", "fast"], "--scale"),
        (vec!["table1", "--threads", "many"], "--threads"),
        (vec!["table1", "--bogus"], "--bogus"),
        (vec!["table1", "--scale"], "--scale"),
        (vec!["table1", "--seeds", "1,x"], "--seeds"),
        (vec!["fabric", "--topology", "torus"], "--topology"),
        (vec!["fabric", "--traffic", "tornado"], "--traffic"),
        (vec!["observe", "--obs-interval", "0"], "--obs-interval"),
        // Fields nothing read, since removed: unknown like any typo.
        (vec!["fabric", "--trace-capacity", "128"], "--trace-capacity"),
        (vec!["fabric", "--audit-watchdog", "0"], "--audit-watchdog"),
        // A scenario precondition, not a parse error — same discipline.
        (vec!["watch"], "--obs-stream"),
    ] {
        let out = driver().args(&args).output().expect("run driver");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "{args:?}: stderr must name {needle}: {err}");
        assert!(err.contains("usage:"), "{args:?}: stderr must show usage");
    }
}

#[test]
fn unbuildable_machines_and_values_under_a_bound_are_named_not_backtraced() {
    // Each of these used to die in an assert three frames into the build
    // (exit 101), hang until killed, or emit an artifact of empty runs.
    let cases: [(&[&str], &str); 43] = [
        (&["sweep", "--n", "9"], "n = 9: Interposer-CMesh"),
        (&["sweep", "--n", "6"], "n_cbs = 8: SingleBase"),
        (&["loadlat", "--n", "1"], "--n"),
        (&["sweep", "--n", "0"], "--n"),
        (&["designer", "--cbs", "0"], "--cbs"),
        (&["sweep", "--scale", "nan"], "--scale"),
        (&["sweep", "--scale", "-1"], "--scale"),
        (&["sweep", "--reply-compression", "1.5"], "--reply-compression"),
        (&["sweep", "--ni-queue-cap", "0"], "--ni-queue-cap"),
        (&["sweep", "--cb-inflight-cap", "0"], "--cb-inflight-cap"),
        (&["sweep", "--max-cycles", "0"], "--max-cycles"),
        (&["loadlat", "--cycles", "0"], "--cycles"),
        // Packet cycles are 32-bit; `cycles + cycles / 5` used to
        // overflow in the load-latency loop.
        (&["sweep", "--max-cycles", "4294967296"], "'--max-cycles': must be <= 4294967295, got 4294967296"),
        (&["loadlat", "--cycles", "3579139413"], "'--cycles': must be <= 3579139412, got 3579139413"),
        (&["loadlat", "--cycles", "18446744073709551615"], "got 18446744073709551615"),
        (&["designer", "--iters", "0"], "--iters"),
        (&["loadlat", "--iters", "0"], "--iters"),
        // A search reserves its tree for the whole budget up front: these
        // died on a pool worker asserting `u32::MAX`, or aborted
        // allocating 19 GB.
        (&["designer", "--iters", "5000000000"], "'--iters': must be <= 1000000, got 5000000000"),
        (&["loadlat", "--iters", "5000000000"], "'--iters': must be <= 1000000, got 5000000000"),
        (&["designer", "--iters", "100000000"], "'--iters': must be <= 1000000, got 100000000"),
        // No N-Queen solution exists on 2x2 or 3x3, so EquiNox's design
        // search has no board to start from.
        (&["designer", "--n", "3", "--cbs", "3"], "n = 3: EquiNox"),
        (&["designer", "--n", "2", "--cbs", "1"], "n = 2: EquiNox"),
        (&["loadlat", "--n", "3", "--cbs", "3"], "n = 3: EquiNox"),
        (&["sweep", "--n", "2", "--cbs", "2"], "n = 2: EquiNox"),
        // More banks than rows walk knight moves, which visit each tile
        // once: these died in the walk, or on a pool worker sampling a
        // PE from an empty list.
        (&["loadlat", "--n", "2"], "n_cbs = 8: EquiNox"),
        (&["designer", "--n", "2"], "n_cbs = 8: EquiNox"),
        (&["designer", "--n", "3", "--cbs", "10"], "n_cbs = 10: EquiNox"),
        (&["loadlat", "--n", "3", "--cbs", "9"], "n_cbs = 9: a 3x3 mesh has 9 tiles"),
        (&["loadlat", "--n", "4", "--cbs", "16"], "n_cbs = 16: a 4x4 mesh has 16 tiles"),
        // A scenario's own cells are checked before any design search or
        // fan-out; these died on a pool worker.
        (&["fig9", "--cbs", "9"], "equinox: fig9: n_cbs = 9: SingleBase"),
        (&["fig10", "--cbs", "9"], "equinox: fig10: n_cbs = 9"),
        (&["fig11", "--cbs", "9"], "equinox: fig11: n_cbs = 9"),
        (&["fig12", "--cbs", "9"], "equinox: fig12: n_cbs = 9"),
        (&["fig12", "--cbs", "13"], "equinox: fig12: n_cbs = 13"),
        (&["extensions", "--cbs", "9"], "equinox: extensions: n_cbs = 9"),
        (&["all", "--cbs", "9"], "equinox: all: fig9: n_cbs = 9"),
        // `fabric` injects with chance `--scale` per node and cycle: this
        // ran as 1 and recorded an offered load of 5.
        (&["fabric", "--scale", "5", "--cycles", "100"], "equinox: fabric: scale = 5: --scale is each node's chance"),
        // A hit or a sample past the cycle cap never comes: the first ran
        // like `--l2-latency 0` (the sum wrapped), the second panicked in
        // debug builds.
        (&["observe", "--scale", "0.05", "--l2-latency", "18446744073709551615"], "'--l2-latency': must be <= 4294967295, got 18446744073709551615"),
        (&["observe", "--obs-interval", "18446744073709551615"], "'--obs-interval': must be <= 4294967295, got 18446744073709551615"),
        // A route table holds (n²)² entries: the first aborted allocating
        // 4 TB, the second ran past a minute without finishing a cell, and
        // a design search grows steeply past 24x24.
        (&["fabric", "--n", "1000", "--cycles", "1"], "'--n': must be <= 24, got 1000"),
        (&["sweep", "--n", "1000"], "'--n': must be <= 24, got 1000"),
        (&["designer", "--n", "25", "--iters", "1"], "'--n': must be <= 24, got 25"),
        // A pipeline this deep outlasts the fixed drain budget: this died
        // on an assert (exit 101).
        (&["fabric", "--pipeline-extra", "300000", "--cycles", "100"], "equinox: fabric: 640 flits still in the network after the drain budget of 200000 cycles"),
    ];
    for (args, needle) in cases {
        let out = driver().args(args).output().expect("run driver");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must emit no artifact");
        let err = String::from_utf8(out.stderr).unwrap();
        let named: Vec<&str> = err.lines().filter(|l| l.starts_with("equinox: ")).collect();
        assert!(named.len() == 1 && named[0].contains(needle), "{args:?}: {named:?}");
        assert!(!err.contains("panicked") && !err.contains("backtrace"), "{args:?}: {err}");
    }
    // A bare 9x9 network is legal: `fabric` has no concentrated mesh to fit.
    let out = driver().args(["fabric", "--n", "9", "--cycles", "300", "--scale", "0.1"]).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn sim_threads_other_than_1_is_named_on_every_layer() {
    // Every run is single-threaded, so a value that would once have
    // picked a lane count is refused on whichever layer sets it.
    let dir = std::env::temp_dir().join(format!("equinox_sim_threads_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, r#"{"sim_threads": 4}"#).unwrap();
    let mut cli = driver();
    cli.args(["table1", "--sim-threads", "2"]);
    let mut env = driver();
    env.arg("table1").env("EQUINOX_SIM_THREADS", "0");
    let mut file = driver();
    file.args(["table1", "--spec"]).arg(&spec_path);
    for (mut cmd, needle) in [
        (cli, "'--sim-threads': must be <= 1, got 2"),
        (env, "EQUINOX_SIM_THREADS: must be >= 1, got 0"),
        (file, "sim_threads: must be <= 1, got 4"),
    ] {
        let out = cmd.output().expect("run driver");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{needle}: {err}");
        assert!(out.stdout.is_empty(), "{needle}: must emit no artifact");
        assert!(err.lines().next().is_some_and(|l| l.contains(needle)), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_spec_file_nested_too_deep_is_named_not_a_stack_overflow() {
    // 200 000 open brackets aborted the process on a stack overflow.
    let dir = fresh_temp_dir("deep_spec");
    let spec_path = dir.join("deep.json");
    std::fs::write(&spec_path, "[".repeat(200_000)).unwrap();
    let out = driver().args(["table1", "--spec"]).arg(&spec_path).output().expect("run driver");
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty(), "must emit no artifact");
    let first = err.lines().next().unwrap_or("");
    assert!(first.contains(spec_path.to_str().unwrap()) && first.contains("nesting deeper than 128 levels"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn driver_emits_a_valid_artifact_with_spec_provenance() {
    let out = driver()
        .args(["table1", "--scale", "0.25", "--audit"])
        .output()
        .expect("run driver");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let artifact = parse_json(&String::from_utf8(out.stdout).unwrap()).expect("stdout is JSON");
    assert_eq!(
        artifact.get("schema").and_then(Json::as_str),
        Some("equinox.artifact/v1")
    );
    assert_eq!(artifact.get("scenario").and_then(Json::as_str), Some("table1"));
    let spec = artifact.get("spec").expect("spec block");
    assert_eq!(spec.get("scale").and_then(Json::as_f64), Some(0.25));
    assert_eq!(spec.get("audit").and_then(Json::as_bool), Some(true));
    let prov = spec.get("provenance").expect("provenance block");
    assert_eq!(prov.get("scale").and_then(Json::as_str), Some("cli"));
    assert_eq!(prov.get("n").and_then(Json::as_str), Some("default"));
    assert!(artifact.get("results").is_some());
    // The human report went to stderr, not stdout.
    assert!(String::from_utf8(out.stderr).unwrap().contains("Table 1"));
}

#[test]
fn spec_file_layer_reaches_the_artifact() {
    let dir = std::env::temp_dir().join("equinox_driver_test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, r#"{"scale": 0.125, "seeds": [5]}"#).unwrap();
    let out_path = dir.join("artifact.json");
    let out = driver()
        .args(["table1", "--spec"])
        .arg(&spec_path)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("run driver");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let artifact = parse_json(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    let spec = artifact.get("spec").unwrap();
    assert_eq!(spec.get("scale").and_then(Json::as_f64), Some(0.125));
    assert_eq!(
        spec.get("provenance").unwrap().get("scale").and_then(Json::as_str),
        Some("file")
    );
}

#[test]
fn observe_scenario_emits_obs_block_and_chrome_trace() {
    let dir = std::env::temp_dir().join("equinox_driver_obs_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let out = driver()
        .args(["observe", "--scale", "0.05", "--obs", "--obs-interval", "500", "--trace"])
        .arg("--trace-out")
        .arg(&trace_path)
        .output()
        .expect("run driver");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // The artifact carries the one obs block: per-class breakdowns and
    // histograms, the series, and per-network heat and stall grids.
    let artifact = parse_json(&String::from_utf8(out.stdout).unwrap()).expect("stdout is JSON");
    let results = artifact.get("results").expect("results block");
    assert!(results.get("obs_v2").is_none(), "one obs block, not two");
    let obs = results.get("obs").expect("obs block");
    assert_eq!(obs.get("schema").and_then(Json::as_str), Some("equinox.obs/v3"));
    assert_eq!(obs.get("interval").and_then(Json::as_u64), Some(500));
    let series = obs.get("series").expect("series block");
    let cycles = series.get("cycle").and_then(Json::as_arr).expect("cycle axis");
    assert!(!cycles.is_empty(), "the run must have produced samples");
    for col in ["throughput_flits_per_cycle", "packets_in_flight"] {
        let vals = series.get(col).and_then(Json::as_arr).unwrap_or_else(|| panic!("series '{col}'"));
        assert_eq!(vals.len(), cycles.len(), "'{col}' rows match the cycle axis");
    }
    // EquiNox arms EIR load series, one per CB group.
    assert!(series.get("eir_load_cb0").is_some(), "EIR load series present");

    let mesh = obs.get("mesh").and_then(Json::as_u64).expect("mesh side");
    for class in ["request", "reply"] {
        let row = obs.get("classes").and_then(|p| p.get(class)).expect("class row");
        let get = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("{class}.{k}"));
        let sum: u64 = ["inj_queue", "vc_alloc", "switch_loss", "credit_starve", "eject_wait", "serialization"]
            .iter()
            .map(|&c| get(c))
            .sum();
        assert_eq!(sum, get("e2e_cycles"), "{class}: causes reconstruct e2e");
        let hist = row.get("latency").expect("latency histogram");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(get("delivered")));
        for q in ["p50", "p95", "p99"] {
            let v = hist.get(q).and_then(Json::as_f64).unwrap_or_else(|| panic!("{q} present"));
            assert!(v > 0.0, "{class} {q} must be positive, got {v}");
        }
        assert!(row.get("inj_wait").and_then(|h| h.get("count")).is_some(), "{class} inj_wait");
        let heat = row.get("inj_heat").and_then(Json::as_arr).expect("inj heat grid");
        assert_eq!(heat.len() as u64, mesh * mesh, "{class}: row-major mesh² grid");
    }

    let nets = obs.get("nets").and_then(Json::as_arr).expect("per-network entries");
    assert_eq!(nets.len(), 2, "EquiNox runs request + reply nets");
    for (i, net) in nets.iter().enumerate() {
        assert_eq!(net.get("net").and_then(Json::as_u64), Some(i as u64));
        let w = net.get("width").and_then(Json::as_u64).expect("width");
        let h = net.get("height").and_then(Json::as_u64).expect("height");
        assert!(net.get("variance").and_then(Json::as_f64).is_some(), "net{i} variance");
        let grid = |g: Option<&Json>| g.and_then(Json::as_arr).map_or(0, |g| g.len() as u64);
        assert_eq!(grid(net.get("heat")), w * h, "net{i}: row-major width x height heat");
        assert!(grid(net.get("link_flits")) > 0, "net{i} link flit counts");
        for cause in ["vc_alloc", "switch_loss", "credit_starve", "eject_wait"] {
            let g = net.get("stall").and_then(|s| s.get(cause));
            assert_eq!(grid(g), w * h, "net{i} {cause}: row-major width x height grid");
        }
    }

    // The trace file is valid Chrome trace-event JSON with both span
    // (complete) and flit (instant) events.
    let doc = std::fs::read_to_string(&trace_path).expect("trace file written");
    let trace = parse_json(&doc).expect("trace parses as JSON");
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(Json::as_str))
        .collect();
    assert!(phases.contains(&"X"), "wall-clock span events present");
    assert!(phases.contains(&"i"), "flit instant events present");
    assert!(phases.contains(&"M"), "process/thread metadata present");
}

#[test]
fn stream_records_and_watch_replays_end_to_end() {
    // Record: an instrumented run streams line-JSON frames to a file.
    let dir = std::env::temp_dir().join("equinox_driver_stream_test");
    std::fs::create_dir_all(&dir).unwrap();
    let stream_path = dir.join("stream.jsonl");
    let _ = std::fs::remove_file(&stream_path);
    let out = driver()
        .args(["observe", "--scale", "0.05", "--obs-interval", "500", "--obs-stream"])
        .arg(&stream_path)
        .output()
        .expect("run driver");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Framing contract: every line is one standalone JSON object, with
    // sample frames during the run and exactly one terminal summary.
    let doc = std::fs::read_to_string(&stream_path).expect("stream file written");
    let (mut samples, mut summaries) = (0, 0);
    for line in doc.lines() {
        let frame = parse_json(line).unwrap_or_else(|e| panic!("frame not standalone JSON: {e}\n{line}"));
        match frame.get("schema").and_then(Json::as_str) {
            Some("obs.sample/v1") => samples += 1,
            Some("obs.summary/v1") => summaries += 1,
            other => panic!("unknown frame schema {other:?}"),
        }
        assert!(frame.get("cycle").and_then(Json::as_u64).is_some(), "cycle stamp");
        let run = frame.get("run").and_then(Json::as_str).expect("run identity");
        assert!(run.starts_with("EquiNox/bfs/42/8x8/"), "{run}");
    }
    assert!(samples > 0, "run long enough to emit samples");
    assert_eq!(summaries, 1, "exactly one terminal summary frame");

    // Replay: `equinox watch` attaches to the recorded stream and
    // accounts for every frame with no corruption.
    let out = driver()
        .args(["watch", "--obs-stream"])
        .arg(&stream_path)
        .output()
        .expect("run driver");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let artifact = parse_json(&String::from_utf8(out.stdout).unwrap()).expect("stdout is JSON");
    assert_eq!(artifact.get("scenario").and_then(Json::as_str), Some("watch"));
    let results = artifact.get("results").expect("results block");
    assert_eq!(
        results.get("frames_seen").and_then(Json::as_u64),
        Some(samples + summaries),
        "watch accounts for every recorded frame"
    );
    assert_eq!(results.get("corrupt_lines").and_then(Json::as_u64), Some(0));
    assert_eq!(results.get("runs_seen").and_then(Json::as_u64), Some(1));
    assert_eq!(results.get("summaries_seen").and_then(Json::as_u64), Some(1));
    // The dashboard rendered to stderr.
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("run summary"), "dashboard on stderr: {err}");

    // A watcher with no stream target dies loudly.
    let out = driver().arg("watch").output().expect("run driver");
    assert!(!out.status.success(), "watch without --obs-stream must fail");
}

#[test]
fn unusable_output_and_feed_paths_are_named_before_any_run() {
    // Each of these used to panic: the stream on a pool worker, the
    // trace after the whole run, the feed in the watcher. A path under
    // a regular file can be neither created nor read.
    let bad = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml").join("out.json");
    let missing = std::env::temp_dir().join(format!("equinox_no_feed_{}.ndjson", std::process::id()));
    let (bad, missing) = (bad.to_str().unwrap(), missing.to_str().unwrap());
    for args in [
        ["observe", "--obs-stream", bad],
        ["observe", "--trace-out", bad],
        ["watch", "--obs-stream", missing],
        // This one ran all 42 cells and printed every table first.
        ["fig9", "--out", bad],
    ] {
        let out = driver().args(args).output().expect("run driver");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must emit no artifact");
        let err = String::from_utf8(out.stderr).unwrap();
        let named: Vec<&str> = err.lines().filter(|l| l.starts_with("equinox: ")).collect();
        assert!(named.len() == 1 && named[0].contains(args[1]) && named[0].contains(args[2]), "{args:?}: {named:?}");
        let report = ["Observability", "searching design", "Figure 9("].iter().any(|r| err.contains(r));
        assert!(!err.contains("panicked") && !report, "{args:?}: {err}");
    }
}

/// A fresh directory under the system temp dir, named for `tag`.
fn fresh_temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("equinox_driver_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn svg_names_the_docs_path_it_cannot_create() {
    let dir = fresh_temp_dir("svg_blocked");
    std::fs::write(dir.join("docs"), "a file where the directory goes").unwrap();
    let out = driver().arg("svg").current_dir(&dir).output().expect("run driver");
    assert_eq!(out.status.code(), Some(2), "svg must exit 2");
    assert!(out.stdout.is_empty(), "svg must emit no artifact");
    let err = String::from_utf8(out.stderr).unwrap();
    let named: Vec<&str> = err.lines().filter(|l| l.starts_with("equinox: ")).collect();
    assert!(named.len() == 1 && named[0].starts_with("equinox: svg: docs: "), "{named:?}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `all` runs exactly the registry's `in_all` scenarios, in registry
/// order, and `svg` among them writes its figures under the working
/// directory.
#[test]
fn all_runs_every_paper_scenario_and_writes_the_svgs() {
    let dir = fresh_temp_dir("all");
    let out = driver()
        .args(["all", "--scale", "0.02", "--seeds", "1"])
        .current_dir(&dir)
        .output()
        .expect("run driver");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let artifact = parse_json(&String::from_utf8(out.stdout).unwrap()).expect("stdout is JSON");
    let Some(Json::Obj(results)) = artifact.get("results") else { panic!("results block") };
    let ran: Vec<&str> = results.iter().map(|(k, _)| k.as_str()).collect();
    let paper: Vec<&str> = scenarios().iter().filter(|s| s.in_all).map(|s| s.name).collect();
    assert_eq!(ran, paper);
    for svg in ["fig7_design", "fig4_top", "fig4_diamond", "fig4_nqueen"] {
        assert!(dir.join(format!("docs/{svg}.svg")).is_file(), "{svg}.svg");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fabric_scenario_runs_end_to_end_through_the_driver() {
    // A ring fabric under hotspot traffic, audited, through the real
    // binary: the artifact must carry the new spec fields with CLI
    // provenance and a clean audit + snapshot round-trip.
    let out = driver()
        .args([
            "fabric", "--topology", "ring", "--traffic", "hotspot", "--n", "6", "--scale",
            "0.08", "--cycles", "600", "--audit",
        ])
        .output()
        .expect("run driver");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let artifact = parse_json(&String::from_utf8(out.stdout).unwrap()).expect("stdout is JSON");
    assert_eq!(artifact.get("scenario").and_then(Json::as_str), Some("fabric"));
    let spec = artifact.get("spec").expect("spec block");
    assert_eq!(spec.get("topology").and_then(Json::as_str), Some("ring"));
    assert_eq!(spec.get("traffic").and_then(Json::as_str), Some("hotspot"));
    let prov = spec.get("provenance").expect("provenance block");
    assert_eq!(prov.get("topology").and_then(Json::as_str), Some("cli"));
    assert_eq!(prov.get("traffic").and_then(Json::as_str), Some("cli"));
    let results = artifact.get("results").expect("results block");
    assert_eq!(results.get("topology").and_then(Json::as_str), Some("ring"));
    assert_eq!(results.get("traffic").and_then(Json::as_str), Some("hotspot"));
    assert_eq!(results.get("width").and_then(Json::as_u64), Some(6));
    assert_eq!(results.get("cycles").and_then(Json::as_u64), Some(600));
    assert_eq!(results.get("audit_violations").and_then(Json::as_u64), Some(0));
    let inj = results.get("injected_flits").and_then(Json::as_u64).unwrap();
    let ej = results.get("ejected_flits").and_then(Json::as_u64).unwrap();
    assert!(inj > 0 && inj == ej, "ring must move and conserve flits ({inj}/{ej})");
}

/// The result cache replays finished cells, so it must stand aside when
/// a run's output is more than their metrics: a stream file the
/// simulation writes. A `watch` reads its feed afresh every time.
#[test]
fn result_cache_stands_aside_when_output_is_not_in_the_artifact() {
    let dir = std::env::temp_dir().join(format!("equinox_driver_cache_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("ckpt");
    let smoke = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/ci-smoke.json");
    let run = |args: &[&str], target: &Path| {
        let out = driver()
            .args(args)
            .arg(target)
            .arg("--checkpoint-dir")
            .arg(&ckpt)
            .output()
            .expect("run driver");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        out
    };

    // A streamed run, twice: the second must simulate every cell again
    // and leave a complete stream, not replay the first run's cells.
    let stream = dir.join("s.jsonl");
    let fig11 = ["fig11", "--spec", smoke.to_str().unwrap(), "--obs-stream"];
    run(&fig11, &stream);
    std::fs::remove_file(&stream).expect("first run wrote the stream");
    run(&fig11, &stream);
    let doc = std::fs::read_to_string(&stream).expect("second run wrote the stream");
    let last = parse_json(doc.lines().last().expect("stream not empty")).expect("frame is JSON");
    assert_eq!(last.get("schema").and_then(Json::as_str), Some("obs.summary/v1"));

    // `watch` over a feed that grows between two invocations: the second
    // must read the file again and account for the appended lines.
    let feed = dir.join("w.jsonl");
    let sample = doc.lines().next().unwrap();
    std::fs::write(&feed, format!("{sample}\n")).unwrap();
    let watch = ["watch", "--obs-stream"];
    let results = |out: std::process::Output| {
        let artifact = parse_json(&String::from_utf8(out.stdout).unwrap()).expect("stdout is JSON");
        artifact.get("results").expect("results block").clone()
    };
    let first = results(run(&watch, &feed));
    assert_eq!(first.get("frames_seen").and_then(Json::as_u64), Some(1));
    let summary = doc.lines().last().unwrap();
    std::fs::write(&feed, format!("{sample}\n{{clipped\n{sample}\n{summary}\n")).unwrap();
    let second = results(run(&watch, &feed));
    assert_eq!(second.get("frames_seen").and_then(Json::as_u64), Some(3));
    assert_eq!(second.get("corrupt_lines").and_then(Json::as_u64), Some(1));
    assert_eq!(second.get("summaries_seen").and_then(Json::as_u64), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the driver with `args` plus `--checkpoint-dir ckpt`; returns
/// (stdout, stderr).
fn cached_run(args: &[&str], ckpt: &Path) -> (String, String) {
    let out = driver().args(args).arg("--checkpoint-dir").arg(ckpt).output().expect("run driver");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{args:?}: {err}");
    (String::from_utf8(out.stdout).unwrap(), err)
}

fn entries(ckpt: &Path, prefix: &str) -> usize {
    let names = std::fs::read_dir(ckpt).unwrap().map(|e| e.unwrap().file_name());
    names.filter(|n| n.to_string_lossy().starts_with(prefix)).count()
}

/// A warm `--checkpoint-dir` serves every cell and the design from
/// their entries: the run searches and stores nothing, and its artifact
/// is the cold run's bytes, which are an uncached run's but for the
/// `checkpoint_dir` value and its provenance.
#[test]
fn a_warm_checkpoint_dir_reruns_a_scenario_to_the_same_bytes() {
    let ckpt = std::env::temp_dir().join(format!("equinox_driver_warm_rerun_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let args = ["fig9", "--scale", "0.02", "--seeds", "1"];
    let (cold, _) = cached_run(&args, &ckpt);
    let stored = (entries(&ckpt, "run_"), entries(&ckpt, "design_"));
    assert_eq!(stored, (42, 1), "one entry per cell, one design");
    let (warm, warm_err) = cached_run(&args, &ckpt);
    assert_eq!(cold, warm, "cold and warm artifacts are the same bytes");
    assert_eq!((entries(&ckpt, "run_"), entries(&ckpt, "design_")), stored, "warm stores nothing");
    assert!(!warm_err.contains("searching design"), "the design is served: {warm_err}");
    assert!(warm_err.contains("Figure 9"), "the scenario runs and reports: {warm_err}");
    let out = driver().args(args).output().expect("run driver");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let uncached = String::from_utf8(out.stdout).unwrap();
    let but_the_dir = |text: &str| {
        text.lines().filter(|l| !l.contains("\"checkpoint_dir\"")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(but_the_dir(&warm), but_the_dir(&uncached));
    assert_eq!(warm.lines().count(), uncached.lines().count());
    std::fs::remove_dir_all(&ckpt).ok();
}

/// fig10's cells are a subset of fig9's, whatever the worker count: on a
/// warm directory it simulates nothing, so it searches no design either.
#[test]
fn cells_and_designs_are_shared_across_scenarios_and_thread_counts() {
    let ckpt = std::env::temp_dir().join(format!("equinox_driver_cell_share_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let tiny = ["--scale", "0.02", "--seeds", "1"];
    let (_, err) = cached_run(&[&["fig9"], &tiny[..]].concat(), &ckpt);
    assert_eq!(err.matches("searching design").count(), 1, "fig9 searches its one design: {err}");
    assert_eq!((entries(&ckpt, "run_"), entries(&ckpt, "design_")), (42, 1));
    for threads in ["1", "2"] {
        let (_, err) = cached_run(&[&["fig10", "--threads", threads], &tiny[..]].concat(), &ckpt);
        assert!(!err.contains("searching design"), "--threads {threads}: {err}");
        assert_eq!(entries(&ckpt, "run_"), 42, "--threads {threads} added a cell");
    }
    // A scenario that does need the design finds it stored.
    let (_, err) = cached_run(&[&["fig7"], &tiny[..]].concat(), &ckpt);
    assert!(!err.contains("searching design"), "fig7 reloads the stored design: {err}");
    std::fs::remove_dir_all(&ckpt).ok();
}

/// The flagship 8×8 design every EquiNox figure is built on, pinned as
/// text: a search change that moves it fails here, not in a figure.
#[test]
fn flagship_design_matches_the_checked_in_text() {
    let out = driver().args(["designer", "--iters", "4000", "--seed", "7"]).output().expect("run driver");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let artifact = parse_json(&String::from_utf8(out.stdout).unwrap()).expect("stdout is JSON");
    let text = artifact.get("results").and_then(|r| r.get("design_text")).and_then(Json::as_str);
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/design-8x8.txt");
    assert_eq!(text, Some(std::fs::read_to_string(pinned).expect("specs/design-8x8.txt").as_str()));
}

/// The driver's path from a command line to a cell's machine — parse,
/// resolve, `Cell::system_config` — for every field a cell reads: each
/// flag moves its field away from the default machine's value.
#[test]
fn cell_fields_reach_the_machine() {
    let resolve = |args: &[&str]| {
        let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let parsed = equinox_config::parse_cli(&argv).expect("parses");
        equinox_config::resolve(None, &|_| None, &parsed.sets).expect("resolves")
    };
    type ReadField = fn(&SystemConfig, &ExperimentSpec) -> String;
    let cases: [(&[&str], ReadField, &str); 17] = [
        (&["--topology", "ring"], |c, _| format!("{:?}", c.reply_topology), "Ring"),
        (&["--cbs", "4"], |c, _| c.n_cbs.to_string(), "4"),
        (&["--scale", "0.125"], |c, _| c.workload.scale.to_string(), "0.125"),
        (&["--seeds", "9,3"], |c, _| c.workload.seed.to_string(), "9"),
        (&["--full"], |_, s| equinox_bench::bench_set(s).len().to_string(), "29"),
        (&["--max-cycles", "1234"], |c, _| c.max_cycles.to_string(), "1234"),
        (&["--ni-queue-cap", "3"], |c, _| c.ni_queue_cap.to_string(), "3"),
        (&["--cb-inflight-cap", "16"], |c, _| c.cb_inflight_cap.to_string(), "16"),
        (&["--l2-latency", "40"], |c, _| c.l2_latency.to_string(), "40"),
        (&["--pipeline-extra", "2"], |c, _| c.pipeline_extra.to_string(), "2"),
        (&["--reply-compression", "0.5"], |c, _| c.reply_compression.to_string(), "0.5"),
        (&["--no-activity-gate"], |c, _| c.activity_gate.to_string(), "false"),
        (&["--audit"], |c, _| c.audit.as_ref().map_or(0, |a| a.watchdog_window).to_string(), "20000"),
        (&["--obs"], |c, _| c.obs.is_some().to_string(), "true"),
        (&["--obs", "--obs-interval", "250"], |c, _| c.obs.as_ref().map_or(0, |o| o.interval).to_string(), "250"),
        (&["--obs-stream", "f.jsonl"], |c, _| c.obs.as_ref().map_or("", |o| &o.stream).into(), "f.jsonl"),
        (&["--trace"], |c, _| c.trace_capacity.to_string(), "65536"),
    ];
    let machine = |spec: &ExperimentSpec| {
        let cell = equinox_bench::Cell::new(SchemeKind::SeparateBase, 8, "gaussian", spec);
        cell.system_config(cell.seeds[0], &mut std::io::sink())
    };
    let default_spec = resolve(&[]);
    let default = machine(&default_spec);
    for (args, read, want) in cases {
        let spec = resolve(args);
        assert_ne!(read(&default, &default_spec), want, "{args:?} is already the default");
        assert_eq!(read(&machine(&spec), &spec), want, "{args:?}");
    }
}

/// Every registered spec field has a row in DESIGN.md's "Spec fields and
/// who reads them" naming its reader and a test of this file, and every
/// row names a registered field.
#[test]
fn every_spec_field_has_a_row_naming_its_reader_and_test() {
    let design = include_str!("../../../DESIGN.md");
    let this_file = include_str!("driver.rs");
    let table = design
        .split("### Spec fields and who reads them")
        .nth(1)
        .expect("DESIGN.md has the spec-field table");
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip_while(|l| !l.starts_with("| `"))
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split('|').map(|c| c.trim().trim_matches('`')).collect())
        .collect();
    let names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    let registered: Vec<&str> = equinox_config::fields().iter().map(|f| f.name).collect();
    assert_eq!(names, registered, "one row per registered field, in registry order");
    for row in &rows {
        let [field, reader, test] = row[..] else {
            panic!("{row:?}: a row is | field | read by | test |");
        };
        assert!(!reader.is_empty(), "{field}: no reader");
        assert!(this_file.contains(&format!("#[test]\nfn {test}()")), "{field}: no test `{test}` here");
    }
}

/// Every registered scenario has a row in DESIGN.md's "Scenarios and who
/// reads them", in registry order, naming its reader and a test of this
/// file; each reader is `<document> "<text>"`, and the text must be in
/// that document.
#[test]
fn every_scenario_has_a_row_naming_its_reader_and_test() {
    let design = include_str!("../../../DESIGN.md");
    let this_file = include_str!("driver.rs");
    let documents = [
        ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        ("README.md", include_str!("../../../README.md")),
        ("ci.yml", include_str!("../../../.github/workflows/ci.yml")),
        ("check.sh", include_str!("../../../scripts/check.sh")),
    ];
    let table = design
        .split("### Scenarios and who reads them")
        .nth(1)
        .expect("DESIGN.md has the scenario table");
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip_while(|l| !l.starts_with("| `"))
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split('|').map(|c| c.trim().trim_matches('`')).collect())
        .collect();
    let names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    let registered: Vec<&str> = scenarios().iter().map(|s| s.name).collect();
    assert_eq!(names, registered, "one row per registered scenario, in registry order");
    for row in &rows {
        let [scenario, readers, test] = row[..] else {
            panic!("{row:?}: a row is | scenario | read by | test |");
        };
        for reader in readers.split("; ") {
            let (doc, text) = reader.split_once(' ').unwrap_or((reader, ""));
            let body = documents.iter().find(|(name, _)| *name == doc).map(|(_, body)| body);
            let text = text.trim_matches('"');
            assert!(!text.is_empty(), "{scenario}: reader `{reader}` is not <document> \"<text>\"");
            assert!(body.is_some_and(|b| b.contains(text)), "{scenario}: {doc} has no \"{text}\"");
        }
        let named = format!("#[test]\nfn {test}()");
        assert!(this_file.contains(&named), "{scenario}: no test `{test}` here");
    }
}

#[test]
fn run_metrics_emission_matches_golden_snapshot() {
    let mut spec = equinox_config::ExperimentSpec::default();
    spec.scale = 0.05;
    spec.seeds = vec![1];
    let cell = equinox_bench::Cell::new(SchemeKind::SeparateBase, 8, "gaussian", &spec);
    let m = equinox_bench::run_cells(vec![cell], &mut Vec::new()).unwrap().remove(0);
    let emitted = run_metrics_json(&m).pretty();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_metrics.json");
    if std::env::var("EQUINOX_REGEN_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &emitted).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden snapshot missing — run with EQUINOX_REGEN_GOLDEN=1");
    assert_eq!(
        emitted, golden,
        "RunMetrics emission drifted from the golden snapshot; \
         if intentional, regenerate with EQUINOX_REGEN_GOLDEN=1"
    );
}
