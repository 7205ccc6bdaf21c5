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
    let cases: [(&[&str], &str); 18] = [
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
        (&["designer", "--iters", "0"], "--iters"),
        (&["loadlat", "--iters", "0"], "--iters"),
        // No N-Queen solution exists on 2x2 or 3x3, so EquiNox's design
        // search has no board to start from.
        (&["designer", "--n", "3", "--cbs", "3"], "n = 3: EquiNox"),
        (&["designer", "--n", "2", "--cbs", "1"], "n = 2: EquiNox"),
        (&["loadlat", "--n", "3", "--cbs", "3"], "n = 3: EquiNox"),
        (&["sweep", "--n", "2", "--cbs", "2"], "n = 2: EquiNox"),
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

    // The artifact carries the obs/v1 block with series, percentile
    // histograms and heat grids.
    let artifact = parse_json(&String::from_utf8(out.stdout).unwrap()).expect("stdout is JSON");
    let results = artifact.get("results").expect("results block");
    let obs = results.get("obs").expect("obs block");
    assert_eq!(obs.get("schema").and_then(Json::as_str), Some("equinox.obs/v1"));
    assert_eq!(obs.get("interval").and_then(Json::as_u64), Some(500));
    let series = obs.get("series").expect("series block");
    let cycles = series.get("cycle").and_then(Json::as_arr).expect("cycle axis");
    assert!(!cycles.is_empty(), "the run must have produced samples");
    for col in ["throughput_flits_per_cycle", "packets_in_flight"] {
        let vals = series.get(col).and_then(Json::as_arr).unwrap_or_else(|| panic!("series '{col}'"));
        assert_eq!(vals.len(), cycles.len(), "'{col}' rows match the cycle axis");
    }
    let hist = obs
        .get("histograms")
        .and_then(|h| h.get("rep_latency_cycles"))
        .expect("reply latency histogram");
    assert!(hist.get("count").and_then(Json::as_u64).unwrap() > 0);
    for q in ["p50", "p95", "p99"] {
        let v = hist.get(q).and_then(Json::as_f64).unwrap_or_else(|| panic!("{q} present"));
        assert!(v > 0.0, "{q} must be positive, got {v}");
    }
    let heat = obs.get("heat").and_then(Json::as_arr).expect("heat grids");
    assert_eq!(heat.len(), 2, "EquiNox runs request + reply nets");
    for hm in heat {
        let w = hm.get("width").and_then(Json::as_u64).expect("width");
        let grid = hm.get("heat").and_then(Json::as_arr).expect("grid");
        assert_eq!(grid.len() as u64, w * w, "row-major width² grid");
    }
    // EquiNox arms EIR load series, one per CB group.
    assert!(series.get("eir_load_cb0").is_some(), "EIR load series present");

    // The obs/v2 block rides along: stall taxonomy, per-class latency
    // breakdown summing to the measured end-to-end latency, heat grids.
    let v2 = results.get("obs_v2").expect("obs_v2 block");
    assert_eq!(v2.get("schema").and_then(Json::as_str), Some("equinox.obs/v2"));
    let causes = v2.get("causes").and_then(Json::as_arr).expect("cause list");
    assert_eq!(causes.len(), 6, "six named stall causes");
    for class in ["request", "reply"] {
        let row = v2.get("per_class").and_then(|p| p.get(class)).expect("class row");
        let get = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("{class}.{k}"));
        let sum: u64 = ["inj_queue", "vc_alloc", "switch_loss", "credit_starve", "eject_wait", "serialization"]
            .iter()
            .map(|&c| get(c))
            .sum();
        assert_eq!(sum, get("e2e_cycles"), "{class}: causes reconstruct e2e");
    }
    let stall_heat = v2.get("stall_heat").and_then(Json::as_arr).expect("stall heat grids");
    assert_eq!(stall_heat.len(), 2 * 4, "2 nets x 4 in-network causes");
    for hm in stall_heat {
        let w = hm.get("width").and_then(Json::as_u64).expect("width");
        let h = hm.get("height").and_then(Json::as_u64).expect("height");
        let grid = hm.get("heat").and_then(Json::as_arr).expect("grid");
        assert_eq!(grid.len() as u64, w * h, "row-major width x height grid");
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
    ] {
        let out = driver().args(args).output().expect("run driver");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must emit no artifact");
        let err = String::from_utf8(out.stderr).unwrap();
        let named: Vec<&str> = err.lines().filter(|l| l.starts_with("equinox: ")).collect();
        assert!(named.len() == 1 && named[0].contains(args[1]) && named[0].contains(args[2]), "{args:?}: {named:?}");
        assert!(!err.contains("panicked") && !err.contains("Observability"), "{args:?}: {err}");
    }
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
    assert_eq!(results.get("snapshot_roundtrip").and_then(Json::as_bool), Some(true));
    assert_eq!(results.get("audit_violations").and_then(Json::as_u64), Some(0));
    let inj = results.get("injected_flits").and_then(Json::as_u64).unwrap();
    let ej = results.get("ejected_flits").and_then(Json::as_u64).unwrap();
    assert!(inj > 0 && inj == ej, "ring must move and conserve flits ({inj}/{ej})");
}

/// The result cache replays a finished artifact, so it must stand aside
/// whenever a run's output is more than its artifact: a stream file the
/// simulation writes, or a `watch` over a feed the spec only names.
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

    // A streamed run, twice: the second must simulate again and leave a
    // complete stream, not replay the first run's artifact.
    let stream = dir.join("s.jsonl");
    let fig11 = ["fig11", "--spec", smoke.to_str().unwrap(), "--obs-stream"];
    run(&fig11, &stream);
    std::fs::remove_file(&stream).expect("first run wrote the stream");
    let out = run(&fig11, &stream);
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("checkpoint cache hit"),
        "a streamed run must not be served from the cache"
    );
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

#[test]
fn artifact_cache_replays_a_finished_scenario_byte_for_byte() {
    let ckpt = std::env::temp_dir().join(format!("equinox_driver_artifact_hit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let smoke = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/ci-smoke.json");
    let args = ["fig11", "--spec", smoke.to_str().unwrap()];
    let (cold, cold_err) = cached_run(&args, &ckpt);
    assert!(cold_err.contains("checkpoint cache miss"), "first run computes: {cold_err}");
    let (warm, warm_err) = cached_run(&args, &ckpt);
    assert!(warm_err.contains("checkpoint cache hit"), "second run replays: {warm_err}");
    assert!(!warm_err.contains("Figure 11"), "a hit runs no scenario: {warm_err}");
    assert_eq!(cold, warm, "cold and warm artifacts are the same bytes");
    let cache = parse_json(&warm).expect("artifact is JSON").get("cache").cloned().expect("cache block");
    assert_eq!(cache.get("schema").and_then(Json::as_str), Some("equinox.cache/v1"));
    assert!(warm_err.contains(cache.get("key").and_then(Json::as_str).expect("key")), "{warm_err}");
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
        assert!(err.contains("checkpoint cache miss"), "a new artifact: {err}");
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
    let cases: [(&[&str], ReadField, &str); 18] = [
        (&["--topology", "ring"], |c, _| format!("{:?}", c.reply_topology), "Ring"),
        (&["--cbs", "4"], |c, _| c.n_cbs.to_string(), "4"),
        (&["--scale", "0.125"], |c, _| c.workload.scale.to_string(), "0.125"),
        (&["--seeds", "9,3"], |c, _| c.workload.seed.to_string(), "9"),
        (&["--full"], |_, s| equinox_bench::bench_set(s).len().to_string(), "29"),
        (&["--sim-threads", "2"], |c, _| c.sim_threads.to_string(), "2"),
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

#[test]
fn run_metrics_emission_matches_golden_snapshot() {
    let mut spec = equinox_config::ExperimentSpec::default();
    spec.scale = 0.05;
    spec.seeds = vec![1];
    let cell = equinox_bench::Cell::new(SchemeKind::SeparateBase, 8, "gaussian", &spec);
    let m = equinox_bench::run_cells(vec![cell], &mut Vec::new()).remove(0);
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
