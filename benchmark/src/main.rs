//! The repository's benchmark.
//!
//! ```text
//! equinox-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! equinox-benchmark compare <parent.jsonl|dir> <change.jsonl|dir>
//! equinox-benchmark manifest            # prints BENCHMARK.json from the metric tables
//! ```
//!
//! A run is a closed loop with one client: one process, one thread,
//! every cell starts when the previous one returns. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` runs traced rounds plus the layer
//! probes and prints the per-layer metrics; the last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`.
//! See `benchmark/README.md` for the design and the noise evidence.

mod calib;
mod cells;
mod compare;
mod harness;
mod names;
mod probes;
mod stats;
mod trace;

use equinox_config::{ExperimentSpec, Json};
use harness::Run;
use names::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Exit code for a bad command line or a polluted configuration.
const USAGE: u8 = 2;

/// A parsed `run` command line.
#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

/// Strict parse: unknown flags, missing and malformed values are errors.
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, 1u64, f64::from(names::RUN_SECONDS), false);
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: malformed value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if cells::cells(&workload, seed).is_none() {
        let known: Vec<&str> = cells::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            known.join(", ")
        ));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        traced,
        out,
    })
}

/// The `EQUINOX_*` variables among `vars`: every one of them is removed
/// from the environment before anything is configured, so a stray
/// `EQUINOX_AUDIT=1` or `EQUINOX_THREADS=8` cannot reach a timed cell.
fn equinox_vars(vars: impl Iterator<Item = String>) -> Vec<String> {
    vars.filter(|k| k.starts_with("EQUINOX_")).collect()
}

/// What in the resolved configuration would leak into timed cells; the
/// harness refuses to start unless this is empty.
fn leaks(spec: &ExperimentSpec, pool_threads: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut leak = |bad: bool, what: &str| {
        if bad {
            out.push(what.to_string());
        }
    };
    leak(pool_threads != 1, "worker pool is not single-threaded");
    leak(spec.sim_threads != 1, "sim_threads is not 1");
    leak(
        spec.obs || !spec.obs_stream.is_empty(),
        "observability is armed",
    );
    leak(spec.audit, "the auditor is armed");
    leak(spec.trace, "flit tracing is armed");
    leak(
        !spec.checkpoint_dir.is_empty(),
        "a checkpoint directory is set",
    );
    leak(!spec.activity_gate, "the activity gate is off");
    leak(
        *spec != ExperimentSpec::default(),
        "the spec is not the default",
    );
    out
}

/// Keeps glibc's mmap threshold at its start-up value of 128 kB. Left
/// alone, every free of a larger block raises it, so in a process that
/// repeats simulations by the hundred whether a cell's big tables are
/// mapped afresh or carved from a fragmented heap depends on everything
/// freed before, and `VmHWM` stepped 0.45 MB (7 %) from seed to seed.
/// Pinned, every cell meets the allocator a fresh `equinox` process
/// would. Other C libraries keep their defaults.
fn pin_mmap_threshold() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only sets a malloc parameter; no other thread
        // exists yet.
        if unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } != 1 {
            return Err("mallopt(M_MMAP_THRESHOLD) failed".into());
        }
    }
    Ok(())
}

/// Scrubs the environment, resolves the spec the way the `equinox`
/// driver does, pins the pool to one thread and the allocator's mmap
/// threshold, and checks nothing leaks.
fn configure() -> Result<ExperimentSpec, String> {
    for key in equinox_vars(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok())) {
        std::env::remove_var(key);
    }
    pin_mmap_threshold()?;
    let spec = equinox_config::resolve_process(None, &[])
        .map_err(|e| format!("resolving the spec: {e:?}"))?;
    equinox_exec::set_threads(1);
    match leaks(&spec, equinox_exec::thread_count()) {
        l if l.is_empty() => Ok(spec),
        l => Err(format!("refusing to start: {}", l.join("; "))),
    }
}

/// `git rev-parse HEAD` of the checkout the run was started in, or
/// `unknown` when that is not a repository (the driver's is not one;
/// `GIT_DIR` keeps git from searching the directories above it).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn metrics_json(m: &Metrics) -> Json {
    m.0.iter().fold(Json::obj(), |j, (name, value)| {
        let unit = names::unit_of(name).expect("checked against the tables");
        j.with(name, Json::obj().with("value", *value).with("unit", unit))
    })
}

fn quartiles_json(v: &[f64]) -> Json {
    match stats::quartiles(v) {
        Some([q1, med, q3]) => Json::obj()
            .with("q1", q1)
            .with("median", med)
            .with("q3", q3),
        None => Json::Null,
    }
}

/// The untraced run: first setup, audited warm round, then the timed
/// span of rounds with the other setups; yields the end-to-end metrics.
fn measure<'a>(
    spec: &'a ExperimentSpec,
    cells: &'a [cells::Cell],
    args: &RunArgs,
) -> Result<(Run<'a>, Metrics), String> {
    let mut run = Run::new(spec, cells, args.seed);
    run.audited_warm_round();
    run.rounds(args.seconds, harness::SETUP_SAMPLES, None);
    let metrics = harness::end_to_end(&run.log)?;
    metrics.check(names::END_TO_END.iter().map(|m| m.0))?;
    Ok((run, metrics))
}

/// The traced run: setup with a span per layer, rounds alternating
/// traced and plain, then the layer probes; yields the per-layer metrics.
fn measure_traced<'a>(
    spec: &'a ExperimentSpec,
    cells: &'a [cells::Cell],
    args: &RunArgs,
    t: &mut trace::Tracer,
) -> Result<(Run<'a>, Metrics), String> {
    let mut metrics = Metrics::default();
    let run_span = t.begin("run");
    let setup = harness::setup_cell_traced(spec, args.seed, t);
    // The spans bracket the calls `EquiNoxDesign::search` is made of; if
    // the two pipelines ever part ways the spans describe nothing.
    let check = t.begin("setup.direct");
    let (direct, _) = harness::setup_cell(spec, args.seed);
    t.end(check);
    let same = direct == setup.design;
    let mut run = Run::with_design(spec, cells, args.seed, setup.design);
    run.ledger.op(
        "setup (traced)",
        (!same).then(|| "traced pipeline and EquiNoxDesign::search disagree".into()),
    );
    let search_s = stats::min(&setup.search_s).expect("one search per placement");
    metrics.put("mcts.search_ms", search_s * 1e3);
    metrics.put("mcts.iters_per_s", harness::DESIGN_ITERS as f64 / search_s);
    metrics.put("mcts.best_cost", setup.best_cost);
    eprintln!(
        "setup: best cost {:.4} after {} evaluations",
        setup.best_cost, setup.evaluations
    );

    run.rounds(args.seconds * harness::TRACED_SPAN_SHARE, 0, Some(t));
    harness::round_layer_metrics(&run.log, &mut metrics)?;
    let p = t.begin("probes");
    let env = cells::Env {
        spec,
        design: &run.log.design,
    };
    probes::run_all(&env, args.seed, &args.out, &mut metrics);
    t.end(p);
    t.end(run_span);
    metrics.put("trace.spans", t.len() as f64);
    metrics.check(names::PER_LAYER.iter().map(|m| m.0))?;
    Ok((run, metrics))
}

/// What is kept of every run, so that a number can be judged after the
/// fact: few rounds or wide round quartiles mean a slow phase.
fn record(args: &RunArgs, run: &Run, metrics: &Metrics) -> Json {
    let ms = |s: Option<f64>| s.map_or(Json::Null, |s| Json::from(s * 1e3));
    let q1_ms = |v: &[f64]| ms(stats::low_quartile(v));
    let cells_json = run.cells.iter().zip(&run.log.cells).map(|(cell, c)| {
        Json::obj()
            .with("label", cell.label.as_str())
            .with("fingerprint", format!("{:016x}", c.first.unwrap_or(0)))
            .with("sim_cycles", c.outcome.sim_cycles)
            .with("plain_samples", c.plain.len())
            .with("plain_q1_ms", q1_ms(&c.plain))
            .with("traced_q1_ms", q1_ms(&c.traced))
    });
    Json::obj()
        .with("workload", args.workload.as_str())
        .with("trace", u64::from(args.traced))
        .with("seed", args.seed)
        .with("commit", commit())
        .with("seconds", args.seconds)
        .with("span_s", run.log.span_s)
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("rounds", run.log.round_s.len())
        .with("round_wall_s", quartiles_json(&run.log.round_s))
        .with("calib_s", quartiles_json(&run.log.calib_s))
        .with("setup_samples", run.log.setup.len())
        .with("attempted", run.ledger.attempted)
        .with("failed", run.ledger.failed)
        .with("cells", Json::Arr(cells_json.collect()))
        .with("metrics", metrics_json(metrics))
}

/// One run: measure, check, record, and the result object for stdout.
fn run(args: &RunArgs) -> Result<(Json, bool), String> {
    let spec = configure()?;
    let workload_cells = cells::cells(&args.workload, args.seed).expect("validated by the parser");
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut tracer = args.traced.then(trace::Tracer::new);
    let (run, metrics) = match tracer.as_mut() {
        Some(t) => measure_traced(&spec, &workload_cells, args, t)?,
        None => measure(&spec, &workload_cells, args)?,
    };

    let mut correct = run.ledger.failed == 0;
    let mut rec = record(args, &run, &metrics);
    if let Some(t) = &tracer {
        if let Err(e) = t.validate() {
            eprintln!("FAILED trace: {e}");
            correct = false;
        }
        let self_times = t.totals().iter().fold(Json::obj(), |j, (name, tot)| {
            j.with(
                name,
                Json::obj()
                    .with("count", tot.count)
                    .with("total_s", tot.total_s)
                    .with("self_s", tot.self_s),
            )
        });
        let path = args.out.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, t.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        rec = rec
            .with("self_times", self_times)
            .with("trace_file", path.display().to_string());
    }
    append_line(
        &args.out.join("runs.jsonl"),
        &rec.with("correct", correct).to_compact(),
    )?;

    eprintln!(
        "{}: {} rounds in a {:.1} s span, whole-round wall {}, calibration kernel {} (reference {} s), {} setup samples",
        args.workload,
        run.log.round_s.len(),
        run.log.span_s,
        quartiles_json(&run.log.round_s).to_compact(),
        quartiles_json(&run.log.calib_s).to_compact(),
        calib::CALIB_REF_S,
        run.log.setup.len()
    );
    for (name, value) in &metrics.0 {
        eprintln!(
            "  {name:<42} {value:>16.4} {}",
            names::unit_of(name).unwrap_or("")
        );
    }
    eprintln!(
        "operations attempted {} failed {}",
        run.ledger.attempted, run.ledger.failed
    );
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", run.ledger.attempted)
        .with("failed", run.ledger.failed)
        .with("metrics", metrics_json(&metrics));
    Ok((result, correct))
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, parent, change] => match compare::run(Path::new(parent), Path::new(change)) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(USAGE)
                }
            },
            _ => {
                eprintln!("usage: equinox-benchmark compare <parent.jsonl|dir> <change.jsonl|dir>");
                ExitCode::from(USAGE)
            }
        },
        Some("manifest") => {
            print!("{}", names::manifest());
            ExitCode::SUCCESS
        }
        _ => {
            let parsed = match parse_run_args(&args) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}\nusage: equinox-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]");
                    return ExitCode::from(USAGE);
                }
            };
            match run(&parsed) {
                Ok((result, correct)) => {
                    println!("{}", result.to_compact());
                    if correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("benchmark failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn only_equinox_variables_are_scrubbed() {
        let vars = strs(&[
            "PATH",
            "EQUINOX_AUDIT",
            "CARGO_TARGET_DIR",
            "EQUINOX_THREADS",
            "MY_EQUINOX_X",
            "EQUINOX_",
        ]);
        assert_eq!(
            equinox_vars(vars.into_iter()),
            strs(&["EQUINOX_AUDIT", "EQUINOX_THREADS", "EQUINOX_"])
        );
    }

    #[test]
    fn every_registered_env_var_is_covered_by_the_scrub() {
        for f in equinox_config::fields() {
            assert!(
                f.env.starts_with("EQUINOX_"),
                "{} would survive the scrub",
                f.env
            );
        }
    }

    #[test]
    fn the_default_spec_is_clean_and_each_leak_is_named() {
        assert!(leaks(&ExperimentSpec::default(), 1).is_empty());
        assert!(leaks(&ExperimentSpec::default(), 2)[0].contains("pool"));
        let leak_of = |f: fn(&mut ExperimentSpec)| {
            let mut s = ExperimentSpec::default();
            f(&mut s);
            leaks(&s, 1).join("; ")
        };
        assert!(leak_of(|s| s.sim_threads = 4).contains("sim_threads"));
        assert!(leak_of(|s| s.obs = true).contains("observability"));
        assert!(leak_of(|s| s.obs_stream = "x".into()).contains("observability"));
        assert!(leak_of(|s| s.audit = true).contains("auditor"));
        assert!(leak_of(|s| s.checkpoint_dir = "/tmp/x".into()).contains("checkpoint"));
        assert!(leak_of(|s| s.activity_gate = false).contains("gate"));
        assert!(leak_of(|s| s.l2_latency = 99).contains("not the default"));
    }

    #[test]
    fn the_command_line_is_parsed_strictly() {
        let ok = parse_run_args(&strs(&[
            "--workload",
            "sat-kmeans",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.traced),
            ("sat-kmeans", 3, 5.0, true)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "sat-kmeans", "--trace", "2"],
            &["--workload", "sat-kmeans", "--seconds", "0"],
            &["--workload", "sat-kmeans", "--seed"],
            &["--workload", "sat-kmeans", "--bogus", "1"],
        ] {
            assert!(parse_run_args(&strs(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
