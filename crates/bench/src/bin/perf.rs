//! `perf` — micro-benchmark of the simulation substrate itself.
//!
//! ```text
//! perf [--scale S] [--threads N] [--quick] [--audit] [--no-activity-gate]
//! ```
//!
//! Thin wrapper over the `perf` scenario of the unified `equinox`
//! driver. `--audit` arms the invariant auditor inside the timed runs
//! (by value through the resolved spec) — useful for measuring its
//! overhead, never for baselines. `--no-activity-gate` times the
//! exhaustive every-router-every-cycle sweep — useful for quantifying
//! what the gate buys, never for baselines.
//!
//! Reports its rates as a single JSON line on stdout:
//!
//! * `single_cycles_per_sec` — simulated cycles per wall-clock second of
//!   one saturated full-system run (the hot-loop figure of merit; this
//!   is what the allocation-free `Network::step()` refactor speeds up),
//! * `low_load_cycles_per_sec` — cycles per second of a low-load
//!   load–latency point (offered 0.02 replies/CB/cycle, where most
//!   routers are idle most cycles — the regime that dominates
//!   load–latency curves and benchmark sweeps, and the figure of merit
//!   for activity-gated stepping), with
//!   `low_load_exhaustive_cycles_per_sec` — the same point under the
//!   exhaustive sweep — beside it (the perf gate bounds their ratio), and
//! * `sweep_wall_s` — wall-clock seconds for the quick scheme × benchmark
//!   repro sweep on the worker pool (the parallel-fan-out figure of
//!   merit), plus `sweep_cached_wall_s` / `cached_sweep_speedup` for
//!   the same sweep served from the content-addressed result cache
//!   (the `--checkpoint-dir` figure of merit; the perf gate bounds the
//!   speedup).
//!
//! The EquiNox design search is pre-warmed outside both timed regions so
//! the numbers measure the simulator, not the one-off MCTS. A committed
//! baseline lives in `BENCH_perf.json`; `scripts/check.sh` compares
//! `single_cycles_per_sec` against it with a tolerance band.
//!
//! For compatibility with the historical binary, the workload scale
//! defaults to 0.3 here (the driver's spec default is 0.5); `--scale`,
//! a spec file, or `EQUINOX_SCALE` still override.

use equinox_bench::scenarios::scenario;
use equinox_config::spec::Layer;
use equinox_config::{flag_help, parse_cli, resolve_process, CliError, Extras};

fn usage() -> String {
    format!("usage: perf [flags]\n\nflags:\n{}", flag_help(Extras::default()))
}

fn fail(message: &str) -> ! {
    eprintln!("perf: {message}\n\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_cli(&args, Extras::default()) {
        Ok(p) => p,
        Err(CliError::Help) => {
            println!("{}", usage());
            return;
        }
        Err(e) => fail(&e.to_string()),
    };
    if !parsed.positionals.is_empty() {
        fail(&format!("unexpected argument '{}'", parsed.positionals[0]));
    }
    let mut spec = match resolve_process(parsed.spec_file.as_deref(), &parsed.sets) {
        Ok(s) => s,
        Err(e) => fail(&e.to_string()),
    };
    if spec.provenance_of("scale") == Some(Layer::Default) {
        spec.scale = 0.3;
    }
    equinox_exec::set_threads(spec.threads);

    let perf = scenario("perf").expect("registered scenario");
    let mut log = std::io::stderr();
    let results = (perf.run)(&spec, &mut log);
    println!("{}", results.to_compact());
}
