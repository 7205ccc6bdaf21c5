//! `equinox` — the unified experiment driver.
//!
//! ```text
//! equinox <scenario> [--spec FILE] [--out PATH] [<field flags>…]
//! ```
//!
//! One binary runs every registered scenario (`equinox --help` lists
//! them) under the layered configuration spine: built-in defaults, then
//! the optional `--spec` JSON file, then `EQUINOX_*` environment
//! variables, then CLI flags — last writer wins, with the winning layer
//! recorded per field.
//!
//! The human-readable report streams to **stderr**; the structured
//! `equinox.artifact/v1` JSON artifact (scenario name, fully resolved
//! spec with provenance, results) goes to **stdout**, or to the `--out`
//! path when given. Malformed values, unknown flags and unknown
//! scenarios exit nonzero with a message naming the offender.

use equinox_bench::artifact::artifact;
use equinox_bench::cache::{artifact_key, cache_for, cached};
use equinox_bench::matrix_cells;
use equinox_bench::scenarios::{scenario, scenarios};
use equinox_config::{flag_help, parse_cli, resolve_process, CliError, Json};
use equinox_core::SchemeKind;

fn usage() -> String {
    let mut u = String::from(
        "usage: equinox <scenario> [--spec FILE] [--out PATH] [flags]\n\nscenarios:\n",
    );
    for s in scenarios() {
        u.push_str(&format!("  {:10} {}\n", s.name, s.about));
    }
    u.push_str("\nflags:\n");
    u.push_str(&flag_help());
    u
}

fn fail(message: &str) -> ! {
    eprintln!("equinox: {message}\n\n{}", usage());
    std::process::exit(2);
}

/// Opens `path` for appending, as the run will, so that a path it
/// cannot write is named before any work starts. Removes the file again
/// if this check created it.
fn check_writable(path: &str) -> std::io::Result<()> {
    let existed = std::path::Path::new(path).exists();
    std::fs::OpenOptions::new().append(true).create(true).open(path)?;
    if !existed {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_cli(&args) {
        Ok(p) => p,
        Err(CliError::Help) => {
            println!("{}", usage());
            return;
        }
        Err(e) => fail(&e.to_string()),
    };
    let name = match parsed.positionals.as_slice() {
        [] => fail("missing scenario name"),
        [one] => one.as_str(),
        [_, extra, ..] => fail(&format!("unexpected argument '{extra}'")),
    };
    let Some(sc) = scenario(name) else {
        fail(&format!("unknown scenario '{name}'"));
    };
    let spec = match resolve_process(parsed.spec_file.as_deref(), &parsed.sets) {
        Ok(s) => s,
        Err(e) => fail(&e.to_string()),
    };
    if sc.name == "watch" {
        if spec.obs_stream.is_empty() {
            fail("watch needs --obs-stream <path> naming the feed to attach to");
        }
        if let Err(e) = std::fs::File::open(&spec.obs_stream) {
            fail(&format!("--obs-stream {}: cannot read the feed: {e}", spec.obs_stream));
        }
    } else {
        // Otherwise a bad path panics on a pool worker (the stream) or
        // after the whole run (the trace).
        for (flag, path) in [("--obs-stream", &spec.obs_stream), ("--trace-out", &spec.trace_out)] {
            if !path.is_empty() {
                if let Err(e) = check_writable(path) {
                    fail(&format!("{flag} {path}: cannot open for writing: {e}"));
                }
            }
        }
    }
    // Where the command line chooses the mesh, a machine that cannot be
    // built is named before any work starts (`fabric` builds a bare
    // network, which has rules of its own).
    let builds: &[SchemeKind] = match sc.name {
        "sweep" => &SchemeKind::ALL,
        "loadlat" | "designer" => &[SchemeKind::EquiNox],
        _ => &[],
    };
    let cells = matrix_cells(builds, spec.n, &["kmeans"], &spec);
    if let Some(why) = cells.iter().find_map(|c| c.check().err()) {
        fail(&format!("{}: {why}", sc.name));
    }
    equinox_exec::set_threads(spec.threads);

    // With `--checkpoint-dir` armed, finished artifacts are
    // content-addressed by the canonical spec rendering plus the
    // scenario name: a hit replays the stored document byte-for-byte, a
    // miss runs the scenario and stores the result. Sound only where the
    // artifact is the run's whole output and a function of the spec
    // alone: `cache_for` declines when the spec names a stream or trace
    // file the run must write, and the layer is skipped here for `watch`
    // (reads a feed the spec only names) and for `svg` and `all` (write
    // `docs/*.svg`). The artifact itself records only the cache key —
    // identical on the populating and replaying runs — while hit/miss
    // goes to stderr, so cold and warm artifacts stay byte-identical.
    let cache = cache_for(&spec).filter(|_| !matches!(sc.name, "watch" | "svg" | "all"));
    let key = artifact_key(sc.name, &spec);
    let text = cached(
        cache.as_ref(),
        "artifact",
        key,
        |bytes| {
            let text = String::from_utf8(bytes.to_vec()).ok()?;
            equinox_config::parse_json(&text).ok()?;
            eprintln!("checkpoint cache hit: artifact_{key:016x}");
            Some(text)
        },
        || {
            if cache.is_some() {
                eprintln!("checkpoint cache miss: artifact_{key:016x}");
            }
            let mut doc = artifact(sc.name, &spec, (sc.run)(&spec, &mut std::io::stderr()));
            if cache.is_some() {
                doc = doc.with(
                    "cache",
                    Json::obj()
                        .with("schema", "equinox.cache/v1")
                        .with("key", format!("{key:016x}")),
                );
            }
            doc.pretty()
        },
        |text| text.clone().into_bytes(),
    );
    match &parsed.out {
        Some(path) => {
            std::fs::write(path, &text).unwrap_or_else(|e| {
                eprintln!("equinox: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}
