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
//! scenarios exit 2 with a message naming the offender, and so do an
//! output path that cannot be opened for writing, checked before any
//! run, and a scenario that cannot run (`equinox: <scenario>: <reason>`).

use equinox_bench::artifact::artifact;
use equinox_bench::scenarios::{scenario, scenarios};
use equinox_config::{flag_help, parse_cli, resolve_process, CliError};

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
    // Otherwise a bad path panics on a pool worker (the stream) or after
    // the whole run (the trace, the artifact). A scenario that reads the
    // stream names its own feed.
    let written = [("--obs-stream", spec.obs_stream.as_str()), ("--trace-out", &spec.trace_out)];
    let out = ("--out", parsed.out.as_deref().unwrap_or(""));
    for (flag, path) in written.into_iter().filter(|_| !sc.reads_stream).chain([out]) {
        if !path.is_empty() {
            if let Err(e) = check_writable(path) {
                fail(&format!("{flag} {path}: cannot open for writing: {e}"));
            }
        }
    }
    equinox_exec::set_threads(spec.threads);

    let results = (sc.run)(&spec, &mut std::io::stderr())
        .unwrap_or_else(|why| fail(&format!("{}: {why}", sc.name)));
    let text = artifact(sc.name, &spec, results).pretty();
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
