//! Layered spec resolution: defaults → spec file → environment → CLI.
//!
//! Each layer overwrites the previous one field-by-field (last writer
//! wins) and records itself as the field's provenance. The environment
//! layer is the *only* place `EQUINOX_*` variables are read — the
//! simulator constructors take values, never ambient process state —
//! and it is injectable (any `Fn(&str) -> Option<String>`) so the
//! precedence tests run hermetically without touching the process
//! environment.

use crate::json::{self, Json};
use crate::spec::{fields, ExperimentSpec, FieldDef, Layer};

/// A resolution failure, pointing at the offending layer and key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveError {
    /// Which layer produced the bad value.
    pub layer: Layer,
    /// The spec-file key, environment variable, or CLI flag at fault.
    pub key: String,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let where_ = match self.layer {
            Layer::Default => "default",
            Layer::File => "spec file",
            Layer::Env => "environment",
            Layer::Cli => "flag",
        };
        write!(f, "bad {where_} {}: {}", self.key, self.message)
    }
}

impl std::error::Error for ResolveError {}

/// One validated CLI assignment produced by [`crate::cli::parse`]:
/// the field plus the raw value string (presence flags carry `"1"`).
pub type CliSet = (&'static FieldDef, String);

/// Resolves a spec from its four layers.
///
/// * `file`: optional `(path, contents)` of a JSON spec file. Unknown
///   keys are an error (typos must not silently resolve to defaults).
/// * `env`: environment lookup, usually `|k| std::env::var(k).ok()`.
///   Unset and *empty* variables are skipped (an exported empty string
///   behaves like unset).
/// * `cli`: validated flag assignments, applied last.
///
/// # Errors
///
/// Returns the first malformed value with its layer and key.
pub fn resolve(
    file: Option<(&str, &str)>,
    env: &dyn Fn(&str) -> Option<String>,
    cli: &[CliSet],
) -> Result<ExperimentSpec, ResolveError> {
    let mut spec = ExperimentSpec::default();

    if let Some((path, contents)) = file {
        apply_file(&mut spec, path, contents)?;
    }

    for f in fields() {
        if let Some(v) = env(f.env) {
            if v.trim().is_empty() {
                continue;
            }
            spec.set_str(f, &v, Layer::Env).map_err(|message| ResolveError {
                layer: Layer::Env,
                key: f.env.to_string(),
                message,
            })?;
        }
    }

    for (f, v) in cli {
        spec.set_str(f, v, Layer::Cli).map_err(|message| ResolveError {
            layer: Layer::Cli,
            key: f.flag.to_string(),
            message,
        })?;
    }

    Ok(spec)
}

fn apply_file(spec: &mut ExperimentSpec, path: &str, contents: &str) -> Result<(), ResolveError> {
    let doc = json::parse(contents).map_err(|e| ResolveError {
        layer: Layer::File,
        key: path.to_string(),
        message: e.to_string(),
    })?;
    let Json::Obj(pairs) = &doc else {
        return Err(ResolveError {
            layer: Layer::File,
            key: path.to_string(),
            message: "spec file must be a JSON object".into(),
        });
    };
    for (key, value) in pairs {
        // `provenance` appears in emitted specs; tolerate feeding an
        // artifact's spec block back in as a spec file.
        if key == "provenance" {
            continue;
        }
        let field = crate::spec::field_by_name(key).ok_or_else(|| ResolveError {
            layer: Layer::File,
            key: key.clone(),
            message: format!("unknown spec key (known: {})", known_keys()),
        })?;
        spec.set_json(field, value, Layer::File)
            .map_err(|message| ResolveError {
                layer: Layer::File,
                key: key.clone(),
                message,
            })?;
    }
    Ok(())
}

fn known_keys() -> String {
    fields()
        .iter()
        .map(|f| f.name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// [`resolve`] against the real process: reads the spec file from disk
/// (when given) and the process environment.
///
/// # Errors
///
/// I/O failures reading the spec file and any malformed value.
pub fn resolve_process(file_path: Option<&str>, cli: &[CliSet]) -> Result<ExperimentSpec, ResolveError> {
    let contents = match file_path {
        Some(p) => Some((
            p,
            std::fs::read_to_string(p).map_err(|e| ResolveError {
                layer: Layer::File,
                key: p.to_string(),
                message: format!("cannot read spec file: {e}"),
            })?,
        )),
        None => None,
    };
    resolve(
        contents.as_ref().map(|(p, c)| (*p, c.as_str())),
        &|k| std::env::var(k).ok(),
        cli,
    )
}
