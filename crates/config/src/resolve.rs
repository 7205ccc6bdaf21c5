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
use crate::spec::{fields, ExperimentSpec, FieldDef, Layer, Raw};

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
        let (key, message) = (&self.key, &self.message);
        match self.layer {
            Layer::Cli => write!(f, "bad value for '{key}': {message}"),
            Layer::File => write!(f, "bad spec file {key}: {message}"),
            Layer::Env => write!(f, "bad environment {key}: {message}"),
            Layer::Default => write!(f, "bad default {key}: {message}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// One CLI assignment collected by [`crate::cli::parse`]: the field plus
/// its value text (presence flags carry `"1"`), checked by [`resolve`].
pub type CliSet = (&'static FieldDef, String);

/// Resolves a spec from its four layers.
///
/// * `file`: optional `(path, contents)` of a JSON spec file. Unknown
///   keys are an error (typos must not silently resolve to defaults).
/// * `env`: environment lookup, usually `|k| std::env::var(k).ok()`.
///   Unset and *empty* variables are skipped (an exported empty string
///   behaves like unset).
/// * `cli`: flag assignments, applied last.
///
/// Every layer's value goes through its field's one setter
/// ([`ExperimentSpec::set`]), so this is where values are checked.
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
        if let Some(v) = env(f.env).filter(|v| !v.trim().is_empty()) {
            set(&mut spec, f, Raw::Text(&v), Layer::Env, f.env)?;
        }
    }

    for (f, v) in cli {
        set(&mut spec, f, Raw::Text(v), Layer::Cli, f.flag)?;
    }

    Ok(spec)
}

/// [`ExperimentSpec::set`], with a refusal naming `layer` and `key`.
fn set(spec: &mut ExperimentSpec, f: &FieldDef, value: Raw, layer: Layer, key: &str) -> Result<(), ResolveError> {
    spec.set(f, value, layer).map_err(|message| ResolveError {
        layer,
        key: key.to_string(),
        message,
    })
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
        set(spec, field, Raw::Json(value), Layer::File, key)?;
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
