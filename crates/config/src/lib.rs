#![forbid(unsafe_code)]
//! `equinox-config` — the typed experiment spine.
//!
//! One configuration layer for every EquiNox binary and scenario:
//!
//! * [`json`] — a dependency-free JSON value model (ordered objects,
//!   shortest-roundtrip numbers) with a writer and a strict parser;
//!   the format of every emitted result artifact.
//! * [`spec`] — [`ExperimentSpec`], the typed description of a run
//!   (simulator knobs, auditor knobs, worker-pool threads, workload
//!   scale and seeds), with a field registry binding each field to one
//!   spec-file key, one `EQUINOX_*` environment variable, one CLI flag
//!   and one setter for all three, and per-field provenance.
//! * [`resolve`] — layered resolution: built-in defaults → optional
//!   spec file → environment → CLI flags, last writer wins; the one
//!   place a value is checked.
//! * [`cli`] — the shared strict argument parser (unknown flags and
//!   missing values are fatal, never silently defaulted).
//!
//! The crate is a dependency-free leaf: `equinox-core` consumes the
//! resolved spec (`SystemConfig::from_spec`) and `equinox-bench`'s
//! scenario registry threads it through every runner, so configuration
//! flows by value — no `std::env::set_var` side-channels (a guard in
//! `scripts/check.sh` keeps it that way).

pub mod cli;
pub mod json;
pub mod resolve;
pub mod spec;

pub use cli::{flag_help, parse as parse_cli, CliError, Parsed};
pub use json::{parse as parse_json, Json, JsonError};
pub use resolve::{resolve, resolve_process, ResolveError};
pub use spec::{fields, ExperimentSpec, FieldDef, Layer, Raw, ITERS_LIMIT, LOADLAT_CYCLES_LIMIT, MAX_CYCLES_LIMIT, MESH_LIMIT};
