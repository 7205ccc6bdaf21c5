//! The typed experiment specification and its field registry.
//!
//! [`ExperimentSpec`] is the single description of *how* an experiment
//! runs: the knobs of the full-system simulator (`SystemConfig`) that a
//! scenario or the benchmark reads, whether the invariant auditor and
//! the observability layer are armed, the worker pool, and the workload
//! scaling/seeding. DESIGN.md's "Spec fields and who reads them" names
//! each field's reader and the driver test that shows the value
//! arriving there; a field without one does not belong here. What it does
//! **not** pick is the scenario itself — that is a positional argument
//! of the driver — or per-scenario structural choices (which mesh sizes
//! fig12 sweeps, which schemes fig9 compares), which stay in scenario
//! code.
//!
//! Every field is registered in [`fields`], which gives the resolver
//! ([`crate::resolve`]), the CLI parser ([`crate::cli`]) and the usage
//! text a single source of truth: one spec-file key, one `EQUINOX_*`
//! environment variable, and one `--flag` per field, all applied
//! through the same setter with per-field provenance recorded.

use crate::json::Json;

/// Where the winning value of a field came from (last writer wins
/// across the resolution layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Built-in default.
    Default,
    /// The optional spec file (`--spec file.json`).
    File,
    /// An `EQUINOX_*` environment variable.
    Env,
    /// A command-line flag.
    Cli,
}

impl Layer {
    /// Lower-case name used in emitted provenance JSON.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Layer::Default => "default",
            Layer::File => "file",
            Layer::Env => "env",
            Layer::Cli => "cli",
        }
    }
}

/// The resolved experiment description. Field defaults mirror the
/// paper's Table 1 (via `SystemConfig::new`) and the binaries'
/// historical flag defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Grid size (8, 12 or 16; the paper evaluates 8×8).
    pub n: u16,
    /// Reply-fabric topology for schemes with dedicated reply subnets:
    /// `mesh`, `ring` or `hring` (hierarchical ring). Request networks
    /// always stay a mesh, matching the paper's baseline.
    pub topology: String,
    /// Synthetic traffic pattern for the fabric scenario: `uniform`,
    /// `hotspot`, `transpose` or `bursty`.
    pub traffic: String,
    /// Number of cache banks (Table 1: 8).
    pub n_cbs: u16,
    /// Multiplier on the per-PE instruction quota.
    pub scale: f64,
    /// Seeds averaged over by seed-sweeping runners.
    pub seeds: Vec<u64>,
    /// Primary seed for single-seeded work (design search).
    pub seed: u64,
    /// Run all 29 benchmarks instead of the quick 6-benchmark subset.
    pub full: bool,
    /// Worker-pool threads; 0 = auto (available parallelism).
    pub threads: usize,
    /// Threads stepping one simulation: 1, the only value the field
    /// accepts, since every run is single-threaded. It stays registered
    /// because the benchmark's leak check reads it, and so every
    /// artifact's spec block still records `"sim_threads": 1`.
    pub sim_threads: usize,
    /// Safety cap on simulated cycles per run.
    pub max_cycles: u64,
    /// NI message-queue capacity.
    pub ni_queue_cap: usize,
    /// Maximum requests concurrently inside one CB.
    pub cb_inflight_cap: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Extra router pipeline stages (0 = single-cycle router).
    pub pipeline_extra: u32,
    /// Probability a read reply travels compressed (0 disables).
    pub reply_compression: f64,
    /// Activity-driven stepping (bit-identical fast path); the inverse
    /// of the `--no-activity-gate` escape hatch.
    pub activity_gate: bool,
    /// Arm the invariant auditor at `AuditConfig::default()`: a sweep
    /// every 64 cycles, a 20 000-cycle watchdog, panic on the first
    /// violation.
    pub audit: bool,
    /// Measured cycles per load–latency point (loadlat scenario).
    pub cycles: u64,
    /// MCTS iterations for design searches driven by the spec
    /// (designer/loadlat scenarios).
    pub iters: usize,
    /// Arm the observability layer (latency histograms + time series +
    /// span profiler) on every full-system run built from this spec.
    pub obs: bool,
    /// Cycles between observability time-series samples (>= 1, on
    /// every layer).
    pub obs_interval: u64,
    /// Live-telemetry sink: a file path, appended to. One
    /// `obs.sample/v1` line-JSON frame per sampling interval plus a
    /// terminal `obs.summary/v1` frame. Setting this arms the
    /// observability layer even without `--obs`. Empty = off.
    pub obs_stream: String,
    /// Record per-flit NoC trace events (Inject/Hop/Eject) in a ring of
    /// `SystemConfig::TRACE_CAPACITY` events per network.
    pub trace: bool,
    /// Path for the Chrome trace-event JSON export (empty = don't
    /// write a file; scenarios that honor tracing discard the trace).
    pub trace_out: String,
    /// Result cache directory: finished artifacts and run-metrics
    /// cells, content-addressed (empty = caching off). Never part of a
    /// run's cache key: two runs that differ only here are the same
    /// experiment.
    pub checkpoint_dir: String,
    provenance: Vec<Layer>,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            n: 8,
            topology: "mesh".into(),
            traffic: "uniform".into(),
            n_cbs: 8,
            scale: 0.5,
            seeds: vec![42, 7],
            seed: 7,
            full: false,
            threads: 0,
            sim_threads: 1,
            max_cycles: 2_000_000,
            ni_queue_cap: 8,
            cb_inflight_cap: 128,
            l2_latency: 20,
            pipeline_extra: 0,
            reply_compression: 0.0,
            activity_gate: true,
            audit: false,
            cycles: 6_000,
            iters: 4_000,
            obs: false,
            obs_interval: 1_000,
            obs_stream: String::new(),
            trace: false,
            trace_out: String::new(),
            checkpoint_dir: String::new(),
            provenance: vec![Layer::Default; fields().len()],
        }
    }
}

impl ExperimentSpec {
    /// Provenance of the named field, if registered.
    pub fn provenance_of(&self, name: &str) -> Option<Layer> {
        fields()
            .iter()
            .position(|f| f.name == name)
            .map(|i| self.provenance[i])
    }

    /// Applies one field's value as `layer` supplies it and records
    /// `layer` as its provenance. A refused value leaves the spec as it
    /// was.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed or out-of-bound value
    /// (the caller prefixes the flag, variable or key).
    pub fn set(&mut self, field: &FieldDef, value: Raw, layer: Layer) -> Result<(), String> {
        (field.set)(self, value)?;
        let i = fields()
            .iter()
            .position(|f| f.name == field.name)
            .expect("registered field");
        self.provenance[i] = layer;
        Ok(())
    }

    /// The full spec as JSON: every field's resolved value plus a
    /// `provenance` object mapping field name → winning layer. This is
    /// embedded in every emitted artifact so results are
    /// self-describing.
    pub fn to_json(&self) -> Json {
        let mut spec = Json::obj();
        let mut prov = Json::obj();
        for (i, f) in fields().iter().enumerate() {
            spec = spec.with(f.name, (f.get_json)(self));
            prov = prov.with(f.name, self.provenance[i].name());
        }
        spec.with("provenance", prov)
    }

    /// Canonical cache-key material for content-addressed result
    /// caching: every registered field except `checkpoint_dir` and the
    /// names in `skip`, rendered as `name=compact-json` lines in registry
    /// order. Provenance is excluded (the resolved values define the
    /// experiment, not which layer set them), and so is the cache
    /// location itself — moving the cache directory must never change
    /// what is cached. `skip` is for fields the keyed result provably
    /// does not depend on (a matrix cell and `threads`, say).
    pub fn cache_key_material(&self, skip: &[&str]) -> String {
        let mut s = String::new();
        for f in fields() {
            if f.name == "checkpoint_dir" || skip.contains(&f.name) {
                continue;
            }
            s.push_str(f.name);
            s.push('=');
            s.push_str(&(f.get_json)(self).to_compact());
            s.push('\n');
        }
        s
    }
}

/// A field's value as one layer supplies it: the text of a CLI flag or
/// an `EQUINOX_*` variable, or a spec file's JSON value. Each accessor
/// reads one kind of value from either form, so a field has one setter
/// for every layer.
#[derive(Debug, Clone, Copy)]
pub enum Raw<'a> {
    /// A CLI value or environment variable (presence flags carry `"1"`).
    Text(&'a str),
    /// A spec-file value.
    Json(&'a Json),
}

impl<'a> Raw<'a> {
    fn uint(self) -> Result<u64, String> {
        match self {
            Raw::Text(v) => v.trim().parse().map_err(|_| format!("expected a non-negative integer, got '{v}'")),
            Raw::Json(v) => v
                .as_u64()
                .ok_or_else(|| format!("expected a non-negative integer, got {}", v.to_compact())),
        }
    }

    fn float(self) -> Result<f64, String> {
        match self {
            Raw::Text(v) => v.trim().parse().map_err(|_| format!("expected a number, got '{v}'")),
            Raw::Json(v) => v.as_f64().ok_or_else(|| format!("expected a number, got {}", v.to_compact())),
        }
    }

    /// Truthy text: `1`, `true`, `on`, `yes` (case-insensitive); falsy:
    /// empty, `0`, `false`, `off`, `no`. Anything else is an error, so a
    /// typo is not read as either.
    fn bool(self) -> Result<bool, String> {
        match self {
            Raw::Text(v) => match v.trim().to_ascii_lowercase().as_str() {
                "1" | "true" | "on" | "yes" => Ok(true),
                "" | "0" | "false" | "off" | "no" => Ok(false),
                _ => Err(format!("expected a boolean (1/0/true/false/on/off), got '{v}'")),
            },
            Raw::Json(v) => v.as_bool().ok_or_else(|| format!("expected a boolean, got {}", v.to_compact())),
        }
    }

    /// A string, trimmed on every layer.
    fn text(self) -> Result<&'a str, String> {
        match self {
            Raw::Text(v) => Ok(v.trim()),
            Raw::Json(v) => v
                .as_str()
                .map(str::trim)
                .ok_or_else(|| format!("expected a string, got {}", v.to_compact())),
        }
    }

    /// A comma-separated list or an array of seeds, at least one.
    fn seeds(self) -> Result<Vec<u64>, String> {
        let seeds = match self {
            Raw::Text(v) => v
                .split(',')
                .map(|p| p.trim().parse().map_err(|_| format!("expected a seed (u64), got '{p}'")))
                .collect::<Result<Vec<_>, _>>()?,
            Raw::Json(v) => v
                .as_arr()
                .ok_or_else(|| format!("expected an array of seeds, got {}", v.to_compact()))?
                .iter()
                .map(|j| Raw::Json(j).uint())
                .collect::<Result<Vec<_>, _>>()?,
        };
        if seeds.is_empty() {
            return Err("need at least one seed".into());
        }
        Ok(seeds)
    }
}

/// One registered spec field: its spec-file key (`name`), CLI flag,
/// environment variable, its one setter for every layer and its getter.
#[derive(Debug)]
pub struct FieldDef {
    /// Spec-file key and provenance name.
    pub name: &'static str,
    /// CLI flag (`--scale`).
    pub flag: &'static str,
    /// Environment variable (`EQUINOX_SCALE`).
    pub env: &'static str,
    /// `false` for presence-only boolean flags (`--audit`).
    pub takes_value: bool,
    /// One-line help for the usage text.
    pub help: &'static str,
    set: fn(&mut ExperimentSpec, Raw) -> Result<(), String>,
    get_json: fn(&ExperimentSpec) -> Json,
}

/// Topology names the spec accepts; must match
/// `equinox_noc::TopologyKind::parse` (cross-checked by a bench test).
pub const TOPOLOGY_CHOICES: &[&str] = &["mesh", "ring", "hring"];

/// Traffic-pattern names the spec accepts; must match
/// `equinox_traffic::SyntheticPattern::parse` (cross-checked by a
/// bench test).
pub const TRAFFIC_CHOICES: &[&str] = &["uniform", "hotspot", "transpose", "bursty"];

/// Largest `max_cycles`. The packet tracker stamps cycles as `u32`, with
/// `u32::MAX` for "not yet", and a run capped at `max_cycles` steps
/// cycles `0..max_cycles`. It also bounds `l2_latency` and `obs_interval`,
/// which count cycles of such a run. `SystemConfig::check` enforces all
/// three for library callers.
pub const MAX_CYCLES_LIMIT: u64 = u32::MAX as u64;

/// Largest `cycles`: a load-latency point steps `cycles / 5` warm-up
/// cycles, then `cycles` measured ones, all packet-tracker cycles (see
/// [`MAX_CYCLES_LIMIT`]), so `cycles + cycles / 5 < u32::MAX`.
/// `load_latency_curve_cfg` asserts it for library callers.
pub const LOADLAT_CYCLES_LIMIT: u64 = 3_579_139_412;

/// Largest `iters`: `equinox_mcts::tree::ITERS_LIMIT`, the most
/// iterations one design search holds (cross-checked by a bench test).
/// A search sizes its tree for the whole budget up front, 64 bytes per
/// iteration (64 MB at this limit), and
/// `equinox_mcts::tree::search` asserts it for library callers.
pub const ITERS_LIMIT: usize = 1_000_000;

/// Largest `n`. A network's route table holds `(n²)²` entries, so a
/// 300×300 mesh asked for 32 GB, and a design search grows steeply with
/// the board: 24×24 takes seconds, 32×32 over 100 s. The paper's largest
/// mesh is 16×16. `SystemConfig::check` enforces it for library callers.
pub const MESH_LIMIT: u16 = 24;

const _: () = {
    let (m, next) = (LOADLAT_CYCLES_LIMIT, LOADLAT_CYCLES_LIMIT + 1);
    assert!(m + m / 5 < MAX_CYCLES_LIMIT && next + next / 5 >= MAX_CYCLES_LIMIT);
};

/// A closed-choice string field's value, lower-cased.
fn choice(kind: &str, allowed: &[&str], v: &str) -> Result<String, String> {
    let t = v.to_ascii_lowercase();
    if allowed.contains(&t.as_str()) {
        Ok(t)
    } else {
        Err(format!("expected one of {} for {kind}, got '{v}'", allowed.join("/")))
    }
}

/// `scale`'s bound: finite and above zero (`"nan"` and `"inf"` parse as
/// `f64`, and a spec file can say `-1`). A NaN or non-positive quota
/// multiplier gives every PE an empty quota, and every cell "finishes"
/// in the pipeline's fill time.
fn positive(v: f64) -> Result<f64, String> {
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(format!("must be finite and > 0, got {v}"))
    }
}

/// `reply_compression`'s bound: a probability in [0, 1], the range
/// `CacheBank::set_compression` asserts on a pool worker.
fn probability(v: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(format!("must be a probability in [0, 1], got {v}"))
    }
}

/// An integer field's bounds, enforced by its setter on every layer
/// (CLI, env, file). A value under `min` describes no machine or run (a
/// 0-tile mesh, a queue that holds nothing, a run capped at 0 cycles); one
/// over `max` does not fit the field's type, or counts more cycles than
/// the packet tracker stamps in 32 bits, or more iterations than one
/// search holds, or a mesh whose route table does not fit in memory.
fn in_range<T: TryFrom<u64> + PartialOrd + std::fmt::Display>(v: u64, min: T, max: T) -> Result<T, String> {
    match T::try_from(v) {
        Ok(t) if t < min => Err(format!("must be >= {min}, got {v}")),
        Ok(t) if t <= max => Ok(t),
        _ => Err(format!("must be <= {max}, got {v}")),
    }
}

/// Registers one field. Each arm names how the field reads its value;
/// every arm ends in the one `FieldDef` literal, whose setter serves
/// every layer.
macro_rules! field {
    // Unsigned integer, optionally bounded below and above.
    (uint $name:literal, $flag:literal, $env:literal, $field:ident : $ty:ty, $help:literal) => {
        field!(uint >= 0, $name, $flag, $env, $field: $ty, $help)
    };
    (uint >= $min:literal, $name:literal, $flag:literal, $env:literal, $field:ident : $ty:ty, $help:literal) => {
        field!(uint >= $min, <= <$ty>::MAX, $name, $flag, $env, $field: $ty, $help)
    };
    (uint >= $min:literal, <= $max:expr, $name:literal, $flag:literal, $env:literal, $field:ident : $ty:ty, $help:literal) => {
        field!(custom $name, $flag, $env, true, $help,
            |s, v| {
                s.$field = in_range::<$ty>(v.uint()?, $min, $max)?;
                Ok(())
            },
            |s| Json::Num(s.$field as f64))
    };
    // Float, checked by a bound function.
    (float $bound:ident, $name:literal, $flag:literal, $env:literal, $field:ident, $help:literal) => {
        field!(custom $name, $flag, $env, true, $help,
            |s, v| {
                s.$field = $bound(v.float()?)?;
                Ok(())
            },
            |s| Json::Num(s.$field))
    };
    // Boolean, set true by the flag's presence.
    (flag $name:literal, $flag:literal, $env:literal, $field:ident, $help:literal) => {
        field!(custom $name, $flag, $env, false, $help,
            |s, v| {
                s.$field = v.bool()?;
                Ok(())
            },
            |s| Json::Bool(s.$field))
    };
    // One of a closed list of names.
    (choice $choices:ident, $name:literal, $flag:literal, $env:literal, $field:ident, $help:literal) => {
        field!(custom $name, $flag, $env, true, $help,
            |s, v| {
                s.$field = choice($name, $choices, v.text()?)?;
                Ok(())
            },
            |s| Json::Str(s.$field.clone()))
    };
    // A file or directory path; empty = off.
    (path $name:literal, $flag:literal, $env:literal, $field:ident, $help:literal) => {
        field!(custom $name, $flag, $env, true, $help,
            |s, v| {
                s.$field = v.text()?.to_string();
                Ok(())
            },
            |s| Json::Str(s.$field.clone()))
    };
    (custom $name:literal, $flag:literal, $env:literal, $takes_value:literal, $help:literal, $set:expr, $get:expr) => {
        FieldDef {
            name: $name,
            flag: $flag,
            env: $env,
            takes_value: $takes_value,
            help: $help,
            set: $set,
            get_json: $get,
        }
    };
}

/// The field registry: one entry per [`ExperimentSpec`] field, in
/// emission order.
pub fn fields() -> &'static [FieldDef] {
    static FIELDS: &[FieldDef] = &[
        field!(uint >= 2, <= MESH_LIMIT, "n", "--n", "EQUINOX_N", n: u16, "grid size (NxN routers, 2 to 24)"),
        field!(choice TOPOLOGY_CHOICES, "topology", "--topology", "EQUINOX_TOPOLOGY", topology, "reply-fabric topology: mesh, ring or hring"),
        field!(choice TRAFFIC_CHOICES, "traffic", "--traffic", "EQUINOX_TRAFFIC", traffic, "synthetic traffic pattern: uniform, hotspot, transpose or bursty"),
        field!(uint >= 1, "n_cbs", "--cbs", "EQUINOX_CBS", n_cbs: u16, "number of cache banks (>= 1)"),
        field!(float positive, "scale", "--scale", "EQUINOX_SCALE", scale, "per-PE instruction quota multiplier (finite, > 0)"),
        field!(custom "seeds", "--seeds", "EQUINOX_SEEDS", true, "comma-separated seed list for seed-averaged runs",
            |s, v| {
                s.seeds = v.seeds()?;
                Ok(())
            },
            |s| Json::Arr(s.seeds.iter().map(|&x| Json::Num(x as f64)).collect())),
        field!(uint "seed", "--seed", "EQUINOX_SEED", seed: u64, "primary seed (design search)"),
        field!(flag "full", "--full", "EQUINOX_FULL", full, "run all 29 benchmarks (default: quick subset)"),
        field!(uint "threads", "--threads", "EQUINOX_THREADS", threads: usize, "worker-pool threads (0 = auto)"),
        field!(uint >= 1, <= 1, "sim_threads", "--sim-threads", "EQUINOX_SIM_THREADS", sim_threads: usize, "threads per simulation (1, the only value: runs are single-threaded)"),
        field!(uint >= 1, <= MAX_CYCLES_LIMIT, "max_cycles", "--max-cycles", "EQUINOX_MAX_CYCLES", max_cycles: u64, "safety cap on simulated cycles (1 to 4294967295)"),
        field!(uint >= 1, "ni_queue_cap", "--ni-queue-cap", "EQUINOX_NI_QUEUE_CAP", ni_queue_cap: usize, "NI message-queue capacity (>= 1)"),
        field!(uint >= 1, "cb_inflight_cap", "--cb-inflight-cap", "EQUINOX_CB_INFLIGHT_CAP", cb_inflight_cap: usize, "max requests inside one CB (>= 1)"),
        // A hit slower than the cycle cap never completes.
        field!(uint >= 0, <= MAX_CYCLES_LIMIT, "l2_latency", "--l2-latency", "EQUINOX_L2_LATENCY", l2_latency: u64, "L2 hit latency in cycles (0 to 4294967295)"),
        field!(uint "pipeline_extra", "--pipeline-extra", "EQUINOX_PIPELINE_EXTRA", pipeline_extra: u32, "extra router pipeline stages"),
        field!(float probability, "reply_compression", "--reply-compression", "EQUINOX_REPLY_COMPRESSION", reply_compression, "read-reply compression probability (in [0, 1])"),
        // The flag and variable keep the historical escape hatch's
        // polarity: their presence (or a truthy EQUINOX_NO_ACTIVITY_GATE)
        // *disables* the gate. The spec file says it directly:
        // "activity_gate": false.
        field!(custom "activity_gate", "--no-activity-gate", "EQUINOX_NO_ACTIVITY_GATE", false, "fall back to exhaustive every-router-every-cycle stepping",
            |s, v| {
                s.activity_gate = v.bool()? != matches!(v, Raw::Text(_));
                Ok(())
            },
            |s| Json::Bool(s.activity_gate)),
        field!(flag "audit", "--audit", "EQUINOX_AUDIT", audit, "arm the invariant auditor"),
        field!(uint >= 1, <= LOADLAT_CYCLES_LIMIT, "cycles", "--cycles", "EQUINOX_CYCLES", cycles: u64, "measured cycles per load-latency point (1 to 3579139412)"),
        field!(uint >= 1, <= ITERS_LIMIT, "iters", "--iters", "EQUINOX_ITERS", iters: usize, "MCTS iterations for spec-driven design searches (1 to 1000000)"),
        field!(flag "obs", "--obs", "EQUINOX_OBS", obs, "arm the observability layer (metrics + time series)"),
        // An interval of 0 would sample every cycle of nothing; one past
        // the cycle cap never samples.
        field!(uint >= 1, <= MAX_CYCLES_LIMIT, "obs_interval", "--obs-interval", "EQUINOX_OBS_INTERVAL", obs_interval: u64, "cycles between observability samples (1 to 4294967295)"),
        field!(path "obs_stream", "--obs-stream", "EQUINOX_OBS_STREAM", obs_stream, "append line-JSON telemetry frames to this file"),
        field!(flag "trace", "--trace", "EQUINOX_TRACE", trace, "record per-flit NoC trace events"),
        field!(path "trace_out", "--trace-out", "EQUINOX_TRACE_OUT", trace_out, "write Chrome trace-event JSON to this path"),
        field!(path "checkpoint_dir", "--checkpoint-dir", "EQUINOX_CHECKPOINT_DIR", checkpoint_dir, "result cache directory (empty = off)"),
    ];
    FIELDS
}

/// Looks a field up by its CLI flag.
pub fn field_by_flag(flag: &str) -> Option<&'static FieldDef> {
    fields().iter().find(|f| f.flag == flag)
}

/// Looks a field up by its spec-file key.
pub(crate) fn field_by_name(name: &str) -> Option<&'static FieldDef> {
    fields().iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        let fs = fields();
        let spec = ExperimentSpec::default();
        assert_eq!(spec.provenance.len(), fs.len());
        for f in fs {
            assert!(f.flag.starts_with("--"), "{} flag malformed", f.name);
            assert!(f.env.starts_with("EQUINOX_"), "{} env malformed", f.name);
        }
        // Names, flags and env vars are all unique.
        for key in [0usize, 1, 2] {
            let mut seen: Vec<&str> = fs
                .iter()
                .map(|f| [f.name, f.flag, f.env][key])
                .collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), fs.len(), "duplicate key kind {key}");
        }
    }

    #[test]
    fn set_records_provenance() {
        let mut s = ExperimentSpec::default();
        let f = field_by_flag("--scale").unwrap();
        s.set(f, Raw::Text("0.25"), Layer::Cli).unwrap();
        assert_eq!(s.scale, 0.25);
        assert_eq!(s.provenance_of("scale"), Some(Layer::Cli));
        assert_eq!(s.provenance_of("n"), Some(Layer::Default));
        assert!(s.set(f, Raw::Text("abc"), Layer::Cli).is_err());
    }

    #[test]
    fn activity_gate_polarity() {
        let mut s = ExperimentSpec::default();
        let f = field_by_name("activity_gate").unwrap();
        // Env/flag form is inverted ("no-activity-gate"):
        s.set(f, Raw::Text("1"), Layer::Env).unwrap();
        assert!(!s.activity_gate);
        // Spec-file form is direct:
        s.set(f, Raw::Json(&Json::Bool(true)), Layer::File).unwrap();
        assert!(s.activity_gate);
    }

    #[test]
    fn seeds_parse_both_ways() {
        let mut s = ExperimentSpec::default();
        let f = field_by_name("seeds").unwrap();
        s.set(f, Raw::Text("1,2,3"), Layer::Cli).unwrap();
        assert_eq!(s.seeds, vec![1, 2, 3]);
        s.set(f, Raw::Json(&crate::json::parse("[9, 8]").unwrap()), Layer::File)
            .unwrap();
        assert_eq!(s.seeds, vec![9, 8]);
        assert!(s.set(f, Raw::Text(""), Layer::Cli).is_err());
        assert!(s.set(f, Raw::Json(&Json::Arr(vec![])), Layer::File).is_err());
    }

    #[test]
    fn obs_and_trace_fields_parse_both_ways() {
        let mut s = ExperimentSpec::default();
        assert!(!s.obs && !s.trace && s.trace_out.is_empty());
        for (flag, v) in [("--obs", "1"), ("--trace", "1"), ("--obs-interval", "250"), ("--trace-out", "/tmp/t.json")] {
            s.set(field_by_flag(flag).unwrap(), Raw::Text(v), Layer::Cli).unwrap();
        }
        assert!(s.obs && s.trace);
        assert_eq!(s.obs_interval, 250);
        assert_eq!(s.trace_out, "/tmp/t.json");
        // Spec-file forms.
        let f = field_by_name("trace_out").unwrap();
        s.set(f, Raw::Json(&Json::Str("x.json".into())), Layer::File).unwrap();
        assert_eq!(s.trace_out, "x.json");
        assert!(s.set(f, Raw::Json(&Json::Num(3.0)), Layer::File).is_err());
        assert_eq!(s.provenance_of("trace_out"), Some(Layer::File));
    }

    #[test]
    fn checkpoint_dir_parses_both_ways() {
        let mut s = ExperimentSpec::default();
        assert!(s.checkpoint_dir.is_empty(), "caching off by default");
        let f = field_by_flag("--checkpoint-dir").unwrap();
        assert_eq!(f.env, "EQUINOX_CHECKPOINT_DIR");
        s.set(f, Raw::Text(" /tmp/ck "), Layer::Cli).unwrap();
        assert_eq!(s.checkpoint_dir, "/tmp/ck");
        s.set(f, Raw::Json(&Json::Str(" /tmp/other ".into())), Layer::File).unwrap();
        assert_eq!(s.checkpoint_dir, "/tmp/other");
        assert!(s.set(f, Raw::Json(&Json::Num(1.0)), Layer::File).is_err());
        assert_eq!(s.provenance_of("checkpoint_dir"), Some(Layer::File));
    }

    #[test]
    fn obs_stream_parses_both_ways_and_enters_the_cache_key() {
        let mut s = ExperimentSpec::default();
        assert!(s.obs_stream.is_empty(), "streaming off by default");
        let f = field_by_flag("--obs-stream").unwrap();
        assert_eq!(f.env, "EQUINOX_OBS_STREAM");
        s.set(f, Raw::Text(" frames.ndjson "), Layer::Cli).unwrap();
        assert_eq!(s.obs_stream, "frames.ndjson");
        s.set(f, Raw::Json(&Json::Str("/tmp/frames.ndjson".into())), Layer::File).unwrap();
        assert_eq!(s.obs_stream, "/tmp/frames.ndjson");
        assert!(s.set(f, Raw::Json(&Json::Num(1.0)), Layer::File).is_err());
        assert_eq!(s.provenance_of("obs_stream"), Some(Layer::File));
        // Unlike checkpoint_dir, the sink arms observability and thus
        // changes what the run records: it is part of the experiment.
        assert!(s.cache_key_material(&[]).contains("obs_stream"));
    }

    #[test]
    fn obs_interval_zero_is_a_fatal_config_error() {
        let mut s = ExperimentSpec::default();
        let f = field_by_flag("--obs-interval").unwrap();
        s.set(f, Raw::Text("250"), Layer::Cli).unwrap();
        assert_eq!(s.obs_interval, 250);
        for (layer, res) in [
            (Layer::Cli, s.set(f, Raw::Text("0"), Layer::Cli)),
            (Layer::Env, s.set(f, Raw::Text(" 0 "), Layer::Env)),
            (Layer::File, s.set(f, Raw::Json(&Json::Num(0.0)), Layer::File)),
        ] {
            let err = res.unwrap_err();
            assert!(err.contains(">= 1"), "{layer:?}: error must say >= 1: {err}");
        }
        assert_eq!(s.obs_interval, 250, "rejected values must not stick");
    }

    #[test]
    fn cache_key_material_ignores_cache_location_and_provenance() {
        let mut a = ExperimentSpec::default();
        let mut b = ExperimentSpec::default();
        let dir = field_by_name("checkpoint_dir").unwrap();
        b.set(dir, Raw::Text("/tmp/elsewhere"), Layer::Cli).unwrap();
        // Same experiment, different cache dir and provenance → same key.
        assert_eq!(a.cache_key_material(&[]), b.cache_key_material(&[]));
        assert!(!a.cache_key_material(&[]).contains("checkpoint_dir"));
        // Any experiment knob changes the key material.
        a.set(field_by_name("scale").unwrap(), Raw::Text("0.25"), Layer::Cli).unwrap();
        assert_ne!(a.cache_key_material(&[]), b.cache_key_material(&[]));
        // …unless the caller names it as one its result does not read.
        assert_eq!(a.cache_key_material(&["scale"]), b.cache_key_material(&["scale"]));
    }

    #[test]
    fn sim_threads_accepts_only_1_on_every_layer() {
        let mut s = ExperimentSpec::default();
        assert_eq!(s.sim_threads, 1, "serial by default");
        let f = field_by_flag("--sim-threads").unwrap();
        assert_eq!(f.env, "EQUINOX_SIM_THREADS");
        for (layer, res) in [
            (Layer::Cli, s.set(f, Raw::Text("2"), Layer::Cli)),
            (Layer::Env, s.set(f, Raw::Text("0"), Layer::Env)),
            (Layer::File, s.set(f, Raw::Json(&Json::Num(4.0)), Layer::File)),
            (Layer::Cli, s.set(f, Raw::Text("many"), Layer::Cli)),
        ] {
            assert!(res.is_err(), "{layer:?} must reject the value");
        }
        assert_eq!(s.sim_threads, 1, "rejected values must not stick");
        assert_eq!(s.provenance_of("sim_threads"), Some(Layer::Default));
        s.set(f, Raw::Json(&Json::Num(1.0)), Layer::File).unwrap();
        assert_eq!(s.provenance_of("sim_threads"), Some(Layer::File));
    }

    #[test]
    fn topology_and_traffic_parse_and_reject() {
        let mut s = ExperimentSpec::default();
        assert_eq!(s.topology, "mesh");
        assert_eq!(s.traffic, "uniform");
        let topo = field_by_flag("--topology").unwrap();
        assert_eq!(topo.env, "EQUINOX_TOPOLOGY");
        s.set(topo, Raw::Text(" Ring "), Layer::Cli).unwrap();
        assert_eq!(s.topology, "ring", "trimmed and lower-cased");
        s.set(topo, Raw::Json(&Json::Str("hring".into())), Layer::File).unwrap();
        assert_eq!(s.topology, "hring");
        let err = s.set(topo, Raw::Text("torus"), Layer::Cli).unwrap_err();
        assert!(err.contains("mesh/ring/hring"), "error lists choices: {err}");
        assert!(s.set(topo, Raw::Json(&Json::Num(3.0)), Layer::File).is_err());
        assert_eq!(s.provenance_of("topology"), Some(Layer::File));

        let traffic = field_by_flag("--traffic").unwrap();
        for p in TRAFFIC_CHOICES {
            s.set(traffic, Raw::Text(p), Layer::Env).unwrap();
            assert_eq!(s.traffic, *p);
        }
        assert!(s.set(traffic, Raw::Text("tornado"), Layer::Cli).is_err());
        assert_eq!(s.provenance_of("traffic"), Some(Layer::Env));
    }

    #[test]
    fn to_json_embeds_provenance() {
        let mut s = ExperimentSpec::default();
        let f = field_by_flag("--audit").unwrap();
        s.set(f, Raw::Text("1"), Layer::Env).unwrap();
        let j = s.to_json();
        assert_eq!(j.get("audit"), Some(&Json::Bool(true)));
        let prov = j.get("provenance").unwrap();
        assert_eq!(prov.get("audit").and_then(Json::as_str), Some("env"));
        assert_eq!(prov.get("scale").and_then(Json::as_str), Some("default"));
    }
}
