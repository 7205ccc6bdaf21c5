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
    /// Intra-run subnet-stepping lanes inside one `System::step`:
    /// 1 (the default) steps subnets serially on the caller, `k > 1`
    /// fans them over a persistent worker team, 0 picks
    /// `cores / outer-pool threads` so outer × inner stays within the
    /// machine. Artifacts are byte-identical for every value.
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
    /// Cycles between observability time-series samples (must be > 0;
    /// rejected at spec resolution otherwise).
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

    /// Applies one field from a string (env var or CLI value) and
    /// records `layer` as its provenance.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed value (the caller
    /// prefixes the flag/variable name).
    pub fn set_str(&mut self, field: &FieldDef, value: &str, layer: Layer) -> Result<(), String> {
        (field.set_str)(self, value)?;
        self.note(field.name, layer);
        Ok(())
    }

    /// Applies one field from a spec-file JSON value.
    ///
    /// # Errors
    ///
    /// Returns a message describing the type/range mismatch.
    pub(crate) fn set_json(&mut self, field: &FieldDef, value: &Json, layer: Layer) -> Result<(), String> {
        (field.set_json)(self, value)?;
        self.note(field.name, layer);
        Ok(())
    }

    fn note(&mut self, name: &str, layer: Layer) {
        let i = fields()
            .iter()
            .position(|f| f.name == name)
            .expect("registered field");
        self.provenance[i] = layer;
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

/// One registered spec field: its spec-file key (`name`), CLI flag,
/// environment variable, and typed setters/getter.
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
    set_str: fn(&mut ExperimentSpec, &str) -> Result<(), String>,
    set_json: fn(&mut ExperimentSpec, &Json) -> Result<(), String>,
    get_json: fn(&ExperimentSpec) -> Json,
}

fn parse_num<T: std::str::FromStr>(kind: &str, v: &str) -> Result<T, String> {
    v.trim()
        .parse::<T>()
        .map_err(|_| format!("expected {kind}, got '{v}'"))
}

/// Truthy strings: `1`, `true`, `on`, `yes` (case-insensitive);
/// falsy: empty, `0`, `false`, `off`, `no`. Anything else is an error
/// (unlike the legacy env readers, which treated typos as "on").
fn parse_bool(v: &str) -> Result<bool, String> {
    let t = v.trim().to_ascii_lowercase();
    match t.as_str() {
        "1" | "true" | "on" | "yes" => Ok(true),
        "" | "0" | "false" | "off" | "no" => Ok(false),
        _ => Err(format!("expected a boolean (1/0/true/false/on/off), got '{v}'")),
    }
}

/// Topology names the spec accepts; must match
/// `equinox_noc::TopologyKind::parse` (cross-checked by a bench test).
pub const TOPOLOGY_CHOICES: &[&str] = &["mesh", "ring", "hring"];

/// Traffic-pattern names the spec accepts; must match
/// `equinox_traffic::SyntheticPattern::parse` (cross-checked by a
/// bench test).
pub const TRAFFIC_CHOICES: &[&str] = &["uniform", "hotspot", "transpose", "bursty"];

/// Validates a closed-choice string field (lower-cased, trimmed).
fn parse_choice(kind: &str, allowed: &[&str], v: &str) -> Result<String, String> {
    let t = v.trim().to_ascii_lowercase();
    if allowed.contains(&t.as_str()) {
        Ok(t)
    } else {
        Err(format!("expected one of {} for {kind}, got '{v}'", allowed.join("/")))
    }
}

fn json_u64(v: &Json) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("expected a non-negative integer, got {}", v.to_compact()))
}

fn json_f64(v: &Json) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("expected a number, got {}", v.to_compact()))
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

fn json_bool(v: &Json) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("expected a boolean, got {}", v.to_compact()))
}

/// A field's lower bound, enforced by its setters on every layer (CLI,
/// env, file): a value under it describes no machine or run (a 0-tile
/// mesh, a queue that holds nothing, a run capped at 0 cycles).
fn at_least<T: PartialOrd + std::fmt::Display>(v: T, min: T) -> Result<T, String> {
    if v >= min {
        Ok(v)
    } else {
        Err(format!("must be >= {min}, got {v}"))
    }
}

/// Shorthand for the repetitive numeric/bool field definitions.
macro_rules! field {
    // Unsigned-integer-like field.
    (uint $name:literal, $flag:literal, $env:literal, $field:ident : $ty:ty, $help:literal) => {
        field!(uint >= 0, $name, $flag, $env, $field: $ty, $help)
    };
    // Unsigned-integer-like field with a lower bound.
    (uint >= $min:literal, $name:literal, $flag:literal, $env:literal, $field:ident : $ty:ty, $help:literal) => {
        FieldDef {
            name: $name,
            flag: $flag,
            env: $env,
            takes_value: true,
            help: $help,
            set_str: |s, v| {
                s.$field = at_least(parse_num::<$ty>("a non-negative integer", v)?, $min)?;
                Ok(())
            },
            set_json: |s, v| {
                let v = <$ty>::try_from(json_u64(v)?)
                    .map_err(|_| format!("value out of range for {}", $name))?;
                s.$field = at_least(v, $min)?;
                Ok(())
            },
            get_json: |s| Json::Num(s.$field as f64),
        }
    };
    // Float field, checked by a bound function.
    (float $bound:ident, $name:literal, $flag:literal, $env:literal, $field:ident, $help:literal) => {
        FieldDef {
            name: $name,
            flag: $flag,
            env: $env,
            takes_value: true,
            help: $help,
            set_str: |s, v| {
                s.$field = $bound(parse_num::<f64>("a number", v)?)?;
                Ok(())
            },
            set_json: |s, v| {
                s.$field = $bound(json_f64(v)?)?;
                Ok(())
            },
            get_json: |s| Json::Num(s.$field),
        }
    };
    // Plain boolean field set *true* by flag presence.
    (flag $name:literal, $flag:literal, $env:literal, $field:ident, $help:literal) => {
        FieldDef {
            name: $name,
            flag: $flag,
            env: $env,
            takes_value: false,
            help: $help,
            set_str: |s, v| {
                s.$field = parse_bool(v)?;
                Ok(())
            },
            set_json: |s, v| {
                s.$field = json_bool(v)?;
                Ok(())
            },
            get_json: |s| Json::Bool(s.$field),
        }
    };
}

/// The field registry: one entry per [`ExperimentSpec`] field, in
/// emission order.
pub fn fields() -> &'static [FieldDef] {
    static FIELDS: &[FieldDef] = &[
        field!(uint >= 2, "n", "--n", "EQUINOX_N", n: u16, "grid size (NxN routers, >= 2)"),
        FieldDef {
            name: "topology",
            flag: "--topology",
            env: "EQUINOX_TOPOLOGY",
            takes_value: true,
            help: "reply-fabric topology: mesh, ring or hring",
            set_str: |s, v| {
                s.topology = parse_choice("topology", TOPOLOGY_CHOICES, v)?;
                Ok(())
            },
            set_json: |s, v| {
                let t = v
                    .as_str()
                    .ok_or_else(|| format!("expected a topology name, got {}", v.to_compact()))?;
                s.topology = parse_choice("topology", TOPOLOGY_CHOICES, t)?;
                Ok(())
            },
            get_json: |s| Json::Str(s.topology.clone()),
        },
        FieldDef {
            name: "traffic",
            flag: "--traffic",
            env: "EQUINOX_TRAFFIC",
            takes_value: true,
            help: "synthetic traffic pattern: uniform, hotspot, transpose or bursty",
            set_str: |s, v| {
                s.traffic = parse_choice("traffic", TRAFFIC_CHOICES, v)?;
                Ok(())
            },
            set_json: |s, v| {
                let t = v
                    .as_str()
                    .ok_or_else(|| format!("expected a traffic pattern, got {}", v.to_compact()))?;
                s.traffic = parse_choice("traffic", TRAFFIC_CHOICES, t)?;
                Ok(())
            },
            get_json: |s| Json::Str(s.traffic.clone()),
        },
        field!(uint >= 1, "n_cbs", "--cbs", "EQUINOX_CBS", n_cbs: u16, "number of cache banks (>= 1)"),
        field!(float positive, "scale", "--scale", "EQUINOX_SCALE", scale, "per-PE instruction quota multiplier (finite, > 0)"),
        FieldDef {
            name: "seeds",
            flag: "--seeds",
            env: "EQUINOX_SEEDS",
            takes_value: true,
            help: "comma-separated seed list for seed-averaged runs",
            set_str: |s, v| {
                let seeds: Result<Vec<u64>, String> = v
                    .split(',')
                    .map(|p| parse_num::<u64>("a seed (u64)", p))
                    .collect();
                let seeds = seeds?;
                if seeds.is_empty() {
                    return Err("need at least one seed".into());
                }
                s.seeds = seeds;
                Ok(())
            },
            set_json: |s, v| {
                let arr = v
                    .as_arr()
                    .ok_or_else(|| format!("expected an array of seeds, got {}", v.to_compact()))?;
                let seeds: Result<Vec<u64>, String> = arr.iter().map(json_u64).collect();
                let seeds = seeds?;
                if seeds.is_empty() {
                    return Err("need at least one seed".into());
                }
                s.seeds = seeds;
                Ok(())
            },
            get_json: |s| Json::Arr(s.seeds.iter().map(|&x| Json::Num(x as f64)).collect()),
        },
        field!(uint "seed", "--seed", "EQUINOX_SEED", seed: u64, "primary seed (design search)"),
        field!(flag "full", "--full", "EQUINOX_FULL", full, "run all 29 benchmarks (default: quick subset)"),
        field!(uint "threads", "--threads", "EQUINOX_THREADS", threads: usize, "worker-pool threads (0 = auto)"),
        field!(uint "sim_threads", "--sim-threads", "EQUINOX_SIM_THREADS", sim_threads: usize, "subnet-stepping lanes per run (1 = serial, 0 = cores/threads)"),
        field!(uint >= 1, "max_cycles", "--max-cycles", "EQUINOX_MAX_CYCLES", max_cycles: u64, "safety cap on simulated cycles (>= 1)"),
        field!(uint >= 1, "ni_queue_cap", "--ni-queue-cap", "EQUINOX_NI_QUEUE_CAP", ni_queue_cap: usize, "NI message-queue capacity (>= 1)"),
        field!(uint >= 1, "cb_inflight_cap", "--cb-inflight-cap", "EQUINOX_CB_INFLIGHT_CAP", cb_inflight_cap: usize, "max requests inside one CB (>= 1)"),
        field!(uint "l2_latency", "--l2-latency", "EQUINOX_L2_LATENCY", l2_latency: u64, "L2 hit latency in cycles"),
        field!(uint "pipeline_extra", "--pipeline-extra", "EQUINOX_PIPELINE_EXTRA", pipeline_extra: u32, "extra router pipeline stages"),
        field!(float probability, "reply_compression", "--reply-compression", "EQUINOX_REPLY_COMPRESSION", reply_compression, "read-reply compression probability (in [0, 1])"),
        FieldDef {
            name: "activity_gate",
            flag: "--no-activity-gate",
            env: "EQUINOX_NO_ACTIVITY_GATE",
            takes_value: false,
            help: "fall back to exhaustive every-router-every-cycle stepping",
            // Flag/env polarity is inverted for compatibility with the
            // historical escape hatch: the flag's presence (or a truthy
            // EQUINOX_NO_ACTIVITY_GATE) *disables* the gate. The spec
            // file uses the direct form: "activity_gate": false.
            set_str: |s, v| {
                s.activity_gate = !parse_bool(v)?;
                Ok(())
            },
            set_json: |s, v| {
                s.activity_gate = json_bool(v)?;
                Ok(())
            },
            get_json: |s| Json::Bool(s.activity_gate),
        },
        field!(flag "audit", "--audit", "EQUINOX_AUDIT", audit, "arm the invariant auditor"),
        field!(uint >= 1, "cycles", "--cycles", "EQUINOX_CYCLES", cycles: u64, "measured cycles per load-latency point (>= 1)"),
        field!(uint >= 1, "iters", "--iters", "EQUINOX_ITERS", iters: usize, "MCTS iterations for spec-driven design searches (>= 1)"),
        field!(flag "obs", "--obs", "EQUINOX_OBS", obs, "arm the observability layer (metrics + time series)"),
        // Custom instead of `field!(uint ...)`: an interval of 0 would
        // mean "sample every cycle of nothing" — degenerate sampling
        // that silently records one row per cycle forever. Rejected at
        // spec-resolution time on every layer (CLI, env, file).
        FieldDef {
            name: "obs_interval",
            flag: "--obs-interval",
            env: "EQUINOX_OBS_INTERVAL",
            takes_value: true,
            help: "cycles between observability samples (> 0)",
            set_str: |s, v| {
                let n = parse_num::<u64>("a positive integer", v)?;
                if n == 0 {
                    return Err("must be > 0 (an interval of 0 cannot sample)".into());
                }
                s.obs_interval = n;
                Ok(())
            },
            set_json: |s, v| {
                let n = json_u64(v)?;
                if n == 0 {
                    return Err("must be > 0 (an interval of 0 cannot sample)".into());
                }
                s.obs_interval = n;
                Ok(())
            },
            get_json: |s| Json::Num(s.obs_interval as f64),
        },
        FieldDef {
            name: "obs_stream",
            flag: "--obs-stream",
            env: "EQUINOX_OBS_STREAM",
            takes_value: true,
            help: "append line-JSON telemetry frames to this file",
            set_str: |s, v| {
                s.obs_stream = v.trim().to_string();
                Ok(())
            },
            set_json: |s, v| {
                s.obs_stream = v
                    .as_str()
                    .ok_or_else(|| format!("expected a string sink, got {}", v.to_compact()))?
                    .to_string();
                Ok(())
            },
            get_json: |s| Json::Str(s.obs_stream.clone()),
        },
        field!(flag "trace", "--trace", "EQUINOX_TRACE", trace, "record per-flit NoC trace events"),
        FieldDef {
            name: "trace_out",
            flag: "--trace-out",
            env: "EQUINOX_TRACE_OUT",
            takes_value: true,
            help: "write Chrome trace-event JSON to this path",
            set_str: |s, v| {
                s.trace_out = v.trim().to_string();
                Ok(())
            },
            set_json: |s, v| {
                s.trace_out = v
                    .as_str()
                    .ok_or_else(|| format!("expected a string path, got {}", v.to_compact()))?
                    .to_string();
                Ok(())
            },
            get_json: |s| Json::Str(s.trace_out.clone()),
        },
        FieldDef {
            name: "checkpoint_dir",
            flag: "--checkpoint-dir",
            env: "EQUINOX_CHECKPOINT_DIR",
            takes_value: true,
            help: "result cache directory (empty = off)",
            set_str: |s, v| {
                s.checkpoint_dir = v.trim().to_string();
                Ok(())
            },
            set_json: |s, v| {
                s.checkpoint_dir = v
                    .as_str()
                    .ok_or_else(|| format!("expected a string path, got {}", v.to_compact()))?
                    .to_string();
                Ok(())
            },
            get_json: |s| Json::Str(s.checkpoint_dir.clone()),
        },
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
    fn set_str_and_provenance() {
        let mut s = ExperimentSpec::default();
        let f = field_by_flag("--scale").unwrap();
        s.set_str(f, "0.25", Layer::Cli).unwrap();
        assert_eq!(s.scale, 0.25);
        assert_eq!(s.provenance_of("scale"), Some(Layer::Cli));
        assert_eq!(s.provenance_of("n"), Some(Layer::Default));
        assert!(s.set_str(f, "abc", Layer::Cli).is_err());
    }

    #[test]
    fn activity_gate_polarity() {
        let mut s = ExperimentSpec::default();
        let f = field_by_name("activity_gate").unwrap();
        // Env/flag form is inverted ("no-activity-gate"):
        s.set_str(f, "1", Layer::Env).unwrap();
        assert!(!s.activity_gate);
        // Spec-file form is direct:
        s.set_json(f, &Json::Bool(true), Layer::File).unwrap();
        assert!(s.activity_gate);
    }

    #[test]
    fn seeds_parse_both_ways() {
        let mut s = ExperimentSpec::default();
        let f = field_by_name("seeds").unwrap();
        s.set_str(f, "1,2,3", Layer::Cli).unwrap();
        assert_eq!(s.seeds, vec![1, 2, 3]);
        s.set_json(
            f,
            &crate::json::parse("[9, 8]").unwrap(),
            Layer::File,
        )
        .unwrap();
        assert_eq!(s.seeds, vec![9, 8]);
        assert!(s.set_str(f, "", Layer::Cli).is_err());
        assert!(s.set_json(f, &Json::Arr(vec![]), Layer::File).is_err());
    }

    #[test]
    fn obs_and_trace_fields_parse_both_ways() {
        let mut s = ExperimentSpec::default();
        assert!(!s.obs && !s.trace && s.trace_out.is_empty());
        s.set_str(field_by_flag("--obs").unwrap(), "1", Layer::Cli).unwrap();
        s.set_str(field_by_flag("--trace").unwrap(), "1", Layer::Cli).unwrap();
        s.set_str(field_by_flag("--obs-interval").unwrap(), "250", Layer::Cli)
            .unwrap();
        s.set_str(field_by_flag("--trace-out").unwrap(), "/tmp/t.json", Layer::Cli)
            .unwrap();
        assert!(s.obs && s.trace);
        assert_eq!(s.obs_interval, 250);
        assert_eq!(s.trace_out, "/tmp/t.json");
        // Spec-file forms.
        let f = field_by_name("trace_out").unwrap();
        s.set_json(f, &Json::Str("x.json".into()), Layer::File).unwrap();
        assert_eq!(s.trace_out, "x.json");
        assert!(s.set_json(f, &Json::Num(3.0), Layer::File).is_err());
        assert_eq!(s.provenance_of("trace_out"), Some(Layer::File));
    }

    #[test]
    fn checkpoint_dir_parses_both_ways() {
        let mut s = ExperimentSpec::default();
        assert!(s.checkpoint_dir.is_empty(), "caching off by default");
        let f = field_by_flag("--checkpoint-dir").unwrap();
        assert_eq!(f.env, "EQUINOX_CHECKPOINT_DIR");
        s.set_str(f, " /tmp/ck ", Layer::Cli).unwrap();
        assert_eq!(s.checkpoint_dir, "/tmp/ck");
        s.set_json(f, &Json::Str("/tmp/other".into()), Layer::File).unwrap();
        assert_eq!(s.checkpoint_dir, "/tmp/other");
        assert!(s.set_json(f, &Json::Num(1.0), Layer::File).is_err());
        assert_eq!(s.provenance_of("checkpoint_dir"), Some(Layer::File));
    }

    #[test]
    fn obs_stream_parses_both_ways_and_enters_the_cache_key() {
        let mut s = ExperimentSpec::default();
        assert!(s.obs_stream.is_empty(), "streaming off by default");
        let f = field_by_flag("--obs-stream").unwrap();
        assert_eq!(f.env, "EQUINOX_OBS_STREAM");
        s.set_str(f, " frames.ndjson ", Layer::Cli).unwrap();
        assert_eq!(s.obs_stream, "frames.ndjson");
        s.set_json(f, &Json::Str("/tmp/frames.ndjson".into()), Layer::File).unwrap();
        assert_eq!(s.obs_stream, "/tmp/frames.ndjson");
        assert!(s.set_json(f, &Json::Num(1.0), Layer::File).is_err());
        assert_eq!(s.provenance_of("obs_stream"), Some(Layer::File));
        // Unlike checkpoint_dir, the sink arms observability and thus
        // changes what the run records: it is part of the experiment.
        assert!(s.cache_key_material(&[]).contains("obs_stream"));
    }

    #[test]
    fn obs_interval_zero_is_a_fatal_config_error() {
        let mut s = ExperimentSpec::default();
        let f = field_by_flag("--obs-interval").unwrap();
        s.set_str(f, "250", Layer::Cli).unwrap();
        assert_eq!(s.obs_interval, 250);
        for (layer, res) in [
            (Layer::Cli, s.set_str(f, "0", Layer::Cli)),
            (Layer::Env, s.set_str(f, " 0 ", Layer::Env)),
        ] {
            let err = res.unwrap_err();
            assert!(err.contains("> 0"), "{layer:?}: error must say > 0: {err}");
        }
        let err = s.set_json(f, &Json::Num(0.0), Layer::File).unwrap_err();
        assert!(err.contains("> 0"), "file layer must reject 0 too: {err}");
        assert_eq!(s.obs_interval, 250, "rejected values must not stick");
    }

    #[test]
    fn cache_key_material_ignores_cache_location_and_provenance() {
        let mut a = ExperimentSpec::default();
        let mut b = ExperimentSpec::default();
        let dir = field_by_name("checkpoint_dir").unwrap();
        b.set_str(dir, "/tmp/elsewhere", Layer::Cli).unwrap();
        // Same experiment, different cache dir and provenance → same key.
        assert_eq!(a.cache_key_material(&[]), b.cache_key_material(&[]));
        assert!(!a.cache_key_material(&[]).contains("checkpoint_dir"));
        // Any experiment knob changes the key material.
        a.set_str(field_by_name("scale").unwrap(), "0.25", Layer::Cli).unwrap();
        assert_ne!(a.cache_key_material(&[]), b.cache_key_material(&[]));
        // …unless the caller names it as one its result does not read.
        assert_eq!(a.cache_key_material(&["scale"]), b.cache_key_material(&["scale"]));
    }

    #[test]
    fn sim_threads_parses_through_every_layer_form() {
        let mut s = ExperimentSpec::default();
        assert_eq!(s.sim_threads, 1, "serial by default");
        let f = field_by_flag("--sim-threads").unwrap();
        assert_eq!(f.env, "EQUINOX_SIM_THREADS");
        s.set_str(f, "4", Layer::Env).unwrap();
        assert_eq!(s.sim_threads, 4);
        s.set_json(f, &Json::Num(8.0), Layer::File).unwrap();
        assert_eq!(s.sim_threads, 8);
        assert_eq!(s.provenance_of("sim_threads"), Some(Layer::File));
        assert!(s.set_str(f, "many", Layer::Cli).is_err());
    }

    #[test]
    fn topology_and_traffic_parse_and_reject() {
        let mut s = ExperimentSpec::default();
        assert_eq!(s.topology, "mesh");
        assert_eq!(s.traffic, "uniform");
        let topo = field_by_flag("--topology").unwrap();
        assert_eq!(topo.env, "EQUINOX_TOPOLOGY");
        s.set_str(topo, " Ring ", Layer::Cli).unwrap();
        assert_eq!(s.topology, "ring", "trimmed and lower-cased");
        s.set_json(topo, &Json::Str("hring".into()), Layer::File).unwrap();
        assert_eq!(s.topology, "hring");
        let err = s.set_str(topo, "torus", Layer::Cli).unwrap_err();
        assert!(err.contains("mesh/ring/hring"), "error lists choices: {err}");
        assert!(s.set_json(topo, &Json::Num(3.0), Layer::File).is_err());
        assert_eq!(s.provenance_of("topology"), Some(Layer::File));

        let traffic = field_by_flag("--traffic").unwrap();
        for p in TRAFFIC_CHOICES {
            s.set_str(traffic, p, Layer::Env).unwrap();
            assert_eq!(s.traffic, *p);
        }
        assert!(s.set_str(traffic, "tornado", Layer::Cli).is_err());
        assert_eq!(s.provenance_of("traffic"), Some(Layer::Env));
    }

    #[test]
    fn to_json_embeds_provenance() {
        let mut s = ExperimentSpec::default();
        let f = field_by_flag("--audit").unwrap();
        s.set_str(f, "1", Layer::Env).unwrap();
        let j = s.to_json();
        assert_eq!(j.get("audit"), Some(&Json::Bool(true)));
        let prov = j.get("provenance").unwrap();
        assert_eq!(prov.get("audit").and_then(Json::as_str), Some("env"));
        assert_eq!(prov.get("scale").and_then(Json::as_str), Some("default"));
    }
}
