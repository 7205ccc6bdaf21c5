//! Structured JSON artifacts for every scenario result.
//!
//! Each converter tags its object with a `schema` string so downstream
//! tooling can dispatch without guessing:
//!
//! * `equinox.artifact/v1` — the driver's top-level envelope:
//!   `{schema, scenario, spec, results}` where `spec` is the resolved
//!   [`ExperimentSpec`](equinox_config::ExperimentSpec) (including its
//!   per-field `provenance` block, so every artifact records where each
//!   knob's value came from) and `results` is the scenario's payload.
//! * `equinox.run_metrics/v1` — one full-system run
//!   ([`RunMetrics`]): scheme, benchmark, cycles, `exec_ns`, `ipc`,
//!   `completed`, the four-way `latency_ns` split, `dynamic_j`,
//!   `leakage_j`, `energy_j`, `edp`, `area_mm2`, `ubumps`,
//!   `reply_bit_fraction`.
//! * `equinox.load_point/v1` — one load–latency measurement
//!   ([`LoadPoint`]): offered rate, accepted throughput, mean latency.
//! * `equinox.obs/v3` — the observability block of an obs-armed run
//!   (emitted by the `observe` scenario via
//!   [`System::obs_json`](equinox_core::System::obs_json)): per class
//!   the stall-cause latency breakdown, latency and injection-wait
//!   histograms with interpolated p50/p95/p99 and injection-wait heat;
//!   the interval time series; and per network the router heat grid and
//!   its variance, per-link flit counts and per-cause stall grids. The
//!   block is cycle-derived only, so it is bit-identical across
//!   `EQUINOX_THREADS` settings; wall-clock span timings go to the
//!   separate `--trace-out` Chrome trace file instead.
//!
//! The emitted spec block round-trips: feeding an artifact's `spec`
//! object back via `--spec` reproduces the run's configuration (the
//! resolver skips the `provenance` key).

use equinox_config::{ExperimentSpec, Json};
use equinox_core::loadlat::LoadPoint;
use equinox_core::RunMetrics;

/// The driver's top-level artifact envelope (`equinox.artifact/v1`).
pub fn artifact(scenario: &str, spec: &ExperimentSpec, results: Json) -> Json {
    Json::obj()
        .with("schema", "equinox.artifact/v1")
        .with("scenario", scenario)
        .with("spec", spec.to_json())
        .with("results", results)
}

/// One full-system run as JSON (`equinox.run_metrics/v1`).
pub fn run_metrics_json(m: &RunMetrics) -> Json {
    Json::obj()
        .with("schema", "equinox.run_metrics/v1")
        .with("scheme", m.scheme.name())
        .with("benchmark", m.benchmark.as_str())
        .with("cycles", m.cycles)
        .with("exec_ns", m.exec_ns)
        .with("ipc", m.ipc)
        .with("completed", m.completed)
        .with(
            "latency_ns",
            Json::obj()
                .with("req_queue", m.latency.req_queue_ns)
                .with("req_net", m.latency.req_net_ns)
                .with("rep_queue", m.latency.rep_queue_ns)
                .with("rep_net", m.latency.rep_net_ns),
        )
        .with("dynamic_j", m.dynamic_j)
        .with("leakage_j", m.leakage_j)
        .with("energy_j", m.energy_j())
        .with("edp", m.edp)
        .with("area_mm2", m.area_mm2)
        .with("ubumps", m.ubumps as u64)
        .with("reply_bit_fraction", m.reply_bit_fraction)
}

/// One load–latency point as JSON (`equinox.load_point/v1`).
pub(crate) fn load_point_json(p: &LoadPoint) -> Json {
    Json::obj()
        .with("schema", "equinox.load_point/v1")
        .with("offered", p.offered)
        .with("throughput", p.throughput)
        .with("latency", p.latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_core::SchemeKind;

    #[test]
    fn run_metrics_emit_the_documented_schema() {
        let mut spec = ExperimentSpec::default();
        spec.scale = 0.02;
        let cell = crate::Cell::new(SchemeKind::SeparateBase, 8, "gaussian", &spec);
        let m = crate::run_cells(vec![cell], &mut Vec::new()).unwrap().remove(0);
        let j = run_metrics_json(&m);
        assert_eq!(j.get("schema").and_then(Json::as_str), Some("equinox.run_metrics/v1"));
        assert_eq!(j.get("cycles").and_then(Json::as_u64), Some(m.cycles));
        assert!(j.get("latency_ns").and_then(|l| l.get("req_net")).is_some());
        // The emission is valid JSON and round-trips.
        let text = j.to_compact();
        assert_eq!(equinox_config::parse_json(&text).unwrap(), j);
    }

    #[test]
    fn artifact_envelope_embeds_spec_and_results() {
        let spec = ExperimentSpec::default();
        let a = artifact("table1", &spec, Json::obj().with("ok", true));
        assert_eq!(a.get("scenario").and_then(Json::as_str), Some("table1"));
        assert!(a.get("spec").and_then(|s| s.get("provenance")).is_some());
        assert_eq!(
            a.get("results").and_then(|r| r.get("ok")).and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn obs_block_round_trips_through_the_parser() {
        use equinox_core::{ObsConfig, System, SystemConfig};
        use equinox_traffic::{profile::benchmark, Workload};
        let workload = Workload::new(benchmark("gaussian").unwrap(), 0.02, 1);
        let mut cfg = SystemConfig::new(SchemeKind::SeparateBase, 8, workload);
        cfg.max_cycles = 100_000;
        cfg.obs = Some(ObsConfig { interval: 500, ..Default::default() });
        let mut sys = System::build(cfg);
        let m = sys.run();
        assert!(m.completed);
        let obs = sys.obs_json().expect("obs was armed");
        assert_eq!(obs.get("schema").and_then(Json::as_str), Some("equinox.obs/v3"));
        assert!(obs.get("classes").and_then(|c| c.get("reply")).and_then(|r| r.get("latency")).is_some());
        // The block embeds into the artifact envelope and survives a
        // write → parse round trip bit-for-bit.
        let spec = ExperimentSpec::default();
        let a = artifact("observe", &spec, Json::obj().with("obs", obs));
        let parsed = equinox_config::parse_json(&a.pretty()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn load_point_fields() {
        let p = LoadPoint { offered: 0.5, throughput: 3.25, latency: 17.5 };
        let j = load_point_json(&p);
        assert_eq!(j.get("offered").and_then(Json::as_f64), Some(0.5));
        assert_eq!(j.get("latency").and_then(Json::as_f64), Some(17.5));
    }
}
