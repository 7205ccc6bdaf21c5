//! Content-addressed result caching for the experiment harness.
//!
//! A resolved [`ExperimentSpec`] plus a scenario (or a matrix cell's
//! `(scheme, n, bench)` coordinates) fully determines a run's artifact —
//! the simulator is bit-deterministic — so finished results can be
//! cached on disk keyed by a hash of the canonical spec rendering
//! ([`ExperimentSpec::cache_key_material`]) and replayed verbatim. Two
//! kinds live side by side in the spec's `checkpoint_dir`:
//!
//! * `artifact_<key>` — a whole `equinox.artifact/v1` document, stored
//!   and replayed byte-for-byte by the `equinox` driver.
//! * `run_<key>` — one [`RunMetrics`] cell of the scheme × benchmark
//!   matrix, encoded bit-exactly (floats by bit pattern) so a cache hit
//!   in [`run_seeds_spec`](crate::run_seeds_spec) is indistinguishable
//!   from recomputation.
//!
//! A corrupt, truncated or mismatched entry is treated as a miss and
//! rewritten; caching is never load-bearing for correctness.

use equinox_config::ExperimentSpec;
use equinox_core::{LatencyBreakdown, RunMetrics, SchemeKind};
use equinox_snap::{fnv1a, CheckpointCache, Dec, Enc, Snap, SnapError};

/// The cache a spec asks for: `None` when `checkpoint_dir` is empty, and
/// also when the spec names an `obs_stream` or `trace_out` target — those
/// files are written by the simulation itself and are in no cache entry,
/// so a replayed hit would leave them missing.
pub fn cache_for(spec: &ExperimentSpec) -> Option<CheckpointCache> {
    let cacheable =
        !spec.checkpoint_dir.is_empty() && spec.obs_stream.is_empty() && spec.trace_out.is_empty();
    cacheable.then(|| CheckpointCache::new(&spec.checkpoint_dir))
}

/// Cache key for a whole scenario artifact.
pub fn artifact_key(scenario: &str, spec: &ExperimentSpec) -> u64 {
    fnv1a(format!("equinox.artifact/v1\n{scenario}\n{}", spec.cache_key_material()).as_bytes())
}

/// Cache key for one `(scheme, n, bench)` cell under the spec.
pub fn run_key(scheme: SchemeKind, n: u16, bench: &str, spec: &ExperimentSpec) -> u64 {
    fnv1a(
        format!(
            "equinox.run_metrics/v1\n{}\n{n}\n{bench}\n{}",
            scheme.name(),
            spec.cache_key_material()
        )
        .as_bytes(),
    )
}

fn scheme_tag(s: SchemeKind) -> u8 {
    SchemeKind::ALL.iter().position(|&k| k == s).expect("registered scheme") as u8
}

/// Serializes one [`RunMetrics`] bit-exactly.
pub fn encode_metrics(m: &RunMetrics) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u8(scheme_tag(m.scheme));
    m.benchmark.snap(&mut e);
    e.put_u64(m.cycles);
    e.put_f64(m.exec_ns);
    e.put_f64(m.ipc);
    e.put_bool(m.completed);
    e.put_f64(m.latency.req_queue_ns);
    e.put_f64(m.latency.req_net_ns);
    e.put_f64(m.latency.rep_queue_ns);
    e.put_f64(m.latency.rep_net_ns);
    e.put_f64(m.dynamic_j);
    e.put_f64(m.leakage_j);
    e.put_f64(m.edp);
    e.put_f64(m.area_mm2);
    e.put_usize(m.ubumps);
    e.put_f64(m.reply_bit_fraction);
    e.into_bytes()
}

/// Decodes an [`encode_metrics`] payload.
///
/// # Errors
///
/// Any malformed byte stream (truncation, trailing bytes, an unknown
/// scheme tag) returns a [`SnapError`]; the caller treats it as a miss.
pub fn decode_metrics(bytes: &[u8]) -> Result<RunMetrics, SnapError> {
    let mut d = Dec::new(bytes);
    let tag = d.u8()? as usize;
    let scheme = *SchemeKind::ALL.get(tag).ok_or(SnapError::BadValue("scheme tag"))?;
    let m = RunMetrics {
        scheme,
        benchmark: String::restore(&mut d)?,
        cycles: d.u64()?,
        exec_ns: d.f64()?,
        ipc: d.f64()?,
        completed: d.bool()?,
        latency: LatencyBreakdown {
            req_queue_ns: d.f64()?,
            req_net_ns: d.f64()?,
            rep_queue_ns: d.f64()?,
            rep_net_ns: d.f64()?,
        },
        dynamic_j: d.f64()?,
        leakage_j: d.f64()?,
        edp: d.f64()?,
        area_mm2: d.f64()?,
        ubumps: d.usize()?,
        reply_bit_fraction: d.f64()?,
    };
    d.finish()?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_round_trip_bit_exactly() {
        let mut spec = ExperimentSpec::default();
        spec.scale = 0.02;
        let m = crate::run_one_spec(SchemeKind::EquiNox, 8, "gaussian", 1, &spec);
        let bytes = encode_metrics(&m);
        let r = decode_metrics(&bytes).unwrap();
        assert_eq!(r.scheme, m.scheme);
        assert_eq!(r.benchmark, m.benchmark);
        assert_eq!(r.cycles, m.cycles);
        assert_eq!(r.exec_ns.to_bits(), m.exec_ns.to_bits());
        assert_eq!(r.ipc.to_bits(), m.ipc.to_bits());
        assert_eq!(r.latency, m.latency);
        assert_eq!(r.edp.to_bits(), m.edp.to_bits());
        assert_eq!(r.ubumps, m.ubumps);
        // Corruption and truncation surface as errors, never bad data.
        for cut in 0..bytes.len() {
            assert!(decode_metrics(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(decode_metrics(&bad).is_err());
    }

    #[test]
    fn keys_separate_cells_but_not_cache_locations() {
        let mut spec = ExperimentSpec::default();
        let a = run_key(SchemeKind::EquiNox, 8, "bfs", &spec);
        assert_ne!(a, run_key(SchemeKind::SingleBase, 8, "bfs", &spec));
        assert_ne!(a, run_key(SchemeKind::EquiNox, 12, "bfs", &spec));
        assert_ne!(a, run_key(SchemeKind::EquiNox, 8, "kmeans", &spec));
        assert_ne!(a, artifact_key("sweep", &spec));
        spec.checkpoint_dir = "/somewhere/else".into();
        assert_eq!(a, run_key(SchemeKind::EquiNox, 8, "bfs", &spec));
        spec.scale = 0.07;
        assert_ne!(a, run_key(SchemeKind::EquiNox, 8, "bfs", &spec));
    }
}
