//! Content-addressed result caching for the experiment harness.
//!
//! The simulator and the design search are bit-deterministic, so a
//! finished result can be stored on disk under a hash of everything
//! that determines it and replayed verbatim. Three kinds of entry live
//! side by side in the spec's `checkpoint_dir`, all behind [`cached`]:
//!
//! * `artifact_<key>` — a whole `equinox.artifact/v1` document, keyed by
//!   scenario and full spec ([`artifact_key`]), stored and replayed
//!   byte-for-byte by the `equinox` driver.
//! * `run_<key>` — one [`Cell`](crate::Cell)'s [`RunMetrics`], keyed by
//!   [`Cell::key`](crate::Cell::key) and encoded bit-exactly (floats by
//!   bit pattern) so a hit in [`run_cells`](crate::run_cells) is
//!   indistinguishable from recomputation.
//! * `design_<key>` — one searched [`EquiNoxDesign`] in its text format,
//!   keyed by `(n, n_cbs, iters, seed)` ([`design`](crate::design)).
//!
//! A corrupt, truncated or mismatched entry is treated as a miss and
//! rewritten; caching is never load-bearing for correctness.

use equinox_config::ExperimentSpec;
use equinox_core::{EquiNoxDesign, LatencyBreakdown, RunMetrics, SchemeKind};
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

/// The `kind_<key>` entry, if one is stored and `decode` accepts it.
pub(crate) fn lookup<T>(
    cache: Option<&CheckpointCache>,
    kind: &str,
    key: u64,
    decode: impl FnOnce(&[u8]) -> Option<T>,
) -> Option<T> {
    decode(&cache?.load(kind, key).ok()??)
}

/// Stores the `kind_<key>` entry; a failure only costs a stderr line.
pub(crate) fn store(cache: Option<&CheckpointCache>, kind: &str, key: u64, bytes: &[u8]) {
    if let Some(Err(e)) = cache.map(|c| c.store(kind, key, bytes)) {
        eprintln!("checkpoint cache store failed: {e}");
    }
}

/// The one load → validate → compute → store sequence every entry kind
/// goes through: a valid stored entry is returned as is, anything else
/// runs `compute` and stores what it returns.
pub fn cached<T>(
    cache: Option<&CheckpointCache>,
    kind: &str,
    key: u64,
    decode: impl FnOnce(&[u8]) -> Option<T>,
    compute: impl FnOnce() -> T,
    encode: impl FnOnce(&T) -> Vec<u8>,
) -> T {
    lookup(cache, kind, key, decode).unwrap_or_else(|| {
        let value = compute();
        store(cache, kind, key, &encode(&value));
        value
    })
}

/// Cache key for a whole scenario artifact.
pub fn artifact_key(scenario: &str, spec: &ExperimentSpec) -> u64 {
    let material = spec.cache_key_material(&[]);
    fnv1a(format!("equinox.artifact/v1\n{scenario}\n{material}").as_bytes())
}

/// Decodes a `design_<key>` entry: the text must parse and describe an
/// `n × n` mesh with `n_cbs` cache banks.
pub(crate) fn decode_design(bytes: &[u8], n: u16, n_cbs: u16) -> Option<EquiNoxDesign> {
    let d = EquiNoxDesign::from_text(std::str::from_utf8(bytes).ok()?).ok()?;
    (d.placement.width == n && d.placement.cbs.len() == n_cbs as usize).then_some(d)
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
pub(crate) fn decode_metrics(bytes: &[u8]) -> Result<RunMetrics, SnapError> {
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
        spec.seeds = vec![1];
        let cell = crate::Cell::new(SchemeKind::EquiNox, 8, "gaussian", &spec);
        let m = crate::run_cells(vec![cell], &mut Vec::new()).remove(0);
        assert!(m.ubumps > 0, "a field the baselines leave at zero");
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
        use crate::Cell;
        let spec = ExperimentSpec::default();
        let cell = |scheme, n, bench, spec: &ExperimentSpec| Cell::new(scheme, n, bench, spec);
        let a = cell(SchemeKind::EquiNox, 8, "bfs", &spec).key();
        assert_ne!(a, cell(SchemeKind::SingleBase, 8, "bfs", &spec).key());
        assert_ne!(a, cell(SchemeKind::EquiNox, 12, "bfs", &spec).key());
        assert_ne!(a, cell(SchemeKind::EquiNox, 8, "kmeans", &spec).key());
        assert_ne!(a, artifact_key("sweep", &spec));
        // What no cell's metrics depend on stays out of its key: where
        // the cache lives, how many workers or lanes ran it, which other
        // cells the scenario holds.
        let mut same = spec.clone();
        same.checkpoint_dir = "/somewhere/else".into();
        same.threads = 5;
        same.sim_threads = 3;
        same.full = true;
        assert_eq!(a, cell(SchemeKind::EquiNox, 8, "bfs", &same).key());
        assert_ne!(artifact_key("sweep", &spec), artifact_key("sweep", &same), "it embeds the spec");
        // Everything else is in it: any other spec field, the seeds that
        // run, a custom design, a placement override.
        let mut scaled = spec.clone();
        scaled.scale = 0.07;
        assert_ne!(a, cell(SchemeKind::EquiNox, 8, "bfs", &scaled).key());
        let mut c = cell(SchemeKind::EquiNox, 8, "bfs", &spec);
        c.seeds = vec![42];
        assert_ne!(a, c.key());
        let mut c = cell(SchemeKind::EquiNox, 8, "bfs", &spec);
        c.design = Some(std::sync::Arc::new(EquiNoxDesign::quick(8, 8)));
        assert_ne!(a, c.key());
        let mut c = cell(SchemeKind::EquiNox, 8, "bfs", &spec);
        c.placement = Some(equinox_placement::Placement::diamond(8, 8, 8));
        assert_ne!(a, c.key());
    }

    #[test]
    fn design_entries_validate_shape_and_survive_corruption() {
        let d = EquiNoxDesign::quick(8, 8);
        let bytes = d.to_text().into_bytes();
        assert_eq!(decode_design(&bytes, 8, 8), Some(d));
        assert_eq!(decode_design(&bytes, 8, 4), None, "wrong CB count");
        assert_eq!(decode_design(&bytes, 12, 8), None, "wrong mesh");
        assert_eq!(decode_design(&bytes[..bytes.len() / 2], 8, 8), None, "clipped mid-line");
        assert_eq!(decode_design(b"\xff junk", 8, 8), None);
    }

    #[test]
    fn cached_serves_valid_entries_and_recomputes_the_rest() {
        let dir = std::env::temp_dir().join(format!("eqsn_cached_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CheckpointCache::new(&dir);
        let get = |cache: Option<&CheckpointCache>, fresh: u8| {
            cached(cache, "t", 7, |b| (b.len() == 1).then(|| b[0]), || fresh, |v| vec![*v])
        };
        assert_eq!(get(None, 1), 1, "no cache: compute");
        assert_eq!(get(Some(&cache), 2), 2, "miss: compute and store");
        assert_eq!(get(Some(&cache), 3), 2, "hit: the stored value");
        std::fs::write(cache.path("t", 7), b"too long").unwrap();
        assert_eq!(get(Some(&cache), 4), 4, "rejected by decode: recompute");
        assert_eq!(get(Some(&cache), 5), 4, "…and rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
