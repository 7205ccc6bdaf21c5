//! Content-addressed result caching for the experiment harness.
//!
//! The simulator and the design search are bit-deterministic, so a
//! finished result can be stored on disk under a hash of everything
//! that determines it and replayed verbatim. Two kinds of entry live
//! side by side in the spec's `checkpoint_dir`, both behind [`lookup`]
//! and [`store`]:
//!
//! * `run_<key>` — one [`Cell`](crate::Cell)'s [`RunMetrics`], keyed by
//!   [`Cell::key`](crate::Cell::key) and encoded bit-exactly (floats by
//!   bit pattern) so a hit in [`run_cells`](crate::run_cells) is
//!   indistinguishable from recomputation.
//! * `design_<key>` — one searched [`EquiNoxDesign`] in its text format,
//!   keyed by `(n, n_cbs, iters, seed)` and the search's format version
//!   ([`design`](crate::design)).
//!
//! Every entry ends in an 8-byte FNV-1a-64 of its payload ([`seal`]),
//! checked and stripped before the payload is decoded. FNV-1a's step is
//! a bijection of its state for each byte, so every one-byte change of
//! an entry breaks the sum: a damaged byte in a metric or a design
//! coordinate cannot replay as a hit. A corrupt, truncated or
//! mismatched entry is treated as a miss and rewritten; caching is never
//! load-bearing for correctness.

use equinox_config::ExperimentSpec;
use equinox_core::{EquiNoxDesign, LatencyBreakdown, RunMetrics, SchemeKind};
use equinox_snap::{fnv1a, CheckpointCache, Dec, Enc, Snap, SnapError};

/// The cache a spec asks for: `None` when `checkpoint_dir` is empty, and
/// also when the spec names an `obs_stream` target — the stream is
/// written by the simulation itself and is in no cache entry, so a
/// replayed cell would leave it incomplete.
pub(crate) fn cache_for(spec: &ExperimentSpec) -> Option<CheckpointCache> {
    let cacheable = !spec.checkpoint_dir.is_empty() && spec.obs_stream.is_empty();
    cacheable.then(|| CheckpointCache::new(&spec.checkpoint_dir))
}

/// The `kind_<key>` entry, if one is stored, its checksum holds and
/// `decode` accepts its payload.
pub(crate) fn lookup<T>(
    cache: Option<&CheckpointCache>,
    kind: &str,
    key: u64,
    decode: impl FnOnce(&[u8]) -> Option<T>,
) -> Option<T> {
    decode(unseal(&cache?.load(kind, key).ok()??)?)
}

/// Stores `payload` as the `kind_<key>` entry; a failure only costs a
/// stderr line.
pub(crate) fn store(cache: Option<&CheckpointCache>, kind: &str, key: u64, payload: &[u8]) {
    if let Some(Err(e)) = cache.map(|c| c.store(kind, key, &seal(payload))) {
        eprintln!("checkpoint cache store failed: {e}");
    }
}

/// What an entry holds on disk: `payload`, then its FNV-1a-64
/// little-endian.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    [payload, &fnv1a(payload).to_le_bytes()].concat()
}

/// The payload of a [`seal`]ed entry, or `None` when its sum fails.
fn unseal(entry: &[u8]) -> Option<&[u8]> {
    let (payload, sum) = entry.split_at(entry.len().checked_sub(8)?);
    (fnv1a(payload).to_le_bytes() == sum).then_some(payload)
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
        benchmark: d.str()?,
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
        let m = crate::run_cells(vec![cell], &mut Vec::new()).unwrap().remove(0);
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
        // What no cell's metrics depend on stays out of its key: where
        // the cache lives, how many workers ran it, which other
        // cells the scenario holds.
        let mut same = spec.clone();
        same.checkpoint_dir = "/somewhere/else".into();
        same.threads = 5;
        same.full = true;
        assert_eq!(a, cell(SchemeKind::EquiNox, 8, "bfs", &same).key());
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
    fn design_serves_a_valid_entry_and_recomputes_a_corrupt_one() {
        let dir = std::env::temp_dir().join(format!("eqsn_design_entry_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = ExperimentSpec::default();
        spec.checkpoint_dir = dir.display().to_string();
        let cache = CheckpointCache::new(&dir);
        // Each seed is a key no other call in this process asks the memo
        // for, so every `design` call below reaches the entry. Its name
        // is pinned: a cache directory of the same search still serves.
        let entry = |seed: u64| {
            let key = format!("equinox.design/v2\n8\n5\n41\n{seed}");
            cache.path("design", equinox_snap::fnv1a(key.as_bytes()))
        };
        let get = |seed| {
            let mut log = Vec::new();
            let d = crate::design(8, 5, 41, seed, &spec, &mut log);
            (d, String::from_utf8(log).unwrap().contains("searching design"))
        };
        let sealed = |d: &EquiNoxDesign| seal(d.to_text().as_bytes());
        let (fresh, searched) = get(9001);
        assert!(searched, "miss: search");
        assert_eq!(std::fs::read(entry(9001)).unwrap(), sealed(&fresh), "…and store");
        // A valid entry is served as is: no search, even for a design the
        // search would not find.
        let stored = EquiNoxDesign::quick(8, 5);
        std::fs::write(entry(9002), sealed(&stored)).unwrap();
        let (hit, searched) = get(9002);
        assert!(!searched && *hit == stored, "hit: the stored design");
        // An entry decode rejects is a miss: search again and rewrite it.
        let mut clipped = fresh.to_text();
        clipped.truncate(clipped.len() / 2);
        for (seed, corrupt) in [(9003, clipped), (9004, EquiNoxDesign::quick(8, 4).to_text())] {
            std::fs::write(entry(seed), seal(corrupt.as_bytes())).unwrap();
            let (d, searched) = get(seed);
            assert!(searched, "seed {seed}: recompute");
            assert_eq!(std::fs::read(entry(seed)).unwrap(), sealed(&d), "seed {seed}: rewritten");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `design_` entry stored under the key of the search before
    /// progressive widening (`equinox.design/v1`) is not read: the
    /// search runs and stores its own design under the v2 key, and the
    /// old entry stays as it was.
    #[test]
    fn a_design_entry_under_the_v1_key_is_not_read() {
        let dir = std::env::temp_dir().join(format!("eqsn_design_v1_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = ExperimentSpec::default();
        spec.checkpoint_dir = dir.display().to_string();
        let cache = CheckpointCache::new(&dir);
        let entry = |version: &str| {
            let key = format!("equinox.design/{version}\n8\n5\n41\n9101");
            cache.path("design", equinox_snap::fnv1a(key.as_bytes()))
        };
        let old = seal(EquiNoxDesign::quick(8, 5).to_text().as_bytes());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(entry("v1"), &old).unwrap();
        let mut log = Vec::new();
        let d = crate::design(8, 5, 41, 9101, &spec, &mut log);
        assert!(String::from_utf8(log).unwrap().contains("searching design"), "v1 entry: a miss");
        assert_eq!(*d, EquiNoxDesign::search(8, 5, 41, 9101));
        assert_eq!(std::fs::read(entry("v2")).unwrap(), seal(d.to_text().as_bytes()));
        assert_eq!(std::fs::read(entry("v1")).unwrap(), old, "left as it was");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every entry with one byte changed, to any other value: the sum
    /// fails. Through the cache, one change per byte of a stored `run_`
    /// and a stored `design_` entry is a miss that recomputes and
    /// rewrites the entry.
    #[test]
    fn every_one_byte_change_of_an_entry_is_a_miss_that_recomputes() {
        let changes = |good: &[u8]| {
            for i in 0..good.len() {
                let mut bad = good.to_vec();
                for v in (0..=255u8).filter(|&v| v != good[i]) {
                    bad[i] = v;
                    assert_eq!(unseal(&bad), None, "byte {i} set to {v}");
                }
            }
            assert_eq!(unseal(good), Some(&good[..good.len() - 8]));
        };
        let dir = std::env::temp_dir().join(format!("eqsn_entry_bytes_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = ExperimentSpec::default();
        spec.checkpoint_dir = dir.display().to_string();
        spec.scale = 0.02;
        spec.seeds = vec![1];
        let cache = CheckpointCache::new(&dir);

        let cell = crate::Cell::new(SchemeKind::SeparateBase, 8, "gaussian", &spec);
        let path = cache.path("run", cell.key());
        let run = || crate::run_cells(vec![cell.clone()], &mut Vec::new()).unwrap().remove(0);
        let m = encode_metrics(&run());
        let good = std::fs::read(&path).unwrap();
        assert_eq!(good, seal(&m));
        changes(&good);
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 1;
            std::fs::write(&path, &bad).unwrap();
            assert_eq!(encode_metrics(&run()), m, "run_ byte {i}: recomputed");
            assert_eq!(std::fs::read(&path).unwrap(), good, "run_ byte {i}: rewritten");
        }

        // Each design call below asks for a key the process memo has not
        // seen, so it reaches the entry planted under that key.
        let entry = |seed: u64| {
            let key = format!("equinox.design/v2\n8\n5\n1\n{seed}");
            cache.path("design", equinox_snap::fnv1a(key.as_bytes()))
        };
        let get = |seed| {
            let mut log = Vec::new();
            let d = crate::design(8, 5, 1, seed, &spec, &mut log);
            (d, String::from_utf8(log).unwrap().contains("searching design"))
        };
        let (_, searched) = get(9100);
        assert!(searched, "a fresh key searches");
        let good = std::fs::read(entry(9100)).unwrap();
        changes(&good);
        for (i, seed) in (0..good.len()).zip(9101..) {
            let mut bad = good.clone();
            bad[i] ^= 1;
            std::fs::write(entry(seed), &bad).unwrap();
            let (d, searched) = get(seed);
            assert!(searched, "design_ byte {i}: recomputed");
            assert_eq!(std::fs::read(entry(seed)).unwrap(), seal(d.to_text().as_bytes()), "design_ byte {i}: rewritten");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
