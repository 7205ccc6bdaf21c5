#![forbid(unsafe_code)]
//! `equinox-bench` — the harness that regenerates every table and figure
//! of the EquiNox paper.
//!
//! The library half holds shared experiment runners (scheme sweeps, a
//! cached strong EquiNox design) and the scenario registry; the one
//! binary, `equinox <scenario>`, drives them under the layered spec.
//!
//! Figure/table map (§6 of the paper):
//!
//! | scenario | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 (simulation parameters) |
//! | `fig4`   | placement heat maps + variances |
//! | `fig5`   | N-Queen scoring policy |
//! | `fig7`   | the MCTS-selected EIR design |
//! | `fig9`   | execution time / energy / EDP across 7 schemes × 29 benchmarks |
//! | `fig10`  | packet-latency split (request/reply × queue/network) |
//! | `fig11`  | NoC area |
//! | `fig12`  | scalability (8×8 / 12×12 / 16×16) |
//! | `ubumps` | §6.6 µbump accounting |
//! | `ablation` | §4 design-choice studies (search method, hop budget, group size, placement) |

use equinox_config::ExperimentSpec;
use equinox_core::{EquiNoxDesign, RunMetrics, SchemeKind, System, SystemConfig};
use equinox_traffic::{profile::all_benchmarks, Workload};
use std::sync::OnceLock;

pub mod artifact;
pub mod cache;
pub mod scenarios;
pub mod watch;

/// Iterations used for the "strong" (publication-quality) design search.
pub const STRONG_ITERS: usize = 4_000;
/// Seed for the strong design (any fixed value; determinism is the point).
pub const STRONG_SEED: u64 = 7;

/// The 8×8 flagship design, searched once and shared by all experiments.
pub fn strong_design_8x8() -> &'static EquiNoxDesign {
    static DESIGN: OnceLock<EquiNoxDesign> = OnceLock::new();
    DESIGN.get_or_init(|| EquiNoxDesign::search(8, 8, STRONG_ITERS, STRONG_SEED))
}

/// Builds a design for an arbitrary mesh size (cached only for 8×8).
pub fn design_for(n: u16) -> EquiNoxDesign {
    if n == 8 {
        strong_design_8x8().clone()
    } else {
        EquiNoxDesign::search(n, 8, STRONG_ITERS, STRONG_SEED)
    }
}

/// One full-system run of `scheme` on benchmark `bench` under the
/// resolved spec (mesh `n × n`, workload scale and capacities from the
/// spec; `seed` passed separately because seed-averaging runners sweep
/// it).
pub fn run_one_spec(
    scheme: SchemeKind,
    n: u16,
    bench: &str,
    seed: u64,
    spec: &ExperimentSpec,
) -> RunMetrics {
    let profile = equinox_traffic::profile::benchmark(bench)
        .unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let workload = Workload::new(profile, spec.scale, seed);
    let mut cfg = SystemConfig::from_spec(scheme, n, workload, spec);
    if scheme == SchemeKind::EquiNox {
        cfg.design = Some(design_for(n));
    }
    System::build(cfg).run()
}

/// Runs `scheme` over the spec's seed list and returns the metrics of
/// the median-cycles run rescaled to the seed-geomean cycle count
/// (pinning dynamics make single runs noisy; the paper averages full
/// benchmarks).
pub fn run_seeds_spec(scheme: SchemeKind, n: u16, bench: &str, spec: &ExperimentSpec) -> RunMetrics {
    assert!(!spec.seeds.is_empty(), "need at least one seed");
    // With a checkpoint dir armed, finished cells are content-addressed
    // on disk: a hit replays the bit-exact metrics, a miss computes and
    // stores them. Corrupt or colliding entries fall through to a
    // recompute (see the `cache` module's soundness notes).
    if let Some(c) = cache::cache_for(spec) {
        let key = cache::run_key(scheme, n, bench, spec);
        if let Ok(Some(bytes)) = c.load("run", key) {
            if let Ok(m) = cache::decode_metrics(&bytes) {
                if m.scheme == scheme && m.benchmark == bench {
                    return m;
                }
            }
        }
        let m = run_seeds_uncached(scheme, n, bench, spec);
        let _ = c.store("run", key, &cache::encode_metrics(&m));
        return m;
    }
    run_seeds_uncached(scheme, n, bench, spec)
}

fn run_seeds_uncached(scheme: SchemeKind, n: u16, bench: &str, spec: &ExperimentSpec) -> RunMetrics {
    let mut runs: Vec<RunMetrics> = spec
        .seeds
        .iter()
        .map(|&s| run_one_spec(scheme, n, bench, s, spec))
        .collect();
    runs.sort_by_key(|m| m.cycles);
    let geo_cycles = equinox_core::metrics::geomean(
        &runs.iter().map(|m| m.cycles as f64).collect::<Vec<_>>(),
    );
    let mut rep = runs.swap_remove(runs.len() / 2);
    let ratio = geo_cycles / rep.cycles as f64;
    rep.cycles = geo_cycles.round() as u64;
    rep.exec_ns *= ratio;
    rep.ipc /= ratio;
    rep.edp = rep.energy_j() * rep.exec_ns * 1e-9;
    rep
}

/// Runs the full `benches × schemes` sweep matrix on the
/// [`equinox_exec`] worker pool and returns it bench-major
/// (`result[bi][si]` = benchmark `bi` under scheme `si`).
///
/// Every cell is an independent, seed-deterministic job, and
/// [`equinox_exec::par_map`] returns results in input order, so the
/// output is identical for any worker count — the determinism
/// regression tests in `tests/determinism.rs` pin this down.
pub fn run_matrix_spec(
    schemes: &[SchemeKind],
    n: u16,
    benches: &[&str],
    spec: &ExperimentSpec,
) -> Vec<Vec<RunMetrics>> {
    // The EquiNox design is searched once behind a OnceLock; force it
    // before the fan-out so one worker doesn't hold the rest hostage.
    if schemes.contains(&SchemeKind::EquiNox) {
        let _ = design_for(n);
    }
    let jobs: Vec<(usize, usize)> = (0..benches.len())
        .flat_map(|bi| (0..schemes.len()).map(move |si| (bi, si)))
        .collect();
    let cells = equinox_exec::par_map(jobs, |_, (bi, si)| {
        run_seeds_spec(schemes[si], n, benches[bi], spec)
    });
    let mut rows: Vec<Vec<RunMetrics>> = Vec::with_capacity(benches.len());
    let mut it = cells.into_iter();
    for _ in 0..benches.len() {
        rows.push(it.by_ref().take(schemes.len()).collect());
    }
    rows
}

/// The benchmark set a spec selects: all 29 with `--full`, else the
/// quick subset.
pub fn bench_set(spec: &ExperimentSpec) -> Vec<&'static str> {
    if spec.full {
        all_bench_names()
    } else {
        QUICK_BENCHES.to_vec()
    }
}

/// The benchmark subset used by quick modes (network-heavy + light).
pub const QUICK_BENCHES: [&str; 6] = [
    "kmeans",
    "heartwall",
    "fastWalshTrans",
    "gaussian",
    "bfs",
    "hotspot",
];

/// All 29 benchmark names.
pub fn all_bench_names() -> Vec<&'static str> {
    all_benchmarks().iter().map(|b| b.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_subset_is_known() {
        let all = all_bench_names();
        for b in QUICK_BENCHES {
            assert!(all.contains(&b), "{b} missing from suite");
        }
        assert_eq!(all.len(), 29);
    }

    fn spec_at(scale: f64, seeds: &[u64]) -> ExperimentSpec {
        let mut spec = ExperimentSpec::default();
        spec.scale = scale;
        spec.seeds = seeds.to_vec();
        spec
    }

    #[test]
    fn run_one_produces_complete_metrics() {
        let m = run_one_spec(SchemeKind::SeparateBase, 8, "gaussian", 1, &spec_at(0.05, &[1]));
        assert!(m.completed);
        assert!(m.cycles > 0 && m.energy_j() > 0.0);
    }

    #[test]
    fn run_seeds_within_seed_range() {
        let spec = spec_at(0.05, &[1, 2]);
        let m = run_seeds_spec(SchemeKind::SeparateBase, 8, "gaussian", &spec);
        let a = run_one_spec(SchemeKind::SeparateBase, 8, "gaussian", 1, &spec).cycles;
        let b = run_one_spec(SchemeKind::SeparateBase, 8, "gaussian", 2, &spec).cycles;
        assert!(m.cycles >= a.min(b) && m.cycles <= a.max(b));
    }
}
