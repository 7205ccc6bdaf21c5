#![forbid(unsafe_code)]
//! `equinox-bench` — the harness that regenerates every table and figure
//! of the EquiNox paper.
//!
//! The library half holds the two things every scenario is made of —
//! [`design`], the one memo of searched EquiNox designs, and [`Cell`] /
//! [`run_cells`], the one path from a spec to a full-system run — plus
//! the scenario registry ([`scenarios`]); the one binary, `equinox
//! <scenario>`, drives them under the layered spec. DESIGN.md
//! "Scenarios and who reads them" says which paper figure or workflow
//! each scenario serves.

use equinox_config::ExperimentSpec;
use equinox_core::{EquiNoxDesign, RunMetrics, SchemeKind, System, SystemConfig};
use equinox_placement::Placement;
use equinox_traffic::{profile::all_benchmarks, Workload};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

pub mod artifact;
pub mod cache;
pub mod scenarios;
pub mod watch;

/// Iterations used for the "strong" (publication-quality) design search.
pub(crate) const STRONG_ITERS: usize = 4_000;
/// Seed for the strong design (any fixed value; determinism is the point).
pub(crate) const STRONG_SEED: u64 = 7;

/// The design [`EquiNoxDesign::search`] finds for `(n, n_cbs, iters,
/// seed)`, searched at most once per process — and, with the spec's
/// cache armed, once per cache directory (a `design_<key>` entry). A
/// real search announces itself on `log`.
pub(crate) fn design(
    n: u16,
    n_cbs: u16,
    iters: usize,
    seed: u64,
    spec: &ExperimentSpec,
    log: &mut dyn Write,
) -> Arc<EquiNoxDesign> {
    type Key = (u16, u16, usize, u64);
    static MEMO: Mutex<BTreeMap<Key, Arc<EquiNoxDesign>>> = Mutex::new(BTreeMap::new());
    // Held across the search: a second caller of the same key waits for
    // the first instead of searching again.
    let mut memo = MEMO.lock().expect("a design search panicked");
    let slot = memo.entry((n, n_cbs, iters, seed));
    slot.or_insert_with(|| {
        let cache = cache::cache_for(spec);
        let key = format!("equinox.design/v1\n{n}\n{n_cbs}\n{iters}\n{seed}");
        let key = equinox_snap::fnv1a(key.as_bytes());
        let stored = cache::lookup(cache.as_ref(), "design", key, |b| cache::decode_design(b, n, n_cbs));
        Arc::new(stored.unwrap_or_else(|| {
            let _ = writeln!(
                log,
                "searching design ({n}x{n}, {n_cbs} CBs, {iters} iterations, seed {seed})…"
            );
            let d = EquiNoxDesign::search(n, n_cbs, iters, seed);
            cache::store(cache.as_ref(), "design", key, d.to_text().as_bytes());
            d
        }))
    })
    .clone()
}

/// One full-system experiment: `scheme` on an `n × n` mesh running
/// `bench` once per seed, every other knob from `spec`.
#[derive(Debug, Clone)]
pub struct Cell {
    pub scheme: SchemeKind,
    /// Mesh size (scenarios sweep it, so the spec's `n` is not read).
    pub n: u16,
    /// Benchmark name (see [`all_bench_names`]).
    pub bench: &'static str,
    /// Workload seeds ([`Cell::new`] copies the spec's; only these run).
    pub seeds: Vec<u64>,
    pub spec: ExperimentSpec,
    /// `None` means the strong design for `(n, spec.n_cbs)`.
    pub design: Option<Arc<EquiNoxDesign>>,
    /// Overrides the scheme's default CB placement.
    pub placement: Option<Placement>,
}

impl Cell {
    /// A plain matrix cell: the spec's seeds, the strong design, the
    /// scheme's own placement.
    pub fn new(scheme: SchemeKind, n: u16, bench: &'static str, spec: &ExperimentSpec) -> Self {
        Cell {
            scheme,
            n,
            bench,
            seeds: spec.seeds.clone(),
            spec: spec.clone(),
            design: None,
            placement: None,
        }
    }

    /// The design this cell runs with: its own, else — EquiNox only — the
    /// strong one for `(n, spec.n_cbs)` out of the [`design`] memo.
    fn resolved_design(&self, log: &mut dyn Write) -> Option<Arc<EquiNoxDesign>> {
        let strong = || design(self.n, self.spec.n_cbs, STRONG_ITERS, STRONG_SEED, &self.spec, log);
        self.design.clone().or_else(|| (self.scheme == SchemeKind::EquiNox).then(strong))
    }

    /// The system this cell builds for one `seed`, its design still to
    /// be resolved.
    fn config_without_design(&self, seed: u64) -> SystemConfig {
        let profile = equinox_traffic::profile::benchmark(self.bench)
            .unwrap_or_else(|| panic!("unknown benchmark {}", self.bench));
        let workload = Workload::new(profile, self.spec.scale, seed);
        let mut cfg = SystemConfig::from_spec(self.scheme, self.n, workload, &self.spec);
        cfg.placement_override = self.placement.clone();
        cfg
    }

    /// The system this cell builds for one `seed`; an EquiNox cell's
    /// design is resolved here, so no caller can build one without it.
    ///
    /// # Panics
    ///
    /// Panics on a benchmark name that is not in the suite.
    pub fn system_config(&self, seed: u64, log: &mut dyn Write) -> SystemConfig {
        let mut cfg = self.config_without_design(seed);
        cfg.design = self.resolved_design(log).as_deref().cloned();
        cfg
    }

    /// [`SystemConfig::check`] of this cell's machine: the one-line
    /// reason it cannot be built, asked before any design is searched.
    pub(crate) fn check(&self) -> Result<(), String> {
        self.config_without_design(0).check().map(drop)
    }

    /// Run-cache key: everything the cell's metrics depend on. The
    /// strong design is a function of `n` and the spec's `n_cbs`, so only
    /// a custom one enters as text. Of the spec, `threads` is out because
    /// artifacts are identical for every value (`tests/determinism.rs`),
    /// `sim_threads` because no run reads it, `full` because it only
    /// picks which cells exist, `seeds` because the cell's own list is
    /// what runs.
    pub(crate) fn key(&self) -> u64 {
        let design = self.design.as_ref().map(|d| d.to_text());
        let placement = self.placement.as_ref().map(|p| (p.width, p.height, &p.cbs));
        let material = self.spec.cache_key_material(&["threads", "sim_threads", "full", "seeds"]);
        equinox_snap::fnv1a(
            format!(
                "equinox.cell/v1\n{}\n{}\n{}\n{:?}\n{design:?}\n{placement:?}\n{material}",
                self.scheme.name(),
                self.n,
                self.bench,
                self.seeds
            )
            .as_bytes(),
        )
    }
}

/// The one seed policy: the median-cycles run rescaled to the
/// seed-geomean cycle count (pinning dynamics make single runs noisy;
/// the paper averages full benchmarks). A lone run is returned untouched.
fn fold_seeds(mut runs: Vec<RunMetrics>) -> RunMetrics {
    assert!(!runs.is_empty(), "need at least one seed");
    if runs.len() == 1 {
        return runs.remove(0);
    }
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

/// Runs `cells` and returns their metrics in input order — the one door
/// from a spec to a full-system run — or the first cell's [`Cell::check`]
/// failure, before any design is searched or any cell runs.
///
/// A cell that repeats an earlier one of the batch (same [`Cell::key`]:
/// `extensions`' +0 % and +0-stage rows) takes that one's result. With a
/// checkpoint dir armed, a hit on the cell's `run_<key>` entry replays
/// the bit-exact metrics; a miss computes and stores them. Designs are
/// searched only for cells that missed, once each and before the
/// fan-out, so one worker's search never holds the others hostage. The
/// misses run on the [`equinox_exec`] pool: each is an independent,
/// seed-deterministic job and `par_map` keeps input order, so the output
/// is identical for any worker count (`tests/determinism.rs`).
pub fn run_cells(mut cells: Vec<Cell>, log: &mut dyn Write) -> Result<Vec<RunMetrics>, String> {
    cells.iter().try_for_each(Cell::check)?;
    let keys: Vec<u64> = cells.iter().map(Cell::key).collect();
    let first: Vec<usize> =
        keys.iter().map(|k| keys.iter().position(|x| x == k).expect("its own")).collect();
    let mut out: Vec<Option<RunMetrics>> = vec![None; cells.len()];
    let mut misses = Vec::new();
    for (i, cell) in cells.iter_mut().enumerate().filter(|(i, _)| first[*i] == *i) {
        let cache = cache::cache_for(&cell.spec);
        out[i] = cache::lookup(cache.as_ref(), "run", keys[i], |bytes| {
            let m = cache::decode_metrics(bytes).ok()?;
            (m.scheme == cell.scheme && m.benchmark == cell.bench).then_some(m)
        });
        if out[i].is_none() {
            cell.design = cell.resolved_design(log);
            misses.push((i, cache));
        }
    }
    let fresh = equinox_exec::par_map(misses, |_, (i, cache)| {
        let cell = &cells[i];
        // The design is in the cell by now: nothing is left to log.
        let run = |&s: &u64| System::build(cell.system_config(s, &mut std::io::sink())).run();
        let m = fold_seeds(cell.seeds.iter().map(run).collect());
        cache::store(cache.as_ref(), "run", keys[i], &cache::encode_metrics(&m));
        (i, m)
    });
    for (i, m) in fresh {
        out[i] = Some(m);
    }
    Ok(first.iter().map(|&i| out[i].clone().expect("every distinct cell hit or ran")).collect())
}

/// The `benches × schemes` matrix, bench-major: cell `bi * schemes.len()
/// + si` is benchmark `bi` under scheme `si`, so `chunks(schemes.len())`
/// of the [`run_cells`] result are the per-benchmark rows.
pub fn matrix_cells(
    schemes: &[SchemeKind],
    n: u16,
    benches: &[&'static str],
    spec: &ExperimentSpec,
) -> Vec<Cell> {
    benches
        .iter()
        .flat_map(|&b| schemes.iter().map(move |&s| Cell::new(s, n, b, spec)))
        .collect()
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
pub(crate) const QUICK_BENCHES: [&str; 6] = [
    "kmeans",
    "heartwall",
    "fastWalshTrans",
    "gaussian",
    "bfs",
    "hotspot",
];

/// All 29 benchmark names.
pub(crate) fn all_bench_names() -> Vec<&'static str> {
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

    fn run_one(cell: Cell) -> RunMetrics {
        run_cells(vec![cell], &mut Vec::new()).unwrap().remove(0)
    }

    #[test]
    fn a_cell_produces_complete_metrics() {
        let m = run_one(Cell::new(SchemeKind::SeparateBase, 8, "gaussian", &spec_at(0.05, &[1])));
        assert!(m.completed);
        assert!(m.cycles > 0 && m.energy_j() > 0.0);
    }

    #[test]
    fn seed_policy_stays_within_the_seed_range_and_leaves_a_lone_run_alone() {
        let cell = |seeds: &[u64]| {
            Cell::new(SchemeKind::SeparateBase, 8, "gaussian", &spec_at(0.05, seeds))
        };
        let (a, b) = (run_one(cell(&[1])), run_one(cell(&[2])));
        let m = run_one(cell(&[1, 2]));
        assert!(m.cycles >= a.cycles.min(b.cycles) && m.cycles <= a.cycles.max(b.cycles));
        let direct = System::build(cell(&[1]).system_config(1, &mut Vec::new())).run();
        assert_eq!(a.exec_ns.to_bits(), direct.exec_ns.to_bits(), "one seed: the run itself");
    }

    #[test]
    fn a_repeated_cell_runs_once_and_fills_every_slot_it_holds() {
        let dir = std::env::temp_dir().join(format!("eqsn_repeat_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = spec_at(0.02, &[1]);
        spec.checkpoint_dir = dir.display().to_string();
        let cell = |scheme| Cell::new(scheme, 8, "gaussian", &spec);
        let (a, b) = (cell(SchemeKind::SeparateBase), cell(SchemeKind::SingleBase));
        let out = run_cells(vec![a.clone(), b, a.clone(), a], &mut Vec::new()).unwrap();
        let got: Vec<_> = out.iter().map(|m| m.scheme).collect();
        let (sep, single) = (SchemeKind::SeparateBase, SchemeKind::SingleBase);
        assert_eq!(got, [sep, single, sep, sep], "input order");
        assert_eq!(out[0].exec_ns.to_bits(), out[3].exec_ns.to_bits());
        // One entry per distinct cell, and no worker left a temp file
        // behind racing another for the same entry.
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names.iter().all(|n| n.to_string_lossy().starts_with("run_")), "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unbuildable_cell_is_named_before_any_design_is_searched() {
        let mut spec = spec_at(0.02, &[1]);
        spec.n_cbs = 9;
        let schemes = [SchemeKind::EquiNox, SchemeKind::SeparateBase];
        let cells = matrix_cells(&schemes, 8, &["kmeans"], &spec);
        let mut log = Vec::new();
        let why = run_cells(cells, &mut log).expect_err("nine banks do not fit a diamond on 8x8");
        assert!(why.starts_with("n_cbs = 9: SeparateBase"), "{why}");
        assert!(log.is_empty(), "{}", String::from_utf8_lossy(&log));
    }

    #[test]
    fn design_is_memoised_per_key_and_honours_the_cb_count() {
        let spec = ExperimentSpec::default();
        let mut log = Vec::new();
        let a = design(8, 4, 60, 3, &spec, &mut log);
        let b = design(8, 4, 60, 3, &spec, &mut log);
        assert!(Arc::ptr_eq(&a, &b), "same key, same Arc");
        assert_eq!(a.placement.cbs.len(), 4);
        let said = String::from_utf8(log).unwrap();
        assert_eq!(said.matches("searching design").count(), 1, "one search, one line: {said}");
        let other = design(8, 4, 60, 4, &spec, &mut Vec::new());
        assert!(!Arc::ptr_eq(&a, &other), "seed is in the key");
    }

    #[test]
    fn an_equinox_cell_builds_the_cb_count_its_spec_names() {
        let mut spec = spec_at(0.02, &[1]);
        spec.n_cbs = 4;
        let cell = Cell::new(SchemeKind::EquiNox, 8, "gaussian", &spec);
        let cfg = cell.system_config(1, &mut Vec::new());
        let design = cfg.design.as_ref().expect("resolved here, not left to `System::build`");
        assert_eq!(design.selection.groups.len(), 4);
        assert_eq!(System::build(cfg).placement.cbs.len(), 4);
    }
}
