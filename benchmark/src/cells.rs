//! Workloads as ordered lists of cells, and how one cell executes.
//!
//! A cell is one small deterministic simulation: a full-system run
//! (`SystemConfig::from_spec` → `System::build` → `System::run`) or one
//! reply-network load–latency point (`load_latency_curve_cfg`). The
//! seed base is the only input that varies between benchmark runs; the
//! simulator sees only the `Workload`/rates generated from it.

use crate::trace::Tracer;
use equinox_config::ExperimentSpec;
use equinox_core::loadlat::{load_latency_curve_cfg, ReplySide};
use equinox_core::{EquiNoxDesign, RunMetrics, SchemeKind, System, SystemConfig};
use equinox_noc::AuditConfig;
use equinox_placement::Placement;
use equinox_traffic::Workload;
use std::time::Instant;

/// Mesh side and cache-bank count of every cell (the paper's Table 1).
pub const N: u16 = 8;
/// Cache banks.
pub const N_CBS: u16 = 8;
/// `step()` calls per `core.step_chunk` span in the traced run.
pub const STEP_CHUNK: u64 = 512;
/// Offered load of the near-idle load–latency cells, packets/CB/cycle.
const IDLE_RATE: f64 = 0.02;
/// Measured cycles of one load–latency cell.
const IDLE_CYCLES: u64 = 100_000;

/// A benchmark workload: its name and the reason it exists (both are
/// mirrored in `BENCHMARK.json`, a unit test keeps them in step).
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on which layer it stresses.
    pub why: &'static str,
}

/// The three workloads, in the order `BENCHMARK.json` lists them:
/// ROADMAP's end-to-end trio of one saturated run, one near-idle run and
/// a full sweep.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "sat-kmeans",
        why: "saturated kmeans on SeparateBase and EquiNox: per-flit Network::step work dominates, through both NI kinds",
    },
    WorkloadDef {
        name: "idle-loadlat",
        why: "reply network at 2% load, gate on: almost no flits, so active-set bookkeeping and skip_idle are the cost",
    },
    WorkloadDef {
        name: "repro-sweep",
        why: "all 7 schemes x kmeans/gaussian/bfs as repro fig9 runs them: every scheme's code path; DA2Mesh's nine networks are 40% of it",
    },
];

/// What one cell simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// A full-system run to completion.
    Sim {
        /// Scheme to build.
        scheme: SchemeKind,
        /// Benchmark profile name.
        bench: &'static str,
        /// Instruction-quota multiplier.
        scale: f64,
        /// Workload seed.
        seed: u64,
    },
    /// One near-idle load–latency point on the reply network alone.
    LoadLat {
        /// `ReplySide::Equinox(design)` on its N-Queen placement when
        /// true, `ReplySide::Local` on Diamond otherwise.
        equinox: bool,
        /// Traffic seed.
        seed: u64,
    },
}

/// One unit of timed work.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Human-readable label (`EquiNox/kmeans/s2`).
    pub label: String,
    /// What it simulates.
    pub kind: CellKind,
}

fn sim(scheme: SchemeKind, bench: &'static str, scale: f64, seed: u64) -> Cell {
    Cell {
        label: format!("{}/{bench}/s{seed}", scheme.name()),
        kind: CellKind::Sim {
            scheme,
            bench,
            scale,
            seed,
        },
    }
}

/// The ordered cell list of `workload` for seed base `s`, or `None` for
/// an unknown name.
pub fn cells(workload: &str, s: u64) -> Option<Vec<Cell>> {
    let out = match workload {
        "sat-kmeans" => [SchemeKind::SeparateBase, SchemeKind::EquiNox]
            .into_iter()
            .flat_map(|scheme| (0..3).map(move |i| sim(scheme, "kmeans", 0.5, s + i)))
            .collect(),
        "idle-loadlat" => [false, true]
            .into_iter()
            .flat_map(|equinox| {
                (0..2).map(move |i| Cell {
                    label: format!("{}/s{}", if equinox { "equinox" } else { "local" }, s + i),
                    kind: CellKind::LoadLat {
                        equinox,
                        seed: s + i,
                    },
                })
            })
            .collect(),
        "repro-sweep" => SchemeKind::ALL
            .into_iter()
            .flat_map(|scheme| {
                SWEEP_BENCHES
                    .into_iter()
                    .map(move |b| sim(scheme, b, SWEEP_SCALE, s))
            })
            .collect(),
        _ => return None,
    };
    Some(out)
}

/// Benchmarks of the `repro-sweep` workload: heavy, light (mostly
/// fast-forward) and irregular traffic.
pub const SWEEP_BENCHES: [&str; 3] = ["kmeans", "gaussian", "bfs"];
/// Scale of the `repro-sweep` cells: ten setup cells take 15 s of the
/// span, and at this scale twelve rounds or more of the 21 cells fit the
/// rest on a quiet machine (eight in a slow phase).
pub const SWEEP_SCALE: f64 = 0.15;

/// The seven kmeans cells of `repro-sweep`, one per scheme.
pub fn sweep_kmeans_cells(s: u64) -> Vec<Cell> {
    SchemeKind::ALL
        .into_iter()
        .map(|scheme| sim(scheme, "kmeans", SWEEP_SCALE, s))
        .collect()
}

/// How a cell is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The user's path, nothing armed: what the end-to-end numbers time.
    Plain,
    /// Same simulation with the strict invariant auditor armed.
    Audited,
}

/// What one cell execution produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// FNV-1a over the bits of the simulated results.
    pub fingerprint: u64,
    /// Simulated core cycles.
    pub sim_cycles: u64,
    /// Ran to completion and carried traffic.
    pub ok: bool,
    /// Wall seconds of build + run + metrics.
    pub wall_s: f64,
    /// Wall seconds of each `STEP_CHUNK` of `step()` calls (traced
    /// full-system cells only).
    pub chunk_s: Vec<f64>,
    /// `step()` calls made (traced full-system cells only).
    pub steps: u64,
    /// Wall seconds of `System::build` / the step loop / `metrics()`
    /// (traced full-system cells only).
    pub phase_s: [f64; 3],
    /// Flits carried by all links of all networks (full-system cells).
    pub link_flits: u64,
    /// Request packets created = memory operations issued.
    pub memops: u64,
    /// Instructions per cycle.
    pub ipc: f64,
}

/// FNV-1a over the bit patterns of a run's simulated results.
pub fn fingerprint_metrics(m: &RunMetrics) -> u64 {
    let mut e = equinox_snap::Enc::new();
    e.put_u64(m.cycles);
    for v in [
        m.ipc,
        m.latency.req_queue_ns,
        m.latency.req_net_ns,
        m.latency.rep_queue_ns,
        m.latency.rep_net_ns,
        m.dynamic_j,
        m.leakage_j,
        m.edp,
    ] {
        e.put_f64(v);
    }
    equinox_snap::fnv1a(&e.into_bytes())
}

/// Everything a cell execution needs besides the cell itself.
pub struct Env<'a> {
    /// The resolved spec (defaults; `main` checked that nothing leaks into it).
    pub spec: &'a ExperimentSpec,
    /// The searched 8×8 EquiNox design (from the first setup cell).
    pub design: &'a EquiNoxDesign,
}

impl Env<'_> {
    /// The `SystemConfig` of a full-system cell, exactly as the
    /// `equinox` driver assembles it.
    pub fn system_config(
        &self,
        scheme: SchemeKind,
        bench: &str,
        scale: f64,
        seed: u64,
    ) -> SystemConfig {
        let profile =
            equinox_traffic::profile::benchmark(bench).expect("cell names a known benchmark");
        let mut cfg =
            SystemConfig::from_spec(scheme, N, Workload::new(profile, scale, seed), self.spec);
        if scheme == SchemeKind::EquiNox {
            cfg.design = Some(self.design.clone());
        }
        cfg
    }

    /// Executes `cell` once. With a tracer the full-system step loop is
    /// driven from here in `STEP_CHUNK`-call chunks (same simulation as
    /// `System::run` with observability off) so that build, run, chunk
    /// and metrics spans can be recorded; without one it is the plain
    /// `System::run` the end-to-end numbers time.
    pub fn run(&self, cell: &Cell, mode: Mode, tracer: Option<&mut Tracer>) -> Outcome {
        let audit = (mode == Mode::Audited).then(AuditConfig::strict);
        match &cell.kind {
            CellKind::Sim {
                scheme,
                bench,
                scale,
                seed,
            } => {
                let mut cfg = self.system_config(*scheme, bench, *scale, *seed);
                cfg.audit = audit;
                match tracer {
                    Some(t) => run_sim_traced(cfg, t),
                    None => run_sim(cfg),
                }
            }
            CellKind::LoadLat { equinox, seed } => {
                let (placement, side) = if *equinox {
                    (
                        self.design.placement.clone(),
                        ReplySide::Equinox(self.design.clone()),
                    )
                } else {
                    (Placement::diamond(N, N, N_CBS), ReplySide::Local)
                };
                let span = tracer.map(|t| (t.begin("core.loadlat"), t));
                let t0 = Instant::now();
                let pts = load_latency_curve_cfg(
                    &placement,
                    &side,
                    &[IDLE_RATE],
                    IDLE_CYCLES,
                    *seed,
                    audit,
                    self.spec.activity_gate,
                );
                let wall_s = t0.elapsed().as_secs_f64();
                if let Some((id, t)) = span {
                    t.end(id);
                }
                let p = pts[0];
                let mut e = equinox_snap::Enc::new();
                for v in [p.offered, p.throughput, p.latency] {
                    e.put_f64(v);
                }
                Outcome {
                    fingerprint: equinox_snap::fnv1a(&e.into_bytes()),
                    sim_cycles: IDLE_CYCLES,
                    ok: p.throughput > 0.0 && p.latency > 0.0,
                    wall_s,
                    ..Outcome::default()
                }
            }
        }
    }
}

fn sim_outcome(sys: &System, m: &RunMetrics, wall_s: f64) -> Outcome {
    use equinox_noc::MessageClass;
    let tracker = &sys.tracker;
    let memops = (0..tracker.len() as u64)
        .filter(|&id| tracker.record(id).class == MessageClass::Request)
        .count() as u64;
    Outcome {
        fingerprint: fingerprint_metrics(m),
        sim_cycles: m.cycles,
        ok: m.completed && tracker.delivered() > 0,
        wall_s,
        link_flits: sys
            .networks()
            .iter()
            .map(|n| n.stats().total_link_flits())
            .sum(),
        memops,
        ipc: m.ipc,
        ..Outcome::default()
    }
}

fn run_sim(cfg: SystemConfig) -> Outcome {
    let t0 = Instant::now();
    let mut sys = System::build(cfg);
    let m = sys.run();
    let wall_s = t0.elapsed().as_secs_f64();
    sim_outcome(&sys, &m, wall_s)
}

fn run_sim_traced(cfg: SystemConfig, t: &mut Tracer) -> Outcome {
    let max_cycles = cfg.max_cycles;
    let t0 = Instant::now();
    let b = t.begin("core.build");
    let mut sys = System::build(cfg);
    let build_s = t.end(b);
    let r = t.begin("core.run");
    let mut chunk_s = Vec::new();
    let mut steps = 0u64;
    while !sys.done() && sys.cycle() < max_cycles {
        let c = t.begin("core.step_chunk");
        let mut k = 0;
        while k < STEP_CHUNK && !sys.done() && sys.cycle() < max_cycles {
            sys.step();
            k += 1;
        }
        steps += k;
        chunk_s.push(t.end(c));
    }
    let run_s = t.end(r);
    let ms = t.begin("core.metrics");
    let m = sys.metrics();
    let metrics_s = t.end(ms);
    let wall_s = t0.elapsed().as_secs_f64();
    Outcome {
        chunk_s,
        steps,
        phase_s: [build_s, run_s, metrics_s],
        ..sim_outcome(&sys, &m, wall_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_a_function_of_the_seed_base() {
        for (w, n) in [("sat-kmeans", 6), ("idle-loadlat", 4), ("repro-sweep", 21)] {
            let a = cells(w, 1).expect("known workload");
            assert_eq!(a.len(), n, "{w}");
            assert_eq!(a, cells(w, 1).unwrap(), "{w}: same seed, same inputs");
            assert_ne!(a, cells(w, 2).unwrap(), "{w}: another seed, other inputs");
        }
        assert!(cells("nope", 1).is_none());
        assert_eq!(WORKLOADS.map(|w| cells(w.name, 1).is_some()), [true; 3]);
    }

    #[test]
    fn fingerprint_moves_with_any_simulated_result() {
        let design = EquiNoxDesign::quick(N, N_CBS);
        let spec = ExperimentSpec::default();
        let env = Env {
            spec: &spec,
            design: &design,
        };
        let cell = sim(SchemeKind::SeparateBase, "gaussian", 0.02, 1);
        let a = env.run(&cell, Mode::Plain, None);
        assert!(a.ok && a.sim_cycles > 0 && a.memops > 0 && a.link_flits > 0);
        assert_eq!(
            a.fingerprint,
            env.run(&cell, Mode::Audited, None).fingerprint,
            "auditing changed the results"
        );
        let mut t = Tracer::new();
        let traced = env.run(&cell, Mode::Plain, Some(&mut t));
        assert_eq!(
            a.fingerprint, traced.fingerprint,
            "the chunked step loop is not System::run"
        );
        assert!(traced.steps > 0 && traced.steps <= traced.sim_cycles);
        assert_eq!(
            traced.chunk_s.len() as u64,
            traced.steps.div_ceil(STEP_CHUNK)
        );
        t.validate().expect("cell spans nest");
        let other = env.run(
            &sim(SchemeKind::SeparateBase, "gaussian", 0.02, 2),
            Mode::Plain,
            None,
        );
        assert_ne!(a.fingerprint, other.fingerprint);
    }
}
