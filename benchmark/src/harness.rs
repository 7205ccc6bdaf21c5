//! The closed loop: one client, one thread, each cell starts when the
//! previous one returns. Rounds of every cell in order fill a fixed
//! span, a setup cell precedes each of the first rounds, and the
//! calibration kernel runs between any two timed things. Each cell's low
//! quartile over the rounds, in reference seconds, is what the
//! end-to-end numbers are made of.

use crate::calib;
use crate::cells::{Cell, Env, Mode, Outcome, N, N_CBS};
use crate::names::Metrics;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use equinox_config::ExperimentSpec;
use equinox_core::{EquiNoxDesign, SchemeKind, System};
use std::hint::black_box;
use std::time::Instant;

/// MCTS iterations and seed of the flagship 8×8 design: what every
/// `equinox` process that touches the EquiNox scheme searches once.
pub const DESIGN_ITERS: usize = 4_000;
/// Seed of the flagship design search.
pub const DESIGN_SEED: u64 = 7;
/// Placements the design search runs MCTS on (`EquiNoxDesign::search`).
pub const DESIGN_TOP_K: usize = 8;
/// Setup-cell samples an untraced run takes: the first before the warm
/// round (it yields the design), the others before the first rounds of
/// the span, one a round. The order of work is thus the same in every
/// run, whatever the machine's speed, and so is the peak of the heap.
pub const SETUP_SAMPLES: usize = 10;
/// Share of `--seconds` the traced run spends on rounds; the layer
/// probes follow.
pub const TRACED_SPAN_SHARE: f64 = 0.45;

/// Operations attempted and failed, with the reasons on stderr.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Cell and setup executions checked.
    pub attempted: u64,
    /// Executions that did not complete, carried no traffic, changed
    /// fingerprint, or tripped the auditor.
    pub failed: u64,
}

impl Ledger {
    /// Counts one operation; `problem` is `Some(reason)` when it failed.
    pub fn op(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = problem {
            self.failed += 1;
            eprintln!("FAILED {what}: {reason}");
        }
    }
}

/// Why `got` is a failed execution of a cell whose first execution had
/// fingerprint `first`, or `None` when it is fine.
pub fn check_outcome(got: &Outcome, first: Option<u64>) -> Option<String> {
    if !got.ok {
        return Some("did not complete or carried no traffic".into());
    }
    match first {
        Some(f) if f != got.fingerprint => Some(format!(
            "fingerprint {:016x} differs from the first round's {f:016x}",
            got.fingerprint
        )),
        _ => None,
    }
}

/// Samples of one cell across rounds. Times are reference seconds
/// ([`calib::to_reference`]).
#[derive(Debug, Default)]
pub struct CellLog {
    /// Fingerprint of the first execution.
    pub first: Option<u64>,
    /// Outcome of the first execution (simulated statistics).
    pub outcome: Outcome,
    /// Each plain execution.
    pub plain: Vec<f64>,
    /// Each traced execution.
    pub traced: Vec<f64>,
    /// Per-chunk minimum step-loop seconds over traced executions.
    pub chunk_min_s: Vec<f64>,
    /// Per-phase (build, run, metrics) minimum seconds over traced
    /// executions.
    pub phase_min_s: Vec<f64>,
}

/// Everything a run measured before it is turned into metrics.
pub struct RunLog {
    /// One log per cell, in workload order.
    pub cells: Vec<CellLog>,
    /// Each setup-cell execution, reference seconds.
    pub setup: Vec<f64>,
    /// Wall seconds of the span the rounds filled.
    pub span_s: f64,
    /// Wall seconds of each complete round (a diagnostic: wide
    /// quartiles or few rounds mean a slow phase).
    pub round_s: Vec<f64>,
    /// Seconds of each calibration-kernel call, in order.
    pub calib_s: Vec<f64>,
    /// The design the first setup cell found.
    pub design: EquiNoxDesign,
}

/// The `SystemConfig` the setup cell builds: the same for every
/// workload on purpose, so `setup_s` is one number across the benchmark.
fn setup_build(spec: &ExperimentSpec, design: &EquiNoxDesign, seed: u64) -> System {
    let env = Env { spec, design };
    System::build(env.system_config(SchemeKind::EquiNox, "kmeans", 0.5, seed))
}

/// The setup cell: the paper's §4 design pipeline (placement → MCTS →
/// crossings) called directly, then the first `System::build` — what a
/// process pays before its first simulated cycle.
pub fn setup_cell(spec: &ExperimentSpec, seed: u64) -> (EquiNoxDesign, f64) {
    let t0 = Instant::now();
    let design = EquiNoxDesign::search(N, N_CBS, DESIGN_ITERS, DESIGN_SEED);
    black_box(setup_build(spec, &design, seed));
    (design, t0.elapsed().as_secs_f64())
}

/// What the traced setup learned on the way.
pub struct SetupTrace {
    /// The design found.
    pub design: EquiNoxDesign,
    /// Seconds of each per-placement `mcts.search` span.
    pub search_s: Vec<f64>,
    /// Evaluations the winning search made.
    pub evaluations: usize,
    /// Cost of the winning selection.
    pub best_cost: f64,
}

/// The setup cell with a span around every layer: the same pipeline as
/// `EquiNoxDesign::search`, assembled here from the public calls it is
/// made of so each call can be timed. The caller checks that the design
/// equals the one `EquiNoxDesign::search` returns.
pub fn setup_cell_traced(spec: &ExperimentSpec, seed: u64, t: &mut Tracer) -> SetupTrace {
    use equinox_mcts::problem::EirProblem;
    use equinox_mcts::tree::{search, MctsConfig};
    use equinox_placement::nqueen::{solutions_limited, to_placement};
    use equinox_placement::PlacementScorer;

    let whole = t.begin("setup");
    let s = t.begin("placement");
    let scorer = PlacementScorer::new(N, N);
    let mut scored: Vec<_> = solutions_limited(N, usize::MAX)
        .iter()
        .map(|sol| {
            let p = to_placement(N, sol, None);
            (scorer.penalty(&p.cbs), p)
        })
        .collect();
    scored.sort_by_key(|(score, _)| *score);
    scored.truncate(DESIGN_TOP_K);
    t.end(s);

    let mut search_s = Vec::new();
    let mut best: Option<(f64, usize, EquiNoxDesign)> = None;
    for (_, placement) in scored {
        let s = t.begin("mcts.search");
        let problem = EirProblem::new(placement.clone());
        let cfg = MctsConfig {
            iterations: DESIGN_ITERS,
            seed: DESIGN_SEED,
            ..Default::default()
        };
        let result = search(&problem, &cfg);
        search_s.push(t.end(s));
        if best
            .as_ref()
            .is_none_or(|(cost, _, _)| result.eval.cost < *cost)
        {
            let design = EquiNoxDesign {
                placement,
                selection: result.selection,
            };
            best = Some((result.eval.cost, result.evaluations, design));
        }
    }
    let (best_cost, evaluations, design) = best.expect("8x8 has N-Queen solutions");

    let s = t.begin("phys.crossings");
    black_box(equinox_phys::segment::count_crossings(&design.segments()));
    t.end(s);
    let s = t.begin("core.build");
    black_box(setup_build(spec, &design, seed));
    t.end(s);
    t.end(whole);
    SetupTrace {
        design,
        search_s,
        evaluations,
        best_cost,
    }
}

/// One benchmark run in progress: the inputs and what has been
/// measured so far.
pub struct Run<'a> {
    /// The resolved (default, checked clean) spec.
    pub spec: &'a ExperimentSpec,
    /// The workload's cells, in order.
    pub cells: &'a [Cell],
    /// The seed base the cells were generated from.
    pub seed: u64,
    /// Samples and first-execution outcomes.
    pub log: RunLog,
    /// Operations attempted and failed.
    pub ledger: Ledger,
    kernel: calib::Kernel,
    /// Seconds of the latest calibration-kernel call: the "before" of
    /// whatever is timed next.
    last_calib_s: f64,
}

fn begin(t: &mut Option<&mut Tracer>, name: &'static str, index: usize) -> Option<SpanId> {
    t.as_deref_mut().map(|t| t.begin_indexed(name, index))
}

fn end(t: &mut Option<&mut Tracer>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (t.as_deref_mut(), id) {
        t.end(id);
    }
}

impl<'a> Run<'a> {
    /// Takes the first setup sample, whose design the EquiNox cells of
    /// every round then use.
    pub fn new(spec: &'a ExperimentSpec, cells: &'a [Cell], seed: u64) -> Self {
        let mut kernel = calib::Kernel::new();
        let (before_s, _) = kernel.call();
        let (design, wall_s) = setup_cell(spec, seed);
        let mut run = Self::assemble(spec, cells, seed, design, kernel, before_s);
        let ref_s = run.reference(wall_s, &mut None);
        run.log.setup.push(ref_s);
        run.ledger.op("setup", None);
        run
    }

    /// A run whose design was found some other way (the traced setup).
    pub fn with_design(
        spec: &'a ExperimentSpec,
        cells: &'a [Cell],
        seed: u64,
        design: EquiNoxDesign,
    ) -> Self {
        let mut kernel = calib::Kernel::new();
        let first_calib_s = kernel.call().0;
        Self::assemble(spec, cells, seed, design, kernel, first_calib_s)
    }

    fn assemble(
        spec: &'a ExperimentSpec,
        cells: &'a [Cell],
        seed: u64,
        design: EquiNoxDesign,
        kernel: calib::Kernel,
        first_calib_s: f64,
    ) -> Self {
        let log = RunLog {
            cells: cells.iter().map(|_| CellLog::default()).collect(),
            setup: Vec::new(),
            span_s: 0.0,
            round_s: Vec::new(),
            calib_s: vec![first_calib_s],
            design,
        };
        Run {
            spec,
            cells,
            seed,
            log,
            ledger: Ledger::default(),
            kernel,
            last_calib_s: first_calib_s,
        }
    }

    /// One calibration-kernel call.
    fn calibrate(&mut self, tracer: &mut Option<&mut Tracer>) {
        let span = tracer.as_deref_mut().map(|t| t.begin("calib"));
        (self.last_calib_s, _) = self.kernel.call();
        end(tracer, span);
        self.log.calib_s.push(self.last_calib_s);
    }

    /// Closes a stretch of `wall_s` seconds that began right after the
    /// latest kernel call: one more call, and the stretch in reference
    /// seconds.
    fn reference(&mut self, wall_s: f64, tracer: &mut Option<&mut Tracer>) -> f64 {
        let before_s = self.last_calib_s;
        self.calibrate(tracer);
        calib::to_reference(wall_s, before_s, self.last_calib_s)
    }

    /// One setup cell; its design must equal the run's.
    fn setup_sample(&mut self) {
        let (d, wall_s) = setup_cell(self.spec, self.seed);
        let ref_s = self.reference(wall_s, &mut None);
        let problem = (d != self.log.design).then(|| "design differs from the run's".to_string());
        self.ledger.op("setup", problem);
        self.log.setup.push(ref_s);
    }

    /// The warm round: every cell once with the strict auditor armed,
    /// untimed. The auditor panics on the first violation, which counts
    /// as a failed operation; the fingerprints it leaves are what every
    /// timed (unaudited) execution must reproduce.
    pub fn audited_warm_round(&mut self) {
        let env = Env {
            spec: self.spec,
            design: &self.log.design,
        };
        for (cell, entry) in self.cells.iter().zip(&mut self.log.cells) {
            let what = format!("{} (audited)", cell.label);
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                env.run(cell, Mode::Audited, None)
            }));
            match got {
                Ok(got) => {
                    self.ledger.op(&what, check_outcome(&got, entry.first));
                    entry.first = Some(got.fingerprint);
                    entry.outcome = got;
                }
                Err(_) => self.ledger.op(
                    &what,
                    Some("the strict auditor reported a violation".into()),
                ),
            }
        }
    }

    /// The timed span: rounds of every cell in order for `span_s`
    /// seconds counted from the first of them (every cell at least once,
    /// however short the span), a setup cell before each round until the
    /// run has `setups` samples. With a tracer, even rounds are traced
    /// and odd rounds plain: comparing the two gives the tracing
    /// overhead.
    pub fn rounds(&mut self, span_s: f64, setups: usize, mut tracer: Option<&mut Tracer>) {
        let traced = tracer.is_some();
        // A traced run needs one round of each kind.
        let min_rounds = if traced { 2 } else { 1 };
        let started = Instant::now();
        let spent = |round: usize| round >= min_rounds && started.elapsed().as_secs_f64() >= span_s;
        let mut round = 0usize;
        'span: while !spent(round) {
            if self.log.setup.len() < setups {
                self.setup_sample();
            }
            let trace_this = traced && round.is_multiple_of(2);
            let round_span = begin(&mut tracer, "round", round);
            let round_t0 = Instant::now();
            for (c, cell) in self.cells.iter().enumerate() {
                if spent(round) {
                    end(&mut tracer, round_span);
                    break 'span;
                }
                let env = Env {
                    spec: self.spec,
                    design: &self.log.design,
                };
                let cell_span = begin(&mut tracer, "cell", c);
                let inner = if trace_this {
                    tracer.as_deref_mut()
                } else {
                    None
                };
                let got = env.run(cell, Mode::Plain, inner);
                end(&mut tracer, cell_span);
                let ref_s = self.reference(got.wall_s, &mut tracer);
                let entry = &mut self.log.cells[c];
                self.ledger
                    .op(&cell.label, check_outcome(&got, entry.first));
                if trace_this {
                    entry.traced.push(ref_s);
                    stats::min_into(&mut entry.chunk_min_s, &got.chunk_s);
                    stats::min_into(&mut entry.phase_min_s, &got.phase_s);
                } else {
                    entry.plain.push(ref_s);
                }
                if entry.first.is_none() {
                    entry.first = Some(got.fingerprint);
                    entry.outcome = got;
                }
            }
            end(&mut tracer, round_span);
            self.log.round_s.push(round_t0.elapsed().as_secs_f64());
            round += 1;
        }
        self.log.span_s = started.elapsed().as_secs_f64();
    }
}

/// `VmHWM` of this process in MB: the peak resident set so far.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Σ over cells of `pick(cell)`'s low quartile: the workload's
/// undisturbed time in reference seconds.
fn sum_of_low_quartiles(log: &RunLog, pick: fn(&CellLog) -> &Vec<f64>) -> Option<f64> {
    log.cells.iter().map(|c| stats::low_quartile(pick(c))).sum()
}

/// The four end-to-end metrics of an untraced run.
pub fn end_to_end(log: &RunLog) -> Result<Metrics, String> {
    let wall_s = sum_of_low_quartiles(log, |c| &c.plain).ok_or("a cell was never timed")?;
    let cycles: u64 = log.cells.iter().map(|c| c.outcome.sim_cycles).sum();
    let mut m = Metrics::default();
    m.put("wall_s", wall_s);
    m.put("sim_cycles_per_s", cycles as f64 / wall_s);
    m.put(
        "setup_s",
        stats::low_quartile(&log.setup).ok_or("setup was never timed")?,
    );
    m.put(
        "peak_rss_mb",
        peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    Ok(m)
}

/// The per-layer metrics the traced rounds themselves yield: the
/// workload's simulated counts and where a cell's time goes.
pub fn round_layer_metrics(log: &RunLog, m: &mut Metrics) -> Result<(), String> {
    let outcomes = || log.cells.iter().map(|c| &c.outcome);
    let cycles: u64 = outcomes().map(|o| o.sim_cycles).sum();
    let steps: u64 = outcomes().map(|o| o.steps).sum();
    let chunk_s: f64 = log.cells.iter().flat_map(|c| &c.chunk_min_s).sum();
    // Load-latency cells have no System: no step loop to time, no PEs.
    m.put(
        "core.step_ns",
        if steps > 0 {
            chunk_s * 1e9 / steps as f64
        } else {
            0.0
        },
    );
    m.put(
        "core.ff_cycle_frac",
        if steps > 0 {
            1.0 - steps as f64 / cycles as f64
        } else {
            0.0
        },
    );
    m.put("core.sim_cycles", cycles as f64);
    m.put(
        "core.ipc",
        outcomes().map(|o| o.ipc * o.sim_cycles as f64).sum::<f64>() / cycles as f64,
    );
    let mut e = equinox_snap::Enc::new();
    for c in &log.cells {
        e.put_u64(c.first.ok_or("a cell never ran")?);
    }
    m.put(
        "core.fingerprint",
        (equinox_snap::fnv1a(&e.into_bytes()) & 0xFFFF_FFFF) as f64,
    );
    m.put(
        "noc.link_flits",
        outcomes().map(|o| o.link_flits).sum::<u64>() as f64,
    );
    m.put(
        "traffic.memops",
        outcomes().map(|o| o.memops).sum::<u64>() as f64,
    );

    let mut phase = [0.0; 3];
    for c in &log.cells {
        for (p, s) in phase.iter_mut().zip(&c.phase_min_s) {
            *p += s;
        }
    }
    let total: f64 = phase.iter().sum();
    for (name, p) in ["build", "run", "metrics"].iter().zip(phase) {
        m.put(
            format!("trace.cell_share.{name}"),
            if total > 0.0 { p / total } else { 0.0 },
        );
    }

    let sum =
        |pick| sum_of_low_quartiles(log, pick).ok_or("a cell missed its traced or its plain round");
    m.put(
        "trace.overhead_pct",
        (sum(|c| &c.traced)? / sum(|c| &c.plain)? - 1.0) * 100.0,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(fingerprint: u64, ok: bool) -> Outcome {
        Outcome {
            fingerprint,
            ok,
            ..Outcome::default()
        }
    }

    #[test]
    fn a_fingerprint_mismatch_is_a_failed_operation() {
        let mut ledger = Ledger::default();
        ledger.op("first", check_outcome(&outcome(7, true), None));
        ledger.op("same", check_outcome(&outcome(7, true), Some(7)));
        assert_eq!((ledger.attempted, ledger.failed), (2, 0));
        ledger.op("drifted", check_outcome(&outcome(8, true), Some(7)));
        ledger.op("incomplete", check_outcome(&outcome(7, false), Some(7)));
        assert_eq!((ledger.attempted, ledger.failed), (4, 2));
    }

    #[test]
    fn end_to_end_sums_each_cells_low_quartile_of_reference_seconds() {
        let design = EquiNoxDesign::quick(N, N_CBS);
        let cell = |ref_s: &[f64], cycles| CellLog {
            plain: ref_s.to_vec(),
            outcome: Outcome {
                sim_cycles: cycles,
                ..Outcome::default()
            },
            ..CellLog::default()
        };
        let log = RunLog {
            // quantiles([.2,.3,.5,.9], n=4)[0] = 0.225; one sample stands for itself
            cells: vec![cell(&[0.5, 0.2, 0.3, 0.9], 1000), cell(&[0.075], 500)],
            // five samples: quantiles(..., n=4)[0] = 1.45
            setup: vec![1.6, 1.5, 1.7, 1.4, 1.8],
            span_s: 0.0,
            round_s: vec![],
            calib_s: vec![],
            design,
        };
        let m = end_to_end(&log).expect("complete log");
        assert!((m.get("wall_s").unwrap() - 0.3).abs() < 1e-12);
        assert!((m.get("sim_cycles_per_s").unwrap() - 5000.0).abs() < 1e-6);
        assert!((m.get("setup_s").unwrap() - 1.45).abs() < 1e-12);
        assert!(m.get("peak_rss_mb").unwrap() > 0.0);
    }
}
