//! The scenario registry: every runnable experiment, by name.
//!
//! A [`Scenario`] is a pure function of the resolved
//! [`ExperimentSpec`]: it renders its human-readable report to the
//! provided writer (the driver sends it to stderr) and returns its
//! structured results as [`Json`], which the driver wraps in an
//! `equinox.artifact/v1` envelope, or the one-line reason it cannot run
//! (a machine no scheme can build, a file it cannot read or write),
//! which the driver names and exits 2 on. Scenario code never touches
//! `std::env` — everything it needs rides in the spec.
//!
//! The registry is the single source of truth for scenario names and
//! for what the driver must know about each: whether `all` runs it and
//! whether it reads `--obs-stream` rather than writing it. No other file
//! compares a scenario's name (`scripts/check.sh` guards this).

use crate::artifact::{load_point_json, run_metrics_json};
use crate::{bench_set, design, matrix_cells, run_cells, Cell, STRONG_ITERS, STRONG_SEED};
use equinox_config::{ExperimentSpec, Json};
use equinox_core::heatmap::placement_heatmap;
use equinox_core::loadlat::{load_latency_curve_cfg, ReplySide};
use equinox_core::svg::{design_svg, heatmap_svg};
use equinox_core::{EquiNoxDesign, RunMetrics, SchemeKind, System, SystemConfig};
use equinox_mcts::eval::{evaluate, EvalWeights};
use equinox_mcts::problem::EirProblem;
use equinox_mcts::tree::{search, MctsConfig};
use equinox_mcts::{ga, sa};
use equinox_phys::segment::count_crossings;
use equinox_phys::{BumpModel, Coord};
use equinox_placement::nqueen::{solutions, to_placement};
use equinox_placement::select::best_nqueen_placement;
use equinox_placement::{Placement, PlacementScorer};
use std::io::Write;
use std::sync::Arc;

type Run = fn(&ExperimentSpec, &mut dyn Write) -> Result<Json, String>;

/// One registered scenario, with what the driver must know about it.
pub struct Scenario {
    /// Name used as the driver's positional argument.
    pub name: &'static str,
    /// One-line description for `--help`.
    pub about: &'static str,
    /// Runs the scenario: human report to `log`, structured results out,
    /// or the one-line reason it cannot run.
    pub run: Run,
    /// `all` runs it: it is one of the paper's tables and figures.
    pub in_all: bool,
    /// It reads `--obs-stream` as its feed rather than writing it.
    pub reads_stream: bool,
}

impl Scenario {
    /// A paper table or figure: `all` runs it.
    const fn paper(name: &'static str, about: &'static str, run: Run) -> Self {
        Scenario { name, about, run, in_all: true, reads_stream: false }
    }

    /// A tool beside the paper: only its own name runs it.
    const fn tool(name: &'static str, about: &'static str, run: Run) -> Self {
        Scenario { in_all: false, ..Scenario::paper(name, about, run) }
    }
}

/// All scenarios, in paper order.
pub fn scenarios() -> &'static [Scenario] {
    use Scenario as S;
    static SCENARIOS: &[Scenario] = &[
        S::paper("table1", "Table 1: key simulation parameters", table1),
        S::paper("fig4", "Figure 4: placement heat maps + variances", fig4),
        S::paper("fig5", "Figure 5: N-Queen scoring policy", fig5),
        S::paper("fig7", "Figure 7: MCTS-selected EIR design", fig7),
        S::paper("fig9", "Figure 9: time/energy/EDP across schemes x benchmarks", fig9),
        S::paper("fig10", "Figure 10: packet-latency split", fig10),
        S::paper("fig11", "Figure 11: NoC area", fig11),
        S::paper("fig12", "Figure 12: scalability (8/12/16)", fig12),
        S::paper("ubumps", "Section 6.6: ubump accounting", ubumps),
        S::paper("ablation", "Section 4 design-choice ablations", ablation),
        S::paper("overfull", "Section 6.8: 12 CBs on an 8x8 mesh", overfull),
        S::paper("extensions", "Reply compression + pipeline-depth extensions", extensions),
        S::paper("svg", "Write the SVG figures into docs/", svg),
        S::tool("sweep", "Full scheme x benchmark matrix as raw run metrics", sweep),
        S::tool("loadlat", "Reply-network load-latency curves (baseline vs EquiNox)", loadlat),
        S::tool("observe", "Instrumented EquiNox run: equinox.obs/v3 block + Chrome trace", observe),
        S::tool("designer", "Search and export an EquiNox design", designer),
        S::tool("fabric", "Synthetic-traffic stress run on any topology (--topology/--traffic)", fabric),
        S {
            reads_stream: true,
            ..S::tool("watch", "Attach to an --obs-stream telemetry feed and render a live dashboard", watch)
        },
        S::tool("all", "Every paper table and figure in sequence", all),
    ];
    SCENARIOS
}

/// Looks a scenario up by name.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    scenarios().iter().find(|s| s.name == name)
}

/// The paper's 8×8, 8-CB flagship design (Figure 7, §6.6, the ablations).
fn flagship(spec: &ExperimentSpec, log: &mut dyn Write) -> Arc<EquiNoxDesign> {
    design(8, 8, STRONG_ITERS, STRONG_SEED, spec, log)
}

macro_rules! out {
    ($log:expr) => { let _ = writeln!($log); };
    ($log:expr, $($t:tt)*) => { let _ = writeln!($log, $($t)*); };
}

fn header(log: &mut dyn Write, title: &str) {
    out!(log, "\n=== {title} ===");
}

fn table1(_spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Table 1: key simulation parameters");
    let rows = [
        ("Network size", "8x8 (12x12, 16x16 for scalability)"),
        ("Network routing", "Minimal adaptive (XY escape VC)"),
        ("Virtual channels", "2/port, 1 pkt (5 flits)/VC"),
        ("Allocator", "Separable input-first"),
        ("PE frequency", "1126 MHz"),
        ("L2 cache (LLC) per bank", "2 MB (modelled as hit probability)"),
        ("# of LLC banks", "8"),
        ("HBM bandwidth", "256 GB/s per stack"),
        ("Memory controllers", "8, FR-FCFS"),
        ("Link width", "128 bits"),
    ];
    let mut j = Json::obj();
    for (k, v) in rows {
        out!(log, "  {k:26} {v}");
        j = j.with(k, v);
    }
    Ok(j)
}

fn fig4(_spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Figure 4: placement heat maps (avg cycles per router; variance)");
    let placements: Vec<(&str, Placement)> = vec![
        ("Top", Placement::top(8, 8, 8)),
        ("Side", Placement::side(8, 8, 8)),
        ("Diagonal", Placement::diagonal(8, 8, 8)),
        ("Diamond", Placement::diamond(8, 8, 8)),
        ("N-Queen", best_nqueen_placement(8, 8, usize::MAX, 0)),
    ];
    let heats = equinox_exec::par_map(placements, |_, (name, p)| {
        (name, placement_heatmap(&p, 0.85, 8_000, 1))
    });
    let mut variances = Json::obj();
    let mut rows = Vec::new();
    for (name, h) in heats {
        rows.push((name, h.variance));
        variances = variances.with(name, h.variance);
        out!(log, "-- {name} (variance {:.2}) --\n{}", h.variance, h.render());
    }
    out!(log, "variance summary (paper: Top 16.4 >> Diamond 0.84 > N-Queen 0.54):");
    for (name, v) in rows {
        out!(log, "  {name:9} {v:8.2}");
    }
    Ok(Json::obj().with("variance", variances))
}

fn fig5(_spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Figure 5: N-Queen scoring policy");
    let sols = solutions(8);
    out!(log, "  8x8 N-Queen solutions: {} (paper: 92)", sols.len());
    let scorer = PlacementScorer::new(8, 8);
    let mut scores: Vec<u64> = sols
        .iter()
        .map(|s| scorer.penalty(&to_placement(8, s, None).cbs))
        .collect();
    scores.sort_unstable();
    let (best_p, median_p, worst_p) =
        (scores[0], scores[scores.len() / 2], scores[scores.len() - 1]);
    out!(log, "  penalty scores: best {best_p} / median {median_p} / worst {worst_p}");
    let best = best_nqueen_placement(8, 8, usize::MAX, 0);
    let chosen = scorer.penalty(&best.cbs);
    out!(log, "  chosen placement (penalty {chosen}):");
    let _ = write!(log, "{best}");
    Ok(Json::obj()
        .with("solutions", sols.len())
        .with(
            "penalty",
            Json::obj().with("best", best_p).with("median", median_p).with("worst", worst_p),
        )
        .with("chosen_penalty", chosen))
}

fn fig7(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Figure 7: MCTS-selected EIR design for 8x8");
    let d = flagship(spec, log);
    let _ = write!(log, "{}", d.render());
    let problem = EirProblem::new(d.placement.clone());
    let ev = evaluate(&problem, &d.selection, &EvalWeights::default());
    let segs = d.segments();
    let wire_mm = problem.wire.total_length_mm(&segs);
    out!(
        log,
        "  links {} | crossings {} (paper: 0) | RDL layers {} (paper: 1) | total wire {:.1} mm",
        d.num_links(),
        count_crossings(&segs),
        d.rdl_layers(),
        wire_mm,
    );
    let hops: Vec<u32> = segs.iter().map(|s| s.hop_length()).collect();
    let (hop_min, hop_max) = (*hops.iter().min().unwrap(), *hops.iter().max().unwrap());
    out!(log, "  EIR hop distances: min {hop_min} max {hop_max} (paper: all exactly 2)");
    out!(
        log,
        "  eval: load {:.3} | hops {:.2} ({:.0}% of no-EIR) | cost {:.3}",
        ev.max_load_norm,
        ev.avg_hops,
        ev.avg_hops_norm * 100.0,
        ev.cost
    );
    Ok(Json::obj()
        .with("links", d.num_links())
        .with("crossings", count_crossings(&segs) as u64)
        .with("rdl_layers", d.rdl_layers() as u64)
        .with("wire_mm", wire_mm)
        .with("hops", Json::obj().with("min", hop_min).with("max", hop_max))
        .with(
            "eval",
            Json::obj()
                .with("max_load_norm", ev.max_load_norm)
                .with("avg_hops", ev.avg_hops)
                .with("avg_hops_norm", ev.avg_hops_norm)
                .with("cost", ev.cost),
        ))
}

/// Renders one normalized table to the log and returns it as JSON:
/// per-benchmark normalized values per scheme, plus per-scheme geomeans.
fn table_json(
    log: &mut dyn Write,
    title: &str,
    benches: &[&str],
    all_runs: &[RunMetrics],
    f: impl Fn(&RunMetrics) -> f64,
) -> Json {
    header(log, title);
    let _ = write!(log, "{:18}", "benchmark");
    for s in SchemeKind::ALL {
        let _ = write!(log, "{:>18}", s.name());
    }
    out!(log);
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); 7];
    let mut rows = Json::obj();
    for (bench, runs) in benches.iter().zip(all_runs.chunks(SchemeKind::ALL.len())) {
        let base = f(&runs[0]);
        let _ = write!(log, "{bench:18}");
        let mut row = Vec::new();
        for (i, m) in runs.iter().enumerate() {
            let v = f(m) / base;
            per_scheme[i].push(v);
            row.push(Json::Num(v));
            let _ = write!(log, "{:>18.3}", v);
        }
        rows = rows.with(bench, row);
        out!(log);
    }
    let _ = write!(log, "{:18}", "geomean");
    let mut geo = Json::obj();
    for (s, vals) in SchemeKind::ALL.into_iter().zip(&per_scheme) {
        let g = equinox_core::metrics::geomean(vals);
        geo = geo.with(s.name(), g);
        let _ = write!(log, "{:>18.3}", g);
    }
    out!(log, "  (normalized to SingleBase)");
    Json::obj().with("normalized", rows).with("geomean", geo)
}

fn fig9(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    let benches = bench_set(spec);
    // Simulate once (each scheme × benchmark cell in parallel); derive
    // all three tables from the same runs.
    let all_runs = run_cells(matrix_cells(&SchemeKind::ALL, 8, &benches, spec), log)?;
    let time = table_json(
        log,
        "Figure 9(a): normalized execution time (paper geomeans: EquiNox 0.523, CMesh 0.621)",
        &benches,
        &all_runs,
        |m| m.exec_ns,
    );
    let energy = table_json(
        log,
        "Figure 9(b): normalized NoC energy (paper: EquiNox 0.850 of SingleBase)",
        &benches,
        &all_runs,
        |m| m.energy_j(),
    );
    let edp = table_json(
        log,
        "Figure 9(c): normalized EDP (paper: EquiNox 0.450 of SingleBase)",
        &benches,
        &all_runs,
        |m| m.edp,
    );
    Ok(Json::obj()
        .with("benches", benches.iter().map(|&b| Json::from(b)).collect::<Vec<_>>())
        .with("exec_time", time)
        .with("energy", energy)
        .with("edp", edp))
}

fn fig10(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Figure 10: packet latency split, ns (geomean over quick subset)");
    out!(
        log,
        "{:18}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "scheme", "req_queue", "req_net", "rep_queue", "rep_net", "total"
    );
    let runs = run_cells(matrix_cells(&SchemeKind::ALL, 8, &crate::QUICK_BENCHES, spec), log)?;
    let mut j = Json::obj();
    for (si, scheme) in SchemeKind::ALL.into_iter().enumerate() {
        let mut qs = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for row in runs.chunks(SchemeKind::ALL.len()) {
            let m = &row[si];
            qs[0].push(m.latency.req_queue_ns.max(0.01));
            qs[1].push(m.latency.req_net_ns.max(0.01));
            qs[2].push(m.latency.rep_queue_ns.max(0.01));
            qs[3].push(m.latency.rep_net_ns.max(0.01));
        }
        let g: Vec<f64> = qs.iter().map(|v| equinox_core::metrics::geomean(v)).collect();
        out!(
            log,
            "{:18}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>10.1}",
            scheme.name(),
            g[0],
            g[1],
            g[2],
            g[3],
            g.iter().sum::<f64>()
        );
        j = j.with(
            scheme.name(),
            Json::obj()
                .with("req_queue_ns", g[0])
                .with("req_net_ns", g[1])
                .with("rep_queue_ns", g[2])
                .with("rep_net_ns", g[3])
                .with("total_ns", g.iter().sum::<f64>()),
        );
    }
    out!(log, "(paper: request latency >> reply latency — reply-injection backpressure)");
    Ok(j)
}

fn fig11(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Figure 11: NoC area, mm^2 (relative; paper: EquiNox +4.6% vs SeparateBase)");
    // Area is load-independent, so a tiny fixed workload suffices.
    let mut area_spec = spec.clone();
    area_spec.scale = 0.02;
    area_spec.seeds = vec![1];
    let runs = run_cells(matrix_cells(&SchemeKind::ALL, 8, &["gaussian"], &area_spec), log)?;
    let (single, separate) = (runs[0].area_mm2, runs[3].area_mm2);
    let mut j = Json::obj();
    for m in &runs {
        let a = m.area_mm2;
        out!(
            log,
            "  {:18} {a:8.2} mm^2   ({:.2}x SingleBase, {:+.1}% vs SeparateBase)",
            m.scheme.name(),
            a / single,
            (a / separate - 1.0) * 100.0
        );
        j = j.with(m.scheme.name(), a);
    }
    Ok(Json::obj().with("area_mm2", j))
}

fn fig12(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Figure 12: scalability — EquiNox IPC vs SeparateBase (paper: 1.23x/1.31x/1.30x)");
    let sizes = [8u16, 12, 16];
    let pair = [SchemeKind::SeparateBase, SchemeKind::EquiNox];
    let cells = sizes.iter().flat_map(|&n| matrix_cells(&pair, n, &["kmeans"], spec)).collect();
    let runs = run_cells(cells, log)?;
    let mut j = Json::obj();
    for (i, &n) in sizes.iter().enumerate() {
        let (s, e) = (&runs[2 * i], &runs[2 * i + 1]);
        out!(
            log,
            "  {n:2}x{n:<2}  SeparateBase IPC {:6.2}  EquiNox IPC {:6.2}  speedup {:.2}x",
            s.ipc,
            e.ipc,
            e.ipc / s.ipc
        );
        j = j.with(
            &format!("{n}x{n}"),
            Json::obj()
                .with("separate_base_ipc", s.ipc)
                .with("equinox_ipc", e.ipc)
                .with("speedup", e.ipc / s.ipc),
        );
    }
    Ok(j)
}

fn ubumps(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Section 6.6: ubump accounting");
    let m = BumpModel::default();
    let cmesh = m.bump_count(2 * 64, 256, 1);
    let d = flagship(spec, log);
    let equinox = d.ubump_count(128);
    let saving = equinox_phys::bumps::saving_fraction(equinox as f64, cmesh as f64);
    out!(
        log,
        "  Interposer-CMesh: 128 uni links x 256b x 1 bump  = {cmesh} ubumps ({:.2} mm^2)",
        m.bump_area_mm2(cmesh)
    );
    out!(
        log,
        "  EquiNox: {} uni links x 128b x 2 bumps           = {equinox} ubumps ({:.2} mm^2)",
        d.num_links(),
        m.bump_area_mm2(equinox)
    );
    out!(log, "  saving: {:.2}% (paper: 81.25% with 24 links)", saving * 100.0);
    Ok(Json::obj()
        .with("cmesh_ubumps", cmesh as u64)
        .with("equinox_ubumps", equinox as u64)
        .with("saving_fraction", saving))
}

fn ablation(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Ablation A: search method quality (same evaluation function)");
    let placement = flagship(spec, log).placement.clone();
    let problem = EirProblem::new(placement.clone());
    let mcts = search(
        &problem,
        &MctsConfig { iterations: 2_000, seed: 7, ..Default::default() },
    );
    let ga_r = ga::search(
        &problem,
        &ga::GaConfig { population: 32, generations: 80, seed: 7, ..Default::default() },
    );
    let sa_r = sa::search(
        &problem,
        &sa::SaConfig { steps: 2_600, seed: 7, ..Default::default() },
    );
    let mut methods = Json::obj();
    for (name, r) in [("MCTS", &mcts), ("GA", &ga_r), ("SA", &sa_r)] {
        out!(
            log,
            "  {name:5} cost {:8.4}  crossings {:2}  links {:2}  evaluations {}",
            r.eval.cost,
            r.eval.crossings,
            r.selection.total_eirs(),
            r.evaluations
        );
        methods = methods.with(
            name,
            Json::obj()
                .with("cost", r.eval.cost)
                .with("crossings", r.eval.crossings as u64)
                .with("links", r.selection.total_eirs())
                .with("evaluations", r.evaluations as u64),
        );
    }

    // B–D each search variant designs; their kmeans runs are one batch
    // of cells, reported section by section below.
    let variant = |p: EirProblem, iterations: usize| {
        let r = search(&p, &MctsConfig { iterations, seed: 7, ..Default::default() });
        let d = EquiNoxDesign { placement: p.placement, selection: r.selection };
        (r.eval, Arc::new(d))
    };
    let hops = [2u32, 3, 4];
    let sizes = [1usize, 2, 4, 6];
    let placed = [("N-Queen", placement.clone()), ("Diamond", Placement::diamond(8, 8, 8))];
    let base = || EirProblem::new(placement.clone());
    let mut variants = Vec::new();
    variants.extend(hops.map(|h| variant(EirProblem { max_hops: h, ..base() }, 2_000)));
    variants.extend(sizes.map(|k| variant(EirProblem { group_size: k, ..base() }, 1_500)));
    variants.extend(placed.iter().map(|(_, p)| variant(EirProblem::new(p.clone()), 2_000)));
    let cells = variants
        .iter()
        .map(|(_, d)| Cell {
            design: Some(d.clone()),
            ..Cell::new(SchemeKind::EquiNox, 8, "kmeans", spec)
        })
        .collect();
    let cycles = run_cells(cells, log)?.into_iter().map(|m| m.cycles);
    let rows: Vec<_> = variants.iter().zip(cycles).collect();
    let (hop_rows, rest) = rows.split_at(hops.len());
    let (size_rows, placed_rows) = rest.split_at(sizes.len());

    header(log, "Ablation B: EIR hop budget (paper: 2 hops suffice)");
    let mut hop_budget = Json::obj();
    for (max_hops, &((eval, _), cycles)) in hops.iter().zip(hop_rows) {
        out!(
            log,
            "  max_hops {max_hops}: cost {:.3} crossings {} -> exec {cycles} cycles",
            eval.cost, eval.crossings
        );
        hop_budget = hop_budget.with(
            &max_hops.to_string(),
            Json::obj()
                .with("cost", eval.cost)
                .with("crossings", eval.crossings as u64)
                .with("cycles", cycles),
        );
    }

    header(log, "Ablation C: EIRs per group (paper balances number vs. capability)");
    let mut group_size = Json::obj();
    for (k, &((eval, d), cycles)) in sizes.iter().zip(size_rows) {
        out!(
            log,
            "  group_size {k}: links {:2} load {:.3} -> exec {cycles} cycles",
            d.num_links(),
            eval.max_load_norm
        );
        group_size = group_size.with(
            &k.to_string(),
            Json::obj()
                .with("links", d.num_links())
                .with("max_load_norm", eval.max_load_norm)
                .with("cycles", cycles),
        );
    }

    header(log, "Ablation D: CB placement under EIRs (N-Queen vs Diamond)");
    let mut placements = Json::obj();
    for ((name, _), &((eval, d), cycles)) in placed.iter().zip(placed_rows) {
        let penalty = PlacementScorer::new(8, 8).penalty(&d.placement.cbs);
        out!(
            log,
            "  {name:8} crossings {:2} RDL layers {} -> exec {cycles} cycles (penalty {penalty})",
            eval.crossings,
            d.rdl_layers()
        );
        placements = placements.with(
            name,
            Json::obj()
                .with("crossings", eval.crossings as u64)
                .with("rdl_layers", d.rdl_layers() as u64)
                .with("cycles", cycles)
                .with("penalty", penalty),
        );
    }
    Ok(Json::obj()
        .with("search_methods", methods)
        .with("hop_budget", hop_budget)
        .with("group_size", group_size)
        .with("placement", placements))
}

/// §6.8: more CBs than rows — knight-move placement + EIRs.
fn overfull(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Section 6.8: 12 cache banks on an 8x8 mesh (knight-move placement)");
    let d = design(8, 12, 1_500, 7, spec, log);
    out!(log, "{}", d.render());
    out!(
        log,
        "  attacking CB pairs {} | links {} | crossings {} | RDL layers {}",
        equinox_placement::knight::attacking_pairs(&d.placement),
        d.num_links(),
        count_crossings(&d.segments()),
        d.rdl_layers()
    );
    let mut j = Json::obj()
        .with("links", d.num_links())
        .with("crossings", count_crossings(&d.segments()) as u64)
        .with("rdl_layers", d.rdl_layers() as u64);
    let mut over = spec.clone();
    over.n_cbs = 12;
    over.seeds.truncate(1);
    let cells = vec![
        Cell {
            placement: Some(d.placement.clone()),
            ..Cell::new(SchemeKind::SeparateBase, 8, "kmeans", &over)
        },
        Cell { design: Some(d), ..Cell::new(SchemeKind::EquiNox, 8, "kmeans", &over) },
    ];
    for m in run_cells(cells, log)? {
        out!(log, "  {:14} {:>7} cycles | EDP {:.2e}", m.scheme.name(), m.cycles, m.edp);
        j = j.with(
            m.scheme.name(),
            Json::obj().with("cycles", m.cycles).with("edp", m.edp),
        );
    }
    Ok(j)
}

/// Extensions: reply compression (§7 \[47\], orthogonal) and router
/// pipeline depth sensitivity.
fn extensions(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    let compressions = [
        (SchemeKind::SeparateBase, 0.0),
        (SchemeKind::SeparateBase, 0.6),
        (SchemeKind::EquiNox, 0.0),
        (SchemeKind::EquiNox, 0.6),
    ];
    let depths = [0u32, 1, 2];
    // One seed, one knob moved per cell; all ten runs are one batch.
    let cell = |scheme, set: &dyn Fn(&mut ExperimentSpec)| {
        let mut s = spec.clone();
        s.seeds.truncate(1);
        set(&mut s);
        Cell::new(scheme, 8, "kmeans", &s)
    };
    let mut cells: Vec<Cell> = compressions
        .iter()
        .map(|&(scheme, comp)| cell(scheme, &|s| s.reply_compression = comp))
        .collect();
    for extra in depths {
        for scheme in [SchemeKind::SeparateBase, SchemeKind::EquiNox] {
            cells.push(cell(scheme, &|s| s.pipeline_extra = extra));
        }
    }
    let runs = run_cells(cells, log)?;
    let (comp_runs, depth_runs) = runs.split_at(compressions.len());

    header(log, "Extension: reply compression is complementary to EquiNox (§7)");
    let mut compression = Vec::new();
    for ((scheme, comp), m) in compressions.into_iter().zip(comp_runs) {
        out!(
            log,
            "  {:14} compression {:.0}% -> {:>7} cycles, EDP {:.2e}",
            scheme.name(),
            comp * 100.0,
            m.cycles,
            m.edp
        );
        compression.push(
            Json::obj()
                .with("scheme", scheme.name())
                .with("compression", comp)
                .with("cycles", m.cycles)
                .with("edp", m.edp),
        );
    }

    header(log, "Extension: router pipeline depth sensitivity");
    let mut pipeline = Vec::new();
    for (extra, pair) in depths.into_iter().zip(depth_runs.chunks(2)) {
        let (base, eq) = (&pair[0], &pair[1]);
        out!(
            log,
            "  +{extra} stages: SeparateBase {:>7} cycles | EquiNox {:>7} cycles | speedup {:.2}x",
            base.cycles,
            eq.cycles,
            base.cycles as f64 / eq.cycles as f64
        );
        pipeline.push(
            Json::obj()
                .with("extra_stages", extra)
                .with("separate_base_cycles", base.cycles)
                .with("equinox_cycles", eq.cycles)
                .with("speedup", base.cycles as f64 / eq.cycles as f64),
        );
    }
    Ok(Json::obj().with("compression", compression).with("pipeline_depth", pipeline))
}

/// Writes the SVG artifacts (Figure 7 wiring diagram, Figure 4 heat
/// maps) into docs/.
fn svg(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "SVG artifacts -> docs/");
    std::fs::create_dir_all("docs").map_err(|e| format!("docs: cannot create the directory: {e}"))?;
    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| format!("{path}: cannot write: {e}"))
    };
    let d = flagship(spec, log);
    write("docs/fig7_design.svg", design_svg(&d))?;
    out!(log, "  docs/fig7_design.svg");
    let mut written = vec![Json::from("docs/fig7_design.svg")];
    for (name, p) in [
        ("top", Placement::top(8, 8, 8)),
        ("diamond", Placement::diamond(8, 8, 8)),
        ("nqueen", best_nqueen_placement(8, 8, usize::MAX, 0)),
    ] {
        let h = placement_heatmap(&p, 0.85, 8_000, 1);
        let path = format!("docs/fig4_{name}.svg");
        write(&path, heatmap_svg(&h, &p.cbs))?;
        out!(log, "  {path} (variance {:.2})", h.variance);
        written.push(Json::from(path));
    }
    Ok(Json::obj().with("written", written))
}

/// Full scheme × benchmark matrix emitted as raw per-run metrics — the
/// machine-readable counterpart of fig9/fig10's derived tables.
fn sweep(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    let benches = bench_set(spec);
    out!(
        log,
        "sweeping {} schemes x {} benchmarks x {} seeds (mesh {}x{})…",
        SchemeKind::ALL.len(),
        benches.len(),
        spec.seeds.len(),
        spec.n,
        spec.n
    );
    let cells = run_cells(matrix_cells(&SchemeKind::ALL, spec.n, &benches, spec), log)?;
    let runs: Vec<Json> = cells
        .chunks(SchemeKind::ALL.len())
        .map(|row| Json::Arr(row.iter().map(run_metrics_json).collect()))
        .collect();
    out!(log, "done: {} cells", cells.len());
    Ok(Json::obj()
        .with("benches", benches.iter().map(|&b| Json::from(b)).collect::<Vec<_>>())
        .with(
            "schemes",
            SchemeKind::ALL.iter().map(|s| Json::from(s.name())).collect::<Vec<_>>(),
        )
        .with("runs", runs))
}

/// Reply-network load–latency curves: local-buffer baseline vs the
/// EquiNox injection structure.
fn loadlat(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    Cell::new(SchemeKind::EquiNox, spec.n, "kmeans", spec).check()?;
    let design = design(spec.n, spec.n_cbs, spec.iters, spec.seed, spec, log);
    let rates: Vec<f64> = (1..=20).map(|i| i as f64 / 20.0).collect();
    let curve = |side: &ReplySide| {
        load_latency_curve_cfg(
            &design.placement,
            side,
            &rates,
            spec.cycles,
            spec.seeds[0],
            SystemConfig::audit_from_spec(spec),
            spec.activity_gate,
        )
    };
    let base = curve(&ReplySide::Local);
    let eq = curve(&ReplySide::Equinox((*design).clone()));
    out!(log, "measured {} rates x 2 sides over {} cycles", rates.len(), spec.cycles);
    Ok(Json::obj()
        .with("links", design.num_links())
        .with("baseline", base.iter().map(load_point_json).collect::<Vec<_>>())
        .with("equinox", eq.iter().map(load_point_json).collect::<Vec<_>>()))
}

/// Searches an EquiNox design per the spec and returns it in both the
/// stable text format (`design_text`, reload with
/// `EquiNoxDesign::from_text`) and as an SVG wiring diagram (`svg`).
fn designer(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    Cell::new(SchemeKind::EquiNox, spec.n, "kmeans", spec).check()?;
    let design = design(spec.n, spec.n_cbs, spec.iters, spec.seed, spec, log);
    out!(log, "{}", design.render());
    let crossings = count_crossings(&design.segments());
    out!(
        log,
        "links {} | crossings {} | RDL layers {} | ubumps {}",
        design.num_links(),
        crossings,
        design.rdl_layers(),
        design.ubump_count(128)
    );
    Ok(Json::obj()
        .with("links", design.num_links())
        .with("crossings", crossings as u64)
        .with("rdl_layers", design.rdl_layers() as u64)
        .with("ubumps", design.ubump_count(128) as u64)
        .with("design_text", design.to_text())
        .with("svg", design_svg(&design)))
}

/// Instrumented EquiNox run: the obs block plus the Chrome trace.
fn observe(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    header(log, "Observability: latency histograms, time series, spans, flit trace");
    // The scenario exists to exercise the observability layer, so it is
    // armed even when the spec left `--obs` off; the spec's
    // `--obs-interval` / `--trace` still apply.
    let mut armed = spec.clone();
    armed.obs = true;
    let cell = Cell::new(SchemeKind::EquiNox, 8, "bfs", &armed);
    cell.check()?;
    let mut sys = System::build(cell.system_config(spec.seeds[0], log));
    let m = sys.run();
    out!(
        log,
        "  EquiNox/bfs: {} cycles, {} packets delivered",
        m.cycles,
        sys.tracker.delivered()
    );
    let _ = log.write_all(sys.obs_summary().as_bytes());
    let obs = sys.obs_json().expect("observe arms the obs layer");
    for (i, net) in obs.get("nets").and_then(Json::as_arr).unwrap_or_default().iter().enumerate() {
        let variance = net.get("variance").and_then(Json::as_f64).unwrap_or_default();
        out!(log, "  net{i} heat variance {variance:.3}");
    }
    let mut j = Json::obj().with("metrics", run_metrics_json(&m)).with("obs", obs);
    if let Some((lines, errors)) = sys.obs_stream_stats() {
        out!(log, "  stream: {lines} frames written, {errors} write errors");
    }
    // The Chrome export drains the flit rings, so it comes last. It is
    // always assembled (spans alone make a useful timeline); the file is
    // only written when the spec names a destination.
    let doc = sys.export_chrome_trace();
    let events = doc.matches("\"ph\": ").count();
    out!(log, "  chrome trace: {events} events");
    j = j.with("trace_events", events as u64);
    if !spec.trace_out.is_empty() {
        std::fs::write(&spec.trace_out, &doc)
            .map_err(|e| format!("--trace-out {}: cannot write the trace: {e}", spec.trace_out))?;
        out!(log, "  wrote {}", spec.trace_out);
        j = j.with("trace_out", spec.trace_out.as_str());
    }
    Ok(j)
}

/// Synthetic-traffic stress run on an arbitrary fabric: builds a bare
/// network from the spec's `--topology` / `--n`, drives the spec's
/// `--traffic` pattern at `--scale` (at most one) packets per node per
/// cycle for `--cycles` cycles and drains to quiescence. With `--audit`
/// the invariant auditor sweeps the whole run, so this is the
/// deadlock-freedom gauntlet for new topologies.
fn fabric(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    use equinox_core::{MemOpKind, PacketTracker};
    use equinox_exec::Rng;
    use equinox_noc::flit::{MessageClass, PacketDesc};
    use equinox_noc::network::Network;
    use equinox_noc::{NocConfig, TopologyKind};
    use equinox_traffic::SyntheticPattern;

    // `scale` is a chance per node and cycle here, so a value over 1
    // would run as 1 and be recorded as an offered load it never was.
    // The field's own bound (> 0) also serves the workload quota, which
    // may exceed 1.
    if spec.scale > 1.0 {
        return Err(format!(
            "scale = {}: --scale is each node's chance to inject a packet in a cycle, at most 1",
            spec.scale
        ));
    }
    // The spec layer validated both names; failure here means the spec
    // and noc/traffic registries drifted apart.
    let topo = TopologyKind::parse(&spec.topology).expect("spec-validated topology");
    let pattern = SyntheticPattern::parse(&spec.traffic).expect("spec-validated traffic");
    header(
        log,
        &format!("Fabric stress: {} {}x{}, {} traffic", topo.name(), spec.n, spec.n, pattern.name()),
    );

    let mut cfg = NocConfig::fabric(topo, spec.n);
    cfg.pipeline_extra = spec.pipeline_extra;
    cfg.activity_gate = spec.activity_gate;
    let mut net = Network::new(cfg);
    if let Some(a) = SystemConfig::audit_from_spec(spec) {
        net.enable_audit(a);
    }
    let (w, h) = (net.width(), net.height());
    let nodes: Vec<Coord> = (0..h).flat_map(|y| (0..w).map(move |x| Coord::new(x, y))).collect();
    let offered = spec.scale;
    let cycles = spec.cycles;
    let mut rng = Rng::seed_from_u64(spec.seed);
    let len = 5u16;
    // Per node, the packet it is streaming and the index of its next
    // flit; per packet, only a tracker row while it is live.
    let mut pending: Vec<Option<(PacketDesc, u16)>> = vec![None; nodes.len()];
    let mut tracker = PacketTracker::new();
    let mut delivered = 0u64;
    let mut latency_sum = 0u64;

    let mut t = 0u64;
    // Measured window, then a drain with injection stopped, for at most a
    // fixed budget; a healthy fabric needs a fraction of it.
    const DRAIN_BUDGET: u64 = 200_000;
    while t < cycles + DRAIN_BUDGET {
        for (i, &src) in nodes.iter().enumerate() {
            // New packets only inside the measured window; flits of a
            // packet already started keep streaming during the drain.
            if t < cycles
                && pending[i].is_none()
                && pattern.active(t, i)
                && rng.random::<f64>() < offered
            {
                if let Some(d) = pattern.dest(i, w, h, &mut rng) {
                    let dst = nodes[d];
                    let msg = tracker.create(src, dst, MessageClass::Reply, MemOpKind::Read, 0, t);
                    pending[i] = Some((PacketDesc::new(msg.id, src, dst, MessageClass::Reply, len), 0));
                }
            }
            if let Some((desc, next)) = &mut pending[i] {
                let inj = net.local_injector(src);
                if net.try_inject_flit(inj, desc.flit_at(*next, w)) {
                    if *next == 0 {
                        tracker.mark_injected(desc.id.0, t);
                    }
                    *next += 1;
                    if *next == len {
                        pending[i] = None;
                    }
                }
            }
        }
        net.step();
        // A tail popped right after the step at `t` ejected at `t`.
        net.drain_ejected(|_, _, f| {
            if f.seq + 1 == len {
                delivered += 1;
                latency_sum += tracker.mark_ejected(f.pkt.0, t);
            }
        });
        tracker.retire();
        t += 1;
        if t >= cycles && net.quiescent() && pending.iter().all(Option::is_none) {
            break;
        }
    }
    let pkt_id = tracker.len() as u64;
    let s = net.stats();
    if !net.quiescent() {
        return Err(format!(
            "{} flits still in the network after the drain budget of {DRAIN_BUDGET} cycles \
             with injection stopped",
            s.injected_flits - s.ejected_flits
        ));
    }

    let avg_lat = if delivered > 0 { latency_sum as f64 / delivered as f64 } else { 0.0 };
    let throughput = s.ejected_flits as f64 / t.max(1) as f64 / nodes.len() as f64;
    out!(log, "  offered {offered} pkt/node/cycle for {cycles} cycles (+{} drain)", t.saturating_sub(cycles));
    out!(log, "  delivered {delivered}/{pkt_id} packets, avg latency {avg_lat:.1} cycles");
    out!(log, "  throughput {throughput:.4} flits/node/cycle");
    if spec.audit {
        out!(log, "  audit: {} sweeps, {} violations", net.audit_sweeps(), net.audit_violations().len());
    }
    assert_eq!(delivered, pkt_id, "every injected packet must arrive");
    assert_eq!(s.injected_flits, s.ejected_flits);

    let mut j = Json::obj()
        .with("topology", topo.name())
        .with("traffic", pattern.name())
        .with("width", w)
        .with("height", h)
        .with("offered", offered)
        .with("cycles", cycles)
        .with("drain_cycles", t.saturating_sub(cycles))
        .with("packets", pkt_id)
        .with("avg_packet_latency", avg_lat)
        .with("throughput_flits_per_node_cycle", throughput)
        .with("injected_flits", s.injected_flits)
        .with("ejected_flits", s.ejected_flits);
    if spec.audit {
        j = j
            .with("audit_sweeps", net.audit_sweeps())
            .with("audit_violations", net.audit_violations().len() as u64);
    }
    Ok(j)
}

/// Attaches to the telemetry stream named by `--obs-stream` and renders
/// the live dashboard (see the `watch` module): it tails the file, live
/// or post-hoc.
fn watch(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    if spec.obs_stream.is_empty() {
        return Err("needs --obs-stream <path> naming the feed to attach to".into());
    }
    header(log, &format!("Watching telemetry stream {}", spec.obs_stream));
    let stats = crate::watch::watch_file(&spec.obs_stream, log)
        .map_err(|e| format!("--obs-stream {}: cannot read the feed: {e}", spec.obs_stream))?;
    out!(
        log,
        "  {} frames ({} samples) from {} runs, {} summarised, {} corrupt lines, last cycle {}",
        stats.frames,
        stats.samples,
        stats.runs.len(),
        stats.summaries(),
        stats.corrupt,
        stats.last_cycle
    );
    Ok(stats.to_json().with("target", spec.obs_stream.as_str()))
}

/// Every paper table and figure in sequence.
fn all(spec: &ExperimentSpec, log: &mut dyn Write) -> Result<Json, String> {
    let mut j = Json::obj();
    for s in scenarios().iter().filter(|s| s.in_all) {
        j = j.with(s.name, (s.run)(spec, &mut *log).map_err(|e| format!("{}: {e}", s.name))?);
    }
    Ok(j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = scenarios().iter().map(|s| s.name).collect();
        assert!(names.contains(&"all"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios().len(), "duplicate scenario name");
        for n in names {
            assert!(scenario(n).is_some());
        }
        assert!(scenario("nope").is_none());
    }

    #[test]
    fn table1_logs_and_returns_rows() {
        let mut log = Vec::new();
        let j = table1(&ExperimentSpec::default(), &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("Table 1"));
        assert_eq!(
            j.get("Link width").and_then(Json::as_str),
            Some("128 bits")
        );
    }

    #[test]
    fn spec_choice_lists_match_the_parsers() {
        // The spec layer validates names against its own static lists;
        // this pins them to the actual parsers so they cannot drift.
        for t in equinox_config::spec::TOPOLOGY_CHOICES {
            let k = equinox_noc::TopologyKind::parse(t).expect("spec topology parses");
            assert_eq!(k.name(), *t);
        }
        for p in equinox_config::spec::TRAFFIC_CHOICES {
            let k = equinox_traffic::SyntheticPattern::parse(p).expect("spec traffic parses");
            assert_eq!(k.name(), *p);
        }
        assert_eq!(
            equinox_config::spec::TRAFFIC_CHOICES.len(),
            equinox_traffic::SyntheticPattern::all().len(),
            "a pattern exists that the spec cannot name"
        );
    }

    #[test]
    fn spec_iters_limit_is_what_one_search_holds() {
        assert_eq!(equinox_config::ITERS_LIMIT, equinox_mcts::tree::ITERS_LIMIT);
    }

    /// Every topology × pattern combination runs the fabric scenario
    /// end-to-end under audit. Short window, small grid: this is a smoke matrix,
    /// the deep soaks live in the noc crate's property tests.
    #[test]
    fn fabric_scenario_runs_every_topology_and_pattern() {
        for topo in equinox_config::spec::TOPOLOGY_CHOICES {
            for traffic in equinox_config::spec::TRAFFIC_CHOICES {
                let mut spec = ExperimentSpec::default();
                spec.n = 4;
                spec.topology = topo.to_string();
                spec.traffic = traffic.to_string();
                spec.scale = 0.1;
                spec.cycles = 400;
                spec.audit = true;
                let mut log = Vec::new();
                let j = fabric(&spec, &mut log).unwrap();
                assert_eq!(j.get("topology").and_then(Json::as_str), Some(*topo));
                assert_eq!(j.get("traffic").and_then(Json::as_str), Some(*traffic));
                assert_eq!(j.get("audit_violations").and_then(Json::as_u64), Some(0));
                let inj = j.get("injected_flits").and_then(Json::as_u64).unwrap();
                assert!(inj > 0, "{topo}/{traffic} must move traffic");
            }
        }
    }
}
