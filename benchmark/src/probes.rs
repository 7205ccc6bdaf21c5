//! Layer probes: each crate timed on its own from the harness, around
//! its public calls. Only the traced run executes them. Timings are the
//! best of a few repetitions in wall seconds (a neighbour can only slow
//! a probe down; they carry no bound and are not calibrated); simulated
//! counts are taken from one deterministic execution and repeat exactly
//! for a given seed.

use crate::cells::{self, Cell, CellKind, Env, Mode, N, N_CBS};
use crate::names::{scheme_key, Metrics};
use crate::stats;
use equinox_config::Json;
use equinox_core::loadlat::{load_latency_curve_cfg, ReplySide};
use equinox_core::{SchemeKind, System};
use equinox_exec::Rng;
use equinox_noc::{AuditConfig, MessageClass, Network, NocConfig, PacketDesc, TopologyKind};
use equinox_phys::Coord;
use equinox_placement::Placement;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The paper's EquiNox-vs-SeparateBase execution-time ratio
/// (EXPERIMENTS.md: −23.5 % over the 29-benchmark geomean).
pub const PAPER_EXEC_RATIO: f64 = 0.765;

/// Seconds `f` takes.
fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The fastest of `reps` executions of `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| time(&mut f).1)
        .fold(f64::INFINITY, f64::min)
}

/// Runs every probe and records its metrics.
pub fn run_all(env: &Env, seed: u64, out_dir: &Path, m: &mut Metrics) {
    noc(seed, m);
    core(env, seed, m);
    fidelity(env, seed, m);
    hbm(seed, m);
    traffic(seed, m);
    design_pipeline(env, m);
    exec(env, seed, m);
    sweep_attribution(env, seed, m);
    codecs(env, out_dir, m);
    obs_and_power(env, seed, m);
}

/// Cycles per timing chunk of a bare-network drive.
const NOC_CHUNK: u64 = 250;

/// One fabric-style drive of a bare `Network`.
struct NocDrive {
    net: Network,
    /// Seconds inside `Network::step` per chunk of `NOC_CHUNK` cycles.
    chunk_step_s: Vec<f64>,
    inject_s: f64,
    inject_calls: u64,
}

impl NocDrive {
    /// ns per `step()` in the quietest chunk after the first quarter
    /// (the fill-up transient).
    fn step_ns(&self) -> f64 {
        let steady = &self.chunk_step_s[self.chunk_step_s.len() / 4..];
        stats::min(steady).expect("at least one steady chunk") * 1e9 / NOC_CHUNK as f64
    }

    fn step_total_s(&self) -> f64 {
        self.chunk_step_s.iter().sum()
    }
}

/// Drives uniform-random `len`-flit packets at `rate` packets per node
/// per cycle into a bare network for `cycles` cycles, draining every
/// ejection port each cycle — the `fabric` scenario's loop, with the
/// injection and `step()` phases timed apart.
fn drive_noc(
    cfg: NocConfig,
    audit: Option<AuditConfig>,
    rate: f64,
    len: u16,
    cycles: u64,
    seed: u64,
) -> NocDrive {
    use equinox_traffic::SyntheticPattern;
    let mut net = Network::new(cfg);
    if let Some(a) = audit {
        net.enable_audit(a);
    }
    let (w, h) = (net.width(), net.height());
    let nodes: Vec<Coord> = (0..h)
        .flat_map(|y| (0..w).map(move |x| Coord::new(x, y)))
        .collect();
    let injectors: Vec<_> = nodes.iter().map(|&c| net.local_injector(c)).collect();
    let mut rng = Rng::seed_from_u64(seed);
    // Per node: the packet being streamed and its next flit.
    let mut pending: Vec<Option<(PacketDesc, u16)>> = vec![None; nodes.len()];
    let mut next_id = 0u64;
    let mut d = NocDrive {
        net,
        chunk_step_s: Vec::new(),
        inject_s: 0.0,
        inject_calls: 0,
    };
    let mut chunk_s = 0.0;
    for t in 0..cycles {
        let t0 = Instant::now();
        for i in 0..nodes.len() {
            if pending[i].is_none() && rng.random::<f64>() < rate {
                if let Some(dst) = SyntheticPattern::Uniform.dest(i, w, h, &mut rng) {
                    pending[i] = Some((
                        PacketDesc::new(next_id, nodes[i], nodes[dst], MessageClass::Reply, len),
                        0,
                    ));
                    next_id += 1;
                }
            }
            if let Some((desc, seq)) = pending[i] {
                d.inject_calls += 1;
                if d.net.try_inject_flit(injectors[i], desc.flit_at(seq, w)) {
                    pending[i] = (seq + 1 < len).then_some((desc, seq + 1));
                }
            }
        }
        let t1 = Instant::now();
        d.net.step();
        let t2 = Instant::now();
        d.inject_s += (t1 - t0).as_secs_f64();
        chunk_s += (t2 - t1).as_secs_f64();
        if d.net.has_ejected() {
            for &node in &nodes {
                while d.net.pop_ejected_node(node).is_some() {}
            }
        }
        if (t + 1) % NOC_CHUNK == 0 {
            d.chunk_step_s.push(std::mem::take(&mut chunk_s));
        }
    }
    d
}

fn noc(seed: u64, m: &mut Metrics) {
    // Saturated: the per-flit router pipeline.
    let sat = drive_noc(NocConfig::mesh(N), None, 0.30, 5, 4_000, seed);
    let s = sat.net.stats();
    m.put("noc.step_ns.sat", sat.step_ns());
    m.put(
        "noc.flit_hops_per_s.sat",
        s.total_link_flits() as f64 / sat.step_total_s(),
    );
    m.put(
        "noc.inject_ns",
        sat.inject_s * 1e9 / sat.inject_calls as f64,
    );
    m.put("noc.flits_ejected.sat", s.ejected_flits as f64);
    m.put("noc.vc_allocs.sat", s.vc_allocs as f64);
    m.put("noc.xbar_traversals.sat", s.xbar_traversals as f64);
    m.put("noc.buffer_writes.sat", s.buffer_writes as f64);

    // Same drive under the default auditor (what `--audit` arms).
    let audited = drive_noc(
        NocConfig::mesh(N),
        Some(AuditConfig::default()),
        0.30,
        5,
        4_000,
        seed,
    );
    assert_eq!(
        audited.net.stats(),
        sat.net.stats(),
        "auditing changed the simulation"
    );
    m.put(
        "noc.audit_overhead_ratio",
        audited.step_ns() / sat.step_ns(),
    );

    // Snapshot codec on the loaded network.
    let mut bytes = 0usize;
    let secs = best_of(5, || {
        let mut e = equinox_snap::Enc::new();
        sat.net.snapshot_state(&mut e);
        bytes = e.len();
        black_box(e.into_bytes());
    });
    m.put("noc.snapshot_mb_per_s", bytes as f64 / 1e6 / secs);

    // Near idle, gate on: active-set bookkeeping.
    let idle = drive_noc(NocConfig::mesh(N), None, 0.01, 5, 40_000, seed);
    m.put("noc.step_ns.idle", idle.step_ns());

    // A DA2Mesh reply subnet: one VC, 16-bit links, long packets.
    let mut sub = NocConfig::mesh(N);
    sub.link_bits = 16;
    sub.vc_buf_flits = 40;
    sub.vcs_per_port = 1;
    let subnet = drive_noc(sub, None, 0.05, 36, 4_000, seed);
    m.put("noc.step_ns.subnet", subnet.step_ns());

    let ring = drive_noc(
        NocConfig::fabric(TopologyKind::Ring, N),
        None,
        0.05,
        5,
        4_000,
        seed,
    );
    m.put("noc.step_ns.ring", ring.step_ns());
}

fn core(env: &Env, seed: u64, m: &mut Metrics) {
    for scheme in [
        SchemeKind::SeparateBase,
        SchemeKind::Da2Mesh,
        SchemeKind::EquiNox,
    ] {
        let secs = best_of(5, || {
            black_box(System::build(
                env.system_config(scheme, "kmeans", 0.5, seed),
            ));
        });
        m.put(format!("core.build_ms.{}", scheme_key(scheme)), secs * 1e3);
    }

    for (name, equinox) in [("local", false), ("equinox", true)] {
        let (placement, side) = if equinox {
            (
                env.design.placement.clone(),
                ReplySide::Equinox(env.design.clone()),
            )
        } else {
            (Placement::diamond(N, N, N_CBS), ReplySide::Local)
        };
        let secs = best_of(2, || {
            black_box(load_latency_curve_cfg(
                &placement,
                &side,
                &[0.02],
                50_000,
                seed,
                None,
                env.spec.activity_gate,
            ));
        });
        m.put(format!("core.loadlat_point_ms.{name}"), secs * 1e3);
    }

    // Snapshot and restore of a loaded machine.
    let cfg = env.system_config(SchemeKind::SeparateBase, "kmeans", 0.5, seed);
    let mut sys = System::build(cfg.clone());
    for _ in 0..5_000 {
        sys.step();
    }
    let mut snap = Vec::new();
    let snap_s = best_of(5, || snap = sys.snapshot());
    let mut twin = System::build(cfg);
    let restore_s = best_of(5, || {
        twin.restore(&snap)
            .expect("a fresh snapshot restores into the same build")
    });
    assert_eq!(
        twin.snapshot(),
        snap,
        "snapshot → restore → snapshot drifted"
    );
    m.put("core.snapshot_ms", snap_s * 1e3);
    m.put("core.restore_ms", restore_s * 1e3);
    m.put("core.snapshot_kb", snap.len() as f64 / 1e3);
}

/// Fidelity beside speed: EquiNox over SeparateBase execution time,
/// geomean over the sweep's three benchmarks at the sweep's scale — a
/// three-benchmark subset, not the paper's 29-benchmark geomean.
fn fidelity(env: &Env, seed: u64, m: &mut Metrics) {
    let cycles = |scheme, bench| {
        let cell = Cell {
            label: String::new(),
            kind: CellKind::Sim {
                scheme,
                bench,
                scale: cells::SWEEP_SCALE,
                seed,
            },
        };
        env.run(&cell, Mode::Plain, None).sim_cycles as f64
    };
    let ratios: Vec<f64> = cells::SWEEP_BENCHES
        .iter()
        .map(|b| cycles(SchemeKind::EquiNox, b) / cycles(SchemeKind::SeparateBase, b))
        .collect();
    let ratio = equinox_core::metrics::geomean(&ratios);
    m.put("core.exec_ratio.equinox_vs_separatebase", ratio);
    m.put("core.exec_ratio.paper", PAPER_EXEC_RATIO);
    m.put(
        "core.exec_ratio.err_pct",
        (ratio / PAPER_EXEC_RATIO - 1.0) * 100.0,
    );
}

fn hbm(seed: u64, m: &mut Metrics) {
    use equinox_hbm::stack::{HbmStack, MemAccess};
    use equinox_hbm::HbmConfig;
    const CYCLES: u64 = 200_000;
    let run = || {
        let mut stack = HbmStack::new(HbmConfig::hbm2());
        let mut rng = Rng::seed_from_u64(seed);
        let (mut addr, mut id, mut rejects, mut done) = (0u64, 0u64, 0u64, 0u64);
        for now in 0..CYCLES {
            // One request every other cycle, streaming through lines
            // (consecutive lines rotate over the channels, so a row
            // fills a few hits at a time); one in 64 jumps elsewhere.
            if now % 2 == 0 {
                addr = if rng.random_range(0..64u32) == 0 {
                    rng.random_range(0..1u64 << 30) & !63
                } else {
                    addr + 64
                };
                match stack.enqueue(
                    MemAccess {
                        id,
                        addr,
                        write: id % 4 == 0,
                    },
                    now,
                ) {
                    Ok(()) => id += 1,
                    Err(_) => rejects += 1,
                }
            }
            stack.step(now);
            while stack.pop_completed().is_some() {
                done += 1;
            }
        }
        (stack.row_stats(), rejects, done)
    };
    let (mut secs, mut counts) = (f64::INFINITY, ((0, 0, 0), 0, 0));
    for _ in 0..3 {
        let (c, s) = time(run);
        (secs, counts) = (secs.min(s), c);
    }
    let ((hits, misses, conflicts), rejects, done) = counts;
    m.put("hbm.step_ns", secs * 1e9 / CYCLES as f64);
    m.put("hbm.requests_per_s", done as f64 / secs);
    m.put(
        "hbm.row_hit_frac",
        hits as f64 / (hits + misses + conflicts).max(1) as f64,
    );
    m.put("hbm.queue_full_rejects", rejects as f64);
}

fn traffic(seed: u64, m: &mut Metrics) {
    use equinox_traffic::{Pe, SyntheticPattern};
    const TICKS: u64 = 1_000_000;
    let profile =
        equinox_traffic::profile::benchmark("kmeans").expect("kmeans is a known benchmark");
    let secs = best_of(3, || {
        // A quota far past TICKS, and every op completes at once, so the
        // PE never blocks or retires: tick() alone is timed.
        let mut pe = Pe::new(profile, 0, 1e6, 48, seed);
        for _ in 0..TICKS {
            if black_box(pe.tick(true)).is_some() {
                pe.complete();
            }
        }
    });
    m.put("traffic.pe_tick_ns", secs * 1e9 / TICKS as f64);

    let secs = best_of(3, || {
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..TICKS as usize {
            black_box(SyntheticPattern::Uniform.dest(i % 64, N, N, &mut rng));
        }
    });
    m.put("traffic.pattern_dest_ns", secs * 1e9 / TICKS as f64);
}

/// The crates behind `setup_s`, each alone. (`mcts.*` come from the
/// traced setup's own `mcts.search` spans, see `main`.)
fn design_pipeline(env: &Env, m: &mut Metrics) {
    use equinox_placement::nqueen::{solutions, to_placement};
    use equinox_placement::PlacementScorer;
    let mut found = 0usize;
    let secs = best_of(5, || found = black_box(solutions(N)).len());
    m.put("placement.nqueen_solutions_per_s", found as f64 / secs);

    let scorer = PlacementScorer::new(N, N);
    let placements: Vec<_> = solutions(N)
        .iter()
        .map(|s| to_placement(N, s, None))
        .collect();
    let secs = best_of(5, || {
        for p in &placements {
            black_box(scorer.penalty(&p.cbs));
        }
    });
    m.put("placement.score_us", secs * 1e6 / placements.len() as f64);

    let segments = env.design.segments();
    let pairs = segments.len() * segments.len().saturating_sub(1) / 2;
    const REPS: usize = 2_000;
    let secs = best_of(3, || {
        for _ in 0..REPS {
            black_box(equinox_phys::segment::count_crossings(black_box(&segments)));
        }
    });
    m.put("phys.crossing_checks_per_s", (pairs * REPS) as f64 / secs);
}

fn exec(env: &Env, seed: u64, m: &mut Metrics) {
    const ROUNDS: usize = 20_000;
    let team = equinox_exec::StepTeam::new(2);
    let secs = best_of(3, || {
        for _ in 0..ROUNDS {
            team.run(2, &|i| {
                black_box(i);
            });
        }
    });
    drop(team);
    m.put("exec.team_round_ns.2l", secs * 1e9 / ROUNDS as f64);

    // The sweep's DA2Mesh kmeans cell with its nine networks on two lanes.
    let lane_s = |lanes: usize| {
        let mut spec = env.spec.clone();
        spec.sim_threads = lanes;
        let env = Env {
            spec: &spec,
            design: env.design,
        };
        let cell = &cells::sweep_kmeans_cells(seed)[da2mesh_index()];
        best_of(2, || {
            black_box(env.run(cell, Mode::Plain, None));
        })
    };
    m.put("exec.team_speedup.2l", lane_s(1) / lane_s(2));

    const DRAWS: u64 = 10_000_000;
    let secs = best_of(3, || {
        let mut rng = Rng::seed_from_u64(seed);
        let mut acc = 0u64;
        for _ in 0..DRAWS {
            acc ^= rng.next_u64();
        }
        black_box(acc);
    });
    m.put("exec.rng_ns_per_draw", secs * 1e9 / DRAWS as f64);
}

/// DA2Mesh's place among `SchemeKind::ALL`, hence among the sweep's
/// kmeans cells.
fn da2mesh_index() -> usize {
    SchemeKind::ALL
        .iter()
        .position(|s| *s == SchemeKind::Da2Mesh)
        .expect("DA2Mesh is a scheme")
}

/// Where `repro-sweep`'s time goes by scheme (its seven kmeans cells),
/// and what the worker pool makes of the same cells on two threads.
fn sweep_attribution(env: &Env, seed: u64, m: &mut Metrics) {
    let kmeans = cells::sweep_kmeans_cells(seed);
    let mut best = vec![f64::INFINITY; kmeans.len()];
    let mut da2_cycles = 0;
    for _ in 0..2 {
        for (i, cell) in kmeans.iter().enumerate() {
            let got = env.run(cell, Mode::Plain, None);
            best[i] = best[i].min(got.wall_s);
            if i == da2mesh_index() {
                da2_cycles = got.sim_cycles;
            }
        }
    }
    let serial: f64 = best.iter().sum();
    for (scheme, secs) in SchemeKind::ALL.iter().zip(&best) {
        m.put(format!("bench.cell_ms.{}", scheme_key(*scheme)), secs * 1e3);
    }
    m.put("bench.cell_share.da2mesh", best[da2mesh_index()] / serial);
    // Nine networks, eight of them 1-VC subnets stepped 2.5x per core
    // cycle: per-step fixed cost, not per-flit work (build and metrics
    // are under 1 % of the cell).
    m.put(
        "core.step_ns.da2mesh",
        best[da2mesh_index()] * 1e9 / da2_cycles as f64,
    );

    let pooled = best_of(2, || {
        black_box(equinox_exec::par_map_with(2, kmeans.clone(), |_, cell| {
            env.run(&cell, Mode::Plain, None)
        }));
    });
    m.put("exec.pool_speedup.2t", serial / pooled);
}

fn codecs(env: &Env, out_dir: &Path, m: &mut Metrics) {
    use equinox_snap::{CheckpointCache, Dec, Enc};
    const WORDS: usize = 1 << 20;
    let mb = (WORDS * 8) as f64 / 1e6;
    let mut bytes = Vec::new();
    let secs = best_of(3, || {
        let mut e = Enc::new();
        for i in 0..WORDS as u64 {
            e.put_u64(black_box(i));
        }
        bytes = e.into_bytes();
    });
    m.put("snap.encode_mb_per_s", mb / secs);
    let secs = best_of(3, || {
        let mut d = Dec::new(&bytes);
        let mut acc = 0u64;
        for _ in 0..WORDS {
            acc ^= d.u64().expect("decoding what was just encoded");
        }
        black_box(acc);
    });
    m.put("snap.decode_mb_per_s", mb / secs);
    let secs = best_of(3, || {
        black_box(equinox_snap::fnv1a(black_box(&bytes)));
    });
    m.put("snap.fnv1a_mb_per_s", mb / secs);

    // Content-addressed cache round trip of a 64 kB blob, inside the
    // benchmark's own output directory.
    const BLOBS: u64 = 32;
    let dir = out_dir.join(format!("cache-probe-{}", std::process::id()));
    let cache = CheckpointCache::new(&dir);
    let blob = &bytes[..64 * 1024];
    let store_s = best_of(2, || {
        for key in 0..BLOBS {
            cache
                .store("probe", key, blob)
                .expect("store into the benchmark's output directory");
        }
    });
    let load_s = best_of(2, || {
        for key in 0..BLOBS {
            black_box(cache.load("probe", key).expect("load what was stored"));
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    m.put("snap.cache_store_us", store_s * 1e6 / BLOBS as f64);
    m.put("snap.cache_load_us", load_s * 1e6 / BLOBS as f64);

    let doc = Json::Arr((0..200).map(|_| env.spec.to_json()).collect());
    let mut text = String::new();
    let emit_s = best_of(3, || text = doc.to_compact());
    let parse_s = best_of(2, || {
        black_box(equinox_config::parse_json(&text).expect("parsing what was just emitted"));
    });
    let mb = text.len() as f64 / 1e6;
    m.put("config.json_emit_mb_per_s", mb / emit_s);
    m.put("config.json_parse_mb_per_s", mb / parse_s);
}

fn obs_and_power(env: &Env, seed: u64, m: &mut Metrics) {
    // A sat-kmeans cell with the observability layer armed over the same
    // cell with it off: guards the "one branch when off" claim.
    let cell = &cells::cells("sat-kmeans", seed).expect("known workload")[0];
    let mut on = env.spec.clone();
    on.obs = true;
    let on_env = Env {
        spec: &on,
        design: env.design,
    };
    let (mut off_s, mut on_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        off_s = off_s.min(env.run(cell, Mode::Plain, None).wall_s);
        on_s = on_s.min(on_env.run(cell, Mode::Plain, None).wall_s);
    }
    m.put("obs.on_overhead_ratio", on_s / off_s);

    use equinox_power::{EnergyModel, EventCounts};
    const EVALS: u64 = 2_000_000;
    let model = EnergyModel::default();
    let secs = best_of(3, || {
        let mut acc = 0.0;
        for i in 0..EVALS {
            let ev = EventCounts {
                buffer_writes: i,
                buffer_reads: i,
                xbar_traversals: i,
                allocs: i / 5,
                mesh_flit_mm: i as f64 * 1.5,
                rdl_flit_mm: 0.0,
                flit_bits: 128,
                avg_ports: 5.0,
            };
            acc += model.dynamic_joules(black_box(&ev));
        }
        black_box(acc);
    });
    m.put("power.eval_ns", secs * 1e9 / EVALS as f64);
}
