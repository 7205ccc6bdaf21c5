//! Bit-exact goldens for the design search.
//!
//! The chosen design feeds every EquiNox figure, so a rewrite of the
//! search's hot loop must not move it: not the selection, not one bit of
//! its cost, not the number of evaluations spent (which counts the RNG
//! draws and refine moves on the way). `golden_search.txt` was generated
//! by the `Vec<Vec<Coord>>`-per-node tree and the allocate-per-call
//! evaluator that preceded the table-driven search; its last two lines,
//! a 4-hop search and a digest of the group sampler's draws, by the
//! sampler that keyed candidates with `powf` before integer-power keys.
//!
//! To regenerate after an *intentional* behavior change, run with
//! `EQUINOX_REGEN_GOLDEN=1 cargo test -p equinox-mcts --test golden_search`
//! and commit the new file alongside the change that justifies it.

use equinox_mcts::eval::EvalWeights;
use equinox_mcts::problem::EirProblem;
use equinox_mcts::tree::{MctsConfig, SearchResult};
use equinox_mcts::{ga, sa, tree};
use equinox_phys::Coord;
use equinox_placement::nqueen::{solutions_limited, to_placement};
use equinox_placement::select::best_nqueen_placement;
use equinox_placement::{Placement, PlacementScorer};
use std::fmt::Write as _;

/// The `k` best-scored 8×8 N-Queen placements, ranked exactly as
/// `EquiNoxDesign::search_k` ranks them (stable sort on the penalty).
fn top_placements(k: usize) -> Vec<Placement> {
    let scorer = PlacementScorer::new(8, 8);
    let mut scored: Vec<(u64, Placement)> = solutions_limited(8, usize::MAX)
        .iter()
        .map(|sol| {
            let p = to_placement(8, sol, None);
            (scorer.penalty(&p.cbs), p)
        })
        .collect();
    scored.sort_by_key(|(s, _)| *s);
    scored.into_iter().take(k).map(|(_, p)| p).collect()
}

fn line(out: &mut String, name: &str, p: &EirProblem, r: &SearchResult) {
    write!(
        out,
        "{name} cost={:016x} evals={} sel=",
        r.eval.cost.to_bits(),
        r.evaluations
    )
    .unwrap();
    for (i, g) in r.selection.groups.iter().enumerate() {
        let cb = p.placement.cbs[i];
        write!(out, "{}{},{}:", if i == 0 { "" } else { ";" }, cb.x, cb.y).unwrap();
        for (k, e) in g.iter().enumerate() {
            write!(out, "{}{},{}", if k == 0 { "" } else { " " }, e.x, e.y).unwrap();
        }
    }
    out.push('\n');
}

fn mcts(iterations: usize, seed: u64) -> MctsConfig {
    MctsConfig {
        iterations,
        seed,
        ..Default::default()
    }
}

fn all_lines() -> String {
    let mut out = String::new();
    // The flagship search: what `EquiNoxDesign::search(8, 8, 4000, 7)`
    // runs, one line per candidate placement.
    for (k, placement) in top_placements(8).into_iter().enumerate() {
        let p = EirProblem::new(placement);
        line(&mut out, &format!("top8/{k}"), &p, &tree::search(&p, &mcts(4000, 7)));
    }
    // `EquiNoxDesign::quick`.
    for (k, placement) in top_placements(2).into_iter().enumerate() {
        let p = EirProblem::new(placement);
        line(&mut out, &format!("quick/{k}"), &p, &tree::search(&p, &mcts(300, 0xEC0)));
    }

    let best8 = || best_nqueen_placement(8, 8, usize::MAX, 0);
    let p = EirProblem::new(best_nqueen_placement(12, 12, 500, 0));
    line(&mut out, "12x12", &p, &tree::search(&p, &mcts(1000, 7)));
    let p = EirProblem::new(best_nqueen_placement(8, 4, usize::MAX, 0));
    line(&mut out, "4cb", &p, &tree::search(&p, &mcts(1000, 7)));
    line(&mut out, "4cb/ga", &p, &ga::search(&p, &ga::GaConfig::default()));
    line(&mut out, "4cb/sa", &p, &sa::search(&p, &sa::SaConfig::default()));
    // More CBs than rows: the knight walk, where some candidate sets are
    // nearly empty and groups come out short.
    let p = EirProblem::new(best_nqueen_placement(8, 12, usize::MAX, 0));
    line(&mut out, "knight12", &p, &tree::search(&p, &mcts(400, 7)));
    let p = EirProblem {
        max_hops: 2,
        ..EirProblem::new(best8())
    };
    line(&mut out, "max_hops2", &p, &tree::search(&p, &mcts(1000, 7)));
    let p = EirProblem {
        group_size: 2,
        ..EirProblem::new(best8())
    };
    line(&mut out, "group_size2", &p, &tree::search(&p, &mcts(1000, 7)));

    let p = EirProblem::new(best8());
    for seed in 1..=4 {
        line(&mut out, &format!("seed{seed}"), &p, &tree::search(&p, &mcts(400, seed)));
    }
    let narrow = MctsConfig {
        branching: 5,
        exploration: 0.3,
        weights: EvalWeights {
            load: 1.0,
            hops: 1.0,
            crossings: 1.0,
            length: 1.0,
        },
        ..mcts(600, 11)
    };
    line(&mut out, "narrow-equal-weights", &p, &tree::search(&p, &narrow));
    line(&mut out, "ga-default", &p, &ga::search(&p, &ga::GaConfig::default()));
    line(&mut out, "sa-default", &p, &sa::search(&p, &sa::SaConfig::default()));
    // Four hops reach the 2x2 diagonals: the only candidates whose hop
    // excess over one is 3.
    let p = EirProblem {
        max_hops: 4,
        ..EirProblem::new(best8())
    };
    line(&mut out, "max_hops4", &p, &tree::search(&p, &mcts(1000, 7)));
    out.push_str(&draw_stream(&best8()));
    out
}

/// FNV-1a over the picks of `EirProblem::sample_group`, the sampler every
/// search draws its groups through: ≥ 100 000 calls on the flagship
/// N-Queen placement and on the diamond, at hop budgets 2–4 and group
/// sizes 1, 4 and 6, each for a random CB with about a quarter of the
/// tiles already in use, all drawn from one generator.
fn draw_stream(nqueen: &Placement) -> String {
    const CALLS_PER_PROBLEM: usize = 5_600;
    let mut rng = EirProblem::rng(0x5EED);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fnv = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut calls = 0;
    for placement in [nqueen.clone(), Placement::diamond(8, 8, 8)] {
        for max_hops in 2..=4 {
            for group_size in [1, 4, 6] {
                let p = EirProblem {
                    max_hops,
                    group_size,
                    ..EirProblem::new(placement.clone())
                };
                for _ in 0..CALLS_PER_PROBLEM {
                    let cb = rng.random_range(0..p.placement.cbs.len());
                    let in_use = rng.random::<u64>() & rng.random::<u64>();
                    let used: Vec<Coord> =
                        (0..64).filter(|k| in_use >> k & 1 == 1).map(|k| Coord::from_index(k, 8)).collect();
                    for e in p.sample_group(cb, &used, &mut rng) {
                        fnv(&e.x.to_le_bytes());
                        fnv(&e.y.to_le_bytes());
                    }
                    fnv(&[0xff]);
                    calls += 1;
                }
            }
        }
    }
    format!("draws calls={calls} digest={hash:016x}\n")
}

#[test]
fn searches_match_golden() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_search.txt");
    let actual = all_lines();
    if std::env::var("EQUINOX_REGEN_GOLDEN").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden_search.txt missing; regenerate with EQUINOX_REGEN_GOLDEN=1");
    for (g, a) in golden.lines().zip(actual.lines()) {
        assert_eq!(g, a, "search result drifted from the stored golden");
    }
    assert_eq!(golden.lines().count(), actual.lines().count());
}
