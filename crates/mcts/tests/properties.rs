//! Randomized (seeded, deterministic) tests for the EIR search: every
//! selection any search method produces satisfies the §3.2 constraints,
//! and the evaluation function behaves like a cost.

use equinox_mcts::eval::{evaluate, EvalWeights};
use equinox_mcts::problem::{octant, EirProblem};
use equinox_mcts::{ga, sa, tree};
use equinox_placement::select::best_nqueen_placement;

fn problem() -> EirProblem {
    EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0))
}

fn check_selection(p: &EirProblem, sel: &equinox_mcts::problem::EirSelection) {
    assert_eq!(sel.groups.len(), p.placement.cbs.len());
    assert!(sel.is_exclusive(&p.placement));
    for (i, g) in sel.groups.iter().enumerate() {
        let cb = p.placement.cbs[i];
        let mut octs: Vec<_> = g.iter().map(|&e| octant(cb, e)).collect();
        octs.sort_by_key(|o| *o as u8);
        let before = octs.len();
        octs.dedup();
        assert_eq!(octs.len(), before, "octant reuse in group {i}");
        for &e in g {
            let d = cb.manhattan(e);
            assert!(d >= 2 && d <= p.max_hops, "EIR at {d} hops");
            assert!(cb.chebyshev(e) >= 2, "EIR inside own hot zone");
        }
    }
}

#[test]
fn random_completions_are_valid() {
    let p = problem();
    for seed in (0u64..5000).step_by(419) {
        let mut rng = EirProblem::rng(seed);
        let sel = p.random_completion(&[], &mut rng);
        check_selection(&p, &sel);
    }
}

#[test]
fn mcts_results_are_valid() {
    let p = problem();
    for seed in (0u64..100).step_by(9) {
        let r = tree::search(
            &p,
            &tree::MctsConfig {
                iterations: 60,
                seed,
                ..Default::default()
            },
        );
        check_selection(&p, &r.selection);
        assert!(r.eval.cost.is_finite());
    }
}

#[test]
fn ga_results_are_valid() {
    let p = problem();
    for seed in (0u64..100).step_by(9) {
        let r = ga::search(
            &p,
            &ga::GaConfig {
                population: 8,
                generations: 4,
                seed,
                ..Default::default()
            },
        );
        check_selection(&p, &r.selection);
    }
}

#[test]
fn sa_results_are_valid() {
    let p = problem();
    for seed in (0u64..100).step_by(9) {
        let r = sa::search(
            &p,
            &sa::SaConfig {
                steps: 60,
                seed,
                ..Default::default()
            },
        );
        check_selection(&p, &r.selection);
    }
}

#[test]
fn eval_cost_is_sum_of_weighted_terms() {
    let p = problem();
    for seed in (0u64..500).step_by(41) {
        let mut rng = EirProblem::rng(seed);
        let sel = p.random_completion(&[], &mut rng);
        let zero = EvalWeights {
            load: 0.0,
            hops: 0.0,
            crossings: 0.0,
            length: 0.0,
        };
        assert_eq!(evaluate(&p, &sel, &zero).cost, 0.0);
        let full = evaluate(&p, &sel, &EvalWeights::default());
        assert!(full.cost > 0.0);
        // Doubling every weight doubles the cost.
        let double = EvalWeights {
            load: 6.0,
            hops: 2.0,
            crossings: 1.0,
            length: 2.0,
        };
        let d = evaluate(&p, &sel, &double);
        assert!((d.cost - 2.0 * full.cost).abs() < 1e-9);
    }
}
