//! Simulated-annealing baseline for EIR selection (§4.3).
//!
//! State = one complete selection; a move re-samples one CB's group (with
//! exclusivity repair); geometric cooling. Like the GA, this exists for
//! the search-method ablation bench.

use crate::eval::EvalWeights;
use crate::problem::EirProblem;
use crate::tables::Tables;
use crate::tree::SearchResult;

/// SA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// Total proposed moves.
    pub steps: usize,
    /// Initial temperature.
    pub t0: f64,
    /// Geometric cooling factor per step.
    pub cooling: f64,
    /// Metric weights.
    pub weights: EvalWeights,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            steps: 1_200,
            t0: 0.5,
            cooling: 0.995,
            weights: EvalWeights::default(),
            seed: 0x5A,
        }
    }
}

/// Runs simulated annealing and returns the best selection visited.
pub fn search(problem: &EirProblem, cfg: &SaConfig) -> SearchResult {
    let t = Tables::new(problem);
    let mut s = t.scratch();
    let mut rng = EirProblem::rng(cfg.seed);
    let mut cur = t.random_selection(&mut s, &mut rng);
    let mut cur_eval = t.evaluate(&cur, &cfg.weights, &mut s);
    let mut best = cur.clone();
    let mut best_eval = cur_eval;
    let mut evaluations = 1usize;
    let mut temp = cfg.t0;
    let mut cand = cur.clone();

    for _ in 0..cfg.steps {
        // Move: re-sample one CB's group.
        let i = rng.random_range(0..t.n_cbs());
        cand.copy_from_slice(&cur);
        s.used.clear();
        for k in (0..t.n_cbs()).filter(|&k| k != i) {
            t.mark_used(t.group(&cur, k), &mut s.used);
        }
        t.sample_group(i, t.slots(&mut cand, i), &s.used, &mut rng);
        let cand_eval = t.evaluate(&cand, &cfg.weights, &mut s);
        evaluations += 1;
        let delta = cand_eval.cost - cur_eval.cost;
        let accept = delta <= 0.0 || rng.random::<f64>() < (-delta / temp.max(1e-9)).exp();
        if accept {
            std::mem::swap(&mut cur, &mut cand);
            cur_eval = cand_eval;
            if cur_eval.cost < best_eval.cost {
                best.copy_from_slice(&cur);
                best_eval = cur_eval;
            }
        }
        temp *= cfg.cooling;
    }

    SearchResult {
        selection: t.selection(&best),
        eval: best_eval,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use equinox_placement::select::best_nqueen_placement;

    fn problem() -> EirProblem {
        EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0))
    }

    #[test]
    fn sa_returns_valid_selection() {
        let p = problem();
        let cfg = SaConfig {
            steps: 200,
            ..Default::default()
        };
        let r = search(&p, &cfg);
        assert_eq!(r.selection.groups.len(), 8);
        assert!(r.selection.is_exclusive(&p.placement));
        assert_eq!(r.evaluations, 201);
    }

    #[test]
    fn sa_improves_over_start() {
        let p = problem();
        let start = {
            let mut rng = EirProblem::rng(0x5A);
            let sel = p.random_completion(&[], &mut rng);
            evaluate(&p, &sel, &EvalWeights::default()).cost
        };
        let r = search(&p, &SaConfig::default());
        assert!(r.eval.cost <= start);
    }

    #[test]
    fn deterministic_for_seed() {
        let p = problem();
        let cfg = SaConfig {
            steps: 100,
            ..Default::default()
        };
        assert_eq!(search(&p, &cfg).eval.cost, search(&p, &cfg).eval.cost);
    }
}
