//! Genetic-algorithm baseline for EIR selection.
//!
//! §4.3 argues a GA is a poorer fit than MCTS because the natural bit-mask
//! encoding blows the space up to 2⁶⁴ and crossover produces invalid
//! selections. We give the GA the *best possible* encoding (a group per
//! CB, with conflict repair) so the comparison in the ablation bench is
//! fair — and MCTS still wins on evaluations-to-quality.

use crate::eval::{EvalWeights, Evaluation, NONE};
use crate::problem::EirProblem;
use crate::tables::{Scratch, Tables};
use crate::tree::SearchResult;
use equinox_exec::Rng;

/// GA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Generations to run.
    pub generations: usize,
    /// Per-CB mutation probability.
    pub mutation: f64,
    /// Metric weights.
    pub weights: EvalWeights,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 32,
            generations: 40,
            mutation: 0.2,
            weights: EvalWeights::default(),
            seed: 0x6A,
        }
    }
}

/// An individual: a selection as candidate ids, and its evaluation.
type Individual = (Vec<u16>, Evaluation);

/// Runs the GA and returns the best selection found.
pub fn search(problem: &EirProblem, cfg: &GaConfig) -> SearchResult {
    let t = Tables::new(problem);
    let mut s = t.scratch();
    let mut rng = EirProblem::rng(cfg.seed);
    let mut evaluations = 0usize;
    let mut evaluated = |sel: Vec<u16>, s: &mut Scratch| {
        evaluations += 1;
        let ev = t.evaluate(&sel, &cfg.weights, s);
        (sel, ev)
    };

    let mut pop: Vec<Individual> = (0..cfg.population)
        .map(|_| {
            let sel = t.random_selection(&mut s, &mut rng);
            evaluated(sel, &mut s)
        })
        .collect();

    for _ in 0..cfg.generations {
        let mut next = Vec::with_capacity(cfg.population);
        // Elitism: keep the best individual.
        let best_idx = argmin(&pop);
        next.push(pop[best_idx].clone());
        while next.len() < cfg.population {
            let a = tournament(&pop, &mut rng);
            let b = tournament(&pop, &mut rng);
            let child = crossover(&t, &pop[a].0, &pop[b].0, cfg.mutation, &mut s, &mut rng);
            next.push(evaluated(child, &mut s));
        }
        pop = next;
    }

    let best = argmin(&pop);
    let (selection, eval) = pop.swap_remove(best);
    SearchResult {
        selection: t.selection(&selection),
        eval,
        evaluations,
    }
}

fn argmin(pop: &[Individual]) -> usize {
    pop.iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.1.cost.partial_cmp(&b.1.cost).expect("no NaN"))
        .map(|(i, _)| i)
        .expect("population nonempty")
}

fn tournament(pop: &[Individual], rng: &mut Rng) -> usize {
    let a = rng.random_range(0..pop.len());
    let b = rng.random_range(0..pop.len());
    if pop[a].1.cost <= pop[b].1.cost {
        a
    } else {
        b
    }
}

/// Uniform per-CB crossover with conflict repair and mutation.
fn crossover(
    t: &Tables,
    a: &[u16],
    b: &[u16],
    mutation: f64,
    s: &mut Scratch,
    rng: &mut Rng,
) -> Vec<u16> {
    let mut child = t.empty_selection();
    s.used.clear();
    for i in 0..t.n_cbs() {
        let parent = if rng.random::<f64>() < 0.5 { a } else { b };
        let g = t.slots(&mut child, i);
        if rng.random::<f64>() < mutation {
            t.sample_group(i, g, &s.used, rng);
        } else {
            // Repair: drop EIRs already claimed by earlier CBs, refill.
            let free = t.group(parent, i).iter().filter(|&&e| !s.used.contains(t.candidate(e).tile));
            for (slot, &e) in g.iter_mut().zip(free) {
                *slot = e;
            }
        }
        if g[0] == NONE {
            t.sample_group(i, g, &s.used, rng);
        }
        t.mark_used(g, &mut s.used);
    }
    child
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
    fn ga_returns_valid_selection() {
        let p = problem();
        let cfg = GaConfig {
            population: 12,
            generations: 10,
            ..Default::default()
        };
        let r = search(&p, &cfg);
        assert_eq!(r.selection.groups.len(), 8);
        assert!(r.selection.is_exclusive(&p.placement));
        assert_eq!(r.evaluations, 12 + 10 * 11);
    }

    #[test]
    fn ga_improves_over_initial_random() {
        let p = problem();
        let init = {
            let mut rng = EirProblem::rng(0x6A);
            let sel = p.random_completion(&[], &mut rng);
            evaluate(&p, &sel, &EvalWeights::default()).cost
        };
        let r = search(&p, &GaConfig::default());
        assert!(r.eval.cost <= init);
    }

    #[test]
    fn deterministic_for_seed() {
        let p = problem();
        let cfg = GaConfig {
            population: 10,
            generations: 5,
            ..Default::default()
        };
        assert_eq!(search(&p, &cfg).eval.cost, search(&p, &cfg).eval.cost);
    }
}
