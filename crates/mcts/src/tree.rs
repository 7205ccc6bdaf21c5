//! Monte Carlo Tree Search over EIR groups (§4.3).
//!
//! One tree level per cache bank: a node at depth `d` fixes the groups of
//! CBs `0..d` (the paper's group-by-group expansion, which keeps the tree
//! exactly `#CBs` deep instead of `ΣEIRs`). Each iteration runs the four
//! classic stages — UCB1 selection, expansion of an untried sampled group,
//! a random-completion rollout scored by the evaluation function, and
//! backpropagation of the reward along the path.

use crate::eval::{evaluate, EvalWeights, Evaluation};
use crate::problem::{EirProblem, EirSelection};
use equinox_exec::Rng;
use equinox_phys::Coord;

/// Search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MctsConfig {
    /// Total iterations (selection→expansion→rollout→backprop).
    pub iterations: usize,
    /// UCB exploration constant `C`.
    pub exploration: f64,
    /// Sampled group options per node (lazy branching factor).
    pub branching: usize,
    /// Metric weights.
    pub weights: EvalWeights,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            iterations: 2_000,
            exploration: 0.8,
            branching: 24,
            weights: EvalWeights::default(),
            seed: 0xEC0,
        }
    }
}

/// Outcome of a search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best selection found.
    pub selection: EirSelection,
    /// Its evaluation.
    pub eval: Evaluation,
    /// Evaluation-function invocations (the paper reports exploring
    /// 0.047% of the space; this is the comparable effort number).
    pub evaluations: usize,
}

struct Node {
    /// Group this node assigns to CB `depth-1` (empty for the root).
    group: Vec<Coord>,
    depth: usize,
    children: Vec<usize>,
    /// Sampled-but-unexpanded group options.
    untried: Vec<Vec<Coord>>,
    visits: u64,
    /// Sum of rewards (reward = -cost).
    reward_sum: f64,
}

/// Runs MCTS and returns the best complete selection seen (the best
/// rollout, which is never worse than the final tree path), polished by
/// one greedy refine pass.
pub fn search(problem: &EirProblem, cfg: &MctsConfig) -> SearchResult {
    let mut rng = EirProblem::rng(cfg.seed);
    let n_cbs = problem.placement.cbs.len();
    let order = problem.cb_order();
    let mut nodes: Vec<Node> = vec![Node {
        group: Vec::new(),
        depth: 0,
        children: Vec::new(),
        untried: sample_options(problem, order[0], &[], cfg.branching, &mut rng),
        visits: 0,
        reward_sum: 0.0,
    }];
    let mut best: Option<(f64, EirSelection, Evaluation)> = None;
    let mut evaluations = 0usize;

    for _ in 0..cfg.iterations {
        // --- Selection ---
        let mut path = vec![0usize];
        let mut used: Vec<Coord> = Vec::new();
        let mut partial: Vec<Vec<Coord>> = Vec::new();
        loop {
            let cur = *path.last().expect("path nonempty");
            if nodes[cur].depth == n_cbs || !nodes[cur].untried.is_empty() {
                break;
            }
            if nodes[cur].children.is_empty() {
                break;
            }
            let parent_visits = nodes[cur].visits.max(1) as f64;
            let &next = nodes[cur]
                .children
                .iter()
                .max_by(|&&a, &&b| {
                    ucb(&nodes[a], parent_visits, cfg.exploration)
                        .partial_cmp(&ucb(&nodes[b], parent_visits, cfg.exploration))
                        .expect("no NaN rewards")
                })
                .expect("children nonempty");
            path.push(next);
            used.extend(nodes[next].group.iter().copied());
            partial.push(nodes[next].group.clone());
        }

        // --- Expansion ---
        let cur = *path.last().expect("path nonempty");
        if nodes[cur].depth < n_cbs {
            if let Some(group) = nodes[cur].untried.pop() {
                let depth = nodes[cur].depth + 1;
                let mut child_used = used.clone();
                child_used.extend(group.iter().copied());
                let untried = if depth < n_cbs {
                    sample_options(problem, order[depth], &child_used, cfg.branching, &mut rng)
                } else {
                    Vec::new()
                };
                let id = nodes.len();
                nodes.push(Node {
                    group: group.clone(),
                    depth,
                    children: Vec::new(),
                    untried,
                    visits: 0,
                    reward_sum: 0.0,
                });
                nodes[cur].children.push(id);
                path.push(id);
                used = child_used;
                partial.push(group);
            }
        }

        // --- Rollout ---
        let sel = problem.random_completion(&partial, &mut rng);
        let eval = evaluate(problem, &sel, &cfg.weights);
        evaluations += 1;
        if best.as_ref().is_none_or(|(c, _, _)| eval.cost < *c) {
            best = Some((eval.cost, sel, eval));
        }

        // --- Backpropagation ---
        let reward = -eval.cost;
        for &n in &path {
            nodes[n].visits += 1;
            nodes[n].reward_sum += reward;
        }
    }

    // Freed before the refine pass allocates, so the two never stack up
    // in the process's peak memory.
    drop(nodes);
    let (_, selection, eval) = best.expect("at least one iteration");
    let (selection, eval, extra) = refine(problem, selection, eval, &cfg.weights);
    SearchResult {
        selection,
        eval,
        evaluations: evaluations + extra,
    }
}

/// Greedy hill-climbing polish: sweep the CBs, re-sampling each group a
/// few times and keeping strict improvements. This mirrors the paper's
/// final stage where only MCTS-promising selections are tuned before the
/// expensive full-system simulations (§4.3); it is what drives the last
/// crossings out of an already-good selection.
fn refine(
    problem: &EirProblem,
    mut sel: EirSelection,
    mut eval: Evaluation,
    weights: &EvalWeights,
) -> (EirSelection, Evaluation, usize) {
    use crate::problem::octant;
    let n = sel.groups.len();
    let mut evaluations = 0usize;
    const MAX_SWEEPS: usize = 8;
    for _ in 0..MAX_SWEEPS {
        let mut improved = false;
        for i in 0..n {
            for k in 0..sel.groups[i].len() {
                let cb = problem.placement.cbs[i];
                let used: Vec<Coord> = sel
                    .groups
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|&e| e != sel.groups[i][k])
                    .collect();
                let sibling_octants: Vec<_> = sel.groups[i]
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != k)
                    .map(|(_, &e)| octant(cb, e))
                    .collect();
                for c in problem.candidates(i) {
                    if c == sel.groups[i][k]
                        || used.contains(&c)
                        || sibling_octants.contains(&octant(cb, c))
                    {
                        continue;
                    }
                    let mut cand = sel.clone();
                    cand.groups[i][k] = c;
                    let cand_eval = evaluate(problem, &cand, weights);
                    evaluations += 1;
                    if cand_eval.cost < eval.cost {
                        sel = cand;
                        eval = cand_eval;
                        improved = true;
                    }
                }
                // Dropping the EIR entirely can beat any relocation when
                // its wire is what crosses — the paper notes some CBs end
                // up with fewer EIRs for exactly this reason (§4.3).
                if sel.groups[i].len() > 1 {
                    let mut cand = sel.clone();
                    cand.groups[i].remove(k);
                    let cand_eval = evaluate(problem, &cand, weights);
                    evaluations += 1;
                    if cand_eval.cost < eval.cost {
                        sel = cand;
                        eval = cand_eval;
                        improved = true;
                        break; // indices shifted; revisit on next sweep
                    }
                }
            }
            // Growth move: a CB short of the target group size tries to
            // add one more EIR in an unused octant.
            if sel.groups[i].len() < problem.group_size {
                let cb = problem.placement.cbs[i];
                let used: Vec<Coord> = sel.groups.iter().flatten().copied().collect();
                let octs: Vec<_> = sel.groups[i].iter().map(|&e| octant(cb, e)).collect();
                for c in problem.candidates(i) {
                    if used.contains(&c) || octs.contains(&octant(cb, c)) {
                        continue;
                    }
                    let mut cand = sel.clone();
                    cand.groups[i].push(c);
                    let cand_eval = evaluate(problem, &cand, weights);
                    evaluations += 1;
                    if cand_eval.cost < eval.cost {
                        sel = cand;
                        eval = cand_eval;
                        improved = true;
                        break;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    (sel, eval, evaluations)
}

fn ucb(n: &Node, parent_visits: f64, c: f64) -> f64 {
    if n.visits == 0 {
        return f64::INFINITY;
    }
    let mean = n.reward_sum / n.visits as f64;
    mean + c * (parent_visits.ln() / n.visits as f64).sqrt()
}

/// Samples up to `k` distinct group options for the given CB.
fn sample_options(
    problem: &EirProblem,
    cb: usize,
    used: &[Coord],
    k: usize,
    rng: &mut Rng,
) -> Vec<Vec<Coord>> {
    let mut opts: Vec<Vec<Coord>> = Vec::with_capacity(k);
    for _ in 0..k * 3 {
        if opts.len() == k {
            break;
        }
        let mut g = problem.sample_group(cb, used, rng);
        g.sort();
        if !opts.contains(&g) {
            opts.push(g);
        }
    }
    opts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalWeights;
    use equinox_placement::select::best_nqueen_placement;

    fn problem() -> EirProblem {
        EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0))
    }

    fn quick_cfg(seed: u64) -> MctsConfig {
        MctsConfig {
            iterations: 400,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn search_returns_complete_exclusive_selection() {
        let p = problem();
        let r = search(&p, &quick_cfg(1));
        assert_eq!(r.selection.groups.len(), 8);
        assert!(r.selection.is_exclusive(&p.placement));
        assert!(r.evaluations >= 400);
    }

    #[test]
    fn search_beats_random_sampling() {
        let p = problem();
        let r = search(&p, &quick_cfg(2));
        // Single random rollout for comparison.
        let mut rng = EirProblem::rng(99);
        let random = p.random_completion(&[], &mut rng);
        let random_eval = crate::eval::evaluate(&p, &random, &EvalWeights::default());
        assert!(
            r.eval.cost <= random_eval.cost,
            "MCTS {:.4} must beat one random draw {:.4}",
            r.eval.cost,
            random_eval.cost
        );
    }

    #[test]
    fn more_iterations_rarely_hurt() {
        // Not strictly monotone (the RNG stream differs once the tree
        // shape changes), but a 10x budget must land at least as well
        // within a small tolerance.
        let p = problem();
        let small = search(
            &p,
            &MctsConfig {
                iterations: 100,
                seed: 3,
                ..Default::default()
            },
        );
        let big = search(
            &p,
            &MctsConfig {
                iterations: 1000,
                seed: 3,
                ..Default::default()
            },
        );
        assert!(big.eval.cost <= small.eval.cost * 1.05);
    }

    #[test]
    fn found_design_is_physically_viable() {
        // The paper's 8×8 design has zero crossings and ≤2-hop wires; our
        // search should land close: few crossings, mostly 2-hop EIRs.
        let p = problem();
        let r = search(
            &p,
            &MctsConfig {
                iterations: 3000,
                seed: 4,
                ..Default::default()
            },
        );
        assert!(
            r.eval.crossings <= 2,
            "found {} crossings; paper achieves 0",
            r.eval.crossings
        );
        let segments = r.selection.segments(&p.placement);
        assert!(p.wire.all_single_cycle(&segments), "repeater-free wires");
    }

    #[test]
    fn deterministic_for_seed() {
        let p = problem();
        let a = search(&p, &quick_cfg(5));
        let b = search(&p, &quick_cfg(5));
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.eval.cost, b.eval.cost);
    }
}
