//! Monte Carlo Tree Search over EIR groups (§4.3).
//!
//! One tree level per cache bank: a node at depth `d` fixes the groups of
//! CBs `0..d` (the paper's group-by-group expansion, which keeps the tree
//! exactly `#CBs` deep instead of `ΣEIRs`). Each iteration runs the four
//! classic stages — UCB1 selection, expansion of an untried sampled group,
//! a random-completion rollout scored by the evaluation function, and
//! backpropagation of the reward along the path. A complete leaf (depth
//! `#CBs`) is scored once; later visits reuse its stored cost.

use crate::eval::{EvalWeights, Evaluation, NONE};
use crate::problem::{EirProblem, EirSelection};
use crate::tables::{Pool, Scratch, Tables, TileSet};
use equinox_exec::Rng;
use std::cmp::Ordering;

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
    /// Rollouts and refine moves scored, one rollout per iteration; a
    /// complete leaf scored from its stored cost still counts (the paper
    /// reports exploring 0.047% of the space; this is the comparable
    /// effort number).
    pub evaluations: usize,
}

/// Most iterations one search runs. Its tree is sized for the whole
/// budget up front, a 40-byte node, its 8-byte mean reward and
/// `branching` 8-byte options per iteration, and a node counts its
/// visits in a `u32`.
/// `equinox_config::ITERS_LIMIT` bounds the `iters` spec field to the
/// same value.
pub const ITERS_LIMIT: usize = 1_000_000;

const _: () = assert!(ITERS_LIMIT < u32::MAX as usize);

const NO_NODE: u32 = u32::MAX;

/// A node's depth is its position on the selection path, so it is not
/// stored.
struct Node {
    /// The option (see [`Tree::options`]) this node assigns to CB
    /// `order[depth - 1]`; unused for the root.
    group: u32,
    /// Sampled-but-unexpanded options: `first_option..first_option +
    /// untried`, expanded from the back; none at depth `#CBs`.
    first_option: u32,
    untried: u32,
    /// The child expanded last; the older ones follow `next_sibling`.
    first_child: u32,
    next_sibling: u32,
    visits: u32,
    /// Sum of rewards (reward = -cost).
    reward_sum: f64,
    /// A complete leaf's (depth `#CBs`) rollout cost, NaN until its first
    /// rollout is scored and at every other depth. Such a rollout draws
    /// nothing, so the cost is fixed.
    cost: f64,
}

const _: () = assert!(std::mem::size_of::<Node>() == 40);

/// The search tree in arenas sized up front for the iteration budget
/// (one expansion per iteration), so that growing it never allocates.
struct Tree {
    nodes: Vec<Node>,
    /// Per node, `reward_sum / visits` as of its last backpropagation,
    /// what [`Tree::best_child`] reads; beside `nodes`, not in [`Node`],
    /// so that a node stays 40 bytes.
    means: Vec<f64>,
    /// Every group sampled as an option, as a mask over the candidates of
    /// the CB it is for (see [`Pool`]); a node's group stays where it was
    /// sampled.
    options: Vec<u64>,
    pool: Pool,
}

impl Tree {
    fn new(t: &Tables, cfg: &MctsConfig) -> Self {
        Tree {
            nodes: Vec::with_capacity(cfg.iterations + 1),
            means: Vec::with_capacity(cfg.iterations + 1),
            options: Vec::with_capacity((cfg.iterations + 1) * cfg.branching),
            pool: Pool::new(t),
        }
    }

    /// The ids of option `group` of a node at `depth` ≥ 1, for CB
    /// `order[depth - 1]`, in tile order.
    fn option(&self, t: &Tables, depth: usize, group: u32) -> impl Iterator<Item = u16> + '_ {
        self.pool.ids(t, t.order[depth - 1], self.options[group as usize])
    }

    /// Adds the tiles of option `group`, at `depth`, to `used`.
    fn mark_used(&self, t: &Tables, depth: usize, group: u32, used: &mut TileSet) {
        for id in self.option(t, depth, group) {
            used.insert(t.candidate(id).tile);
        }
    }

    /// Adds a node assigning option `group` at the end of `path`, the
    /// nodes from the root to its parent (the root has neither), sampling
    /// up to `k` distinct options for the CB it leaves next; `used` holds
    /// the tiles taken on the way down, `group`'s included.
    fn push(
        &mut self,
        group: u32,
        path: &[usize],
        t: &Tables,
        k: usize,
        used: &TileSet,
        rng: &mut Rng,
    ) -> usize {
        let (parent, depth) = (path.last().copied(), path.len());
        let first_option = self.options.len();
        if depth < t.n_cbs() {
            let cb = t.order[depth];
            self.pool.fill(t, cb, used);
            for _ in 0..k * 3 {
                if self.options.len() - first_option == k {
                    break;
                }
                let before = cfg!(debug_assertions).then(|| rng.clone());
                let option = self.pool.draw(rng);
                if !self.options[first_option..].contains(&option) {
                    if let Some(mut redraw) = before {
                        // The draw `Tables::sample_group` makes, filtering
                        // `used` itself, picks the same set.
                        let mut kept = [NONE; 8];
                        for (slot, id) in kept.iter_mut().zip(self.pool.ids(t, cb, option)) {
                            *slot = id;
                        }
                        let mut again = [NONE; 8];
                        t.sample_group(cb, &mut again[..t.stride().min(8)], used, &mut redraw);
                        let within = |a: &[u16], b: &[u16]| a.iter().all(|id| b.contains(id));
                        assert!(within(&kept, &again) && within(&again, &kept), "{kept:?} vs {again:?}");
                        assert_eq!(redraw, *rng, "an option draws what a sampled group draws");
                    }
                    self.options.push(option);
                }
            }
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            group,
            first_option: first_option as u32,
            untried: (self.options.len() - first_option) as u32,
            first_child: NO_NODE,
            next_sibling: parent.map_or(NO_NODE, |p| self.nodes[p].first_child),
            visits: 0,
            reward_sum: 0.0,
            cost: f64::NAN,
        });
        self.means.push(0.0);
        if let Some(p) = parent {
            self.nodes[p].first_child = id as u32;
        }
        id
    }

    /// Counts one more visit of node `n`, which scored `reward`.
    fn backpropagate(&mut self, n: usize, reward: f64) {
        let node = &mut self.nodes[n];
        node.visits += 1;
        node.reward_sum += reward;
        self.means[n] = node.reward_sum / node.visits as f64;
    }

    /// The child of `cur` with the highest UCB1 score, the one expanded
    /// last among equals: its mean reward plus `exploration ·
    /// sqrt(ln N / n)` for `N` visits of `cur` and `n` of the child, and
    /// infinite for an unvisited child.
    fn best_child(&self, cur: usize, exploration: f64) -> usize {
        let ln_parent_visits = (self.nodes[cur].visits.max(1) as f64).ln();
        // The bonus depends on a child's visit count alone, and siblings
        // share a few small counts: each count under 16 is worked out
        // once per call.
        let (mut bonuses, mut known) = ([0.0; 16], 0u16);
        let mut bonus = |n: u32| {
            let fresh = || exploration * (ln_parent_visits / n as f64).sqrt();
            match bonuses.get_mut(n as usize) {
                None => fresh(),
                Some(b) => {
                    if known >> n & 1 == 0 {
                        *b = fresh();
                        known |= 1 << n;
                    }
                    *b
                }
            }
        };
        let mut best = (self.nodes[cur].first_child, f64::NEG_INFINITY);
        let mut child = best.0;
        while child != NO_NODE {
            let n = &self.nodes[child as usize];
            let score = match n.visits {
                0 => f64::INFINITY,
                visits => {
                    let mean = self.means[child as usize];
                    debug_assert_eq!(mean.to_bits(), (n.reward_sum / visits as f64).to_bits());
                    mean + bonus(visits)
                }
            };
            if score.partial_cmp(&best.1).expect("no NaN rewards") == Ordering::Greater {
                best = (child, score);
            }
            child = n.next_sibling;
        }
        best.0 as usize
    }

    /// Writes the groups of the nodes on `path` (root first) into `sel`,
    /// every other CB's slots left empty.
    fn fill_path(&self, path: &[usize], t: &Tables, sel: &mut [u16]) {
        sel.fill(NONE);
        for (d, &n) in path[1..].iter().enumerate() {
            let slots = t.slots(sel, t.order[d]);
            for (slot, id) in slots.iter_mut().zip(self.option(t, d + 1, self.nodes[n].group)) {
                *slot = id;
            }
        }
    }
}

/// Runs MCTS and returns the best complete selection seen (the best
/// rollout, which is never worse than the final tree path), polished by
/// one greedy refine pass.
///
/// # Panics
///
/// If `cfg.iterations` is 0 or over [`ITERS_LIMIT`], the problem has no
/// cache bank, or a CB has more than 64 candidate tiles (an option is a
/// `u64` mask over them).
pub fn search(problem: &EirProblem, cfg: &MctsConfig) -> SearchResult {
    assert!(
        cfg.iterations <= ITERS_LIMIT,
        "iterations = {} is over ITERS_LIMIT = {ITERS_LIMIT}: the tree is sized for the whole budget up front",
        cfg.iterations
    );
    let t = Tables::new(problem);
    let mut s = t.scratch();
    let mut rng = EirProblem::rng(cfg.seed);
    let n_cbs = t.n_cbs();
    assert!(n_cbs > 0, "a search needs at least one cache bank");
    let mut tree = Tree::new(&t, cfg);
    tree.push(0, &[], &t, cfg.branching, &s.used, &mut rng);
    let mut path: Vec<usize> = Vec::with_capacity(n_cbs + 1);
    let mut sel = t.empty_selection();
    let mut best: Option<Evaluation> = None;
    let mut best_sel = t.empty_selection();
    let mut evaluations = 0usize;

    for _ in 0..cfg.iterations {
        // --- Selection ---
        path.clear();
        path.push(0);
        s.used.clear();
        let mut cur = 0;
        loop {
            let n = &tree.nodes[cur];
            if n.untried > 0 || n.first_child == NO_NODE {
                break;
            }
            cur = tree.best_child(cur, cfg.exploration);
            path.push(cur);
            tree.mark_used(&t, path.len() - 1, tree.nodes[cur].group, &mut s.used);
        }

        // --- Expansion ---
        if tree.nodes[cur].untried > 0 {
            tree.nodes[cur].untried -= 1;
            let group = tree.nodes[cur].first_option + tree.nodes[cur].untried;
            tree.mark_used(&t, path.len(), group, &mut s.used);
            cur = tree.push(group, &path, &t, cfg.branching, &s.used, &mut rng);
            path.push(cur);
        }

        // --- Rollout ---
        // A complete leaf's rollout draws nothing, so its first score is
        // kept; a repeat cannot replace `best`, which has only fallen
        // since that score was compared with it.
        let memo = tree.nodes[cur].cost;
        let cost = if memo.is_nan() {
            tree.fill_path(&path, &t, &mut sel);
            t.complete(&mut sel, path.len() - 1, &mut s, &mut rng);
            let eval = t.evaluate(&sel, &cfg.weights, &mut s);
            if best.is_none_or(|b| eval.cost < b.cost) {
                best = Some(eval);
                best_sel.copy_from_slice(&sel);
            }
            if path.len() == n_cbs + 1 {
                tree.nodes[cur].cost = eval.cost;
            }
            eval.cost
        } else {
            if cfg!(debug_assertions) {
                // Past the term cache, so that the memo is checked
                // against a computation, not against another memo.
                tree.fill_path(&path, &t, &mut sel);
                let again = t.evaluate_uncached(&sel, &cfg.weights, &mut s).cost;
                assert_eq!(again.to_bits(), memo.to_bits(), "a complete leaf's cost is fixed");
            }
            memo
        };
        evaluations += 1;

        // --- Backpropagation ---
        for &n in &path {
            tree.backpropagate(n, -cost);
        }
    }

    let eval = best.expect("at least one iteration");
    let (eval, extra) = refine(&t, &mut best_sel, eval, &cfg.weights, &mut s);
    SearchResult {
        selection: t.selection(&best_sel),
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
    t: &Tables,
    sel: &mut [u16],
    mut eval: Evaluation,
    weights: &EvalWeights,
    s: &mut Scratch,
) -> (Evaluation, usize) {
    let stride = t.stride();
    let mut evaluations = 0usize;
    // Evaluates `sel` as a candidate move: `true` if it strictly improves.
    let mut improves = |sel: &[u16], eval: &mut Evaluation, s: &mut Scratch| {
        let cand_eval = t.evaluate(sel, weights, s);
        evaluations += 1;
        let better = cand_eval.cost < eval.cost;
        if better {
            *eval = cand_eval;
        }
        better
    };
    // The directions of `group`'s EIRs, the one in slot `except` left out.
    let octants = |group: &[u16], except: Option<usize>| {
        let others = group.iter().enumerate().filter(|&(j, _)| Some(j) != except);
        others.fold(0u8, |o, (_, &id)| o | 1 << t.candidate(id).octant)
    };
    const MAX_SWEEPS: usize = 8;
    for _ in 0..MAX_SWEEPS {
        let mut improved = false;
        for i in 0..t.n_cbs() {
            let at = i * stride;
            for k in 0..t.group(sel, i).len() {
                // Every tile in use but this EIR's own, and its siblings'
                // directions, as they stand before the moves below.
                s.used.clear();
                t.mark_used(sel, &mut s.used);
                s.used.remove(t.candidate(sel[at + k]).tile);
                let siblings = octants(t.group(sel, i), Some(k));
                for (id, c) in t.candidates(i) {
                    let cur = sel[at + k];
                    if id == cur || s.used.contains(c.tile) || siblings & 1 << c.octant != 0 {
                        continue;
                    }
                    sel[at + k] = id;
                    if improves(sel, &mut eval, s) {
                        improved = true;
                    } else {
                        sel[at + k] = cur;
                    }
                }
                // Dropping the EIR entirely can beat any relocation when
                // its wire is what crosses — the paper notes some CBs end
                // up with fewer EIRs for exactly this reason (§4.3).
                let len = t.group(sel, i).len();
                if len > 1 {
                    let dropped = sel[at + k];
                    sel[at + k..at + len].rotate_left(1);
                    sel[at + len - 1] = NONE;
                    if improves(sel, &mut eval, s) {
                        improved = true;
                        break; // indices shifted; revisit on next sweep
                    }
                    sel[at + len - 1] = dropped;
                    sel[at + k..at + len].rotate_right(1);
                }
            }
            // Growth move: a CB short of the target group size tries to
            // add one more EIR in an unused octant.
            let len = t.group(sel, i).len();
            if len < t.group_size() {
                s.used.clear();
                t.mark_used(sel, &mut s.used);
                let taken = octants(t.group(sel, i), None);
                for (id, c) in t.candidates(i) {
                    if s.used.contains(c.tile) || taken & 1 << c.octant != 0 {
                        continue;
                    }
                    sel[at + len] = id;
                    if improves(sel, &mut eval, s) {
                        improved = true;
                        break;
                    }
                    sel[at + len] = NONE;
                }
            }
        }
        if !improved {
            break;
        }
    }
    (eval, evaluations)
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

    #[test]
    #[should_panic(expected = "iterations = 1000001 is over ITERS_LIMIT = 1000000")]
    fn a_budget_over_the_limit_is_refused_by_name() {
        search(&problem(), &MctsConfig { iterations: ITERS_LIMIT + 1, ..quick_cfg(1) });
    }

    /// A wire that reaches across a 12×12 board gives each CB over a
    /// hundred candidates, more than one option's mask holds. No
    /// scenario comes close: a 4-hop budget gives at most 32.
    #[test]
    #[should_panic(expected = "candidate EIR tiles; a tree search keeps an option as a 64-bit mask")]
    fn a_cb_with_more_candidates_than_a_mask_holds_is_refused() {
        let wide = EirProblem {
            max_hops: 22,
            wire: equinox_phys::WireModel {
                max_single_cycle_mm: 100.0,
                ..Default::default()
            },
            ..EirProblem::new(best_nqueen_placement(12, 12, 500, 0))
        };
        search(&wide, &quick_cfg(1));
    }
}
