//! Monte Carlo Tree Search over EIR groups (§4.3).
//!
//! One tree level per cache bank: a node at depth `d` fixes the groups of
//! CBs `0..d` (the paper's group-by-group expansion, which keeps the tree
//! exactly `#CBs` deep instead of `ΣEIRs`). Each iteration runs the four
//! classic stages — UCB1 selection, expansion of a newly sampled group, a
//! random-completion rollout scored by the evaluation function, and
//! backpropagation of the reward along the path. A node's options are
//! drawn on demand (progressive widening): it gains a child only when its
//! visit count allows one more, so the draws go where the search spends
//! its visits. A complete leaf (depth `#CBs`) is scored once; later
//! visits reuse its stored cost.

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
    /// Most children a node gains, one distinct sampled group option
    /// each, as its visits allow (progressive widening); it draws at
    /// most three times as many options.
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
/// budget up front, a 40-byte node, its 8-byte mean reward, its 8-byte
/// option and an 8-byte logarithm per iteration, and a node counts its
/// visits in a `u32`.
/// `equinox_config::ITERS_LIMIT` bounds the `iters` spec field to the
/// same value.
pub const ITERS_LIMIT: usize = 1_000_000;

const _: () = assert!(ITERS_LIMIT < u32::MAX as usize);

const NO_NODE: u32 = u32::MAX;

/// The widening schedule: a node at depth < #CBs with `N` visits may
/// have up to `⌈C·(N+1)^e⌉` children, and never more than `branching`,
/// with `C = 14/5` and `e = 2/5` (numerator, denominator). They were
/// chosen on search quality alone, among exponents that integers
/// evaluate exactly (1/2, 2/5, 1/3): over the flagship search's seeds
/// 1–12, and over 13–24 held out, they keep the mean best cost of
/// drawing every option up front (EXPERIMENTS.md "Options on demand").
const WIDEN_C: (u64, u64) = (14, 5);
const WIDEN_EXP: (u32, u32) = (2, 5);

/// Whether `children` leave room for one more after `visits` visits:
/// `children < C·(visits+1)^e`, that is `(5·children)^5 < 14^5·(visits+1)^2`,
/// exact in integers. `children` never passes the schedule (704 at
/// [`ITERS_LIMIT`] visits), so neither side nears `u64::MAX`.
fn room_to_widen(children: u32, visits: u32) -> bool {
    let ((num, den), (p, q)) = (WIDEN_C, WIDEN_EXP);
    (den * u64::from(children)).pow(q) < num.pow(q) * (u64::from(visits) + 1).pow(p)
}

// At the top of the schedule the left side is under 5 times the right.
const _: () = assert!(matches!(
    WIDEN_C.0.pow(WIDEN_EXP.1).checked_mul((ITERS_LIMIT as u64 + 1).pow(WIDEN_EXP.0)),
    Some(right) if right < u64::MAX / 16
));

/// Most options a node draws over its life, per child it may have: a
/// draw that repeats a sibling's option is spent all the same.
const DRAWS_PER_CHILD: usize = 3;

/// A node's depth is its position on the selection path, so it is not
/// stored; its group is `options[id]` (see [`Tree::options`]).
struct Node {
    /// Children so far, each with a distinct option for CB
    /// `order[depth]`; none at depth `#CBs`.
    children: u32,
    /// Options drawn for its children so far, repeats included.
    draws: u32,
    /// The child added last; the older ones follow `next_sibling`.
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
/// (at most one new node per iteration), so that growing it never
/// allocates.
struct Tree {
    nodes: Vec<Node>,
    /// Per node, `reward_sum / visits` as of its last backpropagation,
    /// what [`Tree::best_child`] reads; beside `nodes`, not in [`Node`],
    /// so that a node stays 40 bytes.
    means: Vec<f64>,
    /// Per node, the group it assigns to CB `order[depth - 1]`, as a mask
    /// over that CB's candidates (see [`Pool`]); the root's is unused.
    options: Vec<u64>,
    /// `ln N` for every visit count `N` a node can reach in the budget
    /// (`ln 1` for none), what [`Tree::best_child`] reads.
    ln: Vec<f64>,
    pool: Pool,
}

impl Tree {
    fn new(t: &Tables, cfg: &MctsConfig) -> Self {
        let mut tree = Tree {
            nodes: Vec::with_capacity(cfg.iterations + 1),
            means: Vec::with_capacity(cfg.iterations + 1),
            options: Vec::with_capacity(cfg.iterations + 1),
            ln: (0..=cfg.iterations).map(|n| (n.max(1) as f64).ln()).collect(),
            pool: Pool::new(t),
        };
        tree.push(None, 0);
        tree
    }

    /// The ids of node `n`'s group, at `depth` ≥ 1, for CB
    /// `order[depth - 1]`, in tile order.
    fn option(&self, t: &Tables, depth: usize, n: usize) -> impl Iterator<Item = u16> + '_ {
        self.pool.ids(t, t.order[depth - 1], self.options[n])
    }

    /// Sets `used` to the tiles of the groups on `path` (root first, so
    /// `path[d]` is at depth `d`). Only a widening and a fresh rollout
    /// read `used`, so a descent that ends on a memoized leaf marks
    /// nothing.
    fn mark_path(&self, t: &Tables, path: &[usize], used: &mut TileSet) {
        used.clear();
        for (depth, &n) in path.iter().enumerate().skip(1) {
            for id in self.option(t, depth, n) {
                used.insert(t.candidate(id).tile);
            }
        }
    }

    /// Adds a node assigning `option` below `parent` (the root has
    /// neither).
    fn push(&mut self, parent: Option<usize>, option: u64) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            children: 0,
            draws: 0,
            first_child: NO_NODE,
            next_sibling: parent.map_or(NO_NODE, |p| self.nodes[p].first_child),
            visits: 0,
            reward_sum: 0.0,
            cost: f64::NAN,
        });
        self.means.push(0.0);
        self.options.push(option);
        if let Some(p) = parent {
            self.nodes[p].first_child = id as u32;
            self.nodes[p].children += 1;
        }
        id
    }

    /// Whether node `n` may gain a child now: it has room in the
    /// schedule, fewer than `branching` children and draws left.
    fn may_widen(&self, n: usize, branching: usize) -> bool {
        let node = &self.nodes[n];
        (node.children as usize) < branching
            && (node.draws as usize) < DRAWS_PER_CHILD * branching
            && room_to_widen(node.children, node.visits)
    }

    /// Whether a child of `n` holds `option`.
    fn has_child_with(&self, n: usize, option: u64) -> bool {
        let mut child = self.nodes[n].first_child;
        while child != NO_NODE {
            if self.options[child as usize] == option {
                return true;
            }
            child = self.nodes[child as usize].next_sibling;
        }
        false
    }

    /// Draws options for CB `order[depth]` below node `n`, at `depth`,
    /// until one differs from every child's, and adds it as a child;
    /// `None` if `n`'s draws run out first. `used` holds the tiles taken
    /// on the way down to `n`.
    fn widen(
        &mut self,
        n: usize,
        depth: usize,
        t: &Tables,
        branching: usize,
        used: &TileSet,
        rng: &mut Rng,
    ) -> Option<usize> {
        let cb = t.order[depth];
        self.pool.fill(t, cb, used);
        while (self.nodes[n].draws as usize) < DRAWS_PER_CHILD * branching {
            self.nodes[n].draws += 1;
            let before = cfg!(debug_assertions).then(|| rng.clone());
            let option = self.pool.draw(rng);
            if self.has_child_with(n, option) {
                continue;
            }
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
            return Some(self.push(Some(n), option));
        }
        None
    }

    /// Counts one more visit of node `n`, which scored `reward`.
    fn backpropagate(&mut self, n: usize, reward: f64) {
        let node = &mut self.nodes[n];
        node.visits += 1;
        node.reward_sum += reward;
        self.means[n] = node.reward_sum / node.visits as f64;
    }

    /// The child of `cur` with the highest UCB1 score, the one added last
    /// among equals: its mean reward plus `exploration · sqrt(ln N / n)`
    /// for `N` visits of `cur` and `n` of the child, and infinite for an
    /// unvisited child.
    fn best_child(&self, cur: usize, exploration: f64) -> usize {
        let ln_parent_visits = self.ln[self.nodes[cur].visits as usize];
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
            for (slot, id) in slots.iter_mut().zip(self.option(t, d + 1, n)) {
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
    grow(problem, cfg).0
}

/// [`search`], and the tree it grew.
fn grow(problem: &EirProblem, cfg: &MctsConfig) -> (SearchResult, Tree) {
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
    let mut path: Vec<usize> = Vec::with_capacity(n_cbs + 1);
    let mut sel = t.empty_selection();
    let mut best: Option<Evaluation> = None;
    let mut best_sel = t.empty_selection();
    let mut evaluations = 0usize;

    for _ in 0..cfg.iterations {
        // --- Selection and expansion ---
        // Down by UCB1 until a node may widen, which then adds the child
        // the rollout starts from; a complete leaf stops the descent.
        path.clear();
        path.push(0);
        let mut cur = 0;
        while path.len() <= n_cbs {
            let depth = path.len() - 1;
            let fresh = if tree.may_widen(cur, cfg.branching) {
                tree.mark_path(&t, &path, &mut s.used);
                tree.widen(cur, depth, &t, cfg.branching, &s.used, &mut rng)
            } else {
                None
            };
            if fresh.is_none() && tree.nodes[cur].first_child == NO_NODE {
                break;
            }
            cur = fresh.unwrap_or_else(|| tree.best_child(cur, cfg.exploration));
            path.push(cur);
            if fresh.is_some() {
                break;
            }
        }

        // --- Rollout ---
        // A complete leaf's rollout draws nothing, so its first score is
        // kept; a repeat cannot replace `best`, which has only fallen
        // since that score was compared with it.
        let memo = tree.nodes[cur].cost;
        let cost = if memo.is_nan() {
            tree.fill_path(&path, &t, &mut sel);
            tree.mark_path(&t, &path, &mut s.used);
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
    let result = SearchResult {
        selection: t.selection(&best_sel),
        eval,
        evaluations: evaluations + extra,
    };
    (result, tree)
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

    /// Every node of `tree` after a search with `branching`: at most
    /// `min(branching, ⌈C·(N+1)^e⌉)` children for `N` visits, at most
    /// `3·branching` draws, options distinct among siblings, and one
    /// option per node.
    fn check_widening(tree: &Tree, branching: usize) {
        assert_eq!(tree.options.len(), tree.nodes.len());
        let mut children_seen = 0;
        for (id, node) in tree.nodes.iter().enumerate() {
            let k = node.children;
            assert!(k as usize <= branching, "node {id}: {k} children");
            assert!(k == 0 || room_to_widen(k - 1, node.visits), "node {id}: {k} children, {} visits", node.visits);
            assert!(node.draws as usize <= DRAWS_PER_CHILD * branching, "node {id}: {} draws", node.draws);
            assert!(node.draws >= k, "node {id}: a child per distinct draw");
            let mut siblings = Vec::new();
            let mut child = node.first_child;
            while child != NO_NODE {
                let option = tree.options[child as usize];
                assert!(!siblings.contains(&option), "node {id}: option {option:#x} twice");
                siblings.push(option);
                child = tree.nodes[child as usize].next_sibling;
            }
            assert_eq!(siblings.len(), k as usize, "node {id}: its children count");
            children_seen += siblings.len();
        }
        assert_eq!(children_seen + 1, tree.nodes.len(), "every node but the root is a child");
    }

    #[test]
    fn widening_keeps_the_schedule_the_caps_and_distinct_siblings() {
        let p = problem();
        for (branching, seed) in [(24, 1), (24, 2), (3, 3), (1, 4)] {
            let cfg = MctsConfig { iterations: 2_000, branching, ..quick_cfg(seed) };
            let (_, tree) = grow(&p, &cfg);
            check_widening(&tree, branching);
            let full = tree.nodes.iter().filter(|n| n.children as usize == branching).count();
            assert!(full > 0, "branching {branching}: no node reached the cap");
        }
    }

    /// With a one-hop budget every candidate is in its CB's own hot zone,
    /// so every pool is empty: each node below the leaves gets one empty
    /// option, then spends its draws on repeats of it and stops there.
    #[test]
    fn a_cb_with_an_empty_pool_gets_exactly_one_empty_option() {
        let p = EirProblem { max_hops: 1, ..problem() };
        let (result, tree) = grow(&p, &quick_cfg(1));
        assert!(result.selection.groups.iter().all(Vec::is_empty));
        check_widening(&tree, MctsConfig::default().branching);
        assert_eq!(tree.nodes.len(), 9, "a chain down to one complete leaf");
        for node in &tree.nodes[..8] {
            assert_eq!(node.children, 1);
            assert_eq!(node.draws as usize, DRAWS_PER_CHILD * 24, "repeats spent the draws");
        }
        assert!(tree.options[1..].iter().all(|&o| o == 0), "{:?}", tree.options);
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
