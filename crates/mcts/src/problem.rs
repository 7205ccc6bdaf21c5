//! The EIR selection problem (§3.2, §4.3).
//!
//! For every cache bank we must choose a group of equivalent injection
//! routers subject to the paper's constraints:
//!
//! * **hop budget** — EIRs lie within `max_hops` mesh hops of their CB
//!   (long RDL wires would need repeaters, §3.2.3);
//! * **outside hot zones** — the 8 tiles around any CB carry that CB's
//!   first/second-hop traffic and make poor EIRs (§3.2.4);
//! * **direction diversity** — at most one EIR per relative direction
//!   (two EIRs in the same direction contend on the same mesh links,
//!   §4.3);
//! * **exclusivity** — an EIR serves exactly one CB (the paper's MCTS
//!   forbids sharing).

use equinox_phys::{Coord, WireModel};
use equinox_phys::segment::Segment;
use equinox_placement::Placement;
use equinox_exec::Rng;

/// The eight relative directions an EIR can sit in w.r.t. its CB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Octant {
    /// Directly north (Δx = 0, Δy < 0).
    N,
    /// North-east quadrant.
    Ne,
    /// Directly east.
    E,
    /// South-east quadrant.
    Se,
    /// Directly south.
    S,
    /// South-west quadrant.
    Sw,
    /// Directly west.
    W,
    /// North-west quadrant.
    Nw,
}

/// Relative direction of `to` as seen from `from`.
///
/// # Panics
///
/// Panics if the tiles coincide (a CB is never its own EIR).
pub fn octant(from: Coord, to: Coord) -> Octant {
    let dx = to.x as i32 - from.x as i32;
    let dy = to.y as i32 - from.y as i32;
    assert!(dx != 0 || dy != 0, "octant of identical tiles");
    match (dx.signum(), dy.signum()) {
        (0, -1) => Octant::N,
        (1, -1) => Octant::Ne,
        (1, 0) => Octant::E,
        (1, 1) => Octant::Se,
        (0, 1) => Octant::S,
        (-1, 1) => Octant::Sw,
        (-1, 0) => Octant::W,
        (-1, -1) => Octant::Nw,
        _ => unreachable!("signum covered"),
    }
}

/// A complete EIR assignment: `groups[i]` are the EIRs of CB `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EirSelection {
    /// One EIR group per cache bank, in CB order.
    pub groups: Vec<Vec<Coord>>,
}

impl EirSelection {
    /// All CB→EIR interposer wires as straight segments.
    pub fn segments(&self, placement: &Placement) -> Vec<Segment> {
        self.groups
            .iter()
            .enumerate()
            .flat_map(|(i, group)| {
                let cb = placement.cbs[i];
                group.iter().map(move |&e| Segment::new(cb, e))
            })
            .collect()
    }

    /// Total number of EIRs (= interposer links).
    pub fn total_eirs(&self) -> usize {
        self.groups.iter().map(|g| g.len()).sum()
    }

    /// `true` if no EIR is assigned to two CBs and no EIR is itself a CB.
    pub fn is_exclusive(&self, placement: &Placement) -> bool {
        let mut seen = Vec::new();
        for g in &self.groups {
            for &e in g {
                if seen.contains(&e) || placement.is_cb(e) {
                    return false;
                }
                seen.push(e);
            }
        }
        true
    }
}

/// One candidate EIR tile of one CB, with what group sampling reads of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) tile: Coord,
    /// Its [`Octant`] as seen from the CB, as an index.
    pub(crate) octant: u8,
    /// Hops beyond the first, `d − 1 ≥ 1`: the draw's weight is its
    /// reciprocal.
    excess: u32,
}

impl Candidate {
    pub(crate) fn new(cb: Coord, tile: Coord) -> Self {
        Candidate {
            tile,
            octant: octant(cb, tile) as u8,
            excess: cb.manhattan(tile).max(2) - 1,
        }
    }

    /// The weighted-shuffle key of the uniform draw `u`: `u^(1/w)` with
    /// weight `w = 1/excess`, i.e. `u^excess`. Two and three hops, all
    /// the paper's budget admits, are multiplications.
    #[inline]
    fn key(&self, u: f64) -> f64 {
        match self.excess {
            1 => u,
            2 => u * u,
            n => u.powf(n as f64),
        }
    }
}

/// Draws a group from `cands`, one CB's candidates in row-major order:
/// every candidate `is_used` rejects is skipped, the rest draw a
/// weighted-shuffle key each and are `pick`ed by index, best key first and
/// one per octant, until `group_size` are taken.
pub(crate) fn sample_group_from(
    cands: &[Candidate],
    group_size: usize,
    is_used: impl Fn(&Candidate) -> bool,
    rng: &mut Rng,
    pick: impl FnMut(usize),
) {
    sample_group_keyed(cands, group_size, is_used, rng, pick, Candidate::key);
}

/// [`sample_group_from`] with the key a function of the candidate and
/// its uniform draw.
#[inline]
fn sample_group_keyed(
    cands: &[Candidate],
    group_size: usize,
    is_used: impl Fn(&Candidate) -> bool,
    rng: &mut Rng,
    mut pick: impl FnMut(usize),
    key_of: impl Fn(&Candidate, f64) -> f64,
) {
    // Walking the candidates by descending key (equal keys in row-major
    // order) and taking each new octant picks, of every octant, only its
    // best-keyed candidate: keep just those.
    const EMPTY: (f64, usize) = (f64::NEG_INFINITY, usize::MAX);
    let mut best = [EMPTY; 8];
    for (j, c) in cands.iter().enumerate() {
        if !is_used(c) {
            // Weighted shuffle via the exponential-sort trick: key =
            // u^(1/w) sorts like sampling without replacement.
            let key = key_of(c, rng.random::<f64>());
            if key > best[c.octant as usize].0 {
                best[c.octant as usize] = (key, j);
            }
        }
    }
    for _ in 0..group_size {
        let filled = best.iter_mut().filter(|b| b.1 != EMPTY.1);
        let earlier = |a: &(f64, usize), b: &(f64, usize)| a.0 > b.0 || (a.0 == b.0 && a.1 < b.1);
        let Some(next) = filled.reduce(|a, b| if earlier(b, a) { b } else { a }) else {
            break;
        };
        pick(next.1);
        *next = EMPTY;
    }
}

/// The search problem: placement plus physical constraints.
#[derive(Debug, Clone)]
pub struct EirProblem {
    /// The CB placement EIRs are selected for.
    pub placement: Placement,
    /// Maximum CB→EIR distance in mesh hops (§4.3 uses 3).
    pub max_hops: u32,
    /// Target EIRs per group (the NI has 4 interposer ports, §4.4).
    pub group_size: usize,
    /// Wire model for link-length limits and costs.
    pub wire: WireModel,
}

impl EirProblem {
    /// Problem with the paper's defaults: ≤3 hops, 4 EIRs per group.
    pub fn new(placement: Placement) -> Self {
        EirProblem {
            placement,
            max_hops: 3,
            group_size: 4,
            wire: WireModel::default(),
        }
    }

    /// Candidate EIR tiles for CB `i`: on-grid, within the hop budget,
    /// outside the CB's *own* hot zone (§3.2.4 — an EIR there would draw
    /// even more traffic into the already-congested DAZ/CAZ; membership in
    /// *other* CBs' zones is discouraged by the load metric rather than
    /// forbidden, since on an 8×8 board with 8 CBs the union of all hot
    /// zones covers nearly every tile), not a CB, and reachable by a
    /// repeater-free wire.
    pub(crate) fn candidates(&self, i: usize) -> Vec<Coord> {
        let p = &self.placement;
        let cb = p.cbs[i];
        let (w, h) = (p.width, p.height);
        let mut out = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let t = Coord::new(x, y);
                let d = cb.manhattan(t);
                if d == 0 || d > self.max_hops {
                    continue;
                }
                if p.is_cb(t) {
                    continue;
                }
                // Outside the own hot zone (§3.2.4).
                if cb.chebyshev(t) <= 1 {
                    continue;
                }
                if !self.wire.fits_one_cycle(&Segment::new(cb, t)) {
                    continue;
                }
                out.push(t);
            }
        }
        out
    }

    /// Samples a legal group for CB `i`: up to `group_size` candidates in
    /// distinct octants, avoiding tiles in `used`.
    ///
    /// Sampling is *distance-biased*: a candidate at hop distance `d` is
    /// drawn with weight `1/(d-1)` (2-hop twice as likely as 3-hop), the
    /// soft analogue of the paper's observation that close-in EIRs bypass
    /// the hot zone with shorter wires and fewer crossings. Three-hop
    /// EIRs remain reachable, so the search can still disagree.
    pub fn sample_group(&self, i: usize, used: &[Coord], rng: &mut Rng) -> Vec<Coord> {
        let cb = self.placement.cbs[i];
        let cands: Vec<Candidate> =
            self.candidates(i).into_iter().map(|tile| Candidate::new(cb, tile)).collect();
        let mut group = Vec::with_capacity(self.group_size);
        let is_used = |c: &Candidate| used.contains(&c.tile);
        sample_group_from(&cands, self.group_size, is_used, rng, |j| group.push(cands[j].tile));
        group
    }

    /// The order in which the search assigns CB groups: scarcest
    /// candidate sets first, so corner/crowded CBs pick their EIRs before
    /// richer CBs consume the shared tiles. Without this, sequential
    /// assignment systematically starves boundary CBs — and one starved
    /// CB paces the whole machine.
    pub(crate) fn cb_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.placement.cbs.len()).collect();
        order.sort_by_key(|&i| self.candidates(i).len());
        order
    }

    /// Completes a partial selection by sampling groups for the remaining
    /// CBs (the MCTS rollout policy). `partial` lists groups for the first
    /// `partial.len()` CBs *in [`EirProblem::cb_order`]*; the returned
    /// selection is indexed by CB as usual.
    pub fn random_completion(
        &self,
        partial: &[Vec<Coord>],
        rng: &mut Rng,
    ) -> EirSelection {
        let order = self.cb_order();
        let n = self.placement.cbs.len();
        let mut groups: Vec<Vec<Coord>> = vec![Vec::new(); n];
        let mut used: Vec<Coord> = Vec::new();
        for (d, &cb) in order.iter().enumerate() {
            let g = if d < partial.len() {
                partial[d].clone()
            } else {
                self.sample_group(cb, &used, rng)
            };
            used.extend(&g);
            groups[cb] = g;
        }
        EirSelection { groups }
    }

    /// Deterministic RNG for a seed (all searches in this crate are
    /// reproducible).
    pub fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_placement::select::best_nqueen_placement;

    fn problem() -> EirProblem {
        EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0))
    }

    #[test]
    fn octants_cover_all_directions() {
        let c = Coord::new(3, 3);
        assert_eq!(octant(c, Coord::new(3, 1)), Octant::N);
        assert_eq!(octant(c, Coord::new(5, 2)), Octant::Ne);
        assert_eq!(octant(c, Coord::new(6, 3)), Octant::E);
        assert_eq!(octant(c, Coord::new(4, 4)), Octant::Se);
        assert_eq!(octant(c, Coord::new(3, 7)), Octant::S);
        assert_eq!(octant(c, Coord::new(1, 5)), Octant::Sw);
        assert_eq!(octant(c, Coord::new(0, 3)), Octant::W);
        assert_eq!(octant(c, Coord::new(2, 2)), Octant::Nw);
    }

    #[test]
    fn candidates_respect_constraints() {
        let p = problem();
        for (i, &cb) in p.placement.cbs.iter().enumerate() {
            let cands = p.candidates(i);
            assert!(!cands.is_empty(), "CB {i} has no candidates");
            for c in cands {
                assert!(cb.chebyshev(c) >= 2, "{c} inside hot zone of own CB");
                assert!(cb.manhattan(c) >= 2 && cb.manhattan(c) <= 3);
                assert!(!p.placement.is_cb(c));
            }
        }
    }

    /// A candidate's hop excess `n = d − 1` is the exponent of its sampling
    /// key, the reciprocal of its weight `1/n`; for every excess the
    /// candidate rules admit, at any hop budget, that round trip is exact.
    #[test]
    fn every_admissible_hop_excess_survives_the_weight_round_trip() {
        // One CB in the middle of a board wider than any wire reaches.
        let cb = Coord::new(16, 16);
        let p = EirProblem {
            max_hops: u32::MAX,
            ..EirProblem::new(Placement::new(33, 33, vec![cb], equinox_placement::PlacementKind::NQueen))
        };
        let excesses: Vec<u32> = p.candidates(0).iter().map(|&t| cb.manhattan(t) - 1).collect();
        let (lo, hi) = (*excesses.iter().min().unwrap(), *excesses.iter().max().unwrap());
        assert_eq!((lo, hi), (1, 3), "the hot zone ends at 2 hops, the wire at the 2x2 diagonal");
        for n in lo..=hi {
            let n = n as f64;
            assert_eq!(1.0 / (1.0 / n), n);
        }
        // The first excess where it fails needs a wire 50 hops long.
        assert!((1..49).all(|n| 1.0 / (1.0 / n as f64) == n as f64));
        assert_ne!(1.0 / (1.0 / 49.0_f64), 49.0);
    }

    /// The key as `powf` of the weight's reciprocal, `u^(1/(1/n))`, which
    /// is what the sampler computed before its keys were integer powers.
    fn powf_key(c: &Candidate, u: f64) -> f64 {
        u.powf(1.0 / (1.0 / c.excess as f64))
    }

    /// `u * u` and libm's `pow(u, 2)` can differ in the last bit, which
    /// could reorder two keys of one octant only were they within one ULP
    /// of each other: over 10⁶ group draws the integer-power keys pick
    /// exactly what the `powf` keys pick.
    #[test]
    fn integer_power_keys_pick_what_powf_keys_pick() {
        let best8 = || EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0));
        let problems = [
            best8(),
            EirProblem { max_hops: 2, group_size: 1, ..best8() },
            EirProblem { max_hops: 4, group_size: 6, ..best8() },
            EirProblem::new(Placement::diamond(8, 8, 8)),
            EirProblem { max_hops: 4, ..EirProblem::new(Placement::diamond(8, 8, 8)) },
        ];
        // Every CB's candidates, with its problem's group size.
        let lists: Vec<(Vec<Candidate>, usize)> = problems
            .iter()
            .flat_map(|p| {
                (0..p.placement.cbs.len()).map(move |i| {
                    let cb = p.placement.cbs[i];
                    (p.candidates(i).into_iter().map(|t| Candidate::new(cb, t)).collect(), p.group_size)
                })
            })
            .collect();
        let (mut uses, mut fast, mut slow) = (EirProblem::rng(1), EirProblem::rng(2), EirProblem::rng(2));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for draw in 0..1_000_000 {
            let (cands, group_size) = &lists[draw % lists.len()];
            // About a quarter of the tiles in use.
            let in_use = uses.random::<u64>() & uses.random::<u64>();
            let is_used = |c: &Candidate| in_use >> c.tile.to_index(8) & 1 == 1;
            sample_group_from(cands, *group_size, is_used, &mut fast, |j| a.push(j));
            sample_group_keyed(cands, *group_size, is_used, &mut slow, |j| b.push(j), powf_key);
            assert_eq!(a, b, "draw {draw}");
            a.clear();
            b.clear();
        }
    }

    #[test]
    fn sampled_groups_are_direction_diverse_and_exclusive() {
        let p = problem();
        let mut rng = EirProblem::rng(7);
        let sel = p.random_completion(&[], &mut rng);
        assert_eq!(sel.groups.len(), 8);
        assert!(sel.is_exclusive(&p.placement));
        for (i, g) in sel.groups.iter().enumerate() {
            assert!(g.len() <= 4);
            assert!(!g.is_empty(), "group {i} empty");
            let mut octs: Vec<Octant> =
                g.iter().map(|&e| octant(p.placement.cbs[i], e)).collect();
            let n = octs.len();
            octs.dedup();
            // dedup only removes adjacent; do full unique check:
            let mut octs2: Vec<Octant> =
                g.iter().map(|&e| octant(p.placement.cbs[i], e)).collect();
            octs2.sort_by_key(|o| *o as u8);
            octs2.dedup();
            assert_eq!(octs2.len(), n, "octant reuse in group {i}");
        }
    }

    #[test]
    fn segments_match_total() {
        let p = problem();
        let mut rng = EirProblem::rng(3);
        let sel = p.random_completion(&[], &mut rng);
        assert_eq!(sel.segments(&p.placement).len(), sel.total_eirs());
    }

    #[test]
    fn completion_respects_partial_prefix() {
        let p = problem();
        let mut rng = EirProblem::rng(11);
        let order = p.cb_order();
        let first = p.sample_group(order[0], &[], &mut rng);
        let sel = p.random_completion(std::slice::from_ref(&first), &mut rng);
        assert_eq!(sel.groups[order[0]], first);
    }

    #[test]
    fn cb_order_is_scarcity_sorted_permutation() {
        let p = problem();
        let order = p.cb_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        for w in order.windows(2) {
            assert!(p.candidates(w[0]).len() <= p.candidates(w[1]).len());
        }
    }

    #[test]
    #[should_panic(expected = "identical tiles")]
    fn octant_of_self_panics() {
        let c = Coord::new(1, 1);
        let _ = octant(c, c);
    }
}
