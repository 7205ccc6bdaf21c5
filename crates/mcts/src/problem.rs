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
    pub(crate) fn key(&self, u: f64) -> f64 {
        match self.excess {
            1 => u,
            2 => u * u,
            n => u.powf(n as f64),
        }
    }
}

/// Each octant's best weighted-shuffle key and the row-major position of
/// the candidate that drew it, [`NO_WINNER`] where no candidate was free.
type Winners = [(f64, usize); 8];

/// An octant without a free candidate: its key is below every drawn one.
const NO_WINNER: (f64, usize) = (f64::NEG_INFINITY, usize::MAX);

/// Keeps `key`, drawn by the candidate at row-major position `at`, in
/// `best[slot]` if it beats the best there so far; an earlier position
/// keeps a tie. Which of two uniform keys is larger is a coin toss no
/// branch predictor learns, so this selects rather than branches.
#[inline]
fn offer(best: &mut Winners, slot: u8, key: f64, at: usize) {
    let b = &mut best[slot as usize];
    *b = if key > b.0 { (key, at) } else { *b };
}

/// The indices of `best`'s winners in pick order, best key first and
/// equal keys by position, and how many winners there are. Walking the
/// candidates by descending key and taking each new octant picks exactly
/// this order, so a group is its first `group_size` entries. A winner's
/// rank is the number of winners ahead of it, counted without a branch on
/// the keys' bits (a drawn key is at least +0, where bit order is value
/// order, and −∞'s bits are below them as an `i64`). An empty entry is
/// ahead of none and lands after every winner.
#[inline]
fn rank_winners(best: &[(f64, usize)]) -> ([u8; 8], usize) {
    let ahead = |b: &(f64, usize), a: &(f64, usize)| {
        let (kb, ka) = (b.0.to_bits() as i64, a.0.to_bits() as i64);
        ((kb > ka) | ((kb == ka) & (b.1 < a.1))) as usize
    };
    let mut order = [0; 8];
    for (i, a) in best.iter().enumerate() {
        order[best.iter().map(|b| ahead(b, a)).sum::<usize>() % 8] = i as u8;
    }
    (order, best.iter().filter(|b| b.1 != NO_WINNER.1).count())
}

/// Most candidates a packed draw tells apart: a packed word holds a
/// winner's position in six bits.
pub(crate) const MAX_PACKED: usize = 64;

/// The key `key` in [0, 1), drawn by the candidate at row-major position
/// `at` < [`MAX_PACKED`], as one word that orders like the pair: the key's
/// bits without their low four, plus one, above `63 − at`. A key in
/// [0, 1) has bits below 2⁶², so the word fits, and the plus one keeps it
/// above 0, the empty octant. A larger word is a larger key or, on equal
/// truncated keys, an earlier position; keys that differ only in their
/// low four bits are the case where the word's order can be wrong.
#[inline]
fn pack(key: f64, at: usize) -> u64 {
    debug_assert!((0.0..1.0).contains(&key) && at < MAX_PACKED, "{key} at {at}");
    ((key.to_bits() >> 4) + 1) << 6 | (63 - at) as u64
}

/// The position a packed word was drawn at.
#[inline]
fn unpack(word: u64) -> usize {
    63 - (word & 63) as usize
}

/// Whether two packed words hold equal truncated keys.
#[inline]
fn same_key(a: u64, b: u64) -> bool {
    (a ^ b) >> 6 == 0
}

/// `words` in descending order, by an optimal sorting network on eight
/// inputs: 19 compare-exchanges in six layers, each a `max` and a `min`
/// on constant indices, so the sort has no branch on the keys and keeps
/// the words in registers.
#[inline]
fn sort_descending(mut w: [u64; 8]) -> [u64; 8] {
    macro_rules! exchange {
        ($(($i:literal, $j:literal))*) => {
            $(
                let (a, b) = (w[$i], w[$j]);
                w[$i] = a.max(b);
                w[$j] = a.min(b);
            )*
        };
    }
    exchange!((0, 2) (1, 3) (4, 6) (5, 7));
    exchange!((0, 4) (1, 5) (2, 6) (3, 7));
    exchange!((0, 1) (2, 3) (4, 5) (6, 7));
    exchange!((2, 4) (3, 5));
    exchange!((1, 4) (3, 6));
    exchange!((1, 2) (3, 4) (5, 6));
    w
}

/// The row-major positions of a draw's winners, in pick order where the
/// draw ranked them, and how many winners there are.
pub(crate) type Picks = ([usize; 8], usize);

/// Draws a key for every candidate of `cands` that `is_used` does not
/// reject, in row-major order, and keeps each octant's best: the
/// winners, best key first and equal keys by position where `ranked`,
/// and in octant order otherwise. Each octant's best is kept as one
/// packed word and the winners are ranked by a sorting network on those
/// words. Where the words cannot tell two keys apart (equal truncated
/// keys in one octant, or between winners the sort makes neighbours) or
/// a position would not fit (more than [`MAX_PACKED`] candidates), the
/// generator is restored and the draw re-run on the f64 keys, so the
/// picks and the generator state after are those of [`draw_f64`] either
/// way. Debug builds run [`draw_f64`] on every draw and assert both.
#[inline]
pub(crate) fn draw_winners(
    cands: &[Candidate],
    is_used: impl Fn(&Candidate) -> bool,
    rng: &mut Rng,
    key_of: impl Fn(&Candidate, f64) -> f64,
    ranked: bool,
) -> Picks {
    let before = rng.clone();
    let packed = if cands.len() <= MAX_PACKED {
        draw_packed(cands, &is_used, rng, &key_of, ranked)
    } else {
        None
    };
    let Some(picks) = packed else {
        *rng = before;
        return draw_f64(cands, is_used, rng, key_of);
    };
    if cfg!(debug_assertions) {
        let mut again = before;
        let (mut slow, mut fast) = (draw_f64(cands, is_used, &mut again, key_of), picks);
        if !ranked {
            slow.0[..slow.1].sort_unstable();
            fast.0[..fast.1].sort_unstable();
        }
        assert_eq!(&fast.0[..fast.1], &slow.0[..slow.1], "a packed draw picks what the f64 draw picks");
        assert_eq!(again, *rng, "a packed draw draws what the f64 draw draws");
    }
    picks
}

/// [`draw_winners`] on packed words; `None` where they cannot tell two
/// keys apart.
#[inline]
fn draw_packed(
    cands: &[Candidate],
    is_used: impl Fn(&Candidate) -> bool,
    rng: &mut Rng,
    key_of: impl Fn(&Candidate, f64) -> f64,
    ranked: bool,
) -> Option<Picks> {
    let mut best = [0u64; 8];
    let mut tie = false;
    for (at, c) in cands.iter().enumerate() {
        if !is_used(c) {
            let word = pack(key_of(c, rng.random::<f64>()), at);
            let b = &mut best[c.octant as usize & 7];
            tie |= same_key(*b, word);
            *b = (*b).max(word);
        }
    }
    if ranked {
        best = sort_descending(best);
        // Words with one truncated key are neighbours once sorted; two
        // empty octants tie harmlessly.
        tie |= (1..8).fold(false, |t, i| t | (same_key(best[i - 1], best[i]) & (best[i] != 0)));
    }
    if tie {
        return None;
    }
    let (mut picks, mut n) = ([0; 8], 0);
    for word in best {
        picks[n] = unpack(word);
        n += (word != 0) as usize;
    }
    Some((picks, n))
}

/// [`draw_winners`] on f64 keys, ranked by [`rank_winners`]: its fallback,
/// and what its debug check and the tests compare the packed draws with.
pub(crate) fn draw_f64(
    cands: &[Candidate],
    is_used: impl Fn(&Candidate) -> bool,
    rng: &mut Rng,
    key_of: impl Fn(&Candidate, f64) -> f64,
) -> Picks {
    let mut best = [NO_WINNER; 8];
    for (j, c) in cands.iter().enumerate() {
        if !is_used(c) {
            // Weighted shuffle via the exponential-sort trick: key =
            // u^(1/w) sorts like sampling without replacement.
            offer(&mut best, c.octant, key_of(c, rng.random::<f64>()), j);
        }
    }
    let (order, n) = rank_winners(&best);
    (order.map(|o| best[o as usize].1), n)
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
    pick: impl FnMut(usize),
    key_of: impl Fn(&Candidate, f64) -> f64,
) {
    let (picks, n) = draw_winners(cands, is_used, rng, key_of, true);
    picks[..n.min(group_size)].iter().copied().for_each(pick);
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

/// Key functions whose keys tie, for the tests of the packed draws.
#[cfg(test)]
pub(crate) mod tie_keys {
    use super::Candidate;

    /// Keys equal at full precision: a quarter of the draws' keys each.
    pub(crate) fn quarters(_: &Candidate, u: f64) -> f64 {
        (u * 4.0).floor() / 4.0
    }

    /// Keys one of four values in their high bits and random in their low
    /// four, so that they are equal only after `>> 4`, where the packed
    /// order is by position and the f64 order by those four bits.
    pub(crate) fn low_bits(_: &Candidate, u: f64) -> f64 {
        let high = 0.5 + (u * 4.0).floor() / 8.0;
        f64::from_bits(high.to_bits() | ((u * 65_536.0) as u64 & 0xF))
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

    /// The picks as the sampler made them before winners were ranked by
    /// count: `group_size` passes, each reducing the winners left to the
    /// best key, equal keys by index.
    fn picks_by_reduce(best: &Winners, group_size: usize) -> Vec<usize> {
        let mut best = *best;
        let mut picks = Vec::new();
        for _ in 0..group_size {
            let filled = best.iter_mut().filter(|b| b.1 != NO_WINNER.1);
            let earlier = |a: &(f64, usize), b: &(f64, usize)| a.0 > b.0 || (a.0 == b.0 && a.1 < b.1);
            let Some(next) = filled.reduce(|a, b| if earlier(b, a) { b } else { a }) else {
                break;
            };
            picks.push(next.1);
            *next = NO_WINNER;
        }
        picks
    }

    /// Ranking the winners by one count picks what `group_size` reduce
    /// passes picked, for every group size up to past eight, with some
    /// octants empty and ties in key broken by index.
    #[test]
    fn counted_ranks_pick_what_reduce_passes_pick() {
        let mut rng = EirProblem::rng(5);
        for case in 0..100_000 {
            let mut best = [NO_WINNER; 8];
            for (o, b) in best.iter_mut().enumerate() {
                match rng.random_range(0..4u32) {
                    0 => {}
                    // Few distinct keys, so that ties are common.
                    1 => *b = (rng.random_range(0..3u32) as f64 / 4.0, o * 7),
                    _ => *b = (rng.random::<f64>(), 63 - o * 5),
                }
            }
            let (order, n) = rank_winners(&best);
            for group_size in 0..10 {
                let counted: Vec<usize> = order[..n.min(group_size)].iter().map(|&o| best[o as usize].1).collect();
                assert_eq!(counted, picks_by_reduce(&best, group_size), "case {case}, {best:?}");
            }
        }
    }

    /// The sorting network sorts every input of zeros and ones, so by the
    /// zero-one principle it sorts every input; and random words too.
    #[test]
    fn the_sorting_network_sorts_every_input() {
        for bits in 0..256u64 {
            let words: [u64; 8] = std::array::from_fn(|i| bits >> i & 1);
            let mut want = words;
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(sort_descending(words), want, "{bits:08b}");
        }
        let mut rng = EirProblem::rng(9);
        for _ in 0..10_000 {
            let words: [u64; 8] = std::array::from_fn(|_| rng.random::<u64>() >> rng.random_range(0..64u32));
            let mut want = words;
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(sort_descending(words), want);
        }
    }

    /// `sample_group_keyed` with every winner taken picks what
    /// [`draw_f64`] picks from the same generator state, in the same
    /// order, and leaves the same state; returns whether the packed words
    /// told every key apart and how many winners there were.
    fn assert_sampled_as_f64(
        cands: &[Candidate],
        is_used: impl Fn(&Candidate) -> bool + Copy,
        rng: &mut Rng,
        key_of: impl Fn(&Candidate, f64) -> f64 + Copy,
    ) -> (bool, usize) {
        let (mut slow, mut probe) = (rng.clone(), rng.clone());
        let packed = cands.len() <= MAX_PACKED && draw_packed(cands, is_used, &mut probe, key_of, true).is_some();
        let mut picks = Vec::new();
        sample_group_keyed(cands, 8, is_used, rng, |j| picks.push(j), key_of);
        let (want, n) = draw_f64(cands, is_used, &mut slow, key_of);
        assert_eq!(picks, want[..n], "{} candidates", cands.len());
        assert_eq!(*rng, slow, "the same draws");
        (packed, n)
    }

    /// Through ties at full precision and ties only after `>> 4`, with
    /// octants emptied and fewer than eight winners, the group sampler
    /// picks what the f64 draw picks and leaves the generator where it
    /// leaves it: the packed words fall back wherever they cannot tell
    /// two keys apart.
    #[test]
    fn packed_draws_pick_what_f64_draws_pick_through_ties() {
        let best8 = || EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0));
        let problems = [
            best8(),
            EirProblem { max_hops: 2, ..best8() },
            EirProblem { max_hops: 4, ..best8() },
            EirProblem::new(Placement::diamond(8, 8, 8)),
        ];
        let lists: Vec<Vec<Candidate>> = problems
            .iter()
            .flat_map(|p| {
                (0..p.placement.cbs.len()).map(move |i| {
                    let cb = p.placement.cbs[i];
                    p.candidates(i).into_iter().map(|t| Candidate::new(cb, t)).collect()
                })
            })
            .collect();
        let keys: [fn(&Candidate, f64) -> f64; 3] = [Candidate::key, tie_keys::quarters, tie_keys::low_bits];
        let mut uses = EirProblem::rng(1);
        let mut rng = EirProblem::rng(2);
        // Per key: draws the packed words refused, draws with an octant
        // left empty (fewer than eight winners), draws with no winner.
        let mut seen = [[0usize; 3]; 3];
        for draw in 0..60_000 {
            let cands = &lists[draw % lists.len()];
            let in_use = uses.random::<u64>() & uses.random::<u64>();
            // Now and then whole octants in use as well.
            let gone = uses.random::<u64>() & uses.random::<u64>() & uses.random::<u64>();
            let is_used = |c: &Candidate| in_use >> c.tile.to_index(8) & 1 == 1 || gone >> c.octant & 1 == 1;
            for (k, &key_of) in keys.iter().enumerate() {
                let (packed, n) = assert_sampled_as_f64(cands, is_used, &mut rng, key_of);
                seen[k][0] += !packed as usize;
                seen[k][1] += (n < 8) as usize;
                seen[k][2] += (n == 0) as usize;
            }
        }
        assert_eq!(seen[0][0], 0, "uniform keys never tie: {seen:?}");
        assert!(seen[1][0] > 10_000 && seen[2][0] > 10_000, "ties fall back: {seen:?}");
        assert!(seen.iter().all(|s| s[1] > 10_000 && s[2] > 100), "{seen:?}");
    }

    /// A problem where some CB has more candidates than a packed word
    /// tells apart: a 7-hop budget and a wire long enough for it, on
    /// 12×12.
    fn wide_problem() -> EirProblem {
        EirProblem {
            max_hops: 7,
            wire: equinox_phys::WireModel {
                max_single_cycle_mm: 100.0,
                ..Default::default()
            },
            ..EirProblem::new(best_nqueen_placement(12, 12, 500, 0))
        }
    }

    /// Winners at positions 0 and 63 pack and unpack; a list one longer
    /// than a packed word holds is drawn on the f64 keys; and the public
    /// sampler on a CB with more than 64 candidates, which a tree search
    /// refuses by name, picks what the f64 draw picks.
    #[test]
    fn the_first_and_last_packed_positions_and_longer_lists_draw_as_f64() {
        let p = wide_problem();
        let (i, tiles) = (0..p.placement.cbs.len())
            .map(|i| (i, p.candidates(i)))
            .max_by_key(|(_, tiles)| tiles.len())
            .unwrap();
        assert!(tiles.len() > MAX_PACKED + 1, "{} candidates", tiles.len());
        let cb = p.placement.cbs[i];
        let cands: Vec<Candidate> = tiles.iter().map(|&t| Candidate::new(cb, t)).collect();
        let (ends, longer) = (&cands[..MAX_PACKED], &cands[..MAX_PACKED + 1]);
        assert_ne!(ends[0].octant, ends[MAX_PACKED - 1].octant);
        // The two ends outdraw every other candidate.
        let (first, last) = (ends[0].tile, ends[MAX_PACKED - 1].tile);
        let ends_win = move |c: &Candidate, u: f64| if c.tile == first || c.tile == last { 0.5 + u / 2.0 } else { u / 2.0 };
        let mut rng = EirProblem::rng(3);
        for _ in 0..1_000 {
            let mut picks = Vec::new();
            let mut probe = rng.clone();
            assert!(draw_packed(ends, |_| false, &mut probe, ends_win, true).is_some());
            sample_group_keyed(ends, 8, |_| false, &mut rng, |j| picks.push(j), ends_win);
            assert!(picks[..2].contains(&0) && picks[..2].contains(&(MAX_PACKED - 1)), "{picks:?}");
            assert_sampled_as_f64(ends, |_| false, &mut rng, ends_win);
            assert_sampled_as_f64(longer, |_| false, &mut rng, Candidate::key);
            assert_sampled_as_f64(&cands, |_| false, &mut rng, tie_keys::low_bits);
        }
        // The public sampler, with some tiles in use.
        let mut uses = EirProblem::rng(4);
        for _ in 0..1_000 {
            let used: Vec<Coord> = tiles.iter().copied().filter(|_| uses.random_range(0..4u32) == 0).collect();
            let mut slow = rng.clone();
            let group = p.sample_group(i, &used, &mut rng);
            let (want, n) = draw_f64(&cands, |c| used.contains(&c.tile), &mut slow, Candidate::key);
            let want: Vec<Coord> = want[..n.min(p.group_size)].iter().map(|&j| cands[j].tile).collect();
            assert_eq!(group, want);
            assert_eq!(rng, slow, "the same draws");
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
