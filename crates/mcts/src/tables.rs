//! What one search tabulates once and then only reads.
//!
//! MCTS, its refine pass, GA and SA all work on the same [`Tables`]: each
//! CB's candidate list, the assignment order, and the evaluator's tables
//! over every candidate wire. They hold selections as candidate ids (see
//! [`EvalTables`]) and share the [`Scratch`] buffers, so the hot loops
//! rescan no tiles and allocate nothing. The tree draws and keeps its
//! sampled options through a [`Pool`].

use crate::eval::{EvalScratch, EvalTables, EvalWeights, Evaluation, NONE};
use crate::problem::{draw_winners, sample_group_from, Candidate, EirProblem, EirSelection};
use equinox_exec::Rng;
use equinox_phys::Coord;

/// The tables of one [`EirProblem`].
pub(crate) struct Tables {
    eval: EvalTables,
    /// [`EirProblem::cb_order`].
    pub(crate) order: Vec<usize>,
    /// Every CB's candidates, by id.
    cands: Vec<Candidate>,
    group_size: usize,
    width: u16,
    height: u16,
}

/// A set of tiles of the mesh, as a bitset in row-major order.
pub(crate) struct TileSet {
    width: u16,
    words: Vec<u64>,
}

impl TileSet {
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    pub(crate) fn insert(&mut self, tile: Coord) {
        let i = tile.to_index(self.width);
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, tile: Coord) {
        let i = tile.to_index(self.width);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, tile: Coord) -> bool {
        let i = tile.to_index(self.width);
        self.words[i / 64] & 1 << (i % 64) != 0
    }
}

/// The buffers a search reuses from iteration to iteration.
pub(crate) struct Scratch {
    /// Tiles taken so far in the selection being built.
    pub(crate) used: TileSet,
    eval: EvalScratch,
}

impl Tables {
    pub(crate) fn new(problem: &EirProblem) -> Self {
        let p = &problem.placement;
        let lists: Vec<Vec<Coord>> = (0..p.cbs.len()).map(|i| problem.candidates(i)).collect();
        let mut order: Vec<usize> = (0..lists.len()).collect();
        order.sort_by_key(|&i| lists[i].len());
        let cands = lists
            .iter()
            .zip(&p.cbs)
            .flat_map(|(l, &cb)| l.iter().map(move |&tile| Candidate::new(cb, tile)))
            .collect();
        Tables {
            // A zero `group_size` still gets a slot, so that an id
            // selection always has a slice per CB.
            eval: EvalTables::new(problem, &lists, problem.group_size.max(1)),
            order,
            cands,
            group_size: problem.group_size,
            width: p.width,
            height: p.height,
        }
    }

    pub(crate) fn scratch(&self) -> Scratch {
        let tiles = self.width as usize * self.height as usize;
        Scratch {
            used: TileSet {
                width: self.width,
                words: vec![0; tiles.div_ceil(64)],
            },
            eval: self.eval.scratch(),
        }
    }

    pub(crate) fn n_cbs(&self) -> usize {
        self.order.len()
    }

    /// The problem's target EIRs per group.
    pub(crate) fn group_size(&self) -> usize {
        self.group_size
    }

    /// Ids per CB in a selection (`group_size`, at least one).
    pub(crate) fn stride(&self) -> usize {
        self.eval.stride()
    }

    /// A selection with every group empty.
    pub(crate) fn empty_selection(&self) -> Vec<u16> {
        vec![NONE; self.n_cbs() * self.stride()]
    }

    /// CB `i`'s group in the selection `ids`.
    pub(crate) fn group<'a>(&self, ids: &'a [u16], i: usize) -> &'a [u16] {
        self.eval.group(ids, i)
    }

    /// CB `i`'s `stride` slots in the selection `ids`.
    pub(crate) fn slots<'a>(&self, ids: &'a mut [u16], i: usize) -> &'a mut [u16] {
        &mut ids[i * self.stride()..][..self.stride()]
    }

    /// CB `i`'s candidates with their ids, in row-major order.
    pub(crate) fn candidates(&self, i: usize) -> impl Iterator<Item = (u16, &Candidate)> {
        let ids = self.eval.ids_of(i);
        (ids.start as u16..).zip(&self.cands[ids])
    }

    pub(crate) fn candidate(&self, id: u16) -> &Candidate {
        &self.cands[id as usize]
    }

    /// Adds the tiles of `ids` (a group's slots or a whole selection) to
    /// `used`.
    pub(crate) fn mark_used(&self, ids: &[u16], used: &mut TileSet) {
        for &id in ids.iter().filter(|&&id| id != NONE) {
            used.insert(self.candidate(id).tile);
        }
    }

    /// Samples a group for CB `i` into its `slots`, avoiding `used`:
    /// [`EirProblem::sample_group`] on ids.
    pub(crate) fn sample_group(&self, i: usize, slots: &mut [u16], used: &TileSet, rng: &mut Rng) {
        let ids = self.eval.ids_of(i);
        let first = ids.start;
        let mut taken = 0;
        slots.fill(NONE);
        sample_group_from(&self.cands[ids], self.group_size, |c| used.contains(c.tile), rng, |j| {
            slots[taken] = (first + j) as u16;
            taken += 1;
        });
    }

    /// Samples groups for the CBs after the first `fixed` in assignment
    /// order (the MCTS rollout policy, [`EirProblem::random_completion`] on
    /// ids). `s.used` must hold the tiles of the groups already fixed and
    /// ends up holding the whole selection's.
    pub(crate) fn complete(&self, ids: &mut [u16], fixed: usize, s: &mut Scratch, rng: &mut Rng) {
        for &cb in &self.order[fixed..] {
            let slots = self.slots(ids, cb);
            self.sample_group(cb, slots, &s.used, rng);
            self.mark_used(slots, &mut s.used);
        }
    }

    /// A selection drawn group by group from nothing.
    pub(crate) fn random_selection(&self, s: &mut Scratch, rng: &mut Rng) -> Vec<u16> {
        let mut ids = self.empty_selection();
        s.used.clear();
        self.complete(&mut ids, 0, s, rng);
        ids
    }

    pub(crate) fn evaluate(&self, ids: &[u16], weights: &EvalWeights, s: &mut Scratch) -> Evaluation {
        self.eval.evaluate(ids, weights, &mut s.eval)
    }

    /// [`Tables::evaluate`] without the term cache (see
    /// [`EvalTables::evaluate_uncached`]).
    pub(crate) fn evaluate_uncached(&self, ids: &[u16], weights: &EvalWeights, s: &mut Scratch) -> Evaluation {
        self.eval.evaluate_uncached(ids, weights, &mut s.eval)
    }

    /// The selection `ids` as tiles.
    pub(crate) fn selection(&self, ids: &[u16]) -> EirSelection {
        let tiles = |i| self.group(ids, i).iter().map(|&id| self.candidate(id).tile).collect();
        EirSelection {
            groups: (0..self.n_cbs()).map(tiles).collect(),
        }
    }
}

/// Most candidates one CB may have in a tree search: an option is a `u64`
/// mask over them.
const MAX_POOLED: usize = 64;

/// How the tree draws and keeps its options. An option is a `u64` mask
/// over one CB's candidates in tile order (bit `b` is its `b`-th candidate
/// by [`Coord`] order), so telling a duplicate is one integer compare and
/// its ids come out in the tile order a kept group is stored in. Each
/// expansion gathers the free candidates of the CB it leaves next once
/// ([`Pool::fill`]) and draws every option from them ([`Pool::draw`]).
pub(crate) struct Pool {
    /// Every candidate's bit in its CB's mask, by id.
    bit: Vec<u8>,
    /// Every CB's candidate ids in tile order, laid out like the ids.
    by_tile: Vec<u16>,
    /// The free candidates of the CB being expanded, in row-major order.
    members: Vec<Candidate>,
    /// Each member's bit in the CB's mask.
    member_bits: Vec<u8>,
    /// How many octants the members cover: each draw has a winner in
    /// every one of them.
    covered: usize,
    group_size: usize,
}

impl Pool {
    /// # Panics
    ///
    /// If a CB has more than [`MAX_POOLED`] candidates.
    pub(crate) fn new(t: &Tables) -> Self {
        let mut bit = vec![0; t.cands.len()];
        let mut by_tile = Vec::with_capacity(bit.len());
        for i in 0..t.n_cbs() {
            let ids = t.eval.ids_of(i);
            let n = ids.len();
            assert!(
                n <= MAX_POOLED,
                "CB {i} has {n} candidate EIR tiles; a tree search keeps an option as a {MAX_POOLED}-bit mask over one CB's candidates"
            );
            let at = by_tile.len();
            by_tile.extend(ids.map(|id| id as u16));
            by_tile[at..].sort_unstable_by_key(|&id| t.candidate(id).tile);
            for (b, &id) in by_tile[at..].iter().enumerate() {
                bit[id as usize] = b as u8;
            }
        }
        Pool {
            bit,
            by_tile,
            members: Vec::with_capacity(MAX_POOLED),
            member_bits: Vec::with_capacity(MAX_POOLED),
            covered: 0,
            group_size: t.group_size,
        }
    }

    /// Gathers CB `i`'s candidates outside `used` for the draws that
    /// follow.
    pub(crate) fn fill(&mut self, t: &Tables, i: usize, used: &TileSet) {
        self.members.clear();
        self.member_bits.clear();
        let mut covered = 0u8;
        for id in t.eval.ids_of(i).filter(|&id| !used.contains(t.cands[id].tile)) {
            self.members.push(t.cands[id]);
            self.member_bits.push(self.bit[id]);
            covered |= 1 << t.cands[id].octant;
        }
        self.covered = covered.count_ones() as usize;
    }

    /// Draws one option from the members: a uniform each, exactly the
    /// draws [`Tables::sample_group`] makes with the same tiles in use,
    /// and the group it would pick as a mask. Every covered octant has a
    /// winner, so with no more of them than `group_size` all are kept
    /// unranked.
    pub(crate) fn draw(&self, rng: &mut Rng) -> u64 {
        self.draw_keyed(rng, Candidate::key)
    }

    /// [`Pool::draw`] with the key a function of the candidate and its
    /// uniform draw.
    #[inline]
    fn draw_keyed(&self, rng: &mut Rng, key_of: impl Fn(&Candidate, f64) -> f64) -> u64 {
        let ranked = self.covered > self.group_size;
        let (picks, n) = draw_winners(&self.members, |_| false, rng, key_of, ranked);
        picks[..n.min(self.group_size)].iter().fold(0, |mask, &at| mask | 1 << self.member_bits[at])
    }

    /// The ids of CB `i`'s option `mask`, in tile order.
    pub(crate) fn ids(&self, t: &Tables, i: usize, mask: u64) -> impl Iterator<Item = u16> + '_ {
        let by_tile = &self.by_tile[t.eval.ids_of(i)];
        let mut rest = mask;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                by_tile[b]
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{draw_f64, tie_keys};
    use equinox_placement::select::best_nqueen_placement;
    use equinox_placement::Placement;

    fn problems() -> Vec<EirProblem> {
        let best8 = || EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0));
        vec![
            best8(),
            EirProblem::new(best_nqueen_placement(12, 12, 500, 0)),
            EirProblem::new(best_nqueen_placement(8, 12, usize::MAX, 0)),
            EirProblem::new(Placement::diamond(8, 8, 8)),
            EirProblem { max_hops: 4, group_size: 6, ..best8() },
            EirProblem { group_size: 0, ..best8() },
        ]
    }

    #[test]
    fn cached_lists_and_order_equal_the_problem() {
        for p in problems() {
            let t = Tables::new(&p);
            assert_eq!(t.order, p.cb_order());
            for i in 0..t.n_cbs() {
                let cached: Vec<Coord> = t.candidates(i).map(|(_, c)| c.tile).collect();
                assert_eq!(cached, p.candidates(i), "CB {i}");
                assert!(t.candidates(i).all(|(id, c)| t.candidate(id).tile == c.tile));
            }
        }
    }

    /// The id-space sampler and rollout draw what the public
    /// coordinate-space ones draw from the same generator state.
    #[test]
    fn sampling_on_ids_equals_sampling_on_tiles() {
        for p in problems() {
            let t = Tables::new(&p);
            let mut s = t.scratch();
            for seed in 0..40 {
                let (mut on_ids, mut on_tiles) = (EirProblem::rng(seed), EirProblem::rng(seed));
                let ids = t.random_selection(&mut s, &mut on_ids);
                let sel = p.random_completion(&[], &mut on_tiles);
                assert_eq!(t.selection(&ids), sel);

                // One more group for the first CB, the rest still in use.
                let used: Vec<Coord> = sel.groups[1..].iter().flatten().copied().collect();
                s.used.clear();
                t.mark_used(&ids[t.stride()..], &mut s.used);
                let mut slots = vec![NONE; t.stride()];
                t.sample_group(0, &mut slots, &s.used, &mut on_ids);
                let tiles: Vec<Coord> =
                    slots.iter().filter(|&&id| id != NONE).map(|&id| t.candidate(id).tile).collect();
                assert_eq!(tiles, p.sample_group(0, &used, &mut on_tiles));
            }
        }
    }

    /// Pins both group draws bit for bit: FNV-1a over the masks of 102 000
    /// [`Pool::draw`] calls and over the pick order of 102 000
    /// [`Tables::sample_group`] calls, three of each per fill, round-robin
    /// over [`problems`], each fill for a random CB with about a quarter
    /// of its board's tiles in use. `golden_search.txt` reaches tree
    /// options only through the selections its searches end with.
    #[test]
    fn pooled_masks_and_sampled_picks_match_their_digests() {
        let fnv = |hash: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *hash = (*hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut tables: Vec<(Tables, Pool)> = problems()
            .iter()
            .map(|p| {
                let t = Tables::new(p);
                let pool = Pool::new(&t);
                (t, pool)
            })
            .collect();
        let mut uses = EirProblem::rng(3);
        let (mut pooled, mut sampled) = (EirProblem::rng(4), EirProblem::rng(5));
        let (mut masks, mut picks) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        let mut slots = Vec::new();
        for fill in 0..34_000 {
            let n_tables = tables.len();
            let (t, pool) = &mut tables[fill % n_tables];
            let mut s = t.scratch();
            let tiles = t.width as usize * t.height as usize;
            for word in 0..tiles.div_ceil(64) {
                let in_use = uses.random::<u64>() & uses.random::<u64>();
                for k in (0..64).filter(|k| in_use >> k & 1 == 1 && word * 64 + k < tiles) {
                    s.used.insert(Coord::from_index(word * 64 + k, t.width));
                }
            }
            let cb = uses.random_range(0..t.n_cbs());
            pool.fill(t, cb, &s.used);
            for _ in 0..3 {
                fnv(&mut masks, &pool.draw(&mut pooled).to_le_bytes());
                slots.clear();
                slots.resize(t.stride(), NONE);
                t.sample_group(cb, &mut slots, &s.used, &mut sampled);
                for &id in slots.iter().filter(|&&id| id != NONE) {
                    fnv(&mut picks, &id.to_le_bytes());
                }
                fnv(&mut picks, &[0xff]);
            }
        }
        assert_eq!(format!("{masks:016x} {picks:016x}"), "ee1eb4e6df667a94 e2034063f277e280");
    }

    /// Through ties at full precision and ties only after `>> 4`, a pooled
    /// option is the group the f64 draw picks from the pool's members and
    /// leaves the generator where that draw leaves it, ranked or not.
    #[test]
    fn pooled_draws_keep_their_masks_through_ties() {
        let keys: [fn(&Candidate, f64) -> f64; 3] = [Candidate::key, tie_keys::quarters, tie_keys::low_bits];
        let mut tables: Vec<(Tables, Pool)> = problems()
            .iter()
            .map(|p| {
                let t = Tables::new(p);
                let pool = Pool::new(&t);
                (t, pool)
            })
            .collect();
        let mut uses = EirProblem::rng(6);
        let mut rng = EirProblem::rng(7);
        let mut ranked = [0; 2];
        for fill in 0..12_000 {
            let n_tables = tables.len();
            let (t, pool) = &mut tables[fill % n_tables];
            let mut s = t.scratch();
            let tiles = t.width as usize * t.height as usize;
            for k in (0..tiles).filter(|_| uses.random_range(0..4u32) == 0) {
                s.used.insert(Coord::from_index(k, t.width));
            }
            let cb = uses.random_range(0..t.n_cbs());
            pool.fill(t, cb, &s.used);
            ranked[(pool.covered > pool.group_size) as usize] += 1;
            for key_of in keys {
                let mut slow = rng.clone();
                let mask = pool.draw_keyed(&mut rng, key_of);
                let (want, n) = draw_f64(&pool.members, |_| false, &mut slow, key_of);
                let want = want[..n.min(pool.group_size)].iter().fold(0u64, |m, &at| m | 1 << pool.member_bits[at]);
                assert_eq!(mask, want, "fill {fill}, CB {cb}");
                assert_eq!(rng, slow, "fill {fill}: the same draws");
            }
        }
        assert!(ranked.iter().all(|&n| n > 1_000), "unranked and ranked fills: {ranked:?}");
    }

    /// A pooled option is the group [`Tables::sample_group`] draws from
    /// the same generator with the same tiles in use, its ids in tile
    /// order, and the pool consumes exactly its draws: over 10⁵ options,
    /// three per fill, on the problems of the `powf` key test (`max_hops`
    /// 4 is its fallback arm; group sizes 1, 4 and 6).
    #[test]
    fn pooled_masks_hold_what_the_sampler_picks_in_tile_order() {
        let best8 = || EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0));
        let problems = [
            best8(),
            EirProblem { max_hops: 2, group_size: 1, ..best8() },
            EirProblem { max_hops: 4, group_size: 6, ..best8() },
            EirProblem::new(Placement::diamond(8, 8, 8)),
            EirProblem { max_hops: 4, ..EirProblem::new(Placement::diamond(8, 8, 8)) },
        ];
        let mut tables: Vec<(Tables, Pool)> = problems
            .iter()
            .map(|p| {
                let t = Tables::new(p);
                let pool = Pool::new(&t);
                (t, pool)
            })
            .collect();
        let mut uses = EirProblem::rng(1);
        let (mut pooled, mut sampled) = (EirProblem::rng(2), EirProblem::rng(2));
        let mut slots = Vec::new();
        for fill in 0..34_000 {
            let (t, pool) = &mut tables[fill % problems.len()];
            let mut s = t.scratch();
            // About a quarter of the tiles in use.
            let in_use = uses.random::<u64>() & uses.random::<u64>();
            for k in (0..64).filter(|k| in_use >> k & 1 == 1) {
                s.used.insert(Coord::from_index(k, 8));
            }
            let cb = uses.random_range(0..t.n_cbs());
            pool.fill(t, cb, &s.used);
            for _ in 0..3 {
                let mask = pool.draw(&mut pooled);
                let ids: Vec<u16> = pool.ids(t, cb, mask).collect();
                slots.resize(t.stride(), NONE);
                t.sample_group(cb, &mut slots, &s.used, &mut sampled);
                slots.retain(|&id| id != NONE);
                slots.sort_unstable_by_key(|&id| t.candidate(id).tile);
                assert_eq!(ids, slots, "fill {fill}, CB {cb}");
                assert_eq!(pooled, sampled, "fill {fill}: the same draws");
            }
        }
    }
}
