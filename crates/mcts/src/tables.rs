//! What one search tabulates once and then only reads.
//!
//! MCTS, its refine pass, GA and SA all work on the same [`Tables`]: each
//! CB's candidate list, the assignment order, and the evaluator's tables
//! over every candidate wire. They hold selections as candidate ids (see
//! [`EvalTables`]) and share the [`Scratch`] buffers, so the hot loops
//! rescan no tiles and allocate nothing.

use crate::eval::{EvalScratch, EvalTables, EvalWeights, Evaluation, NONE};
use crate::problem::{sample_group_from, Candidate, EirProblem, EirSelection};
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

    /// The selection `ids` as tiles.
    pub(crate) fn selection(&self, ids: &[u16]) -> EirSelection {
        let tiles = |i| self.group(ids, i).iter().map(|&id| self.candidate(id).tile).collect();
        EirSelection {
            groups: (0..self.n_cbs()).map(tiles).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
