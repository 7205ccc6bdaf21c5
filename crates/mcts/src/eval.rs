//! The MCTS evaluation function (§4.3).
//!
//! Four metrics, each normalized to ~[0, 1] and summed (lower is better):
//!
//! 1. **max EIR load** — traffic each injection point must handle if every
//!    PE receives equal reply traffic and packets use shortest-path
//!    injection points (the Buffer Selector policy of §4.4), normalized by
//!    the ideal perfectly-balanced load;
//! 2. **average hop count** — mean CB→PE distance via the best injection
//!    point (interposer links count one cycle), normalized by the
//!    no-EIR baseline distance;
//! 3. **wire crossings** — properly-crossing CB→EIR segment pairs (each
//!    crossing forces extra RDL layers), normalized per wire;
//! 4. **link length** — total RDL wire length, normalized by the budget of
//!    `max_hops`-long wires.

use crate::problem::{EirProblem, EirSelection};
use equinox_phys::segment::Segment;
use equinox_phys::Coord;

/// Weights of the four metrics. The paper sums them equally; the default
/// here is 3 / 1 / 0.5 / 1, hand-tuned during calibration (DESIGN.md
/// "Known deviations").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalWeights {
    /// Weight of the max-EIR-load term.
    pub load: f64,
    /// Weight of the average-hop-count term.
    pub hops: f64,
    /// Weight of the crossing-count term.
    pub crossings: f64,
    /// Weight of the wire-length term.
    pub length: f64,
}

impl Default for EvalWeights {
    fn default() -> Self {
        EvalWeights {
            // Load imbalance weighs heavily: a single under-provisioned CB
            // throttles the whole machine (its region tree-saturates the
            // request mesh), so balance beats marginal wire savings.
            load: 3.0,
            hops: 1.0,
            // Per-crossing penalty: large enough that crossings are a
            // last resort, small enough that rescuing a starved CB (load
            // gain ~0.7) justifies one crossing — the paper likewise lets
            // some CBs keep fewer EIRs only when balance is preserved.
            crossings: 0.5,
            length: 1.0,
        }
    }
}

/// The evaluated metrics of one selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Highest per-injection-point load in PE-traffic units.
    pub max_load: f64,
    /// Smooth load-balance score: mean over CBs of the sum of squared
    /// per-injector traffic shares (1.0 = no EIRs; 1/(k+1) = ideal
    /// (k+1)-way split).
    pub max_load_norm: f64,
    /// Mean CB→PE hops via the best injection point.
    pub avg_hops: f64,
    /// Same, normalized by the no-EIR baseline.
    pub avg_hops_norm: f64,
    /// Crossing pairs among the interposer wires.
    pub crossings: usize,
    /// Total wire length in millimetres.
    pub length_mm: f64,
    /// The weighted scalar cost (lower is better).
    pub cost: f64,
}

/// Marks an unused slot of a group in an id selection.
pub(crate) const NONE: u16 = u16::MAX;

/// Everything the evaluation function reads, tabulated once for fixed
/// per-CB lists of EIR tiles (a search tabulates every candidate, the
/// one-shot [`evaluate`] the selection's own tiles).
///
/// The wire from CB `i` to the `j`-th tile of its list has *id*
/// `off[i] + j`. A selection is `n_cbs × stride` ids, CB-major; CB `i`'s
/// group is the prefix of its `stride` slots before the first [`NONE`],
/// in the order the EIRs were chosen (the f64 sums below follow it).
pub(crate) struct EvalTables {
    n_cbs: usize,
    n_pes: usize,
    stride: usize,
    /// Ids `off[i]..off[i + 1]` belong to CB `i`.
    off: Vec<usize>,
    /// CB→PE hops, CB-major, PEs in row-major order.
    direct: Vec<u16>,
    /// Sum of `direct`: the no-EIR baseline of the hop term.
    base_hop_sum: u64,
    /// Per id and PE: cycles via that EIR (interposer hop + mesh hops).
    via: Vec<u16>,
    /// Per id: the PEs it lies on a shortest path to, `pe_words` words.
    shortest: Vec<u64>,
    /// Per id: wire length in millimetres.
    len_mm: Vec<f64>,
    /// Per id: the ids whose wires cross its own, `id_words` words.
    crosses: Vec<u64>,
    /// Bits needed to count up to `stride`.
    planes: usize,
    max_hops: f64,
    tile_pitch_mm: f64,
}

/// Buffers [`EvalTables::evaluate`] fills instead of allocating.
pub(crate) struct EvalScratch {
    /// Per PE: fewest cycles from the CB at hand.
    best: Vec<u16>,
    /// Load per injection point of the CB at hand, local router last.
    load: Vec<f64>,
    /// Per PE: how many EIRs of the group at hand share it (see
    /// [`EvalTables::loads`]).
    sharers: Vec<u64>,
    /// The selected ids as a bitset.
    selected: Vec<u64>,
    /// The term cache, direct-mapped (see [`Term`]).
    terms: Vec<Term>,
}

/// What one CB adds to an evaluation: its hop sum over the PEs, the load
/// of its hottest injection point, and the sum of its injection points'
/// squared traffic shares. They depend on the CB and its ordered group
/// alone: the shares are summed in group order.
#[derive(Clone, Copy)]
struct Terms {
    hops: u64,
    max_load: f64,
    sq: f64,
}

/// One entry of the term cache: the key (see [`term_key`]) in words 0–1,
/// then the [`Terms`] as bits. All zeros is empty, and no key is zero.
type Term = [u64; 5];

/// As a plain integer array `vec![EMPTY_TERM; n]` is a zeroed allocation,
/// backed page by page on first touch, so a scratch that scores one
/// selection touches one page or two of it.
const EMPTY_TERM: Term = [0; 5];

/// Entries of a search's term cache: as many as 64 KiB holds.
const TERMS: usize = (64 << 10) / std::mem::size_of::<Term>();

/// Most EIRs a cached group holds: the key packs them, 16 bits each, with
/// the CB index in 128 bits. A group of eight (`group_size` 8, or what
/// the one-shot [`evaluate`] is handed) is scored without the cache.
const MAX_KEYED: usize = 7;

/// The cache key of CB `i`'s ordered `group`: `i + 1` in the top 16 bits,
/// then the ids from the low end up, [`NONE`] past the group's end.
fn term_key(i: usize, group: &[u16]) -> Option<u128> {
    if group.len() > MAX_KEYED || i >= NONE as usize {
        return None;
    }
    let slots = (0..MAX_KEYED).map(|j| group.get(j).copied().unwrap_or(NONE));
    Some(slots.rev().fold(i as u128 + 1, |key, id| key << 16 | id as u128))
}

/// The entry of `key` in a cache of `n` entries: the high word of a
/// multiply spreads a hash of the key over `0..n`.
fn term_slot(key: u128, n: usize) -> usize {
    let hash = (key as u64 ^ (key >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((hash as u128 * n as u128) >> 64) as usize
}

fn narrow(hops: u32) -> u16 {
    u16::try_from(hops).expect("mesh distances fit 16 bits")
}

impl EvalTables {
    /// Tabulates `lists[i]` as the EIR tiles of CB `i`, for selections
    /// with `stride` slots per CB.
    pub(crate) fn new(problem: &EirProblem, lists: &[Vec<Coord>], stride: usize) -> Self {
        let p = &problem.placement;
        let pes: Vec<Coord> = p.pe_tiles().collect();
        let (n_pes, pe_words) = (pes.len(), pes.len().div_ceil(64));
        let mut off = vec![0];
        off.extend(lists.iter().scan(0, |n, l| {
            *n += l.len();
            Some(*n)
        }));
        let n_ids = off[lists.len()];
        assert!(n_ids < NONE as usize, "{n_ids} EIR wires exceed the 16-bit id space");

        let direct: Vec<u16> =
            p.cbs.iter().flat_map(|&cb| pes.iter().map(move |&pe| narrow(cb.manhattan(pe)))).collect();
        let segments: Vec<Segment> = lists
            .iter()
            .enumerate()
            .flat_map(|(i, l)| l.iter().map(move |&e| Segment::new(p.cbs[i], e)))
            .collect();
        let mut via = Vec::with_capacity(n_ids * n_pes);
        let mut shortest = vec![0u64; n_ids * pe_words];
        for (id, s) in segments.iter().enumerate() {
            for (k, &pe) in pes.iter().enumerate() {
                via.push(narrow(1 + s.b.manhattan(pe)));
                if s.a.manhattan(s.b) + s.b.manhattan(pe) == s.a.manhattan(pe) {
                    shortest[id * pe_words + k / 64] |= 1 << (k % 64);
                }
            }
        }
        let id_words = n_ids.div_ceil(64);
        let mut crosses = vec![0u64; n_ids * id_words];
        for a in 0..n_ids {
            for b in a + 1..n_ids {
                if segments[a].crosses(&segments[b]) {
                    crosses[a * id_words + b / 64] |= 1 << (b % 64);
                    crosses[b * id_words + a / 64] |= 1 << (a % 64);
                }
            }
        }
        EvalTables {
            n_cbs: p.cbs.len(),
            n_pes,
            stride,
            off,
            base_hop_sum: direct.iter().map(|&d| d as u64).sum(),
            direct,
            via,
            shortest,
            len_mm: segments.iter().map(|s| problem.wire.length_mm(s)).collect(),
            crosses,
            planes: (usize::BITS - stride.leading_zeros()).max(1) as usize,
            max_hops: problem.max_hops as f64,
            tile_pitch_mm: problem.wire.tile_pitch_mm,
        }
    }

    /// Slots per CB in this table's selections.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The ids of CB `i`'s listed tiles, in list order.
    pub(crate) fn ids_of(&self, i: usize) -> std::ops::Range<usize> {
        self.off[i]..self.off[i + 1]
    }

    /// CB `i`'s group in the selection `ids`.
    pub(crate) fn group<'a>(&self, ids: &'a [u16], i: usize) -> &'a [u16] {
        let slots = &ids[i * self.stride..][..self.stride];
        &slots[..slots.iter().position(|&id| id == NONE).unwrap_or(self.stride)]
    }

    pub(crate) fn scratch(&self) -> EvalScratch {
        self.scratch_with_terms(TERMS)
    }

    /// A scratch whose term cache holds `n` entries (at least one).
    fn scratch_with_terms(&self, n: usize) -> EvalScratch {
        EvalScratch {
            best: vec![0; self.n_pes],
            load: vec![0.0; self.stride + 1],
            sharers: vec![0; self.n_pes.div_ceil(64) * self.planes],
            selected: vec![0; self.off[self.n_cbs].div_ceil(64)],
            terms: vec![EMPTY_TERM; n.max(1)],
        }
    }

    /// The load of each of `group`'s injection points, local router last,
    /// in PE-traffic units: the EIRs on a shortest path to a PE share its
    /// traffic equally; with none, the local router takes it.
    fn loads<'a>(&self, group: &[u16], load: &'a mut [f64], sharers: &mut [u64]) -> &'a [f64] {
        let pe_words = self.n_pes.div_ceil(64);
        let on_path = |id: u16, w: usize| self.shortest[id as usize * pe_words + w];
        // How many EIRs share each PE, as a bit-sliced counter: bit `p` of
        // plane `j` of word `w` is bit `j` of the count for PE `64 w + p`.
        sharers.fill(0);
        for &id in group {
            for (w, planes) in sharers.chunks_exact_mut(self.planes).enumerate() {
                let mut carry = on_path(id, w);
                for plane in planes {
                    (*plane, carry) = (*plane ^ carry, *plane & carry);
                }
            }
        }
        let shared: u32 = sharers
            .chunks_exact(self.planes)
            .map(|planes| planes.iter().fold(0, |any, plane| any | plane).count_ones())
            .sum();
        load[group.len()] = (self.n_pes - shared as usize) as f64;

        // An EIR's load is the sum of its shares in PE order. A share of
        // 1/2^j is an exact binary fraction, so up to the first share of
        // another kind every order of adding gives the same sum, and those
        // PEs are counted per plane; from there on it is one add per PE.
        for (l, &id) in load.iter_mut().zip(group) {
            *l = 0.0;
            let mut exact = true;
            for (w, planes) in sharers.chunks_exact(self.planes).enumerate() {
                let mut pes = on_path(id, w);
                if exact {
                    // Counts with two or more bits set are no power of two.
                    let (_, mixed) = planes.iter().fold((0, 0), |(any, mixed), plane| {
                        (any | plane, mixed | any & plane)
                    });
                    let first_mixed = pes & mixed & (pes & mixed).wrapping_neg();
                    let head = pes & first_mixed.wrapping_sub(1);
                    for (j, plane) in planes.iter().enumerate() {
                        *l += (head & plane).count_ones() as f64 / (1u64 << j) as f64;
                    }
                    pes ^= head;
                    exact = first_mixed == 0;
                }
                while pes != 0 {
                    let pe = pes.trailing_zeros();
                    let n = planes.iter().rev().fold(0, |n, plane| n << 1 | (plane >> pe & 1));
                    *l += 1.0 / n as f64;
                    pes &= pes - 1;
                }
            }
        }
        &load[..group.len() + 1]
    }

    /// CB `i`'s [`Terms`] with `group`, computed.
    fn terms(&self, i: usize, group: &[u16], s: &mut EvalScratch) -> Terms {
        let n_pes = self.n_pes;
        // Injection points: the local router plus the EIRs (the local
        // router always remains usable, §4.4); EIR links cost 1 cycle.
        s.best.copy_from_slice(&self.direct[i * n_pes..][..n_pes]);
        for &id in group {
            let via = &self.via[id as usize * n_pes..][..n_pes];
            for (best, &cycles) in s.best.iter_mut().zip(via) {
                *best = (*best).min(cycles);
            }
        }
        let hops = s.best.iter().map(|&b| b as u64).sum::<u64>();

        // Loads are never negative, so starting the max from 0.0 and
        // folding it into the running max later gives the same bits.
        let load = self.loads(group, &mut s.load, &mut s.sharers);
        let n_pes_f = n_pes as f64;
        Terms {
            hops,
            max_load: load.iter().copied().fold(0.0, f64::max),
            sq: load.iter().map(|l| (l / n_pes_f) * (l / n_pes_f)).sum::<f64>(),
        }
    }

    /// CB `i`'s [`Terms`] with `group`, from the term cache where it holds
    /// them, stored there otherwise. Debug builds compute every hit again
    /// and assert the bits match.
    fn cached_terms(&self, i: usize, group: &[u16], s: &mut EvalScratch) -> Terms {
        let Some(key) = term_key(i, group) else {
            return self.terms(i, group, s);
        };
        let at = term_slot(key, s.terms.len());
        let [lo, hi, hops, max_load, sq] = s.terms[at];
        if (lo, hi) == (key as u64, (key >> 64) as u64) {
            let hit = Terms { hops, max_load: f64::from_bits(max_load), sq: f64::from_bits(sq) };
            if cfg!(debug_assertions) {
                let again = self.terms(i, group, s);
                let bits = |t: Terms| (t.hops, t.max_load.to_bits(), t.sq.to_bits());
                assert_eq!(bits(again), bits(hit), "CB {i}'s cached terms for {group:?}");
            }
            return hit;
        }
        let t = self.terms(i, group, s);
        s.terms[at] = [key as u64, (key >> 64) as u64, t.hops, t.max_load.to_bits(), t.sq.to_bits()];
        t
    }

    /// Evaluates the selection `ids` under `weights`, each CB's terms
    /// through the term cache.
    pub(crate) fn evaluate(&self, ids: &[u16], weights: &EvalWeights, s: &mut EvalScratch) -> Evaluation {
        self.score(ids, weights, s, Self::cached_terms)
    }

    /// [`EvalTables::evaluate`] with every CB's terms computed: the
    /// oracle the cache is checked against.
    pub(crate) fn evaluate_uncached(&self, ids: &[u16], weights: &EvalWeights, s: &mut EvalScratch) -> Evaluation {
        self.score(ids, weights, s, Self::terms)
    }

    fn score(
        &self,
        ids: &[u16],
        weights: &EvalWeights,
        s: &mut EvalScratch,
        terms: impl Fn(&Self, usize, &[u16], &mut EvalScratch) -> Terms,
    ) -> Evaluation {
        let (n_cbs, n_pes) = (self.n_cbs, self.n_pes);
        let id_words = s.selected.len();
        let all = || (0..n_cbs).flat_map(|i| self.group(ids, i)).map(|&id| id as usize);

        // Each CB's terms, added up in CB order.
        let mut hop_sum = 0u64;
        let mut max_load = 0.0_f64;
        // The hottest injection point is what paces the machine, but "max"
        // is a poor hill-climbing objective (most moves leave the argmax
        // alone). The cost therefore uses the *sum of squared*
        // per-injector shares — smooth, minimized by the same
        // perfectly-balanced assignment, and normalized so the no-EIR
        // baseline (each CB's local router carrying everything) scores 1.0
        // and an ideal (k+1)-way split scores 1/(k+1). The raw max is
        // still reported for analysis.
        let sq: f64 = (0..n_cbs)
            .map(|i| {
                let t = terms(self, i, self.group(ids, i), s);
                hop_sum += t.hops;
                max_load = max_load.max(t.max_load);
                t.sq
            })
            .sum();
        let max_load_norm = if n_pes == 0 { 0.0 } else { sq / n_cbs as f64 };
        let pairs = (n_cbs * n_pes) as f64;
        let avg_hops = hop_sum as f64 / pairs;
        let base_avg = self.base_hop_sum as f64 / pairs;
        let avg_hops_norm = if base_avg > 0.0 { avg_hops / base_avg } else { 1.0 };

        s.selected.fill(0);
        for id in all() {
            s.selected[id / 64] |= 1 << (id % 64);
        }
        let crossing_ends: u32 = all()
            .flat_map(|id| self.crosses[id * id_words..][..id_words].iter().zip(&s.selected))
            .map(|(crossed, selected)| (crossed & selected).count_ones())
            .sum();
        let crossings = crossing_ends as usize / 2;
        let length_mm: f64 = all().map(|id| self.len_mm[id]).sum();
        let budget = all().count().max(1) as f64 * self.max_hops * self.tile_pitch_mm;
        // Crossings are charged *per crossing*, not per wire: each one can
        // force an extra dual-damascene RDL layer whose yield cost compounds
        // (§3.2.3), so the term must dominate marginal hop/load trade-offs —
        // the paper's chosen design accepts smaller EIR groups to reach zero.
        let crossings_norm = crossings as f64;
        let length_norm = length_mm / budget;

        let cost = weights.load * max_load_norm
            + weights.hops * avg_hops_norm
            + weights.crossings * crossings_norm
            + weights.length * length_norm;

        Evaluation {
            max_load,
            max_load_norm,
            avg_hops,
            avg_hops_norm,
            crossings,
            length_mm,
            cost,
        }
    }
}

/// Evaluates `sel` for `problem` under `weights`: tabulates the
/// selection's own wires and runs the one evaluator on all of them.
/// Searches tabulate every candidate once instead.
pub fn evaluate(problem: &EirProblem, sel: &EirSelection, weights: &EvalWeights) -> Evaluation {
    debug_assert_eq!(sel.groups.len(), problem.placement.cbs.len());
    let stride = sel.groups.iter().map(Vec::len).max().unwrap_or(0);
    let tables = EvalTables::new(problem, &sel.groups, stride);
    let mut ids = vec![NONE; sel.groups.len() * stride];
    for i in 0..sel.groups.len() {
        for (slot, id) in ids[i * stride..].iter_mut().zip(tables.ids_of(i)) {
            *slot = id as u16;
        }
    }
    tables.evaluate(&ids, weights, &mut tables.scratch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::EirProblem;
    use equinox_exec::Rng;
    use equinox_phys::segment::count_crossings;
    use equinox_placement::select::best_nqueen_placement;
    use equinox_placement::Placement;
    use std::collections::{HashMap, HashSet};

    fn problem() -> EirProblem {
        EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0))
    }

    /// The evaluation function as it stood before the tables — one pass
    /// over CB × PE pairs allocating as it goes — kept as the reference the
    /// table evaluator must equal bit for bit.
    fn evaluate_reference(problem: &EirProblem, sel: &EirSelection, weights: &EvalWeights) -> Evaluation {
        let p = &problem.placement;
        let pes: Vec<Coord> = p.pe_tiles().collect();
        let n_cbs = p.cbs.len();
        debug_assert_eq!(sel.groups.len(), n_cbs);

        // Injection points per CB: local router plus the EIRs (the local
        // router always remains usable, §4.4). Track load per injection point.
        let mut load: Vec<Vec<f64>> = sel
            .groups
            .iter()
            .map(|g| vec![0.0; g.len() + 1])
            .collect();
        let mut hop_sum = 0.0;
        let mut base_hop_sum = 0.0;
        for (i, &cb) in p.cbs.iter().enumerate() {
            let group = &sel.groups[i];
            for &pe in &pes {
                let direct = cb.manhattan(pe);
                base_hop_sum += direct as f64;
                // Distance via each injection point; EIR links cost 1 cycle.
                let mut best = direct; // via local router
                let mut shortest_eirs: Vec<usize> = Vec::new();
                for (k, &e) in group.iter().enumerate() {
                    let via = cb.manhattan(e) + e.manhattan(pe);
                    if via == direct {
                        shortest_eirs.push(k);
                    }
                    let cycles = 1 + e.manhattan(pe); // interposer hop + mesh
                    best = best.min(cycles);
                }
                hop_sum += best as f64;
                // Load split: shortest-path EIRs share the PE's traffic;
                // with none, the local router takes it (index = group.len()).
                if shortest_eirs.is_empty() {
                    load[i][group.len()] += 1.0;
                } else {
                    let share = 1.0 / shortest_eirs.len() as f64;
                    for k in shortest_eirs {
                        load[i][k] += share;
                    }
                }
            }
        }
        let pairs = (n_cbs * pes.len()) as f64;
        let avg_hops = hop_sum / pairs;
        let base_avg = base_hop_sum / pairs;
        let avg_hops_norm = if base_avg > 0.0 { avg_hops / base_avg } else { 1.0 };

        let max_load = load
            .iter()
            .flatten()
            .copied()
            .fold(0.0_f64, f64::max);
        let max_load_norm = if pes.is_empty() {
            0.0
        } else {
            let n_pes = pes.len() as f64;
            let sq: f64 = load
                .iter()
                .map(|cb_loads| {
                    cb_loads
                        .iter()
                        .map(|l| (l / n_pes) * (l / n_pes))
                        .sum::<f64>()
                })
                .sum();
            sq / n_cbs as f64
        };

        let segments = sel.segments(p);
        let crossings = count_crossings(&segments);
        let length_mm = problem.wire.total_length_mm(&segments);
        let budget = segments.len().max(1) as f64
            * problem.max_hops as f64
            * problem.wire.tile_pitch_mm;
        let crossings_norm = crossings as f64;
        let length_norm = length_mm / budget;

        let cost = weights.load * max_load_norm
            + weights.hops * avg_hops_norm
            + weights.crossings * crossings_norm
            + weights.length * length_norm;

        Evaluation {
            max_load,
            max_load_norm,
            avg_hops,
            avg_hops_norm,
            crossings,
            length_mm,
            cost,
        }
    }

    /// The problems the search goldens cover, plus the ablation's wider
    /// hop budget and group size and a placement of diagonal neighbours.
    fn problem_variants() -> Vec<EirProblem> {
        vec![
            problem(),
            EirProblem::new(best_nqueen_placement(12, 12, 500, 0)),
            EirProblem::new(best_nqueen_placement(8, 4, usize::MAX, 0)),
            EirProblem::new(best_nqueen_placement(8, 12, usize::MAX, 0)),
            EirProblem::new(Placement::diamond(8, 8, 8)),
            EirProblem { max_hops: 2, ..problem() },
            EirProblem { max_hops: 4, ..problem() },
            EirProblem { group_size: 2, ..problem() },
            EirProblem { group_size: 6, ..problem() },
        ]
    }

    /// Every candidate of `p` per CB, and the tables over them all — what
    /// a search builds.
    fn candidate_tables(p: &EirProblem) -> (Vec<Vec<Coord>>, EvalTables) {
        let lists: Vec<Vec<Coord>> = (0..p.placement.cbs.len()).map(|i| p.candidates(i)).collect();
        let tables = EvalTables::new(p, &lists, p.group_size);
        (lists, tables)
    }

    fn assert_same_bits(what: &str, a: &Evaluation, b: &Evaluation) {
        let bits = |e: &Evaluation| {
            [e.max_load, e.max_load_norm, e.avg_hops, e.avg_hops_norm, e.length_mm, e.cost].map(f64::to_bits)
        };
        assert_eq!((bits(a), a.crossings), (bits(b), b.crossings), "{what}: {a:?} vs {b:?}");
    }

    /// `n` tiles drawn anywhere on the mesh but `cb` itself: a group no
    /// search would build — repeated tiles, other CBs' tiles, wires across
    /// the whole die — and so the crossing-heavy end of the input space.
    fn wild_group(p: &Placement, cb: Coord, n: usize, rng: &mut Rng) -> Vec<Coord> {
        let tiles = std::iter::repeat_with(|| Coord::new(rng.random_range(0..p.width), rng.random_range(0..p.height)));
        tiles.filter(|&t| t != cb).take(n).collect()
    }

    #[test]
    fn table_evaluator_equals_the_reference_bit_for_bit() {
        let weights = EvalWeights::default();
        let mut compared = 0;
        for (v, p) in problem_variants().iter().enumerate() {
            let n_cbs = p.placement.cbs.len();
            let (lists, tables) = candidate_tables(p);
            let mut scratch = tables.scratch();
            let mut rng = EirProblem::rng(0xD1FF + v as u64);
            for round in 0..160 {
                // What the searches evaluate: sampled selections, some
                // groups emptied, through the candidate-wide tables.
                let mut sel = p.random_completion(&[], &mut rng);
                for g in &mut sel.groups {
                    if round % 4 == 1 && rng.random::<f64>() < 0.4 {
                        g.clear();
                    }
                }
                let mut ids = vec![NONE; n_cbs * p.group_size];
                for (i, g) in sel.groups.iter().enumerate() {
                    for (slot, e) in ids[i * p.group_size..].iter_mut().zip(g) {
                        let j = lists[i].iter().position(|c| c == e).expect("sampled from the candidates");
                        *slot = (tables.ids_of(i).start + j) as u16;
                    }
                }
                let expected = evaluate_reference(p, &sel, &weights);
                assert_same_bits("tables", &tables.evaluate(&ids, &weights, &mut scratch), &expected);
                assert_same_bits("wrapper", &evaluate(p, &sel, &weights), &expected);

                // What only the public wrapper can be handed.
                let groups = p.placement.cbs.iter().map(|&cb| {
                    let n = rng.random_range(0..2 * p.group_size + 1);
                    wild_group(&p.placement, cb, n, &mut rng)
                });
                let wild = EirSelection { groups: groups.collect() };
                let expected = evaluate_reference(p, &wild, &weights);
                if round == 0 {
                    assert!(expected.crossings > 0, "variant {v}: wild selections must cross");
                }
                assert_same_bits("wild", &evaluate(p, &wild, &weights), &expected);
                compared += 3;
            }
        }
        assert!(compared >= 1000);
    }

    /// One evaluation from a fresh scratch, past the term cache: nothing
    /// an earlier call left behind can reach it.
    fn cacheless(tables: &EvalTables, ids: &[u16], weights: &EvalWeights) -> Evaluation {
        tables.evaluate_uncached(ids, weights, &mut tables.scratch())
    }

    /// A long-lived scratch scores what a fresh one scores, bit for bit,
    /// over 10⁴ selections that revisit groups the way the searches do: a
    /// walk of one-group moves (a fresh pick-order draw, the same group
    /// reversed or in tile order, an EIR dropped), jumps back to earlier
    /// selections and whole new ones, on the problems of the `tables.rs`
    /// tests (`group_size` 6 at `max_hops` 4, 12×12, `group_size` 0). Its
    /// term cache has 61 entries, so the walk hits it, evicts from it and
    /// maps distinct groups onto one entry, all of which is counted.
    #[test]
    fn a_reused_scratch_scores_what_a_fresh_one_scores() {
        let best8 = || EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0));
        let problems = [
            best8(),
            EirProblem::new(best_nqueen_placement(12, 12, 500, 0)),
            EirProblem::new(best_nqueen_placement(8, 12, usize::MAX, 0)),
            EirProblem::new(Placement::diamond(8, 8, 8)),
            EirProblem { max_hops: 4, group_size: 6, ..best8() },
            EirProblem { group_size: 0, ..best8() },
        ];
        let weights = EvalWeights::default();
        let mut compared = 0;
        let (mut lookups, mut hits, mut evicted) = (0, 0, 0);
        let mut collided = 0;
        for (v, p) in problems.iter().enumerate() {
            let mut stored = HashSet::new();
            let mut by_entry: HashMap<usize, HashSet<u128>> = HashMap::new();
            let t = crate::tables::Tables::new(p);
            let lists: Vec<Vec<Coord>> = (0..p.placement.cbs.len()).map(|i| p.candidates(i)).collect();
            let tables = EvalTables::new(p, &lists, t.stride());
            let (n_cbs, stride) = (lists.len(), t.stride());
            let mut s = t.scratch();
            let mut scratch = tables.scratch_with_terms(61);
            let mut rng = EirProblem::rng(0xCAC4E + v as u64);
            let mut sel = t.random_selection(&mut s, &mut rng);
            let mut seen: Vec<Vec<u16>> = Vec::new();
            for step in 0..1_700 {
                let i = rng.random_range(0..n_cbs);
                let at = i * stride;
                let len = tables.group(&sel, i).len();
                match rng.random_range(0..8u32) {
                    0 => sel = t.random_selection(&mut s, &mut rng),
                    1 if !seen.is_empty() => sel = seen[rng.random_range(0..seen.len())].clone(),
                    2 => sel[at..at + len].reverse(),
                    3 => sel[at..at + len].sort_unstable_by_key(|&id| lists[i][id as usize - tables.ids_of(i).start]),
                    4 if len > 1 => {
                        let k = rng.random_range(0..len);
                        sel[at + k..at + len].rotate_left(1);
                        sel[at + len - 1] = NONE;
                    }
                    _ => {
                        // A fresh draw for CB `i` around every other group.
                        sel[at..at + stride].fill(NONE);
                        s.used.clear();
                        t.mark_used(&sel, &mut s.used);
                        t.sample_group(i, &mut sel[at..at + stride], &s.used, &mut rng);
                    }
                }
                for i in 0..n_cbs {
                    let key = term_key(i, tables.group(&sel, i)).expect("search groups are keyed");
                    let at = term_slot(key, scratch.terms.len());
                    let hit = scratch.terms[at][..2] == [key as u64, (key >> 64) as u64];
                    hits += hit as usize;
                    evicted += (!hit && !stored.insert(key)) as usize;
                    by_entry.entry(at).or_default().insert(key);
                    lookups += 1;
                }
                let got = tables.evaluate(&sel, &weights, &mut scratch);
                assert_same_bits(&format!("problem {v}, step {step}"), &got, &cacheless(&tables, &sel, &weights));
                if step % 7 == 0 {
                    seen.push(sel.clone());
                }
                compared += 1;
            }
            collided += by_entry.values().filter(|keys| keys.len() > 1).count();
        }
        assert!(compared >= 10_000);
        assert!(hits * 2 > lookups && hits < lookups, "{hits} hits in {lookups} lookups");
        assert!(evicted * 4 > lookups - hits, "{evicted} of {} misses evicted", lookups - hits);
        assert!(collided > 100, "{collided} entries shared by distinct groups");
    }

    #[test]
    fn term_keys_tell_banks_and_orders_apart_and_none_is_empty() {
        let keys = [
            term_key(0, &[]),
            term_key(1, &[]),
            term_key(0, &[0]),
            term_key(0, &[0, 1]),
            term_key(0, &[1, 0]),
            term_key(1, &[0, 1]),
            term_key(0, &[1, 2, 3, 4, 5, 6, 7]),
        ]
        .map(|k| k.expect("at most seven EIRs are keyed"));
        for (a, ka) in keys.iter().enumerate() {
            assert_ne!(*ka, 0, "key {a} reads as an empty entry");
            assert!(keys[a + 1..].iter().all(|kb| kb != ka), "key {a} is not unique");
        }
        assert_eq!(term_key(0, &[1, 2, 3, 4, 5, 6, 7, 8]), None);
        assert_eq!(term_key(NONE as usize, &[]), None);
    }

    #[test]
    fn crossing_matrix_equals_count_crossings() {
        for p in problem_variants() {
            let (lists, tables) = candidate_tables(&p);
            let segments: Vec<Segment> = (lists.iter().zip(&p.placement.cbs))
                .flat_map(|(l, &cb)| l.iter().map(move |&e| Segment::new(cb, e)))
                .collect();
            let id_words = segments.len().div_ceil(64);
            for (a, sa) in segments.iter().enumerate() {
                for (b, sb) in segments.iter().enumerate() {
                    let bit = tables.crosses[a * id_words + b / 64] >> (b % 64) & 1;
                    assert_eq!(bit as usize, count_crossings(&[*sa, *sb]), "{sa} x {sb}");
                }
            }
        }
    }

    #[test]
    fn no_eirs_is_the_baseline() {
        let p = problem();
        let sel = EirSelection {
            groups: vec![Vec::new(); 8],
        };
        let e = evaluate(&p, &sel, &EvalWeights::default());
        assert!((e.avg_hops_norm - 1.0).abs() < 1e-12);
        assert_eq!(e.crossings, 0);
        assert_eq!(e.length_mm, 0.0);
        // All of a CB's traffic on its local router: load norm = 1.0.
        assert!((e.max_load_norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eirs_reduce_hops_and_load() {
        let p = problem();
        let mut rng = EirProblem::rng(5);
        let sel = p.random_completion(&[], &mut rng);
        let with = evaluate(&p, &sel, &EvalWeights::default());
        let without = evaluate(
            &p,
            &EirSelection {
                groups: vec![Vec::new(); 8],
            },
            &EvalWeights::default(),
        );
        assert!(with.avg_hops < without.avg_hops, "EIRs shorten paths");
        assert!(
            with.max_load < without.max_load,
            "spreading injection over EIRs must cut the hottest load: {} vs {}",
            with.max_load,
            without.max_load
        );
    }

    #[test]
    fn weights_shift_cost() {
        let p = problem();
        let mut rng = EirProblem::rng(5);
        let sel = p.random_completion(&[], &mut rng);
        let balanced = evaluate(&p, &sel, &EvalWeights::default());
        let hops_only = evaluate(
            &p,
            &sel,
            &EvalWeights {
                load: 0.0,
                hops: 1.0,
                crossings: 0.0,
                length: 0.0,
            },
        );
        assert!(hops_only.cost < balanced.cost);
        assert!((hops_only.cost - hops_only.avg_hops_norm).abs() < 1e-12);
    }

    #[test]
    fn cost_is_deterministic() {
        let p = problem();
        let mut rng = EirProblem::rng(9);
        let sel = p.random_completion(&[], &mut rng);
        let a = evaluate(&p, &sel, &EvalWeights::default());
        let b = evaluate(&p, &sel, &EvalWeights::default());
        assert_eq!(a, b);
    }
}
