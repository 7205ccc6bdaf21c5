//! The end-to-end EquiNox design pipeline (§4): N-Queen placement →
//! scoring → MCTS EIR selection → physical checks.

use equinox_mcts::problem::{EirProblem, EirSelection};
use equinox_mcts::tree::{search, MctsConfig};
use equinox_phys::rdl::rdl_layers_required;
use equinox_phys::segment::Segment;
use equinox_phys::BumpModel;
use equinox_placement::nqueen::{solutions_limited, to_placement};
use equinox_placement::select::best_nqueen_placement;
use equinox_placement::{Placement, PlacementScorer};

/// A complete EquiNox design: where the CBs sit and which routers serve
/// as their EIRs.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiNoxDesign {
    /// The N-Queen-scored CB placement.
    pub placement: Placement,
    /// MCTS-selected EIR groups (one per CB).
    pub selection: EirSelection,
}

impl EquiNoxDesign {
    /// Runs the full §4 pipeline for an `n × n` mesh with `n_cbs` cache
    /// banks. Per §4.2 the scoring policy both "minimizes network
    /// congestion and maximizes EIR potential": the hot-zone score ranks
    /// the N-Queen solutions, and the MCTS then runs on each of the
    /// `top_k` best-ranked placements, keeping the placement whose EIR
    /// selection evaluates best — placement/EIR co-optimization.
    /// Deterministic in `seed`.
    pub fn search_k(n: u16, n_cbs: u16, iterations: usize, seed: u64, top_k: usize) -> Self {
        let max_solutions = if n <= 12 { usize::MAX } else { 2_000 };
        let candidates: Vec<Placement> = if n_cbs == n {
            let scorer = PlacementScorer::new(n, n);
            let mut scored: Vec<(u64, Placement)> = solutions_limited(n, max_solutions)
                .iter()
                .map(|sol| {
                    let p = to_placement(n, sol, None);
                    (scorer.penalty(&p.cbs), p)
                })
                .collect();
            scored.sort_by_key(|(s, _)| *s);
            scored.into_iter().take(top_k.max(1)).map(|(_, p)| p).collect()
        } else {
            vec![best_nqueen_placement(n, n_cbs, max_solutions, seed)]
        };
        // One MCTS per candidate placement, fanned out on the worker
        // pool. Each search is a pure function of (placement, seed) and
        // `par_map` preserves input order, so the best-cost scan below
        // (first-wins tie-break) picks the same design for any worker
        // count — matching the old sequential loop exactly.
        let searched = equinox_exec::par_map(candidates, |_, placement| {
            let problem = EirProblem::new(placement.clone());
            let result = search(
                &problem,
                &MctsConfig {
                    iterations,
                    seed,
                    ..Default::default()
                },
            );
            (
                result.eval.cost,
                EquiNoxDesign {
                    placement,
                    selection: result.selection,
                },
            )
        });
        let mut best: Option<(f64, EquiNoxDesign)> = None;
        for (cost, design) in searched {
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, design));
            }
        }
        best.expect("at least one placement searched").1
    }

    /// [`EquiNoxDesign::search_k`] over the 8 best-scored placements.
    pub fn search(n: u16, n_cbs: u16, iterations: usize, seed: u64) -> Self {
        Self::search_k(n, n_cbs, iterations, seed, 8)
    }

    /// A quick design for tests and examples (small MCTS budget — the
    /// refinement pass still drives crossings to ~zero).
    pub fn quick(n: u16, n_cbs: u16) -> Self {
        Self::search_k(n, n_cbs, 300, 0xEC0, 2)
    }

    /// The interposer wires of this design.
    pub fn segments(&self) -> Vec<Segment> {
        self.selection.segments(&self.placement)
    }

    /// Total EIRs = number of uni-directional CB→EIR interposer links.
    pub fn num_links(&self) -> usize {
        self.selection.total_eirs()
    }

    /// µbumps needed: every wire of every 128-bit link dives into the
    /// interposer and resurfaces, so two bumps per wire (§6.6).
    pub fn ubump_count(&self, bits: usize) -> usize {
        BumpModel::default().bump_count(self.num_links(), bits, 2)
    }

    /// RDL metal layers required by the wiring plan.
    pub fn rdl_layers(&self) -> usize {
        rdl_layers_required(&self.segments())
    }

    /// Serializes the design to a small plain-text format:
    ///
    /// ```text
    /// equinox-design v1
    /// mesh 8
    /// cb 2,0 eirs 0,2 4,0 4,1
    /// ...
    /// ```
    ///
    /// The format is stable and diff-friendly; parse it back with
    /// [`EquiNoxDesign::from_text`].
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("equinox-design v1
");
        let _ = writeln!(out, "mesh {}", self.placement.width);
        for (i, &cb) in self.placement.cbs.iter().enumerate() {
            let _ = write!(out, "cb {},{} eirs", cb.x, cb.y);
            for e in &self.selection.groups[i] {
                let _ = write!(out, " {},{}", e.x, e.y);
            }
            out.push('\n');
        }
        out
    }

    /// Parses a design produced by [`EquiNoxDesign::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, unknown header,
    /// or constraint violation (off-grid tile, duplicate CB/EIR).
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("equinox-design v1") => {}
            other => return Err(format!("unknown header {other:?}")),
        }
        let n: u16 = lines
            .next()
            .and_then(|l| l.strip_prefix("mesh "))
            .ok_or("missing mesh line")?
            .trim()
            .parse()
            .map_err(|e| format!("bad mesh size: {e}"))?;
        let parse_coord = |tok: &str| -> Result<equinox_phys::Coord, String> {
            let (x, y) = tok
                .split_once(',')
                .ok_or_else(|| format!("bad coordinate {tok:?}"))?;
            Ok(equinox_phys::Coord::new(
                x.trim().parse().map_err(|e| format!("bad x in {tok:?}: {e}"))?,
                y.trim().parse().map_err(|e| format!("bad y in {tok:?}: {e}"))?,
            ))
        };
        let mut cbs = Vec::new();
        let mut groups = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("cb ")
                .ok_or_else(|| format!("unexpected line {line:?}"))?;
            let (cb_tok, eirs) = rest
                .split_once(" eirs")
                .ok_or_else(|| format!("missing ' eirs' in {line:?}"))?;
            cbs.push(parse_coord(cb_tok.trim())?);
            let group: Result<Vec<_>, _> =
                eirs.split_whitespace().map(parse_coord).collect();
            groups.push(group?);
        }
        if cbs.is_empty() {
            return Err("design has no cache banks".into());
        }
        for c in cbs.iter().chain(groups.iter().flatten()) {
            if c.x >= n || c.y >= n {
                return Err(format!("tile {c} outside the {n}x{n} mesh"));
            }
        }
        if (1..cbs.len()).any(|i| cbs[..i].contains(&cbs[i])) {
            return Err("two cache banks share a tile".into());
        }
        // The kind `search` gives the same CB count, so a stored design
        // reloads equal to the searched one.
        let kind = if cbs.len() > n as usize {
            equinox_placement::PlacementKind::Knight
        } else {
            equinox_placement::PlacementKind::NQueen
        };
        let placement = Placement::new(n, n, cbs, kind);
        let selection = EirSelection { groups };
        if !selection.is_exclusive(&placement) {
            return Err("EIRs are shared between CBs or collide with a CB".into());
        }
        Ok(EquiNoxDesign {
            placement,
            selection,
        })
    }

    /// ASCII rendering of the design: `Ci` marks cache bank `i`, `ei` an
    /// EIR belonging to CB `i`, `.` a plain PE tile.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let n = self.placement.width;
        let mut out = String::new();
        for y in 0..n {
            for x in 0..n {
                let t = equinox_phys::Coord::new(x, y);
                if let Some(ci) = self.placement.cb_index(t) {
                    let _ = write!(out, "C{ci} ");
                } else if let Some(ci) =
                    self.selection.groups.iter().position(|g| g.contains(&t))
                {
                    let _ = write!(out, "e{ci} ");
                } else {
                    out.push_str(" . ");
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_design_is_well_formed() {
        let d = EquiNoxDesign::quick(8, 8);
        assert_eq!(d.placement.cbs.len(), 8);
        assert!(d.placement.is_queen_safe());
        assert_eq!(d.selection.groups.len(), 8);
        assert!(d.selection.is_exclusive(&d.placement));
        assert!(d.num_links() >= 8, "every CB should get EIRs");
    }

    #[test]
    fn design_needs_few_rdl_layers() {
        // The paper's design fits one RDL; ours must stay close.
        let d = EquiNoxDesign::quick(8, 8);
        assert!(d.rdl_layers() <= 2, "layers = {}", d.rdl_layers());
    }

    #[test]
    fn ubumps_scale_with_links() {
        let d = EquiNoxDesign::quick(8, 8);
        assert_eq!(d.ubump_count(128), d.num_links() * 128 * 2);
    }

    #[test]
    fn render_marks_all_cbs_and_eirs() {
        let d = EquiNoxDesign::quick(8, 8);
        let r = d.render();
        assert_eq!(r.lines().count(), 8);
        for i in 0..8 {
            assert!(r.contains(&format!("C{i}")), "CB {i} missing");
        }
        assert_eq!(
            r.matches('e').count(),
            d.num_links(),
            "every EIR rendered once"
        );
    }

    #[test]
    fn text_roundtrip() {
        let d = EquiNoxDesign::quick(8, 8);
        let text = d.to_text();
        let back = EquiNoxDesign::from_text(&text).expect("parses");
        assert_eq!(back, d);
        // More CBs than rows (the knight-move family) reloads equal too.
        let over = EquiNoxDesign::search_k(8, 12, 100, 7, 1);
        assert_eq!(EquiNoxDesign::from_text(&over.to_text()).as_ref(), Ok(&over));
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(EquiNoxDesign::from_text("nonsense").is_err());
        assert!(EquiNoxDesign::from_text("equinox-design v1\nmesh 8\n").is_err());
        assert!(
            EquiNoxDesign::from_text("equinox-design v1\nmesh 8\ncb 9,0 eirs 1,1\n").is_err(),
            "off-grid CB"
        );
        assert!(
            EquiNoxDesign::from_text(
                "equinox-design v1\nmesh 8\ncb 1,0 eirs 3,3\ncb 5,5 eirs 3,3\n"
            )
            .is_err(),
            "shared EIR"
        );
        assert!(
            EquiNoxDesign::from_text(
                "equinox-design v1\nmesh 8\ncb 1,0 eirs 3,3\ncb 1,0 eirs 4,4\n"
            )
            .is_err(),
            "duplicate CB is an error, not a panic"
        );
    }

    #[test]
    fn deterministic() {
        let a = EquiNoxDesign::search(8, 8, 200, 7);
        let b = EquiNoxDesign::search(8, 8, 200, 7);
        assert_eq!(a, b);
    }
}
