#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `equinox-mcts` — design-space search for Equivalent Injection Routers.
//!
//! Selecting the EIR groups is a combinatorial problem (≈1.7 × 10¹⁰
//! combinations for 8×8 even when EIRs are limited to 3 hops, §4.3). This
//! crate implements the paper's search stack:
//!
//! * [`problem`] — the EIR selection problem: per-CB candidate tiles
//!   (outside every hot zone, within a hop budget, one per relative
//!   direction, never shared between CBs) and the selection type;
//! * [`eval`] — the four-metric evaluation function (max EIR load, average
//!   hop count, RDL wire crossings, total link length), normalized and
//!   summed, lower-is-better;
//! * [`tree`] — Monte Carlo Tree Search with UCB1 selection and
//!   group-by-group expansion (one tree level per CB, the paper's depth
//!   optimization);
//! * [`ga`], [`sa`] — the genetic-algorithm and simulated-annealing
//!   baselines the paper argues are less effective (§4.3), used by the
//!   ablation benches.
//!
//! # Example
//!
//! ```
//! use equinox_mcts::{problem::EirProblem, tree::MctsConfig};
//! use equinox_placement::select::best_nqueen_placement;
//!
//! let placement = best_nqueen_placement(8, 8, usize::MAX, 0);
//! let problem = EirProblem::new(placement);
//! let result = equinox_mcts::tree::search(&problem, &MctsConfig { iterations: 300, ..Default::default() });
//! assert_eq!(result.selection.groups.len(), 8);
//! ```

pub mod eval;
pub mod ga;
pub mod problem;
pub mod sa;
mod tables;
pub mod tree;

pub use eval::{EvalWeights, Evaluation};
pub use problem::{EirProblem, EirSelection};
pub use tree::{search, MctsConfig, SearchResult};
