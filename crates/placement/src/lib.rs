#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Cache-bank (CB) placement engines for EquiNox.
//!
//! In an interposer-based throughput processor, the few last-level cache
//! banks (CBs, each paired with a memory controller) are the injection
//! points of the heavily-loaded reply network, so *where* they sit on the
//! mesh dominates congestion (§4.2 of the paper). This crate implements:
//!
//! * [`scheme`] — the four classic placements evaluated as references
//!   (Top, Side, Diagonal, Diamond, after Abts et al. \[21\]);
//! * [`nqueen`] — enumeration of N-Queen solutions (92 for 8×8) and
//!   N-Queen-based CB placements, which guarantee no two CBs share a row,
//!   column or diagonal;
//! * [`knight`] — knight-move placements for the "more CBs than N" case
//!   (§6.8);
//! * [`score`] — the hot-zone overlap *scoring policy* that ranks
//!   candidate placements (DAZ/CAZ overlaps, compounded penalty);
//! * [`select`] — end-to-end selection of the least-penalized placement.
//!
//! # Example
//!
//! ```
//! use equinox_placement::{nqueen, score::PlacementScorer, select};
//!
//! // All 92 eight-queen solutions exist, and the scorer picks the
//! // least-congested one among them.
//! assert_eq!(nqueen::solutions(8).len(), 92);
//! let best = select::best_nqueen_placement(8, 8, usize::MAX, 0);
//! assert_eq!(best.cbs.len(), 8);
//! ```

pub mod knight;
pub mod nqueen;
pub mod scheme;
pub mod score;
pub mod select;

pub use scheme::{Placement, PlacementKind};
pub use score::PlacementScorer;
pub use select::best_nqueen_placement;
