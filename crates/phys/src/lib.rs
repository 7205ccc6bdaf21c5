#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Silicon-interposer physical model for EquiNox.
//!
//! This crate models the *physical* side of an interposer-based 2.5D system
//! as described in §2.1/§3.2.3 of the EquiNox paper (HPCA 2020):
//!
//! * [`geom`] — tile-grid coordinates and directions shared by the whole
//!   workspace (routers, cache banks and EIRs all live on the same grid).
//! * [`segment`] — straight wire segments routed in the interposer's
//!   redistribution layers (RDLs) and *proper-crossing* detection between
//!   them. Crossing wires must be assigned to different metal layers, and
//!   yielding complexity grows steeply with layer count, so EquiNox
//!   minimizes crossings.
//! * [`rdl`] — estimating how many RDL metal layers a set of interposer
//!   links requires (greedy coloring of the crossing graph).
//! * [`bumps`] — micro-bump (µbump) count and silicon-area accounting.
//!   Every interposer wire needs a µbump per die attachment, and µbumps
//!   consume processor-die area (§3.2.3, §6.6).
//! * [`wire`] — interposer wire lengths in millimetres and the
//!   single-cycle / repeater-free constraint for passive interposers.
//!
//! # Example
//!
//! ```
//! use equinox_phys::geom::Coord;
//! use equinox_phys::segment::Segment;
//!
//! // Two one-hop links leaving diagonally-adjacent tiles cross in the RDL.
//! let a = Segment::new(Coord::new(2, 2), Coord::new(3, 2));
//! let b = Segment::new(Coord::new(3, 1), Coord::new(3, 3));
//! assert!(a.crosses(&b));
//! ```

pub mod bumps;
pub mod geom;
pub mod rdl;
pub mod segment;
pub mod wire;

pub use bumps::BumpModel;
pub use geom::{Coord, Direction};
pub use rdl::rdl_layers_required;
pub use segment::{count_crossings, Segment};
pub use wire::WireModel;
