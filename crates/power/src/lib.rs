#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `equinox-power` — NoC energy and area modelling in the style of DSENT.
//!
//! The paper feeds BookSim event counts into DSENT (extended with
//! interposer links, §5) and synthesizes new RTL for area. This crate
//! reproduces that flow with 28 nm-class coefficients:
//!
//! * [`energy`] — dynamic energy per event (buffer write/read, crossbar
//!   traversal, allocation, link flit × millimetre) scaled by flit width,
//!   plus area-proportional leakage;
//! * [`area`] — router area from port count, VC count, buffer depth and
//!   flit width (matrix-crossbar wiring scales with `(ports × bits)²`,
//!   which is why Interposer-CMesh's wide 10-port routers dominate
//!   Figure 11 and DA2Mesh's narrow subnets are cheap), plus NI buffers.
//!
//! Absolute joules are not the point (our substrate is a simulator, not
//! the authors' synthesis flow); the *relative* energy and area between
//! schemes is what Figures 9(b), 9(c) and 11 need, and those ratios are
//! driven by event counts and structural parameters that we model exactly.

pub mod area;
pub mod energy;

pub use area::{NiGeometry, RouterGeometry};
pub use energy::{EnergyCoeffs, EnergyModel, EventCounts};
