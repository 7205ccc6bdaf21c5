#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `equinox-suite` — umbrella crate for the EquiNox reproduction.
//!
//! Re-exports every crate of the workspace so examples and downstream
//! users can depend on one name:
//!
//! * [`core`] — the EquiNox system (schemes, NIs, simulation, metrics)
//! * [`noc`] — the cycle-accurate NoC simulator
//! * [`traffic`] — GPU traffic model and the 29 benchmark profiles
//! * [`hbm`] — the HBM stack model
//! * [`power`] — DSENT-style energy/area models
//! * [`placement`] — CB placement engines (N-Queen, Diamond, …)
//! * [`mcts`] — the EIR design-space search (MCTS, GA, SA)
//! * [`phys`] — interposer physics (wires, crossings, µbumps)
//! * [`exec`] — worker pool + deterministic PRNG streams
//! * [`obs`] — histograms, time series, span profiler, trace export
//! * [`bench`] — experiment runners and scenarios behind the `equinox` driver
//! * [`snap`] — snapshot codec + content-addressed checkpoint cache

pub use equinox_bench as bench;
pub use equinox_config as config;
pub use equinox_core as core;
pub use equinox_exec as exec;
pub use equinox_hbm as hbm;
pub use equinox_mcts as mcts;
pub use equinox_noc as noc;
pub use equinox_obs as obs;
pub use equinox_phys as phys;
pub use equinox_placement as placement;
pub use equinox_power as power;
pub use equinox_snap as snap;
pub use equinox_traffic as traffic;
