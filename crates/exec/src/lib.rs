//! # equinox-exec — parallel execution layer
//!
//! Std-only infrastructure shared by every other crate in the
//! workspace:
//!
//! * [`pool`] — a scoped-thread worker pool ([`par_map`]) that fans
//!   independent jobs (scheme × workload sweep cells, MCTS root
//!   streams, load-latency sample points) across cores with no external
//!   dependency. Thread count comes from [`set_threads`] (the driver
//!   passes the resolved spec's `threads`) or available parallelism.
//! * [`team`] — a persistent worker team ([`StepTeam`]) handed a
//!   borrowed task closure per round through an epoch barrier. No
//!   simulation uses it: its one reader is the benchmark's barrier
//!   probe, and it goes with that probe (ROADMAP.md item 1).
//! * [`rng`] — a deterministic splitmix64 + xoshiro256** PRNG
//!   ([`Rng`]) replacing the external `rand` crate, with explicit
//!   stream splitting ([`Rng::stream`]) so parallel work is
//!   reproducible independent of the worker count.
//!
//! The determinism contract: any function that uses `par_map` +
//! per-job `Rng::stream` produces output that is a pure function of
//! its inputs and seed — never of thread count or scheduling order.

pub mod pool;
pub mod rng;
pub mod team;

pub use pool::{par_map, par_map_with, set_threads, thread_count};
pub use rng::{RangeSample, Rng, Sample};
pub use team::StepTeam;
