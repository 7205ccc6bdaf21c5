#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `equinox-traffic` — throughput-processor traffic generation.
//!
//! Replaces the GPGPU-Sim + CUDA-benchmark side of the paper's evaluation
//! (§5) with a calibrated synthetic model:
//!
//! * [`profile`] — one traffic profile per benchmark of the paper's suite
//!   (29 workloads from Rodinia and the NVIDIA CUDA SDK), parameterized by
//!   memory intensity, read fraction, L2 hit rate, spatial locality,
//!   burstiness and length. The profile mix is calibrated so reply traffic
//!   carries ≈72.7% of NoC bits, the split the paper measures (§2.2).
//! * [`pe`] — a processing-element (SM) model: one instruction per cycle
//!   when not blocked, a bounded number of outstanding misses (MSHRs), and
//!   bursty, spatially-local address generation. PEs communicate only with
//!   cache banks — the Many-to-Few-to-Many pattern (§2.1).
//! * [`workload`] — helpers to instantiate a PE array for a benchmark.
//! * [`synthetic`] — classical adversarial patterns (uniform, hotspot,
//!   transpose, bursty on/off) for fabric stress testing.
//!
//! The *system* wiring (NIs, cache banks, HBM) lives in `equinox-core`;
//! this crate deliberately knows nothing about networks.

pub mod pe;
pub mod profile;
pub mod synthetic;
pub mod workload;

pub use pe::{MemOp, Pe};
pub use profile::{BenchmarkProfile, all_benchmarks, benchmark};
pub use synthetic::SyntheticPattern;
pub use workload::Workload;
