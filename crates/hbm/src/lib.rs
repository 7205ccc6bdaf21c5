#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `equinox-hbm` — a bank-level High Bandwidth Memory model.
//!
//! Stands in for the Ramulator integration the paper used (§5): each
//! memory controller owns one HBM *stack* composed of several channels;
//! each channel has banks with open-row state and a shared data bus; the
//! controller schedules requests with FR-FCFS (row hits first, then oldest)
//! — Table 1's configuration.
//!
//! The model is calibrated so a stack sustains HBM2-class bandwidth
//! (256 GB/s, §2.2): 16 channels × one 64 B burst per ~4 controller cycles
//! comfortably exceeds what a single NoC injection router can drain, which
//! is precisely the mismatch EquiNox attacks.
//!
//! # Example
//!
//! ```
//! use equinox_hbm::{HbmConfig, HbmStack, MemAccess};
//!
//! let mut stack = HbmStack::new(HbmConfig::hbm2());
//! stack.enqueue(MemAccess { id: 1, addr: 0x4000, write: false }, 0).unwrap();
//! let mut done = Vec::new();
//! for t in 0..200 {
//!     stack.step(t);
//!     while let Some(c) = stack.pop_completed() {
//!         done.push(c.id);
//!     }
//! }
//! assert_eq!(done, vec![1]);
//! ```

pub mod bank;
pub mod channel;
pub mod config;
pub mod stack;

pub use config::{HbmConfig, HbmTiming};
pub use stack::{Completion, HbmStack, MemAccess};
