#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `equinox-core` — the EquiNox system: Equivalent Injection Routers for
//! silicon-interposer throughput processors.
//!
//! This crate is the reproduction's centrepiece. It glues the substrates
//! (`equinox-noc`, `equinox-traffic`, `equinox-hbm`, `equinox-power`,
//! `equinox-placement`, `equinox-mcts`, `equinox-phys`) into the full
//! machine the paper evaluates, and implements everything specific to
//! EquiNox itself:
//!
//! * [`design`] — the §4 pipeline: scored N-Queen CB placement feeding an
//!   MCTS search for EIR groups, with µbump and RDL-layer accounting;
//! * [`ni`] — the modified CB network interface of Figure 8 (five
//!   single-packet injection buffers and the Buffer Selector implementing
//!   the paper's *Buffer Selection 1* policy), plus the injection policies
//!   of all six baselines;
//! * [`cb`] — cache banks with hit/miss behaviour and FR-FCFS HBM behind
//!   each memory controller;
//! * [`scheme`] — the seven schemes and, as `SchemeKind::plan`, what each
//!   is made of (the paper's §5 table as a value);
//! * [`system`] — assembly of a machine from that plan and the
//!   cycle-level simulation loop;
//! * [`metrics`], [`msg`] — execution/energy/EDP/latency metrics and
//!   packet tracking;
//! * [`obs`] — the system-side observability layer (latency histograms,
//!   time series, step-phase spans, Chrome trace assembly);
//! * [`heatmap`] — the Figure 4 placement-congestion experiment;
//! * [`loadlat`] — reply-network load–latency curves (where the
//!   injection bottleneck saturates, and how far EIRs push the knee);
//! * [`svg`] — dependency-free SVG renderers for the design diagram and
//!   heat maps.
//!
//! # Quickstart
//!
//! ```no_run
//! use equinox_core::scheme::SchemeKind;
//! use equinox_core::system::{System, SystemConfig};
//! use equinox_traffic::{profile::benchmark, Workload};
//!
//! let workload = Workload::new(benchmark("kmeans").unwrap(), 0.1, 42);
//! let cfg = SystemConfig::new(SchemeKind::EquiNox, 8, workload);
//! let metrics = System::build(cfg).run();
//! println!("{} cycles, EDP {:.3e}", metrics.cycles, metrics.edp);
//! ```

pub mod cb;
pub mod design;
pub mod heatmap;
pub mod loadlat;
pub mod metrics;
pub mod msg;
pub mod ni;
pub mod obs;
pub mod scheme;
pub mod svg;
pub mod system;

pub use design::EquiNoxDesign;
pub use metrics::RunMetrics;
pub use msg::{LatencyBreakdown, MemOpKind, Message, PacketTracker};
pub use obs::ObsConfig;
pub use scheme::SchemeKind;
pub use system::{System, SystemConfig};
