#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `equinox-obs` — a dependency-free observability layer.
//!
//! The simulator's end-of-run aggregates (`RunMetrics`, `NetStats`)
//! answer *how much*; diagnosing a congestion pathology or a perf
//! regression needs *when* and *where*. This crate supplies the
//! building blocks the system simulator threads through its hot loop:
//!
//! * [`Histogram`] — fixed-bucket distributions with interpolated
//!   percentiles; `count()` and `sum()` double as the delivered-packet
//!   counter and cycle total of whatever is recorded, so the simulator
//!   keeps one per class and quantity and no separate counters.
//! * [`TimeSeries`] — an interval sampler recording one row of named
//!   series every N cycles into buffers sized at construction.
//! * [`SpanProfiler`] — wall-clock phase timings (aggregates plus a
//!   bounded event ring) for the stages of a simulation step.
//! * [`ChromeTrace`] — a writer for the Chrome trace-event JSON format
//!   (loadable in Perfetto / `chrome://tracing`), used to export span
//!   events and per-flit NoC trace events onto one timeline.
//! * [`StallGrid`] — per-router × per-cause stall-cycle attribution
//!   counters (the `obs/v2` layer), charged by the router pipeline.
//! * [`StreamWriter`] — a line-JSON (NDJSON) frame sink over an
//!   append-mode file, for live mid-run telemetry.
//!
//! Everything here is plain `std`: construction allocates, recording
//! does not. Wall-clock data ([`SpanProfiler`]) is inherently
//! nondeterministic and must only be exported to trace files, never
//! into artifacts that are compared bit-for-bit across runs; the
//! cycle-derived structures ([`Histogram`], [`TimeSeries`]) are
//! deterministic whenever the simulation driving them is.

pub mod chrome;
pub mod histogram;
pub mod series;
pub mod span;
pub mod stall;
pub mod stream;

pub use chrome::ChromeTrace;
pub use histogram::Histogram;
pub use series::{SeriesId, TimeSeries};
pub use span::{SpanEvent, SpanId, SpanProfiler};
pub use stall::{NetCause, StallGrid, CAUSE_NAMES, NET_CAUSE_NAMES, STALL_CLASSES};
pub use stream::StreamWriter;
