#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `equinox-noc` — a cycle-accurate network-on-chip simulator.
//!
//! This crate rebuilds, from scratch, the NoC substrate the EquiNox paper
//! (HPCA 2020) obtained from a heavily-modified BookSim 2.0: a flit-level,
//! cycle-based mesh simulator with virtual-channel routers, credit-based
//! flow control, separable input-first switch allocation, and minimal
//! adaptive routing with an XY escape channel.
//!
//! The simulator is deliberately *mechanism-complete* rather than
//! RTL-exact: every architectural feature the seven evaluated schemes rely
//! on is modelled —
//!
//! * single or separate physical networks with per-class VC partitions and
//!   optional VC monopolization (VC-Mono),
//! * extra injection/ejection ports on chosen routers (MultiPort and the
//!   EIR input port of EquiNox),
//! * auxiliary interposer links feeding remote routers (EquiNox's CB→EIR
//!   links, tagged so energy/µbump accounting can separate them),
//! * concentrated meshes (the Interposer-CMesh baseline),
//! * narrow subnets running at a different clock (DA2Mesh).
//!
//! # Architecture
//!
//! A [`network::Network`] owns a grid of routers — flat arrays of VC
//! state, see [`router`] — connected by `Link`s. Network interfaces (built in `equinox-core`) inject
//! flits through [`network::InjectorId`] handles — each handle is an extra
//! input port on some router, fed by a link with its own latency and
//! credit loop, which is exactly how the EquiNox NI's five single-packet
//! buffers attach to the local router and the four EIRs.
//!
//! Every cycle proceeds in two phases: arrivals (the flits and credits due
//! this cycle come off the links' arrival wheels; a flit in flight already
//! sits, staged and out of sight, in the input buffer it is bound for) and
//! router stages (route computation → VC allocation → switch allocation →
//! traversal). A flit advances at most one hop per cycle; links add
//! configurable latency on top.
//!
//! # Example
//!
//! ```
//! use equinox_noc::config::NocConfig;
//! use equinox_noc::flit::{MessageClass, PacketDesc};
//! use equinox_noc::network::Network;
//! use equinox_phys::Coord;
//!
//! let cfg = NocConfig::mesh_8x8();
//! let mut net = Network::mesh(cfg);
//! let injector = net.local_injector(Coord::new(0, 0));
//! let pkt = PacketDesc::new(0, Coord::new(0, 0), Coord::new(3, 3), MessageClass::Reply, 5);
//!
//! // Feed the packet one flit per cycle, then run until it pops out.
//! let mut flits = pkt.flits(net.width()).into_iter().peekable();
//! let mut got = 0;
//! for _ in 0..200 {
//!     if let Some(&f) = flits.peek() {
//!         if net.try_inject_flit(injector, f) {
//!             flits.next();
//!         }
//!     }
//!     net.step();
//!     // The network knows which ejection ports hold a flit; the drain
//!     // visits only those (here: port 4 of the router at (3, 3)).
//!     net.drain_ejected(|_router, _port, _flit| got += 1);
//! }
//! assert_eq!(got, 5, "all five flits of the packet must arrive");
//! ```

pub mod audit;
pub mod config;
pub mod flit;
pub mod link;
pub mod network;
pub mod router;
pub mod routing;
pub mod stats;
pub mod topology;
pub mod trace;
mod worklist;

pub use audit::{AuditConfig, DeadlockReport, Violation};
pub use config::{NocConfig, RoutingKind, VcPartition};
pub use flit::{Flit, MessageClass, PacketDesc, PacketId};
pub use link::LinkKind;
pub use network::{InjectorId, Network, VcAllocCounts};
pub use stats::NetStats;
pub use topology::{PortSet, TopoLink, Topology, TopologyKind};
pub use trace::{Trace, TraceEvent, TraceKind};
