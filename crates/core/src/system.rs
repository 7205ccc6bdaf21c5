//! Full-system assembly and simulation: PEs + NIs + networks + CBs + HBM.
//!
//! [`System::build`] wires one of the seven schemes (§5); [`System::run`]
//! advances the whole machine cycle-by-cycle until every PE retires its
//! instruction quota and receives all replies, then derives the metrics
//! of §6 (execution time, energy, EDP, latency split, area, µbumps).

use crate::cb::CacheBank;
use crate::design::EquiNoxDesign;
use crate::metrics::RunMetrics;
use crate::msg::{MemOpKind, PacketTracker};
use crate::ni::{InjectPolicy, InjectionQueue};
use crate::obs::{Phase, SystemObs};
use crate::scheme::{NiKind, SchemeKind, SchemePlan, CONCENTRATION, CORE_GHZ};
use equinox_hbm::HbmConfig;
use equinox_noc::flit::MessageClass;
use equinox_noc::link::LinkKind;
use equinox_noc::network::{InjectorId, Network};
use equinox_phys::{BumpModel, Coord, WireModel};
use equinox_placement::Placement;
use equinox_power::{EnergyModel, EventCounts, NiGeometry, RouterGeometry};
use equinox_traffic::{Pe, Workload};

/// Build-time parameters of a run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which of the seven schemes to build.
    pub scheme: SchemeKind,
    /// Grid size (8, 12 or 16; the paper evaluates 8×8).
    pub n: u16,
    /// Fabric of the dedicated reply subnet, for the schemes whose plan
    /// lets it follow the spec ([`SchemeKind::plan`]).
    pub reply_topology: equinox_noc::TopologyKind,
    /// Number of cache banks (Table 1: 8).
    pub n_cbs: u16,
    /// The benchmark workload.
    pub workload: Workload,
    /// Safety cap on simulated cycles.
    pub max_cycles: u64,
    /// Pre-computed EquiNox design (searched on demand if absent).
    pub design: Option<EquiNoxDesign>,
    /// Overrides the scheme's default CB placement (Diamond for the six
    /// baselines) — used by the placement ablation studies.
    pub placement_override: Option<Placement>,
    /// NI message-queue capacity.
    pub ni_queue_cap: usize,
    /// Maximum requests concurrently inside one CB.
    pub cb_inflight_cap: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// HBM stack configuration (one stack per CB).
    pub hbm: HbmConfig,
    /// Extra router pipeline stages for every network (0 = the paper's
    /// aggressive single-cycle router).
    pub pipeline_extra: u32,
    /// Probability a read reply travels compressed (the §7 coalescing
    /// extension; 0 disables it).
    pub reply_compression: f64,
    /// Invariant-auditor configuration. `None` (the default) disables all
    /// audit work; the drivers fill it in from the resolved
    /// [`ExperimentSpec`](equinox_config::ExperimentSpec) (the spec's
    /// environment layer is what gives `EQUINOX_AUDIT` its effect).
    pub audit: Option<equinox_noc::AuditConfig>,
    /// Activity-driven stepping: gate each network's sweep to its active
    /// routers, re-try a blocked head only once an output VC it wants
    /// opens, and skip idle NIs. Bit-identical to exhaustive stepping
    /// by construction, so it defaults on; the spec's
    /// `--no-activity-gate` / `EQUINOX_NO_ACTIVITY_GATE` escape hatch
    /// turns it off.
    pub activity_gate: bool,
    /// Observability configuration. `None` (the default) keeps the hot
    /// loop on the allocation-free fast path — one `Option` branch per
    /// event; `Some` arms the latency histograms, the interval time-series
    /// sampler and the step-phase span profiler (all preallocated at
    /// build time). Drivers fill it in from the resolved spec's `--obs`.
    pub obs: Option<crate::obs::ObsConfig>,
    /// Per-network flit-trace ring capacity; 0 (the default) disables
    /// tracing. Drivers set [`SystemConfig::TRACE_CAPACITY`] from
    /// `--trace`.
    pub trace_capacity: usize,
}

impl SystemConfig {
    /// The flit-trace ring capacity per network that the spec's `trace`
    /// arms; the oldest events drop once a ring is full.
    pub(crate) const TRACE_CAPACITY: usize = 65_536;

    /// Table 1's machine: [`SystemConfig::from_spec`] of the default
    /// spec, which reads no environment (auditing off, gating on).
    pub fn new(scheme: SchemeKind, n: u16, workload: Workload) -> Self {
        Self::from_spec(scheme, n, workload, &equinox_config::ExperimentSpec::default())
    }

    /// Everything a resolved [`ExperimentSpec`](equinox_config::ExperimentSpec)
    /// dictates (capacities, latencies, auditing, activity gating), with
    /// no design or placement override yet.
    ///
    /// The spec's `n` is *not* applied here — scenarios sweep mesh sizes
    /// explicitly — which is why the mesh size stays a parameter.
    pub fn from_spec(
        scheme: SchemeKind,
        n: u16,
        workload: Workload,
        spec: &equinox_config::ExperimentSpec,
    ) -> Self {
        SystemConfig {
            scheme,
            n,
            // The spec setter already validated the name, so a parse
            // failure here means the registries drifted apart — fail loudly.
            reply_topology: equinox_noc::TopologyKind::parse(&spec.topology)
                .unwrap_or_else(|e| panic!("spec topology: {e}")),
            n_cbs: spec.n_cbs,
            workload,
            max_cycles: spec.max_cycles,
            design: None,
            placement_override: None,
            ni_queue_cap: spec.ni_queue_cap,
            cb_inflight_cap: spec.cb_inflight_cap,
            l2_latency: spec.l2_latency,
            hbm: HbmConfig::hbm2(),
            pipeline_extra: spec.pipeline_extra,
            reply_compression: spec.reply_compression,
            audit: Self::audit_from_spec(spec),
            activity_gate: spec.activity_gate,
            // A live stream implies observability: the frames are produced
            // by the sampling path, so `--obs-stream` alone arms it.
            obs: (spec.obs || !spec.obs_stream.is_empty()).then_some(crate::obs::ObsConfig {
                interval: spec.obs_interval.max(1),
                stream: spec.obs_stream.clone(),
            }),
            trace_capacity: if spec.trace { Self::TRACE_CAPACITY } else { 0 },
        }
    }

    /// The auditor configuration a spec asks for (`None` when disarmed);
    /// also what the bare-network scenarios arm their `Network`s with.
    pub fn audit_from_spec(
        spec: &equinox_config::ExperimentSpec,
    ) -> Option<equinox_noc::AuditConfig> {
        spec.audit.then(equinox_noc::AuditConfig::default)
    }

    /// What [`System::build`] would assemble, without building it.
    ///
    /// # Errors
    ///
    /// Returns the one-line reason no such machine exists or run fits: a
    /// `max_cycles`, `l2_latency` or observability interval over
    /// [`equinox_config::MAX_CYCLES_LIMIT`], an `n` over
    /// [`equinox_config::MESH_LIMIT`], the plan's
    /// ([`SchemeKind::plan`]), a cache-bank count no Diamond holds (a
    /// placement override brings its own banks, and EquiNox's search
    /// places more than `n` along knight moves), more banks than that
    /// knight walk places, a bank on every tile, an EquiNox placement
    /// override that is not the supplied design's placement (the EIR
    /// groups are attached to the override's banks in CB order, so a
    /// design made for other banks puts them at the wrong distances, on
    /// a bank's own router or on another bank's tile), or an EquiNox
    /// design search with no N-Queen board to start from (2×2 and 3×3
    /// have none; a supplied design needs no search).
    pub fn check(&self) -> Result<SchemePlan, String> {
        let limit = equinox_config::MAX_CYCLES_LIMIT;
        if self.max_cycles > limit {
            return Err(format!(
                "max_cycles = {}: the packet tracker stamps cycles in 32 bits, so a run stops \
                 by cycle {limit}",
                self.max_cycles
            ));
        }
        let interval = self.obs.as_ref().map_or(1, |o| o.interval);
        for (name, v) in [("l2_latency", self.l2_latency), ("obs interval", interval)] {
            if v > limit {
                return Err(format!(
                    "{name} = {v}: longer than any run, which stops by cycle {limit}"
                ));
            }
        }
        let mesh = equinox_config::MESH_LIMIT;
        if self.n > mesh {
            return Err(format!(
                "n = {}: a network's route table holds (n²)² entries, so meshes stop at \
                 {mesh}x{mesh}",
                self.n
            ));
        }
        let plan = self.scheme.plan(self.n, self.reply_topology)?;
        let (n, k) = (self.n, self.n_cbs);
        let equinox = plan.cb_ni == NiKind::Equinox;
        if !equinox && self.placement_override.is_none() && !(1..=n).contains(&k) {
            return Err(format!(
                "n_cbs = {k}: {} places its cache banks on a diamond, which holds 1 to {n} of \
                 them on a {n}x{n} mesh",
                self.scheme
            ));
        }
        if let (true, Some(over)) = (equinox, &self.placement_override) {
            if self.design.as_ref().map(|d| &d.placement) != Some(over) {
                let why = match self.design {
                    None => "none is supplied, and the search would pick its own N-Queen board",
                    Some(_) => "the supplied one was made for another placement",
                };
                return Err(format!(
                    "placement override: {} attaches EIR groups from a design made for the \
                     override's banks; {why}",
                    self.scheme
                ));
            }
        }
        let tiles = u32::from(n) * u32::from(n);
        if equinox && self.design.is_none() && !equinox_placement::knight::knight_walk_places(n, k)
        {
            return Err(format!(
                "n_cbs = {k}: {} places more than {n} cache banks along a knight walk, which \
                 visits each of a {n}x{n} mesh's {tiles} tiles once",
                self.scheme
            ));
        }
        if u32::from(k) >= tiles {
            return Err(format!(
                "n_cbs = {k}: a {n}x{n} mesh has {tiles} tiles, so a bank on each leaves no PE"
            ));
        }
        if equinox && self.design.is_none() && k <= n && !equinox_placement::nqueen::solvable(n) {
            return Err(format!(
                "n = {n}: {} places cache banks on an N-Queen solution, and a {n}x{n} mesh \
                 has none (n_cbs = {k}; more than {n} banks would walk knight moves instead)",
                self.scheme
            ));
        }
        Ok(plan)
    }

    /// The `run` field of this system's stream frames:
    /// `<scheme>/<benchmark>/<seed>/<n>x<n>/<hash>`. The hash covers every
    /// field a frame can depend on — the design, the placement override,
    /// each capacity and latency — so the concurrent cells of one
    /// scenario, which all append to one file, never share an id; how the
    /// run was hosted (obs/stream target, auditing, tracing, gating)
    /// stays out, so the id is the same wherever it ran.
    ///
    /// Kept out of line: inlined into `System::build`, the `Debug`
    /// formatting moved enough code around to cost the benchmark's
    /// `repro-sweep` 4 % `wall_s` (13 of 14 pairs) with obs off.
    #[cold]
    #[inline(never)]
    fn run_id(&self) -> String {
        let mut ident = self.clone();
        ident.obs = None;
        ident.audit = None;
        ident.trace_capacity = 0;
        ident.activity_gate = true;
        let hash = equinox_snap::fnv1a(format!("{ident:?}").as_bytes());
        let (w, n) = (&self.workload, self.n);
        format!("{}/{}/{}/{n}x{n}/{:08x}", self.scheme.name(), w.profile.name, w.seed, hash as u32)
    }
}

/// Who consumes the flits an ejection port parks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sink {
    /// The PE at this node index: replies, always accepted.
    Pe(u32),
    /// This cache bank: requests, accepted while the bank has room.
    Cb(u32),
}

/// `(net, router, port)` → the consumer of that ejection port, fixed at
/// build time. [`System::step`]'s drain looks up each port a network
/// reports as holding a flit.
#[derive(Debug)]
struct SinkTable {
    /// Per network: ports per router row (the widest owned port + 1) and
    /// the rows, router-major.
    nets: Vec<(usize, Vec<Option<Sink>>)>,
}

impl SinkTable {
    fn from_list(n_nets: usize, list: &[((usize, usize, usize), Sink)]) -> Self {
        let mut nets = Vec::new();
        for net in 0..n_nets {
            let ports = || list.iter().filter(move |((n, _, _), _)| *n == net);
            let stride = ports().map(|((_, _, p), _)| p + 1).max().unwrap_or(0);
            let routers = ports().map(|((_, r, _), _)| r + 1).max().unwrap_or(0);
            let mut owners = vec![None; routers * stride];
            for &((_, r, p), sink) in ports() {
                let slot = &mut owners[r * stride + p];
                assert!(slot.is_none(), "net {net} router {r} port {p} has two sinks");
                *slot = Some(sink);
            }
            nets.push((stride, owners));
        }
        SinkTable { nets }
    }

    #[inline]
    fn owner(&self, net: usize, router: usize, port: usize) -> Option<Sink> {
        let (stride, owners) = &self.nets[net];
        if port >= *stride {
            return None;
        }
        *owners.get(router * stride + port)?
    }
}

/// Section tags of the [`System::snapshot`] container.
mod snap_tags {
    pub(crate) const SYS: u32 = 1;
    pub(crate) const NETS: u32 = 2;
    pub(crate) const PES: u32 = 3;
    pub(crate) const NIS: u32 = 4;
    pub(crate) const CBS: u32 = 5;
    pub(crate) const TRACKER: u32 = 6;
    pub(crate) const OBS: u32 = 7;
}

/// What [`System::restore`] names a snapshot its replay did not reach.
const NOT_THIS_STATE: &str = "not this build's state at the snapshot's cycle";

/// The assembled machine.
pub struct System {
    cfg: SystemConfig,
    /// CB placement in use.
    pub placement: Placement,
    /// What the scheme is made of; `plan.subnets[i]` describes `nets[i]`.
    plan: SchemePlan,
    nets: Vec<Network>,
    /// Per network, half core cycles of stepping owed.
    step_accum: Vec<u32>,
    pes: Vec<Option<Pe>>,
    /// `retired[idx]` mirrors `pes[idx].done()`; with `done_pes` it turns
    /// the per-cycle O(n_PEs) done-scan into an O(1) counter check
    /// (`Pe::done()` is absorbing, so a flag never needs clearing).
    retired: Vec<bool>,
    done_pes: usize,
    live_pes: usize,
    req_nis: Vec<Option<InjectionQueue>>,
    cbs: Vec<CacheBank>,
    rep_nis: Vec<InjectionQueue>,
    /// Which PE or CB drains each ejection port.
    sinks: SinkTable,
    /// End-to-end packet registry.
    pub tracker: PacketTracker,
    cycle: u64,
    area_mm2: f64,
    ubumps: usize,
    total_instrs: u64,
    /// System-level progress counter at its last observed change
    /// (auditing only).
    sys_last_progress: u64,
    /// Cycle of that change.
    sys_last_progress_cycle: u64,
    /// System-level audit findings retained when the auditor is
    /// configured not to panic.
    audit_findings: Vec<String>,
    /// Observability state; `None` keeps the hot loop on the
    /// one-branch-per-event fast path.
    obs: Option<Box<SystemObs>>,
}

impl System {
    /// Builds the machine for `cfg`: a loop over its scheme's plan.
    ///
    /// # Panics
    ///
    /// Panics with [`SystemConfig::check`]'s reason, before any network
    /// exists, when no such machine can be built.
    pub fn build(cfg: SystemConfig) -> Self {
        let mut plan = cfg.check().unwrap_or_else(|e| panic!("{e}"));
        let n = cfg.n;
        let nodes = n as usize * n as usize;
        // Resolved once: without a configured design this is a full
        // design search.
        let design = (plan.cb_ni == NiKind::Equinox).then(|| {
            cfg.design
                .clone()
                .unwrap_or_else(|| EquiNoxDesign::quick(n, cfg.n_cbs))
        });
        let placement = match (&cfg.placement_override, &design) {
            (Some(p), _) => p.clone(),
            (None, Some(d)) => d.placement.clone(),
            (None, None) => Placement::diamond(n, n, cfg.n_cbs),
        };

        // A PE on every other tile, each with at most `mshrs` memops in
        // flight, and a memop is one live packet at a time: its request's
        // handle is freed before its reply takes one. So no network holds
        // more packets than this, whatever its buffers could.
        let live_packets = (nodes - placement.cbs.len()) * cfg.workload.mshrs as usize;
        let mut nets: Vec<Network> = plan
            .subnets
            .iter()
            .map(|row| {
                let mut c = row.noc.clone();
                c.pipeline_extra = cfg.pipeline_extra;
                c.activity_gate = cfg.activity_gate;
                let mut net = Network::new(c);
                net.cap_packets(live_packets);
                net
            })
            .collect();
        let request_nets = plan.carrying(MessageClass::Request);
        let reply_nets = plan.carrying(MessageClass::Reply);
        let mut ubumps = 0usize;

        // Every node's injection and ejection port on the concentrated mesh.
        let cmesh = plan.subnets.iter().position(|s| s.concentrated);
        let pe_ni = if cmesh.is_some() { NiKind::CmeshSplit } else { NiKind::Local };
        let mut cmesh_ports: Vec<(InjectorId, (usize, usize))> = Vec::new();
        if let Some(c) = cmesh {
            let net = &mut nets[c];
            // Neutralize the CMesh's own local ejection tags so only the
            // per-node tagged ports match.
            for r in 0..net.config().num_nodes() {
                net.set_ejection_sink(r, 4, Some(u32::MAX));
            }
            for idx in 0..nodes {
                let node = Coord::from_index(idx, n);
                let cnode = Coord::new(node.x / CONCENTRATION, node.y / CONCENTRATION);
                cmesh_ports.push((
                    net.add_injection_port(cnode, 1, LinkKind::Interposer),
                    net.add_ejection_port(cnode, Some(idx as u32)),
                ));
            }
            // 2·n² node↔CMesh uni-directional links, one bump per wire
            // (§6.6's 32,768 for 8×8).
            ubumps = BumpModel::default().bump_count(2 * nodes, net.config().link_bits as usize, 1);
        }
        let cmesh_injector = |idx: usize| cmesh_ports.get(idx).map(|p| p.0);
        // `(router, port)` of network `net` that ejects to node `idx`.
        let eject_port = |net: usize, idx: usize| match cmesh {
            Some(c) if c == net => cmesh_ports[idx].1,
            _ => (idx, 4),
        };

        let mut pes: Vec<Option<Pe>> = Vec::new();
        let mut req_nis: Vec<Option<InjectionQueue>> = Vec::new();
        // `((net, router, port), consumer)` of every ejection port in use.
        let mut sink_list: Vec<((usize, usize, usize), Sink)> = Vec::new();
        let mut rep_nis: Vec<InjectionQueue> = Vec::new();
        let mut cbs: Vec<CacheBank> = Vec::new();

        // PEs, their request NIs and reply sinks.
        let mut pe_count = 0usize;
        for idx in 0..nodes {
            let node = Coord::from_index(idx, n);
            if placement.is_cb(node) {
                pes.push(None);
                req_nis.push(None);
                continue;
            }
            let w = &cfg.workload;
            pes.push(Some(Pe::new(w.profile, pe_count, w.scale, w.mshrs, w.seed)));
            pe_count += 1;
            let policy = InjectPolicy::for_node(
                pe_ni, &mut nets, &request_nets, node, 0, &[], cmesh_injector(idx),
            );
            req_nis.push(Some(InjectionQueue::new(node, cfg.ni_queue_cap, policy)));
            for &rn in &reply_nets {
                let (r, p) = eject_port(rn, idx);
                sink_list.push(((rn, r, p), Sink::Pe(idx as u32)));
            }
        }

        // CBs, their reply NIs and request sinks.
        let mut eir_groups: Vec<Vec<InjectorId>> = Vec::new();
        for (ci, &cb_node) in placement.cbs.iter().enumerate() {
            let idx = cb_node.to_index(n);
            let eirs = design.as_ref().map_or(&[][..], |d| &d.selection.groups[ci]);
            let policy = InjectPolicy::for_node(
                plan.cb_ni, &mut nets, &reply_nets, cb_node, ci, eirs, cmesh_injector(idx),
            );
            // The observability layer reports EIR load per CB group.
            eir_groups.extend(policy.eir_injectors().map(<[_]>::to_vec));
            rep_nis.push(InjectionQueue::new(cb_node, cfg.ni_queue_cap, policy));
            let mut bank = CacheBank::new(
                cb_node,
                placement.cbs.len() as u64,
                cfg.workload.profile.l2_hit,
                cfg.l2_latency,
                cfg.hbm,
                cfg.cb_inflight_cap,
                cfg.workload.seed.wrapping_add(ci as u64),
            );
            if cfg.reply_compression > 0.0 {
                bank.set_compression(cfg.reply_compression);
            }
            cbs.push(bank);
            for &rn in &request_nets {
                let (r, p) = eject_port(rn, idx);
                sink_list.push(((rn, r, p), Sink::Cb(ci as u32)));
            }
        }

        // EquiNox physical accounting (its EIRs inject into `eir_net`).
        let eir_net = reply_nets[0];
        if let Some(d) = &design {
            ubumps = d.ubump_count(nets[eir_net].config().link_bits as usize);
            let segs = d.segments();
            if !segs.is_empty() {
                plan.subnets[eir_net].rdl_link_mm =
                    WireModel::default().total_length_mm(&segs) / segs.len() as f64;
            }
        }

        // --- area model ---
        let mut area = 0.0;
        for (row, net) in plan.subnets.iter().zip(&nets) {
            let c = net.config();
            for idx in 0..c.num_nodes() {
                let node = Coord::from_index(idx, c.width);
                // Injection-only ports are input-side only; counting the
                // paired (dead) output sides would double-charge the
                // crossbar. CMesh routers are the paper's stated "2x more
                // ports than a basic router" (§6.5) = 10; elsewhere the
                // simulator's port count matches the physical router.
                let ports = if row.concentrated { 10 } else { net.router_ports(node) };
                area += RouterGeometry {
                    ports,
                    vcs: c.vcs_per_port as usize,
                    buf_flits: c.vc_buf_flits,
                    flit_bits: c.link_bits as usize,
                }
                .area_mm2();
            }
        }
        // Request NIs (one per PE) + the scheme's reply NI per placed CB.
        area += pe_count as f64 * NiGeometry::baseline().area_mm2();
        area += placement.cbs.len() as f64 * plan.cb_ni_geometry.area_mm2();

        for net in &mut nets {
            if let Some(acfg) = &cfg.audit {
                net.enable_audit(acfg.clone());
            }
            if cfg.trace_capacity > 0 {
                net.enable_trace(cfg.trace_capacity);
            }
            // Stall-cause attribution rides with observability: the
            // router pipelines charge per-router × per-cause counters
            // that the obs block and stream frames report.
            if cfg.obs.is_some() {
                net.enable_stalls();
            }
        }
        let obs = cfg.obs.as_ref().map(|o| {
            let groups = (eir_net, eir_groups);
            Box::new(SystemObs::new(o, &nets, groups, cfg.max_cycles, cfg.n, cfg.run_id()))
        });

        let retired: Vec<bool> = pes
            .iter()
            .map(|p| p.as_ref().is_some_and(|pe| pe.done()))
            .collect();
        System {
            placement,
            done_pes: retired.iter().filter(|&&r| r).count(),
            retired,
            live_pes: pe_count,
            step_accum: vec![0; nets.len()],
            pes,
            req_nis,
            cbs,
            rep_nis,
            sinks: SinkTable::from_list(nets.len(), &sink_list),
            tracker: PacketTracker::new(),
            cycle: 0,
            area_mm2: area,
            ubumps,
            total_instrs: cfg.workload.total_instrs(pe_count),
            sys_last_progress: 0,
            sys_last_progress_cycle: 0,
            audit_findings: Vec::new(),
            obs,
            nets,
            plan,
            cfg,
        }
    }

    /// Pre-reserves packet-tracker capacity for `n` more packets, so a
    /// measured (allocation-free) window can move the record-table
    /// growth out of its timing.
    pub fn reserve_packets(&mut self, n: usize) {
        self.tracker.reserve(n);
    }

    /// Advances the machine one core cycle.
    pub fn step(&mut self) {
        let t = self.cycle;
        let s = self.span_start();
        // Cache banks: memory + reply generation. An idle bank's tick is
        // cheap, since its HBM stack steps only the channels with an
        // event due, so every bank is ticked every cycle.
        for (cb, ni) in self.cbs.iter_mut().zip(&mut self.rep_nis) {
            cb.tick(t, &mut self.tracker, ni);
        }
        self.span_end(Phase::CbTick, 0, s);
        // PEs: execute and emit requests.
        let s = self.span_start();
        let n_cbs = self.cbs.len() as u64;
        for idx in 0..self.pes.len() {
            let Some(pe) = self.pes[idx].as_mut() else {
                continue;
            };
            let ni = self.req_nis[idx].as_mut().expect("PE has a request NI");
            if let Some(op) = pe.tick(ni.can_accept()) {
                let src = Coord::from_index(idx, self.cfg.n);
                let ci = ((op.addr / 64) % n_cbs) as usize;
                let dst = self.cbs[ci].node;
                let kind = if op.write {
                    MemOpKind::Write
                } else {
                    MemOpKind::Read
                };
                let msg = self
                    .tracker
                    .create(src, dst, MessageClass::Request, kind, op.addr, t);
                // `pe.tick(ni.can_accept())` only emits when the NI has
                // room, so this cannot overflow; a rejection here would
                // mean a lost (tracker-registered) request.
                let pushed = ni.try_push(msg);
                assert!(pushed.is_ok(), "request NI refused a gated message");
            }
            // A compute-only quota can retire to completion inside tick().
            if !self.retired[idx] && self.pes[idx].as_ref().is_some_and(|pe| pe.done()) {
                self.retired[idx] = true;
                self.done_pes += 1;
            }
        }
        self.span_end(Phase::PeTick, 0, s);
        // NIs stream flits into the networks. An idle NI's tick is a
        // pure no-op (nothing queued, nothing in flight), so the gate
        // skips the call.
        let s = self.span_start();
        let gate = self.cfg.activity_gate;
        for ni in self.req_nis.iter_mut().flatten() {
            if gate && ni.is_idle() {
                continue;
            }
            ni.tick(&mut self.nets, &mut self.tracker, t);
        }
        for ni in self.rep_nis.iter_mut() {
            if gate && ni.is_idle() {
                continue;
            }
            ni.tick(&mut self.nets, &mut self.tracker, t);
        }
        self.span_end(Phase::NiTick, 0, s);
        // Networks advance (subnets may step more than once).
        for i in 0..self.nets.len() {
            let s = self.span_start();
            self.step_accum[i] += self.plan.subnets[i].steps_per_two;
            while self.step_accum[i] >= 2 {
                self.nets[i].step();
                self.step_accum[i] -= 2;
            }
            let cycle = self.cycle;
            if let Some(o) = self.obs.as_deref_mut() {
                o.end_noc_span(i, s, cycle);
            }
        }
        // Drain the ejection ports the networks report as holding a
        // flit: replies at PEs, requests at CBs.
        let s = self.span_start();
        for net in 0..self.nets.len() {
            self.drain_net(net, t);
        }
        self.span_end(Phase::SinkDrain, 0, s);
        self.cycle += 1;
        if self.cfg.audit.is_some() {
            self.audit_step();
        }
        // Sampling is keyed to the simulated clock, never wall time, so
        // the recorded series is deterministic.
        if let Some(o) = self.obs.as_deref_mut() {
            if self.cycle >= o.next_sample() {
                o.sample(self.cycle, &self.nets, &self.tracker);
            }
        }
    }

    /// Hands the flits parked in network `net` to their consumers, in the
    /// order net ↑ (the caller), router ↑, port ↑, oldest flit first. A
    /// PE takes everything; a CB takes requests while it has room and
    /// leaves the rest parked, which back-pressures the request network.
    /// Consumers do not interact within a cycle, and each one's ports
    /// are visited in ascending network order, so every per-consumer
    /// sequence — all a run's results depend on — is that of polling
    /// each consumer's ports in turn.
    ///
    /// # Panics
    ///
    /// Panics on a flit parked at a port no PE or CB drains (say, a
    /// reply routed to a CB node of a separate reply network): it would
    /// otherwise sit there until `max_cycles`.
    fn drain_net(&mut self, net: usize, t: u64) {
        let mut from = 0;
        while let Some((r, mut ports)) = self.nets[net].next_ejecting(from) {
            from = r + 1;
            while ports != 0 {
                let p = ports.trailing_zeros() as usize;
                ports &= ports - 1;
                match self.sinks.owner(net, r, p) {
                    Some(Sink::Pe(node)) => {
                        let node = node as usize;
                        while let Some(f) = self.nets[net].pop_ejected(r, p) {
                            if f.is_tail() {
                                self.tracker.mark_ejected(f.pkt.0, t);
                                if let Some(o) = self.obs.as_deref_mut() {
                                    o.delivered(1, &self.tracker.record(f.pkt.0), t);
                                }
                                let pe = self.pes[node]
                                    .as_mut()
                                    .expect("reply sink belongs to a PE");
                                pe.complete();
                                if !self.retired[node] && pe.done() {
                                    self.retired[node] = true;
                                    self.done_pes += 1;
                                }
                            }
                        }
                    }
                    Some(Sink::Cb(ci)) => {
                        let ci = ci as usize;
                        while self.cbs[ci].can_accept() {
                            let Some(f) = self.nets[net].pop_ejected(r, p) else {
                                break;
                            };
                            if f.is_tail() {
                                self.tracker.mark_ejected(f.pkt.0, t);
                                if let Some(o) = self.obs.as_deref_mut() {
                                    o.delivered(0, &self.tracker.record(f.pkt.0), t);
                                }
                                self.cbs[ci].accept(f.pkt.0, &self.tracker, t);
                            }
                        }
                    }
                    None => {
                        let f = self.nets[net].pop_ejected(r, p).expect("port reported a flit");
                        panic!(
                            "net {net} router {r} port {p} holds a flit of packet {} \
                             (to {:?}) but no PE or CB drains that port",
                            f.pkt.0, f.dst
                        );
                    }
                }
            }
        }
    }

    /// Opens a wall-clock span (no-op returning 0 when obs is off).
    #[inline]
    fn span_start(&self) -> u64 {
        match &self.obs {
            Some(o) => o.spans.start(),
            None => 0,
        }
    }

    /// Closes a wall-clock span opened by [`System::span_start`].
    #[inline]
    fn span_end(&mut self, phase: Phase, track: u64, start_ns: u64) {
        let cycle = self.cycle;
        if let Some(o) = self.obs.as_deref_mut() {
            o.end_span(phase, track, start_ns, cycle);
        }
    }

    /// System-level audit pass, run at the end of every core cycle when
    /// auditing is enabled (the per-network checks run inside each
    /// network's own `step`).
    ///
    /// * **Packet accounting** (every `check_interval` cycles): packets
    ///   injected-but-undelivered per the tracker must equal the tail
    ///   flits resident in the networks plus the packets still streaming
    ///   out of NIs — a leaked or double-counted packet breaks the
    ///   equality immediately.
    /// * **Protocol watchdog**: if no message is created, injected,
    ///   delivered or moved for `watchdog_window` core cycles while work
    ///   is pending, the run is wedged above the NoC level (e.g. a
    ///   request/reply dependence cycle); dump occupancy instead of
    ///   spinning to `max_cycles`.
    fn audit_step(&mut self) {
        let acfg = self.cfg.audit.as_ref().expect("audit enabled");
        let (interval, window, panic_on) = (
            acfg.check_interval.max(1),
            acfg.watchdog_window,
            acfg.panic_on_violation,
        );
        let progress = self.tracker.len() as u64
            + self.tracker.delivered()
            + self.done_pes as u64
            + self
                .nets
                .iter()
                .map(|n| {
                    let s = n.stats();
                    s.injected_flits + s.ejected_flits + s.xbar_traversals
                })
                .sum::<u64>();
        if progress != self.sys_last_progress {
            self.sys_last_progress = progress;
            self.sys_last_progress_cycle = self.cycle;
        }
        let stalled = self.cycle - self.sys_last_progress_cycle;
        if window > 0 && stalled >= window && !self.done() {
            let pending = self.occupancy() != (0, 0, 0, 0)
                || self.nets.iter().any(|n| !n.quiescent());
            self.sys_last_progress_cycle = self.cycle;
            if pending {
                let (pe_out, req_backlog, cb_inflight, rep_backlog) = self.occupancy();
                let msg = format!(
                    "system deadlock: no protocol progress for {stalled} cycles at cycle {} \
                     with work pending: {} of {} PEs retired, occupancy \
                     (pe_outstanding {pe_out}, req_ni_backlog {req_backlog}, \
                     cb_inflight {cb_inflight}, rep_ni_backlog {rep_backlog}), \
                     {} CBs at capacity, packets in flight {}",
                    self.cycle,
                    self.done_pes,
                    self.live_pes,
                    self.cbs_at_capacity(),
                    self.tracker.in_flight(),
                );
                if panic_on {
                    panic!("{msg}");
                }
                self.audit_findings.push(msg);
            }
        }
        if self.cycle.is_multiple_of(interval) {
            let resident: u64 = self.nets.iter().map(|n| n.resident_tail_flits()).sum();
            let streaming: u64 = self
                .req_nis
                .iter()
                .flatten()
                .chain(self.rep_nis.iter())
                .map(|ni| ni.streaming_packets() as u64)
                .sum();
            let in_flight = self.tracker.in_flight();
            if in_flight != resident + streaming {
                let msg = format!(
                    "packet accounting broken at cycle {}: tracker reports {in_flight} \
                     packets in flight but networks hold {resident} tail flits and NIs \
                     are streaming {streaming} packets",
                    self.cycle
                );
                if panic_on {
                    panic!("{msg}");
                }
                self.audit_findings.push(msg);
            }
        }
        const MAX_FINDINGS: usize = 256;
        self.audit_findings.truncate(MAX_FINDINGS);
    }

    /// System-level audit findings retained so far (always empty while
    /// the auditor panics on violation, or when auditing is off).
    pub fn audit_findings(&self) -> &[String] {
        &self.audit_findings
    }

    /// `true` when every PE has retired its quota and received every
    /// reply. O(1): maintained as a retired-PE counter by [`System::step`].
    pub fn done(&self) -> bool {
        debug_assert_eq!(
            self.done_pes == self.live_pes,
            self.pes.iter().flatten().all(|pe| pe.done()),
            "retired-PE counter out of sync with PE state"
        );
        self.done_pes == self.live_pes
    }

    /// Runs to completion (or the cycle cap) and reports metrics.
    pub fn run(&mut self) -> RunMetrics {
        while !self.done() && self.cycle < self.cfg.max_cycles {
            self.step();
        }
        // Terminal time-series row: runs shorter than one sampling
        // interval still get a data point, and longer runs close their
        // series at the final cycle (cycle-derived, so deterministic).
        if let Some(o) = self.obs.as_deref_mut() {
            if o.needs_final_sample(self.cycle) {
                o.sample(self.cycle, &self.nets, &self.tracker);
            }
            // Close a live stream with the terminal breakdown frame
            // (no-op without `--obs-stream`).
            o.emit_summary_frame(self.cycle, &self.nets);
        }
        self.metrics()
    }

    /// Serializes the machine's complete dynamic state into one
    /// [`equinox_snap`] container: a canonical digest of the state, which
    /// `golden_snapshot.txt` pins section by section. Build-derived state
    /// (topology, placement, area, sinks, clock ratios) is not written.
    ///
    /// Because every component of the simulation is bit-deterministic,
    /// `build + restore + run` produces byte-identical artifacts to the
    /// straight-through run that took the snapshot — the contract
    /// `crates/bench/tests/determinism.rs` enforces.
    pub fn snapshot(&self) -> Vec<u8> {
        use equinox_snap::{Enc, Snap};
        let mut sys = Enc::new();
        sys.put_u64(self.cycle);
        self.step_accum.snap(&mut sys);
        self.retired.snap(&mut sys);
        sys.put_usize(self.done_pes);
        sys.put_u64(self.sys_last_progress);
        sys.put_u64(self.sys_last_progress_cycle);
        self.audit_findings.snap(&mut sys);

        let mut nets = Enc::new();
        nets.put_usize(self.nets.len());
        for n in &self.nets {
            n.snapshot_state(&mut nets);
        }

        let mut pes = Enc::new();
        pes.put_usize(self.pes.len());
        for p in &self.pes {
            match p {
                Some(pe) => {
                    pes.put_u8(1);
                    pe.snap_state(&mut pes);
                }
                None => pes.put_u8(0),
            }
        }

        let mut nis = Enc::new();
        nis.put_usize(self.req_nis.len());
        for ni in &self.req_nis {
            match ni {
                Some(q) => {
                    nis.put_u8(1);
                    q.snap_state(&mut nis);
                }
                None => nis.put_u8(0),
            }
        }
        nis.put_usize(self.rep_nis.len());
        for q in &self.rep_nis {
            q.snap_state(&mut nis);
        }

        let mut cbs = Enc::new();
        cbs.put_usize(self.cbs.len());
        for cb in &self.cbs {
            cb.snap_state(&mut cbs);
        }

        let mut tracker = Enc::new();
        self.tracker.snap(&mut tracker);

        let mut obs = Enc::new();
        match &self.obs {
            Some(o) => {
                obs.put_bool(true);
                o.snap_state(&mut obs);
            }
            None => obs.put_bool(false),
        }

        equinox_snap::write_snapshot(&[
            (snap_tags::SYS, sys.into_bytes()),
            (snap_tags::NETS, nets.into_bytes()),
            (snap_tags::PES, pes.into_bytes()),
            (snap_tags::NIS, nis.into_bytes()),
            (snap_tags::CBS, cbs.into_bytes()),
            (snap_tags::TRACKER, tracker.into_bytes()),
            (snap_tags::OBS, obs.into_bytes()),
        ])
    }

    /// Restores a [`System::snapshot`] by replaying it: rebuilds this
    /// machine from its own [`SystemConfig`] and steps it to the
    /// snapshot's cycle. Every run is bit-deterministic, so the replay
    /// reaches the snapshot's state exactly when the snapshot was taken
    /// between steps of a build of this configuration (not after
    /// [`System::run`] with obs armed: its closing sample is no step's
    /// work). Anything else — another configuration, a corrupt or
    /// truncated blob, a cycle past `max_cycles` — returns a
    /// [`equinox_snap::SnapError`] (after the replay the machine holds
    /// the rebuilt state, so discard it). A machine with a live
    /// `--obs-stream` is refused before the rebuild, since the replay
    /// would write the stream's frames again.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), equinox_snap::SnapError> {
        use equinox_snap::{read_snapshot, section, Dec, SnapError};
        let cycle = Dec::new(section(&read_snapshot(bytes)?, snap_tags::SYS)?).u64()?;
        if cycle > self.cfg.max_cycles {
            return Err(SnapError::BadValue("snapshot cycle past max_cycles"));
        }
        if self.cfg.obs.as_ref().is_some_and(|o| !o.stream.is_empty()) {
            return Err(SnapError::BadValue("a replay would rewrite the live obs stream"));
        }
        *self = System::build(self.cfg.clone());
        while self.cycle < cycle {
            self.step();
        }
        if self.snapshot() != bytes {
            return Err(SnapError::BadValue(NOT_THIS_STATE));
        }
        Ok(())
    }

    /// Assembles the metrics of the run so far.
    pub fn metrics(&self) -> RunMetrics {
        let exec_ns = self.cycle as f64 / CORE_GHZ;
        let model = EnergyModel::default();
        let mut dynamic = 0.0;
        for (row, net) in self.plan.subnets.iter().zip(&self.nets) {
            let s = net.stats();
            let c = net.config();
            let tile = 1.5; // mm between adjacent routers
            // A concentrated mesh's own links live in the interposer.
            let (mesh_mm, mut rdl_mm) = if row.concentrated {
                (0.0, s.link_flits_mesh as f64 * row.rdl_link_mm)
            } else {
                (s.link_flits_mesh as f64 * tile, 0.0)
            };
            rdl_mm += s.link_flits_interposer as f64 * row.rdl_link_mm.max(3.0);
            let ev = EventCounts {
                buffer_writes: s.buffer_writes,
                buffer_reads: s.buffer_reads,
                xbar_traversals: s.xbar_traversals,
                allocs: s.vc_allocs,
                mesh_flit_mm: mesh_mm + s.link_flits_ni as f64 * 0.3,
                rdl_flit_mm: rdl_mm,
                flit_bits: c.link_bits,
                avg_ports: net.avg_ports(),
            };
            dynamic += model.dynamic_joules(&ev);
        }
        let leakage = model.leakage_joules(self.area_mm2, exec_ns * 1e-9);
        let energy = dynamic + leakage;
        RunMetrics {
            scheme: self.cfg.scheme,
            benchmark: self.cfg.workload.profile.name.to_string(),
            cycles: self.cycle,
            exec_ns,
            ipc: self.total_instrs as f64 / self.cycle.max(1) as f64,
            completed: self.done(),
            latency: self.tracker.latency_breakdown(CORE_GHZ),
            dynamic_j: dynamic,
            leakage_j: leakage,
            edp: energy * exec_ns * 1e-9,
            area_mm2: self.area_mm2,
            ubumps: self.ubumps,
            reply_bit_fraction: self.tracker.reply_bit_fraction(),
        }
    }

    /// Current core cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total NoC area (Figure 11's quantity).
    pub fn area_mm2(&self) -> f64 {
        self.area_mm2
    }

    /// µbumps consumed by interposer links (§6.6).
    pub fn ubumps(&self) -> usize {
        self.ubumps
    }

    /// Access to the underlying networks (read-only, for inspection).
    pub fn networks(&self) -> &[Network] {
        &self.nets
    }

    /// Occupancy snapshot for congestion diagnosis:
    /// `(pe_outstanding, req_ni_backlog, cb_inflight, rep_ni_backlog)`
    /// summed over the machine.
    pub fn occupancy(&self) -> (u64, u64, u64, u64) {
        let outstanding: u64 = self
            .pes
            .iter()
            .flatten()
            .map(|p| p.outstanding() as u64)
            .sum();
        let req_backlog: u64 = self
            .req_nis
            .iter()
            .flatten()
            .map(|ni| ni.backlog() as u64)
            .sum();
        let cb_inflight: u64 = self.cbs.iter().map(|c| c.inflight() as u64).sum();
        let rep_backlog: u64 = self.rep_nis.iter().map(|ni| ni.backlog() as u64).sum();
        (outstanding, req_backlog, cb_inflight, rep_backlog)
    }

    /// Number of CBs currently refusing new requests (at capacity).
    pub(crate) fn cbs_at_capacity(&self) -> usize {
        self.cbs.iter().filter(|c| !c.can_accept()).count()
    }

    /// Drains the per-network flit-trace ring buffers, returning
    /// `(net index, events)` for every network that recorded anything.
    /// Always empty unless the config armed tracing
    /// ([`SystemConfig::trace_capacity`] > 0).
    pub fn drain_traces(&mut self) -> Vec<(usize, Vec<equinox_noc::TraceEvent>)> {
        self.nets
            .iter_mut()
            .enumerate()
            .map(|(i, n)| (i, n.drain_trace()))
            .filter(|(_, evs)| !evs.is_empty())
            .collect()
    }

    /// The `equinox.obs/v3` artifact block, when observability is armed:
    /// per-class latency breakdowns, histograms and injection-wait heat,
    /// the time series, and per network its router heat, link flit counts
    /// and per-cause stall grids. Cycle-derived only — bit-identical
    /// across worker counts.
    pub fn obs_json(&self) -> Option<equinox_config::Json> {
        self.obs.as_ref().map(|o| o.to_json(&self.nets))
    }

    /// `(frames_written, write_errors)` of the `--obs-stream` sink when
    /// one is armed; `None` otherwise.
    pub fn obs_stream_stats(&self) -> Option<(u64, u64)> {
        self.obs.as_ref().and_then(|o| o.stream_stats())
    }

    /// Chrome trace-event JSON for Perfetto / `chrome://tracing`:
    /// wall-clock `System::step` phase spans (when obs is armed) plus
    /// the drained flit traces as instant events with `ts` = the
    /// simulated cycle (when tracing is armed). Draining consumes the
    /// flit rings, so call this once, at the end of a run.
    pub fn export_chrome_trace(&mut self) -> String {
        let traces = self.drain_traces();
        crate::obs::chrome_trace(self.obs.as_ref().map(|o| &o.spans), &traces)
    }

    /// One-screen observability summary for stderr reports (empty when
    /// obs is off).
    pub fn obs_summary(&self) -> String {
        self.obs.as_ref().map(|o| o.summary()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_traffic::profile::benchmark;

    fn tiny_workload(name: &str) -> Workload {
        Workload::new(benchmark(name).unwrap(), 0.05, 42)
    }

    fn run_scheme(scheme: SchemeKind) -> RunMetrics {
        let mut cfg = SystemConfig::new(scheme, 8, tiny_workload("hotspot"));
        cfg.max_cycles = 200_000;
        let mut sys = System::build(cfg);
        sys.run()
    }

    #[test]
    fn audit_from_spec_mirrors_the_spec() {
        let mut spec = equinox_config::ExperimentSpec::default();
        assert!(SystemConfig::audit_from_spec(&spec).is_none());
        spec.audit = true;
        let a = SystemConfig::audit_from_spec(&spec).unwrap();
        assert_eq!(
            (a.check_interval, a.watchdog_window, a.panic_on_violation),
            (64, 20_000, true)
        );
    }

    #[test]
    fn run_id_separates_systems_but_not_how_they_were_hosted() {
        let base = SystemConfig::new(SchemeKind::EquiNox, 8, tiny_workload("kmeans"));
        let id = base.run_id();
        assert!(id.starts_with("EquiNox/kmeans/42/8x8/"), "{id}");
        // The variations one scenario streams side by side into one file.
        let vary = |f: &dyn Fn(&mut SystemConfig)| {
            let mut cfg = base.clone();
            f(&mut cfg);
            cfg.run_id()
        };
        let ids = [
            id.clone(),
            vary(&|c| c.n = 12),
            vary(&|c| c.pipeline_extra = 1),
            vary(&|c| c.reply_compression = 0.25),
            vary(&|c| c.design = Some(EquiNoxDesign::quick(8, 8))),
            vary(&|c| c.placement_override = Some(Placement::diamond(8, 8, 8))),
            vary(&|c| c.workload.scale = 0.1),
        ];
        for (i, a) in ids.iter().enumerate() {
            assert!(ids[i + 1..].iter().all(|b| a != b), "{a} is not unique in {ids:?}");
        }
        let hosted = vary(&|c| {
            c.obs = Some(crate::obs::ObsConfig { stream: "/tmp/f".into(), ..Default::default() });
            c.audit = Some(equinox_noc::AuditConfig::default());
            c.trace_capacity = 64;
            c.activity_gate = false;
        });
        assert_eq!(id, hosted);
    }

    #[test]
    fn the_built_networks_are_the_plan_row_for_row() {
        for n in [8u16, 12, 16] {
            // Any design will do for counting networks; keep its search short.
            let design = EquiNoxDesign::search_k(n, 8, 10, 1, 1);
            for scheme in SchemeKind::ALL {
                let mut cfg = SystemConfig::new(scheme, n, tiny_workload("bfs"));
                cfg.pipeline_extra = 1;
                cfg.design = Some(design.clone());
                let plan = cfg.check().unwrap();
                let sys = System::build(cfg);
                assert_eq!(sys.networks().len(), plan.subnets.len(), "{scheme} {n}x{n}");
                for (row, net) in plan.subnets.iter().zip(sys.networks()) {
                    let want = equinox_noc::NocConfig { pipeline_extra: 1, ..row.noc.clone() };
                    assert_eq!(net.config(), &want, "{scheme} {n}x{n}");
                }
                // The first bank's injection points, counted in ports: its
                // own router's on each reply subnet (its one on the CMesh),
                // plus the one each of its EIRs grew.
                let cb = sys.placement.cbs[0];
                let group: &[Coord] =
                    if scheme == SchemeKind::EquiNox { &design.selection.groups[0] } else { &[] };
                let replies = plan.carrying(MessageClass::Reply);
                let own = replies.iter().map(|&i| match plan.subnets[i].concentrated {
                    true => 1,
                    false => sys.nets[i].router_ports(cb) - 4,
                });
                let eirs = group.iter().map(|&e| sys.nets[replies[0]].router_ports(e) - 5);
                assert_eq!(
                    own.sum::<usize>() + eirs.sum::<usize>(),
                    plan.injection_points(group.len()),
                    "{scheme} {n}x{n}"
                );
            }
        }
    }

    #[test]
    fn check_names_a_cache_bank_count_no_diamond_holds_and_accepts_overfull() {
        for scheme in SchemeKind::ALL.into_iter().filter(|&s| s != SchemeKind::EquiNox) {
            for (n_cbs, ok) in [(0, false), (1, true), (8, true), (9, false), (12, false)] {
                let mut cfg = SystemConfig::new(scheme, 8, tiny_workload("bfs"));
                cfg.n_cbs = n_cbs;
                let got = cfg.check();
                assert_eq!(got.is_ok(), ok, "{scheme} with {n_cbs} CBs: {got:?}");
                if let Err(e) = got {
                    assert!(e.starts_with(&format!("n_cbs = {n_cbs}: {scheme}")), "{e}");
                }
            }
        }
        // `overfull`'s two cells: 12 banks on 8x8, placed by an override
        // and by a knight-move design.
        let over = EquiNoxDesign::search_k(8, 12, 10, 7, 1);
        let mut base = SystemConfig::new(SchemeKind::SeparateBase, 8, tiny_workload("bfs"));
        base.n_cbs = 12;
        assert!(base.check().is_err());
        base.placement_override = Some(over.placement.clone());
        assert!(base.check().is_ok());
        let mut eq = SystemConfig::new(SchemeKind::EquiNox, 8, tiny_workload("bfs"));
        eq.n_cbs = 12;
        assert!(eq.check().is_ok(), "the search places more than n along knight moves");
        eq.design = Some(over);
        assert!(eq.check().is_ok());
        // The plan's own reasons pass through.
        let odd = SystemConfig::new(SchemeKind::InterposerCMesh, 9, tiny_workload("bfs"));
        assert_eq!(odd.check().err(), SchemeKind::InterposerCMesh.plan(9, odd.reply_topology).err());
    }

    #[test]
    fn check_names_an_equinox_search_without_an_n_queen_board() {
        // 2x2 and 3x3 boards have no N-Queen solution, so the design
        // search has nothing to start from at up to n banks.
        for (n, n_cbs, ok) in [(2, 1, false), (2, 2, false), (3, 3, false), (2, 3, true), (3, 4, true), (4, 4, true)] {
            let mut cfg = SystemConfig::new(SchemeKind::EquiNox, n, tiny_workload("bfs"));
            cfg.n_cbs = n_cbs;
            let got = cfg.check();
            assert_eq!(got.is_ok(), ok, "{n}x{n} with {n_cbs} CBs: {got:?}");
            if let Err(e) = got {
                assert!(e.starts_with(&format!("n = {n}: EquiNox places cache banks on an N-Queen")), "{e}");
                assert!(e.contains(&format!("n_cbs = {n_cbs};")), "{e}");
            }
            // An override without a design made for it is named first,
            // whether or not the board has a solution.
            cfg.placement_override = Some(Placement::diamond(n, n, 1));
            let e = cfg.check().unwrap_err();
            assert!(e.starts_with("placement override: EquiNox attaches EIR groups"), "{e}");
            assert!(e.ends_with("none is supplied, and the search would pick its own N-Queen board"), "{e}");
        }
        // A supplied design needs no search.
        let mut cfg = SystemConfig::new(SchemeKind::EquiNox, 3, tiny_workload("bfs"));
        cfg.n_cbs = 3;
        cfg.design = Some(EquiNoxDesign::from_text("equinox-design v1\nmesh 3\ncb 0,0 eirs 2,2\n").unwrap());
        assert!(cfg.check().is_ok());
    }

    #[test]
    fn check_names_a_cycle_cap_past_the_trackers_last_cycle() {
        // A hit latency or a sample interval past the cap counts cycles no
        // run reaches (`now + l2_latency`, `cycle + interval` once wrapped).
        let limit = equinox_config::MAX_CYCLES_LIMIT;
        let mut cfg = SystemConfig::new(SchemeKind::SeparateBase, 8, tiny_workload("bfs"));
        type Set = fn(&mut SystemConfig, u64);
        let setters: [(&str, Set); 3] = [
            ("max_cycles", |c, v| c.max_cycles = v),
            ("l2_latency", |c, v| c.l2_latency = v),
            ("obs interval", |c, v| {
                c.obs = Some(crate::obs::ObsConfig { interval: v, ..Default::default() })
            }),
        ];
        for (_, set) in setters {
            set(&mut cfg, limit);
        }
        assert!(cfg.check().is_ok());
        for (name, set) in setters {
            for v in [limit + 1, u64::MAX] {
                let mut c = cfg.clone();
                set(&mut c, v);
                let e = c.check().unwrap_err();
                assert!(e.starts_with(&format!("{name} = {v}: ")), "{e}");
            }
        }
    }

    #[test]
    fn check_names_a_mesh_past_the_limit() {
        let limit = equinox_config::MESH_LIMIT;
        let cfg = SystemConfig::new(SchemeKind::SeparateBase, limit, tiny_workload("bfs"));
        assert!(cfg.check().is_ok());
        for n in [limit + 1, 300, u16::MAX] {
            let e = SystemConfig { n, ..cfg.clone() }.check().unwrap_err();
            assert!(e.starts_with(&format!("n = {n}: a network's route table")), "{e}");
        }
    }

    #[test]
    fn check_names_an_equinox_override_its_design_was_not_made_for() {
        // The quick design's groups, attached in CB order to the diamond's
        // banks, would make an impossible machine.
        let design = EquiNoxDesign::quick(8, 8);
        let diamond = Placement::diamond(8, 8, 8);
        let hops = |i: usize| -> Vec<u32> {
            design.selection.groups[i].iter().map(|&e| diamond.cbs[i].manhattan(e)).collect()
        };
        assert_eq!(diamond.cbs[0], Coord::new(4, 0));
        assert!(hops(0).contains(&0), "CB 0 gets an EIR on its own router: {:?}", hops(0));
        // Every EIR of CBs 4 and 2 lies beyond the search's 3-hop budget.
        assert_eq!(hops(4), [8, 9, 9], "CB 4's EIRs");
        assert_eq!(hops(2), [7, 7, 8], "CB 2's EIRs");
        for i in [2, 4, 5] {
            let on_a_bank = |e: &Coord| *e != diamond.cbs[i] && diamond.is_cb(*e);
            assert!(design.selection.groups[i].iter().any(on_a_bank), "CB {i} gets an EIR on another bank");
        }

        let mut cfg = SystemConfig::new(SchemeKind::EquiNox, 8, tiny_workload("bfs"));
        cfg.design = Some(design.clone());
        cfg.placement_override = Some(diamond);
        let e = cfg.check().unwrap_err();
        assert_eq!(
            e,
            "placement override: EquiNox attaches EIR groups from a design made for the override's \
             banks; the supplied one was made for another placement"
        );
        // The design's own placement as the override is what it was made for.
        cfg.placement_override = Some(design.placement.clone());
        assert!(cfg.check().is_ok());
        // Other schemes have no EIR groups to misplace.
        cfg.scheme = SchemeKind::MultiPort;
        cfg.placement_override = Some(Placement::diamond(8, 8, 8));
        assert!(cfg.check().is_ok());
    }

    #[test]
    #[should_panic(expected = "n = 9: Interposer-CMesh puts one concentrated router over each 2x2 block")]
    fn an_unbuildable_machine_panics_with_the_checks_reason() {
        System::build(SystemConfig::new(SchemeKind::InterposerCMesh, 9, tiny_workload("bfs")));
    }

    #[test]
    fn area_counts_the_cache_banks_that_were_placed() {
        // `ablation --cbs 4`: an 8-bank override under `n_cbs = 4` builds
        // eight banks, so Figure 11's area is that of the 8-bank machine.
        for scheme in [SchemeKind::SeparateBase, SchemeKind::MultiPort] {
            let eight = System::build(SystemConfig::new(scheme, 8, tiny_workload("bfs")));
            let mut cfg = SystemConfig::new(scheme, 8, tiny_workload("bfs"));
            cfg.n_cbs = 4;
            cfg.placement_override = Some(Placement::diamond(8, 8, 8));
            let sys = System::build(cfg);
            assert_eq!(sys.cbs.len(), 8);
            assert_eq!(sys.area_mm2().to_bits(), eight.area_mm2().to_bits(), "{scheme}");
        }
    }

    #[test]
    fn single_base_completes() {
        let m = run_scheme(SchemeKind::SingleBase);
        assert!(m.completed, "stalled at cycle {}", m.cycles);
        assert!(m.ipc > 0.0);
        assert!(m.energy_j() > 0.0);
    }

    #[test]
    fn separate_base_completes() {
        let m = run_scheme(SchemeKind::SeparateBase);
        assert!(m.completed, "stalled at cycle {}", m.cycles);
    }

    #[test]
    fn vc_mono_completes() {
        let m = run_scheme(SchemeKind::VcMono);
        assert!(m.completed, "stalled at cycle {}", m.cycles);
    }

    #[test]
    fn cmesh_completes() {
        let m = run_scheme(SchemeKind::InterposerCMesh);
        assert!(m.completed, "stalled at cycle {}", m.cycles);
        assert!(m.ubumps == 32_768, "paper's §6.6 CMesh bump count");
    }

    #[test]
    fn da2mesh_completes() {
        let m = run_scheme(SchemeKind::Da2Mesh);
        assert!(m.completed, "stalled at cycle {}", m.cycles);
    }

    #[test]
    fn multiport_completes() {
        let m = run_scheme(SchemeKind::MultiPort);
        assert!(m.completed, "stalled at cycle {}", m.cycles);
    }

    #[test]
    fn equinox_completes_with_interposer_traffic() {
        let m = run_scheme(SchemeKind::EquiNox);
        assert!(m.completed, "stalled at cycle {}", m.cycles);
        assert!(m.ubumps > 0 && m.ubumps < 32_768, "far fewer bumps than CMesh");
    }

    #[test]
    fn reply_bits_dominate() {
        let m = run_scheme(SchemeKind::SeparateBase);
        assert!(
            m.reply_bit_fraction > 0.55 && m.reply_bit_fraction < 0.9,
            "reply share = {}",
            m.reply_bit_fraction
        );
    }

    #[test]
    fn separate_beats_single_on_memory_bound_load() {
        let single = run_scheme(SchemeKind::SingleBase);
        let separate = run_scheme(SchemeKind::SeparateBase);
        assert!(
            separate.cycles < single.cycles * 11 / 10,
            "separate {} vs single {}",
            separate.cycles,
            single.cycles
        );
    }

    #[test]
    fn reply_compression_shortens_reply_bound_runs() {
        let mut base = SystemConfig::new(SchemeKind::SeparateBase, 8, tiny_workload("kmeans"));
        base.max_cycles = 400_000;
        let plain = System::build(base.clone()).run();
        base.reply_compression = 0.8;
        let zipped = System::build(base).run();
        assert!(zipped.completed && plain.completed);
        assert!(
            zipped.cycles < plain.cycles,
            "compressed {} !< plain {}",
            zipped.cycles,
            plain.cycles
        );
    }

    #[test]
    fn deeper_pipelines_never_speed_things_up() {
        let mut cfg = SystemConfig::new(SchemeKind::SeparateBase, 8, tiny_workload("gaussian"));
        cfg.max_cycles = 400_000;
        let fast = System::build(cfg.clone()).run();
        cfg.pipeline_extra = 3;
        let slow = System::build(cfg).run();
        assert!(slow.completed && fast.completed);
        assert!(
            slow.cycles >= fast.cycles,
            "pipeline +3 {} !>= +0 {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn every_request_gets_exactly_one_reply() {
        let mut cfg = SystemConfig::new(SchemeKind::EquiNox, 8, tiny_workload("bfs"));
        cfg.max_cycles = 400_000;
        let mut sys = System::build(cfg);
        let m = sys.run();
        assert!(m.completed);
        let tracker = &sys.tracker;
        let (mut req, mut rep, mut undelivered) = (0u64, 0u64, 0u64);
        for id in 0..tracker.len() as u64 {
            let r = tracker.record(id);
            if r.class.is_reply() {
                rep += 1;
            } else {
                req += 1;
            }
            if r.ejected.is_none() {
                undelivered += 1;
            }
        }
        assert_eq!(req, rep, "one reply per request");
        assert_eq!(undelivered, 0, "everything delivered at completion");
    }

    /// Each of DA2Mesh's networks reserves packet-table room for the
    /// machine's live packets at most, PEs × MSHRs, not one entry per VC
    /// slot, ejection place and injector.
    #[test]
    fn da2mesh_reserves_no_more_packets_than_the_machine_holds() {
        let cfg = SystemConfig::new(SchemeKind::Da2Mesh, 8, tiny_workload("bfs"));
        let bound = (64 - cfg.n_cbs as usize) * cfg.workload.mshrs as usize;
        let sys = System::build(cfg);
        assert_eq!(sys.networks().len(), 9);
        for (i, net) in sys.networks().iter().enumerate() {
            let reserved = net.packet_capacity();
            assert!(reserved <= bound, "network {i}: room for {reserved} packets, bound {bound}");
        }
        assert!(sys.networks().iter().any(|net| net.packet_capacity() == bound), "the bound binds");
    }

    #[test]
    fn da2mesh_completes_under_audit_and_a_live_stream() {
        // DA2Mesh's nine networks at 2.5:1 subnet clocks exercise the
        // step accumulator, plain and with the auditor and a stream armed.
        let mut cfg = SystemConfig::new(SchemeKind::Da2Mesh, 8, tiny_workload("hotspot"));
        cfg.max_cycles = 200_000;
        let m = System::build(cfg).run();
        assert!(m.completed, "stalled at cycle {}", m.cycles);

        let dir = std::env::temp_dir().join(format!("eqsn_obs_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut cfg = SystemConfig::new(SchemeKind::Da2Mesh, 8, tiny_workload("bfs"));
        cfg.max_cycles = 200_000;
        cfg.audit = Some(equinox_noc::AuditConfig::default());
        cfg.obs = Some(crate::obs::ObsConfig {
            interval: 500,
            stream: path.display().to_string(),
        });
        assert!(System::build(cfg).run().completed);
        let frames = std::fs::read_to_string(&path).unwrap();
        assert!(
            frames.contains("obs.sample/v1") && frames.contains("obs.summary/v1"),
            "stream must carry sample and summary frames"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stall_attribution_sums_to_measured_latency() {
        // The head-front-only charging invariant, pinned end-to-end: on
        // same-clock schemes (core and net step 1:1) every per-class
        // cause total plus the serialization residual reconstructs the
        // class's measured end-to-end latency sum exactly. Saturation in
        // the residual means over-charging also breaks the equality.
        for scheme in [SchemeKind::SeparateBase, SchemeKind::EquiNox] {
            let mut cfg = SystemConfig::new(scheme, 8, tiny_workload("hotspot"));
            cfg.max_cycles = 400_000;
            cfg.obs = Some(crate::obs::ObsConfig::default());
            let mut sys = System::build(cfg);
            let m = sys.run();
            assert!(m.completed, "{scheme:?} stalled at {}", m.cycles);
            let obs = sys.obs_json().expect("obs armed");
            assert_eq!(
                obs.get("schema").and_then(|s| s.as_str()),
                Some("equinox.obs/v3")
            );
            let pc = obs.get("classes").unwrap();
            let mut queueing = 0u64;
            for class in ["request", "reply"] {
                let row = pc.get(class).unwrap();
                let get = |k: &str| {
                    row.get(k)
                        .and_then(|v| v.as_u64())
                        .unwrap_or_else(|| panic!("{class}.{k} missing"))
                };
                assert!(get("delivered") > 0, "{scheme:?} {class}: nothing delivered");
                let sum: u64 = [
                    "inj_queue",
                    "vc_alloc",
                    "switch_loss",
                    "credit_starve",
                    "eject_wait",
                    "serialization",
                ]
                .iter()
                .map(|&c| get(c))
                .sum();
                assert_eq!(
                    sum,
                    get("e2e_cycles"),
                    "{scheme:?} {class}: causes must reconstruct e2e exactly"
                );
                queueing +=
                    get("inj_queue") + get("vc_alloc") + get("switch_loss") + get("credit_starve");
            }
            assert!(queueing > 0, "{scheme:?}: hotspot traffic must contend somewhere");
        }
    }

    #[test]
    fn snapshot_mid_run_restores_to_identical_completion() {
        // For every scheme shape: run C cycles, snapshot, finish both the
        // original and a restored fresh build, and require bit-identical
        // metrics and per-network counters.
        for scheme in [SchemeKind::SingleBase, SchemeKind::EquiNox, SchemeKind::Da2Mesh] {
            let mut cfg = SystemConfig::new(scheme, 8, tiny_workload("bfs"));
            cfg.max_cycles = 400_000;
            cfg.obs = Some(crate::obs::ObsConfig {
                interval: 500,
                ..Default::default()
            });
            let mut a = System::build(cfg.clone());
            for _ in 0..3_000 {
                a.step();
            }
            let snap = a.snapshot();
            let snap_cycle = a.cycle();
            let ma = a.run();

            let mut b = System::build(cfg);
            b.restore(&snap).unwrap();
            assert_eq!(b.cycle(), snap_cycle, "restore resumes at the snapshot cycle");
            let mb = b.run();
            assert_eq!(ma.cycles, mb.cycles, "{scheme:?} diverged after restore");
            assert_eq!(ma.ipc.to_bits(), mb.ipc.to_bits());
            assert_eq!(ma.edp.to_bits(), mb.edp.to_bits());
            assert_eq!(
                ma.latency.total_ns().to_bits(),
                mb.latency.total_ns().to_bits()
            );
            let sa: Vec<_> = a.networks().iter().map(|n| n.stats().clone()).collect();
            let sb: Vec<_> = b.networks().iter().map(|n| n.stats().clone()).collect();
            assert_eq!(sa, sb, "{scheme:?} network counters diverged");
            assert_eq!(
                a.obs_json().unwrap().pretty(),
                b.obs_json().unwrap().pretty(),
                "{scheme:?} obs block diverged"
            );
        }
    }

    #[test]
    fn snapshot_taken_while_a_cb_refuses_requests_forks_identically() {
        // Banks that hold two requests at a time refuse most of what
        // arrives, so at the cut request flits sit parked in ejection
        // queues the drain declined to pop: the restored twin must find
        // them through its rebuilt ejection set, in the same order.
        for scheme in [SchemeKind::SeparateBase, SchemeKind::InterposerCMesh] {
            let mut cfg = SystemConfig::new(scheme, 8, tiny_workload("hotspot"));
            cfg.max_cycles = 400_000;
            cfg.cb_inflight_cap = 2;
            cfg.obs = Some(crate::obs::ObsConfig { interval: 500, ..Default::default() });
            let mut a = System::build(cfg.clone());
            let parked = |s: &System| s.nets.iter().filter(|n| n.next_ejecting(0).is_some()).count();
            while !(a.cycle() >= 500 && parked(&a) > 0 && a.cbs_at_capacity() > 0) {
                a.step();
                assert!(a.cycle() < 50_000, "{scheme:?}: no CB ever refused a request");
            }
            let snap = a.snapshot();
            let mut b = System::build(cfg);
            b.restore(&snap).unwrap();
            assert_eq!(parked(&b), parked(&a), "{scheme:?}: parked flits lost in the restore");
            let (ma, mb) = (a.run(), b.run());
            assert!(ma.completed, "{scheme:?} must finish despite the tiny banks");
            assert_eq!(ma.cycles, mb.cycles, "{scheme:?} diverged after the fork");
            assert_eq!(ma.ipc.to_bits(), mb.ipc.to_bits());
            assert_eq!(ma.latency.total_ns().to_bits(), mb.latency.total_ns().to_bits());
            let stats = |s: &System| s.networks().iter().map(|n| n.stats().clone()).collect::<Vec<_>>();
            assert_eq!(stats(&a), stats(&b), "{scheme:?} network counters diverged");
            assert_eq!(
                a.obs_json().unwrap().pretty(),
                b.obs_json().unwrap().pretty(),
                "{scheme:?} obs block diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "net 1 router 4 port 4 holds a flit of packet 4242")]
    fn a_flit_parked_where_nothing_drains_is_named_not_left_to_wedge() {
        // A reply addressed to a CB node of the separate reply network:
        // CBs drain requests from net 0 only, so nothing would ever pop it.
        let mut sys = System::build(SystemConfig::new(SchemeKind::SeparateBase, 8, tiny_workload("bfs")));
        let cb = sys.placement.cbs[0];
        assert_eq!(cb.to_index(8), 4, "the diamond placement moved; update the expectation");
        let src = Coord::new(0, 0);
        let stray = equinox_noc::PacketDesc::new(4242, src, cb, MessageClass::Reply, 1).flits(8)[0];
        let inj = sys.nets[1].local_injector(src);
        assert!(sys.nets[1].try_inject_flit(inj, stray));
        for _ in 0..100 {
            sys.step();
        }
    }

    #[test]
    fn snapshot_restore_rejects_mismatched_build_and_corruption() {
        let mut cfg = SystemConfig::new(SchemeKind::SeparateBase, 8, tiny_workload("bfs"));
        cfg.max_cycles = 100_000;
        let mut a = System::build(cfg.clone());
        for _ in 0..500 {
            a.step();
        }
        let snap = a.snapshot();

        // A different scheme's build must refuse the snapshot.
        let other = SystemConfig::new(SchemeKind::Da2Mesh, 8, tiny_workload("bfs"));
        assert!(System::build(other).restore(&snap).is_err());

        // An obs-armed build must refuse an obs-less snapshot: its replay
        // reaches the cycle with obs sections the snapshot does not hold.
        let mut armed = cfg.clone();
        armed.obs = Some(crate::obs::ObsConfig::default());
        assert!(matches!(
            System::build(armed).restore(&snap),
            Err(equinox_snap::SnapError::BadValue(NOT_THIS_STATE))
        ));

        // Truncations and header corruption are structural errors.
        for cut in [0, 1, 5, snap.len() / 2, snap.len() - 1] {
            assert!(System::build(cfg.clone()).restore(&snap[..cut]).is_err());
        }
        let mut bad = snap.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            System::build(cfg.clone()).restore(&bad),
            Err(equinox_snap::SnapError::BadMagic)
        ));
    }

    /// The restore input surface: every truncation, one flipped byte in
    /// each section, a cycle past `max_cycles` and the snapshot of
    /// another scheme or reply fabric are each refused with an error, and
    /// no refusal replays past `max_cycles`.
    #[test]
    fn restore_refuses_truncations_flips_late_cycles_and_other_schemes() {
        use equinox_snap::{read_snapshot, write_snapshot, SnapError};
        let small = |scheme| {
            let mut cfg = SystemConfig::new(scheme, 8, tiny_workload("bfs"));
            cfg.max_cycles = 2_000;
            cfg
        };
        let cfg = small(SchemeKind::SeparateBase);
        let mid = |cfg: &SystemConfig| {
            let mut sys = System::build(cfg.clone());
            for _ in 0..600 {
                sys.step();
            }
            sys.snapshot()
        };
        let snap = mid(&cfg);
        let mut sys = System::build(cfg.clone());
        sys.restore(&snap).expect("the snapshot of this build restores");
        assert_eq!(sys.cycle(), 600);
        let mut refuse = |bytes: &[u8], what: &str| {
            let r = sys.restore(bytes);
            assert!(r.is_err(), "{what}: accepted");
            assert!(sys.cycle() <= cfg.max_cycles, "{what}: replayed past max_cycles");
            r.unwrap_err()
        };

        for cut in 0..snap.len() {
            refuse(&snap[..cut], &format!("truncated to {cut} bytes"));
        }
        let sections: Vec<(u32, Vec<u8>)> = read_snapshot(&snap)
            .unwrap()
            .into_iter()
            .map(|(tag, bytes)| (tag, bytes.to_vec()))
            .collect();
        let with = |tag: u32, edit: &dyn Fn(&mut Vec<u8>)| {
            let mut s = sections.clone();
            s.iter_mut().filter(|(t, _)| *t == tag).for_each(|(_, b)| edit(b));
            write_snapshot(&s)
        };
        for (tag, bytes) in &sections {
            let at = bytes.len() / 2;
            let flipped = with(*tag, &|b| b[at] ^= 0x10);
            refuse(&flipped, &format!("byte {at} of section {tag} flipped"));
        }
        let late = with(snap_tags::SYS, &|b| b[..8].copy_from_slice(&2_001u64.to_le_bytes()));
        assert_eq!(
            refuse(&late, "cycle past max_cycles"),
            SnapError::BadValue("snapshot cycle past max_cycles")
        );
        let other = mid(&small(SchemeKind::Da2Mesh));
        assert_eq!(refuse(&other, "DA2Mesh snapshot"), SnapError::BadValue(NOT_THIS_STATE));
        // The same scheme with a ring reply subnet: as many networks and
        // routers, another fabric.
        let mut ring = small(SchemeKind::SeparateBase);
        ring.reply_topology = equinox_noc::TopologyKind::Ring;
        assert_eq!(refuse(&mid(&ring), "ring-reply snapshot"), SnapError::BadValue(NOT_THIS_STATE));
    }

    #[test]
    fn restore_refuses_a_build_with_a_live_stream_before_touching_it() {
        let dir = std::env::temp_dir().join(format!("eqsn_restore_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.jsonl");
        let mut cfg = SystemConfig::new(SchemeKind::SeparateBase, 8, tiny_workload("bfs"));
        cfg.obs = Some(crate::obs::ObsConfig { interval: 100, stream: path.display().to_string() });
        let mut sys = System::build(cfg);
        for _ in 0..500 {
            sys.step();
        }
        let snap = sys.snapshot();
        let frames = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            sys.restore(&snap),
            Err(equinox_snap::SnapError::BadValue("a replay would rewrite the live obs stream"))
        );
        assert_eq!(sys.cycle(), 500, "the machine was left as it was");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), frames, "no frame went out again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn area_ordering_matches_figure_11() {
        let single = run_scheme(SchemeKind::SingleBase);
        let separate = run_scheme(SchemeKind::SeparateBase);
        let cmesh = run_scheme(SchemeKind::InterposerCMesh);
        let equinox = run_scheme(SchemeKind::EquiNox);
        assert!(single.area_mm2 < separate.area_mm2);
        assert!(cmesh.area_mm2 > single.area_mm2, "CMesh routers are huge");
        assert!(equinox.area_mm2 > separate.area_mm2);
        let overhead = equinox.area_mm2 / separate.area_mm2 - 1.0;
        assert!(overhead < 0.20, "EquiNox overhead {overhead:.3} should be modest");
    }
}
