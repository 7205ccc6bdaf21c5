//! System-level observability: the glue between [`equinox_obs`]'s
//! generic building blocks and the full-system simulator.
//!
//! When [`crate::system::SystemConfig::obs`] is set, [`SystemObs`]
//! rides inside the [`System`](crate::system::System) as one
//! `Option<Box<_>>` (the audit pattern: one branch per event when off,
//! preallocated buffers when on) and records:
//!
//! * **Counters/histograms** — delivered request/reply packets, and
//!   end-to-end packet latency histograms (cycles, request vs reply)
//!   with p50/p95/p99 from bucket interpolation.
//! * **Time series** — every `interval` cycles: delivered-flit
//!   throughput, packets in flight, per-subnet link utilization, and
//!   per-CB-group EIR injection load.
//! * **Spans** — wall-clock timings of the phases of `System::step`
//!   (CB+HBM tick, PE tick, NI tick, sink drain) plus
//!   one labeled row per subnet (`noc_step_net{i}`) for the NoC
//!   stepping phase — kept out of the deterministic artifact and
//!   exported only to the Chrome trace file. Per-subnet rows are
//!   recorded through a scratch-and-fold path when subnets step on
//!   parallel lanes, so the profiler stays single-writer.
//!
//! The `obs/v1` artifact block ([`SystemObs::to_json`]) contains only
//! cycle-derived data, so it is bit-identical across worker counts and
//! repeated runs; wall-clock span data goes only to the Perfetto
//! export ([`chrome_trace`]).

use crate::heatmap::HeatMap;
use crate::msg::{PacketRecord, PacketTracker};
use equinox_config::Json;
use equinox_noc::network::{InjectorId, Network};
use equinox_noc::trace::{TraceEvent, TraceKind};
use equinox_obs::{
    ChromeTrace, Histogram, NetCause, SpanId, SpanProfiler, StreamWriter, TimeSeries, CAUSE_NAMES,
    NET_CAUSE_NAMES, STALL_CLASSES,
};

/// Observability configuration carried by
/// [`SystemConfig`](crate::system::SystemConfig).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Cycles between time-series samples.
    pub interval: u64,
    /// Span-event ring capacity (wall-clock phase events retained for
    /// the Chrome trace export; aggregates are always kept).
    pub span_capacity: usize,
    /// Live-telemetry sink (a file path); empty = off.
    /// When set, one `obs.sample/v1` line-JSON frame goes out per
    /// sampling interval plus a terminal `obs.summary/v1` frame.
    pub stream: String,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            interval: 1_000,
            span_capacity: 32_768,
            stream: String::new(),
        }
    }
}

/// The serial instrumented phases of `System::step`, in registration
/// order. The per-subnet NoC stepping phase is *not* here: each subnet
/// gets its own labeled span row (`noc_step_net{i}`, see
/// [`SystemObs::end_noc_span`]) so the rows stay meaningful — and
/// race-free — when subnets step on parallel lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    /// Cache-bank ticks (includes the HBM stacks).
    CbTick = 0,
    /// PE execution + request creation.
    PeTick,
    /// NI flit streaming into the networks.
    NiTick,
    /// Ejection-queue drains at PEs and CBs.
    SinkDrain,
}

const PHASE_NAMES: [&str; 4] = [
    "cb_tick",
    "pe_tick",
    "ni_tick",
    "sink_drain",
];

/// Latency histogram bucket upper edges, in core cycles.
const LAT_BOUNDS: [u64; 11] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];

/// `obs/v1` names of the per-class delivered-packet counters and
/// latency histograms, indexed by class (0 = request, 1 = reply).
const DELIVERED_NAMES: [&str; STALL_CLASSES] = ["req_packets_delivered", "rep_packets_delivered"];
const LATENCY_NAMES: [&str; STALL_CLASSES] = ["req_latency_cycles", "rep_latency_cycles"];

/// In-network stall causes in emission order (matches
/// [`equinox_obs::NET_CAUSE_NAMES`] indexing).
const NET_CAUSE_LIST: [NetCause; 4] = [
    NetCause::VcAlloc,
    NetCause::SwitchLoss,
    NetCause::CreditStarve,
    NetCause::EjectWait,
];

/// Cap on time-series rows regardless of `max_cycles / interval` (a
/// 2M-cycle run at interval 1 must not preallocate gigabytes).
const MAX_SAMPLES: usize = 65_536;

/// Per-run observability state owned by the `System`.
pub(crate) struct SystemObs {
    /// Per-class end-to-end packet latency distributions; `count()` is
    /// the class's delivered-packet counter, `sum()` its measured
    /// end-to-end cycles.
    h_latency: [Histogram; STALL_CLASSES],
    series: TimeSeries,
    pub(crate) spans: SpanProfiler,
    phases: [SpanId; 4],
    /// One span row per network (`noc_step_net{i}`).
    noc_spans: Vec<SpanId>,
    /// The network EquiNox's EIRs inject into (the plan's first reply
    /// subnet) and their injector handles per CB group; no groups under
    /// any other scheme.
    eir_net: usize,
    eir_groups: Vec<Vec<InjectorId>>,
    next_sample: u64,
    last_cycle: u64,
    last_ejected: Vec<u64>,
    last_links: Vec<u64>,
    last_eir: Vec<u64>,
    /// Scratch row reused by every sample (allocation-free sampling).
    scratch: Vec<f64>,
    /// Original mesh side length (the coordinate space of
    /// `PacketRecord::src`), for the injection-wait heat grids.
    mesh_n: u16,
    /// Attribution (`obs/v2`): per-class NI/EIR injection-queue wait
    /// distributions, charged at delivery; `sum()` is the class's
    /// `inj_queue` cause total.
    h_inj_wait: [Histogram; STALL_CLASSES],
    /// Per-class injection-wait heat over source tiles (row-major
    /// `mesh_n × mesh_n`).
    inj_heat: [Vec<u64>; STALL_CLASSES],
    /// Live frame sink (wall-clock side effects only — never part of
    /// snapshots or deterministic artifacts; frame *contents* are
    /// cycle-derived).
    stream: Option<StreamWriter>,
    /// Frames emitted so far (the `seq` field of each frame).
    stream_seq: u64,
    /// The `run` field of each frame (`SystemConfig::run_id`), so
    /// concurrent runs appending to one file stay tellable apart.
    run: String,
}

/// Sums one in-network cause over every armed subnet grid for `class`.
fn net_cause_total(nets: &[Network], class: usize, cause: NetCause) -> u64 {
    nets.iter()
        .filter_map(|n| n.stall_grid())
        .map(|g| g.class_total(class, cause))
        .sum()
}

impl SystemObs {
    /// Builds the observability state for a machine with the given
    /// networks and (possibly empty) per-CB EIR groups on network
    /// `eir_net`. Every buffer is sized here; recording allocates nothing.
    pub(crate) fn new(
        cfg: &ObsConfig,
        nets: &[Network],
        (eir_net, eir_groups): (usize, Vec<Vec<InjectorId>>),
        max_cycles: u64,
        mesh_n: u16,
        run: String,
    ) -> Self {
        let interval = cfg.interval.max(1);
        let rows = ((max_cycles / interval) as usize).saturating_add(2).min(MAX_SAMPLES);

        // Column registration order is the row layout `sample` fills:
        // throughput, in-flight, one per net, one per EIR group.
        let mut series = TimeSeries::new(interval, rows);
        let _ = series.add("throughput_flits_per_cycle");
        let _ = series.add("packets_in_flight");
        for i in 0..nets.len() {
            let _ = series.add(&format!("link_utilization_net{i}"));
        }
        for g in 0..eir_groups.len() {
            let _ = series.add(&format!("eir_load_cb{g}"));
        }

        let mut spans = SpanProfiler::new(cfg.span_capacity);
        let phases: Vec<SpanId> = PHASE_NAMES.iter().map(|n| spans.register(n)).collect();
        let noc_spans: Vec<SpanId> = (0..nets.len())
            .map(|i| spans.register(&format!("noc_step_net{i}")))
            .collect();
        let width = nets.len() + eir_groups.len() + 2;
        let n_eir = eir_groups.len();
        SystemObs {
            h_latency: [Histogram::new(&LAT_BOUNDS), Histogram::new(&LAT_BOUNDS)],
            series,
            spans,
            phases: phases.try_into().expect("four phases"),
            noc_spans,
            eir_net,
            eir_groups,
            next_sample: interval,
            last_cycle: 0,
            last_ejected: vec![0; nets.len()],
            last_links: vec![0; nets.len()],
            last_eir: vec![0; n_eir],
            scratch: Vec::with_capacity(width),
            mesh_n,
            h_inj_wait: [Histogram::new(&LAT_BOUNDS), Histogram::new(&LAT_BOUNDS)],
            inj_heat: [
                vec![0; mesh_n as usize * mesh_n as usize],
                vec![0; mesh_n as usize * mesh_n as usize],
            ],
            stream: (!cfg.stream.is_empty()).then(|| {
                StreamWriter::open(&cfg.stream).unwrap_or_else(|e| {
                    panic!("--obs-stream {}: cannot open sink: {e}", cfg.stream)
                })
            }),
            stream_seq: 0,
            run,
        }
    }

    /// The next cycle at which [`SystemObs::sample`] is due.
    #[inline]
    pub(crate) fn next_sample(&self) -> u64 {
        self.next_sample
    }

    /// `true` when the run's final cycle has data not yet captured in a
    /// time-series row (the terminal flush in `System::run`).
    #[inline]
    pub(crate) fn needs_final_sample(&self, cycle: u64) -> bool {
        self.series.is_empty() || cycle > self.last_cycle
    }

    /// Closes one `System::step` phase span opened at `start_ns`.
    #[inline]
    pub(crate) fn end_span(&mut self, phase: Phase, track: u64, start_ns: u64, cycle: u64) {
        let id = self.phases[phase as usize];
        self.spans.record(id, track, start_ns, cycle);
    }

    /// Closes subnet `net`'s NoC-step span opened at `start_ns`
    /// (serial stepping path).
    #[inline]
    pub(crate) fn end_noc_span(&mut self, net: usize, start_ns: u64, cycle: u64) {
        let id = self.noc_spans[net];
        self.spans.record(id, net as u64, start_ns, cycle);
    }

    /// Records subnet `net`'s NoC-step span from endpoints stamped on a
    /// worker lane (both relative to the profiler's epoch). The caller
    /// folds these in subnet-index order after the barrier, so the span
    /// profile stays single-writer no matter how many lanes stepped.
    #[inline]
    pub(crate) fn end_noc_span_closed(&mut self, net: usize, start_ns: u64, end_ns: u64, cycle: u64) {
        let id = self.noc_spans[net];
        self.spans.record_closed(id, net as u64, start_ns, end_ns, cycle);
    }

    /// Records one packet of `class` (0 = request, 1 = reply) whose
    /// tail flit reached its sink at `now`: its end-to-end latency, and
    /// its NI/EIR injection-queue wait (cycles from creation to its head
    /// flit entering a router) charged to the `inj_queue` cause —
    /// distribution and the source tile's heat cell.
    #[inline]
    pub(crate) fn delivered(&mut self, class: usize, rec: &PacketRecord, now: u64) {
        self.h_latency[class].record(now.saturating_sub(rec.created));
        let wait = rec.injected.map_or(0, |i| i.saturating_sub(rec.created));
        self.h_inj_wait[class].record(wait);
        // Sources live in original mesh coordinates; anything outside
        // (impossible today) would scramble the grid, so guard.
        if let Some(cell) = self.inj_heat[class].get_mut(rec.src.to_index(self.mesh_n)) {
            *cell += wait;
        }
    }

    /// Records one time-series row at `cycle` and re-arms the sampling
    /// threshold. Deltas are measured against the previous sample
    /// (cycle-based sampling keeps the series deterministic).
    pub(crate) fn sample(&mut self, cycle: u64, nets: &[Network], tracker: &PacketTracker) {
        let dt = cycle.saturating_sub(self.last_cycle).max(1) as f64;
        self.scratch.clear();

        let mut ejected = 0u64;
        for (i, net) in nets.iter().enumerate() {
            let e = net.stats().ejected_flits;
            ejected += e - self.last_ejected[i];
            self.last_ejected[i] = e;
        }
        self.scratch.push(ejected as f64 / dt);
        self.scratch.push(tracker.in_flight() as f64);
        for (i, net) in nets.iter().enumerate() {
            let total = net.stats().total_link_flits();
            let delta = total - self.last_links[i];
            self.last_links[i] = total;
            self.scratch
                .push(delta as f64 / (net.num_links().max(1) as f64 * dt));
        }
        for (g, group) in self.eir_groups.iter().enumerate() {
            let total: u64 = group.iter().map(|&id| nets[self.eir_net].injector_flits(id)).sum();
            let delta = total - self.last_eir[g];
            self.last_eir[g] = total;
            self.scratch.push(delta as f64 / dt);
        }
        self.series.sample(cycle, &self.scratch);
        self.last_cycle = cycle;
        self.next_sample = cycle + self.series.interval();
        if self.stream.is_some() {
            self.emit_sample_frame(cycle, nets, tracker);
        }
    }

    /// Emits one `obs.sample/v1` line-JSON frame: the row just sampled
    /// plus cumulative delivery counts and aggregate stall-cause totals
    /// (cycle-derived only, so frames are byte-identical across
    /// `--sim-threads`).
    fn emit_sample_frame(&mut self, cycle: u64, nets: &[Network], tracker: &PacketTracker) {
        let frame = Json::obj()
            .with("schema", "obs.sample/v1")
            .with("run", self.run.as_str())
            .with("seq", self.stream_seq as f64)
            .with("cycle", cycle as f64)
            .with("throughput_flits_per_cycle", self.scratch.first().copied().unwrap_or(0.0))
            .with("packets_in_flight", tracker.in_flight() as f64)
            .with("req_delivered", self.h_latency[0].count() as f64)
            .with("rep_delivered", self.h_latency[1].count() as f64)
            .with("stall", self.stall_totals_json(nets));
        self.stream_seq += 1;
        self.stream.as_mut().expect("stream armed").write_line(&frame.to_compact());
    }

    /// Emits the terminal `obs.summary/v1` frame (per-class latency
    /// breakdown) and flushes the sink. No-op without a stream.
    pub(crate) fn emit_summary_frame(&mut self, cycle: u64, nets: &[Network]) {
        if self.stream.is_none() {
            return;
        }
        let frame = Json::obj()
            .with("schema", "obs.summary/v1")
            .with("run", self.run.as_str())
            .with("seq", self.stream_seq as f64)
            .with("cycle", cycle as f64)
            .with("req_delivered", self.h_latency[0].count() as f64)
            .with("rep_delivered", self.h_latency[1].count() as f64)
            .with(
                "per_class",
                Json::obj()
                    .with("request", self.class_breakdown(0, nets))
                    .with("reply", self.class_breakdown(1, nets)),
            );
        self.stream_seq += 1;
        let w = self.stream.as_mut().expect("stream armed");
        w.write_line(&frame.to_compact());
        w.flush();
    }

    /// Cumulative stall-cycle totals, per cause, summed over classes and
    /// subnets (the aggregate view a live dashboard renders).
    fn stall_totals_json(&self, nets: &[Network]) -> Json {
        let mut out = Json::obj().with(
            "inj_queue",
            (self.h_inj_wait[0].sum() + self.h_inj_wait[1].sum()) as f64,
        );
        for cause in NET_CAUSE_LIST {
            let total: u64 = (0..STALL_CLASSES)
                .map(|c| net_cause_total(nets, c, cause))
                .sum();
            out = out.with(NET_CAUSE_NAMES[cause as usize], total as f64);
        }
        out
    }

    /// The per-class latency-breakdown row: every cause's cumulative
    /// cycles plus the serialization residual, which by construction
    /// makes the row sum to the class's measured end-to-end latency
    /// (exact on completed runs of same-clock schemes; see DESIGN.md).
    fn class_breakdown(&self, class: usize, nets: &[Network]) -> Json {
        let (delivered, e2e) = (self.h_latency[class].count(), self.h_latency[class].sum());
        let inj = self.h_inj_wait[class].sum();
        let mut charged = inj;
        let mut out = Json::obj()
            .with("delivered", delivered as f64)
            .with("e2e_cycles", e2e as f64)
            .with("inj_queue", inj as f64);
        for cause in NET_CAUSE_LIST {
            let t = net_cause_total(nets, class, cause);
            charged += t;
            out = out.with(NET_CAUSE_NAMES[cause as usize], t as f64);
        }
        out.with("serialization", e2e.saturating_sub(charged) as f64)
    }

    /// Serializes the cycle-derived observability state: latency
    /// histograms, time-series rows and the sampling/delta cursors. Span
    /// (wall-clock) data is intentionally excluded — it never enters
    /// the deterministic artifact, so a restored run reproduces the
    /// `obs/v1` block bit-for-bit without it.
    pub(crate) fn snap_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        for h in &self.h_latency {
            h.snap_state(e);
        }
        self.series.snap_state(e);
        e.put_u64(self.next_sample);
        e.put_u64(self.last_cycle);
        self.last_ejected.snap(e);
        self.last_links.snap(e);
        self.last_eir.snap(e);
        // Attribution state (the stream writer itself is wall-clock I/O
        // and stays out, like the spans; `stream_seq` is cycle-derived).
        for h in &self.h_inj_wait {
            h.snap_state(e);
        }
        for grid in &self.inj_heat {
            grid.snap(e);
        }
        e.put_u64(self.stream_seq);
    }

    /// Restores state written by [`SystemObs::snap_state`] into an
    /// identically-configured instance.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut equinox_snap::Dec,
    ) -> Result<(), equinox_snap::SnapError> {
        use equinox_snap::{Snap, SnapError};
        for h in &mut self.h_latency {
            h.restore_state(d)?;
        }
        self.series.restore_state(d)?;
        self.next_sample = d.u64()?;
        self.last_cycle = d.u64()?;
        let last_ejected: Vec<u64> = Vec::restore(d)?;
        let last_links: Vec<u64> = Vec::restore(d)?;
        let last_eir: Vec<u64> = Vec::restore(d)?;
        if last_ejected.len() != self.last_ejected.len()
            || last_links.len() != self.last_links.len()
            || last_eir.len() != self.last_eir.len()
        {
            return Err(SnapError::BadValue("obs delta cursor lengths"));
        }
        self.last_ejected = last_ejected;
        self.last_links = last_links;
        self.last_eir = last_eir;
        for h in &mut self.h_inj_wait {
            h.restore_state(d)?;
        }
        for grid in &mut self.inj_heat {
            let g: Vec<u64> = Vec::restore(d)?;
            if g.len() != grid.len() {
                return Err(SnapError::BadValue("inj heat grid shape"));
            }
            *grid = g;
        }
        self.stream_seq = d.u64()?;
        Ok(())
    }

    /// The `equinox.obs/v1` artifact block: counters, histograms with
    /// interpolated percentiles, the time series, and per-router heat
    /// grids — cycle-derived data only, bit-identical across worker
    /// counts.
    pub(crate) fn to_json(&self, nets: &[Network], heat: &[HeatMap]) -> Json {
        let mut counters = Json::obj();
        let mut hists = Json::obj();
        for (c, h) in self.h_latency.iter().enumerate() {
            counters = counters.with(DELIVERED_NAMES[c], h.count() as f64);
            hists = hists.with(LATENCY_NAMES[c], hist_json(h));
        }
        let mut series = Json::obj().with(
            "cycle",
            self.series.cycles().iter().map(|&c| Json::Num(c as f64)).collect::<Vec<_>>(),
        );
        for (name, vals) in self.series.columns() {
            series = series.with(name, vals.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>());
        }
        let heat: Vec<Json> = heat
            .iter()
            .enumerate()
            .map(|(i, hm)| hm.to_json().with("net", i as f64))
            .collect();
        let mut link_scratch = Vec::new();
        let links: Vec<Json> = nets
            .iter()
            .enumerate()
            .map(|(i, net)| {
                net.link_flit_counts(&mut link_scratch);
                Json::obj()
                    .with("net", i as f64)
                    .with(
                        "flits",
                        link_scratch.iter().map(|&f| Json::Num(f as f64)).collect::<Vec<_>>(),
                    )
            })
            .collect();
        Json::obj()
            .with("schema", "equinox.obs/v1")
            .with("interval", self.series.interval() as f64)
            .with("samples", self.series.len() as f64)
            .with("samples_dropped", self.series.dropped() as f64)
            .with("counters", counters)
            .with("gauges", Json::obj())
            .with("histograms", hists)
            .with("series", series)
            .with("heat", heat)
            .with("links", links)
    }

    /// The `equinox.obs/v2` artifact block: the stall-cause attribution
    /// layer. Per-class latency-breakdown rows (each summing to the
    /// class's measured end-to-end latency), per-router × per-cause
    /// stall heat grids for every subnet, injection-wait distributions
    /// and per-source-tile injection-wait heat. Cycle-derived only —
    /// bit-identical across worker counts. Emitted *next to* the v1
    /// block, which stays byte-for-byte unchanged.
    pub(crate) fn to_json_v2(&self, nets: &[Network]) -> Json {
        let causes: Vec<Json> = CAUSE_NAMES.iter().map(|&c| Json::Str(c.into())).collect();
        let per_class = Json::obj()
            .with("request", self.class_breakdown(0, nets))
            .with("reply", self.class_breakdown(1, nets));
        let mut stall_heat = Vec::new();
        for (i, net) in nets.iter().enumerate() {
            let Some(g) = net.stall_grid() else { continue };
            for cause in NET_CAUSE_LIST {
                stall_heat.push(
                    Json::obj()
                        .with("net", i as f64)
                        .with("cause", NET_CAUSE_NAMES[cause as usize])
                        .with("width", net.width() as f64)
                        .with("height", net.height() as f64)
                        .with(
                            "heat",
                            g.heat(cause).map(|v| Json::Num(v as f64)).collect::<Vec<_>>(),
                        ),
                );
            }
        }
        let inj_hists = Json::obj()
            .with("request", hist_json(&self.h_inj_wait[0]))
            .with("reply", hist_json(&self.h_inj_wait[1]));
        let inj_heat: Vec<Json> = ["request", "reply"]
            .iter()
            .zip(&self.inj_heat)
            .map(|(&name, grid)| {
                Json::obj()
                    .with("class", name)
                    .with("width", self.mesh_n as f64)
                    .with("height", self.mesh_n as f64)
                    .with("heat", grid.iter().map(|&v| Json::Num(v as f64)).collect::<Vec<_>>())
            })
            .collect();
        Json::obj()
            .with("schema", "equinox.obs/v2")
            .with("causes", causes)
            .with("per_class", per_class)
            .with("stall_heat", stall_heat)
            .with("inj_wait_histograms", inj_hists)
            .with("inj_heat", inj_heat)
    }

    /// `(frames_written, write_errors)` of the live sink, when armed.
    pub(crate) fn stream_stats(&self) -> Option<(u64, u64)> {
        self.stream.as_ref().map(|s| (s.lines_written(), s.errors()))
    }

    /// A one-screen human summary for stderr reports.
    pub(crate) fn summary(&self) -> String {
        let mut out = String::new();
        for (name, h) in DELIVERED_NAMES.iter().zip(&self.h_latency) {
            out.push_str(&format!("  {name:24} {}\n", h.count()));
        }
        for (name, h) in LATENCY_NAMES.iter().zip(&self.h_latency) {
            out.push_str(&format!(
                "  {name:24} n={} p50={:.0} p95={:.0} p99={:.0}\n",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99)
            ));
        }
        for (name, calls, total_ns) in self.spans.summary() {
            out.push_str(&format!(
                "  span {name:19} calls={calls} total={:.1}ms\n",
                total_ns as f64 / 1e6
            ));
        }
        out
    }
}

/// One histogram's artifact emission (shared by the `obs/v1` and
/// `obs/v2` blocks — field order is part of the byte-identity contract).
fn hist_json(h: &Histogram) -> Json {
    Json::obj()
        .with("bounds", h.bounds().iter().map(|&b| Json::Num(b as f64)).collect::<Vec<_>>())
        .with("counts", h.counts().iter().map(|&c| Json::Num(c as f64)).collect::<Vec<_>>())
        .with("count", h.count() as f64)
        .with("min", h.min().unwrap_or(0) as f64)
        .with("max", h.max().unwrap_or(0) as f64)
        .with("mean", h.mean())
        .with("p50", h.quantile(0.50))
        .with("p95", h.quantile(0.95))
        .with("p99", h.quantile(0.99))
}

/// Assembles the Chrome trace-event JSON for one run: wall-clock phase
/// spans (when observability is armed) on pid 1, and per-flit NoC trace
/// events on pid 2 with `ts` = the simulated cycle (one "microsecond"
/// per cycle) and one thread per subnet.
pub(crate) fn chrome_trace(
    spans: Option<&SpanProfiler>,
    flit_traces: &[(usize, Vec<TraceEvent>)],
) -> String {
    let mut t = ChromeTrace::new();
    if let Some(sp) = spans {
        t.process_name(1, "System::step phases (wall clock)");
        for ev in sp.events() {
            t.complete(
                sp.name(ev.span),
                1,
                ev.track + 1,
                ev.start_ns as f64 / 1_000.0,
                ev.dur_ns as f64 / 1_000.0,
                &[("cycle", ev.cycle as f64)],
            );
        }
    }
    t.process_name(2, "NoC flit trace (ts = simulated cycle)");
    for &(net, ref events) in flit_traces {
        t.thread_name(2, net as u64 + 1, &format!("net{net}"));
        for ev in events {
            let name = match ev.kind {
                TraceKind::Inject => "inject",
                TraceKind::Hop => "hop",
                TraceKind::Eject => "eject",
            };
            t.instant(
                name,
                2,
                net as u64 + 1,
                ev.cycle as f64,
                &[
                    ("pkt", ev.pkt.0 as f64),
                    ("seq", ev.seq as f64),
                    ("router", ev.router as f64),
                ],
            );
        }
    }
    t.finish()
}
