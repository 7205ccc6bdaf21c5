//! Regression tests for the flit-trace plumbing through the full
//! system: `SystemConfig::trace_capacity` must arm every network's ring
//! buffer, and a delivered packet must show the Inject → Hop* → Eject
//! lifecycle in the drained events.

use equinox_core::scheme::SchemeKind;
use equinox_core::system::{System, SystemConfig};
use equinox_noc::TraceKind;
use equinox_traffic::{profile::benchmark, Workload};

fn traced_system(trace_capacity: usize) -> System {
    let workload = Workload::new(benchmark("hotspot").unwrap(), 0.05, 42);
    let mut cfg = SystemConfig::new(SchemeKind::SeparateBase, 8, workload);
    cfg.max_cycles = 200_000;
    cfg.trace_capacity = trace_capacity;
    System::build(cfg)
}

#[test]
fn traced_run_shows_full_packet_lifecycles() {
    let mut sys = traced_system(1 << 20);
    let m = sys.run();
    assert!(m.completed, "stalled at cycle {}", m.cycles);
    let traces = sys.drain_traces();
    assert!(!traces.is_empty(), "tracing was armed but recorded nothing");

    // Pick a packet that survived ring eviction end-to-end: it must show
    // Inject, then at least one Hop, then Eject, in cycle order.
    let mut verified = 0usize;
    for (net, events) in &traces {
        let mut pkts: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == TraceKind::Eject)
            .map(|e| e.pkt.0)
            .collect();
        pkts.dedup();
        for pkt in pkts.into_iter().take(8) {
            let life: Vec<_> = events.iter().filter(|e| e.pkt.0 == pkt).collect();
            let Some(first) = life.first() else { continue };
            if first.kind != TraceKind::Inject {
                continue; // head of this packet's life was evicted
            }
            let last = life.last().unwrap();
            assert_eq!(
                last.kind,
                TraceKind::Eject,
                "packet {pkt} on net {net} ends mid-flight"
            );
            assert!(
                life.iter().any(|e| e.kind == TraceKind::Hop),
                "packet {pkt} on net {net} never hopped"
            );
            assert!(
                life.windows(2).all(|w| w[0].cycle <= w[1].cycle),
                "packet {pkt} events out of cycle order"
            );
            assert!(first.cycle <= last.cycle);
            verified += 1;
        }
    }
    assert!(verified > 0, "no packet had a complete retained lifecycle");

    // Draining consumes the rings.
    assert!(sys.drain_traces().is_empty(), "second drain must be empty");
}

#[test]
fn untraced_run_records_nothing() {
    let mut sys = traced_system(0);
    let m = sys.run();
    assert!(m.completed);
    assert!(sys.drain_traces().is_empty(), "tracing was never armed");
    assert!(sys.obs_json().is_none(), "obs was never armed");
}

#[test]
fn chrome_export_is_valid_json_with_flit_events() {
    let mut sys = traced_system(1 << 16);
    let m = sys.run();
    assert!(m.completed);
    let doc = sys.export_chrome_trace();
    let parsed = equinox_config::parse_json(&doc).expect("valid Chrome trace JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("i")
                && e.get("args").and_then(|a| a.get("pkt")).is_some()
        }),
        "no instant flit events in the export"
    );
}

#[test]
fn multi_clock_subnets_record_flit_events() {
    // DA2Mesh's nine networks step at 2.5:1 subnet clocks; tracing
    // arms every one of them.
    let workload = Workload::new(benchmark("hotspot").unwrap(), 0.08, 13);
    let mut cfg = SystemConfig::new(SchemeKind::Da2Mesh, 8, workload);
    cfg.max_cycles = 30_000;
    cfg.trace_capacity = 1 << 16;
    let mut sys = System::build(cfg);
    sys.run();
    let traced: Vec<usize> = sys.drain_traces().iter().map(|(net, _)| *net).collect();
    assert_eq!(traced, (0..9).collect::<Vec<_>>(), "every network records flit events");
}
