//! Steady-state allocation check for the whole machine.
//!
//! The noc crate proves `Network::step()` is allocation-free and the
//! sibling test in this crate covers `InjectionQueue::tick`; this file
//! extends the guarantee to a full `System::step()` at saturation — PEs
//! emitting requests, trackers recording packets, cache banks and HBM
//! channels scheduling, NIs streaming flits, and the activity-gated
//! stepping maintaining its active-set worklists (whose sorted-insert
//! lists are capacity-reserved at construction, so activation edges
//! never allocate) — on one network and on DA2Mesh's nine, and with
//! the observability layer armed.
//!
//! The counter counts only while the measuring thread has switched it on
//! for itself: libtest's main thread allocates while a test runs. This
//! file still contains a single test, so no other test shares the
//! window.

use equinox_core::{ObsConfig, SchemeKind, System, SystemConfig};
use equinox_traffic::{profile::benchmark, Workload};
use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { SysAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SysAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { SysAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Builds `cfg`, warms it to steady state, then steps a 2 000-cycle
/// window that must carry real traffic and allocate nothing. A run is
/// single-threaded, so the counter watches the thread that steps it.
fn steady_state_window(what: &str, cfg: SystemConfig) -> System {
    let mut sys = System::build(cfg);
    // The packet-record table grows for the lifetime of the run; reserve
    // it past any packet count this test can reach so its doubling never
    // lands inside the measured window.
    sys.reserve_packets(1 << 20);

    // Warm-up: queues, in-flight tables and eject buffers reach their
    // steady-state capacities here. The warm-up must span the profile's
    // phase changes — each shift in the traffic mix can set a new
    // high-water mark in a different queue, and the last one lands
    // around cycle 18k with this seed and scale.
    for _ in 0..19_000 {
        sys.step();
    }
    let flits_before: u64 = sys.networks().iter().map(|n| n.stats().ejected_flits).sum();

    COUNTING.set(true);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..2_000 {
        sys.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(false);

    assert_eq!(
        after - before,
        0,
        "{what}: System::step allocated {} times in the steady-state window",
        after - before
    );
    let flits_after: u64 = sys.networks().iter().map(|n| n.stats().ejected_flits).sum();
    assert!(
        flits_after - flits_before > 1_000,
        "{what}: window must carry real traffic (got {} flits)",
        flits_after - flits_before
    );
    sys
}

#[test]
fn full_system_step_is_allocation_free_at_saturation() {
    // A memory-heavy profile with a large quota keeps every layer busy
    // for the whole test: request NIs backlogged, networks loaded,
    // CB/HBM queues full.
    let saturated = |scheme| SystemConfig::new(scheme, 8, Workload::new(benchmark("bfs").unwrap(), 2.0, 7));

    let mut cfg = saturated(SchemeKind::EquiNox);
    cfg.audit = None;
    cfg.activity_gate = true;
    let sys = steady_state_window("serial", cfg);
    let (outstanding, req_backlog, cb_inflight, rep_backlog) = sys.occupancy();
    assert!(
        outstanding + req_backlog + cb_inflight + rep_backlog > 0,
        "machine must still be loaded after the window"
    );
    drop(sys);

    // Same guarantee on DA2Mesh: one request mesh + eight reply
    // subnets, stepped at their own clock ratios.
    drop(steady_state_window("da2mesh", saturated(SchemeKind::Da2Mesh)));

    // And with the observability layer armed (stream off): stall
    // attribution charges every blocked flit, the histograms record every
    // delivery and two sampler rows land inside the window — all into
    // buffers preallocated at build. A per-event allocation or a series
    // that grows row by row fails here.
    let mut cfg = saturated(SchemeKind::EquiNox);
    cfg.obs = Some(ObsConfig::default());
    let sys = steady_state_window("obs-armed", cfg);
    assert!(sys.obs_json().is_some(), "obs must actually be armed");
}
