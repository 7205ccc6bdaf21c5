//! Steady-state allocation check for the NI injection hot path.
//!
//! The noc crate proves `Network::step()` is allocation-free; this file
//! extends the guarantee one layer up, through
//! `InjectionQueue::tick` with the EquiNox buffer-selection policy (whose
//! `choose` previously built a `Vec` of shortest-path EIRs per message)
//! and the flit streaming of in-flight packets (previously a
//! pre-materialized `Vec<Flit>` per message).
//!
//! The counter counts only while the measuring thread has switched it on
//! for itself: libtest's main thread allocates while a test runs. This
//! file still contains a single test, so no other test shares the
//! window.

use equinox_core::msg::{MemOpKind, Message, PacketTracker};
use equinox_core::ni::{InjectPolicy, InjectionQueue};
use equinox_core::scheme::NiKind;
use equinox_noc::config::NocConfig;
use equinox_noc::flit::MessageClass;
use equinox_noc::network::Network;
use equinox_phys::Coord;
use std::alloc::{GlobalAlloc, Layout, System};
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
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn equinox_ni_tick_is_allocation_free_in_steady_state() {
    let n = 8u16;
    let mut nets = vec![Network::new(NocConfig::mesh(n))];
    let cb = Coord::new(3, 3);
    let eirs = [Coord::new(5, 3), Coord::new(3, 5), Coord::new(1, 3), Coord::new(3, 1)];
    let policy = InjectPolicy::for_node(NiKind::Equinox, &mut nets, &[0], cb, 0, &eirs, None);
    let mut ni = InjectionQueue::new(cb, 1_024, policy);

    // Pre-create every message (the tracker's record table grows on
    // `create`, which must stay outside the measured window) and park the
    // whole workload in the queue up front.
    let mut tracker = PacketTracker::new();
    let dests: Vec<Coord> = (0..(n as usize * n as usize))
        .map(|i| Coord::from_index(i, n))
        .filter(|&c| c != cb)
        .collect();
    let msgs: Vec<Message> = (0..800)
        .map(|i| {
            tracker.create(
                cb,
                dests[i % dests.len()],
                MessageClass::Reply,
                MemOpKind::Read,
                i as u64 * 64,
                0,
            )
        })
        .collect();
    for &m in &msgs {
        ni.push(m);
    }

    let mut drive = |ni: &mut InjectionQueue, nets: &mut Vec<Network>, from: u64, cycles: u64| {
        for t in from..from + cycles {
            ni.tick(nets, &mut tracker, t);
            nets[0].step();
            for &d in &dests {
                while nets[0].pop_ejected_node(d).is_some() {}
            }
        }
    };

    // Warm-up: the in-flight table, link queues and eject queues reach
    // their steady-state capacities here.
    drive(&mut ni, &mut nets, 0, 400);
    assert!(ni.backlog() > 0, "workload exhausted during warm-up");

    COUNTING.set(true);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drive(&mut ni, &mut nets, 400, 400);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(false);

    assert_eq!(
        after - before,
        0,
        "NI tick + network step allocated {} times in the steady-state window",
        after - before
    );
    assert!(ni.backlog() > 0, "window must not drain the workload");
    assert!(
        nets[0].stats().ejected_flits > 500,
        "window must carry real traffic (got {} flits)",
        nets[0].stats().ejected_flits
    );
}
