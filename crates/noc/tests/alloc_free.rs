//! Steady-state allocation check for the simulation hot loop.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up period (during which scratch buffers, link queues and VC
//! buffers reach their steady-state capacities), driving sustained
//! traffic through `Network::step()` must perform **zero** heap
//! allocations. This is the enforcement half of the PR-1 tentpole; the
//! behavioral half is the golden-trace test.
//!
//! The counter counts only while the measuring thread has switched it on
//! for itself: libtest's main thread allocates while a test runs. This
//! file still contains a single test, so no other test shares the
//! window.

use equinox_exec::Rng;
use equinox_noc::config::NocConfig;
use equinox_noc::flit::{Flit, MessageClass, PacketDesc};
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

/// Pre-generated flit schedule: every node keeps a queue of packets to
/// stream toward random destinations (pop-only during measurement).
fn schedule(n: u16, packets_per_node: usize, seed: u64) -> Vec<(Coord, Vec<Flit>)> {
    let mut rng = Rng::seed_from_u64(seed);
    let nodes = n as usize * n as usize;
    let mut pkt_id = 0u64;
    (0..nodes)
        .map(|i| {
            let src = Coord::from_index(i, n);
            // One long reversed flit stream; `pop()` from the end during
            // the measured window is allocation-free.
            let mut flits = Vec::new();
            for _ in 0..packets_per_node {
                let dst = loop {
                    let d = Coord::new(rng.random_range(0..n), rng.random_range(0..n));
                    if d != src {
                        break d;
                    }
                };
                let class = if rng.random::<bool>() {
                    MessageClass::Reply
                } else {
                    MessageClass::Request
                };
                let len = rng.random_range(1u16..6);
                flits.extend(PacketDesc::new(pkt_id, src, dst, class, len).flits(n));
                pkt_id += 1;
            }
            flits.reverse();
            (src, flits)
        })
        .collect()
}

fn drive(net: &mut Network, sources: &mut [(Coord, Vec<Flit>)], cycles: u64) {
    for _ in 0..cycles {
        for (src, flits) in sources.iter_mut() {
            if let Some(&f) = flits.last() {
                let inj = net.local_injector(*src);
                if net.try_inject_flit(inj, f) {
                    flits.pop();
                }
            }
        }
        net.step();
        net.drain_ejected(|_, _, _| {});
    }
}

#[test]
fn step_is_allocation_free_in_steady_state() {
    let n = 8u16;
    let mut net = Network::new(NocConfig::mesh(8));
    let mut sources = schedule(n, 400, 0xA110C);

    // Warm-up: scratch buffers, link queues and eject queues grow to
    // their steady-state capacities here.
    drive(&mut net, &mut sources, 4_000);
    assert!(
        sources.iter().any(|(_, f)| !f.is_empty()),
        "schedule exhausted during warm-up; raise packets_per_node"
    );

    COUNTING.set(true);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drive(&mut net, &mut sources, 2_000);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(false);

    assert_eq!(
        after - before,
        0,
        "Network::step() allocated {} times in the steady-state window",
        after - before
    );
    assert!(
        net.stats().ejected_flits > 1_000,
        "window must carry real traffic (got {} flits)",
        net.stats().ejected_flits
    );
}
