//! Allocation check for the design search.
//!
//! `tree::search` tabulates its problem once, sizes the tree's arenas
//! for the iteration budget and then reuses scratch buffers: what it
//! allocates is a constant per search, not a cost per iteration. A
//! 4000-iteration search must therefore allocate exactly as often as a
//! 1000-iteration one.
//!
//! The counter counts only while the measuring thread has switched it on
//! for itself: libtest's main thread allocates while a test runs. This
//! file still contains a single test, so no other test shares the
//! window.

use equinox_mcts::problem::EirProblem;
use equinox_mcts::tree::{search, MctsConfig};
use equinox_placement::select::best_nqueen_placement;
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

fn allocations_of_a_search(problem: &EirProblem, iterations: usize) -> u64 {
    let cfg = MctsConfig {
        iterations,
        seed: 7,
        ..Default::default()
    };
    COUNTING.set(true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = search(problem, &cfg);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(false);
    assert!(result.evaluations >= iterations);
    after - before
}

#[test]
fn search_allocates_a_constant_not_per_iteration() {
    let problem = EirProblem::new(best_nqueen_placement(8, 8, usize::MAX, 0));
    let short = allocations_of_a_search(&problem, 1_000);
    let long = allocations_of_a_search(&problem, 4_000);
    assert_eq!(
        long, short,
        "a 4000-iteration search allocated {long} times, a 1000-iteration one {short}"
    );
    // Tables, arenas, scratch and the returned selection: tens, not thousands.
    assert!(short < 100, "{short} allocations per search");
}
