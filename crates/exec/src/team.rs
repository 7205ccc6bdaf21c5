//! Persistent cycle-step worker team.
//!
//! `System::step` once fanned its per-subnet NoC phase over a team; it
//! never paid (two lanes ran DA2Mesh's nine subnets at 0.73–0.89× the
//! serial speed) and every simulation is single-threaded now. The one
//! remaining reader is `benchmark/src/probes.rs`, whose
//! `exec.team_round_ns.2l` probe times a round; ROADMAP.md item 1(a)
//! drops that probe, and this module goes with it.
//!
//! A [`StepTeam`] spawns its workers exactly once, then hands them a
//! borrowed task closure per *round* through an epoch-numbered barrier:
//!
//! ```text
//! leader: publish (f, n), epoch += 1  ──▶  workers wake
//! all lanes run their fixed stride of tasks 0..n
//! workers: done += 1                  ──▶  leader returns from run()
//! ```
//!
//! Determinism contract: task `i` always runs on lane `i % lanes`
//! (lane `lanes-1` is the caller), so the task→thread assignment is a
//! pure function of the task index and the team size — never of
//! scheduling order. Tasks must touch disjoint state; the barrier's
//! release/acquire pair publishes everything a lane wrote before the
//! leader resumes.
//!
//! The steady-state [`StepTeam::run`] path performs **zero heap
//! allocations**: the task slot, counters and parking primitives are
//! all built in [`StepTeam::new`], and waiting lanes spin briefly, then
//! yield, then park on a condvar (so an oversubscribed or single-core
//! host degrades to cooperative scheduling instead of live-lock).

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Epoch value signalling workers to exit.
const SHUTDOWN: u64 = u64::MAX;
/// Busy-poll iterations before yielding the CPU.
const SPINS: u32 = 256;
/// `yield_now` rounds before parking on the condvar.
const YIELDS: u32 = 16;

/// The round's task: a borrowed closure (lifetime erased while the
/// round is in flight) plus the task count.
struct TaskSlot {
    f: UnsafeCell<Option<*const (dyn Fn(usize) + Sync)>>,
    n: AtomicUsize,
}

// SAFETY: the slot is written only by the leader between rounds (while
// every worker is provably waiting on the next epoch) and read only
// during a round the leader is blocked in; the epoch store/load pair
// orders those accesses.
unsafe impl Send for TaskSlot {}
unsafe impl Sync for TaskSlot {}

struct Shared {
    /// Round counter. The leader's `Release` store publishes the task
    /// slot; workers `Acquire`-load it to pick the round up.
    epoch: AtomicU64,
    /// Lanes finished with the current round (workers only — the
    /// leader does not count itself).
    done: AtomicUsize,
    task: TaskSlot,
    /// Parking for workers waiting on the next round.
    go_lock: Mutex<()>,
    go: Condvar,
    /// Parking for the leader waiting on round completion.
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// First panic raised by any lane this round, re-raised by the
    /// leader once the round has fully drained.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A persistent team of worker threads for per-cycle fan-out.
///
/// Construct once (e.g. at `System::build`), call
/// [`run`](StepTeam::run) once per cycle phase, drop to shut the
/// workers down. The calling thread is always lane `lanes() - 1` and
/// does its share of the work, so a team of `k` lanes spawns `k - 1`
/// threads.
pub struct StepTeam {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    lanes: usize,
}

impl std::fmt::Debug for StepTeam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepTeam").field("lanes", &self.lanes).finish()
    }
}

impl StepTeam {
    /// Creates a team with `lanes` total lanes (caller included).
    /// `lanes <= 1` builds a degenerate team that runs everything
    /// inline on the caller.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            task: TaskSlot {
                f: UnsafeCell::new(None),
                n: AtomicUsize::new(0),
            },
            go_lock: Mutex::new(()),
            go: Condvar::new(),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        let handles = (0..lanes.saturating_sub(1))
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("equinox-step-{lane}"))
                    .spawn(move || worker_loop(&shared, lane, lanes))
                    .expect("spawn step worker")
            })
            .collect();
        StepTeam {
            shared,
            handles,
            lanes,
        }
    }

    /// Total lanes (worker threads + the caller).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs `f(i)` for every task `i in 0..n`, fanning the tasks over
    /// the team with the fixed assignment `lane = i % lanes`. Returns
    /// once every task has finished; writes made by any lane are
    /// visible to the caller. Panics in any task are re-raised here
    /// after the round drains (first panic wins).
    ///
    /// `f` must be safe to call concurrently for distinct `i` (tasks
    /// touch disjoint state). Allocation-free in steady state.
    pub fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() || n <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let shared = &*self.shared;
        shared.done.store(0, Ordering::Relaxed);
        shared.task.n.store(n, Ordering::Relaxed);
        // SAFETY: every worker is waiting on the epoch (the previous
        // round fully drained before `run` returned), so the slot is
        // not being read. The lifetime erasure is sound because this
        // call does not return until every lane is done with `f`.
        unsafe {
            let erased: *const (dyn Fn(usize) + Sync) = std::mem::transmute::<
                &(dyn Fn(usize) + Sync),
                &'static (dyn Fn(usize) + Sync),
            >(f);
            *shared.task.f.get() = Some(erased);
        }
        let round = shared.epoch.load(Ordering::Relaxed).wrapping_add(1);
        shared.epoch.store(round, Ordering::Release);
        {
            let _g = shared.go_lock.lock().expect("go lock");
            shared.go.notify_all();
        }
        // The leader is the last lane; even if its stride panics it
        // must wait for the workers before unwinding (they still hold
        // the borrow of `f`).
        let leader_panic = catch_unwind(AssertUnwindSafe(|| {
            run_stride(f, n, self.lanes - 1, self.lanes);
        }))
        .err();
        self.wait_round_done();
        // SAFETY: round drained; no lane reads the slot until the next
        // epoch store.
        unsafe {
            *shared.task.f.get() = None;
        }
        if let Some(payload) = leader_panic {
            resume_unwind(payload);
        }
        let worker_panic = shared.panic.lock().expect("panic slot").take();
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Blocks until every worker has finished the current round.
    fn wait_round_done(&self) {
        let shared = &*self.shared;
        let workers = self.handles.len();
        for _ in 0..SPINS {
            if shared.done.load(Ordering::Acquire) == workers {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if shared.done.load(Ordering::Acquire) == workers {
                return;
            }
            std::thread::yield_now();
        }
        let mut g = shared.done_lock.lock().expect("done lock");
        while shared.done.load(Ordering::Acquire) != workers {
            g = shared.done_cv.wait(g).expect("done wait");
        }
    }
}

impl Drop for StepTeam {
    fn drop(&mut self) {
        self.shared.epoch.store(SHUTDOWN, Ordering::Release);
        {
            let _g = self.shared.go_lock.lock().expect("go lock");
            self.shared.go.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs lane `lane`'s fixed stride of the round: tasks
/// `lane, lane + lanes, lane + 2*lanes, ...`.
#[inline]
fn run_stride(f: &(dyn Fn(usize) + Sync), n: usize, lane: usize, lanes: usize) {
    let mut i = lane;
    while i < n {
        f(i);
        i += lanes;
    }
}

fn worker_loop(shared: &Shared, lane: usize, lanes: usize) {
    let mut seen = 0u64;
    loop {
        let round = wait_for_round(shared, seen);
        if round == SHUTDOWN {
            return;
        }
        seen = round;
        // SAFETY: the Acquire load of the epoch in `wait_for_round`
        // synchronizes with the leader's Release store, which happens
        // after the task slot was written; the leader will not clear
        // the slot until this lane bumps `done`.
        let f = unsafe { (*shared.task.f.get()).expect("task published with round") };
        let n = shared.task.n.load(Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_stride(unsafe { &*f }, n, lane, lanes);
        }));
        if let Err(payload) = result {
            let mut slot = shared.panic.lock().expect("panic slot");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        // AcqRel: the Release half publishes this lane's task writes to
        // the leader's Acquire load in `wait_round_done`.
        let finished = shared.done.fetch_add(1, Ordering::AcqRel) + 1;
        if finished == lanes - 1 {
            let _g = shared.done_lock.lock().expect("done lock");
            shared.done_cv.notify_one();
        }
    }
}

/// Waits for the epoch to move past `seen`: spin, then yield, then
/// park. Returns the new epoch.
fn wait_for_round(shared: &Shared, seen: u64) -> u64 {
    for _ in 0..SPINS {
        let e = shared.epoch.load(Ordering::Acquire);
        if e != seen {
            return e;
        }
        std::hint::spin_loop();
    }
    for _ in 0..YIELDS {
        let e = shared.epoch.load(Ordering::Acquire);
        if e != seen {
            return e;
        }
        std::thread::yield_now();
    }
    let mut g = shared.go_lock.lock().expect("go lock");
    loop {
        let e = shared.epoch.load(Ordering::Acquire);
        if e != seen {
            return e;
        }
        g = shared.go.wait(g).expect("go wait");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn degenerate_team_runs_inline() {
        let team = StepTeam::new(1);
        assert_eq!(team.lanes(), 1);
        let hits = AtomicU64::new(0);
        team.run(5, &|i| {
            hits.fetch_add(1 << i, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0b11111);
    }

    #[test]
    fn every_task_runs_exactly_once_per_round() {
        let team = StepTeam::new(4);
        let counts: Vec<AtomicU64> = (0..9).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..200 {
            team.run(counts.len(), &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 200, "task {i} miscounted");
        }
    }

    #[test]
    fn disjoint_writes_are_visible_after_run() {
        let team = StepTeam::new(3);
        let mut data = vec![0u64; 17];
        let ptr = data.as_mut_ptr() as usize;
        team.run(data.len(), &move |i| {
            // SAFETY: each task writes only its own slot.
            unsafe { *(ptr as *mut u64).add(i) = (i as u64) * 3 + 1 };
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 3 + 1);
        }
    }

    #[test]
    fn single_task_round_stays_on_caller() {
        let team = StepTeam::new(4);
        let caller = std::thread::current().id();
        team.run(1, &|_| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn team_survives_many_small_rounds() {
        let team = StepTeam::new(2);
        let total = AtomicU64::new(0);
        for round in 0..5_000u64 {
            team.run(2, &|i| {
                total.fetch_add(round + i as u64, Ordering::Relaxed);
            });
        }
        // sum over rounds of (round + 0) + (round + 1)
        let expect: u64 = (0..5_000u64).map(|r| 2 * r + 1).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn worker_panic_propagates_and_team_recovers() {
        let team = StepTeam::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(8, &|i| {
                // Lane 1's stride (tasks 1 and 5) includes the bomb.
                if i == 5 {
                    panic!("subnet 5 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("exploded"), "payload preserved: {msg}");
        // The team must still be usable for the next round.
        let hits = AtomicU64::new(0);
        team.run(8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn leader_panic_waits_for_workers() {
        let team = StepTeam::new(2);
        let done = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(2, &|i| {
                if i == 1 {
                    // Leader's own stride (lane 1 of 2 takes task 1).
                    panic!("leader stride boom");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::Relaxed), 1, "worker task still ran");
    }

    #[test]
    fn assignment_is_a_fixed_stride() {
        // Task i must land on lane i % lanes: record which thread ran
        // each task twice and check the mapping is identical.
        let team = StepTeam::new(3);
        let map = |_: u64| {
            let ids: Vec<Mutex<Option<std::thread::ThreadId>>> =
                (0..7).map(|_| Mutex::new(None)).collect();
            team.run(7, &|i| {
                *ids[i].lock().unwrap() = Some(std::thread::current().id());
            });
            ids.into_iter()
                .map(|m| m.into_inner().unwrap().unwrap())
                .collect::<Vec<_>>()
        };
        let a = map(0);
        let b = map(1);
        assert_eq!(a, b, "task→lane assignment must be reproducible");
        for (i, id) in a.iter().enumerate() {
            assert_eq!(*id, a[i % 3], "task {i} off its stride");
        }
    }
}
