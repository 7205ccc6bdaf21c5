//! Scoped-thread worker pool.
//!
//! The build environment is fully offline, so this is a std-only
//! replacement for the usual rayon `par_iter().map().collect()` shape:
//! [`par_map`] fans a vector of independent jobs over a scoped thread
//! pool (`std::thread::scope`) and returns the results **in input
//! order**. Work is distributed dynamically through an atomic cursor so
//! a slow job does not stall the queue behind a fixed partition.
//!
//! Determinism is the caller's problem and is easy to keep: jobs must
//! not share mutable state, and any randomness must come from a
//! per-job stream ([`crate::rng::Rng::stream`]) so the output of job
//! `i` is a pure function of `i`, never of scheduling order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global override for the worker count, settable once by binaries
/// (`--threads`). 0 = unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count used by [`par_map`]. Intended for
/// binaries parsing a `--threads` flag; tests should call
/// [`par_map_with`] with an explicit count instead (this is a global).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Worker count used by [`par_map`]: the [`set_threads`] override if
/// set, else `std::thread::available_parallelism()`.
pub fn thread_count() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `jobs` on [`thread_count`] workers; results are
/// returned in input order. See [`par_map_with`].
pub fn par_map<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = thread_count();
    par_map_with(n, jobs, f)
}

/// Maps `f(index, job)` over `jobs` on at most `threads` workers and
/// returns the results in input order.
///
/// * With `threads <= 1` or fewer than two jobs the work runs inline on
///   the calling thread — no spawn cost, identical results.
/// * Jobs are claimed dynamically from an atomic cursor, so `jobs.len()`
///   may be far larger than `threads`.
/// * If any job panics, the panic is re-raised on the caller **after**
///   all workers have stopped (first panic wins); results are dropped.
pub fn par_map_with<T, R, F>(threads: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n_jobs = jobs.len();
    if threads <= 1 || n_jobs <= 1 {
        return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let workers = threads.min(n_jobs);
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_jobs {
                    break;
                }
                let job = slots[i].lock().expect("job slot poisoned").take();
                let Some(job) = job else { break };
                match catch_unwind(AssertUnwindSafe(|| f(i, job))) {
                    Ok(r) => *results[i].lock().expect("result slot poisoned") = Some(r),
                    Err(payload) => {
                        // Record the first panic and stop claiming work;
                        // peers drain naturally once the cursor runs out.
                        let mut slot = panic_payload.lock().expect("panic slot poisoned");
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        cursor.store(n_jobs, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });

    if let Some(payload) = panic_payload.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_job_list() {
        let out: Vec<u32> = par_map_with(4, Vec::<u32>::new(), |_, x| x * 2);
        assert!(out.is_empty());
    }

    #[test]
    fn single_job_runs_inline() {
        let out = par_map_with(8, vec![21], |i, x| (i, x * 2));
        assert_eq!(out, vec![(0, 42)]);
    }

    #[test]
    fn more_jobs_than_threads_preserves_order() {
        let jobs: Vec<usize> = (0..103).collect();
        let out = par_map_with(3, jobs, |i, x| {
            assert_eq!(i, x);
            x * x
        });
        assert_eq!(out.len(), 103);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let jobs: Vec<u64> = (0..57).collect();
        let out = par_map_with(5, jobs, |_, x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 57);
        assert_eq!(out.iter().sum::<u64>(), 57 * 56 / 2);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let jobs: Vec<u64> = (0..40).collect();
        let seq = par_map_with(1, jobs.clone(), |i, x| x.wrapping_mul(i as u64 + 3));
        let par = par_map_with(7, jobs, |i, x| x.wrapping_mul(i as u64 + 3));
        assert_eq!(seq, par);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            par_map_with(4, (0..32).collect::<Vec<_>>(), |_, x| {
                if x == 13 {
                    panic!("job 13 exploded");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("exploded"), "original payload kept: {msg}");
    }

    #[test]
    fn panic_on_single_thread_path_propagates_too() {
        let result = std::panic::catch_unwind(|| {
            par_map_with(1, vec![1, 2, 3], |_, x: i32| {
                if x == 2 {
                    panic!("inline boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn override_precedence() {
        set_threads(3);
        assert_eq!(thread_count(), 3);
        set_threads(0); // back to auto for other tests
        assert!(thread_count() >= 1);
    }
}
