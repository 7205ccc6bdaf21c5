//! The calibration kernel: a fixed piece of work whose time says how
//! fast the machine is *right now*.
//!
//! This box changes speed for minutes at a time (a 0.21 s cell reads
//! 0.25–0.33 s for whole minutes, in bursts shorter than a cell), which
//! no statistic taken inside one run can remove. So every timed cell is
//! bracketed by this kernel and reported in *reference seconds*:
//! `t × CALIB_REF_S / k`, the time the cell would take on a machine on
//! which the kernel takes `CALIB_REF_S`.
//!
//! The kernel is a miniature of a router sweep — 64 routers, five ports
//! of four virtual-channel `VecDeque`s each, xorshift injection at an
//! eighth of the routers a step, XY forwarding with back-pressure —
//! because what tracks the simulator's slow-downs is code with its
//! instruction mix. Over ten-minute logs that each crossed a heavy
//! phase, candidates were timed around a `SeparateBase/kmeans` cell, a
//! `Da2Mesh/kmeans` cell and a near-idle load–latency point (630 samples
//! of each). How much more the cell slows than the candidate (slope of
//! the cell's log time on the candidate's, slowest third of the samples
//! against the fastest): random read-modify-write over 1 MB 1.4 / 2.0 /
//! 2.0 and over 4 MB 1.4 / 1.9 / 2.0 (memory-bound code barely notices
//! the slow phases), a scan of 1280 state words 0.54 / 0.79 / 0.89, a
//! one-queue-per-port miniature at a quarter injection 0.89 / 1.22 /
//! 1.47, this kernel 0.79 / 1.03 / 1.17 with correlations 0.81 / 0.79 /
//! 0.85 (on a third log 1.01 / 1.24 / 1.03, allocated once or afresh
//! each call alike). No candidate fits all three — the near-idle path slows about
//! 1.5 times as much as the saturated one whatever the yardstick — so
//! the kernel is the one that splits the error: between a quiet and a
//! heavy phase the saturated cell reads 4 % low and the near-idle one
//! 3 % high. It shares no code with the repository, so a change that
//! speeds the simulator up cannot speed the yardstick up with it.
//!
//! **Frozen.** Changing the kernel or `CALIB_STEPS` changes the unit of
//! every end-to-end time; the checksum test below exists to make that a
//! deliberate act. `CALIB_REF_S` is only a scale: it makes a reference
//! second about a wall second on the box the benchmark was defined on,
//! and no comparison between two commits depends on its value.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Steps of the miniature per kernel call (≈ 10 ms).
pub const CALIB_STEPS: u32 = 4_000;
/// Seconds one kernel call takes on the reference machine. A scale
/// factor only (it cancels in every ratio of two runs); 9.5 ms is about
/// what the 2-vCPU Xeon 2.1 GHz sandbox the benchmark was defined on
/// reads when it is quiet, so reference seconds there are about wall
/// seconds.
pub const CALIB_REF_S: f64 = 0.0095;

const SIDE: usize = 8;
const ROUTERS: usize = SIDE * SIDE;
const PORTS: usize = 5;
const VCS: usize = 4;
const DEPTH: usize = 8;

/// The miniature's queues, allocated once a run: queue
/// `port * VCS + vc` of each router, port 4 being local injection.
pub struct Kernel {
    q: Vec<Vec<VecDeque<u64>>>,
}

impl Kernel {
    /// Empty queues.
    pub fn new() -> Self {
        let q = (0..ROUTERS)
            .map(|_| {
                (0..PORTS * VCS)
                    .map(|_| VecDeque::with_capacity(DEPTH))
                    .collect()
            })
            .collect();
        Kernel { q }
    }

    /// One kernel call: empties the miniature, steps it `CALIB_STEPS`
    /// times, and returns `(seconds, flits moved)`. The same
    /// instructions every call and no allocation, so the time depends
    /// on the machine alone and the heap the cells see is left as it was.
    pub fn call(&mut self) -> (f64, u64) {
        let t0 = Instant::now();
        let q = &mut self.q;
        q.iter_mut().flatten().for_each(VecDeque::clear);
        let mut x = 88_172_645_463_325_252u64;
        let mut moved = 0u64;
        for _ in 0..CALIB_STEPS {
            for r in 0..ROUTERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let local = 4 * VCS + (x >> 40) as usize % VCS;
                if x & 7 == 0 && q[r][local].len() < DEPTH {
                    q[r][local].push_back(x >> 8);
                }
                for p in 0..PORTS * VCS {
                    let Some(&flit) = q[r][p].front() else {
                        continue;
                    };
                    let dst = (flit & 63) as usize;
                    if dst == r {
                        q[r][p].pop_front();
                        moved += 1;
                        continue;
                    }
                    let (rx, ry, dx, dy) = (r % SIDE, r / SIDE, dst % SIDE, dst / SIDE);
                    let (next, port) = if rx < dx {
                        (r + 1, 0)
                    } else if rx > dx {
                        (r - 1, 1)
                    } else if ry < dy {
                        (r + SIDE, 2)
                    } else {
                        (r - SIDE, 3)
                    };
                    // A flit keeps its virtual channel from hop to hop.
                    let to = port * VCS + p % VCS;
                    if q[next][to].len() < DEPTH {
                        q[r][p].pop_front();
                        q[next][to].push_back(flit);
                        moved += 1;
                    }
                }
            }
        }
        let moved = black_box(moved);
        (t0.elapsed().as_secs_f64(), moved)
    }
}

/// `seconds` measured between kernel calls that took `before_s` and
/// `after_s`, in reference seconds. The two calls are averaged: over a
/// 10-minute log, per-12 s-window estimates of one cell spread 1.6 %
/// with the mean, 2.4 % with the faster call, 3.1 % with the slower and
/// 2.1 % with the earlier one alone.
pub fn to_reference(seconds: f64, before_s: f64, after_s: f64) -> f64 {
    seconds * CALIB_REF_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_call() {
        let mut kernel = Kernel::new();
        let (_, a) = kernel.call();
        let (_, b) = kernel.call();
        assert_eq!(a, b);
        assert_eq!(Kernel::new().call().1, a);
        // Pinned: another number means another kernel, hence another unit
        // for wall_s, sim_cycles_per_s and setup_s. Re-baseline, and say so.
        assert_eq!(a, 200_551);
    }

    #[test]
    fn reference_seconds_scale_with_the_machine() {
        // A machine on which the kernel takes twice the reference time
        // is half as fast: a 2 s cell is a 1 s cell at reference speed.
        let r = to_reference(2.0, 2.0 * CALIB_REF_S, 2.0 * CALIB_REF_S);
        assert!((r - 1.0).abs() < 1e-12);
        assert!((to_reference(1.0, CALIB_REF_S, CALIB_REF_S) - 1.0).abs() < 1e-12);
        assert!((to_reference(2.0, CALIB_REF_S, 3.0 * CALIB_REF_S) - 1.0).abs() < 1e-12);
    }
}
