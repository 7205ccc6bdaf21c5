//! Randomized (seeded, deterministic) tests for the HBM model: every
//! accepted access completes exactly once, timing respects the DRAM
//! floor, and a step before the stack's next event changes nothing.

use equinox_exec::Rng;
use equinox_hbm::{HbmConfig, HbmStack, MemAccess};
use equinox_snap::Enc;
use std::collections::BTreeSet;

const CASES: u64 = 32;

#[test]
fn accepted_accesses_complete_exactly_once() {
    for case in 0..CASES {
        let mut rng = Rng::stream(0x4B1, case);
        let n = rng.random_range(1usize..60);
        let addrs: Vec<(u64, bool)> = (0..n)
            .map(|_| (rng.random_range(0u64..1 << 20), rng.random::<bool>()))
            .collect();
        let cfg = HbmConfig::tiny();
        let mut stack = HbmStack::new(cfg);
        let mut accepted = BTreeSet::new();
        let mut pending: Vec<(u64, u64, bool)> = addrs
            .iter()
            .enumerate()
            .map(|(i, &(a, w))| (i as u64, a & !63, w))
            .collect();
        let mut done = BTreeSet::new();
        let floor = cfg.timing.t_cl + cfg.timing.t_burst;
        for t in 0..50_000u64 {
            pending.retain(|&(id, addr, write)| {
                if stack.enqueue(MemAccess { id, addr, write }, t).is_ok() {
                    accepted.insert(id);
                    false
                } else {
                    true
                }
            });
            stack.step(t);
            while let Some(c) = stack.pop_completed() {
                assert!(done.insert(c.id), "duplicate completion {}", c.id);
                assert!(c.finished_at >= floor, "faster than CAS+burst");
            }
            if pending.is_empty() && done.len() == accepted.len() {
                break;
            }
        }
        assert_eq!(done.len(), addrs.len(), "every access must finish");
        assert_eq!(stack.outstanding(), 0);
    }
}

#[test]
fn row_stats_account_for_all_accesses() {
    for case in 0..CASES {
        let mut rng = Rng::stream(0x4B2, case);
        let n = rng.random_range(1usize..40);
        let addrs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..1 << 18)).collect();
        let mut stack = HbmStack::new(HbmConfig::tiny());
        let mut submitted = 0u64;
        let mut i = 0usize;
        for t in 0..50_000u64 {
            if i < addrs.len()
                && stack
                    .enqueue(
                        MemAccess {
                            id: i as u64,
                            addr: addrs[i] & !63,
                            write: false,
                        },
                        t,
                    )
                    .is_ok()
            {
                submitted += 1;
                i += 1;
            }
            stack.step(t);
            while stack.pop_completed().is_some() {}
            if i == addrs.len() && stack.outstanding() == 0 {
                break;
            }
        }
        let (h, m, c) = stack.row_stats();
        assert_eq!(h + m + c, submitted, "every issue hits/misses/conflicts");
    }
}

fn snap(stack: &HbmStack) -> Vec<u8> {
    let mut e = Enc::new();
    stack.snap_state(&mut e);
    e.into_bytes()
}

/// Stepping at any cycle strictly before `next_event()` is a no-op: it
/// completes nothing and leaves the snapshot bytes as they were. The
/// per-bank tick schedule skips exactly those cycles. The steps go to a
/// copy through [`HbmStack::step_every_channel`], so each channel's own
/// `step` runs on every probed cycle, not only the stack's schedule.
#[test]
fn steps_before_the_next_event_change_nothing() {
    let mut probed = 0;
    for case in 0..CASES / 2 {
        let mut rng = Rng::stream(0x4B3, case);
        let cfg = if case % 2 == 0 { HbmConfig::tiny() } else { HbmConfig::hbm2() };
        let mut stack = HbmStack::new(cfg);
        let mut next_id = 0;
        for t in 0..2_000u64 {
            if t < 1_200 && rng.random::<f64>() < 0.1 {
                for _ in 0..rng.random_range(1..12u32) {
                    let addr = rng.random_range(0u64..1 << 16) & !63;
                    let write = rng.random_range(0..3u32) == 0;
                    let _ = stack.enqueue(MemAccess { id: next_id, addr, write }, t);
                    next_id += 1;
                }
            }
            stack.step(t);
            while stack.pop_completed().is_some() {}
            let Some(next) = stack.next_event() else { continue };
            if next <= t + 1 || t % 3 != 0 {
                continue;
            }
            let bytes = snap(&stack);
            let mut copy = stack.clone();
            for early in (t + 1..next).step_by(1 + (next - t) as usize / 4) {
                copy.step_every_channel(early);
                assert_eq!(copy.pop_completed(), None, "case {case}: step at {early} < {next}");
                assert!(snap(&copy) == bytes, "case {case}: step at {early} < {next} changed state");
                probed += 1;
            }
        }
    }
    assert!(probed > 1_000, "only {probed} early steps probed");
}
