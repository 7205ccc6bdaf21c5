//! Randomized (seeded, deterministic) tests for the HBM model: every
//! accepted access completes exactly once, timing respects the DRAM
//! floor, and stepping only the due channels changes nothing.

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

/// The due-channel schedule changes nothing: a stack stepped through
/// [`HbmStack::step`], which steps only the channels with an event due,
/// and its twin stepped through [`HbmStack::step_every_channel`] accept
/// the same requests, complete the same accesses at the same cycles and
/// hold byte-identical `snap_state` after every cycle.
#[test]
fn due_channels_match_stepping_every_channel() {
    let mut completions = 0;
    for case in 0..CASES / 2 {
        let mut rng = Rng::stream(0x4B3, case);
        let cfg = if case % 2 == 0 { HbmConfig::tiny() } else { HbmConfig::hbm2() };
        let mut stack = HbmStack::new(cfg);
        let mut every = stack.clone();
        let mut next_id = 0;
        for t in 0..2_000u64 {
            if t < 1_200 && rng.random::<f64>() < 0.1 {
                for _ in 0..rng.random_range(1..12u32) {
                    let addr = rng.random_range(0u64..1 << 16) & !63;
                    let write = rng.random_range(0..3u32) == 0;
                    let acc = MemAccess { id: next_id, addr, write };
                    let ok = stack.enqueue(acc, t).is_ok();
                    assert_eq!(every.enqueue(acc, t).is_ok(), ok, "case {case}: cycle {t}");
                    next_id += 1;
                }
            }
            stack.step(t);
            every.step_every_channel(t);
            while let Some(c) = stack.pop_completed() {
                assert_eq!(every.pop_completed(), Some(c), "case {case}: cycle {t}");
                completions += 1;
            }
            assert_eq!(every.pop_completed(), None, "case {case}: cycle {t}");
            assert!(snap(&stack) == snap(&every), "case {case}: state differs at cycle {t}");
        }
    }
    assert!(completions > 1_000, "only {completions} completions compared");
}
