//! Randomized (seeded, deterministic) tests of the PE model's
//! accounting invariants.

use equinox_exec::Rng;
use equinox_traffic::profile::all_benchmarks;
use equinox_traffic::{Pe, Workload};

#[test]
fn pe_retires_exactly_its_quota() {
    let mut rng = Rng::seed_from_u64(0xFE1);
    for _ in 0..40 {
        let bench = rng.random_range(0usize..29);
        let seed = rng.random_range(0u64..1000);
        let mshrs = rng.random_range(1u32..32);
        let profile = all_benchmarks()[bench];
        let w = Workload {
            profile,
            scale: 0.05,
            mshrs,
            seed,
        };
        let mut pe = Pe::new(w.profile, 0, w.scale, w.mshrs, w.seed);
        let quota = w.total_instrs(1);
        let mut issued = 0u64;
        for _ in 0..1_000_000u64 {
            if let Some(_op) = pe.tick(true) {
                issued += 1;
                pe.complete(); // instant replies
            }
            if pe.done() {
                break;
            }
        }
        assert!(pe.done(), "PE must finish with instant replies");
        assert_eq!(pe.stats.retired, quota);
        assert_eq!(pe.stats.mem_ops, issued);
        assert_eq!(pe.outstanding(), 0);
    }
}

#[test]
fn outstanding_never_exceeds_mshrs() {
    let mut rng = Rng::seed_from_u64(0xFE2);
    for _ in 0..40 {
        let bench = rng.random_range(0usize..29);
        let mshrs = rng.random_range(1u32..16);
        let drain_every = rng.random_range(1u64..8);
        let profile = all_benchmarks()[bench];
        let w = Workload {
            profile,
            scale: 0.05,
            mshrs,
            seed: 1,
        };
        let mut pe = Pe::new(w.profile, 0, w.scale, w.mshrs, w.seed);
        for t in 0..50_000u64 {
            let _ = pe.tick(true);
            assert!(pe.outstanding() <= mshrs);
            if t % drain_every == 0 && pe.outstanding() > 0 {
                pe.complete();
            }
            if pe.done() {
                break;
            }
        }
    }
}

#[test]
fn addresses_stay_in_working_set() {
    let mut rng = Rng::seed_from_u64(0xFE3);
    for _ in 0..40 {
        let index = rng.random_range(0usize..64);
        let seed = rng.random_range(0u64..100);
        let profile = all_benchmarks()[10]; // kmeans: memory heavy
        let mut pe = Pe::new(profile, index, 0.05, 64, seed);
        for _ in 0..20_000u64 {
            if let Some(op) = pe.tick(true) {
                assert_eq!(op.addr % 64, 0, "line aligned");
                assert_eq!((op.addr >> 28) as usize, index, "own working set");
                pe.complete();
            }
            if pe.done() {
                break;
            }
        }
    }
}
