//! Absolute golden for the load–latency harness.
//!
//! `load_latency_curve_cfg` is the whole timed path of the benchmark's
//! `idle-loadlat` workload and the source of the `loadlat` scenario's
//! curves, yet `crates/bench/tests/saturation.rs` only fences its numbers with bands
//! and equalities between two runs of the same code. This test pins the
//! bits: `offered`, `throughput` and `latency` of every [`LoadPoint`]
//! as `to_bits`, for the local-injector baseline and the quick EquiNox
//! design, at a near-idle, a loaded and a saturated rate, with the
//! activity gate on and off.
//!
//! To regenerate after an *intentional* change to the simulated
//! behaviour, run with
//! `EQUINOX_REGEN_GOLDEN=1 cargo test -p equinox-core --test golden_loadlat`
//! and commit the new file alongside the change that justifies it.

use equinox_core::loadlat::{load_latency_curve_cfg, ReplySide};
use equinox_core::EquiNoxDesign;
use std::fmt::Write as _;

const RATES: [f64; 3] = [0.02, 0.3, 1.0];
const CYCLES: u64 = 3_000;
const SEED: u64 = 11;

#[test]
fn load_points_match_golden_bit_for_bit() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_loadlat.txt");
    let design = EquiNoxDesign::quick(8, 8);
    let sides = [
        ("local", ReplySide::Local),
        ("equinox", ReplySide::Equinox(design.clone())),
    ];
    let mut actual = String::new();
    for (name, side) in &sides {
        for gate in [true, false] {
            let pts =
                load_latency_curve_cfg(&design.placement, side, &RATES, CYCLES, SEED, None, gate);
            for p in pts {
                writeln!(
                    actual,
                    "{name} gate {gate} offered {:016x} throughput {:016x} latency {:016x}",
                    p.offered.to_bits(),
                    p.throughput.to_bits(),
                    p.latency.to_bits()
                )
                .unwrap();
            }
        }
    }
    if std::env::var("EQUINOX_REGEN_GOLDEN").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden_loadlat.txt missing; regenerate with EQUINOX_REGEN_GOLDEN=1");
    assert_eq!(
        golden, actual,
        "load-latency points drifted from the stored bits; if intentional, \
         regenerate with EQUINOX_REGEN_GOLDEN=1"
    );
}
