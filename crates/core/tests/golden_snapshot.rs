//! Absolute golden for the bytes of a system snapshot.
//!
//! The fork tests in `crates/bench/tests/determinism.rs` compare a restored run with
//! the straight-through one, and the other goldens pin what a run
//! reports; neither pins the bytes `System::snapshot` writes, and no
//! golden reads its TRACKER section (one record per packet the run
//! created). This test does, for SeparateBase, EquiNox and DA2Mesh on an
//! 8×8 `kmeans` run: the FNV-1a digest and length of every section of a
//! snapshot taken mid-run (packets queued, in flight and delivered) and
//! of one taken at completion, and the four Figure 10 latency bars as
//! bits. A restore of the mid-run snapshot must write the same bytes
//! back.
//!
//! To regenerate after an *intentional* change to the snapshot format
//! or the simulated behaviour, run with
//! `EQUINOX_REGEN_GOLDEN=1 cargo test -p equinox-core --test golden_snapshot`
//! and commit the new file alongside the change that justifies it.

use equinox_core::scheme::SchemeKind;
use equinox_core::system::{System, SystemConfig};
use equinox_core::EquiNoxDesign;
use equinox_traffic::{profile::benchmark, Workload};
use std::fmt::Write as _;

/// Cycle of the mid-run snapshot: every scheme is still running here.
const MID: u64 = 600;

fn config(scheme: SchemeKind, design: &EquiNoxDesign) -> SystemConfig {
    let workload = Workload::new(benchmark("kmeans").unwrap(), 0.1, 42);
    let mut cfg = SystemConfig::new(scheme, 8, workload);
    cfg.max_cycles = 400_000;
    cfg.design = Some(design.clone());
    cfg
}

/// One line: `<tag> <section>:<len>:<digest> ...`.
fn sections(tag: &str, snap: &[u8]) -> String {
    let mut out = format!("{tag} total {}:{:016x}", snap.len(), equinox_snap::fnv1a(snap));
    for (id, bytes) in equinox_snap::read_snapshot(snap).expect("a snapshot parses") {
        write!(out, " s{id} {}:{:016x}", bytes.len(), equinox_snap::fnv1a(bytes)).unwrap();
    }
    out.push('\n');
    out
}

fn lines(scheme: SchemeKind, design: &EquiNoxDesign) -> String {
    let mut sys = System::build(config(scheme, design));
    for _ in 0..MID {
        sys.step();
    }
    assert!(!sys.done(), "{scheme:?} finished before the mid-run snapshot");
    let mid = sys.snapshot();
    let mut back = System::build(config(scheme, design));
    back.restore(&mid).expect("the mid-run snapshot restores");
    assert!(back.snapshot() == mid, "{scheme:?}: restore + snapshot moved bytes");

    let m = sys.run();
    assert!(m.completed, "{scheme:?} stalled at cycle {}", m.cycles);
    let mut out = sections(&format!("{scheme:?} mid@{MID}"), &mid);
    out += &sections(&format!("{scheme:?} end@{}", m.cycles), &sys.snapshot());
    let l = m.latency;
    writeln!(
        out,
        "{scheme:?} packets {} latency {:016x} {:016x} {:016x} {:016x}",
        sys.tracker.len(),
        l.req_queue_ns.to_bits(),
        l.req_net_ns.to_bits(),
        l.rep_queue_ns.to_bits(),
        l.rep_net_ns.to_bits()
    )
    .unwrap();
    out
}

#[test]
fn snapshots_and_latency_split_match_golden_bit_for_bit() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_snapshot.txt");
    let design = EquiNoxDesign::quick(8, 8);
    let mut actual = String::new();
    for scheme in [SchemeKind::SeparateBase, SchemeKind::EquiNox, SchemeKind::Da2Mesh] {
        actual += &lines(scheme, &design);
    }
    if std::env::var("EQUINOX_REGEN_GOLDEN").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden_snapshot.txt missing; regenerate with EQUINOX_REGEN_GOLDEN=1");
    assert_eq!(
        golden, actual,
        "a snapshot's bytes or the latency split drifted from the stored bits; if \
         intentional, regenerate with EQUINOX_REGEN_GOLDEN=1"
    );
}
