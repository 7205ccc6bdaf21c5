//! Absolute golden for the observability output.
//!
//! Every other obs test compares one run against another (serial vs
//! parallel lanes, forked vs straight-through), so a change that
//! reorders a key or renames a counter in *both* runs passes them all.
//! This test pins the bytes themselves: FNV-1a digests of the
//! `.pretty()` text of the `equinox.obs/v1` block, the `equinox.obs/v2`
//! block and the concatenated `--obs-stream` frames (`obs.sample/v1`
//! lines plus the terminal `obs.summary/v1`) of one tiny fixed run per
//! scheme — EquiNox (EIR groups, one reply subnet) and DA2Mesh (nine
//! networks on two clock ratios). Each frame's `run` id ends in a hash of
//! the `SystemConfig`'s `Debug` text, so a new or renamed config field
//! moves the two `stream` lines — and only those.
//!
//! To regenerate after an *intentional* change to the emitted blocks,
//! run with
//! `EQUINOX_REGEN_GOLDEN=1 cargo test -p equinox-core --test golden_obs`
//! and commit the new file alongside the change that justifies it.

use equinox_core::obs::ObsConfig;
use equinox_core::scheme::SchemeKind;
use equinox_core::system::{System, SystemConfig};
use equinox_snap::fnv1a;
use equinox_traffic::{profile::benchmark, Workload};
use std::fmt::Write as _;

/// Runs `scheme` on the fixed tiny `bfs` workload with obs and a file
/// stream armed, and returns its digest lines.
fn digest_lines(scheme: SchemeKind, dir: &std::path::Path) -> String {
    let path = dir.join(format!("{scheme:?}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 42);
    let mut cfg = SystemConfig::new(scheme, 8, workload);
    cfg.max_cycles = 200_000;
    cfg.sim_threads = 1;
    cfg.obs = Some(ObsConfig {
        interval: 100,
        stream: path.display().to_string(),
        ..Default::default()
    });
    let mut sys = System::build(cfg);
    let m = sys.run();
    assert!(m.completed, "{scheme:?} stalled at cycle {}", m.cycles);
    let v1 = sys.obs_json().expect("obs armed").pretty();
    let v2 = sys.obs_json_v2().expect("obs armed").pretty();
    let frames = std::fs::read_to_string(&path).expect("stream file written");
    assert!(
        frames.contains("obs.sample/v1") && frames.contains("obs.summary/v1"),
        "{scheme:?} stream must carry sample and summary frames"
    );
    let mut out = String::new();
    writeln!(out, "{scheme:?} cycles {}", m.cycles).unwrap();
    for (what, text) in [("obs/v1", &v1), ("obs/v2", &v2), ("stream", &frames)] {
        writeln!(
            out,
            "{scheme:?} {what} bytes {} fnv1a {:016x}",
            text.len(),
            fnv1a(text.as_bytes())
        )
        .unwrap();
    }
    out
}

#[test]
fn obs_blocks_and_stream_frames_match_golden() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_obs.txt");
    let dir = std::env::temp_dir().join(format!("eqsn_golden_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut actual = String::new();
    for scheme in [SchemeKind::EquiNox, SchemeKind::Da2Mesh] {
        actual += &digest_lines(scheme, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if std::env::var("EQUINOX_REGEN_GOLDEN").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden_obs.txt missing; regenerate with EQUINOX_REGEN_GOLDEN=1");
    assert_eq!(
        golden, actual,
        "observability output drifted from the stored digests; if intentional, \
         regenerate with EQUINOX_REGEN_GOLDEN=1"
    );
}
