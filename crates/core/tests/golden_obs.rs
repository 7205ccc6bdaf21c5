//! Absolute golden for the observability output.
//!
//! Every other obs test compares one run against another (one worker
//! vs four, forked vs straight-through), so a change that
//! reorders a key or renames a counter in *both* runs passes them all.
//! This test pins the bytes themselves: FNV-1a digests of the
//! `.pretty()` text of the `equinox.obs/v3` block and of the concatenated
//! `--obs-stream` frames (`obs.sample/v1` lines plus the terminal
//! `obs.summary/v1`) of one tiny fixed run per
//! scheme — EquiNox (EIR groups, one reply subnet) and DA2Mesh (nine
//! networks on two clock ratios). Each frame's `run` id ends in a hash of
//! the `SystemConfig`'s `Debug` text, so a new or renamed config field
//! moves the two `stream` lines — and only those.
//!
//! The `values` line digests a listing of every distinct value the block
//! carries, one canonical name per value with its `to_compact()` text, in
//! an order of its own. A change to the block's layout (key names,
//! nesting) rewrites the reader of the listing but must not move this
//! line; only a change to what the simulator records does.
//!
//! To regenerate after an *intentional* change to the emitted blocks,
//! run with
//! `EQUINOX_REGEN_GOLDEN=1 cargo test -p equinox-core --test golden_obs`
//! and commit the new file alongside the change that justifies it.

use equinox_core::obs::ObsConfig;
use equinox_core::scheme::SchemeKind;
use equinox_core::system::{System, SystemConfig};
use equinox_config::Json;
use equinox_snap::fnv1a;
use equinox_traffic::{profile::benchmark, Workload};
use std::fmt::Write as _;

/// The cause keys of a class's latency-breakdown row, after
/// `delivered` and `e2e_cycles`.
const CAUSES: [&str; 6] =
    ["inj_queue", "vc_alloc", "switch_loss", "credit_starve", "eject_wait", "serialization"];
/// The in-network causes, each with a per-router grid per network.
const NET_CAUSES: [&str; 4] = ["vc_alloc", "switch_loss", "credit_starve", "eject_wait"];

fn at<'a>(j: &'a Json, path: &[&str]) -> &'a Json {
    path.iter()
        .fold(j, |j, k| j.get(k).unwrap_or_else(|| panic!("missing key {k} of {path:?}")))
}

/// Every distinct value of the `equinox.obs/v3` block, one `name value`
/// line each.
fn values_listing(obs: &Json) -> String {
    let mut out = String::new();
    let mut put = |name: String, v: &Json| writeln!(out, "{name} {}", v.to_compact()).unwrap();
    for class in ["request", "reply"] {
        for key in ["delivered", "e2e_cycles"].into_iter().chain(CAUSES) {
            put(format!("{class}.{key}"), at(obs, &["classes", class, key]));
        }
        for key in ["latency", "inj_wait", "inj_heat"] {
            put(format!("{class}.{key}"), at(obs, &["classes", class, key]));
        }
    }
    put("series".into(), at(obs, &["series"]));
    let nets = obs.get("nets").and_then(Json::as_arr).expect("nets");
    for (i, net) in nets.iter().enumerate() {
        assert_eq!(at(net, &["net"]).as_u64(), Some(i as u64));
        for key in ["heat", "variance", "link_flits"] {
            put(format!("net{i}.{key}"), at(net, &[key]));
        }
        for cause in NET_CAUSES {
            put(format!("net{i}.stall.{cause}"), at(net, &["stall", cause]));
        }
    }
    out
}

/// Runs `scheme` on the fixed tiny `bfs` workload with obs and a file
/// stream armed, and returns its digest lines.
fn digest_lines(scheme: SchemeKind, dir: &std::path::Path) -> String {
    let path = dir.join(format!("{scheme:?}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let workload = Workload::new(benchmark("bfs").unwrap(), 0.05, 42);
    let mut cfg = SystemConfig::new(scheme, 8, workload);
    cfg.max_cycles = 200_000;
    cfg.obs = Some(ObsConfig {
        interval: 100,
        stream: path.display().to_string(),
    });
    let mut sys = System::build(cfg);
    let m = sys.run();
    assert!(m.completed, "{scheme:?} stalled at cycle {}", m.cycles);
    let obs = sys.obs_json().expect("obs armed");
    let values = values_listing(&obs);
    let obs = obs.pretty();
    let frames = std::fs::read_to_string(&path).expect("stream file written");
    assert!(
        frames.contains("obs.sample/v1") && frames.contains("obs.summary/v1"),
        "{scheme:?} stream must carry sample and summary frames"
    );
    let mut out = String::new();
    writeln!(out, "{scheme:?} cycles {}", m.cycles).unwrap();
    for (what, text) in [("obs/v3", &obs), ("values", &values), ("stream", &frames)] {
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
