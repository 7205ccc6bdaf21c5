//! Layered resolution precedence: defaults < spec file < environment <
//! CLI, with provenance recorded per field. The environment layer is
//! injected as a closure, so these tests are hermetic — no process
//! environment is read or written.

use equinox_config::resolve::{resolve, CliSet};
use equinox_config::spec::{field_by_flag, Layer};

fn no_env(_: &str) -> Option<String> {
    None
}

fn cli(pairs: &[(&str, &str)]) -> Vec<CliSet> {
    pairs
        .iter()
        .map(|(flag, v)| (field_by_flag(flag).expect("known flag"), v.to_string()))
        .collect()
}

#[test]
fn defaults_when_nothing_is_set() {
    let s = resolve(None, &no_env, &[]).unwrap();
    assert_eq!(s.n, 8);
    assert_eq!(s.scale, 0.5);
    assert_eq!(s.seeds, vec![42, 7]);
    assert!(s.activity_gate);
    assert!(!s.audit);
    for f in equinox_config::fields() {
        assert_eq!(s.provenance_of(f.name), Some(Layer::Default), "{}", f.name);
    }
}

#[test]
fn file_overrides_defaults() {
    let file = r#"{"scale": 0.1, "audit": true, "seeds": [1, 2, 3], "activity_gate": false}"#;
    let s = resolve(Some(("t.json", file)), &no_env, &[]).unwrap();
    assert_eq!(s.scale, 0.1);
    assert!(s.audit);
    assert_eq!(s.seeds, vec![1, 2, 3]);
    assert!(!s.activity_gate);
    assert_eq!(s.provenance_of("scale"), Some(Layer::File));
    assert_eq!(s.provenance_of("n"), Some(Layer::Default));
}

#[test]
fn env_overrides_file() {
    let file = r#"{"scale": 0.1, "threads": 2}"#;
    let env = |k: &str| match k {
        "EQUINOX_SCALE" => Some("0.9".to_string()),
        _ => None,
    };
    let s = resolve(Some(("t.json", file)), &env, &[]).unwrap();
    assert_eq!(s.scale, 0.9, "env beats file");
    assert_eq!(s.threads, 2, "untouched file value survives");
    assert_eq!(s.provenance_of("scale"), Some(Layer::Env));
    assert_eq!(s.provenance_of("threads"), Some(Layer::File));
}

#[test]
fn cli_overrides_everything() {
    let file = r#"{"scale": 0.1}"#;
    let env = |k: &str| (k == "EQUINOX_SCALE").then(|| "0.9".to_string());
    let s = resolve(Some(("t.json", file)), &env, &cli(&[("--scale", "0.25")])).unwrap();
    assert_eq!(s.scale, 0.25, "cli beats env beats file");
    assert_eq!(s.provenance_of("scale"), Some(Layer::Cli));
}

#[test]
fn audit_gate_and_threads_env_vars_resolve_through_the_env_layer() {
    // The env layer is the only reader of these variables (the
    // libraries no longer consult the environment themselves):
    // EQUINOX_AUDIT=1 arms the auditor, EQUINOX_NO_ACTIVITY_GATE=1
    // disables the gate, EQUINOX_THREADS sizes the pool — each recorded
    // as `Layer::Env`. Empty strings behave like unset.
    let env = |k: &str| match k {
        "EQUINOX_AUDIT" => Some("1".to_string()),
        "EQUINOX_NO_ACTIVITY_GATE" => Some("1".to_string()),
        "EQUINOX_THREADS" => Some("3".to_string()),
        "EQUINOX_SIM_THREADS" => Some(String::new()),
        _ => None,
    };
    let s = resolve(None, &env, &[]).unwrap();
    assert!(s.audit);
    assert!(!s.activity_gate);
    assert_eq!(s.threads, 3);
    for name in ["audit", "activity_gate", "threads"] {
        assert_eq!(s.provenance_of(name), Some(Layer::Env), "{name}");
    }
    assert_eq!(s.sim_threads, 1);
    assert_eq!(s.provenance_of("sim_threads"), Some(Layer::Default));
}

#[test]
fn unknown_spec_key_is_fatal() {
    let e = resolve(Some(("t.json", r#"{"scal": 0.1}"#)), &no_env, &[]).unwrap_err();
    assert_eq!(e.key, "scal");
    assert_eq!(e.layer, Layer::File);
    assert!(e.message.contains("unknown spec key"));
}

#[test]
fn malformed_values_name_their_layer_and_key() {
    let e = resolve(Some(("t.json", r#"{"scale": "fast"}"#)), &no_env, &[]).unwrap_err();
    assert_eq!((e.layer, e.key.as_str()), (Layer::File, "scale"));

    let env = |k: &str| (k == "EQUINOX_THREADS").then(|| "many".to_string());
    let e = resolve(None, &env, &[]).unwrap_err();
    assert_eq!((e.layer, e.key.as_str()), (Layer::Env, "EQUINOX_THREADS"));

    let e = resolve(None, &no_env, &cli(&[("--seeds", "1,x")])).unwrap_err();
    assert_eq!((e.layer, e.key.as_str()), (Layer::Cli, "--seeds"));
}

#[test]
fn emitted_spec_block_feeds_back_as_a_spec_file() {
    // Artifacts embed the resolved spec (with a provenance object);
    // that block must itself be a valid spec file.
    let s = resolve(None, &no_env, &cli(&[("--scale", "0.33"), ("--audit", "1")])).unwrap();
    let text = s.to_json().pretty();
    let back = resolve(Some(("emitted.json", &text)), &no_env, &[]).unwrap();
    assert_eq!(back.scale, 0.33);
    assert!(back.audit);
    assert_eq!(back.provenance_of("scale"), Some(Layer::File));
}

#[test]
fn every_field_is_reachable_from_every_layer() {
    // Round a full non-default spec through the file layer: each field
    // accepts its own to_json() form.
    let defaults = resolve(None, &no_env, &[]).unwrap();
    let mut tweaked = defaults.clone();
    tweaked.n = 12;
    tweaked.n_cbs = 12;
    tweaked.scale = 0.7;
    tweaked.seeds = vec![5];
    tweaked.seed = 11;
    tweaked.full = true;
    tweaked.threads = 3;
    tweaked.max_cycles = 1234;
    tweaked.ni_queue_cap = 4;
    tweaked.cb_inflight_cap = 64;
    tweaked.l2_latency = 25;
    tweaked.pipeline_extra = 2;
    tweaked.reply_compression = 0.5;
    tweaked.activity_gate = false;
    tweaked.audit = true;
    tweaked.cycles = 999;
    tweaked.iters = 50;
    let text = tweaked.to_json().pretty();
    let back = resolve(Some(("full.json", &text)), &no_env, &[]).unwrap();
    for f in equinox_config::fields() {
        assert_eq!(back.provenance_of(f.name), Some(Layer::File), "{}", f.name);
    }
    // Compare the value payloads (provenance differs by construction).
    assert_eq!(back.to_json().get("n"), tweaked.to_json().get("n"));
    assert_eq!(text.replace("\"cli\"", "\"file\"").replace("\"default\"", "\"file\""),
        back.to_json().pretty().replace("\"cli\"", "\"file\""));
}

#[test]
fn values_under_a_fields_lower_bound_are_refused_on_every_layer() {
    // (key, flag, env, values that describe no machine or run)
    let cases: [(&str, &str, &str, &[&str]); 9] = [
        ("scale", "--scale", "EQUINOX_SCALE", &["nan", "-1", "0", "inf"]),
        // A probability, which the cache banks assert.
        ("reply_compression", "--reply-compression", "EQUINOX_REPLY_COMPRESSION", &["1.5", "-0.5", "nan", "inf"]),
        ("n", "--n", "EQUINOX_N", &["0", "1"]),
        ("n_cbs", "--cbs", "EQUINOX_CBS", &["0"]),
        ("ni_queue_cap", "--ni-queue-cap", "EQUINOX_NI_QUEUE_CAP", &["0"]),
        ("cb_inflight_cap", "--cb-inflight-cap", "EQUINOX_CB_INFLIGHT_CAP", &["0"]),
        ("max_cycles", "--max-cycles", "EQUINOX_MAX_CYCLES", &["0"]),
        ("cycles", "--cycles", "EQUINOX_CYCLES", &["0"]),
        // A design search of no iterations has no rollout to return.
        ("iters", "--iters", "EQUINOX_ITERS", &["0"]),
    ];
    for (key, flag, var, bad) in cases {
        for &v in bad {
            let e = resolve(None, &no_env, &cli(&[(flag, v)])).unwrap_err();
            assert_eq!((e.layer, e.key.as_str()), (Layer::Cli, flag), "{flag} {v}");
            assert!(e.message.contains("must be"), "{flag} {v}: {e}");

            let env = |k: &str| (k == var).then(|| v.to_string());
            let e = resolve(None, &env, &[]).unwrap_err();
            assert_eq!((e.layer, e.key.as_str()), (Layer::Env, var), "{var}={v}");

            // JSON has no NaN or infinity; the file layer meets the rest.
            if v.parse::<f64>().is_ok_and(f64::is_finite) {
                let file = format!("{{\"{key}\": {v}}}");
                let e = resolve(Some(("t.json", &file)), &no_env, &[]).unwrap_err();
                assert_eq!((e.layer, e.key.as_str()), (Layer::File, key), "{file}");
            }
        }
    }
    // The bounds themselves pass, and a refused value does not stick.
    let ok = cli(&[
        ("--n", "2"),
        ("--cbs", "1"),
        ("--max-cycles", "1"),
        ("--scale", "1e-9"),
        ("--iters", "1"),
        ("--reply-compression", "1"),
    ]);
    let s = resolve(None, &no_env, &ok).unwrap();
    assert_eq!((s.n, s.n_cbs, s.max_cycles, s.scale, s.iters), (2, 1, 1, 1e-9, 1));
    assert_eq!(s.reply_compression, 1.0);
}

#[test]
fn cycle_counts_past_the_packet_trackers_range_are_refused_on_every_layer() {
    use equinox_config::{LOADLAT_CYCLES_LIMIT, MAX_CYCLES_LIMIT};
    // `cycles + cycles / 5` once overflowed in the load-latency loop.
    refused_above_on_every_layer(&[
        ("max_cycles", "--max-cycles", "EQUINOX_MAX_CYCLES", MAX_CYCLES_LIMIT),
        ("cycles", "--cycles", "EQUINOX_CYCLES", LOADLAT_CYCLES_LIMIT),
        // `now + l2_latency` and `cycle + interval` once wrapped.
        ("l2_latency", "--l2-latency", "EQUINOX_L2_LATENCY", MAX_CYCLES_LIMIT),
        ("obs_interval", "--obs-interval", "EQUINOX_OBS_INTERVAL", MAX_CYCLES_LIMIT),
    ]);
}

#[test]
fn iteration_budgets_past_what_one_search_holds_are_refused_on_every_layer() {
    // A search reserves its tree for the whole budget up front.
    let limit = equinox_config::ITERS_LIMIT as u64;
    refused_above_on_every_layer(&[("iters", "--iters", "EQUINOX_ITERS", limit)]);
}

#[test]
fn meshes_past_the_limit_are_refused_on_every_layer() {
    // A 1000x1000 network asked for a 4 TB route table.
    let limit = u64::from(equinox_config::MESH_LIMIT);
    refused_above_on_every_layer(&[("n", "--n", "EQUINOX_N", limit)]);
}

/// Each `(key, flag, var, limit)` field takes `limit` and names the bound
/// for values over it, on the CLI, env and file layers.
fn refused_above_on_every_layer(cases: &[(&str, &str, &str, u64)]) {
    for &(key, flag, var, limit) in cases {
        for bad in [limit + 1, u64::from(u32::MAX) + 7, 1 << 53, u64::MAX] {
            let v = bad.to_string();
            let named = |e: &equinox_config::ResolveError| {
                e.message.contains(&format!("must be <= {limit}, got {v}"))
            };
            let e = resolve(None, &no_env, &cli(&[(flag, &v)])).unwrap_err();
            assert_eq!((e.layer, e.key.as_str()), (Layer::Cli, flag), "{flag} {v}");
            assert!(named(&e), "{flag} {v}: {e}");

            let env = |k: &str| (k == var).then(|| v.clone());
            let e = resolve(None, &env, &[]).unwrap_err();
            assert_eq!((e.layer, e.key.as_str()), (Layer::Env, var), "{var}={v}");
            assert!(named(&e), "{var}={v}: {e}");

            // JSON numbers are f64: past 2^53 the file layer refuses the
            // number before the bound sees it.
            let file = format!("{{\"{key}\": {v}}}");
            let e = resolve(Some(("t.json", &file)), &no_env, &[]).unwrap_err();
            assert_eq!((e.layer, e.key.as_str()), (Layer::File, key), "{file}");
            assert!(bad > 1 << 53 || named(&e), "{file}: {e}");
        }
        let v = limit.to_string();
        let s = resolve(None, &no_env, &cli(&[(flag, &v)])).unwrap();
        assert_eq!(s.to_json().get(key).and_then(|j| j.as_u64()), Some(limit), "{flag} {v}");
    }
}

#[test]
fn every_field_resolves_alike_from_every_layer() {
    // (field, CLI / env text, spec-file JSON): one non-default value per
    // field, given on each layer alone. A presence flag's text is "1",
    // the value its flag stands for on the command line.
    let rows: &[(&str, &str, &str)] = &[
        // The largest mesh, MESH_LIMIT, is accepted on every layer.
        ("n", "24", "24"),
        ("topology", "ring", r#""ring""#),
        ("traffic", "hotspot", r#""hotspot""#),
        ("n_cbs", "4", "4"),
        ("scale", "0.25", "0.25"),
        ("seeds", "1,2,3", "[1, 2, 3]"),
        ("seed", "11", "11"),
        ("full", "1", "true"),
        ("threads", "3", "3"),
        // 1 is the only value this field takes, and its default.
        ("sim_threads", "1", "1"),
        ("max_cycles", "1234", "1234"),
        ("ni_queue_cap", "4", "4"),
        ("cb_inflight_cap", "64", "64"),
        ("l2_latency", "25", "25"),
        ("pipeline_extra", "2", "2"),
        ("reply_compression", "0.5", "0.5"),
        // The flag and variable say "no activity gate"; the file says it
        // directly.
        ("activity_gate", "1", "false"),
        ("audit", "1", "true"),
        ("cycles", "999", "999"),
        ("iters", "50", "50"),
        ("obs", "1", "true"),
        ("obs_interval", "250", "250"),
        ("obs_stream", "frames.ndjson", r#""frames.ndjson""#),
        ("trace", "1", "true"),
        ("trace_out", "t.json", r#""t.json""#),
        ("checkpoint_dir", "ck", r#""ck""#),
    ];
    let fields = equinox_config::fields();
    let names: Vec<&str> = rows.iter().map(|r| r.0).collect();
    assert_eq!(names, fields.iter().map(|f| f.name).collect::<Vec<_>>(), "one row per field, in order");
    let defaults = resolve(None, &no_env, &[]).unwrap().to_json();
    for &(name, text, json) in rows {
        let value = resolves_alike(name, text, json);
        if name != "sim_threads" {
            assert_ne!(value.get(name), defaults.get(name), "{name}: pick a non-default value");
        }
    }
    // Strings are trimmed on every layer, the spec file's included.
    for (name, text, json) in [
        ("topology", " Ring ", r#"" Ring ""#),
        ("obs_stream", " frames.ndjson ", r#"" frames.ndjson ""#),
        ("trace_out", "\tt.json ", r#""\tt.json ""#),
        ("checkpoint_dir", " ck ", r#"" ck ""#),
    ] {
        let value = resolves_alike(name, text, json);
        assert_eq!(value.get(name).and_then(|j| j.as_str()), Some(text.trim().to_lowercase().as_str()));
    }
}

/// Resolves field `name` from `text` on the command line, from `text` in
/// its `EQUINOX_*` variable and from `json` in a spec file, each alone,
/// and checks that each layer is the field's provenance and that all
/// three give the same spec. Returns that spec's values.
fn resolves_alike(name: &str, text: &str, json: &str) -> equinox_config::Json {
    let f = equinox_config::fields().iter().find(|f| f.name == name).expect("registered");
    let mut argv = vec![f.flag.to_string()];
    if f.takes_value {
        argv.push(text.to_string());
    }
    let parsed = equinox_config::parse_cli(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
    let env = |k: &str| (k == f.env).then(|| text.to_string());
    let file = format!("{{\"{name}\": {json}}}");
    let layers = [
        (Layer::Cli, resolve(None, &no_env, &parsed.sets)),
        (Layer::Env, resolve(None, &env, &[])),
        (Layer::File, resolve(Some(("t.json", &file)), &no_env, &[])),
    ];
    let mut seen = Vec::new();
    for (layer, spec) in layers {
        let spec = spec.unwrap_or_else(|e| panic!("{name} from {layer:?}: {e}"));
        assert_eq!(spec.provenance_of(name), Some(layer), "{name} from {layer:?}");
        let mut values = spec.to_json();
        if let equinox_config::Json::Obj(pairs) = &mut values {
            pairs.retain(|(k, _)| k != "provenance");
        }
        seen.push(values);
    }
    assert_eq!(seen[0], seen[1], "{name}: CLI {text:?} and env {text:?} differ");
    assert_eq!(seen[0], seen[2], "{name}: CLI {text:?} and file {json} differ");
    seen.swap_remove(0)
}
