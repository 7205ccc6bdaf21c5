//! `compare <parent> <change>`: two sets of recorded runs, side by side.
//!
//! Each argument is a `.jsonl` file of run records (what every run
//! appends to `benchmark/out/runs.jsonl`) or a directory of such files.
//! For every workload × end-to-end metric it prints both medians and
//! quartiles, how much worse the change's median is against the bound,
//! and whether the pair is *resolved*: by the `choosing-metrics` guide a
//! metric whose parent spread (quartile distance over median) exceeds
//! its bound is unresolved — neither "unchanged" nor "regressed" —
//! unless every run of one side beats every run of the other.

use crate::names::{Better, END_TO_END};
use crate::stats;
use equinox_config::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Values of one metric on one workload, one per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads the untraced run records under `path` into per-(workload,
/// metric) samples. Lines that are not run records are an error: a
/// comparison over silently skipped runs would mislead.
pub fn load(path: &Path) -> Result<Samples, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry
                .map_err(|e| format!("{}: {e}", path.display()))?
                .path();
            if p.extension().is_some_and(|x| x == "jsonl") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut out = Samples::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let at = || format!("{}:{}", file.display(), n + 1);
            let rec = equinox_config::parse_json(line).map_err(|e| format!("{}: {e}", at()))?;
            let workload = rec
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: no workload", at()))?;
            if rec.get("trace").and_then(Json::as_u64) != Some(0) {
                continue; // end-to-end numbers never come from a traced run
            }
            let Some(Json::Obj(metrics)) = rec.get("metrics") else {
                return Err(format!("{}: no metrics", at()));
            };
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: {name} has no value", at()))?;
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("{}: no untraced run records", path.display()));
    }
    Ok(out)
}

/// What the two sample sets say about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Resolved: the change's median is within the bound of the parent's.
    Holds,
    /// Resolved: the change's median is worse by more than the bound.
    Regressed,
    /// The parent's own spread exceeds the bound and the sides overlap.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Parent `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change `[q1, median, q3]`.
    pub change: [f64; 3],
    /// Share by which the change's median is worse (negative: better).
    pub worse_by: f64,
    /// The verdict under `bound`.
    pub verdict: Verdict,
}

fn summary(v: &[f64]) -> [f64; 3] {
    // A single run has no quartiles; show it as all three.
    stats::quartiles(v).unwrap_or([v[0]; 3])
}

/// Judges one metric. `parent` and `change` are non-empty.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Row {
    let (p, c) = (summary(parent), summary(change));
    let worse_by = match better {
        Better::Lower => c[1] / p[1] - 1.0,
        Better::Higher => 1.0 - c[1] / p[1],
    };
    let beats = |a: &[f64], b: &[f64]| {
        a.iter().all(|x| {
            b.iter().all(|y| {
                if better == Better::Lower {
                    x < y
                } else {
                    x > y
                }
            })
        })
    };
    let separated = beats(parent, change) || beats(change, parent);
    let parent_spread = (p[2] - p[0]) / p[1].abs();
    let verdict = if parent_spread > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Holds
    };
    Row {
        parent: p,
        change: c,
        worse_by,
        verdict,
    }
}

/// Prints the comparison of the record sets under `parent` and
/// `change`; returns how many rows regressed.
pub fn run(parent: &Path, change: &Path) -> Result<usize, String> {
    let (p, c) = (load(parent)?, load(change)?);
    println!(
        "{:<16} {:<24} {:>46} {:>46} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3] (n)",
        "change median [q1, q3] (n)",
        "worse",
        "bound"
    );
    let mut regressed = 0;
    for w in &crate::cells::WORKLOADS {
        for &(name, unit, better, bound) in &END_TO_END {
            let key = (w.name.to_string(), name.to_string());
            let (Some(pv), Some(cv)) = (p.get(&key), c.get(&key)) else {
                println!("{:<16} {:<24} missing on one side", w.name, name);
                continue;
            };
            let row = judge(pv, cv, better, bound);
            let cell =
                |s: [f64; 3], n: usize| format!("{:.4} [{:.4}, {:.4}] ({n})", s[1], s[0], s[2]);
            let verdict = match row.verdict {
                Verdict::Holds => "resolved: within bound",
                Verdict::Regressed => "resolved: REGRESSED",
                Verdict::Unresolved => "unresolved (parent spread > bound)",
            };
            regressed += usize::from(row.verdict == Verdict::Regressed);
            println!(
                "{:<16} {:<24} {:>46} {:>46} {:>+7.2}% {:>5.0}%  {verdict}",
                w.name,
                format!("{name} ({unit})"),
                cell(row.parent, pv.len()),
                cell(row.change, cv.len()),
                row.worse_by * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_parent_resolves_both_ways() {
        let parent = [1.00, 1.01, 0.99, 1.00];
        let same = judge(&parent, &[1.02, 1.01, 1.00, 1.03], Better::Lower, 0.08);
        assert_eq!(same.verdict, Verdict::Holds);
        let slow = judge(&parent, &[1.12, 1.10, 1.11, 1.13], Better::Lower, 0.08);
        assert_eq!(slow.verdict, Verdict::Regressed);
        assert!((slow.worse_by - 0.115).abs() < 1e-9);
        // A rate that drops is worse, whatever the sign of the ratio.
        let rate = judge(
            &[100.0, 101.0, 99.0],
            &[80.0, 81.0, 79.0],
            Better::Higher,
            0.08,
        );
        assert_eq!(rate.verdict, Verdict::Regressed);
        assert!(rate.worse_by > 0.19);
    }

    #[test]
    fn noisy_parent_is_unresolved_unless_the_sides_separate() {
        let noisy = [1.0, 1.3, 0.9, 1.2];
        let overlap = judge(&noisy, &[1.1, 1.25, 1.0, 1.15], Better::Lower, 0.08);
        assert_eq!(overlap.verdict, Verdict::Unresolved);
        let apart = judge(&noisy, &[1.5, 1.6, 1.55, 1.7], Better::Lower, 0.08);
        assert_eq!(apart.verdict, Verdict::Regressed);
        let ahead = judge(&noisy, &[0.5, 0.6, 0.55, 0.7], Better::Lower, 0.08);
        assert_eq!(ahead.verdict, Verdict::Holds);
    }

    #[test]
    fn load_groups_untraced_records_and_rejects_junk() {
        let dir =
            std::env::temp_dir().join(format!("equinox-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = |trace: u32, v: f64| {
            format!("{{\"workload\": \"sat-kmeans\", \"trace\": {trace}, \"metrics\": {{\"wall_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}\n")
        };
        std::fs::write(
            dir.join("a.jsonl"),
            rec(0, 1.5) + &rec(1, 9.0) + &rec(0, 1.25),
        )
        .unwrap();
        let got = load(&dir).unwrap();
        assert_eq!(
            got[&("sat-kmeans".to_string(), "wall_s".to_string())],
            vec![1.5, 1.25]
        );
        std::fs::write(dir.join("b.jsonl"), "not json\n").unwrap();
        assert!(load(&dir).unwrap_err().contains("b.jsonl:1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
