//! The `equinox watch` client: attaches to a telemetry stream produced
//! by a run's `--obs-stream` flag and renders a live dashboard.
//!
//! Framing is one JSON object per `\n`-terminated line (`obs.sample/v1`
//! frames during a run, one terminal `obs.summary/v1` per run), each
//! naming its run (`<scheme>/<benchmark>/<seed>/<n>x<n>/<config hash>`,
//! unique per system) — a scenario's concurrent cells all append to the
//! one file, so the client keeps its state per run. It is deliberately
//! forgiving: a line that fails to parse — clipped mid-write by a dying
//! producer, or plain garbage — is counted and skipped, never fatal, so a
//! watcher can attach to a stream that is still being written (or that
//! survived a crash) and keep rendering.
//!
//! The watcher tails the file, following appends until it reaches
//! end-of-file with a summary in hand for every run it has seen, or
//! until a few seconds of quiet when some run never finished.

use equinox_config::Json;
use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

/// How often a run's dashboard row re-renders, in its sample frames.
const DASH_EVERY: u64 = 10;
/// File tailing gives up after this much quiet at end-of-file.
const FILE_IDLE: Duration = Duration::from_secs(3);

/// What the client knows about one run of the stream.
#[derive(Debug, Default)]
pub(crate) struct RunState {
    /// The frames' `run` field (empty for a stream that carries none).
    pub run: String,
    /// `obs.sample/v1` frames seen from this run.
    pub samples: u64,
    /// The run's terminal frame, when it arrived.
    pub summary: Option<Json>,
}

/// Everything the client learned from one stream.
#[derive(Debug, Default)]
pub(crate) struct WatchStats {
    /// Frames that parsed and carried a known schema.
    pub frames: u64,
    /// The `obs.sample/v1` subset of `frames`.
    pub samples: u64,
    /// Lines that failed to parse or carried no known schema.
    pub corrupt: u64,
    /// Highest cycle stamp seen on any frame.
    pub last_cycle: u64,
    /// Every run seen, in order of its first frame.
    pub runs: Vec<RunState>,
}

impl WatchStats {
    /// Runs whose terminal frame arrived.
    pub(crate) fn summaries(&self) -> usize {
        self.runs.iter().filter(|r| r.summary.is_some()).count()
    }

    /// `true` once at least one run was seen and none is still open.
    fn complete(&self) -> bool {
        !self.runs.is_empty() && self.summaries() == self.runs.len()
    }

    /// The scenario's structured result block.
    pub(crate) fn to_json(&self) -> Json {
        let summaries: Vec<Json> = self.runs.iter().filter_map(|r| r.summary.clone()).collect();
        Json::obj()
            .with("frames_seen", self.frames as f64)
            .with("sample_frames", self.samples as f64)
            .with("corrupt_lines", self.corrupt as f64)
            .with("last_cycle", self.last_cycle as f64)
            .with("runs_seen", self.runs.len())
            .with("summaries_seen", self.summaries())
            .with("summaries", summaries)
    }
}

/// Consumes one stream line: classifies it, folds it into `stats` and
/// its run's state, and renders to `log` on the dashboard cadence.
fn consume_line(line: &str, stats: &mut WatchStats, log: &mut dyn Write) {
    let trimmed = line.trim_end_matches(['\n', '\r']);
    if trimmed.is_empty() {
        return;
    }
    let frame = equinox_config::parse_json(trimmed).ok();
    let is_sample = match frame.as_ref().and_then(|f| f.get("schema")?.as_str()) {
        Some("obs.sample/v1") => true,
        Some("obs.summary/v1") => false,
        _ => {
            stats.corrupt += 1;
            return;
        }
    };
    let frame = frame.expect("a schema was read off it");
    stats.frames += 1;
    if let Some(c) = frame.get("cycle").and_then(|v| v.as_u64()) {
        stats.last_cycle = stats.last_cycle.max(c);
    }
    let id = frame.get("run").and_then(|r| r.as_str()).unwrap_or("");
    let at = stats.runs.iter().position(|r| r.run == id).unwrap_or_else(|| {
        stats.runs.push(RunState { run: id.to_string(), ..Default::default() });
        stats.runs.len() - 1
    });
    let run = &mut stats.runs[at];
    if is_sample {
        stats.samples += 1;
        run.samples += 1;
        if run.samples % DASH_EVERY == 1 {
            let _ = writeln!(log, "{id:>44} | {}", dashboard(&frame));
        }
    } else {
        let _ = writeln!(log, "=== run summary {id} ===\n{}", summary_table(&frame));
        run.summary = Some(frame.clone());
    }
}

/// One dashboard row from a sample frame: cycle, throughput, packets in
/// flight, and each stall cause's share of the total stalled cycles.
fn dashboard(frame: &Json) -> String {
    let num = |k: &str| frame.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let mut row = format!(
        "cycle {:>9} | {:6.2} flits/cyc | {:>5} in flight",
        num("cycle") as u64,
        num("throughput_flits_per_cycle"),
        num("packets_in_flight") as u64,
    );
    if let Some(stall) = frame.get("stall") {
        let causes = ["inj_queue", "vc_alloc", "switch_loss", "credit_starve", "eject_wait"];
        let total: f64 = causes
            .iter()
            .filter_map(|&c| stall.get(c).and_then(|v| v.as_f64()))
            .sum();
        row.push_str(" | stall");
        for c in causes {
            let v = stall.get(c).and_then(|v| v.as_f64()).unwrap_or(0.0);
            let share = if total > 0.0 { 100.0 * v / total } else { 0.0 };
            row.push_str(&format!(" {c} {share:4.1}%"));
        }
    }
    row
}

/// The terminal latency-breakdown table from a summary frame.
fn summary_table(frame: &Json) -> String {
    let mut out = String::new();
    let causes = [
        "inj_queue",
        "vc_alloc",
        "switch_loss",
        "credit_starve",
        "serialization",
        "eject_wait",
    ];
    for class in ["request", "reply"] {
        let Some(row) = frame.get("per_class").and_then(|p| p.get(class)) else {
            continue;
        };
        let num = |k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let (delivered, e2e) = (num("delivered"), num("e2e_cycles"));
        let avg = if delivered > 0.0 { e2e / delivered } else { 0.0 };
        out.push_str(&format!(
            "{class:>8}: {} delivered, {avg:.1} avg cycles —",
            delivered as u64
        ));
        for c in causes {
            let share = if e2e > 0.0 { 100.0 * num(c) / e2e } else { 0.0 };
            out.push_str(&format!(" {c} {share:4.1}%"));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "delivered: {} requests, {} replies (cycle {})",
        frame.get("req_delivered").and_then(|v| v.as_u64()).unwrap_or(0),
        frame.get("rep_delivered").and_then(|v| v.as_u64()).unwrap_or(0),
        frame.get("cycle").and_then(|v| v.as_u64()).unwrap_or(0),
    ));
    out
}

/// Tails a stream file, following appends. Stops at end-of-file once
/// every run seen has its summary frame, else after [`FILE_IDLE`] of
/// quiet there, so it works both live (attached before or during the
/// producing run) and post-hoc on a fully recorded stream.
pub(crate) fn watch_file(path: &str, log: &mut dyn Write) -> std::io::Result<WatchStats> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut stats = WatchStats::default();
    let mut buf = String::new();
    let mut quiet_since = Instant::now();
    loop {
        buf.clear();
        // Accumulate one full line. A producer mid-write can expose a
        // fragment without its newline; keep appending until the
        // terminator lands or the producer goes quiet for good.
        loop {
            let n = r.read_line(&mut buf)?;
            if buf.ends_with('\n') {
                break;
            }
            if n == 0 {
                if buf.is_empty() && stats.complete() {
                    return Ok(stats);
                }
                if quiet_since.elapsed() > FILE_IDLE {
                    // Stream over (a producer died, perhaps mid-line:
                    // the fragment then counts as one corrupt line).
                    consume_line(&buf, &mut stats, log);
                    return Ok(stats);
                }
                std::thread::sleep(Duration::from_millis(50));
            } else {
                quiet_since = Instant::now();
            }
        }
        quiet_since = Instant::now();
        consume_line(&buf, &mut stats, log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds a recorded stream through the client, line by line.
    fn watch_text(text: &str, log: &mut dyn Write) -> WatchStats {
        let mut stats = WatchStats::default();
        text.lines().for_each(|line| consume_line(line, &mut stats, log));
        stats
    }

    fn sample(run: &str, cycle: u64) -> String {
        Json::obj()
            .with("schema", "obs.sample/v1")
            .with("run", run)
            .with("cycle", cycle as f64)
            .with("throughput_flits_per_cycle", 1.5)
            .with("packets_in_flight", 7.0)
            .with(
                "stall",
                Json::obj().with("inj_queue", 30.0).with("vc_alloc", 10.0),
            )
            .to_compact()
    }

    fn summary(run: &str, cycle: u64) -> String {
        Json::obj()
            .with("schema", "obs.summary/v1")
            .with("run", run)
            .with("cycle", cycle as f64)
            .with("req_delivered", 100.0)
            .with("rep_delivered", 100.0)
            .with(
                "per_class",
                Json::obj().with(
                    "request",
                    Json::obj()
                        .with("delivered", 100.0)
                        .with("e2e_cycles", 5000.0)
                        .with("inj_queue", 1000.0)
                        .with("serialization", 4000.0),
                ),
            )
            .to_compact()
    }

    #[test]
    fn clean_stream_is_fully_accounted() {
        let text = format!("{}\n{}\n{}\n", sample("a", 100), sample("a", 200), summary("a", 250));
        let mut log = Vec::new();
        let s = watch_text(&text, &mut log);
        assert_eq!((s.frames, s.samples, s.corrupt), (3, 2, 0));
        assert_eq!(s.last_cycle, 250);
        assert_eq!((s.runs.len(), s.summaries()), (1, 1));
        let rendered = String::from_utf8(log).unwrap();
        assert!(rendered.contains("run summary a"));
        assert!(rendered.contains("inj_queue 20.0%"), "breakdown shares rendered:\n{rendered}");
    }

    #[test]
    fn corrupt_and_truncated_lines_are_skipped_not_fatal() {
        // Garbage, a clipped frame, an unknown schema, and an empty
        // line, interleaved with good frames — the good ones all land.
        let good = sample("a", 100);
        let clipped = &good[..good.len() / 2];
        let text = format!(
            "not json at all\n{clipped}\n{}\n\n{{\"schema\":\"other/v9\"}}\n{}\n",
            sample("a", 300),
            summary("a", 400)
        );
        let mut log = Vec::new();
        let s = watch_text(&text, &mut log);
        assert_eq!((s.frames, s.samples), (2, 1));
        assert_eq!(s.corrupt, 3, "garbage + clipped + unknown schema");
        assert_eq!(s.last_cycle, 400);
        assert_eq!(s.summaries(), 1);
    }

    #[test]
    fn a_line_nested_too_deep_is_one_corrupt_line() {
        let deep = "[".repeat(200_000);
        let text = format!("{}\n{deep}\n{}\n", sample("a", 100), summary("a", 200));
        let s = watch_text(&text, &mut Vec::new());
        assert_eq!((s.frames, s.corrupt, s.summaries()), (2, 1, 1));
    }

    #[test]
    fn interleaved_runs_are_told_apart_and_read_past_the_first_summary() {
        // Two cells of one scenario appending to one file: `b` is still
        // sampling after `a`'s summary, and a third run never finishes.
        let lines = [
            sample("a", 100),
            sample("b", 100),
            summary("a", 150),
            sample("b", 200),
            sample("c", 100),
            summary("b", 260),
        ];
        let s = watch_text(&lines.join("\n"), &mut Vec::new());
        assert_eq!((s.frames, s.samples, s.corrupt), (6, 4, 0));
        let runs: Vec<_> =
            s.runs.iter().map(|r| (r.run.as_str(), r.samples, r.summary.is_some())).collect();
        assert_eq!(runs, [("a", 1, true), ("b", 2, true), ("c", 1, false)]);
        assert!(!s.complete(), "c is still open");
        let j = s.to_json();
        assert_eq!(j.get("runs_seen").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("summaries_seen").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("summaries").and_then(Json::as_arr).map(|a| a.len()), Some(2));
    }

    #[test]
    fn cells_sharing_scheme_benchmark_and_seed_stream_as_separate_runs() {
        // One scheme, benchmark and seed list at two mesh sizes (`fig12`),
        // two pipeline depths and two compression rates (`extensions`) and
        // under two schemes, every system appending to the one file.
        use crate::{run_cells, Cell};
        use equinox_core::{EquiNoxDesign, SchemeKind};
        let dir = std::env::temp_dir().join(format!("eqw_cells_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let mut spec = equinox_config::ExperimentSpec::default();
        spec.scale = 0.02;
        spec.seeds = vec![1, 2];
        spec.obs_stream = path.display().to_string();
        let base = |n| Cell::new(SchemeKind::SeparateBase, n, "kmeans", &spec);
        let (mut deeper, mut compressed) = (base(8), base(8));
        deeper.spec.pipeline_extra = 1;
        compressed.spec.reply_compression = 0.25;
        let equinox = Cell {
            design: Some(std::sync::Arc::new(EquiNoxDesign::quick(8, 8))),
            ..Cell::new(SchemeKind::EquiNox, 8, "kmeans", &spec)
        };
        let cells = vec![base(8), base(12), deeper, compressed, equinox, base(8)];
        run_cells(cells, &mut Vec::new()).unwrap();
        let s = watch_file(path.to_str().unwrap(), &mut Vec::new()).unwrap();
        assert_eq!(s.runs.len(), 5 * 2, "distinct cells × seeds");
        assert_eq!((s.summaries(), s.corrupt), (10, 0));
        assert_eq!(s.frames - s.samples, 10, "summary frames: the repeated cell ran once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_watch_follows_appends_until_every_run_is_summarised() {
        let dir = std::env::temp_dir().join(format!("eqw_tail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        // `a` is complete on disk, `b` is not: end-of-file alone must
        // not stop the watcher.
        std::fs::write(&path, format!("{}\n{}\n", summary("a", 4), sample("b", 5))).unwrap();
        let p = path.clone();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
            writeln!(f, "{}", summary("b", 9)).unwrap();
        });
        let mut log = Vec::new();
        let start = Instant::now();
        let s = watch_file(path.to_str().unwrap(), &mut log).unwrap();
        writer.join().unwrap();
        assert_eq!(s.frames, 3, "caught the appended summary");
        assert_eq!((s.runs.len(), s.summaries()), (2, 2));
        assert!(start.elapsed() < FILE_IDLE, "complete at end-of-file: no idle wait");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
