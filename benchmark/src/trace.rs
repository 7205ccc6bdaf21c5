//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around the public
//! calls into each layer — name, start, end, parent — kept in memory and
//! written once at exit as Chrome-trace JSON (loads in Perfetto /
//! `chrome://tracing`). A span's self time is its duration minus the
//! part its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// `round[3]`-style index, when the name is one of a series.
    index: Option<u32>,
    parent: Option<usize>,
    start_ns: u64,
    /// `u64::MAX` while open.
    end_ns: u64,
}

/// Per-name aggregate over all closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus children, seconds.
    pub self_s: f64,
}

/// The recorder. Strictly nested: `end` must close the innermost open
/// span.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.begin_at(name, None)
    }

    /// Opens the `index`-th span of a series (`round[i]`, `cell[c]`).
    pub fn begin_indexed(&mut self, name: &'static str, index: usize) -> SpanId {
        self.begin_at(name, Some(index as u32))
    }

    fn begin_at(&mut self, name: &'static str, index: Option<u32>) -> SpanId {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            index,
            parent,
            start_ns,
            end_ns: u64::MAX,
        });
        SpanId(id)
    }

    /// Closes `id` and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span — a bug in the
    /// harness, not a measurement outcome.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost-first"
        );
        let s = &mut self.spans[id.0];
        s.end_ns = end_ns;
        (end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Checks the recording: every span closed, every child inside its
    /// parent's interval, and no parent's children summing past it.
    pub fn validate(&self) -> Result<(), String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns == u64::MAX {
                return Err(format!("span {i} ({}) never closed", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!(
                        "span {i} ({}) escapes its parent {}",
                        s.name, ps.name
                    ));
                }
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if child_ns[i] > s.end_ns - s.start_ns {
                return Err(format!("children of span {i} ({}) exceed it", s.name));
            }
        }
        Ok(())
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), true) = (s.parent, s.end_ns != u64::MAX) {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns == u64::MAX {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// The recording as a Chrome-trace document, written by
    /// `equinox-obs`'s exporter: one complete (`"X"`) event per span
    /// with its id and, unless it is a root, its parent in `args`;
    /// timestamps in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = equinox_obs::ChromeTrace::new();
        out.process_name(1, "equinox-benchmark");
        for (i, s) in self.spans.iter().enumerate() {
            let name = match s.index {
                Some(k) => format!("{}[{k}]", s.name),
                None => s.name.to_string(),
            };
            let args = [
                ("id", i as f64),
                ("parent", s.parent.map_or(0.0, |p| p as f64)),
            ];
            out.complete(
                &name,
                1,
                1,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                &args[..1 + usize::from(s.parent.is_some())],
            );
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_config::Json;

    #[test]
    fn nested_spans_validate_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let run = t.begin("run");
        let a = t.begin_indexed("cell", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin_indexed("cell", 1);
        t.end(b);
        t.end(run);
        t.validate().expect("well nested");
        let totals = t.totals();
        assert_eq!(totals["cell"].count, 2);
        let run = totals["run"];
        assert!(run.self_s <= run.total_s - totals["cell"].total_s + 1e-9);
        let doc = equinox_config::json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        // The process-name record, then one event per span.
        assert_eq!(events.len(), 4);
        let args = |e: &Json, key| {
            e.get("args")
                .and_then(|a| a.get(key))
                .and_then(Json::as_u64)
        };
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("run"));
        assert_eq!(
            (args(&events[1], "id"), args(&events[1], "parent")),
            (Some(0), None)
        );
        assert_eq!(
            events[2].get("name").and_then(Json::as_str),
            Some("cell[0]")
        );
        assert_eq!(
            (args(&events[2], "id"), args(&events[2], "parent")),
            (Some(1), Some(0))
        );
    }

    #[test]
    fn an_open_span_fails_validation() {
        let mut t = Tracer::new();
        t.begin("run");
        assert!(t.validate().is_err());
    }
}
