//! Wall-clock span profiling for the phases of a simulation step.
//!
//! Spans are registered once by name; each recording updates per-span
//! aggregates (call count, total nanoseconds) and appends to a bounded
//! event ring kept for timeline export. Wall-clock data is
//! nondeterministic by nature: export it to trace files, never into
//! artifacts compared bit-for-bit.

use std::time::Instant;

/// Handle to one registered span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) usize);

impl SpanId {
}

/// One recorded span occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Which span.
    pub span: SpanId,
    /// Caller-chosen sub-track (e.g. subnet index) for timeline export.
    pub track: u64,
    /// Start, nanoseconds since the profiler's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Simulation cycle at which the span ended.
    pub cycle: u64,
}

/// The profiler: per-span aggregates plus a drop-oldest event ring of
/// capacity fixed at construction (recording never allocates).
#[derive(Debug)]
pub struct SpanProfiler {
    names: Vec<String>,
    total_ns: Vec<u64>,
    calls: Vec<u64>,
    ring: Vec<SpanEvent>,
    cap: usize,
    /// Oldest element once the ring is full (next overwrite target).
    head: usize,
    epoch: Instant,
}

impl SpanProfiler {
    /// Creates a profiler whose event ring holds up to `capacity`
    /// events (0 keeps aggregates only).
    pub fn new(capacity: usize) -> Self {
        SpanProfiler {
            names: Vec::new(),
            total_ns: Vec::new(),
            calls: Vec::new(),
            ring: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            epoch: Instant::now(),
        }
    }

    /// Registers a span name.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn register(&mut self, name: &str) -> SpanId {
        assert!(self.names.iter().all(|n| n != name), "duplicate span '{name}'");
        self.names.push(name.to_string());
        self.total_ns.push(0);
        self.calls.push(0);
        SpanId(self.names.len() - 1)
    }

    /// Nanoseconds since the profiler's epoch — the start token for a
    /// later [`SpanProfiler::record`].
    #[inline]
    pub fn start(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes a span opened at `start_ns` (from [`SpanProfiler::start`])
    /// and records it. Allocation-free.
    pub fn record(&mut self, span: SpanId, track: u64, start_ns: u64, cycle: u64) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.record_closed(span, track, start_ns, now, cycle);
    }

    /// Records a span from both endpoints (nanoseconds since the
    /// profiler's epoch); an end before the start records 0 ns.
    fn record_closed(&mut self, span: SpanId, track: u64, start_ns: u64, end_ns: u64, cycle: u64) {
        let dur_ns = end_ns.saturating_sub(start_ns);
        self.total_ns[span.0] += dur_ns;
        self.calls[span.0] += 1;
        let ev = SpanEvent {
            span,
            track,
            start_ns,
            dur_ns,
            cycle,
        };
        if self.ring.len() < self.cap {
            self.ring.push(ev);
        } else if self.cap > 0 {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// A span's name.
    pub fn name(&self, span: SpanId) -> &str {
        &self.names[span.0]
    }

    /// Per-span aggregates `(name, calls, total_ns)` in registration
    /// order.
    pub fn summary(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.names
            .iter()
            .zip(&self.calls)
            .zip(&self.total_ns)
            .map(|((n, &c), &t)| (n.as_str(), c, t))
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SpanEvent> {
        let (newer, older) = self.ring.split_at(self.head.min(self.ring.len()));
        older.iter().chain(newer.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_accumulate() {
        let mut p = SpanProfiler::new(8);
        let a = p.register("phase_a");
        let t0 = p.start();
        p.record(a, 0, t0, 1);
        let t1 = p.start();
        p.record(a, 0, t1, 2);
        let (name, calls, _total) = p.summary().next().unwrap();
        assert_eq!((name, calls), ("phase_a", 2));
        assert_eq!(p.events().count(), 2);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut p = SpanProfiler::new(2);
        let a = p.register("a");
        for cycle in 0..5 {
            p.record(a, 0, p.start(), cycle);
        }
        let cycles: Vec<u64> = p.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
    }

    #[test]
    fn closed_spans_fold_with_explicit_endpoints() {
        let mut p = SpanProfiler::new(4);
        let a = p.register("net0");
        // Endpoints given explicitly (nanoseconds since the epoch).
        p.record_closed(a, 0, 100, 350, 9);
        let ev = *p.events().next().unwrap();
        assert_eq!((ev.start_ns, ev.dur_ns, ev.cycle), (100, 250, 9));
        let (_, calls, total) = p.summary().next().unwrap();
        assert_eq!((calls, total), (1, 250));
        // An end before the start must never underflow.
        p.record_closed(a, 0, 500, 400, 10);
        assert_eq!(p.summary().next().unwrap().2, 250);
    }

    #[test]
    fn zero_capacity_keeps_aggregates_only() {
        let mut p = SpanProfiler::new(0);
        let a = p.register("a");
        p.record(a, 0, p.start(), 7);
        assert_eq!(p.events().count(), 0);
        assert_eq!(p.summary().next().unwrap().1, 1);
    }
}
