//! Flit-event tracing.
//!
//! An opt-in ring buffer of per-flit events (injection, hop, ejection)
//! for debugging routing or reproducing a congestion pathology. Tracing
//! is off by default and costs one branch per event when disabled.

use crate::flit::PacketId;
use std::collections::VecDeque;

/// What happened to a flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A flit entered the network through an injector.
    Inject,
    /// A flit won switch allocation and left a router towards a link.
    Hop,
    /// A flit left the network through an ejection port.
    Eject,
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event happened.
    pub cycle: u64,
    /// Router index involved (the receiving router for `Inject`).
    pub router: usize,
    /// Packet the flit belongs to.
    pub pkt: PacketId,
    /// Flit sequence number within the packet.
    pub seq: u16,
    /// Event kind.
    pub kind: TraceKind,
}

/// Bounded event recorder (oldest events are dropped at capacity).
#[derive(Debug, Default)]
pub(crate) struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
}

impl Trace {
    /// Creates a recorder holding up to `capacity` events.
    pub(crate) fn new(capacity: usize) -> Self {
        Trace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// `true` when tracing is active.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event (drops the oldest at capacity).
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(ev);
    }

    /// Drains and returns all recorded events in order.
    pub(crate) fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }

    /// Serializes the recorded events. The capacity is build-time
    /// configuration and not written.
    pub(crate) fn snap_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        self.events.snap(e);
    }
}

impl equinox_snap::Snap for TraceKind {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u8(match self {
            TraceKind::Inject => 0,
            TraceKind::Hop => 1,
            TraceKind::Eject => 2,
        });
    }
}

impl equinox_snap::Snap for TraceEvent {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u64(self.cycle);
        e.put_usize(self.router);
        self.pkt.snap(e);
        e.put_u16(self.seq);
        self.kind.snap(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            cycle,
            router: 0,
            pkt: PacketId(1),
            seq: 0,
            kind,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(0);
        assert!(!t.enabled());
        t.record(ev(1, TraceKind::Inject));
        assert!(t.drain().is_empty());
    }

    #[test]
    fn capacity_drops_oldest() {
        let mut t = Trace::new(2);
        t.record(ev(1, TraceKind::Inject));
        t.record(ev(2, TraceKind::Hop));
        t.record(ev(3, TraceKind::Eject));
        let evs = t.drain();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].cycle, 2);
        assert_eq!(evs[1].cycle, 3);
        assert!(t.drain().is_empty());
    }
}
