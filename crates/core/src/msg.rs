//! Messages and end-to-end packet tracking.
//!
//! A [`Message`] is the protocol-level unit (read/write request or reply);
//! it serializes into a network-specific number of flits depending on the
//! link width it travels over (a 64 B read reply is 5 flits on a 128-bit
//! mesh but 36 flits on a DA2Mesh 16-bit subnet — that serialization
//! latency is exactly why DA2Mesh underwhelms in Figure 10).
//!
//! The [`PacketTracker`] records create/inject/eject timestamps per packet
//! and produces the queuing / non-queuing, request / reply latency split
//! of Figure 10: *queuing* is time spent waiting in the source NI before
//! the first flit enters a router (where the injection bottleneck bites),
//! *network* is first-flit-in to tail-flit-out.

use equinox_noc::flit::{MessageClass, PacketDesc};
use equinox_phys::Coord;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOpKind {
    /// Load: short request, long reply.
    Read,
    /// Store: long request, short ack.
    Write,
}

/// Packet header size in bytes.
pub(crate) const HEADER_BYTES: u32 = 8;
/// Cache-line size in bytes.
pub(crate) const LINE_BYTES: u32 = 64;

/// A protocol message between a PE and a cache bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Tracker-issued packet id.
    pub id: u64,
    /// Source tile.
    pub src: Coord,
    /// Destination tile.
    pub dst: Coord,
    /// Request or reply.
    pub class: MessageClass,
    /// Read or write.
    pub op: MemOpKind,
    /// The memory address involved.
    pub addr: u64,
    /// Compressed payload (the packet-coalescing extension, §7 \[47\]):
    /// the cache line travels at half size.
    pub compressed: bool,
}

impl Message {
    /// Payload + header size in bytes.
    pub(crate) fn bytes(&self) -> u32 {
        let line = if self.compressed {
            LINE_BYTES / 2
        } else {
            LINE_BYTES
        };
        match (self.op, self.class) {
            (MemOpKind::Read, MessageClass::Request) => HEADER_BYTES,
            (MemOpKind::Read, MessageClass::Reply) => HEADER_BYTES + line,
            (MemOpKind::Write, MessageClass::Request) => HEADER_BYTES + line,
            (MemOpKind::Write, MessageClass::Reply) => HEADER_BYTES,
        }
    }

    /// Number of flits on a link of `link_bits` bits.
    ///
    /// ```
    /// # use equinox_core::msg::{MemOpKind, Message};
    /// # use equinox_noc::flit::MessageClass;
    /// # use equinox_phys::Coord;
    /// let reply = Message { id: 0, src: Coord::new(0, 0), dst: Coord::new(1, 1),
    ///     class: MessageClass::Reply, op: MemOpKind::Read, addr: 0, compressed: false };
    /// assert_eq!(reply.flit_len(128), 5);
    /// assert_eq!(reply.flit_len(256), 3);
    /// assert_eq!(reply.flit_len(16), 36);
    /// ```
    pub fn flit_len(&self, link_bits: u32) -> u16 {
        let bits = self.bytes() * 8;
        bits.div_ceil(link_bits).max(1) as u16
    }

    /// Builds the packet descriptor for a network with the given link
    /// width and coordinate space (`src`/`dst` may be remapped for
    /// concentrated networks).
    pub(crate) fn to_desc(self, link_bits: u32, src: Coord, dst: Coord) -> PacketDesc {
        PacketDesc::new(self.id, src, dst, self.class, self.flit_len(link_bits))
    }
}

/// Lifecycle timestamps and metadata of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// Source tile (original mesh coordinates).
    pub src: Coord,
    /// Destination tile.
    pub dst: Coord,
    /// Class.
    pub class: MessageClass,
    /// Operation.
    pub op: MemOpKind,
    /// Address (used by the CB to access HBM).
    pub addr: u64,
    /// Core cycle the message was handed to its NI.
    pub created: u64,
    /// Core cycle the first flit entered a router (None while queued).
    pub injected: Option<u64>,
    /// Core cycle the tail flit reached the destination NI.
    pub ejected: Option<u64>,
    /// Whether the payload travelled compressed.
    pub compressed: bool,
}

impl equinox_snap::Snap for MemOpKind {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u8(match self {
            MemOpKind::Read => 0,
            MemOpKind::Write => 1,
        });
    }

    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        match d.u8()? {
            0 => Ok(MemOpKind::Read),
            1 => Ok(MemOpKind::Write),
            _ => Err(equinox_snap::SnapError::BadValue("mem op tag")),
        }
    }
}

impl equinox_snap::Snap for Message {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u64(self.id);
        e.put_u16(self.src.x);
        e.put_u16(self.src.y);
        e.put_u16(self.dst.x);
        e.put_u16(self.dst.y);
        self.class.snap(e);
        self.op.snap(e);
        e.put_u64(self.addr);
        e.put_bool(self.compressed);
    }

    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        Ok(Message {
            id: d.u64()?,
            src: Coord::new(d.u16()?, d.u16()?),
            dst: Coord::new(d.u16()?, d.u16()?),
            class: MessageClass::restore(d)?,
            op: MemOpKind::restore(d)?,
            addr: d.u64()?,
            compressed: d.bool()?,
        })
    }
}

/// Per-class latency split in nanoseconds (Figure 10's four bars).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Request source-queuing latency.
    pub req_queue_ns: f64,
    /// Request in-network latency.
    pub req_net_ns: f64,
    /// Reply source-queuing latency.
    pub rep_queue_ns: f64,
    /// Reply in-network latency.
    pub rep_net_ns: f64,
}

impl LatencyBreakdown {
    /// Mean total packet latency (request + reply halves averaged by
    /// packet counts is already folded in; this sums the four bars).
    pub fn total_ns(&self) -> f64 {
        self.req_queue_ns + self.req_net_ns + self.rep_queue_ns + self.rep_net_ns
    }

    /// Request latency (queue + network).
    pub fn request_ns(&self) -> f64 {
        self.req_queue_ns + self.req_net_ns
    }

    /// Reply latency (queue + network).
    pub fn reply_ns(&self) -> f64 {
        self.rep_queue_ns + self.rep_net_ns
    }
}

impl equinox_snap::Snap for PacketRecord {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u16(self.src.x);
        e.put_u16(self.src.y);
        e.put_u16(self.dst.x);
        e.put_u16(self.dst.y);
        self.class.snap(e);
        self.op.snap(e);
        e.put_u64(self.addr);
        e.put_u64(self.created);
        self.injected.snap(e);
        self.ejected.snap(e);
        e.put_bool(self.compressed);
    }

    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        Ok(PacketRecord {
            src: Coord::new(d.u16()?, d.u16()?),
            dst: Coord::new(d.u16()?, d.u16()?),
            class: MessageClass::restore(d)?,
            op: MemOpKind::restore(d)?,
            addr: d.u64()?,
            created: d.u64()?,
            injected: Option::restore(d)?,
            ejected: Option::restore(d)?,
            compressed: d.bool()?,
        })
    }
}

/// Central registry of every packet in a run.
#[derive(Debug, Default)]
pub struct PacketTracker {
    records: Vec<PacketRecord>,
    /// Packets whose head flit entered a network (first transitions only).
    injected_count: u64,
    /// Packets whose tail flit left a network (first transitions only).
    ejected_count: u64,
}

impl PacketTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for at least `additional` more packet records, so a
    /// measured run can move the record-table growth out of its timed
    /// (allocation-free) window.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// Registers a new message and returns it, with its id assigned.
    pub fn create(
        &mut self,
        src: Coord,
        dst: Coord,
        class: MessageClass,
        op: MemOpKind,
        addr: u64,
        now: u64,
    ) -> Message {
        let id = self.records.len() as u64;
        self.records.push(PacketRecord {
            src,
            dst,
            class,
            op,
            addr,
            created: now,
            injected: None,
            ejected: None,
            compressed: false,
        });
        Message {
            id,
            src,
            dst,
            class,
            op,
            addr,
            compressed: false,
        }
    }

    /// Flags packet `id` (and returns the updated message) as carrying a
    /// compressed payload.
    pub(crate) fn set_compressed(&mut self, msg: Message) -> Message {
        self.records[msg.id as usize].compressed = true;
        Message {
            compressed: true,
            ..msg
        }
    }

    /// The record of packet `id`.
    pub fn record(&self, id: u64) -> &PacketRecord {
        &self.records[id as usize]
    }

    /// Marks the first-flit injection time (idempotent).
    pub(crate) fn mark_injected(&mut self, id: u64, now: u64) {
        let r = &mut self.records[id as usize];
        if r.injected.is_none() {
            r.injected = Some(now);
            self.injected_count += 1;
        }
    }

    /// Marks tail-flit arrival (idempotent, like
    /// [`PacketTracker::mark_injected`]).
    pub(crate) fn mark_ejected(&mut self, id: u64, now: u64) {
        let r = &mut self.records[id as usize];
        if r.ejected.is_none() {
            r.ejected = Some(now);
            self.ejected_count += 1;
        }
    }

    /// Packets injected but not yet delivered — the tracker side of the
    /// system-level packet-accounting invariant (it must equal the tail
    /// flits resident in the networks plus the packets streaming out of
    /// NIs).
    pub(crate) fn in_flight(&self) -> u64 {
        self.injected_count - self.ejected_count
    }

    /// Packets fully delivered.
    pub fn delivered(&self) -> u64 {
        self.ejected_count
    }

    /// Number of packets created.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no packet was created.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of transferred bits that were replies (§2.2 check).
    pub(crate) fn reply_bit_fraction(&self) -> f64 {
        let (mut rep, mut total) = (0u64, 0u64);
        for r in &self.records {
            let msg = Message {
                id: 0,
                src: r.src,
                dst: r.dst,
                class: r.class,
                op: r.op,
                addr: r.addr,
                compressed: r.compressed,
            };
            let bits = msg.bytes() as u64 * 8;
            total += bits;
            if r.class.is_reply() {
                rep += bits;
            }
        }
        if total == 0 {
            0.0
        } else {
            rep as f64 / total as f64
        }
    }

    /// Mean latencies over all *delivered* packets, in nanoseconds at
    /// `freq_ghz`.
    pub(crate) fn latency_breakdown(&self, freq_ghz: f64) -> LatencyBreakdown {
        let ns = 1.0 / freq_ghz;
        let mut out = LatencyBreakdown::default();
        let (mut n_req, mut n_rep) = (0u64, 0u64);
        for r in &self.records {
            let (Some(inj), Some(ej)) = (r.injected, r.ejected) else {
                continue;
            };
            let queue = (inj - r.created) as f64 * ns;
            let net = (ej - inj) as f64 * ns;
            if r.class.is_reply() {
                out.rep_queue_ns += queue;
                out.rep_net_ns += net;
                n_rep += 1;
            } else {
                out.req_queue_ns += queue;
                out.req_net_ns += net;
                n_req += 1;
            }
        }
        if n_req > 0 {
            out.req_queue_ns /= n_req as f64;
            out.req_net_ns /= n_req as f64;
        }
        if n_rep > 0 {
            out.rep_queue_ns /= n_rep as f64;
            out.rep_net_ns /= n_rep as f64;
        }
        out
    }
}

impl equinox_snap::Snap for PacketTracker {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        self.records.snap(e);
        e.put_u64(self.injected_count);
        e.put_u64(self.ejected_count);
    }

    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        use equinox_snap::SnapError;
        let records: Vec<PacketRecord> = Vec::restore(d)?;
        let injected_count = d.u64()?;
        let ejected_count = d.u64()?;
        // The counters increment exactly once per record's None→Some
        // transition, so they must agree with the record table.
        if injected_count != records.iter().filter(|r| r.injected.is_some()).count() as u64
            || ejected_count != records.iter().filter(|r| r.ejected.is_some()).count() as u64
        {
            return Err(SnapError::BadValue("tracker counters disagree with records"));
        }
        Ok(PacketTracker {
            records,
            injected_count,
            ejected_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(class: MessageClass, op: MemOpKind) -> Message {
        Message {
            id: 0,
            src: Coord::new(0, 0),
            dst: Coord::new(1, 1),
            class,
            op,
            addr: 0,
            compressed: false,
        }
    }

    #[test]
    fn sizes_match_protocol() {
        assert_eq!(msg(MessageClass::Request, MemOpKind::Read).bytes(), 8);
        assert_eq!(msg(MessageClass::Reply, MemOpKind::Read).bytes(), 72);
        assert_eq!(msg(MessageClass::Request, MemOpKind::Write).bytes(), 72);
        assert_eq!(msg(MessageClass::Reply, MemOpKind::Write).bytes(), 8);
    }

    #[test]
    fn flit_lengths_by_width() {
        let rep = msg(MessageClass::Reply, MemOpKind::Read);
        assert_eq!(rep.flit_len(128), 5);
        assert_eq!(rep.flit_len(256), 3);
        assert_eq!(rep.flit_len(16), 36);
        let req = msg(MessageClass::Request, MemOpKind::Read);
        assert_eq!(req.flit_len(128), 1);
        assert_eq!(req.flit_len(16), 4);
    }

    #[test]
    fn tracker_lifecycle_and_breakdown() {
        let mut t = PacketTracker::new();
        let m = t.create(
            Coord::new(0, 0),
            Coord::new(3, 3),
            MessageClass::Reply,
            MemOpKind::Read,
            64,
            10,
        );
        t.mark_injected(m.id, 14);
        t.mark_injected(m.id, 99); // idempotent: first wins
        t.mark_ejected(m.id, 30);
        let b = t.latency_breakdown(1.0); // 1 GHz -> cycles == ns
        assert!((b.rep_queue_ns - 4.0).abs() < 1e-9);
        assert!((b.rep_net_ns - 16.0).abs() < 1e-9);
        assert_eq!(b.req_queue_ns, 0.0);
        assert!((b.reply_ns() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn undelivered_packets_excluded() {
        let mut t = PacketTracker::new();
        let m = t.create(
            Coord::new(0, 0),
            Coord::new(1, 0),
            MessageClass::Request,
            MemOpKind::Read,
            0,
            0,
        );
        t.mark_injected(m.id, 2);
        // never ejected
        let b = t.latency_breakdown(1.0);
        assert_eq!(b.total_ns(), 0.0);
    }

    #[test]
    fn tracker_snapshot_round_trips_and_validates() {
        use equinox_snap::{Dec, Enc, Snap, SnapError};
        let mut t = PacketTracker::new();
        for i in 0..6u64 {
            let m = t.create(
                Coord::new(0, 0),
                Coord::new(3, 2),
                if i % 2 == 0 { MessageClass::Request } else { MessageClass::Reply },
                if i % 3 == 0 { MemOpKind::Write } else { MemOpKind::Read },
                i * 64,
                i,
            );
            if i < 4 {
                t.mark_injected(m.id, i + 2);
            }
            if i < 2 {
                t.mark_ejected(m.id, i + 9);
            }
        }
        let mut e = Enc::new();
        t.snap(&mut e);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        let back = PacketTracker::restore(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.in_flight(), t.in_flight());
        assert_eq!(back.delivered(), t.delivered());
        for i in 0..t.len() as u64 {
            assert_eq!(back.record(i), t.record(i));
        }
        assert_eq!(back.latency_breakdown(2.0), t.latency_breakdown(2.0));

        // A corrupted injected-counter must be caught, not restored.
        let mut bad = bytes.clone();
        let cut = bad.len() - 16; // injected_count is the 2nd-to-last u64
        bad[cut] ^= 0xff;
        assert!(matches!(
            PacketTracker::restore(&mut Dec::new(&bad)),
            Err(SnapError::BadValue(_))
        ));
        // Truncation anywhere is structural, never a panic.
        for cut in 0..bytes.len() {
            assert!(PacketTracker::restore(&mut Dec::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn reply_bit_fraction_read_heavy() {
        let mut t = PacketTracker::new();
        // 3 reads (req 8B + rep 72B each) and 1 write (req 72B + rep 8B).
        for _ in 0..3 {
            t.create(Coord::new(0, 0), Coord::new(1, 0), MessageClass::Request, MemOpKind::Read, 0, 0);
            t.create(Coord::new(1, 0), Coord::new(0, 0), MessageClass::Reply, MemOpKind::Read, 0, 0);
        }
        t.create(Coord::new(0, 0), Coord::new(1, 0), MessageClass::Request, MemOpKind::Write, 0, 0);
        t.create(Coord::new(1, 0), Coord::new(0, 0), MessageClass::Reply, MemOpKind::Write, 0, 0);
        let f = t.reply_bit_fraction();
        let expect = (3.0 * 72.0 + 8.0) / (3.0 * 72.0 + 8.0 + 3.0 * 8.0 + 72.0);
        assert!((f - expect).abs() < 1e-9);
    }
}
