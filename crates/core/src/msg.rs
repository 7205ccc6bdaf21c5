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
//! *network* is first-flit-in to tail-flit-out. It keeps one 32-byte row
//! per packet (cycles as `u32`, so a run must stay under cycle
//! `u32::MAX`) and hands out the wider [`PacketRecord`] by value. A
//! `System` keeps every row for its whole run; a load–latency point or
//! `fabric` run retires the delivered prefix as it goes
//! ([`PacketTracker::retire`]), so it holds only its live window.

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

/// A row's cycle field before the event happened.
const NOT_YET: u32 = u32::MAX;
/// [`Row::flags`] bits.
const REPLY: u8 = 1;
const WRITE: u8 = 2;
const COMPRESSED: u8 = 4;

/// How the tracker stores a [`PacketRecord`]: cycles as `u32` with
/// [`NOT_YET`] for `None`, class, op and compression in one byte.
#[derive(Debug, Clone, Copy)]
struct Row {
    addr: u64,
    src: Coord,
    dst: Coord,
    created: u32,
    injected: u32,
    ejected: u32,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Row>() == 32);

/// `now` as a row cycle.
///
/// # Panics
///
/// Panics from cycle `u32::MAX` on; `SystemConfig::check` and
/// `load_latency_curve_cfg` keep runs below it.
#[inline]
fn stamp(now: u64) -> u32 {
    if now >= u64::from(NOT_YET) {
        past_the_last_cycle(now);
    }
    now as u32
}

/// Kept out of line, so that [`stamp`] inlines as one compare and branch.
#[cold]
#[inline(never)]
fn past_the_last_cycle(now: u64) -> ! {
    panic!("cycle {now} is past the packet tracker's last cycle")
}

impl Row {
    /// The row of `r`, or `None` if one of its cycles is `u32::MAX` or
    /// later.
    #[cfg(test)]
    fn pack(r: &PacketRecord) -> Option<Row> {
        let cycle = |c: u64| u32::try_from(c).ok().filter(|&c| c != NOT_YET);
        let opt = |c: Option<u64>| c.map_or(Some(NOT_YET), cycle);
        Some(Row {
            addr: r.addr,
            src: r.src,
            dst: r.dst,
            created: cycle(r.created)?,
            injected: opt(r.injected)?,
            ejected: opt(r.ejected)?,
            flags: Row::flag_bits(r.class, r.op, r.compressed),
        })
    }

    fn flag_bits(class: MessageClass, op: MemOpKind, compressed: bool) -> u8 {
        (u8::from(class.is_reply()) * REPLY)
            | (u8::from(op == MemOpKind::Write) * WRITE)
            | (u8::from(compressed) * COMPRESSED)
    }

    #[inline]
    fn unpack(&self) -> PacketRecord {
        let opt = |c: u32| (c != NOT_YET).then_some(u64::from(c));
        PacketRecord {
            src: self.src,
            dst: self.dst,
            class: if self.flags & REPLY != 0 { MessageClass::Reply } else { MessageClass::Request },
            op: if self.flags & WRITE != 0 { MemOpKind::Write } else { MemOpKind::Read },
            addr: self.addr,
            created: u64::from(self.created),
            injected: opt(self.injected),
            ejected: opt(self.ejected),
            compressed: self.flags & COMPRESSED != 0,
        }
    }
}

impl equinox_snap::Snap for MemOpKind {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u8(match self {
            MemOpKind::Read => 0,
            MemOpKind::Write => 1,
        });
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
}

/// Central registry of every packet in a run.
#[derive(Debug, Default)]
pub struct PacketTracker {
    /// Row `id - first` is packet `id`.
    rows: Vec<Row>,
    /// Id of `rows[0]`: packets below it were retired.
    first: u64,
    /// `rows[..delivered_prefix]` are all ejected: how far
    /// [`PacketTracker::retire`] has scanned.
    delivered_prefix: usize,
    /// Packets whose head flit entered a network (first transitions only).
    injected_count: u64,
    /// Packets whose tail flit left a network (first transitions only).
    ejected_count: u64,
}

/// Fewest delivered rows [`PacketTracker::retire`] drops at once.
pub(crate) const RETIRE_MIN: usize = 1024;

impl PacketTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for at least `additional` more packet records, so a
    /// measured run can move the record-table growth out of its timed
    /// (allocation-free) window.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// Registers a new message and returns it, with its id assigned.
    ///
    /// # Panics
    ///
    /// Panics if `now` is `u32::MAX` or later.
    pub fn create(
        &mut self,
        src: Coord,
        dst: Coord,
        class: MessageClass,
        op: MemOpKind,
        addr: u64,
        now: u64,
    ) -> Message {
        let id = self.len() as u64;
        self.rows.push(Row {
            addr,
            src,
            dst,
            created: stamp(now),
            injected: NOT_YET,
            ejected: NOT_YET,
            flags: Row::flag_bits(class, op, false),
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

    /// Index of packet `id`'s row.
    ///
    /// # Panics
    ///
    /// Panics if packet `id` was retired or never created.
    #[inline]
    fn index(&self, id: u64) -> usize {
        let i = id.wrapping_sub(self.first);
        if i >= self.rows.len() as u64 {
            self.no_row(id);
        }
        i as usize
    }

    /// Kept out of line, so that [`PacketTracker::index`] inlines as one
    /// compare and branch.
    #[cold]
    #[inline(never)]
    fn no_row(&self, id: u64) -> ! {
        if id < self.first {
            panic!("packet {id} was retired: the tracker keeps packets {} on", self.first)
        }
        panic!("packet {id} was never created: the tracker has {} packets", self.len())
    }

    /// Flags packet `id` (and returns the updated message) as carrying a
    /// compressed payload.
    pub(crate) fn set_compressed(&mut self, msg: Message) -> Message {
        let i = self.index(msg.id);
        self.rows[i].flags |= COMPRESSED;
        Message {
            compressed: true,
            ..msg
        }
    }

    /// The record of packet `id`.
    ///
    /// # Panics
    ///
    /// Panics if packet `id` was retired or never created.
    #[inline]
    pub fn record(&self, id: u64) -> PacketRecord {
        self.rows[self.index(id)].unpack()
    }

    /// Marks the first-flit injection time (idempotent).
    #[inline]
    pub fn mark_injected(&mut self, id: u64, now: u64) {
        let i = self.index(id);
        let r = &mut self.rows[i];
        if r.injected == NOT_YET {
            r.injected = stamp(now);
            self.injected_count += 1;
        }
    }

    /// Marks tail-flit arrival at `now` (idempotent, like
    /// [`PacketTracker::mark_injected`]) and returns the packet's
    /// latency: its ejection cycle less its creation cycle. `now` is the
    /// cycle of the network step that ejected the tail, as a `System`
    /// counts it, so a sink drained right after the step at cycle `t`
    /// passes `t`.
    #[inline]
    pub fn mark_ejected(&mut self, id: u64, now: u64) -> u64 {
        let i = self.index(id);
        let r = &mut self.rows[i];
        if r.ejected == NOT_YET {
            r.ejected = stamp(now);
            self.ejected_count += 1;
        }
        u64::from(r.ejected - r.created)
    }

    /// Drops the rows of the delivered prefix once it holds at least
    /// max(1024, half the rows): every packet below the first one not
    /// yet ejected. Ids keep counting ([`PacketTracker::len`]), and a
    /// retired id's row is gone ([`PacketTracker::record`] panics). Each
    /// row is scanned once and moved at most once per drop of at least
    /// as many, so a call costs amortized O(1) per packet.
    ///
    /// A `System` never calls it: its whole-run readers (the latency
    /// split, the reply bit fraction, the snapshot) need every row.
    pub fn retire(&mut self) {
        let rows = &self.rows;
        let mut at = self.delivered_prefix;
        while at < rows.len() && rows[at].ejected != NOT_YET {
            at += 1;
        }
        if at >= RETIRE_MIN.max(rows.len() / 2) {
            self.rows.drain(..at);
            self.first += at as u64;
            at = 0;
        }
        self.delivered_prefix = at;
    }

    /// Rows held: the live window, plus a delivered prefix not yet
    /// dropped.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.rows.len()
    }

    /// Id of the oldest held packet not yet ejected ([`PacketTracker::len`]
    /// if there is none), found by a scan of its own.
    #[cfg(test)]
    pub(crate) fn oldest_live(&self) -> u64 {
        let live = self.rows.iter().position(|r| r.ejected == NOT_YET);
        self.first + live.unwrap_or(self.rows.len()) as u64
    }

    /// Asserts that every row is still held, for a reader of the whole
    /// run.
    fn whole_run(&self, reader: &str) {
        assert!(
            self.first == 0,
            "{reader} reads every packet, but packets below {} were retired",
            self.first
        );
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

    /// Number of packets created, retired ones included.
    pub fn len(&self) -> usize {
        self.first as usize + self.rows.len()
    }

    /// `true` if no packet was created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of transferred bits that were replies (§2.2 check).
    ///
    /// # Panics
    ///
    /// Panics if packets were retired.
    pub(crate) fn reply_bit_fraction(&self) -> f64 {
        self.whole_run("the reply bit fraction");
        let (mut rep, mut total) = (0u64, 0u64);
        for r in self.rows.iter().map(Row::unpack) {
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
    ///
    /// # Panics
    ///
    /// Panics if packets were retired.
    pub(crate) fn latency_breakdown(&self, freq_ghz: f64) -> LatencyBreakdown {
        self.whole_run("the latency breakdown");
        let ns = 1.0 / freq_ghz;
        let mut out = LatencyBreakdown::default();
        let (mut n_req, mut n_rep) = (0u64, 0u64);
        for r in self.rows.iter().map(Row::unpack) {
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

/// Written as the `Vec<PacketRecord>` of the rows, then the two
/// counters, so the bytes do not depend on how the rows are stored. It
/// panics if packets were retired.
impl equinox_snap::Snap for PacketTracker {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        self.whole_run("a snapshot");
        e.put_usize(self.rows.len());
        for row in &self.rows {
            row.unpack().snap(e);
        }
        e.put_u64(self.injected_count);
        e.put_u64(self.ejected_count);
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
        assert_eq!(t.mark_ejected(m.id, 30), 20, "ejected at 30, created at 10");
        assert_eq!(t.mark_ejected(m.id, 99), 20, "idempotent: the first ejection counts");
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

    fn record_at(created: u64, injected: Option<u64>, ejected: Option<u64>) -> PacketRecord {
        PacketRecord {
            src: Coord::new(0, 0),
            dst: Coord::new(3, 2),
            class: MessageClass::Reply,
            op: MemOpKind::Read,
            addr: 64,
            created,
            injected,
            ejected,
            compressed: false,
        }
    }

    #[test]
    fn rows_round_trip_every_record_whose_cycles_fit() {
        let mut rng = equinox_exec::Rng::seed_from_u64(32);
        let last = u64::from(u32::MAX - 1);
        let cycle = |rng: &mut equinox_exec::Rng| match rng.random_range(0..4u32) {
            0 => 0,
            1 => last,
            _ => rng.random_range(0..last + 1),
        };
        for i in 0..10_000 {
            let stamp = |rng: &mut equinox_exec::Rng| {
                (rng.random_range(0..3u32) != 0).then(|| cycle(rng))
            };
            let r = PacketRecord {
                src: Coord::new(rng.random_range(0..u16::MAX), rng.random_range(0..u16::MAX)),
                dst: Coord::new(rng.random_range(0..u16::MAX), rng.random_range(0..u16::MAX)),
                class: if rng.random::<bool>() { MessageClass::Reply } else { MessageClass::Request },
                op: if rng.random::<bool>() { MemOpKind::Write } else { MemOpKind::Read },
                addr: if i == 0 { u64::MAX } else { rng.next_u64() },
                created: if i == 0 { last } else { cycle(&mut rng) },
                injected: if i == 0 { Some(last) } else { stamp(&mut rng) },
                ejected: if i == 0 { None } else { stamp(&mut rng) },
                compressed: rng.random::<bool>(),
            };
            assert_eq!(Row::pack(&r).expect("cycles fit").unpack(), r);
        }
        // A tracker stamps the last cycle a row holds, and no later one.
        let mut t = PacketTracker::new();
        let m = t.create(Coord::new(0, 0), Coord::new(1, 0), MessageClass::Request, MemOpKind::Write, 8, last);
        t.mark_injected(m.id, last);
        t.mark_ejected(m.id, last);
        assert_eq!(t.record(m.id), PacketRecord {
            class: MessageClass::Request,
            op: MemOpKind::Write,
            dst: Coord::new(1, 0),
            addr: 8,
            ..record_at(last, Some(last), Some(last))
        });
        let late = std::panic::catch_unwind(|| {
            PacketTracker::new().create(Coord::new(0, 0), Coord::new(1, 0), MessageClass::Request, MemOpKind::Read, 0, last + 1)
        });
        assert!(late.is_err(), "cycle u32::MAX has no row");
    }

    /// A tracker with `n` read requests created at cycle 0, every one
    /// ejected at cycle 5 but those in `live`.
    fn delivered_but(n: u64, live: &[u64]) -> PacketTracker {
        let mut t = PacketTracker::new();
        for id in 0..n {
            let m = t.create(Coord::new(0, 0), Coord::new(1, 0), MessageClass::Request, MemOpKind::Read, id, 0);
            assert_eq!(m.id, id);
            t.mark_injected(id, 1);
            if !live.contains(&id) {
                t.mark_ejected(id, 5);
            }
        }
        t
    }

    #[test]
    fn ids_and_len_keep_counting_across_a_retirement() {
        let mut t = delivered_but(3000, &[]);
        t.retire();
        assert_eq!((t.held(), t.len(), t.delivered(), t.in_flight()), (0, 3000, 3000, 0));
        let m = t.create(Coord::new(2, 0), Coord::new(1, 0), MessageClass::Reply, MemOpKind::Write, 9, 7);
        assert_eq!(m.id, 3000);
        assert_eq!(t.len(), 3001);
        assert_eq!(t.record(3000), PacketRecord {
            src: Coord::new(2, 0),
            dst: Coord::new(1, 0),
            op: MemOpKind::Write,
            addr: 9,
            ..record_at(7, None, None)
        });
        t.mark_injected(3000, 8);
        t.mark_ejected(3000, 12);
        assert_eq!(t.record(3000).ejected, Some(12));
        // A prefix under RETIRE_MIN stays, however few rows there are.
        t.retire();
        assert_eq!((t.held(), t.oldest_live()), (1, 3001));
    }

    #[test]
    fn an_undelivered_row_stops_the_prefix() {
        let mut t = delivered_but(3000, &[1500]);
        t.retire();
        // 1 500 delivered rows come first: past RETIRE_MIN and half of
        // 3 000, so they go; the rest wait behind packet 1500.
        assert_eq!((t.held(), t.oldest_live()), (1500, 1500));
        assert_eq!(t.record(2999).addr, 2999);
        // A prefix under half the rows stays: 1 200 of 3 000.
        let mut t = delivered_but(3000, &[1200]);
        t.retire();
        assert_eq!((t.held(), t.oldest_live()), (3000, 1200));
        t.mark_ejected(1200, 6);
        t.retire();
        assert_eq!((t.held(), t.oldest_live(), t.len()), (0, 3000, 3000));
    }

    #[test]
    #[should_panic(expected = "packet 5 was retired: the tracker keeps packets 3000 on")]
    fn a_retired_id_has_no_record() {
        let mut t = delivered_but(3000, &[]);
        t.retire();
        t.record(5);
    }

    #[test]
    #[should_panic(expected = "packet 3000 was never created: the tracker has 3000 packets")]
    fn an_id_past_the_last_has_no_record() {
        let mut t = delivered_but(3000, &[]);
        t.retire();
        t.mark_ejected(3000, 9);
    }

    #[test]
    fn whole_run_readers_refuse_a_retired_tracker() {
        let mut t = delivered_but(3000, &[]);
        // Nothing retired yet: every reader reads every row.
        let _ = (t.latency_breakdown(1.0), t.reply_bit_fraction());
        equinox_snap::Snap::snap(&t, &mut equinox_snap::Enc::new());
        t.retire();
        let message = |r: std::thread::Result<()>| {
            let e = r.expect_err("a whole-run reader panics");
            e.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let t = std::panic::AssertUnwindSafe(&t);
        for (reader, r) in [
            ("the latency breakdown", std::panic::catch_unwind(|| { t.latency_breakdown(1.0); })),
            ("the reply bit fraction", std::panic::catch_unwind(|| { t.reply_bit_fraction(); })),
            ("a snapshot", std::panic::catch_unwind(|| equinox_snap::Snap::snap(*t, &mut equinox_snap::Enc::new()))),
        ] {
            assert_eq!(message(r), format!("{reader} reads every packet, but packets below 3000 were retired"));
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
