//! Packets and flits.
//!
//! A packet is the unit of transfer between network interfaces (a read
//! request, a cache-line reply, …); a flit is the unit of flow control.
//! With the paper's 128-bit links a read request is a single flit while a
//! 64 B cache-line reply serializes into 5 flits (header + 4 data), which
//! is what makes the reply network carry ~3/4 of all NoC bits (§2.2).

use equinox_phys::Coord;
use std::fmt;

/// Globally-unique packet identifier (assigned by the traffic layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// Message class: the two logical networks of a throughput processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// PE → CB traffic (read/write requests).
    Request,
    /// CB → PE traffic (read data / write acks) — the bottleneck class.
    Reply,
}

impl MessageClass {
    /// `true` for [`MessageClass::Reply`].
    pub const fn is_reply(self) -> bool {
        matches!(self, MessageClass::Reply)
    }
}

/// Immutable description of a packet before serialization into flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDesc {
    /// Unique id.
    pub id: PacketId,
    /// Source tile.
    pub src: Coord,
    /// Destination tile.
    pub dst: Coord,
    /// Message class.
    pub class: MessageClass,
    /// Length in flits (≥ 1).
    pub len: u16,
}

impl PacketDesc {
    /// Creates a packet description.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(id: u64, src: Coord, dst: Coord, class: MessageClass, len: u16) -> Self {
        assert!(len > 0, "packets have at least one flit");
        PacketDesc {
            id: PacketId(id),
            src,
            dst,
            class,
            len,
        }
    }

    /// Serializes the packet into its flits, in order. The `sink` of every
    /// flit defaults to the row-major index of `dst` on a mesh `width`
    /// wide; concentrated networks overwrite it via [`Flit::with_sink`].
    pub fn flits(&self, width: u16) -> Vec<Flit> {
        (0..self.len).map(|seq| self.flit_at(seq, width)).collect()
    }

    /// Builds the single flit at position `seq` without materializing the
    /// whole packet — the form the NI injection hot loop uses, so that
    /// streaming a packet one flit per cycle never touches the heap.
    /// `seq` must be `< len`; the `sink` default matches [`PacketDesc::flits`].
    pub fn flit_at(&self, seq: u16, width: u16) -> Flit {
        debug_assert!(seq < self.len, "flit index out of range");
        Flit {
            pkt: self.id,
            src: self.src,
            dst: self.dst,
            class: self.class,
            seq,
            len: self.len,
            sink: self.dst.to_index(width) as u32,
            vc: 0,
        }
    }
}

/// The flow-control unit traversing the network.
///
/// Flits are small `Copy` values; all per-packet bookkeeping (latency
/// accounting, reassembly) lives in the traffic layer keyed by
/// [`Flit::pkt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub pkt: PacketId,
    /// Source tile (in this network's coordinate space).
    pub src: Coord,
    /// Destination tile (in this network's coordinate space).
    pub dst: Coord,
    /// Message class.
    pub class: MessageClass,
    /// Position within the packet (0 = head).
    pub seq: u16,
    /// Packet length in flits.
    pub len: u16,
    /// Ejection sink tag — disambiguates which local port to leave through
    /// on routers with several ejection ports (concentrated meshes).
    pub sink: u32,
    /// Current virtual channel (rewritten at every hop).
    pub vc: u8,
}

impl Flit {
    /// `true` for the first flit of a packet (carries routing info).
    pub const fn is_head(&self) -> bool {
        self.seq == 0
    }

    /// `true` for the last flit of a packet (releases channel state).
    pub const fn is_tail(&self) -> bool {
        self.seq + 1 == self.len
    }

    /// Returns a copy with the ejection sink tag replaced.
    pub fn with_sink(mut self, sink: u32) -> Self {
        self.sink = sink;
        self
    }
}

/// One slot of a VC ring or ejection queue: two `u32` words, a time
/// stamp and what differs between the flits of a packet. What they share
/// — id, source, destination, length, sink — is stored once per packet,
/// in the network's [`PacketTable`], under the handle the slot carries.
/// The VC is not stored: a ring's slots all belong to its VC, and an
/// ejection queue keeps the VC beside each slot.
///
/// The stamp is the low 32 bits of the cycle the flit arrived, or
/// arrives, in the buffer. A network's clock may pass 2³² (a DA2Mesh
/// subnet steps 2.5 times per core cycle), so stamps are compared as
/// ages ([`SlotExt::age`], [`SlotExt::lead`]), which wrap with the
/// clock, and only the snapshot writers rebuild the absolute cycle.
///
/// The arenas hold a few tens of kB per network (0.8 MB across DA2Mesh's
/// eight 40-flit-deep subnets), and DA2Mesh's is what sets the peak
/// memory of a Figure 9 sweep. As a plain integer array
/// `vec![EMPTY_SLOT; n]` is a zeroed allocation, which the OS backs page
/// by page on first touch; a `Vec<(u64, Flit)>` would be written element
/// by element at build time, costing more than the rest of
/// `Network::new` and keeping every page resident.
pub(crate) type Slot = [u32; 2];

/// The all-zero slot the arenas are created from.
pub(crate) const EMPTY_SLOT: Slot = [0; 2];

// Slot bytes are what the buffers cost in memory, not in time.
const _: () = assert!(std::mem::size_of::<Slot>() == 8);

/// Bits of a slot's packet handle: the most packets one network may
/// hold at once is `1 << HANDLE_BITS`.
pub(crate) const HANDLE_BITS: u32 = 24;

/// The longest packet a slot's 6-bit flit index numbers.
pub(crate) const MAX_PACKET_FLITS: u16 = 64;

/// Field access on a packed [`Slot`]. Word 0 is the stamp, word 1
/// `handle | seq << 24 | class << 30 | tail << 31`.
pub(crate) trait SlotExt {
    /// The slot of `flit`, whose packet's entry is `handle`, stamped
    /// with the low bits of `cycle`.
    fn pack(cycle: u64, handle: u32, flit: &Flit) -> Self;
    /// Stamps the slot with the low bits of `cycle`.
    fn set_stamp(&mut self, cycle: u64);
    /// Cycles from the stamp to `now`, for a stamp at or before `now`.
    fn age(&self, now: u64) -> u32;
    /// Cycles from `now` to the stamp, for a stamp at or after `now`.
    fn lead(&self, now: u64) -> u32;
    /// The packet's entry in the [`PacketTable`].
    fn handle(&self) -> u32;
    fn seq(&self) -> u16;
    /// 0 = request, 1 = reply (the per-class ledger index).
    fn class_ix(&self) -> usize;
    fn is_head(&self) -> bool;
    fn is_tail(&self) -> bool;
}

impl SlotExt for Slot {
    #[inline]
    fn pack(cycle: u64, handle: u32, f: &Flit) -> Slot {
        debug_assert!(handle < 1 << HANDLE_BITS && f.seq < MAX_PACKET_FLITS);
        [
            cycle as u32,
            handle | (f.seq as u32) << 24 | (f.class.is_reply() as u32) << 30 | (f.is_tail() as u32) << 31,
        ]
    }

    #[inline]
    fn set_stamp(&mut self, cycle: u64) {
        self[0] = cycle as u32;
    }

    #[inline]
    fn age(&self, now: u64) -> u32 {
        (now as u32).wrapping_sub(self[0])
    }

    #[inline]
    fn lead(&self, now: u64) -> u32 {
        self[0].wrapping_sub(now as u32)
    }

    #[inline]
    fn handle(&self) -> u32 {
        self[1] & ((1 << HANDLE_BITS) - 1)
    }

    #[inline]
    fn seq(&self) -> u16 {
        (self[1] >> 24 & 0x3F) as u16
    }

    #[inline]
    fn class_ix(&self) -> usize {
        (self[1] >> 30 & 1) as usize
    }

    #[inline]
    fn is_head(&self) -> bool {
        self.seq() == 0
    }

    #[inline]
    fn is_tail(&self) -> bool {
        self[1] >> 31 != 0
    }
}

/// What every flit of one packet shares, stored once per live packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketEntry {
    pub id: PacketId,
    pub src: Coord,
    pub dst: Coord,
    pub sink: u32,
    /// Length in flits; 0 marks a free entry.
    pub len: u16,
}

const _: () = assert!(std::mem::size_of::<PacketEntry>() <= 24);

impl PacketEntry {
    fn of(f: &Flit) -> Self {
        PacketEntry { id: f.pkt, src: f.src, dst: f.dst, sink: f.sink, len: f.len }
    }
}

/// The [`PacketEntry`] of every packet with a flit in one network, or
/// streaming from one of its injectors, indexed by the handle its slots
/// carry. A handle is taken when an injector accepts a head and given
/// back when the tail — a packet's last flit in the network — is popped
/// from its ejection queue; freed handles are reused last in, first out,
/// so the entries in use stay at the front of the table.
#[derive(Debug, Default)]
pub(crate) struct PacketTable {
    entries: Vec<PacketEntry>,
    free: Vec<u32>,
}

impl PacketTable {
    /// Makes room for `bound` live packets, so that taking a handle never
    /// allocates. Capacity at least doubles when it grows, so a build
    /// that adds ports one by one reallocates a few times, not once per
    /// port. An empty table gets a fresh allocation instead of a grown
    /// one: nothing is copied, so none of it is touched, and untouched
    /// capacity costs no resident memory.
    pub(crate) fn reserve(&mut self, bound: usize) {
        let cap = self.entries.capacity();
        if bound <= cap {
            return;
        }
        if self.entries.is_empty() {
            let cap = bound.max(2 * cap);
            self.entries = Vec::with_capacity(cap);
            self.free = Vec::with_capacity(cap);
        } else {
            self.entries.reserve(bound - self.entries.len());
            self.free.reserve(bound - self.free.len());
        }
    }

    /// Gives back the room past `bound` live packets while none has been
    /// taken yet: the table is allocated afresh, not shrunk in place.
    pub(crate) fn limit(&mut self, bound: usize) {
        if self.entries.is_empty() && self.entries.capacity() > bound {
            self.entries = Vec::with_capacity(bound);
            self.free = Vec::with_capacity(bound);
        }
    }

    /// Live packets the table holds without allocating.
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Takes a handle for the packet `f` belongs to.
    #[inline]
    pub(crate) fn alloc(&mut self, f: &Flit) -> u32 {
        let entry = PacketEntry::of(f);
        match self.free.pop() {
            Some(h) => {
                self.entries[h as usize] = entry;
                h
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        }
    }

    /// Gives back the handle of a packet that left the network.
    #[inline]
    pub(crate) fn release(&mut self, h: u32) {
        debug_assert!(self.entries[h as usize].len != 0, "handle {h} released twice");
        self.entries[h as usize].len = 0;
        self.free.push(h);
    }

    #[inline]
    pub(crate) fn get(&self, h: u32) -> &PacketEntry {
        &self.entries[h as usize]
    }

    /// The flit `s` holds, on VC `vc`.
    pub(crate) fn flit(&self, s: &Slot, vc: u8) -> Flit {
        let e = self.get(s.handle());
        Flit {
            pkt: e.id,
            src: e.src,
            dst: e.dst,
            class: if s.class_ix() == 1 { MessageClass::Reply } else { MessageClass::Request },
            seq: s.seq(),
            len: e.len,
            sink: e.sink,
            vc,
        }
    }

    /// The handles in use, ascending.
    #[cfg(test)]
    pub(crate) fn live(&self) -> Vec<u32> {
        (0..self.entries.len() as u32).filter(|&h| self.get(h).len != 0).collect()
    }
}

impl equinox_snap::Snap for PacketId {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u64(self.0);
    }
}

impl equinox_snap::Snap for PacketDesc {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        self.id.snap(e);
        e.put_u16(self.src.x);
        e.put_u16(self.src.y);
        e.put_u16(self.dst.x);
        e.put_u16(self.dst.y);
        self.class.snap(e);
        e.put_u16(self.len);
    }
}

impl equinox_snap::Snap for MessageClass {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u8(match self {
            MessageClass::Request => 0,
            MessageClass::Reply => 1,
        });
    }
}

// `Coord` belongs to `equinox-phys` (which has no snap dependency), so
// flits encode it field-wise.
impl equinox_snap::Snap for Flit {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        self.pkt.snap(e);
        e.put_u16(self.src.x);
        e.put_u16(self.src.y);
        e.put_u16(self.dst.x);
        e.put_u16(self.dst.y);
        self.class.snap(e);
        e.put_u16(self.seq);
        e.put_u16(self.len);
        e.put_u32(self.sink);
        e.put_u8(self.vc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_order_and_flags() {
        let p = PacketDesc::new(7, Coord::new(1, 2), Coord::new(5, 5), MessageClass::Reply, 5);
        let flits = p.flits(8);
        assert_eq!(flits.len(), 5);
        assert!(flits[0].is_head());
        assert!(!flits[0].is_tail());
        assert!(flits[4].is_tail());
        assert!(flits[1..4].iter().all(|f| !f.is_head() && !f.is_tail()));
        assert!(flits.iter().all(|f| f.pkt == PacketId(7)));
        assert_eq!(flits[0].sink, 5 * 8 + 5);
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let p = PacketDesc::new(1, Coord::new(0, 0), Coord::new(1, 0), MessageClass::Request, 1);
        let f = p.flits(8)[0];
        assert!(f.is_head() && f.is_tail());
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_rejected() {
        let _ = PacketDesc::new(0, Coord::new(0, 0), Coord::new(1, 1), MessageClass::Reply, 0);
    }

    #[test]
    fn with_sink_and_dst() {
        let p = PacketDesc::new(2, Coord::new(0, 0), Coord::new(7, 7), MessageClass::Reply, 2);
        let f = Flit { dst: Coord::new(3, 3), ..p.flits(8)[0].with_sink(9) };
        assert_eq!(f.sink, 9);
        assert_eq!(f.dst, Coord::new(3, 3));
        assert_eq!(f.src, Coord::new(0, 0));
    }

    #[test]
    fn packed_slot_round_trips_every_field() {
        let mut table = PacketTable::default();
        table.reserve(4);
        let p = PacketDesc::new(u64::MAX - 3, Coord::new(65535, 2), Coord::new(7, 65534), MessageClass::Reply, 64);
        let sink = u32::MAX - 1;
        let h = table.alloc(&p.flit_at(0, 8).with_sink(sink));
        let top = (1u32 << HANDLE_BITS) - 1;
        // Each field at its edges: stamp 2^32 - 1, handle 2^24 - 1, seq 63.
        for (handle, seq) in [(h, 0u16), (h, 1), (h, 62), (h, 63), (top, 63), (top, 0)] {
            let mut f = p.flit_at(seq, 8).with_sink(sink);
            f.vc = 11;
            let mut s = Slot::pack(u64::MAX, handle, &f);
            assert_eq!((s[0], s.handle(), s.seq()), (u32::MAX, handle, seq));
            assert_eq!((s.is_head(), s.is_tail(), s.class_ix()), (seq == 0, seq == 63, 1));
            if handle == h {
                assert_eq!(table.flit(&s, 11), f);
            }
            s.set_stamp(3);
            let fields = (s[0], s.handle(), s.seq(), s.is_tail());
            assert_eq!(fields, (3, handle, seq, seq == 63), "set_stamp touches nothing else");
        }
        // The handle takes its 24 bits without spilling into the seq, and
        // a request's class and tail bits are clear.
        let f = PacketDesc::new(0, Coord::new(0, 0), Coord::new(1, 0), MessageClass::Request, 2).flit_at(0, 8);
        let s = Slot::pack(0, top, &f);
        assert_eq!((s.handle(), s.seq(), s.class_ix()), (top, 0, 0));
        assert!(s.is_head() && !s.is_tail());
    }

    #[test]
    fn ages_and_leads_wrap_with_the_clock() {
        let f = PacketDesc::new(0, Coord::new(0, 0), Coord::new(1, 0), MessageClass::Request, 1).flit_at(0, 8);
        let wrap = 1u64 << 32;
        // Stamped 3 cycles before the clock passes 2^32, read 5 after it.
        let s = Slot::pack(wrap - 3, 0, &f);
        assert_eq!((s.age(wrap + 5), s.age(wrap - 3)), (8, 0));
        assert_eq!(s.lead(wrap - 10), 7);
        // The absolute cycle the snapshot writers rebuild, from either side.
        assert_eq!(wrap + 5 - s.age(wrap + 5) as u64, wrap - 3);
        assert_eq!(wrap - 10 + s.lead(wrap - 10) as u64, wrap - 3);
        let s = Slot::pack(3 * wrap + 2, 0, &f);
        assert_eq!((s.age(3 * wrap + 2 + u32::MAX as u64), s.lead(3 * wrap - 1)), (u32::MAX, 3));
    }

    #[test]
    fn packet_table_reuses_handles_last_in_first_out() {
        let mut table = PacketTable::default();
        table.reserve(8);
        let pkt = |id| PacketDesc::new(id, Coord::new(0, 0), Coord::new(1, 1), MessageClass::Reply, 5).flit_at(0, 8);
        let hs: Vec<u32> = (0..4).map(|id| table.alloc(&pkt(id))).collect();
        assert_eq!(hs, [0, 1, 2, 3]);
        table.release(1);
        table.release(3);
        assert_eq!(table.live(), [0, 2]);
        assert_eq!(table.alloc(&pkt(9)), 3, "the last handle freed is the first reused");
        assert_eq!(table.get(3).id, PacketId(9));
        assert_eq!(table.alloc(&pkt(10)), 1);
        assert_eq!(table.alloc(&pkt(11)), 4);
    }

    #[test]
    fn class_helpers() {
        assert!(MessageClass::Reply.is_reply());
        assert!(!MessageClass::Request.is_reply());
    }
}
