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

    /// Returns a copy re-addressed to `dst` (used when mapping a packet
    /// into a concentrated network's coordinate space).
    pub fn with_dst(mut self, dst: Coord) -> Self {
        self.dst = dst;
        self
    }
}

/// One slot of a VC buffer: a time stamp (the cycle the flit arrived, or
/// arrives, in the buffer) followed by the flit packed into four words.
///
/// The slot arenas hold a few hundred kB per network (4 MB across
/// DA2Mesh's eight 40-flit-deep subnets). As a plain integer array
/// `vec![EMPTY_SLOT; n]` is a zeroed allocation, which the OS backs page
/// by page on first touch; a `Vec<(u64, Flit)>` would be written
/// element by element at build time, costing more than the rest of
/// `Network::new` and keeping every page resident.
pub(crate) type Slot = [u64; 5];

/// The all-zero slot the arenas are created from.
pub(crate) const EMPTY_SLOT: Slot = [0; 5];

/// Field access on a packed [`Slot`]. Word 0 is the stamp, word 1 the
/// packet id, word 2 `src.x | src.y << 16 | dst.x << 32 | dst.y << 48`,
/// word 3 `seq | len << 16 | sink << 32`, word 4 `vc | class << 8`.
pub(crate) trait SlotExt {
    fn pack(stamp: u64, flit: &Flit) -> Self;
    fn flit(&self) -> Flit;
    fn stamp(&self) -> u64;
    fn set_stamp(&mut self, stamp: u64);
    fn pkt(&self) -> PacketId;
    fn seq(&self) -> u16;
    fn dst(&self) -> Coord;
    /// The destination as one word, comparable with [`SlotExt::coord_key`].
    fn dst_key(&self) -> u32;
    /// `c` as [`SlotExt::dst_key`] would return it.
    fn coord_key(c: Coord) -> u32;
    fn sink(&self) -> u32;
    fn vc(&self) -> u8;
    fn set_vc(&mut self, vc: u8);
    /// 0 = request, 1 = reply (the per-class ledger index).
    fn class_ix(&self) -> usize;
    fn is_head(&self) -> bool;
    fn is_tail(&self) -> bool;
}

impl SlotExt for Slot {
    #[inline]
    fn pack(stamp: u64, f: &Flit) -> Slot {
        [
            stamp,
            f.pkt.0,
            f.src.x as u64 | (f.src.y as u64) << 16 | (f.dst.x as u64) << 32 | (f.dst.y as u64) << 48,
            f.seq as u64 | (f.len as u64) << 16 | (f.sink as u64) << 32,
            f.vc as u64 | (f.class.is_reply() as u64) << 8,
        ]
    }

    #[inline]
    fn flit(&self) -> Flit {
        Flit {
            pkt: self.pkt(),
            src: Coord::new(self[2] as u16, (self[2] >> 16) as u16),
            dst: self.dst(),
            class: if self.class_ix() == 1 { MessageClass::Reply } else { MessageClass::Request },
            seq: self.seq(),
            len: (self[3] >> 16) as u16,
            sink: self.sink(),
            vc: self.vc(),
        }
    }

    #[inline]
    fn stamp(&self) -> u64 {
        self[0]
    }

    #[inline]
    fn set_stamp(&mut self, stamp: u64) {
        self[0] = stamp;
    }

    #[inline]
    fn pkt(&self) -> PacketId {
        PacketId(self[1])
    }

    #[inline]
    fn seq(&self) -> u16 {
        self[3] as u16
    }

    #[inline]
    fn dst(&self) -> Coord {
        Coord::new((self[2] >> 32) as u16, (self[2] >> 48) as u16)
    }

    #[inline]
    fn dst_key(&self) -> u32 {
        (self[2] >> 32) as u32
    }

    #[inline]
    fn coord_key(c: Coord) -> u32 {
        c.x as u32 | (c.y as u32) << 16
    }

    #[inline]
    fn sink(&self) -> u32 {
        (self[3] >> 32) as u32
    }

    #[inline]
    fn vc(&self) -> u8 {
        self[4] as u8
    }

    #[inline]
    fn set_vc(&mut self, vc: u8) {
        self[4] = (self[4] & !0xFF) | vc as u64;
    }

    #[inline]
    fn class_ix(&self) -> usize {
        (self[4] >> 8) as usize & 1
    }

    #[inline]
    fn is_head(&self) -> bool {
        self.seq() == 0
    }

    #[inline]
    fn is_tail(&self) -> bool {
        self[3] as u16 as u32 + 1 == (self[3] >> 16) as u16 as u32
    }
}

impl equinox_snap::Snap for PacketId {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u64(self.0);
    }
    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        Ok(PacketId(d.u64()?))
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
    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        let id = PacketId::restore(d)?;
        let src = Coord::new(d.u16()?, d.u16()?);
        let dst = Coord::new(d.u16()?, d.u16()?);
        let class = MessageClass::restore(d)?;
        let len = d.u16()?;
        if len == 0 {
            return Err(equinox_snap::SnapError::BadValue("packet len zero"));
        }
        Ok(PacketDesc {
            id,
            src,
            dst,
            class,
            len,
        })
    }
}

impl equinox_snap::Snap for MessageClass {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u8(match self {
            MessageClass::Request => 0,
            MessageClass::Reply => 1,
        });
    }
    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        match d.u8()? {
            0 => Ok(MessageClass::Request),
            1 => Ok(MessageClass::Reply),
            _ => Err(equinox_snap::SnapError::BadValue("message class tag")),
        }
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
    fn restore(d: &mut equinox_snap::Dec) -> Result<Self, equinox_snap::SnapError> {
        let f = Flit {
            pkt: PacketId::restore(d)?,
            src: Coord::new(d.u16()?, d.u16()?),
            dst: Coord::new(d.u16()?, d.u16()?),
            class: MessageClass::restore(d)?,
            seq: d.u16()?,
            len: d.u16()?,
            sink: d.u32()?,
            vc: d.u8()?,
        };
        if f.len == 0 || f.seq >= f.len {
            return Err(equinox_snap::SnapError::BadValue("flit seq/len"));
        }
        Ok(f)
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
        let f = p.flits(8)[0].with_sink(9).with_dst(Coord::new(3, 3));
        assert_eq!(f.sink, 9);
        assert_eq!(f.dst, Coord::new(3, 3));
        assert_eq!(f.src, Coord::new(0, 0));
    }

    #[test]
    fn packed_slot_round_trips_every_field() {
        let p = PacketDesc::new(u64::MAX - 3, Coord::new(65535, 2), Coord::new(7, 65534), MessageClass::Reply, 700);
        for seq in [0u16, 1, 698, 699] {
            let mut f = p.flit_at(seq, 8).with_sink(u32::MAX - seq as u32);
            f.vc = 11;
            let mut s = Slot::pack(u64::MAX - 9, &f);
            assert_eq!(s.flit(), f);
            assert_eq!(s.stamp(), u64::MAX - 9);
            assert_eq!((s.is_head(), s.is_tail()), (f.is_head(), f.is_tail()));
            assert_eq!((s.dst(), s.sink(), s.vc(), s.class_ix()), (f.dst, f.sink, 11, 1));
            assert_eq!(s.dst_key(), Slot::coord_key(f.dst));
            assert_ne!(s.dst_key(), Slot::coord_key(Coord::new(f.dst.y, f.dst.x)));
            s.set_vc(200);
            f.vc = 200;
            assert_eq!(s.flit(), f, "set_vc must touch nothing else");
        }
        let req = PacketDesc::new(0, Coord::new(0, 0), Coord::new(1, 0), MessageClass::Request, 1);
        assert_eq!(Slot::pack(0, &req.flit_at(0, 8)).class_ix(), 0);
    }

    #[test]
    fn class_helpers() {
        assert!(MessageClass::Reply.is_reply());
        assert!(!MessageClass::Request.is_reply());
    }
}
