//! The cache-bank (CB) model.
//!
//! Each CB tile pairs a last-level cache bank with a memory controller and
//! its HBM stack (Figure 1). Incoming request packets either hit in the
//! bank (probabilistic per benchmark profile, replying after the L2
//! latency) or miss and queue into the FR-FCFS controller of the local
//! HBM stack; either way a reply message is eventually handed to the CB's
//! reply-side NI. A bounded in-flight window plus the NI's bounded queue
//! provide the backpressure that lets reply congestion throttle request
//! ejection — the parking-lot effect of §6.4.

use crate::msg::{MemOpKind, PacketTracker};
use crate::ni::InjectionQueue;
use equinox_hbm::{HbmConfig, HbmStack, MemAccess};
use equinox_noc::flit::MessageClass;
use equinox_phys::Coord;
use equinox_exec::Rng;
use std::collections::VecDeque;

/// One cache bank with its memory controller and HBM stack.
#[derive(Debug)]
pub(crate) struct CacheBank {
    /// Tile this bank occupies.
    pub node: Coord,
    /// Number of CBs the global address space is striped over; used to
    /// delete the CB-select bits before addressing the local stack (so
    /// all of the stack's channels and banks are exercised).
    n_cbs: u64,
    hit_rate: f64,
    l2_latency: u64,
    /// Probability a read reply's line compresses to half size (0 = the
    /// base EquiNox system; >0 enables the §7 coalescing extension).
    compression: f64,
    rng: Rng,
    /// Requests that hit, due to reply at the stored cycle (sorted FIFO —
    /// latency is constant so push order is due order).
    hits_due: VecDeque<(u64, u64)>,
    /// Requests waiting to enter a full HBM channel queue.
    hbm_retry: VecDeque<u64>,
    hbm: HbmStack,
    /// Replies ready to be handed to the NI once it has room.
    ready: VecDeque<u64>,
    /// A reply already created in the tracker but refused by the NI
    /// (backpressure); retried before anything else next tick.
    pending_reply: Option<crate::msg::Message>,
    /// Requests accepted but not yet replied.
    inflight: usize,
    max_inflight: usize,
    /// Total requests served (for statistics).
    pub served: u64,
}

impl CacheBank {
    /// Creates a bank with the given hit rate, L2 hit latency (cycles) and
    /// HBM configuration.
    pub(crate) fn new(
        node: Coord,
        n_cbs: u64,
        hit_rate: f64,
        l2_latency: u64,
        hbm_cfg: HbmConfig,
        max_inflight: usize,
        seed: u64,
    ) -> Self {
        assert!(n_cbs > 0, "at least one cache bank");
        CacheBank {
            node,
            n_cbs,
            hit_rate,
            compression: 0.0,
            l2_latency,
            rng: Rng::seed_from_u64(seed ^ 0xCB),
            hits_due: VecDeque::new(),
            hbm_retry: VecDeque::new(),
            hbm: HbmStack::new(hbm_cfg),
            ready: VecDeque::new(),
            pending_reply: None,
            inflight: 0,
            max_inflight,
            served: 0,
        }
    }

    /// Enables the reply-compression extension: each read reply's line
    /// compresses to half size with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub(crate) fn set_compression(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.compression = p;
    }

    /// `true` if the bank can take another request this cycle.
    pub(crate) fn can_accept(&self) -> bool {
        self.inflight < self.max_inflight
    }

    /// Accepts a fully-received request packet.
    ///
    /// # Panics
    ///
    /// Panics if called while [`CacheBank::can_accept`] is false.
    pub(crate) fn accept(&mut self, pkt_id: u64, tracker: &PacketTracker, now: u64) {
        assert!(self.can_accept(), "CB over capacity");
        self.inflight += 1;
        let rec = tracker.record(pkt_id);
        debug_assert!(!rec.class.is_reply(), "CBs receive requests");
        if self.rng.random::<f64>() < self.hit_rate {
            self.hits_due.push_back((now + self.l2_latency, pkt_id));
        } else if self
            .hbm
            .enqueue(
                MemAccess {
                    id: pkt_id,
                    addr: self.local_addr(rec.addr),
                    write: rec.op == MemOpKind::Write,
                },
                now,
            )
            .is_err()
        {
            self.hbm_retry.push_back(pkt_id);
        }
    }

    /// Strips the CB-select bits from a global address: consecutive lines
    /// of this bank become consecutive local lines, so the stack's channel
    /// and row interleavings see the full stream.
    fn local_addr(&self, addr: u64) -> u64 {
        let line = addr / 64;
        (line / self.n_cbs) * 64 + addr % 64
    }

    /// One cycle: advance HBM, collect finished accesses and due hits,
    /// and hand ready replies to the reply NI while it has room.
    pub(crate) fn tick(
        &mut self,
        now: u64,
        tracker: &mut PacketTracker,
        reply_ni: &mut InjectionQueue,
    ) {
        // Retry queued-out misses.
        while let Some(&pkt) = self.hbm_retry.front() {
            let rec = tracker.record(pkt);
            let acc = MemAccess {
                id: pkt,
                addr: self.local_addr(rec.addr),
                write: rec.op == MemOpKind::Write,
            };
            if self.hbm.enqueue(acc, now).is_ok() {
                self.hbm_retry.pop_front();
            } else {
                break;
            }
        }
        self.hbm.step(now);
        while let Some(c) = self.hbm.pop_completed() {
            self.ready.push_back(c.id);
        }
        while self.hits_due.front().is_some_and(|&(t, _)| t <= now) {
            let (_, pkt) = self.hits_due.pop_front().expect("checked front");
            self.ready.push_back(pkt);
        }
        // Emit replies while the NI accepts them. A refused reply keeps
        // its tracker record and parks in `pending_reply` (re-creating it
        // later would duplicate the record), so backpressure defers
        // rather than drops.
        if let Some(reply) = self.pending_reply.take() {
            match reply_ni.try_push(reply) {
                Ok(()) => {
                    self.inflight -= 1;
                    self.served += 1;
                }
                Err(reply) => self.pending_reply = Some(reply),
            }
        }
        while self.pending_reply.is_none() && !self.ready.is_empty() {
            let req = self.ready.pop_front().expect("nonempty");
            let rec = tracker.record(req);
            let mut reply = tracker.create(
                self.node,
                rec.src,
                MessageClass::Reply,
                rec.op,
                rec.addr,
                now,
            );
            if self.compression > 0.0
                && rec.op == MemOpKind::Read
                && self.rng.random::<f64>() < self.compression
            {
                reply = tracker.set_compressed(reply);
            }
            match reply_ni.try_push(reply) {
                Ok(()) => {
                    self.inflight -= 1;
                    self.served += 1;
                }
                Err(reply) => self.pending_reply = Some(reply),
            }
        }
    }

    /// Requests inside the bank (accepted, not yet replied).
    pub(crate) fn inflight(&self) -> usize {
        self.inflight
    }

    /// Serializes the bank's dynamic state: RNG, due hits, HBM retry
    /// queue, the HBM stack itself, ready/parked replies and the
    /// in-flight window. Node, striping, rates and latencies are
    /// build-time configuration and are skipped.
    pub(crate) fn snap_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        self.rng.snap(e);
        self.hits_due.snap(e);
        self.hbm_retry.snap(e);
        self.hbm.snap_state(e);
        self.ready.snap(e);
        self.pending_reply.snap(e);
        e.put_usize(self.inflight);
        e.put_u64(self.served);
    }

    /// `true` when no request is anywhere inside the bank or its HBM
    /// (the tests' emptiness oracle).
    #[cfg(test)]
    fn is_idle(&self) -> bool {
        self.inflight == 0
            && self.hits_due.is_empty()
            && self.hbm_retry.is_empty()
            && self.ready.is_empty()
            && self.pending_reply.is_none()
            && self.hbm.outstanding() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ni::InjectPolicy;
    use crate::scheme::NiKind;
    use equinox_noc::config::NocConfig;
    use equinox_noc::network::Network;

    fn setup(hit_rate: f64) -> (CacheBank, InjectionQueue, Vec<Network>, PacketTracker) {
        let node = Coord::new(0, 0);
        let cb = CacheBank::new(node, 8, hit_rate, 20, HbmConfig::tiny(), 8, 1);
        let ni = InjectionQueue::new(node, 4, InjectPolicy::for_node(NiKind::Local, &mut [], &[0], node, 0, &[], None));
        let nets = vec![Network::new(NocConfig::mesh(4))];
        (cb, ni, nets, PacketTracker::new())
    }

    fn request(tracker: &mut PacketTracker, addr: u64) -> u64 {
        tracker
            .create(
                Coord::new(3, 3),
                Coord::new(0, 0),
                MessageClass::Request,
                MemOpKind::Read,
                addr,
                0,
            )
            .id
    }

    #[test]
    fn hit_replies_after_l2_latency() {
        let (mut cb, mut ni, _nets, mut tracker) = setup(1.0);
        let req = request(&mut tracker, 64);
        cb.accept(req, &tracker, 0);
        for t in 0..19 {
            cb.tick(t, &mut tracker, &mut ni);
        }
        assert_eq!(ni.backlog(), 0, "not due yet");
        cb.tick(20, &mut tracker, &mut ni);
        assert_eq!(ni.backlog(), 1, "hit reply after 20 cycles");
        assert!(cb.is_idle());
    }

    #[test]
    fn miss_goes_through_hbm() {
        let (mut cb, mut ni, _nets, mut tracker) = setup(0.0);
        let req = request(&mut tracker, 128);
        cb.accept(req, &tracker, 0);
        let mut replied_at = None;
        for t in 0..300 {
            cb.tick(t, &mut tracker, &mut ni);
            if ni.backlog() > 0 && replied_at.is_none() {
                replied_at = Some(t);
            }
        }
        let t = replied_at.expect("miss must eventually reply");
        assert!(t > 20, "DRAM slower than L2 hit: {t}");
        assert!(cb.is_idle());
    }

    #[test]
    fn reply_message_addressed_to_requester() {
        let (mut cb, mut ni, mut nets, mut tracker) = setup(1.0);
        let req = request(&mut tracker, 0);
        cb.accept(req, &tracker, 0);
        for t in 0..25 {
            cb.tick(t, &mut tracker, &mut ni);
        }
        // The reply is the second record.
        let rep = tracker.record(1);
        assert_eq!(rep.dst, Coord::new(3, 3));
        assert_eq!(rep.src, Coord::new(0, 0));
        assert!(rep.class.is_reply());
        // And it can actually be injected.
        for t in 0..10 {
            ni.tick(&mut nets, &mut tracker, t);
            nets[0].step();
        }
        assert!(tracker.record(1).injected.is_some());
    }

    #[test]
    fn capacity_gates_acceptance() {
        let (mut cb, _ni, _nets, mut tracker) = setup(0.0);
        for i in 0..8 {
            assert!(cb.can_accept());
            let req = request(&mut tracker, i * 64);
            cb.accept(req, &tracker, 0);
        }
        assert!(!cb.can_accept(), "8 in flight = full");
    }

    #[test]
    fn backpressured_ni_defers_replies() {
        let (mut cb, mut ni, _nets, mut tracker) = setup(1.0);
        // Fill the NI queue (cap 4) and never drain it.
        for i in 0..6 {
            let req = request(&mut tracker, i * 64);
            cb.accept(req, &tracker, 0);
        }
        for t in 0..100 {
            cb.tick(t, &mut tracker, &mut ni);
        }
        assert_eq!(ni.backlog(), 4, "NI holds its cap");
        assert_eq!(cb.inflight(), 2, "remaining replies deferred in the CB");
    }
}
