//! Links: pipelined flit channels with a reverse credit channel.
//!
//! Every input port of every router is fed by exactly one link. Mesh links
//! connect neighbouring routers; NI links connect a network interface's
//! injection buffer to a router input port (the local port, or — in
//! EquiNox — an EIR's extra port, in which case the link physically lives
//! in the interposer's RDL and is tagged [`LinkKind::Interposer`] so the
//! energy and µbump models can account for it separately).
//!
//! A link holds no flit. A flit sent down a link is written straight into
//! the downstream input VC, staged behind the flits buffered there and
//! invisible until its arrival cycle (see
//! [`crate::router::RouterCore::stage`]); the link only records *when* it
//! arrives. A link's latency is fixed and it carries at most one flit and
//! one credit per cycle (a router output has one switch-allocation
//! winner, a router input port returns one credit, an injector accepts
//! one flit), so what is in flight is two timing wheels of
//! `next_pow2(max latency + 1)` buckets — the `+ 1` because an injector
//! sends before the cycle's delivery runs — each bucket holding at most
//! one entry per link: the flits and the credits that arrive at that
//! cycle.

use crate::router::NONE;

/// Physical class of a link, for energy/area accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Regular on-die link between adjacent routers.
    Mesh,
    /// Link routed in the interposer RDLs (EquiNox CB→EIR links,
    /// Interposer-CMesh links).
    Interposer,
    /// Short NI→router connection inside a tile.
    NiLocal,
}

/// Where a link's returned credits go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CreditDst {
    /// Credits replenish an upstream router's output-VC counters.
    RouterOutput { router: u32, port: u8 },
    /// Credits replenish an injector's NI-side counters.
    Injector { injector: u32 },
}

/// A unidirectional pipelined channel carrying flits downstream and
/// credits upstream, each with the link's latency.
#[derive(Debug)]
pub(crate) struct Link {
    pub kind: LinkKind,
    pub latency: u32,
    /// Downstream endpoint.
    pub to_router: u32,
    pub to_port: u8,
    /// Upstream credit endpoint.
    pub credit_dst: CreditDst,
    /// Cumulative flits sent down this link (per-link utilization).
    pub flits_carried: u64,
    /// Arrival cycle of the newest flit sent, plus one (debug builds
    /// check that a link carries at most one flit per cycle).
    #[cfg(debug_assertions)]
    next_free: u64,
}

/// A flit due off a link: the input VC of the fed router it becomes
/// visible in, as a mask bit, and its class.
#[derive(Debug)]
struct FlitArrival {
    link: u32,
    bit: u8,
    class: u8,
}

/// Every link of a network, and the two arrival wheels.
#[derive(Debug)]
pub(crate) struct Links {
    links: Vec<Link>,
    /// Buckets minus one; bucket `t & mask` holds what arrives at `t`.
    mask: u64,
    /// Per bucket, the flits arriving then.
    flits: Vec<Vec<FlitArrival>>,
    /// Per bucket, the links whose credit arrives then.
    credits: Vec<Vec<u32>>,
    /// `credit_vc[link * buckets + bucket]`: the VC of the credit that
    /// link returns at that bucket's cycle, or [`NONE`]. What lets the
    /// auditor and the snapshot read one link's credits without a scan.
    credit_vc: Vec<u8>,
}

impl Default for Links {
    fn default() -> Self {
        Links {
            links: Vec::new(),
            mask: 0,
            flits: vec![Vec::new()],
            credits: vec![Vec::new()],
            credit_vc: Vec::new(),
        }
    }
}

impl std::ops::Index<usize> for Links {
    type Output = Link;
    #[inline]
    fn index(&self, li: usize) -> &Link {
        &self.links[li]
    }
}

impl Links {
    /// Appends a link and returns its id. Every bucket gains room for
    /// one more entry, so a running network never grows a bucket.
    ///
    /// # Panics
    ///
    /// Panics on a zero latency, and on a link that needs more buckets
    /// than the wheels have while anything is in flight.
    pub(crate) fn push(
        &mut self,
        kind: LinkKind,
        latency: u32,
        to_router: usize,
        to_port: usize,
        credit_dst: CreditDst,
    ) -> usize {
        assert!(latency >= 1, "links need at least one cycle of latency");
        let buckets = (latency as usize + 1).next_power_of_two();
        if buckets > self.buckets() {
            assert!(
                self.flits_in_flight() == 0 && self.credits.iter().all(Vec::is_empty),
                "a link longer than the others is added only while nothing is in flight"
            );
            self.mask = buckets as u64 - 1;
            self.flits.resize_with(buckets, Vec::new);
            self.credits.resize_with(buckets, Vec::new);
            self.credit_vc = vec![NONE; self.links.len() * buckets];
        }
        self.links.push(Link {
            kind,
            latency,
            to_router: to_router as u32,
            to_port: to_port as u8,
            credit_dst,
            flits_carried: 0,
            #[cfg(debug_assertions)]
            next_free: 0,
        });
        let n = self.links.len();
        for bucket in self.flits.iter_mut() {
            bucket.reserve(n - bucket.len());
        }
        for bucket in self.credits.iter_mut() {
            bucket.reserve(n - bucket.len());
        }
        self.credit_vc.resize(n * self.buckets(), NONE);
        n - 1
    }

    pub(crate) fn len(&self) -> usize {
        self.links.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Buckets per wheel.
    #[inline]
    fn buckets(&self) -> usize {
        self.mask as usize + 1
    }

    /// Sends a flit bound for input VC mask bit `bit` of the fed router
    /// and returns its arrival cycle, `now + latency`; the caller stages
    /// the flit there.
    #[inline]
    pub(crate) fn send_flit(&mut self, li: usize, now: u64, bit: usize, class: usize) -> u64 {
        let l = &mut self.links[li];
        l.flits_carried += 1;
        let at = now + l.latency as u64;
        self.schedule_flit(li, at, bit, class);
        at
    }

    /// Records a flit of link `li` arriving at `at`.
    #[inline]
    pub(crate) fn schedule_flit(&mut self, li: usize, at: u64, bit: usize, class: usize) {
        #[cfg(debug_assertions)]
        {
            let l = &mut self.links[li];
            assert!(at >= l.next_free, "more than one flit per cycle on link {li}");
            l.next_free = at + 1;
        }
        self.flits[(at & self.mask) as usize].push(FlitArrival {
            link: li as u32,
            bit: bit as u8,
            class: class as u8,
        });
    }

    /// Sends a credit for `vc` back upstream; it arrives at
    /// `now + latency`.
    #[inline]
    pub(crate) fn send_credit(&mut self, li: usize, now: u64, vc: u8) {
        self.schedule_credit(li, now + self.links[li].latency as u64, vc);
    }

    /// Records a credit of link `li` for `vc` arriving at `at`.
    #[inline]
    pub(crate) fn schedule_credit(&mut self, li: usize, at: u64, vc: u8) {
        let bucket = (at & self.mask) as usize;
        let i = li * self.buckets() + bucket;
        let slot = &mut self.credit_vc[i];
        debug_assert_eq!(*slot, NONE, "more than one credit per cycle on link {li}");
        *slot = vc;
        self.credits[bucket].push(li as u32);
    }

    /// Takes the credits arriving at `now` off their wheel, handing each
    /// to `deliver(destination, vc)`.
    #[inline]
    pub(crate) fn take_credits(&mut self, now: u64, mut deliver: impl FnMut(CreditDst, u8)) {
        let bucket = (now & self.mask) as usize;
        let stride = self.buckets();
        for li in self.credits[bucket].drain(..) {
            let li = li as usize;
            let vc = std::mem::replace(&mut self.credit_vc[li * stride + bucket], NONE);
            deliver(self.links[li].credit_dst, vc);
        }
    }

    /// Takes the flits arriving at `now` off their wheel, handing each to
    /// `deliver(router, bit, class)`: the fed router, the input VC the
    /// flit is staged in as a mask bit, and its class.
    #[inline]
    pub(crate) fn take_flits(&mut self, now: u64, mut deliver: impl FnMut(usize, usize, usize)) {
        for a in self.flits[(now & self.mask) as usize].drain(..) {
            let r = self.links[a.link as usize].to_router as usize;
            deliver(r, a.bit as usize, a.class as usize);
        }
    }

    /// Flits in flight on every link together.
    pub(crate) fn flits_in_flight(&self) -> usize {
        self.flits.iter().map(Vec::len).sum()
    }

    /// The credits in flight back up link `li` as `(arrival, vc)`, oldest
    /// first, read between steps at cycle `now`: every arrival still due
    /// lies in `now..now + buckets`, one bucket per cycle.
    pub(crate) fn credits(&self, li: usize, now: u64) -> impl Iterator<Item = (u64, u8)> + '_ {
        let base = li * self.buckets();
        (now..now + self.buckets() as u64).filter_map(move |at| {
            let vc = self.credit_vc[base + (at & self.mask) as usize];
            (vc != NONE).then_some((at, vc))
        })
    }

    /// Empties both wheels, keeping their buckets' room (a restore
    /// refills them).
    pub(crate) fn clear_in_flight(&mut self) {
        self.flits.iter_mut().for_each(Vec::clear);
        self.credits.iter_mut().for_each(Vec::clear);
        self.credit_vc.fill(NONE);
        #[cfg(debug_assertions)]
        for l in &mut self.links {
            l.next_free = 0;
        }
    }

    /// Restores link `li`'s carried counter.
    pub(crate) fn set_flits_carried(&mut self, li: usize, carried: u64) {
        self.links[li].flits_carried = carried;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_links(latencies: &[u32]) -> Links {
        let mut links = Links::default();
        for (k, &latency) in latencies.iter().enumerate() {
            links.push(
                LinkKind::Mesh,
                latency,
                k + 1,
                0,
                CreditDst::RouterOutput { router: 0, port: k as u8 },
            );
        }
        links
    }

    /// `(link, bit, class)` of each flit arriving at `now`; link `k`
    /// feeds router `k + 1`.
    fn flits_at(l: &mut Links, now: u64) -> Vec<(usize, usize, usize)> {
        let mut got = Vec::new();
        l.take_flits(now, |r, bit, class| got.push((r - 1, bit, class)));
        got
    }

    /// `(link, vc)` of each credit arriving at `now`; link `k` returns
    /// credits to port `k`.
    fn credits_at(l: &mut Links, now: u64) -> Vec<(usize, u8)> {
        let mut got = Vec::new();
        l.take_credits(now, |dst, vc| match dst {
            CreditDst::RouterOutput { port, .. } => got.push((port as usize, vc)),
            CreditDst::Injector { .. } => unreachable!("test links return credits to routers"),
        });
        got
    }

    #[test]
    fn flit_arrives_after_latency() {
        let mut l = test_links(&[3]);
        assert_eq!(l.send_flit(0, 10, 1, 1), 13);
        assert_eq!(l[0].flits_carried, 1);
        for now in 11..13 {
            assert_eq!(flits_at(&mut l, now), []);
        }
        assert_eq!(l.flits_in_flight(), 1);
        assert_eq!(flits_at(&mut l, 13), [(0, 1, 1)]);
        assert_eq!(flits_at(&mut l, 13), [], "only one flit was sent");
        assert_eq!(l.flits_in_flight(), 0);
    }

    #[test]
    fn credits_travel_independently() {
        let mut l = test_links(&[2]);
        l.send_credit(0, 5, 1);
        l.send_credit(0, 6, 0);
        assert_eq!(l.credits(0, 6).collect::<Vec<_>>(), [(7, 1), (8, 0)]);
        assert_eq!(credits_at(&mut l, 6), []);
        assert_eq!(credits_at(&mut l, 7), [(0, 1)]);
        assert_eq!(credits_at(&mut l, 7), []);
        assert_eq!(l.credits(0, 8).collect::<Vec<_>>(), [(8, 0)]);
        assert_eq!(credits_at(&mut l, 8), [(0, 0)]);
        assert_eq!(l.credits(0, 9).count(), 0);
    }

    #[test]
    fn in_flight_counts() {
        let mut l = test_links(&[5, 1]);
        assert_eq!(l.flits_in_flight(), 0);
        l.send_flit(0, 0, 0, 0);
        l.send_flit(1, 0, 0, 0);
        assert_eq!(l.flits_in_flight(), 2);
        assert_eq!(flits_at(&mut l, 1).len(), 1);
        assert_eq!(l.flits_in_flight(), 1);
        l.send_credit(1, 1, 0);
        l.clear_in_flight();
        assert_eq!(l.flits_in_flight(), 0);
        assert_eq!(l.credits(1, 1).count(), 0);
        assert_eq!(credits_at(&mut l, 2), []);
    }

    #[test]
    fn a_full_pipeline_wraps_the_wheel_in_order() {
        // One flit and one credit per cycle on every link, an injector's
        // schedule: sent before the cycle's delivery, so latency + 1
        // flits are in flight at once, and the buckets wrap many times.
        // The links' latencies differ, so they share buckets unevenly.
        let latencies = [1u32, 2, 3, 5];
        let mut l = test_links(&latencies);
        let mut next = [0u64; 4];
        for now in 0..40u64 {
            for li in 0..latencies.len() {
                l.send_flit(li, now, (now % 4) as usize, 0);
                l.send_credit(li, now, (now % 3) as u8);
            }
            let mut flits = flits_at(&mut l, now);
            flits.sort();
            let credits = credits_at(&mut l, now);
            let due: Vec<usize> = (0..4).filter(|&li| now >= latencies[li] as u64).collect();
            assert_eq!(flits.iter().map(|a| a.0).collect::<Vec<_>>(), due);
            assert_eq!(credits.len(), due.len());
            for (li, bit, _) in flits {
                assert_eq!(bit as u64, next[li] % 4, "link {li} at {now}");
                assert!(credits.contains(&(li, (next[li] % 3) as u8)));
                next[li] += 1;
            }
            for (li, &latency) in latencies.iter().enumerate() {
                let arrivals: Vec<u64> = l.credits(li, now + 1).map(|(at, _)| at).collect();
                let first = now.max(latency as u64 - 1) + 1;
                let expected: Vec<u64> = (first..=now + latency as u64).collect();
                assert_eq!(arrivals, expected, "link {li}: oldest first, one per cycle");
            }
        }
        for (li, &latency) in latencies.iter().enumerate() {
            assert_eq!(next[li], 40 - latency as u64);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "more than one flit per cycle on link 0")]
    fn a_second_flit_in_one_cycle_is_refused() {
        let mut l = test_links(&[2]);
        l.send_flit(0, 4, 0, 0);
        l.send_flit(0, 4, 1, 0);
    }

    #[test]
    #[should_panic(expected = "nothing is in flight")]
    fn a_longer_link_waits_for_empty_wheels() {
        let mut l = test_links(&[1]);
        l.send_credit(0, 0, 0);
        l.push(LinkKind::Interposer, 2, 0, 0, CreditDst::Injector { injector: 0 });
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        let _ = test_links(&[0]);
    }
}
