//! A memory channel: banks, a shared data bus, and an FR-FCFS scheduler.
//!
//! FR-FCFS ("first-ready, first-come-first-served", Table 1) issues the
//! oldest request whose bank is ready *and* whose row is open (a row hit);
//! if no hit is ready it falls back to the oldest ready request. The data
//! bus serializes bursts: at most one access begins per `t_burst` window.

use crate::bank::Bank;
use crate::config::HbmConfig;
use std::collections::VecDeque;

/// A request queued inside a channel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelRequest {
    pub id: u64,
    pub bank: usize,
    pub row: u64,
    pub write: bool,
    /// Enqueue cycle — kept for queue-age statistics and debugging.
    #[allow(dead_code)]
    pub arrival: u64,
}

/// One HBM channel.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    banks: Vec<Bank>,
    queue: VecDeque<ChannelRequest>,
    /// Cycle until which the data bus is claimed by the last issue.
    bus_busy_until: u64,
    /// Issued requests awaiting completion: (finish_cycle, id).
    in_service: Vec<(u64, u64)>,
    cap: usize,
}

impl Channel {
    pub(crate) fn new(cfg: &HbmConfig) -> Self {
        Channel {
            banks: (0..cfg.banks_per_channel).map(|_| Bank::default()).collect(),
            queue: VecDeque::new(),
            bus_busy_until: 0,
            in_service: Vec::new(),
            cap: cfg.queue_cap,
        }
    }

    /// `true` if the queue has room for another request.
    pub(crate) fn can_accept(&self) -> bool {
        self.queue.len() < self.cap
    }

    /// Enqueues a request; caller must have checked [`Channel::can_accept`].
    pub(crate) fn enqueue(&mut self, req: ChannelRequest) {
        debug_assert!(self.can_accept());
        self.queue.push_back(req);
    }

    /// One scheduling step at cycle `now`; completed request ids are pushed
    /// into `done`.
    pub(crate) fn step(&mut self, now: u64, cfg: &HbmConfig, done: &mut Vec<(u64, u64)>) {
        // Retire finished accesses.
        let mut i = 0;
        while i < self.in_service.len() {
            if self.in_service[i].0 <= now {
                let (t, id) = self.in_service.swap_remove(i);
                done.push((t, id));
            } else {
                i += 1;
            }
        }
        // Issue at most one access per bus slot.
        if now < self.bus_busy_until {
            return;
        }
        let pick = self.pick(now);
        if let Some(qi) = pick {
            let req = self.queue.remove(qi).expect("index valid");
            let finish = self.banks[req.bank].access(req.row, req.write, now, &cfg.timing);
            self.bus_busy_until = now + cfg.timing.t_burst;
            self.in_service.push((finish, req.id));
        }
    }

    /// FR-FCFS pick: oldest ready row-hit, else oldest ready request.
    fn pick(&self, now: u64) -> Option<usize> {
        let mut first_ready: Option<usize> = None;
        for (qi, req) in self.queue.iter().enumerate() {
            let bank = &self.banks[req.bank];
            if !bank.ready(now) {
                continue;
            }
            if bank.probe(req.row) == crate::bank::RowOutcome::Hit {
                return Some(qi); // oldest hit (queue is FIFO-ordered)
            }
            if first_ready.is_none() {
                first_ready = Some(qi);
            }
        }
        first_ready
    }

    /// Outstanding work (queued + in service).
    pub(crate) fn outstanding(&self) -> usize {
        self.queue.len() + self.in_service.len()
    }

    /// Earliest future cycle at which [`Channel::step`] could do
    /// anything: the soonest in-service completion, or — when requests
    /// are queued — the first cycle an issue could happen (every bank a
    /// queued request targets is busy until then, and the bus may hold
    /// the issue back further). `None` when the channel is empty.
    ///
    /// Exact with respect to the FR-FCFS scheduler: `pick` returns
    /// `None` strictly before the returned cycle (no targeted bank is
    /// ready and the retire loop has nothing due), so skipped `step`
    /// calls are no-ops.
    pub(crate) fn next_event(&self) -> Option<u64> {
        let mut next = self.in_service.iter().map(|&(t, _)| t).min();
        if !self.queue.is_empty() {
            let bank_free = self
                .queue
                .iter()
                .map(|r| self.banks[r.bank].busy_until())
                .min()
                .expect("queue nonempty");
            let issue = bank_free.max(self.bus_busy_until);
            next = Some(next.map_or(issue, |n| n.min(issue)));
        }
        next
    }

    /// Aggregate row-buffer statistics over all banks:
    /// `(hits, misses, conflicts)`.
    pub(crate) fn row_stats(&self) -> (u64, u64, u64) {
        self.banks.iter().fold((0, 0, 0), |(h, m, c), b| {
            (h + b.hits, m + b.misses, c + b.conflicts)
        })
    }

    /// Serializes the channel's dynamic state (banks, queue, bus, the
    /// in-service list). `cap` is build-time config and not written.
    pub(crate) fn snap_state(&self, e: &mut equinox_snap::Enc) {
        use equinox_snap::Snap;
        self.banks.snap(e);
        self.queue.snap(e);
        e.put_u64(self.bus_busy_until);
        self.in_service.snap(e);
    }
}

impl equinox_snap::Snap for ChannelRequest {
    fn snap(&self, e: &mut equinox_snap::Enc) {
        e.put_u64(self.id);
        e.put_usize(self.bank);
        e.put_u64(self.row);
        e.put_bool(self.write);
        e.put_u64(self.arrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, bank: usize, row: u64, arrival: u64) -> ChannelRequest {
        ChannelRequest {
            id,
            bank,
            row,
            write: false,
            arrival,
        }
    }

    fn run_until_done(ch: &mut Channel, cfg: &HbmConfig, n: usize, max: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        for t in 0..max {
            ch.step(t, cfg, &mut done);
            if done.len() == n {
                break;
            }
        }
        done
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let cfg = HbmConfig::tiny();
        let mut ch = Channel::new(&cfg);
        // Open row 1 on bank 0 first.
        ch.enqueue(req(1, 0, 1, 0));
        let mut done = Vec::new();
        for t in 0..100 {
            ch.step(t, &cfg, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        // Now a conflict request (row 2) arrives BEFORE a hit (row 1);
        // FR-FCFS must issue the hit first.
        ch.enqueue(req(2, 0, 2, 100));
        ch.enqueue(req(3, 0, 1, 101));
        let mut finished = Vec::new();
        for t in 100..600 {
            ch.step(t, &cfg, &mut finished);
            if finished.len() == 2 {
                break;
            }
        }
        assert_eq!(finished[0].1, 3, "row hit must be serviced first");
        assert_eq!(finished[1].1, 2);
    }

    #[test]
    fn queue_capacity_enforced() {
        let cfg = HbmConfig::tiny(); // cap = 4
        let mut ch = Channel::new(&cfg);
        for i in 0..4 {
            assert!(ch.can_accept());
            ch.enqueue(req(i, 0, 0, 0));
        }
        assert!(!ch.can_accept());
    }

    #[test]
    fn bus_serializes_issues() {
        let cfg = HbmConfig::tiny();
        let mut ch = Channel::new(&cfg);
        // Two requests to different banks, same row-miss latency: they
        // finish t_burst apart because the bus staggers them.
        ch.enqueue(req(1, 0, 0, 0));
        ch.enqueue(req(2, 1, 0, 0));
        let done = run_until_done(&mut ch, &cfg, 2, 500);
        assert_eq!(done.len(), 2);
        let d1 = done.iter().find(|d| d.1 == 1).unwrap().0;
        let d2 = done.iter().find(|d| d.1 == 2).unwrap().0;
        assert_eq!(d2 - d1, cfg.timing.t_burst);
    }

    #[test]
    fn outstanding_tracks_lifecycle() {
        let cfg = HbmConfig::tiny();
        let mut ch = Channel::new(&cfg);
        assert_eq!(ch.outstanding(), 0);
        ch.enqueue(req(1, 0, 0, 0));
        assert_eq!(ch.outstanding(), 1);
        let _ = run_until_done(&mut ch, &cfg, 1, 500);
        assert_eq!(ch.outstanding(), 0);
    }
}
