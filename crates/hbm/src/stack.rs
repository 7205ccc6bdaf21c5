//! An HBM stack: address decoding over channels, completion collection.

use crate::channel::{Channel, ChannelRequest};
use crate::config::HbmConfig;
use std::collections::VecDeque;

/// A memory access submitted by a cache bank on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Caller-chosen identifier returned in the [`Completion`].
    pub id: u64,
    /// Physical byte address.
    pub addr: u64,
    /// `true` for writes (adds write-recovery time).
    pub write: bool,
}

/// A finished memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id passed to [`HbmStack::enqueue`].
    pub id: u64,
    /// Cycle at which the data burst completed.
    pub finished_at: u64,
}

/// Error returned when a channel queue is full; the caller should retry
/// next cycle (this is the memory-side backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("channel request queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// "No event" in [`HbmStack`]'s channel schedule.
const NEVER: u64 = u64::MAX;

/// One HBM stack (8 per system, one behind each CB's memory controller).
#[derive(Debug, Clone)]
pub struct HbmStack {
    cfg: HbmConfig,
    channels: Vec<Channel>,
    /// Per channel, the first cycle at which its `step` can do anything
    /// ([`Channel::next_event`] as of its last step, [`NEVER`] when it
    /// was empty), lowered to the enqueue cycle by an enqueue. A step
    /// before it is a no-op, so [`HbmStack::step`] skips the channel.
    due: Vec<u64>,
    completed: VecDeque<Completion>,
    /// Total accesses accepted.
    pub accesses: u64,
    /// Reused completion scratch for `step` (keeps the hot loop
    /// allocation-free).
    done_scratch: Vec<(u64, u64)>,
}

impl HbmStack {
    /// Creates a stack.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: HbmConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid HBM config: {e}");
        }
        HbmStack {
            channels: (0..cfg.channels).map(|_| Channel::new(&cfg)).collect(),
            due: vec![NEVER; cfg.channels],
            completed: VecDeque::new(),
            accesses: 0,
            done_scratch: Vec::new(),
            cfg,
        }
    }

    /// Address decomposition: lines interleave across channels for
    /// parallelism, then fill a row's columns before moving to the next
    /// bank — the standard open-page-friendly HBM mapping, so sequential
    /// streams enjoy row-buffer hits.
    fn decode(&self, addr: u64) -> (usize, usize, u64) {
        let line = addr / self.cfg.line_bytes;
        let channel = (line % self.cfg.channels as u64) as usize;
        let rest = line / self.cfg.channels as u64;
        let lines_per_row = self.cfg.row_bytes / self.cfg.line_bytes;
        let bank_row = rest / lines_per_row;
        let bank = (bank_row % self.cfg.banks_per_channel as u64) as usize;
        let row = bank_row / self.cfg.banks_per_channel as u64;
        (channel, bank, row)
    }

    /// Submits an access at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the target channel's queue has no room;
    /// retry on a later cycle.
    pub fn enqueue(&mut self, acc: MemAccess, now: u64) -> Result<(), QueueFull> {
        let (ch, bank, row) = self.decode(acc.addr);
        if !self.channels[ch].can_accept() {
            return Err(QueueFull);
        }
        self.channels[ch].enqueue(ChannelRequest {
            id: acc.id,
            bank,
            row,
            write: acc.write,
            arrival: now,
        });
        self.due[ch] = self.due[ch].min(now);
        self.accesses += 1;
        Ok(())
    }

    /// Advances the stack to cycle `now`: steps the channels that have
    /// an event due — the others' steps would be no-ops.
    pub fn step(&mut self, now: u64) {
        let mut done = std::mem::take(&mut self.done_scratch);
        done.clear();
        for (ch, due) in self.channels.iter_mut().zip(&mut self.due) {
            if *due > now {
                continue;
            }
            ch.step(now, &self.cfg, &mut done);
            *due = ch.next_event().unwrap_or(NEVER);
        }
        for &(t, id) in &done {
            self.completed.push_back(Completion {
                id,
                finished_at: t,
            });
        }
        self.done_scratch = done;
    }

    /// The reference schedule: steps every channel at cycle `now`, due
    /// or not. The same as [`HbmStack::step`] whenever the skipped
    /// channels' steps are no-ops, which is what the tests of the
    /// schedule check; the schedule itself is left as it was.
    pub fn step_every_channel(&mut self, now: u64) {
        let mut done = Vec::new();
        for ch in &mut self.channels {
            ch.step(now, &self.cfg, &mut done);
        }
        let done = done.into_iter().map(|(finished_at, id)| Completion { id, finished_at });
        self.completed.extend(done);
    }

    /// Earliest future cycle at which [`HbmStack::step`] (or a
    /// [`HbmStack::pop_completed`] poll) could make progress, or `None`
    /// when the stack is completely empty. Undrained completions report
    /// `Some(0)`: the caller still has work to pick up *now*. Exact right
    /// after a step; an enqueue since then can only make it earlier than
    /// the true event, never later.
    pub fn next_event(&self) -> Option<u64> {
        if !self.completed.is_empty() {
            return Some(0);
        }
        self.due.iter().copied().min().filter(|&t| t != NEVER)
    }

    /// Pops one finished access, if any.
    pub fn pop_completed(&mut self) -> Option<Completion> {
        self.completed.pop_front()
    }

    /// Requests queued or in flight across all channels.
    pub fn outstanding(&self) -> usize {
        self.channels.iter().map(|c| c.outstanding()).sum::<usize>() + self.completed.len()
    }

    /// Aggregate row-buffer statistics: `(hits, misses, conflicts)`.
    pub fn row_stats(&self) -> (u64, u64, u64) {
        self.channels.iter().fold((0, 0, 0), |(h, m, c), ch| {
            let (h2, m2, c2) = ch.row_stats();
            (h + h2, m + m2, c + c2)
        })
    }

    /// Serializes the stack's dynamic state: every channel, the pending
    /// completion queue, and the accepted-access counter. The config, the
    /// channel schedule and the reusable step scratch buffer are
    /// build-time/derived/transient and not written.
    pub fn snap_state(&self, e: &mut equinox_snap::Enc) {
        e.put_usize(self.channels.len());
        for ch in &self.channels {
            ch.snap_state(e);
        }
        e.put_usize(self.completed.len());
        for c in &self.completed {
            e.put_u64(c.id);
            e.put_u64(c.finished_at);
        }
        e.put_u64(self.accesses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(stack: &mut HbmStack, until: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        for t in 0..until {
            stack.step(t);
            while let Some(c) = stack.pop_completed() {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn single_access_completes() {
        let mut s = HbmStack::new(HbmConfig::tiny());
        s.enqueue(MemAccess { id: 42, addr: 0x1000, write: false }, 0).unwrap();
        let done = run(&mut s, 200);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 42);
        assert!(done[0].finished_at >= 30, "at least tRCD+tCL+burst");
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn channel_interleave_spreads_lines() {
        let s = HbmStack::new(HbmConfig::hbm2());
        let (c0, _, _) = s.decode(0);
        let (c1, _, _) = s.decode(64);
        let (c2, _, _) = s.decode(128);
        assert_ne!(c0, c1);
        assert_ne!(c1, c2);
        let (c16, _, _) = s.decode(64 * 16);
        assert_eq!(c0, c16, "wraps after #channels lines");
    }

    #[test]
    fn parallel_channels_overlap() {
        // Two accesses to different channels finish at the same cycle;
        // two to the same channel are serialized by the bus.
        let cfg = HbmConfig::tiny();
        let mut s = HbmStack::new(cfg);
        s.enqueue(MemAccess { id: 1, addr: 0, write: false }, 0).unwrap();
        s.enqueue(MemAccess { id: 2, addr: 64, write: false }, 0).unwrap(); // other channel
        let done = run(&mut s, 300);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].finished_at, done[1].finished_at);
    }

    #[test]
    fn backpressure_when_queue_full() {
        let cfg = HbmConfig::tiny(); // queue_cap 4
        let mut s = HbmStack::new(cfg);
        let mut accepted = 0;
        for i in 0..10 {
            // All to channel 0 (addresses multiple of 128 with 2 channels).
            if s.enqueue(MemAccess { id: i, addr: i * 128, write: false }, 0).is_ok() {
                accepted += 1;
            }
        }
        assert!(accepted <= 5, "queue must fill: accepted {accepted}");
        assert!(s.enqueue(MemAccess { id: 11, addr: 11 * 128, write: false }, 0).is_err());
    }

    #[test]
    fn sequential_stream_gets_row_hits() {
        let mut s = HbmStack::new(HbmConfig::hbm2());
        // Stream 64 sequential lines; after the cold misses, the
        // open-page policy should produce plenty of row hits.
        for i in 0..64u64 {
            s.enqueue(MemAccess { id: i, addr: i * 64, write: false }, 0).unwrap();
        }
        let done = run(&mut s, 2000);
        assert_eq!(done.len(), 64);
        let (hits, misses, conflicts) = s.row_stats();
        assert!(hits > 0, "sequential stream must hit rows: {hits}/{misses}/{conflicts}");
    }

    #[test]
    fn throughput_approaches_peak_under_load() {
        let cfg = HbmConfig::hbm2();
        let mut s = HbmStack::new(cfg);
        let mut submitted = 0u64;
        let mut done = 0u64;
        let horizon = 2000u64;
        for t in 0..horizon {
            // Saturate: keep every channel queue topped up.
            for _ in 0..8 {
                let addr = submitted * 64;
                if s.enqueue(MemAccess { id: submitted, addr, write: false }, t).is_ok() {
                    submitted += 1;
                }
            }
            s.step(t);
            while s.pop_completed().is_some() {
                done += 1;
            }
        }
        let bytes_per_cycle = done as f64 * 64.0 / horizon as f64;
        let peak = cfg.peak_bytes_per_cycle();
        assert!(
            bytes_per_cycle > peak * 0.5,
            "sustained {bytes_per_cycle:.1} B/cy vs peak {peak:.1}"
        );
    }

    #[test]
    fn writes_complete_too() {
        let mut s = HbmStack::new(HbmConfig::tiny());
        s.enqueue(MemAccess { id: 7, addr: 0, write: true }, 0).unwrap();
        let done = run(&mut s, 300);
        assert_eq!(done.len(), 1);
    }

    /// Three stacks see the same request stream: one steps every channel
    /// every cycle, one is driven through [`HbmStack::step`] every cycle,
    /// and one is stepped only on the cycles the per-bank tick schedule
    /// would tick it (an accepted enqueue, or [`HbmStack::next_event`]
    /// coming due). Sequential runs give row hits, scattered ones row
    /// conflicts, a third of the accesses are writes, and bursts overrun
    /// the channel queues so requests wait to retry, oldest first.
    #[test]
    fn scheduled_channels_match_stepping_every_channel_every_cycle() {
        use equinox_exec::Rng;
        let (mut refused, mut conflicts) = (0, 0);
        for case in 0..12u64 {
            let mut rng = Rng::stream(0x4B4, case);
            let cfg = if case % 2 == 0 { HbmConfig::tiny() } else { HbmConfig::hbm2() };
            let mut stacks = [HbmStack::new(cfg), HbmStack::new(cfg), HbmStack::new(cfg)];
            let mut done: [Vec<Completion>; 3] = Default::default();
            let mut due = 0;
            let mut waiting: VecDeque<MemAccess> = VecDeque::new();
            let (mut next_id, mut seq_line) = (0, 0u64);
            for t in 0.. {
                let drained = waiting.is_empty() && stacks.iter().all(|s| s.outstanding() == 0);
                if t >= 3_000 && drained {
                    break;
                }
                assert!(t < 200_000, "case {case}: the stream never drained");
                if t < 3_000 && rng.random::<f64>() < 0.03 {
                    for _ in 0..rng.random_range(1..24u32) {
                        let line = if rng.random::<bool>() {
                            seq_line += 1;
                            seq_line
                        } else {
                            rng.random_range(0..1u64 << 14)
                        };
                        let write = rng.random_range(0..3u32) == 0;
                        waiting.push_back(MemAccess { id: next_id, addr: line * 64, write });
                        next_id += 1;
                    }
                }
                while let Some(&acc) = waiting.front() {
                    let ok = stacks[0].enqueue(acc, t).is_ok();
                    assert_eq!(stacks[1].enqueue(acc, t).is_ok(), ok, "cycle {t}");
                    assert_eq!(stacks[2].enqueue(acc, t).is_ok(), ok, "cycle {t}");
                    if !ok {
                        refused += 1;
                        break;
                    }
                    waiting.pop_front();
                    due = t;
                }
                stacks[0].step_every_channel(t);
                stacks[1].step(t);
                if t >= due {
                    stacks[2].step(t);
                    due = stacks[2].next_event().map_or(u64::MAX, |e| e.max(t + 1));
                }
                for (s, out) in stacks.iter_mut().zip(&mut done) {
                    out.extend(std::iter::from_fn(|| s.pop_completed()));
                }
            }
            assert_eq!(done[0].len() as u64, next_id, "case {case}");
            assert!(done[1] == done[0] && done[2] == done[0], "case {case}: completions differ");
            let stats = stacks[0].row_stats();
            assert!(stacks.iter().all(|s| s.row_stats() == stats), "case {case}");
            assert!(stats.0 > 0, "case {case}: no row hits");
            conflicts += stats.2;
        }
        assert!(refused > 0, "no channel queue ever filled");
        assert!(conflicts > 0, "no row conflict");
    }
}
