//! Activity worklists as `u64`-word bitsets.
//!
//! The gated sweep must visit active routers in exactly the order the
//! exhaustive `for id in 0..n` sweep would. A bitset gives
//! that by construction — ascending words, ascending bits within a
//! word — with an O(1) idempotent insert. The same holds for the set of
//! routers with a parked ejected flit, which sink drains walk with a
//! cursor in the order a poll of every router would.

/// A set over a dense id space.
#[derive(Debug, Default)]
pub(crate) struct Worklist {
    words: Vec<u64>,
}

impl Worklist {
    /// An empty set over ids `0..n`.
    pub(crate) fn with_len(n: usize) -> Self {
        Worklist {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Adds `id`; a no-op if already present.
    #[inline]
    pub(crate) fn insert(&mut self, id: usize) {
        self.words[id >> 6] |= 1 << (id & 63);
    }

    /// Removes `id`; a no-op if absent.
    #[inline]
    pub(crate) fn remove(&mut self, id: usize) {
        self.words[id >> 6] &= !(1 << (id & 63));
    }

    /// `true` when the set has no member.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member at or after `from`, if any — a cursor for
    /// callers that walk the set in ascending order while changing it
    /// (removing the id just returned, or any other, is fine).
    #[inline]
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut word = *self.words.get(w)? & (u64::MAX << (from & 63));
        while word == 0 {
            w += 1;
            word = *self.words.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Calls `visit` on every member in ascending id order and drops the
    /// members for which it returns `false`. Ids inserted or removed
    /// through another handle while a word is being walked are not seen
    /// until the next sweep, so callers sweep a set they have taken out
    /// of its owner (no phase of `Network::step` inserts into the set it
    /// is sweeping).
    #[inline]
    pub(crate) fn sweep(&mut self, mut visit: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut left = *word;
            while left != 0 {
                let bit = left.trailing_zeros() as usize;
                left &= left - 1;
                if !visit(w * 64 + bit) {
                    *word &= !(1 << bit);
                }
            }
        }
    }

    /// The members in ascending order.
    #[cfg(test)]
    pub(crate) fn ids(&self) -> Vec<usize> {
        let mut copy = Worklist {
            words: self.words.clone(),
        };
        let mut out = Vec::new();
        copy.sweep(|id| {
            out.push(id);
            true
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_visits_ascending_across_word_boundaries() {
        let mut w = Worklist::with_len(200);
        for id in [199, 64, 0, 63, 128, 65, 127, 64, 0] {
            w.insert(id);
        }
        assert_eq!(w.ids(), vec![0, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn sweep_drops_exactly_the_rejected_ids() {
        let mut w = Worklist::with_len(130);
        for id in 0..130 {
            w.insert(id);
        }
        let mut seen = Vec::new();
        w.sweep(|id| {
            seen.push(id);
            id % 3 == 0
        });
        assert_eq!(
            seen,
            (0..130).collect::<Vec<_>>(),
            "dropping the current id must not skip its neighbours"
        );
        assert_eq!(
            w.ids(),
            (0..130).filter(|id| id % 3 == 0).collect::<Vec<_>>()
        );
        w.sweep(|_| false);
        assert!(w.ids().is_empty());
    }

    #[test]
    fn cursor_walks_ascending_while_members_are_removed() {
        let mut w = Worklist::with_len(200);
        assert!(w.is_empty());
        assert_eq!(w.next_from(0), None);
        for id in [0, 63, 64, 130, 199] {
            w.insert(id);
        }
        assert!(!w.is_empty());
        assert_eq!(w.next_from(0), Some(0));
        assert_eq!(w.next_from(1), Some(63));
        assert_eq!(w.next_from(63), Some(63));
        assert_eq!(w.next_from(65), Some(130));
        assert_eq!(w.next_from(200), None, "one past the id space");
        assert_eq!(w.next_from(10_000), None, "far past the id space");
        // The drain pattern: take the next member, maybe remove it, move on.
        let (mut from, mut seen) = (0, Vec::new());
        while let Some(id) = w.next_from(from) {
            seen.push(id);
            if id % 2 == 0 {
                w.remove(id);
            }
            from = id + 1;
        }
        assert_eq!(seen, vec![0, 63, 64, 130, 199]);
        assert_eq!(w.ids(), vec![63, 199]);
        w.remove(5); // absent: no-op
        assert_eq!(w.ids(), vec![63, 199]);
    }
}
