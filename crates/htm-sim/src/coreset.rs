//! Fixed-capacity multi-word core bitset.
//!
//! The coherence directory ([`crate::directory`]) tracks which cores hold a
//! cache line speculatively or cache it. With a single `u32` mask the
//! machine was structurally capped at 32 cores (`1 << tid` overflows beyond
//! core 31); [`CoreSet`] widens that to [`MAX_CORES`] while keeping the
//! properties the hot paths rely on:
//!
//! * `Copy` + cheap equality — the directory builds sets from its word rows
//!   by value.
//! * Ascending-id iteration via per-word `trailing_zeros` — the eager
//!   requester-wins victim walk dooms cores in ascending id order, and that
//!   order is part of the simulator's bit-identical contract.
//! * A single-word fast path: when `n_cores <= 64` only word 0 can ever be
//!   nonzero, so [`CoreSet::iter`] checks the upper words once and then
//!   scans one word, matching the old u32 loop's cost.

/// Hard upper bound on simulated cores; one [`CoreSet`] word per 64 ids.
pub const MAX_CORES: usize = 256;

pub(crate) const WORDS: usize = MAX_CORES / 64;

/// A set of core ids in `0..MAX_CORES`, stored as a flat bitmask.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoreSet([u64; WORDS]);

impl CoreSet {
    /// The set whose bitmask is `words` — how the directory's plain-integer
    /// rows become sets ([`Self::words`] is the way back).
    #[inline]
    pub(crate) fn from_words(words: [u64; WORDS]) -> CoreSet {
        CoreSet(words)
    }

    #[inline]
    pub(crate) fn words(self) -> [u64; WORDS] {
        self.0
    }

    #[inline]
    pub(crate) fn insert(&mut self, id: usize) {
        debug_assert!(id < MAX_CORES);
        self.0[id >> 6] |= 1u64 << (id & 63);
    }

    #[inline]
    pub(crate) fn remove(&mut self, id: usize) {
        debug_assert!(id < MAX_CORES);
        self.0[id >> 6] &= !(1u64 << (id & 63));
    }

    #[inline]
    pub(crate) fn contains(&self, id: usize) -> bool {
        debug_assert!(id < MAX_CORES);
        self.0[id >> 6] & (1u64 << (id & 63)) != 0
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.0 == [0; WORDS]
    }

    /// Set union — `readers | writers` in the conflict walk.
    #[inline]
    pub(crate) fn union(mut self, other: CoreSet) -> CoreSet {
        for (w, o) in self.0.iter_mut().zip(other.0) {
            *w |= o;
        }
        self
    }

    /// Iterate member ids in ascending order (the doom-order contract).
    #[inline]
    pub(crate) fn iter(&self) -> CoreSetIter {
        // Single-word fast path: with <= 64 cores the upper words are
        // structurally zero, so the iterator never visits them.
        let last = if self.0[1..].iter().all(|&w| w == 0) {
            1
        } else {
            WORDS
        };
        CoreSetIter {
            words: self.0,
            idx: 0,
            last,
        }
    }
}

/// Ascending-id iterator over a [`CoreSet`] snapshot.
pub(crate) struct CoreSetIter {
    words: [u64; WORDS],
    idx: usize,
    last: usize,
}

impl Iterator for CoreSetIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.idx < self.last {
            let w = self.words[self.idx];
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                self.words[self.idx] = w & (w - 1);
                return Some((self.idx << 6) | bit);
            }
            self.idx += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_across_words() {
        let mut s = CoreSet::default();
        assert!(s.is_empty());
        for id in [0, 31, 32, 63, 64, 127, 128, 255] {
            s.insert(id);
            assert!(s.contains(id));
        }
        assert!(!s.contains(1));
        assert!(!s.contains(129));
        s.remove(64);
        assert!(!s.contains(64));
        assert!(s.contains(63));
        assert!(s.contains(128));
    }

    #[test]
    fn iter_is_ascending_over_all_words() {
        let mut s = CoreSet::default();
        let ids = [255, 3, 64, 200, 0, 65, 127];
        for id in ids {
            s.insert(id);
        }
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        assert_eq!(s.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn union_merges_and_removal_clears() {
        let mut a = CoreSet::default();
        let mut b = CoreSet::default();
        a.insert(2);
        a.insert(100);
        b.insert(2);
        b.insert(70);
        let u = a.union(b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![2, 70, 100]);
        let mut u2 = u;
        u2.remove(2);
        u2.remove(70);
        u2.remove(100);
        assert!(u2.is_empty());
    }

    #[test]
    fn single_word_fast_path_bounds_iteration() {
        let mut s = CoreSet::default();
        s.insert(5);
        s.insert(63);
        let it = s.iter();
        assert_eq!(it.last, 1, "upper words empty: scan one word only");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 63]);
        s.insert(64);
        assert_eq!(s.iter().last, WORDS);
    }
}
