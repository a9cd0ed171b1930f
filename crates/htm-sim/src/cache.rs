//! Set-associative presence tracking with LRU replacement.
//!
//! Used three ways: per-core L1 presence (latency + speculative capacity),
//! per-core L2 presence, and shared L3 presence. Only line indices are
//! tracked — data lives in the flat simulated memory; this structure decides
//! *hit level*, and for the L1, *when a transaction overflows* (a 9th
//! speculative line mapping to an 8-way set).
//!
//! Host layout: a level is a table of `u32` set handles plus one pool of
//! ways the touched sets take groups from, so an idle level is zeroed pages
//! and a used one is two allocations whatever the run touched.

/// One way of a set: `(line, last-use stamp)`; stamp 0 marks it empty.
type Way = (u64, u64);

/// Ways in a set's first group; a set that fills it moves to a full group.
const FIRST_GROUP: usize = 4;

/// One set-associative cache level tracking line presence.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// One handle per set: 0 until the set's first fill, else
    /// `(start + 1) << 1 | grown` naming its group of ways in `pool`. Most
    /// of a large machine's sets are never touched, and an all-zero vector
    /// is allocated as zeroed pages, so an idle level costs no resident
    /// memory.
    sets: Vec<u32>,
    /// Every touched set's ways: a group of [`FIRST_GROUP`] on the set's
    /// first fill, a group of all `ways` once that is full (the group it
    /// leaves stays behind, unreferenced). One block per array, so a level
    /// is freed in one call however many sets a run touched.
    pool: Vec<Way>,
    ways: usize,
    stamp: u64,
}

impl CacheArray {
    pub fn new(n_sets: usize, ways: usize) -> Self {
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            sets: vec![0; n_sets],
            pool: Vec::new(),
            ways,
            stamp: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets.len() - 1)
    }

    /// Ways in a set's first (`grown == false`) or second group.
    #[inline]
    fn group_len(&self, grown: bool) -> usize {
        if grown {
            self.ways
        } else {
            self.ways.min(FIRST_GROUP)
        }
    }

    /// Where set `s`'s ways sit in the pool (empty before its first fill).
    #[inline]
    fn group(&self, s: usize) -> std::ops::Range<usize> {
        let h = self.sets[s] as usize;
        if h == 0 {
            return 0..0;
        }
        let start = (h >> 1) - 1;
        start..start + self.group_len(h & 1 == 1)
    }

    /// The occupied ways of `line`'s set.
    fn set(&self, line: u64) -> impl Iterator<Item = &Way> {
        let ways = &self.pool[self.group(self.set_of(line))];
        ways.iter().filter(|w| w.1 != 0)
    }

    /// `line`'s way, if present.
    fn way_mut(&mut self, line: u64) -> Option<&mut Way> {
        let g = self.group(self.set_of(line));
        let ways = &mut self.pool[g];
        ways.iter_mut().find(|w| w.1 != 0 && w.0 == line)
    }

    /// Is `line` present? (Does not update LRU.)
    pub fn contains(&self, line: u64) -> bool {
        self.set(line).any(|w| w.0 == line)
    }

    /// Touch `line`: returns `true` on hit (LRU updated). On miss the line
    /// is *not* inserted; call [`Self::insert`].
    pub fn touch(&mut self, line: u64) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.way_mut(line) {
            Some(w) => {
                w.1 = stamp;
                true
            }
            None => false,
        }
    }

    /// Insert `line`, evicting the LRU way if the set is full; `pinned`
    /// lines (a transaction's speculative footprint) are never chosen as
    /// victims. Returns `Err(())` if every way is pinned — a speculative
    /// capacity overflow. On success returns the evicted line, if any.
    #[allow(clippy::result_unit_err)]
    pub fn insert(
        &mut self,
        line: u64,
        is_pinned: impl Fn(u64) -> bool,
    ) -> Result<Option<u64>, ()> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(w) = self.way_mut(line) {
            w.1 = stamp;
            return Ok(None);
        }
        let s = self.set_of(line);
        let g = self.group(s);
        if let Some(free) = self.pool[g.clone()].iter_mut().find(|w| w.1 == 0) {
            *free = (line, stamp);
            return Ok(None);
        }
        if g.len() < self.ways {
            // Move the set to a fresh group at the end of the pool.
            let start = self.pool.len();
            let grown = !g.is_empty();
            self.pool.extend_from_within(g);
            self.pool.push((line, stamp));
            self.pool.resize(start + self.group_len(grown), (0, 0));
            self.sets[s] = u32::try_from((start + 1) << 1 | usize::from(grown))
                .expect("cache way pool outgrew its u32 handles");
            return Ok(None);
        }
        let ways = &mut self.pool[g];
        // Choose the least-recently-used unpinned way.
        let victim = (ways.iter_mut())
            .filter(|w| !is_pinned(w.0))
            .min_by_key(|w| w.1)
            .ok_or(())?;
        let evicted = victim.0;
        *victim = (line, stamp);
        Ok(Some(evicted))
    }

    /// Remove a specific line (e.g., invalidation on cross-core write).
    pub fn remove(&mut self, line: u64) {
        if let Some(w) = self.way_mut(line) {
            w.1 = 0;
        }
    }

    /// Total lines currently present.
    pub fn len(&self) -> usize {
        let occupied = |s| self.pool[self.group(s)].iter().filter(|w| w.1 != 0).count();
        (0..self.sets.len()).map(occupied).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = CacheArray::new(4, 2);
        assert!(!c.touch(10));
        c.insert(10, |_| false).unwrap();
        assert!(c.touch(10));
        assert!(c.contains(10));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = CacheArray::new(1, 2); // one set, 2 ways
        c.insert(1, |_| false).unwrap();
        c.insert(2, |_| false).unwrap();
        c.touch(1); // 2 is now LRU
        let evicted = c.insert(3, |_| false).unwrap();
        assert_eq!(evicted, Some(2));
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn pinned_lines_survive() {
        let mut c = CacheArray::new(1, 2);
        c.insert(1, |_| false).unwrap();
        c.insert(2, |_| false).unwrap();
        let evicted = c.insert(3, |l| l == 1).unwrap();
        assert_eq!(evicted, Some(2)); // 1 pinned, so 2 evicted even if 1 is LRU
        assert!(c.contains(1));
    }

    #[test]
    fn all_pinned_overflows() {
        let mut c = CacheArray::new(1, 2);
        c.insert(1, |_| false).unwrap();
        c.insert(2, |_| false).unwrap();
        assert_eq!(c.insert(3, |_| true), Err(()));
    }

    #[test]
    fn set_mapping_isolates_sets() {
        let mut c = CacheArray::new(2, 1);
        c.insert(0, |_| false).unwrap(); // set 0
        c.insert(1, |_| false).unwrap(); // set 1
        assert!(c.contains(0) && c.contains(1));
        // Line 2 maps to set 0, evicting 0 but not 1.
        c.insert(2, |_| false).unwrap();
        assert!(!c.contains(0) && c.contains(1) && c.contains(2));
    }

    #[test]
    fn remove_deletes() {
        let mut c = CacheArray::new(4, 2);
        c.insert(5, |_| false).unwrap();
        c.remove(5);
        assert!(!c.contains(5));
        assert!(c.is_empty());
    }

    #[test]
    fn growth_keeps_contents_and_lru_order() {
        let mut c = CacheArray::new(2, 8);
        for line in [0, 2, 4, 6] {
            c.insert(line, |_| false).unwrap();
        }
        c.insert(1, |_| false).unwrap(); // the other set, pooled after set 0
        c.touch(0); // 2 is now set 0's LRU
        for line in [8, 10, 12, 14] {
            assert_eq!(c.insert(line, |_| false), Ok(None), "4 -> 8 evicts nothing");
        }
        assert!([0, 2, 4, 6, 8, 10, 12, 14, 1]
            .iter()
            .all(|&l| c.contains(l)));
        // The abandoned four-way group still holds copies; they do not count.
        assert_eq!(c.len(), 9);
        assert_eq!(c.insert(16, |_| false), Ok(Some(2)));
        assert_eq!(c.insert(18, |_| false), Ok(Some(4)));
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn insert_reuses_a_removed_way() {
        let mut c = CacheArray::new(1, 2);
        c.insert(1, |_| false).unwrap();
        c.insert(2, |_| false).unwrap();
        c.remove(1);
        assert_eq!(c.insert(3, |_| false), Ok(None), "freed way, no eviction");
        assert!(c.contains(2) && c.contains(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.pool.len(), 2, "no new group for a set with a free way");
    }

    #[test]
    fn reinsert_refreshes_lru() {
        let mut c = CacheArray::new(1, 2);
        c.insert(1, |_| false).unwrap();
        c.insert(2, |_| false).unwrap();
        c.insert(1, |_| false).unwrap(); // refresh, no eviction
        assert_eq!(c.len(), 2);
        let evicted = c.insert(3, |_| false).unwrap();
        assert_eq!(evicted, Some(2));
    }
}
