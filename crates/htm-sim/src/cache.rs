//! Set-associative presence tracking with LRU replacement.
//!
//! Used three ways: per-core L1 presence (latency + speculative capacity),
//! per-core L2 presence, and shared L3 presence. Only line indices are
//! tracked — data lives in the flat simulated memory; this structure decides
//! *hit level*, and for the L1, *when a transaction overflows* (a 9th
//! speculative line mapping to an 8-way set).

/// One way of a set: `(line, last-use stamp)`; stamp 0 marks it empty.
type Way = (u64, u64);

/// One set-associative cache level tracking line presence.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// A set's ways are allocated on its first fill, four at a time: most
    /// of a large machine's sets are never touched, and an all-`None`
    /// vector is allocated as zeroed pages, so an idle level costs no
    /// resident memory.
    sets: Vec<Option<Box<[Way]>>>,
    ways: usize,
    stamp: u64,
}

impl CacheArray {
    pub fn new(n_sets: usize, ways: usize) -> Self {
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            sets: vec![None; n_sets],
            ways,
            stamp: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets.len() - 1)
    }

    /// The occupied ways of `line`'s set.
    fn set(&self, line: u64) -> impl Iterator<Item = &Way> {
        let ways = self.sets[self.set_of(line)].as_deref().unwrap_or(&[]);
        ways.iter().filter(|w| w.1 != 0)
    }

    /// `line`'s way, if present.
    fn way_mut(&mut self, line: u64) -> Option<&mut Way> {
        let s = self.set_of(line);
        let ways = self.sets[s].as_deref_mut().unwrap_or(&mut []);
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
        let ways = self.sets[s].get_or_insert_with(Box::default);
        if let Some(free) = ways.iter_mut().find(|w| w.1 == 0) {
            *free = (line, stamp);
            return Ok(None);
        }
        if ways.len() < self.ways {
            let mut grown = vec![(0, 0); (2 * ways.len()).max(4).min(self.ways)];
            grown[..ways.len()].copy_from_slice(ways);
            grown[ways.len()] = (line, stamp);
            self.sets[s] = Some(grown.into());
            return Ok(None);
        }
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
        let occupied = |ways: &[Way]| ways.iter().filter(|w| w.1 != 0).count();
        self.sets.iter().flatten().map(|w| occupied(w)).sum()
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
