//! Set-associative presence tracking with LRU replacement.
//!
//! Used three ways: per-core L1 presence (latency + speculative capacity),
//! per-core L2 presence, and shared L3 presence. Only line indices are
//! tracked — data lives in the simulated memory's rows; this structure
//! decides *hit level*, and for the L1, *when a transaction overflows* (a
//! 9th speculative line mapping to an 8-way set).
//!
//! Host layout: a level is a table of `u32` set handles plus one pool of
//! 4-byte ways the touched sets take groups from, so an idle level is
//! zeroed pages and a used one is two allocations whatever the run touched.
//! A group keeps its lines in recency order — most recent first, empty ways
//! last — so the order itself is the LRU state: no stamps.

/// An empty way: memory holds fewer lines, and the machine range-checks a
/// line before its caches.
const EMPTY: u32 = u32::MAX;

/// Ways in a set's first group; a set that fills it moves to a full group.
const FIRST_GROUP: usize = 4;

/// Can a level of `sets` × `ways` be built? Its pool holds at most `ways +
/// FIRST_GROUP` ways per set, and below 2^31 of them every set handle
/// `(start + 1) << 1 | grown` fits a `u32`.
pub(crate) fn fits(sets: usize, ways: usize) -> bool {
    let slots = ways
        .checked_add(FIRST_GROUP)
        .and_then(|w| w.checked_mul(sets));
    slots.is_some_and(|n| n < 1 << 31)
}

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
    pool: Vec<u32>,
    ways: usize,
}

fn key(line: u64) -> u32 {
    debug_assert!(line < EMPTY as u64, "simulated line {line:#x} out of range");
    line as u32
}

/// Move `ways[at]` to the front, replacing it by `k`: the ways before it
/// shift back by one.
fn to_front(ways: &mut [u32], at: usize, k: u32) {
    for i in (0..at).rev() {
        ways[i + 1] = ways[i];
    }
    ways[0] = k;
}

impl CacheArray {
    pub fn new(n_sets: usize, ways: usize) -> Self {
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "a cache level needs at least one way");
        CacheArray {
            sets: vec![0; n_sets],
            pool: Vec::new(),
            ways,
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

    /// Is `line` present? (Does not update LRU.)
    pub fn contains(&self, line: u64) -> bool {
        self.pool[self.group(self.set_of(line))].contains(&key(line))
    }

    /// Touch `line`: returns `true` on hit (LRU updated). On miss the line
    /// is *not* inserted; call [`Self::insert`].
    pub fn touch(&mut self, line: u64) -> bool {
        let (k, g) = (key(line), self.group(self.set_of(line)));
        let ways = &mut self.pool[g];
        match ways.iter().position(|&w| w == k) {
            Some(at) => {
                to_front(ways, at, k);
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
        let (k, s) = (key(line), self.set_of(line));
        let g = self.group(s);
        let ways = &mut self.pool[g.clone()];
        // Occupied ways come first, so this finds `line` if present, else
        // the first empty way.
        if let Some(at) = ways.iter().position(|&w| w == k || w == EMPTY) {
            to_front(ways, at, k);
            return Ok(None);
        }
        if ways.len() < self.ways {
            // Move the set to a fresh group at the end of the pool.
            let start = self.pool.len();
            let grown = !g.is_empty();
            self.pool.push(k);
            self.pool.extend_from_within(g);
            self.pool.resize(start + self.group_len(grown), EMPTY);
            self.sets[s] = u32::try_from((start + 1) << 1 | usize::from(grown))
                .expect("cache way pool outgrew its u32 handles");
            return Ok(None);
        }
        // The least-recently-used unpinned way.
        let at = ways.iter().rposition(|&w| !is_pinned(w.into())).ok_or(())?;
        let evicted = ways[at];
        to_front(ways, at, k);
        Ok(Some(evicted.into()))
    }

    /// Remove a specific line (e.g., invalidation on cross-core write),
    /// closing the gap it leaves.
    pub fn remove(&mut self, line: u64) {
        let (k, g) = (key(line), self.group(self.set_of(line)));
        let ways = &mut self.pool[g];
        if let Some(at) = ways.iter().position(|&w| w == k) {
            for i in at + 1..ways.len() {
                ways[i - 1] = ways[i];
            }
            ways[ways.len() - 1] = EMPTY;
        }
    }

    /// Total lines currently present.
    pub fn len(&self) -> usize {
        let occupied = |s| {
            self.pool[self.group(s)]
                .iter()
                .filter(|&&w| w != EMPTY)
                .count()
        };
        (0..self.sets.len()).map(occupied).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stagger_prng::Xoshiro256StarStar;

    /// Reference model: per-set `(line, last-use stamp)` ways, stamp 0 for
    /// empty, the victim the unpinned way with the smallest stamp.
    struct StampLru {
        sets: Vec<Vec<(u64, u64)>>,
        stamp: u64,
    }

    impl StampLru {
        fn new(n_sets: usize, ways: usize) -> Self {
            StampLru {
                sets: vec![vec![(0, 0); ways]; n_sets],
                stamp: 0,
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<(u64, u64)> {
            let n = self.sets.len();
            &mut self.sets[line as usize & (n - 1)]
        }

        fn contains(&self, line: u64) -> bool {
            let set = &self.sets[line as usize & (self.sets.len() - 1)];
            set.iter().any(|w| w.1 != 0 && w.0 == line)
        }

        fn touch(&mut self, line: u64) -> bool {
            self.stamp += 1;
            let stamp = self.stamp;
            let way = self.set(line).iter_mut().find(|w| w.1 != 0 && w.0 == line);
            way.map(|w| w.1 = stamp).is_some()
        }

        fn insert(
            &mut self,
            line: u64,
            is_pinned: impl Fn(u64) -> bool,
        ) -> Result<Option<u64>, ()> {
            if self.touch(line) {
                return Ok(None);
            }
            let stamp = self.stamp;
            let set = self.set(line);
            if let Some(free) = set.iter_mut().find(|w| w.1 == 0) {
                *free = (line, stamp);
                return Ok(None);
            }
            let victim = (set.iter_mut())
                .filter(|w| !is_pinned(w.0))
                .min_by_key(|w| w.1)
                .ok_or(())?;
            Ok(Some(std::mem::replace(victim, (line, stamp)).0))
        }

        fn remove(&mut self, line: u64) {
            if let Some(w) = self.set(line).iter_mut().find(|w| w.1 != 0 && w.0 == line) {
                w.1 = 0;
            }
        }

        fn len(&self) -> usize {
            self.sets.iter().flatten().filter(|w| w.1 != 0).count()
        }
    }

    #[test]
    fn recency_order_is_the_stamp_lru() {
        for (n_sets, ways) in [(1, 1), (1, 2), (2, 8), (4, 4), (128, 8)] {
            let mut rng = Xoshiro256StarStar::seed_from_u64((n_sets * 100 + ways) as u64);
            let (mut c, mut m) = (CacheArray::new(n_sets, ways), StampLru::new(n_sets, ways));
            // Enough distinct lines to keep every set overfull.
            let lines = 3 * (n_sets * ways) as u64;
            for step in 0..20_000 {
                let line = rng.below(lines);
                let at = format!("{n_sets}x{ways}, step {step}, line {line}");
                match rng.below(10) {
                    0..=2 => assert_eq!(c.touch(line), m.touch(line), "touch, {at}"),
                    3..=6 => {
                        // A random predicate: pins about a third of lines.
                        let salt = rng.next_u64();
                        let pinned = |l: u64| {
                            (l ^ salt)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .is_multiple_of(3)
                        };
                        assert_eq!(
                            c.insert(line, pinned),
                            m.insert(line, pinned),
                            "insert, {at}"
                        );
                    }
                    7 => {
                        c.remove(line);
                        m.remove(line);
                    }
                    8 => assert_eq!(c.contains(line), m.contains(line), "contains, {at}"),
                    _ => assert_eq!(c.len(), m.len(), "len, {at}"),
                }
            }
            assert_eq!(c.len(), m.len());
        }
    }

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
