//! Indexed min-(key, id) scheduling: a plain binary heap with a position
//! index.
//!
//! The event loop ([`crate::sim::SimState::schedule`]) repeatedly
//! needs "the unfinished core with the minimum `(key, id)`, plus the exact
//! runner-up". A core's key is its logical clock while it runs and its wake
//! deadline while it is parked in [`crate::machine::Core::wait_on`], so keys
//! move both ways: they rise as a core executes or parks, and *fall* when a
//! writer unparks a waiter. [`MinHeap`] therefore keeps `pos[id]`, each
//! core's slot in the heap array, and one [`MinHeap::update`] that
//! overwrites the key and sifts in whichever direction restores the heap
//! order. The simulator calls it for the core that just ran and on every
//! park, unpark and retirement; nothing is repaired lazily, so the root is
//! always the true minimum and the exact runner-up is the smaller of the
//! root's two children.

/// "No runner-up" horizon: strictly greater than any live `(key, id)` pair
/// (a live id is `< MAX_CORES`).
const NONE: (u64, usize) = (u64::MAX, usize::MAX);

/// Host-side scheduling counters (never part of the simulated state;
/// reported by the `scaling` exhibit and the `--json` reports).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Calls to [`crate::sim::SimState::schedule`] (one per resumption).
    pub schedule_calls: u64,
    /// Heap key updates (the core that just ran, parks, unparks). The name
    /// predates the indexed heap; the benchmark reads it.
    pub stale_refreshes: u64,
    /// Times a core parked in [`crate::machine::Core::wait_on`].
    pub parks: u64,
    /// Gated operations accounted by fast-forwarding a parked core instead
    /// of executing them (included in `CoreStats::gated_ops`).
    pub elided_ops: u64,
}

/// Binary min-heap over `(key, id)`, one entry per unretired core.
#[derive(Debug)]
pub(crate) struct MinHeap {
    heap: Vec<(u64, usize)>,
    /// `pos[id]` is `id`'s index in `heap`; `usize::MAX` once retired.
    pos: Vec<usize>,
}

impl MinHeap {
    /// Heap holding `(0, id)` for every core — the simulator's initial
    /// clocks, already heap-ordered.
    pub(crate) fn new(n_cores: usize) -> MinHeap {
        MinHeap {
            heap: (0..n_cores).map(|i| (0, i)).collect(),
            pos: (0..n_cores).collect(),
        }
    }

    fn place(&mut self, i: usize, e: (u64, usize)) {
        self.heap[i] = e;
        self.pos[e.1] = i;
    }

    /// Move the entry at `i` to where the heap order wants it.
    fn sift(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 && e < self.heap[(i - 1) / 2] {
            let up = (i - 1) / 2;
            self.place(i, self.heap[up]);
            i = up;
        }
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let c = if r < self.heap.len() && self.heap[r] < self.heap[l] {
                r
            } else {
                l
            };
            if self.heap[c] >= e {
                break;
            }
            self.place(i, self.heap[c]);
            i = c;
        }
        self.place(i, e);
    }

    /// Set `id`'s key; returns whether it changed. No-op for a retired core.
    pub(crate) fn update(&mut self, id: usize, key: u64) -> bool {
        let i = self.pos[id];
        if i == usize::MAX || self.heap[i].0 == key {
            return false;
        }
        self.heap[i].0 = key;
        self.sift(i);
        true
    }

    /// Retire `id`: drop its entry for good.
    pub(crate) fn remove(&mut self, id: usize) {
        let i = std::mem::replace(&mut self.pos[id], usize::MAX);
        if i == usize::MAX {
            return;
        }
        let last = self.heap.pop().expect("indexed entry exists");
        if i < self.heap.len() {
            self.place(i, last);
            self.sift(i);
        }
    }

    /// The minimum entry's id plus the exact runner-up pair (the gate
    /// horizon), `(u64::MAX, usize::MAX)` when there is no
    /// runner-up. Ties order by id, including at key `u64::MAX`, exactly
    /// like the linear reference scan.
    pub(crate) fn min2(&self) -> (Option<usize>, (u64, usize)) {
        let second = self.heap.iter().skip(1).take(2).min().copied();
        (self.heap.first().map(|e| e.1), second.unwrap_or(NONE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_keys(keys: &[u64]) -> MinHeap {
        let mut h = MinHeap::new(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            h.update(i, k);
        }
        h
    }

    #[test]
    fn keys_move_both_ways() {
        let mut h = with_keys(&[50, 10, 30]);
        assert_eq!(h.min2(), (Some(1), (30, 2)));
        assert!(h.update(1, 60));
        assert_eq!(h.min2(), (Some(2), (50, 0)));
        // A decrease (an unpark) must surface immediately.
        assert!(h.update(1, 5));
        assert_eq!(h.min2(), (Some(1), (30, 2)));
        assert!(!h.update(1, 5), "unchanged key is not an update");
    }

    #[test]
    fn retired_cores_drop_out() {
        let mut h = with_keys(&[5, 40, 20]);
        h.remove(0);
        assert_eq!(h.min2(), (Some(2), (40, 1)));
        assert!(!h.update(0, 1), "a retired core stays retired");
        h.remove(0);
        h.remove(1);
        h.remove(2);
        assert_eq!(h.min2(), (None, NONE));
    }

    #[test]
    fn ties_at_max_order_by_id() {
        let h = with_keys(&[u64::MAX; 3]);
        assert_eq!(h.min2(), (Some(0), (u64::MAX, 1)));
    }

    #[test]
    fn single_live_core_has_open_horizon() {
        let mut h = with_keys(&[123, 7]);
        h.remove(1);
        assert_eq!(h.min2(), (Some(0), NONE));
    }
}
