//! Indexed min-(clock, id) scheduling: a lazy binary heap over core keys.
//!
//! The cooperative driver ([`crate::sim::SimState::schedule`]) repeatedly
//! needs "the unfinished core with the minimum `(clock, id)`, plus the
//! exact runner-up" — previously an O(n_cores) scan per resumption, i.e.
//! quadratic over a run. [`LazyMinHeap`]
//! makes it O(log n) amortized by exploiting a structural property of the
//! simulator: **a core's clock only ever increases, and cores only retire**
//! (they never un-finish). Every heap entry is therefore a *lower bound* on
//! its core's current key, so the heap needs no decrease-key and no explicit
//! update calls at all:
//!
//! * Each core keeps exactly one entry `(clock, id)` in a hand-rolled array
//!   heap — possibly stale (too small), never too large.
//! * [`LazyMinHeap::clean`] repairs a stale entry *in place*: overwrite the
//!   key with the fresh one and sift down (one sift, where a pop+push pair
//!   on `std`'s `BinaryHeap` would cost two). Since a repaired entry's key
//!   is final for this call (keys don't change mid-call), each entry is
//!   repaired at most once and the loop terminates with a fresh minimum.
//! * Retired cores' entries are overwritten with a maximal sentinel
//!   `(u64::MAX, usize::MAX)` that sinks below every live key — a sentinel
//!   on top therefore means its whole subtree is retired.
//! * The exact runner-up is the smaller of the root's two *cleaned*
//!   children: every stored key is a lower bound on its core's true key and
//!   at least its (fresh) ancestor child's stored key, so no deeper entry
//!   can beat the children once they are fresh. This keeps `min2` from ever
//!   moving the root at all.
//!
//! The caller supplies the current key through a `key_of(id) -> Option<u64>`
//! closure (`None` = retired), keeping this structure free of any borrow of
//! the core array itself.

/// Retired-core sentinel: strictly greater than any live `(clock, id)` key
/// (a live id is `< MAX_CORES`), and doubling as the "no runner-up" horizon.
const RETIRED: (u64, usize) = (u64::MAX, usize::MAX);

/// Host-side scheduling-overhead counters (never part of the simulated
/// state; reported by the `scaling` exhibit).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Calls to [`crate::sim::SimState::schedule`] (one per cooperative
    /// resumption).
    pub schedule_calls: u64,
    /// Stale heap entries repaired (overwritten with a fresh key in place).
    pub stale_refreshes: u64,
}

/// Lazy min-heap over `(clock, id)` keys, one entry per core.
#[derive(Debug)]
pub(crate) struct LazyMinHeap {
    heap: Vec<(u64, usize)>,
    /// Stale-entry repairs performed (mirrored into [`SchedStats`]).
    pub(crate) stale_refreshes: u64,
}

impl LazyMinHeap {
    /// Heap seeded with `(0, id)` for every core — the simulator's initial
    /// clocks (already heap-ordered). Sound for any later state reached by
    /// increases/retirements.
    pub(crate) fn new(n_cores: usize) -> LazyMinHeap {
        LazyMinHeap {
            heap: (0..n_cores).map(|i| (0, i)).collect(),
            stale_refreshes: 0,
        }
    }

    /// Restore the heap invariant below `i` after its key increased.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                return;
            }
            let r = l + 1;
            let c = if r < n && self.heap[r] < self.heap[l] {
                r
            } else {
                l
            };
            if self.heap[c] < self.heap[i] {
                self.heap.swap(i, c);
                i = c;
            } else {
                return;
            }
        }
    }

    /// Repair position `i` until its entry is fresh; returns that entry, or
    /// `None` when the whole subtree under `i` has retired.
    #[inline]
    fn clean(&mut self, i: usize, key_of: &impl Fn(usize) -> Option<u64>) -> Option<(u64, usize)> {
        loop {
            let (clock, id) = self.heap[i];
            if id == usize::MAX {
                return None;
            }
            match key_of(id) {
                None => {
                    self.heap[i] = RETIRED;
                    self.sift_down(i);
                }
                Some(cur) if cur != clock => {
                    debug_assert!(cur > clock, "core clocks must be monotone");
                    self.heap[i] = (cur, id);
                    self.stale_refreshes += 1;
                    self.sift_down(i);
                }
                Some(_) => return Some((clock, id)),
            }
        }
    }

    /// The minimum live key plus the exact runner-up (the cooperative
    /// horizon), `(u64::MAX, usize::MAX)` when no runner-up exists. Ties
    /// order by id, including at clock `u64::MAX`, exactly like the linear
    /// reference scan.
    pub(crate) fn min2(
        &mut self,
        key_of: impl Fn(usize) -> Option<u64>,
    ) -> (Option<usize>, (u64, usize)) {
        if self.heap.is_empty() {
            return (None, RETIRED);
        }
        let Some(best) = self.clean(0, &key_of) else {
            return (None, RETIRED);
        };
        let mut second = RETIRED;
        for c in [1, 2] {
            if c < self.heap.len() {
                if let Some(k) = self.clean(c, &key_of) {
                    second = second.min(k);
                }
            }
        }
        (Some(best.1), second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_increasing_clocks_without_updates() {
        let mut h = LazyMinHeap::new(3);
        let clocks = [50u64, 10, 30];
        let key = |i: usize| Some(clocks[i]);
        assert_eq!(h.min2(key), (Some(1), (30, 2)));
        let clocks = [50u64, 60, 30];
        let key = |i: usize| Some(clocks[i]);
        assert_eq!(h.min2(key), (Some(2), (50, 0)));
        assert!(h.stale_refreshes > 0);
    }

    #[test]
    fn retired_cores_drop_out() {
        let mut h = LazyMinHeap::new(3);
        let clocks = [5u64, 40, 20];
        let key = |i: usize| if i == 0 { None } else { Some(clocks[i]) };
        assert_eq!(h.min2(key), (Some(2), (40, 1)));
        assert_eq!(h.min2(|_| None), (None, (u64::MAX, usize::MAX)));
    }

    #[test]
    fn ties_at_max_order_by_id() {
        let mut h = LazyMinHeap::new(3);
        let key = |_: usize| Some(u64::MAX);
        assert_eq!(h.min2(key), (Some(0), (u64::MAX, 1)));
    }

    #[test]
    fn single_live_core_has_open_horizon() {
        let mut h = LazyMinHeap::new(2);
        let key = |i: usize| if i == 1 { None } else { Some(123u64) };
        assert_eq!(h.min2(key), (Some(0), (u64::MAX, usize::MAX)));
    }
}
