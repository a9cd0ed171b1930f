//! Min-(key, id) scheduling: a winner tree over one packed word per node.
//!
//! The event loop ([`crate::sim::SimState::schedule`]) repeatedly
//! needs "the unfinished core with the minimum `(key, id)`, plus the exact
//! runner-up". A core's key is its logical clock while it runs and its wake
//! deadline while it is parked in [`crate::machine::Core::spin_wait`], so keys
//! move both ways: they rise as a core executes or parks, and *fall* when a
//! writer unparks a waiter. [`WinnerTree`] keeps core `id`'s entry,
//! `key << 8 | id`, at a fixed leaf and in every internal node the smaller
//! of its two children — one `u64::min` orders `(key, id)` — so an update in
//! either direction writes the leaf and replays the matches on its path to
//! the root: no child to select, no position index, no branch on the data.
//! The simulator calls it for the core that just ran and on every park,
//! unpark and retirement; nothing is repaired lazily, so the root is the
//! true minimum and the runner-up the least sibling on the winner's path.

use crate::coreset::MAX_CORES;

/// "No runner-up" horizon: strictly greater than any live `(key, id)` pair
/// (a live id is `< MAX_CORES`).
const NONE: (u64, usize) = (u64::MAX, usize::MAX);

/// Low bits of an entry that hold the core id.
const ID_BITS: u32 = 8;
const _: () = assert!(MAX_CORES <= 1 << ID_BITS, "a core id must fit the low byte");

/// The largest key whose entry sorts below [`ABSENT`] at any id. Later keys
/// (in practice only `u64::MAX`, a park without deadline) are stored as this
/// one: behind every real clock, unordered among themselves, flagged by `min2`.
const KEY_CLAMP: u64 = (1 << (u64::BITS - ID_BITS)) - 2;

/// A retired core's leaf, a padding leaf, or a node above only those.
const ABSENT: u64 = u64::MAX;

/// Host-side scheduling counters (never part of the simulated state;
/// reported by the `scaling` exhibit and the `--json` reports).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Calls to [`crate::sim::SimState::schedule`] (one per resumption).
    pub schedule_calls: u64,
    /// Tree key updates (the core that just ran, parks, unparks). The name
    /// predates the indexed structures; the benchmark reads it.
    pub stale_refreshes: u64,
    /// Times a core parked in [`crate::machine::Core::spin_wait`].
    pub parks: u64,
    /// Gated operations accounted by fast-forwarding a parked core instead
    /// of executing them (included in `CoreStats::gated_ops`).
    pub elided_ops: u64,
}

/// Winner tree over `(key, id)` entries: `node[1]` is the root, `node[i]`
/// the minimum of `node[2 * i]` and `node[2 * i + 1]`, `node[len / 2 + id]`
/// core `id`'s leaf (a power of two of them, the padding [`ABSENT`]).
#[derive(Debug)]
pub(crate) struct WinnerTree {
    node: Vec<u64>,
}

impl WinnerTree {
    /// Tree holding `(0, id)` for every core: the simulator's initial clocks.
    pub(crate) fn new(n_cores: usize) -> WinnerTree {
        let node = vec![ABSENT; 2 * n_cores.next_power_of_two()];
        let mut tree = WinnerTree { node };
        (0..n_cores).for_each(|id| tree.replay(id, id as u64));
        tree
    }

    /// Store `entry` in `id`'s leaf and replay the matches above it.
    fn replay(&mut self, id: usize, entry: u64) {
        let (mut i, mut w) = (self.node.len() / 2 + id, entry);
        self.node[i] = w;
        while i > 1 {
            w = w.min(self.node[i ^ 1]);
            i >>= 1;
            self.node[i] = w;
        }
    }

    /// Set `id`'s key; returns whether its entry changed (keys from
    /// [`KEY_CLAMP`] up share one). No-op for a retired core.
    pub(crate) fn update(&mut self, id: usize, key: u64) -> bool {
        let entry = key.min(KEY_CLAMP) << ID_BITS | id as u64;
        let old = self.node[self.node.len() / 2 + id];
        if old == ABSENT || old == entry {
            return false;
        }
        self.replay(id, entry);
        true
    }

    /// Retire `id`: drop its entry for good.
    pub(crate) fn remove(&mut self, id: usize) {
        self.replay(id, ABSENT);
    }

    /// The minimum entry's id plus the exact runner-up pair (the gate
    /// horizon), `(u64::MAX, usize::MAX)` when there is no runner-up. Ties
    /// order by id. A runner-up stored at [`KEY_CLAMP`] comes back as
    /// `(u64::MAX, live id)`: exact while every clamped key is `u64::MAX`,
    /// and the caller's cue to decide by the linear rule if all keys must
    /// order exactly (a clamped winner has a clamped runner-up).
    pub(crate) fn min2(&self) -> (Option<usize>, (u64, usize)) {
        let unpack = |e: u64| (e >> ID_BITS, (e & ((1 << ID_BITS) - 1)) as usize);
        let root = self.node[1];
        if root == ABSENT {
            return (None, NONE);
        }
        let (mut i, mut second) = (self.node.len() / 2 + unpack(root).1, ABSENT);
        while i > 1 {
            second = second.min(self.node[i ^ 1]);
            i >>= 1;
        }
        let horizon = match unpack(second) {
            _ if second == ABSENT => NONE,
            (KEY_CLAMP, id) => (u64::MAX, id),
            exact => exact,
        };
        (Some(unpack(root).1), horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_keys(keys: &[u64]) -> WinnerTree {
        let mut h = WinnerTree::new(keys.len());
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
    fn any_core_count_orders_and_retires_in_either_id_order() {
        for n in [1, 3, 80, 256] {
            for ascending in [true, false] {
                let keys: Vec<u64> = (0..n as u64).map(|i| i * 7919 % 101).collect();
                let mut t = with_keys(&keys);
                let mut live: Vec<(u64, usize)> = keys.iter().copied().zip(0..n).collect();
                live.sort();
                for step in 0..n {
                    let want = (Some(live[0].1), live.get(1).copied().unwrap_or(NONE));
                    assert_eq!(t.min2(), want, "{n} cores, {step} retired");
                    let id = if ascending { step } else { n - 1 - step };
                    t.remove(id);
                    live.retain(|e| e.1 != id);
                }
                assert_eq!(t.min2(), (None, NONE));
            }
        }
    }

    #[test]
    fn clamped_keys_stay_below_retired_leaves() {
        let mut t = with_keys(&[u64::MAX; 256]);
        (0..254).for_each(|id| t.remove(id));
        // (KEY_CLAMP, 255) is the largest live entry there is.
        assert_eq!(t.min2(), (Some(254), (u64::MAX, 255)));
        t.remove(254);
        assert_eq!(t.min2(), (Some(255), NONE));
        assert!(!t.update(254, u64::MAX), "retired at any key");
        assert!(!t.update(255, KEY_CLAMP), "clamped keys share one entry");
        // One below the clamp is an exact key, and sorts first.
        assert!(t.update(255, KEY_CLAMP - 1));
        let mut t = with_keys(&[KEY_CLAMP, KEY_CLAMP - 1, 7]);
        assert_eq!(t.min2(), (Some(2), (KEY_CLAMP - 1, 1)));
        t.remove(1);
        assert_eq!(t.min2(), (Some(2), (u64::MAX, 0)), "flagged, not exact");
    }

    #[test]
    fn single_live_core_has_open_horizon() {
        let mut h = with_keys(&[123, 7]);
        h.remove(1);
        assert_eq!(h.min2(), (Some(0), NONE));
    }
}
