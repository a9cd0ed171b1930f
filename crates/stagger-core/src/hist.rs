//! Key-sorted histograms.

/// A histogram as `(key, count)` pairs sorted by key: 16 bytes a key with
/// no hash-table slack, iterated in key order, and equal whenever the
/// counts are, whatever order they were bumped in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist<K>(Vec<(K, u64)>);

impl<K: Copy + Ord> Hist<K> {
    /// Count one more `k`.
    pub fn bump(&mut self, k: K) {
        match self.0.binary_search_by_key(&k, |&(x, _)| x) {
            Ok(i) => self.0[i].1 += 1,
            Err(i) => self.0.insert(i, (k, 1)),
        }
    }

    /// Add every count of `o`, leaving no spare capacity: an aggregate
    /// outlives the run that built it.
    pub fn add(&mut self, o: &Hist<K>) {
        self.0.extend_from_slice(&o.0);
        self.0.sort_by_key(|&(k, _)| k); // stable: merges two sorted runs
        self.0.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            kept.1 += if same { next.1 } else { 0 };
            same
        });
        self.0.shrink_to_fit();
    }

    /// `(key, count)` pairs in ascending key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (K, u64)> + '_ {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::Hist;

    fn of(keys: &[u64]) -> Hist<u64> {
        let mut h = Hist::default();
        keys.iter().for_each(|&k| h.bump(k));
        h
    }

    #[test]
    fn iterates_in_key_order_with_counts() {
        let h = of(&[9, 3, 9, 1, 3, 9]);
        assert_eq!(h.iter().collect::<Vec<_>>(), [(1, 1), (3, 2), (9, 3)]);
        assert_eq!(h.iter().len(), 3);
    }

    #[test]
    fn add_merges_counts_of_shared_and_new_keys() {
        let mut h = of(&[5, 2, 5]);
        h.add(&of(&[7, 5, 1]));
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            [(1, 1), (2, 1), (5, 3), (7, 1)]
        );
        h.add(&Hist::default());
        assert_eq!(h, of(&[1, 2, 5, 5, 5, 7]));
    }

    #[test]
    fn equality_ignores_insertion_order() {
        assert_eq!(of(&[4, 8, 4, 15]), of(&[15, 4, 8, 4]));
        assert_ne!(of(&[4, 8]), of(&[4, 8, 8]));
        let (mut a, mut b) = (of(&[1, 2]), of(&[3]));
        a.add(&of(&[3]));
        b.add(&of(&[2, 1]));
        assert_eq!(a, b);
    }
}
