//! Execution statistics — the raw numbers behind Tables 1/3/4 and Figures
//! 7/8.

/// Declare a statistics record once. Its counters are listed in a
/// `counters` block, each written `name: sum` or `name: max` (how two
/// records merge), after an optional `merge` block of fields of other
/// types that merge through their own `add` and are not counters:
///
/// ```
/// htm_sim::stats_record! {
///     #[derive(Debug, Default)]
///     pub struct Tally {
///         merge {
///             seen: Vec<u64>,
///         }
///         counters {
///             /// Events counted.
///             events: sum,
///             /// The latest clock.
///             clock: max,
///         }
///     }
/// }
/// # trait Add { fn add(&mut self, o: &Self); }
/// # impl Add for Vec<u64> { fn add(&mut self, o: &Self) { self.extend(o) } }
/// let mut a = Tally { events: 2, clock: 9, ..Default::default() };
/// a.add(&Tally { events: 3, clock: 4, seen: vec![1] });
/// assert_eq!((Tally::KEYS, a.values(), a.seen), (["events", "clock"], [5, 9], vec![1]));
/// ```
///
/// Every field is a `pub` field of the declared type (`u64` for a
/// counter), so the counters are read and bumped by name as in a
/// hand-written struct. Generated: `KEYS`, the counters' names in
/// declaration order; `values` and `values_mut`, the counters in that
/// order; and `add`, which sums each `sum` counter, keeps the larger of
/// each `max` counter and merges each `merge` field. Everything that lists
/// a record's counters reads `KEYS` and `values`, so a counter added here
/// reaches all of them.
#[macro_export]
macro_rules! stats_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(merge {
                $($(#[$mmeta:meta])* $merged:ident: $mty:ty,)*
            })?
            counters {
                $($(#[$cmeta:meta])* $counter:ident: $how:ident,)*
            }
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($($(#[$mmeta])* pub $merged: $mty,)*)?
            $($(#[$cmeta])* pub $counter: u64,)*
        }

        impl $name {
            /// The counters' names, in declaration order.
            pub const KEYS: [&'static str; [$(stringify!($counter)),*].len()] =
                [$(stringify!($counter)),*];

            /// The counters, in the order of `KEYS`.
            pub fn values(&self) -> [u64; Self::KEYS.len()] {
                [$(self.$counter),*]
            }

            /// The counters, in the order of `KEYS`, to set.
            pub fn values_mut(&mut self) -> [&mut u64; Self::KEYS.len()] {
                [$(&mut self.$counter),*]
            }

            /// Merge `o` into `self`.
            pub fn add(&mut self, o: &Self) {
                $($(self.$merged.add(&o.$merged);)*)?
                $($crate::stats_record!(@merge $how self.$counter, o.$counter);)*
            }
        }
    };
    (@merge sum $a:expr, $b:expr) => {
        $a += $b
    };
    (@merge max $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
}

stats_record! {
    /// Per-core counters, all in simulated cycles / event counts.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CoreStats {
        counters {
            /// Committed hardware transactions.
            commits: sum,
            /// Aborts due to data conflicts.
            conflict_aborts: sum,
            /// Aborts due to speculative-capacity overflow.
            capacity_aborts: sum,
            /// Explicit self-aborts (e.g., global-lock subscription failure).
            explicit_aborts: sum,
            /// Commit-time fallback-lock validation aborts (safe lazy
            /// subscription; see `AbortCause::SubscriptionValidation`).
            subscription_aborts: sum,
            /// Transactions that gave up and ran irrevocably under the global
            /// lock.
            irrevocable_commits: sum,
            /// Cycles spent inside transaction attempts that committed.
            useful_tx_cycles: sum,
            /// Cycles spent inside transaction attempts that aborted.
            wasted_tx_cycles: sum,
            /// Cycles spent waiting for advisory locks (charged by the runtime).
            lock_wait_cycles: sum,
            /// Cycles spent in backoff between retries (charged by the runtime).
            backoff_cycles: sum,
            /// Cycles spent in irrevocable (global-lock) execution.
            irrevocable_cycles: sum,
            /// The core's final logical clock; over several cores, the latest.
            total_cycles: max,
            /// Dynamic count of memory µ-ops executed transactionally.
            tx_mem_ops: sum,
            /// Dynamic count of nontransactional memory operations.
            nt_mem_ops: sum,
            /// Gated (globally ordered) operations simulated for the core. Those
            /// a parked spin-wait skipped are included, so the count does not
            /// depend on parking; the host-side `SchedStats::elided_ops` says
            /// how many of them were fast-forwarded rather than executed.
            /// Scheduler-overhead observability, not a paper metric.
            gated_ops: sum,
        }
    }
}

impl CoreStats {
    /// Total aborts of any cause.
    pub fn aborts(&self) -> u64 {
        self.conflict_aborts
            + self.capacity_aborts
            + self.explicit_aborts
            + self.subscription_aborts
    }

    /// Aborts per commit (the paper's Abts/C, Table 4 / Figure 8a).
    /// Irrevocable executions count as commits, as in the paper's runtime.
    pub fn aborts_per_commit(&self) -> f64 {
        let commits = self.commits + self.irrevocable_commits;
        if commits == 0 {
            0.0
        } else {
            self.aborts() as f64 / commits as f64
        }
    }
}

/// Whole-machine statistics snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    pub cores: Vec<CoreStats>,
    /// Execution time: the maximum core clock at the end of the run.
    pub exec_cycles: u64,
}

impl SimStats {
    /// Sum over cores (with `total_cycles`/`exec_cycles` taken as max).
    pub fn aggregate(&self) -> CoreStats {
        let mut t = CoreStats::default();
        for c in &self.cores {
            t.add(c);
        }
        t
    }

    /// [`CoreStats::aborts_per_commit`] of the [`Self::aggregate`].
    pub fn aborts_per_commit(&self) -> f64 {
        self.aggregate().aborts_per_commit()
    }

    /// Ratio of wasted to useful transactional cycles (W/U, Table 1 /
    /// Figure 8b).
    pub fn wasted_over_useful(&self) -> f64 {
        let a = self.aggregate();
        let useful = a.useful_tx_cycles + a.irrevocable_cycles;
        if useful == 0 {
            0.0
        } else {
            a.wasted_tx_cycles as f64 / useful as f64
        }
    }

    /// Fraction of transactions forced into irrevocable mode (%I, Table 1).
    pub fn irrevocable_fraction(&self) -> f64 {
        let a = self.aggregate();
        let done = a.commits + a.irrevocable_commits;
        if done == 0 {
            0.0
        } else {
            a.irrevocable_commits as f64 / done as f64
        }
    }

    /// Fraction of execution time spent in transactional work (%TM,
    /// Table 4): transactional (useful + wasted + irrevocable + waits)
    /// cycles over summed core cycles.
    pub fn tm_fraction(&self) -> f64 {
        let a = self.aggregate();
        let total: u64 = self.cores.iter().map(|c| c.total_cycles).sum();
        if total == 0 {
            return 0.0;
        }
        let tm = a.useful_tx_cycles
            + a.wasted_tx_cycles
            + a.irrevocable_cycles
            + a.lock_wait_cycles
            + a.backoff_cycles;
        tm as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(cores: Vec<CoreStats>, exec: u64) -> SimStats {
        SimStats {
            cores,
            exec_cycles: exec,
        }
    }

    #[test]
    fn aborts_per_commit_counts_irrevocable() {
        let c = CoreStats {
            commits: 8,
            irrevocable_commits: 2,
            conflict_aborts: 5,
            ..Default::default()
        };
        let s = stats_with(vec![c], 100);
        assert!((s.aborts_per_commit() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = stats_with(vec![CoreStats::default()], 0);
        assert_eq!(s.aborts_per_commit(), 0.0);
        assert_eq!(s.wasted_over_useful(), 0.0);
        assert_eq!(s.irrevocable_fraction(), 0.0);
        assert_eq!(s.tm_fraction(), 0.0);
    }

    #[test]
    fn aggregate_sums_and_maxes() {
        // A distinct value in every counter, rising on one core and falling
        // on the other, so a counter `add` drops, swaps, sums or maxes
        // wrongly shows.
        let (mut a, mut b) = (CoreStats::default(), CoreStats::default());
        for (i, (x, y)) in a.values_mut().into_iter().zip(b.values_mut()).enumerate() {
            (*x, *y) = (10 * i as u64 + 1, 100 - i as u64);
        }
        let want: Vec<u64> = CoreStats::KEYS
            .iter()
            .zip(a.values().into_iter().zip(b.values()))
            .map(|(&k, (x, y))| if k == "total_cycles" { x.max(y) } else { x + y })
            .collect();
        let t = stats_with(vec![a.clone(), b.clone()], 0).aggregate();
        assert_eq!(t.values().to_vec(), want);
        assert_eq!(stats_with(vec![b, a], 0).aggregate(), t);
        assert_eq!(t.total_cycles, 111);
    }

    #[test]
    fn wasted_over_useful_ratio() {
        let c = CoreStats {
            useful_tx_cycles: 100,
            wasted_tx_cycles: 250,
            ..Default::default()
        };
        let s = stats_with(vec![c], 1000);
        assert!((s.wasted_over_useful() - 2.5).abs() < 1e-12);
    }
}
