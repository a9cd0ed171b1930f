//! Execution statistics — the raw numbers behind Tables 1/3/4 and Figures
//! 7/8.

/// Per-core counters, all in simulated cycles / event counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Committed hardware transactions.
    pub commits: u64,
    /// Aborts due to data conflicts.
    pub conflict_aborts: u64,
    /// Aborts due to speculative-capacity overflow.
    pub capacity_aborts: u64,
    /// Explicit self-aborts (e.g., global-lock subscription failure).
    pub explicit_aborts: u64,
    /// Commit-time fallback-lock validation aborts (safe lazy
    /// subscription; see `AbortCause::SubscriptionValidation`).
    pub subscription_aborts: u64,
    /// Transactions that gave up and ran irrevocably under the global lock.
    pub irrevocable_commits: u64,
    /// Cycles spent inside transaction attempts that committed.
    pub useful_tx_cycles: u64,
    /// Cycles spent inside transaction attempts that aborted.
    pub wasted_tx_cycles: u64,
    /// Cycles spent waiting for advisory locks (charged by the runtime).
    pub lock_wait_cycles: u64,
    /// Cycles spent in backoff between retries (charged by the runtime).
    pub backoff_cycles: u64,
    /// Cycles spent in irrevocable (global-lock) execution.
    pub irrevocable_cycles: u64,
    /// The core's final logical clock.
    pub total_cycles: u64,
    /// Dynamic count of memory µ-ops executed transactionally.
    pub tx_mem_ops: u64,
    /// Dynamic count of nontransactional memory operations.
    pub nt_mem_ops: u64,
    /// Gated (globally ordered) operations simulated for the core. Those a
    /// parked spin-wait skipped are included, so the count does not depend
    /// on parking; the host-side `SchedStats::elided_ops` says how many of
    /// them were fast-forwarded rather than executed. Scheduler-overhead
    /// observability, not a paper metric.
    pub gated_ops: u64,
}

impl CoreStats {
    /// Total aborts of any cause.
    pub fn aborts(&self) -> u64 {
        self.conflict_aborts
            + self.capacity_aborts
            + self.explicit_aborts
            + self.subscription_aborts
    }

    fn add(&mut self, o: &CoreStats) {
        self.commits += o.commits;
        self.conflict_aborts += o.conflict_aborts;
        self.capacity_aborts += o.capacity_aborts;
        self.explicit_aborts += o.explicit_aborts;
        self.subscription_aborts += o.subscription_aborts;
        self.irrevocable_commits += o.irrevocable_commits;
        self.useful_tx_cycles += o.useful_tx_cycles;
        self.wasted_tx_cycles += o.wasted_tx_cycles;
        self.lock_wait_cycles += o.lock_wait_cycles;
        self.backoff_cycles += o.backoff_cycles;
        self.irrevocable_cycles += o.irrevocable_cycles;
        self.total_cycles = self.total_cycles.max(o.total_cycles);
        self.tx_mem_ops += o.tx_mem_ops;
        self.nt_mem_ops += o.nt_mem_ops;
        self.gated_ops += o.gated_ops;
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

    /// Aborts per commit (the paper's Abts/C, Table 4 / Figure 8a).
    /// Irrevocable executions count as commits, as in the paper's runtime.
    pub fn aborts_per_commit(&self) -> f64 {
        let a = self.aggregate();
        let commits = a.commits + a.irrevocable_commits;
        if commits == 0 {
            0.0
        } else {
            a.aborts() as f64 / commits as f64
        }
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
        let a = CoreStats {
            commits: 3,
            total_cycles: 50,
            ..Default::default()
        };
        let b = CoreStats {
            commits: 4,
            total_cycles: 80,
            ..Default::default()
        };
        let s = stats_with(vec![a, b], 80);
        let t = s.aggregate();
        assert_eq!(t.commits, 7);
        assert_eq!(t.total_cycles, 80);
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
