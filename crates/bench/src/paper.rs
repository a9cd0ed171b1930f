//! Reference values transcribed from the paper, printed next to measured
//! numbers by the `paper` binary.

/// Table 1 rows (baseline eager HTM, 16 threads).
pub struct Table1Ref {
    pub name: &'static str,
    pub speedup: f64,
    pub irrevocable_pct: f64,
    pub wasted_over_useful: f64,
    pub contention_source: &'static str,
    pub la: &'static str,
    pub lp: &'static str,
}

pub const TABLE1: &[Table1Ref] = &[
    Table1Ref {
        name: "list-hi",
        speedup: 1.0,
        irrevocable_pct: 27.0,
        wasted_over_useful: 4.92,
        contention_source: "linked-list",
        la: "N",
        lp: "Y",
    },
    Table1Ref {
        name: "tsp",
        speedup: 3.6,
        irrevocable_pct: 10.0,
        wasted_over_useful: 1.53,
        contention_source: "priority queue",
        la: "Y",
        lp: "Y",
    },
    Table1Ref {
        name: "memcached",
        speedup: 2.6,
        irrevocable_pct: 25.0,
        wasted_over_useful: 3.11,
        contention_source: "statistics information",
        la: "Y",
        lp: "Y",
    },
    Table1Ref {
        name: "intruder",
        speedup: 3.2,
        irrevocable_pct: 32.0,
        wasted_over_useful: 4.02,
        contention_source: "task queue",
        la: "Y",
        lp: "Y",
    },
    Table1Ref {
        name: "kmeans",
        speedup: 4.6,
        irrevocable_pct: 35.0,
        wasted_over_useful: 3.57,
        contention_source: "arrays",
        la: "N",
        lp: "Y",
    },
    Table1Ref {
        name: "vacation",
        speedup: 9.7,
        irrevocable_pct: 1.0,
        wasted_over_useful: 0.34,
        contention_source: "red-black trees",
        la: "N",
        lp: "Y",
    },
];

/// Table 3 rows (static instrumentation stats, single-thread dynamics,
/// 16-thread accuracy).
pub struct Table3Ref {
    pub name: &'static str,
    pub loads_stores: u64,
    pub anchors: u64,
    pub uops_per_txn: f64,
    pub anchors_per_txn: f64,
    /// Single-thread execution-time increase (fraction; the paper reports
    /// "<1%" for most, shown as 0.01 here).
    pub exec_increase: f64,
    pub accuracy: f64,
}

pub const TABLE3: &[Table3Ref] = &[
    Table3Ref {
        name: "genome",
        loads_stores: 82,
        anchors: 19,
        uops_per_txn: 957.0,
        anchors_per_txn: 17.6,
        exec_increase: 0.01,
        accuracy: 1.000,
    },
    Table3Ref {
        name: "intruder",
        loads_stores: 410,
        anchors: 56,
        uops_per_txn: 351.0,
        anchors_per_txn: 8.5,
        exec_increase: 0.01,
        accuracy: 0.972,
    },
    Table3Ref {
        name: "kmeans",
        loads_stores: 13,
        anchors: 6,
        uops_per_txn: 261.0,
        anchors_per_txn: 4.5,
        exec_increase: 0.016,
        accuracy: 0.991,
    },
    Table3Ref {
        name: "labyrinth",
        loads_stores: 418,
        anchors: 18,
        uops_per_txn: 16968.0,
        anchors_per_txn: 89.4,
        exec_increase: 0.01,
        accuracy: 1.000,
    },
    Table3Ref {
        name: "ssca2",
        loads_stores: 33,
        anchors: 7,
        uops_per_txn: 86.0,
        anchors_per_txn: 3.1,
        exec_increase: 0.01,
        accuracy: 0.979,
    },
    Table3Ref {
        name: "vacation",
        loads_stores: 442,
        anchors: 76,
        uops_per_txn: 4621.0,
        anchors_per_txn: 63.9,
        exec_increase: 0.01,
        accuracy: 0.953,
    },
    Table3Ref {
        name: "list-hi",
        loads_stores: 43,
        anchors: 5,
        uops_per_txn: 391.0,
        anchors_per_txn: 32.9,
        exec_increase: 0.051,
        accuracy: 0.987,
    },
    Table3Ref {
        name: "tsp",
        loads_stores: 737,
        anchors: 75,
        uops_per_txn: 2348.0,
        anchors_per_txn: 9.7,
        exec_increase: 0.01,
        accuracy: 0.970,
    },
    Table3Ref {
        name: "memcached",
        loads_stores: 405,
        anchors: 54,
        uops_per_txn: 2520.0,
        anchors_per_txn: 80.9,
        exec_increase: 0.01,
        accuracy: 0.983,
    },
];

/// Table 4 rows (benchmark characteristics on the baseline HTM).
pub struct Table4Ref {
    pub name: &'static str,
    pub atomic_blocks: u64,
    pub tm_pct: f64,
    pub speedup: f64,
    pub aborts_per_commit: f64,
    pub contention: &'static str,
}

pub const TABLE4: &[Table4Ref] = &[
    Table4Ref {
        name: "genome",
        atomic_blocks: 5,
        tm_pct: 61.0,
        speedup: 6.0,
        aborts_per_commit: 0.25,
        contention: "low",
    },
    Table4Ref {
        name: "intruder",
        atomic_blocks: 3,
        tm_pct: 98.0,
        speedup: 3.2,
        aborts_per_commit: 5.28,
        contention: "high",
    },
    Table4Ref {
        name: "kmeans",
        atomic_blocks: 3,
        tm_pct: 42.0,
        speedup: 4.6,
        aborts_per_commit: 4.74,
        contention: "high",
    },
    Table4Ref {
        name: "labyrinth",
        atomic_blocks: 3,
        tm_pct: 91.0,
        speedup: 1.9,
        aborts_per_commit: 3.47,
        contention: "high",
    },
    Table4Ref {
        name: "ssca2",
        atomic_blocks: 10,
        tm_pct: 16.0,
        speedup: 4.8,
        aborts_per_commit: 0.02,
        contention: "low",
    },
    Table4Ref {
        name: "vacation",
        atomic_blocks: 3,
        tm_pct: 87.0,
        speedup: 9.7,
        aborts_per_commit: 0.49,
        contention: "med",
    },
    Table4Ref {
        name: "list-lo",
        atomic_blocks: 4,
        tm_pct: 86.0,
        speedup: 3.6,
        aborts_per_commit: 1.11,
        contention: "med",
    },
    Table4Ref {
        name: "list-hi",
        atomic_blocks: 4,
        tm_pct: 83.0,
        speedup: 1.0,
        aborts_per_commit: 4.05,
        contention: "high",
    },
    Table4Ref {
        name: "tsp",
        atomic_blocks: 3,
        tm_pct: 90.0,
        speedup: 3.6,
        aborts_per_commit: 1.74,
        contention: "med",
    },
    Table4Ref {
        name: "memcached",
        atomic_blocks: 17,
        tm_pct: 85.0,
        speedup: 2.6,
        aborts_per_commit: 4.77,
        contention: "high",
    },
];

/// Qualitative Figure 7 expectations (speedup over baseline HTM at 16
/// threads) distilled from Section 6.2's text: substantial (>30%) for
/// intruder, kmeans, list-hi, tsp, memcached; moderate (6–24%) for genome,
/// list-lo, labyrinth; no significant change for ssca2 and vacation. The
/// harmonic mean of improvements across all benchmarks is 24%.
pub struct Fig7Ref {
    pub name: &'static str,
    /// Expected improvement band for the full Staggered mode.
    pub band: &'static str,
}

pub const FIG7: &[Fig7Ref] = &[
    Fig7Ref {
        name: "genome",
        band: "moderate (6-24%)",
    },
    Fig7Ref {
        name: "intruder",
        band: "substantial (>30%)",
    },
    Fig7Ref {
        name: "kmeans",
        band: "substantial (>30%)",
    },
    Fig7Ref {
        name: "labyrinth",
        band: "moderate (6-24%)",
    },
    Fig7Ref {
        name: "ssca2",
        band: "no significant change",
    },
    Fig7Ref {
        name: "vacation",
        band: "no significant change",
    },
    Fig7Ref {
        name: "list-lo",
        band: "moderate (6-24%)",
    },
    Fig7Ref {
        name: "list-hi",
        band: "substantial (>30%)",
    },
    Fig7Ref {
        name: "tsp",
        band: "substantial (>30%)",
    },
    Fig7Ref {
        name: "memcached",
        band: "substantial (>30%)",
    },
];

/// Figure 8 headline numbers: Staggered Transactions "eliminate up to 89%
/// of the aborts (in intruder) and an average of 64% across the benchmark
/// set (excluding ssca2)", saving "an average of 43% of the wasted CPU
/// cycles".
pub const FIG8_MAX_ABORT_REDUCTION: f64 = 0.89;
pub const FIG8_AVG_ABORT_REDUCTION: f64 = 0.64;
pub const FIG8_AVG_WASTE_REDUCTION: f64 = 0.43;

/// Table 4 reference for a benchmark by name.
pub fn table4_ref(name: &str) -> Option<&'static Table4Ref> {
    TABLE4.iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_cover_the_benchmark_set() {
        assert_eq!(TABLE1.len(), 6);
        assert_eq!(TABLE3.len(), 9); // list-lo shares list-hi's binary
        assert_eq!(TABLE4.len(), 10);
        assert_eq!(FIG7.len(), 10);
        assert!(table4_ref("tsp").is_some());
        assert!(table4_ref("nope").is_none());
    }
}
