//! ssca2 (STAMP): graph kernel 1 — parallel edge insertion.
//!
//! Threads add random edges to per-node adjacency records in tiny
//! transactions (the paper reports 3.1 µ-ops per transaction and 0.02
//! aborts/commit — the low-contention anchor of the benchmark set, used to
//! show Staggered Transactions do not slow uncontended programs down).
//!
//! Layout: one line-aligned record per node:
//! `{0: degree, 1..=max_degree: edge targets}`.

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use tm_interp::RunOutcome;
use tm_ir::{FuncBuilder, FuncKind, Module};

/// The ssca2 benchmark (paper input: `-s13 -i1.0 -u1.0 -l3 -p3`).
#[derive(Debug, Clone)]
pub struct Ssca2 {
    pub n_nodes: u64,
    pub max_degree: u64,
    pub total_ops: u64,
}

impl Default for Ssca2 {
    fn default() -> Self {
        Ssca2 {
            n_nodes: 4096,
            max_degree: 7,
            total_ops: 8192,
        }
    }
}

impl Ssca2 {
    pub fn tiny() -> Ssca2 {
        Ssca2 {
            n_nodes: 128,
            max_degree: 7,
            total_ops: 512,
        }
    }

    /// Words per adjacency record (degree + slots), line-padded.
    fn stride(&self) -> u64 {
        (self.max_degree + 1).div_ceil(8) * 8
    }
}

impl Workload for Ssca2 {
    fn name(&self) -> &'static str {
        "ssca2"
    }

    fn build_module(&self) -> Module {
        let mut m = Module::new();

        // atomic tx_add_edge(rec, v, max_degree) -> 1 if added
        let mut b = FuncBuilder::new("tx_add_edge", 3, FuncKind::Atomic { ab_id: 0 });
        let (rec, v, maxd) = (b.param(0), b.param(1), b.param(2));
        let deg = b.load(rec, 0);
        let full = b.ge(deg, maxd);
        b.if_(full, |b| b.ret_const(0));
        b.store_idx(v, rec, deg, 1);
        let d2 = b.addi(deg, 1);
        b.store(d2, rec, 0);
        b.ret_const(1);
        let tx_add = m.add_function(b.finish());

        // thread_main(adj, n_nodes, stride, ops, maxd, slot) -> edges added
        let mut b = FuncBuilder::new("thread_main", 6, FuncKind::Normal);
        let adj = b.param(0);
        let n_nodes = b.param(1);
        let stride = b.param(2);
        let ops = b.param(3);
        let maxd = b.param(4);
        let slot = b.param(5);

        let i = b.const_(0);
        let added = b.const_(0);
        b.while_(
            |b| b.lt(i, ops),
            |b| {
                let u = b.rand(n_nodes);
                let v = b.rand(n_nodes);
                let off = b.mul(u, stride);
                let rec = b.gep(adj, off, 0);
                let ok = b.call(tx_add, &[rec, v, maxd]);
                let s = b.add(added, ok);
                b.assign(added, s);
                b.compute(20);
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.store(added, slot, 0);
        b.ret(Some(i));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("ssca2 module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        let stride = self.stride();
        let adj = machine.host_alloc(self.n_nodes * stride, true);
        let slots = alloc_stat_slots(machine, n_threads);
        let per = self.total_ops / n_threads as u64;
        (0..n_threads)
            .map(|t| {
                vec![
                    adj,
                    self.n_nodes,
                    stride,
                    per,
                    self.max_degree,
                    stat_slot(slots, t),
                ]
            })
            .collect()
    }

    fn validate(
        &self,
        machine: &Machine,
        thread_args: &[Vec<u64>],
        _out: &RunOutcome,
    ) -> Result<(), String> {
        let adj = thread_args[0][0];
        let slots_base = thread_args[0][5];
        let n_threads = thread_args.len();
        let stride = self.stride();

        let added = sum_slots(machine, slots_base, n_threads, 0);
        let mut total_degree = 0u64;
        for u in 0..self.n_nodes {
            let deg = machine.host_load(adj + u * stride * 8);
            if deg > self.max_degree {
                return Err(format!("node {u} degree {deg} > max {}", self.max_degree));
            }
            // Every filled slot holds a valid target.
            for s in 0..deg {
                let v = machine.host_load(adj + (u * stride + 1 + s) * 8);
                if v >= self.n_nodes {
                    return Err(format!("node {u} slot {s}: bad target {v}"));
                }
            }
            total_degree += deg;
        }
        if total_degree != added {
            return Err(format!(
                "total degree {total_degree} != successful adds {added}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_benchmark;
    use stagger_core::Mode;

    #[test]
    fn ssca2_correct_in_all_modes() {
        let w = Ssca2::tiny();
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 11);
            assert_eq!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns,
                512,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn ssca2_is_low_contention() {
        let w = Ssca2::default();
        let r = run_benchmark(&w, Mode::Htm, 8, 11);
        assert!(
            r.out.sim.aborts_per_commit() < 0.2,
            "ssca2 must be low-contention, got {:.3}",
            r.out.sim.aborts_per_commit()
        );
    }

    #[test]
    fn staggered_does_not_slow_ssca2() {
        // Result 1 of the paper: no slowdown for low-contention apps.
        let mut w = Ssca2::tiny();
        w.total_ops = 2048;
        let base = run_benchmark(&w, Mode::Htm, 8, 11);
        let stag = run_benchmark(&w, Mode::Staggered, 8, 11);
        let ratio = stag.cycles() as f64 / base.cycles() as f64;
        assert!(
            ratio < 1.15,
            "staggered must not slow down ssca2: ratio {ratio:.3}"
        );
    }
}
