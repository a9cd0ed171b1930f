//! tsp: branch-and-bound travelling-salesman solver (the paper's own
//! C++ benchmark).
//!
//! All candidate tours live in a shared priority queue. The paper used an
//! STX B+ tree with the contended `size` field removed; we substitute an
//! **array-backed binary min-heap** (documented in DESIGN.md): conflicts
//! concentrate on the root/size line with secondary conflicts along
//! sift paths — the same "stable first-access PC, mostly-stable address"
//! pattern ("Staggered Transactions successfully discover that the head of
//! the priority queue ... is the most contended object", Section 6.2).
//!
//! Layout: heap `{0: size, 1: cap, 2..: priorities}`; shared incumbent
//! bound `{0: best}`.

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use tm_interp::RunOutcome;
use tm_ir::{FuncBuilder, FuncKind, Module};

/// The tsp benchmark (paper: 17 cities; here op-count driven).
#[derive(Debug, Clone)]
pub struct Tsp {
    /// Tasks initially in the queue.
    pub initial_tasks: u64,
    pub heap_capacity: u64,
    /// Pop/expand/push rounds across all threads.
    pub total_ops: u64,
    /// Tour-evaluation work between queue operations, in cycles.
    pub eval_cycles: u32,
}

impl Default for Tsp {
    fn default() -> Self {
        Tsp {
            initial_tasks: 1024,
            heap_capacity: 16384,
            total_ops: 2048,
            eval_cycles: 5000,
        }
    }
}

impl Tsp {
    pub fn tiny() -> Tsp {
        Tsp {
            initial_tasks: 64,
            heap_capacity: 4096,
            total_ops: 256,
            eval_cycles: 80,
        }
    }
}

impl Workload for Tsp {
    fn name(&self) -> &'static str {
        "tsp"
    }

    fn build_module(&self) -> Module {
        let mut m = Module::new();

        // atomic tx_pop_min(heap) -> min priority (u64::MAX if empty)
        let mut b = FuncBuilder::new("tx_pop_min", 1, FuncKind::Atomic { ab_id: 0 });
        let heap = b.param(0);
        let sz = b.load(heap, 0);
        let empty = b.eqi(sz, 0);
        b.if_(empty, |b| {
            let max = b.const_(u64::MAX);
            b.ret(Some(max));
        });
        let zero = b.const_(0);
        let min = b.load_idx(heap, zero, 2);
        let last_i = b.subi(sz, 1);
        let last = b.load_idx(heap, last_i, 2);
        b.store(last_i, heap, 0); // size -= 1
                                  // Sift the moved-up last element down from the root.
        let hole = b.const_(0);
        let val = b.mov(last);
        let n = b.mov(last_i); // new size
        let l = b.begin_loop();
        let two = b.const_(2);
        let lc0 = b.mul(hole, two);
        let lc = b.addi(lc0, 1);
        let done = b.ge(lc, n);
        b.break_if(l, done);
        // pick the smaller child
        let rc = b.addi(lc, 1);
        let child = b.reg();
        b.assign(child, lc);
        let has_rc = b.lt(rc, n);
        b.if_(has_rc, |b| {
            let lv = b.load_idx(heap, lc, 2);
            let rv = b.load_idx(heap, rc, 2);
            let r_smaller = b.lt(rv, lv);
            b.if_(r_smaller, |b| b.assign(child, rc));
        });
        let cv = b.load_idx(heap, child, 2);
        let stop = b.le(val, cv);
        b.break_if(l, stop);
        b.store_idx(cv, heap, hole, 2);
        b.assign(hole, child);
        b.end_loop(l);
        let nonempty = b.gt(n, zero);
        b.if_(nonempty, |b| b.store_idx(val, heap, hole, 2));
        b.ret(Some(min));
        let tx_pop = m.add_function(b.finish());

        // atomic tx_push(heap, pri) -> 1 if pushed (0 when full)
        let mut b = FuncBuilder::new("tx_push", 2, FuncKind::Atomic { ab_id: 1 });
        let (heap, pri) = (b.param(0), b.param(1));
        let sz = b.load(heap, 0);
        let cap = b.load(heap, 1);
        let full = b.ge(sz, cap);
        b.if_(full, |b| b.ret_const(0));
        let i = b.mov(sz);
        // Sift up.
        let l = b.begin_loop();
        let at_root = b.eqi(i, 0);
        b.break_if(l, at_root);
        let im1 = b.subi(i, 1);
        let two = b.const_(2);
        let parent = b.bin(tm_ir::BinOp::Div, im1, two);
        let pv = b.load_idx(heap, parent, 2);
        let stop = b.le(pv, pri);
        b.break_if(l, stop);
        b.store_idx(pv, heap, i, 2);
        b.assign(i, parent);
        b.end_loop(l);
        b.store_idx(pri, heap, i, 2);
        let sz2 = b.addi(sz, 1);
        b.store(sz2, heap, 0);
        b.ret_const(1);
        let tx_push = m.add_function(b.finish());

        // atomic tx_update_best(best, v) -> 1 if improved
        let mut b = FuncBuilder::new("tx_update_best", 2, FuncKind::Atomic { ab_id: 2 });
        let (best, v) = (b.param(0), b.param(1));
        let cur = b.load(best, 0);
        let better = b.lt(v, cur);
        b.if_(better, |b| {
            b.store(v, best, 0);
            b.ret_const(1);
        });
        b.ret_const(0);
        let tx_best = m.add_function(b.finish());

        // thread_main(heap, best, ops, eval, slot) -> ops done
        let mut b = FuncBuilder::new("thread_main", 5, FuncKind::Normal);
        let heap = b.param(0);
        let best = b.param(1);
        let ops = b.param(2);
        let _eval = b.param(3);
        let slot = b.param(4);
        let i = b.const_(0);
        let pops = b.const_(0);
        let pushes = b.const_(0);
        b.while_(
            |b| b.lt(i, ops),
            |b| {
                let t = b.call(tx_pop, &[heap]);
                let empty = b.eqi(t, u64::MAX);
                b.if_else(
                    empty,
                    |b| {
                        // Queue drained: reseed a fresh task so work
                        // continues (branch-and-bound would generate more).
                        let seed = b.rand_below(1 << 20);
                        let ok = b.call(tx_push, &[heap, seed]);
                        let s = b.add(pushes, ok);
                        b.assign(pushes, s);
                    },
                    |b| {
                        let p = b.addi(pops, 1);
                        b.assign(pops, p);
                        // Evaluate the partial tour (parallel work).
                        b.compute(self.eval_cycles);
                        // Expand: push 1–2 children with larger bounds.
                        let d1 = b.rand_below(1000);
                        let c1a = b.add(t, d1);
                        let c1 = b.addi(c1a, 1);
                        let ok1 = b.call(tx_push, &[heap, c1]);
                        let s1 = b.add(pushes, ok1);
                        b.assign(pushes, s1);
                        let coin = b.rand_below(100);
                        let fifty = b.const_(50);
                        let second = b.lt(coin, fifty);
                        b.if_(second, |b| {
                            let d2 = b.rand_below(1000);
                            let c2a = b.add(t, d2);
                            let c2 = b.addi(c2a, 1);
                            let ok2 = b.call(tx_push, &[heap, c2]);
                            let s2 = b.add(pushes, ok2);
                            b.assign(pushes, s2);
                        });
                        // Occasionally try to improve the incumbent.
                        let coin2 = b.rand_below(100);
                        let five = b.const_(5);
                        let improve = b.lt(coin2, five);
                        b.if_(improve, |b| {
                            b.call_void(tx_best, &[best, t]);
                        });
                    },
                );
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.store(pops, slot, 0);
        b.store(pushes, slot, 1);
        b.ret(Some(i));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("tsp module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        let mut rng = stagger_prng::Xoshiro256StarStar::seed_from_u64(0x747370);
        let heap = machine.host_alloc(2 + self.heap_capacity, true);
        machine.host_store(heap + 8, self.heap_capacity);
        // Host-side heapify by sorted insert (ascending values are already
        // a valid min-heap).
        let mut tasks: Vec<u64> = (0..self.initial_tasks)
            .map(|_| rng.gen_range(1, 1_000_000))
            .collect();
        tasks.sort_unstable();
        machine.host_store(heap, self.initial_tasks);
        for (i, t) in tasks.iter().enumerate() {
            machine.host_store(heap + 8 * (2 + i as u64), *t);
        }
        let best = machine.host_alloc(8, true);
        machine.host_store(best, u64::MAX);
        let slots = alloc_stat_slots(machine, n_threads);
        let per = self.total_ops / n_threads as u64;
        (0..n_threads)
            .map(|t| {
                vec![
                    heap,
                    best,
                    per,
                    self.eval_cycles as u64,
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
        let heap = thread_args[0][0];
        let slots_base = thread_args[0][4];
        let n_threads = thread_args.len();
        let size = machine.host_load(heap);
        let cap = machine.host_load(heap + 8);
        if size > cap {
            return Err(format!("heap size {size} > capacity {cap}"));
        }
        // Min-heap property.
        for i in 1..size {
            let parent = (i - 1) / 2;
            let pv = machine.host_load(heap + 8 * (2 + parent));
            let cv = machine.host_load(heap + 8 * (2 + i));
            if pv > cv {
                return Err(format!("heap violated at {i}: parent {pv} > child {cv}"));
            }
        }
        // Conservation: initial + pushes - pops == final size.
        let pops = sum_slots(machine, slots_base, n_threads, 0);
        let pushes = sum_slots(machine, slots_base, n_threads, 1);
        let expected = self.initial_tasks + pushes - pops;
        if size != expected {
            return Err(format!(
                "size {size} != initial {} + pushes {pushes} - pops {pops}",
                self.initial_tasks
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
    fn tsp_correct_in_all_modes() {
        let w = Tsp::tiny();
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 41);
            assert!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns >= 256,
                "{}: every op runs at least one txn",
                mode.name()
            );
        }
    }

    #[test]
    fn tsp_contends_on_heap_root() {
        let w = Tsp::tiny();
        let base = run_benchmark(&w, Mode::Htm, 8, 43);
        let stag = run_benchmark(&w, Mode::Staggered, 8, 43);
        let b = base.out.sim.aborts_per_commit();
        let s = stag.out.sim.aborts_per_commit();
        assert!(b > 0.3, "heap root must contend at 8 threads, got {b:.2}");
        assert!(s < b, "staggering must help: {b:.2} -> {s:.2}");
    }
}
