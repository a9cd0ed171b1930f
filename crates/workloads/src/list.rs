//! Sorted linked-list microbenchmark (RSTM IntSet \[22\]).
//!
//! Threads search/insert/delete over one shared, sorted singly-linked list
//! of 64 nodes. `list-lo` runs the paper's 90/5/5 lookup/insert/delete mix,
//! `list-hi` the 60/20/20 mix (the paper's worst case: it "stops scaling
//! after 4 threads").
//!
//! The contention pattern is Table 1's `LA = N, LP = Y` class: the PC of
//! the first node access recurs, but the conflicting node address wanders —
//! so the policy must fall back to coarse-grain mode, locking from the
//! first node touched (the sentinel ⇒ effectively the whole list), which
//! is exactly what Section 6.2 reports for list-hi.
//!
//! Layout: list object `{0: head}`; node `{0: key, 1: next}`, each
//! line-aligned. A sentinel node with key 0 heads the list; real keys are
//! `1..=key_range`.

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use tm_interp::RunOutcome;
use tm_ir::{FuncBuilder, FuncKind, Module};

const OFF_KEY: u32 = 0;
const OFF_NEXT: u32 = 1;

/// The list microbenchmark; `lo()`/`hi()` select the paper's two mixes.
#[derive(Debug, Clone)]
pub struct ListBench {
    pub name: &'static str,
    pub lookup_pct: u64,
    pub insert_pct: u64,
    /// Number of possible keys (initial population fills every other key).
    pub key_range: u64,
    pub total_ops: u64,
    /// Modeled non-transactional work between operations, in cycles.
    pub think_cycles: u32,
}

impl ListBench {
    /// 90% lookup / 5% insert / 5% delete over 64 nodes.
    pub fn lo() -> ListBench {
        ListBench {
            name: "list-lo",
            lookup_pct: 90,
            insert_pct: 5,
            key_range: 128,
            total_ops: 4096,
            think_cycles: 100,
        }
    }

    /// 60% lookup / 20% insert / 20% delete over 64 nodes.
    pub fn hi() -> ListBench {
        ListBench {
            name: "list-hi",
            lookup_pct: 60,
            insert_pct: 20,
            key_range: 128,
            total_ops: 4096,
            think_cycles: 100,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny(lookup_pct: u64, insert_pct: u64) -> ListBench {
        ListBench {
            name: "list-tiny",
            lookup_pct,
            insert_pct,
            key_range: 32,
            total_ops: 256,
            think_cycles: 40,
        }
    }
}

impl Workload for ListBench {
    fn name(&self) -> &'static str {
        self.name
    }

    fn build_module(&self) -> Module {
        let mut m = Module::new();

        // list_find_prev(list, key) -> node with greatest key < `key`
        // (at least the sentinel).
        let mut b = FuncBuilder::new("list_find_prev", 2, FuncKind::Normal);
        let (list, key) = (b.param(0), b.param(1));
        let prev = b.load(list, 0); // sentinel
        let cur = b.load(prev, OFF_NEXT);
        let l = b.begin_loop();
        let is_null = b.eqi(cur, 0);
        b.break_if(l, is_null);
        let ckey = b.load(cur, OFF_KEY);
        let ge = b.ge(ckey, key);
        b.break_if(l, ge);
        b.compute(6); // per-node comparison work (widens the window, as in
                      // the RSTM IntSet where keys are compared via calls)
        b.assign(prev, cur);
        let nx = b.load(cur, OFF_NEXT);
        b.assign(cur, nx);
        b.end_loop(l);
        b.ret(Some(prev));
        let find_prev = m.add_function(b.finish());

        // atomic tx_lookup(list, key) -> 1 if present
        let mut b = FuncBuilder::new("tx_lookup", 2, FuncKind::Atomic { ab_id: 0 });
        let (list, key) = (b.param(0), b.param(1));
        let prev = b.call(find_prev, &[list, key]);
        let cur = b.load(prev, OFF_NEXT);
        let is_null = b.eqi(cur, 0);
        b.if_(is_null, |b| b.ret_const(0));
        let ckey = b.load(cur, OFF_KEY);
        let found = b.eq(ckey, key);
        b.ret(Some(found));
        m.add_function(b.finish());

        // atomic tx_insert(list, key) -> 1 if inserted
        let mut b = FuncBuilder::new("tx_insert", 2, FuncKind::Atomic { ab_id: 1 });
        let (list, key) = (b.param(0), b.param(1));
        let prev = b.call(find_prev, &[list, key]);
        let cur = b.load(prev, OFF_NEXT);
        let nonnull = b.nei(cur, 0);
        b.if_(nonnull, |b| {
            let ckey = b.load(cur, OFF_KEY);
            let dup = b.eq(ckey, key);
            b.if_(dup, |b| b.ret_const(0));
        });
        let node = b.alloc_const(2, true); // line-aligned, as the paper's Lockless allocator
        b.store(key, node, OFF_KEY);
        b.store(cur, node, OFF_NEXT);
        b.store(node, prev, OFF_NEXT);
        b.ret_const(1);
        m.add_function(b.finish());

        // atomic tx_delete(list, key) -> 1 if removed
        let mut b = FuncBuilder::new("tx_delete", 2, FuncKind::Atomic { ab_id: 2 });
        let (list, key) = (b.param(0), b.param(1));
        let prev = b.call(find_prev, &[list, key]);
        let cur = b.load(prev, OFF_NEXT);
        let is_null = b.eqi(cur, 0);
        b.if_(is_null, |b| b.ret_const(0));
        let ckey = b.load(cur, OFF_KEY);
        let miss = b.ne(ckey, key);
        b.if_(miss, |b| b.ret_const(0));
        let nn = b.load(cur, OFF_NEXT);
        b.store(nn, prev, OFF_NEXT);
        b.ret_const(1);
        m.add_function(b.finish());

        // thread_main(list, n_ops, key_range, lookup_pct, ins_pct, slot,
        //             think) -> ops done
        let mut b = FuncBuilder::new("thread_main", 7, FuncKind::Normal);
        let list = b.param(0);
        let n_ops = b.param(1);
        let key_range = b.param(2);
        let lpct = b.param(3);
        let ipct = b.param(4);
        let slot = b.param(5);
        let _think = b.param(6); // reserved: think time is compiled in
        let tx_lookup = m.expect("tx_lookup");
        let tx_insert = m.expect("tx_insert");
        let tx_delete = m.expect("tx_delete");

        let i = b.const_(0);
        let ins = b.const_(0);
        let del = b.const_(0);
        let li_pct = b.add(lpct, ipct);
        b.while_(
            |b| b.lt(i, n_ops),
            |b| {
                let r = b.rand_below(100);
                let k0 = b.rand(key_range);
                let key = b.addi(k0, 1);
                let is_lookup = b.lt(r, lpct);
                b.if_else(
                    is_lookup,
                    |b| {
                        b.call_void(tx_lookup, &[list, key]);
                    },
                    |b| {
                        let is_ins = b.lt(r, li_pct);
                        b.if_else(
                            is_ins,
                            |b| {
                                let ok = b.call(tx_insert, &[list, key]);
                                let s = b.add(ins, ok);
                                b.assign(ins, s);
                            },
                            |b| {
                                let ok = b.call(tx_delete, &[list, key]);
                                let s = b.add(del, ok);
                                b.assign(del, s);
                            },
                        );
                    },
                );
                // Non-critical think time between operations.
                b.compute(self.think_cycles);
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.store(ins, slot, 0);
        b.store(del, slot, 1);
        b.ret(Some(i));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("list module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        // Build: sentinel + every other key, sorted.
        let list = machine.host_alloc(1, true);
        // The header and sentinel are line-aligned "static" structures;
        // only interior nodes are packed like malloc'd objects.
        let sentinel = machine.host_alloc(8, true);
        machine.host_store(list, sentinel);
        machine.host_store(sentinel + 8 * OFF_KEY as u64, 0);
        let mut prev = sentinel;
        let mut initial = 0u64;
        let mut k = 2;
        while k <= self.key_range {
            let node = machine.host_alloc(8, true);
            machine.host_store(node + 8 * OFF_KEY as u64, k);
            machine.host_store(node + 8 * OFF_NEXT as u64, 0);
            machine.host_store(prev + 8 * OFF_NEXT as u64, node);
            prev = node;
            initial += 1;
            k += 2;
        }
        let _ = initial;
        let slots = alloc_stat_slots(machine, n_threads);
        let per_thread = self.total_ops / n_threads as u64;
        (0..n_threads)
            .map(|t| {
                vec![
                    list,
                    per_thread,
                    self.key_range,
                    self.lookup_pct,
                    self.insert_pct,
                    stat_slot(slots, t),
                    self.think_cycles as u64,
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
        let list = thread_args[0][0];
        let slots_base = thread_args[0][5];
        let n_threads = thread_args.len();

        // Walk: strictly ascending keys within range.
        let sentinel = machine.host_load(list);
        let mut cur = machine.host_load(sentinel + 8 * OFF_NEXT as u64);
        let mut last = 0u64;
        let mut len = 0u64;
        while cur != 0 {
            let k = machine.host_load(cur + 8 * OFF_KEY as u64);
            if k <= last {
                return Err(format!("list not strictly sorted: {k} after {last}"));
            }
            if k > self.key_range {
                return Err(format!("key {k} out of range"));
            }
            last = k;
            len += 1;
            cur = machine.host_load(cur + 8 * OFF_NEXT as u64);
            if len > self.key_range + 1 {
                return Err("list longer than key range — cycle?".into());
            }
        }

        let initial = self.key_range / 2;
        let ins = sum_slots(machine, slots_base, n_threads, 0);
        let del = sum_slots(machine, slots_base, n_threads, 1);
        let expected = initial + ins - del;
        if len != expected {
            return Err(format!(
                "length {len} != initial {initial} + ins {ins} - del {del} = {expected}"
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
    fn list_correct_in_all_modes() {
        let w = ListBench::tiny(60, 20);
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 1);
            assert_eq!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns,
                256,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn list_hi_contends_and_staggered_reduces_aborts() {
        let mut w = ListBench::hi();
        w.total_ops = 1024;
        let base = run_benchmark(&w, Mode::Htm, 8, 3);
        let stag = run_benchmark(&w, Mode::Staggered, 8, 3);
        let b = base.out.sim.aborts_per_commit();
        let s = stag.out.sim.aborts_per_commit();
        assert!(b > 0.3, "list-hi must contend at 8 threads (got {b:.2})");
        assert!(
            s < b,
            "staggering must reduce aborts: baseline {b:.2} vs staggered {s:.2}"
        );
    }

    #[test]
    fn list_single_thread_identical_results() {
        let w = ListBench::tiny(90, 5);
        let a = run_benchmark(&w, Mode::Htm, 1, 7);
        let b = run_benchmark(&w, Mode::Htm, 1, 7);
        assert_eq!(a.out.sim.exec_cycles, b.out.sim.exec_cycles);
    }

    #[test]
    fn list_module_compiles_with_few_anchors() {
        let w = ListBench::lo();
        let m = w.build_module();
        let c = stagger_compiler::compile(&m);
        // Instrumentation stays a small fraction of loads/stores.
        assert!(c.stats.anchors > 0);
        assert!(c.stats.anchor_fraction() < 0.7);
        assert_eq!(c.stats.atomic_blocks, 3);
    }
}
