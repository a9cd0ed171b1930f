//! memcached (1.4.9 model): in-memory key-value store with global
//! statistics.
//!
//! The paper elides memcached's network stack and injects memslap-style
//! get/set commands directly into the command-processing functions. The
//! dominant contention is **global shared statistics accessed in the middle
//! of transactions** (Table 1: "statistics information", `LA = Y, LP = Y`):
//! the policy learns a *precise* activation on the stats line, serializing
//! just the stats-update tails of transactions while the hash-table walks
//! stay parallel.
//!
//! Layout: hash table `{0: numBucket, 1..: heads}` with item nodes
//! `{0: key, 1: next, 2: value, 3: last_access}`; stats block (one line):
//! `{0: get_hits, 1: get_misses, 2: sets, 3: total_ops, 4: bytes}`.
//! The key-value functions, the table setup and the post-run check are
//! shared with the serving workload ([`crate::serve`]).

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use tm_interp::RunOutcome;
use tm_ir::{BinOp, FuncBuilder, FuncId, FuncKind, Module};

/// The memcached benchmark (memslap-style 90/10 get/set mix).
#[derive(Debug, Clone)]
pub struct Memcached {
    pub n_buckets: u64,
    pub key_range: u64,
    /// Keys pre-populated at setup.
    pub initial_items: u64,
    pub total_ops: u64,
    pub get_pct: u64,
}

impl Default for Memcached {
    fn default() -> Self {
        Memcached {
            n_buckets: 128,
            key_range: 1024,
            initial_items: 512,
            total_ops: 4096,
            get_pct: 90,
        }
    }
}

impl Memcached {
    pub fn tiny() -> Memcached {
        Memcached {
            n_buckets: 16,
            key_range: 64,
            initial_items: 32,
            total_ops: 256,
            get_pct: 80,
        }
    }
}

const IT_KEY: u32 = 0;
const IT_NEXT: u32 = 1;
const IT_VAL: u32 = 2;
const IT_LAST: u32 = 3;

const ST_HITS: u32 = 0;
const ST_MISSES: u32 = 1;
const ST_SETS: u32 = 2;
const ST_OPS: u32 = 3;
const ST_BYTES: u32 = 4;

/// Add the key-value functions `assoc_find`, `tx_get` and `tx_set` to `m`
/// and return `(tx_get, tx_set)`. `lru_every` chooses `tx_get`'s LRU touch
/// while the IR is built: `None` stores the access time on every hit;
/// `Some(n)` stores it only when the item's timestamp is at least `n`
/// stale (memcached 1.4's sampled LRU update), so reads of a hot key stay
/// read-only on the item line.
pub(crate) fn add_kv_functions(m: &mut Module, lru_every: Option<u64>) -> (FuncId, FuncId) {
    // assoc_find(ht, key) -> item ptr or 0
    let mut b = FuncBuilder::new("assoc_find", 2, FuncKind::Normal);
    let (ht, key) = (b.param(0), b.param(1));
    let nb = b.load(ht, 0);
    let idx = b.bin(BinOp::Rem, key, nb);
    let cur = b.load_idx(ht, idx, 1);
    let l = b.begin_loop();
    let is_null = b.eqi(cur, 0);
    b.break_if(l, is_null);
    let ckey = b.load(cur, IT_KEY);
    let hit = b.eq(ckey, key);
    b.if_(hit, |b| b.ret(Some(cur)));
    let nx = b.load(cur, IT_NEXT);
    b.assign(cur, nx);
    b.end_loop(l);
    b.ret_const(0);
    let assoc_find = m.add_function(b.finish());

    // atomic tx_get(ht, stats, key, now) -> value (0 on miss)
    // process_get_command: hash walk, LRU touch, then the mid-txn
    // global stats update that the paper identifies as the bottleneck.
    let mut b = FuncBuilder::new("tx_get", 4, FuncKind::Atomic { ab_id: 0 });
    let (ht, stats, key, now) = (b.param(0), b.param(1), b.param(2), b.param(3));
    let item = b.call(assoc_find, &[ht, key]);
    // Command processing inside the atomic block (value copy, flags):
    // this is the parallel prefix the paper's staggering preserves
    // while serializing only the stats tail below.
    b.compute(150);
    let out = b.const_(0);
    let found = b.nei(item, 0);
    b.if_else(
        found,
        |b| {
            let v = b.load(item, IT_VAL);
            b.assign(out, v);
            match lru_every {
                None => b.store(now, item, IT_LAST),
                Some(n) => {
                    let last = b.load(item, IT_LAST);
                    let age = b.bin(BinOp::Sub, now, last);
                    let lim = b.const_(n);
                    let stale = b.ge(age, lim);
                    b.if_(stale, |b| b.store(now, item, IT_LAST));
                }
            }
            let h = b.load(stats, ST_HITS);
            let h2 = b.addi(h, 1);
            b.store(h2, stats, ST_HITS);
        },
        |b| {
            let ms = b.load(stats, ST_MISSES);
            let ms2 = b.addi(ms, 1);
            b.store(ms2, stats, ST_MISSES);
        },
    );
    let t = b.load(stats, ST_OPS);
    let t2 = b.addi(t, 1);
    b.store(t2, stats, ST_OPS);
    b.ret(Some(out));
    let tx_get = m.add_function(b.finish());

    // atomic tx_set(ht, stats, key, val) -> 1 if new item
    let mut b = FuncBuilder::new("tx_set", 4, FuncKind::Atomic { ab_id: 1 });
    let (ht, stats, key, val) = (b.param(0), b.param(1), b.param(2), b.param(3));
    let item = b.call(assoc_find, &[ht, key]);
    b.compute(150); // item assembly inside the atomic block
    let created = b.const_(0);
    let found = b.nei(item, 0);
    b.if_else(
        found,
        |b| {
            b.store(val, item, IT_VAL);
        },
        |b| {
            let nb = b.load(ht, 0);
            let idx = b.bin(BinOp::Rem, key, nb);
            let head = b.load_idx(ht, idx, 1);
            let node = b.alloc_const(4, true);
            b.store(key, node, IT_KEY);
            b.store(head, node, IT_NEXT);
            b.store(val, node, IT_VAL);
            b.store_const(0, node, IT_LAST);
            b.store_idx(node, ht, idx, 1);
            b.assign_const(created, 1);
        },
    );
    let s = b.load(stats, ST_SETS);
    let s2 = b.addi(s, 1);
    b.store(s2, stats, ST_SETS);
    let by = b.load(stats, ST_BYTES);
    let by2 = b.addi(by, 8);
    b.store(by2, stats, ST_BYTES);
    let t = b.load(stats, ST_OPS);
    let t2 = b.addi(t, 1);
    b.store(t2, stats, ST_OPS);
    b.ret(Some(created));
    let tx_set = m.add_function(b.finish());
    (tx_get, tx_set)
}

/// A key-value table in simulated memory: the hash table, the stats
/// block, and the shape it was populated with.
pub(crate) struct Table {
    pub ht: u64,
    pub stats: u64,
    pub n_buckets: u64,
    /// Keys `1..=n_keys` were pre-populated.
    pub n_keys: u64,
}

/// Allocate a hash table of `n_buckets`, pre-populate keys `1..=n_keys`
/// (value `10 * key`), then allocate the stats block.
pub(crate) fn populate(machine: &Machine, n_buckets: u64, n_keys: u64) -> Table {
    let ht = machine.host_alloc(1 + n_buckets, true);
    machine.host_store(ht, n_buckets);
    for k in 1..=n_keys {
        let idx = k % n_buckets;
        let head = machine.host_load(ht + 8 * (1 + idx));
        let node = machine.host_alloc(8, true);
        machine.host_store(node + 8 * IT_KEY as u64, k);
        machine.host_store(node + 8 * IT_NEXT as u64, head);
        machine.host_store(node + 8 * IT_VAL as u64, k * 10);
        machine.host_store(ht + 8 * (1 + idx), node);
    }
    let stats = machine.host_alloc(8, true);
    Table {
        ht,
        stats,
        n_buckets,
        n_keys,
    }
}

impl Table {
    /// After `total` requests by `n_threads` threads, each of which left
    /// `[created, gets]` in its stats slot under `slots_base`: stats
    /// conservation (the contended counters must be exact) and table
    /// integrity (chain keys unique and in the right bucket, item count
    /// == populated + created). Returns `(misses, created)`.
    pub(crate) fn check(
        &self,
        machine: &Machine,
        slots_base: u64,
        n_threads: usize,
        total: u64,
    ) -> Result<(u64, u64), String> {
        let stat = |off: u32| machine.host_load(self.stats + 8 * off as u64);
        let ops = stat(ST_OPS);
        if ops != total {
            return Err(format!("stats.total_ops {ops} != {total}"));
        }
        let gets = sum_slots(machine, slots_base, n_threads, 1);
        let (hits, misses) = (stat(ST_HITS), stat(ST_MISSES));
        if hits + misses != gets {
            return Err(format!("hits {hits} + misses {misses} != gets {gets}"));
        }
        let sets = stat(ST_SETS);
        if gets + sets != total {
            return Err(format!("gets {gets} + sets {sets} != {total}"));
        }

        let created = sum_slots(machine, slots_base, n_threads, 0);
        let mut count = 0u64;
        let mut seen = std::collections::HashSet::new();
        for bkt in 0..self.n_buckets {
            let mut cur = machine.host_load(self.ht + 8 * (1 + bkt));
            while cur != 0 {
                let k = machine.host_load(cur + 8 * IT_KEY as u64);
                if k % self.n_buckets != bkt {
                    return Err(format!("key {k} in wrong bucket {bkt}"));
                }
                if !seen.insert(k) {
                    return Err(format!("duplicate item {k}"));
                }
                count += 1;
                cur = machine.host_load(cur + 8 * IT_NEXT as u64);
                if count > self.n_keys + total + 1 {
                    return Err("chain cycle".into());
                }
            }
        }
        if count != self.n_keys + created {
            return Err(format!(
                "items {count} != populated {} + created {created}",
                self.n_keys
            ));
        }
        Ok((misses, created))
    }
}

impl Workload for Memcached {
    fn name(&self) -> &'static str {
        "memcached"
    }

    fn build_module(&self) -> Module {
        let mut m = Module::new();
        let (tx_get, tx_set) = add_kv_functions(&mut m, None);

        // thread_main(ht, stats, ops, key_range, get_pct, slot) -> ops
        let mut b = FuncBuilder::new("thread_main", 6, FuncKind::Normal);
        let ht = b.param(0);
        let stats = b.param(1);
        let ops = b.param(2);
        let key_range = b.param(3);
        let get_pct = b.param(4);
        let slot = b.param(5);
        let i = b.const_(0);
        let created = b.const_(0);
        let gets = b.const_(0);
        b.while_(
            |b| b.lt(i, ops),
            |b| {
                let r = b.rand_below(100);
                let k0 = b.rand(key_range);
                let key = b.addi(k0, 1);
                let is_get = b.lt(r, get_pct);
                b.if_else(
                    is_get,
                    |b| {
                        b.call_void(tx_get, &[ht, stats, key, i]);
                        let g2 = b.addi(gets, 1);
                        b.assign(gets, g2);
                    },
                    |b| {
                        let val = b.rand_below(1 << 30);
                        let c = b.call(tx_set, &[ht, stats, key, val]);
                        let c2 = b.add(created, c);
                        b.assign(created, c2);
                    },
                );
                b.compute(100); // command parsing outside the txn
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.store(created, slot, 0);
        b.store(gets, slot, 1);
        b.ret(Some(i));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("memcached module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        let t = populate(machine, self.n_buckets, self.initial_items);
        let slots = alloc_stat_slots(machine, n_threads);
        let per = self.total_ops / n_threads as u64;
        let (key_range, get_pct) = (self.key_range, self.get_pct);
        (0..n_threads)
            .map(|th| vec![t.ht, t.stats, per, key_range, get_pct, stat_slot(slots, th)])
            .collect()
    }

    fn validate(
        &self,
        machine: &Machine,
        thread_args: &[Vec<u64>],
        _out: &RunOutcome,
    ) -> Result<(), String> {
        let table = Table {
            ht: thread_args[0][0],
            stats: thread_args[0][1],
            n_buckets: self.n_buckets,
            n_keys: self.initial_items,
        };
        let total = thread_args[0][2] * thread_args.len() as u64;
        table.check(machine, thread_args[0][5], thread_args.len(), total)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_benchmark;
    use stagger_core::Mode;

    #[test]
    fn memcached_correct_in_all_modes() {
        let w = Memcached::tiny();
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 51);
            assert_eq!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns,
                256,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn memcached_stats_contention_staggered_helps() {
        let mut w = Memcached::tiny();
        w.total_ops = 1024;
        let base = run_benchmark(&w, Mode::Htm, 8, 53);
        let stag = run_benchmark(&w, Mode::Staggered, 8, 53);
        let b = base.out.sim.aborts_per_commit();
        let s = stag.out.sim.aborts_per_commit();
        assert!(b > 0.5, "global stats must contend hard, got {b:.2}");
        assert!(s < b, "staggering must help: {b:.2} -> {s:.2}");
    }
}
