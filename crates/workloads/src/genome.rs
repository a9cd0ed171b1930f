//! genome (STAMP): segment deduplication through a fixed-size hash table.
//!
//! The most time-consuming atomic block inserts a handful of segments into
//! a shared, deliberately overloaded chained hash table (paper Figure 3
//! shows this exact block and its anchor table). Conflict *chains* arise
//! when concurrent transactions insert into overlapping bucket sets; the
//! policy escapes them through **locking promotion**: the bucket-list
//! anchor's parent is the table anchor, so persistent coarse-grain
//! contention ends up serializing on the table as a whole (Section 6.2).
//!
//! Layout: vector `{0: size, 1..: elems}`; hashtable `{0: numBucket,
//! 1..: bucket heads}`; chain node `{0: key, 1: next}` (sorted chains, as
//! in STAMP's `TMlist_insert`).

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use std::collections::HashSet;
use tm_interp::RunOutcome;
use tm_ir::{FuncBuilder, FuncKind, Module};

/// The genome benchmark (paper input: `-g1024 -s16 -n16384`, scaled).
#[derive(Debug, Clone)]
pub struct Genome {
    /// Total segments in the input vector (with duplicates).
    pub n_segments: u64,
    /// Distinct segment values.
    pub n_distinct: u64,
    /// Hash-table buckets — small on purpose: STAMP's table "ends up
    /// overloaded and prone to contention".
    pub n_buckets: u64,
    /// Segments inserted per transaction (the `ii..ii_stop` chunk).
    pub segs_per_txn: u64,
}

impl Default for Genome {
    fn default() -> Self {
        Genome {
            n_segments: 4096,
            n_distinct: 1024,
            n_buckets: 512,
            segs_per_txn: 2,
        }
    }
}

impl Genome {
    pub fn tiny() -> Genome {
        Genome {
            n_segments: 256,
            n_distinct: 64,
            n_buckets: 16,
            segs_per_txn: 4,
        }
    }
}

impl Workload for Genome {
    fn name(&self) -> &'static str {
        "genome"
    }

    fn build_module(&self) -> Module {
        let mut m = Module::new();

        // vector_at(vec, i) -> element (0 if out of range) — lib/vector.c
        let mut b = FuncBuilder::new("vector_at", 2, FuncKind::Normal);
        let (vec, i) = (b.param(0), b.param(1));
        let sz = b.load(vec, 0);
        let oob = b.ge(i, sz);
        b.if_(oob, |b| b.ret_const(0));
        let v = b.load_idx(vec, i, 1);
        b.ret(Some(v));
        let vector_at = m.add_function(b.finish());

        // hashtable_insert(ht, key) -> 1 if inserted (sorted chain) —
        // lib/hashtable.c + lib/list.c
        let mut b = FuncBuilder::new("hashtable_insert", 2, FuncKind::Normal);
        let (ht, key) = (b.param(0), b.param(1));
        let nb = b.load(ht, 0);
        let idx = b.bin(tm_ir::BinOp::Rem, key, nb);
        let head = b.load_idx(ht, idx, 1);
        // Find insertion point: prev == 0 means "insert at bucket head".
        let prev = b.const_(0);
        let cur = b.mov(head);
        let l = b.begin_loop();
        let is_null = b.eqi(cur, 0);
        b.break_if(l, is_null);
        let ckey = b.load(cur, 0);
        let dup = b.eq(ckey, key);
        b.if_(dup, |b| b.ret_const(0));
        let ge = b.gt(ckey, key);
        b.break_if(l, ge);
        b.assign(prev, cur);
        let nx = b.load(cur, 1);
        b.assign(cur, nx);
        b.end_loop(l);
        let node = b.alloc_const(2, true);
        b.store(key, node, 0);
        b.store(cur, node, 1);
        let at_head = b.eqi(prev, 0);
        b.if_else(
            at_head,
            |b| b.store_idx(node, ht, idx, 1),
            |b| b.store(node, prev, 1),
        );
        b.ret_const(1);
        let ht_insert = m.add_function(b.finish());

        // atomic tx_insert_segments(ht, vec, start, stop) -> inserted count
        // — genome/sequencer.c:292
        let mut b = FuncBuilder::new("tx_insert_segments", 4, FuncKind::Atomic { ab_id: 0 });
        let ht = b.param(0);
        let vec = b.param(1);
        let ii = b.mov(b.param(2));
        let stop = b.param(3);
        let inserted = b.const_(0);
        b.while_(
            |b| b.lt(ii, stop),
            |b| {
                let seg = b.call(vector_at, &[vec, ii]);
                let ok = b.call(ht_insert, &[ht, seg]);
                let s = b.add(inserted, ok);
                b.assign(inserted, s);
                let nx = b.addi(ii, 1);
                b.assign(ii, nx);
            },
        );
        b.ret(Some(inserted));
        let tx_insert = m.add_function(b.finish());

        // thread_main(ht, vec, start, count, chunk, slot) -> txns run
        let mut b = FuncBuilder::new("thread_main", 6, FuncKind::Normal);
        let ht = b.param(0);
        let vec = b.param(1);
        let start = b.param(2);
        let count = b.param(3);
        let chunk = b.param(4);
        let slot = b.param(5);
        let i = b.mov(start);
        let end = b.add(start, count);
        let inserted = b.const_(0);
        let txns = b.const_(0);
        b.while_(
            |b| b.lt(i, end),
            |b| {
                let stop0 = b.add(i, chunk);
                let over = b.gt(stop0, end);
                let stop = b.reg();
                b.if_else(over, |b| b.assign(stop, end), |b| b.assign(stop, stop0));
                let ok = b.call(tx_insert, &[ht, vec, i, stop]);
                let s = b.add(inserted, ok);
                b.assign(inserted, s);
                let t = b.addi(txns, 1);
                b.assign(txns, t);
                b.compute(400); // the non-insert phases of genome (matching, building)
                b.assign(i, stop);
            },
        );
        b.store(inserted, slot, 0);
        b.ret(Some(txns));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("genome module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        let mut rng = stagger_prng::Xoshiro256StarStar::seed_from_u64(0x67656E6F6D65);

        // Segment vector: values drawn from `n_distinct` keys (nonzero so 0
        // can mean "null").
        let vec = machine.host_alloc(1 + self.n_segments, true);
        machine.host_store(vec, self.n_segments);
        for s in 0..self.n_segments {
            let key = rng.below(self.n_distinct) * 8 + 1;
            machine.host_store(vec + 8 * (1 + s), key);
        }
        // Empty hashtable.
        let ht = machine.host_alloc(1 + self.n_buckets, true);
        machine.host_store(ht, self.n_buckets);

        let slots = alloc_stat_slots(machine, n_threads);
        let per = self.n_segments / n_threads as u64;
        (0..n_threads)
            .map(|t| {
                vec![
                    ht,
                    vec,
                    t as u64 * per,
                    per,
                    self.segs_per_txn,
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
        let ht = thread_args[0][0];
        let vec = thread_args[0][1];
        let slots_base = thread_args[0][5];
        let n_threads = thread_args.len();

        // Expected: the distinct set of segments across processed ranges
        // (threads process their whole range).
        let per = self.n_segments / n_threads as u64;
        let mut expect: HashSet<u64> = HashSet::new();
        for t in 0..n_threads as u64 {
            for s in t * per..(t + 1) * per {
                expect.insert(machine.host_load(vec + 8 * (1 + s)));
            }
        }

        let mut found: HashSet<u64> = HashSet::new();
        for bkt in 0..self.n_buckets {
            let mut cur = machine.host_load(ht + 8 * (1 + bkt));
            let mut last = 0u64;
            let mut steps = 0u64;
            while cur != 0 {
                let k = machine.host_load(cur);
                if k <= last {
                    return Err(format!(
                        "bucket {bkt} not strictly sorted: {k} after {last}"
                    ));
                }
                if k % self.n_buckets != bkt {
                    return Err(format!("key {k} in wrong bucket {bkt}"));
                }
                if !found.insert(k) {
                    return Err(format!("duplicate key {k} across buckets"));
                }
                last = k;
                cur = machine.host_load(cur + 8);
                steps += 1;
                if steps > self.n_segments + 1 {
                    return Err("chain too long — cycle?".into());
                }
            }
        }
        if found != expect {
            return Err(format!(
                "table has {} keys, expected {} distinct segments",
                found.len(),
                expect.len()
            ));
        }
        let inserted = sum_slots(machine, slots_base, n_threads, 0);
        if inserted != found.len() as u64 {
            return Err(format!(
                "successful inserts {inserted} != table size {}",
                found.len()
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
    fn genome_correct_in_all_modes() {
        let w = Genome::tiny();
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 21);
            let txns = 256 / 4; // segments / chunk
            assert_eq!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns,
                txns,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn genome_promotion_can_fire() {
        // Under heavy chain contention the policy should reach coarse or
        // promoted activations at least sometimes.
        let mut w = Genome::tiny();
        w.n_buckets = 4;
        w.n_segments = 512;
        w.n_distinct = 128;
        let r = run_benchmark(&w, Mode::Staggered, 8, 23);
        assert!(
            r.out.rt.act_coarse > 0 || r.out.rt.act_precise > 0,
            "contended genome must activate ALPs"
        );
    }
}
