//! vacation (STAMP): travel-reservation database.
//!
//! Three relations (flights, rooms, cars) keyed by id, plus per-customer
//! reservation lists. STAMP implements the relations as red-black trees; we
//! substitute **unbalanced binary search trees built from uniformly shuffled
//! keys** (documented in DESIGN.md) — expected depth O(log n) without
//! rebalancing writes, preserving vacation's role as the *low-contention,
//! low-wasted-work* datapoint (Table 1: 1% irrevocable, W/U 0.34).
//!
//! Layout: relation `{0: root}`; tree node `{0: key, 1: left, 2: right,
//! 3: total, 4: used}`; customer table = array of chain heads; reservation
//! node `{0: item_key, 1: next}`.

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use tm_interp::RunOutcome;
use tm_ir::{FuncBuilder, FuncKind, Module};

/// The vacation benchmark (paper input: `-n4 -q40 -u90 -r16387 -t4096`,
/// scaled).
#[derive(Debug, Clone)]
pub struct Vacation {
    /// Rows per relation.
    pub n_relations: u64,
    pub n_customers: u64,
    pub total_ops: u64,
    /// Capacity (`total`) of each row.
    pub row_capacity: u64,
    /// Percentage of operations that make reservations (the rest query).
    pub reserve_pct: u64,
}

impl Default for Vacation {
    fn default() -> Self {
        Vacation {
            n_relations: 1024,
            n_customers: 256,
            total_ops: 2048,
            row_capacity: 100,
            reserve_pct: 90,
        }
    }
}

impl Vacation {
    pub fn tiny() -> Vacation {
        Vacation {
            n_relations: 128,
            n_customers: 32,
            total_ops: 256,
            row_capacity: 50,
            reserve_pct: 90,
        }
    }
}

const N_KEY: u32 = 0;
const N_LEFT: u32 = 1;
const N_RIGHT: u32 = 2;
const N_TOTAL: u32 = 3;
const N_USED: u32 = 4;

impl Workload for Vacation {
    fn name(&self) -> &'static str {
        "vacation"
    }

    fn build_module(&self) -> Module {
        let mut m = Module::new();

        // tree_find(rel, key) -> node ptr or 0
        let mut b = FuncBuilder::new("tree_find", 2, FuncKind::Normal);
        let (rel, key) = (b.param(0), b.param(1));
        let cur = b.load(rel, 0);
        let l = b.begin_loop();
        let is_null = b.eqi(cur, 0);
        b.break_if(l, is_null);
        let ck = b.load(cur, N_KEY);
        let hit = b.eq(ck, key);
        b.if_(hit, |b| b.ret(Some(cur)));
        b.compute(3); // key comparison work per level
        let goleft = b.lt(key, ck);
        b.if_else(
            goleft,
            |b| {
                let n = b.load(cur, N_LEFT);
                b.assign(cur, n);
            },
            |b| {
                let n = b.load(cur, N_RIGHT);
                b.assign(cur, n);
            },
        );
        b.end_loop(l);
        b.ret_const(0);
        let tree_find = m.add_function(b.finish());

        // reserve_one(rel, key) -> 1 if a unit was reserved
        let mut b = FuncBuilder::new("reserve_one", 2, FuncKind::Normal);
        let (rel, key) = (b.param(0), b.param(1));
        let node = b.call(tree_find, &[rel, key]);
        let miss = b.eqi(node, 0);
        b.if_(miss, |b| b.ret_const(0));
        let used = b.load(node, N_USED);
        let total = b.load(node, N_TOTAL);
        let full = b.ge(used, total);
        b.if_(full, |b| b.ret_const(0));
        let u2 = b.addi(used, 1);
        b.store(u2, node, N_USED);
        b.ret_const(1);
        let reserve_one = m.add_function(b.finish());

        // atomic tx_reserve(flights, rooms, cars, customers, cust, k1, k2,
        //                   k3) -> units reserved (0 or 1)
        //
        // As in STAMP's client logic, a reservation transaction *queries*
        // several relations (read-only price lookups) and reserves the
        // chosen one; the itinerary is recorded on the customer's chain.
        let mut b = FuncBuilder::new("tx_reserve", 8, FuncKind::Atomic { ab_id: 0 });
        let flights = b.param(0);
        let rooms = b.param(1);
        let cars = b.param(2);
        let customers = b.param(3);
        let cust = b.param(4);
        let k1 = b.param(5);
        let k2 = b.param(6);
        let k3 = b.param(7);
        let q2 = b.call(tree_find, &[rooms, k2]);
        let q3 = b.call(tree_find, &[cars, k3]);
        let _ = (q2, q3); // price comparison is modeled compute
        b.compute(40);
        let sum = b.call(reserve_one, &[flights, k1]);
        let zero = b.const_(0);
        let got_any = b.gt(sum, zero);
        b.if_(got_any, |b| {
            // Record the itinerary on the customer's chain (customer
            // records are one line apart: stride 8 words).
            let eight = b.const_(8);
            let coff = b.mul(cust, eight);
            let node = b.alloc_const(2, true);
            b.store(sum, node, 0);
            let head = b.load_idx(customers, coff, 0);
            b.store(head, node, 1);
            b.store_idx(node, customers, coff, 0);
        });
        b.ret(Some(sum));
        let tx_reserve = m.add_function(b.finish());

        // atomic tx_query(rel, key) -> available units
        let mut b = FuncBuilder::new("tx_query", 2, FuncKind::Atomic { ab_id: 1 });
        let (rel, key) = (b.param(0), b.param(1));
        let node = b.call(tree_find, &[rel, key]);
        let miss = b.eqi(node, 0);
        b.if_(miss, |b| b.ret_const(0));
        let used = b.load(node, N_USED);
        let total = b.load(node, N_TOTAL);
        let avail = b.sub(total, used);
        b.ret(Some(avail));
        let tx_query = m.add_function(b.finish());

        // thread_main(flights, rooms, cars, customers, ops, n_rel, n_cust,
        //             reserve_pct, slot) -> ops
        let mut b = FuncBuilder::new("thread_main", 9, FuncKind::Normal);
        let flights = b.param(0);
        let rooms = b.param(1);
        let cars = b.param(2);
        let customers = b.param(3);
        let ops = b.param(4);
        let n_rel = b.param(5);
        let n_cust = b.param(6);
        let reserve_pct = b.param(7);
        let slot = b.param(8);
        let i = b.const_(0);
        let reserved = b.const_(0);
        b.while_(
            |b| b.lt(i, ops),
            |b| {
                let r = b.rand_below(100);
                let k1 = b.rand(n_rel);
                let is_reserve = b.lt(r, reserve_pct);
                b.if_else(
                    is_reserve,
                    |b| {
                        let k2 = b.rand(n_rel);
                        let k3 = b.rand(n_rel);
                        let cust = b.rand(n_cust);
                        let got = b.call(
                            tx_reserve,
                            &[flights, rooms, cars, customers, cust, k1, k2, k3],
                        );
                        let s = b.add(reserved, got);
                        b.assign(reserved, s);
                    },
                    |b| {
                        b.call_void(tx_query, &[flights, k1]);
                    },
                );
                b.compute(120);
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.store(reserved, slot, 0);
        b.ret(Some(i));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("vacation module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        let mut rng = stagger_prng::Xoshiro256StarStar::seed_from_u64(0x76616361);

        let mut build_tree = |seed_shift: u64| -> u64 {
            let rel = machine.host_alloc(1, true);
            let mut keys: Vec<u64> = (0..self.n_relations).collect();
            rng.shuffle(&mut keys);
            let _ = seed_shift;
            for &k in &keys {
                let node = machine.host_alloc(8, true);
                machine.host_store(node + 8 * N_KEY as u64, k);
                machine.host_store(node + 8 * N_TOTAL as u64, self.row_capacity);
                // Insert without rebalancing.
                let root = machine.host_load(rel);
                if root == 0 {
                    machine.host_store(rel, node);
                    continue;
                }
                let mut cur = root;
                loop {
                    let ck = machine.host_load(cur + 8 * N_KEY as u64);
                    let off = if k < ck { N_LEFT } else { N_RIGHT } as u64;
                    let child = machine.host_load(cur + 8 * off);
                    if child == 0 {
                        machine.host_store(cur + 8 * off, node);
                        break;
                    }
                    cur = child;
                }
            }
            rel
        };
        let flights = build_tree(1);
        let rooms = build_tree(2);
        let cars = build_tree(3);
        // One line (8 words) per customer so chain heads never false-share.
        let customers = machine.host_alloc(self.n_customers * 8, true);
        let slots = alloc_stat_slots(machine, n_threads);
        let per = self.total_ops / n_threads as u64;
        (0..n_threads)
            .map(|t| {
                vec![
                    flights,
                    rooms,
                    cars,
                    customers,
                    per,
                    self.n_relations,
                    self.n_customers,
                    self.reserve_pct,
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
        let customers = thread_args[0][3];
        let slots_base = thread_args[0][8];
        let n_threads = thread_args.len();

        // Sum of used over all three trees equals units reserved; no row
        // overbooked.
        let mut used_total = 0u64;
        for (rel_i, &rel) in thread_args[0][..3].iter().enumerate() {
            let mut stack = vec![machine.host_load(rel)];
            let mut seen = 0u64;
            while let Some(n) = stack.pop() {
                if n == 0 {
                    continue;
                }
                seen += 1;
                if seen > self.n_relations {
                    return Err("tree cycle".into());
                }
                let used = machine.host_load(n + 8 * N_USED as u64);
                let total = machine.host_load(n + 8 * N_TOTAL as u64);
                if used > total {
                    return Err(format!("row overbooked: {used}/{total}"));
                }
                used_total += used;
                stack.push(machine.host_load(n + 8 * N_LEFT as u64));
                stack.push(machine.host_load(n + 8 * N_RIGHT as u64));
            }
            if seen != self.n_relations {
                return Err(format!("tree {rel_i} has {seen} nodes"));
            }
        }
        let reserved = sum_slots(machine, slots_base, n_threads, 0);
        if used_total != reserved {
            return Err(format!("used {used_total} != reserved {reserved}"));
        }
        // Customer chains record the same number of itineraries: each
        // successful reservation appends exactly one node.
        let mut chain_units = 0u64;
        for c in 0..self.n_customers {
            let mut cur = machine.host_load(customers + c * 64);
            let mut steps = 0u64;
            while cur != 0 {
                chain_units += machine.host_load(cur);
                cur = machine.host_load(cur + 8);
                steps += 1;
                if steps > self.total_ops + 1 {
                    return Err("customer chain cycle".into());
                }
            }
        }
        if chain_units != reserved {
            return Err(format!(
                "customer itineraries record {chain_units} units, reserved {reserved}"
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
    fn vacation_correct_in_all_modes() {
        let w = Vacation::tiny();
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 61);
            assert_eq!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns,
                256,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn vacation_is_low_contention() {
        let w = Vacation::default();
        let r = run_benchmark(&w, Mode::Htm, 8, 63);
        assert!(
            r.out.sim.aborts_per_commit() < 1.0,
            "vacation is the low-contention datapoint, got {:.2}",
            r.out.sim.aborts_per_commit()
        );
    }
}
