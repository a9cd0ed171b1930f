//! intruder (STAMP): network intrusion detection pipeline.
//!
//! Three atomic blocks, as in STAMP: `tx_get_packet` pops a fragment from
//! the shared input queue; `tx_process` reassembles it into the fragment
//! map **and enqueues the decoded packet onto the output queue near the end
//! of a long transaction** — the paper singles this out: "the improvement
//! in intruder comes from serializing the modifications to a global queue,
//! especially an enqueue that occurs near the end of a long transaction";
//! `tx_complete` bumps the completed counter.
//!
//! Layout: FIFO queue `{0: head, 1: tail}` of nodes `{0: val, 1: next}`;
//! fragment map = chained hash table `{0: numBucket, 1..: heads}` with
//! nodes `{0: key, 1: next}`.

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use tm_interp::RunOutcome;
use tm_ir::{FuncBuilder, FuncKind, Module};

/// The intruder benchmark (paper input: `-a10 -l4 -n2038 -s1`, scaled).
#[derive(Debug, Clone)]
pub struct Intruder {
    pub n_packets: u64,
    pub map_buckets: u64,
    /// In-transaction decode work, in cycles (makes `tx_process` long).
    pub decode_cycles: u32,
}

impl Default for Intruder {
    fn default() -> Self {
        Intruder {
            n_packets: 2048,
            map_buckets: 64,
            decode_cycles: 250,
        }
    }
}

impl Intruder {
    pub fn tiny() -> Intruder {
        Intruder {
            n_packets: 256,
            map_buckets: 16,
            decode_cycles: 80,
        }
    }
}

/// Emit `queue_pop(q) -> val (0 if empty)` into `m`.
fn build_queue_pop(m: &mut Module) -> tm_ir::FuncId {
    let mut b = FuncBuilder::new("queue_pop", 1, FuncKind::Normal);
    let q = b.param(0);
    let head = b.load(q, 0);
    let empty = b.eqi(head, 0);
    b.if_(empty, |b| b.ret_const(0));
    let val = b.load(head, 0);
    let next = b.load(head, 1);
    b.store(next, q, 0);
    let now_empty = b.eqi(next, 0);
    b.if_(now_empty, |b| {
        let z = b.const_(0);
        b.store(z, q, 1); // tail = null
    });
    b.ret(Some(val));
    m.add_function(b.finish())
}

/// Emit `queue_push(q, val)` into `m`.
fn build_queue_push(m: &mut Module) -> tm_ir::FuncId {
    let mut b = FuncBuilder::new("queue_push", 2, FuncKind::Normal);
    let (q, val) = (b.param(0), b.param(1));
    let node = b.alloc_const(2, true);
    b.store(val, node, 0);
    b.store_const(0, node, 1);
    let tail = b.load(q, 1);
    let empty = b.eqi(tail, 0);
    b.if_else(
        empty,
        |b| b.store(node, q, 0),    // head = node
        |b| b.store(node, tail, 1), // tail->next = node
    );
    b.store(node, q, 1); // tail = node
    b.ret(None);
    m.add_function(b.finish())
}

impl Workload for Intruder {
    fn name(&self) -> &'static str {
        "intruder"
    }

    fn build_module(&self) -> Module {
        let mut m = Module::new();
        let queue_pop = build_queue_pop(&mut m);
        let queue_push = build_queue_push(&mut m);

        // map_insert(map, key) -> 1 if inserted (unsorted push-front after
        // duplicate scan)
        let mut b = FuncBuilder::new("map_insert", 2, FuncKind::Normal);
        let (map, key) = (b.param(0), b.param(1));
        let nb = b.load(map, 0);
        let idx = b.bin(tm_ir::BinOp::Rem, key, nb);
        let head = b.load_idx(map, idx, 1);
        let cur = b.mov(head);
        let l = b.begin_loop();
        let is_null = b.eqi(cur, 0);
        b.break_if(l, is_null);
        let ckey = b.load(cur, 0);
        let dup = b.eq(ckey, key);
        b.if_(dup, |b| b.ret_const(0));
        let nx = b.load(cur, 1);
        b.assign(cur, nx);
        b.end_loop(l);
        let node = b.alloc_const(2, true);
        b.store(key, node, 0);
        b.store(head, node, 1);
        b.store_idx(node, map, idx, 1);
        b.ret_const(1);
        let map_insert = m.add_function(b.finish());

        // atomic tx_get_packet(inq) -> packet id (0 if drained)
        let mut b = FuncBuilder::new("tx_get_packet", 1, FuncKind::Atomic { ab_id: 0 });
        let q = b.param(0);
        let v = b.call(queue_pop, &[q]);
        b.ret(Some(v));
        let tx_get = m.add_function(b.finish());

        // atomic tx_process(map, outq, key, decode_cycles):
        //   reassemble (map insert), decode (long), enqueue near the end.
        let mut b = FuncBuilder::new("tx_process", 3, FuncKind::Atomic { ab_id: 1 });
        let (map, outq, key) = (b.param(0), b.param(1), b.param(2));
        let ins = b.call(map_insert, &[map, key]);
        b.compute(self.decode_cycles); // long decode inside the txn
        b.call_void(queue_push, &[outq, key]); // the contended tail write
        b.ret(Some(ins));
        let tx_process = m.add_function(b.finish());

        // atomic tx_complete(counter_obj)
        let mut b = FuncBuilder::new("tx_complete", 1, FuncKind::Atomic { ab_id: 2 });
        let cnt = b.param(0);
        let v = b.load(cnt, 0);
        let v2 = b.addi(v, 1);
        b.store(v2, cnt, 0);
        b.ret(None);
        let tx_complete = m.add_function(b.finish());

        // thread_main(inq, map, outq, counter, slot) -> packets processed
        let mut b = FuncBuilder::new("thread_main", 5, FuncKind::Normal);
        let inq = b.param(0);
        let map = b.param(1);
        let outq = b.param(2);
        let counter = b.param(3);
        let slot = b.param(4);
        let processed = b.const_(0);
        let inserted = b.const_(0);
        let l = b.begin_loop();
        let pkt = b.call(tx_get, &[inq]);
        let drained = b.eqi(pkt, 0);
        b.break_if(l, drained);
        b.compute(60); // header parse outside the long txn
        let ins = b.call(tx_process, &[map, outq, pkt]);
        let s = b.add(inserted, ins);
        b.assign(inserted, s);
        b.call_void(tx_complete, &[counter]);
        let p2 = b.addi(processed, 1);
        b.assign(processed, p2);
        b.end_loop(l);
        b.store(processed, slot, 0);
        b.store(inserted, slot, 1);
        b.ret(Some(processed));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("intruder module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        // Input queue pre-filled with n_packets fragments (keys 1..=n).
        let inq = machine.host_alloc(2, true);
        let mut prev = 0u64;
        for p in 0..self.n_packets {
            let node = machine.host_alloc(8, true);
            machine.host_store(node, p * 2 + 1); // odd keys, nonzero
            machine.host_store(node + 8, 0);
            if prev == 0 {
                machine.host_store(inq, node);
            } else {
                machine.host_store(prev + 8, node);
            }
            prev = node;
        }
        machine.host_store(inq + 8, prev);

        let map = machine.host_alloc(1 + self.map_buckets, true);
        machine.host_store(map, self.map_buckets);
        let outq = machine.host_alloc(2, true);
        let counter = machine.host_alloc(8, true);
        let slots = alloc_stat_slots(machine, n_threads);
        (0..n_threads)
            .map(|t| vec![inq, map, outq, counter, stat_slot(slots, t)])
            .collect()
    }

    fn validate(
        &self,
        machine: &Machine,
        thread_args: &[Vec<u64>],
        _out: &RunOutcome,
    ) -> Result<(), String> {
        let inq = thread_args[0][0];
        let outq = thread_args[0][2];
        let counter = thread_args[0][3];
        let slots_base = thread_args[0][4];
        let n_threads = thread_args.len();

        if machine.host_load(inq) != 0 {
            return Err("input queue not drained".into());
        }
        let processed = sum_slots(machine, slots_base, n_threads, 0);
        if processed != self.n_packets {
            return Err(format!(
                "processed {processed} != {} packets",
                self.n_packets
            ));
        }
        if machine.host_load(counter) != self.n_packets {
            return Err("completed counter mismatch".into());
        }
        // Output queue holds each packet exactly once.
        let mut seen = std::collections::HashSet::new();
        let mut cur = machine.host_load(outq);
        while cur != 0 {
            let k = machine.host_load(cur);
            if !seen.insert(k) {
                return Err(format!("packet {k} enqueued twice"));
            }
            cur = machine.host_load(cur + 8);
        }
        if seen.len() as u64 != self.n_packets {
            return Err(format!(
                "output queue has {} packets, expected {}",
                seen.len(),
                self.n_packets
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
    fn intruder_correct_in_all_modes() {
        let w = Intruder::tiny();
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 31);
            // 3 txns per packet (get, process, complete) + one drained
            // pop per thread.
            assert_eq!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns,
                3 * 256 + 4,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn intruder_is_high_contention_and_staggered_helps() {
        let w = Intruder::tiny();
        let base = run_benchmark(&w, Mode::Htm, 8, 33);
        let stag = run_benchmark(&w, Mode::Staggered, 8, 33);
        let b = base.out.sim.aborts_per_commit();
        let s = stag.out.sim.aborts_per_commit();
        assert!(b > 0.5, "intruder must contend hard, got {b:.2}");
        assert!(s < b, "staggering must help: {b:.2} -> {s:.2}");
    }
}
