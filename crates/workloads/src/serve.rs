//! Serving-scenario load generator: the memcached model driven by a
//! deterministic stream of timestamped requests.
//!
//! The paper's evaluation reports throughput-style aggregates; a serving
//! deployment judges the same contention by *per-request latency under
//! offered load*. This workload keeps memcached's data structures and
//! contention source (the global statistics block updated mid-transaction,
//! Table 1's "statistics information") and replaces the unthrottled
//! `rand`-driven loop with a request schedule generated host-side at setup.
//! The load is open loop: each request carries an arrival timestamp in
//! simulated cycles; the serving core parks on [`tm_ir::Inst::IdleUntil`]
//! until the arrival, so queueing delay (arrival → first attempt) is real
//! and latency diverges when service time exceeds the interarrival gap.
//!
//! Key-choice distributions (all integer-only and seeded from the in-tree
//! PRNG, so a schedule is a pure function of the config and core id):
//!
//! * `zipf` — geometric octave skew: popularity halves each octave, an
//!   integer stand-in for a Zipfian popularity curve.
//! * `hot` — 90% of requests hit a hot set of `keys_per_tenant / 64` keys.
//! * `flash` — a flash crowd: the middle third of each core's schedule
//!   sends 95% of requests to tenant 0's tiny hot set
//!   (`keys_per_tenant / 1024`, at least one line) *and* quadruples the
//!   arrival rate; the outer thirds behave like `zipf`.
//!
//! Requests are spread over `n_tenants` disjoint key spaces (tenant chosen
//! uniformly per request), so baseline traffic is spread while the flash
//! crowd concentrates on one tenant — the scenario where advisory-lock
//! staggering should hold a latency SLO that plain HTM retry storms
//! violate.
//!
//! Unlike the ten table workloads, total work scales *with* the core
//! count (each core serves its own `requests_per_core` stream): the serve
//! exhibits measure latency against per-core offered load, not speedup
//! against a 1-thread run.

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use stagger_prng::Xoshiro256StarStar;
use tm_interp::RunOutcome;
use tm_ir::{BinOp, FuncBuilder, FuncKind, Module};

const IT_KEY: u32 = 0;
const IT_NEXT: u32 = 1;
const IT_VAL: u32 = 2;
const IT_LAST: u32 = 3;

const ST_HITS: u32 = 0;
const ST_MISSES: u32 = 1;
const ST_SETS: u32 = 2;
const ST_OPS: u32 = 3;
const ST_BYTES: u32 = 4;

/// Words per request record in the simulated-memory schedule array.
const REQ_WORDS: u64 = 4;

/// Key-popularity distribution of the generated traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    Zipf,
    Hot,
    Flash,
}

impl Dist {
    pub fn name(self) -> &'static str {
        match self {
            Dist::Zipf => "zipf",
            Dist::Hot => "hot",
            Dist::Flash => "flash",
        }
    }
}

/// One generated request: what the schedule arrays hold, and what the
/// latency observer needs back (`arrival`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival timestamp in simulated cycles.
    pub arrival: u64,
    pub is_get: bool,
    pub key: u64,
    /// Value stored when `!is_get`.
    pub val: u64,
}

/// The serving workload: memcached's tables under generated traffic.
#[derive(Debug, Clone)]
pub struct Serve {
    pub dist: Dist,
    /// Mean interarrival gap per core, simulated cycles.
    pub interarrival: u64,
    pub requests_per_core: u64,
    pub n_tenants: u64,
    pub keys_per_tenant: u64,
    pub n_buckets: u64,
    pub get_pct: u64,
    /// GETs touch an item's LRU timestamp only when it is at least this
    /// stale (memcached 1.4's sampled LRU update) — flash-crowd reads of
    /// a viral key stay read-only on the item line instead of turning
    /// into all-pairs write conflicts.
    pub lru_every: u64,
    /// Schedule seed — part of the config so the schedule is regenerable
    /// after a run (the serve exhibit re-derives arrivals from it).
    pub schedule_seed: u64,
    name: &'static str,
}

impl Serve {
    /// Parse a registry name of the form `serve-<dist>-i<cycles>` (mean
    /// interarrival `<cycles>`), with `<dist>` one of `zipf`/`hot`/`flash`. `quick` shrinks the per-core request count
    /// to smoke scale.
    pub fn parse_name(name: &str, quick: bool) -> Option<Serve> {
        let rest = name.strip_prefix("serve-")?;
        let (dist_s, load_s) = rest.split_once('-')?;
        let dist = match dist_s {
            "zipf" => Dist::Zipf,
            "hot" => Dist::Hot,
            "flash" => Dist::Flash,
            _ => return None,
        };
        let interarrival: u64 = load_s.strip_prefix('i')?.parse().ok()?;
        if interarrival == 0 {
            return None;
        }
        Some(Serve {
            dist,
            interarrival,
            requests_per_core: if quick { 24 } else { 96 },
            n_tenants: 4,
            keys_per_tenant: if quick { 256 } else { 1024 },
            n_buckets: if quick { 256 } else { 1024 },
            get_pct: 90,
            lru_every: 20_000,
            schedule_seed: 0x5345_5256, // "SERV"
            name: Box::leak(name.to_owned().into_boxed_str()),
        })
    }

    fn total_keys(&self) -> u64 {
        self.n_tenants * self.keys_per_tenant
    }

    /// Is request `i` of a schedule inside the flash-crowd window (the
    /// middle third)?
    fn in_flash(&self, i: u64) -> bool {
        let n = self.requests_per_core;
        self.dist == Dist::Flash && i >= n / 3 && i < 2 * n / 3
    }

    /// Geometric-octave skewed key draw in `[0, range)`: each octave of
    /// keys is half as popular as the previous — an integer Zipf
    /// stand-in.
    fn zipf_key(rng: &mut Xoshiro256StarStar, range: u64) -> u64 {
        let level = (rng.next_u64().trailing_zeros() as u64).min(10);
        rng.below((range >> level).max(1))
    }

    /// Core `core`'s request schedule — a pure function of the config and
    /// core id, so exhibits can regenerate arrival timestamps after a
    /// run without carrying them through the machine.
    pub fn schedule(&self, core: usize) -> Vec<Request> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(
            self.schedule_seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut t = 0u64;
        (0..self.requests_per_core)
            .map(|i| {
                let flash = self.in_flash(i);
                // Key choice: tenant-local draw, except the flash crowd,
                // which hammers tenant 0's tiny hot set.
                let key_in_space = if flash && rng.below(100) < 95 {
                    rng.below((self.keys_per_tenant / 1024).max(1))
                } else {
                    let tenant = rng.below(self.n_tenants);
                    let local = match self.dist {
                        Dist::Zipf | Dist::Flash => Self::zipf_key(&mut rng, self.keys_per_tenant),
                        Dist::Hot => {
                            if rng.below(100) < 90 {
                                rng.below((self.keys_per_tenant / 64).max(1))
                            } else {
                                rng.below(self.keys_per_tenant)
                            }
                        }
                    };
                    tenant * self.keys_per_tenant + local
                };
                // Jittered gap with mean ~`base`: base/2 + U[0, base).
                let base = if flash {
                    (self.interarrival / 4).max(1)
                } else {
                    self.interarrival
                };
                t += base / 2 + rng.below(base.max(1));
                let arrival = t;
                // The flash crowd is a pure read burst (a viral key):
                // with the paper's one-advisory-lock-per-transaction
                // limit, keeping the burst read-only on the item line
                // leaves the global stats block as the single line the
                // lock must cover.
                let get_pct = if flash { 100 } else { self.get_pct };
                Request {
                    arrival,
                    is_get: rng.below(100) < get_pct,
                    key: key_in_space + 1, // keys are 1-based
                    val: rng.below(1 << 30),
                }
            })
            .collect()
    }
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        self.name
    }

    fn contention_source(&self) -> &'static str {
        "statistics information + flash-crowd hot keys"
    }

    fn build_module(&self) -> Module {
        let lru_every = self.lru_every;
        let mut m = Module::new();

        // assoc_find / tx_get / tx_set mirror the memcached module (same
        // ab_ids, same mid-transaction stats tail — the contention the
        // advisory-lock policy learns on).
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
        let mut b = FuncBuilder::new("tx_get", 4, FuncKind::Atomic { ab_id: 0 });
        let (ht, stats, key, now) = (b.param(0), b.param(1), b.param(2), b.param(3));
        let item = b.call(assoc_find, &[ht, key]);
        b.compute(150); // command processing inside the atomic block
        let out = b.const_(0);
        let found = b.nei(item, 0);
        b.if_else(
            found,
            |b| {
                let v = b.load(item, IT_VAL);
                b.assign(out, v);
                // Sampled LRU touch (memcached 1.4): only refresh a
                // stale timestamp, so hot-key reads stay read-only on
                // the item line.
                let last = b.load(item, IT_LAST);
                let age = b.bin(BinOp::Sub, now, last);
                let lim = b.const_(lru_every);
                let stale = b.ge(age, lim);
                b.if_(stale, |b| {
                    b.store(now, item, IT_LAST);
                });
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
        b.compute(150);
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

        // thread_main(ht, stats, reqs, n_reqs, slot) -> n_reqs
        //
        // The serving loop: read the next request record from this core's
        // schedule array, park until its arrival, dispatch to
        // tx_get/tx_set, then a small response-serialization cost outside
        // the transaction.
        let mut b = FuncBuilder::new("thread_main", 5, FuncKind::Normal);
        let ht = b.param(0);
        let stats = b.param(1);
        let reqs = b.param(2);
        let n_reqs = b.param(3);
        let slot = b.param(4);
        let i = b.const_(0);
        let created = b.const_(0);
        let gets = b.const_(0);
        let four = b.const_(REQ_WORDS);
        b.while_(
            |b| b.lt(i, n_reqs),
            |b| {
                let rec = b.bin(BinOp::Mul, i, four);
                let arrival = b.load_idx(reqs, rec, 0);
                let is_get_v = b.load_idx(reqs, rec, 1);
                let key = b.load_idx(reqs, rec, 2);
                let val = b.load_idx(reqs, rec, 3);
                b.idle_until(arrival);
                b.compute(100); // request parsing, outside the txn
                let is_get = b.nei(is_get_v, 0);
                b.if_else(
                    is_get,
                    |b| {
                        b.call_void(tx_get, &[ht, stats, key, arrival]);
                        let g2 = b.addi(gets, 1);
                        b.assign(gets, g2);
                    },
                    |b| {
                        let c = b.call(tx_set, &[ht, stats, key, val]);
                        let c2 = b.add(created, c);
                        b.assign(created, c2);
                    },
                );
                b.compute(50); // response serialization, outside the txn
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.store(created, slot, 0);
        b.store(gets, slot, 1);
        b.ret(Some(i));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("serve module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        let ht = machine.host_alloc(1 + self.n_buckets, true);
        machine.host_store(ht, self.n_buckets);
        // Pre-populate every key, so gets hit and chains are warm.
        for k in 1..=self.total_keys() {
            let idx = k % self.n_buckets;
            let head = machine.host_load(ht + 8 * (1 + idx));
            let node = machine.host_alloc(8, true);
            machine.host_store(node + 8 * IT_KEY as u64, k);
            machine.host_store(node + 8 * IT_NEXT as u64, head);
            machine.host_store(node + 8 * IT_VAL as u64, k * 10);
            machine.host_store(ht + 8 * (1 + idx), node);
        }
        let stats = machine.host_alloc(8, true);
        let slots = alloc_stat_slots(machine, n_threads);
        // Write each core's schedule into its own line-aligned array.
        (0..n_threads)
            .map(|t| {
                let sched = self.schedule(t);
                let reqs = machine.host_alloc(sched.len() as u64 * REQ_WORDS, true);
                for (i, r) in sched.iter().enumerate() {
                    let base = reqs + 8 * REQ_WORDS * i as u64;
                    machine.host_store(base, r.arrival);
                    machine.host_store(base + 8, r.is_get as u64);
                    machine.host_store(base + 16, r.key);
                    machine.host_store(base + 24, r.val);
                }
                vec![ht, stats, reqs, sched.len() as u64, stat_slot(slots, t)]
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
        let stats = thread_args[0][1];
        let slots_base = thread_args[0][4];
        let n_threads = thread_args.len();
        let total: u64 = thread_args.iter().map(|a| a[3]).sum();

        let ops = machine.host_load(stats + 8 * ST_OPS as u64);
        if ops != total {
            return Err(format!("stats.total_ops {ops} != {total}"));
        }
        let gets = sum_slots(machine, slots_base, n_threads, 1);
        let hits = machine.host_load(stats + 8 * ST_HITS as u64);
        let misses = machine.host_load(stats + 8 * ST_MISSES as u64);
        if hits + misses != gets {
            return Err(format!("hits {hits} + misses {misses} != gets {gets}"));
        }
        // Every key is pre-populated, so gets never miss.
        if misses != 0 {
            return Err(format!("{misses} misses despite full pre-population"));
        }
        let sets = machine.host_load(stats + 8 * ST_SETS as u64);
        if gets + sets != total {
            return Err(format!("gets {gets} + sets {sets} != {total}"));
        }

        // Table integrity, as in memcached.
        let created = sum_slots(machine, slots_base, n_threads, 0);
        let mut count = 0u64;
        let mut seen = std::collections::HashSet::new();
        for bkt in 0..self.n_buckets {
            let mut cur = machine.host_load(ht + 8 * (1 + bkt));
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
                if count > self.total_keys() + total + 1 {
                    return Err("chain cycle".into());
                }
            }
        }
        // Sets only overwrite pre-populated keys, so nothing is created.
        if created != 0 || count != self.total_keys() {
            return Err(format!(
                "items {count} != keys {} (created {created})",
                self.total_keys()
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
    fn serve_names_parse_and_reject() {
        for name in ["serve-flash-i800", "serve-hot-i1500"] {
            let w = Serve::parse_name(name, true).expect(name);
            assert_eq!(w.name(), name);
        }
        for bad in [
            // The removed closed-loop load.
            "serve-zipf-c200",
            "serve",
            "serve-",
            "serve-flash",
            "serve-warm-i800",
            "serve-flash-x800",
            "serve-flash-i0",
            "serve-flash-iNaN",
        ] {
            assert!(Serve::parse_name(bad, true).is_none(), "{bad}");
        }
    }

    #[test]
    fn schedules_are_deterministic_and_shaped() {
        let w = Serve::parse_name("serve-flash-i800", false).unwrap();
        let a = w.schedule(3);
        let b = w.schedule(3);
        assert_eq!(a, b, "schedule is a pure function of (config, core)");
        assert_ne!(a, w.schedule(4), "cores draw distinct streams");
        assert_eq!(a.len() as u64, w.requests_per_core);
        // Arrivals strictly increase (every gap is >= 1 cycle) and the
        // flash window's gaps are ~4x denser than the outer thirds.
        let n = a.len();
        let mut prev = 0;
        for r in &a {
            assert!(r.arrival > prev);
            prev = r.arrival;
        }
        let span = |lo: usize, hi: usize| a[hi - 1].arrival - a[lo].arrival;
        let calm = span(0, n / 3);
        let flash = span(n / 3, 2 * n / 3);
        assert!(
            flash * 2 < calm,
            "flash window must be denser: {flash} vs {calm}"
        );
        // The flash window concentrates keys on tenant 0's hot set.
        let hot = a[n / 3..2 * n / 3]
            .iter()
            .filter(|r| r.key <= (w.keys_per_tenant / 1024).max(1))
            .count();
        assert!(hot * 2 > n / 3, "flash crowd must hit the hot set: {hot}");
    }

    #[test]
    fn serve_correct_in_all_modes() {
        let w = Serve::parse_name("serve-flash-i600", true).unwrap();
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 51);
            assert_eq!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns,
                4 * w.requests_per_core,
                "under {}",
                mode.name()
            );
        }
    }
}
