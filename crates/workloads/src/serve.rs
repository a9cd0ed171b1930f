//! Serving-scenario load generator: the memcached model driven by a
//! deterministic stream of timestamped requests.
//!
//! The paper's evaluation reports throughput-style aggregates; a serving
//! deployment judges the same contention by *per-request latency under
//! offered load*. This workload is memcached's model — the same tables,
//! `tx_get`/`tx_set` and contention source (the global statistics block
//! updated mid-transaction, Table 1's "statistics information"), built by
//! [`crate::memcached`] — with the unthrottled `rand`-driven loop replaced
//! by a request schedule generated host-side at setup, and with
//! memcached 1.4's sampled LRU touch. The load is open loop: each request
//! carries an arrival timestamp in simulated cycles; the serving core
//! parks on [`tm_ir::Inst::IdleUntil`] until the arrival, so queueing
//! delay (arrival → first attempt) is real and latency diverges when
//! service time exceeds the interarrival gap.
//!
//! The traffic is a flash crowd (integer-only and seeded from the in-tree
//! PRNG, so a schedule is a pure function of the config and core id).
//! Requests are spread over four disjoint tenant key spaces (tenant chosen
//! uniformly per request), each with a geometric octave skew: popularity
//! halves each octave, an integer stand-in for a Zipfian curve. The middle
//! third of each core's schedule is the crowd: it sends 95% of requests
//! to tenant 0's tiny hot set (`keys_per_tenant / 1024`, at least one
//! key), reads only, and quadruples the arrival rate — the scenario where
//! advisory-lock staggering should hold a latency SLO that plain HTM retry
//! storms violate.
//!
//! Unlike the ten table workloads, total work scales *with* the core
//! count (each core serves its own `requests_per_core` stream): the serve
//! exhibits measure latency against per-core offered load, not speedup
//! against a 1-thread run.

use crate::memcached::{add_kv_functions, populate, Table};
use crate::{alloc_stat_slots, stat_slot, Workload};
use htm_sim::Machine;
use stagger_prng::Xoshiro256StarStar;
use tm_interp::RunOutcome;
use tm_ir::{BinOp, FuncBuilder, FuncKind, Module};

/// Words per request record in the simulated-memory schedule array.
const REQ_WORDS: u64 = 4;
/// Disjoint key spaces the traffic is spread over.
const N_TENANTS: u64 = 4;
/// GET share of requests outside the flash crowd, percent.
const GET_PCT: u64 = 90;
/// GETs touch an item's LRU timestamp only when it is at least this
/// stale, so flash-crowd reads of a viral key stay read-only on the item
/// line instead of turning into all-pairs write conflicts.
const LRU_EVERY: u64 = 20_000;

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

/// The serving workload: memcached's tables under flash-crowd traffic.
#[derive(Debug, Clone)]
pub struct Serve {
    /// Mean interarrival gap per core, simulated cycles.
    pub interarrival: u64,
    pub requests_per_core: u64,
    pub keys_per_tenant: u64,
    pub n_buckets: u64,
    /// Schedule seed — part of the config so the schedule is regenerable
    /// after a run (the serve exhibit re-derives arrivals from it).
    pub schedule_seed: u64,
    name: &'static str,
}

impl Serve {
    /// Parse a registry name of the form `serve-flash-i<cycles>` (mean
    /// interarrival `<cycles>`). `quick` shrinks the per-core request
    /// count to smoke scale. Only the canonical spelling of `<cycles>`
    /// parses (no sign, no leading zeros), so one run has one name. An
    /// interarrival whose last arrival would not fit in 64 bits is
    /// rejected.
    pub fn parse_name(name: &str, quick: bool) -> Option<Serve> {
        let interarrival: u64 = name.strip_prefix("serve-flash-i")?.parse().ok()?;
        let requests_per_core = if quick { 24 } else { 96 };
        // Every gap is under 1.5 interarrivals.
        let max_gap = interarrival.checked_add(interarrival / 2)?;
        if interarrival == 0
            || max_gap.checked_mul(requests_per_core).is_none()
            || format!("serve-flash-i{interarrival}") != name
        {
            return None;
        }
        Some(Serve {
            interarrival,
            requests_per_core,
            keys_per_tenant: if quick { 256 } else { 1024 },
            n_buckets: if quick { 256 } else { 1024 },
            schedule_seed: 0x5345_5256, // "SERV"
            name: Box::leak(name.to_owned().into_boxed_str()),
        })
    }

    fn total_keys(&self) -> u64 {
        N_TENANTS * self.keys_per_tenant
    }

    /// Is request `i` of a schedule inside the flash-crowd window (the
    /// middle third)?
    fn in_flash(&self, i: u64) -> bool {
        let n = self.requests_per_core;
        i >= n / 3 && i < 2 * n / 3
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
                    let tenant = rng.below(N_TENANTS);
                    tenant * self.keys_per_tenant + Self::zipf_key(&mut rng, self.keys_per_tenant)
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
                let get_pct = if flash { 100 } else { GET_PCT };
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

    fn build_module(&self) -> Module {
        let mut m = Module::new();
        let (tx_get, tx_set) = add_kv_functions(&mut m, Some(LRU_EVERY));

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
        // Every key is pre-populated, so gets hit and chains are warm.
        let table = populate(machine, self.n_buckets, self.total_keys());
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
                vec![
                    table.ht,
                    table.stats,
                    reqs,
                    sched.len() as u64,
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
        let table = Table {
            ht: thread_args[0][0],
            stats: thread_args[0][1],
            n_buckets: self.n_buckets,
            n_keys: self.total_keys(),
        };
        let total = thread_args.iter().map(|a| a[3]).sum();
        let (misses, created) =
            table.check(machine, thread_args[0][4], thread_args.len(), total)?;
        // Every key is pre-populated, so gets never miss, and sets only
        // overwrite, so nothing is created.
        if misses != 0 {
            return Err(format!("{misses} misses despite full pre-population"));
        }
        if created != 0 {
            return Err(format!("{created} items created by sets of populated keys"));
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
        let w = Serve::parse_name("serve-flash-i800", true).unwrap();
        assert_eq!(w.name(), "serve-flash-i800");
        for bad in [
            // The removed closed-loop load and key distributions.
            "serve-zipf-c200",
            "serve-hot-i1500",
            "serve-zipf-i800",
            // Arrivals that would not fit in 64 bits.
            "serve-flash-i18446744073709551615",
            "serve",
            "serve-",
            "serve-flash",
            "serve-warm-i800",
            "serve-flash-x800",
            "serve-flash-i0",
            "serve-flash-iNaN",
            // Non-canonical spellings of serve-flash-i600.
            "serve-flash-i+0600",
            "serve-flash-i0600",
        ] {
            assert!(Serve::parse_name(bad, true).is_none(), "{bad}");
        }
        // The largest full-scale load whose gaps (each under 1.5
        // interarrivals) cannot overflow: 96 requests x 1.5 = 144.
        let top = u64::MAX / 144;
        let w = Serve::parse_name(&format!("serve-flash-i{top}"), false).unwrap();
        assert!(w.schedule(0).last().unwrap().arrival > top);
        assert!(Serve::parse_name(&format!("serve-flash-i{}", u64::MAX / 100), false).is_none());
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
