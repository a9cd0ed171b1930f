//! Seeded property test of the coherence-directory invariant.
//!
//! Random mixes of transactional and nontransactional loads, stores, CAS,
//! commits and explicit aborts on 2–80 cores, eager and lazy, over a small
//! pool of lines and with caches of a few ways, so fills evict all the
//! time. After every batch each core asks the machine whether, for every
//! line of the pool, the directory still says exactly what the caches and
//! the live transactions say:
//!
//! * `sharers[line] == {c : l1_c ∋ line ∨ l2_c ∋ line}`,
//! * `writers[line]` = cores whose live transaction wrote the line,
//!   `readers ∪ writers` = cores whose live transaction touched it — so
//!   both are empty at quiescence.
//!
//! Half the accesses inside an attempt go back to a line the attempt
//! already holds, reads upgrading to writes among them, and each such load
//! must return the last value the attempt read or wrote there: a remote
//! write to a held line dooms the attempt before it can be seen.
//!
//! (The debug-build cross-check in the miss path covers the same invariant
//! from the inside, on every miss of every other test.)

use std::cell::Cell;

use htm_sim::{Machine, MachineConfig, LINE_BYTES};
use stagger_prng::Xoshiro256StarStar;

const TRIALS: u64 = 60;
const POOL_LINES: u64 = 24;

/// One run; returns its (commits, conflict, capacity, explicit aborts) and
/// its (transactional accesses, of them to a held line).
fn run_trial(seed: u64, n_cores: usize, lazy: bool, batches: u64) -> ([u64; 4], [u64; 2]) {
    let mut cfg = MachineConfig::cores(n_cores).small();
    if lazy {
        cfg = cfg.lazy();
    }
    // 4 L1 and 8 L2 entries per core against a 24-line pool: evictions
    // from either level, with and without the other still holding the line.
    (cfg.l1_sets, cfg.l1_ways, cfg.l2_sets, cfg.l2_ways) = (2, 2, 4, 2);
    let m = Machine::new(cfg);
    let base = m.host_alloc(8 * POOL_LINES, true);
    let pool: Vec<u64> = (0..POOL_LINES).map(|i| base / LINE_BYTES + i).collect();
    let (m, pool) = (&m, &pool);
    let (accesses, repeats) = (&Cell::new(0), &Cell::new(0));
    m.run_uniform(move |mut c| async move {
        let tid = c.tid() as u64;
        // Every transactional store writes a value no other store writes.
        let mut next_val = tid << 32;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ tid.wrapping_mul(0x9E37_79B9));
        let addr = |rng: &mut Xoshiro256StarStar| base + rng.below(POOL_LINES) * LINE_BYTES;
        for batch in 0..batches {
            for _ in 0..1 + rng.below(4) {
                let a = addr(&mut rng);
                match rng.below(8) {
                    0..=3 => {
                        // One attempt, no retry: conflict and capacity
                        // aborts are part of the mix.
                        c.tx_begin(batch as u32).await;
                        let mut live = true;
                        // (address, value) the attempt last read or wrote.
                        let mut seen: Vec<(u64, u64)> = Vec::new();
                        for pc in 0..2 + rng.below(6) {
                            let a = if !seen.is_empty() && rng.below(3) < 2 {
                                seen[rng.index(seen.len())].0
                            } else {
                                addr(&mut rng)
                            };
                            let at = seen.iter().position(|e| e.0 == a);
                            let kind = rng.below(5);
                            if kind < 4 {
                                accesses.set(accesses.get() + 1);
                                repeats.set(repeats.get() + at.is_some() as u64);
                            }
                            let r = match kind {
                                0 | 1 => c.tx_load(a, pc).await.map(|v| match at {
                                    Some(i) => assert_eq!(
                                        v, seen[i].1,
                                        "seed {seed:#x} cores {n_cores} lazy {lazy} core {tid}: \
                                         repeat load of {a:#x} in one attempt"
                                    ),
                                    None => seen.push((a, v)),
                                }),
                                2 | 3 => {
                                    next_val += 1;
                                    let v = next_val;
                                    c.tx_store(a, v, pc).await.map(|()| match at {
                                        Some(i) => seen[i].1 = v,
                                        None => seen.push((a, v)),
                                    })
                                }
                                // Nontransactional load inside the attempt
                                // (may bypass an L1 set full of pinned lines).
                                _ => {
                                    c.nt_load(a).await;
                                    Ok(())
                                }
                            };
                            if r.is_err() {
                                live = false;
                                break;
                            }
                        }
                        if live && rng.below(4) == 0 {
                            c.tx_abort().await;
                        } else if live {
                            let _ = c.tx_commit().await;
                        }
                    }
                    4 => {
                        c.nt_load(a).await;
                    }
                    5 => {
                        c.plain_load(a).await;
                    }
                    6 => c.nt_store(a, tid).await,
                    _ => {
                        let old = c.nt_load(a).await;
                        c.nt_cas(a, old, old.wrapping_add(1)).await;
                    }
                }
            }
            c.compute(rng.below(40));
            if let Some(v) = m.directory_violation(pool) {
                panic!("seed {seed:#x} cores {n_cores} lazy {lazy} core {tid} batch {batch}: {v}");
            }
        }
    });
    // Quiescence: no live transaction, so no reader or writer anywhere.
    assert_eq!(m.directory_violation(pool), None, "seed {seed:#x}");
    let mut totals = [0; 4];
    for c in &m.stats().cores {
        let per_core = [
            c.commits,
            c.conflict_aborts,
            c.capacity_aborts,
            c.explicit_aborts,
        ];
        for (t, v) in totals.iter_mut().zip(per_core) {
            *t += v;
        }
    }
    (totals, [accesses.get(), repeats.get()])
}

#[test]
fn directory_matches_caches_and_transactions() {
    let mut meta = Xoshiro256StarStar::seed_from_u64(0xD1EC_2015);
    let (mut totals, mut mix) = ([0; 4], [0; 2]);
    for trial in 0..TRIALS {
        let seed = meta.next_u64();
        // Mostly small machines (dense conflicts), every fourth trial past
        // the single-word CoreSet boundary.
        let n_cores = if trial % 4 == 3 {
            65 + meta.index(16)
        } else {
            2 + meta.index(15)
        };
        let batches = if n_cores > 64 { 6 } else { 40 };
        let (t, m) = run_trial(seed, n_cores, meta.gen_bool(), batches);
        for (sum, v) in totals.iter_mut().zip(t).chain(mix.iter_mut().zip(m)) {
            *sum += v;
        }
    }
    // The mix really is a mix: every way a transaction can end occurred,
    // and about half the transactional accesses found their line held.
    assert!(totals.iter().all(|&n| n > 0), "outcomes {totals:?}");
    let [accesses, repeats] = mix;
    assert!(
        (40..=60).contains(&(100 * repeats / accesses)),
        "{repeats} of {accesses} transactional accesses to a held line"
    );
}
