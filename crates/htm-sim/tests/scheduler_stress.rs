//! Randomized elided-vs-polled stress test.
//!
//! 500 short simulations with randomized core counts and per-core op mixes
//! (transactions with retry, plain and non-transactional accesses, CAS,
//! compute bursts, observability notes, and spin-waits on a few lock
//! lines). Every scenario runs with spin-waits elided (`Core::spin_wait`
//! parks) and polled (`Machine::poll_every_spin`), and the two runs must
//! produce byte-identical stats and complete event streams: the polled run
//! is the reference for what a parked core is charged. The polled runs are
//! also folded into one digest held to a recorded constant, and in debug
//! builds every gate of every run checks its admission against the linear
//! `(clock, id)` scan.

use htm_sim::{Addr, Core, Machine, MachineConfig, ObsEvent, ObsKind, SimStats};
use stagger_prng::Xoshiro256StarStar;

const SCENARIOS: u64 = 500;

/// FNV-1a 64 over the `Debug` rendering of every scenario's polled stats
/// and complete event streams, in scenario order. A change that claims
/// bit-identical simulation keeps it; one that means to move a scenario
/// takes the new value from the failure message.
const RECORDED: u64 = 0x1b03_a495_cdf3_5186;

type Artifacts = (SimStats, Vec<Vec<ObsEvent>>);

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// Spin loops written directly against `Core`, mirroring `stagger-core`'s
// `locks.rs` (which this crate cannot depend on). A lock is the first word
// of its own line; the second word is the contended flag.

/// `LockTable::acquire`: spin with a timeout; the outcome and the cycles
/// waited go to the event stream.
async fn timed_acquire(c: &mut Core<'_>, word: Addr, timeout: u64, quantum: u64) -> bool {
    let me = c.tid() as u64 + 1;
    let mut waited = 0;
    loop {
        if c.nt_cas(word, 0, me).await {
            c.note(ObsKind::LockAcquire { word, waited });
            return true;
        }
        if c.nt_load(word + 8).await == 0 {
            c.nt_store(word + 8, 1).await;
        }
        if waited >= timeout {
            c.note(ObsKind::LockTimeout { word, waited });
            return false;
        }
        waited += quantum;
        let left = (timeout.saturating_sub(waited)).div_ceil(quantum);
        waited += quantum * c.spin_wait(&[word, word + 8], quantum, left).await;
    }
}

/// `GlobalLock::acquire`: spin until the CAS wins.
async fn acquire(c: &mut Core<'_>, word: Addr, quantum: u64) {
    let me = c.tid() as u64 + 1;
    while !c.nt_cas(word, 0, me).await {
        c.spin_wait(&[word], quantum, u64::MAX).await;
    }
}

/// `GlobalLock::wait_until_free`.
async fn wait_until_free(c: &mut Core<'_>, word: Addr, quantum: u64) {
    while c.nt_load(word).await != 0 {
        c.spin_wait(&[word], quantum, u64::MAX).await;
    }
}

/// `LockTable::release`: consume the contended flag, free the word.
async fn release(c: &mut Core<'_>, word: Addr) {
    let contended = c.nt_load(word + 8).await != 0;
    if contended {
        c.nt_store(word + 8, 0).await;
    }
    c.nt_store(word, 0).await;
    c.note(ObsKind::LockRelease { word, contended });
}

/// One short run: each core executes a deterministic pseudo-random op
/// sequence derived from `(seed, tid)`, hammering a small pool of shared
/// cache lines so transactions genuinely conflict and abort.
fn run_scenario(
    seed: u64,
    n_cores: usize,
    iters: u64,
    n_lines: u64,
    polled: bool,
) -> (Artifacts, u64) {
    let m = Machine::new(MachineConfig::cores(n_cores).small().record_events());
    if polled {
        m.poll_every_spin();
    }
    let base = m.host_alloc(8 * n_lines, true);
    let locks = m.host_alloc(8 * 2, true);
    m.run_uniform(move |mut c| async move {
        let mut rng =
            Xoshiro256StarStar::seed_from_u64(seed ^ (c.tid() as u64).wrapping_mul(0x9E37));
        let line = |rng: &mut Xoshiro256StarStar| base + rng.below(n_lines) * 64;
        let lock = |rng: &mut Xoshiro256StarStar| locks + rng.below(2) * 64;
        for i in 0..iters {
            match rng.below(11) {
                0 | 1 => {
                    // A small transaction, retried until it commits. Each
                    // retry re-draws addresses; determinism only requires
                    // that both runs see the same abort sequence.
                    loop {
                        c.tx_begin((i % 4) as u32).await;
                        let n_ops = 1 + rng.below(3);
                        let mut ok = true;
                        for j in 0..n_ops {
                            let a = line(&mut rng);
                            let r = if rng.gen_bool() {
                                c.tx_load(a, 0x100 + j).await.map(|_| ())
                            } else {
                                c.tx_store(a, i * 31 + j, 0x200 + j).await
                            };
                            if r.is_err() {
                                ok = false;
                                break;
                            }
                        }
                        if ok && c.tx_commit().await.is_ok() {
                            break;
                        }
                    }
                }
                2 => {
                    let a = line(&mut rng);
                    let v = c.plain_load(a).await;
                    c.nt_store(a, v.wrapping_add(1)).await;
                }
                3 => {
                    let a = line(&mut rng);
                    let old = c.nt_load(a).await;
                    c.nt_cas(a, old, old.wrapping_add(i)).await;
                }
                4 => c.compute(1 + rng.below(7)),
                5 => {
                    // Advisory lock with a timeout (often shorter than the
                    // holder's critical section), sometimes from inside a
                    // transaction that another core may doom meanwhile.
                    let (w, quantum) = (lock(&mut rng), 1 + rng.below(40));
                    let in_tx = rng.gen_bool();
                    if in_tx {
                        c.tx_begin(7).await;
                        let _ = c.tx_store(line(&mut rng), i, 0x300).await;
                    }
                    if timed_acquire(&mut c, w, rng.below(800), quantum).await {
                        c.compute(rng.below(300));
                        release(&mut c, w).await;
                    }
                    if in_tx && c.tx_active() {
                        let _ = c.tx_commit().await;
                    }
                }
                6 => {
                    let (w, quantum) = (lock(&mut rng), 1 + rng.below(40));
                    acquire(&mut c, w, quantum).await;
                    c.compute(rng.below(500));
                    release(&mut c, w).await;
                }
                7 => {
                    let (w, quantum) = (lock(&mut rng), 1 + rng.below(40));
                    wait_until_free(&mut c, w, quantum).await;
                }
                8 => {
                    // A writer hitting the second word of a watched line.
                    let w = lock(&mut rng) + 8;
                    c.nt_store(w, rng.below(3)).await;
                }
                9 => {
                    let w = lock(&mut rng) + 8;
                    let old = rng.below(3);
                    c.nt_cas(w, old, rng.below(3)).await;
                }
                _ => {
                    // Exercise the non-gated observability path.
                    let w = line(&mut rng);
                    c.note(ObsKind::LockAcquire { word: w, waited: 0 });
                }
            }
        }
    });
    assert!(
        m.events_dropped().iter().all(|&d| d == 0),
        "an event ring wrapped: the streams compared below would be truncated"
    );
    ((m.stats(), m.take_events()), m.sched_stats().elided_ops)
}

#[test]
fn randomized_runs_are_elision_invariant() {
    let mut meta = Xoshiro256StarStar::seed_from_u64(0x5EED_2015);
    let (mut gated, mut elided) = (0, 0);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for s in 0..SCENARIOS {
        let seed = meta.next_u64();
        // Mostly tiny machines (they maximize conflict density per op),
        // with a steady trickle of 64-core scenarios to exercise the
        // multi-word ownership bitsets past the old u32 boundary.
        let n_cores = if meta.below(16) == 0 {
            64
        } else {
            1 + meta.index(4)
        };
        let iters = 1 + meta.below(8);
        let n_lines = 1 + meta.below(3);
        let (want, _) = run_scenario(seed, n_cores, iters, n_lines, true);
        gated += want.0.aggregate().gated_ops;
        digest = fnv1a(digest, format!("{want:?}").as_bytes());
        let (got, skipped) = run_scenario(seed, n_cores, iters, n_lines, false);
        elided += skipped;
        assert_eq!(
            got, want,
            "scenario {s} (cores={n_cores} iters={iters} lines={n_lines}): \
             elided run diverged from the polled one"
        );
    }
    assert_eq!(
        digest, RECORDED,
        "the scenarios' stats or event streams moved: recorded {RECORDED:#018x}, computed {digest:#018x}"
    );
    // The comparison is only worth something if waits were really skipped.
    assert!(
        elided * 5 > gated,
        "only {elided} of {gated} gated ops were elided"
    );
}
