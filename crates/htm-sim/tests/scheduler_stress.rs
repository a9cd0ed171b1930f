//! Randomized cross-scheduler stress test.
//!
//! 500 short simulations with randomized core counts and per-core op mixes
//! (transactions with retry, plain and non-transactional accesses, CAS,
//! compute bursts and observability notes). Every scenario runs under both
//! schedulers and must produce byte-identical stats, traces and event
//! streams: the thread-per-core driver is the independent reference for
//! the cooperative event loop's (clock, id) order.

use htm_sim::{Machine, MachineConfig, ObsEvent, ObsKind, Scheduler, SimStats, TraceEvent};
use stagger_prng::Xoshiro256StarStar;

const SCENARIOS: u64 = 500;

type Artifacts = (SimStats, Vec<Vec<TraceEvent>>, Vec<Vec<ObsEvent>>);

/// One short run: each core executes a deterministic pseudo-random op
/// sequence derived from `(seed, tid)`, hammering a small pool of shared
/// cache lines so transactions genuinely conflict and abort.
fn run_scenario(
    seed: u64,
    n_cores: usize,
    iters: u64,
    n_lines: u64,
    scheduler: Scheduler,
) -> Artifacts {
    let cfg = MachineConfig::cores(n_cores)
        .small()
        .record_trace()
        .record_events()
        .scheduler(scheduler);
    let m = Machine::new(cfg);
    let base = m.host_alloc(8 * n_lines, true);
    m.run_uniform(move |mut c| async move {
        let mut rng =
            Xoshiro256StarStar::seed_from_u64(seed ^ (c.tid() as u64).wrapping_mul(0x9E37));
        let line = |rng: &mut Xoshiro256StarStar| base + rng.below(n_lines) * 64;
        for i in 0..iters {
            match rng.below(6) {
                0 | 1 => {
                    // A small transaction, retried until it commits. Each
                    // retry re-draws addresses; determinism only requires
                    // that both schedulers see the same abort sequence.
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
                    c.plain_store(a, v.wrapping_add(1)).await;
                }
                3 => {
                    let a = line(&mut rng);
                    let old = c.nt_load(a).await;
                    c.nt_cas(a, old, old.wrapping_add(i)).await;
                }
                4 => c.compute(1 + rng.below(7)),
                _ => {
                    // Exercise the non-gated observability path.
                    let w = line(&mut rng);
                    c.note(ObsKind::LockAcquire { word: w, waited: 0 });
                }
            }
        }
    });
    (m.stats(), m.take_trace(), m.take_events())
}

#[test]
fn randomized_runs_are_scheduler_invariant() {
    let mut meta = Xoshiro256StarStar::seed_from_u64(0x5EED_2015);
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
        let run = |sch| run_scenario(seed, n_cores, iters, n_lines, sch);
        let coop = run(Scheduler::Cooperative);
        let thr = run(Scheduler::Threaded);
        assert_eq!(
            coop, thr,
            "scenario {s} (cores={n_cores} iters={iters} lines={n_lines}): \
             threaded diverged from cooperative"
        );
    }
}
