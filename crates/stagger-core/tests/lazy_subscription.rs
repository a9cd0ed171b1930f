//! The documented lazy-subscription unsafety (Dice et al.) reproduced as a
//! deterministic regression pair.
//!
//! A fallback writer holding the global lock updates two lines with a
//! `x == y` invariant. A hardware transaction that begins between the two
//! stores and does *not* subscribe the lock at begin can read both lines
//! and commit before the writer's second store — committing a torn view
//! that no serial order of the two explains. Commit-time subscription (the
//! default irrevocable policy) closes the window in software; the
//! `lazy-subscription-safe` policy closes it in hardware, by validating
//! the registered lock word inside `tx_commit` itself. The deliberately
//! unsafe `lazy-subscription` policy does neither, and must observe the
//! tear — that is what makes the safe variant's pass meaningful.

use htm_sim::{body, FallbackPolicy, Machine, MachineConfig};
use stagger_core::GlobalLock;

/// Run the two-core interleaving under `policy`. Returns the machine and
/// the `(x, y)` view the hardware transaction committed.
fn committed_view(policy: FallbackPolicy) -> (Machine, (u64, u64)) {
    let machine = Machine::new(MachineConfig::cores(2).small().fallback(policy));
    let gl = GlobalLock::new(&machine);
    if policy == FallbackPolicy::LazySubscriptionSafe {
        // What SharedRt::new does for executor-driven runs.
        machine.register_commit_lock(gl.addr());
    }
    let x = machine.host_alloc(8, true);
    let y = machine.host_alloc(8, true);
    let fx = machine.host_alloc(8, true);
    let seen = machine.host_alloc(8, true);
    machine.run(vec![
        // Fallback writer: lock held across both stores, with a long
        // window between them.
        body(move |mut c| async move {
            gl.acquire(&mut c, 30).await;
            c.nt_store(x, 1).await;
            c.nt_store(fx, 1).await;
            c.compute(50_000);
            c.nt_store(y, 1).await;
            gl.release(&mut c).await;
        }),
        // Hardware transaction: begins after the first store, never
        // subscribes at begin, retries (politely waiting out the lock)
        // until some attempt commits; records the view it committed.
        body(move |mut c| async move {
            while c.nt_load(fx).await == 0 {
                c.compute(20);
            }
            loop {
                c.tx_begin(0).await;
                let lx = match c.tx_load(x, 0x100).await {
                    Ok(v) => v,
                    Err(_) => {
                        gl.wait_until_free(&mut c, 30).await;
                        continue;
                    }
                };
                let ly = match c.tx_load(y, 0x104).await {
                    Ok(v) => v,
                    Err(_) => {
                        gl.wait_until_free(&mut c, 30).await;
                        continue;
                    }
                };
                match c.tx_commit().await {
                    Ok(()) => {
                        c.nt_store(seen, lx).await;
                        c.nt_store(seen + 8, ly).await;
                        break;
                    }
                    Err(_) => gl.wait_until_free(&mut c, 30).await,
                }
            }
        }),
    ]);
    let view = (machine.host_load(seen), machine.host_load(seen + 8));
    (machine, view)
}

#[test]
fn unsafe_lazy_subscription_commits_a_torn_view() {
    let (machine, view) = committed_view(FallbackPolicy::LazySubscription);
    assert_eq!(
        view,
        (1, 0),
        "eliding the subscription must let the torn state commit"
    );
    assert_eq!(machine.stats().aggregate().subscription_aborts, 0);
}

#[test]
fn safe_lazy_subscription_prevents_the_torn_view() {
    let (machine, view) = committed_view(FallbackPolicy::LazySubscriptionSafe);
    assert_eq!(view, (1, 1), "only the writer-complete state may commit");
    // Exactly the first attempt died, at commit, with the dedicated cause.
    assert_eq!(machine.stats().aggregate().subscription_aborts, 1);
}
