//! Advisory lock table and the irrevocable-mode global lock.
//!
//! Both live in *simulated* memory, in dedicated cache lines that no
//! transaction ever touches speculatively, and are manipulated exclusively
//! with nontransactional loads/stores/CAS — the hardware capability the
//! paper requires (Section 4). Acquiring an advisory lock therefore never
//! grows a read/write set and never causes an abort by itself.
//!
//! Every failed spin iteration here ends in one [`Core::spin_wait`]: it
//! charges the iteration's wait quantum and hands the predictable stretch
//! of the wait to the simulator, which accounts the iterations up to the
//! next write of the lock's line (or the timeout) without executing them.
//! That relies on the contract above — a transactional write-back to one
//! of these lines would panic.

use htm_sim::obs::ObsKind;
use htm_sim::{line_of, Addr, Core, Machine, LINE_BYTES};

/// A static, pre-allocated array of advisory locks, chosen by hashing the
/// contended data address (paper Section 5.1, `AcquireLockFor`).
///
/// Each lock occupies its own cache line. The table is created once per
/// machine (host-side) and the handle is `Copy`, so every thread runtime
/// carries one.
#[derive(Debug, Clone, Copy)]
pub struct LockTable {
    base: Addr,
    n_locks: u64,
}

impl LockTable {
    /// Allocate `n_locks` lock lines in `machine`'s memory (power of two).
    pub fn new(machine: &Machine, n_locks: usize) -> LockTable {
        assert!(n_locks.is_power_of_two());
        let base = machine.host_alloc(n_locks as u64 * (LINE_BYTES / 8), true);
        LockTable {
            base,
            n_locks: n_locks as u64,
        }
    }

    /// The lock word guarding `addr` (same line ⇒ same lock; different
    /// lines spread over the table by a multiplicative hash).
    pub fn lock_addr_for(&self, addr: Addr) -> Addr {
        let line = line_of(addr);
        // Fibonacci hashing spreads consecutive lines.
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        self.base + (h % self.n_locks) * LINE_BYTES
    }

    /// Mark a lock word as contended (a waiter spun on it). The flag lives
    /// in the second word of the lock's line, so it costs no extra lines.
    async fn mark_contended(core: &mut Core<'_>, word: Addr) {
        if core.nt_load(word + 8).await == 0 {
            core.nt_store(word + 8, 1).await;
        }
    }

    /// Acquire with spin + timeout. Returns `Some(lock word)` on success;
    /// `None` when `timeout_cycles` of waiting elapsed, in which case the
    /// caller simply proceeds without the lock (advisory semantics:
    /// correctness is the HTM's job).
    ///
    /// Wait time is charged to the core's `lock_wait_cycles`.
    pub async fn acquire(
        &self,
        core: &mut Core<'_>,
        addr: Addr,
        timeout_cycles: u64,
        spin_quantum: u64,
    ) -> Option<Addr> {
        let word = self.lock_addr_for(addr);
        let me = core.tid() as u64 + 1;
        let mut waited = 0u64;
        loop {
            if core.nt_cas(word, 0, me).await {
                core.note(ObsKind::LockAcquire { word, waited });
                return Some(word);
            }
            Self::mark_contended(core, word).await;
            if waited >= timeout_cycles {
                core.note(ObsKind::LockTimeout { word, waited });
                return None;
            }
            waited += spin_quantum;
            // Whole iterations still to run before the one that times out.
            let left = (timeout_cycles.saturating_sub(waited)).div_ceil(spin_quantum.max(1));
            waited += spin_quantum * core.spin_wait(&[word, word + 8], spin_quantum, left).await;
        }
    }

    /// Release a previously acquired lock word. Returns `true` when some
    /// other thread contended for the lock while we held it (consumed:
    /// the flag is cleared) — the paper's "no contention on that lock"
    /// test for appending an empty history record.
    pub async fn release(&self, core: &mut Core<'_>, word: Addr) -> bool {
        debug_assert_eq!(core.peek(word), core.tid() as u64 + 1);
        let contended = core.nt_load(word + 8).await != 0;
        if contended {
            core.nt_store(word + 8, 0).await;
        }
        core.nt_store(word, 0).await;
        core.note(ObsKind::LockRelease { word, contended });
        contended
    }
}

/// The global fallback lock for irrevocable mode.
///
/// Hardware transactions *subscribe* by transactionally loading the word
/// immediately before commit (paper Section 6: "hardware transactions add
/// the global lock to their read set immediately before attempting to
/// commit"), so an irrevocable writer's release — or acquisition — dooms
/// any transaction that raced past it.
#[derive(Debug, Clone, Copy)]
pub struct GlobalLock {
    word: Addr,
}

impl GlobalLock {
    pub fn new(machine: &Machine) -> GlobalLock {
        GlobalLock {
            word: machine.host_alloc(LINE_BYTES / 8, true),
        }
    }

    /// The lock word's address (for transactional subscription).
    pub fn addr(&self) -> Addr {
        self.word
    }

    /// Blocking acquire (nontransactional; used only outside transactions).
    pub async fn acquire(&self, core: &mut Core<'_>, spin_quantum: u64) {
        let me = core.tid() as u64 + 1;
        while !core.nt_cas(self.word, 0, me).await {
            core.spin_wait(&[self.word], spin_quantum, u64::MAX).await;
        }
    }

    pub async fn release(&self, core: &mut Core<'_>) {
        debug_assert_eq!(core.peek(self.word), core.tid() as u64 + 1);
        core.nt_store(self.word, 0).await;
    }

    /// Is the lock currently held? (NT read.)
    pub async fn is_held(&self, core: &mut Core<'_>) -> bool {
        core.nt_load(self.word).await != 0
    }

    /// Spin (nontransactionally) until the lock is free.
    pub async fn wait_until_free(&self, core: &mut Core<'_>, spin_quantum: u64) {
        while core.nt_load(self.word).await != 0 {
            core.spin_wait(&[self.word], spin_quantum, u64::MAX).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::{body, MachineConfig};

    #[test]
    fn same_line_same_lock_distinct_lines_spread() {
        let m = Machine::new(MachineConfig::cores(1).small());
        let t = LockTable::new(&m, 256);
        assert_eq!(t.lock_addr_for(1024), t.lock_addr_for(1024 + 56));
        // Lock addresses are line-aligned and within the table.
        let mut distinct = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let w = t.lock_addr_for(4096 + i * 64);
            assert_eq!(w % LINE_BYTES, 0);
            distinct.insert(w);
        }
        assert!(distinct.len() > 128, "hash must spread lines over locks");
    }

    #[test]
    fn acquire_release_roundtrip() {
        let m = Machine::new(MachineConfig::cores(1).small());
        let t = LockTable::new(&m, 16);
        m.run(vec![body(move |mut c| async move {
            let w = t
                .acquire(&mut c, 5000, 100_000, 30)
                .await
                .expect("uncontended");
            // A zero timeout tries exactly once.
            assert!(
                t.acquire(&mut c, 5000, 0, 30).await.is_none(),
                "held lock busy"
            );
            t.release(&mut c, w).await;
            assert!(t.acquire(&mut c, 5000, 0, 30).await.is_some());
        })]);
    }

    #[test]
    fn acquire_times_out_when_held_by_other() {
        let m = Machine::new(MachineConfig::cores(2).small());
        let t = LockTable::new(&m, 16);
        let flag = m.host_alloc(8, true);
        m.run(vec![
            body(move |mut c| async move {
                let _w = t.acquire(&mut c, 5000, 100_000, 30).await.unwrap();
                c.nt_store(flag, 1).await;
                // Hold it "forever" relative to the other thread's timeout.
                c.compute(500_000);
            }),
            body(move |mut c| async move {
                while c.nt_load(flag).await == 0 {
                    c.compute(50);
                }
                let r = t.acquire(&mut c, 5000, 1_000, 30).await;
                assert!(r.is_none(), "must time out and proceed without lock");
            }),
        ]);
        let agg = m.stats().aggregate();
        assert!(agg.lock_wait_cycles >= 1000);
    }

    #[test]
    fn global_lock_subscription_dooms_racing_txn() {
        let m = Machine::new(MachineConfig::cores(2).small());
        let gl = GlobalLock::new(&m);
        let data = m.host_alloc(8, true);
        let ready = m.host_alloc(8, true);
        m.run(vec![
            // Irrevocable thread: take the lock, mutate, release.
            body(move |mut c| async move {
                gl.acquire(&mut c, 30).await;
                c.nt_store(ready, 1).await;
                c.compute(2_000);
                c.nt_store(data, 99).await;
                gl.release(&mut c).await;
            }),
            // Transactional thread: begins while the lock is held; commit
            // subscription must observe it.
            body(move |mut c| async move {
                while c.nt_load(ready).await == 0 {
                    c.compute(20);
                }
                c.tx_begin(0).await;
                let _ = c.tx_load(data, 0x100).await;
                // Subscribe: lock is held, so the correct move is to abort.
                let held = c.tx_load(gl.addr(), 0x104).await;
                match held {
                    Ok(v) if v != 0 => {
                        let _ = c.tx_abort().await;
                    }
                    Ok(_) => {
                        // Lock free at subscription: but our read of `data`
                        // may have been doomed by the NT store.
                        let _ = c.tx_commit().await;
                    }
                    Err(_) => {}
                }
            }),
        ]);
        assert_eq!(m.host_load(data), 99);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let m = Machine::new(MachineConfig::cores(4).small());
        let t = LockTable::new(&m, 16);
        let counter = m.host_alloc(8, true);
        m.run_uniform(move |mut c| async move {
            for _ in 0..30 {
                let w = loop {
                    if let Some(w) = t.acquire(&mut c, counter, 1 << 30, 25).await {
                        break w;
                    }
                };
                let v = c.nt_load(counter).await;
                c.compute(7);
                c.nt_store(counter, v + 1).await;
                t.release(&mut c, w).await;
            }
        });
        assert_eq!(m.host_load(counter), 120);
    }
}
