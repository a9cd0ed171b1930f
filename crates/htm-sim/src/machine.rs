//! The machine façade: deterministic scheduling of simulated cores and the
//! per-core operation API.
//!
//! Each simulated core is a *resumable program*: an `async` body suspended
//! at every gated shared-state operation. A core's gate admits the
//! operation only when the core's logical clock is the global minimum over
//! unfinished cores (ties by core id), so ops execute in increasing
//! (clock, id) order and the simulated interleaving is a pure function of
//! the program and its seeds — bit-for-bit reproducible, like the paper's
//! MARSSx86 runs with threads pinned to cores.
//!
//! One host thread realizes that order with a plain event loop: pick the
//! minimum-clock core, poll its program until it either finishes or stops
//! being the minimum. The loop is the only user of the simulator state, so
//! the state sits in a `RefCell`, not behind a lock; a core that stays
//! minimal executes arbitrarily many consecutive ops in one resumption, and
//! a gate decides admission with one comparison against the runner-up the
//! loop cached ([`SimState::horizon`]). In debug builds every gate also
//! checks that answer against the rule itself, the linear scan
//! [`SimState::next_eligible`].
//!
//! **Event-driven waiting.** A core spinning on a lock word polls a line
//! whose contents cannot change until some core writes it, so the polls in
//! between need not run. [`Core::spin_wait`] *parks* such a core: it leaves
//! the order (its scheduling key becomes its timeout deadline) and, when a
//! gate is about to write the line or the deadline comes up, it is put back
//! at the exact iteration boundary it would have reached by polling, with
//! the skipped iterations' cycles and counters added in one step. The
//! writer unparks *before* it is admitted and a woken core always lands
//! ahead of the writer, so the iteration that straddles the write runs with
//! real gates against pre-write memory; nothing about the simulation
//! depends on the arithmetic being tight (DESIGN.md, "Event-driven
//! waiting").

use crate::addr::{line_of, Addr};
use crate::config::MachineConfig;
use crate::obs::{ObsEvent, ObsKind};
use crate::sim::{AbortCause, SimState, TxError};
use crate::stats::SimStats;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A suspended simulated-core program, resumable at every gated operation.
pub type CoreBody<'m> = Pin<Box<dyn Future<Output = ()> + 'm>>;

/// Builds one core's program from its [`Core`] handle, consuming the
/// builder.
pub type CoreFn<'m> = Box<dyn FnOnce(Core<'m>) -> CoreBody<'m> + 'm>;

/// Box an async core body into the form [`Machine::run`] accepts:
/// `machine.run(vec![body(|mut c| async move { ... })])`.
pub fn body<'m, F, Fut>(f: F) -> CoreFn<'m>
where
    F: FnOnce(Core<'m>) -> Fut + 'm,
    Fut: Future<Output = ()> + 'm,
{
    Box::new(move |core| Box::pin(f(core)) as CoreBody<'m>)
}

/// A simulated multicore machine with HTM.
pub struct Machine {
    /// Borrowed for the length of one op or accessor, never across a
    /// suspension point.
    state: RefCell<SimState>,
    cfg: MachineConfig,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Machine {
        Machine {
            state: RefCell::new(SimState::new(cfg.clone())),
            cfg,
        }
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Run one program per simulated core to completion; every simulated
    /// operation is deterministically ordered by logical time. May be
    /// called once per machine: a run retires every core, so a second one
    /// would have nothing eligible to schedule. Panics if called again.
    ///
    /// A single-threaded event loop resumes the minimum-clock core. A
    /// resumed program runs ops for as long as it remains the minimum and
    /// suspends as soon as its gate finds another core eligible. A panic in
    /// one program unwinds through here; dropping the others retires their
    /// cores on the way out.
    pub fn run<'m>(&'m self, bodies: Vec<CoreFn<'m>>) {
        assert_eq!(
            bodies.len(),
            self.cfg.n_cores,
            "need exactly one body per core"
        );
        assert!(
            !self.state.borrow().cores.iter().any(|c| c.finished),
            "Machine::run called twice; build a new Machine per run"
        );
        let mut programs: Vec<Option<CoreBody<'m>>> = bodies
            .into_iter()
            .enumerate()
            .map(|(tid, mk)| {
                Some(mk(Core {
                    state: &self.state,
                    tid,
                    pending: 0,
                    last_clock: 0,
                    record: self.cfg.record_events,
                }))
            })
            .collect();
        let mut cx = Context::from_waker(Waker::noop());
        // `schedule` also caches the runner-up (clock, id) pair, against
        // which the resumed core's gates test eligibility without a scan.
        let mut next = self.state.borrow_mut().schedule();
        while let Some(n) = next {
            let prog = programs[n].as_mut().expect("eligible core has a program");
            let ready = prog.as_mut().poll(&mut cx).is_ready();
            if ready {
                programs[n] = None;
            }
            let mut st = self.state.borrow_mut();
            let parked = st.parked(n);
            next = st.schedule();
            if !ready && next == Some(n) && !parked {
                // A gate never suspends while its core is eligible, so a
                // pending program that is still the minimum and did not
                // park (to be woken by its deadline just now) awaited some
                // foreign future — which this executor cannot wake.
                panic!("core {n} suspended while eligible: body awaited a non-gate future");
            }
        }
    }

    /// Convenience: run the same async body on every core (receives the
    /// core handle). The closure is shared, so values it moves into the
    /// body must be `Copy` (or clone inside).
    pub fn run_uniform<'m, F, Fut>(&'m self, f: F)
    where
        F: Fn(Core<'m>) -> Fut + 'm,
        Fut: Future<Output = ()> + 'm,
    {
        let f = Rc::new(f);
        let bodies = (0..self.cfg.n_cores)
            .map(|_| {
                let f = Rc::clone(&f);
                body(move |c| f(c))
            })
            .collect();
        self.run(bodies);
    }

    /// Statistics snapshot (meaningful after `run` returns). The per-core
    /// counters are fixed-size scalar structs, so a snapshot is cheap; the
    /// per-core event streams move out via [`Machine::take_events`].
    pub fn stats(&self) -> SimStats {
        let st = self.state.borrow();
        let cores = st
            .cores
            .iter()
            .map(|c| {
                let mut s = c.stats.clone();
                s.total_cycles = c.clock;
                s
            })
            .collect::<Vec<_>>();
        let exec_cycles = st.cores.iter().map(|c| c.clock).max().unwrap_or(0);
        SimStats { cores, exec_cycles }
    }

    /// Host-side scheduling counters: `schedule()` calls, tree key updates,
    /// parks and the gated ops they elided. These never feed back into
    /// simulated quantities (and are therefore not part of
    /// [`Machine::stats`], which elided and polled runs must agree on).
    pub fn sched_stats(&self) -> crate::sched::SchedStats {
        self.state.borrow().sched_stats
    }

    /// Move out the per-core observability event streams, oldest first
    /// (empty unless [`MachineConfig::record_events`] was set). Consuming:
    /// the streams are moved, not cloned, and each core's ring is left empty
    /// at the same capacity. A stream is complete only if its core's
    /// [`Machine::events_dropped`] count is 0.
    pub fn take_events(&self) -> Vec<Vec<ObsEvent>> {
        let mut st = self.state.borrow_mut();
        st.cores.iter_mut().map(|c| c.events.take()).collect()
    }

    /// Per core, how many events its bounded ring has overwritten since the
    /// machine was built (not reset by [`Machine::take_events`]). Nonzero
    /// means that core's stream lost its oldest events, so statistics
    /// derived from it are over a truncated run.
    pub fn events_dropped(&self) -> Vec<u64> {
        let st = self.state.borrow();
        st.cores.iter().map(|c| c.events.dropped()).collect()
    }

    /// Test aid: the first of `lines` (line indices) whose coherence-
    /// directory row disagrees with the caches and live transactions, if
    /// any. Callable from a core body between its own ops.
    #[doc(hidden)]
    pub fn directory_violation(&self, lines: &[u64]) -> Option<String> {
        self.state.borrow().directory_violation(lines)
    }

    /// Test aid: make every [`Core::spin_wait`] on this machine return 0, so
    /// spin loops poll each iteration for real — the reference that elided
    /// runs are compared against byte for byte. Call before `run`.
    #[doc(hidden)]
    pub fn poll_every_spin(&self) {
        self.state.borrow_mut().poll_every_spin = true;
    }

    /// Bench aid: one decision of the event loop with no program behind it —
    /// the core picked last executes `cycles`, then `schedule()` picks again.
    #[doc(hidden)]
    pub fn schedule_after(&self, cycles: u64) -> Option<usize> {
        let mut st = self.state.borrow_mut();
        if let Some(ran) = st.running {
            st.cores[ran].clock += cycles;
        }
        st.schedule()
    }

    /// Host-side allocation for setup (no simulated cycles).
    pub fn host_alloc(&self, words: u64, line_align: bool) -> Addr {
        self.state.borrow_mut().host_alloc(words, line_align)
    }

    /// Host-side memory read (setup/validation only).
    pub fn host_load(&self, addr: Addr) -> u64 {
        self.state.borrow().host_load(addr)
    }

    /// Host-side memory write (setup only; unsound during `run`).
    pub fn host_store(&self, addr: Addr, val: u64) {
        self.state.borrow_mut().host_store(addr, val)
    }

    /// Register the fallback lock word that hardware commits validate
    /// under [`crate::FallbackPolicy::LazySubscriptionSafe`] (the
    /// Dice-et-al-style fix). Host-side setup, no simulated cycles;
    /// called by the runtime before threads start.
    pub fn register_commit_lock(&self, addr: Addr) {
        self.state.borrow_mut().register_commit_lock(addr)
    }
}

/// Handle through which one simulated core issues operations. Owned by the
/// core's program; dropping it (body completion or unwind) marks the core
/// finished so the remaining cores keep running deterministically.
pub struct Core<'m> {
    state: &'m RefCell<SimState>,
    tid: usize,
    /// Locally accumulated compute cycles, folded into the logical clock at
    /// the next gated operation.
    pending: u64,
    /// Clock value observed at the last gate (plus pending = `now`).
    last_clock: u64,
    /// Cached [`MachineConfig::record_events`]: when false, [`Core::note`]
    /// is a single branch (no borrow, no allocation).
    record: bool,
}

impl<'m> Core<'m> {
    /// This core's id.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Approximate current logical time (exact at gate boundaries).
    pub fn now(&self) -> u64 {
        self.last_clock + self.pending
    }

    /// Model `cycles` of local computation. Free of synchronization: the
    /// cycles are folded into the clock at the next shared operation.
    pub fn compute(&mut self, cycles: u64) {
        self.pending += cycles;
    }

    /// Advance this core's logical time to at least `cycle` (a no-op when
    /// the deadline already passed). Purely local like [`Core::compute`]
    /// — it only widens `pending`. This is how open-loop load generators
    /// park a core until its next request's arrival timestamp.
    pub fn idle_until(&mut self, cycle: u64) {
        let now = self.now();
        if cycle > now {
            self.pending += cycle - now;
        }
    }

    /// Arrive at an order point: fold pending compute cycles (idempotent —
    /// they reset to zero) and report whether this core holds the minimum
    /// `(clock, id)`; when it does not, the caller suspends. Only this
    /// core's clock can have moved since the event loop resumed it, so
    /// eligibility is one comparison against the cached runner-up — which
    /// debug builds check against the linear scan at every gate.
    fn arrive(&mut self, st: &mut SimState) -> bool {
        let tid = self.tid;
        st.cores[tid].clock += self.pending;
        self.pending = 0;
        let eligible = (st.cores[tid].clock, tid) <= st.horizon;
        debug_assert_eq!(
            eligible,
            st.next_eligible() == Some(tid),
            "core {tid} at clock {} tested against a wrong horizon {:?}",
            st.cores[tid].clock,
            st.horizon
        );
        eligible
    }

    /// Perform `f` on the shared state at this core's logical turn; `f`
    /// returns `(result, latency)`. Monomorphized per call site, so the op
    /// body inlines straight into the gate with no enum dispatch. Each poll
    /// either runs the op, if this core is the minimum, or suspends.
    ///
    /// `writes` names the line the op may write. Cores parked on that line
    /// ([`Core::spin_wait`]) are unparked *before* the op is admitted, each
    /// fast-forwarded to its last iteration boundary ahead of this core's
    /// `(clock, id)`: they now precede it, so this gate suspends and they
    /// poll against pre-write memory, exactly as if they had never parked.
    fn gate<'a, R, F>(
        &'a mut self,
        writes: Option<Addr>,
        f: F,
    ) -> impl Future<Output = R> + use<'a, 'm, R, F>
    where
        F: FnOnce(&mut SimState, usize) -> (R, u64) + 'a,
    {
        let mut f = Some(f);
        std::future::poll_fn(move |_cx| {
            let tid = self.tid;
            let mut st = self.state.borrow_mut();
            if !self.arrive(&mut st) {
                return Poll::Pending;
            }
            if let Some(addr) = writes {
                if st.n_parked != 0 && st.unpark_watchers(tid, line_of(addr)) {
                    return Poll::Pending;
                }
            }
            st.cores[tid].stats.gated_ops += 1;
            let (r, lat) = (f.take().expect("gate op polled after completion"))(&mut st, tid);
            st.cores[tid].clock += lat;
            self.last_clock = st.cores[tid].clock;
            Poll::Ready(r)
        })
    }

    /// End a *real* failed iteration of a spin loop whose every iteration
    /// is one nontransactional read (`nt_load`, or an `nt_cas(_, 0, _)` that
    /// fails) of each of `words` — all on one cache line — followed by this
    /// call, and which keeps spinning while every word is non-zero.
    ///
    /// The call charges the iteration's wait: `quantum` cycles, counted in
    /// `lock_wait_cycles`, and one gated op. Then it skips the predictable
    /// part of the wait. Returns how many further whole iterations were
    /// accounted without being executed (at most `max_iters`, the number
    /// the caller could still run before its own timeout; `u64::MAX` for
    /// none), each charged exactly what polling it would have: clock,
    /// `gated_ops`, `nt_mem_ops`, `lock_wait_cycles`. The caller advances
    /// its own bookkeeping by that many and goes on polling.
    ///
    /// Returns 0 — poll as usual — unless every word is non-zero and the
    /// line is in this core's L1 (so each skipped read is an L1 hit that
    /// fails). Otherwise the core parks until a gate about to write the line
    /// unparks it (see [`Core::gate`]) or `max_iters` iterations have
    /// passed.
    pub async fn spin_wait(&mut self, words: &[Addr], quantum: u64, max_iters: u64) -> u64 {
        self.compute(quantum);
        let mut parked = false;
        std::future::poll_fn(move |_cx| {
            let tid = self.tid;
            let mut st = self.state.borrow_mut();
            if parked {
                // The event loop resumes a parked program only once it
                // holds the minimum key again, unparked by a writer or by
                // its deadline.
                self.last_clock = st.cores[tid].clock;
                return Poll::Ready(st.cores[tid].elided);
            }
            if !self.arrive(&mut st) {
                return Poll::Pending;
            }
            // The charge is a gated op of zero latency that writes nothing,
            // so the park below is tried at the same `(clock, id)`.
            let stats = &mut st.cores[tid].stats;
            stats.gated_ops += 1;
            stats.lock_wait_cycles += quantum;
            self.last_clock = st.cores[tid].clock;
            if !st.park(tid, words, quantum, max_iters) {
                return Poll::Ready(0);
            }
            parked = true;
            Poll::Pending
        })
        .await
    }

    // ----- transactional API ---------------------------------------------

    /// Begin a hardware transaction for atomic block `ab_id`. The core's
    /// last attempt must have committed or had its abort delivered.
    pub async fn tx_begin(&mut self, ab_id: u32) {
        self.gate(None, |st, tid| ((), st.tx_begin(tid, ab_id)))
            .await
    }

    /// Transactional load at instruction address `pc`.
    pub async fn tx_load(&mut self, addr: Addr, pc: u64) -> Result<u64, TxError> {
        self.gate(None, |st, tid| st.tx_load(tid, addr, pc)).await
    }

    /// Transactional store at instruction address `pc`.
    pub async fn tx_store(&mut self, addr: Addr, val: u64, pc: u64) -> Result<(), TxError> {
        self.gate(Some(addr), |st, tid| st.tx_store(tid, addr, val, pc))
            .await
    }

    /// Attempt to commit.
    pub async fn tx_commit(&mut self) -> Result<(), TxError> {
        self.gate(None, |st, tid| st.tx_commit(tid)).await
    }

    /// Explicitly abort the active transaction (runtime-initiated).
    pub async fn tx_abort(&mut self) -> TxError {
        self.gate(None, |st, tid| {
            (st.self_abort(tid, AbortCause::Explicit), 0)
        })
        .await
    }

    /// Is an attempt active: live, or doomed with its abort not yet
    /// delivered (by its next transactional operation, or by `tx_abort`)?
    /// Reads only this core's own state, so it needs no gating.
    pub fn tx_active(&mut self) -> bool {
        self.state.borrow().tx_active(self.tid)
    }

    /// Host-side read of simulated memory for assertions: no gate, no
    /// cycles, no counter, so checking with it cannot change the run.
    #[doc(hidden)]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.state.borrow().host_load(addr)
    }

    // ----- nontransactional API --------------------------------------------

    /// Nontransactional load (escapes isolation; never aborts anyone).
    pub async fn nt_load(&mut self, addr: Addr) -> u64 {
        self.gate(None, |st, tid| st.nt_load(tid, addr)).await
    }

    /// Plain non-speculative load (outside transactions / irrevocable
    /// mode): dooms speculative writers of the line so uncommitted data is
    /// never observed.
    pub async fn plain_load(&mut self, addr: Addr) -> u64 {
        self.gate(None, |st, tid| st.plain_load(tid, addr)).await
    }

    /// Nontransactional store (immediately visible; aborts conflicting
    /// speculative owners on other cores).
    pub async fn nt_store(&mut self, addr: Addr, val: u64) {
        self.gate(Some(addr), |st, tid| ((), st.nt_store(tid, addr, val)))
            .await
    }

    /// Nontransactional compare-and-swap.
    pub async fn nt_cas(&mut self, addr: Addr, old: u64, new: u64) -> bool {
        self.gate(Some(addr), |st, tid| st.nt_cas(tid, addr, old, new))
            .await
    }

    // ----- services ---------------------------------------------------------

    /// Allocate `words` from this core's arena.
    pub async fn alloc(&mut self, words: u64, line_align: bool) -> Addr {
        self.gate(None, |st, tid| st.alloc(tid, words, line_align))
            .await
    }

    /// Charge retry-backoff cycles.
    pub async fn charge_backoff(&mut self, cycles: u64) {
        self.compute(cycles);
        self.gate(None, move |st, tid| {
            st.cores[tid].stats.backoff_cycles += cycles;
            ((), 0)
        })
        .await
    }

    /// Record an irrevocable (global-lock) execution: `cycles` spent and
    /// one irrevocable commit.
    pub async fn record_irrevocable(&mut self, cycles: u64) {
        self.gate(None, move |st, tid| {
            st.cores[tid].stats.irrevocable_cycles += cycles;
            st.cores[tid].stats.irrevocable_commits += 1;
            ((), 0)
        })
        .await
    }

    /// Record an observability event at this core's current logical time
    /// ([`Core::now`], which includes pending compute cycles). NOT a gated
    /// op: it pushes to this core's own ring without advancing any clock or
    /// touching any counter, so recording cannot perturb the simulation —
    /// and with [`MachineConfig::record_events`] off it is a single branch.
    pub fn note(&mut self, kind: ObsKind) {
        if !self.record {
            return;
        }
        let clock = self.now();
        self.state.borrow_mut().note_at(self.tid, clock, kind);
    }
}

impl Drop for Core<'_> {
    /// Retire the core: fold any pending compute cycles and mark it
    /// finished. Running this on drop (rather than after a normal body
    /// return) also retires cores whose bodies unwound or were dropped
    /// unfinished because another core's panic ended the run.
    fn drop(&mut self) {
        let tid = self.tid;
        let mut st = self.state.borrow_mut();
        st.cores[tid].clock += self.pending;
        st.retire(tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::AbortCause;

    fn machine(n: usize) -> Machine {
        Machine::new(small(n))
    }

    #[test]
    fn single_thread_counter() {
        let m = machine(1);
        let a = m.host_alloc(8, true);
        m.run_uniform(move |mut c| async move {
            for _ in 0..10 {
                c.tx_begin(0).await;
                let v = c.tx_load(a, 0x400).await.unwrap();
                c.tx_store(a, v + 1, 0x404).await.unwrap();
                c.tx_commit().await.unwrap();
            }
        });
        assert_eq!(m.host_load(a), 10);
        let st = m.stats();
        assert_eq!(st.aggregate().commits, 10);
        assert_eq!(st.aggregate().aborts(), 0);
        assert!(st.exec_cycles > 0);
        // begin + load + store + commit, 10 iterations.
        assert_eq!(st.aggregate().gated_ops, 40);
    }

    #[test]
    fn concurrent_counter_is_serializable() {
        // 4 cores × 50 increments with retry loops: the final value must be
        // exactly 200 — the fundamental HTM correctness property.
        let m = machine(4);
        let a = m.host_alloc(8, true);
        m.run_uniform(move |mut c| async move {
            for _ in 0..50 {
                loop {
                    c.tx_begin(0).await;
                    let r = match c.tx_load(a, 0x400).await {
                        Ok(v) => {
                            c.compute(20); // widen the conflict window
                            c.tx_store(a, v + 1, 0x404).await
                        }
                        Err(e) => Err(e),
                    };
                    let committed = match r {
                        Ok(()) => c.tx_commit().await.is_ok(),
                        Err(_) => false,
                    };
                    if committed {
                        break;
                    }
                }
            }
        });
        assert_eq!(m.host_load(a), 200);
        let agg = m.stats().aggregate();
        assert_eq!(agg.commits, 200);
        assert!(agg.aborts() > 0, "contended counter must abort sometimes");
    }

    fn contended_run() -> (u64, u64, u64, Vec<u64>) {
        let m = machine(4);
        let a = m.host_alloc(8, true);
        m.run_uniform(move |mut c| async move {
            for i in 0..30u64 {
                loop {
                    c.tx_begin(0).await;
                    let r = match c.tx_load(a, 0x400).await {
                        Ok(v) => {
                            c.compute((c.tid() as u64) * 7 + i % 5);
                            c.tx_store(a, v + 1, 0x404).await
                        }
                        Err(e) => Err(e),
                    };
                    let committed = match r {
                        Ok(()) => c.tx_commit().await.is_ok(),
                        Err(_) => false,
                    };
                    if committed {
                        break;
                    }
                }
            }
        });
        let st = m.stats();
        (
            st.exec_cycles,
            st.aggregate().aborts(),
            st.aggregate().gated_ops,
            st.cores.iter().map(|c| c.total_cycles).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn determinism_across_runs() {
        assert_eq!(
            contended_run(),
            contended_run(),
            "simulation must be bit-for-bit deterministic"
        );
    }

    #[test]
    fn disjoint_lines_never_conflict() {
        let m = machine(4);
        let base = m.host_alloc(8 * 8 * 4, true);
        m.run_uniform(move |mut c| async move {
            let a = base + (c.tid() as u64) * 64;
            for _ in 0..25 {
                c.tx_begin(0).await;
                let v = c.tx_load(a, 0).await.unwrap();
                c.tx_store(a, v + 1, 0).await.unwrap();
                c.tx_commit().await.unwrap();
            }
        });
        let agg = m.stats().aggregate();
        assert_eq!(agg.commits, 100);
        assert_eq!(agg.aborts(), 0);
    }

    #[test]
    fn nt_cas_lock_mutual_exclusion() {
        // An advisory-lock-style spinlock built from NT CAS protects a
        // plain (nontransactional) counter.
        let m = machine(4);
        let lock = m.host_alloc(8, true);
        let counter = m.host_alloc(8, true);
        m.run_uniform(move |mut c| async move {
            for _ in 0..25 {
                while !c.nt_cas(lock, 0, (c.tid() + 1) as u64).await {
                    c.compute(20);
                }
                let v = c.nt_load(counter).await;
                c.compute(5);
                c.nt_store(counter, v + 1).await;
                c.nt_store(lock, 0).await;
            }
        });
        assert_eq!(m.host_load(counter), 100);
    }

    #[test]
    fn advisory_lock_inside_transaction() {
        // The paper's core mechanism: acquire an NT lock inside an active
        // transaction; serialized sections stop aborting each other.
        let m = machine(4);
        let lock = m.host_alloc(8, true);
        let data = m.host_alloc(8, true);
        m.run_uniform(move |mut c| async move {
            for _ in 0..20 {
                loop {
                    c.tx_begin(0).await;
                    // Advisory lock acquire via NT CAS, inside the txn.
                    let mut spins = 0u64;
                    while !c.nt_cas(lock, 0, (c.tid() + 1) as u64).await {
                        spins += 1 + c.spin_wait(&[lock], 30, 10_000 - spins).await;
                        if spins > 10_000 {
                            break; // timeout: proceed without the lock
                        }
                    }
                    let r = match c.tx_load(data, 0x100).await {
                        Ok(v) => {
                            c.compute(30);
                            c.tx_store(data, v + 1, 0x104).await
                        }
                        Err(e) => Err(e),
                    };
                    let committed = match r {
                        Ok(()) => c.tx_commit().await.is_ok(),
                        Err(_) => false,
                    };
                    // Release even on abort, as the runtime does.
                    c.nt_store(lock, 0).await;
                    if committed {
                        break;
                    }
                }
            }
        });
        assert_eq!(m.host_load(data), 80);
        let agg = m.stats().aggregate();
        assert_eq!(agg.commits, 80);
        // Staggered by the advisory lock: conflicts should be rare.
        assert!(
            agg.aborts() <= 8,
            "advisory lock should nearly eliminate aborts, got {}",
            agg.aborts()
        );
        assert!(agg.lock_wait_cycles > 0);
    }

    #[test]
    fn explicit_abort_counts() {
        let m = machine(1);
        let a = m.host_alloc(8, true);
        m.run_uniform(move |mut c| async move {
            c.tx_begin(0).await;
            c.tx_store(a, 5, 0).await.unwrap();
            let e = c.tx_abort().await;
            assert_eq!(e.info().cause, AbortCause::Explicit);
        });
        assert_eq!(m.host_load(a), 0, "aborted write must roll back");
        assert_eq!(m.stats().aggregate().explicit_aborts, 1);
    }

    #[test]
    fn alloc_in_threads_disjoint() {
        let m = machine(4);
        let out = m.host_alloc(8 * 4, true);
        m.run_uniform(move |mut c| async move {
            let p = c.alloc(8, true).await;
            c.nt_store(p, c.tid() as u64 + 100).await;
            c.nt_store(out + (c.tid() as u64) * 8, p).await;
        });
        let mut ptrs: Vec<u64> = (0..4).map(|i| m.host_load(out + i * 8)).collect();
        ptrs.sort();
        ptrs.dedup();
        assert_eq!(ptrs.len(), 4, "allocations must not alias");
        for &p in ptrs.iter() {
            assert!(m.host_load(p) >= 100);
        }
    }

    #[test]
    fn clocks_interleave_fairly() {
        // A core that does tiny ops and one that does huge computes: total
        // time is driven by the slow core, and the fast core should not be
        // starved (its ops happen "during" the slow core's computes).
        let m = machine(2);
        let a = m.host_alloc(16, true);
        m.run(vec![
            body(move |mut c| async move {
                for _ in 0..100 {
                    let now = c.now();
                    c.nt_store(a, now).await;
                }
            }),
            body(move |mut c| async move {
                for _ in 0..5 {
                    c.compute(10_000);
                    let now = c.now();
                    c.nt_store(a + 8, now).await;
                }
            }),
        ]);
        let st = m.stats();
        assert!(st.cores[1].total_cycles >= 50_000);
        assert!(st.cores[0].total_cycles < st.cores[1].total_cycles);
    }

    #[test]
    fn stats_snapshot_exec_cycles_is_max() {
        let m = machine(2);
        m.run(vec![
            body(|mut c| async move { c.compute(100) }),
            body(|mut c| async move { c.compute(500) }),
        ]);
        let st = m.stats();
        assert_eq!(
            st.exec_cycles,
            st.cores.iter().map(|c| c.total_cycles).max().unwrap()
        );
        assert_eq!(st.exec_cycles, 500);
    }

    // ----- event-driven waiting ---------------------------------------------
    //
    // The spin loops below mirror `stagger-core`'s `locks.rs` (this crate
    // cannot depend on it). Every scenario runs elided and polled
    // (`poll_every_spin`), and the two must agree on stats and event streams.

    type Artifacts = (SimStats, Vec<Vec<ObsEvent>>);

    /// `GlobalLock::acquire`.
    async fn spin_acquire(c: &mut Core<'_>, word: Addr, quantum: u64) {
        let me = c.tid() as u64 + 1;
        while !c.nt_cas(word, 0, me).await {
            c.spin_wait(&[word], quantum, u64::MAX).await;
        }
        c.note(ObsKind::LockAcquire { word, waited: 0 });
    }

    /// `LockTable::acquire`: the second word of the line is the contended
    /// flag; the outcome and `waited` go to the event stream.
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

    /// Run the bodies `mk` builds (over a lock line whose first word is
    /// held by nobody in particular) elided and polled, assert they agree,
    /// and return the elided run's host-side counters.
    fn differential(
        cfg: MachineConfig,
        mk: impl for<'m> Fn(&'m Machine, Addr) -> Vec<CoreFn<'m>>,
    ) -> crate::sched::SchedStats {
        let run = |polled: bool| -> (Artifacts, crate::sched::SchedStats) {
            let m = Machine::new(cfg.clone().record_events());
            if polled {
                m.poll_every_spin();
            }
            let lock = m.host_alloc(8, true);
            m.host_store(lock, 99);
            m.run(mk(&m, lock));
            ((m.stats(), m.take_events()), m.sched_stats())
        };
        let (want, polled) = run(true);
        assert_eq!((polled.parks, polled.elided_ops), (0, 0));
        let (got, sched) = run(false);
        assert_eq!(got, want, "elided run diverged from the polled one");
        sched
    }

    fn small(n: usize) -> MachineConfig {
        MachineConfig::cores(n).small()
    }

    #[test]
    fn release_at_every_offset_of_the_poll_period() {
        // One waiter, one releaser whose store lands at every offset of two
        // full poll periods — so also exactly on an iteration boundary —
        // with the writer's id both below and above the waiter's.
        let period = small(2).l1_latency + 30;
        for waiter in [0, 1] {
            let mut elided = 0;
            for delay in 0..=2 * period + 1 {
                let sched = differential(small(2), |_, lock| {
                    let mut bodies = vec![
                        body(move |mut c| async move { spin_acquire(&mut c, lock, 30).await }),
                        body(move |mut c| async move {
                            c.compute(700 + delay);
                            c.nt_store(lock, 0).await;
                        }),
                    ];
                    if waiter == 1 {
                        bodies.swap(0, 1);
                    }
                    bodies
                });
                assert_eq!(sched.parks, 1);
                elided += sched.elided_ops;
            }
            assert!(elided > 0, "the waiter never skipped a poll");
        }
    }

    #[test]
    fn timeout_while_parked_reports_the_same_wait() {
        let sched = differential(small(2), |_, lock| {
            vec![
                body(move |mut c| async move {
                    assert!(!timed_acquire(&mut c, lock, 2_000, 30).await);
                }),
                body(move |mut c| async move {
                    for _ in 0..40 {
                        c.compute(90);
                        c.nt_load(lock).await;
                    }
                }),
            ]
        });
        // One park from the first failed poll to the deadline; everything
        // between was skipped: three gates per iteration.
        assert_eq!(sched.parks, 1);
        assert!(sched.elided_ops >= 3 * (2_000 / 34 - 2));
    }

    #[test]
    fn failed_cas_and_flag_store_are_spurious_wakes() {
        // A third core's failing CAS on the lock word and a store to the
        // *second* word of the line both announce a write: the waiter wakes,
        // polls for real, and parks again.
        let sched = differential(small(3), |_, lock| {
            vec![
                body(move |mut c| async move {
                    assert!(timed_acquire(&mut c, lock, 1 << 30, 30).await);
                }),
                body(move |mut c| async move {
                    c.compute(1_000);
                    assert!(!c.nt_cas(lock, 0, 7).await);
                    c.compute(1_000);
                    c.nt_store(lock + 8, 5).await;
                    c.compute(1_000);
                    c.nt_store(lock + 8, 0).await;
                }),
                body(move |mut c| async move {
                    c.compute(5_000);
                    c.nt_store(lock, 0).await;
                }),
            ]
        });
        assert!(sched.parks >= 4, "parks: {}", sched.parks);
    }

    #[test]
    fn l1_bypassed_line_is_polled() {
        // The waiter's transaction pins every way of the lock line's L1
        // set, so its nontransactional polls bypass the L1: each one is a
        // miss of unknown latency, and it must not park.
        let cfg = small(2);
        let (sets, ways) = (cfg.l1_sets as u64, cfg.l1_ways as u64);
        let sched = differential(cfg, |m, lock| {
            let pins = m.host_alloc(8 * sets * (ways + 1), true);
            vec![
                body(move |mut c| async move {
                    c.tx_begin(0).await;
                    let same_set = (0..2 * sets * ways)
                        .map(|i| pins + i * 64)
                        .filter(|&a| line_of(a) % sets == line_of(lock) % sets);
                    for a in same_set.take(ways as usize) {
                        c.tx_load(a, 0x100).await.unwrap();
                    }
                    spin_acquire(&mut c, lock, 30).await;
                    c.tx_commit().await.unwrap();
                }),
                body(move |mut c| async move {
                    c.compute(3_000);
                    c.nt_store(lock, 0).await;
                }),
            ]
        });
        assert_eq!(sched.parks, 0);
    }

    #[test]
    fn waiter_doomed_while_parked() {
        let sched = differential(small(2), |m, lock| {
            let data = m.host_alloc(8, true);
            vec![
                body(move |mut c| async move {
                    c.tx_begin(0).await;
                    c.tx_store(data, 1, 0x100).await.unwrap();
                    spin_acquire(&mut c, lock, 30).await;
                    let e = c.tx_commit().await.unwrap_err();
                    assert_eq!(e.info().cause, AbortCause::Conflict);
                }),
                body(move |mut c| async move {
                    c.compute(2_000);
                    c.nt_store(data, 7).await;
                    c.compute(2_000);
                    c.nt_store(lock, 0).await;
                }),
            ]
        });
        assert_eq!(sched.parks, 1, "a doom is not a wake-up");
    }

    #[test]
    fn zero_length_period_never_parks() {
        let mut cfg = small(2);
        cfg.l1_latency = 0;
        let sched = differential(cfg, |_, lock| {
            vec![
                body(move |mut c| async move {
                    while c.nt_load(lock).await != 0 {
                        c.compute(1); // keeps the polled loop advancing
                        assert_eq!(c.spin_wait(&[lock], 0, u64::MAX).await, 0);
                    }
                }),
                body(move |mut c| async move {
                    c.compute(500);
                    c.nt_store(lock, 0).await;
                }),
            ]
        });
        assert_eq!(sched.parks, 0);
    }

    /// A transaction writes the second word of a lock line another core is
    /// parked on; `finish` then ends it (lazy commit flush, eager roll-back).
    fn transactional_write_to_watched_line(cfg: MachineConfig, commit: bool) {
        let m = Machine::new(cfg);
        let lock = m.host_alloc(8, true);
        m.host_store(lock, 99);
        m.run(vec![
            body(move |mut c| async move {
                c.compute(100);
                spin_acquire(&mut c, lock, 30).await;
            }),
            body(move |mut c| async move {
                c.tx_begin(0).await;
                c.tx_store(lock + 8, 1, 0x100).await.unwrap();
                c.compute(2_000);
                if commit {
                    let _ = c.tx_commit().await;
                } else {
                    c.tx_abort().await;
                }
            }),
        ]);
    }

    #[test]
    #[should_panic(expected = "unannounced write")]
    fn lazy_commit_flush_to_a_watched_line_panics() {
        transactional_write_to_watched_line(small(2).lazy(), true);
    }

    #[test]
    #[should_panic(expected = "unannounced write")]
    fn undo_roll_back_of_a_watched_line_panics() {
        transactional_write_to_watched_line(small(2), false);
    }

    /// Core 0 takes the lock and returns without releasing it; core 1 then
    /// waits for it with no timeout. This used to spin the host forever.
    #[test]
    #[should_panic(expected = "deadlock: core 1 waits on line")]
    fn deadlock_is_diagnosed() {
        let m = machine(2);
        let lock = m.host_alloc(8, true);
        m.run(vec![
            body(move |mut c| async move {
                assert!(c.nt_cas(lock, 0, 1).await);
            }),
            body(move |mut c| async move {
                c.compute(100);
                spin_acquire(&mut c, lock, 30).await;
            }),
        ]);
    }

    /// Two cores parked without deadline, on different lines, behind a
    /// runner: their keys are `u64::MAX`, which the scheduler's tree clamps,
    /// so `schedule()` orders them by the linear rule. The runner must see
    /// the lower id as its horizon, and once it retires the diagnosis must
    /// name both waiters.
    #[test]
    fn cores_parked_forever_order_by_id_and_deadlock_together() {
        let m = machine(3);
        let [a, b, own] = [(); 3].map(|()| m.host_alloc(8, true));
        assert_ne!(line_of(a), line_of(b));
        let state = &m.state;
        let waiter = |lock| {
            body(move |mut c| async move {
                c.compute(5_000);
                spin_acquire(&mut c, lock, 30).await;
            })
        };
        let runner = body(move |mut c| async move {
            assert!(c.nt_cas(a, 0, 9).await && c.nt_cas(b, 0, 9).await);
            c.compute(50_000);
            c.nt_load(own).await;
            let st = state.borrow();
            assert!(st.parked(0) && st.parked(2));
            assert_eq!(st.horizon, (u64::MAX, 0));
        });
        let run = std::panic::AssertUnwindSafe(|| m.run(vec![waiter(a), runner, waiter(b)]));
        let payload = std::panic::catch_unwind(run).expect_err("nobody releases the locks");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.starts_with("deadlock: core 0 waits on line"), "{msg}");
        assert!(msg.contains("; core 2 waits on line"), "{msg}");
    }

    /// A run retires every core, so a second one would be a silent no-op.
    #[test]
    #[should_panic(expected = "Machine::run called twice")]
    fn second_run_panics() {
        let m = machine(2);
        m.run_uniform(|mut c| async move { c.compute(1) });
        m.run_uniform(|mut c| async move { c.compute(1) });
    }

    // ----- the one driver ---------------------------------------------------

    /// The per-gate check bites: with the cached runner-up forced open,
    /// core 1 would be admitted at clock 50 although core 0 still waits at
    /// clock 0.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tested against a wrong horizon")]
    fn wrong_horizon_fails_the_per_gate_check() {
        let m = machine(2);
        let (a, state) = (m.host_alloc(8, true), &m.state);
        m.run(vec![
            body(move |mut c| async move {
                c.compute(10);
                c.nt_load(a).await;
            }),
            body(move |mut c| async move {
                c.compute(50);
                state.borrow_mut().horizon = (u64::MAX, usize::MAX);
                c.nt_load(a).await;
            }),
        ]);
    }

    /// The event loop cannot wake a future that is not a gate, and says so
    /// instead of spinning.
    #[test]
    #[should_panic(expected = "core 0 suspended while eligible")]
    fn awaiting_a_non_gate_future_panics() {
        machine(1).run_uniform(|mut c| async move {
            let mut polled = false;
            std::future::poll_fn(|_| {
                if std::mem::replace(&mut polled, true) {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            })
            .await;
            c.compute(1);
        });
    }

    /// A panic inside one core's op (here an out-of-range address, raised
    /// with the state borrowed) comes out of `run` with its own message,
    /// and every other core is retired on the way.
    #[test]
    fn panic_inside_a_gate_op_retires_the_others_and_re_raises() {
        let m = machine(3);
        let a = m.host_alloc(8, true);
        let run = std::panic::AssertUnwindSafe(|| {
            m.run_uniform(move |mut c| async move {
                c.nt_store(a, 1).await;
                if c.tid() == 1 {
                    c.nt_load(u64::MAX - 7).await;
                }
                c.nt_store(a, 2).await;
            })
        });
        let payload = std::panic::catch_unwind(run).expect_err("core 1 panics");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("out of range"), "{msg}");
        assert!(m.state.borrow().cores.iter().all(|c| c.finished));
        assert_eq!(m.stats().cores.len(), 3);
    }
}
