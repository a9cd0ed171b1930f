//! Speculative (Block-STM-style) scheduler internals.
//!
//! The speculative scheduler runs each simulated core's gated operations
//! optimistically against a private *overlay view* of the simulator state,
//! queuing `(op, predicted result, predicted latency)` records. A serial
//! *commit walk* then re-executes the queued ops against the real
//! [`SimState`] in exactly the cooperative min-`(clock, id)` order and
//! compares outcomes. Matching predictions commit for free; a mismatch
//! discards the remainder of that core's queue and re-executes the core
//! body from scratch, replaying the already-committed prefix from a log.
//!
//! Correctness never depends on overlay fidelity: every simulated quantity
//! (stats, traces, obs events, memory) is produced by the same
//! [`apply_op`] calls the cooperative scheduler would make, in the same
//! global order. The overlay is purely a predictor; a bad prediction costs
//! a re-execution, never correctness.

use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

use crate::addr::{line_of, word_index, LINE_BYTES, WORD_BYTES};
use crate::cache::CacheArray;
use crate::config::{FallbackPolicy, HtmProtocol};
use crate::coreset::CoreSet;
use crate::directory::Role;
use crate::fx::{FxHashMap, FxHashSet};
use crate::obs::ObsKind;
use crate::sched::LazyMinHeap;
use crate::sim::{
    apply_op, bound_exceeded, AbortCause, AbortInfo, Doomed, Op, OpResult, SimState, TxError,
    TxState,
};
use crate::stats::SpecStats;

// ---------------------------------------------------------------------------
// Queue entries and the per-core replay log
// ---------------------------------------------------------------------------

/// A record produced by a core running speculatively, consumed in order by
/// the serial commit walk.
#[derive(Debug, Clone)]
pub(crate) enum SpecEntry {
    /// A gated op executed against the overlay: the op itself, the clock
    /// the overlay predicts it runs at (pending cycles already folded in),
    /// and the predicted `(result, latency)`.
    Op {
        key_clock: u64,
        op: Op,
        res: OpResult,
        lat: u64,
    },
    /// A non-gated read (`tx_active` / `tx_ab_id`) answered from the
    /// overlay; validated against real state at commit time.
    NonGated(NgValue),
    /// An obs event noted at an overlay-predicted clock.
    Note { clock: u64, kind: ObsKind },
    /// The core body completed with `pending` unfolded cycles.
    Finish { pending: u64 },
}

/// Which non-gated query a core issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NgKind {
    Active,
    AbId,
}

/// The answer to a non-gated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NgValue {
    Active(bool),
    AbId(Option<u32>),
}

fn ng_real(st: &SimState, tid: usize, kind: NgKind) -> NgValue {
    match kind {
        NgKind::Active => NgValue::Active(st.tx_active(tid)),
        NgKind::AbId => NgValue::AbId(st.tx_ab_id(tid)),
    }
}

/// One committed step of a core, recorded so a re-executed body can replay
/// its past deterministically without touching real state.
#[derive(Debug, Clone)]
pub(crate) enum ReplayEntry {
    Gated {
        res: OpResult,
        /// The real core clock right after the op (latency folded in,
        /// including op-internal charges like abort delivery) — restored
        /// verbatim during replay so `now()` stays exact.
        clock_after: u64,
    },
    NonGated(NgValue),
    /// An obs note whose emission committed with the prefix. The payload is
    /// not needed: a re-executed body regenerates it deterministically, the
    /// marker only tells replay the note was already emitted.
    Note,
}

// ---------------------------------------------------------------------------
// Per-core slot state machine
// ---------------------------------------------------------------------------

/// What a speculating core is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecMode {
    /// Running ahead against the overlay, queuing predictions.
    Speculating,
    /// A fresh body instance is consuming the committed-prefix log.
    Replaying,
    /// Demoted: every gated op runs directly against real state, admitted
    /// one at a time by the commit walk (no more speculation).
    Direct,
    /// Transitional marker while a future is torn down for rebuild.
    Poisoned,
}

#[derive(Debug)]
pub(crate) struct SpecInner {
    pub(crate) mode: SpecMode,
    /// Overlay the core speculates against; `None` between rounds.
    pub(crate) view: Option<SpecView>,
    /// Predictions not yet validated by the commit walk.
    pub(crate) queue: VecDeque<SpecEntry>,
    /// Committed prefix, for replay after a rebuild.
    pub(crate) log: Vec<ReplayEntry>,
    pub(crate) replay_pos: usize,
    /// Gated ops this core may still speculate this round.
    pub(crate) budget: usize,
    /// One-shot permission for a Direct core to run its next gated op
    /// (granted by the commit walk when it is globally this core's turn).
    pub(crate) admitted: bool,
    /// After replay finishes, stay Direct instead of resuming speculation.
    pub(crate) demote_on_replay_end: bool,
    /// The body panicked while speculating (stale overlay data) or
    /// diverged during replay; the driver rebuilds or aborts.
    pub(crate) panicked: bool,
    pub(crate) speculated: u64,
    pub(crate) direct_ops: u64,
}

/// Shared handle between a core's future and the driver.
#[derive(Debug)]
pub(crate) struct SpecSlot {
    tid: usize,
    inner: Mutex<SpecInner>,
}

/// Outcome of asking the slot to gate one op.
pub(crate) enum SpecGate {
    Ready(OpResult),
    Pending,
    /// The core is (now) Direct; the caller must gate against real state.
    Direct,
}

impl SpecSlot {
    pub(crate) fn new(tid: usize) -> Self {
        SpecSlot {
            tid,
            inner: Mutex::new(SpecInner {
                mode: SpecMode::Speculating,
                view: None,
                queue: VecDeque::new(),
                log: Vec::new(),
                replay_pos: 0,
                budget: 0,
                admitted: false,
                demote_on_replay_end: false,
                panicked: false,
                speculated: 0,
                direct_ops: 0,
            }),
        }
    }

    /// Lock the slot, recovering from poisoning (a panicking worker leaves
    /// the slot flagged; the driver clears it before reuse).
    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, SpecInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Gate one op from the core body. `pending`/`last_clock` are the
    /// core's local cycle accounting (same contract as the real gate).
    pub(crate) fn gate(&self, pending: &mut u64, last_clock: &mut u64, op: &Op) -> SpecGate {
        let mut s = self.lock();
        match s.mode {
            SpecMode::Direct | SpecMode::Poisoned => SpecGate::Direct,
            SpecMode::Replaying => {
                if s.replay_pos < s.log.len() {
                    match s.log[s.replay_pos] {
                        ReplayEntry::Gated { res, clock_after } => {
                            s.replay_pos += 1;
                            *pending = 0;
                            *last_clock = clock_after;
                            SpecGate::Ready(res)
                        }
                        ReplayEntry::NonGated(_) | ReplayEntry::Note => {
                            panic!("speculative replay out of sync: expected a gated op")
                        }
                    }
                } else if s.demote_on_replay_end {
                    s.mode = SpecMode::Direct;
                    SpecGate::Direct
                } else {
                    // Prefix fully replayed: resume speculation next round.
                    // Return Pending without consuming so the driver
                    // installs a fresh overlay first.
                    s.mode = SpecMode::Speculating;
                    s.budget = 0;
                    s.view = None;
                    SpecGate::Pending
                }
            }
            SpecMode::Speculating => {
                if s.budget == 0 {
                    return SpecGate::Pending;
                }
                let base = base_ref();
                let view = s.view.as_mut().expect("speculating without an overlay");
                view.clock += *pending;
                *pending = 0;
                let key_clock = view.clock;
                let (res, lat) = view.exec(base, op);
                view.clock += lat;
                *last_clock = view.clock;
                s.queue.push_back(SpecEntry::Op {
                    key_clock,
                    op: *op,
                    res,
                    lat,
                });
                s.budget -= 1;
                s.speculated += 1;
                SpecGate::Ready(res)
            }
        }
    }

    /// Answer a non-gated query (`tx_active`/`tx_ab_id`). Only called in
    /// Speculating or Replaying mode (Direct cores read real state).
    pub(crate) fn nongated(&self, kind: NgKind) -> NgValue {
        let mut s = self.lock();
        match s.mode {
            SpecMode::Replaying => {
                if s.replay_pos < s.log.len() {
                    let pos = s.replay_pos;
                    s.replay_pos += 1;
                    match s.log[pos] {
                        ReplayEntry::NonGated(v) => {
                            let kind_ok = matches!(
                                (kind, v),
                                (NgKind::Active, NgValue::Active(_))
                                    | (NgKind::AbId, NgValue::AbId(_))
                            );
                            if !kind_ok {
                                panic!("speculative replay out of sync: non-gated kind mismatch");
                            }
                            v
                        }
                        ReplayEntry::Gated { .. } | ReplayEntry::Note => {
                            panic!("speculative replay out of sync: expected non-gated read")
                        }
                    }
                } else {
                    // Log ends right before a non-gated read: the prefix is
                    // fully replayed; transition in place. Non-gated reads
                    // are own-core-deterministic, so real state answers
                    // them exactly.
                    let base = base_ref();
                    if s.demote_on_replay_end {
                        s.mode = SpecMode::Direct;
                        return ng_real(base, self.tid, kind);
                    }
                    s.mode = SpecMode::Speculating;
                    s.budget = 0;
                    let view = SpecView::snapshot(base, self.tid);
                    let v = match kind {
                        NgKind::Active => NgValue::Active(view.tx.is_some()),
                        NgKind::AbId => NgValue::AbId(view.tx.as_ref().map(|t| t.ab_id)),
                    };
                    s.view = Some(view);
                    s.queue.push_back(SpecEntry::NonGated(v));
                    v
                }
            }
            SpecMode::Speculating => {
                let view = s.view.as_ref().expect("speculating without an overlay");
                let v = match kind {
                    NgKind::Active => NgValue::Active(view.tx.is_some()),
                    NgKind::AbId => NgValue::AbId(view.tx.as_ref().map(|t| t.ab_id)),
                };
                s.queue.push_back(SpecEntry::NonGated(v));
                v
            }
            SpecMode::Direct | SpecMode::Poisoned => {
                unreachable!("direct cores answer non-gated reads from real state")
            }
        }
    }

    /// Record an obs note at logical clock `clock`. Returns `true` when the
    /// slot absorbed it (queued, or already emitted by the committed prefix);
    /// `false` when the caller must emit it directly to real state (Direct
    /// mode, including a demotion triggered right here).
    pub(crate) fn note(&self, clock: u64, kind: ObsKind) -> bool {
        let mut s = self.lock();
        match s.mode {
            SpecMode::Speculating => {
                s.queue.push_back(SpecEntry::Note { clock, kind });
                true
            }
            SpecMode::Replaying => {
                if s.replay_pos < s.log.len() {
                    // This note committed with the prefix and was already
                    // emitted; consume its marker and drop it.
                    match s.log[s.replay_pos] {
                        ReplayEntry::Note => {
                            s.replay_pos += 1;
                            true
                        }
                        _ => panic!("speculative replay out of sync: expected a note"),
                    }
                } else if s.demote_on_replay_end {
                    // Prefix fully replayed: a discarded-queue note lands
                    // here and must not be lost. Demoted cores emit it
                    // directly (the replayed clock is the real clock).
                    s.mode = SpecMode::Direct;
                    false
                } else {
                    // Transition in place like `nongated`: resume
                    // speculation and re-queue the note so the commit walk
                    // emits it. `clock` is exact — replay restored the real
                    // core clock.
                    s.mode = SpecMode::Speculating;
                    s.budget = 0;
                    s.view = Some(SpecView::snapshot(base_ref(), self.tid));
                    s.queue.push_back(SpecEntry::Note { clock, kind });
                    true
                }
            }
            // A poisoned body is being torn down; its note dies with it.
            SpecMode::Poisoned => true,
            SpecMode::Direct => false,
        }
    }

    /// Core body finished (`Drop` hook). Returns `true` when the slot
    /// absorbed the retirement (queued as a `Finish` record for the commit
    /// walk, or dropped with a poisoned teardown); `false` when the caller
    /// must retire the core against real state itself (Direct mode,
    /// including a demotion triggered right here — a demoted core's driver
    /// never drains its queue again, so a queued `Finish` would lose the
    /// trailing `pending` cycles). Must never panic: `Drop` also runs
    /// during unwinding.
    pub(crate) fn finish(&self, pending: u64) -> bool {
        let mut s = self.lock();
        match s.mode {
            SpecMode::Speculating => {
                s.queue.push_back(SpecEntry::Finish { pending });
                true
            }
            SpecMode::Replaying => {
                if s.replay_pos < s.log.len() {
                    // Ended before consuming its committed past: diverged.
                    // Flag it; the driver surfaces the panic.
                    s.panicked = true;
                    true
                } else if s.demote_on_replay_end {
                    // Prefix fully replayed and the core is demoted: same
                    // transition `note` makes. The replayed clock is the
                    // real clock, so the caller retires directly.
                    s.mode = SpecMode::Direct;
                    false
                } else {
                    // Legitimate: the body's first post-prefix action is to
                    // finish (e.g. the mismatched op was its last).
                    s.queue.push_back(SpecEntry::Finish { pending });
                    true
                }
            }
            // A poisoned body is being torn down; a fresh one re-runs its
            // tail, so its pending cycles die with it.
            SpecMode::Poisoned => true,
            SpecMode::Direct => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local base-state pointer for body polls
// ---------------------------------------------------------------------------

thread_local! {
    static SPEC_BASE: Cell<*const SimState> = const { Cell::new(std::ptr::null()) };
}

struct BaseGuard;

impl Drop for BaseGuard {
    fn drop(&mut self) {
        SPEC_BASE.with(|b| b.set(std::ptr::null()));
    }
}

/// Run `f` with `base` installed as the thread's speculation base state.
/// The guard resets the pointer even if `f` panics.
pub(crate) fn with_base<R>(base: *const SimState, f: impl FnOnce() -> R) -> R {
    SPEC_BASE.with(|b| b.set(base));
    let _g = BaseGuard;
    f()
}

/// The base state installed by [`with_base`] for the current poll.
///
/// SAFETY: only reachable from `SpecSlot::gate`/`nongated`, which run while
/// a body future is being polled inside `with_base`. During the parallel
/// speculation phase the driver holds the state mutex for the whole phase
/// and workers borrow `&*guard`; during a replay poll only the driver
/// thread is running and it creates no overlapping `&mut` while the body
/// executes. Either way the pointee is alive and unmutated for the duration
/// of each borrow, and borrows created here are transient (never held
/// across a suspension point).
fn base_ref() -> &'static SimState {
    SPEC_BASE.with(|b| {
        let p = b.get();
        assert!(!p.is_null(), "speculative gate outside a scheduler poll");
        unsafe { &*p }
    })
}

// ---------------------------------------------------------------------------
// The overlay view
// ---------------------------------------------------------------------------

/// A private, copy-on-write view of the simulator for one core's
/// speculation. Own-core structures (caches, tx, arena) are cloned
/// outright; shared structures (memory, coherence directory, L3) are overlaid
/// with hash maps consulted before the base. Must never panic on *stale
/// shared* data — reads outside the base fall back to zero, and the commit
/// walk catches any resulting mis-prediction. (Asserts about the core's
/// *own* deterministic control flow — e.g. nested transactions — are fine:
/// the real execution would hit them too.)
#[derive(Debug)]
pub(crate) struct SpecView {
    tid: usize,
    pub(crate) clock: u64,
    tx: Option<TxState>,
    doomed: Option<Doomed>,
    l1: CacheArray,
    l2: CacheArray,
    arena_next: u64,
    arena_end: u64,
    heap_next: u64,
    perm_slots: usize,
    /// Word-index-keyed memory overlay.
    mem: FxHashMap<usize, u64>,
    /// Coherence-directory overlay, keyed by line index and role. `Sharers`
    /// entries only answer for *other* cores (own presence is `l1`/`l2`).
    dir: FxHashMap<(u64, Role), CoreSet>,
    /// L3 sets copied on first touch.
    l3_sets: FxHashMap<usize, Vec<(u64, u64)>>,
    l3_ways: usize,
    l3_stamp: u64,
    /// Other cores this view has already speculatively doomed.
    spec_doomed: FxHashSet<usize>,
}

impl SpecView {
    pub(crate) fn snapshot(base: &SimState, tid: usize) -> Self {
        let c = &base.cores[tid];
        SpecView {
            tid,
            clock: c.clock,
            tx: c.tx.clone(),
            doomed: c.doomed,
            l1: c.l1.clone(),
            l2: c.l2.clone(),
            arena_next: c.arena_next,
            arena_end: c.arena_end,
            heap_next: base.heap_next,
            perm_slots: base.perm_slots,
            mem: FxHashMap::default(),
            dir: FxHashMap::default(),
            l3_sets: FxHashMap::default(),
            l3_ways: base.l3.ways(),
            l3_stamp: base.l3.stamp(),
            spec_doomed: FxHashSet::default(),
        }
    }

    // -- overlay primitives -------------------------------------------------

    fn read_word(&self, base: &SimState, addr: u64) -> u64 {
        let i = word_index(addr);
        if let Some(&v) = self.mem.get(&i) {
            return v;
        }
        base.mem.get(i).copied().unwrap_or(0)
    }

    fn write_word(&mut self, addr: u64, v: u64) {
        self.mem.insert(word_index(addr), v);
    }

    fn dir_get(&self, base: &SimState, line: u64, role: Role) -> CoreSet {
        if let Some(&s) = self.dir.get(&(line, role)) {
            return s;
        }
        base.dir.try_get(line, role).unwrap_or_default()
    }

    fn dir_update(&mut self, base: &SimState, line: u64, role: Role, f: impl FnOnce(&mut CoreSet)) {
        let mut s = self.dir_get(base, line, role);
        f(&mut s);
        self.dir.insert((line, role), s);
    }

    /// Release `core`'s speculative ownership of `line`.
    fn release(&mut self, base: &SimState, core: usize, line: u64) {
        self.dir_update(base, line, Role::Readers, |s| s.remove(core));
        self.dir_update(base, line, Role::Writers, |s| s.remove(core));
    }

    /// Does some *other* core (from this view's perspective) hold `line`?
    fn other_has(&self, base: &SimState, line: u64) -> bool {
        let mut others = self.dir_get(base, line, Role::Sharers);
        others.remove(self.tid);
        !others.is_empty()
    }

    // -- L3 copy-on-write ---------------------------------------------------

    fn l3_set(&mut self, base: &SimState, line: u64) -> &mut Vec<(u64, u64)> {
        let s = base.l3.set_index(line);
        self.l3_sets
            .entry(s)
            .or_insert_with(|| base.l3.set_entries(s).to_vec())
    }

    fn l3_touch(&mut self, base: &SimState, line: u64) -> bool {
        self.l3_stamp += 1;
        let stamp = self.l3_stamp;
        let set = self.l3_set(base, line);
        for e in set.iter_mut() {
            if e.0 == line {
                e.1 = stamp;
                return true;
            }
        }
        false
    }

    fn l3_insert(&mut self, base: &SimState, line: u64) {
        self.l3_stamp += 1;
        let stamp = self.l3_stamp;
        let ways = self.l3_ways;
        let set = self.l3_set(base, line);
        if let Some(e) = set.iter_mut().find(|e| e.0 == line) {
            e.1 = stamp;
            return;
        }
        if set.len() < ways {
            set.push((line, stamp));
            return;
        }
        if let Some(i) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, &(_, t))| t)
            .map(|(i, _)| i)
        {
            set[i] = (line, stamp);
        }
    }

    // -- cache/latency model (mirrors SimState::touch_caches) ---------------

    fn touch_caches(&mut self, base: &SimState, line: u64, speculative: bool) -> Result<u64, ()> {
        let cfg = &base.cfg;
        if self.l1.touch(line) {
            return Ok(cfg.l1_latency);
        }
        let lat = if self.l2.touch(line) {
            cfg.l2_latency
        } else if self.other_has(base, line) || self.l3_touch(base, line) {
            cfg.l3_latency
        } else {
            cfg.mem_latency
        };
        let SpecView { l1, tx, .. } = self;
        let spec_pred = |l: u64| tx.as_ref().is_some_and(|t| t.spec_contains(l));
        match l1.insert(line, spec_pred) {
            Ok(_) => {}
            Err(()) => {
                if speculative {
                    return Err(());
                }
                // Nontransactional miss into a pinned-full set: bypass L1.
            }
        }
        let _ = self.l2.insert(line, |_| false);
        self.l3_insert(base, line);
        Ok(lat)
    }

    fn invalidate_others(&mut self, line: u64) {
        self.dir.insert((line, Role::Sharers), CoreSet::default());
    }

    // -- conflict machinery -------------------------------------------------

    fn doom(&mut self, base: &SimState, victim: usize) {
        if victim == self.tid || !self.spec_doomed.insert(victim) {
            return;
        }
        let Some(vtx) = base.cores[victim].tx.as_ref() else {
            return;
        };
        if vtx.rolled_back {
            return;
        }
        // Roll the victim's eager writes back in the overlay and release
        // its ownership so our later accesses see pre-transaction state.
        for &(addr, old) in vtx.undo.iter().rev() {
            self.write_word(addr, old);
        }
        for l in &vtx.lines {
            if l.written {
                self.dir_update(base, l.line, Role::Sharers, |s| s.remove(victim));
            }
            self.release(base, victim, l.line);
        }
    }

    fn resolve_conflicts(&mut self, base: &SimState, addr: u64, is_write: bool) {
        let line = line_of(addr);
        let mut mask = self.dir_get(base, line, Role::Writers);
        if is_write {
            mask = mask.union(self.dir_get(base, line, Role::Readers));
        }
        mask.remove(self.tid);
        // Ascending-id walk, mirroring the authoritative resolve_conflicts.
        for v in mask.iter() {
            self.doom(base, v);
        }
    }

    fn check_doomed(&mut self, base: &SimState) -> Result<(), TxError> {
        if let Some(d) = self.doomed.take() {
            self.clock += base.cfg.tx_abort_cost;
            self.tx = None;
            return Err(TxError::Aborted(d.info));
        }
        Ok(())
    }

    fn rollback_and_release(&mut self, base: &SimState) {
        if let Some(tx) = self.tx.take() {
            if !tx.rolled_back {
                for &(addr, old) in tx.undo.iter().rev() {
                    self.write_word(addr, old);
                }
                let tid = self.tid;
                for l in &tx.lines {
                    if l.written {
                        self.l1.remove(l.line);
                        self.l2.remove(l.line);
                    }
                    self.release(base, tid, l.line);
                }
            }
        }
    }

    fn self_abort(&mut self, base: &SimState, cause: AbortCause) -> TxError {
        self.clock += base.cfg.tx_abort_cost;
        self.rollback_and_release(base);
        TxError::Aborted(AbortInfo::simple(cause))
    }

    // -- op implementations (mirror SimState's, against the overlay) --------

    fn tx_begin(&mut self, base: &SimState, ab_id: u32) -> u64 {
        debug_assert!(self.tx.is_none(), "nested hardware transaction");
        self.doomed = None;
        let mut tx = TxState::default();
        tx.reset(ab_id, self.clock, self.perm_slots);
        self.tx = Some(tx);
        base.cfg.tx_begin_cost
    }

    fn tx_load(&mut self, base: &SimState, addr: u64, pc: u64) -> (Result<u64, TxError>, u64) {
        if let Err(e) = self.check_doomed(base) {
            return (Err(e), 0);
        }
        let line = line_of(addr);
        // Fast path: cached permission + L1 presence.
        let fast = {
            match self.tx.as_ref() {
                Some(tx) if tx.perm_has(line, false) && self.l1.contains(line) => {
                    Some(tx.buffered(addr))
                }
                _ => None,
            }
        };
        if let Some(buffered) = fast {
            self.l1.touch(line);
            return (
                Ok(buffered.unwrap_or_else(|| self.read_word(base, addr))),
                base.cfg.l1_latency,
            );
        }
        {
            let tx = self.tx.as_ref().expect("tx_load outside transaction");
            if bound_exceeded(&base.cfg, tx, line, false) {
                return (Err(self.self_abort(base, AbortCause::Capacity)), 0);
            }
        }
        if base.cfg.protocol == HtmProtocol::Eager {
            self.resolve_conflicts(base, addr, false);
        }
        match self.touch_caches(base, line, true) {
            Ok(lat) => {
                let tid = self.tid;
                let tx = self.tx.as_mut().expect("tx_load outside transaction");
                tx.touch_line(line, pc, false);
                tx.perm_insert(line, false);
                let buffered = tx.buffered(addr);
                self.dir_update(base, line, Role::Readers, |s| s.insert(tid));
                (
                    Ok(buffered.unwrap_or_else(|| self.read_word(base, addr))),
                    lat,
                )
            }
            Err(()) => (Err(self.self_abort(base, AbortCause::Capacity)), 0),
        }
    }

    fn tx_store(
        &mut self,
        base: &SimState,
        addr: u64,
        val: u64,
        pc: u64,
    ) -> (Result<(), TxError>, u64) {
        if let Err(e) = self.check_doomed(base) {
            return (Err(e), 0);
        }
        let eager = base.cfg.protocol == HtmProtocol::Eager;
        let line = line_of(addr);
        let fast = {
            match self.tx.as_mut() {
                Some(tx) if tx.perm_has(line, true) && self.l1.contains(line) => {
                    if !eager {
                        tx.buffer_store(addr, val);
                    }
                    true
                }
                _ => false,
            }
        };
        if fast {
            self.l1.touch(line);
            if eager {
                let old = self.read_word(base, addr);
                self.tx.as_mut().unwrap().undo.push((addr, old));
                self.write_word(addr, val);
                self.invalidate_others(line);
            }
            return (Ok(()), base.cfg.l1_latency);
        }
        {
            let tx = self.tx.as_ref().expect("tx_store outside transaction");
            if bound_exceeded(&base.cfg, tx, line, true) {
                return (Err(self.self_abort(base, AbortCause::Capacity)), 0);
            }
        }
        if eager {
            self.resolve_conflicts(base, addr, true);
        }
        match self.touch_caches(base, line, true) {
            Ok(lat) => {
                let tid = self.tid;
                let old = self.read_word(base, addr);
                let tx = self.tx.as_mut().expect("tx_store outside transaction");
                tx.touch_line(line, pc, true);
                tx.perm_insert(line, true);
                self.dir_update(base, line, Role::Writers, |s| s.insert(tid));
                let tx = self.tx.as_mut().unwrap();
                if eager {
                    tx.undo.push((addr, old));
                    self.write_word(addr, val);
                    self.invalidate_others(line);
                } else {
                    tx.buffer_store(addr, val);
                }
                (Ok(()), lat)
            }
            Err(()) => (Err(self.self_abort(base, AbortCause::Capacity)), 0),
        }
    }

    fn tx_commit(&mut self, base: &SimState) -> (Result<(), TxError>, u64) {
        if let Err(e) = self.check_doomed(base) {
            return (Err(e), 0);
        }
        // Mirror the commit-time fallback-lock validation of the safe
        // lazy-subscription policy (prediction only — the authoritative
        // re-execution decides).
        if base.cfg.fallback == FallbackPolicy::LazySubscriptionSafe {
            if let Some(lock) = base.commit_lock_addr {
                if self.read_word(base, lock) != 0 {
                    return (
                        Err(self.self_abort(base, AbortCause::SubscriptionValidation)),
                        0,
                    );
                }
            }
        }
        let mut commit_cost = base.cfg.tx_commit_cost;
        if base.cfg.protocol == HtmProtocol::Lazy {
            let tx = self.tx.take().expect("commit without transaction");
            for e in tx.lines.iter().filter(|e| e.written) {
                self.resolve_conflicts(base, e.line * LINE_BYTES, true);
            }
            commit_cost += tx.write_buffer.len() as u64;
            for &(addr, val) in &tx.write_buffer {
                self.write_word(addr, val);
            }
            for e in tx.lines.iter().filter(|e| e.written) {
                self.invalidate_others(e.line);
            }
            self.tx = Some(tx);
        }
        let tx = self.tx.take().expect("commit without transaction");
        let tid = self.tid;
        for l in &tx.lines {
            self.release(base, tid, l.line);
        }
        (Ok(()), commit_cost)
    }

    fn nt_load(&mut self, base: &SimState, addr: u64) -> (u64, u64) {
        let line = line_of(addr);
        let lat = self
            .touch_caches(base, line, false)
            .unwrap_or(base.cfg.mem_latency);
        (self.read_word(base, addr), lat)
    }

    fn plain_load(&mut self, base: &SimState, addr: u64) -> (u64, u64) {
        if base.cfg.protocol == HtmProtocol::Eager {
            self.resolve_conflicts(base, addr, false);
        }
        self.nt_load(base, addr)
    }

    fn nt_store(&mut self, base: &SimState, addr: u64, val: u64) -> u64 {
        let line = line_of(addr);
        self.resolve_conflicts(base, addr, true);
        let lat = self
            .touch_caches(base, line, false)
            .unwrap_or(base.cfg.mem_latency);
        self.write_word(addr, val);
        self.invalidate_others(line);
        lat
    }

    fn nt_cas(&mut self, base: &SimState, addr: u64, old: u64, new: u64) -> (bool, u64) {
        let line = line_of(addr);
        let cur = self.read_word(base, addr);
        if cur == old {
            self.resolve_conflicts(base, addr, true);
            let lat = self
                .touch_caches(base, line, false)
                .unwrap_or(base.cfg.mem_latency);
            self.write_word(addr, new);
            self.invalidate_others(line);
            (true, lat)
        } else {
            let lat = self
                .touch_caches(base, line, false)
                .unwrap_or(base.cfg.mem_latency);
            (false, lat)
        }
    }

    fn alloc(&mut self, base: &SimState, words: u64, line_align: bool) -> (u64, u64) {
        let bytes = words * WORD_BYTES;
        let chunk = (base.cfg.arena_chunk_words as u64) * WORD_BYTES;
        let mut start = self.arena_next;
        if line_align {
            start = (start + LINE_BYTES - 1) & !(LINE_BYTES - 1);
        }
        if start + bytes > self.arena_end {
            // The real path asserts heap bounds; the overlay just predicts
            // and lets the authoritative run do the asserting.
            let b = (self.heap_next + LINE_BYTES - 1) & !(LINE_BYTES - 1);
            self.heap_next = b + chunk;
            self.arena_next = b;
            self.arena_end = b + chunk;
            start = b;
        }
        self.arena_next = start + bytes;
        (start, 10 + base.cfg.alloc_cost_per_word * words)
    }

    /// Execute one op against the overlay, returning the predicted
    /// `(result, latency)`.
    pub(crate) fn exec(&mut self, base: &SimState, op: &Op) -> (OpResult, u64) {
        match *op {
            Op::Begin { ab_id } => {
                let lat = self.tx_begin(base, ab_id);
                (OpResult::Unit, lat)
            }
            Op::Load { addr, pc } => {
                let (r, lat) = self.tx_load(base, addr, pc);
                (OpResult::TxVal(r), lat)
            }
            Op::Store { addr, val, pc } => {
                let (r, lat) = self.tx_store(base, addr, val, pc);
                (OpResult::TxUnit(r), lat)
            }
            Op::Commit => {
                let (r, lat) = self.tx_commit(base);
                (OpResult::TxUnit(r), lat)
            }
            Op::Abort => (
                OpResult::TxErr(self.self_abort(base, AbortCause::Explicit)),
                0,
            ),
            Op::NtLoad { addr } => {
                let (v, lat) = self.nt_load(base, addr);
                (OpResult::Val(v), lat)
            }
            Op::PlainLoad { addr } => {
                let (v, lat) = self.plain_load(base, addr);
                (OpResult::Val(v), lat)
            }
            Op::NtStore { addr, val } => {
                let lat = self.nt_store(base, addr, val);
                (OpResult::Unit, lat)
            }
            Op::NtCas { addr, old, new } => {
                let (ok, lat) = self.nt_cas(base, addr, old, new);
                (OpResult::Flag(ok), lat)
            }
            Op::Alloc { words, line_align } => {
                let (a, lat) = self.alloc(base, words, line_align);
                (OpResult::Val(a), lat)
            }
            // Pure cycle/stat charges: result is trivially exact; the stat
            // side effects land in the authoritative re-execution.
            Op::LockWait { .. } | Op::Backoff { .. } | Op::Irrevocable { .. } => {
                (OpResult::Unit, 0)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver-side helpers: task control, commit walk, worker poll
// ---------------------------------------------------------------------------

/// Driver-side bookkeeping for one core task.
#[derive(Debug, Default)]
pub(crate) struct TaskCtl {
    pub(crate) done: bool,
    pub(crate) direct: bool,
    pub(crate) needs_rebuild: bool,
    pub(crate) rebuilds: u32,
}

/// What the serial commit walk stopped on.
pub(crate) enum WalkStep {
    /// The globally next op belongs to a Direct core: the driver must
    /// admit it and poll that core's future on the driver thread.
    Direct(usize),
    /// No more committable work this round.
    RoundDone,
}

/// Serially validate-and-commit queued predictions in min-`(clock, id)`
/// order.
///
/// Each committable head op is re-executed against the *real* state via
/// [`apply_op`] — the authoritative execution that produces all stats,
/// traces, and obs events — then compared with its prediction. A match
/// keeps consuming that core's queue; a mismatch still commits the real
/// result (the op's *identity* was exact: it is determined by the
/// validated prefix) but discards the rest of the queue and marks the core
/// for rebuild.
///
/// The next core to act is found through `heap`, a [`LazyMinHeap`] over
/// per-core lower-bound keys, replacing a linear scan per committed op:
///
/// * a Direct core or one marked `needs_rebuild` is keyed by its real
///   clock (exact for Direct, a lower bound for rebuilds),
/// * a queued head `Op` is keyed by its `key_clock`,
/// * an order-free head (non-gated read, note, finish) or an empty queue
///   is keyed by the core's committed clock — a lower bound on whatever
///   its next gated op turns out to be.
///
/// All keys are distinct (the id breaks ties), so the cleaned heap top *is*
/// the unique global minimum, and dispatching on its kind reproduces the
/// old scan's decision exactly: an `Op` top commits, a Direct top returns
/// to the driver, a bound-kind top means nothing can commit without risking
/// (clock, id) order — `RoundDone`. Order-free heads are drained when their
/// core reaches the top (they are per-core streams, so drain timing
/// relative to *other* cores is unobservable). Within one walk every key
/// transition is monotone non-decreasing, which is the heap's soundness
/// precondition; the panic-triage path between walks can lower a key
/// (clearing a queue drops a head key back to the core's clock), so the
/// walk reseeds the heap on entry rather than keeping it warm across calls.
pub(crate) fn commit_walk(
    st: &mut SimState,
    slots: &[std::sync::Arc<SpecSlot>],
    ctl: &mut [TaskCtl],
    sstats: &mut SpecStats,
    heap: &mut LazyMinHeap,
) -> WalkStep {
    let n = slots.len();
    let key_of = |st: &SimState, ctl: &[TaskCtl], tid: usize| -> Option<u64> {
        if ctl[tid].done {
            return None;
        }
        if ctl[tid].direct || ctl[tid].needs_rebuild {
            return Some(st.cores[tid].clock);
        }
        match slots[tid].lock().queue.front() {
            Some(&SpecEntry::Op { key_clock, .. }) => Some(key_clock),
            _ => Some(st.cores[tid].clock),
        }
    };
    heap.reseed(n, |tid| key_of(st, ctl, tid));
    loop {
        let Some((_, bt)) = heap.min(|tid| key_of(st, ctl, tid)) else {
            // Every core retired.
            return WalkStep::RoundDone;
        };
        if ctl[bt].direct {
            // Exact: a Direct core pending at its gate has already folded
            // its compute cycles into the real clock, and it is globally
            // next — the driver must admit it.
            return WalkStep::Direct(bt);
        }
        if ctl[bt].needs_rebuild {
            // The global minimum is only a bound: committing anything
            // past it could break the (clock, id) order.
            return WalkStep::RoundDone;
        }
        let mut s = slots[bt].lock();
        match s.queue.front() {
            // Empty queue: same bound situation as a rebuild.
            None => return WalkStep::RoundDone,
            Some(&SpecEntry::Op { .. }) => {
                // Commit the head op of core `bt` authoritatively.
                let Some(SpecEntry::Op {
                    key_clock,
                    op,
                    res,
                    lat,
                }) = s.queue.pop_front()
                else {
                    unreachable!("front() just saw an Op at this head")
                };
                debug_assert!(st.cores[bt].clock <= key_clock);
                st.cores[bt].clock = key_clock;
                st.cores[bt].stats.gated_ops += 1;
                let (real_res, real_lat) = apply_op(st, bt, &op);
                st.cores[bt].clock += real_lat;
                s.log.push(ReplayEntry::Gated {
                    res: real_res,
                    clock_after: st.cores[bt].clock,
                });
                if real_res == res && real_lat == lat {
                    sstats.committed_ops += 1;
                } else {
                    sstats.mismatches += 1;
                    s.queue.clear();
                    s.view = None;
                    ctl[bt].needs_rebuild = true;
                }
            }
            Some(_) => {
                // Drain the run of order-free entries (non-gated reads,
                // notes, finishes) at this core's head. They depend only
                // on the core's own committed prefix, so they need no
                // global ordering; events/traces are per-core streams, so
                // emitting them here preserves byte-identical per-core
                // order.
                loop {
                    match s.queue.front() {
                        Some(&SpecEntry::NonGated(v)) => {
                            let real = ng_real(
                                st,
                                bt,
                                match v {
                                    NgValue::Active(_) => NgKind::Active,
                                    NgValue::AbId(_) => NgKind::AbId,
                                },
                            );
                            if real != v {
                                sstats.mismatches += 1;
                                s.queue.clear();
                                s.view = None;
                                ctl[bt].needs_rebuild = true;
                                break;
                            }
                            s.queue.pop_front();
                            s.log.push(ReplayEntry::NonGated(real));
                        }
                        Some(&SpecEntry::Note { clock, kind }) => {
                            st.note_at(bt, clock, kind);
                            s.queue.pop_front();
                            // Logged so a replayed body knows this note was
                            // already emitted (unlogged notes are
                            // re-queued).
                            s.log.push(ReplayEntry::Note);
                        }
                        Some(&SpecEntry::Finish { pending }) => {
                            st.cores[bt].clock += pending;
                            st.cores[bt].finished = true;
                            s.queue.clear();
                            ctl[bt].done = true;
                            break;
                        }
                        _ => break,
                    }
                }
            }
        }
    }
}

/// The future type driven by the speculative scheduler.
pub(crate) type FutCell<'m> = Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send + 'm>>>>;

/// Poll one core future with `base` installed for the overlay and panics
/// contained: a panic while speculating means the overlay fed the body
/// impossible (stale) data — rebuild it, don't crash the run.
pub(crate) fn spec_poll(base: &SimState, fut_cell: &FutCell<'_>, slot: &SpecSlot) {
    let mut guard = fut_cell.lock().unwrap_or_else(|poison| poison.into_inner());
    let Some(fut) = guard.as_mut() else {
        return;
    };
    let waker = Waker::noop();
    let mut cx = Context::from_waker(waker);
    let r = with_base(base as *const SimState, || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)))
    });
    match r {
        Ok(Poll::Ready(())) => {
            *guard = None;
        }
        Ok(Poll::Pending) => {}
        Err(_) => {
            *guard = None;
            let mut s = slot.lock();
            s.queue.clear();
            s.view = None;
            s.panicked = true;
        }
    }
}
