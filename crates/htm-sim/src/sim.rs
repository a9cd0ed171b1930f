//! The simulator state: flat memory, per-core caches, the per-line coherence
//! directory, HTM read/write sets, eager requester-wins conflict resolution,
//! and logical clocks.
//!
//! The machine's event loop is the only user of this state (it sits in the
//! [`crate::machine::Machine`]'s `RefCell`); methods are called by
//! [`crate::machine::Core`] only when it is the calling core's logical
//! turn, so the whole struct is free of internal synchronization.

use crate::addr::{line_of, Addr, LINE_BYTES, WORD_BYTES};
use crate::cache::CacheArray;
use crate::config::{FallbackPolicy, HtmProtocol, MachineConfig};
use crate::coreset::CoreSet;
use crate::directory::{Directory, Role};
use crate::obs::{EventRing, ObsEvent, ObsKind};
use crate::sched::{SchedStats, WinnerTree};
use crate::stats::CoreStats;

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// Data conflict with another core (requester-wins: we were the victim).
    Conflict,
    /// Speculative footprint overflowed an L1 set's ways, or crossed a
    /// configured bounded-set limit (`max_read_lines`/`max_write_lines`).
    Capacity,
    /// Self-initiated abort (e.g., global-lock subscription at commit).
    Explicit,
    /// Commit-time hardware validation of the fallback lock word failed
    /// (the Dice-et-al-style fix under
    /// [`crate::config::FallbackPolicy::LazySubscriptionSafe`]): the lock
    /// was held at commit, so the transaction must not become visible.
    SubscriptionValidation,
}

/// What the hardware reports on abort — the paper's "%rbx" payload: the
/// conflicting data address and the low bits of the PC that *first* touched
/// that line in the aborted transaction (Section 4 / Section 6 simulator
/// modifications).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortInfo {
    pub cause: AbortCause,
    /// Line address of the conflicting datum (0 for capacity/explicit).
    pub conf_addr: Addr,
    /// First-access PC tag for the conflicting line, its low
    /// [`MachineConfig::pc_tag_bits`] bits (12 by default) — what real
    /// hardware with the paper's PC-tag extension would deliver.
    pub conf_pc_tag: u16,
    /// Full first-access PC for the conflicting line. NOT architectural:
    /// used only for ground-truth accuracy measurement (Table 3) and by
    /// tests. Real policies must use `conf_pc_tag` or the software map.
    pub true_first_pc: u64,
}

impl AbortInfo {
    fn simple(cause: AbortCause) -> Self {
        AbortInfo {
            cause,
            conf_addr: 0,
            conf_pc_tag: 0,
            true_first_pc: 0,
        }
    }
}

/// Error type of transactional operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    Aborted(AbortInfo),
}

impl TxError {
    pub fn info(&self) -> AbortInfo {
        match self {
            TxError::Aborted(i) => *i,
        }
    }
}

/// One line in a transaction's speculative footprint: read/write
/// membership, plus the full PC of the instruction that first accessed it
/// (the hardware keeps only the low 12 bits; we keep the full value and
/// truncate on delivery, retaining ground truth).
#[derive(Debug, Clone, Copy)]
struct TxLine {
    line: u64,
    written: bool,
    first_pc: u64,
}

/// Active-transaction state of one core.
///
/// Transactional footprints are tiny (bounded by the L1's speculative
/// capacity, typically a few dozen lines), so the read/write sets and the
/// lazy write buffer live in sorted vectors probed by binary search — no
/// hashing, no per-entry allocation, and the buffers are recycled across
/// transactions on the same core ([`TxState::reset`]). `lines` mirrors the
/// attempt's `Readers`/`Writers` bits in the directory rows, adding the
/// first-access PC.
#[derive(Debug, Default)]
struct TxState {
    start_clock: u64,
    /// Speculative lines touched, sorted by line index.
    lines: Vec<TxLine>,
    /// Undo log: (addr, previous value), applied in reverse on abort
    /// (eager protocol only).
    undo: Vec<(Addr, u64)>,
    /// Private write buffer, sorted by address, published at commit (lazy
    /// protocol only).
    write_buffer: Vec<(Addr, u64)>,
}

impl TxState {
    /// Clear for reuse by a fresh transaction, keeping the allocations.
    fn reset(&mut self, start_clock: u64) {
        self.start_clock = start_clock;
        self.lines.clear();
        self.undo.clear();
        self.write_buffer.clear();
    }

    fn find(&self, line: u64) -> Result<usize, usize> {
        self.lines.binary_search_by_key(&line, |e| e.line)
    }

    fn spec_contains(&self, line: u64) -> bool {
        self.find(line).is_ok()
    }

    /// Record a speculative touch of `line`; `first_pc` is set only by the
    /// first access, matching the hardware's first-toucher PC tag.
    fn touch_line(&mut self, line: u64, pc: u64, write: bool) {
        match self.find(line) {
            Ok(i) => self.lines[i].written |= write,
            Err(i) => self.lines.insert(
                i,
                TxLine {
                    line,
                    written: write,
                    first_pc: pc,
                },
            ),
        }
    }

    /// Full first-access PC of `line` (0 when the line was never touched).
    fn first_pc_of(&self, line: u64) -> u64 {
        self.find(line).map_or(0, |i| self.lines[i].first_pc)
    }

    /// The lazily-buffered value of `addr`, if this transaction wrote it.
    fn buffered(&self, addr: Addr) -> Option<u64> {
        self.write_buffer
            .binary_search_by_key(&addr, |e| e.0)
            .ok()
            .map(|i| self.write_buffer[i].1)
    }

    /// Insert-or-update a lazily-buffered store.
    fn buffer_store(&mut self, addr: Addr, val: u64) {
        match self.write_buffer.binary_search_by_key(&addr, |e| e.0) {
            Ok(i) => self.write_buffer[i].1 = val,
            Err(i) => self.write_buffer.insert(i, (addr, val)),
        }
    }

    /// Distinct lines this attempt has written.
    fn written_lines(&self) -> usize {
        self.lines.iter().filter(|e| e.written).count()
    }
}

/// An ended attempt whose abort is not yet delivered: what the hardware
/// delivers ([`AbortInfo`]), who ended it (observability only: the core and
/// its access's PC tag, 0 when nontransactional), and the attempt's start.
#[derive(Debug, Clone, Copy)]
struct Doomed {
    info: AbortInfo,
    aborter: u32,
    aborter_pc_tag: u16,
    start_clock: u64,
}

/// A core parked in a spin loop whose every poll has a known outcome: all
/// watched words are non-zero and their line sits in the core's L1, so until
/// some core writes that line each iteration is `ops - 1` L1-hit loads plus
/// the `spin_wait` call that charges `quantum`, `period` cycles in all.
#[derive(Debug, Clone, Copy)]
struct Park {
    line: u64,
    /// Clock at which the first elided iteration starts.
    t0: u64,
    period: u64,
    /// Gated ops per iteration.
    ops: u64,
    quantum: u64,
    max_iters: u64,
    /// Clock at which iteration `max_iters` starts — the scheduling key
    /// while parked; `u64::MAX` when the wait has no timeout.
    deadline: u64,
}

/// Per-core simulator state.
pub(crate) struct CoreState {
    pub clock: u64,
    pub finished: bool,
    /// Set while the core is parked in [`SimState::park`].
    park: Option<Park>,
    l1: CacheArray,
    l2: CacheArray,
    /// The live attempt. A doom ends it: it is rolled back and its buffers
    /// parked in `spare_tx`, leaving only `doomed`.
    tx: Option<TxState>,
    /// Recycled transaction state: buffers from the last finished
    /// transaction, reused by the next `tx_begin` to avoid reallocation.
    spare_tx: Option<TxState>,
    /// A doomed attempt, until its abort is delivered at the core's next
    /// transactional operation or superseded by its own `self_abort`.
    doomed: Option<Doomed>,
    /// Iterations the core's last park elided (what `spin_wait` returns).
    pub elided: u64,
    pub stats: CoreStats,
    arena_next: Addr,
    arena_end: Addr,
    pub events: EventRing,
}

/// The whole simulated machine.
pub(crate) struct SimState {
    pub cfg: MachineConfig,
    l3: CacheArray,
    pub cores: Vec<CoreState>,
    /// Simulated memory with each line's speculative owners and cache
    /// sharers. Invariant: a line's `Sharers` are exactly the cores whose
    /// L1 or L2 holds it.
    dir: Directory,
    heap_next: Addr,
    /// Gate horizon: the minimum `(clock, id)` over unfinished cores *other
    /// than* the one currently resumed (set by [`SimState::schedule`]).
    /// While that core runs, no other core's clock can change, so its
    /// gates admit ops with one comparison against this pair instead of an
    /// `O(n_cores)` [`SimState::next_eligible`] scan.
    pub horizon: (u64, usize),
    /// Fallback lock word the hardware validates at commit under
    /// [`FallbackPolicy::LazySubscriptionSafe`] (the Dice-et-al-style
    /// fix): registered host-side by the runtime before threads start,
    /// `None` otherwise.
    commit_lock_addr: Option<Addr>,
    /// Min-(key, id) winner tree backing [`SimState::schedule`], kept
    /// current by [`SimState::sync_key`].
    sched: WinnerTree,
    /// The core [`SimState::schedule`] last picked: the only one whose
    /// clock moves without a `sync_key` of its own.
    pub running: Option<usize>,
    /// Cores currently parked; lets write gates skip the watcher lookup.
    pub n_parked: usize,
    /// Test aid ([`crate::Machine::poll_every_spin`]): never park.
    pub poll_every_spin: bool,
    /// Host-side scheduling-overhead counters (never simulated state).
    pub sched_stats: SchedStats,
}

/// First heap address — 0 stays an invalid ("null") address.
const HEAP_BASE: Addr = 4096;

impl SimState {
    pub fn new(cfg: MachineConfig) -> SimState {
        cfg.check().unwrap_or_else(|e| panic!("{e}"));
        let cores = (0..cfg.n_cores)
            .map(|_| CoreState {
                clock: 0,
                finished: false,
                park: None,
                l1: CacheArray::new(cfg.l1_sets, cfg.l1_ways),
                l2: CacheArray::new(cfg.l2_sets, cfg.l2_ways),
                tx: None,
                spare_tx: None,
                doomed: None,
                elided: 0,
                stats: CoreStats::default(),
                arena_next: 0,
                arena_end: 0,
                events: EventRing::new(cfg.event_ring_capacity),
            })
            .collect();
        SimState {
            l3: CacheArray::new(cfg.l3_sets, cfg.l3_ways),
            cores,
            dir: Directory::new(cfg.mem_words, cfg.n_cores),
            heap_next: HEAP_BASE,
            horizon: (u64::MAX, usize::MAX),
            commit_lock_addr: None,
            sched: WinnerTree::new(cfg.n_cores),
            running: None,
            n_parked: 0,
            poll_every_spin: false,
            sched_stats: SchedStats::default(),
            cfg,
        }
    }

    /// `i`'s scheduling key: its clock, or its wake deadline while parked.
    fn key(&self, i: usize) -> u64 {
        let c = &self.cores[i];
        c.park.map_or(c.clock, |p| p.deadline)
    }

    /// The core whose turn it is: minimum key among unfinished cores, ties
    /// by id. `None` when every core has finished.
    ///
    /// An O(n_cores) linear scan and the statement of the ordering rule. No
    /// driver runs on it: it is the reference that debug builds hold every
    /// gate's horizon test to, that the indexed [`SimState::schedule`] is
    /// property-tested against, and what `schedule` itself falls back to for
    /// keys its tree cannot order.
    pub fn next_eligible(&self) -> Option<usize> {
        (0..self.cores.len())
            .filter(|&i| !self.cores[i].finished)
            .min_by_key(|&i| (self.key(i), i))
    }

    /// Bring `i`'s tree entry up to date with its key.
    fn sync_key(&mut self, i: usize) {
        if self.sched.update(i, self.key(i)) {
            self.sched_stats.stale_refreshes += 1;
        }
    }

    /// [`SimState::next_eligible`] plus the exact runner-up `(key, id)`
    /// pair stored into [`SimState::horizon`]. The event loop calls this
    /// once per resumption; the chosen core's gates then stay
    /// eligible exactly while their own `(clock, id)` is `<=` the horizon.
    /// A parked core that comes up has reached its deadline and is woken
    /// here ([`SimState::wake_due`]).
    pub fn schedule(&mut self) -> Option<usize> {
        self.sched_stats.schedule_calls += 1;
        if let Some(ran) = self.running {
            self.sync_key(ran);
        }
        let (mut best, mut second) = self.sched.min2();
        if second.0 == u64::MAX && second.1 != usize::MAX {
            // The runner-up's key is one the tree clamps (a park without
            // deadline) and so cannot order: decide by the linear rule.
            // Every other live core is then parked forever or 2^56 cycles
            // away, so this is not a path reschedules are made on.
            best = self.next_eligible();
            let live = |&i: &usize| !self.cores[i].finished && Some(i) != best;
            let others = (0..self.cores.len()).filter(live);
            second = (others.map(|i| (self.key(i), i)).min()).expect("a second live core");
        }
        self.horizon = second;
        self.running = best;
        if let Some(b) = best {
            self.wake_due(b);
        }
        best
    }

    /// Retire `tid` (its program finished or unwound).
    pub fn retire(&mut self, tid: usize) {
        let c = &mut self.cores[tid];
        c.finished = true;
        if c.park.take().is_some() {
            self.n_parked -= 1;
        }
        self.sched.remove(tid);
    }

    // ----- event-driven waiting -------------------------------------------

    /// Park `tid` if every poll of its spin loop is predictable: `words`
    /// (all on one line) are non-zero and the line is in `tid`'s L1. Returns
    /// whether it parked; see [`crate::machine::Core::spin_wait`].
    pub fn park(&mut self, tid: usize, words: &[Addr], quantum: u64, max_iters: u64) -> bool {
        let Some(&first) = words.first() else {
            return false;
        };
        let line = line_of(first);
        assert!(
            words.iter().all(|&w| line_of(w) == line),
            "spin_wait words must share a cache line"
        );
        let ops = words.len() as u64 + 1;
        let period = (ops - 1) * self.cfg.l1_latency + quantum;
        if self.poll_every_spin
            || max_iters == 0
            || period == 0
            || !self.cores[tid].l1.contains(line)
            || words.iter().any(|&w| self.dir.load(w) == 0)
        {
            return false;
        }
        let c = &mut self.cores[tid];
        let deadline = max_iters
            .checked_mul(period)
            .and_then(|d| c.clock.checked_add(d))
            .unwrap_or(u64::MAX);
        c.park = Some(Park {
            line,
            t0: c.clock,
            period,
            ops,
            quantum,
            max_iters,
            deadline,
        });
        self.n_parked += 1;
        self.sched_stats.parks += 1;
        self.sync_key(tid);
        true
    }

    /// Unpark `i`, accounting the `n` whole iterations it skipped exactly as
    /// if each had been polled.
    fn unpark(&mut self, i: usize, n: u64) {
        let c = &mut self.cores[i];
        let p = c.park.take().expect("unpark of a running core");
        debug_assert_eq!(c.clock, p.t0, "a parked core's clock cannot move");
        c.clock += n * p.period;
        c.stats.gated_ops += n * p.ops;
        c.stats.nt_mem_ops += n * (p.ops - 1);
        c.stats.lock_wait_cycles += n * p.quantum;
        c.elided = n;
        self.n_parked -= 1;
        self.sched_stats.elided_ops += n * p.ops;
        self.sync_key(i);
    }

    /// `tid`, eligible at its current clock, is about to write `line`:
    /// unpark the cores parked on it, each fast-forwarded over the
    /// iterations whose last gate precedes `tid`'s `(clock, id)`. A woken
    /// core then sits strictly before `tid` in the order, so returns whether
    /// `tid` lost its turn (the horizon is lowered to match).
    pub fn unpark_watchers(&mut self, tid: usize, line: u64) -> bool {
        let at = self.cores[tid].clock;
        let mut sharers = self.dir.get(line, Role::Sharers);
        sharers.remove(tid);
        let mut woke = false;
        for i in sharers.iter() {
            let Some(p) = self.cores[i].park.filter(|p| p.line == line) else {
                continue;
            };
            debug_assert!((p.t0, i) < (at, tid), "parked after the writer's gate");
            let d = at.saturating_sub(p.t0);
            let mut n = d / p.period;
            if n > 0 && d % p.period == 0 && i > tid {
                n -= 1;
            }
            self.unpark(i, n.min(p.max_iters));
            self.horizon = self.horizon.min((self.cores[i].clock, i));
            woke = true;
        }
        woke
    }

    /// `i` holds the minimum key. If it is parked, that key is its deadline:
    /// wake it with every iteration elided — or, with no deadline, nobody is
    /// left who could ever write its line.
    pub fn wake_due(&mut self, i: usize) {
        let Some(p) = self.cores[i].park else {
            return;
        };
        if p.deadline == u64::MAX {
            let stuck = (self.cores.iter().enumerate())
                .filter_map(|(i, c)| {
                    let l = c.park?.line;
                    Some(format!(
                        "core {i} waits on line {l:#x} that no unfinished core can write"
                    ))
                })
                .collect::<Vec<_>>();
            panic!("deadlock: {}", stuck.join("; "));
        }
        self.unpark(i, p.max_iters);
    }

    /// Is `i` parked?
    pub fn parked(&self, i: usize) -> bool {
        self.cores[i].park.is_some()
    }

    /// No write may reach a line some core is parked on unless its gate
    /// announced it ([`SimState::unpark_watchers`]): transactional
    /// write-backs and roll-backs cannot, which is why lock, global-lock
    /// and stripe lines are nontransactional-only.
    fn assert_unwatched(&self, line: u64) {
        let watcher = (self.dir.get(line, Role::Sharers).iter())
            .find(|&i| self.cores[i].park.is_some_and(|p| p.line == line));
        assert!(
            watcher.is_none(),
            "unannounced write to line {line:#x} while core {watcher:?} is parked on it"
        );
    }

    // ----- memory & caches ----------------------------------------------

    fn write_word(&mut self, addr: Addr, val: u64) {
        self.dir.store(addr, val);
        if self.n_parked != 0 {
            self.assert_unwatched(line_of(addr));
        }
    }

    /// Charge cache latency for `tid` touching `line`. If `speculative`,
    /// the line must be insertable into the L1 without evicting a pinned
    /// (speculative) way; failure is a capacity overflow.
    ///
    /// (The cache-to-cache and L3 arms charge the same latency on purpose —
    /// they differ in the `touch` side effect, so they must not be merged.)
    #[allow(clippy::if_same_then_else)]
    fn touch_caches(&mut self, tid: usize, line: u64, speculative: bool) -> Result<u64, ()> {
        let cfg_l1 = self.cfg.l1_latency;
        let cfg_l2 = self.cfg.l2_latency;
        let cfg_l3 = self.cfg.l3_latency;
        let cfg_mem = self.cfg.mem_latency;
        // Range-check before the caches, which key lines by `u32`.
        self.dir.row(line);

        // L1 hit?
        if self.cores[tid].l1.touch(line) {
            return Ok(cfg_l1);
        }
        // Miss: find the source.
        let lat = if self.cores[tid].l2.touch(line) {
            cfg_l2
        } else if self.cached_elsewhere(tid, line) {
            cfg_l3 // cache-to-cache transfer, charged at L3 cost
        } else if self.l3.touch(line) {
            cfg_l3
        } else {
            cfg_mem
        };
        // Fill path: L1 (respecting speculative pinning), L2, L3.
        let core = &mut self.cores[tid];
        let spec_pred = |l: u64| core.tx.as_ref().is_some_and(|t| t.spec_contains(l));
        let l1_evicted = match core.l1.insert(line, spec_pred) {
            Ok(evicted) => evicted,
            Err(()) if speculative => return Err(()), // capacity overflow
            // Nontransactional access to a set full of speculative lines:
            // bypass the L1.
            Err(()) => None,
        };
        let l2_evicted = core.l2.insert(line, |_| false).ok().flatten();
        let _ = self.l3.insert(line, |_| false);
        // Directory upkeep: `tid` now shares `line`, and stops sharing an
        // evictee that has left both of its levels.
        self.dir.update(line, Role::Sharers, |s| s.insert(tid));
        for e in [l1_evicted, l2_evicted].into_iter().flatten() {
            let core = &self.cores[tid];
            if !core.l1.contains(e) && !core.l2.contains(e) {
                self.dir.update(e, Role::Sharers, |s| s.remove(tid));
            }
        }
        Ok(lat)
    }

    /// Does a core other than `tid` cache `line`?
    fn cached_elsewhere(&self, tid: usize, line: u64) -> bool {
        let mut others = self.dir.get(line, Role::Sharers);
        others.remove(tid);
        debug_assert_eq!(
            !others.is_empty(),
            (self.cores.iter().enumerate())
                .any(|(i, c)| i != tid && (c.l1.contains(line) || c.l2.contains(line))),
            "directory sharers of line {line:#x} disagree with the caches"
        );
        !others.is_empty()
    }

    /// Test aid: the first of `lines` whose directory row disagrees with the
    /// state it summarizes — `Sharers` must be exactly the cores whose L1 or
    /// L2 holds the line, `Writers` the cores whose live transaction wrote
    /// it, and `Readers ∪ Writers` those whose live transaction touched it.
    pub(crate) fn directory_violation(&self, lines: &[u64]) -> Option<String> {
        lines.iter().find_map(|&line| {
            let [mut cached, mut touched, mut wrote] = [CoreSet::default(); 3];
            for (i, c) in self.cores.iter().enumerate() {
                if c.l1.contains(line) || c.l2.contains(line) {
                    cached.insert(i);
                }
                let tx_line = |t: &TxState| t.lines.iter().find(|e| e.line == line).copied();
                if let Some(e) = c.tx.as_ref().and_then(tx_line) {
                    touched.insert(i);
                    if e.written {
                        wrote.insert(i);
                    }
                }
            }
            let got = |role| self.dir.get(line, role);
            let want = (cached, touched, wrote);
            let have = (
                got(Role::Sharers),
                got(Role::Readers).union(got(Role::Writers)),
                got(Role::Writers),
            );
            (have != want).then(|| {
                format!(
                    "line {line:#x}: directory (sharers, owners, writers) {have:?}, \
                     caches and transactions {want:?}"
                )
            })
        })
    }

    /// Drop `core`'s L1 and L2 copies of `line`.
    fn drop_copies(&mut self, core: usize, line: u64) {
        let c = &mut self.cores[core];
        assert!(
            c.park.is_none_or(|p| p.line != line),
            "core {core} lost line {line:#x} while parked on it"
        );
        c.l1.remove(line);
        c.l2.remove(line);
        self.dir.update(line, Role::Sharers, |s| s.remove(core));
    }

    /// Invalidate `line` in every core except `tid` (a write took exclusive
    /// ownership): its sharers, in ascending id.
    fn invalidate_others(&mut self, tid: usize, line: u64) {
        let mut others = self.dir.get(line, Role::Sharers);
        others.remove(tid);
        for i in others.iter() {
            self.drop_copies(i, line);
        }
    }

    // ----- transactional machinery ---------------------------------------

    /// If a remote requester doomed us, deliver the abort now.
    fn check_doomed(&mut self, tid: usize) -> Result<(), TxError> {
        match self.cores[tid].doomed.take() {
            Some(d) => Err(self.deliver_abort(tid, d)),
            None => Ok(()),
        }
    }

    /// Deliver the abort of `tid`'s ended attempt `d`: charge the
    /// abort-delivery cost (pipeline flush + handler dispatch; the rollback
    /// is already done), count the attempt's cycles as wasted and the abort
    /// under its cause, and record it.
    fn deliver_abort(&mut self, tid: usize, d: Doomed) -> TxError {
        let core = &mut self.cores[tid];
        core.clock += self.cfg.tx_abort_cost;
        core.stats.wasted_tx_cycles += core.clock.saturating_sub(d.start_clock);
        let s = &mut core.stats;
        *match d.info.cause {
            AbortCause::Conflict => &mut s.conflict_aborts,
            AbortCause::Capacity => &mut s.capacity_aborts,
            AbortCause::Explicit => &mut s.explicit_aborts,
            AbortCause::SubscriptionValidation => &mut s.subscription_aborts,
        } += 1;
        self.note(
            tid,
            ObsKind::TxAbort {
                cause: d.info.cause,
                conf_addr: d.info.conf_addr,
                victim_pc_tag: d.info.conf_pc_tag,
                aborter_pc_tag: d.aborter_pc_tag,
                aborter: d.aborter,
            },
        );
        TxError::Aborted(d.info)
    }

    /// Undo `tid`'s attempt `tx`: replay its eager writes' undo log newest
    /// first (a lazy attempt's write buffer is simply discarded), drop its
    /// cached copies of the lines it wrote — stale after rollback, so the
    /// retry pays refill latency, a real component of abort cost on eager
    /// HTM — and clear its `Readers`/`Writers` bits.
    fn roll_back(&mut self, tid: usize, tx: &TxState) {
        for &(addr, old) in tx.undo.iter().rev() {
            self.write_word(addr, old);
        }
        for e in tx.lines.iter().filter(|e| e.written) {
            self.drop_copies(tid, e.line);
        }
        self.release_ownership(tid, &tx.lines);
    }

    /// End `victim`'s attempt: roll it back, park its buffers, and leave it
    /// doomed with conflict info for `conf_addr` — the hardware analogue of
    /// the coherence message by which the requester kills the victim.
    /// `requester`/`req_pc` (0 when nontransactional) identify the winning
    /// access for conflict attribution (observability only).
    fn doom(&mut self, victim: usize, conf_addr: Addr, requester: usize, req_pc: u64) {
        let pc_mask = self.cfg.pc_tag_mask();
        let Some(tx) = self.cores[victim].tx.take() else {
            return;
        };
        self.roll_back(victim, &tx);
        let first = tx.first_pc_of(line_of(conf_addr));
        let core = &mut self.cores[victim];
        core.doomed = Some(Doomed {
            info: AbortInfo {
                cause: AbortCause::Conflict,
                conf_addr: crate::addr::line_addr(conf_addr),
                conf_pc_tag: (first & pc_mask) as u16,
                true_first_pc: first,
            },
            aborter: requester as u32,
            aborter_pc_tag: (req_pc & pc_mask) as u16,
            start_clock: tx.start_clock,
        });
        core.spare_tx = Some(tx);
    }

    fn release_ownership(&mut self, tid: usize, lines: &[TxLine]) {
        for e in lines {
            self.dir.update(e.line, Role::Readers, |s| s.remove(tid));
            self.dir.update(e.line, Role::Writers, |s| s.remove(tid));
        }
    }

    /// Abort every other core that holds `line` speculatively in a way that
    /// conflicts with an access of kind `is_write` by `tid`. `req_pc` is
    /// the requesting access's PC (0 when nontransactional), recorded for
    /// conflict attribution.
    fn resolve_conflicts(&mut self, tid: usize, addr: Addr, is_write: bool, req_pc: u64) {
        let line = line_of(addr);
        let mut mask = self.dir.get(line, Role::Writers);
        if is_write {
            mask = mask.union(self.dir.get(line, Role::Readers));
        }
        mask.remove(tid);
        // Ascending-id victim walk — the doom order is part of the
        // bit-identical contract.
        for v in mask.iter() {
            self.doom(v, addr, tid, req_pc);
        }
    }

    /// Record an observability event for `tid` at its current clock.
    /// Piggybacks on operations that happen anyway (never a gated op of
    /// its own), so recording cannot perturb simulated time.
    fn note(&mut self, tid: usize, kind: ObsKind) {
        self.note_at(tid, self.cores[tid].clock, kind);
    }

    /// Record an observability event for `tid` at an explicit clock —
    /// used by [`crate::machine::Core`] hooks whose logical time includes
    /// not-yet-folded pending cycles.
    pub fn note_at(&mut self, tid: usize, clock: u64, kind: ObsKind) {
        if self.cfg.record_events {
            self.cores[tid].events.push(ObsEvent { clock, kind });
        }
    }

    /// Bounded-set HTM check (Kafousis): would an access of `line` (write
    /// when `write`) push `tid`'s attempt past `max_read_lines` (distinct
    /// touched lines) or `max_write_lines` (distinct written lines)?
    /// Zero-cost when both knobs are 0, the default. An access to a line
    /// the attempt already holds with the access's own bit can never trip
    /// a bound: the line is already counted.
    fn set_bound_exceeded(&self, tid: usize, line: u64, write: bool) -> bool {
        let cfg = &self.cfg;
        if cfg.max_read_lines == 0 && cfg.max_write_lines == 0 {
            return false;
        }
        let tx = self.cores[tid].tx.as_ref().expect("bound check outside tx");
        let write_bound = |tx: &TxState| {
            write && cfg.max_write_lines != 0 && tx.written_lines() >= cfg.max_write_lines
        };
        match tx.find(line) {
            // Known line: only a read→write upgrade can add a written line.
            Ok(i) => !tx.lines[i].written && write_bound(tx),
            Err(_) => {
                (cfg.max_read_lines != 0 && tx.lines.len() >= cfg.max_read_lines) || write_bound(tx)
            }
        }
    }

    /// Register the fallback lock word that commits validate under
    /// [`FallbackPolicy::LazySubscriptionSafe`]. Host-side (no cycles);
    /// called by the runtime during setup.
    pub fn register_commit_lock(&mut self, addr: Addr) {
        self.commit_lock_addr = Some(addr);
    }

    /// Begin a hardware transaction on `tid`. The core's last attempt must
    /// have ended: committed, or aborted with the abort delivered.
    pub fn tx_begin(&mut self, tid: usize, ab_id: u32) -> u64 {
        self.note(tid, ObsKind::TxBegin { ab_id });
        let core = &mut self.cores[tid];
        assert!(
            core.tx.is_none() && core.doomed.is_none(),
            "nested hardware transaction on core {tid}"
        );
        let mut tx = core.spare_tx.take().unwrap_or_default();
        tx.reset(core.clock);
        core.tx = Some(tx);
        self.cfg.tx_begin_cost
    }

    /// Is an attempt active: live, or doomed with its abort not yet
    /// delivered?
    pub fn tx_active(&self, tid: usize) -> bool {
        let c = &self.cores[tid];
        c.tx.is_some() || c.doomed.is_some()
    }

    /// What a transactional load (`write == false`) and store share: deliver
    /// a pending doom, then the bound check, the eager conflict walk, the
    /// cache fill with its capacity abort, and the footprint entry and
    /// directory bit of a line not yet held. Returns the cache latency.
    ///
    /// Held means in `Readers ∪ Writers` for a load, in `Writers` for a
    /// store (an upgrade may share the line with remote readers the walk
    /// must doom). Under requester-wins any remote access that could have
    /// revoked the bit doomed this core, so a held line skips the walk.
    fn tx_access(&mut self, tid: usize, addr: Addr, pc: u64, write: bool) -> Result<u64, TxError> {
        self.check_doomed(tid)?;
        let tx = self.cores[tid].tx.as_ref().expect("no transaction");
        let line = line_of(addr);
        let held = (!write && self.dir.get(line, Role::Readers).contains(tid))
            || self.dir.get(line, Role::Writers).contains(tid);
        debug_assert_eq!(
            held,
            tx.find(line).is_ok_and(|i| !write || tx.lines[i].written),
            "directory bits of line {line:#x} disagree with core {tid}'s footprint"
        );
        if self.set_bound_exceeded(tid, line, write) {
            return Err(self.self_abort(tid, AbortCause::Capacity));
        }
        if !held && self.cfg.protocol == HtmProtocol::Eager {
            // Requester wins: a read aborts remote speculative writers, a
            // write every remote speculative owner.
            self.resolve_conflicts(tid, addr, write, pc);
        }
        let Ok(lat) = self.touch_caches(tid, line, true) else {
            return Err(self.self_abort(tid, AbortCause::Capacity));
        };
        let core = &mut self.cores[tid];
        core.stats.tx_mem_ops += 1;
        if !held {
            core.tx.as_mut().unwrap().touch_line(line, pc, write);
            let role = if write { Role::Writers } else { Role::Readers };
            self.dir.update(line, role, |s| s.insert(tid));
        }
        Ok(lat)
    }

    /// Transactional load. Under the lazy protocol the attempt's own
    /// buffered write shadows memory.
    pub fn tx_load(&mut self, tid: usize, addr: Addr, pc: u64) -> (Result<u64, TxError>, u64) {
        match self.tx_access(tid, addr, pc, false) {
            Ok(lat) => {
                let buffered = self.cores[tid].tx.as_ref().unwrap().buffered(addr);
                (Ok(buffered.unwrap_or_else(|| self.dir.load(addr))), lat)
            }
            Err(e) => (Err(e), 0),
        }
    }

    /// Transactional store: eager versioning writes in place, undo-logged,
    /// and takes the line exclusively; lazy versioning buffers the value
    /// privately until commit.
    pub fn tx_store(
        &mut self,
        tid: usize,
        addr: Addr,
        val: u64,
        pc: u64,
    ) -> (Result<(), TxError>, u64) {
        let lat = match self.tx_access(tid, addr, pc, true) {
            Ok(lat) => lat,
            Err(e) => return (Err(e), 0),
        };
        let old = self.dir.load(addr);
        let tx = self.cores[tid].tx.as_mut().unwrap();
        if self.cfg.protocol == HtmProtocol::Eager {
            tx.undo.push((addr, old));
            self.write_word(addr, val);
            self.invalidate_others(tid, line_of(addr));
        } else {
            tx.buffer_store(addr, val);
        }
        (Ok(()), lat)
    }

    /// Self-initiated abort (capacity, commit validation, or explicit from
    /// the runtime): end the attempt and deliver its abort at once. A doom
    /// that landed after the caller's last transactional operation — a
    /// global-lock release or a stripe claim between the runtime's check
    /// and its `tx_abort` — has already ended the attempt; this abort
    /// supersedes it and counts under `cause` alone.
    pub fn self_abort(&mut self, tid: usize, cause: AbortCause) -> TxError {
        let core = &mut self.cores[tid];
        let superseded = core.doomed.take();
        let start_clock = match core.tx.take() {
            Some(tx) => {
                self.roll_back(tid, &tx);
                let start = tx.start_clock;
                self.cores[tid].spare_tx = Some(tx);
                start
            }
            None => superseded.expect("no transaction").start_clock,
        };
        let d = Doomed {
            info: AbortInfo::simple(cause),
            aborter: tid as u32,
            aborter_pc_tag: 0,
            start_clock,
        };
        self.deliver_abort(tid, d)
    }

    /// Commit the active transaction. Under the lazy protocol this is
    /// where conflicts are resolved: the committer wins, dooming every
    /// other transaction that read or wrote one of its written lines, then
    /// publishes its write buffer.
    pub fn tx_commit(&mut self, tid: usize) -> (Result<(), TxError>, u64) {
        if let Err(e) = self.check_doomed(tid) {
            return (Err(e), 0);
        }
        // Dice-et-al-style hardware fix for lazy subscription: commit
        // itself validates the registered fallback lock word, so a
        // transaction that raced an irrevocable section can never become
        // visible even though it skipped begin-time subscription. The probe
        // rides inside the commit microcode (no extra memory-op latency)
        // and never joins the read set.
        if self.cfg.fallback == FallbackPolicy::LazySubscriptionSafe {
            if let Some(lock) = self.commit_lock_addr {
                if self.dir.load(lock) != 0 {
                    return (
                        Err(self.self_abort(tid, AbortCause::SubscriptionValidation)),
                        0,
                    );
                }
            }
        }
        // Out of the core, its footprint can drive dooms and write-back
        // without aliasing the simulator state.
        let tx = self.cores[tid].tx.take().expect("no transaction");
        let mut commit_cost = self.cfg.tx_commit_cost;
        if self.cfg.protocol == HtmProtocol::Lazy {
            for e in tx.lines.iter().filter(|e| e.written) {
                // Committer wins: doom every other reader/writer of the
                // line, attributed to the committer's first access to it.
                self.resolve_conflicts(tid, e.line * crate::addr::LINE_BYTES, true, e.first_pc);
            }
            commit_cost += tx.write_buffer.len() as u64; // write-back bandwidth
            for &(addr, val) in &tx.write_buffer {
                self.write_word(addr, val);
            }
            for e in tx.lines.iter().filter(|e| e.written) {
                self.invalidate_others(tid, e.line);
            }
        }
        let core = &mut self.cores[tid];
        core.stats.commits += 1;
        core.stats.useful_tx_cycles += core.clock.saturating_sub(tx.start_clock) + commit_cost;
        self.release_ownership(tid, &tx.lines);
        self.cores[tid].spare_tx = Some(tx);
        self.note(tid, ObsKind::TxCommit);
        (Ok(()), commit_cost)
    }

    // ----- nontransactional operations -----------------------------------

    /// Plain (non-speculative) load by a thread running outside any
    /// transaction — e.g. irrevocable mode. As a real coherence read it must
    /// not observe another core's uncommitted eager write, so it dooms
    /// speculative *writers* of the line (requester wins); unlike `nt_load`,
    /// which is reserved for runtime metadata that is never accessed
    /// transactionally.
    pub fn plain_load(&mut self, tid: usize, addr: Addr) -> (u64, u64) {
        if self.cfg.protocol == HtmProtocol::Eager {
            self.resolve_conflicts(tid, addr, false, 0);
        }
        // Lazy: uncommitted data never reaches memory, so a plain read is
        // always consistent without dooming anyone.
        self.nt_load(tid, addr)
    }

    /// Nontransactional load: sees current memory, never kills anyone,
    /// never joins the read set. Legal inside or outside a transaction.
    pub fn nt_load(&mut self, tid: usize, addr: Addr) -> (u64, u64) {
        let line = line_of(addr);
        let lat = self
            .touch_caches(tid, line, false)
            .expect("nontransactional fills cannot overflow");
        self.cores[tid].stats.nt_mem_ops += 1;
        (self.dir.load(addr), lat)
    }

    /// Nontransactional (or plain non-speculative) store: immediately
    /// visible; as a real coherence write it aborts *other* cores holding
    /// the line speculatively. Must not target the executing core's own
    /// speculative lines (the runtime never does — advisory locks live in
    /// dedicated lines).
    pub fn nt_store(&mut self, tid: usize, addr: Addr, val: u64) -> u64 {
        let line = line_of(addr);
        debug_assert!(
            self.cores[tid]
                .tx
                .as_ref()
                .is_none_or(|t| !t.spec_contains(line)),
            "NT store to own speculative line {line:#x}"
        );
        self.resolve_conflicts(tid, addr, true, 0);
        let lat = self
            .touch_caches(tid, line, false)
            .expect("nontransactional fills cannot overflow");
        self.cores[tid].stats.nt_mem_ops += 1;
        self.write_word(addr, val);
        self.invalidate_others(tid, line);
        lat
    }

    /// Nontransactional compare-and-swap; returns success. One memory
    /// operation either way: [`Self::nt_store`]'s on success, else
    /// [`Self::nt_load`]'s.
    pub fn nt_cas(&mut self, tid: usize, addr: Addr, old: u64, new: u64) -> (bool, u64) {
        if self.dir.load(addr) == old {
            (true, self.nt_store(tid, addr, new))
        } else {
            (false, self.nt_load(tid, addr).1)
        }
    }

    // ----- allocation -----------------------------------------------------

    /// Bump-allocate from `tid`'s arena, refilling from the global heap.
    pub fn alloc(&mut self, tid: usize, words: u64, line_align: bool) -> (Addr, u64) {
        let bytes = words * WORD_BYTES;
        let chunk = (self.cfg.arena_chunk_words as u64) * WORD_BYTES;
        assert!(
            bytes <= chunk,
            "allocation of {words} words exceeds arena chunk"
        );
        let core = &mut self.cores[tid];
        let mut start = core.arena_next;
        if line_align {
            start = (start + LINE_BYTES - 1) & !(LINE_BYTES - 1);
        }
        if start + bytes > core.arena_end {
            // Refill: carve a fresh chunk from the global heap (line
            // aligned so arenas of different threads never share lines).
            start = self.carve(chunk, true);
            self.cores[tid].arena_end = start + chunk;
        }
        let core = &mut self.cores[tid];
        core.arena_next = start + bytes;
        let cost = 10 + self.cfg.alloc_cost_per_word * words;
        (start, cost)
    }

    /// Host-side allocation (setup code, zero simulated cycles).
    pub fn host_alloc(&mut self, words: u64, line_align: bool) -> Addr {
        self.carve(words * WORD_BYTES, line_align)
    }

    /// Take `bytes` from the global heap, starting on a line boundary when
    /// `line_align`.
    fn carve(&mut self, bytes: u64, line_align: bool) -> Addr {
        let mut base = self.heap_next;
        if line_align {
            base = (base + LINE_BYTES - 1) & !(LINE_BYTES - 1);
        }
        assert!(
            (base + bytes) / WORD_BYTES <= self.dir.mem_words as u64,
            "simulated heap exhausted"
        );
        self.heap_next = base + bytes;
        base
    }

    /// Host-side read (no cycles, no coherence effects).
    pub fn host_load(&self, addr: Addr) -> u64 {
        self.dir.load(addr)
    }

    /// Host-side write (no cycles, no coherence effects). Only sound while
    /// no simulated threads run.
    pub fn host_store(&mut self, addr: Addr, val: u64) {
        self.write_word(addr, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when no line has a speculative reader or writer.
    fn owners_empty(s: &SimState) -> bool {
        let idle =
            |l| s.dir.get(l, Role::Readers).is_empty() && s.dir.get(l, Role::Writers).is_empty();
        (0..s.cfg.mem_words.div_ceil(8) as u64).all(idle)
    }

    fn state(n: usize) -> SimState {
        SimState::new(MachineConfig::cores(n).small())
    }

    /// `schedule()` after the test poked clocks and `finished` flags
    /// directly: retire and re-key the way the machine would have.
    fn reschedule(s: &mut SimState) -> Option<usize> {
        for i in 0..s.cores.len() {
            if s.cores[i].finished {
                s.retire(i);
            }
            s.sync_key(i);
        }
        s.schedule()
    }

    #[test]
    fn schedule_picks_min_and_caches_runner_up() {
        let mut s = state(3);
        s.cores[0].clock = 50;
        s.cores[1].clock = 10;
        s.cores[2].clock = 30;
        assert_eq!(reschedule(&mut s), Some(1));
        assert_eq!(s.horizon, (30, 2), "runner-up becomes the horizon");
    }

    #[test]
    fn schedule_skips_retired_cores() {
        // Core retirement: a finished core must neither run nor act as the
        // horizon, even when its clock is the global minimum.
        let mut s = state(3);
        s.cores[0].clock = 5;
        s.cores[0].finished = true;
        s.cores[1].clock = 40;
        s.cores[2].clock = 20;
        assert_eq!(reschedule(&mut s), Some(2));
        assert_eq!(s.horizon, (40, 1));
        assert_eq!(s.next_eligible(), Some(2));
    }

    #[test]
    fn schedule_breaks_clock_ties_by_id_even_at_max() {
        // Saturated clocks: ties at u64::MAX must still order by core id,
        // and the horizon pair must remain strictly comparable.
        let mut s = state(3);
        for c in s.cores.iter_mut() {
            c.clock = u64::MAX;
        }
        assert_eq!(reschedule(&mut s), Some(0));
        assert_eq!(s.horizon, (u64::MAX, 1));
        // The chosen core stays eligible: its key equals neither horizon
        // component's successor — (MAX, 0) <= (MAX, 1).
        assert!((s.cores[0].clock, 0) <= s.horizon);
    }

    #[test]
    fn schedule_single_live_core_gets_open_horizon() {
        // Single-live-core fast path: with no runner-up the horizon must be
        // the +infinity sentinel so the survivor's gates never suspend.
        let mut s = state(2);
        s.cores[1].finished = true;
        s.cores[0].clock = 123;
        assert_eq!(reschedule(&mut s), Some(0));
        assert_eq!(s.horizon, (u64::MAX, usize::MAX));
        // Even a clock at the sentinel value stays eligible by id ordering.
        s.cores[0].clock = u64::MAX;
        assert_eq!(reschedule(&mut s), Some(0));
        assert!((s.cores[0].clock, 0) <= s.horizon);
    }

    #[test]
    fn schedule_all_finished_is_none() {
        let mut s = state(2);
        s.cores[0].finished = true;
        s.cores[1].finished = true;
        assert_eq!(reschedule(&mut s), None);
        assert_eq!(s.next_eligible(), None);
        assert_eq!(s.horizon, (u64::MAX, usize::MAX));
    }

    #[test]
    fn keys_the_tree_clamps_still_order_exactly() {
        // The tree stores every key from 2^56 - 2 up as one entry per id;
        // `schedule()` must order them as the linear scan does all the same.
        const C: u64 = (1 << 56) - 2;
        let mut s = state(5);
        for (c, clock) in s.cores.iter_mut().zip([C + 7, C + 3, 100, u64::MAX, C]) {
            c.clock = clock;
        }
        assert_eq!(reschedule(&mut s), Some(2));
        assert_eq!(s.horizon, (C, 4), "a key past 2^56 next to a real clock");
        s.cores[2].finished = true;
        assert_eq!(reschedule(&mut s), Some(4), "not the lowest id");
        assert_eq!(s.horizon, (C + 3, 1));
        s.cores[4].clock = C - 1;
        assert_eq!(reschedule(&mut s), Some(4));
        assert_eq!(
            s.horizon,
            (C + 3, 1),
            "an exact winner, a clamped runner-up"
        );
        // Parked forever: a live core beats a retired one at equal key, and
        // a lower id a higher one.
        for c in s.cores.iter_mut() {
            c.clock = u64::MAX;
        }
        s.cores[0].finished = true;
        assert_eq!(reschedule(&mut s), Some(1));
        assert_eq!(s.horizon, (u64::MAX, 3));
        assert_eq!(s.next_eligible(), Some(1));
    }

    #[test]
    fn indexed_schedule_matches_linear_reference() {
        // Property test: under random key moves in both directions (clock
        // advances, jumps to u64::MAX, and the decreases an unpark causes)
        // and random retirements, each followed only by the `sync_key` /
        // `retire` the machine itself issues, the tree-backed `schedule()`
        // must pick the same core as `next_eligible()` and the same horizon
        // as a linear scan at every step.
        use stagger_prng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xC0DE_2015);
        for trial in 0..40u64 {
            let n = 1 + rng.below(80) as usize;
            let mut s = state(n);
            for step in 0..200u64 {
                let got = s.schedule();
                assert_eq!(
                    got,
                    s.next_eligible(),
                    "trial {trial} step {step}: scheduled core diverged"
                );
                let runner_up = (0..n)
                    .filter(|&i| !s.cores[i].finished && Some(i) != got)
                    .map(|i| (s.cores[i].clock, i))
                    .min();
                assert_eq!(
                    s.horizon,
                    runner_up.unwrap_or((u64::MAX, usize::MAX)),
                    "trial {trial} step {step}: horizon diverged"
                );
                if got.is_none() {
                    break;
                }
                for _ in 0..1 + rng.below(3) {
                    let i = rng.below(n as u64) as usize;
                    if s.cores[i].finished {
                        continue;
                    }
                    let c = &mut s.cores[i];
                    match rng.below(12) {
                        0 => {
                            s.retire(i);
                            continue;
                        }
                        1 => c.clock = u64::MAX,
                        2..=4 => c.clock = c.clock.saturating_sub(rng.below(100)),
                        _ => c.clock = c.clock.saturating_add(rng.below(100)),
                    }
                    s.sync_key(i);
                }
            }
        }
    }

    #[test]
    fn cores_past_32_conflict_correctly() {
        // The old u32 masks made `1 << tid` overflow beyond core 31; a
        // 33-core machine must now conflict-detect across that boundary in
        // both directions.
        let mut s = state(33);
        let a = s.host_alloc(8, true);
        s.tx_begin(32, 1);
        s.tx_store(32, a, 1, 0x400).0.unwrap();
        s.tx_begin(1, 1);
        s.tx_store(1, a, 2, 0x500).0.unwrap();
        assert!(s.tx_commit(32).0.is_err(), "core 32 must be doomable");
        s.tx_commit(1).0.unwrap();
        // And the reverse: a high-id requester dooms a low-id owner.
        s.tx_begin(0, 1);
        s.tx_store(0, a, 3, 0x600).0.unwrap();
        s.tx_begin(32, 2);
        s.tx_store(32, a, 4, 0x700).0.unwrap();
        assert!(s.tx_commit(0).0.is_err());
        s.tx_commit(32).0.unwrap();
        assert_eq!(s.host_load(a), 4);
        assert!(owners_empty(&s));
    }

    #[test]
    fn partial_last_line_is_conflict_checked() {
        // `mem_words` need not be a multiple of 8 (set_kv accepts any
        // number): the trailing partial line must still have a directory
        // row, or conflicts on it go undetected.
        let mut cfg = MachineConfig::cores(2).small();
        cfg.set_kv("mem_words", "4099").unwrap();
        let mut s = SimState::new(cfg);
        let a = 4096 * WORD_BYTES; // first of the last line's three words
        s.tx_begin(0, 1);
        s.tx_store(0, a, 1, 0x400).0.unwrap();
        s.tx_begin(1, 1);
        s.tx_store(1, a + 2 * WORD_BYTES, 2, 0x500).0.unwrap();
        let e = s.tx_commit(0).0.unwrap_err();
        assert_eq!(e.info().cause, AbortCause::Conflict);
        s.tx_commit(1).0.unwrap();
        assert_eq!((s.host_load(a), s.host_load(a + 2 * WORD_BYTES)), (0, 2));
        assert!(owners_empty(&s));
    }

    #[test]
    fn doom_walk_is_ascending_across_words_at_256_cores() {
        // Readers spread across all four CoreSet words; a writer's
        // requester-wins walk must doom every one of them, in ascending id
        // order (checked indirectly: all are aborted, the writer commits).
        let mut s = state(256);
        let a = s.host_alloc(8, true);
        s.host_store(a, 7);
        let readers = [5usize, 70, 140, 255];
        for &t in &readers {
            s.tx_begin(t, 1);
            assert_eq!(s.tx_load(t, a, 0x100).0.unwrap(), 7);
        }
        s.tx_begin(9, 2);
        s.tx_store(9, a, 8, 0x200).0.unwrap();
        for &t in &readers {
            assert!(s.tx_commit(t).0.is_err(), "reader {t} must be doomed");
        }
        s.tx_commit(9).0.unwrap();
        assert_eq!(s.host_load(a), 8);
        assert!(owners_empty(&s));
    }

    // Struct literals bypass `set_kv`; SimState::new runs the same
    // `MachineConfig::check` and panics with its message.

    #[test]
    #[should_panic(expected = "machine.n_cores: 257 cores: not 1..=256")]
    fn more_than_max_cores_is_rejected() {
        let _ = SimState::new(MachineConfig {
            n_cores: crate::coreset::MAX_CORES + 1,
            ..MachineConfig::cores(1).small()
        });
    }

    #[test]
    #[should_panic(expected = "machine.arena_chunk_words: 0 words: a chunk needs one or more")]
    fn zero_arena_chunk_is_rejected() {
        let _ = SimState::new(MachineConfig {
            arena_chunk_words: 0,
            ..MachineConfig::cores(1).small()
        });
    }

    #[test]
    #[should_panic(expected = "machine.mem_words: 0 words: not 1..2^32-1 lines")]
    fn zero_mem_words_is_rejected() {
        let _ = SimState::new(MachineConfig {
            mem_words: 0,
            ..MachineConfig::cores(1)
        });
    }

    #[test]
    #[should_panic(expected = "machine.mem_words: 34359738353 words: not 1..2^32-1 lines")]
    fn mem_words_of_u32_max_lines_is_rejected() {
        // Asserted before anything is allocated.
        let _ = SimState::new(MachineConfig {
            mem_words: 8 * (u32::MAX as usize - 1) + 1,
            ..MachineConfig::cores(1)
        });
    }

    #[test]
    #[should_panic(expected = "machine.l2_ways: 0 ways: a level needs one or more")]
    fn zero_way_level_is_rejected() {
        let _ = SimState::new(MachineConfig {
            l2_ways: 0,
            ..MachineConfig::cores(1).small()
        });
    }

    #[test]
    #[should_panic(expected = "simulated address 0x3fffffffc0 out of range")]
    fn line_at_the_empty_cache_key_is_out_of_range() {
        // Line u32::MAX would truncate to the caches' empty-way marker; the
        // range check must come first.
        let mut s = state(1);
        s.nt_load(0, u32::MAX as u64 * LINE_BYTES);
    }

    #[test]
    fn plain_read_write() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.nt_store(0, a, 42);
        let (v, _) = s.nt_load(1, a);
        assert_eq!(v, 42);
    }

    #[test]
    fn tx_commit_makes_writes_durable() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 7, 0x400).0.unwrap();
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 7);
        assert_eq!(s.cores[0].stats.commits, 1);
        assert!(owners_empty(&s), "ownership released on commit");
    }

    #[test]
    fn requester_wins_write_write() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 1);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 10, 0x400).0.unwrap();
        // Core 1 writes the same line: core 0 is the victim.
        s.tx_begin(1, 1);
        s.tx_store(1, a, 20, 0x500).0.unwrap();
        // Core 0's eager write must have been rolled back before core 1
        // read/wrote: memory holds 20 (core 1's speculative value).
        assert_eq!(s.host_load(a), 20);
        // Core 0 observes doom at its next operation.
        let (r, _) = s.tx_commit(0);
        let info = r.unwrap_err().info();
        assert_eq!(info.cause, AbortCause::Conflict);
        assert_eq!(info.conf_addr, crate::addr::line_addr(a));
        assert_eq!(info.true_first_pc, 0x400);
        assert_eq!(info.conf_pc_tag, 0x400);
        assert_eq!(s.cores[0].stats.conflict_aborts, 1);
        // Core 1 commits fine.
        s.tx_commit(1).0.unwrap();
        assert_eq!(s.host_load(a), 20);
    }

    #[test]
    fn requester_wins_read_write() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 5);
        s.tx_begin(0, 1);
        assert_eq!(s.tx_load(0, a, 0x100).0.unwrap(), 5);
        // A writer kills a reader.
        s.tx_begin(1, 1);
        s.tx_store(1, a, 6, 0x200).0.unwrap();
        assert!(s.tx_commit(0).0.is_err());
        s.tx_commit(1).0.unwrap();
        assert_eq!(s.host_load(a), 6);
    }

    #[test]
    fn readers_do_not_conflict() {
        let mut s = state(3);
        let a = s.host_alloc(8, true);
        s.host_store(a, 9);
        for t in 0..3 {
            s.tx_begin(t, 1);
            assert_eq!(s.tx_load(t, a, 0).0.unwrap(), 9);
        }
        for t in 0..3 {
            s.tx_commit(t).0.unwrap();
        }
    }

    #[test]
    fn bounded_read_set_aborts_with_capacity_cause() {
        let mut cfg = MachineConfig::cores(1).small();
        cfg.max_read_lines = 2;
        let mut s = SimState::new(cfg);
        let base = s.host_alloc(8 * 64, true);
        s.tx_begin(0, 1);
        s.tx_load(0, base, 0x100).0.unwrap();
        s.tx_load(0, base + LINE_BYTES, 0x104).0.unwrap();
        // Re-touching a counted line is free...
        s.tx_load(0, base, 0x108).0.unwrap();
        // ...but a third distinct line crosses the bound.
        let err = s.tx_load(0, base + 2 * LINE_BYTES, 0x10C).0.unwrap_err();
        assert_eq!(err.info().cause, AbortCause::Capacity);
        assert_eq!(s.cores[0].stats.capacity_aborts, 1);
        assert!(owners_empty(&s));
    }

    #[test]
    fn bounded_write_set_counts_only_written_lines() {
        let mut cfg = MachineConfig::cores(1).small();
        cfg.max_write_lines = 1;
        let mut s = SimState::new(cfg);
        let base = s.host_alloc(8 * 64, true);
        s.tx_begin(0, 1);
        // Reads are unbounded here; one written line is fine.
        s.tx_load(0, base, 0x100).0.unwrap();
        s.tx_store(0, base + LINE_BYTES, 1, 0x104).0.unwrap();
        s.tx_store(0, base + LINE_BYTES + 8, 2, 0x108).0.unwrap();
        // Upgrading the read line to written would be a second written line.
        let err = s.tx_store(0, base, 3, 0x10C).0.unwrap_err();
        assert_eq!(err.info().cause, AbortCause::Capacity);
        assert_eq!(s.cores[0].stats.capacity_aborts, 1);
    }

    #[test]
    fn safe_lazy_subscription_validates_lock_at_commit() {
        let mut cfg = MachineConfig::cores(1).small();
        cfg.fallback = FallbackPolicy::LazySubscriptionSafe;
        let mut s = SimState::new(cfg);
        let lock = s.host_alloc(8, true);
        let a = s.host_alloc(8, true);
        s.register_commit_lock(lock);
        // Lock held at commit: the hardware validation aborts us.
        s.host_store(lock, 1);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 7, 0x100).0.unwrap();
        let err = s.tx_commit(0).0.unwrap_err();
        assert_eq!(err.info().cause, AbortCause::SubscriptionValidation);
        assert_eq!(s.cores[0].stats.subscription_aborts, 1);
        assert_eq!(s.host_load(a), 0, "aborted write rolled back");
        // Lock free: commit proceeds.
        s.host_store(lock, 0);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 7, 0x100).0.unwrap();
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 7);
        assert!(owners_empty(&s));
    }

    #[test]
    fn reader_kills_writer() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 1);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 2, 0).0.unwrap();
        s.tx_begin(1, 1);
        // Requester-wins: the *reader* requester aborts the writer and
        // reads the pre-transactional value.
        assert_eq!(s.tx_load(1, a, 0).0.unwrap(), 1);
        assert!(s.tx_commit(0).0.is_err());
        s.tx_commit(1).0.unwrap();
    }

    #[test]
    fn abort_rolls_back_multiple_writes_in_order() {
        let mut s = state(2);
        let a = s.host_alloc(16, true);
        s.host_store(a, 1);
        s.host_store(a + 8, 2);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 100, 0).0.unwrap();
        s.tx_store(0, a + 8, 200, 0).0.unwrap();
        s.tx_store(0, a, 300, 0).0.unwrap(); // second write to same addr
        s.tx_begin(1, 1);
        s.tx_store(1, a, 999, 0).0.unwrap();
        // Victim rolled back completely: a+8 restored to 2.
        assert_eq!(s.host_load(a + 8), 2);
        assert!(s.tx_commit(0).0.is_err());
        s.tx_commit(1).0.unwrap();
        assert_eq!(s.host_load(a), 999);
    }

    #[test]
    fn nt_store_aborts_speculative_owner() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_load(0, a, 0).0.unwrap();
        s.nt_store(1, a, 77);
        assert!(s.tx_commit(0).0.is_err());
        assert_eq!(s.host_load(a), 77);
    }

    #[test]
    fn plain_load_never_sees_uncommitted_data() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 1);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 999, 0).0.unwrap(); // eager, in place
                                             // Irrevocable/plain reader must get the pre-transactional value and
                                             // doom the speculative writer.
        let (v, _) = s.plain_load(1, a);
        assert_eq!(v, 1);
        assert!(s.tx_commit(0).0.is_err());
    }

    #[test]
    fn nt_load_does_not_abort_anyone() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 3, 0).0.unwrap();
        let _ = s.nt_load(1, a);
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 3);
    }

    #[test]
    fn nt_cas_success_and_failure() {
        let mut s = state(1);
        let a = s.host_alloc(8, true);
        assert!(s.nt_cas(0, a, 0, 5).0);
        assert!(!s.nt_cas(0, a, 0, 9).0);
        assert_eq!(s.host_load(a), 5);
        assert!(s.nt_cas(0, a, 5, 9).0);
        assert_eq!(s.host_load(a), 9);
    }

    #[test]
    fn capacity_abort_on_set_overflow() {
        let mut s = state(1);
        // 9 distinct lines mapping to the same L1 set (set stride =
        // l1_sets lines).
        let stride = (s.cfg.l1_sets as u64) * LINE_BYTES;
        let base = s.host_alloc((s.cfg.l1_sets as u64) * 8 * 10, true);
        s.tx_begin(0, 1);
        let mut aborted = false;
        for i in 0..9u64 {
            let addr = base + i * stride;
            match s.tx_load(0, addr, 0).0 {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.info().cause, AbortCause::Capacity);
                    aborted = true;
                    break;
                }
            }
        }
        assert!(aborted, "9 same-set speculative lines must overflow 8 ways");
        assert_eq!(s.cores[0].stats.capacity_aborts, 1);
        assert!(!s.tx_active(0));
    }

    #[test]
    fn explicit_self_abort_rolls_back() {
        let mut s = state(1);
        let a = s.host_alloc(8, true);
        s.host_store(a, 4);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 40, 0).0.unwrap();
        let e = s.self_abort(0, AbortCause::Explicit);
        assert_eq!(e.info().cause, AbortCause::Explicit);
        assert_eq!(s.host_load(a), 4);
        assert_eq!(s.cores[0].stats.explicit_aborts, 1);
    }

    #[test]
    fn a_doom_that_lands_before_a_self_abort_is_superseded_by_it() {
        // The global-lock holder's release dooms a subscriber that read the
        // lock as held, after the subscriber saw it held and before its own
        // abort: the attempt ends once, counted under the self-abort's cause.
        let mut cfg = MachineConfig::cores(2).small();
        cfg.record_events = true;
        let mut s = SimState::new(cfg);
        let lock = s.host_alloc(8, true);
        let a = s.host_alloc(8, true);
        s.host_store(lock, 1);
        s.tx_begin(0, 1);
        assert_eq!(s.tx_load(0, lock, 0x100).0.unwrap(), 1);
        s.nt_store(1, lock, 0);
        let e = s.self_abort(0, AbortCause::Explicit);
        assert_eq!(e.info(), AbortInfo::simple(AbortCause::Explicit));
        let st = &s.cores[0].stats;
        assert_eq!((st.explicit_aborts, st.conflict_aborts), (1, 0));
        assert_eq!(st.wasted_tx_cycles, s.cfg.tx_abort_cost, "charged once");
        assert!(!s.tx_active(0));
        s.tx_begin(0, 2);
        s.tx_store(0, a, 5, 0x104).0.unwrap();
        s.tx_commit(0).0.unwrap();
        assert_eq!((s.cores[0].stats.commits, s.host_load(a)), (1, 5));
        assert!(owners_empty(&s));
        let kinds: Vec<_> = s.cores[0]
            .events
            .take()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert!(matches!(
            kinds[..],
            [
                ObsKind::TxBegin { ab_id: 1 },
                ObsKind::TxAbort {
                    cause: AbortCause::Explicit,
                    aborter: 0,
                    ..
                },
                ObsKind::TxBegin { ab_id: 2 },
                ObsKind::TxCommit,
            ]
        ));
    }

    #[test]
    fn latency_hierarchy_orders() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        // Cold: memory latency.
        let (_, cold) = s.nt_load(0, a);
        assert_eq!(cold, s.cfg.mem_latency);
        // Hot: L1.
        let (_, hot) = s.nt_load(0, a);
        assert_eq!(hot, s.cfg.l1_latency);
        // Other core: cache-to-cache at L3 cost.
        let (_, remote) = s.nt_load(1, a);
        assert_eq!(remote, s.cfg.l3_latency);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.nt_load(0, a);
        s.nt_load(1, a);
        // Core 1 writes; core 0's copy must be gone (next access is a
        // transfer, not an L1 hit).
        s.nt_store(1, a, 1);
        let (_, lat) = s.nt_load(0, a);
        assert!(lat > s.cfg.l1_latency);
    }

    #[test]
    fn alloc_distinct_and_aligned() {
        let mut s = state(2);
        let (a, _) = s.alloc(0, 4, true);
        let (b, _) = s.alloc(0, 4, true);
        let (c, _) = s.alloc(1, 4, true);
        assert_eq!(a % LINE_BYTES, 0);
        assert_eq!(b % LINE_BYTES, 0);
        assert_ne!(line_of(a), line_of(b));
        // Different threads allocate from different arenas.
        assert_ne!(line_of(a), line_of(c));
    }

    #[test]
    fn alloc_unaligned_packs_words() {
        let mut s = state(1);
        let (a, _) = s.alloc(0, 2, false);
        let (b, _) = s.alloc(0, 2, false);
        assert_eq!(b, a + 16);
    }

    #[test]
    fn conflicting_pc_is_first_access_not_current() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_load(0, a, 0x111).0.unwrap(); // first access at PC 0x111
        s.tx_store(0, a, 9, 0x222).0.unwrap(); // later store, same line
        s.tx_begin(1, 1);
        s.tx_store(1, a, 1, 0).0.unwrap();
        let (r, _) = s.tx_commit(0);
        let info = r.unwrap_err().info();
        assert_eq!(info.true_first_pc, 0x111, "PC tag set at first access only");
        s.tx_commit(1).0.unwrap();
    }

    #[test]
    fn pc_tag_truncated_to_12_bits() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_load(0, a, 0x40_1234).0.unwrap();
        s.tx_begin(1, 1);
        s.tx_store(1, a, 1, 0).0.unwrap();
        let (r, _) = s.tx_commit(0);
        let info = r.unwrap_err().info();
        assert_eq!(info.conf_pc_tag, 0x234);
        assert_eq!(info.true_first_pc, 0x40_1234);
        s.tx_commit(1).0.unwrap();
    }

    // ----- lazy protocol ---------------------------------------------------

    fn lazy_state(n: usize) -> SimState {
        SimState::new(MachineConfig::cores(n).small().lazy())
    }

    #[test]
    fn lazy_writes_stay_private_until_commit() {
        let mut s = lazy_state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 5);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 99, 0x40).0.unwrap();
        // Memory still has the old value; another core's plain read sees it
        // and dooms no one.
        assert_eq!(s.plain_load(1, a).0, 5);
        // Our own transactional read sees the buffered value.
        assert_eq!(s.tx_load(0, a, 0x44).0.unwrap(), 99);
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 99);
    }

    #[test]
    fn lazy_committer_wins_over_reader() {
        let mut s = lazy_state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 7, 0x100).0.unwrap();
        s.tx_begin(1, 1);
        // Reader proceeds freely (no eager conflict)...
        assert_eq!(s.tx_load(1, a, 0x200).0.unwrap(), 0);
        // ...until the writer commits: committer wins.
        s.tx_commit(0).0.unwrap();
        let e = s.tx_commit(1).0.unwrap_err();
        assert_eq!(e.info().cause, AbortCause::Conflict);
        assert_eq!(e.info().true_first_pc, 0x200);
        assert_eq!(s.host_load(a), 7);
    }

    #[test]
    fn lazy_concurrent_writers_coexist_until_commit() {
        let mut s = lazy_state(3);
        let a = s.host_alloc(8, true);
        for t in 0..3 {
            s.tx_begin(t, 1);
            s.tx_store(t, a, 10 + t as u64, 0).0.unwrap();
        }
        // First committer wins; the others are doomed at their commits.
        s.tx_commit(0).0.unwrap();
        assert!(s.tx_commit(1).0.is_err());
        assert!(s.tx_commit(2).0.is_err());
        assert_eq!(s.host_load(a), 10);
    }

    #[test]
    fn lazy_abort_discards_buffer_without_rollback() {
        let mut s = lazy_state(1);
        let a = s.host_alloc(8, true);
        s.host_store(a, 3);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 42, 0).0.unwrap();
        let _ = s.self_abort(0, AbortCause::Explicit);
        assert_eq!(s.host_load(a), 3, "no eager write ever happened");
    }

    #[test]
    fn lazy_disjoint_writers_all_commit() {
        let mut s = lazy_state(2);
        let a = s.host_alloc(16, true);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 1, 0).0.unwrap();
        s.tx_begin(1, 1);
        s.tx_store(1, a + 64, 2, 0).0.unwrap();
        s.tx_commit(0).0.unwrap();
        s.tx_commit(1).0.unwrap();
    }

    #[test]
    fn next_eligible_min_clock_ties_by_id() {
        let mut s = state(3);
        s.cores[0].clock = 5;
        s.cores[1].clock = 3;
        s.cores[2].clock = 3;
        assert_eq!(s.next_eligible(), Some(1));
        s.cores[1].finished = true;
        assert_eq!(s.next_eligible(), Some(2));
        s.cores[2].finished = true;
        assert_eq!(s.next_eligible(), Some(0));
        s.cores[0].finished = true;
        assert_eq!(s.next_eligible(), None);
    }

    #[test]
    fn wasted_and_useful_cycle_accounting() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.cores[0].clock += 100; // simulate work inside the attempt
        s.tx_store(0, a, 1, 0).0.unwrap();
        s.tx_begin(1, 1);
        s.tx_store(1, a, 2, 0).0.unwrap();
        s.cores[0].clock += 50; // doomed victim keeps running a bit
        assert!(s.tx_commit(0).0.is_err());
        // 100 + 50 cycles of attempt work plus the abort-delivery cost.
        assert_eq!(s.cores[0].stats.wasted_tx_cycles, 150 + s.cfg.tx_abort_cost);
        s.cores[1].clock += 30;
        s.tx_commit(1).0.unwrap();
        assert_eq!(s.cores[1].stats.useful_tx_cycles, 30 + s.cfg.tx_commit_cost);
    }

    #[test]
    fn repeat_accesses_to_a_held_line_hit_l1_latency() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        // First store: conflict check, fill, footprint and directory.
        let (r, first_lat) = s.tx_store(0, a, 1, 0x400);
        r.unwrap();
        assert!(first_lat > s.cfg.l1_latency);
        // Repeats find the line held and in the L1: L1 latency, and the
        // values flow as for the first access.
        let (r, lat) = s.tx_store(0, a, 2, 0x400);
        r.unwrap();
        assert_eq!(lat, s.cfg.l1_latency);
        let (v, lat) = {
            let (r, lat) = s.tx_load(0, a, 0x404);
            (r.unwrap(), lat)
        };
        assert_eq!(v, 2);
        assert_eq!(lat, s.cfg.l1_latency);
        assert_eq!(s.cores[0].stats.tx_mem_ops, 3);
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 2);
        assert!(owners_empty(&s));
    }

    #[test]
    fn conflicts_still_detected_after_repeat_accesses() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 5);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 10, 0x400).0.unwrap();
        s.tx_store(0, a, 11, 0x400).0.unwrap(); // held
                                                // A remote writer must still doom core 0.
        s.tx_begin(1, 1);
        s.tx_store(1, a, 20, 0x500).0.unwrap();
        assert_eq!(s.host_load(a), 20, "core 0's writes rolled back");
        // The doomed core cannot sneak a held-line access past the doom.
        let (r, _) = s.tx_load(0, a, 0x404);
        assert_eq!(r.unwrap_err().info().cause, AbortCause::Conflict);
        s.tx_commit(1).0.unwrap();
        // The doom released core 0's bits: a fresh attempt by core 0 takes
        // the line anew and succeeds normally.
        s.tx_begin(0, 2);
        assert_eq!(s.tx_load(0, a, 0x408).0.unwrap(), 20);
        s.tx_commit(0).0.unwrap();
    }
}
