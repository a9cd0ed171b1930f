//! Per-thread runtime state and the ALPoint fast path (paper Section 5).

use crate::context::{ABContext, Activation};
use crate::hist::Hist;
use crate::locks::{GlobalLock, LockTable};
use crate::policy::{activate_alpoint, PolicyConfig};
use htm_sim::fx::FxHashMap;
use htm_sim::{line_of, AbortInfo, Addr, Core, FallbackPolicy, Machine};
use stagger_compiler::Compiled;

/// Execution modes compared in the paper's Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Baseline eager HTM — ALPs behave as if not present (the paper's
    /// baseline runs the uninstrumented binary).
    Htm,
    /// "AddrOnly": one fixed ALP at the start of each atomic block;
    /// precise mode only, keyed purely on conflicting-address recurrence.
    AddrOnly,
    /// Staggered Transactions with the *software* conflicting-PC
    /// alternative of Section 4 (a per-thread line→anchor map maintained at
    /// every executed ALP, with its run-time overhead charged).
    StaggeredSw,
    /// Staggered Transactions with hardware conflicting-PC support
    /// (per-line PC tags, `MachineConfig::pc_tag_bits` wide).
    Staggered,
}

impl Mode {
    pub const ALL: [Mode; 4] = [
        Mode::Htm,
        Mode::AddrOnly,
        Mode::StaggeredSw,
        Mode::Staggered,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Mode::Htm => "HTM",
            Mode::AddrOnly => "AddrOnly",
            Mode::StaggeredSw => "Staggered+SW",
            Mode::Staggered => "Staggered",
        }
    }

    /// Parse a mode by its display name, case-insensitively; `+` may be
    /// omitted (`staggeredsw` ≡ `Staggered+SW`).
    pub fn parse(s: &str) -> Option<Mode> {
        let norm = |x: &str| x.to_ascii_lowercase().replace('+', "");
        Mode::ALL.into_iter().find(|m| norm(m.name()) == norm(s))
    }
}

/// Sentinel anchor id for the AddrOnly block-start ALP (not a compiled
/// anchor; handled directly by `txn_start`).
pub const BLOCK_START_ANCHOR: u32 = u32::MAX;

/// Runtime configuration (paper Section 6 values as defaults).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    pub mode: Mode,
    pub policy: PolicyConfig,
    /// Abort-history length per ABContext (paper: 8).
    pub history_len: usize,
    /// Hardware retries before irrevocable fallback (paper: 10).
    pub max_retries: u32,
    /// Advisory lock table size (power of two).
    pub n_locks: usize,
    /// Advisory-lock acquire timeout, in cycles — a few typical transaction
    /// lengths, bounding the serialization harm of a stale or over-broad
    /// activation (Section 2: a waiter "can specify a timeout for its
    /// acquire operation, and simply proceed when the timeout expires").
    pub lock_timeout: u64,
    /// Minimum recent contention-abort frequency (aborts per commit) for
    /// the policy to activate any ALP — the paper's decision (1): locking
    /// is driven by "the frequency of contention aborts". Below this, the
    /// atomic block stays unlocked no matter what patterns the history
    /// shows.
    pub min_conflict_rate: f64,
    /// Cycles charged per lock-spin poll (at least 1).
    pub lock_spin: u64,
    /// Mean backoff per retry (the "Polite" policy: mean ∝ retry count).
    pub backoff_base: u64,
    /// Cost of an inactive ALP: "a test and a non-taken branch".
    pub alp_inactive_cost: u64,
    /// Extra per-ALP cost of maintaining the software conflicting-PC map.
    pub sw_alp_overhead: u64,
}

impl RuntimeConfig {
    /// Serialize every knob except `mode` (experiment specs carry the mode
    /// as a top-level field) as canonical `(key, value)` pairs, in a fixed
    /// order. The inverse of [`Self::set_kv`]; specs embed these under a
    /// `runtime.` prefix.
    pub fn to_kv(&self) -> Vec<(&'static str, String)> {
        vec![
            ("pc_thr", self.policy.pc_thr.to_string()),
            ("addr_thr", self.policy.addr_thr.to_string()),
            ("prom_thr", self.policy.prom_thr.to_string()),
            ("history_len", self.history_len.to_string()),
            ("max_retries", self.max_retries.to_string()),
            ("n_locks", self.n_locks.to_string()),
            ("lock_timeout", self.lock_timeout.to_string()),
            ("min_conflict_rate", format!("{}", self.min_conflict_rate)),
            ("lock_spin", self.lock_spin.to_string()),
            ("backoff_base", self.backoff_base.to_string()),
            ("alp_inactive_cost", self.alp_inactive_cost.to_string()),
            ("sw_alp_overhead", self.sw_alp_overhead.to_string()),
        ]
    }

    /// Every rule a runtime must satisfy, each stated once: `set_kv` runs
    /// it after each assignment and `SharedRt::new` panics with its error.
    pub fn check(&self) -> Result<(), String> {
        let n = self.n_locks;
        if !n.is_power_of_two() {
            // `LockTable::new` asserts it.
            return Err(format!("runtime.n_locks: {n} is not a power of two"));
        }
        if self.history_len == 0 {
            // `AbortHistory::new` needs room for one abort.
            return Err("runtime.history_len: must be at least 1".to_string());
        }
        if self.lock_spin == 0 {
            // A zero quantum never advances `waited`: no timeout could fire.
            return Err("runtime.lock_spin: must be at least 1".to_string());
        }
        Ok(())
    }

    /// Set one knob by its canonical key. Returns a descriptive error for
    /// an unknown key, an unparsable value, or a value [`Self::check`]
    /// refuses; on error the config is left as it was.
    pub fn set_kv(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("runtime.{key}: invalid value '{value}'"))
        }
        let mut c = self.clone();
        match key {
            "pc_thr" => c.policy.pc_thr = num(key, value)?,
            "addr_thr" => c.policy.addr_thr = num(key, value)?,
            "prom_thr" => c.policy.prom_thr = num(key, value)?,
            "history_len" => c.history_len = num(key, value)?,
            "max_retries" => c.max_retries = num(key, value)?,
            "n_locks" => c.n_locks = num(key, value)?,
            "lock_timeout" => c.lock_timeout = num(key, value)?,
            "min_conflict_rate" => c.min_conflict_rate = num(key, value)?,
            "lock_spin" => c.lock_spin = num(key, value)?,
            "backoff_base" => c.backoff_base = num(key, value)?,
            "alp_inactive_cost" => c.alp_inactive_cost = num(key, value)?,
            "sw_alp_overhead" => c.sw_alp_overhead = num(key, value)?,
            other => return Err(format!("runtime.{other}: unknown key")),
        }
        c.check()?;
        *self = c;
        Ok(())
    }

    pub fn with_mode(mode: Mode) -> RuntimeConfig {
        RuntimeConfig {
            mode,
            policy: PolicyConfig::default(),
            history_len: 8,
            max_retries: 10,
            n_locks: 1024,
            lock_timeout: 200_000,
            min_conflict_rate: 1.0,
            lock_spin: 30,
            backoff_base: 25,
            alp_inactive_cost: 1,
            sw_alp_overhead: 12,
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::with_mode(Mode::Staggered)
    }
}

/// Machine-wide runtime structures shared (by value — all are handles to
/// simulated memory) across all thread runtimes.
#[derive(Debug, Clone, Copy)]
pub struct SharedRt {
    pub locks: LockTable,
    pub global: GlobalLock,
    /// Exhausted-retry fallback policy, captured from the machine
    /// configuration at creation (it is a hardware-level property: the safe
    /// lazy-subscription variant needs commit-time validation support in
    /// the simulated HTM).
    pub fallback: FallbackPolicy,
    /// Per-line ownership stripes for the hybrid-TM software fallback.
    /// Allocated only under [`FallbackPolicy::HybridStm`]: an unconditional
    /// allocation would shift every later simulated address and perturb
    /// seeded default-policy results.
    pub hybrid: Option<LockTable>,
    /// The machine's PC-tag mask (`MachineConfig::pc_tag_mask`): which PC
    /// bits a delivered conflicting-PC tag carries.
    pub pc_tag_mask: u64,
}

impl SharedRt {
    /// Panics with [`RuntimeConfig::check`]'s error.
    pub fn new(machine: &Machine, cfg: &RuntimeConfig) -> SharedRt {
        cfg.check().unwrap_or_else(|e| panic!("{e}"));
        let fallback = machine.config().fallback;
        let locks = LockTable::new(machine, cfg.n_locks);
        let global = GlobalLock::new(machine);
        let hybrid =
            (fallback == FallbackPolicy::HybridStm).then(|| LockTable::new(machine, cfg.n_locks));
        if fallback == FallbackPolicy::LazySubscriptionSafe {
            // Tell the simulated hardware which word commits must validate.
            machine.register_commit_lock(global.addr());
        }
        SharedRt {
            locks,
            global,
            fallback,
            hybrid,
            pc_tag_mask: machine.config().pc_tag_mask(),
        }
    }
}

htm_sim::stats_record! {
    /// Runtime counters per thread — aggregated for Table 3 accuracy and
    /// policy diagnostics.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RtStats {
        merge {
            /// Histogram of conflicting (line) addresses over contention
            /// aborts — drives the paper's Table 1 "LA" locality
            /// classification.
            addr_hist: Hist<u64>,
            /// Histogram of true first-access PCs over contention aborts —
            /// drives the Table 1 "LP" classification.
            pc_hist: Hist<u64>,
        }
        counters {
            /// Contention aborts processed by the policy.
            contention_aborts: sum,
            /// Of those, aborts where an anchor was identified at all.
            anchor_identified: sum,
            /// Of those, aborts where the identified anchor matches ground
            /// truth (the anchor of the true first access to the contended
            /// line).
            anchor_correct: sum,
            locks_acquired: sum,
            lock_timeouts: sum,
            /// Activation outcomes.
            act_precise: sum,
            act_coarse: sum,
            act_training: sum,
            /// Dynamic count of executed ALPoints.
            alps_executed: sum,
        }
    }
}

impl RtStats {
    /// Table 3 "Accuracy": fraction of contention aborts whose anchor was
    /// correctly identified.
    pub fn accuracy(&self) -> f64 {
        if self.contention_aborts == 0 {
            1.0
        } else {
            self.anchor_correct as f64 / self.contention_aborts as f64
        }
    }

    /// Share of aborts attributable to the single most frequent conflicting
    /// address (Table 1's "LA": Y when a common datum dominates).
    pub fn addr_locality(&self) -> f64 {
        Self::top_share(&self.addr_hist)
    }

    /// Share of aborts attributable to the single most frequent
    /// first-access PC (Table 1's "LP").
    pub fn pc_locality(&self) -> f64 {
        Self::top_share(&self.pc_hist)
    }

    fn top_share(h: &Hist<u64>) -> f64 {
        let total: u64 = h.iter().map(|(_, n)| n).sum();
        if total == 0 {
            return 0.0;
        }
        h.iter().map(|(_, n)| n).max().unwrap() as f64 / total as f64
    }
}

/// All Staggered Transactions state of one simulated thread.
pub struct ThreadRuntime<'c> {
    pub cfg: RuntimeConfig,
    compiled: &'c Compiled,
    shared: SharedRt,
    ctxs: FxHashMap<u32, ABContext>,
    /// The advisory lock this transaction holds: at most one, as in the
    /// paper ("we acquire only one per transaction").
    held_lock: Option<Addr>,
    /// Software conflicting-PC map (Section 4): line → anchor id, set at
    /// each executed ALP if absent.
    sw_map: FxHashMap<u64, u32>,
    /// Deterministic backoff jitter state.
    rng: u64,
    pub stats: RtStats,
}

impl<'c> ThreadRuntime<'c> {
    pub fn new(cfg: RuntimeConfig, compiled: &'c Compiled, shared: SharedRt, tid: usize) -> Self {
        ThreadRuntime {
            cfg,
            compiled,
            shared,
            ctxs: FxHashMap::default(),
            held_lock: None,
            sw_map: FxHashMap::default(),
            rng: 0x9E37_79B9 ^ ((tid as u64 + 1) << 32) | 1,
            stats: RtStats::default(),
        }
    }

    pub fn shared(&self) -> SharedRt {
        self.shared
    }

    pub fn compiled(&self) -> &'c Compiled {
        self.compiled
    }

    fn ctx_mut(&mut self, ab_id: u32) -> &mut ABContext {
        let hl = self.cfg.history_len;
        self.ctxs
            .entry(ab_id)
            .or_insert_with(|| ABContext::new(ab_id, hl))
    }

    /// Peek at an atomic block's context (tests/diagnostics).
    pub fn ctx(&self, ab_id: u32) -> Option<&ABContext> {
        self.ctxs.get(&ab_id)
    }

    fn next_rand(&mut self, bound: u64) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % bound.max(1)
    }

    /// Called right after `tx_begin`: restores the instance activation and
    /// performs the AddrOnly block-start acquisition if configured.
    pub async fn txn_start(&mut self, core: &mut Core<'_>, ab_id: u32) {
        if self.cfg.mode == Mode::Htm {
            return;
        }
        let addr_only = self.cfg.mode == Mode::AddrOnly;
        let dormant_below = self.cfg.min_conflict_rate * 0.7;
        let ctx = self.ctx_mut(ab_id);
        ctx.begin_instance();
        // Decision (1), applied continuously: once the block's recent
        // contention-abort frequency drops (because the lock eliminated the
        // conflicts and commits accumulated), the learned activation goes
        // *dormant* — the pattern knowledge is kept but no lock is taken.
        // If contention returns, new aborts raise the rate and the
        // activation resumes. Going dormant only below 0.7 ×
        // `min_conflict_rate` provides hysteresis.
        if ctx.active_anchor != 0 && ctx.conflict_rate() < dormant_below {
            ctx.active_anchor = 0;
            return;
        }
        if addr_only {
            if let Activation::Precise {
                anchor: BLOCK_START_ANCHOR,
                addr,
            } = ctx.activation
            {
                ctx.active_anchor = 0;
                self.acquire_lock_for(core, addr).await;
            }
        }
    }

    /// The ALPoint instrumentation function (paper Figure 5), invoked by
    /// the interpreter at each `AlPoint` instruction with the data address
    /// of the following access. `in_txn` is false when the containing
    /// function is called outside any transaction (the ALP is inert then).
    pub async fn alpoint(
        &mut self,
        core: &mut Core<'_>,
        ab_id: u32,
        anchor: u32,
        addr: Addr,
        in_txn: bool,
    ) {
        // Baseline: the paper's HTM bars run the *uninstrumented* binary,
        // so ALPs cost nothing at all.
        if self.cfg.mode == Mode::Htm {
            return;
        }
        self.stats.alps_executed += 1;
        core.compute(self.cfg.alp_inactive_cost);
        if !in_txn {
            return;
        }
        if self.cfg.mode == Mode::StaggeredSw {
            core.compute(self.cfg.sw_alp_overhead);
            self.sw_map.entry(line_of(addr)).or_insert(anchor);
        }
        if self.cfg.mode == Mode::AddrOnly {
            return; // only the block-start ALP acts in this mode
        }
        let ctx = self.ctx_mut(ab_id);
        if ctx.active_anchor == anchor && ctx.address_matches(addr) {
            self.acquire_lock_for(core, addr).await;
            // One lock per transaction: the anchor is consumed once held.
            if self.held_lock.is_some() {
                self.ctx_mut(ab_id).active_anchor = 0;
            }
        }
    }

    /// Blocking acquire with timeout, unless a lock is already held.
    async fn acquire_lock_for(&mut self, core: &mut Core<'_>, addr: Addr) {
        if self.held_lock.is_some() {
            return;
        }
        let got = self
            .shared
            .locks
            .acquire(core, addr, self.cfg.lock_timeout, self.cfg.lock_spin)
            .await;
        match got {
            Some(_) => self.stats.locks_acquired += 1,
            None => self.stats.lock_timeouts += 1,
        }
        self.held_lock = got;
    }

    /// Release the held advisory lock — on commit *and* on abort (paper
    /// Section 5.1). Returns `Some(contended)` if a lock was held, where
    /// `contended` is true when it saw waiters.
    pub async fn release_lock(&mut self, core: &mut Core<'_>) -> Option<bool> {
        let w = self.held_lock.take()?;
        Some(self.shared.locks.release(core, w).await)
    }

    /// Whether an advisory lock is currently held.
    pub fn holds_lock(&self) -> bool {
        self.held_lock.is_some()
    }

    /// Attribute a contention abort to an anchor, per mode. Returns
    /// `(anchor_id, anchor_pc)`, 0s when unattributed.
    fn attribute(&self, ab_id: u32, info: &AbortInfo) -> (u32, u64) {
        let table = self.compiled.table(ab_id);
        match self.cfg.mode {
            Mode::Htm | Mode::AddrOnly => (0, 0),
            Mode::Staggered => table
                .search_by_pc_tag(info.conf_pc_tag, self.shared.pc_tag_mask)
                .map_or((0, 0), |e| {
                    let pc = table.anchor_entry(e.anchor_id).map_or(0, |a| a.pc);
                    (e.anchor_id, pc)
                }),
            Mode::StaggeredSw => match self.sw_map.get(&line_of(info.conf_addr)) {
                Some(&id) => (id, self.compiled.anchor(id).pc),
                None => (0, 0),
            },
        }
    }

    /// Ground-truth anchor for an abort: the anchor of the instruction that
    /// truly first accessed the contended line (full PC, non-architectural).
    fn ground_truth(&self, ab_id: u32, info: &AbortInfo) -> Option<u32> {
        self.compiled
            .table(ab_id)
            .search_by_pc(info.true_first_pc)
            .map(|e| e.anchor_id)
    }

    /// Handle a contention abort: release the lock, attribute, measure
    /// accuracy, and run the Figure 6 policy. `retries` is the attempt
    /// number within the current logical transaction.
    pub async fn on_conflict_abort(
        &mut self,
        core: &mut Core<'_>,
        ab_id: u32,
        info: &AbortInfo,
        retries: u32,
    ) {
        self.release_lock(core).await;
        // Locality histograms are recorded in every mode (offline analysis
        // for Table 1, independent of the policy).
        self.stats.addr_hist.bump(info.conf_addr);
        self.stats.pc_hist.bump(info.true_first_pc);
        if self.cfg.mode == Mode::Htm {
            return;
        }
        self.stats.contention_aborts += 1;
        let min_rate = self.cfg.min_conflict_rate;
        {
            let ctx = self.ctx_mut(ab_id);
            ctx.record_abort();
        }
        // Decision (1): only a block whose recent contention-abort
        // frequency is high enough may lock at all.
        let gated_off = self.ctx_mut(ab_id).conflict_rate() < min_rate;

        if self.cfg.mode == Mode::AddrOnly {
            // Simplified scheme: one fixed block-start ALP, precise mode
            // only, keyed purely on address recurrence.
            let addr = info.conf_addr;
            let addr_thr = self.cfg.policy.addr_thr;
            let ctx = self.ctx_mut(ab_id);
            let recurrent = !gated_off && ctx.history.count_addr(addr) > addr_thr;
            ctx.activation = if recurrent {
                Activation::Precise {
                    anchor: BLOCK_START_ANCHOR,
                    addr,
                }
            } else {
                Activation::Training
            };
            ctx.history.append(1, addr);
            let act = ctx.activation;
            match act {
                Activation::Precise { .. } => self.stats.act_precise += 1,
                _ => self.stats.act_training += 1,
            }
            return;
        }

        let (anchor_id, anchor_pc) = self.attribute(ab_id, info);
        if anchor_id != 0 {
            self.stats.anchor_identified += 1;
        }
        if let Some(truth) = self.ground_truth(ab_id, info) {
            if anchor_id == truth {
                self.stats.anchor_correct += 1;
            }
        }

        let table = self.compiled.table(ab_id);
        let policy = self.cfg.policy.clone();
        let hl = self.cfg.history_len;
        let ctx = self
            .ctxs
            .entry(ab_id)
            .or_insert_with(|| ABContext::new(ab_id, hl));
        activate_alpoint(
            &policy,
            table,
            ctx,
            anchor_id,
            anchor_pc,
            info.conf_addr,
            retries,
        );
        if gated_off {
            // Decision (1) vetoes: the block's recent conflict frequency is
            // too low to justify serialization. History keeps learning.
            ctx.activation = Activation::Training;
        }
        match ctx.activation {
            Activation::Precise { .. } => self.stats.act_precise += 1,
            Activation::Coarse { .. } => self.stats.act_coarse += 1,
            Activation::Training => self.stats.act_training += 1,
        }
    }

    /// Handle a capacity/explicit abort (no contention evidence): just drop
    /// the lock.
    pub async fn on_other_abort(&mut self, core: &mut Core<'_>) {
        self.release_lock(core).await;
    }

    /// Handle a successful commit after `retries` failed attempts. An
    /// uncontended first-try commit while holding an advisory lock appends
    /// an empty history record, decaying stale contention evidence; once
    /// every record has decayed, the activation itself is dropped —
    /// "avoiding over-locking in the case of low contention" (Section 5.2).
    pub async fn on_commit(&mut self, core: &mut Core<'_>, ab_id: u32, retries: u32) {
        let released = self.release_lock(core).await;
        if self.cfg.mode == Mode::Htm {
            return;
        }
        self.ctx_mut(ab_id).record_commit();
        // "When a transaction commits while holding an advisory lock, but
        // there was no contention on that lock, an empty entry can be
        // appended" — a contended lock is doing useful serialization and
        // must not decay.
        if released == Some(false) && retries == 0 {
            let ctx = self.ctx_mut(ab_id);
            ctx.history.append_empty();
            if ctx.history.iter().all(|r| r.pc == 0 && r.addr == 0) {
                ctx.activation = Activation::Training;
            }
        }
    }

    /// Polite backoff before retry `retries` (mean spin proportional to the
    /// retry count, with deterministic jitter).
    pub async fn backoff(&mut self, core: &mut Core<'_>, retries: u32) {
        let mean = self.cfg.backoff_base * (retries as u64 + 1);
        let jitter = self.next_rand(mean.max(1));
        let cycles = mean / 2 + jitter;
        core.charge_backoff(cycles).await;
        core.note(htm_sim::obs::ObsKind::Backoff { cycles });
    }

    /// The irrevocable-fallback global lock.
    pub fn global_lock(&self) -> GlobalLock {
        self.shared.global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::{body, MachineConfig};
    use stagger_compiler::compile;
    use tm_ir::{FuncBuilder, FuncKind, Module};

    fn compiled_simple() -> stagger_compiler::Compiled {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("tx", 1, FuncKind::Atomic { ab_id: 0 });
        let p = b.param(0);
        let v = b.load(p, 0); // anchor 1
        let v2 = b.addi(v, 1);
        b.store(v2, p, 0); // pioneer of anchor 1
        b.ret(None);
        m.add_function(b.finish());
        compile(&m)
    }

    #[test]
    fn htm_mode_alpoint_is_free() {
        let c = compiled_simple();
        let machine = Machine::new(MachineConfig::cores(1).small());
        let cfg = RuntimeConfig::with_mode(Mode::Htm);
        let shared = SharedRt::new(&machine, &cfg);
        machine.run(vec![body(move |mut core| async move {
            let mut rt = ThreadRuntime::new(cfg, &c, shared, core.tid());
            rt.alpoint(&mut core, 0, 1, 0x4000, true).await;
            assert_eq!(rt.stats.alps_executed, 0);
            assert_eq!(core.now(), 0, "no cost charged in baseline mode");
        })]);
    }

    #[test]
    fn inactive_alp_costs_test_and_branch() {
        let c = compiled_simple();
        let machine = Machine::new(MachineConfig::cores(1).small());
        let cfg = RuntimeConfig::with_mode(Mode::Staggered);
        let shared = SharedRt::new(&machine, &cfg);
        machine.run(vec![body(move |mut core| async move {
            let mut rt = ThreadRuntime::new(cfg.clone(), &c, shared, core.tid());
            rt.txn_start(&mut core, 0).await; // training: nothing active
            rt.alpoint(&mut core, 0, 1, 0x4000, true).await;
            assert_eq!(rt.stats.alps_executed, 1);
            assert_eq!(core.now(), cfg.alp_inactive_cost);
            assert!(!rt.holds_lock());
        })]);
    }

    #[test]
    fn active_alp_acquires_and_clears() {
        let c = compiled_simple();
        let machine = Machine::new(MachineConfig::cores(1).small());
        let cfg = RuntimeConfig::with_mode(Mode::Staggered);
        let shared = SharedRt::new(&machine, &cfg);
        machine.run(vec![body(move |mut core| async move {
            let mut rt = ThreadRuntime::new(cfg, &c, shared, core.tid());
            rt.ctx_mut(0).activation = Activation::Coarse { anchor: 1 };
            rt.ctx_mut(0).window_aborts = 8; // recently contended
            rt.txn_start(&mut core, 0).await;
            rt.alpoint(&mut core, 0, 1, 0x4000, true).await;
            assert!(rt.holds_lock());
            assert_eq!(rt.stats.locks_acquired, 1);
            // Second ALP in the same instance: anchor already consumed.
            rt.alpoint(&mut core, 0, 1, 0x4000, true).await;
            assert_eq!(rt.stats.locks_acquired, 1);
            rt.release_lock(&mut core).await;
            assert!(!rt.holds_lock());
        })]);
    }

    #[test]
    fn precise_mode_respects_address_match() {
        let c = compiled_simple();
        let machine = Machine::new(MachineConfig::cores(1).small());
        let cfg = RuntimeConfig::with_mode(Mode::Staggered);
        let shared = SharedRt::new(&machine, &cfg);
        machine.run(vec![body(move |mut core| async move {
            let mut rt = ThreadRuntime::new(cfg, &c, shared, core.tid());
            rt.ctx_mut(0).activation = Activation::Precise {
                anchor: 1,
                addr: 0x4000,
            };
            rt.ctx_mut(0).window_aborts = 8; // recently contended
            rt.txn_start(&mut core, 0).await;
            // Mismatched address: no lock, anchor stays active.
            rt.alpoint(&mut core, 0, 1, 0x9000, true).await;
            assert!(!rt.holds_lock());
            // Matching line: lock.
            rt.alpoint(&mut core, 0, 1, 0x4038, true).await;
            assert!(rt.holds_lock());
            rt.release_lock(&mut core).await;
        })]);
    }

    #[test]
    fn sw_mode_maintains_map_and_attributes() {
        let c = compiled_simple();
        let machine = Machine::new(MachineConfig::cores(1).small());
        let cfg = RuntimeConfig::with_mode(Mode::StaggeredSw);
        let shared = SharedRt::new(&machine, &cfg);
        machine.run(vec![body(move |mut core| async move {
            let mut rt = ThreadRuntime::new(cfg, &c, shared, core.tid());
            rt.txn_start(&mut core, 0).await;
            rt.alpoint(&mut core, 0, 1, 0x4000, true).await;
            // The map knows line 0x4000 -> anchor 1; a conflict there is
            // attributed without any PC.
            let info = AbortInfo {
                cause: htm_sim::AbortCause::Conflict,
                conf_addr: 0x4000,
                conf_pc_tag: 0,
                true_first_pc: 0,
            };
            let (id, pc) = rt.attribute(0, &info);
            assert_eq!(id, 1);
            assert_eq!(pc, rt.compiled().anchor(1).pc);
            // Unknown line: unattributed.
            let miss = AbortInfo {
                conf_addr: 0xF000,
                ..info
            };
            assert_eq!(rt.attribute(0, &miss), (0, 0));
        })]);
    }

    #[test]
    fn staggered_mode_attributes_via_pc_tag() {
        // 64 instructions of padding lay the atomic block out past PC bit
        // 8, so an 8-bit tag read as a 12-bit one would name no entry.
        let mut m = Module::new();
        let mut pad = FuncBuilder::new("pad", 1, FuncKind::Normal);
        let mut r = pad.param(0);
        for _ in 0..64 {
            r = pad.addi(r, 1);
        }
        pad.ret(Some(r));
        m.add_function(pad.finish());
        let mut b = FuncBuilder::new("tx", 1, FuncKind::Atomic { ab_id: 0 });
        let p = b.param(0);
        for off in 0..8 {
            let v = b.load(p, 8 * off);
            b.store(v, p, 8 * off + 64);
        }
        b.ret(None);
        m.add_function(b.finish());
        let c = compile(&m);
        assert!(c.table(0).entries.iter().all(|e| e.pc & 0xF00 != 0));
        // At each width the delivered tag is the PC's low `pc_tag_bits`,
        // and it attributes to the anchor of the first entry whose low
        // bits match.
        for bits in [12, 8] {
            let c = c.clone();
            let machine = Machine::new(MachineConfig::cores(1).small().pc_tag_bits(bits));
            let mask = machine.config().pc_tag_mask();
            let cfg = RuntimeConfig::with_mode(Mode::Staggered);
            let shared = SharedRt::new(&machine, &cfg);
            machine.run(vec![body(move |core| async move {
                let rt = ThreadRuntime::new(cfg, &c, shared, core.tid());
                let t = c.table(0);
                for e in &t.entries {
                    let info = AbortInfo {
                        cause: htm_sim::AbortCause::Conflict,
                        conf_addr: 0x4000,
                        conf_pc_tag: (e.pc & mask) as u16,
                        true_first_pc: 0,
                    };
                    let first = t.entries.iter().find(|x| x.pc & mask == e.pc & mask);
                    let want = first.unwrap().anchor_id;
                    assert_ne!(want, 0);
                    assert_eq!(rt.attribute(0, &info).0, want, "{bits} bits: {:#x}", e.pc);
                }
            })]);
        }
    }

    #[test]
    fn shared_rt_new_refuses_what_set_kv_refuses_with_its_message() {
        let machine = Machine::new(MachineConfig::cores(1).small());
        for (key, v) in [
            ("n_locks", 0),
            ("n_locks", 1000),
            ("history_len", 0),
            ("lock_spin", 0),
        ] {
            let mut c = RuntimeConfig::default();
            let want = c.clone().set_kv(key, &v.to_string()).unwrap_err();
            match key {
                "n_locks" => c.n_locks = v as usize,
                "history_len" => c.history_len = v as usize,
                "lock_spin" => c.lock_spin = v,
                _ => unreachable!("{key}"),
            }
            let new = std::panic::AssertUnwindSafe(|| SharedRt::new(&machine, &c));
            let panic = std::panic::catch_unwind(new)
                .err()
                .unwrap_or_else(|| panic!("SharedRt::new accepted {key} = {v}"));
            assert_eq!(panic.downcast_ref::<String>(), Some(&want), "{key} = {v}");
        }
    }

    #[test]
    fn addr_only_learns_block_start_lock() {
        let c = compiled_simple();
        let machine = Machine::new(MachineConfig::cores(1).small());
        let cfg = RuntimeConfig::with_mode(Mode::AddrOnly);
        let shared = SharedRt::new(&machine, &cfg);
        machine.run(vec![body(move |mut core| async move {
            let mut rt = ThreadRuntime::new(cfg, &c, shared, core.tid());
            let info = AbortInfo {
                cause: htm_sim::AbortCause::Conflict,
                conf_addr: 0x4000,
                conf_pc_tag: 0,
                true_first_pc: 0,
            };
            for _ in 0..7 {
                rt.on_conflict_abort(&mut core, 0, &info, 0).await;
            }
            assert_eq!(
                rt.ctx(0).unwrap().activation,
                Activation::Precise {
                    anchor: BLOCK_START_ANCHOR,
                    addr: 0x4000
                }
            );
            // Next instance locks at block start.
            rt.txn_start(&mut core, 0).await;
            assert!(rt.holds_lock());
            rt.release_lock(&mut core).await;
        })]);
    }

    #[test]
    fn commit_on_first_try_with_lock_appends_empty() {
        let c = compiled_simple();
        let machine = Machine::new(MachineConfig::cores(1).small());
        let cfg = RuntimeConfig::with_mode(Mode::Staggered);
        let shared = SharedRt::new(&machine, &cfg);
        machine.run(vec![body(move |mut core| async move {
            let mut rt = ThreadRuntime::new(cfg, &c, shared, core.tid());
            rt.ctx_mut(0).activation = Activation::Coarse { anchor: 1 };
            rt.ctx_mut(0).history.append(0x500, 0x4000);
            rt.ctx_mut(0).window_aborts = 8; // recently contended
            rt.txn_start(&mut core, 0).await;
            rt.alpoint(&mut core, 0, 1, 0x4000, true).await;
            assert!(rt.holds_lock());
            rt.on_commit(&mut core, 0, 0).await;
            assert!(!rt.holds_lock());
            let h = &rt.ctx(0).unwrap().history;
            assert_eq!(h.len(), 2, "empty record appended");
            assert_eq!(h.count_addr(0x4000), 1);
        })]);
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let c = compiled_simple();
        let machine = Machine::new(MachineConfig::cores(1).small());
        let cfg = RuntimeConfig::with_mode(Mode::Staggered);
        let shared = SharedRt::new(&machine, &cfg);
        machine.run(vec![body(move |mut core| async move {
            let mut rt = ThreadRuntime::new(cfg, &c, shared, core.tid());
            let t0 = core.now();
            rt.backoff(&mut core, 0).await;
            let d1 = core.now() - t0;
            let t1 = core.now();
            for _ in 0..5 {
                rt.backoff(&mut core, 9).await;
            }
            let d2 = (core.now() - t1) / 5;
            assert!(d2 > d1, "backoff mean grows with retries");
        })]);
        let agg = machine.stats().aggregate();
        assert!(agg.backoff_cycles > 0);
    }

    #[test]
    fn mode_names_parse_back() {
        for m in Mode::ALL {
            assert_eq!(Mode::parse(m.name()), Some(m));
            assert_eq!(Mode::parse(&m.name().to_lowercase()), Some(m));
        }
        assert_eq!(Mode::parse("staggeredsw"), Some(Mode::StaggeredSw));
        assert_eq!(Mode::parse("nonsense"), None);
    }

    #[test]
    fn runtime_kv_round_trips_every_key() {
        let mut c = RuntimeConfig::with_mode(Mode::Staggered);
        c.lock_timeout = 777;
        c.backoff_base = 3;
        c.min_conflict_rate = 0.25;
        c.policy.prom_thr = 9;
        let mut d = RuntimeConfig::with_mode(Mode::Staggered);
        for (k, v) in c.to_kv() {
            d.set_kv(k, &v).unwrap();
        }
        assert_eq!(c.to_kv(), d.to_kv());
        assert_eq!(c.to_kv().len(), 12);
    }

    #[test]
    fn runtime_kv_rejects_unknown_and_bad_values() {
        let mut c = RuntimeConfig::default();
        assert!(c.set_kv("mode", "HTM").is_err(), "mode is a top-level key");
        assert!(
            c.set_kv("interp", "legacy").is_err(),
            "the removed interpreter selection is an unknown key"
        );
        assert!(c.set_kv("lock_timeout", "soon").is_err());
        assert!(
            c.set_kv("max_locks_per_txn", "1").is_err(),
            "the removed multi-lock budget is an unknown key"
        );
        assert!(
            c.set_kv("lock_spin", "0").is_err(),
            "a zero spin quantum makes lock_timeout unreachable"
        );
        assert_eq!(c.lock_spin, RuntimeConfig::default().lock_spin);
        c.set_kv("lock_spin", "1").unwrap();
        // Values the lock table and abort history would assert on later,
        // inside a pool worker.
        for (key, value) in [("n_locks", "0"), ("n_locks", "1000"), ("history_len", "0")] {
            assert!(c.set_kv(key, value).is_err(), "{key} = {value}");
        }
        assert_eq!(
            (c.n_locks, c.history_len),
            (
                RuntimeConfig::default().n_locks,
                RuntimeConfig::default().history_len
            )
        );
        c.set_kv("n_locks", "1").unwrap();
        c.set_kv("history_len", "1").unwrap();
    }

    #[test]
    fn stats_add_sums_every_counter_and_merges_histograms() {
        let (mut a, mut b) = (RtStats::default(), RtStats::default());
        for (i, (x, y)) in a.values_mut().into_iter().zip(b.values_mut()).enumerate() {
            (*x, *y) = (10 * i as u64 + 1, 100 - i as u64);
        }
        a.addr_hist.bump(64);
        b.addr_hist.bump(64);
        b.pc_hist.bump(8);
        let want: Vec<u64> = a
            .values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| x + y)
            .collect();
        let mut t = a.clone();
        t.add(&b);
        assert_eq!(t.values().to_vec(), want);
        assert_eq!(t.addr_hist.iter().collect::<Vec<_>>(), [(64, 2)]);
        assert_eq!(t.pc_hist.iter().collect::<Vec<_>>(), [(8, 1)]);
        b.add(&a);
        assert_eq!(b, t);
    }
}
