//! The per-thread executor: IR interpretation + the transaction retry
//! driver.

use crate::prepared::{Prepared, PreparedFunc};
use htm_sim::{AbortCause, Addr, Core, FallbackPolicy, TxError};
use stagger_core::{RuntimeConfig, SharedRt, ThreadRuntime};
use std::sync::Arc;
use tm_ir::{FuncId, FuncKind, Inst, Pc, Reg};

/// Sentinel "PC" used for the transactional global-lock subscription read.
/// Odd on purpose: real instruction PCs are 4-byte aligned, so its tag `1`
/// can never alias a table entry, at any tag width.
const GLOBAL_LOCK_SUB_PC: u64 = 1;

/// Sentinel "PC" for the hybrid-TM per-access ownership-stripe read (odd
/// for the same non-aliasing reason as [`GLOBAL_LOCK_SUB_PC`]).
const HYBRID_STRIPE_SUB_PC: u64 = 3;

htm_sim::stats_record! {
    /// Dynamic execution statistics of one thread (Table 3's "Dynamic
    /// Stats").
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ExecStats {
        counters {
            /// All interpreted instructions (µ-ops), any mode.
            insts: sum,
            /// Committed hardware transactions (irrevocable completions
            /// excluded).
            committed_txns: sum,
            /// µ-ops executed inside committed transaction attempts.
            committed_insts: sum,
            /// ALPoints executed inside committed transaction attempts.
            committed_anchors: sum,
            /// Aborted hardware attempts.
            aborted_attempts: sum,
            /// Transactions completed in irrevocable (global-lock) mode.
            irrevocable_txns: sum,
        }
    }
}

impl ExecStats {
    /// Mean µ-ops per committed transaction.
    pub fn uops_per_txn(&self) -> f64 {
        if self.committed_txns == 0 {
            0.0
        } else {
            self.committed_insts as f64 / self.committed_txns as f64
        }
    }

    /// Mean executed anchors (ALPoints) per committed transaction.
    pub fn anchors_per_txn(&self) -> f64 {
        if self.committed_txns == 0 {
            0.0
        } else {
            self.committed_anchors as f64 / self.committed_txns as f64
        }
    }
}

/// A suspended caller: where it resumes, its register base, and the
/// register that receives the callee's return value.
struct Frame<'p> {
    f: &'p PreparedFunc,
    insts: &'p [(Inst, Pc)],
    ip: usize,
    base: usize,
    dst: Option<Reg>,
}

/// How the open atomic call's attempt runs. Both fallbacks hold the global
/// lock since cycle `t0`. On the hybrid-TM software path (Brown & Ravi
/// style) it is only a software-software mutex — stripes are claimed in
/// encounter order, so two software paths could deadlock without it — and
/// hardware transactions keep committing beside it except on lines whose
/// stripe it owns.
enum TxMode {
    Hw,
    Irrevocable { t0: u64 },
    Sw { t0: u64 },
}

/// The open atomic call (at most one: the verifier rejects atomic functions
/// that reach another), to which an abort at any depth unwinds. `depth` and
/// `base` are `frames.len()` and `bp` while the atomic function runs.
struct Txn<'p> {
    f: &'p PreparedFunc,
    ab_id: u32,
    depth: usize,
    base: usize,
    attempt: u32,
    mode: TxMode,
}

impl<'p> Txn<'p> {
    fn new(f: &'p PreparedFunc, ab_id: u32, depth: usize, base: usize) -> Self {
        Txn {
            f,
            ab_id,
            depth,
            base,
            attempt: 0,
            mode: TxMode::Hw,
        }
    }
}

/// One simulated thread's interpreter + Staggered Transactions runtime.
pub struct Executor<'c> {
    prepared: Arc<Prepared>,
    pub rt: ThreadRuntime<'c>,
    rng: u64,
    pub stats: ExecStats,
    attempt_insts: u64,
    attempt_anchors: u64,
    /// While the hybrid-TM *software* fallback path runs, the ownership
    /// stripes it holds: its plain memory accesses go through the per-line
    /// stripe instrumentation instead of raw coherence ops.
    sw_stripes: Option<Vec<Addr>>,
}

impl<'c> Executor<'c> {
    pub fn new(
        compiled: &'c stagger_compiler::Compiled,
        prepared: Arc<Prepared>,
        rt_cfg: RuntimeConfig,
        shared: SharedRt,
        tid: usize,
        seed: u64,
    ) -> Self {
        Executor {
            prepared,
            rt: ThreadRuntime::new(rt_cfg, compiled, shared, tid),
            rng: seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(tid as u64 + 1)
                | 1,
            stats: ExecStats::default(),
            attempt_insts: 0,
            attempt_anchors: 0,
            sw_stripes: None,
        }
    }

    fn rand_below(&mut self, bound: u64) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) % bound
    }

    /// Call function `fid`. Atomic functions run the full transaction
    /// protocol; normal functions execute plainly (and must not be
    /// transactional-only helpers invoked outside a transaction — they run
    /// with plain coherence semantics in that case).
    ///
    /// One flat future for the whole call tree: the running frame in locals
    /// (`tx` is the atomic block id while speculating), its callers on
    /// `frames`, and all their registers in `regs`, the running frame's on
    /// top from `bp`.
    pub async fn call(&mut self, core: &mut Core<'_>, fid: FuncId, args: &[u64]) -> u64 {
        let prepared = self.prepared.clone();
        let funcs = &prepared.funcs;
        let mut f = &funcs[fid.index()];
        assert_eq!(args.len(), f.n_params as usize, "arity of {}", f.name);
        let mut frames: Vec<Frame> = Vec::new();
        let mut regs = args.to_vec();
        regs.resize(f.n_regs as usize, 0);
        // The open atomic call's first registers, reloaded by every attempt.
        let mut tx_regs = regs.clone();
        let mut txn = match f.kind {
            FuncKind::Atomic { ab_id } => Some(Txn::new(f, ab_id, 0, 0)),
            FuncKind::Normal => None,
        };
        let (mut insts, mut ip, mut bp, mut tx) = (&f.blocks[f.entry.index()][..], 0, 0, None);

        loop {
            if let Some(t) = &mut txn {
                frames.truncate(t.depth);
                regs.truncate(t.base);
                regs.extend_from_slice(&tx_regs);
                tx = self.start_attempt(core, t).await;
                (f, insts, ip, bp) = (t.f, &t.f.blocks[t.f.entry.index()], 0, t.base);
            }
            // The running frame's registers, re-taken whenever `regs`
            // changes length. The loop ends with `Some` on an abort and
            // with `None` when the open `Txn` is to (re)start.
            let mut r = &mut regs[bp..];
            let abort = loop {
                let (inst, pc) = &insts[ip];
                ip += 1;
                // One cycle per µ-op, except the ALPoint pseudo-instruction
                // whose cost is owned by the runtime (zero in baseline mode).
                if !matches!(inst, Inst::AlPoint { .. }) {
                    core.compute(1);
                    self.stats.insts += 1;
                    if tx.is_some() {
                        self.attempt_insts += 1;
                    }
                }
                match *inst {
                    Inst::Const { dst, value } => r[dst.index()] = value,
                    Inst::Mov { dst, src } => r[dst.index()] = r[src.index()],
                    Inst::Bin { op, dst, a, b } => {
                        r[dst.index()] = op.eval(r[a.index()], r[b.index()]).unwrap_or_else(|| {
                            panic!("division by zero in {} at pc {pc:#x}", f.name)
                        });
                    }
                    Inst::Cmp { op, dst, a, b } => {
                        r[dst.index()] = op.eval(r[a.index()], r[b.index()]);
                    }
                    Inst::Load { dst, .. } | Inst::LoadIdx { dst, .. } => {
                        let addr = effective(&f.name, r, inst);
                        match self.access(core, addr, None, *pc, tx).await {
                            Ok(v) => r[dst.index()] = v,
                            Err(e) => break Some(e),
                        }
                    }
                    Inst::Store { src, .. } | Inst::StoreIdx { src, .. } => {
                        let (addr, v) = (effective(&f.name, r, inst), r[src.index()]);
                        if let Err(e) = self.access(core, addr, Some(v), *pc, tx).await {
                            break Some(e);
                        }
                    }
                    Inst::Gep {
                        dst,
                        base,
                        index,
                        offset,
                    } => {
                        r[dst.index()] = r[base.index()]
                            .wrapping_add((r[index.index()].wrapping_add(offset as u64)) * 8);
                    }
                    Inst::Alloc {
                        dst,
                        words,
                        line_align,
                    } => {
                        r[dst.index()] = core.alloc(r[words.index()], line_align).await;
                    }
                    Inst::Call {
                        func,
                        args: ref call_args,
                        dst,
                    } => {
                        let callee = &funcs[func.index()];
                        let base = regs.len();
                        for a in call_args {
                            regs.push(regs[bp + a.index()]);
                        }
                        regs.resize(base + callee.n_regs as usize, 0);
                        frames.push(Frame {
                            f,
                            insts,
                            ip,
                            base: bp,
                            dst,
                        });
                        // A call to an atomic function from plain code opens
                        // a hardware transaction.
                        if let FuncKind::Atomic { ab_id } = callee.kind {
                            debug_assert!(txn.is_none(), "nested atomic call");
                            tx_regs.clear();
                            tx_regs.extend_from_slice(&regs[base..]);
                            txn = Some(Txn::new(callee, ab_id, frames.len(), base));
                            break None;
                        }
                        (f, insts, ip, bp) =
                            (callee, &callee.blocks[callee.entry.index()], 0, base);
                        r = &mut regs[bp..];
                    }
                    Inst::Ret { val } => {
                        let v = val.map_or(0, |x| r[x.index()]);
                        if let Some(t) = txn.as_mut().filter(|t| t.depth == frames.len()) {
                            if !self.finish_attempt(core, t).await {
                                t.attempt += 1;
                                break None;
                            }
                            (txn, tx) = (None, None);
                        }
                        regs.truncate(bp);
                        let Some(caller) = frames.pop() else { return v };
                        (f, insts, ip, bp) = (caller.f, caller.insts, caller.ip, caller.base);
                        r = &mut regs[bp..];
                        if let Some(d) = caller.dst {
                            r[d.index()] = v;
                        }
                    }
                    Inst::Br { target } => (insts, ip) = (&f.blocks[target.index()], 0),
                    Inst::CondBr {
                        cond,
                        then_b,
                        else_b,
                    } => {
                        let b = if r[cond.index()] != 0 { then_b } else { else_b };
                        (insts, ip) = (&f.blocks[b.index()], 0);
                    }
                    Inst::Compute { cycles } => core.compute(cycles as u64),
                    Inst::IdleUntil { cycle } => core.idle_until(r[cycle.index()]),
                    Inst::Rand { dst, bound } => {
                        let b = r[bound.index()];
                        assert!(b > 0, "rand with zero bound in {}", f.name);
                        r[dst.index()] = self.rand_below(b);
                    }
                    Inst::AlPoint {
                        anchor,
                        base,
                        index,
                        offset,
                    } => {
                        let idx = index.map_or(0, |x| r[x.index()]);
                        let addr = r[base.index()].wrapping_add((idx + offset as u64) * 8);
                        if tx.is_some() {
                            self.attempt_anchors += 1;
                        }
                        self.rt
                            .alpoint(core, tx.unwrap_or(0), anchor, addr, tx.is_some())
                            .await;
                    }
                }
            };
            if let Some(e) = abort {
                let t = txn.as_mut().expect("only a hardware attempt aborts");
                self.handle_abort(core, t.ab_id, e, t.attempt).await;
                t.attempt += 1;
            }
        }
    }

    /// Begin attempt `t.attempt` of the open atomic call — the retry
    /// protocol of paper Section 6: up to `max_retries` hardware attempts
    /// (polite backoff between them, in [`Self::handle_abort`]), then
    /// irrevocable execution under the global lock, or the hybrid software
    /// path. Returns the atomic block id if the attempt is speculative.
    async fn start_attempt(&mut self, core: &mut Core<'_>, t: &mut Txn<'_>) -> Option<u32> {
        if t.attempt < self.rt.cfg.max_retries {
            // Note: the paper's runtime does NOT test the global lock before
            // starting an attempt — transactions subscribe to it only
            // "immediately before attempting to commit". Speculative attempts
            // racing an irrevocable transaction therefore run to completion
            // and waste their work, which is a real (and reproduced)
            // component of the baseline's collapse under heavy contention.
            self.attempt_insts = 0;
            self.attempt_anchors = 0;
            core.tx_begin(t.ab_id).await;
            self.rt.txn_start(core, t.ab_id).await;
            t.mode = TxMode::Hw;
            return Some(t.ab_id);
        }
        // Irrevocable mode runs non-speculatively under the global lock:
        // plain stores doom any racing speculative readers/writers
        // (requester wins).
        let gl = self.rt.global_lock();
        gl.acquire(core, self.rt.cfg.lock_spin).await;
        let t0 = core.now();
        core.note(htm_sim::obs::ObsKind::IrrevocableEnter);
        t.mode = if self.rt.shared().fallback == FallbackPolicy::HybridStm {
            self.sw_stripes = Some(Vec::new());
            TxMode::Sw { t0 }
        } else {
            TxMode::Irrevocable { t0 }
        };
        None
    }

    /// End attempt `t` at its atomic function's `Ret`: subscribe and commit
    /// a hardware attempt, or leave the fallback path. Returns false if the
    /// hardware attempt aborted instead, and is to be retried.
    async fn finish_attempt(&mut self, core: &mut Core<'_>, t: &Txn<'_>) -> bool {
        let gl = self.rt.global_lock();
        let t0 = match t.mode {
            TxMode::Hw => {
                // Subscribe to the global lock immediately before commit:
                // its line joins our read set, so a racing irrevocable
                // acquisition dooms us. The two lazy-subscription policies
                // elide this read — the unsafe one relies on nothing else
                // (and can commit torn views of an in-flight fallback
                // writer), the safe one on the hardware's commit-time
                // validation of the registered lock word. Hybrid mode has no
                // stop-the-world writer to subscribe to; safety comes from
                // the per-access stripe reads instead.
                let sub = if self.rt.shared().fallback == FallbackPolicy::Irrevocable {
                    core.tx_load(gl.addr(), GLOBAL_LOCK_SUB_PC).await
                } else {
                    Ok(0)
                };
                let e = match sub {
                    Ok(0) => match core.tx_commit().await {
                        Ok(()) => {
                            self.rt.on_commit(core, t.ab_id, t.attempt).await;
                            self.stats.committed_txns += 1;
                            self.stats.committed_insts += self.attempt_insts;
                            self.stats.committed_anchors += self.attempt_anchors;
                            return true;
                        }
                        Err(e) => e,
                    },
                    Ok(_held) => {
                        // Global lock held: we must not commit. The
                        // attempt's work is already wasted (the lemming
                        // effect of lazy subscription); spin until the
                        // irrevocable transaction finishes so retries
                        // aren't burned against the same holder.
                        core.tx_abort().await;
                        self.stats.aborted_attempts += 1;
                        self.rt.on_other_abort(core).await;
                        gl.wait_until_free(core, self.rt.cfg.lock_spin).await;
                        return false;
                    }
                    Err(e) => e,
                };
                self.handle_abort(core, t.ab_id, e, t.attempt).await;
                return false;
            }
            TxMode::Irrevocable { t0 } => t0,
            TxMode::Sw { t0 } => {
                // Releasing the stripes (last claimed first) publishes the
                // commit; the window below therefore includes them, like
                // the irrevocable path's stores.
                let stripes = self.sw_stripes.take().expect("software path holds stripes");
                for w in stripes.into_iter().rev() {
                    core.nt_store(w, 0).await;
                }
                t0
            }
        };
        let dt = core.now().saturating_sub(t0);
        // Stamp the exit before the release/stat ops advance the clock, so
        // the event's [clock - cycles, clock] span is exactly the lock-held
        // execution window.
        core.note(htm_sim::obs::ObsKind::IrrevocableExit { cycles: dt });
        gl.release(core).await;
        // Software-path completions share the irrevocable counters
        // ("fallback commits"): same role in aborts-per-commit and the %I
        // fraction, and sweep cell schemas stay unchanged.
        core.record_irrevocable(dt).await;
        self.stats.irrevocable_txns += 1;
        true
    }

    /// Per-access instrumentation of the software fallback: read the
    /// line's ownership stripe and claim it on first touch. The claiming
    /// `nt_cas` is a real coherence write, so it dooms every hardware
    /// transaction whose read set holds this stripe. Under the
    /// software-software mutex the stripe is only ever free or ours, but
    /// the charged check-then-claim per access is the point — it is the
    /// hybrid instrumentation cost.
    async fn sw_own(&mut self, core: &mut Core<'_>, addr: Addr) {
        let stripes = self
            .rt
            .shared()
            .hybrid
            .expect("software fallback without a stripe table");
        let word = stripes.lock_addr_for(addr);
        let me = core.tid() as u64 + 1;
        if core.nt_load(word).await != me {
            let spin = self.rt.cfg.lock_spin;
            while !core.nt_cas(word, 0, me).await {
                core.spin_wait(&[word], spin, u64::MAX).await;
            }
            self.sw_stripes.as_mut().expect("software path").push(word);
        }
    }

    async fn handle_abort(&mut self, core: &mut Core<'_>, ab_id: u32, e: TxError, attempt: u32) {
        self.stats.aborted_attempts += 1;
        let info = e.info();
        match info.cause {
            AbortCause::Conflict => self.rt.on_conflict_abort(core, ab_id, &info, attempt).await,
            AbortCause::Capacity | AbortCause::Explicit | AbortCause::SubscriptionValidation => {
                self.rt.on_other_abort(core).await
            }
        }
        self.rt.backoff(core, attempt).await;
        // Part of the polite retry policy: if an irrevocable transaction is
        // running, retrying against it just burns attempts (its plain
        // stores doom us again) — wait it out. The attempt that was already
        // wasted stays wasted.
        let gl = self.rt.global_lock();
        if gl.is_held(core).await {
            gl.wait_until_free(core, self.rt.cfg.lock_spin).await;
        }
    }

    /// Hybrid-mode instrumentation of a *hardware* transactional access:
    /// transactionally read the line's ownership stripe — it joins the
    /// read set, so a software fallback's claiming CAS dooms us — and
    /// self-abort if a software transaction owns the line right now.
    async fn hw_stripe_check(&mut self, core: &mut Core<'_>, addr: Addr) -> Result<(), TxError> {
        if let Some(stripes) = self.rt.shared().hybrid {
            let word = stripes.lock_addr_for(addr);
            if core.tx_load(word, HYBRID_STRIPE_SUB_PC).await? != 0 {
                return Err(core.tx_abort().await);
            }
        }
        Ok(())
    }

    /// One data access of the program: a store of `val`, or a load
    /// (`None`) that returns the value read.
    async fn access(
        &mut self,
        core: &mut Core<'_>,
        addr: Addr,
        val: Option<u64>,
        pc: Pc,
        tx: Option<u32>,
    ) -> Result<u64, TxError> {
        if tx.is_some() {
            self.hw_stripe_check(core, addr).await?;
            return match val {
                Some(v) => core.tx_store(addr, v, pc).await.map(|()| v),
                None => core.tx_load(addr, pc).await,
            };
        }
        if self.sw_stripes.is_some() {
            self.sw_own(core, addr).await;
        }
        let Some(v) = val else {
            return Ok(core.plain_load(addr).await);
        };
        core.nt_store(addr, v).await;
        Ok(v)
    }
}

/// The address memory access `inst` touches: `base + (index + offset) * 8`.
fn effective(fname: &str, r: &[u64], inst: &Inst) -> Addr {
    let (base, index, offset) = inst.mem_operands().expect("a memory access");
    let (base, index) = (r[base.index()], index.map_or(0, |x| r[x.index()]));
    assert!(base != 0, "null dereference in {fname}");
    base.wrapping_add(index.wrapping_add(offset as u64) * 8)
}

#[cfg(test)]
mod tests {
    use crate::run::{run_workload, ThreadPlan};
    use crate::ExecStats;
    use htm_sim::{Machine, MachineConfig};
    use stagger_compiler::compile;
    use stagger_core::{Mode, RuntimeConfig};
    use tm_ir::{FuncBuilder, FuncKind, Module};

    /// Run `build` as a single-threaded plain program with `args` and
    /// return the entry function's result.
    fn eval(build: impl FnOnce(&mut Module), args: Vec<u64>) -> (u64, Machine) {
        let mut m = Module::new();
        build(&mut m);
        let compiled = compile(&m);
        let machine = Machine::new(MachineConfig::cores(1).small());
        let out = run_workload(
            &machine,
            &compiled,
            &RuntimeConfig::with_mode(Mode::Staggered),
            &[ThreadPlan {
                func: compiled.module.expect("thread_main"),
                args,
            }],
            1,
        );
        (out.returns[0], machine)
    }

    #[test]
    fn stats_add_sums_every_counter() {
        let (mut a, mut b) = (ExecStats::default(), ExecStats::default());
        for (i, (x, y)) in a.values_mut().into_iter().zip(b.values_mut()).enumerate() {
            (*x, *y) = (10 * i as u64 + 1, 100 - i as u64);
        }
        let want: Vec<u64> = a
            .values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| x + y)
            .collect();
        let mut t = a.clone();
        t.add(&b);
        assert_eq!(t.values().to_vec(), want);
    }

    #[test]
    fn gep_computes_element_addresses() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
        let base = b.param(0);
        let idx = b.const_(3);
        let p = b.gep(base, idx, 2); // base + (3+2)*8
        b.store_const(77, p, 0);
        b.ret(Some(p));
        m.add_function(b.finish());
        let compiled = compile(&m);
        let machine = Machine::new(MachineConfig::cores(1).small());
        let arr = machine.host_alloc(16, true);
        let out = run_workload(
            &machine,
            &compiled,
            &RuntimeConfig::with_mode(Mode::Htm),
            &[ThreadPlan {
                func: compiled.module.expect("thread_main"),
                args: vec![arr],
            }],
            1,
        );
        assert_eq!(machine.host_load(arr + 40), 77);
        assert_eq!(out.returns[0], arr + 40);
    }

    #[test]
    fn rand_is_deterministic_per_seed_and_bounded() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
            let bound = b.param(0);
            let acc = b.const_(0);
            let i = b.const_(0);
            let n = b.const_(50);
            b.while_(
                |b| b.lt(i, n),
                |b| {
                    let r = b.rand(bound);
                    // every draw must be < bound
                    let ok = b.lt(r, bound);
                    let bad = b.eqi(ok, 0);
                    b.if_(bad, |b| b.ret_const(u64::MAX));
                    let s = b.add(acc, r);
                    b.assign(acc, s);
                    let nx = b.addi(i, 1);
                    b.assign(i, nx);
                },
            );
            b.ret(Some(acc));
            m.add_function(b.finish());
        };
        let (a, _) = eval(build, vec![17]);
        assert_ne!(a, u64::MAX, "all draws bounded");
        let build2 = |m: &mut Module| build(m);
        let (b, _) = eval(build2, vec![17]);
        assert_eq!(a, b, "same seed, same stream");
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics_with_context() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
            let x = b.param(0);
            let z = b.const_(0);
            let q = b.bin(tm_ir::BinOp::Div, x, z);
            b.ret(Some(q));
            m.add_function(b.finish());
        };
        eval(build, vec![5]);
    }

    #[test]
    #[should_panic(expected = "null dereference")]
    fn null_dereference_panics_with_context() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("thread_main", 0, FuncKind::Normal);
            let z = b.const_(0);
            let v = b.load(z, 0);
            b.ret(Some(v));
            m.add_function(b.finish());
        };
        eval(build, vec![]);
    }

    #[test]
    fn alloc_inside_transaction_yields_usable_memory() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("tx_make", 0, FuncKind::Atomic { ab_id: 0 });
            let p = b.alloc_const(2, true);
            b.store_const(41, p, 0);
            let v = b.load(p, 0);
            let v2 = b.addi(v, 1);
            b.store(v2, p, 1);
            let out = b.load(p, 1);
            b.ret(Some(out));
            let tx = m.add_function(b.finish());
            let mut b = FuncBuilder::new("thread_main", 0, FuncKind::Normal);
            let r = b.call(tx, &[]);
            b.ret(Some(r));
            m.add_function(b.finish());
        };
        let (r, _) = eval(build, vec![]);
        assert_eq!(r, 42);
    }

    #[test]
    fn nested_normal_calls_return_through_frames() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("leaf", 1, FuncKind::Normal);
            let v = b.addi(b.param(0), 1);
            b.ret(Some(v));
            let leaf = m.add_function(b.finish());
            let mut b = FuncBuilder::new("mid", 1, FuncKind::Normal);
            let v = b.call(leaf, &[b.param(0)]);
            let v2 = b.call(leaf, &[v]);
            b.ret(Some(v2));
            let mid = m.add_function(b.finish());
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
            let r = b.call(mid, &[b.param(0)]);
            b.ret(Some(r));
            m.add_function(b.finish());
        };
        let (r, _) = eval(build, vec![40]);
        assert_eq!(r, 42);
    }

    #[test]
    fn deep_normal_call_chain_returns_through_its_frames() {
        // d0(x) = x and d_i(x) = d_{i-1}(x + 1) + x: every level's own `x`
        // must survive the 32 frames above it.
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("d0", 1, FuncKind::Normal);
            b.ret(Some(b.param(0)));
            let mut below = m.add_function(b.finish());
            for i in 1..=32 {
                let mut b = FuncBuilder::new(&format!("d{i}"), 1, FuncKind::Normal);
                let x = b.param(0);
                let x1 = b.addi(x, 1);
                let y = b.call(below, &[x1]);
                let s = b.add(y, x);
                b.ret(Some(s));
                below = m.add_function(b.finish());
            }
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
            let r = b.call(below, &[b.param(0)]);
            b.ret(Some(r));
            m.add_function(b.finish());
        };
        let want = (100..132).sum::<u64>() + 132;
        assert_eq!(eval(build, vec![100]).0, want);
    }

    #[test]
    fn atomic_entry_function_runs_as_one_transaction() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("inc", 1, FuncKind::Normal);
            let v = b.addi(b.param(0), 1);
            b.ret(Some(v));
            let inc = m.add_function(b.finish());
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Atomic { ab_id: 0 });
            let p = b.alloc_const(1, true);
            let v = b.call(inc, &[b.param(0)]);
            b.store(v, p, 0);
            let w = b.load(p, 0);
            b.ret(Some(w));
            m.add_function(b.finish());
        };
        let (r, machine) = eval(build, vec![41]);
        assert_eq!(r, 42);
        let agg = machine.stats().aggregate();
        assert_eq!((agg.commits, agg.irrevocable_commits), (1, 0));
        // The store, the load and the global-lock subscription all ran in
        // the transaction: it did not commit when `inc` returned.
        assert_eq!((agg.tx_mem_ops, agg.nt_mem_ops), (3, 0));
    }

    #[test]
    fn abort_in_a_helper_retries_with_the_original_arguments() {
        // tx_add(p, k) adds k to *p through a helper; both functions
        // overwrite their own parameters before using copies of them, and
        // the helper's read-modify-write window invites conflict aborts.
        let mut m = Module::new();
        let mut b = FuncBuilder::new("add_to", 2, FuncKind::Normal);
        let (p, k) = (b.param(0), b.param(1));
        let (q, d) = (b.mov(p), b.mov(k));
        b.assign_const(p, 0);
        b.assign_const(k, 0);
        let v = b.load(q, 0);
        b.compute(30);
        let v2 = b.add(v, d);
        b.store(v2, q, 0);
        b.ret(None);
        let add_to = m.add_function(b.finish());
        let mut b = FuncBuilder::new("tx_add", 2, FuncKind::Atomic { ab_id: 0 });
        let (p, k) = (b.param(0), b.param(1));
        let (q, d) = (b.mov(p), b.mov(k));
        b.assign_const(p, 0);
        b.assign_const(k, 0);
        b.call_void(add_to, &[q, d]);
        b.ret(None);
        let tx_add = m.add_function(b.finish());
        let mut b = FuncBuilder::new("thread_main", 3, FuncKind::Normal);
        let (p, k, n) = (b.param(0), b.param(1), b.param(2));
        let i = b.const_(0);
        b.while_(
            |b| b.lt(i, n),
            |b| {
                b.call_void(tx_add, &[p, k]);
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.ret(None);
        m.add_function(b.finish());

        let compiled = compile(&m);
        let machine = Machine::new(MachineConfig::cores(2).small());
        let counter = machine.host_alloc(8, true);
        let plan = ThreadPlan {
            func: compiled.module.expect("thread_main"),
            args: vec![counter, 3, 40],
        };
        let out = run_workload(
            &machine,
            &compiled,
            &RuntimeConfig::with_mode(Mode::Htm),
            &[plan.clone(), plan],
            5,
        );
        assert!(out.sim.aggregate().conflict_aborts > 0, "the cores contend");
        assert_eq!(machine.host_load(counter), 2 * 40 * 3);
    }

    #[test]
    fn uops_counted_exclude_alpoints() {
        // An atomic block with one anchored access: the ALPoint itself must
        // not inflate the µ-op count.
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("tx", 1, FuncKind::Atomic { ab_id: 0 });
            let p = b.param(0);
            let v = b.load(p, 0);
            b.ret(Some(v));
            let tx = m.add_function(b.finish());
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
            let r = b.call(tx, &[b.param(0)]);
            b.ret(Some(r));
            m.add_function(b.finish());
        };
        let mut m = Module::new();
        build(&mut m);
        let compiled = compile(&m);
        let machine = Machine::new(MachineConfig::cores(1).small());
        let a = machine.host_alloc(8, true);
        let out = run_workload(
            &machine,
            &compiled,
            &RuntimeConfig::with_mode(Mode::Staggered),
            &[ThreadPlan {
                func: compiled.module.expect("thread_main"),
                args: vec![a],
            }],
            1,
        );
        // tx body: load + ret = 2 µ-ops (ALPoint excluded).
        assert_eq!(out.exec.committed_insts, 2);
        assert_eq!(out.exec.committed_anchors, 1);
    }
}
