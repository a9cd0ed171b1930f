//! Structured function builder.
//!
//! The ten benchmarks are authored against this API, which plays the role of
//! the C front end in the paper's toolchain: it wires basic blocks for
//! `while`/`if`/`loop` constructs so the workload code reads like the STAMP
//! sources it models.

use crate::func::{Block, FuncKind, Function};
use crate::ids::{BlockId, Reg};
use crate::inst::{BinOp, CmpOp, Inst};
use crate::FuncId;

/// Handle for an in-progress loop created by [`FuncBuilder::begin_loop`].
#[derive(Debug, Clone, Copy)]
pub struct LoopHandle {
    pub header: BlockId,
    pub exit: BlockId,
}

/// Builds one [`Function`] with structured control flow.
///
/// Instructions are appended to the *current* block; `if_`, `if_else`,
/// `while_` and the `begin_loop`/`break_if`/`end_loop` trio create and wire
/// blocks. Emitting an instruction into an already-terminated block panics —
/// that is always an authoring bug.
pub struct FuncBuilder {
    func: Function,
    cur: BlockId,
}

impl FuncBuilder {
    /// Start a function. Parameters occupy registers `0..n_params`.
    pub fn new(name: &str, n_params: u32, kind: FuncKind) -> Self {
        let func = Function {
            name: name.to_string(),
            kind,
            n_params,
            n_regs: n_params,
            blocks: vec![Block::default()],
            entry: BlockId(0),
        };
        FuncBuilder {
            func,
            cur: BlockId(0),
        }
    }

    /// Register holding the `i`-th parameter.
    pub fn param(&self, i: u32) -> Reg {
        assert!(i < self.func.n_params, "param {i} out of range");
        Reg(i)
    }

    /// Allocate a fresh register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.func.n_regs);
        self.func.n_regs += 1;
        r
    }

    fn cur_block_mut(&mut self) -> &mut Block {
        let c = self.cur;
        self.func.block_mut(c)
    }

    fn terminated(&self) -> bool {
        self.func.block(self.cur).terminator().is_some()
    }

    /// Append a raw instruction to the current block.
    pub fn emit(&mut self, inst: Inst) {
        assert!(
            !self.terminated(),
            "emitting {inst:?} into terminated block {} of {}",
            self.cur,
            self.func.name
        );
        self.cur_block_mut().insts.push(inst);
    }

    /// Create a new, empty block (does not switch to it).
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::default());
        id
    }

    /// Make `b` the current insertion block.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    // ----- straight-line emitters ---------------------------------------

    /// `dst = value`, in a fresh register.
    pub fn const_(&mut self, value: u64) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Const { dst, value });
        dst
    }

    /// Copy `src` into a fresh register.
    pub fn mov(&mut self, src: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Mov { dst, src });
        dst
    }

    /// Assign `src` to the existing register `dst` (mutation — the IR is
    /// not SSA; loop induction variables use this).
    pub fn assign(&mut self, dst: Reg, src: Reg) {
        self.emit(Inst::Mov { dst, src });
    }

    /// Assign a constant to an existing register.
    pub fn assign_const(&mut self, dst: Reg, value: u64) {
        self.emit(Inst::Const { dst, value });
    }

    pub fn bin(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Bin { op, dst, a, b });
        dst
    }

    pub fn add(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Add, a, b)
    }

    pub fn sub(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Sub, a, b)
    }

    pub fn mul(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Mul, a, b)
    }

    /// `a + imm` (materializes the immediate).
    pub fn addi(&mut self, a: Reg, imm: u64) -> Reg {
        let c = self.const_(imm);
        self.add(a, c)
    }

    /// `a - imm`.
    pub fn subi(&mut self, a: Reg, imm: u64) -> Reg {
        let c = self.const_(imm);
        self.sub(a, c)
    }

    /// `a % imm`.
    pub fn remi(&mut self, a: Reg, imm: u64) -> Reg {
        let c = self.const_(imm);
        self.bin(BinOp::Rem, a, c)
    }

    pub fn cmp(&mut self, op: CmpOp, a: Reg, b: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Cmp { op, dst, a, b });
        dst
    }

    pub fn eq(&mut self, a: Reg, b: Reg) -> Reg {
        self.cmp(CmpOp::Eq, a, b)
    }

    pub fn ne(&mut self, a: Reg, b: Reg) -> Reg {
        self.cmp(CmpOp::Ne, a, b)
    }

    pub fn lt(&mut self, a: Reg, b: Reg) -> Reg {
        self.cmp(CmpOp::Lt, a, b)
    }

    pub fn le(&mut self, a: Reg, b: Reg) -> Reg {
        self.cmp(CmpOp::Le, a, b)
    }

    pub fn gt(&mut self, a: Reg, b: Reg) -> Reg {
        self.cmp(CmpOp::Gt, a, b)
    }

    pub fn ge(&mut self, a: Reg, b: Reg) -> Reg {
        self.cmp(CmpOp::Ge, a, b)
    }

    /// `a == imm`.
    pub fn eqi(&mut self, a: Reg, imm: u64) -> Reg {
        let c = self.const_(imm);
        self.eq(a, c)
    }

    /// `a != imm`.
    pub fn nei(&mut self, a: Reg, imm: u64) -> Reg {
        let c = self.const_(imm);
        self.ne(a, c)
    }

    /// `mem[base + offset*8]` into a fresh register.
    pub fn load(&mut self, base: Reg, offset: u32) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Load { dst, base, offset });
        dst
    }

    /// `mem[base + offset*8] = src`.
    pub fn store(&mut self, src: Reg, base: Reg, offset: u32) {
        self.emit(Inst::Store { src, base, offset });
    }

    /// Store an immediate.
    pub fn store_const(&mut self, value: u64, base: Reg, offset: u32) {
        let src = self.const_(value);
        self.store(src, base, offset);
    }

    /// `mem[base + (index+offset)*8]` into a fresh register.
    pub fn load_idx(&mut self, base: Reg, index: Reg, offset: u32) -> Reg {
        let dst = self.reg();
        self.emit(Inst::LoadIdx {
            dst,
            base,
            index,
            offset,
        });
        dst
    }

    /// `mem[base + (index+offset)*8] = src`.
    pub fn store_idx(&mut self, src: Reg, base: Reg, index: Reg, offset: u32) {
        self.emit(Inst::StoreIdx {
            src,
            base,
            index,
            offset,
        });
    }

    /// Address computation `base + (index+offset)*8` without memory access.
    pub fn gep(&mut self, base: Reg, index: Reg, offset: u32) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Gep {
            dst,
            base,
            index,
            offset,
        });
        dst
    }

    /// Heap allocation of `words` 64-bit words (register-sized count).
    pub fn alloc(&mut self, words: Reg, line_align: bool) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Alloc {
            dst,
            words,
            line_align,
        });
        dst
    }

    /// Heap allocation of a constant number of words.
    pub fn alloc_const(&mut self, words: u64, line_align: bool) -> Reg {
        let w = self.const_(words);
        self.alloc(w, line_align)
    }

    /// Call returning a value.
    pub fn call(&mut self, func: FuncId, args: &[Reg]) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Call {
            func,
            args: args.to_vec(),
            dst: Some(dst),
        });
        dst
    }

    /// Call discarding any return value.
    pub fn call_void(&mut self, func: FuncId, args: &[Reg]) {
        self.emit(Inst::Call {
            func,
            args: args.to_vec(),
            dst: None,
        });
    }

    /// Model `cycles` of local (non-memory) computation.
    pub fn compute(&mut self, cycles: u32) {
        self.emit(Inst::Compute { cycles });
    }

    /// Park the executing core until the cycle count held in `cycle`
    /// (no-op when that deadline already passed).
    pub fn idle_until(&mut self, cycle: Reg) {
        self.emit(Inst::IdleUntil { cycle });
    }

    /// Uniform random integer in `[0, bound)`.
    pub fn rand(&mut self, bound: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Rand { dst, bound });
        dst
    }

    /// Uniform random integer below a constant bound.
    pub fn rand_below(&mut self, bound: u64) -> Reg {
        let b = self.const_(bound);
        self.rand(b)
    }

    // ----- terminators and structured control flow -----------------------

    pub fn ret(&mut self, val: Option<Reg>) {
        self.emit(Inst::Ret { val });
    }

    /// `return <constant>`.
    pub fn ret_const(&mut self, value: u64) {
        let v = self.const_(value);
        self.ret(Some(v));
    }

    pub fn br(&mut self, target: BlockId) {
        self.emit(Inst::Br { target });
    }

    pub fn cond_br(&mut self, cond: Reg, then_b: BlockId, else_b: BlockId) {
        self.emit(Inst::CondBr {
            cond,
            then_b,
            else_b,
        });
    }

    /// `if (cond) { then() }` — `cond` must already be computed in the
    /// current block.
    pub fn if_(&mut self, cond: Reg, then: impl FnOnce(&mut Self)) {
        let then_b = self.new_block();
        let join = self.new_block();
        self.cond_br(cond, then_b, join);
        self.switch_to(then_b);
        then(self);
        if !self.terminated() {
            self.br(join);
        }
        self.switch_to(join);
    }

    /// `if (cond) { then() } else { els() }`.
    pub fn if_else(
        &mut self,
        cond: Reg,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        let then_b = self.new_block();
        let else_b = self.new_block();
        let join = self.new_block();
        self.cond_br(cond, then_b, else_b);
        self.switch_to(then_b);
        then(self);
        if !self.terminated() {
            self.br(join);
        }
        self.switch_to(else_b);
        els(self);
        if !self.terminated() {
            self.br(join);
        }
        self.switch_to(join);
    }

    /// `while (cond()) { body() }`. `cond` is re-evaluated in the loop
    /// header on every iteration and must return the condition register.
    pub fn while_(&mut self, cond: impl FnOnce(&mut Self) -> Reg, body: impl FnOnce(&mut Self)) {
        let l = self.begin_loop();
        let c = cond(self);
        let negated = self.eqi(c, 0);
        self.break_if(l, negated);
        body(self);
        self.end_loop(l);
    }

    /// Open an unstructured loop: creates header and exit blocks, branches
    /// to the header, and switches to it. Pair with [`Self::end_loop`].
    pub fn begin_loop(&mut self) -> LoopHandle {
        let header = self.new_block();
        let exit = self.new_block();
        self.br(header);
        self.switch_to(header);
        LoopHandle { header, exit }
    }

    /// Exit loop `l` when `cond != 0`; otherwise fall through to a fresh
    /// continuation block.
    pub fn break_if(&mut self, l: LoopHandle, cond: Reg) {
        let cont = self.new_block();
        self.cond_br(cond, l.exit, cont);
        self.switch_to(cont);
    }

    /// Close loop `l`: branch back to the header (if the current block is
    /// still open) and continue building in the exit block.
    pub fn end_loop(&mut self, l: LoopHandle) {
        if !self.terminated() {
            self.br(l.header);
        }
        self.switch_to(l.exit);
    }

    /// Finish the function.
    ///
    /// # Panics
    /// Panics if any reachable block lacks a terminator; run
    /// [`crate::verify_function`] for deeper checks.
    pub fn finish(self) -> Function {
        for (i, b) in self.func.blocks.iter().enumerate() {
            // Unreachable empty join blocks are tolerated by giving them a
            // trivial `ret`, which keeps the verifier's life simple while
            // never executing.
            assert!(
                b.terminator().is_some() || b.insts.is_empty(),
                "block bb{i} of {} has instructions but no terminator",
                self.func.name
            );
        }
        let mut f = self.func;
        for b in &mut f.blocks {
            if b.insts.is_empty() {
                b.insts.push(Inst::Ret { val: None });
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_function;

    #[test]
    fn straight_line_function() {
        let mut b = FuncBuilder::new("add2", 2, FuncKind::Normal);
        let s = b.add(b.param(0), b.param(1));
        b.ret(Some(s));
        let f = b.finish();
        assert_eq!(f.n_insts(), 2);
        assert_eq!(f.n_params, 2);
        verify_function(&f, 1).unwrap();
    }

    #[test]
    fn if_else_wires_blocks() {
        let mut b = FuncBuilder::new("abs_diff", 2, FuncKind::Normal);
        let (x, y) = (b.param(0), b.param(1));
        let out = b.reg();
        let c = b.lt(x, y);
        b.if_else(
            c,
            |b| {
                let d = b.sub(y, x);
                b.assign(out, d);
            },
            |b| {
                let d = b.sub(x, y);
                b.assign(out, d);
            },
        );
        b.ret(Some(out));
        let f = b.finish();
        verify_function(&f, 1).unwrap();
        assert_eq!(f.blocks.len(), 4); // entry, then, else, join
    }

    #[test]
    fn while_loop_wires_blocks() {
        let mut b = FuncBuilder::new("count", 1, FuncKind::Normal);
        let n = b.param(0);
        let i = b.const_(0);
        b.while_(
            |b| b.lt(i, n),
            |b| {
                let next = b.addi(i, 1);
                b.assign(i, next);
            },
        );
        b.ret(Some(i));
        let f = b.finish();
        verify_function(&f, 1).unwrap();
    }

    #[test]
    fn begin_break_end_loop() {
        let mut b = FuncBuilder::new("first_ge", 2, FuncKind::Normal);
        let (arr, n) = (b.param(0), b.param(1));
        let i = b.const_(0);
        let l = b.begin_loop();
        let done = b.ge(i, n);
        b.break_if(l, done);
        let v = b.load_idx(arr, i, 0);
        let hit = b.gt(v, n);
        b.break_if(l, hit);
        let next = b.addi(i, 1);
        b.assign(i, next);
        b.end_loop(l);
        b.ret(Some(i));
        let f = b.finish();
        verify_function(&f, 1).unwrap();
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn emit_after_ret_panics() {
        let mut b = FuncBuilder::new("bad", 0, FuncKind::Normal);
        b.ret(None);
        b.const_(1);
    }

    #[test]
    fn atomic_kind_preserved() {
        let mut b = FuncBuilder::new("tx", 0, FuncKind::Atomic { ab_id: 7 });
        b.ret(None);
        let f = b.finish();
        assert!(f.is_atomic());
        assert_eq!(f.kind, FuncKind::Atomic { ab_id: 7 });
    }

    #[test]
    fn terminated_arms_skip_join_branch() {
        let mut b = FuncBuilder::new("early", 1, FuncKind::Normal);
        let x = b.param(0);
        let c = b.eqi(x, 0);
        b.if_(c, |b| b.ret_const(99));
        b.ret(Some(x));
        let f = b.finish();
        verify_function(&f, 1).unwrap();
    }
}
