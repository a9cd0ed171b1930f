//! Instruction set of the IR.
//!
//! All values are untyped 64-bit words. Memory is word-addressed through
//! byte addresses that must be 8-byte aligned; `offset` fields are in
//! *words* (multiplied by 8 at execution time), mirroring the field offsets
//! a C front end would produce for all-64-bit structs.

use crate::ids::{BlockId, FuncId, Reg};

/// Two-operand integer arithmetic / bitwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Unsigned division; division by zero traps (interpreter error).
    Div,
    /// Unsigned remainder; remainder by zero traps.
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Comparison operators. `Lt`/`Le`/`Gt`/`Ge` are unsigned; the `S`-prefixed
/// variants reinterpret both operands as `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Slt,
    Sle,
    Sgt,
    Sge,
}

/// One IR instruction.
///
/// The memory-access forms (`Load`, `Store`, `LoadIdx`, `StoreIdx`) are the
/// instructions the Staggered Transactions compiler pass inspects: each is a
/// potential *anchor* (initial access to a data-structure node) in the sense
/// of the paper's Algorithm 1. `AlPoint` is the pseudo-instruction that pass
/// inserts; it never appears in hand-written programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst = value`
    Const { dst: Reg, value: u64 },
    /// `dst = src`
    Mov { dst: Reg, src: Reg },
    /// `dst = a <op> b`
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = (a <op> b) ? 1 : 0`
    Cmp { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = mem[base + offset*8]`
    Load { dst: Reg, base: Reg, offset: u32 },
    /// `mem[base + offset*8] = src`
    Store { src: Reg, base: Reg, offset: u32 },
    /// `dst = mem[base + (index + offset)*8]` — array indexing.
    LoadIdx {
        dst: Reg,
        base: Reg,
        index: Reg,
        offset: u32,
    },
    /// `mem[base + (index + offset)*8] = src`
    StoreIdx {
        src: Reg,
        base: Reg,
        index: Reg,
        offset: u32,
    },
    /// `dst = base + (index + offset)*8` — address computation without a
    /// memory access (LLVM's `getelementptr`).
    Gep {
        dst: Reg,
        base: Reg,
        index: Reg,
        offset: u32,
    },
    /// Allocate `words` 64-bit words from the simulated heap; `dst` receives
    /// the byte address. `line_align` pads the allocation to a cache-line
    /// boundary (used for data-structure nodes, as the paper's benchmarks do
    /// via their allocator, so distinct nodes never share a line).
    Alloc {
        dst: Reg,
        words: Reg,
        line_align: bool,
    },
    /// Call `func` with argument registers `args`; an atomic callee runs as
    /// a hardware transaction. `dst`, if present, receives the return value
    /// (0 if the callee returns none).
    Call {
        func: FuncId,
        args: Vec<Reg>,
        dst: Option<Reg>,
    },
    /// Return from the current function. Terminator.
    Ret { val: Option<Reg> },
    /// Unconditional branch. Terminator.
    Br { target: BlockId },
    /// Branch to `then_b` if `cond != 0`, else `else_b`. Terminator.
    CondBr {
        cond: Reg,
        then_b: BlockId,
        else_b: BlockId,
    },
    /// Spend `cycles` of purely local computation (models the non-memory
    /// µ-ops of the original benchmark between memory accesses).
    Compute { cycles: u32 },
    /// Advance the executing core's logical clock to at least the cycle
    /// count held in `cycle` (no-op when that deadline already passed).
    /// Purely local like `Compute` — it only widens the pending-cycle
    /// window — so it is deterministic under every scheduler. Open-loop
    /// load generators use it to park a thread until its next request's
    /// arrival timestamp.
    IdleUntil { cycle: Reg },
    /// `dst = uniform integer in [0, bound)` from the executing thread's
    /// deterministic PRNG. `bound` must be nonzero at run time.
    Rand { dst: Reg, bound: Reg },
    /// Advisory locking point, inserted by the compiler pass immediately
    /// before an anchor memory access. At run time this calls the
    /// `ALPoint` runtime routine with the *data address* the following
    /// access will touch, computed from `(base, index, offset)` exactly as
    /// the anchored instruction computes it (`index` absent for plain
    /// loads/stores).
    AlPoint {
        anchor: u32,
        base: Reg,
        index: Option<Reg>,
        offset: u32,
    },
}

impl Inst {
    /// Is this instruction a block terminator?
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Ret { .. } | Inst::Br { .. } | Inst::CondBr { .. }
        )
    }

    /// Is this a memory access (transactional load or store)?
    pub fn is_mem_access(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::LoadIdx { .. } | Inst::StoreIdx { .. }
        )
    }

    /// Is this a store (plain or indexed)?
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::StoreIdx { .. })
    }

    /// For a memory access, the `(base, index, offset)` triple describing
    /// the effective address `base + (index.unwrap_or(0) + offset) * 8`.
    pub fn mem_operands(&self) -> Option<(Reg, Option<Reg>, u32)> {
        match *self {
            Inst::Load { base, offset, .. } | Inst::Store { base, offset, .. } => {
                Some((base, None, offset))
            }
            Inst::LoadIdx {
                base,
                index,
                offset,
                ..
            }
            | Inst::StoreIdx {
                base,
                index,
                offset,
                ..
            } => Some((base, Some(index), offset)),
            _ => None,
        }
    }

    /// The register this instruction writes, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Inst::Const { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::LoadIdx { dst, .. }
            | Inst::Gep { dst, .. }
            | Inst::Alloc { dst, .. }
            | Inst::Rand { dst, .. } => Some(dst),
            Inst::Call { dst, .. } => dst,
            _ => None,
        }
    }

    /// The registers this instruction reads.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Inst::Const { .. } | Inst::Compute { .. } | Inst::Br { .. } => vec![],
            Inst::Mov { src, .. } => vec![*src],
            Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => vec![*a, *b],
            Inst::Load { base, .. } => vec![*base],
            Inst::Store { src, base, .. } => vec![*src, *base],
            Inst::LoadIdx { base, index, .. } => vec![*base, *index],
            Inst::StoreIdx {
                src, base, index, ..
            } => vec![*src, *base, *index],
            Inst::Gep { base, index, .. } => vec![*base, *index],
            Inst::Alloc { words, .. } => vec![*words],
            Inst::Call { args, .. } => args.clone(),
            Inst::Ret { val } => val.iter().copied().collect(),
            Inst::CondBr { cond, .. } => vec![*cond],
            Inst::Rand { bound, .. } => vec![*bound],
            Inst::IdleUntil { cycle } => vec![*cycle],
            Inst::AlPoint { base, index, .. } => {
                let mut v = vec![*base];
                v.extend(index.iter().copied());
                v
            }
        }
    }
}

impl BinOp {
    /// Apply the operation. Division/remainder by zero returns `None`.
    pub fn eval(self, a: u64, b: u64) -> Option<u64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => a.checked_div(b)?,
            BinOp::Rem => a.checked_rem(b)?,
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32),
            BinOp::Shr => a.wrapping_shr(b as u32),
        })
    }
}

impl CmpOp {
    /// Apply the comparison, returning 1 or 0.
    pub fn eval(self, a: u64, b: u64) -> u64 {
        let (sa, sb) = (a as i64, b as i64);
        let r = match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Slt => sa < sb,
            CmpOp::Sle => sa <= sb,
            CmpOp::Sgt => sa > sb,
            CmpOp::Sge => sa >= sb,
        };
        r as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_basics() {
        assert_eq!(BinOp::Add.eval(2, 3), Some(5));
        assert_eq!(BinOp::Sub.eval(2, 3), Some(u64::MAX)); // wraps
        assert_eq!(BinOp::Mul.eval(4, 5), Some(20));
        assert_eq!(BinOp::Div.eval(7, 2), Some(3));
        assert_eq!(BinOp::Div.eval(7, 0), None);
        assert_eq!(BinOp::Rem.eval(7, 0), None);
        assert_eq!(BinOp::Shl.eval(1, 12), Some(4096));
    }

    #[test]
    fn cmp_eval_signedness() {
        let neg1 = (-1i64) as u64;
        assert_eq!(CmpOp::Lt.eval(neg1, 1), 0); // unsigned: huge > 1
        assert_eq!(CmpOp::Slt.eval(neg1, 1), 1); // signed: -1 < 1
        assert_eq!(CmpOp::Eq.eval(5, 5), 1);
        assert_eq!(CmpOp::Ge.eval(5, 6), 0);
    }

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(3),
            a: Reg(1),
            b: Reg(2),
        };
        assert_eq!(i.def(), Some(Reg(3)));
        assert_eq!(i.uses(), vec![Reg(1), Reg(2)]);
        assert!(!i.is_terminator());

        let s = Inst::StoreIdx {
            src: Reg(0),
            base: Reg(1),
            index: Reg(2),
            offset: 4,
        };
        assert!(s.is_mem_access());
        assert!(s.is_store());
        assert_eq!(s.mem_operands(), Some((Reg(1), Some(Reg(2)), 4)));
        assert_eq!(s.def(), None);
    }

    #[test]
    fn terminators() {
        assert!(Inst::Ret { val: None }.is_terminator());
        assert!(Inst::Br { target: BlockId(0) }.is_terminator());
        assert!(!Inst::Compute { cycles: 3 }.is_terminator());
    }
}
