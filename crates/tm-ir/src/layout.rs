//! Code layout: assignment of synthetic program counters.
//!
//! After instrumentation, every instruction is assigned a 4-byte slot in a
//! synthetic text segment starting at [`TEXT_BASE`]. These addresses are the
//! "PCs" the simulated hardware records (their low bits) in its per-line PC tag
//! and reports on contention aborts, and they index the unified anchor
//! tables the runtime consults — exactly the role instruction addresses play
//! in the paper (Sections 3.4 and 4).
//!
//! Because the hardware tag keeps only the low 12 bits, two instructions
//! whose PCs are equal mod 4096 alias; with 4-byte slots that is one
//! aliasing class per 1024 instructions, so the Table 3 accuracy experiment
//! exercises real aliasing, not a simulation artifact.

use crate::func::Module;
use crate::ids::{FuncId, InstRef};
use std::collections::HashMap;

/// Base address of the synthetic text segment (mirrors the default load
/// address of a non-PIE x86-64 binary).
pub const TEXT_BASE: u64 = 0x40_0000;

/// Bytes per instruction slot.
pub const INST_BYTES: u64 = 4;

/// A synthetic program counter.
pub type Pc = u64;

/// Bidirectional map between instructions and program counters.
#[derive(Debug, Clone)]
pub struct CodeLayout {
    pc_of: HashMap<InstRef, Pc>,
    inst_of: HashMap<Pc, InstRef>,
    /// First PC of each function, in function order.
    func_base: Vec<Pc>,
    end: Pc,
}

impl CodeLayout {
    /// Lay out every function of `module` in index order, blocks in index
    /// order, instructions in sequence.
    pub fn build(module: &Module) -> CodeLayout {
        let mut pc_of = HashMap::new();
        let mut inst_of = HashMap::new();
        let mut func_base = Vec::with_capacity(module.funcs.len());
        let mut pc = TEXT_BASE;
        for (fid, f) in module.iter_funcs() {
            func_base.push(pc);
            for (bid, blk) in f.iter_blocks() {
                for idx in 0..blk.insts.len() {
                    let r = InstRef {
                        func: fid,
                        block: bid,
                        idx: idx as u32,
                    };
                    pc_of.insert(r, pc);
                    inst_of.insert(pc, r);
                    pc += INST_BYTES;
                }
            }
        }
        CodeLayout {
            pc_of,
            inst_of,
            func_base,
            end: pc,
        }
    }

    /// The PC of an instruction.
    pub fn pc(&self, r: InstRef) -> Pc {
        *self.pc_of.get(&r).unwrap_or_else(|| {
            panic!("no PC for {r} — was the module re-instrumented after layout?")
        })
    }

    /// The instruction at a PC, if any.
    pub fn inst_at(&self, pc: Pc) -> Option<InstRef> {
        self.inst_of.get(&pc).copied()
    }

    /// First PC of a function.
    pub fn func_start(&self, f: FuncId) -> Pc {
        self.func_base[f.index()]
    }

    /// The function whose text range contains `pc`, if any — the inverse
    /// of [`CodeLayout::func_start`], for resolving profiled PCs back to
    /// names. `func_base` is built in ascending PC order, so this is a
    /// binary search.
    pub fn func_at(&self, pc: Pc) -> Option<FuncId> {
        if pc >= self.end {
            return None;
        }
        let i = self.func_base.partition_point(|&base| base <= pc);
        i.checked_sub(1).map(|i| FuncId(i as u32))
    }

    /// One past the last assigned PC.
    pub fn text_end(&self) -> Pc {
        self.end
    }

    /// Total number of laid-out instructions.
    pub fn n_insts(&self) -> usize {
        self.pc_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::func::{FuncKind, Module};

    fn two_func_module() -> Module {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("f", 1, FuncKind::Normal);
        let x = b.addi(b.param(0), 1);
        b.ret(Some(x));
        m.add_function(b.finish());
        let mut b = FuncBuilder::new("g", 0, FuncKind::Normal);
        b.compute(5);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn pcs_are_dense_and_bijective() {
        let m = two_func_module();
        let l = CodeLayout::build(&m);
        let n: usize = m.funcs.iter().map(|f| f.n_insts()).sum();
        assert_eq!(l.n_insts(), n);
        assert_eq!(l.text_end(), TEXT_BASE + (n as u64) * INST_BYTES);
        for i in 0..n as u64 {
            let pc = TEXT_BASE + i * INST_BYTES;
            let r = l.inst_at(pc).expect("dense");
            assert_eq!(l.pc(r), pc);
        }
        assert_eq!(l.inst_at(TEXT_BASE - 4), None);
        assert_eq!(l.inst_at(l.text_end()), None);
    }

    #[test]
    fn func_start_ordering() {
        let m = two_func_module();
        let l = CodeLayout::build(&m);
        let f = m.expect("f");
        let g = m.expect("g");
        assert_eq!(l.func_start(f), TEXT_BASE);
        assert!(l.func_start(g) > l.func_start(f));
    }

    #[test]
    fn func_at_inverts_func_start() {
        let m = two_func_module();
        let l = CodeLayout::build(&m);
        let f = m.expect("f");
        let g = m.expect("g");
        assert_eq!(l.func_at(l.func_start(f)), Some(f));
        assert_eq!(l.func_at(l.func_start(g)), Some(g));
        assert_eq!(l.func_at(l.func_start(g) - INST_BYTES), Some(f));
        assert_eq!(l.func_at(l.text_end() - INST_BYTES), Some(g));
        assert_eq!(l.func_at(l.text_end()), None, "past the text segment");
        assert_eq!(l.func_at(TEXT_BASE - 4), None, "before the text segment");
    }
}
