//! Pre-flattened module representation for fast interpretation.
//!
//! The interpreter executes millions of instructions per run; looking up
//! each instruction's PC through `CodeLayout`'s hash map on every step
//! would dominate. `Prepared` pairs every instruction with its PC once,
//! up front.

use std::sync::Arc;

use stagger_compiler::Compiled;
use tm_ir::{BlockId, FuncKind, Inst, InstRef, Pc};

/// One basic block: instructions with their PCs.
pub type PreparedBlock = Vec<(Inst, Pc)>;

/// One function, flattened.
#[derive(Debug, Clone)]
pub struct PreparedFunc {
    /// Shared, not cloned per preparation: sweeps re-prepare workloads per
    /// cell, and an `Arc<str>` makes that a refcount bump instead of a
    /// string reallocation.
    pub name: Arc<str>,
    pub kind: FuncKind,
    pub n_params: u32,
    pub n_regs: u32,
    pub entry: BlockId,
    pub blocks: Vec<PreparedBlock>,
}

/// A whole instrumented module, ready to execute.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub funcs: Vec<PreparedFunc>,
}

impl Prepared {
    pub fn build(compiled: &Compiled) -> Prepared {
        let m = &compiled.module;
        let funcs = m
            .iter_funcs()
            .map(|(fid, f)| PreparedFunc {
                name: Arc::from(f.name.as_str()),
                kind: f.kind,
                n_params: f.n_params,
                n_regs: f.n_regs,
                entry: f.entry,
                blocks: f
                    .iter_blocks()
                    .map(|(bid, blk)| {
                        blk.insts
                            .iter()
                            .enumerate()
                            .map(|(idx, inst)| {
                                let r = InstRef {
                                    func: fid,
                                    block: bid,
                                    idx: idx as u32,
                                };
                                (inst.clone(), compiled.layout.pc(r))
                            })
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        Prepared { funcs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stagger_compiler::compile;
    use tm_ir::{FuncBuilder, Module, TEXT_BASE};

    #[test]
    fn prepared_mirrors_module_with_pcs() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("tx", 1, FuncKind::Atomic { ab_id: 0 });
        let p = b.param(0);
        let v = b.load(p, 0);
        let v2 = b.addi(v, 1);
        b.store(v2, p, 0);
        b.ret(None);
        m.add_function(b.finish());
        let c = compile(&m);
        let prep = Prepared::build(&c);
        assert_eq!(prep.funcs.len(), c.module.funcs.len());
        let f = &prep.funcs[0];
        assert_eq!(f.kind, FuncKind::Atomic { ab_id: 0 });
        // PCs ascend densely across the function.
        let mut pcs: Vec<Pc> = f
            .blocks
            .iter()
            .flat_map(|b| b.iter().map(|&(_, pc)| pc))
            .collect();
        let sorted = {
            let mut s = pcs.clone();
            s.sort();
            s
        };
        assert_eq!(pcs, sorted);
        assert_eq!(pcs.remove(0), TEXT_BASE);
    }
}
