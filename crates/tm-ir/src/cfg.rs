//! Control-flow graph over a function's basic blocks.

use crate::func::Function;
use crate::ids::BlockId;
use crate::inst::Inst;

/// Successor/predecessor maps and a reverse postorder for one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub succs: Vec<Vec<BlockId>>,
    pub preds: Vec<Vec<BlockId>>,
    /// Blocks reachable from the entry, in reverse postorder (entry first).
    pub rpo: Vec<BlockId>,
    /// `rpo_index[b] = Some(position of b in rpo)`; `None` for unreachable
    /// blocks.
    pub rpo_index: Vec<Option<u32>>,
}

/// Successors of a single block, read off its terminator.
pub fn block_successors(f: &Function, b: BlockId) -> Vec<BlockId> {
    match f.block(b).terminator() {
        Some(Inst::Br { target }) => vec![*target],
        Some(Inst::CondBr { then_b, else_b, .. }) => {
            if then_b == else_b {
                vec![*then_b]
            } else {
                vec![*then_b, *else_b]
            }
        }
        _ => vec![],
    }
}

impl Cfg {
    /// Build the CFG of `f`.
    pub fn build(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (b, _) in f.iter_blocks() {
            for s in block_successors(f, b) {
                succs[b.index()].push(s);
                preds[s.index()].push(b);
            }
        }

        // Postorder DFS from the entry, then reverse.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        // Iterative DFS with an explicit stack of (block, next-succ-index).
        let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
        visited[f.entry.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b.index()].len() {
                let s = succs[b.index()][*i];
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        let rpo = post;
        let mut rpo_index = vec![None; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = Some(i as u32);
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_index,
        }
    }

    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::func::FuncKind;

    #[test]
    fn diamond_cfg() {
        let mut b = FuncBuilder::new("d", 1, FuncKind::Normal);
        let c = b.eqi(b.param(0), 0);
        let out = b.reg();
        b.if_else(c, |b| b.assign_const(out, 1), |b| b.assign_const(out, 2));
        b.ret(Some(out));
        let f = b.finish();
        let cfg = Cfg::build(&f);
        // entry(0) -> then(1), else(2); both -> join(3)
        assert_eq!(cfg.succs[0], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.succs[1], vec![BlockId(3)]);
        assert_eq!(cfg.succs[2], vec![BlockId(3)]);
        assert_eq!(cfg.preds[3], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(*cfg.rpo.last().unwrap(), BlockId(3));
        assert_eq!(cfg.rpo.len(), 4);
    }

    #[test]
    fn loop_cfg_reaches_all_blocks() {
        let mut b = FuncBuilder::new("l", 1, FuncKind::Normal);
        let n = b.param(0);
        let i = b.const_(0);
        b.while_(
            |b| b.lt(i, n),
            |b| {
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.ret(Some(i));
        let f = b.finish();
        let cfg = Cfg::build(&f);
        for (bid, blk) in f.iter_blocks() {
            if !blk.insts.is_empty() {
                assert!(cfg.is_reachable(bid) || blk.insts.len() == 1, "{bid}");
            }
        }
        // back edge exists: header has >= 2 predecessors
        let header = BlockId(1);
        assert!(cfg.preds[header.index()].len() >= 2);
    }

    #[test]
    fn cond_br_same_target_dedups() {
        use crate::func::{Block, Function};
        use crate::ids::Reg;
        use crate::inst::Inst;
        let f = Function {
            name: "same".into(),
            kind: FuncKind::Normal,
            n_params: 1,
            n_regs: 1,
            blocks: vec![
                Block {
                    insts: vec![Inst::CondBr {
                        cond: Reg(0),
                        then_b: BlockId(1),
                        else_b: BlockId(1),
                    }],
                },
                Block {
                    insts: vec![Inst::Ret { val: None }],
                },
            ],
            entry: BlockId(0),
        };
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.succs[0], vec![BlockId(1)]);
        assert_eq!(cfg.preds[1], vec![BlockId(0)]);
    }
}
