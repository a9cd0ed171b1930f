//! # stagger-compiler — the Staggered Transactions compiler pass
//!
//! Reproduces Section 3 of the paper on top of `tm-ir` + `tm-dsa`:
//!
//! 1. **Local anchor tables** ([`anchor`]) — Algorithm 1: walking each
//!    function's dominator tree depth-first, classify every load/store as an
//!    *anchor* (the initial access to a DSNode on some execution path) or a
//!    *non-anchor* with a *pioneer* (the anchor that accesses the same
//!    node), and link anchors to *parent* nodes through which their pointer
//!    was loaded.
//! 2. **Unified anchor tables** ([`unified`]) — one per atomic block,
//!    merging the local tables of every transitively-called function with
//!    DSNodes mapped into the atomic block's bottom-up DSA graph; parent
//!    links missing locally (pointers passed via arguments) are completed
//!    here, making the tables context-sensitive per atomic block.
//! 3. **Instrumentation** ([`instrument`]) — a call to the runtime's
//!    `ALPoint` (the [`tm_ir::Inst::AlPoint`] pseudo-instruction) is
//!    inserted immediately before every anchor, carrying a globally unique
//!    anchor id and the address operands of the anchored access.
//! 4. **PC emission** — after layout, every table entry carries the
//!    program counter of its memory access: indexed at full width, and
//!    searched by the hardware's tag (the low `pc_tag_bits` bits of the
//!    machine's config, aliasing and all), so the runtime's `SearchByPC`
//!    behaves exactly as on the paper's simulator.
//!
//! The entry point is [`compile`].

pub mod anchor;
pub mod instrument;
pub mod unified;

use std::collections::HashMap;
use tm_ir::{CodeLayout, FuncId, FuncKind, InstRef, Module, Pc};

pub use anchor::{build_local_anchor_table, ATEntry, LocalAnchorTable};
pub use instrument::instrument_module;
pub use unified::{build_unified_table, UatEntry, UnifiedAnchorTable};

/// Metadata for one advisory locking point (one instrumented anchor).
#[derive(Debug, Clone)]
pub struct AnchorInfo {
    /// The anchor's globally unique id (ids start at 1; 0 means "none",
    /// matching the runtime's cleared `activeAnchor`).
    pub id: u32,
    /// The anchored memory access, in instrumented-module coordinates.
    pub inst: InstRef,
    /// PC of the anchored memory access.
    pub pc: Pc,
    /// Function containing the anchor.
    pub func: FuncId,
}

/// Static instrumentation statistics (the "Static Stats" half of Table 3).
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Loads/stores analyzed in functions reachable from atomic blocks.
    pub loads_stores: usize,
    /// How many were instrumented as anchors.
    pub anchors: usize,
    /// Number of atomic blocks.
    pub atomic_blocks: usize,
}

impl CompileStats {
    /// Fraction of loads/stores instrumented (the paper reports 13% on
    /// average across benchmarks).
    pub fn anchor_fraction(&self) -> f64 {
        if self.loads_stores == 0 {
            0.0
        } else {
            self.anchors as f64 / self.loads_stores as f64
        }
    }
}

/// Output of the compiler pass.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The instrumented module (ALPoint calls inserted).
    pub module: Module,
    /// PC assignment for the instrumented module.
    pub layout: CodeLayout,
    /// Unified anchor table per atomic-block id.
    pub tables: HashMap<u32, UnifiedAnchorTable>,
    /// Anchor registry, indexed by anchor id (`anchors[0]` is a dummy).
    pub anchors: Vec<AnchorInfo>,
    pub stats: CompileStats,
}

impl Compiled {
    /// The unified anchor table of atomic block `ab_id`.
    pub fn table(&self, ab_id: u32) -> &UnifiedAnchorTable {
        self.tables
            .get(&ab_id)
            .unwrap_or_else(|| panic!("no anchor table for atomic block {ab_id}"))
    }

    /// Anchor metadata by id.
    pub fn anchor(&self, id: u32) -> &AnchorInfo {
        &self.anchors[id as usize]
    }
}

/// Run the whole pass: DSA → local tables → instrumentation → unified
/// tables → PC indexing.
pub fn compile(module: &Module) -> Compiled {
    tm_ir::verify_module(module).expect("input module must verify");
    let dsa = tm_dsa::analyze_module(module);

    // Functions reachable from any atomic block, in deterministic order.
    let atomic_roots: Vec<FuncId> = module.atomic_funcs();
    let reachable = module.reachable_from(&atomic_roots);

    // Stage 1: local anchor tables for every reachable function.
    let mut locals: HashMap<FuncId, LocalAnchorTable> = HashMap::new();
    let mut stats = CompileStats {
        atomic_blocks: atomic_roots.len(),
        ..CompileStats::default()
    };
    for &f in &reachable {
        let t = build_local_anchor_table(module, f, dsa.func(f));
        stats.loads_stores += t.entries.len();
        stats.anchors += t.entries.iter().filter(|e| e.is_anchor).count();
        locals.insert(f, t);
    }

    // Stage 2: assign global anchor ids in deterministic (function, block,
    // index) order and instrument.
    let anchor_insts: Vec<InstRef> = {
        let mut all: Vec<InstRef> = locals
            .values()
            .flat_map(|t| t.entries.iter().filter(|e| e.is_anchor).map(|e| e.inst))
            .collect();
        all.sort();
        all
    };
    let anchor_id_of: HashMap<InstRef, u32> = anchor_insts
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, (i + 1) as u32))
        .collect();

    let (new_module, remap) = instrument_module(module, &anchor_id_of);
    let layout = CodeLayout::build(&new_module);

    // Anchor registry in instrumented coordinates.
    let mut anchors = vec![AnchorInfo {
        id: 0,
        inst: InstRef {
            func: FuncId(0),
            block: tm_ir::BlockId(0),
            idx: 0,
        },
        pc: 0,
        func: FuncId(0),
    }];
    for (i, &old) in anchor_insts.iter().enumerate() {
        let new = remap[&old];
        anchors.push(AnchorInfo {
            id: (i + 1) as u32,
            inst: new,
            pc: layout.pc(new),
            func: new.func,
        });
    }

    // Stage 3: unified anchor tables per atomic block.
    let mut tables = HashMap::new();
    for &root in &atomic_roots {
        let FuncKind::Atomic { ab_id } = module.func(root).kind else {
            unreachable!()
        };
        let t = build_unified_table(
            module,
            root,
            ab_id,
            &dsa,
            &locals,
            &anchor_id_of,
            &remap,
            &layout,
        );
        assert!(
            tables.insert(ab_id, t).is_none(),
            "duplicate atomic block id {ab_id}"
        );
    }

    tm_ir::verify_module(&new_module).expect("instrumented module must verify");
    Compiled {
        module: new_module,
        layout,
        tables,
        anchors,
        stats,
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use tm_ir::{FuncBuilder, FuncKind, Module};

    /// The Figure 3 genome-like shape used across the compiler tests.
    pub fn genome_like() -> Module {
        let mut m = Module::new();

        let mut b = FuncBuilder::new("TMlist_find", 1, FuncKind::Normal);
        let list = b.param(0);
        let node = b.load(list, 0); // anchor (head load)
        b.while_(
            |b| b.nei(node, 0),
            |b| {
                let _key = b.load(node, 2); // same collapsed node
                let nx = b.load(node, 1);
                b.assign(node, nx);
            },
        );
        b.ret(Some(node));
        let list_find = m.add_function(b.finish());

        let mut b = FuncBuilder::new("hashtable_insert", 2, FuncKind::Normal);
        let (ht, k) = (b.param(0), b.param(1));
        let nb = b.load(ht, 0); // anchor: numBucket
        let i = b.bin(tm_ir::BinOp::Rem, k, nb);
        let bucket = b.load_idx(ht, i, 1); // non-anchor (same ht node)
        let r = b.call(list_find, &[bucket]);
        b.ret(Some(r));
        m.add_function(b.finish());

        let mut b = FuncBuilder::new("tx_insert", 2, FuncKind::Atomic { ab_id: 0 });
        let (ht, k) = (b.param(0), b.param(1));
        let insert = m.expect("hashtable_insert");
        let r = b.call(insert, &[ht, k]);
        b.ret(Some(r));
        m.add_function(b.finish());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::genome_like;
    use super::*;
    use tm_ir::{FuncBuilder, Inst};

    #[test]
    fn compile_genome_like_end_to_end() {
        let m = genome_like();
        let c = compile(&m);
        assert_eq!(c.stats.atomic_blocks, 1);
        assert!(c.stats.anchors >= 2);
        assert!(c.stats.anchors < c.stats.loads_stores);

        // Instrumented module has one AlPoint per anchor.
        let n_alpoints: usize = c
            .module
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.insts.iter())
            .filter(|i| matches!(i, Inst::AlPoint { .. }))
            .count();
        assert_eq!(n_alpoints, c.stats.anchors);
        assert_eq!(c.anchors.len(), c.stats.anchors + 1);

        // Every anchor's PC resolves back to a memory access.
        for a in &c.anchors[1..] {
            let inst = c.module.inst(a.inst);
            assert!(inst.is_mem_access(), "anchor {} -> {:?}", a.id, inst);
            assert_eq!(c.layout.pc(a.inst), a.pc);
        }

        let t = c.table(0);
        assert!(!t.entries.is_empty());
    }

    #[test]
    fn anchor_ids_dense_from_zero_dummy() {
        let m = genome_like();
        let c = compile(&m);
        for (i, a) in c.anchors.iter().enumerate() {
            assert_eq!(a.id as usize, i);
        }
    }

    #[test]
    fn uninstrumented_function_untouched() {
        let mut m = genome_like();
        // A function not reachable from any atomic block.
        let mut b = FuncBuilder::new("cold", 1, tm_ir::FuncKind::Normal);
        let p = b.param(0);
        let v = b.load(p, 0);
        b.ret(Some(v));
        m.add_function(b.finish());
        let c = compile(&m);
        let cold = c.module.expect("cold");
        let has_alp = c.module.funcs[cold.index()]
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .any(|i| matches!(i, Inst::AlPoint { .. }));
        assert!(!has_alp);
    }
}
