//! Unified anchor tables (paper Section 3.3) and their PC searches.
//!
//! One table per atomic block, merging the local anchor tables of every
//! function transitively called from it, with DSNodes mapped into the
//! atomic block's bottom-up DSA graph. Parents that a local table could not
//! resolve (pointer arrived via a function argument) are completed here, so
//! the same anchor may have different parents in different atomic blocks'
//! tables — the context sensitivity the paper calls out.
//!
//! After code layout, the table is searchable by the PC of each memory
//! access — at full width (used by the software-CPC mode and ground truth)
//! and by the hardware's PC tag, the low `MachineConfig::pc_tag_bits` bits
//! (used by `SearchByPC` on a contention abort). Tag collisions are
//! resolved first-wins, which is precisely the accuracy loss Table 3
//! measures.

use crate::anchor::LocalAnchorTable;
use std::collections::HashMap;
use tm_dsa::{ModuleDsa, NodeId};
use tm_ir::{CodeLayout, FuncId, InstRef, Module, Pc};

/// One entry of a unified anchor table.
#[derive(Debug, Clone)]
pub struct UatEntry {
    /// The memory access, in *instrumented-module* coordinates.
    pub inst: InstRef,
    /// PC of the memory access in the instrumented layout.
    pub pc: Pc,
    pub is_anchor: bool,
    /// This access's anchor id (its own if an anchor, else its pioneer's) —
    /// what the runtime activates after `SearchByPC`.
    pub anchor_id: u32,
    /// The anchor id of the parent anchor (locking promotion target), if
    /// any. 0 = no parent, as in Figure 3's "Parent 0".
    pub parent_anchor: u32,
    /// DSNode in the atomic block's graph (diagnostics/tests).
    pub node: NodeId,
}

/// The per-atomic-block table the runtime consults (paper Figure 2, step 3;
/// consumed at run time in steps 7–8).
#[derive(Debug, Clone)]
pub struct UnifiedAnchorTable {
    pub ab_id: u32,
    /// Every access of the atomic block: PCs are distinct, and each anchor
    /// id has one entry of its own (`is_anchor`), so the scans below find
    /// the one match.
    pub entries: Vec<UatEntry>,
}

impl UnifiedAnchorTable {
    /// The paper's `SearchByPC` against the hardware-delivered
    /// conflicting-PC tag, the PC bits under `mask`
    /// (`MachineConfig::pc_tag_mask`). Returns the first entry whose memory
    /// access matches the tag, if the atomic block contains one.
    pub fn search_by_pc_tag(&self, tag: u16, mask: u64) -> Option<&UatEntry> {
        self.entries.iter().find(|e| e.pc & mask == u64::from(tag))
    }

    /// Exact full-PC lookup (ground truth / software-CPC path).
    pub fn search_by_pc(&self, pc: Pc) -> Option<&UatEntry> {
        self.entries.iter().find(|e| e.pc == pc)
    }

    /// The entry of an anchor id.
    pub fn anchor_entry(&self, id: u32) -> Option<&UatEntry> {
        self.entries
            .iter()
            .find(|e| e.is_anchor && e.anchor_id == id)
    }

    /// Parent anchor of `id` (0 if none).
    pub fn parent_of(&self, id: u32) -> u32 {
        self.anchor_entry(id).map_or(0, |e| e.parent_anchor)
    }

    /// Number of anchors in this table.
    pub fn n_anchors(&self) -> usize {
        self.entries.iter().filter(|e| e.is_anchor).count()
    }
}

/// Build the unified anchor table for atomic block `root`.
#[allow(clippy::too_many_arguments)]
pub fn build_unified_table(
    module: &Module,
    root: FuncId,
    ab_id: u32,
    dsa: &ModuleDsa,
    locals: &HashMap<FuncId, LocalAnchorTable>,
    anchor_id_of: &HashMap<InstRef, u32>,
    remap: &HashMap<InstRef, InstRef>,
    layout: &CodeLayout,
) -> UnifiedAnchorTable {
    let scope = dsa.func(root);
    let funcs = module.reachable_from(&[root]);

    // Pass 1: collect entries with nodes in the atomic block's graph.
    let mut entries: Vec<UatEntry> = Vec::new();
    for &f in &funcs {
        let local = &locals[&f];
        for e in &local.entries {
            let node = scope
                .node_of(e.inst)
                .expect("bottom-up DSA covers every reachable access");
            let anchor_id = if e.is_anchor {
                anchor_id_of[&e.inst]
            } else {
                anchor_id_of[&e.pioneer.expect("non-anchors have pioneers")]
            };
            let new_inst = remap[&e.inst];
            entries.push(UatEntry {
                inst: new_inst,
                pc: layout.pc(new_inst),
                is_anchor: e.is_anchor,
                anchor_id,
                parent_anchor: 0,
                node,
            });
        }
    }

    // Index anchors per node (lowest anchor id per node wins as the node's
    // representative anchor, deterministically).
    let mut node_anchor: HashMap<NodeId, u32> = HashMap::new();
    for e in entries.iter().filter(|e| e.is_anchor) {
        node_anchor
            .entry(e.node)
            .and_modify(|a| *a = (*a).min(e.anchor_id))
            .or_insert(e.anchor_id);
    }

    // Pass 2: parents in the atomic block's node space — for each anchor's
    // node, find predecessor nodes (excluding self-edges) that themselves
    // have anchors in this table; pick the one with the lowest anchor id.
    for e in entries.iter_mut().filter(|e| e.is_anchor) {
        let parent = scope
            .graph
            .predecessors(e.node)
            .into_iter()
            .filter_map(|p| node_anchor.get(&p).copied())
            .filter(|&a| a != e.anchor_id)
            .min();
        e.parent_anchor = parent.unwrap_or(0);
    }

    UnifiedAnchorTable { ab_id, entries }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use crate::test_support::genome_like;

    #[test]
    fn figure3_parent_chain() {
        // In the genome-like module the list-node anchor's parent must be
        // the hashtable anchor (locking promotion: list -> whole table).
        let m = genome_like();
        let c = compile(&m);
        let t = c.table(0);

        // Find the anchor inside TMlist_find (on the collapsed list node).
        let lf = c.module.expect("TMlist_find");
        let list_anchors: Vec<_> = t
            .entries
            .iter()
            .filter(|e| e.is_anchor && e.inst.func == lf)
            .collect();
        assert!(!list_anchors.is_empty());
        // The loop body anchor (key load on the list node) has a parent.
        let ht = c.module.expect("hashtable_insert");
        let ht_anchor = t
            .entries
            .iter()
            .find(|e| e.is_anchor && e.inst.func == ht)
            .expect("hashtable anchor");
        let with_parent = list_anchors
            .iter()
            .find(|e| e.parent_anchor != 0)
            .expect("some list anchor has a parent");
        assert_eq!(
            with_parent.parent_anchor, ht_anchor.anchor_id,
            "promotion target is the hashtable anchor (Figure 3: 35 -> 42)"
        );
    }

    #[test]
    fn search_by_pc_roundtrip() {
        let m = genome_like();
        let c = compile(&m);
        let t = c.table(0);
        for e in &t.entries {
            let hit = t.search_by_pc(e.pc).unwrap();
            assert_eq!(hit.pc, e.pc);
            // At any tag width the search returns the first entry whose
            // low bits match the tag (collisions first-wins).
            for mask in [0xFFF, 0xFF] {
                let th = t.search_by_pc_tag((e.pc & mask) as u16, mask).unwrap();
                let first = t.entries.iter().find(|x| x.pc & mask == e.pc & mask);
                assert!(std::ptr::eq(th, first.unwrap()), "mask {mask:#x}");
            }
        }
        assert!(t.search_by_pc(0xdead_beef).is_none());
    }

    #[test]
    fn non_anchor_entries_point_to_their_pioneer_anchor() {
        let m = genome_like();
        let c = compile(&m);
        let t = c.table(0);
        for e in t.entries.iter().filter(|e| !e.is_anchor) {
            let a = t.anchor_entry(e.anchor_id).expect("pioneer anchor exists");
            assert!(a.is_anchor);
            assert_eq!(
                a.node, e.node,
                "pioneer accesses the same DSNode as the non-anchor"
            );
        }
    }

    #[test]
    fn parent_of_api() {
        let m = genome_like();
        let c = compile(&m);
        let t = c.table(0);
        for e in t.entries.iter().filter(|e| e.is_anchor) {
            assert_eq!(t.parent_of(e.anchor_id), e.parent_anchor);
        }
        assert_eq!(t.parent_of(9999), 0);
    }

    #[test]
    fn anchors_counted() {
        let m = genome_like();
        let c = compile(&m);
        let t = c.table(0);
        assert_eq!(t.n_anchors(), c.stats.anchors);
    }
}
