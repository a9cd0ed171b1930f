//! Conflict-attribution analysis over observability event streams: the
//! offline half of the paper's Section 3 profiling pass.
//!
//! The simulator's event stream carries PC tags (what the hardware
//! delivers); this module aggregates them per atomic block and resolves
//! them back to IR functions and instructions through the compiled
//! program's unified anchor tables and code layout — exactly the
//! information an anchor-selection pass would consume — and folds
//! advisory-lock waits per lock word.

use htm_sim::obs::{ObsEvent, ObsKind};
use htm_sim::{AbortCause, Addr, FxHashMap, LogHistogram};
use stagger_compiler::Compiled;
use tm_ir::display::format_inst;
use tm_ir::Pc;

/// One aggregated conflicting-PC-tag pair, keyed by the victim's atomic
/// block (known from the enclosing `TxBegin`, so the victim tag can be
/// resolved through that block's anchor table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictPair {
    /// Atomic block the victim transaction was executing.
    pub ab_id: u32,
    /// PC tag of the victim's first access to the conflicting line.
    pub victim_tag: u16,
    /// PC tag of the access that doomed it (0 = nontransactional).
    pub aborter_tag: u16,
    /// Number of conflict aborts attributed to this pair.
    pub count: u64,
}

/// Aggregate conflict aborts into (atomic block, victim tag, aborter tag)
/// pairs, count-descending (ties by key — deterministic).
pub fn conflict_pairs(streams: &[Vec<ObsEvent>]) -> Vec<ConflictPair> {
    let mut counts: FxHashMap<(u32, u16, u16), u64> = FxHashMap::default();
    for stream in streams {
        let mut ab = 0u32;
        for e in stream {
            match e.kind {
                ObsKind::TxBegin { ab_id } => ab = ab_id,
                ObsKind::TxAbort {
                    cause: AbortCause::Conflict,
                    victim_pc_tag,
                    aborter_pc_tag,
                    ..
                } => {
                    *counts
                        .entry((ab, victim_pc_tag, aborter_pc_tag))
                        .or_insert(0) += 1
                }
                _ => {}
            }
        }
    }
    let mut v: Vec<ConflictPair> = counts
        .into_iter()
        .map(|((ab_id, victim_tag, aborter_tag), count)| ConflictPair {
            ab_id,
            victim_tag,
            aborter_tag,
            count,
        })
        .collect();
    v.sort_by_key(|p| {
        (
            std::cmp::Reverse(p.count),
            p.ab_id,
            p.victim_tag,
            p.aborter_tag,
        )
    });
    v
}

/// Advisory-lock waits on one lock word: one sample per acquire attempt,
/// successful or timed out.
#[derive(Debug, Clone)]
pub struct LockWaits {
    pub word: Addr,
    /// Attempts that gave up (advisory semantics: the transaction ran on
    /// without the lock).
    pub timeouts: u64,
    /// Cycles each attempt waited.
    pub waits: LogHistogram,
}

/// Fold `LockAcquire`/`LockTimeout` events per lock word, busiest word
/// first (ties by address — deterministic).
pub fn lock_waits(streams: &[Vec<ObsEvent>]) -> Vec<LockWaits> {
    let mut per_word: FxHashMap<Addr, LockWaits> = FxHashMap::default();
    for e in streams.iter().flatten() {
        let (word, waited, timed_out) = match e.kind {
            ObsKind::LockAcquire { word, waited } => (word, waited, false),
            ObsKind::LockTimeout { word, waited } => (word, waited, true),
            _ => continue,
        };
        let w = per_word.entry(word).or_insert_with(|| LockWaits {
            word,
            timeouts: 0,
            waits: LogHistogram::new(),
        });
        w.waits.record(waited);
        w.timeouts += u64::from(timed_out);
    }
    let mut v: Vec<LockWaits> = per_word.into_values().collect();
    v.sort_by_key(|w| (std::cmp::Reverse(w.waits.count()), w.word));
    v
}

/// A PC tag resolved back to the program: full PC, owning function,
/// instruction text and (when the access sits in an anchor table) its
/// anchor id.
#[derive(Debug, Clone)]
pub struct ResolvedTag {
    pub pc: Pc,
    pub func: String,
    pub offset: u64,
    pub inst: String,
    /// Anchor id from the unified anchor table (0 when the entry has no
    /// anchor).
    pub anchor_id: u32,
    pub is_anchor: bool,
}

/// Resolve a tag to the program, preferring `ab_id`'s unified anchor table
/// (the lookup the runtime itself performs on abort), then any other
/// block's table (ascending id). `mask` is the profiled machine's
/// `MachineConfig::pc_tag_mask`. Every transactional access sits in its
/// block's table, so `None` means no transactional access carries the tag
/// — e.g. tag 0, which nontransactional aborters report.
pub fn resolve_tag(c: &Compiled, ab_id: u32, tag: u16, mask: u64) -> Option<ResolvedTag> {
    let from_entry = |pc: Pc, anchor_id: u32, is_anchor: bool| {
        let fid = c.layout.func_at(pc)?;
        let f = c.module.func(fid);
        let inst = c
            .layout
            .inst_at(pc)
            .map(|r| format_inst(&c.module, c.module.inst(r)))
            .unwrap_or_default();
        Some(ResolvedTag {
            pc,
            func: f.name.clone(),
            offset: pc - c.layout.func_start(fid),
            inst,
            anchor_id,
            is_anchor,
        })
    };
    if let Some(t) = c.tables.get(&ab_id) {
        if let Some(e) = t.search_by_pc_tag(tag, mask) {
            return from_entry(e.pc, e.anchor_id, e.is_anchor);
        }
    }
    let mut ab_ids: Vec<u32> = c.tables.keys().copied().filter(|&i| i != ab_id).collect();
    ab_ids.sort_unstable();
    for i in ab_ids {
        if let Some(e) = c.tables[&i].search_by_pc_tag(tag, mask) {
            return from_entry(e.pc, e.anchor_id, e.is_anchor);
        }
    }
    None
}

/// Human-readable form of a resolved tag: `func+0x10 (anchor #3): inst`.
pub fn describe_tag(c: &Compiled, ab_id: u32, tag: u16, mask: u64) -> String {
    match resolve_tag(c, ab_id, tag, mask) {
        Some(r) => {
            let anchor = if r.is_anchor {
                format!(" [anchor #{}]", r.anchor_id)
            } else if r.anchor_id != 0 {
                format!(" [-> anchor #{}]", r.anchor_id)
            } else {
                String::new()
            };
            format!("{}+{:#x}{}: {}", r.func, r.offset, anchor, r.inst)
        }
        None => "<unresolved>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::ObsEvent;

    fn abort(victim: u16, aborter: u16) -> ObsKind {
        ObsKind::TxAbort {
            cause: AbortCause::Conflict,
            conf_addr: 4096,
            victim_pc_tag: victim,
            aborter_pc_tag: aborter,
            aborter: 1,
        }
    }

    #[test]
    fn conflict_pairs_track_enclosing_block() {
        let streams = vec![vec![
            ObsEvent {
                clock: 0,
                kind: ObsKind::TxBegin { ab_id: 7 },
            },
            ObsEvent {
                clock: 10,
                kind: abort(0x100, 0x200),
            },
            ObsEvent {
                clock: 20,
                kind: ObsKind::TxBegin { ab_id: 9 },
            },
            ObsEvent {
                clock: 30,
                kind: abort(0x100, 0x200),
            },
            ObsEvent {
                clock: 40,
                kind: ObsKind::TxBegin { ab_id: 9 },
            },
            ObsEvent {
                clock: 50,
                kind: abort(0x100, 0x200),
            },
        ]];
        let pairs = conflict_pairs(&streams);
        assert_eq!(pairs.len(), 2);
        // Heaviest first; the ab 9 pair saw two aborts.
        assert_eq!(
            pairs[0],
            ConflictPair {
                ab_id: 9,
                victim_tag: 0x100,
                aborter_tag: 0x200,
                count: 2
            }
        );
        assert_eq!(pairs[1].ab_id, 7);
        assert_eq!(pairs[1].count, 1);
    }

    fn list_hi() -> Compiled {
        use workloads::Workload;
        stagger_compiler::compile(&workloads::list::ListBench::hi().build_module())
    }

    #[test]
    fn lock_waits_fold_attempts_per_word() {
        let acquire = |clock, word, waited| ObsEvent {
            clock,
            kind: ObsKind::LockAcquire { word, waited },
        };
        let streams = vec![
            vec![acquire(10, 0x2000, 0), acquire(50, 0x1000, 40)],
            vec![
                acquire(60, 0x1000, 7),
                ObsEvent {
                    clock: 900,
                    kind: ObsKind::LockTimeout {
                        word: 0x1000,
                        waited: 800,
                    },
                },
                ObsEvent {
                    clock: 950,
                    kind: ObsKind::LockRelease {
                        word: 0x1000,
                        contended: true,
                    },
                },
            ],
        ];
        let waits = lock_waits(&streams);
        let words: Vec<Addr> = waits.iter().map(|w| w.word).collect();
        assert_eq!(words, [0x1000, 0x2000], "busiest word first");
        let s = waits[0].waits.summary();
        assert_eq!((s.count, waits[0].timeouts, s.total), (3, 1, 847));
        assert_eq!((s.p50, s.max), (40, 800));
        assert_eq!(waits[1].waits.count(), 1);
        assert!(lock_waits(&[Vec::new()]).is_empty());
    }

    #[test]
    fn resolve_tag_finds_list_traversal() {
        // Resolve a tag taken from list-hi's own anchor table: the round
        // trip must name the same function.
        let c = list_hi();
        let (&ab_id, table) = c
            .tables
            .iter()
            .find(|(_, t)| !t.entries.is_empty())
            .expect("list has an atomic block with accesses");
        let e = &table.entries[0];
        let tag = (e.pc & 0xFFF) as u16;
        let r = resolve_tag(&c, ab_id, tag, 0xFFF).expect("tag from the table resolves");
        assert_eq!(r.pc, e.pc);
        assert!(!r.func.is_empty());
        assert!(!r.inst.is_empty());
        let d = describe_tag(&c, ab_id, tag, 0xFFF);
        assert!(d.contains(&r.func));
    }

    #[test]
    fn nontransactional_tag_zero_is_unresolved() {
        // list_find_prev starts with an ALPoint at tag 0, which cannot
        // conflict: tag 0 names no transactional access in any block.
        let c = list_hi();
        assert!(!c.tables.is_empty());
        for &ab_id in c.tables.keys() {
            assert!(resolve_tag(&c, ab_id, 0, 0xFFF).is_none(), "block {ab_id}");
            assert_eq!(describe_tag(&c, ab_id, 0, 0xFFF), "<unresolved>");
        }
    }
}
