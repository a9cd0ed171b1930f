//! Per-line coherence directory: which cores hold a line speculatively
//! (`Readers`, `Writers` — the HTM's per-line tx r/w bits) and which cache
//! it at all (`Sharers` — cores whose L1 or L2 holds the line).
//!
//! One `[[u64; WORDS]; 3]` row per line of simulated memory, indexed densely
//! by line index (`addr / LINE_BYTES`), so a conflict check or an
//! invalidation is a few array words, not a hash probe or a walk over every
//! core's caches. The rows are plain integer arrays *on purpose*: `vec!` of
//! an all-zero integer array takes the allocator's zeroed-pages path
//! (`calloc`), so building and dropping a machine costs O(pages touched)
//! rather than O(configured memory). A `Vec` of a user struct — even one
//! that is all zero bytes — is filled element by element, which is what made
//! `Machine::new` memset 64 MiB. [`CoreSet`]s are therefore built from and
//! written back to the rows by value. (Zeroed pages also need an allocation
//! big enough for the allocator to `mmap`; why the rows are not packed
//! tighter is in DESIGN.md, "Coherence directory".)

use crate::addr::{LINE_BYTES, WORDS_PER_LINE};
use crate::coreset::{CoreSet, WORDS};

/// Which of a line's three core sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Role {
    /// Cores holding the line in an active transaction's read set.
    Readers = 0,
    /// Cores holding it in a write set. Eager: at most one at a time; lazy:
    /// buffered writers coexist until one commits.
    Writers = 1,
    /// Cores whose L1 or L2 holds the line.
    Sharers = 2,
}

pub(crate) struct Directory(Vec<[[u64; WORDS]; 3]>);

impl Directory {
    /// A directory covering `mem_words` of memory, a trailing partial line
    /// included.
    pub(crate) fn new(mem_words: usize) -> Directory {
        Directory(vec![
            [[0; WORDS]; 3];
            mem_words.div_ceil(WORDS_PER_LINE as usize)
        ])
    }

    /// `line`'s `role` set. Panics on out-of-range addresses, matching
    /// `read_word`/`write_word`.
    pub(crate) fn get(&self, line: u64, role: Role) -> CoreSet {
        let row = self
            .0
            .get(line as usize)
            .unwrap_or_else(|| panic!("simulated address {:#x} out of range", line * LINE_BYTES));
        CoreSet::from_words(row[role as usize])
    }

    /// Edit `line`'s `role` set in place (same range check as [`Self::get`]).
    pub(crate) fn update(&mut self, line: u64, role: Role, f: impl FnOnce(&mut CoreSet)) {
        let mut set = self.get(line, role);
        f(&mut set);
        self.0[line as usize][role as usize] = set.words();
    }

    /// True when no line has a speculative reader or writer (test aid).
    #[cfg(test)]
    pub(crate) fn owners_empty(&self) -> bool {
        let empty = |row: &[[u64; WORDS]; 3], role: Role| row[role as usize] == [0; WORDS];
        self.0
            .iter()
            .all(|row| empty(row, Role::Readers) && empty(row, Role::Writers))
    }
}
