//! Simulated memory and the per-line coherence directory, one row per line:
//! its 8 data words, then which cores hold it speculatively (`Readers`,
//! `Writers` — the HTM's per-line tx r/w bits) and which cache it at all
//! (`Sharers` — cores whose L1 or L2 holds it). A set is one word up to 64
//! cores and [`WORDS`] above, so a row is 11 or 20 words, and a conflict
//! check or an invalidation reads words next to the line's data, not a hash
//! probe or a walk over every core's caches. The rows are one `Vec<u64>` on
//! purpose: zero integers take the allocator's zeroed-pages path (`calloc`),
//! and one allocation the size of memory is always big enough to be
//! `mmap`ed, so building and dropping a machine costs O(pages touched)
//! (DESIGN.md, "Coherence directory").

use crate::addr::{word_index, Addr, LINE_BYTES, WORDS_PER_LINE};
use crate::coreset::{CoreSet, WORDS};

/// Data words per row.
const DATA: usize = WORDS_PER_LINE as usize;

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

pub(crate) struct Directory {
    rows: Vec<u64>,
    /// Words per row: 8 data words, then three sets of one word, or of
    /// [`WORDS`] above 64 cores.
    stride: usize,
    pub(crate) mem_words: usize,
}

/// Row length when sets are [`WORDS`] wide.
const WIDE: usize = DATA + 3 * WORDS;

/// Can `mem_words` of memory have rows? It needs a line, and fewer than
/// `u32::MAX`: caches key lines by `u32`, with `u32::MAX` an empty way.
pub(crate) fn fits(mem_words: usize) -> bool {
    (1..u32::MAX as usize).contains(&mem_words.div_ceil(DATA))
}

impl Directory {
    pub(crate) fn new(mem_words: usize, n_cores: usize) -> Directory {
        assert!(
            fits(mem_words),
            "mem_words must be positive and hold fewer than u32::MAX lines, got {mem_words}"
        );
        let stride = if n_cores > 64 { WIDE } else { DATA + 3 };
        Directory {
            rows: vec![0; mem_words.div_ceil(DATA) * stride],
            stride,
            mem_words,
        }
    }

    /// Where the word at `addr` sits in the rows.
    fn word(&self, addr: Addr) -> usize {
        let i = word_index(addr);
        assert!(
            i < self.mem_words,
            "simulated address {addr:#x} out of range"
        );
        i / DATA * self.stride + i % DATA
    }

    pub(crate) fn load(&self, addr: Addr) -> u64 {
        self.rows[self.word(addr)]
    }

    pub(crate) fn store(&mut self, addr: Addr, val: u64) {
        let i = self.word(addr);
        self.rows[i] = val;
    }

    /// Where `line`'s row starts; panics unless the line (a trailing
    /// partial one included) is in memory.
    pub(crate) fn row(&self, line: u64) -> usize {
        assert!(
            (line as usize).saturating_mul(DATA) < self.mem_words,
            "simulated address {:#x} out of range",
            line * LINE_BYTES
        );
        line as usize * self.stride
    }

    /// Where `line`'s `role` set starts, and whether it is wide.
    fn set_at(&self, line: u64, role: Role) -> (usize, bool) {
        let wide = self.stride == WIDE;
        let at = self.row(line) + DATA + role as usize * if wide { WORDS } else { 1 };
        (at, wide)
    }

    /// `line`'s `role` set (range-checked by [`Self::row`]).
    pub(crate) fn get(&self, line: u64, role: Role) -> CoreSet {
        CoreSet::from_words(match self.set_at(line, role) {
            (at, true) => self.rows[at..at + WORDS].try_into().unwrap(),
            (at, false) => [self.rows[at], 0, 0, 0],
        })
    }

    /// Edit `line`'s `role` set in place (range-checked like [`Self::get`]).
    pub(crate) fn update(&mut self, line: u64, role: Role, f: impl FnOnce(&mut CoreSet)) {
        let mut set = self.get(line, role);
        f(&mut set);
        let words = set.words();
        match self.set_at(line, role) {
            (at, true) => self.rows[at..at + WORDS].copy_from_slice(&words),
            (at, false) => {
                debug_assert!(words[1..] == [0; WORDS - 1], "core id above 63");
                self.rows[at] = words[0];
            }
        }
    }
}
