//! One number per run that moves if anything the simulation determines
//! moves: the regression witness checked in as golden digests
//! (`tests/golden_digests.rs`), in place of a second implementation to
//! compare against.
//!
//! The recorded file, `tests/golden/quick.digests`, is also the list of
//! golden cells: [`golden_cells`] parses its cell names, and every test
//! that recomputes digests picks its cells from it.

use htm_sim::{FallbackPolicy, MachineConfig, ObsEvent, ObsKind};
use stagger_core::{Hist, Mode, RuntimeConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use workloads::{BenchResult, PreparedWorkload};

/// The seed every golden cell runs with.
const GOLDEN_SEED: u64 = 2015;

/// One golden cell, named `<workload>/<mode>/<cores>/<fallback>` with an
/// optional `/bounded-<read>-<write>`: the quick-scale workload at seed
/// 2015, with event recording on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenCell {
    pub workload: String,
    pub mode: Mode,
    pub cores: usize,
    pub fallback: FallbackPolicy,
    /// `MachineConfig::bounded_sets` arguments, if the sets are bounded.
    pub bounded: Option<(usize, usize)>,
}

impl fmt::Display for GoldenCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mode, fallback) = (self.mode.name(), self.fallback.name());
        write!(f, "{}/{mode}/{}/{fallback}", self.workload, self.cores)?;
        match self.bounded {
            Some((reads, writes)) => write!(f, "/bounded-{reads}-{writes}"),
            None => Ok(()),
        }
    }
}

impl GoldenCell {
    /// Parse a cell name. Only the canonical spelling — the one
    /// [`GoldenCell`]'s `Display` prints — is accepted.
    pub fn parse(name: &str) -> Result<GoldenCell, String> {
        let bad =
            || format!("'{name}': not <workload>/<mode>/<cores>/<fallback>[/bounded-<r>-<w>]");
        let num = |s: &str| s.parse::<usize>().map_err(|_| bad());
        let mut parts = name.split('/');
        let (Some(workload), Some(mode), Some(cores), Some(fallback)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(bad());
        };
        let bounded = match (parts.next(), parts.next()) {
            (None, _) => None,
            (Some(b), None) => {
                let rw = b.strip_prefix("bounded-").and_then(|rw| rw.split_once('-'));
                let (reads, writes) = rw.ok_or_else(bad)?;
                Some((num(reads)?, num(writes)?))
            }
            _ => return Err(bad()),
        };
        let cell = GoldenCell {
            workload: workload.to_string(),
            mode: Mode::parse(mode).ok_or_else(bad)?,
            cores: num(cores)?,
            fallback: FallbackPolicy::parse(fallback).ok_or_else(bad)?,
            bounded,
        };
        if cell.to_string() != name {
            return Err(format!("'{name}': not spelled as '{cell}'"));
        }
        Ok(cell)
    }

    /// Run this cell on `p`, the quick workload it names, and return its
    /// [`run_digest`] as 16 hex digits. A wrapped event ring is an error:
    /// the digest would cover a truncated stream.
    pub fn digest(&self, p: &PreparedWorkload) -> Result<String, String> {
        let mut mcfg = MachineConfig::cores(self.cores)
            .fallback(self.fallback)
            .record_events();
        if let Some((reads, writes)) = self.bounded {
            mcfg = mcfg.bounded_sets(reads, writes);
        }
        let r = p.run_cfg(GOLDEN_SEED, mcfg, RuntimeConfig::with_mode(self.mode));
        if r.events_dropped.iter().any(|&d| d != 0) {
            return Err(format!("{self}: an event ring wrapped"));
        }
        Ok(format!("{:016x}", run_digest(&r)))
    }
}

/// The `(cell, recorded digest)` lines of a digests file, in file order;
/// blank lines and `#` comments are skipped. A malformed or repeated
/// cell name is an error.
pub fn golden_cells(text: &str) -> Result<Vec<(GoldenCell, &str)>, String> {
    let mut cells: Vec<(GoldenCell, &str)> = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, digest) = line
            .split_once(' ')
            .ok_or_else(|| format!("'{line}': not `<cell> <digest>`"))?;
        let cell = GoldenCell::parse(name)?;
        if cells.iter().any(|(c, _)| *c == cell) {
            return Err(format!("{cell}: recorded twice"));
        }
        cells.push((cell, digest));
    }
    Ok(cells)
}

/// Recompute each cell's digest, preparing each workload once, and
/// describe every cell whose digest differs from the recorded one.
/// Workloads resolve through the registry at quick scale, so a cell may
/// name a parameterized workload (`serve-flash-i600`).
pub fn golden_mismatches<'a>(
    cells: impl IntoIterator<Item = &'a (GoldenCell, &'a str)>,
) -> Vec<String> {
    let cells: Vec<_> = cells.into_iter().collect();
    let names: BTreeSet<&str> = cells.iter().map(|(c, _)| c.workload.as_str()).collect();
    let set: Vec<_> = names
        .iter()
        .filter_map(|n| workloads::workload_by_name(n, true))
        .collect();
    let mut prepared: BTreeMap<&str, PreparedWorkload> = BTreeMap::new();
    let mut bad = Vec::new();
    for (cell, want) in cells {
        let Some(w) = set.iter().find(|w| w.name() == cell.workload) else {
            bad.push(format!("{cell}: unknown workload"));
            continue;
        };
        let p = prepared
            .entry(w.name())
            .or_insert_with(|| PreparedWorkload::new(w.as_ref()));
        match cell.digest(p) {
            Ok(got) if got == *want => {}
            Ok(got) => bad.push(format!("{cell}: recorded {want}, computed {got}")),
            Err(e) => bad.push(e),
        }
    }
    bad
}

/// Streaming FNV-1a 64 (also behind `RunSpec::run_key`).
pub(crate) struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One `u64`, little-endian.
    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn words(&mut self, vs: &[u64]) {
        vs.iter().for_each(|&v| self.word(v));
    }

    /// A histogram, in key order.
    fn hist<K: Copy + Ord + Into<u64>>(&mut self, h: &Hist<K>) {
        self.word(h.iter().len() as u64);
        for (k, v) in h.iter() {
            self.words(&[k.into(), v]);
        }
    }
}

/// Digest of everything a finished run's simulation determined: every
/// per-core `CoreStats` counter, every recorded [`ObsEvent`] (clock and
/// payload), the thread return values, `RtStats` (its two histograms,
/// then its counters) and `ExecStats`. Host timings and scheduler counters
/// are left out. Run with `MachineConfig::record_events` for the event
/// streams to take part.
///
/// The digest covers every counter because it hashes each record's
/// `values()`, the list the record's struct is generated from
/// (`htm_sim::stats_record!`): a counter added later is hashed with no
/// edit here.
pub fn run_digest(r: &BenchResult) -> u64 {
    let mut h = Fnv::new();

    h.words(&[r.out.sim.exec_cycles, r.out.sim.cores.len() as u64]);
    for c in &r.out.sim.cores {
        h.words(&c.values());
    }

    h.word(r.events.len() as u64);
    for stream in &r.events {
        h.word(stream.len() as u64);
        for &ObsEvent { clock, kind } in stream {
            h.word(clock);
            match kind {
                ObsKind::TxBegin { ab_id } => h.words(&[0, ab_id.into()]),
                ObsKind::TxCommit => h.word(1),
                ObsKind::TxAbort {
                    cause,
                    conf_addr,
                    victim_pc_tag,
                    aborter_pc_tag,
                    aborter,
                } => h.words(&[
                    2,
                    cause as u64,
                    conf_addr,
                    victim_pc_tag.into(),
                    aborter_pc_tag.into(),
                    aborter.into(),
                ]),
                ObsKind::LockAcquire { word, waited } => h.words(&[3, word, waited]),
                ObsKind::LockTimeout { word, waited } => h.words(&[4, word, waited]),
                ObsKind::LockRelease { word, contended } => h.words(&[5, word, contended.into()]),
                ObsKind::Backoff { cycles } => h.words(&[6, cycles]),
                ObsKind::IrrevocableEnter => h.word(7),
                ObsKind::IrrevocableExit { cycles } => h.words(&[8, cycles]),
            }
        }
    }

    h.word(r.out.returns.len() as u64);
    h.words(&r.out.returns);

    let rt = &r.out.rt;
    h.hist(&rt.addr_hist);
    h.hist(&rt.pc_hist);
    h.words(&rt.values());
    h.words(&r.out.exec.values());
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_cell_names_round_trip_and_bad_ones_fail_closed() {
        for name in [
            "list-hi/Staggered+SW/64/irrevocable",
            "memcached/HTM/4/irrevocable/bounded-16-8",
            "list-hi/Staggered/16/lazy-subscription-safe",
        ] {
            assert_eq!(GoldenCell::parse(name).unwrap().to_string(), name);
        }
        for bad in [
            "list-hi/HTM/4",
            "list-hi/HTM/four/irrevocable",
            "list-hi/Psychic/4/irrevocable",
            "list-hi/HTM/4/optimism",
            "list-hi/HTM/4/irrevocable/bounded-16",
            "list-hi/HTM/4/irrevocable/bounded-16-8/extra",
            "list-hi/staggeredsw/4/irrevocable",
        ] {
            assert!(GoldenCell::parse(bad).is_err(), "{bad}");
        }
        let cells = golden_cells("# header\n\nssca2/HTM/4/irrevocable 00\n").unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].1, "00");
        assert!(golden_cells("ssca2/HTM/4/irrevocable\n").is_err());
        let twice = "ssca2/HTM/4/irrevocable 00\nssca2/HTM/4/irrevocable 01\n";
        assert!(golden_cells(twice).is_err());
    }
}
