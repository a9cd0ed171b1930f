//! One number per run that moves if anything the simulation determines
//! moves: the regression witness checked in as golden digests
//! (`tests/golden_digests.rs`), in place of a second implementation to
//! compare against.

use htm_sim::{CoreStats, ObsEvent, ObsKind};
use stagger_core::{Hist, RtStats};
use tm_interp::ExecStats;
use workloads::BenchResult;

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
/// per-core [`CoreStats`] field, every recorded [`ObsEvent`] (clock and
/// payload), the thread return values, [`RtStats`] and [`ExecStats`]. Host
/// timings and scheduler counters are left out. Run with
/// `MachineConfig::record_events` for the event streams to take part.
///
/// The structs are destructured without `..`, so a field added later fails
/// to compile here instead of silently escaping the digest.
pub fn run_digest(r: &BenchResult) -> u64 {
    let mut h = Fnv::new();

    h.words(&[r.out.sim.exec_cycles, r.out.sim.cores.len() as u64]);
    for c in &r.out.sim.cores {
        let CoreStats {
            commits,
            conflict_aborts,
            capacity_aborts,
            explicit_aborts,
            subscription_aborts,
            irrevocable_commits,
            useful_tx_cycles,
            wasted_tx_cycles,
            lock_wait_cycles,
            backoff_cycles,
            irrevocable_cycles,
            total_cycles,
            tx_mem_ops,
            nt_mem_ops,
            gated_ops,
        } = *c;
        h.words(&[
            commits,
            conflict_aborts,
            capacity_aborts,
            explicit_aborts,
            subscription_aborts,
            irrevocable_commits,
            useful_tx_cycles,
            wasted_tx_cycles,
            lock_wait_cycles,
            backoff_cycles,
            irrevocable_cycles,
            total_cycles,
            tx_mem_ops,
            nt_mem_ops,
            gated_ops,
        ]);
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

    let RtStats {
        addr_hist,
        pc_hist,
        contention_aborts,
        anchor_identified,
        anchor_correct,
        locks_acquired,
        lock_timeouts,
        act_precise,
        act_coarse,
        act_training,
        alps_executed,
    } = &r.out.rt;
    h.hist(addr_hist);
    h.hist(pc_hist);
    h.words(&[
        *contention_aborts,
        *anchor_identified,
        *anchor_correct,
        *locks_acquired,
        *lock_timeouts,
        *act_precise,
        *act_coarse,
        *act_training,
        *alps_executed,
    ]);

    let ExecStats {
        insts,
        committed_txns,
        committed_insts,
        committed_anchors,
        aborted_attempts,
        irrevocable_txns,
    } = r.out.exec;
    h.words(&[
        insts,
        committed_txns,
        committed_insts,
        committed_anchors,
        aborted_attempts,
        irrevocable_txns,
    ]);
    h.0
}
