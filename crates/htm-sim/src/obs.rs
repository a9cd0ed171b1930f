//! Cycle-stamped structured event telemetry — the observability layer.
//!
//! This module records *everything the paper's profiling story needs*:
//! the full transaction lifecycle with conflict attribution (which core
//! aborted us, at which victim/aborter PC tags), every advisory-lock
//! acquire/wait/timeout/release, backoff intervals, and irrevocable
//! entry/exit. The stream is the raw material for the Section 3 conflict
//! statistics that drive anchor selection, and what the timeline renderer
//! in [`crate::trace`] draws.
//!
//! Recording is gated by [`crate::MachineConfig::record_events`]: when
//! disabled, every hook is a single branch on a bool, no event is
//! allocated, and — because events piggyback on operations that happen
//! anyway rather than adding gated ops — simulated cycles and statistics
//! are bit-identical with recording on or off. Events are ring-buffered
//! per core
//! ([`crate::MachineConfig::event_ring_capacity`]); when the ring wraps,
//! the oldest events are dropped and counted.
//!
//! ## JSONL export schema
//!
//! [`write_jsonl`] emits one JSON object per line, one line per event,
//! cores concatenated in id order (hand-written like `bench`'s report
//! writer — the workspace builds offline with no serde). Common keys:
//! `core` (the recording core id), `clock` (its logical cycle stamp) and
//! `kind`. Kind-specific keys:
//!
//! ```json
//! {"core":0,"clock":10,"kind":"tx_begin","ab_id":1}
//! {"core":1,"clock":1145,"kind":"tx_commit"}
//! {"core":0,"clock":5385,"kind":"tx_abort","cause":"conflict","conf_addr":4096,
//!  "victim_pc_tag":273,"aborter_pc_tag":546,"aborter":1}
//! {"core":1,"clock":2000,"kind":"lock_acquire","word":65536,"waited":120}
//! {"core":1,"clock":2300,"kind":"lock_timeout","word":65536,"waited":200010}
//! {"core":1,"clock":2400,"kind":"lock_release","word":65536,"contended":true}
//! {"core":0,"clock":2500,"kind":"backoff","cycles":37}
//! {"core":0,"clock":2600,"kind":"irrevocable_enter"}
//! {"core":0,"clock":7600,"kind":"irrevocable_exit","cycles":5000}
//! ```
//!
//! `cause` is one of `"conflict" | "capacity" | "explicit" |
//! "subscription"` (`"subscription"` — commit-time fallback-lock
//! validation under the safe lazy-subscription policy — was added with
//! the protocol matrix; every pre-existing field is unchanged); for
//! non-conflict aborts `conf_addr` and both PC tags are 0 and `aborter`
//! is the core's own id. PC tags are the hardware's 12-bit truncation.
//! Duration-carrying events (`lock_acquire`/`lock_timeout` `waited`,
//! `irrevocable_exit`/`backoff` `cycles`) are stamped at the *end* of
//! their span, so the span is `[clock - duration, clock]`.

use crate::addr::Addr;
use crate::fx::FxHashMap;
use crate::sim::AbortCause;
use std::io::Write;

/// One cycle-stamped observability event, as recorded by one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// The recording core's logical clock at the event.
    pub clock: u64,
    pub kind: ObsKind,
}

/// What happened. See the module docs for the per-kind JSONL schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// A hardware transaction began for atomic block `ab_id`.
    TxBegin { ab_id: u32 },
    /// The active transaction committed.
    TxCommit,
    /// The active transaction aborted. For conflicts, `victim_pc_tag` is
    /// the 12-bit tag of *our* first access to the conflicting line (what
    /// the hardware delivers in [`crate::AbortInfo`]), `aborter_pc_tag`
    /// the tag of the remote access that doomed us, and `aborter` the
    /// requester core's id. Capacity/explicit aborts carry zeros and the
    /// core's own id.
    TxAbort {
        cause: AbortCause,
        conf_addr: Addr,
        victim_pc_tag: u16,
        aborter_pc_tag: u16,
        aborter: u32,
    },
    /// An advisory lock was acquired after `waited` cycles of spinning
    /// (0 = uncontended or non-blocking try).
    LockAcquire { word: Addr, waited: u64 },
    /// An advisory-lock acquire gave up after `waited` cycles (advisory
    /// semantics: the transaction proceeds without the lock).
    LockTimeout { word: Addr, waited: u64 },
    /// An advisory lock was released; `contended` is true when a waiter
    /// spun on it while we held it.
    LockRelease { word: Addr, contended: bool },
    /// Retry backoff of `cycles` just completed.
    Backoff { cycles: u64 },
    /// Irrevocable (global-lock) execution begins.
    IrrevocableEnter,
    /// Irrevocable execution ends after `cycles`.
    IrrevocableExit { cycles: u64 },
}

/// Fixed-capacity per-core event buffer: when full, the oldest event is
/// overwritten and counted as dropped. Capacity 0 drops everything.
#[derive(Debug, Default)]
pub struct EventRing {
    buf: Vec<ObsEvent>,
    cap: usize,
    start: usize,
    dropped: u64,
}

impl EventRing {
    pub fn new(cap: usize) -> EventRing {
        EventRing {
            buf: Vec::new(),
            cap,
            start: 0,
            dropped: 0,
        }
    }

    pub fn push(&mut self, e: ObsEvent) {
        if self.cap == 0 {
            self.dropped += 1;
        } else if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.start] = e;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events dropped to the ring bound (oldest-first overwrite).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Move the buffered events out, oldest first, leaving the ring empty
    /// at the same capacity. [`Self::dropped`] keeps counting across takes.
    pub fn take(&mut self) -> Vec<ObsEvent> {
        self.buf.rotate_left(self.start);
        self.start = 0;
        std::mem::take(&mut self.buf)
    }
}

/// Bucket index of `v` in a log2 histogram: bucket 0 holds exactly 0,
/// bucket `k >= 1` holds `[2^(k-1), 2^k - 1]` — so `log2_bucket(2^k)`
/// is `k + 1` and `log2_bucket(2^k - 1)` is `k` (exact at boundaries).
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Number of log2 buckets (`log2_bucket(u64::MAX) == 64`).
pub const N_LOG2_BUCKETS: usize = 65;

/// The victim-PC-tag × aborter-PC-tag conflict matrix — the paper's
/// "which static access aborted which" profiling signal, aggregated over
/// all conflict-abort events.
#[derive(Debug, Default, Clone)]
pub struct ConflictMatrix {
    cells: FxHashMap<(u16, u16), u64>,
}

impl ConflictMatrix {
    pub fn record(&mut self, victim_tag: u16, aborter_tag: u16) {
        *self.cells.entry((victim_tag, aborter_tag)).or_insert(0) += 1;
    }

    /// Build from per-core event streams (conflict aborts only).
    pub fn from_events(streams: &[Vec<ObsEvent>]) -> ConflictMatrix {
        let mut m = ConflictMatrix::default();
        for stream in streams {
            for e in stream {
                if let ObsKind::TxAbort {
                    cause: AbortCause::Conflict,
                    victim_pc_tag,
                    aborter_pc_tag,
                    ..
                } = e.kind
                {
                    m.record(victim_pc_tag, aborter_pc_tag);
                }
            }
        }
        m
    }

    pub fn get(&self, victim_tag: u16, aborter_tag: u16) -> u64 {
        self.cells
            .get(&(victim_tag, aborter_tag))
            .copied()
            .unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = ((u16, u16), u64)> + '_ {
        self.cells.iter().map(|(&k, &v)| (k, v))
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn total(&self) -> u64 {
        self.cells.values().sum()
    }

    /// The `n` heaviest cells, count-descending (ties by tag pair, so the
    /// order is deterministic).
    pub fn top(&self, n: usize) -> Vec<((u16, u16), u64)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_by_key(|&((vt, at), c)| (std::cmp::Reverse(c), vt, at));
        v.truncate(n);
        v
    }
}

/// Per-lock-word wait-time statistics with log2-bucketed histograms.
#[derive(Debug, Default, Clone)]
pub struct WaitHistogram {
    per_word: FxHashMap<Addr, WordWaits>,
}

/// Wait statistics of one advisory lock word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordWaits {
    /// `buckets[log2_bucket(waited)]` counts acquire attempts (successful
    /// or timed out) by wait duration.
    pub buckets: [u64; N_LOG2_BUCKETS],
    pub acquires: u64,
    pub timeouts: u64,
    pub total_wait: u64,
}

impl Default for WordWaits {
    fn default() -> Self {
        WordWaits {
            buckets: [0; N_LOG2_BUCKETS],
            acquires: 0,
            timeouts: 0,
            total_wait: 0,
        }
    }
}

impl WaitHistogram {
    pub fn record(&mut self, word: Addr, waited: u64, timed_out: bool) {
        let w = self.per_word.entry(word).or_default();
        w.buckets[log2_bucket(waited)] += 1;
        if timed_out {
            w.timeouts += 1;
        } else {
            w.acquires += 1;
        }
        w.total_wait += waited;
    }

    /// Build from per-core event streams (lock acquire/timeout events).
    pub fn from_events(streams: &[Vec<ObsEvent>]) -> WaitHistogram {
        let mut h = WaitHistogram::default();
        for stream in streams {
            for e in stream {
                match e.kind {
                    ObsKind::LockAcquire { word, waited } => h.record(word, waited, false),
                    ObsKind::LockTimeout { word, waited } => h.record(word, waited, true),
                    _ => {}
                }
            }
        }
        h
    }

    pub fn word(&self, word: Addr) -> Option<&WordWaits> {
        self.per_word.get(&word)
    }

    pub fn is_empty(&self) -> bool {
        self.per_word.is_empty()
    }

    /// Lock words ordered by traffic (attempts descending, ties by
    /// address — deterministic).
    pub fn words_by_traffic(&self) -> Vec<(Addr, &WordWaits)> {
        let mut v: Vec<_> = self.per_word.iter().map(|(&w, s)| (w, s)).collect();
        v.sort_by_key(|&(w, s)| (std::cmp::Reverse(s.acquires + s.timeouts), w));
        v
    }
}

/// Abort-cause breakdown of one workload run, from the event stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AbortBreakdown {
    pub commits: u64,
    pub conflict: u64,
    pub capacity: u64,
    pub explicit: u64,
    /// Commit-time fallback-lock validation aborts (safe lazy
    /// subscription).
    pub subscription: u64,
}

impl AbortBreakdown {
    pub fn from_events(streams: &[Vec<ObsEvent>]) -> AbortBreakdown {
        let mut b = AbortBreakdown::default();
        for stream in streams {
            for e in stream {
                match e.kind {
                    ObsKind::TxCommit => b.commits += 1,
                    ObsKind::TxAbort { cause, .. } => match cause {
                        AbortCause::Conflict => b.conflict += 1,
                        AbortCause::Capacity => b.capacity += 1,
                        AbortCause::Explicit => b.explicit += 1,
                        AbortCause::SubscriptionValidation => b.subscription += 1,
                    },
                    _ => {}
                }
            }
        }
        b
    }

    pub fn aborts(&self) -> u64 {
        self.conflict + self.capacity + self.explicit + self.subscription
    }
}

fn cause_str(c: AbortCause) -> &'static str {
    match c {
        AbortCause::Conflict => "conflict",
        AbortCause::Capacity => "capacity",
        AbortCause::Explicit => "explicit",
        AbortCause::SubscriptionValidation => "subscription",
    }
}

/// One event as a JSONL line (no trailing newline). See the module docs
/// for the schema.
pub fn event_json(core: usize, e: &ObsEvent) -> String {
    let head = format!("{{\"core\":{core},\"clock\":{}", e.clock);
    match e.kind {
        ObsKind::TxBegin { ab_id } => {
            format!("{head},\"kind\":\"tx_begin\",\"ab_id\":{ab_id}}}")
        }
        ObsKind::TxCommit => format!("{head},\"kind\":\"tx_commit\"}}"),
        ObsKind::TxAbort {
            cause,
            conf_addr,
            victim_pc_tag,
            aborter_pc_tag,
            aborter,
        } => format!(
            "{head},\"kind\":\"tx_abort\",\"cause\":\"{}\",\"conf_addr\":{conf_addr},\
             \"victim_pc_tag\":{victim_pc_tag},\"aborter_pc_tag\":{aborter_pc_tag},\
             \"aborter\":{aborter}}}",
            cause_str(cause)
        ),
        ObsKind::LockAcquire { word, waited } => {
            format!("{head},\"kind\":\"lock_acquire\",\"word\":{word},\"waited\":{waited}}}")
        }
        ObsKind::LockTimeout { word, waited } => {
            format!("{head},\"kind\":\"lock_timeout\",\"word\":{word},\"waited\":{waited}}}")
        }
        ObsKind::LockRelease { word, contended } => {
            format!("{head},\"kind\":\"lock_release\",\"word\":{word},\"contended\":{contended}}}")
        }
        ObsKind::Backoff { cycles } => {
            format!("{head},\"kind\":\"backoff\",\"cycles\":{cycles}}}")
        }
        ObsKind::IrrevocableEnter => format!("{head},\"kind\":\"irrevocable_enter\"}}"),
        ObsKind::IrrevocableExit { cycles } => {
            format!("{head},\"kind\":\"irrevocable_exit\",\"cycles\":{cycles}}}")
        }
    }
}

/// Dump per-core event streams as JSONL, cores in id order.
pub fn write_jsonl<W: Write>(w: &mut W, streams: &[Vec<ObsEvent>]) -> std::io::Result<()> {
    for (core, stream) in streams.iter().enumerate() {
        for e in stream {
            writeln!(w, "{}", event_json(core, e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{body, Machine, MachineConfig};

    #[test]
    fn log2_bucketing_exact_at_boundaries() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        for k in 1..63 {
            // 2^k - 1 falls in bucket k; 2^k starts bucket k + 1.
            assert_eq!(log2_bucket((1u64 << k) - 1), k, "below boundary 2^{k}");
            assert_eq!(log2_bucket(1u64 << k), k + 1, "at boundary 2^{k}");
        }
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn wait_histogram_buckets_and_counts() {
        let mut h = WaitHistogram::default();
        h.record(0x1000, 0, false);
        h.record(0x1000, 7, false); // bucket 3: [4, 7]
        h.record(0x1000, 8, false); // bucket 4: [8, 15]
        h.record(0x1000, 200_000, true);
        let w = h.word(0x1000).unwrap();
        assert_eq!(w.buckets[0], 1);
        assert_eq!(w.buckets[3], 1);
        assert_eq!(w.buckets[4], 1);
        assert_eq!(w.buckets[log2_bucket(200_000)], 1);
        assert_eq!(w.acquires, 3);
        assert_eq!(w.timeouts, 1);
        assert_eq!(w.total_wait, 200_015);
        assert!(h.word(0x2000).is_none());
    }

    #[test]
    fn ring_bounds_and_preserves_order() {
        let mut r = EventRing::new(3);
        for clock in 0..5 {
            r.push(ObsEvent {
                clock,
                kind: ObsKind::TxCommit,
            });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let clocks: Vec<u64> = r.take().iter().map(|e| e.clock).collect();
        assert_eq!(clocks, vec![2, 3, 4], "oldest dropped, order kept");
        // Capacity 0 records nothing.
        let mut z = EventRing::new(0);
        z.push(ObsEvent {
            clock: 1,
            kind: ObsKind::TxCommit,
        });
        assert!(z.is_empty());
        assert_eq!(z.dropped(), 1);
    }

    /// The tentpole attribution test: a hand-built two-core conflict must
    /// land in exactly the (victim PC tag, aborter PC tag) cell of the
    /// conflict matrix, with the aborter core identified.
    #[test]
    fn conflict_matrix_attributes_two_core_conflict() {
        let mut cfg = MachineConfig::cores(2).small();
        cfg.record_events = true;
        let m = Machine::new(cfg);
        let a = m.host_alloc(8, true);
        m.run(vec![
            body(move |mut c| async move {
                c.tx_begin(1).await;
                let _ = c.tx_load(a, 0x40_0111).await; // victim's first access
                c.compute(5_000); // keep the txn open across the remote store
                let _ = c.tx_commit().await; // observes the doom
            }),
            body(move |mut c| async move {
                c.compute(1_000); // start after core 0's load
                c.tx_begin(2).await;
                let _ = c.tx_store(a, 7, 0x40_0222).await; // requester wins
                let _ = c.tx_commit().await;
            }),
        ]);
        let streams = m.take_events();
        let abort = streams[0]
            .iter()
            .find_map(|e| match e.kind {
                ObsKind::TxAbort {
                    cause: AbortCause::Conflict,
                    victim_pc_tag,
                    aborter_pc_tag,
                    aborter,
                    ..
                } => Some((victim_pc_tag, aborter_pc_tag, aborter)),
                _ => None,
            })
            .expect("victim records a conflict abort");
        assert_eq!(abort, (0x111, 0x222, 1), "12-bit tags + aborter core");
        let matrix = ConflictMatrix::from_events(&streams);
        assert_eq!(matrix.get(0x111, 0x222), 1);
        assert_eq!(matrix.total(), 1);
        assert_eq!(matrix.top(4), vec![((0x111, 0x222), 1)]);
        let b = AbortBreakdown::from_events(&streams);
        assert_eq!(b.conflict, 1);
        assert_eq!(b.commits, 1, "the aborter commits");
    }

    #[test]
    fn recording_disabled_by_default_and_consuming() {
        let m = Machine::new(MachineConfig::cores(1).small());
        let a = m.host_alloc(8, true);
        m.run(vec![body(move |mut c| async move {
            c.tx_begin(0).await;
            c.tx_store(a, 1, 0).await.unwrap();
            c.tx_commit().await.unwrap();
        })]);
        assert!(m.take_events()[0].is_empty());

        let mut cfg = MachineConfig::cores(1).small();
        cfg.record_events = true;
        let m = Machine::new(cfg);
        let a = m.host_alloc(8, true);
        m.run(vec![body(move |mut c| async move {
            c.tx_begin(4).await;
            c.tx_store(a, 1, 0).await.unwrap();
            c.tx_commit().await.unwrap();
        })]);
        let streams = m.take_events();
        assert_eq!(streams[0].len(), 2);
        assert!(matches!(streams[0][0].kind, ObsKind::TxBegin { ab_id: 4 }));
        assert!(matches!(streams[0][1].kind, ObsKind::TxCommit));
        assert!(streams[0][1].clock >= streams[0][0].clock);
        // Consuming: a second take returns empty streams.
        assert!(m.take_events()[0].is_empty());
    }

    #[test]
    fn dropped_counts_survive_take_events() {
        // Core 0 records 3 transactions = 6 events into a 4-slot ring;
        // core 1 records one (2 events) and loses nothing.
        let mut cfg = MachineConfig::cores(2).small();
        cfg.record_events = true;
        cfg.event_ring_capacity = 4;
        let m = Machine::new(cfg);
        let a = m.host_alloc(16, true);
        m.run_uniform(move |mut c| async move {
            let n = if c.tid() == 0 { 3 } else { 1 };
            for _ in 0..n {
                c.tx_begin(0).await;
                c.tx_store(a + 64 * c.tid() as u64, 1, 0).await.unwrap();
                c.tx_commit().await.unwrap();
            }
        });
        assert_eq!(m.events_dropped(), vec![2, 0]);
        let streams = m.take_events();
        assert_eq!((streams[0].len(), streams[1].len()), (4, 2));
        assert!(
            matches!(streams[0][0].kind, ObsKind::TxBegin { .. }),
            "the oldest pair was dropped, order kept"
        );
        // The take empties the rings but not the counts.
        assert_eq!(m.events_dropped(), vec![2, 0]);
        assert!(m.take_events().iter().all(|s| s.is_empty()));
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let streams = vec![vec![
            ObsEvent {
                clock: 10,
                kind: ObsKind::TxBegin { ab_id: 1 },
            },
            ObsEvent {
                clock: 40,
                kind: ObsKind::TxAbort {
                    cause: AbortCause::Conflict,
                    conf_addr: 4096,
                    victim_pc_tag: 0x111,
                    aborter_pc_tag: 0x222,
                    aborter: 1,
                },
            },
            ObsEvent {
                clock: 90,
                kind: ObsKind::LockAcquire {
                    word: 0x8000,
                    waited: 120,
                },
            },
            ObsEvent {
                clock: 95,
                kind: ObsKind::LockRelease {
                    word: 0x8000,
                    contended: false,
                },
            },
        ]];
        let mut out = Vec::new();
        write_jsonl(&mut out, &streams).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "object per line");
            assert!(l.contains("\"core\":0") && l.contains("\"clock\":"));
        }
        assert!(lines[1].contains("\"cause\":\"conflict\""));
        assert!(lines[1].contains("\"aborter\":1"));
        assert!(lines[2].contains("\"waited\":120"));
        assert!(lines[3].contains("\"contended\":false"));
    }
}
