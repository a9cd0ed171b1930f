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
//! is the core's own id. PC tags are the hardware's truncation to the low
//! `MachineConfig::pc_tag_bits` bits.
//! Duration-carrying events (`lock_acquire`/`lock_timeout` `waited`,
//! `irrevocable_exit`/`backoff` `cycles`) are stamped at the *end* of
//! their span, so the span is `[clock - duration, clock]`.

use crate::addr::Addr;
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
    /// the PC tag of *our* first access to the conflicting line (what
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

    /// A hand-built two-core conflict is recorded with the victim's and
    /// the aborter's PC tags and the aborter core, and the stream agrees
    /// with the statistics on what happened.
    #[test]
    fn conflict_abort_names_both_tags_and_the_aborter() {
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
        let st = m.stats().aggregate();
        assert_eq!(st.conflict_aborts, 1);
        assert_eq!(st.commits, 1, "the aborter commits");
        assert!(streams[1].iter().any(|e| e.kind == ObsKind::TxCommit));
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
