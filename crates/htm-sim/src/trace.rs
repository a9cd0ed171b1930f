//! ASCII timeline rendering of recorded schedules — the paper's Figure 1,
//! drawn from an actual run.
//!
//! Enable [`crate::MachineConfig::record_events`], run, then feed
//! [`crate::Machine::take_events`] to [`render_timeline_events`].

use crate::obs::{ObsEvent, ObsKind};

/// Drawing precedence for [`render_timeline_events`]: an abort mark beats
/// a commit mark beats an irrevocable span beats a lock-wait span beats
/// transaction fill beats idle.
fn rank(c: char) -> u8 {
    match c {
        '=' => 1,
        '-' => 2,
        'L' => 3,
        'C' => 4,
        'x' => 5,
        _ => 0,
    }
}

fn put(row: &mut [char], i: usize, c: char) {
    if rank(c) > rank(row[i]) {
        row[i] = c;
    }
}

/// Render per-core observability event streams as one row per core over a
/// `width`-column time axis.
///
/// Legend: `.` outside any transaction, `=` inside a transaction, `-` a
/// lock-wait span (spinning on an advisory lock), `L` an irrevocable
/// (global-lock) span, `x` an abort, `C` a commit. Duration-carrying
/// events are stamped at their span's end, so a wait of `w` cycles ending
/// at clock `c` paints `[c - w, c]`. Conflicting cells keep the most
/// severe mark (`x` > `C` > `L` > `-` > `=`).
pub fn render_timeline_events(streams: &[Vec<ObsEvent>], width: usize) -> String {
    assert!(width >= 10, "give the timeline some room");
    let end = streams
        .iter()
        .flat_map(|t| t.iter().map(|e| e.clock))
        .max()
        .unwrap_or(0)
        .max(1);
    let col = |clock: u64| ((clock as u128 * (width as u128 - 1)) / end as u128) as usize;

    let mut out = String::new();
    for (tid, events) in streams.iter().enumerate() {
        let mut row = vec!['.'; width];
        let mut open: Option<usize> = None;
        for e in events {
            let c = col(e.clock);
            match e.kind {
                ObsKind::TxBegin { .. } => open = Some(c),
                ObsKind::TxCommit | ObsKind::TxAbort { .. } => {
                    let start = open.take().unwrap_or(c);
                    for i in start..c {
                        put(&mut row, i, '=');
                    }
                    let mark = if matches!(e.kind, ObsKind::TxCommit) {
                        'C'
                    } else {
                        'x'
                    };
                    put(&mut row, c, mark);
                }
                ObsKind::LockAcquire { waited, .. } | ObsKind::LockTimeout { waited, .. } => {
                    if waited > 0 {
                        for i in col(e.clock.saturating_sub(waited))..=c {
                            put(&mut row, i, '-');
                        }
                    }
                }
                ObsKind::IrrevocableExit { cycles } => {
                    for i in col(e.clock.saturating_sub(cycles))..=c {
                        put(&mut row, i, 'L');
                    }
                }
                ObsKind::LockRelease { .. }
                | ObsKind::Backoff { .. }
                | ObsKind::IrrevocableEnter => {}
            }
        }
        // A transaction still open at the end of the run.
        if let Some(start) = open {
            for i in start..width {
                put(&mut row, i, '=');
            }
        }
        out.push_str(&format!("t{tid:<2} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "      0 {:>width$}\n",
        format!("{end} cycles"),
        width = width - 2
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_timeline_draws_lock_and_irrevocable_spans() {
        let streams = vec![
            vec![
                ObsEvent {
                    clock: 0,
                    kind: ObsKind::TxBegin { ab_id: 0 },
                },
                // Spun 40 cycles on an advisory lock, acquired at 50.
                ObsEvent {
                    clock: 50,
                    kind: ObsKind::LockAcquire {
                        word: 0x1000,
                        waited: 40,
                    },
                },
                ObsEvent {
                    clock: 100,
                    kind: ObsKind::TxCommit,
                },
            ],
            vec![
                ObsEvent {
                    clock: 60,
                    kind: ObsKind::IrrevocableEnter,
                },
                ObsEvent {
                    clock: 100,
                    kind: ObsKind::IrrevocableExit { cycles: 40 },
                },
            ],
            vec![
                ObsEvent {
                    clock: 10,
                    kind: ObsKind::TxBegin { ab_id: 0 },
                },
                ObsEvent {
                    clock: 40,
                    kind: ObsKind::TxAbort {
                        cause: crate::AbortCause::Explicit,
                        conf_addr: 0,
                        victim_pc_tag: 0,
                        aborter_pc_tag: 0,
                        aborter: 2,
                    },
                },
            ],
            vec![],
        ];
        let s = render_timeline_events(&streams, 40);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[2].contains("=x") && !lines[2].contains('C'));
        assert_eq!(lines[3], format!("t3  |{}|", ".".repeat(40)));
        assert!(lines[0].contains('-'), "lock-wait span on core 0");
        assert!(lines[0].contains('C'));
        assert!(lines[1].contains('L'), "irrevocable span on core 1");
        assert!(!lines[1].contains('='));
        assert!(s.contains("100 cycles"));
        // Lock wait dominates tx fill but not the commit mark.
        assert!(lines[0].contains('='));
    }

    #[test]
    fn event_timeline_uncontended_acquire_paints_nothing() {
        let streams = vec![vec![ObsEvent {
            clock: 50,
            kind: ObsKind::LockAcquire {
                word: 0x1000,
                waited: 0,
            },
        }]];
        let s = render_timeline_events(&streams, 20);
        assert!(!s.lines().next().unwrap().contains('-'));
    }
}
