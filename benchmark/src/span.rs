//! In-memory spans around the calls into each crate, and the self-time
//! arithmetic over them.
//!
//! Spans are recorded only in a traced repetition, by the benchmark's own
//! code timing the crates' public functions from outside; they are written
//! out once, when the run ends. Timestamps are on the process CPU clock
//! (see [`crate::clock`]), so time the process spent descheduled is not in
//! any span.

use crate::clock::cpu_ns;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// `<crate>.<function>` for a layer span; `repetition`, `cell`,
    /// `prepare` and `program` for the benchmark's own containers.
    pub name: &'static str,
    /// Index of the cell within the repetition — the identifier every span
    /// of one cell shares.
    pub cell: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. Shared by reference with the job closures handed to
/// `run_jobs`, hence the lock (uncontended: the benchmark is one thread).
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Run `f` inside a new span; `f` receives the span's id to parent its
    /// own children on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        cell: Option<u32>,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("no span holder panics");
            let id = spans.len() as u32;
            let now = cpu_ns();
            spans.push(Span {
                id,
                parent,
                name,
                cell,
                start_ns: now,
                end_ns: now,
            });
            id
        };
        let r = f(id);
        let end = cpu_ns();
        self.spans.lock().expect("no span holder panics")[id as usize].end_ns = end;
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no span holder panics")
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of that interval its child spans cover. Children are clipped to
/// the parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

/// One JSON object per span, one per line.
pub fn write_jsonl(w: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cell\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.cell),
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            cell: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90].
        let spans = [
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a1", 15, 25),
            span(3, Some(0), "b", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Every nanosecond of the root belongs to exactly one span.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped_and_merged() {
        // Children [10,50] and [30,70] overlap on [30,50]; [90,130] hangs
        // over the parent's end; [200,210] lies outside it entirely.
        let spans = [
            span(0, None, "root", 0, 100),
            span(1, Some(0), "x", 10, 50),
            span(2, Some(0), "y", 30, 70),
            span(3, Some(0), "z", 90, 130),
            span(4, Some(0), "w", 200, 210),
        ];
        // Covered: [10,70] + [90,100] = 70.
        assert_eq!(self_times(&spans)[0], 30);
        // A child contained in an earlier sibling adds nothing.
        let spans = [
            span(0, None, "root", 0, 100),
            span(1, Some(0), "x", 10, 80),
            span(2, Some(0), "y", 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let t = Tracer::default();
        let inner = t.span("repetition", None, None, |rep| {
            t.span("cell", Some(rep), Some(7), |cell| cell)
        });
        let spans = t.into_spans();
        assert_eq!(inner, 1);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, Some(7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        let first = text.lines().next().unwrap();
        assert!(
            first.starts_with("{\"id\":0,\"parent\":null,\"name\":\"repetition\",\"cell\":null,")
        );
        assert_eq!(text.lines().count(), 2);
    }
}
