//! Request-level latency derivation and streaming percentile histograms.
//!
//! The serving-scenario exhibits judge the machine the way a service
//! owner would: by per-request latency percentiles under offered load,
//! not aborts per commit. This module turns the [`crate::obs`] event
//! stream — a pure observer, bit-identical across schedulers and with
//! recording on or off — into request latencies, attributes each tail
//! request to the span that dominated it (lock waits, abort retries,
//! backoff, queueing), and aggregates into HDR-style log-bucketed
//! histograms.
//!
//! ## Segmentation model
//!
//! A workload thread that serves a stream of requests executes exactly
//! one atomic block per request, so the k-th *completed* transaction on
//! core `c` is the k-th request of core `c`'s schedule. A completion is
//! a [`ObsKind::TxCommit`] **or** an [`ObsKind::IrrevocableExit`]: the
//! irrevocable (global-lock) fallback path never emits `TxCommit`, and
//! missing it would silently shift every later request on that core. A
//! request's events are everything from the first `TxBegin` (or
//! `IrrevocableEnter`) after the previous completion through its own
//! completion; duration-carrying events (`lock_acquire`/`lock_timeout`
//! `waited`, `backoff`/`irrevocable_exit` `cycles`) are stamped at span
//! *end*, so each span lies inside its request's window by construction.
//!
//! Request latency is `completion - arrival` when the caller knows the
//! arrival timestamps (an open-loop load generator does — the schedule
//! is a pure function of the workload config), and
//! `completion - first_begin` otherwise (closed loop: a request "exists"
//! only once its thread starts it).

use crate::obs::{ObsEvent, ObsKind};

/// Linear sub-bucket bits per power-of-two range. 32 sub-buckets bound
/// the relative quantization error at ~3%; values below
/// `2^(SUB_BITS + 1)` are recorded exactly.
pub const SUB_BITS: u32 = 5;

/// Total bucket count for `SUB_BITS` (covers all of `u64`).
pub const N_BUCKETS: usize = ((65 - SUB_BITS) as usize) << SUB_BITS;

/// Bucket index of `v`: exact below `2^(SUB_BITS + 1)`, then
/// `2^SUB_BITS` linear sub-buckets per power-of-two range (the HDR
/// histogram layout).
pub fn bucket_of(v: u64) -> usize {
    let b = SUB_BITS;
    if v < (1 << b) {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // v in [2^e, 2^(e+1)), e >= b
        let sub = (v >> (e - b)) as usize - (1 << b);
        (((e - b + 1) as usize) << b) + sub
    }
}

/// Inclusive upper bound of bucket `i` — what percentile extraction
/// reports, so a reported quantile never under-states the true value.
pub fn bucket_upper(i: usize) -> u64 {
    let b = SUB_BITS;
    if i < (1 << (b + 1)) {
        i as u64 // exact range: singleton buckets
    } else {
        let e = (i as u32 >> b) + b - 1;
        let sub = (i & ((1 << b) - 1)) as u128;
        // The very top bucket's exclusive bound is 2^64; widen so it
        // saturates to u64::MAX instead of overflowing.
        let bound = ((1u128 << b) + sub + 1) << (e - b);
        (bound - 1).min(u64::MAX as u128) as u64
    }
}

/// Streaming log-bucketed (HDR-style) histogram of cycle counts. The
/// maximum is tracked exactly (not quantized).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    total: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            total: 0,
            max: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of recorded values (saturating).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile `num/den` (e.g. p99.9 = `quantile(999,
    /// 1000)`): the upper bound of the bucket holding the
    /// `ceil(count * num / den)`-th smallest recorded value. Integer
    /// arithmetic throughout, so extraction is deterministic across
    /// hosts. Returns 0 on an empty histogram.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count * num).div_ceil(den)).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        unreachable!("count is the sum of bucket counts");
    }

    /// The fixed percentile set every report exposes.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50: self.quantile(50, 100),
            p90: self.quantile(90, 100),
            p99: self.quantile(99, 100),
            p999: self.quantile(999, 1000),
            max: self.max,
            total: self.total,
        }
    }
}

/// The percentile digest of one run's request-latency distribution, as
/// carried into `--json` reports. All simulated quantities — identical
/// across schedulers and interpreters for a given spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    pub count: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
    pub max: u64,
    /// Sum of latencies (saturating) — `total / count` is the mean.
    pub total: u64,
}

impl LatencySummary {
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.count).unwrap_or(0)
    }
}

/// One request's derived latency and its component breakdown. All
/// component cycles are disjoint spans inside `[arrival, completion]`;
/// `other()` is the (clamped) remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestLatency {
    /// Core the request was served on.
    pub core: usize,
    /// Index of the request within its core's schedule.
    pub index: usize,
    /// Arrival timestamp (caller-provided for open loop; the first
    /// attempt's begin otherwise).
    pub arrival: u64,
    /// Clock of the first `TxBegin`/`IrrevocableEnter` of the request.
    pub first_begin: u64,
    /// Clock of the completing `TxCommit`/`IrrevocableExit`.
    pub completion: u64,
    /// Cycles between arrival and first attempt (open-loop queueing
    /// when the core is still serving earlier requests; 0 closed-loop).
    pub queue: u64,
    /// Advisory-lock spin cycles (acquired or timed out).
    pub lock_wait: u64,
    /// Retry-backoff cycles between attempts.
    pub backoff: u64,
    /// Cycles inside aborted transaction attempts (begin → abort).
    pub retry: u64,
    /// Cycles of irrevocable (global-lock) execution, when the request
    /// fell back to the serial path.
    pub irrevocable: u64,
    /// Cycles of the committed attempt (begin → commit; 0 when the
    /// request completed irrevocably).
    pub service: u64,
    /// Aborted attempts before completion.
    pub aborted_attempts: u32,
}

impl RequestLatency {
    /// End-to-end latency: completion − arrival.
    pub fn total(&self) -> u64 {
        self.completion - self.arrival
    }

    /// Cycles not covered by a named component (abort delivery, gaps
    /// between spans).
    pub fn other(&self) -> u64 {
        self.total().saturating_sub(
            self.queue
                + self.lock_wait
                + self.backoff
                + self.retry
                + self.irrevocable
                + self.service,
        )
    }

    /// The named component that dominated this request's latency —
    /// what a tail-latency report blames. Ties break toward the earlier
    /// entry of the fixed order below (deterministic).
    pub fn dominant(&self) -> (&'static str, u64) {
        let parts = [
            ("queue", self.queue),
            ("lock_wait", self.lock_wait),
            ("backoff", self.backoff),
            ("retry", self.retry),
            ("irrevocable", self.irrevocable),
            ("service", self.service),
            ("other", self.other()),
        ];
        let mut best = parts[0];
        for p in parts {
            if p.1 > best.1 {
                best = p;
            }
        }
        best
    }
}

/// Derive per-request latencies from per-core event streams.
///
/// `arrivals[c]` holds core `c`'s request-arrival timestamps in
/// schedule order (the open-loop case; pass empty vectors — or an empty
/// slice — for closed-loop/plain workloads, where arrival is defined as
/// the first attempt's begin). When arrivals are supplied, completions
/// beyond the provided count fall back to first-begin arrivals rather
/// than panicking, so the derivation stays total on foreign streams.
///
/// Requests are returned core-major in schedule order — deterministic,
/// and bit-identical across schedulers because the event streams are.
pub fn request_latencies(streams: &[Vec<ObsEvent>], arrivals: &[Vec<u64>]) -> Vec<RequestLatency> {
    let mut out = Vec::new();
    for (core, stream) in streams.iter().enumerate() {
        let arr = arrivals.get(core).map(Vec::as_slice).unwrap_or(&[]);
        let mut index = 0usize;
        // In-flight request accumulator.
        let mut first_begin: Option<u64> = None;
        let mut attempt_begin: Option<u64> = None;
        // Lock-wait/backoff cycles inside the *current* attempt's span —
        // subtracted from that attempt's retry/service share so the
        // named components stay disjoint (a spin during a transaction is
        // blamed on the lock, not on transactional work).
        let mut attempt_overlap = 0u64;
        let mut lock_wait = 0u64;
        let mut backoff = 0u64;
        let mut retry = 0u64;
        let mut aborted = 0u32;
        for e in stream {
            match e.kind {
                ObsKind::TxBegin { .. } | ObsKind::IrrevocableEnter => {
                    first_begin.get_or_insert(e.clock);
                    if matches!(e.kind, ObsKind::TxBegin { .. }) {
                        attempt_begin = Some(e.clock);
                        attempt_overlap = 0;
                    }
                }
                ObsKind::TxAbort { .. } => {
                    if let Some(b) = attempt_begin.take() {
                        retry += (e.clock - b).saturating_sub(attempt_overlap);
                        aborted += 1;
                    }
                }
                ObsKind::LockAcquire { waited, .. } | ObsKind::LockTimeout { waited, .. } => {
                    // Lock waits before a request's first attempt (the
                    // runtime may pre-wait) still belong to it.
                    first_begin.get_or_insert(e.clock - waited);
                    lock_wait += waited;
                    if let Some(b) = attempt_begin {
                        attempt_overlap += waited.min(e.clock - b);
                    }
                }
                ObsKind::Backoff { cycles } => {
                    backoff += cycles;
                    if let Some(b) = attempt_begin {
                        attempt_overlap += cycles.min(e.clock - b);
                    }
                }
                ObsKind::TxCommit | ObsKind::IrrevocableExit { .. } => {
                    let fb = first_begin.take().unwrap_or(e.clock);
                    let (irrevocable, service) = match e.kind {
                        ObsKind::IrrevocableExit { cycles } => (cycles, 0),
                        _ => {
                            let span = e.clock - attempt_begin.unwrap_or(e.clock);
                            (0, span.saturating_sub(attempt_overlap))
                        }
                    };
                    let arrival = arr.get(index).copied().unwrap_or(fb).min(fb);
                    out.push(RequestLatency {
                        core,
                        index,
                        arrival,
                        first_begin: fb,
                        completion: e.clock,
                        queue: fb - arrival,
                        lock_wait,
                        backoff,
                        retry,
                        irrevocable,
                        service,
                        aborted_attempts: aborted,
                    });
                    index += 1;
                    attempt_begin = None;
                    lock_wait = 0;
                    backoff = 0;
                    retry = 0;
                    aborted = 0;
                }
                ObsKind::LockRelease { .. } => {}
            }
        }
    }
    out
}

/// Fold request latencies into a [`LogHistogram`] of end-to-end totals.
pub fn histogram_of(requests: &[RequestLatency]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for r in requests {
        h.record(r.total());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::AbortCause;

    fn ev(clock: u64, kind: ObsKind) -> ObsEvent {
        ObsEvent { clock, kind }
    }

    fn abort(clock: u64) -> ObsEvent {
        ev(
            clock,
            ObsKind::TxAbort {
                cause: AbortCause::Conflict,
                conf_addr: 0,
                victim_pc_tag: 0,
                aborter_pc_tag: 0,
                aborter: 0,
            },
        )
    }

    /// Deterministic test PRNG (splitmix64) — the module under test must
    /// not depend on the workspace PRNG crate.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        // Every value maps into a bucket whose upper bound is >= the
        // value, and bucket indices are monotone in the value.
        let mut prev = 0usize;
        for k in 0..64u32 {
            for v in [(1u64 << k).saturating_sub(1), 1u64 << k, (1u64 << k) + 1] {
                let i = bucket_of(v);
                assert!(i >= prev || v < prev as u64, "monotone at {v}");
                assert!(bucket_upper(i) >= v, "upper bound covers {v}");
                assert!(i < N_BUCKETS);
                prev = i;
            }
        }
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_upper(N_BUCKETS - 1), u64::MAX);
        // Exact below 2^(SUB_BITS + 1).
        for v in 0..(1u64 << (SUB_BITS + 1)) {
            assert_eq!(bucket_upper(bucket_of(v)), v, "exact at {v}");
        }
    }

    #[test]
    fn histogram_percentiles_match_sorted_reference() {
        // Property: nearest-rank quantiles equal the quantized sorted
        // vector reference on randomized inputs, across scales.
        let mut state = 2015u64;
        for round in 0..20 {
            let n = 1 + (splitmix(&mut state) % 500) as usize;
            let shift = (splitmix(&mut state) % 40) as u32;
            let vals: Vec<u64> = (0..n).map(|_| splitmix(&mut state) >> shift).collect();
            let mut h = LogHistogram::new();
            for &v in &vals {
                h.record(v);
            }
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            for (num, den) in [(1, 100), (50, 100), (90, 100), (99, 100), (999, 1000)] {
                let rank = ((n as u64 * num).div_ceil(den)).clamp(1, n as u64);
                let want = bucket_upper(bucket_of(sorted[rank as usize - 1]));
                assert_eq!(
                    h.quantile(num, den),
                    want,
                    "round {round}: q{num}/{den} over {n} values"
                );
            }
            assert_eq!(h.max(), *sorted.last().unwrap());
            assert_eq!(h.count(), n as u64);
        }
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(99, 100), 0);
        let s = h.summary();
        assert_eq!((s.count, s.p999, s.max, s.mean()), (0, 0, 0, 0));
    }

    /// The attribution satellite: a hand-built two-core scenario where a
    /// known lock-wait span dominates one core's request and a known
    /// abort-retry dominates the other's — the derived breakdown must
    /// name them.
    #[test]
    fn attribution_names_lock_wait_and_abort_retry() {
        // Core 0: arrival 100, begins at 150, spins 5000 cycles on an
        // advisory lock (acquired at 5350), commits at 5500.
        let core0 = vec![
            ev(150, ObsKind::TxBegin { ab_id: 1 }),
            ev(
                5350,
                ObsKind::LockAcquire {
                    word: 0x1000,
                    waited: 5000,
                },
            ),
            ev(5500, ObsKind::TxCommit),
        ];
        // Core 1: arrival 200, first attempt 200→6200 aborts (6000
        // cycles of retry), 50 cycles of backoff, second attempt
        // 6300→6500 commits.
        let core1 = vec![
            ev(200, ObsKind::TxBegin { ab_id: 1 }),
            abort(6200),
            ev(6250, ObsKind::Backoff { cycles: 50 }),
            ev(6300, ObsKind::TxBegin { ab_id: 1 }),
            ev(6500, ObsKind::TxCommit),
        ];
        let arrivals = vec![vec![100], vec![200]];
        let reqs = request_latencies(&[core0, core1], &arrivals);
        assert_eq!(reqs.len(), 2);

        let r0 = &reqs[0];
        assert_eq!((r0.core, r0.index), (0, 0));
        assert_eq!(r0.total(), 5400);
        assert_eq!(r0.queue, 50);
        assert_eq!(r0.lock_wait, 5000);
        assert_eq!(r0.dominant().0, "lock_wait");

        let r1 = &reqs[1];
        assert_eq!(r1.total(), 6300);
        assert_eq!(r1.retry, 6000);
        assert_eq!(r1.backoff, 50);
        assert_eq!(r1.service, 200);
        assert_eq!(r1.aborted_attempts, 1);
        assert_eq!(r1.dominant().0, "retry");
        // Components never exceed the total.
        assert!(r1.other() <= r1.total());
    }

    #[test]
    fn irrevocable_exit_completes_a_request() {
        // A request that exhausts retries: attempt aborts, then the
        // irrevocable fallback runs 4000..9000. No TxCommit is emitted —
        // IrrevocableExit must terminate the segment, and the next
        // commit must become request 1.
        let stream = vec![
            ev(1000, ObsKind::TxBegin { ab_id: 0 }),
            abort(2000),
            ev(4000, ObsKind::IrrevocableEnter),
            ev(9000, ObsKind::IrrevocableExit { cycles: 5000 }),
            ev(9100, ObsKind::TxBegin { ab_id: 0 }),
            ev(9400, ObsKind::TxCommit),
        ];
        let reqs = request_latencies(&[stream], &[vec![500, 9050]]);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].total(), 8500);
        assert_eq!(reqs[0].irrevocable, 5000);
        assert_eq!(reqs[0].retry, 1000);
        assert_eq!(reqs[0].dominant().0, "irrevocable");
        assert_eq!((reqs[1].index, reqs[1].total()), (1, 350));
        assert_eq!(reqs[1].service, 300);
    }

    #[test]
    fn closed_loop_uses_first_begin_as_arrival() {
        let stream = vec![
            ev(300, ObsKind::TxBegin { ab_id: 0 }),
            ev(450, ObsKind::TxCommit),
        ];
        let reqs = request_latencies(&[stream], &[]);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].arrival, 300);
        assert_eq!(reqs[0].total(), 150);
        assert_eq!(reqs[0].queue, 0);
        let h = histogram_of(&reqs);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 150);
    }
}
