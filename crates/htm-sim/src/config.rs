//! Machine configuration — the reproduction of the paper's Table 2.

/// HTM conflict-resolution protocol (paper Section 7 taxonomy).
///
/// The paper evaluates on an eager requester-wins design and names lazy
/// protocols as future work; both are implemented here so the claim that
/// Staggered Transactions are "compatible with most conflict resolution
/// techniques" is testable (see the `ablations` harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HtmProtocol {
    /// Conflicts detected as they occur; in-place (undo-logged) writes;
    /// the requester wins and the current owner aborts.
    #[default]
    Eager,
    /// Writes buffered privately; conflicts detected at commit time; the
    /// committer wins and dooms transactions that read or wrote its lines.
    Lazy,
}

impl HtmProtocol {
    /// Canonical name, stable across releases (used by experiment specs).
    pub fn name(&self) -> &'static str {
        match self {
            HtmProtocol::Eager => "eager",
            HtmProtocol::Lazy => "lazy",
        }
    }

    /// Parse a protocol by its canonical name, case-insensitively.
    pub fn parse(s: &str) -> Option<HtmProtocol> {
        match s.to_ascii_lowercase().as_str() {
            "eager" => Some(HtmProtocol::Eager),
            "lazy" => Some(HtmProtocol::Lazy),
            _ => None,
        }
    }
}

/// What happens when a transaction exhausts its hardware retries (and
/// how speculative transactions coordinate with that path). The paper
/// evaluates only the irrevocable global-lock fallback; the alternatives
/// come from the hybrid-TM literature (see DESIGN.md "Protocol matrix").
///
/// This used to be folded into the retry protocol itself; splitting it
/// out of `HtmProtocol` keeps conflict *resolution* (eager/lazy)
/// orthogonal to fallback *coordination*, so the two sweep independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// The paper's protocol: acquire a global lock, run irrevocably,
    /// and have speculative transactions subscribe to the lock word
    /// (transactionally) immediately before commit.
    #[default]
    Irrevocable,
    /// Hybrid TM (Brown & Ravi): exhausted transactions retry on an
    /// instrumented software path under per-line ownership stripes that
    /// concurrent hardware transactions also check — charging the
    /// instrumentation cost on every access of both paths while the
    /// hybrid machinery is live, instead of stopping the world.
    HybridStm,
    /// Lazy subscription *without* the hardware fix (Dice et al.): the
    /// executor never subscribes to the fallback lock, so a hardware
    /// transaction can commit mid-irrevocable-section and observe a torn
    /// result. Deliberately unsafe — exists to reproduce the documented
    /// interleaving as a regression test. Never used in sweeps.
    LazySubscription,
    /// Lazy subscription with the Dice-et-al-style hardware fix: commit
    /// itself validates the fallback lock word and aborts the
    /// transaction (cause `SubscriptionValidation`) when the lock is
    /// held, restoring opacity without begin-time subscription.
    LazySubscriptionSafe,
}

impl FallbackPolicy {
    /// Every policy, in canonical order.
    pub const ALL: [FallbackPolicy; 4] = [
        FallbackPolicy::Irrevocable,
        FallbackPolicy::HybridStm,
        FallbackPolicy::LazySubscription,
        FallbackPolicy::LazySubscriptionSafe,
    ];

    /// Canonical name, stable across releases (used by experiment specs).
    pub fn name(&self) -> &'static str {
        match self {
            FallbackPolicy::Irrevocable => "irrevocable",
            FallbackPolicy::HybridStm => "hybrid-stm",
            FallbackPolicy::LazySubscription => "lazy-subscription",
            FallbackPolicy::LazySubscriptionSafe => "lazy-subscription-safe",
        }
    }

    /// Parse a policy by its canonical name, case-insensitively.
    pub fn parse(s: &str) -> Option<FallbackPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "irrevocable" => Some(FallbackPolicy::Irrevocable),
            "hybrid-stm" | "hybrid" => Some(FallbackPolicy::HybridStm),
            "lazy-subscription" | "lazy-sub" => Some(FallbackPolicy::LazySubscription),
            "lazy-subscription-safe" | "lazy-sub-safe" => {
                Some(FallbackPolicy::LazySubscriptionSafe)
            }
            _ => None,
        }
    }
}

/// Configuration of the simulated machine.
///
/// Defaults mirror Table 2 of the paper:
///
/// | component | paper | here |
/// |---|---|---|
/// | CPU cores | 2.5 GHz, 4-wide OoO | in-order cost model, 2.5 GHz equivalents |
/// | L1 | 64 KB D, 8-way, 64 B lines, 2-cycle | 128 sets × 8 ways presence + speculative bits, 2-cycle |
/// | L2 | private 1 MB, 8-way, 10-cycle | 2048 sets × 8 ways presence, 10-cycle |
/// | L3 | shared 8 MB, 8-way, 30-cycle | 16384 sets × 8 ways presence, 30-cycle |
/// | memory | 50 ns | 125 cycles |
/// | HTM | 2-bit (r/w) per L1 line, eager requester-wins | same |
/// | Stag. Trans. | 12-bit PC tag per L1 line | same |
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of simulated cores (the paper models 16).
    pub n_cores: usize,
    /// Simulated memory size in 64-bit words.
    pub mem_words: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// L3 / cache-to-cache transfer latency in cycles.
    pub l3_latency: u64,
    /// Main-memory latency in cycles.
    pub mem_latency: u64,
    /// L1 geometry: sets × ways (ways also bounds speculative lines/set).
    pub l1_sets: usize,
    pub l1_ways: usize,
    /// L2 geometry.
    pub l2_sets: usize,
    pub l2_ways: usize,
    /// L3 geometry (shared).
    pub l3_sets: usize,
    pub l3_ways: usize,
    /// Cycles charged for transaction begin / commit bookkeeping.
    pub tx_begin_cost: u64,
    pub tx_commit_cost: u64,
    /// Cycles charged when an abort is delivered: pipeline flush, abort
    /// handler dispatch, and (for eager HTM) undo-log write-back. Real
    /// eager designs of the paper's era pay hundreds of cycles here.
    pub tx_abort_cost: u64,
    /// Cycles charged per word for a bump allocation (amortized allocator
    /// cost; the paper uses the Lockless allocator to keep this small).
    pub alloc_cost_per_word: u64,
    /// Per-thread arena chunk size in words (allocations are thread-local
    /// until a chunk is exhausted, avoiding allocator-induced conflicts).
    pub arena_chunk_words: usize,
    /// How many low bits of the first-access PC the per-line hardware tag
    /// keeps (paper: 12, < 2.4% L1 space overhead).
    pub pc_tag_bits: u32,
    /// Conflict-resolution protocol.
    pub protocol: HtmProtocol,
    /// Fallback coordination policy for exhausted-retry transactions
    /// (and the commit-time validation the hardware performs on their
    /// behalf). Orthogonal to `protocol`. Default: the paper's
    /// irrevocable global-lock path.
    pub fallback: FallbackPolicy,
    /// Bounded-set HTM (Kafousis): maximum distinct lines one hardware
    /// transaction attempt may *touch* (read or write) before the next
    /// new line aborts it with a capacity cause. 0 (default) leaves the
    /// cache-geometry capacity model as the only bound.
    pub max_read_lines: usize,
    /// Maximum distinct lines one attempt may *write*; 0 disables.
    pub max_write_lines: usize,
    /// Record the full cycle-stamped observability event stream (see
    /// [`crate::obs`]): transaction lifecycle with conflict attribution,
    /// advisory-lock acquire/wait/timeout/release, backoff intervals and
    /// irrevocable entry/exit. Purely an observer: simulated cycles and
    /// stats are bit-identical with recording on or off.
    pub record_events: bool,
    /// Per-core bound on buffered observability events; when a core's
    /// ring fills, the oldest events are overwritten (and counted as
    /// dropped). 0 disables buffering entirely even with `record_events`.
    pub event_ring_capacity: usize,
    /// Capacity (in lines, rounded up to a power of two; 0 disables) of
    /// the per-core line-permission cache: per transaction attempt, the
    /// simulator remembers lines whose read/write ownership bits it has
    /// already set so repeat accesses skip the coherence-directory probe.
    /// Host-only: under requester-wins conflict resolution a held
    /// permission can only be revoked by dooming this core (which clears
    /// the cache), so simulated cycles, stats and events are bit-identical
    /// at any size. The knob is therefore excluded from `to_kv`/`set_kv` so
    /// experiment-spec run keys never depend on it.
    pub perm_cache_lines: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            n_cores: 16,
            mem_words: 1 << 23, // 64 MiB
            l1_latency: 2,
            l2_latency: 10,
            l3_latency: 30,
            mem_latency: 125,
            l1_sets: 128,
            l1_ways: 8,
            l2_sets: 2048,
            l2_ways: 8,
            l3_sets: 16384,
            l3_ways: 8,
            tx_begin_cost: 10,
            tx_commit_cost: 10,
            tx_abort_cost: 250,
            alloc_cost_per_word: 1,
            arena_chunk_words: 8192,
            pc_tag_bits: 12,
            protocol: HtmProtocol::Eager,
            fallback: FallbackPolicy::Irrevocable,
            max_read_lines: 0,
            max_write_lines: 0,
            record_events: false,
            event_ring_capacity: 1 << 20,
            perm_cache_lines: 32,
        }
    }
}

impl MachineConfig {
    /// Entry point of the fluent builder: a config with `n` cores and
    /// defaults otherwise. Chain the builder methods to deviate from
    /// Table 2, e.g. `MachineConfig::cores(4).small().lazy()`.
    ///
    /// Panics when `n` is outside `1..=`[`crate::coreset::MAX_CORES`] —
    /// the coherence directory's [`crate::coreset::CoreSet`] capacity —
    /// so an unsupported core count fails loudly at construction time
    /// instead of corrupting conflict detection later.
    pub fn cores(n: usize) -> Self {
        assert!(
            (1..=crate::coreset::MAX_CORES).contains(&n),
            "n_cores must be in 1..={}, got {n}",
            crate::coreset::MAX_CORES
        );
        MachineConfig {
            n_cores: n,
            ..Default::default()
        }
    }

    /// Shrink simulated memory to 2 MiB — fast to allocate/zero, the
    /// right size for unit tests.
    pub fn small(mut self) -> Self {
        self.mem_words = 1 << 18; // 2 MiB
        self
    }

    /// Select lazy (commit-time) conflict resolution.
    pub fn lazy(mut self) -> Self {
        self.protocol = HtmProtocol::Lazy;
        self
    }

    /// Select the conflict-resolution protocol.
    pub fn protocol(mut self, p: HtmProtocol) -> Self {
        self.protocol = p;
        self
    }

    /// Select the fallback coordination policy.
    pub fn fallback(mut self, f: FallbackPolicy) -> Self {
        self.fallback = f;
        self
    }

    /// Bound the distinct lines a transaction attempt may touch / write
    /// (bounded-set HTM; 0 disables either bound).
    pub fn bounded_sets(mut self, max_read_lines: usize, max_write_lines: usize) -> Self {
        self.max_read_lines = max_read_lines;
        self.max_write_lines = max_write_lines;
        self
    }

    /// Set the conflicting-PC tag width.
    pub fn pc_tag_bits(mut self, bits: u32) -> Self {
        self.pc_tag_bits = bits;
        self
    }

    /// Enable the cycle-stamped observability event stream.
    pub fn record_events(mut self) -> Self {
        self.record_events = true;
        self
    }

    /// Size the per-core line-permission cache (0 disables the fast path).
    pub fn perm_cache_lines(mut self, lines: usize) -> Self {
        self.perm_cache_lines = lines;
        self
    }

    /// Mask for the PC tag.
    pub fn pc_tag_mask(&self) -> u64 {
        (1u64 << self.pc_tag_bits) - 1
    }

    /// Serialize every knob as canonical `(key, value)` pairs, in a fixed
    /// order. The inverse of [`Self::set_kv`]; experiment specs embed
    /// these under a `machine.` prefix.
    ///
    /// Keys added after the sweep cache shipped (`fallback`,
    /// `max_read_lines`, `max_write_lines`) are emitted only when they
    /// deviate from their defaults, so every pre-existing spec
    /// serializes to the same canonical text (and the same run key) it
    /// always did — absent means default.
    pub fn to_kv(&self) -> Vec<(&'static str, String)> {
        let mut kv = vec![
            ("n_cores", self.n_cores.to_string()),
            ("mem_words", self.mem_words.to_string()),
            ("l1_latency", self.l1_latency.to_string()),
            ("l2_latency", self.l2_latency.to_string()),
            ("l3_latency", self.l3_latency.to_string()),
            ("mem_latency", self.mem_latency.to_string()),
            ("l1_sets", self.l1_sets.to_string()),
            ("l1_ways", self.l1_ways.to_string()),
            ("l2_sets", self.l2_sets.to_string()),
            ("l2_ways", self.l2_ways.to_string()),
            ("l3_sets", self.l3_sets.to_string()),
            ("l3_ways", self.l3_ways.to_string()),
            ("tx_begin_cost", self.tx_begin_cost.to_string()),
            ("tx_commit_cost", self.tx_commit_cost.to_string()),
            ("tx_abort_cost", self.tx_abort_cost.to_string()),
            ("alloc_cost_per_word", self.alloc_cost_per_word.to_string()),
            ("arena_chunk_words", self.arena_chunk_words.to_string()),
            ("pc_tag_bits", self.pc_tag_bits.to_string()),
            ("protocol", self.protocol.name().to_string()),
            ("record_events", self.record_events.to_string()),
            ("event_ring_capacity", self.event_ring_capacity.to_string()),
        ];
        if self.fallback != FallbackPolicy::Irrevocable {
            kv.push(("fallback", self.fallback.name().to_string()));
        }
        if self.max_read_lines != 0 {
            kv.push(("max_read_lines", self.max_read_lines.to_string()));
        }
        if self.max_write_lines != 0 {
            kv.push(("max_write_lines", self.max_write_lines.to_string()));
        }
        kv
    }

    /// Set one knob by its canonical key. Returns a descriptive error for
    /// an unknown key, an unparsable value, or a value the machine cannot
    /// be built with (a PC tag outside 1..=16 bits — the width `AbortInfo`
    /// carries — or a cache set count that is not a power of two).
    pub fn set_kv(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("machine.{key}: invalid value '{value}'"))
        }
        fn sets(key: &str, value: &str) -> Result<usize, String> {
            let n: usize = num(key, value)?;
            if n.is_power_of_two() {
                Ok(n)
            } else {
                Err(format!("machine.{key}: {n} is not a power of two"))
            }
        }
        match key {
            "n_cores" => self.n_cores = num(key, value)?,
            "mem_words" => self.mem_words = num(key, value)?,
            "l1_latency" => self.l1_latency = num(key, value)?,
            "l2_latency" => self.l2_latency = num(key, value)?,
            "l3_latency" => self.l3_latency = num(key, value)?,
            "mem_latency" => self.mem_latency = num(key, value)?,
            "l1_sets" => self.l1_sets = sets(key, value)?,
            "l1_ways" => self.l1_ways = num(key, value)?,
            "l2_sets" => self.l2_sets = sets(key, value)?,
            "l2_ways" => self.l2_ways = num(key, value)?,
            "l3_sets" => self.l3_sets = sets(key, value)?,
            "l3_ways" => self.l3_ways = num(key, value)?,
            "tx_begin_cost" => self.tx_begin_cost = num(key, value)?,
            "tx_commit_cost" => self.tx_commit_cost = num(key, value)?,
            "tx_abort_cost" => self.tx_abort_cost = num(key, value)?,
            "alloc_cost_per_word" => self.alloc_cost_per_word = num(key, value)?,
            "arena_chunk_words" => self.arena_chunk_words = num(key, value)?,
            "pc_tag_bits" => {
                let bits: u32 = num(key, value)?;
                if !(1..=16).contains(&bits) {
                    return Err(format!("machine.pc_tag_bits: {bits} is outside 1..=16"));
                }
                self.pc_tag_bits = bits;
            }
            "protocol" => {
                self.protocol = HtmProtocol::parse(value)
                    .ok_or_else(|| format!("machine.protocol: invalid value '{value}'"))?;
            }
            "fallback" => {
                self.fallback = FallbackPolicy::parse(value)
                    .ok_or_else(|| format!("machine.fallback: invalid value '{value}'"))?;
            }
            "max_read_lines" => self.max_read_lines = num(key, value)?,
            "max_write_lines" => self.max_write_lines = num(key, value)?,
            "record_events" => self.record_events = num(key, value)?,
            "event_ring_capacity" => self.event_ring_capacity = num(key, value)?,
            // `perm_cache_lines` is intentionally not settable here: it
            // cannot change simulated results, so it is not part of the
            // experiment spec (accepting it would silently fork run keys).
            other => return Err(format!("machine.{other}: unknown key")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = MachineConfig::default();
        assert_eq!(c.n_cores, 16);
        assert_eq!(c.l1_latency, 2);
        assert_eq!(c.l2_latency, 10);
        assert_eq!(c.l3_latency, 30);
        assert_eq!(c.l1_sets * c.l1_ways * 64, 64 * 1024); // 64 KB L1
        assert_eq!(c.l2_sets * c.l2_ways * 64, 1024 * 1024); // 1 MB L2
        assert_eq!(c.l3_sets * c.l3_ways * 64, 8 * 1024 * 1024); // 8 MB L3
        assert_eq!(c.pc_tag_bits, 12);
        assert_eq!(c.pc_tag_mask(), 0xFFF);
    }

    #[test]
    fn cores_past_the_old_u32_boundary_are_accepted() {
        // 33 cores used to overflow the u32 ownership masks; with CoreSet
        // the builder accepts everything up to MAX_CORES.
        assert_eq!(MachineConfig::cores(33).n_cores, 33);
        assert_eq!(
            MachineConfig::cores(crate::coreset::MAX_CORES).n_cores,
            crate::coreset::MAX_CORES
        );
    }

    #[test]
    #[should_panic(expected = "n_cores")]
    fn cores_above_max_are_rejected_at_construction() {
        let _ = MachineConfig::cores(crate::coreset::MAX_CORES + 1);
    }

    #[test]
    #[should_panic(expected = "n_cores")]
    fn zero_cores_are_rejected_at_construction() {
        let _ = MachineConfig::cores(0);
    }

    #[test]
    fn small_config_shrinks_memory_only() {
        let c = MachineConfig::cores(4).small();
        assert_eq!(c.n_cores, 4);
        assert!(c.mem_words < MachineConfig::default().mem_words);
        assert_eq!(c.l1_latency, 2);
    }

    #[test]
    fn builder_composes() {
        let c = MachineConfig::cores(8)
            .small()
            .lazy()
            .pc_tag_bits(6)
            .record_events();
        assert_eq!(c.n_cores, 8);
        assert_eq!(c.protocol, HtmProtocol::Lazy);
        assert_eq!(c.pc_tag_bits, 6);
        assert!(c.record_events);
    }

    #[test]
    fn kv_round_trips_every_key() {
        let c = MachineConfig::cores(3)
            .small()
            .lazy()
            .pc_tag_bits(9)
            .fallback(FallbackPolicy::HybridStm)
            .bounded_sets(16, 8);
        let mut d = MachineConfig::default();
        for (k, v) in c.to_kv() {
            d.set_kv(k, &v).unwrap();
        }
        assert_eq!(c.to_kv(), d.to_kv());
    }

    #[test]
    fn default_fallback_and_bounds_stay_out_of_the_kv() {
        // Pre-existing specs must keep serializing to the exact canonical
        // text (and hence run key) they had before the fallback/bounded-set
        // knobs existed: the new keys only appear when non-default.
        let kv = MachineConfig::cores(2).to_kv();
        assert!(kv.iter().all(|(k, _)| {
            *k != "fallback" && *k != "max_read_lines" && *k != "max_write_lines"
        }));
        // But parsing them back in is always accepted.
        let mut c = MachineConfig::default();
        c.set_kv("fallback", "lazy-subscription-safe").unwrap();
        c.set_kv("max_read_lines", "16").unwrap();
        c.set_kv("max_write_lines", "8").unwrap();
        assert_eq!(c.fallback, FallbackPolicy::LazySubscriptionSafe);
        assert_eq!((c.max_read_lines, c.max_write_lines), (16, 8));
        let kv = c.to_kv();
        assert!(kv
            .iter()
            .any(|(k, v)| *k == "fallback" && v == "lazy-subscription-safe"));
    }

    #[test]
    fn kv_rejects_unknown_and_bad_values() {
        let mut c = MachineConfig::default();
        assert!(c.set_kv("no_such_knob", "1").is_err());
        assert!(c.set_kv("pc_tag_bits", "wide").is_err());
        assert!(c.set_kv("protocol", "psychic").is_err());
        assert!(c.set_kv("fallback", "optimism").is_err());
        assert!(c.set_kv("max_read_lines", "many").is_err());
        assert!(
            c.set_kv("perm_cache_lines", "64").is_err(),
            "perm_cache_lines is host-only and must not enter run keys"
        );
    }

    #[test]
    fn kv_rejects_knobs_the_machine_cannot_be_built_with() {
        let mut c = MachineConfig::default();
        for bits in ["0", "17", "64"] {
            let err = c.set_kv("pc_tag_bits", bits).unwrap_err();
            assert!(err.starts_with("machine.pc_tag_bits: "), "{err}");
        }
        for bits in ["1", "16"] {
            c.set_kv("pc_tag_bits", bits).unwrap();
        }
        assert_eq!(c.pc_tag_mask(), 0xFFFF);
        for key in ["l1_sets", "l2_sets", "l3_sets"] {
            for v in ["0", "100", "3"] {
                let err = c.set_kv(key, v).unwrap_err();
                assert!(err.starts_with(&format!("machine.{key}: ")), "{err}");
            }
            c.set_kv(key, "64").unwrap();
        }
        assert_eq!((c.l1_sets, c.l2_sets, c.l3_sets), (64, 64, 64));
    }

    #[test]
    fn removed_driver_selection_is_rejected_input() {
        // There is one driver. The key every older spec carried, and the
        // knobs of drivers removed before it, must fail closed: an error,
        // never a panic and never silently ignored.
        let mut c = MachineConfig::default();
        for v in ["cooperative", "threaded", "speculative"] {
            assert_eq!(
                c.set_kv("scheduler", v),
                Err("machine.scheduler: unknown key".to_string())
            );
        }
        assert!(c.set_kv("host_threads", "4").is_err());
        assert!(c.set_kv("spec_quantum", "16").is_err());
        assert!(c.to_kv().iter().all(|(k, _)| *k != "scheduler"));
    }

    #[test]
    fn removed_trace_key_is_rejected_input() {
        // Begin/commit/abort recording is part of `record_events` now; the
        // key every older spec carried must fail closed, not be ignored.
        let mut c = MachineConfig::default();
        for v in ["false", "true"] {
            assert_eq!(
                c.set_kv("record_trace", v),
                Err("machine.record_trace: unknown key".to_string())
            );
        }
        assert!(c.to_kv().iter().all(|(k, _)| *k != "record_trace"));
    }

    #[test]
    fn perm_cache_is_a_host_knob_outside_the_spec() {
        let c = MachineConfig::cores(2).perm_cache_lines(64);
        assert_eq!(c.perm_cache_lines, 64);
        // Varying it must not change the serialized spec (and hence no
        // sweep-cell run key).
        assert_eq!(c.to_kv(), MachineConfig::cores(2).to_kv());
    }

    #[test]
    fn protocol_and_fallback_names_parse_back() {
        for p in [HtmProtocol::Eager, HtmProtocol::Lazy] {
            assert_eq!(HtmProtocol::parse(p.name()), Some(p));
        }
        for f in FallbackPolicy::ALL {
            assert_eq!(FallbackPolicy::parse(f.name()), Some(f));
        }
        assert_eq!(
            FallbackPolicy::parse("HYBRID"),
            Some(FallbackPolicy::HybridStm)
        );
        assert_eq!(FallbackPolicy::parse("pessimism"), None);
        assert_eq!(HtmProtocol::parse("none"), None);
    }
}
