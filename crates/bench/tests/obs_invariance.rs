//! The observability layer is a pure observer: turning event recording on
//! must not change a single simulated cycle, statistic, runtime counter or
//! thread return value. And the events recorded must carry enough to
//! reproduce the paper's profiling pass — on the contended list, conflict
//! attribution has to point at the list-traversal access the staggered mode
//! anchors on.

use htm_sim::{Machine, MachineConfig};
use stagger_bench::profiling::{conflict_pairs, resolve_tag};
use stagger_bench::workload_set;
use stagger_core::{Mode, RtStats, RuntimeConfig};
use workloads::serve::Serve;
use workloads::PreparedWorkload;

fn run_with_recording(
    p: &PreparedWorkload,
    mode: Mode,
    record_events: bool,
) -> (htm_sim::SimStats, RtStats, Vec<u64>) {
    let mut mcfg = MachineConfig::cores(4);
    mcfg.record_events = record_events;
    let r = p.run_cfg(2015, mcfg, RuntimeConfig::with_mode(mode));
    if record_events {
        let n: usize = r.events.iter().map(|s| s.len()).sum();
        assert!(n > 0, "{}: recording on but no events", p.name());
    }
    (r.out.sim, r.out.rt, r.out.returns)
}

/// Event recording on vs off: bit-identical stats, runtime counters and
/// returns on a representative workload slice in both contended modes.
#[test]
fn event_recording_does_not_perturb_the_simulation() {
    let picks = ["list-hi", "genome", "kmeans", "memcached"];
    let set = workload_set(true);
    for name in picks {
        let w = set
            .iter()
            .find(|w| w.name() == name)
            .unwrap_or_else(|| panic!("workload {name} missing from quick set"));
        let p = PreparedWorkload::new(w.as_ref());
        for mode in [Mode::Htm, Mode::Staggered] {
            let off = run_with_recording(&p, mode, false);
            let on = run_with_recording(&p, mode, true);
            assert_eq!(
                off.0,
                on.0,
                "{name} [{}]: stats perturbed by event recording",
                mode.name()
            );
            assert_eq!(
                off.1,
                on.1,
                "{name} [{}]: runtime counters perturbed by event recording",
                mode.name()
            );
            assert_eq!(
                off.2,
                on.2,
                "{name} [{}]: returns perturbed by event recording",
                mode.name()
            );
        }
    }
}

/// The serving scenario's latency capture is itself a pure observer:
/// recording on vs off leaves the simulation bit-identical, and the
/// recorded stream yields a request-latency table.
#[test]
fn serve_latency_capture_does_not_perturb_the_simulation() {
    let name = "serve-flash-i8000";
    let w = workloads::workload_by_name(name, true).expect("serve name parses");
    let p = PreparedWorkload::new(w.as_ref());
    let cores = 4;
    let cfg = Serve::parse_name(name, true).expect("serve name parses");
    let arrivals: Vec<Vec<u64>> = (0..cores)
        .map(|c| cfg.schedule(c).iter().map(|r| r.arrival).collect())
        .collect();

    for mode in [Mode::Htm, Mode::Staggered] {
        let off = run_with_recording(&p, mode, false);
        let on = run_with_recording(&p, mode, true);
        assert_eq!(
            off,
            on,
            "{name} [{}]: simulation perturbed by event recording",
            mode.name()
        );

        let mcfg = MachineConfig::cores(cores).record_events();
        let r = p.run_cfg(2015, mcfg, RuntimeConfig::with_mode(mode));
        assert!(r.events_dropped.iter().all(|&d| d == 0));
        let reqs = htm_sim::request_latencies(&r.events, &arrivals);
        assert!(
            !reqs.is_empty(),
            "{name} [{}]: no requests derived",
            mode.name()
        );
    }
}

/// The profiling pass on the contended list in plain HTM mode: the top
/// conflicting PC pair must resolve — through the compiled program's
/// anchor tables — to an access inside the list traversal, the very
/// access the staggered modes anchor on.
#[test]
fn list_conflicts_attribute_to_the_traversal() {
    let set = workload_set(true);
    let w = set.iter().find(|w| w.name() == "list-hi").unwrap();
    let p = PreparedWorkload::new(w.as_ref());
    let mut mcfg = MachineConfig::cores(8);
    mcfg.record_events = true;
    let machine = Machine::new(mcfg);
    p.run_on(&machine, &RuntimeConfig::with_mode(Mode::Htm), 2015);
    let streams = machine.take_events();

    let pairs = conflict_pairs(&streams);
    assert!(!pairs.is_empty(), "contended list produced no conflicts");
    let top = &pairs[0];
    let mask = machine.config().pc_tag_mask();
    let victim = resolve_tag(p.compiled(), top.ab_id, top.victim_tag, mask)
        .expect("top victim tag resolves to the program");
    assert_eq!(
        victim.func, "list_find_prev",
        "top conflict victim should be the list traversal, got {}+{:#x}",
        victim.func, victim.offset
    );
    // The traversal access belongs to an anchor region — the one the
    // staggered modes lock.
    assert_ne!(victim.anchor_id, 0, "traversal access maps to an anchor");
}
