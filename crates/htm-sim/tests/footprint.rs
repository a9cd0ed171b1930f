//! Host-memory footprint of an idle machine.
//!
//! Simulated memory and the coherence directory are both sized to the
//! configured memory (64 MiB by default), and every cache level holds one
//! slot per set, but all of them are allocated as zeroed pages, so a
//! machine costs resident memory only for what a run touches. Alone in
//! this file: `VmRSS` is per process, and the other integration tests would
//! move it.

#![cfg(target_os = "linux")]

use htm_sim::{Machine, MachineConfig};

fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib = line.split_whitespace().nth(1).expect("VmRSS value");
    kib.parse().expect("VmRSS is a number of KiB")
}

/// `n` idle machines of `cfg` and the KiB of VmRSS that building them cost.
/// The caller keeps them alive so a later measurement cannot reuse their
/// freed memory.
fn idle_machines(n: usize, cfg: MachineConfig) -> (Vec<Machine>, u64) {
    let before = vm_rss_kib();
    let machines: Vec<Machine> = (0..n).map(|_| Machine::new(cfg.clone())).collect();
    // Touch each so nothing about them is deferred past the measurement.
    for m in &machines {
        assert_eq!(m.host_load(4096), 0);
    }
    (machines, vm_rss_kib().saturating_sub(before))
}

#[test]
fn idle_machines_stay_small() {
    let (_default, grown) = idle_machines(16, MachineConfig::default());
    eprintln!("16 default machines: VmRSS +{grown} KiB");
    // A memset of either memory-sized array would add 64 MiB or more per
    // machine. The cache set tables are one u32 per set (64 KiB for the
    // L3, 8.5 KiB per core for L1 + L2: 200 KiB per 16-core machine),
    // small enough that the allocator hands most of them out touched:
    // measured 2.6 MiB here, 3.0 MiB when a set's slot was 16 bytes.
    assert!(
        grown < 4 * 1024,
        "16 idle default machines grew VmRSS by {grown} KiB (limit 4 MiB); \
         is something memset at construction again?"
    );

    let (_wide, grown) = idle_machines(1, MachineConfig::cores(256));
    eprintln!("one 256-core machine: VmRSS +{grown} KiB");
    // 256 cores x 8.5 KiB of set tables plus each core's own state:
    // measured 2.3 MiB.
    assert!(
        grown < 4 * 1024,
        "an idle 256-core machine grew VmRSS by {grown} KiB (limit 4 MiB)"
    );
}
