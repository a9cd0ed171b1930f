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

#[test]
fn idle_default_machines_stay_small() {
    let before = vm_rss_kib();
    let machines: Vec<Machine> = (0..16)
        .map(|_| Machine::new(MachineConfig::default()))
        .collect();
    // Touch each so nothing about them is deferred past the measurement.
    for m in &machines {
        assert_eq!(m.host_load(4096), 0);
    }
    let grown = vm_rss_kib().saturating_sub(before);
    eprintln!("16 default machines: VmRSS +{grown} KiB");
    // A memset of either memory-sized array would add 64 MiB or more per
    // machine, one of the cache set tables 1.2 MiB.
    assert!(
        grown < 8 * 1024,
        "16 idle default machines grew VmRSS by {grown} KiB (limit 8 MiB); \
         is something memset at construction again?"
    );
}
