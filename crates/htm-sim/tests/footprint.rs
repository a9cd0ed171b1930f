//! Host-memory footprint of idle and used machines.
//!
//! Simulated memory and its coherence directory share one row per line,
//! sized to the configured memory (64 MiB of data by default), and every
//! cache level holds one handle per set, but all of them are allocated as
//! zeroed pages, so a machine costs resident memory only for what a run
//! touches: a row per line (88 bytes up to 64 cores, 160 above) and four
//! bytes per cache way filled. Alone in this file, and serialized: `VmRSS`
//! is per process, and any other test would move it. Each test leaks its
//! machines, so the other cannot measure memory it freed.

#![cfg(target_os = "linux")]

use std::sync::Mutex;

use htm_sim::{Machine, MachineConfig, LINE_BYTES};

/// Held by each test for its whole measurement.
static RSS: Mutex<()> = Mutex::new(());

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
    let _alone = RSS.lock().unwrap_or_else(|e| e.into_inner());
    let (default, grown) = idle_machines(16, MachineConfig::default());
    eprintln!("16 default machines: VmRSS +{grown} KiB");
    // A memset of the memory-sized rows would add 88 MiB or more per
    // machine. The cache set tables are one u32 per set (64 KiB for the
    // L3, 8.5 KiB per core for L1 + L2: 200 KiB per 16-core machine),
    // small enough that the allocator hands most of them out touched:
    // measured 2.6 MiB here, 3.0 MiB when a set's slot was 16 bytes.
    assert!(
        grown < 4 * 1024,
        "16 idle default machines grew VmRSS by {grown} KiB (limit 4 MiB); \
         is something memset at construction again?"
    );

    let (wide, grown) = idle_machines(1, MachineConfig::cores(256));
    eprintln!("one 256-core machine: VmRSS +{grown} KiB");
    // 256 cores x 8.5 KiB of set tables plus each core's own state:
    // measured 2.3 MiB.
    assert!(
        grown < 4 * 1024,
        "an idle 256-core machine grew VmRSS by {grown} KiB (limit 4 MiB)"
    );
    std::mem::forget((default, wide));
}

/// A default machine of `n_cores` whose cores each store to their own
/// `lines / n_cores` distinct lines, and the KiB of VmRSS that cost.
fn used_machine(n_cores: usize, lines: u64) -> (Machine, u64) {
    let before = vm_rss_kib();
    let m = Machine::new(MachineConfig::cores(n_cores));
    let base = m.host_alloc(lines * LINE_BYTES / 8, true);
    let per_core = lines / n_cores as u64;
    m.run_uniform(move |mut c| async move {
        let first = base + c.tid() as u64 * per_core * LINE_BYTES;
        for i in 0..per_core {
            c.nt_store(first + i * LINE_BYTES, 1).await;
        }
    });
    assert_eq!(m.host_load(base + (lines - 1) * LINE_BYTES), 1);
    let grown = vm_rss_kib().saturating_sub(before);
    (m, grown)
}

#[test]
fn used_machines_cost_a_row_and_their_ways_per_line() {
    let _alone = RSS.lock().unwrap_or_else(|e| e.into_inner());
    // 65,536 rows of 88 bytes (5.5 MiB), plus 4-byte ways: 16 L2 pools
    // of 2,048 sets x 4 and the L3's 16,384 x 4. Measured 6.7-6.9 MiB;
    // 14.0-14.5 MiB with a separate 64-byte memory line and 96-byte
    // directory row per line and 16-byte stamped ways.
    let (narrow, grown) = used_machine(16, 65_536);
    eprintln!("16 cores, 65,536 lines stored: VmRSS +{grown} KiB");
    assert!(
        grown < 9 * 1024,
        "16 cores storing 65,536 lines grew VmRSS by {grown} KiB (limit 9 MiB)"
    );

    // 131,072 rows of 160 bytes (20 MiB) and 256 cores' L1 and L2 pools.
    // Measured 26.0 MiB; 36.8 MiB with the separate memory, directory and
    // stamped ways.
    let (wide, grown) = used_machine(256, 131_072);
    eprintln!("256 cores, 131,072 lines stored: VmRSS +{grown} KiB");
    assert!(
        grown < 32 * 1024,
        "256 cores storing 131,072 lines grew VmRSS by {grown} KiB (limit 32 MiB)"
    );
    std::mem::forget((narrow, wide));
}
