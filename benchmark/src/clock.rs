//! Host-side measurement primitives: the process CPU clock and peak RSS.
//!
//! Host time is taken on the process CPU clock, not the wall clock: the
//! sandbox is a shared VM whose wall-clock speed swings by tens of percent
//! for tens of seconds, while CPU time charged to a single-threaded process
//! moves far less. `/proc/thread-self/schedstat` would be the std-only
//! source, but the kernel only advances it at scheduler ticks (4 ms steps
//! on the recording host), which is coarser than a whole `setup_s`; the
//! `clock_gettime` call below reads the same counter at ns resolution.

use std::sync::OnceLock;
use std::time::Instant;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, and `Timespec` is that struct's layout on 64-bit Linux (two
    // 64-bit signed fields), which the `cfg` above restricts this to. `ts`
    // is a live, exclusively borrowed local for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_ns() -> Option<u64> {
    None
}

/// Nanoseconds of CPU time this process has consumed, all threads. Falls
/// back to the wall clock (with one warning) where the CPU clock cannot be
/// read.
pub fn cpu_ns() -> u64 {
    static WALL_EPOCH: OnceLock<Instant> = OnceLock::new();
    process_cpu_ns().unwrap_or_else(|| {
        let epoch = WALL_EPOCH.get_or_init(|| {
            eprintln!("benchmark: no process CPU clock here; timing falls back to the wall clock");
            Instant::now()
        });
        epoch.elapsed().as_nanos() as u64
    })
}

/// CPU seconds `f` took, and its result.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = cpu_ns();
    let r = f();
    ((cpu_ns() - t0) as f64 * 1e-9, r)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak resident set size in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_under_work_and_never_goes_back() {
        let a = cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = cpu_ns();
        assert!(b > a, "5M multiply-adds must cost CPU time: {a} -> {b}");
        assert!(cpu_ns() >= b);
    }

    #[test]
    fn vm_hwm_parser() {
        let text = "Name:\tbench\nVmPeak:\t  123456 kB\nVmHWM:\t   70312 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(text), Some(70312));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots\n"), None);
        assert!(peak_rss_mb() >= 0.0);
    }
}
