//! Process-level readings (std-only, Linux `/proc`) and small statistics.

use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` CPU fields. Linux fixes
/// `USER_HZ` at 100 on every mainstream architecture, and the standard
/// library has no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// Cumulative (user, sys) CPU seconds of this process, dead threads
/// included. `(0, 0)` when `/proc` is unavailable.
pub fn cpu_s() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime/stime being the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return (0.0, 0.0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) / USER_HZ, tick(12) / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact `q`-quantile of integer samples by nearest rank (`⌈q·n⌉`-th
/// smallest); 0 for an empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Wall and CPU seconds of one call.
#[derive(Copy, Clone, Debug)]
pub struct Timing {
    pub wall_s: f64,
    /// CPU time of every thread of the process (PE threads included)
    /// during the call.
    pub cpu_s: f64,
}

/// Run `f`, timing it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let c0 = process_cpu_s();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - c0;
    (r, Timing { wall_s, cpu_s })
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// CPU seconds consumed so far by all threads of this process, exited
/// threads included, at nanosecond resolution. The standard library has
/// no process CPU clock, and `/proc/self/stat` counts 10 ms ticks, too
/// coarse for a set-up that takes a millisecond.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, aligned `Timespec` whose two
    // `long` fields match that struct's layout on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
