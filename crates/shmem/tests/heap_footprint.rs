//! The symmetric heap must sit on untouched zero pages until it is used:
//! a paper-width virtual world reserves gigabytes of heap it never reads.
//!
//! Kept alone in its own test binary, so no concurrently running test can
//! move the process's resident set between the two readings.

use sws_shmem::{run_world, HeapLayout, WorldConfig};

/// `VmRSS` of this process, in KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS: line")
}

#[test]
fn aligned_heap_is_not_touched_up_front() {
    const WORDS: usize = 32 << 20; // 256 MiB of heap
    let before = rss_kib();
    let cfg = WorldConfig::threaded(1, WORDS).with_heap_layout(HeapLayout::Aligned);
    let out = run_world(cfg, |_ctx| rss_kib()).unwrap();
    let grown_mib = out.results[0].saturating_sub(before) / 1024;
    assert!(
        grown_mib < 16,
        "a 256 MiB heap raised VmRSS by {grown_mib} MiB"
    );
}
