//! Structural pin of the virtual-time executor: a virtual world runs every
//! PE as a coroutine on the calling thread, never one OS thread per PE.
//!
//! Kept alone in its own test binary, so no concurrently running test can
//! change the process's thread count between the two readings.

use sws_shmem::{run_world, WorldConfig};

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn virtual_world_adds_no_os_threads() {
    let before = os_threads();
    let out = run_world(WorldConfig::virtual_time(512, 64), |ctx| {
        let seen = os_threads();
        // Gate and barrier so PEs really interleave while counting.
        ctx.barrier_all();
        let peer = (ctx.my_pe() + 1) % ctx.n_pes();
        ctx.get_word(peer, sws_shmem::SymAddr::from_word(0));
        seen
    })
    .unwrap();
    assert!(
        out.results.iter().all(|&t| t == before),
        "the caller saw {before} threads; PEs saw {:?}",
        out.results
            .iter()
            .filter(|&&t| t != before)
            .take(4)
            .collect::<Vec<_>>()
    );
}
