//! Microbenchmarks for the hot pure-logic components: the stealval
//! codec (executed on every steal), the steal-half arithmetic, task
//! record encode/decode (every enqueue/steal), and SHA-1 (every UTS
//! node, on the host's selected compression and on the software one).
//! These are real wall-clock measurements, unlike the virtual-time
//! experiment harnesses; they use a self-contained timing loop so the
//! workspace carries no external bench framework.

use std::hint::black_box;
use std::time::Instant;

use sws_core::steal_half::{claimed_before, max_steals, volume};
use sws_core::stealval::{Gate, Layout, StealVal};
use sws_task::TaskDescriptor;
use sws_workloads::sha1::{sha1, sha_ni_available, spawn_child, spawn_child_soft};

/// Time `f` over enough iterations to fill ~50 ms, reporting ns/iter.
/// One warm-up pass sizes the batch so cheap ops aren't dominated by
/// clock reads.
fn bench(name: &str, mut f: impl FnMut()) {
    // Calibrate: how many iterations fit in ~5 ms?
    let mut n: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..n {
            f();
        }
        let dt = t0.elapsed();
        if dt.as_millis() >= 5 || n >= 1 << 30 {
            break;
        }
        n *= 8;
    }
    // Measure: best of 5 batches (minimum filters scheduler noise).
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..n {
            f();
        }
        let per = t0.elapsed().as_nanos() as f64 / n as f64;
        if per < best {
            best = per;
        }
    }
    println!("{name:<40} {best:>10.2} ns/iter  ({n} iters/batch)");
}

fn bench_stealval() {
    let sv = StealVal {
        asteals: 2,
        gate: Gate::Open { epoch: 1 },
        itasks: 150,
        tail: 500,
    };
    bench("stealval/encode_epochs", || {
        black_box(Layout::Epochs.encode(black_box(sv)));
    });
    let raw = Layout::Epochs.encode(sv);
    bench("stealval/decode_epochs", || {
        black_box(Layout::Epochs.decode(black_box(raw)));
    });
}

fn bench_steal_half() {
    bench("steal_half/volume_T150", || {
        black_box(volume(black_box(150), black_box(2)));
    });
    bench("steal_half/claimed_before_max_itasks", || {
        black_box(claimed_before(black_box((1 << 19) - 1), black_box(10)));
    });
    bench("steal_half/max_steals_max_itasks", || {
        black_box(max_steals(black_box((1 << 19) - 1)));
    });
}

fn bench_task_codec() {
    let payload = [0xABu8; 40];
    let task = TaskDescriptor::new(3, &payload);
    let mut rec = vec![0u64; 6];
    bench("task/encode_48B", || {
        black_box(&task).encode(black_box(&mut rec));
    });
    task.encode(&mut rec);
    bench("task/decode_48B", || {
        black_box(TaskDescriptor::decode(black_box(&rec)));
    });
}

fn bench_sha1() {
    // The unsuffixed lines run the compression this host selected; the
    // `.soft` line always runs the portable rounds.
    let selected = if sha_ni_available() { "sha-ni" } else { "soft" };
    println!("sha1 compression selected: {selected}");
    let state = [7u8; 20];
    bench("sha1/uts_spawn_child", || {
        black_box(spawn_child(black_box(&state), black_box(3)));
    });
    bench("sha1/uts_spawn_child.soft", || {
        black_box(spawn_child_soft(black_box(&state), black_box(3)));
    });
    let big = vec![0x5Au8; 4096];
    bench("sha1/4KiB", || {
        black_box(sha1(black_box(&big)));
    });
}

fn main() {
    println!("microbenchmarks (wall clock, best of 5 batches)");
    bench_stealval();
    bench_steal_half();
    bench_task_codec();
    bench_sha1();
}
