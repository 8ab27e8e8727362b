//! Per-layer drivers: small fixed programs over each layer's public
//! functions, timed from outside.

use std::hint::black_box;
use std::time::Instant;

use sws_core::{QueueConfig, SdcQueue, StealQueue, SwsQueue};
use sws_sched::QueueKind;
use sws_shmem::{run_world, ShmemCtx, WorldConfig, CACHE_LINE_WORDS};
use sws_task::TaskDescriptor;
use sws_workloads::sha1::{root_state, spawn_child};
use sws_workloads::uts::UtsParams;

use crate::sys::median;
use crate::trace::Tracer;
use crate::work::Spec;

/// Median over five batches of a batch's wall ns divided by `iters`.
fn per_iter_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Workloads and task layers: (sha1 child ns, UTS children ns per node,
/// 48-byte record encode ns, decode ns).
pub fn codec_and_sha1(tr: &mut Tracer) -> [f64; 4] {
    let state = root_state(5);
    let sha1 = tr.span("workloads.sha1_batch", |_| {
        per_iter_ns(20_000, || {
            black_box(spawn_child(black_box(&state), black_box(3)));
        })
    });
    // Real tree nodes, in traversal order: a node's cost depends on its
    // fan-out, so a fixed synthetic state would not be representative.
    let params = UtsParams::geo_small(12);
    let mut nodes = Vec::new();
    let mut stack = vec![(params.root(), 0u32)];
    while let Some((s, d)) = stack.pop() {
        if nodes.len() == 4096 {
            break;
        }
        nodes.push((s, d));
        for i in 0..params.num_children(&s, d) {
            stack.push((spawn_child(&s, i), d + 1));
        }
    }
    let children = tr.span("workloads.uts_children_batch", |_| {
        let per_pass = per_iter_ns(4, || {
            for (s, d) in &nodes {
                for i in 0..params.num_children(black_box(s), *d) {
                    black_box(spawn_child(s, i));
                }
            }
        });
        per_pass / nodes.len() as f64
    });
    let task = UtsParams::node_task(&state, 7);
    let mut rec = [0u64; 6];
    let encode = tr.span("task.encode_batch", |_| {
        per_iter_ns(200_000, || black_box(&task).encode(black_box(&mut rec)))
    });
    task.encode(&mut rec);
    let decode = tr.span("task.decode_batch", |_| {
        per_iter_ns(200_000, || {
            black_box(TaskDescriptor::decode(black_box(&rec)));
        })
    });
    assert_eq!(TaskDescriptor::decode(&rec).payload(), task.payload());
    [sha1, children, encode, decode]
}

/// The one-sided ops the engine micro-driver issues.
#[derive(Copy, Clone)]
pub enum Op {
    FetchAdd,
    CompareSwap,
    Get48,
    PutNbi,
}

pub const OPS: [(&str, Op); 4] = [
    ("fetch_add", Op::FetchAdd),
    ("compare_swap", Op::CompareSwap),
    ("get48", Op::Get48),
    ("put_nbi", Op::PutNbi),
];

/// Engine widths the op driver runs at: (suffix, PEs, threaded).
pub const OP_WORLDS: [(&str, usize, bool); 3] = [
    ("thr2", 2, true),
    ("vt8", 8, false),
    ("vt2112", 2112, false),
];

/// Wall ns per op when every PE issues `op` against its right
/// neighbour: the op phase's wall time (less one barrier) over all ops
/// issued. Virtual time serializes the ops, so this is the engine's cost
/// per gated op; threaded mode runs both PEs at once. `None` if a
/// compare-and-swap that must succeed failed.
pub fn op_ns(tr: &mut Tracer, span: &str, n_pes: usize, threaded: bool, op: Op) -> Option<f64> {
    let per_pe = if threaded {
        200_000
    } else {
        (16_384 / n_pes).max(4)
    };
    let heap = 256;
    let cfg = if threaded {
        WorldConfig::threaded(n_pes, heap)
    } else {
        WorldConfig::virtual_time(n_pes, heap)
    };
    let run = || {
        run_world(cfg, |ctx: &ShmemCtx| {
            let addr = ctx.alloc_words_aligned(8);
            let target = (ctx.my_pe() + 1) % ctx.n_pes();
            let mut buf = [7u64; 6];
            let mut ok = true;
            ctx.barrier_all();
            let t0 = Instant::now();
            for i in 0..per_pe as u64 {
                match op {
                    Op::FetchAdd => {
                        black_box(ctx.atomic_fetch_add(target, addr, 1));
                    }
                    // Only this PE touches its neighbour's word, so every
                    // swap from the value it last wrote must win.
                    Op::CompareSwap => ok &= ctx.atomic_compare_swap(target, addr, i, i + 1) == i,
                    Op::Get48 => ctx.get_words(target, addr, black_box(&mut buf)),
                    Op::PutNbi => ctx.put_words_nbi(target, addr, black_box(&buf)),
                }
            }
            ctx.quiet();
            ctx.barrier_all();
            let phase = t0.elapsed().as_nanos() as f64;
            let t1 = Instant::now();
            ctx.barrier_all();
            let barrier = t1.elapsed().as_nanos() as f64;
            (ok, (phase - barrier).max(0.0))
        })
    };
    let out = tr.span(span, |_| run()).expect("op driver world");
    let ok = out.results.iter().all(|r| r.0);
    let ns = out.results[0].1 / (per_pe * n_pes) as f64;
    ok.then_some(ns)
}

/// Per-PE symmetric heap words of a workload's runs: the runner's own
/// budget (queue ring + completion array + fixed control and alignment
/// slack + its default extra words), rounded to whole cache lines as the
/// aligned heap does.
fn heap_words(spec: &Spec) -> usize {
    let q = spec.queue();
    let words = q.buffer_words() + q.capacity + 1024 + 16 * CACHE_LINE_WORDS + 4096;
    words.div_ceil(CACHE_LINE_WORDS) * CACHE_LINE_WORDS
}

/// Symmetric heap size of the workload's world, MiB.
pub fn heap_mb(spec: &Spec) -> f64 {
    (spec.n_pes * heap_words(spec) * 8) as f64 / (1024.0 * 1024.0)
}

fn world_cfg(spec: &Spec) -> WorldConfig {
    let words = heap_words(spec);
    if spec.threaded {
        WorldConfig::threaded(spec.n_pes, words)
    } else {
        WorldConfig::virtual_time(spec.n_pes, words)
    }
}

/// Bare `run_world` at the workload's width and heap size, seconds
/// (median of three), and the wall ns of one barrier there.
pub fn world_and_barrier(tr: &mut Tracer, spec: &Spec) -> (f64, f64) {
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            tr.span("shmem.run_world", |_| {
                let t0 = Instant::now();
                run_world(world_cfg(spec), |_ctx: &ShmemCtx| ()).expect("bare world");
                t0.elapsed().as_secs_f64()
            })
        })
        .collect();
    let reps: u32 = if spec.n_pes > 64 { 8 } else { 2000 };
    let barrier = tr.span("shmem.barrier_batch", |_| {
        let out = run_world(world_cfg(spec), |ctx: &ShmemCtx| {
            ctx.barrier_all();
            let t0 = Instant::now();
            for _ in 0..reps {
                ctx.barrier_all();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(reps)
        })
        .expect("barrier world");
        out.results[0]
    });
    (median(&walls), barrier)
}

/// Owner-side queue costs from a threaded 2-PE driver: each PE drives its
/// own queue through enqueue → release → pop → acquire → pop rounds, as a
/// UTS owner does between steals. Returns ns per (enqueue, pop_local,
/// release, acquire) call, or `None` if a round lost or duplicated tasks.
pub fn owner_path(tr: &mut Tracer, kind: QueueKind) -> Option<[f64; 4]> {
    const BATCH: usize = 512;
    const ROUNDS: usize = 400;
    let cfg = QueueConfig::new(1024, 48);
    let heap = cfg.buffer_words() + cfg.capacity + 8192;
    let tasks: Vec<TaskDescriptor> = (0..BATCH as u32)
        .map(|i| UtsParams::node_task(&spawn_child(&root_state(5), i), 3))
        .collect();
    let name = match kind {
        QueueKind::Sws => "core.owner_batch.sws",
        QueueKind::Sdc => "core.owner_batch.sdc",
    };
    let out = tr.span(name, |_| {
        run_world(WorldConfig::threaded(2, heap), |ctx: &ShmemCtx| {
            let mut q: Box<dyn StealQueue + '_> = match kind {
                QueueKind::Sws => Box::new(SwsQueue::new(ctx, cfg)),
                QueueKind::Sdc => Box::new(SdcQueue::new(ctx, cfg)),
            };
            ctx.barrier_all();
            // ns and calls per op: enqueue, pop_local, release, acquire.
            let mut ns = [0u128; 4];
            let mut calls = [0u64; 4];
            let mut ok = true;
            for _ in 0..ROUNDS {
                let t = Instant::now();
                for task in &tasks {
                    ok &= q.enqueue(black_box(task));
                }
                ns[0] += t.elapsed().as_nanos();
                calls[0] += BATCH as u64;
                let t = Instant::now();
                ok &= q.release();
                ns[2] += t.elapsed().as_nanos();
                calls[2] += 1;
                // Pop the local portion dry, then acquire back from the
                // unclaimed advertisement (half of it per call, as the
                // protocol keeps the rest stealable) until none is left.
                let mut popped = 0;
                loop {
                    let t = Instant::now();
                    while let Some(task) = q.pop_local() {
                        black_box(task);
                        popped += 1;
                    }
                    ns[1] += t.elapsed().as_nanos();
                    let t = Instant::now();
                    let got = q.acquire();
                    ns[3] += t.elapsed().as_nanos();
                    calls[3] += 1;
                    if !got {
                        break;
                    }
                }
                calls[1] += popped;
                ok &= popped == BATCH as u64;
                q.progress();
            }
            ctx.barrier_all();
            (ok, ns, calls)
        })
        .expect("owner-path world")
    });
    let mut ns = [0u128; 4];
    let mut calls = [0u64; 4];
    let mut ok = true;
    for (o, n, c) in &out.results {
        ok &= *o;
        for i in 0..4 {
            ns[i] += n[i];
            calls[i] += c[i];
        }
    }
    ok.then(|| std::array::from_fn(|i| ns[i] as f64 / calls[i].max(1) as f64))
}
