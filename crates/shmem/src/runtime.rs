//! World construction and PE execution.
//!
//! [`run_world`] hands every PE a [`ShmemCtx`], runs the supplied SPMD
//! closure on each, and collects per-PE results, op statistics, and final
//! (virtual) clocks. Threaded worlds run one OS thread per PE; virtual-time
//! worlds run every PE as a coroutine on the calling thread, scheduled by
//! the `VClock` executor. A panic on any PE poisons the world so blocked
//! peers fail fast instead of deadlocking, and surfaces as
//! [`ShmemError::PePanicked`].

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::coro::Body;
use crate::ctx::ShmemCtx;
use crate::error::{ShmemError, ShmemResult};
use crate::explore::ExploreGate;
use crate::fault::FaultPlan;
use crate::heap::{HeapLayout, SymmetricHeap};
use crate::lock::{Condvar, Mutex};
use crate::net::NetModel;
use crate::overrides::OrderingCtl;
use crate::stats::{OpStats, StatsSummary};
use crate::vclock::VClock;

/// How PEs execute.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Real threads, real atomics; op costs optionally injected as
    /// busy-waits. Nondeterministic interleavings — use for stress tests.
    Threaded {
        /// Busy-wait each op's modeled cost (for wall-clock microbenches).
        inject_latency: bool,
    },
    /// Conservative virtual-time serialization: every PE is a coroutine on
    /// the calling thread, run in global virtual-time order. Deterministic,
    /// scalable to thousands of PEs on one core. Use for experiments.
    Virtual,
}

/// World configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Number of PEs.
    pub n_pes: usize,
    /// Symmetric heap size per PE, in 64-bit words.
    pub heap_words: usize,
    /// Placement policy for the heap backing store. The aligned default
    /// pads PE regions to 128-byte boundaries and honors line-aligned
    /// collective allocation; `Packed` preserves the historical
    /// word-granular geometry (differential testing, tight memory).
    /// Virtual-time results are byte-identical across layouts because op
    /// costs never depend on addresses.
    pub heap_layout: HeapLayout,
    /// Network cost model.
    pub net: NetModel,
    /// Execution mode.
    pub mode: ExecMode,
    /// Fault schedule; `None` (or an inactive plan) injects nothing and
    /// leaves every op count bit-identical to a fault-free world.
    pub faults: Option<FaultPlan>,
    /// Record site-annotated one-sided ops as [`crate::ProtoEvent`]s for
    /// trace-conformance checking (see `crate::proto`). Off by default;
    /// when off, the op surface carries no capture state.
    pub capture_proto: bool,
    /// Record per-site contention counters ([`crate::SiteCounters`])
    /// with plain per-PE stores in the op adapters (`sws-run
    /// --contention`). Off by default; when off, the op surface carries
    /// no profiling state.
    pub profile_sites: bool,
    /// Exploration gate (see [`crate::explore`]): serializes every gated
    /// effect behind an explicit schedule. Requires threaded mode (the
    /// gate replaces the virtual-time engine as the serialization point).
    pub explore: Option<Arc<ExploreGate>>,
    /// Let [`ShmemCtx::idle_hint`](crate::ShmemCtx::idle_hint) yield the
    /// OS thread when a threaded world runs more PEs than hardware
    /// threads (on by default). Exists as a switch so the wall-clock
    /// bench can measure the pre-fix spin behavior; virtual-time and
    /// exploration runs never yield regardless.
    pub oversub_yield: bool,
    /// Per-site memory-ordering control for the necessity prover (see
    /// [`crate::overrides`]): an override table resolving each annotated
    /// atomic's ordering through the site catalog, plus an optional live
    /// happens-before tracker. `None` (the default everywhere outside
    /// `sws-check necessity`) keeps the op layer's hardcoded orderings
    /// with zero dispatch cost.
    pub ordering: Option<Arc<OrderingCtl>>,
}

impl WorldConfig {
    /// Virtual-time world with the default (EDR InfiniBand-like) network.
    pub fn virtual_time(n_pes: usize, heap_words: usize) -> WorldConfig {
        WorldConfig {
            n_pes,
            heap_words,
            heap_layout: HeapLayout::default(),
            net: NetModel::edr_infiniband(),
            mode: ExecMode::Virtual,
            faults: None,
            capture_proto: false,
            profile_sites: false,
            explore: None,
            oversub_yield: true,
            ordering: None,
        }
    }

    /// Threaded world with zero-cost network (pure correctness testing).
    pub fn threaded(n_pes: usize, heap_words: usize) -> WorldConfig {
        WorldConfig {
            n_pes,
            heap_words,
            heap_layout: HeapLayout::default(),
            net: NetModel::zero(),
            mode: ExecMode::Threaded {
                inject_latency: false,
            },
            faults: None,
            capture_proto: false,
            profile_sites: false,
            explore: None,
            oversub_yield: true,
            ordering: None,
        }
    }

    /// Threaded world serialized by an exploration gate: every gated op
    /// becomes a scheduling choice point (see [`crate::explore`]).
    pub fn exploration(n_pes: usize, heap_words: usize, gate: Arc<ExploreGate>) -> WorldConfig {
        let mut cfg = WorldConfig::threaded(n_pes, heap_words);
        cfg.explore = Some(gate);
        cfg
    }

    /// Select the heap placement policy.
    #[must_use]
    pub fn with_heap_layout(mut self, layout: HeapLayout) -> WorldConfig {
        self.heap_layout = layout;
        self
    }

    /// Replace the network model.
    #[must_use]
    pub fn with_net(mut self, net: NetModel) -> WorldConfig {
        self.net = net;
        self
    }

    /// Attach a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> WorldConfig {
        self.faults = Some(plan);
        self
    }

    /// Enable protocol op-trace capture.
    #[must_use]
    pub fn with_capture_proto(mut self) -> WorldConfig {
        self.capture_proto = true;
        self
    }

    /// Enable per-site contention profiling.
    #[must_use]
    pub fn with_profile_sites(mut self) -> WorldConfig {
        self.profile_sites = true;
        self
    }

    /// Attach an exploration gate (threaded mode only).
    #[must_use]
    pub fn with_explore(mut self, gate: Arc<ExploreGate>) -> WorldConfig {
        self.explore = Some(gate);
        self
    }

    /// Enable or disable the oversubscription yield hint.
    #[must_use]
    pub fn with_oversub_yield(mut self, on: bool) -> WorldConfig {
        self.oversub_yield = on;
        self
    }

    /// Attach per-site ordering control (override table + optional
    /// tracker) for the necessity prover.
    #[must_use]
    pub fn with_ordering(mut self, ctl: Arc<OrderingCtl>) -> WorldConfig {
        self.ordering = Some(ctl);
        self
    }
}

/// State shared by every PE of a world.
pub(crate) struct WorldShared {
    pub(crate) heap: SymmetricHeap,
    pub(crate) net: NetModel,
    pub(crate) vclock: Option<Arc<VClock>>,
    pub(crate) thread_barrier: ThreadBarrier,
    pub(crate) inject_latency: bool,
    /// Active fault plan, if any (inactive plans are dropped at build).
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Per-PE down flags: set by a PE after it crash-stops and drains its
    /// protocol state; ops targeting a down PE fail with `TargetDown`.
    pub(crate) down: Vec<AtomicBool>,
    /// Whether contexts record site-annotated ops as `ProtoEvent`s.
    pub(crate) capture_proto: bool,
    /// Whether contexts record per-site contention counters.
    pub(crate) profile_sites: bool,
    /// Exploration gate serializing every gated effect, if attached.
    pub(crate) explore: Option<Arc<ExploreGate>>,
    /// Plain threaded mode with more PEs than hardware threads: spin
    /// loops should yield the timeslice ([`ShmemCtx::idle_hint`]) instead
    /// of burning a core another PE could use. Never set in virtual-time
    /// or exploration mode (their gates own all scheduling).
    pub(crate) oversubscribed: bool,
    /// Per-site ordering control for the necessity prover, if attached.
    pub(crate) ordering: Option<Arc<OrderingCtl>>,
}

/// Everything a finished world produced.
#[derive(Debug)]
pub struct WorldOutput<R> {
    /// Per-PE closure results, in rank order.
    pub results: Vec<R>,
    /// Per-PE and aggregate communication statistics.
    pub stats: StatsSummary,
    /// Final virtual clock per PE (ns); zeros in threaded mode.
    pub virtual_ns: Vec<u64>,
    /// Wall-clock duration of the whole world.
    pub elapsed: Duration,
}

impl<R> WorldOutput<R> {
    /// The maximum final virtual clock — the paper's "runtime of the
    /// computation" (all PEs run until global termination).
    pub fn makespan_ns(&self) -> u64 {
        self.virtual_ns.iter().copied().max().unwrap_or(0)
    }
}

/// Run an SPMD closure on `cfg.n_pes` PEs and collect the results.
///
/// The closure runs once per PE with that PE's [`ShmemCtx`]. It must follow
/// the SPMD collective contract (all PEs call collectives in the same
/// order).
pub fn run_world<R, F>(cfg: WorldConfig, f: F) -> ShmemResult<WorldOutput<R>>
where
    R: Send,
    F: Fn(&ShmemCtx) -> R + Sync,
{
    if cfg.n_pes == 0 {
        return Err(ShmemError::BadConfig("n_pes must be nonzero".into()));
    }
    if cfg.n_pes > 1 << 16 {
        return Err(ShmemError::BadConfig(format!(
            "n_pes = {} exceeds the 65536-PE budget",
            cfg.n_pes
        )));
    }

    let faults = match &cfg.faults {
        Some(plan) if plan.is_active() => {
            plan.validate(cfg.n_pes).map_err(ShmemError::BadConfig)?;
            Some(Arc::new(plan.clone()))
        }
        _ => None,
    };

    if cfg.explore.is_some() && cfg.mode == ExecMode::Virtual {
        return Err(ShmemError::BadConfig(
            "exploration gate requires threaded mode (it replaces the virtual-time engine)"
                .into(),
        ));
    }

    let vclock = match cfg.mode {
        ExecMode::Virtual => Some(Arc::new(VClock::new(cfg.n_pes))),
        ExecMode::Threaded { .. } => None,
    };
    let explore = cfg.explore.clone();
    let inject_latency = matches!(
        cfg.mode,
        ExecMode::Threaded {
            inject_latency: true
        }
    );
    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let oversubscribed = cfg.oversub_yield
        && matches!(cfg.mode, ExecMode::Threaded { .. })
        && explore.is_none()
        && cfg.n_pes > hw_threads;
    let world = Arc::new(WorldShared {
        heap: SymmetricHeap::new(cfg.n_pes, cfg.heap_words, cfg.heap_layout),
        net: cfg.net,
        vclock: vclock.clone(),
        thread_barrier: ThreadBarrier::new(cfg.n_pes),
        inject_latency,
        faults,
        down: (0..cfg.n_pes).map(|_| AtomicBool::new(false)).collect(),
        capture_proto: cfg.capture_proto,
        profile_sites: cfg.profile_sites,
        explore: explore.clone(),
        oversubscribed,
        ordering: cfg.ordering.clone(),
    });

    let start = Instant::now();
    let slots = match &vclock {
        Some(vc) => run_virtual(vc, &world, &f)?,
        None => run_threaded(&world, &f),
    };
    let elapsed = start.elapsed();

    let mut results = Vec::with_capacity(cfg.n_pes);
    let mut per_pe_stats = Vec::with_capacity(cfg.n_pes);
    let mut virtual_ns = Vec::with_capacity(cfg.n_pes);
    let mut first_err: Option<(usize, String)> = None;
    for (pe, slot) in slots.into_iter().enumerate() {
        match slot {
            Ok((r, s, t)) => {
                results.push(r);
                per_pe_stats.push(s);
                virtual_ns.push(t);
            }
            Err(msg) => {
                // Prefer the root cause over a poison-propagation victim:
                // the lowest-rank PE often dies of the *poison* raised by
                // a higher-rank PE's real failure, and the explorer (and
                // any human) wants the original message.
                let secondary = msg.contains("poisoned");
                match &first_err {
                    None => first_err = Some((pe, msg)),
                    Some((_, prev)) if prev.contains("poisoned") && !secondary => {
                        first_err = Some((pe, msg));
                    }
                    _ => {}
                }
            }
        }
    }
    if let Some((pe, message)) = first_err {
        return Err(ShmemError::PePanicked { pe, message });
    }
    Ok(WorldOutput {
        results,
        stats: StatsSummary::from_per_pe(per_pe_stats),
        virtual_ns,
        elapsed,
    })
}

/// What one PE produced: its result, op counters and final clock, or its
/// panic message.
type PeOutcome<R> = Result<(R, OpStats, u64), String>;

/// Run PE `pe`'s closure with its own context. A panic poisons the world
/// (so peers blocked in gates and barriers bail out) and becomes the
/// PE's error; the context is dropped before this returns.
fn run_pe<R, F>(pe: usize, world: &Arc<WorldShared>, f: &F) -> PeOutcome<R>
where
    F: Fn(&ShmemCtx) -> R,
{
    let ctx = ShmemCtx::new(pe, Arc::clone(world));
    match std::panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
        Ok(r) => {
            let stats = ctx.take_stats();
            let t = match (&world.vclock, &world.explore) {
                (Some(vc), _) => vc.now(pe),
                (None, Some(eg)) => {
                    let t = eg.now(pe);
                    eg.finish(pe);
                    t
                }
                (None, None) => {
                    // A crash-stopped PE exits with fewer barrier entries
                    // than its peers; retiring lets their barriers release
                    // without it.
                    world.thread_barrier.retire();
                    0
                }
            };
            Ok((r, stats, t))
        }
        Err(payload) => {
            if let Some(vc) = &world.vclock {
                vc.poison();
            }
            if let Some(eg) = &world.explore {
                eg.poison();
            }
            world.thread_barrier.poison();
            Err(panic_message(&*payload))
        }
    }
}

/// Threaded mode: one scoped OS thread per PE.
fn run_threaded<R, F>(world: &Arc<WorldShared>, f: &F) -> Vec<PeOutcome<R>>
where
    R: Send,
    F: Fn(&ShmemCtx) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..world.heap.n_pes())
            .map(|pe| scope.spawn(move || run_pe(pe, world, f)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| Err(panic_message(&*payload)))
            })
            .collect()
    })
}

/// Virtual-time mode: every PE is a coroutine on this thread, driven by
/// the executor until the last one exits.
fn run_virtual<R, F>(vc: &VClock, world: &Arc<WorldShared>, f: &F) -> ShmemResult<Vec<PeOutcome<R>>>
where
    F: Fn(&ShmemCtx) -> R,
{
    let n_pes = world.heap.n_pes();
    let slots: Vec<Cell<Option<PeOutcome<R>>>> = (0..n_pes).map(|_| Cell::new(None)).collect();
    let mut bodies: Vec<Body<'_>> = slots
        .iter()
        .enumerate()
        .map(|(pe, slot)| {
            Box::new(move || {
                slot.set(Some(run_pe(pe, world, f)));
                vc.exit(pe)
            }) as Body<'_>
        })
        .collect();
    vc.run(&mut bodies)
        .map_err(|e| ShmemError::BadConfig(format!("cannot map {n_pes} PE stacks: {e}")))?;
    drop(bodies);
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|| Err("PE never ran to completion".into()))
        })
        .collect())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Reusable sense-reversing barrier for threaded mode, with poisoning so a
/// panicked PE cannot leave peers blocked forever, and retirement so a
/// crash-stopped PE that exits early cannot either.
pub(crate) struct ThreadBarrier {
    inner: Mutex<BarrierInner>,
    cv: Condvar,
    poisoned: AtomicBool,
}

struct BarrierInner {
    arrived: usize,
    generation: u64,
    /// PEs still participating; barriers release at `arrived == live`.
    live: usize,
}

impl ThreadBarrier {
    pub(crate) fn new(n: usize) -> ThreadBarrier {
        ThreadBarrier {
            inner: Mutex::new(BarrierInner {
                arrived: 0,
                generation: 0,
                live: n,
            }),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    pub(crate) fn wait(&self) {
        if self.poisoned.load(Ordering::Relaxed) {
            panic!("threaded world poisoned: a peer PE panicked");
        }
        let mut g = self.inner.lock();
        g.arrived += 1;
        if g.arrived == g.live {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
        } else {
            let gen = g.generation;
            while g.generation == gen {
                self.cv.wait(&mut g);
                if self.poisoned.load(Ordering::Relaxed) {
                    panic!("threaded world poisoned: a peer PE panicked");
                }
            }
        }
    }

    /// Permanently remove one participant (a PE exiting early). If the
    /// departure makes an in-progress barrier complete, release it.
    pub(crate) fn retire(&self) {
        let mut g = self.inner.lock();
        g.live = g.live.saturating_sub(1);
        if g.live > 0 && g.arrived == g.live {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
        }
    }

    /// Whether a peer PE has panicked and poisoned the world.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
        let _g = self.inner.lock();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::OpKind;

    #[test]
    fn world_runs_and_collects_results() {
        for mode in [
            WorldConfig::threaded(4, 256),
            WorldConfig::virtual_time(4, 256),
        ] {
            let out = run_world(mode, |ctx| ctx.my_pe() * 10).unwrap();
            assert_eq!(out.results, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn one_sided_put_get_roundtrip() {
        let out = run_world(WorldConfig::virtual_time(2, 256), |ctx| {
            let a = ctx.alloc_words(4);
            if ctx.my_pe() == 0 {
                ctx.put_words(1, a, &[1, 2, 3, 4]);
            }
            ctx.barrier_all();
            let mut buf = [0u64; 4];
            ctx.get_words(1, a, &mut buf);
            buf
        })
        .unwrap();
        assert_eq!(out.results[0], [1, 2, 3, 4]);
        assert_eq!(out.results[1], [1, 2, 3, 4]);
    }

    #[test]
    fn atomics_are_atomic_across_pes() {
        // Every PE increments a counter on PE 0 many times; the total must
        // be exact in both modes.
        for cfg in [
            WorldConfig::threaded(8, 256),
            WorldConfig::virtual_time(8, 256),
        ] {
            let out = run_world(cfg, |ctx| {
                let a = ctx.alloc_words(1);
                for _ in 0..100 {
                    ctx.atomic_fetch_add(0, a, 1);
                }
                ctx.barrier_all();
                ctx.atomic_fetch(0, a)
            })
            .unwrap();
            assert!(out.results.iter().all(|&v| v == 800));
        }
    }

    #[test]
    fn broadcast_and_reductions() {
        let out = run_world(WorldConfig::virtual_time(5, 256), |ctx| {
            let b = ctx.broadcast64(2, (ctx.my_pe() as u64 + 1) * 7);
            let s = ctx.reduce_sum_u64(ctx.my_pe() as u64);
            let m = ctx.reduce_max_u64(ctx.my_pe() as u64 * 3);
            (b, s, m)
        })
        .unwrap();
        for &(b, s, m) in &out.results {
            assert_eq!(b, 21); // root 2's value
            assert_eq!(s, 10); // 0+1+2+3+4
            assert_eq!(m, 12);
        }
    }

    #[test]
    fn pe_panic_is_reported_not_deadlocked() {
        let err = run_world(WorldConfig::virtual_time(3, 256), |ctx| {
            if ctx.my_pe() == 1 {
                panic!("deliberate test panic");
            }
            // Peers would block here forever without poisoning.
            ctx.barrier_all();
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(
                    message.contains("deliberate") || message.contains("poisoned"),
                    "unexpected: {message}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn virtual_time_charges_costs() {
        let cfg = WorldConfig::virtual_time(2, 256);
        let out = run_world(cfg, |ctx| {
            if ctx.my_pe() == 0 {
                let a = ctx.alloc_words(1);
                for _ in 0..10 {
                    ctx.atomic_fetch_add(1, a, 1);
                }
            } else {
                let _a = ctx.alloc_words(1);
            }
            ctx.barrier_all();
        })
        .unwrap();
        // PE 0 paid 10 remote atomics at 1.5 µs each, plus collectives.
        assert!(out.makespan_ns() >= 15_000, "{}", out.makespan_ns());
        assert_eq!(out.stats.total.count(OpKind::AtomicFetchAdd), 10);
    }

    #[test]
    fn deterministic_virtual_runs() {
        fn run_once() -> (Vec<u64>, u64) {
            let out = run_world(WorldConfig::virtual_time(6, 512), |ctx| {
                let a = ctx.alloc_words(1);
                for i in 0..50u64 {
                    let target = (ctx.my_pe() + 1 + i as usize) % ctx.n_pes();
                    ctx.atomic_fetch_add(target, a, i);
                }
                ctx.barrier_all();
                ctx.atomic_fetch(ctx.my_pe(), a)
            })
            .unwrap();
            (out.results.clone(), out.makespan_ns())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn nbi_ops_complete_at_quiet() {
        let out = run_world(WorldConfig::virtual_time(2, 256), |ctx| {
            let a = ctx.alloc_words(2);
            if ctx.my_pe() == 0 {
                ctx.put_words_nbi(1, a, &[9, 9]);
                ctx.atomic_add_nbi(1, a, 1);
                ctx.quiet();
            }
            ctx.barrier_all();
            ctx.atomic_fetch(ctx.my_pe(), a)
        })
        .unwrap();
        assert_eq!(out.results[1], 10);
        assert_eq!(out.stats.total.count(OpKind::Quiet), 1);
    }

    #[test]
    fn zero_pes_rejected() {
        let cfg = WorldConfig::virtual_time(0, 256);
        assert!(matches!(
            run_world(cfg, |_| ()),
            Err(ShmemError::BadConfig(_))
        ));
    }

    #[test]
    fn panic_releases_peers_in_later_barriers_and_waits() {
        // PE 0 panics after the first barrier, while its peers sit in
        // the second barrier or poll a flag nobody will set: every
        // coroutine must resume, fail with the poison, and let the world
        // report PE 0's own message.
        use crate::sync::WaitCmp;
        let err = run_world(WorldConfig::virtual_time(4, 256), |ctx| {
            let a = ctx.alloc_words(1);
            ctx.barrier_all();
            match ctx.my_pe() {
                0 => panic!("boom after round one"),
                1 => {
                    ctx.wait_until(1, a, WaitCmp::Eq, 1);
                }
                _ => {
                    ctx.barrier_all();
                    ctx.barrier_all();
                }
            }
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { pe, message } => {
                assert_eq!(pe, 0, "the root cause is reported, not a poison victim");
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn heap_exhaustion_panics_collectively() {
        let err = run_world(WorldConfig::virtual_time(2, 64), |ctx| {
            let _ = ctx.alloc_words(1_000_000);
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(message.contains("exhausted"), "{message}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod threaded_poison_tests {
    use super::*;

    #[test]
    fn threaded_pe_panic_is_reported_not_deadlocked() {
        let err = run_world(WorldConfig::threaded(3, 256), |ctx| {
            if ctx.my_pe() == 1 {
                panic!("deliberate test panic");
            }
            // Real threads really would block here forever without the
            // barrier poison.
            ctx.barrier_all();
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(
                    message.contains("deliberate") || message.contains("poisoned"),
                    "unexpected: {message}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn threaded_panic_mid_barrier_sequence_releases_all() {
        // Peers are spread across different barrier generations when the
        // panic lands; every one of them must still unblock.
        let err = run_world(WorldConfig::threaded(4, 256), |ctx| {
            ctx.barrier_all();
            if ctx.my_pe() == 0 {
                panic!("boom after round one");
            }
            ctx.barrier_all();
            ctx.barrier_all();
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(
                    message.contains("boom") || message.contains("poisoned"),
                    "unexpected: {message}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn threaded_early_exit_retires_from_barriers() {
        // A PE that returns early (the crash-stop exit path) is retired
        // from the barrier so survivors' collectives still complete.
        let out = run_world(WorldConfig::threaded(3, 256), |ctx| {
            if ctx.my_pe() == 2 {
                return 0u64;
            }
            ctx.barrier_all();
            ctx.barrier_all();
            1
        })
        .unwrap();
        assert_eq!(out.results, vec![1, 1, 0]);
    }

    #[test]
    fn threaded_panic_releases_peer_blocked_in_wait() {
        // `quiet` never blocks on peers (it only settles this PE's own
        // NBI clock); the primitive that parks a PE on remote state is
        // `wait_until`. A peer panicking must release it via poison.
        use crate::sync::WaitCmp;
        let err = run_world(WorldConfig::threaded(2, 256), |ctx| {
            let a = ctx.alloc_words(1);
            ctx.put_words_nbi(0, a, &[0]);
            ctx.quiet();
            if ctx.my_pe() == 1 {
                panic!("deliberate test panic");
            }
            // The flag is never set; only the poison can end this wait.
            ctx.wait_until(0, a, WaitCmp::Eq, 1);
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(
                    message.contains("deliberate") || message.contains("poisoned"),
                    "unexpected: {message}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn world_poisoned_flag_visible_to_survivors() {
        // A survivor polling `world_poisoned` (as recovery loops do) can
        // bail out gracefully instead of panicking in a collective.
        let err = run_world(WorldConfig::threaded(2, 256), |ctx| {
            if ctx.my_pe() == 0 {
                panic!("deliberate test panic");
            }
            while !ctx.world_poisoned() {
                std::thread::yield_now();
            }
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { pe, message } => {
                assert_eq!(pe, 0, "the panicking PE is the one reported");
                assert!(message.contains("deliberate"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;

    #[test]
    fn reduce_min_and_all_gather() {
        let out = run_world(WorldConfig::virtual_time(5, 512), |ctx| {
            let table = ctx.alloc_words(ctx.n_pes());
            let min = ctx.reduce_min_u64(100 - ctx.my_pe() as u64);
            let gathered = ctx.all_gather64(table, ctx.my_pe() as u64 * 11);
            (min, gathered)
        })
        .unwrap();
        for (min, gathered) in out.results {
            assert_eq!(min, 96, "min of 100-pe over pe in 0..5");
            assert_eq!(gathered, vec![0, 11, 22, 33, 44]);
        }
    }

    #[test]
    fn repeated_collectives_do_not_interfere() {
        let out = run_world(WorldConfig::virtual_time(3, 512), |ctx| {
            let mut acc = Vec::new();
            for round in 0..4u64 {
                acc.push(ctx.reduce_sum_u64(round + ctx.my_pe() as u64));
                acc.push(ctx.reduce_max_u64(round * 10 + ctx.my_pe() as u64));
                acc.push(ctx.broadcast64((round % 3) as usize, round * 100));
            }
            acc
        })
        .unwrap();
        for r in &out.results {
            assert_eq!(r, &out.results[0], "collectives agree on every PE");
        }
        // Round 2 sum: (2+0)+(2+1)+(2+2) = 9.
        assert_eq!(out.results[0][6], 9);
        // Round 3 max: 30+2 = 32.
        assert_eq!(out.results[0][10], 32);
        // Round 1 broadcast from PE 1: 100.
        assert_eq!(out.results[0][5], 100);
    }
}

#[cfg(test)]
mod latency_injection_tests {
    use super::*;
    use crate::net::NetModel;
    use std::time::Instant;

    #[test]
    fn injected_latency_shows_up_in_wall_time() {
        // 200 local ops at 100 µs each: the injected spin runs to a wall
        // deadline, so the loop takes at least 20 ms however the host is
        // loaded. Without injection the same loop takes microseconds.
        // Only the op loop is timed (thread spawn and heap setup are
        // excluded), and the uninjected side keeps the best of a few
        // tries, so a loaded host would have to stall every try for
        // several timeslices to flip the comparison.
        const OPS: u64 = 200;
        let net = NetModel::uniform_latency(2_000_000);
        let injected = Duration::from_nanos(OPS * net.local_latency_ns);
        let run = |inject| {
            let cfg = WorldConfig {
                n_pes: 1,
                heap_words: 256,
                heap_layout: HeapLayout::default(),
                oversub_yield: true,
                net,
                mode: ExecMode::Threaded {
                    inject_latency: inject,
                },
                faults: None,
                capture_proto: false,
                profile_sites: false,
                explore: None,
                ordering: None,
            };
            run_world(cfg, |ctx| {
                let a = ctx.alloc_words(1);
                let t0 = Instant::now();
                for _ in 0..OPS {
                    ctx.atomic_fetch_add(0, a, 1);
                }
                t0.elapsed()
            })
            .unwrap()
            .results[0]
        };
        let slow = run(true);
        assert!(slow >= injected, "injection had no effect: {slow:?}");
        let fast = (0..5).map(|_| run(false)).min().unwrap();
        assert!(
            fast < injected,
            "no-injection loop {fast:?} not below the injected {injected:?}"
        );
    }
}

#[cfg(test)]
mod strided_tests {
    use super::*;

    #[test]
    fn strided_put_get_roundtrip() {
        let out = run_world(WorldConfig::virtual_time(2, 512), |ctx| {
            let a = ctx.alloc_words(32);
            if ctx.my_pe() == 0 {
                // Write a column of a 4-wide matrix on PE 1.
                ctx.iput_words(1, a.offset(2), 4, &[10, 11, 12, 13]);
            }
            ctx.barrier_all();
            let mut col = [0u64; 4];
            ctx.iget_words(1, a.offset(2), 4, &mut col);
            let mut row = [0u64; 4];
            ctx.get_words(1, a, &mut row);
            (col, row)
        })
        .unwrap();
        for (col, row) in out.results {
            assert_eq!(col, [10, 11, 12, 13]);
            // Row 0: only word 2 (the column head) was touched.
            assert_eq!(row, [0, 0, 10, 0]);
        }
    }

    #[test]
    fn word_convenience_ops() {
        let out = run_world(WorldConfig::virtual_time(2, 256), |ctx| {
            let a = ctx.alloc_words(1);
            if ctx.my_pe() == 0 {
                ctx.put_word(1, a, 77);
            }
            ctx.barrier_all();
            ctx.get_word(1, a)
        })
        .unwrap();
        assert_eq!(out.results, vec![77, 77]);
    }

    #[test]
    fn stride_one_equals_contiguous() {
        let out = run_world(WorldConfig::virtual_time(1, 256), |ctx| {
            let a = ctx.alloc_words(8);
            ctx.iput_words(0, a, 1, &[1, 2, 3, 4]);
            let mut direct = [0u64; 4];
            ctx.get_words(0, a, &mut direct);
            direct
        })
        .unwrap();
        assert_eq!(out.results[0], [1, 2, 3, 4]);
    }
}
