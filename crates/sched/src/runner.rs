//! Experiment runner: build a world, seed a workload, run every PE to
//! global termination, and collect the paper's metrics.

use sws_core::{SdcQueue, SwsQueue};
use sws_shmem::{run_world, ExecMode, FaultPlan, NetModel, ShmemCtx, WorldConfig};
use sws_task::{TaskDescriptor, TaskRegistry};

use crate::config::{QueueKind, SchedConfig, TdKind};
use crate::report::{RunReport, WorkerStats};
use crate::taskctx::TaskCtx;
use crate::termination::make_td;
use crate::worker::Worker;

/// A benchmark workload: handler registration plus initial seeding.
pub trait Workload: Sync {
    /// Register the workload's task handlers (called once per PE; every
    /// PE must build the identical registry). Generic over the PE
    /// lifetime so handlers may hold the PE's `ShmemCtx` surface.
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>);

    /// Initial tasks to seed on PE `pe` of `n_pes` (commonly: everything
    /// on PE 0, forcing the load balancer to disseminate).
    fn seeds(&self, pe: usize, n_pes: usize) -> Vec<TaskDescriptor>;

    /// Collective setup before the pool runs: allocate and initialize
    /// any symmetric state the workload's handlers use (default: none).
    /// Called on every PE in SPMD order, before queue construction.
    fn setup(&self, _ctx: &sws_shmem::ShmemCtx) {}
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of PEs.
    pub n_pes: usize,
    /// Scheduler/queue configuration.
    pub sched: SchedConfig,
    /// Network model.
    pub net: NetModel,
    /// Extra symmetric-heap words beyond what the queue needs.
    pub extra_heap_words: usize,
    /// Optional deterministic fault plan (chaos runs). Inactive plans
    /// are dropped before the world is built, keeping clean runs
    /// bit-identical to a `None` plan.
    pub faults: Option<FaultPlan>,
    /// Capture site-annotated protocol ops into `WorkerStats::proto`
    /// (the conformance checker's input). Off by default: hot paths see
    /// one extra predictable branch per op at most.
    pub capture_proto: bool,
    /// Count per-site contention (CAS wins/losses, RMWs, loads, stores)
    /// into `WorkerStats::site_prof`, keyed by raw `AtomicSite` id. Like
    /// capture, the counters are plain per-PE stores that never touch
    /// the virtual clock, so profiled runs stay byte-identical.
    pub profile_sites: bool,
    /// Exploration gate: when set, the run is driven under the
    /// systematic interleaving scheduler (threaded mode, one PE at a
    /// time, a scheduling choice at every gated atomic site). Used by
    /// `sws-check explore`; `None` for ordinary runs.
    pub explore: Option<std::sync::Arc<sws_shmem::ExploreGate>>,
    /// Symmetric-heap geometry. `Aligned` (the default) line-isolates
    /// PE regions and collective allocations; `Packed` reproduces the
    /// historical packed layout for differential testing. Virtual-time
    /// reports are byte-identical across layouts.
    pub heap_layout: sws_shmem::HeapLayout,
    /// Yield the OS thread in oversubscribed threaded runs (default
    /// true; see [`WorldConfig::oversub_yield`]). The wall-clock bench
    /// turns this off to measure the pre-fix spin behavior.
    pub oversub_yield: bool,
    /// Per-site memory-ordering control (override table + optional live
    /// happens-before tracker) for the necessity prover. `None` for
    /// ordinary runs; `sws-check necessity` attaches one to weaken a
    /// single catalog site per run.
    pub ordering: Option<std::sync::Arc<sws_shmem::OrderingCtl>>,
}

impl RunConfig {
    /// A virtual-time run of `kind` on `n_pes` PEs with the default
    /// EDR-InfiniBand-like network.
    pub fn new(n_pes: usize, sched: SchedConfig) -> RunConfig {
        RunConfig {
            n_pes,
            sched,
            net: NetModel::edr_infiniband(),
            extra_heap_words: 4096,
            faults: None,
            capture_proto: false,
            profile_sites: false,
            explore: None,
            heap_layout: sws_shmem::HeapLayout::default(),
            oversub_yield: true,
            ordering: None,
        }
    }

    /// Attach a fault plan to the run.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> RunConfig {
        self.faults = Some(plan);
        self
    }

    /// Capture the protocol op trace for conformance checking.
    #[must_use]
    pub fn with_capture_proto(mut self) -> RunConfig {
        self.capture_proto = true;
        self
    }

    /// Count per-site contention into `WorkerStats::site_prof`.
    #[must_use]
    pub fn with_profile_sites(mut self) -> RunConfig {
        self.profile_sites = true;
        self
    }

    /// Drive the run under an exploration gate (forces threaded mode;
    /// the caller picks the schedule through the gate's choice prefix).
    #[must_use]
    pub fn with_explore(mut self, gate: std::sync::Arc<sws_shmem::ExploreGate>) -> RunConfig {
        self.explore = Some(gate);
        self
    }

    /// Select the symmetric-heap geometry (aligned by default).
    #[must_use]
    pub fn with_heap_layout(mut self, layout: sws_shmem::HeapLayout) -> RunConfig {
        self.heap_layout = layout;
        self
    }

    /// Enable or disable the oversubscription yield hint.
    #[must_use]
    pub fn with_oversub_yield(mut self, on: bool) -> RunConfig {
        self.oversub_yield = on;
        self
    }

    /// Attach per-site ordering control (the necessity prover's mutant
    /// table and live tracker).
    #[must_use]
    pub fn with_ordering(mut self, ctl: std::sync::Arc<sws_shmem::OrderingCtl>) -> RunConfig {
        self.ordering = Some(ctl);
        self
    }

    pub(crate) fn heap_words(&self) -> usize {
        // Queue buffer + metadata + completion structures + TD + slack.
        // Aligned layouts round each allocation up to a line start, so
        // budget one extra line per distinct allocation (the queues make
        // at most a handful; 16 lines of slack is comfortably enough).
        let align_slack = match self.heap_layout {
            sws_shmem::HeapLayout::Aligned => 16 * sws_shmem::CACHE_LINE_WORDS,
            sws_shmem::HeapLayout::Packed => 0,
        };
        self.sched.queue.buffer_words()
            + self.sched.queue.capacity
            + 1024
            + align_slack
            + self.extra_heap_words
    }
}

/// Run `workload` to global termination in a virtual-time world and
/// report the paper's metrics.
pub fn run_workload(cfg: &RunConfig, workload: &impl Workload) -> RunReport {
    run_workload_mode(cfg, workload, ExecMode::Virtual)
}

/// As [`run_workload`], but selecting the execution mode (threaded mode
/// is used by the concurrency stress tests).
pub fn run_workload_mode(
    cfg: &RunConfig,
    workload: &impl Workload,
    mode: ExecMode,
) -> RunReport {
    try_run_workload_mode(cfg, workload, mode).expect("workload run failed")
}

/// As [`run_workload_mode`], but surfacing PE panics as an error instead
/// of aborting. The exploration scheduler uses this: an invariant
/// violation inside the queue under an adversarial interleaving arrives
/// here as [`sws_shmem::ShmemError::PePanicked`] and becomes a
/// counterexample rather than a test abort.
pub fn try_run_workload_mode(
    cfg: &RunConfig,
    workload: &impl Workload,
    mode: ExecMode,
) -> Result<RunReport, sws_shmem::ShmemError> {
    // An exploration gate serializes the PEs itself, so it requires
    // (and implies) threaded mode: virtual time would deadlock against
    // the gate's own blocking.
    let mode = if cfg.explore.is_some() {
        ExecMode::Threaded { inject_latency: false }
    } else {
        mode
    };
    let mut world_cfg = WorldConfig {
        n_pes: cfg.n_pes,
        heap_words: cfg.heap_words(),
        net: cfg.net,
        mode,
        faults: None,
        capture_proto: cfg.capture_proto,
        profile_sites: cfg.profile_sites,
        explore: cfg.explore.clone(),
        heap_layout: cfg.heap_layout,
        oversub_yield: cfg.oversub_yield,
        ordering: cfg.ordering.clone(),
    };
    let mut sched = cfg.sched;
    if let Some(plan) = &cfg.faults {
        if plan.is_active() {
            plan.validate(cfg.n_pes).expect("invalid fault plan");
            // Both termination-counter invariants live on PE 0; a run
            // that kills it (or relies on a crash-intolerant detector)
            // cannot terminate, so reject the plan up front.
            assert!(
                plan.crash_at(0).is_none(),
                "fault plan crashes PE 0, which hosts the termination counters"
            );
            assert!(
                sched.td == TdKind::Counter
                    || (0..cfg.n_pes).all(|pe| plan.crash_at(pe).is_none()),
                "crash-stop faults require the counter termination detector"
            );
        }
        world_cfg = world_cfg.with_faults(plan.clone());
        // Thread the fault-tolerance knobs into the queue config so both
        // queue implementations retry and reclaim consistently.
        sched.queue = sched
            .queue
            .with_retry(sched.ft.retry)
            .with_reclaim_grace_ns(sched.ft.reclaim_grace_ns);
    }
    let run_pe = |ctx: &ShmemCtx| -> WorkerStats {
        let mut reg = TaskRegistry::new();
        workload.register(&mut reg);
        workload.setup(ctx);
        let td = make_td(ctx, sched.td);
        match sched.kind {
            QueueKind::Sws => {
                let queue = SwsQueue::new(ctx, sched.queue);
                let mut w = Worker::new(ctx, queue, &reg, td, sched);
                w.seed(&workload.seeds(ctx.my_pe(), ctx.n_pes()));
                let mut ws = w.run().0;
                ws.engine = ctx.engine_stats();
                ws.proto = ctx.take_proto_events();
                ws.site_prof = ctx.take_site_profile();
                ws
            }
            QueueKind::Sdc => {
                let queue = SdcQueue::new(ctx, sched.queue);
                let mut w = Worker::new(ctx, queue, &reg, td, sched);
                w.seed(&workload.seeds(ctx.my_pe(), ctx.n_pes()));
                let mut ws = w.run().0;
                ws.engine = ctx.engine_stats();
                ws.proto = ctx.take_proto_events();
                ws.site_prof = ctx.take_site_profile();
                ws
            }
        }
    };
    let out = run_world(world_cfg, run_pe)?;

    let mut workers = out.results;
    for (w, &t) in workers.iter_mut().zip(out.virtual_ns.iter()) {
        // In virtual mode runtime_ns was sampled pre-barrier; the final
        // clock includes the closing barrier. Report the pre-barrier
        // value (the paper stops timers at termination detection) but
        // fall back to the world clock in threaded mode.
        if w.runtime_ns == 0 {
            w.runtime_ns = t;
        }
    }
    let makespan_ns = workers.iter().map(|w| w.runtime_ns).max().unwrap_or(0);
    Ok(RunReport {
        system: sched.kind.label().to_string(),
        n_pes: cfg.n_pes,
        makespan_ns,
        workers,
        comm: out.stats,
        wall_ms: out.elapsed.as_millis() as u64,
    })
}
