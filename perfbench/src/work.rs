//! The benchmark's workloads and the single run call each one times.
//!
//! Every workload runs both queue systems (SWS and SDC) through the
//! program's public runners. The seed drives the scheduler's RNG streams
//! (victim selection) and the arrival plans; the UTS trees and the flat
//! bag are fixed by the workload definition, so every seed does the same
//! amount of work and the oracle counts stay exact.

use std::sync::{Arc, Mutex};

use sws_core::QueueConfig;
use sws_sched::{
    run_service, try_run_workload_mode, AdmissionPolicy, ArrivalSource, QueueKind, RunConfig,
    RunReport, SchedConfig, ServiceConfig, ServiceWorkload, TaskCtx, Workload,
};
use sws_shmem::ExecMode;
use sws_task::{PayloadReader, PayloadWriter, TaskDescriptor, TaskRegistry};
use sws_workloads::arrivals::{ArrivalClock, ArrivalPlan};
use sws_workloads::synth::FlatBag;
use sws_workloads::uts::{UtsParams, UtsWorkload};

use crate::sys::{timed, Timing};

/// Both systems, in the order a measurement pass starts with.
pub const SYSTEMS: [QueueKind; 2] = [QueueKind::Sws, QueueKind::Sdc];

/// Metric-name suffix of a system.
pub fn sys_name(kind: QueueKind) -> &'static str {
    match kind {
        QueueKind::Sws => "sws",
        QueueKind::Sdc => "sdc",
    }
}

/// What a workload runs.
#[derive(Copy, Clone, Debug)]
pub enum Shape {
    /// UTS `geo_small(depth)`, root seeded on PE 0.
    Uts { depth: u32 },
    /// `tasks` flat tasks of `task_ns` each, seeded on PE 0.
    Flat { tasks: u64, task_ns: u64 },
    /// Open-loop flat service (see [`SERVE`]).
    Serve,
}

/// One benchmark workload.
#[derive(Copy, Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub n_pes: usize,
    pub threaded: bool,
    pub capacity: usize,
    pub task_bytes: usize,
    pub shape: Shape,
}

/// The workloads, by the name the command line takes.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "vt-uts-wide",
        n_pes: 2112,
        threaded: false,
        capacity: 16384,
        task_bytes: 48,
        shape: Shape::Uts { depth: 12 },
    },
    Spec {
        name: "thr-uts-2pe",
        n_pes: 2,
        threaded: true,
        capacity: 16384,
        task_bytes: 48,
        shape: Shape::Uts { depth: 15 },
    },
    Spec {
        name: "vt-serve-ladder",
        n_pes: 8,
        threaded: false,
        capacity: 16384,
        task_bytes: 24,
        shape: Shape::Serve,
    },
    Spec {
        name: "vt-flat-overflow",
        n_pes: 16,
        threaded: false,
        capacity: 4096,
        task_bytes: 24,
        shape: Shape::Flat {
            tasks: 4400,
            task_ns: 50_000,
        },
    },
];

/// Service-workload parameters.
pub struct ServeParams {
    pub n_ingress: usize,
    pub task_ns: u64,
    pub horizon_ns: u64,
    /// Offered loads as a share of pool capacity, ascending.
    pub ladder: [f64; 4],
    /// Index into `ladder` of the nominal load.
    pub nominal: usize,
    /// Latency limit on p99 for a rung to count as sustained, ns.
    pub p99_limit_ns: u64,
}

pub const SERVE: ServeParams = ServeParams {
    n_ingress: 2,
    task_ns: 5_000,
    horizon_ns: 8_000_000,
    ladder: [0.40, 0.60, 0.80, 0.95],
    nominal: 1,
    p99_limit_ns: 1_000_000,
};

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    pub fn mode(&self) -> ExecMode {
        if self.threaded {
            ExecMode::Threaded {
                inject_latency: false,
            }
        } else {
            ExecMode::Virtual
        }
    }

    pub fn queue(&self) -> QueueConfig {
        QueueConfig::new(self.capacity, self.task_bytes)
    }

    /// The run configuration; `traced` arms the program's read-only
    /// capture (protocol ops and per-site counters).
    pub fn config(&self, kind: QueueKind, seed: u64, traced: bool) -> RunConfig {
        let sched = SchedConfig::new(kind, self.queue()).with_seed(seed);
        let cfg = RunConfig::new(self.n_pes, sched);
        if traced {
            cfg.with_capture_proto().with_profile_sites()
        } else {
            cfg
        }
    }

    /// Tasks a correct batch run executes (the sequential UTS oracle or
    /// the flat seed count); `None` for the service workload.
    pub fn expected_tasks(&self) -> Option<u64> {
        match self.shape {
            Shape::Uts { depth } => Some(UtsParams::geo_small(depth).sequential_count().nodes),
            Shape::Flat { tasks, .. } => Some(tasks),
            Shape::Serve => None,
        }
    }
}

/// One timed batch run.
pub struct BatchRun {
    pub report: RunReport,
    pub time: Timing,
    /// Tasks the workload's own handlers counted.
    pub executed: u64,
}

/// Run a batch workload once; the wall time covers the complete run call.
pub fn batch_once(spec: &Spec, kind: QueueKind, seed: u64, traced: bool) -> BatchRun {
    let cfg = spec.config(kind, seed, traced);
    let mode = spec.mode();
    match spec.shape {
        Shape::Uts { depth } => {
            let w = UtsWorkload::new(UtsParams::geo_small(depth));
            let (report, time) = timed(|| run_batch(&cfg, &w, mode));
            BatchRun {
                report,
                time,
                executed: w.nodes_visited(),
            }
        }
        Shape::Flat { tasks, task_ns } => {
            let w = FlatBag::new(tasks, task_ns, spec.task_bytes);
            let (report, time) = timed(|| run_batch(&cfg, &w, mode));
            BatchRun {
                report,
                time,
                executed: w.executed(),
            }
        }
        Shape::Serve => panic!("{} is a service workload", spec.name),
    }
}

fn run_batch(cfg: &RunConfig, w: &impl Workload, mode: ExecMode) -> RunReport {
    try_run_workload_mode(cfg, w, mode).unwrap_or_else(|e| {
        eprintln!("perfbench: run failed: {e}");
        std::process::exit(1)
    })
}

/// A workload with no handlers and no tasks: running it costs exactly
/// world, queue and detector setup plus one termination round.
struct Empty;

impl Workload for Empty {
    fn register<'a>(&self, _reg: &mut TaskRegistry<TaskCtx<'a>>) {}

    fn seeds(&self, _pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        Vec::new()
    }
}

/// Time of the workload's configuration run with an empty workload
/// (set-up cost).
pub fn empty_once(spec: &Spec, kind: QueueKind, seed: u64) -> Timing {
    match spec.shape {
        Shape::Serve => serve_once(spec, kind, seed, None, false).time,
        _ => {
            let cfg = spec.config(kind, seed, false);
            let (report, time) = timed(|| run_batch(&cfg, &Empty, spec.mode()));
            assert_eq!(report.total_tasks(), 0, "the empty workload ran tasks");
            time
        }
    }
}

/// The virtual-time outputs a rerun of the same seed must reproduce:
/// makespan, per-PE work and scheduler counters, and every op count.
/// Engine counters are excluded: they describe how the engine serialized
/// the run, not what the run computed.
pub fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut v = vec![r.makespan_ns];
    for w in &r.workers {
        let q = &w.queue;
        v.extend([
            w.tasks_executed,
            w.runtime_ns,
            w.task_ns,
            w.steal_ns,
            w.search_ns,
            w.steal_attempts,
            q.enqueued,
            q.releases,
            q.acquires,
            q.steals_won,
            q.tasks_stolen,
            q.steals_empty,
            q.steals_closed,
            w.service.offered,
            w.service.shed,
            w.service.latency.n,
            w.service.latency.sum,
        ]);
    }
    v.extend(r.comm.total.counts);
    v.extend(r.comm.total.bytes);
    v
}

// ---------------------------------------------------------------------
// Service workload with exact latencies
// ---------------------------------------------------------------------

/// Flat service workload equivalent to the program's `FlatServe` (same
/// arrival clock, same 24-byte task record, same compute charge) whose
/// handler also records each arrival's exact virtual latency.
struct ExactServe {
    plan: ArrivalPlan,
    task_ns: u64,
    overhead_ns: u64,
    n_ingress: usize,
    samples: Arc<Mutex<Vec<u64>>>,
}

/// Task function id of [`ExactServe`] arrivals.
const EXACT_SERVE_FN: u16 = 60;

struct ExactSource {
    clock: ArrivalClock,
    task_ns: u64,
}

impl ArrivalSource for ExactSource {
    fn next_due_ns(&mut self) -> Option<u64> {
        self.clock.peek()
    }

    fn pop(&mut self, inject_ns: u64) -> TaskDescriptor {
        let _ = self.clock.take();
        let mut w = PayloadWriter::new();
        w.u64(inject_ns).u64(self.task_ns);
        TaskDescriptor::new(EXACT_SERVE_FN, w.as_slice())
    }
}

impl Workload for ExactServe {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        let samples = Arc::clone(&self.samples);
        let overhead_ns = self.overhead_ns;
        reg.register(EXACT_SERVE_FN, move |tctx, payload| {
            let mut r = PayloadReader::new(payload);
            let inject_ns = r.u64();
            let task_ns = r.u64();
            tctx.mark_arrival(inject_ns);
            tctx.compute(task_ns);
            // The worker charges this task's compute plus the fixed
            // per-task overhead after the handler returns, then samples
            // its clock: the exact latency is known here already.
            let done_ns = tctx.shmem().now_ns() + task_ns + overhead_ns;
            samples
                .lock()
                .expect("latency sink poisoned by a panicking PE")
                .push(done_ns - inject_ns);
        });
    }

    fn seeds(&self, _pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        Vec::new()
    }
}

impl ServiceWorkload for ExactServe {
    fn n_ingress(&self, n_pes: usize) -> usize {
        self.n_ingress.clamp(1, n_pes)
    }

    fn arrival_source(&self, pe: usize, n_pes: usize) -> Option<Box<dyn ArrivalSource>> {
        (pe < self.n_ingress(n_pes)).then(|| {
            Box::new(ExactSource {
                clock: self.plan.clock(pe),
                task_ns: self.task_ns,
            }) as Box<dyn ArrivalSource>
        })
    }
}

/// One service run.
pub struct ServeRun {
    pub report: RunReport,
    pub time: Timing,
    /// Exact per-arrival latencies, ascending.
    pub samples: Vec<u64>,
}

impl ServeRun {
    /// Arrival conservation with nothing left in flight, and the exact
    /// samples landing in exactly the program's latency buckets (same
    /// count and same sum, so no sample is off by even 1 ns).
    pub fn checks_ok(&self) -> bool {
        let r = &self.report;
        let h = sws_sched::trace::Pow2Histogram::from_samples(self.samples.iter().copied());
        r.arrival_conservation_ok()
            && r.arrivals_in_flight() == 0
            && self.samples.len() as u64 == r.completed_arrivals()
            && h == r.service_latency()
    }

    pub fn p(&self, q: f64) -> u64 {
        crate::sys::quantile(&self.samples, q)
    }

    /// Sustained: p99 within the limit, nothing shed, nothing in flight.
    pub fn sustained(&self) -> bool {
        self.p(0.99) <= SERVE.p99_limit_ns
            && self.report.total_shed() == 0
            && self.report.arrivals_in_flight() == 0
    }
}

/// Mean inter-arrival gap per ingress PE that offers `load` × the pool's
/// capacity (every task costs its compute plus the per-task overhead).
pub fn serve_gap_ns(spec: &Spec, load: f64) -> u64 {
    let per_task =
        (SERVE.task_ns + SchedConfig::new(QueueKind::Sws, spec.queue()).task_overhead_ns) as f64;
    (SERVE.n_ingress as f64 * per_task / (spec.n_pes as f64 * load)).round() as u64
}

/// Run the service workload at `load` (`None` = no arrivals at all).
pub fn serve_once(
    spec: &Spec,
    kind: QueueKind,
    seed: u64,
    load: Option<f64>,
    traced: bool,
) -> ServeRun {
    let cfg = spec.config(kind, seed, traced);
    let horizon_ns = if load.is_some() { SERVE.horizon_ns } else { 0 };
    let gap = load.map_or(1, |l| serve_gap_ns(spec, l));
    let samples = Arc::new(Mutex::new(Vec::new()));
    let w = ExactServe {
        plan: ArrivalPlan::poisson(seed ^ 0xA881, gap, horizon_ns),
        task_ns: SERVE.task_ns,
        overhead_ns: cfg.sched.task_overhead_ns,
        n_ingress: SERVE.n_ingress,
        samples: Arc::clone(&samples),
    };
    let svc = ServiceConfig::default().with_admission(AdmissionPolicy::Shed);
    let (report, time) = timed(|| run_service(&cfg, &svc, &w));
    let mut samples = std::mem::take(&mut *samples.lock().expect("latency sink poisoned"));
    samples.sort_unstable();
    ServeRun {
        report,
        time,
        samples,
    }
}

/// The program's own `FlatServe` on the same plan: the exact-latency
/// workload must reproduce its virtual-time outputs byte for byte.
pub fn library_serve_fingerprint(spec: &Spec, kind: QueueKind, seed: u64, load: f64) -> Vec<u64> {
    let cfg = spec.config(kind, seed, false);
    let plan = ArrivalPlan::poisson(seed ^ 0xA881, serve_gap_ns(spec, load), SERVE.horizon_ns);
    let w = sws_workloads::arrivals::FlatServe::new(plan, SERVE.task_ns, SERVE.n_ingress);
    let svc = ServiceConfig::default().with_admission(AdmissionPolicy::Shed);
    fingerprint(&run_service(&cfg, &svc, &w))
}
