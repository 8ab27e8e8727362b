//! End-to-end scheduler tests: recursive workloads run to global
//! termination on both queues and both termination detectors, with every
//! task executed exactly once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sws_core::QueueConfig;
use sws_sched::{
    run_workload, QueueKind, RunConfig, SchedConfig, TaskCtx, TdKind, Workload,
};
use sws_shmem::OpKind;
use sws_task::{PayloadReader, PayloadWriter, TaskDescriptor, TaskRegistry};

/// A synthetic binary-tree workload: a task at depth d spawns two
/// children until `depth` is reached; every task charges `task_ns` of
/// virtual compute. Total tasks = 2^(depth+1) - 1 per seed.
struct TreeWorkload {
    depth: u32,
    task_ns: u64,
    executed: Arc<AtomicU64>,
}

impl TreeWorkload {
    fn new(depth: u32, task_ns: u64) -> TreeWorkload {
        TreeWorkload {
            depth,
            task_ns,
            executed: Arc::new(AtomicU64::new(0)),
        }
    }

    fn task(depth_left: u32) -> TaskDescriptor {
        let mut w = PayloadWriter::new();
        w.u32(depth_left);
        TaskDescriptor::new(7, w.as_slice())
    }

    fn total_tasks(&self) -> u64 {
        (1u64 << (self.depth + 1)) - 1
    }
}

impl Workload for TreeWorkload {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        let task_ns = self.task_ns;
        let counter = Arc::clone(&self.executed);
        reg.register(7, move |tctx, payload| {
            let mut r = PayloadReader::new(payload);
            let depth_left = r.u32();
            counter.fetch_add(1, Ordering::Relaxed);
            tctx.compute(task_ns);
            if depth_left > 0 {
                tctx.spawn(TreeWorkload::task(depth_left - 1));
                tctx.spawn(TreeWorkload::task(depth_left - 1));
            }
        });
    }

    fn seeds(&self, pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        if pe == 0 {
            vec![TreeWorkload::task(self.depth)]
        } else {
            Vec::new()
        }
    }
}

fn config(kind: QueueKind, n_pes: usize) -> RunConfig {
    RunConfig::new(n_pes, SchedConfig::new(kind, QueueConfig::new(1024, 24)))
}

#[test]
fn single_pe_runs_to_completion() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = TreeWorkload::new(8, 1_000);
        let report = run_workload(&config(kind, 1), &w);
        assert_eq!(report.total_tasks(), w.total_tasks(), "{kind:?}");
        assert_eq!(
            w.executed.load(Ordering::Relaxed),
            w.total_tasks(),
            "{kind:?}: every task executed exactly once"
        );
        assert!(report.makespan_ns > 0);
    }
}

#[test]
fn work_disseminates_from_pe0_to_all() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = TreeWorkload::new(10, 2_000);
        let report = run_workload(&config(kind, 4), &w);
        assert_eq!(report.total_tasks(), w.total_tasks(), "{kind:?}");
        // Load balancing actually happened: every PE executed something.
        for (pe, ws) in report.workers.iter().enumerate() {
            assert!(
                ws.tasks_executed > 0,
                "{kind:?}: PE {pe} executed no tasks"
            );
        }
        // And the thieves stole to get it.
        assert!(report.total_steals() > 0, "{kind:?}");
    }
}

#[test]
fn both_termination_detectors_agree() {
    for td in [TdKind::Counter, TdKind::TokenRing] {
        let w = TreeWorkload::new(9, 1_000);
        let mut cfg = config(QueueKind::Sws, 4);
        cfg.sched = cfg.sched.with_td(td);
        let report = run_workload(&cfg, &w);
        assert_eq!(
            report.total_tasks(),
            w.total_tasks(),
            "{td:?}: all tasks executed before termination fired"
        );
    }
}

#[test]
fn deterministic_runs_same_seed() {
    let run = |seed: u64| {
        let w = TreeWorkload::new(9, 1_500);
        let mut cfg = config(QueueKind::Sws, 6);
        cfg.sched = cfg.sched.with_seed(seed);
        let r = run_workload(&cfg, &w);
        (
            r.makespan_ns,
            r.total_steals(),
            r.workers.iter().map(|w| w.tasks_executed).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(11), run(11), "identical seeds → identical runs");
    assert_ne!(
        run(11).0,
        run(12).0,
        "different seeds → different interleavings (makespans)"
    );
}

#[test]
fn sws_uses_fewer_comms_than_sdc_per_steal() {
    let w_sws = TreeWorkload::new(10, 2_000);
    let r_sws = run_workload(&config(QueueKind::Sws, 4), &w_sws);
    let w_sdc = TreeWorkload::new(10, 2_000);
    let r_sdc = run_workload(&config(QueueKind::Sdc, 4), &w_sdc);

    // The paper's claim: a successful steal costs ~half the time (3 ops,
    // 2 blocking vs 6 ops, 5 blocking).
    assert!(
        r_sws.mean_steal_op_ns() < 0.7 * r_sdc.mean_steal_op_ns(),
        "SWS steal op {} ns !< 0.7 × SDC {} ns",
        r_sws.mean_steal_op_ns(),
        r_sdc.mean_steal_op_ns()
    );
    // SWS never locks; SDC's protocol uses compare-swap for locking.
    assert_eq!(r_sws.total_comm().count(OpKind::AtomicCompareSwap), 0);
    assert!(r_sdc.total_comm().count(OpKind::AtomicCompareSwap) > 0);
}

#[test]
fn damping_off_still_correct() {
    let w = TreeWorkload::new(9, 1_000);
    let mut cfg = config(QueueKind::Sws, 4);
    cfg.sched = cfg.sched.with_damping(false);
    let report = run_workload(&cfg, &w);
    assert_eq!(report.total_tasks(), w.total_tasks());
}

#[test]
fn timing_decomposition_is_sane() {
    let w = TreeWorkload::new(10, 5_000);
    let report = run_workload(&config(QueueKind::Sws, 4), &w);
    let total_task: u64 = report.total_task_ns();
    // Useful work is at least tasks × task_ns (per-task overhead adds more).
    let expect = w.total_tasks() * 5_000;
    assert!(total_task >= expect, "{total_task} < {expect}");
    // Every PE's decomposed times fit inside its runtime.
    for ws in &report.workers {
        let parts = ws.task_ns + ws.steal_ns + ws.search_ns + ws.upkeep_ns;
        assert!(
            parts <= ws.runtime_ns + 1_000,
            "decomposition exceeds runtime: {parts} > {}",
            ws.runtime_ns
        );
    }
    // Efficiency is a sane fraction.
    let eff = report.parallel_efficiency();
    assert!(eff > 0.05 && eff <= 1.0, "efficiency {eff}");
}

#[test]
fn larger_seed_fanout_all_pes_seeded() {
    // Seeding every PE directly (no dissemination phase) must also work.
    struct AllSeeded(TreeWorkload);
    impl Workload for AllSeeded {
        fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
            self.0.register(reg);
        }
        fn seeds(&self, _pe: usize, _n: usize) -> Vec<TaskDescriptor> {
            vec![TreeWorkload::task(6)]
        }
    }
    let w = AllSeeded(TreeWorkload::new(6, 500));
    let report = run_workload(&config(QueueKind::Sws, 4), &w);
    // 4 seeds × (2^7 - 1) tasks each.
    assert_eq!(report.total_tasks(), 4 * 127);
}

// ---------------------------------------------------------------------
// Ring overflow: tasks that find the ring full spill onto the owner's
// overflow stack. The stack must stay one LIFO stack with the ring, move
// back into the ring as it frees room, and keep releasing meanwhile, so
// spilled work stays stealable and no task is lost or run twice.
// ---------------------------------------------------------------------

mod overflow {
    use super::*;
    use sws_sched::{run_service, ServiceConfig};
    use sws_shmem::FaultPlan;
    use sws_workloads::arrivals::{ArrivalPlan, UtsServe};
    use sws_workloads::synth::FlatBag;
    use sws_workloads::uts::{UtsParams, UtsWorkload};

    fn spilled(r: &sws_sched::RunReport) -> u64 {
        r.workers.iter().map(|w| w.overflow_spilled).sum()
    }

    /// 4,400 flat tasks overfill a 4,096-slot ring by 7%; the run must
    /// balance as well as the 4,000-task run that fits.
    #[test]
    fn flat_bag_past_the_ring_keeps_its_efficiency() {
        for kind in [QueueKind::Sws, QueueKind::Sdc] {
            let cfg = RunConfig::new(16, SchedConfig::new(kind, QueueConfig::new(4096, 24)));
            let fits = FlatBag::new(4_000, 50_000, 24);
            let r_fits = run_workload(&cfg, &fits);
            assert_eq!(spilled(&r_fits), 0, "{kind:?}: 4,000 tasks fit the ring");
            let over = FlatBag::new(4_400, 50_000, 24);
            let r_over = run_workload(&cfg, &over);
            assert_eq!(r_over.total_tasks(), 4_400, "{kind:?}");
            assert_eq!(over.executed(), 4_400, "{kind:?}: every task exactly once");
            assert_eq!(spilled(&r_over), 304, "{kind:?}: the excess spilled");
            let refilled: u64 = r_over.workers.iter().map(|w| w.overflow_refilled).sum();
            assert!(
                refilled > 0,
                "{kind:?}: no spilled task moved back into the ring"
            );
            let (e_fits, e_over) = (r_fits.parallel_efficiency(), r_over.parallel_efficiency());
            assert!(
                e_over > e_fits - 0.03,
                "{kind:?}: overflow efficiency {e_over:.3} vs {e_fits:.3} without it"
            );
        }
    }

    /// A recursive tree on a 32-slot ring spills on most PEs; the
    /// parallel count must still match the sequential oracle.
    #[test]
    fn uts_on_a_tiny_ring_matches_the_sequential_oracle() {
        let params = UtsParams::geo_small(8);
        let expect = params.sequential_count().nodes;
        for kind in [QueueKind::Sws, QueueKind::Sdc] {
            let w = UtsWorkload::new(params);
            let cfg = RunConfig::new(8, SchedConfig::new(kind, QueueConfig::new(32, 48)));
            let r = run_workload(&cfg, &w);
            assert!(spilled(&r) > 0, "{kind:?}: a 32-slot ring must overflow");
            assert_eq!(r.total_tasks(), expect, "{kind:?}: report count");
            assert_eq!(w.nodes_visited(), expect, "{kind:?}: handler count");
        }
    }

    /// `per_pe` independent 50 µs tasks seeded on every PE, each counted
    /// by tag so a lost or duplicated task shows up by name.
    struct EveryPeBag {
        per_pe: usize,
        counts: Arc<Vec<AtomicU64>>,
    }

    impl Workload for EveryPeBag {
        fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
            let counts = Arc::clone(&self.counts);
            reg.register(9, move |tctx, payload| {
                let tag = PayloadReader::new(payload).u32() as usize;
                counts[tag].fetch_add(1, Ordering::Relaxed);
                tctx.compute(50_000);
            });
        }

        fn seeds(&self, pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
            (0..self.per_pe)
                .map(|i| {
                    let mut w = PayloadWriter::new();
                    w.u32((pe * self.per_pe + i) as u32);
                    TaskDescriptor::new(9, w.as_slice())
                })
                .collect()
        }
    }

    /// PE 2 crash-stops two tasks into a run in which every PE seeded 48
    /// tasks into a 32-slot ring, so it dies holding spilled tasks. Its
    /// drain must run them; nothing is lost or duplicated.
    #[test]
    fn crash_stop_while_holding_spilled_tasks_conserves_them() {
        let (n_pes, per_pe) = (4, 48);
        for kind in [QueueKind::Sws, QueueKind::Sdc] {
            let w = EveryPeBag {
                per_pe,
                counts: Arc::new((0..n_pes * per_pe).map(|_| AtomicU64::new(0)).collect()),
            };
            let plan = FaultPlan::seeded(0x0F10_0002).with_crash(2, 100_000);
            let cfg = RunConfig::new(n_pes, SchedConfig::new(kind, QueueConfig::new(32, 24)))
                .with_faults(plan);
            let r = run_workload(&cfg, &w);
            assert_eq!(r.crashed_pes(), 1, "{kind:?}: PE 2 should have crashed");
            assert!(r.workers[2].crashed, "{kind:?}: wrong PE flagged");
            assert!(
                r.workers[2].overflow_spilled > 0,
                "{kind:?}: the crashing PE never spilled"
            );
            for (tag, c) in w.counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "{kind:?}: task {tag}");
            }
            assert_eq!(r.total_tasks(), (n_pes * per_pe) as u64, "{kind:?}");
        }
    }

    /// Service mode on a 64-slot ring: arrivals come faster than they
    /// are served, so admission fills the ring and the UTS subtree each
    /// arrival detonates into spills past it. Arrivals are
    /// conserved, and the same subtrees are visited as on a roomy ring.
    #[test]
    fn service_on_a_small_ring_conserves_arrivals() {
        for kind in [QueueKind::Sws, QueueKind::Sdc] {
            let run = |capacity: usize| {
                let w = UtsServe::new(
                    UtsParams::geo_small(8),
                    ArrivalPlan::poisson(0x0F10_0004, 1_000, 200_000),
                    4,
                    2,
                );
                let cfg = RunConfig::new(4, SchedConfig::new(kind, QueueConfig::new(capacity, 48)));
                let r = run_service(&cfg, &ServiceConfig::default(), &w);
                (r, w.nodes_visited())
            };
            let (small, visited_small) = run(64);
            let (roomy, visited_roomy) = run(1024);
            assert!(
                spilled(&small) > 0,
                "{kind:?}: a 64-slot ring must overflow"
            );
            assert_eq!(spilled(&roomy), 0, "{kind:?}: the roomy ring must not");
            assert!(small.total_offered() > 0, "{kind:?}: no arrivals");
            assert!(small.arrival_conservation_ok(), "{kind:?}: conservation");
            assert_eq!(small.arrivals_in_flight(), 0, "{kind:?}: in flight");
            assert_eq!(small.total_admitted(), small.total_offered(), "{kind:?}");
            assert_eq!(small.total_offered(), roomy.total_offered(), "{kind:?}");
            assert_eq!(visited_small, visited_roomy, "{kind:?}: subtree nodes");
            assert_eq!(small.total_tasks(), roomy.total_tasks(), "{kind:?}: tasks");
        }
    }
}
