//! Differential determinism suite.
//!
//! Virtual-time runs are pure functions of their configuration, so every
//! deterministic field of a report — makespan, per-PE communication
//! counters (`OpStats`), queue counters, timing decompositions, event
//! traces — must be identical across things that may only change *how*
//! the run is computed: heap layouts, telemetry, ordering-override
//! tables, and engine rewrites. The last are pinned by the cross-version
//! goldens at the bottom: outputs rendered once and committed under
//! `tests/golden/`. Only wall-clock fields (`wall_ms`, `EngineStats`) may
//! differ.

use sws_core::QueueConfig;
use sws_sched::runner::run_workload_mode;
use sws_sched::{run_workload, QueueKind, RunConfig, RunReport, SchedConfig};
use sws_shmem::{ExecMode, HeapLayout};
use sws_workloads::uts::{UtsParams, UtsWorkload};

fn report_for(kind: QueueKind, seed: u64) -> RunReport {
    report_for_layout(kind, seed, HeapLayout::default())
}

fn report_for_layout(kind: QueueKind, seed: u64, layout: HeapLayout) -> RunReport {
    let queue = QueueConfig::new(1024, 48);
    let sched = SchedConfig::new(kind, queue).with_seed(seed);
    let cfg = RunConfig::new(8, sched).with_heap_layout(layout);
    let wl = UtsWorkload::new(UtsParams::geo_small(8));
    run_workload(&cfg, &wl)
}

/// Everything deterministic in a report, with wall-clock fields erased.
fn assert_reports_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.system, b.system);
    assert_eq!(a.n_pes, b.n_pes);
    assert_eq!(a.makespan_ns, b.makespan_ns, "makespans diverged");
    assert_eq!(a.comm.total, b.comm.total, "total OpStats diverged");
    assert_eq!(a.comm.per_pe, b.comm.per_pe, "per-PE OpStats diverged");
    assert_eq!(a.workers.len(), b.workers.len());
    for (pe, (wa, wb)) in a.workers.iter().zip(&b.workers).enumerate() {
        assert_eq!(wa.tasks_executed, wb.tasks_executed, "PE {pe} tasks");
        assert_eq!(wa.task_ns, wb.task_ns, "PE {pe} task_ns");
        assert_eq!(wa.steal_ns, wb.steal_ns, "PE {pe} steal_ns");
        assert_eq!(wa.search_ns, wb.search_ns, "PE {pe} search_ns");
        assert_eq!(wa.upkeep_ns, wb.upkeep_ns, "PE {pe} upkeep_ns");
        assert_eq!(wa.first_work_ns, wb.first_work_ns, "PE {pe} first_work_ns");
        assert_eq!(wa.runtime_ns, wb.runtime_ns, "PE {pe} runtime_ns");
        assert_eq!(wa.queue, wb.queue, "PE {pe} queue counters");
        assert_eq!(wa.crashed, wb.crashed, "PE {pe} crash status");
        assert_eq!(wa.events, wb.events, "PE {pe} trace events");
    }
}

/// The engine reports its activity through `EngineStats` without
/// perturbing the run: a rerun sees the same op stream.
#[test]
fn engine_stats_count_every_gated_op() {
    let a = report_for(QueueKind::Sws, 7);
    let b = report_for(QueueKind::Sws, 7);
    let (ea, eb) = (a.total_engine(), b.total_engine());
    assert!(ea.gated_ops() > 0);
    assert!(ea.slow_ops > 0 && ea.switches >= ea.slow_ops, "{ea:?}");
    assert_eq!(
        ea.gated_ops(),
        eb.gated_ops(),
        "reruns see the same op stream"
    );
    assert_eq!(
        ea.switches, eb.switches,
        "the switch schedule is deterministic"
    );
}

/// The aligned heap layout (the false-sharing fix) must be invisible in
/// virtual time: op costs come from the network model keyed on op kind,
/// byte count, and locality — never on addresses — and the aligned
/// collective allocator issues the exact op sequence of the packed one.
/// So a packed-layout run and an aligned-layout run of the same seed
/// must produce identical reports, on both queue systems. This is what lets the wall-clock fix land without touching a
/// single golden figure.
#[test]
fn heap_layouts_agree_in_virtual_time() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let packed = report_for_layout(kind, 0xBA5E, HeapLayout::Packed);
        let aligned = report_for_layout(kind, 0xBA5E, HeapLayout::Aligned);
        assert_reports_identical(&packed, &aligned);
        assert!(packed.total_tasks() > 0, "workload must actually run");
    }
}

/// Same claim at the artifact level: the figure CSV a sweep renders must
/// come out byte-identical across heap layouts (the wall-clock companion
/// CSV is excluded by construction — it reports nondeterministic time).
#[test]
fn figure_csv_is_byte_identical_across_heap_layouts() {
    let csv_for_layout = |layout: HeapLayout| -> String {
        let mut rows = String::from("pes,system,makespan_ns,steals\n");
        for kind in [QueueKind::Sdc, QueueKind::Sws] {
            for pes in [4, 8] {
                let queue = QueueConfig::new(1024, 48);
                let sched = SchedConfig::new(kind, queue).with_seed(0xBA5E);
                let cfg = RunConfig::new(pes, sched).with_heap_layout(layout);
                let wl = UtsWorkload::new(UtsParams::geo_small(7));
                let r = run_workload(&cfg, &wl);
                rows.push_str(&format!(
                    "{pes},{},{},{}\n",
                    r.system,
                    r.makespan_ns,
                    r.total_steals()
                ));
            }
        }
        rows
    };
    assert_eq!(
        csv_for_layout(HeapLayout::Packed),
        csv_for_layout(HeapLayout::Aligned),
        "heap layout leaked into a deterministic figure artifact"
    );
}

/// Batched completion puts are a *timing* optimization, never a
/// correctness one: turning them on must not lose or duplicate a single
/// task, on either queue system. (Makespans may legitimately shift —
/// the batch changes when completion ops are charged — so this pins
/// conservation, not byte-identity.)
#[test]
fn completion_batching_preserves_conservation() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let eager = report_for(kind, 0xBA5E);
        let queue = QueueConfig::new(1024, 48).with_comp_batch(4);
        let sched = SchedConfig::new(kind, queue).with_seed(0xBA5E);
        let cfg = RunConfig::new(8, sched);
        let wl = UtsWorkload::new(UtsParams::geo_small(8));
        let batched = run_workload(&cfg, &wl);
        assert_eq!(
            batched.total_tasks(),
            eager.total_tasks(),
            "{kind:?}: batching lost or duplicated tasks"
        );
        assert!(batched.total_steals() > 0, "{kind:?}: no steals exercised");
    }
}

/// Threaded mode never enters the virtual-time engine: its reports carry
/// no engine activity.
#[test]
fn threaded_mode_has_no_engine() {
    let queue = QueueConfig::new(1024, 48);
    let sched = SchedConfig::new(QueueKind::Sws, queue).with_seed(3);
    let cfg = RunConfig::new(4, sched);
    let wl = UtsWorkload::new(UtsParams::geo_small(6));
    let report = run_workload_mode(
        &cfg,
        &wl,
        ExecMode::Threaded {
            inject_latency: false,
        },
    );
    assert!(report.total_tasks() > 0, "threaded run must complete");
    assert_eq!(
        report.total_engine(),
        Default::default(),
        "threaded mode has no virtual-time engine"
    );
}

/// The necessity prover's identity override table — every site resolved
/// through the table at its own production ordering, no tracker — must
/// be invisible in virtual time: attaching it to a run changes how each
/// gated op *looks up* its ordering, never which ordering it gets. A
/// byte-level divergence here would mean campaign worlds measure a
/// different system than production, voiding every live verdict.
#[test]
fn identity_override_table_is_invisible() {
    use std::sync::Arc;
    use sws_core::{AtomicSite, MemOrder};
    use sws_shmem::overrides::{ORD_ACQREL, ORD_ACQUIRE, ORD_RELAXED, ORD_RELEASE};
    use sws_shmem::{OrderingCtl, OrderingOverrides};

    let mut ov = OrderingOverrides::identity();
    for s in AtomicSite::ALL {
        let code = match s.production() {
            MemOrder::Relaxed => ORD_RELAXED,
            MemOrder::Acquire => ORD_ACQUIRE,
            MemOrder::Release => ORD_RELEASE,
            MemOrder::AcqRel => ORD_ACQREL,
        };
        ov = ov.with(s.id(), code);
    }
    let ctl = Arc::new(OrderingCtl {
        overrides: ov,
        tracker: None,
    });
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let queue = QueueConfig::new(1024, 48);
        let sched = SchedConfig::new(kind, queue).with_seed(0xBA5E);
        let wl = UtsWorkload::new(UtsParams::geo_small(8));
        let bare = run_workload(&RunConfig::new(8, sched), &wl);
        let tabled = run_workload(&RunConfig::new(8, sched).with_ordering(ctl.clone()), &wl);
        assert_reports_identical(&bare, &tabled);
        assert!(bare.total_tasks() > 0, "workload must actually run");
    }
}

// ---------------------------------------------------------------------
// Cross-version goldens
// ---------------------------------------------------------------------

/// Deterministic output of the virtual-time engine, pinned across
/// engine rewrites: every case below was rendered once (by the
/// thread-per-PE engine this executor replaced; the overflow runs by the
/// one-stack overflow policy) and committed under `tests/golden/`, and
/// each run must reproduce its file byte for byte. Regenerate (only when a PR deliberately changes semantics)
/// with `SWS_BLESS=1 cargo test -p sws-sched --test differential golden`.
mod golden {
    use super::*;
    use std::fmt::Write as _;
    use sws_sched::{run_service, AdmissionPolicy, MembershipPlan, ServiceConfig};
    use sws_shmem::{FaultPlan, OpClass, TargetSel};
    use sws_workloads::arrivals::{ArrivalPlan, FlatServe, UtsServe};
    use sws_workloads::synth::FlatBag;

    /// FNV-1a over a rendered list, for streams too long to commit.
    fn fnv(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every deterministic field of a report, one line per fact.
    /// Wall-clock fields (`wall_ms`, `EngineStats`) are left out.
    fn render(label: &str, r: &RunReport) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== {label}");
        let _ = writeln!(
            s,
            "system={} pes={} makespan_ns={}",
            r.system, r.n_pes, r.makespan_ns
        );
        let _ = writeln!(s, "total {:?}", r.comm.total);
        for (pe, w) in r.workers.iter().enumerate() {
            let _ = writeln!(
                s,
                "pe{pe} run tasks={} task_ns={} steal_ns={} search_ns={} upkeep_ns={} \
                 first_work_ns={} runtime_ns={} crashed={} quarantined={} attempts={}",
                w.tasks_executed,
                w.task_ns,
                w.steal_ns,
                w.search_ns,
                w.upkeep_ns,
                w.first_work_ns,
                w.runtime_ns,
                w.crashed,
                w.pes_quarantined,
                w.steal_attempts,
            );
            let _ = writeln!(s, "pe{pe} queue {:?}", w.queue);
            let _ = writeln!(s, "pe{pe} comm {:?}", r.comm.per_pe[pe]);
            if w.overflow_spilled > 0 {
                let _ = writeln!(
                    s,
                    "pe{pe} overflow spilled={} refilled={}",
                    w.overflow_spilled, w.overflow_refilled
                );
            }
            if !w.service.is_empty() {
                let v = &w.service;
                let _ = writeln!(
                    s,
                    "pe{pe} service {} {} {} {} {} {} {} {} {} {} {:?}",
                    v.offered,
                    v.admitted,
                    v.shed,
                    v.deferred,
                    v.blocked,
                    v.admission_wait_ns,
                    v.parks,
                    v.rejoins,
                    v.readmitted,
                    v.quiescent_windows,
                    v.latency,
                );
            }
            if !w.events.is_empty() {
                let _ = writeln!(
                    s,
                    "pe{pe} events n={} fnv={:016x}",
                    w.events.len(),
                    fnv(&format!("{:?}", w.events))
                );
            }
        }
        let proto = r.proto_trace();
        if !proto.is_empty() {
            let _ = writeln!(
                s,
                "proto n={} fnv={:016x}",
                proto.len(),
                fnv(&format!("{proto:?}"))
            );
        }
        s
    }

    fn uts_cfg(kind: QueueKind, seed: u64) -> RunConfig {
        let queue = QueueConfig::new(1024, 48);
        RunConfig::new(8, SchedConfig::new(kind, queue).with_seed(seed))
    }

    fn uts_run(cfg: &RunConfig) -> RunReport {
        run_workload(cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
    }

    /// Compare `actual` with the committed golden `name`, or rewrite it
    /// under `SWS_BLESS=1`.
    fn check(name: &str, actual: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        if std::env::var_os("SWS_BLESS").is_some() {
            std::fs::write(&path, actual).expect("write golden");
            return;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()));
        if expected != actual {
            let at = expected
                .lines()
                .zip(actual.lines())
                .position(|(a, b)| a != b)
                .unwrap_or(expected.lines().count().min(actual.lines().count()));
            panic!(
                "{name} diverged from the golden at line {}:\n  golden: {:?}\n  actual: {:?}",
                at + 1,
                expected.lines().nth(at),
                actual.lines().nth(at),
            );
        }
    }

    #[test]
    fn golden_batch_runs() {
        let mut out = String::new();
        for seed in [0xBA5E, 0xBA5E + 7919, 42] {
            out += &render(
                &format!("uts8 SWS seed={seed:#x}"),
                &uts_run(&uts_cfg(QueueKind::Sws, seed)),
            );
        }
        for seed in [0xBA5E, 1337] {
            out += &render(
                &format!("uts8 SDC seed={seed:#x}"),
                &uts_run(&uts_cfg(QueueKind::Sdc, seed)),
            );
        }
        check("batch.txt", &out);
    }

    #[test]
    fn golden_traced_and_captured_runs() {
        let mut out = String::new();
        for kind in [QueueKind::Sws, QueueKind::Sdc] {
            let mut cfg = uts_cfg(kind, 0xBA5E);
            cfg.sched.trace = true;
            out += &render(&format!("uts8 {kind:?} traced"), &uts_run(&cfg));
            let cfg = uts_cfg(kind, 0xBA5E).with_capture_proto();
            out += &render(&format!("uts8 {kind:?} captured"), &uts_run(&cfg));
        }
        check("observed.txt", &out);
    }

    #[test]
    fn golden_fault_runs() {
        let mut out = String::new();
        for kind in [QueueKind::Sws, QueueKind::Sdc] {
            let plan = FaultPlan::seeded(0x60_1D01)
                .with_drop(OpClass::All, TargetSel::Any, 0.05)
                .with_stall(1, 20_000, 80_000);
            let cfg = uts_cfg(kind, 0xBA5E).with_faults(plan);
            out += &render(&format!("uts8 {kind:?} drops+stall"), &uts_run(&cfg));
            let plan = FaultPlan::seeded(0x60_1D02)
                .with_drop(OpClass::All, TargetSel::Any, 0.03)
                .with_crash(3, 150_000);
            let cfg = uts_cfg(kind, 0xBA5E).with_faults(plan);
            out += &render(&format!("uts8 {kind:?} drops+crash"), &uts_run(&cfg));
        }
        check("faults.txt", &out);
    }

    #[test]
    fn golden_service_runs() {
        let mut out = String::new();
        for kind in [QueueKind::Sws, QueueKind::Sdc] {
            let cfg = RunConfig::new(4, SchedConfig::new(kind, QueueConfig::new(1024, 24)));
            let w = FlatServe::new(ArrivalPlan::poisson(0x5E41_0002, 5_000, 400_000), 3_000, 1);
            let svc = ServiceConfig::default()
                .with_membership(MembershipPlan::fixed().away(2, 120_000, 90_000));
            let plan = FaultPlan::seeded(0x5E41_0002).with_drop(OpClass::All, TargetSel::Any, 0.04);
            let r = run_service(&cfg.clone().with_faults(plan), &svc, &w);
            out += &render(&format!("flat-serve {kind:?} away+drops"), &r);

            let w = FlatServe::new(ArrivalPlan::poisson(0x5E41_0003, 1_500, 300_000), 8_000, 1);
            let svc = ServiceConfig::default()
                .with_admission(AdmissionPolicy::Shed)
                .with_hwm_pct(50);
            let r = run_service(&cfg, &svc, &w);
            out += &render(&format!("flat-serve {kind:?} overload/shed"), &r);

            let w = UtsServe::new(
                UtsParams::geo_small(8),
                ArrivalPlan::poisson(0x5E41_0004, 40_000, 400_000),
                6,
                2,
            );
            let cfg = RunConfig::new(4, SchedConfig::new(kind, QueueConfig::new(1024, 48)));
            let r = run_service(&cfg, &ServiceConfig::default(), &w);
            out += &render(&format!("uts-serve {kind:?}"), &r);
        }
        check("service.txt", &out);
    }

    /// The ring-overflow policy (DESIGN §5c): 4,400 flat tasks seeded
    /// into a 4,096-slot ring on 16 PEs.
    #[test]
    fn golden_overflow_runs() {
        let mut out = String::new();
        for kind in [QueueKind::Sws, QueueKind::Sdc] {
            let cfg = RunConfig::new(16, SchedConfig::new(kind, QueueConfig::new(4096, 24)));
            let r = run_workload(&cfg, &FlatBag::new(4_400, 50_000, 24));
            out += &render(&format!("flat4400 cap4096 {kind:?}"), &r);
        }
        check("overflow.txt", &out);
    }
}
