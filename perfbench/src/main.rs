//! `perfbench` — the layered benchmark of the SWS/SDC stack.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]
//! ```
//!
//! `--trace 0` times the workload for `S` seconds with every telemetry
//! hook disarmed and prints the end-to-end metrics. `--trace 1` is the
//! separate traced run: it arms the program's read-only capture, records
//! harness spans around every call into a layer, runs the per-layer
//! drivers, and prints the per-layer metrics. Both check every output;
//! the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `NOTES.md`.

mod layers;
mod sys;
mod trace;
mod work;

use std::time::Instant;

use sws_obs::{check_comms, stitch_report, CommReport, StealSpan};
use sws_sched::{QueueKind, RunReport};

use sys::{cpu_s, median, peak_rss_mb, Timing};
use trace::Tracer;
use work::{sys_name, Shape, Spec, SERVE, SYSTEMS};

/// Empty-workload runs for `setup_s`: (untimed warm-up runs, timed runs
/// before the first pass, timed runs after every pass). Small worlds set
/// up several times slower for their first dozen or so runs in a
/// process, so those are discarded, and their sub-millisecond set-up
/// follows the host's thread wake-up latency, so samples are spread over
/// the whole run. At paper width one run takes seconds and shows no
/// warm-up; three runs suffice.
fn setup_reps(spec: &Spec) -> (usize, usize, usize) {
    if spec.n_pes > 64 {
        (0, 3, 0)
    } else {
        (20, 10, 10)
    }
}

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--spans-out FILE]",
        work::SPECS.map(|s| s.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Spec::by_name(&val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val}"))),
                )
            }
            "--seed" => seed = Some(val.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--spans-out" => spans_out = Some(val),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        spans_out,
    }
}

/// What a run reports: the checked-work tally and named metrics.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Checks that are not counted in work units (e.g. a comm budget).
    check_failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable figures printed above the JSON line only.
    notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric value must be finite");
        self.metrics.push((name.into(), value, unit));
    }

    fn fail(&mut self, msg: String) {
        eprintln!("perfbench: CHECK FAILED: {msg}");
        self.check_failures.push(msg);
    }

    /// Count `work` units of a run as attempted, `bad` of them as failed.
    fn tally(&mut self, work: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += work;
        if bad > 0 {
            self.failed += bad;
            self.fail(format!("{} ({bad} of {work} work units failed)", what()));
        }
    }

    fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        let mut json = String::new();
        for (name, value, unit) in &self.metrics {
            println!("{name:<44} {value:>16.6} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.check_failures.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Virtual-time outputs of the first run of each configuration, which
/// every rerun of the same seed must reproduce.
#[derive(Default)]
struct Replay(Vec<(String, Vec<u64>)>);

impl Replay {
    /// `true` if `fp` matches the first run recorded under `key`.
    fn check(&mut self, key: &str, fp: Vec<u64>) -> bool {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, first)) => *first == fp,
            None => {
                self.0.push((key.to_string(), fp));
                true
            }
        }
    }
}

/// Work units a batch run got wrong: tasks missing from (or extra in) the
/// report or the workload's own handler count, or the whole run when a
/// virtual-time rerun diverged.
fn batch_errors(run: &work::BatchRun, expected: u64, replay_ok: bool) -> u64 {
    if !replay_ok {
        return expected;
    }
    run.report
        .total_tasks()
        .abs_diff(expected)
        .max(run.executed.abs_diff(expected))
}

/// Every run's value, for the human-readable lines.
fn fmt_runs(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `peak_rss_mb`, read once set-up and the first pass of both systems
/// are done: later passes repeat the same work, and letting them in
/// would make the figure grow with the pass count (allocator churn) and
/// so with the machine's speed.
fn set_peak_rss(out: &mut Outcome) {
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// `setup_s` samples: CPU seconds of empty-workload runs, alternating
/// the systems; their median is the metric.
struct Setup<'a> {
    spec: &'a Spec,
    seed: u64,
    samples: Vec<f64>,
}

impl<'a> Setup<'a> {
    /// Warm up, then take the samples due before the first pass.
    fn start(spec: &'a Spec, seed: u64) -> Setup<'a> {
        let (warmup, first, _) = setup_reps(spec);
        for i in 0..warmup {
            work::empty_once(spec, SYSTEMS[i % 2], seed);
        }
        let mut setup = Setup {
            spec,
            seed,
            samples: Vec::new(),
        };
        setup.sample(first);
        setup
    }

    fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let kind = SYSTEMS[self.samples.len() % 2];
            self.samples
                .push(work::empty_once(self.spec, kind, self.seed).cpu_s);
        }
    }

    /// The samples due after a pass.
    fn after_pass(&mut self) {
        self.sample(setup_reps(self.spec).2);
    }

    fn report(&self, out: &mut Outcome) {
        out.set("setup_s", median(&self.samples), "s");
    }
}

/// Per-system timings of the run calls of one timed run.
#[derive(Default)]
struct RunTimes([Vec<Timing>; 2]);

impl RunTimes {
    /// `cpu_s.*`: the median CPU seconds (all threads) of each system's
    /// run calls. Wall time is not gated: the virtual-time engine hands
    /// off between threads thousands of times per run, and each handoff
    /// waits for a sleeping CPU to wake, which a shared host can delay by
    /// 2× for minutes at a time while CPU time stays put. Every run's
    /// wall and CPU seconds go on the human-readable lines.
    fn report(&self, out: &mut Outcome) {
        for (i, kind) in SYSTEMS.iter().enumerate() {
            let s = sys_name(*kind);
            let wall: Vec<f64> = self.0[i].iter().map(|t| t.wall_s).collect();
            let cpu: Vec<f64> = self.0[i].iter().map(|t| t.cpu_s).collect();
            out.set(format!("cpu_s.{s}"), median(&cpu), "s");
            out.notes.push(format!(
                "wall_s.{s} runs: {} (median {})",
                fmt_runs(&wall),
                median(&wall)
            ));
            out.notes
                .push(format!("cpu_s.{s} runs: {}", fmt_runs(&cpu)));
        }
    }
}

/// The untraced, timed run of a batch workload.
fn measure_batch(spec: &Spec, seed: u64, seconds: f64, out: &mut Outcome) {
    let expected = spec.expected_tasks().expect("batch workload");
    let mut setup = Setup::start(spec, seed);
    let mut times = RunTimes::default();
    let mut makespans = [Vec::new(), Vec::new()];
    let mut replay = Replay::default();
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        // Alternate which system goes first, so drift hits both alike.
        let order = if pass % 2 == 0 { [0, 1] } else { [1, 0] };
        for i in order {
            let kind = SYSTEMS[i];
            let run = work::batch_once(spec, kind, seed, false);
            let replay_ok =
                spec.threaded || replay.check(sys_name(kind), work::fingerprint(&run.report));
            out.tally(expected, batch_errors(&run, expected, replay_ok), || {
                format!(
                    "{} pass {pass}: {} tasks reported, {} executed, {expected} expected, rerun identical: {replay_ok}",
                    kind.label(),
                    run.report.total_tasks(),
                    run.executed
                )
            });
            times.0[i].push(run.time);
            makespans[i].push(run.report.makespan_ns as f64 / 1e6);
        }
        if pass == 0 {
            set_peak_rss(out);
        }
        setup.after_pass();
        pass += 1;
    }
    setup.report(out);
    times.report(out);
    for (i, kind) in SYSTEMS.iter().enumerate() {
        out.set(
            format!("makespan_ms.{}", sys_name(*kind)),
            median(&makespans[i]),
            "ms",
        );
    }
    out.notes.push(format!(
        "{pass} passes of both systems; {expected} tasks per run; makespan is {}",
        if spec.threaded {
            "the threaded runtime (wall clock)"
        } else {
            "virtual"
        }
    ));
}

/// Per-system figures of one service-ladder pass.
struct Ladder {
    /// One run per rung, ascending load.
    runs: Vec<work::ServeRun>,
}

impl Ladder {
    fn nominal(&self) -> &work::ServeRun {
        &self.runs[SERVE.nominal]
    }

    /// Highest offered load whose rung is sustained (0 if none is).
    fn max_load(&self) -> f64 {
        self.runs
            .iter()
            .zip(SERVE.ladder)
            .filter(|(r, _)| r.sustained())
            .map(|(_, l)| l)
            .fold(0.0, f64::max)
    }
}

/// Run every rung for one system, checking each run; the nominal rung
/// counts shed arrivals as failed work.
fn ladder_pass(
    spec: &Spec,
    kind: QueueKind,
    seed: u64,
    replay: &mut Replay,
    out: &mut Outcome,
) -> Ladder {
    let mut runs = Vec::new();
    for (rung, load) in SERVE.ladder.iter().enumerate() {
        let run = work::serve_once(spec, kind, seed, Some(*load), false);
        let r = &run.report;
        let key = format!("{}-{rung}", sys_name(kind));
        let replay_ok = replay.check(&key, work::fingerprint(r));
        let offered = r.total_offered();
        let bad = if !run.checks_ok() || !replay_ok {
            offered
        } else if rung == SERVE.nominal {
            r.total_shed()
        } else {
            0
        };
        out.tally(offered, bad, || {
            format!(
                "{} at load {load}: {offered} offered, {} shed, {} completed, {} in flight, {} exact samples, buckets agree: {}, rerun identical: {replay_ok}",
                kind.label(),
                r.total_shed(),
                r.completed_arrivals(),
                r.arrivals_in_flight(),
                run.samples.len(),
                run.checks_ok()
            )
        });
        runs.push(run);
    }
    Ladder { runs }
}

/// Per-layer service figures (exact latencies, from the benchmark's own
/// arrival handler); zeros on batch workloads, which have no arrivals.
fn serve_layer_figures(out: &mut Outcome, s: &str, ladder: Option<&Ladder>) {
    let nom = ladder.map(Ladder::nominal);
    let us = |q| nom.map_or(0.0, |n| n.p(q) as f64 / 1e3);
    out.set(format!("serve.p50_us.{s}"), us(0.50), "us");
    out.set(format!("serve.p99_us.{s}"), us(0.99), "us");
    out.set(
        format!("serve.samples.{s}"),
        nom.map_or(0.0, |n| n.samples.len() as f64),
        "count",
    );
    out.set(
        format!("serve.max_load.{s}"),
        ladder.map_or(0.0, Ladder::max_load),
        "load",
    );
}

/// The issue-level service figures of a ladder, with their sample count
/// and every rung, for the human-readable lines.
fn ladder_notes(out: &mut Outcome, kind: QueueKind, ladder: &Ladder) {
    let s = sys_name(kind);
    let nom = ladder.nominal();
    let (p50, p99) = (nom.p(0.50) as f64 / 1e3, nom.p(0.99) as f64 / 1e3);
    let n = nom.samples.len();
    let rungs: Vec<String> = ladder
        .runs
        .iter()
        .zip(SERVE.ladder)
        .map(|(r, l)| {
            format!(
                "{:.0}%: p99 {:.1} us, {} shed{}",
                l * 100.0,
                r.p(0.99) as f64 / 1e3,
                r.report.total_shed(),
                if r.sustained() {
                    ""
                } else {
                    " (not sustained)"
                }
            )
        })
        .collect();
    out.notes.push(format!(
        "serve_p50_us.{s} = {p50} us, serve_p99_us.{s} = {p99} us ({n} samples, {} beyond p99); serve_max_load.{s} = {}; ladder: {}",
        n / 100,
        ladder.max_load(),
        rungs.join("; ")
    ));
}

/// The untraced, timed run of the service workload.
fn measure_serve(spec: &Spec, seed: u64, seconds: f64, out: &mut Outcome) {
    let mut setup = Setup::start(spec, seed);
    let mut times = RunTimes::default();
    let mut replay = Replay::default();
    let mut last: [Option<Ladder>; 2] = [None, None];
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let order = if pass % 2 == 0 { [0, 1] } else { [1, 0] };
        for i in order {
            let ladder = ladder_pass(spec, SYSTEMS[i], seed, &mut replay, out);
            times.0[i].push(ladder.nominal().time);
            last[i] = Some(ladder);
        }
        if pass == 0 {
            set_peak_rss(out);
        }
        setup.after_pass();
        pass += 1;
    }
    setup.report(out);
    times.report(out);
    for (i, kind) in SYSTEMS.iter().enumerate() {
        let ladder = last[i].as_ref().expect("at least one pass");
        out.set(
            format!("makespan_ms.{}", sys_name(*kind)),
            ladder.nominal().report.makespan_ns as f64 / 1e6,
            "ms",
        );
        ladder_notes(out, *kind, ladder);
    }
    out.notes.push(format!(
        "{pass} ladder passes; CPU, wall and makespan are the nominal {:.0}% rung's",
        SERVE.ladder[SERVE.nominal] * 100.0
    ));
}

/// Engine aggregates of an untraced run: wall ns per gated op, gate wait
/// as the per-PE mean and max (never the sum over parked threads), and
/// the windowed share.
fn engine_figures(out: &mut Outcome, s: &str, r: &RunReport, wall_s: f64) {
    let e = r.total_engine();
    let waits: Vec<f64> = r
        .workers
        .iter()
        .map(|w| w.engine.gate_wait_ns as f64 / 1e9)
        .collect();
    let gated = e.gated_ops();
    out.set(format!("shmem.gated_ops.{s}"), gated as f64, "count");
    out.set(
        format!("shmem.ns_per_gated_op.{s}"),
        if gated == 0 {
            0.0
        } else {
            wall_s * 1e9 / gated as f64
        },
        "ns",
    );
    out.set(
        format!("shmem.gate_wait_s_per_pe.{s}"),
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
        "s",
    );
    out.set(
        format!("shmem.gate_wait_s_max_pe.{s}"),
        waits.iter().copied().fold(0.0, f64::max),
        "s",
    );
    out.set(
        format!("shmem.windowed_frac.{s}"),
        e.fast_fraction(),
        "frac",
    );
}

/// Thief-side and scheduler figures of a captured run.
fn steal_figures(
    out: &mut Outcome,
    s: &str,
    r: &RunReport,
    spans: &[StealSpan],
    comm: &CommReport,
) {
    let steals = r.total_steals();
    let attempts = r.total_steal_attempts();
    let stolen: u64 = r.workers.iter().map(|w| w.queue.tasks_stolen).sum();
    out.set(format!("core.steals.{s}"), steals as f64, "count");
    out.set(format!("core.steal_ns.{s}"), r.mean_steal_op_ns(), "ns");
    out.set(
        format!("core.tasks_per_steal.{s}"),
        if steals == 0 {
            0.0
        } else {
            stolen as f64 / steals as f64
        },
        "count",
    );
    // Phase means over completed spans: claim (everything before the
    // payload copy, SDC's lock/meta/tail/unlock included), payload and
    // complete.
    let mut phase = [0u64; 3];
    let mut completed = 0u64;
    for sp in spans.iter().filter(|sp| sp.tasks() > 0) {
        completed += 1;
        for p in &sp.phases {
            let i = match p.name {
                "payload" => 1,
                "complete" => 2,
                _ => 0,
            };
            phase[i] += p.dur_ns;
        }
    }
    for (i, name) in ["claim", "payload", "complete"].iter().enumerate() {
        out.set(
            format!("core.{name}_ns.{s}"),
            if completed == 0 {
                0.0
            } else {
                phase[i] as f64 / completed as f64
            },
            "ns",
        );
    }
    out.set(
        format!("shmem.comm_ops_per_steal.{s}"),
        comm.mean_core_ops(),
        "count",
    );
    out.set(
        format!("shmem.blocking_ops_per_steal.{s}"),
        comm.mean_core_blocking(),
        "count",
    );
    out.set(
        format!("sched.steal_attempts.{s}"),
        attempts as f64,
        "count",
    );
    out.set(
        format!("sched.steal_success_frac.{s}"),
        if attempts == 0 {
            0.0
        } else {
            steals as f64 / attempts as f64
        },
        "frac",
    );
    out.set(
        format!("sched.vt_search_ms.{s}"),
        r.total_search_ns() as f64 / 1e6,
        "ms",
    );
    out.set(
        format!("sched.vt_steal_ms.{s}"),
        r.total_steal_ns() as f64 / 1e6,
        "ms",
    );
    out.set(
        format!("sched.parallel_eff.{s}"),
        r.parallel_efficiency(),
        "frac",
    );
    let wait_ns: u64 = r.workers.iter().map(|w| w.service.admission_wait_ns).sum();
    out.set(format!("sched.shed.{s}"), r.total_shed() as f64, "count");
    out.set(
        format!("sched.admission_wait_us.{s}"),
        wait_ns as f64 / 1e3,
        "us",
    );
}

/// Stitch the captured run's spans and hold them to the paper's per-steal
/// budget (SWS ≤ 3 ops / ≤ 2 blocking; SDC exactly 6 / 5).
fn stitched(
    tr: &mut Tracer,
    spec: &Spec,
    s: &str,
    r: &RunReport,
    out: &mut Outcome,
) -> (Vec<StealSpan>, CommReport) {
    let spans = tr.span(&format!("obs.stitch_report.{s}"), |_| {
        stitch_report(r, &spec.queue())
    });
    let comm = tr.span(&format!("obs.check_comms.{s}"), |_| {
        check_comms(&spans, false)
    });
    if !comm.ok() {
        out.fail(format!(
            "{s}: per-steal comm budget violated: {:?}",
            comm.violations
        ));
    }
    if comm.completed == 0 && r.total_steals() > 0 {
        out.fail(format!(
            "{s}: {} steals but no completed span was stitched",
            r.total_steals()
        ));
    }
    (spans, comm)
}

/// The traced run: captured and uncaptured runs of each system, the
/// per-layer drivers, and the span file.
fn traced(spec: &Spec, seed: u64, out: &mut Outcome, tr: &mut Tracer) {
    let expected = spec.expected_tasks();
    let mut cpu_busy = (0.0, 0.0);
    let mut overhead = 0.0;
    for kind in SYSTEMS {
        let s = sys_name(kind);
        tr.span(&format!("system.{s}"), |tr| {
            let (u, y) = cpu_s();
            let (plain, traced, time_plain, time_traced) = match spec.shape {
                Shape::Serve => {
                    let load = Some(SERVE.ladder[SERVE.nominal]);
                    let plain = tr.span("sched.run_service", |_| work::serve_once(spec, kind, seed, load, false));
                    let (u1, y1) = cpu_s();
                    cpu_busy = (cpu_busy.0 + u1 - u, cpu_busy.1 + y1 - y);
                    let traced = tr.span("sched.run_service_captured", |_| work::serve_once(spec, kind, seed, load, true));
                    tr.span("check.serve", |tr| {
                        for (what, run) in [("uncaptured", &plain), ("captured", &traced)] {
                            let r = &run.report;
                            out.tally(r.total_offered(), if run.checks_ok() { r.total_shed() } else { r.total_offered() }, || {
                                format!("{s} {what} nominal service run: conservation or exact-latency cross-check failed")
                            });
                        }
                        let library = tr.span("sched.run_service_library", |_| {
                            work::library_serve_fingerprint(spec, kind, seed, SERVE.ladder[SERVE.nominal])
                        });
                        if library != work::fingerprint(&plain.report) {
                            out.fail(format!("{s}: exact-latency workload diverged from the program's FlatServe"));
                        }
                    });
                    let ladder = tr.span("sched.ladder", |_| ladder_pass(spec, kind, seed, &mut Replay::default(), out));
                    ladder_notes(out, kind, &ladder);
                    serve_layer_figures(out, s, Some(&ladder));
                    (plain.report, traced.report, plain.time, traced.time)
                }
                _ => {
                    let plain = tr.span("sched.run_workload", |_| work::batch_once(spec, kind, seed, false));
                    let (u1, y1) = cpu_s();
                    cpu_busy = (cpu_busy.0 + u1 - u, cpu_busy.1 + y1 - y);
                    let traced = tr.span("sched.run_workload_captured", |_| work::batch_once(spec, kind, seed, true));
                    serve_layer_figures(out, s, None);
                    tr.span("check.tasks", |_| {
                        let expected = expected.expect("batch workload");
                        for (what, run) in [("uncaptured", &plain), ("captured", &traced)] {
                            out.tally(expected, batch_errors(run, expected, true), || {
                                format!("{s} {what} run: {} tasks, {} executed, {expected} expected", run.report.total_tasks(), run.executed)
                            });
                        }
                    });
                    (plain.report, traced.report, plain.time, traced.time)
                }
            };
            // Telemetry reads the run and never steers it: a captured
            // virtual-time run must reproduce the uncaptured one exactly.
            if !spec.threaded && work::fingerprint(&plain) != work::fingerprint(&traced) {
                out.fail(format!("{s}: captured run diverged from the uncaptured run"));
            }
            overhead += time_traced.wall_s - time_plain.wall_s;
            out.set(format!("sched.run_wall_s.{s}"), time_plain.wall_s, "s");
            out.set(format!("sched.run_cpu_s.{s}"), time_plain.cpu_s, "s");
            engine_figures(out, s, &plain, time_plain.wall_s);
            let (spans, comm) = stitched(tr, spec, s, &traced, out);
            steal_figures(out, s, &traced, &spans, &comm);
        });
    }
    out.set("shmem.user_cpu_s", cpu_busy.0, "s");
    out.set("shmem.sys_cpu_s", cpu_busy.1, "s");
    out.set(
        "shmem.sys_cpu_frac",
        if cpu_busy.0 + cpu_busy.1 > 0.0 {
            cpu_busy.1 / (cpu_busy.0 + cpu_busy.1)
        } else {
            0.0
        },
        "frac",
    );
    out.set("trace.overhead_s", overhead, "s");

    // Set-up attribution at the workload's width.
    let empty = tr.span("sched.empty_run", |_| {
        work::empty_once(spec, QueueKind::Sws, seed)
    });
    let (world_s, barrier_ns) = layers::world_and_barrier(tr, spec);
    out.set("sched.empty_run_s", empty.wall_s, "s");
    out.set("shmem.world_s", world_s, "s");
    out.set("shmem.barrier_ns", barrier_ns, "ns");
    out.set("shmem.heap_mb", layers::heap_mb(spec), "MB");

    let [sha1, children, encode, decode] = layers::codec_and_sha1(tr);
    out.set("workloads.sha1_child_ns", sha1, "ns");
    out.set("workloads.uts_children_ns", children, "ns");
    out.set("task.encode_ns", encode, "ns");
    out.set("task.decode_ns", decode, "ns");

    for kind in SYSTEMS {
        let s = sys_name(kind);
        match layers::owner_path(tr, kind) {
            Some(ns) => {
                for (name, v) in ["enqueue", "pop_local", "release", "acquire"]
                    .iter()
                    .zip(ns)
                {
                    out.set(format!("core.{name}_ns.{s}"), v, "ns");
                }
            }
            None => out.fail(format!("{s}: owner-path driver lost or duplicated tasks")),
        }
    }
    for (world, n_pes, threaded) in layers::OP_WORLDS {
        for (op_name, op) in layers::OPS {
            let span = format!("shmem.op_batch.{op_name}.{world}");
            match layers::op_ns(tr, &span, n_pes, threaded, op) {
                Some(ns) => out.set(format!("shmem.op_ns.{op_name}.{world}"), ns, "ns"),
                None => out.fail(format!(
                    "{op_name} at {world}: an uncontended compare-and-swap failed"
                )),
            }
        }
    }
    out.set("proc.peak_rss_mb", peak_rss_mb(), "MB");
    out.set("trace.spans", tr.len() as f64, "count");
}

fn main() {
    let args = parse_args();
    let spec = args.workload;
    let mut out = Outcome::default();
    if args.trace {
        let mut tr = Tracer::new(args.seed);
        tr.span(&format!("traced-run.{}", spec.name), |tr| {
            traced(&spec, args.seed, &mut out, tr)
        });
        if let Some(path) = &args.spans_out {
            if let Err(e) = tr.write_jsonl(path) {
                out.fail(format!("cannot write spans to {path}: {e}"));
            }
        }
    } else {
        match spec.shape {
            Shape::Serve => measure_serve(&spec, args.seed, args.seconds, &mut out),
            _ => measure_batch(&spec, args.seed, args.seconds, &mut out),
        }
        out.notes.push(format!(
            "failed_frac = {} ({} of {} work units); hw threads {}",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ));
    }
    out.print();
}
