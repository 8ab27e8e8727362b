//! Byte-identity of experiment artifacts.
//!
//! Renders the Fig. 8-style CSV for a small UTS sweep and asserts it is
//! byte-identical across reruns, with telemetry armed, and against a
//! golden committed from an earlier engine — no engine change may
//! perturb a single digit of any figure CSV. Wall-clock companions
//! (`*_wall.csv`) are exempt.

use sws_bench::{csv_for, run_series, run_series_instrumented, summarize, wall_csv_for, Cell};
use sws_core::QueueConfig;
use sws_sched::QueueKind;
use sws_workloads::uts::{UtsParams, UtsWorkload};

/// A miniature Fig. 8 sweep: both systems at each width, summarized
/// exactly the way `six_panels` builds figure cells.
fn sweep(widths: &[usize]) -> Vec<(usize, Cell, Cell)> {
    let queue = QueueConfig::new(1024, 48);
    let params = UtsParams::geo_small(7);
    widths
        .iter()
        .map(|&pes| {
            let sdc = run_series(QueueKind::Sdc, pes, queue, 2, |_r| UtsWorkload::new(params));
            let sws = run_series(QueueKind::Sws, pes, queue, 2, |_r| UtsWorkload::new(params));
            (pes, summarize(&sdc), summarize(&sws))
        })
        .collect()
}

/// Cross-version golden: the miniature Fig. 8 CSV, rendered once (by the
/// thread-per-PE engine the coroutine executor replaced) and committed
/// under `tests/golden/`, must come out byte for byte on every later
/// engine. Regenerate (only for a deliberate semantic change) with
/// `SWS_BLESS=1 cargo test -p sws-bench --test differential_csv golden`.
#[test]
fn golden_figure_csv() {
    let actual = csv_for(&sweep(&[2, 4, 8]));
    assert_eq!(actual.lines().count(), 1 + 3 * 2);
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig_uts_small.csv");
    if std::env::var_os("SWS_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        actual, expected,
        "figure CSV diverged from the committed golden"
    );

    // And the artifact on disk round-trips the same bytes.
    let dir = std::path::Path::new("../../target/experiments");
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("differential_check.csv");
    std::fs::write(&path, &actual).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), actual.as_bytes());
}

#[test]
fn wall_csv_carries_engine_counters() {
    let cells = sweep(&[2, 4]);
    let wall = wall_csv_for(&cells);
    let mut lines = wall.lines();
    assert_eq!(
        lines.next().unwrap(),
        "pes,system,wall_ms,engine_fast_ops,engine_slow_ops,engine_gate_wait_ns"
    );
    // Every data row reports a live engine: some ops were gated.
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 6, "malformed row: {line}");
        let fast: u64 = cols[3].parse().unwrap();
        let slow: u64 = cols[4].parse().unwrap();
        assert!(fast + slow > 0, "no gated ops in row: {line}");
    }
}

#[test]
fn csv_rows_are_deterministic_across_reruns() {
    let a = csv_for(&sweep(&[2, 4]));
    let b = csv_for(&sweep(&[2, 4]));
    assert_eq!(a, b, "rerun with identical seeds must be byte-identical");
}

/// Arming the full telemetry stack (event tracing + per-op protocol
/// capture) must not perturb a single digit of the figure CSV: same
/// seeds, same cells, byte-identical artifact.
#[test]
fn figure_csv_is_byte_identical_with_telemetry_armed() {
    let queue = QueueConfig::new(1024, 48);
    let params = UtsParams::geo_small(7);
    let instrumented: Vec<(usize, Cell, Cell)> = [2usize, 4]
        .iter()
        .map(|&pes| {
            let sdc = run_series_instrumented(QueueKind::Sdc, pes, queue, 2, |_r| {
                UtsWorkload::new(params)
            });
            let sws = run_series_instrumented(QueueKind::Sws, pes, queue, 2, |_r| {
                UtsWorkload::new(params)
            });
            // The armed runs must actually be capturing.
            assert!(!sdc[0].proto_trace().is_empty());
            assert!(!sws[0].proto_trace().is_empty());
            (pes, summarize(&sdc), summarize(&sws))
        })
        .collect();
    let disarmed = csv_for(&sweep(&[2, 4]));
    assert_eq!(
        csv_for(&instrumented),
        disarmed,
        "telemetry must be pure observation"
    );
}
