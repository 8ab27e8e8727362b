#!/usr/bin/env python3
"""Build and run the layered benchmark of the SWS/SDC stack.

One workload, as automated runs call it:

    python3 perfbench/run.py --workload vt-uts-wide --seed 1 --seconds 15 --trace 0

builds `perfbench` (a cargo package of its own) from the checkout's
sources, runs it, and relays its output. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Every workload (the human summary):

    python3 perfbench/run.py [--seed N] [--seconds S]

runs each workload untraced and traced and prints every end-to-end metric
by name and unit, the service and virtual-time figures, the per-layer
metrics, and the tracing overhead. See perfbench/NOTES.md.

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR,
default .bench_build; span files go under it too.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end within 180 s; the build before the first one may not.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace, expected):
    """Run one workload; return its result object (stdout relayed)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", os.path.join(
            target_dir(), "perfbench-spans", f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if set(result["metrics"]) != expected:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(expected - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - expected)}")
    return lines, result


def summary(binary, contract, seed, seconds):
    e2e = {m["name"] for m in contract["end_to_end"]}
    layer = {m["name"] for m in contract["per_layer"]}
    names = [w["name"] for w in contract["workloads"]]
    timed, traced = {}, {}
    for w in names:
        print(f"== {w}: timed run ({seconds} s), then traced run", flush=True)
        lines, timed[w] = run_one(binary, w, seed, seconds, 0, e2e)
        print("\n".join(line for line in lines[:-1] if line.startswith("#")))
        _, traced[w] = run_one(binary, w, seed, seconds, 1, layer)

    def val(res, name):
        m = res["metrics"].get(name)
        return "-" if m is None else f"{m['value']:.6g}"

    def row(label, unit, cells):
        print(f"{label:<44} {unit:<6} " + " ".join(f"{c:>16}" for c in cells))

    print(f"\nEnd-to-end metrics, seed {seed} ('-': not defined on that workload)")
    row("metric", "unit", names)
    for m in contract["end_to_end"]:
        row(m["name"], m["unit"], [val(timed[w], m["name"]) for w in names])
    for s in ("sws", "sdc"):
        row(f"wall_s.{s} (traced run's uncaptured call)", "s",
            [val(traced[w], f"sched.run_wall_s.{s}") for w in names])
    vt = {w for w in names if w.startswith("vt-")}
    for s in ("sws", "sdc"):
        row(f"vt_makespan_ms.{s}", "ms",
            [val(timed[w], f"makespan_ms.{s}") if w in vt else "-" for w in names])
    for issue_name, layer_name, unit in (("serve_p50_us", "serve.p50_us", "us"),
                                         ("serve_p99_us", "serve.p99_us", "us"),
                                         ("serve_samples", "serve.samples", "count"),
                                         ("serve_max_load", "serve.max_load", "load")):
        for s in ("sws", "sdc"):
            row(f"{issue_name}.{s}", unit,
                [val(traced[w], f"{layer_name}.{s}") if "serve" in w else "-"
                 for w in names])
    row("failed_frac", "frac",
        [f"{r['failed'] / r['attempted']:.6g}" for r in (timed[w] for w in names)])
    row("correct (timed, traced)", "",
        [f"{timed[w]['correct']},{traced[w]['correct']}" for w in names])

    print("\nPer-layer metrics (traced run)")
    row("metric", "unit", names)
    for m in contract["per_layer"]:
        row(m["name"], m["unit"], [val(traced[w], m["name"]) for w in names])
    ok = all(r["correct"] and r["failed"] == 0
             for r in list(timed.values()) + list(traced.values()))
    return 0 if ok else 1


def main():
    os.chdir(ROOT)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    contract = load_contract()
    seconds = args.seconds or contract["run_seconds"]
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload} (expected one of {names})")
    binary = build()
    if args.workload is None:
        sys.exit(summary(binary, contract, args.seed, seconds))
    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in contract[key]}
    lines, _ = run_one(binary, args.workload, args.seed, seconds, args.trace, expected)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
