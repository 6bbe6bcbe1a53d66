#!/usr/bin/env python3
"""End-to-end benchmark of the Hyperion simulator: one workload, one seed.

Run from the repository root:

    python3 perfbench/run.py --workload netkv --seed 1 --seconds 20 --trace 0

The first run builds the benchmark program (perfbench/CMakeLists.txt, a
Release build of ../src) into .bench_build/perfbench. Then:

  1. one `check` process runs the workload in the timed layout (2 shards,
     threads on, tracing off) and replays it at 1 shard inline with tracing
     on; the harness results must be bit-identical and pass the workload's
     correctness gate;
  2. `timed` processes, one execution each, repeat until --seconds have
     passed (at least three); each is gated and its sim-clock metrics must
     equal the check's exactly;
  3. with --trace 1, one `traced` process reruns the timed layout with
     tracing on and times one node's construction, for the per-layer
     metrics.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}, where metrics holds every end_to_end metric of BENCHMARK.json
(--trace 0) or every per_layer metric (--trace 1). Earlier lines carry the
provenance and the per-run details. Exit status 0 on success, 1 when a
correctness check fails, 2 when the benchmark cannot run at all (no sources,
failed build, non-Release build).
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "hyperion_perfbench"

WORKLOADS = ("netkv", "repkv", "lsm_scan", "xdp_ingress")
MIN_TIMED_RUNS = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no Hyperion sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "hyperion_perfbench",
                      "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout carries only the report.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
                raise BenchError("building the benchmark failed: " + " ".join(step))
    return BINARY


def bench_cpus():
    """CPUs the measured processes may use: all but the lowest-numbered one
    when there are at least four, which keeps interrupt handling and this
    script off the simulator's threads and cuts slow outliers."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[1:] if len(cpus) >= 4 else cpus


def run_child(args, timeout=CHILD_TIMEOUT_S):
    """Runs the benchmark program once; returns (report, exit code, peak RSS MiB)."""
    cpus = bench_cpus()
    proc = subprocess.Popen([str(BINARY), *args], stdout=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        # wait4 reaps the child and hands back its own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    if proc.returncode not in (0, 1) or report is None:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode} without a report")
    return report, proc.returncode, usage.ru_maxrss / 1024.0


def source_digest():
    """sha256 over the benchmark and library sources, path-sorted."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance():
    report, code, _ = run_child(["provenance"])
    if code != 0 or report.get("build_type") != "Release":
        raise BenchError(f"refusing to report from a non-Release build: {report}")
    try:
        # The checkout may sit inside some other repository: only trust a
        # SHA whose work tree is this checkout.
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        sha = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else ""
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
        "build_type": report["build_type"],
        "compiler": report["compiler"],
        "asserts_compiled_out": report["asserts_compiled_out"],
        "nproc": os.cpu_count(),
    }


def sim_mismatches(reference, sim):
    """Keys whose sim-clock value differs from the reference run's.

    Critical-path shares exist only where tracing was on, so they are not
    compared across runs with different tracing.
    """
    return sorted(k for k, v in sim.items()
                  if k in reference and not k.startswith("cp.") and reference[k] != v)


def measure(workload, seed, seconds, trace):
    """Runs every process for one benchmark run; returns (correct, result dict)."""
    errors = []
    executions = []

    def gated(report, code, what):
        executions.append(report)
        if code != 0 or report["gate"]:
            errors.append(f"{what}: {report['gate'] or f'exit {code}'}")

    check, code, _ = run_child(["check", workload, str(seed)])
    gated(check, code, "check")

    timed, rss = [], []
    start = time.monotonic()
    while len(timed) < MIN_TIMED_RUNS or time.monotonic() - start < seconds:
        report, code, peak_mb = run_child(["timed", workload, str(seed)])
        gated(report, code, f"timed run {len(timed)}")
        diff = sim_mismatches(check["sim"], report["sim"])
        if diff:
            errors.append(f"timed run {len(timed)}: sim metrics differ from check: {diff}")
        timed.append(report)
        rss.append(peak_mb)

    def median_of(key):
        return statistics.median(r["wall"][key] for r in timed)

    # End to end in CPU seconds (see README.md: wall time on a shared VM
    # swings with the host's load); wall medians go to the per-layer set.
    run_cpu_s = median_of("run_cpu_s")
    metrics = {
        "setup_s": median_of("setup_cpu_s"),
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": statistics.median(rss),
    }
    if trace:
        traced, code, _ = run_child(["traced", workload, str(seed)])
        gated(traced, code, "traced")
        diff = sim_mismatches(check["sim"], traced["sim"])
        if diff:
            errors.append(f"traced run: sim metrics differ from check: {diff}")
        wall_run_s = median_of("run_s")
        metrics = {**check["sim"], **traced["sim"], **traced["wall"]}
        metrics["wall.setup_s"] = median_of("setup_s")
        metrics["wall.run_s"] = wall_run_s
        metrics["trace.run_cpu_s"] = traced["wall"]["run_cpu_s"]
        metrics["trace.overhead_pct"] = 100.0 * (traced["wall"]["run_cpu_s"] / run_cpu_s - 1.0)
        events = metrics.get("sim.events", 0)
        metrics["sim.wall_ns_per_event"] = wall_run_s * 1e9 / events if events else 0.0

    samples = check["sim"].get("lat.samples", 0)
    if samples < 1000:
        errors.append(f"only {samples} latency samples (need >= 1000)")
    details = {
        "workload": workload, "seed": seed, "timed_runs": len(timed),
        **{key: [r["wall"][key] for r in timed]
           for key in ("setup_cpu_s", "run_cpu_s", "setup_s", "run_s")},
        "peak_rss_mb": rss,
        "sim": {k: v for k, v in check["sim"].items() if not k.startswith(("cp.", "sim."))},
        "errors": errors,
    }
    print(json.dumps({"details": details}), flush=True)
    result = {
        "attempted": sum(r["attempted"] for r in executions),
        "failed": sum(r["failed"] for r in executions),
        "metrics": metrics,
    }
    return not errors, result


def select(metrics, specs):
    """The declared metrics, in declaration order. A layer the workload never
    enters reports 0; an end-to-end metric must be present."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in metrics and "bound" in spec:
            raise BenchError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": float(metrics.get(name, 0.0)), "unit": spec["unit"]}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        build()
        print(json.dumps({"provenance": provenance()}), flush=True)
        correct, result = measure(args.workload, args.seed, args.seconds, args.trace == 1)
        specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = select(result["metrics"], specs)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
