#!/usr/bin/env python3
"""Compare a fresh google-benchmark run against a committed baseline.

Usage:
    check_bench_regression.py --baseline BENCH_WALL.json \
        --current bench_smoke.json [--tolerance 0.20]
    check_bench_regression.py --baseline BENCH_PR9.json \
        --current bench_repkv_gate.json --exact COUNTER,...

Both files are google-benchmark --benchmark_format=json output. Rows only
present on one side are ignored (CI smoke runs use --benchmark_filter, and
the committed baseline may carry extra rows). When both files declare a
`build_type` in their context (every bench binary stamps its own), the two
must agree: a Debug run says nothing about a Release baseline, in either
clock. A file that declares none (the older baselines) is compared as
before. The checker has two modes.

Wall time (default). For every row present in BOTH files that reports
items_per_second, the current run must be no more than `tolerance` (default
20%) below the baseline. CI machines are noisy and slower than the machine
the baseline was recorded on, so absolute throughput comparisons across
machines are meaningless. The check self-normalises instead: the median
current/baseline ratio across the common rows estimates this machine's pace
relative to the baseline machine, and every row must land within
`tolerance` of that pace. A uniformly slower machine passes; a single
benchmark that collapsed relative to its peers (an accidental O(n^2) in the
hot loop, a debug build sneaking into CI) fails.

Sim time (--exact). Sim-clock counters are deterministic, so each named
counter a baseline row reports must equal the baseline exactly on every
repetition of that row in the current run; a perturbed latency constant
fails here even though it costs no wall time. The gate fails if no common
row reports any named counter.
"""

import argparse
import itertools
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def build_type_mismatch(baseline, current):
    """Why the two files cannot be compared, or None when they can."""
    base = baseline.get("context", {}).get("build_type")
    cur = current.get("context", {}).get("build_type")
    if base is None or cur is None or base == cur:
        return None
    return f"baseline build_type {base!r} differs from current build_type {cur!r}"


def load_runs(data):
    """Maps each benchmark name to its non-aggregate rows (one per repetition)."""
    runs = {}
    for b in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) from --benchmark_repetitions.
        if b.get("run_type") == "aggregate":
            continue
        runs.setdefault(b["name"], []).append(b)
    return runs


def best_items_per_second(runs):
    out = {}
    for name, reps in runs.items():
        # With --benchmark_repetitions the same name appears N times; keep
        # the best repetition. Noise on shared CI machines is one-sided (a
        # run can only be slowed down, never sped up past the code's real
        # ceiling), so best-of-N estimates that ceiling.
        ips = [float(r["items_per_second"]) for r in reps if r.get("items_per_second", 0) > 0]
        if ips:
            out[name] = max(ips)
    return out


def check_exact(baseline, current, counters):
    """Returns (rows compared, mismatch descriptions) for the --exact gate."""
    compared = 0
    mismatches = []
    for name in sorted(set(baseline) & set(current)):
        named = [c for c in counters if any(c in b for b in baseline[name])]
        if not named:
            continue
        compared += 1
        for base, cur, counter in itertools.product(baseline[name], current[name], named):
            if cur.get(counter) != base.get(counter):
                mismatches.append(f"{name}: {counter} baseline {base.get(counter)!r} "
                                  f"current {cur.get(counter)!r}")
    return compared, mismatches


def check_wall(baseline, current, common, tolerance):
    """Prints the wall-time table; returns the names that regressed."""
    # Self-normalise: the median current/baseline ratio estimates this
    # machine's speed relative to the baseline machine (median, not max, so
    # one lucky benchmark cannot tighten the floor for all the others).
    # Every benchmark must then be within `tolerance` of that pace — a
    # uniform slowdown passes, a benchmark that regressed relative to its
    # peers fails.
    ratios = {name: current[name] / baseline[name] for name in common}
    ordered = sorted(ratios.values())
    pace = ordered[len(ordered) // 2]
    floor = pace * (1.0 - tolerance)

    failed = []
    print(f"{'benchmark':50s} {'baseline':>12s} {'current':>12s} {'ratio':>7s}")
    for name in common:
        mark = ""
        if ratios[name] < floor:
            failed.append(name)
            mark = "  <-- REGRESSION"
        print(f"{name:50s} {baseline[name]:12.3e} {current[name]:12.3e} "
              f"{ratios[name]:7.3f}{mark}")
    print(f"machine pace (median ratio): {pace:.3f}; "
          f"floor at tolerance {tolerance:.0%}: {floor:.3f}")
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop after normalisation")
    parser.add_argument("--exact", default="",
                        help="comma-separated sim-clock counters that must equal the baseline")
    args = parser.parse_args(argv)

    baseline_data = load(args.baseline)
    current_data = load(args.current)
    mismatch = build_type_mismatch(baseline_data, current_data)
    if mismatch:
        print(f"check_bench_regression: refusing to compare {args.baseline} with "
              f"{args.current}: {mismatch}", file=sys.stderr)
        return 1
    baseline_runs = load_runs(baseline_data)
    current_runs = load_runs(current_data)

    counters = [c for c in args.exact.split(",") if c]
    if counters:
        compared, mismatches = check_exact(baseline_runs, current_runs, counters)
        if compared == 0:
            print(f"check_bench_regression: no common row between {args.baseline} and "
                  f"{args.current} reports any of {', '.join(counters)}", file=sys.stderr)
            return 1
        for line in mismatches:
            print(f"{line}  <-- CHANGED")
        if mismatches:
            print(f"check_bench_regression: {len(mismatches)} sim counter value(s) differ "
                  "from the baseline", file=sys.stderr)
            return 1
        print(f"check_bench_regression: exact OK ({compared} rows compared on "
              f"{', '.join(counters)})")
        return 0

    baseline = best_items_per_second(baseline_runs)
    current = best_items_per_second(current_runs)
    common = sorted(set(baseline) & set(current))
    if not common:
        print("check_bench_regression: no common benchmarks between "
              f"{args.baseline} and {args.current}", file=sys.stderr)
        return 1
    failed = check_wall(baseline, current, common, args.tolerance)
    if failed:
        print(f"check_bench_regression: {len(failed)} benchmark(s) regressed "
              f">{args.tolerance:.0%} vs peers: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print(f"check_bench_regression: OK ({len(common)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
