#!/usr/bin/env python3
"""Compare two google-benchmark JSON files (e.g. BENCH_e2e.json artifacts
from two commits) and print the per-benchmark throughput delta -- or gate
series ratios within a single file.

Diff mode:
    tools/bench_diff.py OLD.json NEW.json [--threshold PCT]

Matches benchmarks by name. For each pair the primary metric is
items_per_second (simulated instructions/sec for bench_e2e); benchmarks
without it fall back to real_time (lower is better). Exits 1 when any
matched benchmark regressed by more than --threshold percent (default 10),
so CI can gate on it.

A missing or unreadable baseline is not a regression: the first run of a
new benchmark job has nothing to compare against, so it prints a notice
and exits 0. Pass --require-baseline to turn that case into a hard
failure (exit 2) once a baseline is expected to exist.

Gate mode:
    tools/bench_diff.py BENCH.json --gate replay/simd=1.2

Each --gate NUM/DEN=MIN pairs the E2E/<NUM>/<policy> and E2E/<DEN>/<policy>
benchmarks of one file by policy, computes the per-policy
items_per_second ratio, and fails (exit 1) when the geomean across
policies falls below MIN. The geomean -- not the per-policy minimum -- is
gated because single-policy ratios on shared CI runners are noisy; the
floors are held down by bench/bench_e2e.cpp's series semantics and the
measured ratios recorded in docs/performance.md.
"""

import argparse
import json
import math
import os
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = b
    return out


def metric(bench):
    """(value, higher_is_better) for one benchmark entry."""
    if "items_per_second" in bench:
        return bench["items_per_second"], True
    return bench["real_time"], False


def fmt_rate(value):
    for unit, scale in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if value >= scale:
            return f"{value / scale:.2f}{unit}/s"
    return f"{value:.1f}/s"


def parse_gate(spec):
    """'replay/simd=1.2' -> ('replay', 'simd', 1.2)."""
    pair, eq, floor = spec.partition("=")
    num, slash, den = pair.partition("/")
    if not (eq and slash and num and den):
        raise argparse.ArgumentTypeError(
            f"gate must look like NUM/DEN=MIN, got {spec!r}")
    try:
        return num, den, float(floor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"gate floor must be a number, got {floor!r}")


def run_gates(path, gates):
    """Gate mode: per-policy series ratios within one benchmark file."""
    try:
        benches = load(path)
    except (OSError, json.JSONDecodeError) as e:
        # Gate mode always reads this run's own output; absence means the
        # bench run itself broke.
        print(f"cannot read {path}: {e}", file=sys.stderr)
        return 2

    # E2E/<series>/<policy> -> series[policy] = items_per_second.
    series = {}
    for name, b in benches.items():
        parts = name.split("/")
        if len(parts) == 3 and parts[0] == "E2E" and "items_per_second" in b:
            series.setdefault(parts[1], {})[parts[2]] = b["items_per_second"]

    failures = []
    for num, den, floor in gates:
        for side in (num, den):
            if side not in series:
                print(f"gate {num}/{den}: no E2E/{side}/* benchmarks in "
                      f"{path} (have: {', '.join(sorted(series)) or 'none'})",
                      file=sys.stderr)
                return 2
        policies = sorted(set(series[num]) & set(series[den]))
        if not policies:
            print(f"gate {num}/{den}: the two series share no policies",
                  file=sys.stderr)
            return 2
        ratios = []
        print(f"gate {num}/{den} (floor {floor:g}):")
        for p in policies:
            r = series[num][p] / series[den][p]
            ratios.append(r)
            print(f"  {p:<16} {fmt_rate(series[num][p]):>12} /"
                  f" {fmt_rate(series[den][p]):>12} = {r:.3f}x")
        g = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        ok = g >= floor
        print(f"  geomean {g:.3f}x -> {'OK' if ok else 'FAIL'}")
        if not ok:
            failures.append((num, den, g, floor))

    if failures:
        print(f"\nFAIL: {len(failures)} gate(s) below floor:",
              file=sys.stderr)
        for num, den, g, floor in failures:
            print(f"  {num}/{den}: geomean {g:.3f}x < {floor:g}x",
                  file=sys.stderr)
        return 1
    print(f"\nOK: all {len(gates)} gate(s) at or above their floors")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("old", help="baseline benchmark JSON (gate mode: the "
                                "only file)")
    ap.add_argument("new", nargs="?", help="candidate benchmark JSON "
                                           "(diff mode only)")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="fail if any benchmark regresses more than this "
                         "percent (default 10)")
    ap.add_argument("--require-baseline", action="store_true",
                    help="treat a missing/unreadable baseline as a failure "
                         "(exit 2) instead of skipping the comparison")
    ap.add_argument("--gate", action="append", type=parse_gate, default=[],
                    metavar="NUM/DEN=MIN",
                    help="gate mode: fail unless the geomean of per-policy "
                         "E2E/NUM/<p> : E2E/DEN/<p> throughput ratios is at "
                         "least MIN (repeatable)")
    args = ap.parse_args()

    if args.gate:
        if args.new is not None:
            ap.error("gate mode takes exactly one benchmark JSON")
        return run_gates(args.old, args.gate)
    if args.new is None:
        ap.error("diff mode needs OLD.json and NEW.json")

    try:
        old = load(args.old)
    except (OSError, json.JSONDecodeError) as e:
        kind = "unreadable" if os.path.exists(args.old) else "missing"
        print(f"baseline {args.old} is {kind} ({e})", file=sys.stderr)
        if args.require_baseline:
            return 2
        print("no baseline to compare against; skipping (pass "
              "--require-baseline to fail instead)")
        return 0
    try:
        new = load(args.new)
    except (OSError, json.JSONDecodeError) as e:
        # The candidate is this run's own output: its absence means the
        # bench job itself broke, which must never be reported as OK.
        print(f"cannot read candidate {args.new}: {e}", file=sys.stderr)
        return 2
    names = [n for n in old if n in new]
    if not names:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 2

    width = max(len(n) for n in names)
    regressions = []
    print(f"{'benchmark':<{width}}  {'old':>12}  {'new':>12}  {'delta':>8}")
    for name in names:
        old_v, higher_better = metric(old[name])
        new_v, _ = metric(new[name])
        if old_v == 0:
            continue
        ratio = new_v / old_v if higher_better else old_v / new_v
        delta_pct = (ratio - 1.0) * 100.0
        if "items_per_second" in old[name]:
            cells = f"{fmt_rate(old_v):>12}  {fmt_rate(new_v):>12}"
        else:
            cells = f"{old_v:>10.1f}ns  {new_v:>10.1f}ns"
        print(f"{name:<{width}}  {cells}  {delta_pct:>+7.1f}%")
        if delta_pct < -args.threshold:
            regressions.append((name, delta_pct))

    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    if only_old:
        print(f"\nonly in {args.old}: {', '.join(only_old)}")
    if only_new:
        print(f"only in {args.new}: {', '.join(only_new)}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
