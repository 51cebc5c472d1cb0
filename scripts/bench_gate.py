#!/usr/bin/env python3
"""Diff a freshly produced bench summary against the checked-in baseline.

Usage: bench_gate.py <baseline.json> <current.json> [--tolerance 0.30]

The gate is deliberately generous (default ±30 %): it exists to catch
wholesale hot-path regressions (a 2x slowdown, a tree-size explosion), not
to chase machine noise. Gated cases cover the legacy Vec-fed threaded
paths (batched/unbatched, consumption-heavy) and the generator-fed
streaming engine session (`streaming_k2`), so both the one-shot wrappers
and the incremental `SpectreEngine` surface are under the same trend
tracking. Throughput may drop by at most `tolerance`;
peak tree size may grow by at most `tolerance` (plus a small absolute
slack for tiny trees); cumulative predictor-refresh time may grow by at
most `--refresh-tolerance` (default ±50 %, plus a millisecond of absolute
slack — the sparse refresh is cheap enough that timer noise dominates
small values). Cases present on only one side are reported but do not
fail the gate, so adding a bench case does not require regenerating the
baseline in the same commit; the same applies per-field, so adding a
summary field does not either.

Regenerate the baseline (same env as CI) with:

    SPECTRE_BENCH_EVENTS=5000 \
    SPECTRE_BENCH_SUMMARY=crates/bench/baseline/threaded_e2e.json \
        cargo bench -p spectre-bench --bench end_to_end
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("--refresh-tolerance", type=float, default=0.50)
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    if baseline.get("events") != current.get("events"):
        print(
            f"note: stream lengths differ (baseline {baseline.get('events')}, "
            f"current {current.get('events')}); throughput is still comparable, "
            "tree sizes may not be"
        )

    failures = []
    base_cases = baseline.get("cases", {})
    cur_cases = current.get("cases", {})
    for name in sorted(set(base_cases) | set(cur_cases)):
        if name not in cur_cases:
            print(f"  {name:<28} only in baseline (skipped)")
            continue
        if name not in base_cases:
            print(f"  {name:<28} new case (no baseline yet)")
            continue
        base, cur = base_cases[name], cur_cases[name]

        b_eps, c_eps = base.get("events_per_sec"), cur.get("events_per_sec")
        if b_eps and c_eps:
            floor = b_eps * (1.0 - args.tolerance)
            verdict = "ok" if c_eps >= floor else "REGRESSED"
            print(
                f"  {name:<28} {c_eps:>12.0f} ev/s  (baseline {b_eps:.0f}, "
                f"floor {floor:.0f}) {verdict}"
            )
            if c_eps < floor:
                failures.append(f"{name}: throughput {c_eps:.0f} < floor {floor:.0f}")

        b_tree, c_tree = base.get("peak_tree"), cur.get("peak_tree")
        if b_tree is not None and c_tree is not None:
            ceiling = b_tree * (1.0 + args.tolerance) + 16
            verdict = "ok" if c_tree <= ceiling else "REGRESSED"
            print(
                f"  {name:<28} peak tree {c_tree} (baseline {b_tree}, "
                f"ceiling {ceiling:.0f}) {verdict}"
            )
            if c_tree > ceiling:
                failures.append(f"{name}: peak tree {c_tree} > ceiling {ceiling:.0f}")

        b_rt, c_rt = base.get("predictor_refresh_ms"), cur.get("predictor_refresh_ms")
        if b_rt is not None and c_rt is not None:
            ceiling = b_rt * (1.0 + args.refresh_tolerance) + 1.0
            verdict = "ok" if c_rt <= ceiling else "REGRESSED"
            print(
                f"  {name:<28} refresh {c_rt:.3f} ms (baseline {b_rt:.3f}, "
                f"ceiling {ceiling:.3f}) {verdict}"
            )
            if c_rt > ceiling:
                failures.append(
                    f"{name}: predictor refresh {c_rt:.3f} ms > ceiling {ceiling:.3f}"
                )

    if failures:
        print("\nbench gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
