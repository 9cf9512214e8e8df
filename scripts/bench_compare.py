#!/usr/bin/env python3
"""Compare two scripts/bench.sh snapshots and fail on regressions.

    scripts/bench_compare.py BASELINE.json CANDIDATE.json [options]

Both inputs are BENCH_<date>.json files as written by scripts/bench.sh:
google-benchmark reports for micro_executor/micro_compiler plus fig06's
end-to-end summary. The microbenchmarks run a hardcoded 0.25-scale world, so
their per-benchmark times are comparable across snapshots regardless of the
fig06 scale; fig06 wall times and throughput are compared only when both
snapshots used the same scale.

A benchmark regresses when its candidate time exceeds the baseline by more
than the threshold (default 15%, tunable per benchmark with
--override REGEX=PCT; the first matching override wins). fig06's async-
pipeline speedups (speedup_<t>_thread) and mean batch occupancy
(pipeline_<t>_thread.batch_occupancy_mean) are higher-is-better: they
regress when the candidate falls SHORT of the baseline by more than
--gain-threshold (default 10%). fig_generate's aggregate throughput at the
64-stream operating point (streams_64_threads_<t>.tokens_per_sec, the
serial_streams_64 baseline, and the achieved tick occupancy) is gated the
same way. Exit status: 0 when nothing regressed, 1 on any regression, 2 on
malformed input.

Typical use — local check against a baseline snapshot of the base commit:

    scripts/bench.sh 1.0
    scripts/bench_compare.py BENCH_<base>.json BENCH_$(date +%Y%m%d).json

CI's bench-gate regenerates the baseline from the PR base commit on the same
runner before comparing, so both snapshots see identical hardware.
"""

import argparse
import json
import re
import sys


def die_malformed(message):
    """Malformed input exits 2, distinct from exit 1 (= real regression)."""
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def load_snapshot(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die_malformed(f"cannot read {path}: {e}")


def gb_times(snapshot, suite):
    """Name -> real_time (ns) for a google-benchmark report in a snapshot.

    Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
    collapsed to the median when present; otherwise the single run is used.
    """
    out = {}
    report = snapshot.get(suite)
    if not isinstance(report, dict):
        return out
    for entry in report.get("benchmarks", []):
        name = entry.get("run_name", entry.get("name"))
        if name is None or "real_time" not in entry:
            continue
        agg = entry.get("aggregate_name")
        if agg not in (None, "median"):
            continue
        # A median row overrides the raw runs it aggregates.
        if agg == "median" or name not in out:
            out[name] = float(entry["real_time"])
    return out


def fig06_times(snapshot):
    """Name -> wall seconds for fig06's end-to-end runs."""
    out = {}
    fig06 = snapshot.get("fig06_throughput")
    if not isinstance(fig06, dict):
        return out
    for key, value in fig06.items():
        if isinstance(value, dict) and "wall_seconds" in value:
            out[f"fig06.{key}.wall_seconds"] = float(value["wall_seconds"])
    return out


def fig06_higher_better(snapshot):
    """Name -> value for fig06 metrics where LARGER is better.

    Covers the async-pipeline speedups (``speedup_<t>_thread``, the ratio of
    the strict serial wall time to the pipeline run at t threads) and the
    achieved batch occupancy (``pipeline_<t>_thread.batch_occupancy_mean``,
    mean model evaluations per pipeline round). A candidate value falling
    short of the baseline by more than the threshold is a regression.
    """
    out = {}
    fig06 = snapshot.get("fig06_throughput")
    if not isinstance(fig06, dict):
        return out
    for key, value in fig06.items():
        if re.fullmatch(r"speedup_\d+_thread", key) and \
                isinstance(value, (int, float)):
            out[f"fig06.{key}"] = float(value)
        if isinstance(value, dict) and "batch_occupancy_mean" in value:
            out[f"fig06.{key}.batch_occupancy_mean"] = \
                float(value["batch_occupancy_mean"])
    return out


def fig_generate_higher_better(snapshot):
    """Name -> value for fig_generate metrics where LARGER is better.

    The generate engine's acceptance metric is aggregate tokens/sec at the
    64-stream operating point: every ``streams_64_threads_<t>`` section is
    gated on its ``tokens_per_sec`` and achieved ``tick_occupancy_mean``,
    and the ``serial_streams_64`` stream-at-a-time baseline on its own
    throughput — so a regression in either the engine or the underlying
    sampling path trips the gate. Smaller stream counts are reported in the
    snapshot but not gated (their sub-millisecond walls are noise-dominated).
    """
    out = {}
    fig = snapshot.get("fig_generate")
    if not isinstance(fig, dict):
        return out
    for key, value in fig.items():
        if not isinstance(value, dict):
            continue
        if re.fullmatch(r"streams_64_threads_\d+", key):
            if "tokens_per_sec" in value:
                out[f"fig_generate.{key}.tokens_per_sec"] = \
                    float(value["tokens_per_sec"])
            if "tick_occupancy_mean" in value:
                out[f"fig_generate.{key}.tick_occupancy_mean"] = \
                    float(value["tick_occupancy_mean"])
        elif key == "serial_streams_64" and "tokens_per_sec" in value:
            out[f"fig_generate.{key}.tokens_per_sec"] = \
                float(value["tokens_per_sec"])
    return out


def parse_overrides(specs):
    overrides = []
    for spec in specs:
        name, sep, pct = spec.partition("=")
        if not sep:
            die_malformed(f"--override expects REGEX=PCT, got {spec!r}")
        try:
            overrides.append((re.compile(name), float(pct)))
        except (re.error, ValueError) as e:
            die_malformed(f"bad override {spec!r}: {e}")
    return overrides


def threshold_for(name, default, overrides):
    for pattern, pct in overrides:
        if pattern.search(name):
            return pct
    return default


def main():
    parser = argparse.ArgumentParser(
        description="diff two bench.sh snapshots, exit 1 on regression")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=15.0,
                        help="regression threshold in percent (default 15)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="REGEX=PCT",
                        help="per-benchmark threshold, e.g. "
                             "'BM_ShortestPath=3' (repeatable, first match "
                             "wins)")
    parser.add_argument("--min-seconds", type=float, default=0.0,
                        help="skip fig06 comparisons whose baseline wall time "
                             "is below this (noise floor, default 0)")
    parser.add_argument("--gain-threshold", type=float, default=10.0,
                        help="allowed shortfall in percent for "
                             "higher-is-better fig06 metrics (pipeline "
                             "speedups, batch occupancy; default 10)")
    args = parser.parse_args()

    base = load_snapshot(args.baseline)
    cand = load_snapshot(args.candidate)
    overrides = parse_overrides(args.override)

    # (name, base_value, cand_value, unit, higher_better). Lower-is-better
    # entries (times) regress when the candidate exceeds the baseline;
    # higher-is-better entries (speedups, occupancy) regress when the
    # candidate falls short of it.
    comparisons = []
    for suite in ("micro_executor", "micro_compiler"):
        base_times = gb_times(base, suite)
        cand_times = gb_times(cand, suite)
        for name in sorted(base_times):
            if name in cand_times:
                comparisons.append((name, base_times[name], cand_times[name],
                                    "ns", False))
            else:
                print(f"note: {name} present in baseline only (removed?)")
        for name in sorted(set(cand_times) - set(base_times)):
            print(f"note: {name} is new (no baseline)")

    if base.get("scale") == cand.get("scale"):
        base_fig = fig06_times(base)
        cand_fig = fig06_times(cand)
        for name in sorted(base_fig):
            if name not in cand_fig:
                continue
            if base_fig[name] < args.min_seconds:
                print(f"note: skipping {name}: baseline "
                      f"{base_fig[name]:.3f}s below noise floor")
                continue
            comparisons.append((name, base_fig[name], cand_fig[name], "s",
                                False))
        base_hib = fig06_higher_better(base)
        cand_hib = fig06_higher_better(cand)
        for name in sorted(base_hib):
            if name in cand_hib:
                comparisons.append((name, base_hib[name], cand_hib[name], "",
                                    True))
            else:
                print(f"note: {name} present in baseline only (removed?)")
        for name in sorted(set(cand_hib) - set(base_hib)):
            print(f"note: {name} is new (no baseline)")
        base_gen = fig_generate_higher_better(base)
        cand_gen = fig_generate_higher_better(cand)
        for name in sorted(base_gen):
            if name in cand_gen:
                comparisons.append((name, base_gen[name], cand_gen[name], "",
                                    True))
            else:
                print(f"note: {name} present in baseline only (removed?)")
        for name in sorted(set(cand_gen) - set(base_gen)):
            print(f"note: {name} is new (no baseline)")
    else:
        print(f"note: scales differ (baseline {base.get('scale')} vs "
              f"candidate {cand.get('scale')}); skipping fig06/fig_generate "
              f"comparison")

    if not comparisons:
        die_malformed("no comparable benchmarks found (malformed snapshots?)")

    regressions = []
    width = max(len(name) for name, *_ in comparisons)
    print(f"{'benchmark':<{width}} {'baseline':>12} {'candidate':>12} "
          f"{'delta':>8} {'limit':>7}")
    for name, base_v, cand_v, unit, higher_better in comparisons:
        if higher_better:
            limit = args.gain_threshold
        else:
            limit = threshold_for(name, args.threshold, overrides)
        delta = ((cand_v - base_v) / base_v * 100.0) if base_v > 0 else 0.0
        # delta is always "candidate relative to baseline"; the regressing
        # direction depends on the metric.
        regressed = (-delta if higher_better else delta) > limit
        flag = ""
        if regressed:
            regressions.append((name, delta, limit))
            flag = "  << REGRESSION"
        print(f"{name:<{width}} {base_v:>10.1f}{unit:>2} {cand_v:>10.1f}"
              f"{unit:>2} {delta:>+7.1f}% {limit:>6.1f}%{flag}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond threshold:")
        for name, delta, limit in regressions:
            print(f"  {name}: {delta:+.1f}% (limit {limit:.1f}%)")
        return 1
    print(f"\nok: {len(comparisons)} benchmarks within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
