#!/usr/bin/env python3
"""Gating perf-drift check against a committed bench baseline.

Usage:
    python3 ci/check_drift.py BENCH_10.json fresh1.json [fresh2.json ...]

The baseline is a committed ``BENCH_N.json`` (schema
``slimgraph-bench-baseline-v1``) whose ``gate`` block carries the
tolerance policy; the fresh inputs are BenchRecord JSON arrays as
emitted by the bench binaries with ``--json``. Records are matched by
``(workload, label)``.

Policy (documented in docs/OBSERVABILITY.md):

* Deterministic ``ratio`` values (compression/storage ratios — pure
  functions of graph, spec, seed) get a tight symmetric relative band
  (``ratio_rel_tol``): any movement is a real behavior change.
* Labels matching ``timing_ratio_label_prefixes`` (encoded-vs-raw
  kernel overhead) have timing-derived ratios: they get a wide
  multiplicative band (``ratio_timing_factor``) and are
  regression-only (a *lower* overhead never fails).
* Timing metrics get a regression-only multiplicative band plus an
  absolute slack (fail only when
  ``fresh > base * timing_factor + timing_slack_ms``) so sub-ms
  baselines are not gated on scheduler noise. Metrics named
  ``*throughput_rps`` are higher-is-better and invert the test.
* Metrics starting with a ``skip_metric_prefixes`` entry (cumulative
  ``le_*`` bucket counts) are never gated.
* A baseline record or metric missing from the fresh run FAILS (a
  silently vanished workload is drift too); fresh-only records are
  informational.

Per-workload overrides live under ``gate.workloads.<workload>`` and
shadow the top-level defaults.

Exit status: 0 within tolerance, 1 on any failure.
"""

import json
import sys


def band(gate, workload, key, default):
    """The tolerance value for one workload: override, default, builtin."""
    override = gate.get("workloads", {}).get(workload, {})
    return override.get(key, gate.get(key, default))


def check(baseline_path, fresh_paths):
    base = json.load(open(baseline_path))
    gate = base.get("gate", {})
    baseline = {
        (r["workload"], r["label"]): r for suite in base["suites"].values() for r in suite
    }
    fresh = {}
    for path in fresh_paths:
        for r in json.load(open(path)):
            fresh[(r["workload"], r["label"])] = r

    timing_ratio_prefixes = tuple(gate.get("timing_ratio_label_prefixes", []))
    skip_prefixes = tuple(gate.get("skip_metric_prefixes", []))
    failures, lines = [], []

    def fail(name, message):
        failures.append(f"{name}: {message}")
        lines.append(f"  FAIL {name}: {message}")

    for key in sorted(baseline):
        name = "/".join(key)
        b, f = baseline[key], fresh.get(key)
        if f is None:
            fail(name, "present in baseline but missing from the fresh run")
            continue
        workload, label = key

        br, fr = b.get("ratio"), f.get("ratio")
        if isinstance(br, (int, float)) and isinstance(fr, (int, float)) and br:
            if label.startswith(timing_ratio_prefixes):
                factor = band(gate, workload, "ratio_timing_factor", 3.0)
                if fr > br * factor:
                    fail(name, f"timing ratio {br:.4f} -> {fr:.4f} (> {factor}x band)")
                else:
                    lines.append(f"  ok   {name}: timing ratio {br:.4f} -> {fr:.4f}")
            else:
                tol = band(gate, workload, "ratio_rel_tol", 0.02)
                drift = abs(fr - br) / abs(br)
                if drift > tol:
                    fail(
                        name,
                        f"deterministic ratio {br:.6f} -> {fr:.6f} "
                        f"({100 * drift:.2f}% > {100 * tol:.1f}% band)",
                    )
                else:
                    lines.append(
                        f"  ok   {name}: ratio {br:.6f} -> {fr:.6f} ({100 * drift:.2f}%)"
                    )

        factor = band(gate, workload, "timing_factor", 4.0)
        slack = band(gate, workload, "timing_slack_ms", 25.0)
        fresh_timings = f.get("timings_ms", {})
        for metric, bv in b.get("timings_ms", {}).items():
            if metric.startswith(skip_prefixes):
                continue
            fv = fresh_timings.get(metric)
            if fv is None:
                fail(name, f"metric {metric} vanished from the fresh run")
                continue
            if metric.endswith("throughput_rps"):
                bound = bv / factor
                if fv < bound:
                    fail(
                        name,
                        f"{metric} {bv:.1f} -> {fv:.1f} rps "
                        f"(below the 1/{factor}x regression bound {bound:.1f})",
                    )
                else:
                    lines.append(f"  ok   {name}: {metric} {bv:.1f} -> {fv:.1f} rps")
            else:
                bound = bv * factor + slack
                if fv > bound:
                    fail(
                        name,
                        f"{metric} {bv:.3f} -> {fv:.3f} ms "
                        f"(over the {factor}x + {slack} ms regression bound {bound:.3f})",
                    )
                else:
                    lines.append(f"  ok   {name}: {metric} {bv:.3f} -> {fv:.3f} ms")

    for key in sorted(set(fresh) - set(baseline)):
        lines.append(f"  info {'/'.join(key)}: new in fresh run (not gated)")

    print(f"drift gate: {baseline_path} vs {len(fresh)} fresh records")
    for line in lines:
        print(line)
    if failures:
        print(f"\ndrift gate FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  - {failure}")
        print("if the shift is intended, refresh the committed baseline in this PR")
        return 1
    print(f"\ndrift gate passed: {len(baseline)} baseline records within tolerance")
    return 0


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    return check(argv[1], argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
