#!/usr/bin/env python
"""Fig 8 ops/sec microbenchmark and perf regression gate.

Measures simulator throughput — trace ops processed per host second of
*engine loop* time (``SimResult.wall_seconds``; generation and analysis
excluded) — on the fig8 microbench: CoMD and mst under all seven
protocols at ``--scale 1/16``, ``--ops-scale 0.25``.  Reports the best
of ``--repeats`` passes (any interference only ever slows a pass down,
so the max is the least-noisy estimate of machine capability).

As a CI gate (the default), exits 1 when measured ops/sec falls more
than ``--tolerance`` (default 30%) below the committed baseline in
``BENCH_perf.json``.  With ``--update``, refreshes that file's
``latest`` section in place (baselines are never touched).

    PYTHONPATH=src python tools/check_perf.py
    PYTHONPATH=src python tools/check_perf.py --update --repeats 5

The vectorized engine is also gated on *scaling*: its time per op on
the same cells at ops-scale 1.0 (``SCALING_OPS_SCALE``) may be at most
``SCALING_LIMIT`` times its time per op at 0.25, so a state pass whose
cost grows with the trace rather than with the epoch fails here.
Every pass generates its traces afresh, so memoized per-trace work is
paid inside each pass, and runs each cell at both ops-scales back to
back, so host speed drifting during a pass cancels out (see
:func:`measure_scaling`).

``--telemetry-overhead`` additionally measures the same microbench
with a no-op :class:`repro.telemetry.TelemetrySession` attached — the
telemetry-off contract says the instrumented engines must stay within
``--tolerance`` of the uninstrumented path, and this before/after
comparison enforces it directly (the main gate covers the default
telemetry-free path against the committed baseline).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.config import SystemConfig
from repro.engine.simulator import simulate
from repro.experiments.runner import ExperimentContext
from repro.telemetry.session import TelemetrySession

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: The microbench definition.  Matches the methodology used to record
#: the baselines in BENCH_perf.json — change one, change both.
WORKLOADS = ("CoMD", "mst")
PROTOCOLS = ("noremote", "sw", "hsw", "nhcc", "gpuvi", "hmg", "ideal")
SCALE = 1 / 16
OPS_SCALE = 0.25
SEED = 1

#: Vectorized scaling gate: time per op at this ops-scale over time per
#: op at OPS_SCALE, the median of SCALING_PASSES passes, must stay within
#: SCALING_LIMIT.
SCALING_OPS_SCALE = 1.0
SCALING_LIMIT = 1.3
SCALING_PASSES = 3


def measure_once(engine: str = "scalar",
                 null_telemetry: bool = False) -> float:
    """One full microbench pass; returns engine ops/sec.

    ``engine`` selects the scalar per-op loop (``"scalar"``, the
    historical microbench) or the batch path (``"vectorized"``, via
    ``simulate(engine="vectorized")``).  Both report
    ``SimResult.wall_seconds`` — engine accounting time only; trace
    decode and column preparation are one-time costs outside it.

    ``null_telemetry`` attaches an empty
    :class:`~repro.telemetry.TelemetrySession` (no tracer, no sampler)
    to every run — the cheapest possible telemetry configuration — so
    the overhead of the instrumented engine loop itself can be compared
    against the default uninstrumented path.  (Scalar only: the
    vectorized path falls back to the scalar engine whenever telemetry
    is attached.)
    """
    # A fresh context per pass: its traces are generated (and their
    # per-trace memos filled) outside the measurement, and every cell
    # simulates afresh instead of replaying a memoized result.
    ctx = ExperimentContext(SystemConfig.paper_scaled(SCALE), seed=SEED,
                            ops_scale=OPS_SCALE)
    for workload in WORKLOADS:
        ctx.trace(workload)  # generation outside the measurement
    ops = 0
    wall = 0.0
    for workload in WORKLOADS:
        for protocol in PROTOCOLS:
            result = simulate(
                ctx.trace(workload), ctx.cfg, protocol=protocol,
                engine=("vectorized" if engine == "vectorized"
                        else "throughput"),
                workload_name=workload,
                telemetry=TelemetrySession() if null_telemetry else None)
            ops += result.ops
            wall += result.wall_seconds
    return ops / wall


def measure_scaling(passes: int = SCALING_PASSES) -> float:
    """Vectorized time per op at ``SCALING_OPS_SCALE`` over time per op
    at ``OPS_SCALE``: the median over ``passes`` passes.

    Each pass generates fresh traces at both ops-scales, so memoized
    per-trace work is paid inside it, then runs every microbench cell
    at both ops-scales back to back, alternating which goes first.
    Host speed drifting during a pass therefore slows both sides alike
    instead of skewing the ratio.
    """
    growths = []
    for k in range(passes):
        ctxs = [ExperimentContext(SystemConfig.paper_scaled(SCALE),
                                  seed=SEED, ops_scale=scale)
                for scale in (OPS_SCALE, SCALING_OPS_SCALE)]
        for ctx in ctxs:
            for workload in WORKLOADS:
                ctx.trace(workload)  # generation outside the measurement
        ops, wall = [0, 0], [0.0, 0.0]
        cells = [(w, p) for w in WORKLOADS for p in PROTOCOLS]
        for i, (workload, protocol) in enumerate(cells):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                ctx = ctxs[side]
                result = simulate(ctx.trace(workload), ctx.cfg,
                                  protocol=protocol, engine="vectorized",
                                  workload_name=workload)
                ops[side] += result.ops
                wall[side] += result.wall_seconds
        growths.append((wall[1] / ops[1]) / (wall[0] / ops[0]))
        print(f"[vectorized] scaling pass {k + 1}/{passes}: "
              f"{ops[0] / wall[0]:,.0f} ops/sec at ops-scale {OPS_SCALE}, "
              f"{ops[1] / wall[1]:,.0f} at {SCALING_OPS_SCALE} "
              f"(time per op {growths[-1]:.2f}x)")
    return statistics.median(growths)


def current_commit() -> str:
    """Short git head of the repo, or None outside a checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_FILE.parent, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def append_history(bench: dict, ops_per_second: float, *,
                   passes: int, engine: str = "scalar",
                   commit: str = None, recorded: str = None) -> dict:
    """Append one measurement to the bench file's ``history`` list.

    The history is the perf *trajectory* the observability dashboard
    plots — ``latest`` alone is a single point and can't show drift.
    ``engine`` tags which loop was measured so the two trajectories
    stay separable in one list.  Returns the appended entry.
    """
    entry = {
        "ops_per_second": round(ops_per_second),
        "engine": engine,
        "passes": passes,
        "recorded": recorded or time.strftime("%Y-%m-%d"),
    }
    if commit:
        entry["commit"] = commit
    bench.setdefault("history", []).append(entry)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", choices=("scalar", "vectorized", "both"),
                        default="scalar",
                        help="which engine loop to measure and gate: the "
                             "scalar reference, the vectorized batch "
                             "path, or both back to back "
                             "(default scalar)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="microbench passes; best is kept "
                             "(default 3)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression vs the "
                             "committed baseline (default 0.30)")
    parser.add_argument("--update", action="store_true",
                        help="record this measurement as 'latest' in "
                             "BENCH_perf.json")
    parser.add_argument("--record", action="store_true",
                        help="append this measurement (timestamp, "
                             "ops/sec, commit) to BENCH_perf.json's "
                             "'history' list — the perf trajectory the "
                             "observability dashboard plots")
    parser.add_argument("--no-gate", action="store_true",
                        help="measure and report only; never fail")
    parser.add_argument("--telemetry-overhead", action="store_true",
                        help="also compare ops/sec with a no-op "
                             "telemetry session attached; fails if the "
                             "instrumented path loses more than "
                             "--tolerance vs the plain path")
    args = parser.parse_args(argv)

    bench = json.loads(BENCH_FILE.read_text())
    engines = (("scalar", "vectorized") if args.engine == "both"
               else (args.engine,))

    failed = False
    best = 0.0  # last engine's best; telemetry compare uses scalar's
    scalar_best = None
    for engine in engines:
        baseline_key = ("baseline" if engine == "scalar"
                        else "baseline_vectorized")
        baseline = bench[baseline_key]["ops_per_second"]
        best = 0.0
        for i in range(max(1, args.repeats)):
            value = measure_once(engine=engine)
            best = max(best, value)
            print(f"[{engine}] pass {i + 1}/{args.repeats}: "
                  f"{value:,.0f} ops/sec")
        if engine == "scalar":
            scalar_best = best
        ratio = best / baseline
        floor = baseline * (1.0 - args.tolerance)
        print(f"[{engine}] best: {best:,.0f} ops/sec "
              f"(baseline {baseline:,.0f}, ratio {ratio:.2f}x, "
              f"floor {floor:,.0f})")

        if args.update:
            latest_key = ("latest" if engine == "scalar"
                          else "latest_vectorized")
            bench[latest_key] = {
                "ops_per_second": round(best),
                "passes": max(1, args.repeats),
                "recorded": time.strftime("%Y-%m-%d"),
            }
        if args.record:
            entry = append_history(bench, best, engine=engine,
                                   passes=max(1, args.repeats),
                                   commit=current_commit())
            print(f"recorded history point: {entry}")

        if not args.no_gate and best < floor:
            print(f"PERF REGRESSION [{engine}]: {best:,.0f} ops/sec is "
                  f"more than {args.tolerance:.0%} below the committed "
                  f"baseline {baseline:,.0f}", file=sys.stderr)
            failed = True
        if engine == "vectorized":
            growth = measure_scaling()
            print(f"[{engine}] scaling: time per op at ops-scale "
                  f"{SCALING_OPS_SCALE} is {growth:.2f}x that at "
                  f"{OPS_SCALE} (median of {SCALING_PASSES} passes; "
                  f"limit {SCALING_LIMIT}x)")
            if not args.no_gate and growth > SCALING_LIMIT:
                print(f"PERF SCALING REGRESSION [{engine}]: time per op "
                      f"grows {growth:.2f}x from ops-scale {OPS_SCALE} to "
                      f"{SCALING_OPS_SCALE} (> {SCALING_LIMIT}x)",
                      file=sys.stderr)
                failed = True

    if args.update or args.record:
        BENCH_FILE.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"updated {BENCH_FILE.name}")
    if failed:
        return 1
    if scalar_best is not None:
        best = scalar_best  # telemetry overhead is a scalar-loop property

    if args.telemetry_overhead and scalar_best is None:
        print("skipping --telemetry-overhead: it compares against the "
              "scalar loop, which this invocation did not measure")
    elif args.telemetry_overhead:
        best_tel = 0.0
        for i in range(max(1, args.repeats)):
            value = measure_once(null_telemetry=True)
            best_tel = max(best_tel, value)
            print(f"telemetry-off pass {i + 1}/{args.repeats}: "
                  f"{value:,.0f} ops/sec")
        overhead = 1.0 - best_tel / best
        print(f"telemetry-off overhead: {overhead:+.1%} "
              f"({best_tel:,.0f} vs {best:,.0f} ops/sec)")
        if not args.no_gate and best_tel < best * (1.0 - args.tolerance):
            print(f"TELEMETRY OVERHEAD REGRESSION: attaching a no-op "
                  f"session costs {overhead:.0%} "
                  f"(> {args.tolerance:.0%} allowed)", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
