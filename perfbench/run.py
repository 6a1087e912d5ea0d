"""Figure-regeneration benchmark: run one workload, check it, report.

    python3 perfbench/run.py --workload figs-cold --seed 1 --seconds 40 \\
        --trace 0

Run from the repository root.  Each run works in a fresh directory under
``.perfbench/`` and removes it at the end.  The timed window repeats
*cycles* until ``--seconds`` is spent: a cycle is a fresh directory, a
pass over the workload, then a rerun of the same work on what the pass
left behind.  Every end-to-end metric is the median over the window's
cycles (``setup_s`` over every set-up in the run).  ``--trace 1``
instead runs one untraced pass and one traced cycle, reports the
per-layer metrics and writes the spans as Chrome trace-event JSON under
``.perfbench/traces/``.

The program runs in child processes (``program.py``) with a fixed
``PYTHONHASHSEED`` and BLAS/OpenMP limited to one thread.  The last
line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` count the output checks, ``metrics`` holds every metric with
its unit.  The lines above it are a readable table plus steadiness
diagnostics (spread between cycles, host steal time).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from program import WORKLOADS
from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: Metric names and units, as ``BENCHMARK.json`` declares them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: The CLI's per-experiment timing footer (``[fig8: 5.8s]``).
_TIMING_LINE = re.compile(rb"^\[[^\]]*: [0-9.]+s\]$", re.M)


class BenchError(RuntimeError):
    """The benchmark could not run the program to completion."""


def child_env(run_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "TMPDIR": str(run_dir),
    })
    return env


class Runner:
    """Launches program processes for one benchmark run."""

    def __init__(self, workload: str, seed: int, run_dir: Path,
                 deadline: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.launches = 0

    def launch(self, phase: str, directory: Path, label: str = "cold",
               spans: bool = False, ref_gap: bool = False) -> dict:
        """Run one program process; returns its report."""
        self.launches += 1
        name = f"{self.launches:03d}-{phase}-{label}"
        report = self.run_dir / "reports" / f"{name}.json"
        span_file = self.run_dir / "reports" / f"{name}.spans.json"
        log = self.run_dir / "logs" / f"{name}.log"
        directory.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "program.py"), self.workload,
               phase, "--seed", str(self.seed), "--dir", str(directory),
               "--report", str(report), "--label", label]
        if spans:
            cmd += ["--spans", str(span_file)]
        if ref_gap:
            cmd.append("--ref-gap")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for {name}")
        with open(log, "wb") as out:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                cmd + ["--t0", repr(t0)], cwd=ROOT,
                env=child_env(self.run_dir), stdin=subprocess.DEVNULL,
                stdout=out, stderr=out, start_new_session=True)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                _kill_group(proc)
                proc.wait()
                raise BenchError(f"{name} overran the run's time limit")
            finally:
                _kill_group(proc)  # stray workers of a crashed pass
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-3000:]
            raise BenchError(f"{name} exited {proc.returncode}:\n{tail}")
        result = json.loads(report.read_text())
        if spans:
            result["events"] = json.loads(span_file.read_text())[
                "traceEvents"]
        return result

    def cycle(self, index: int, spans: bool = False) -> dict:
        """One cycle: a pass over the workload and the rerun after it."""
        directory = self.run_dir / f"cycle{index}"
        if WORKLOADS[self.workload]["kind"] == "vec":
            report = self.launch("vec", directory, "sweep", spans)
            artifact_bytes = tree_bytes(directory)[1]
            reports = {"cycle": report}
            rerun_s = report["rerun_s"]
            outputs = report["digest"]
        else:
            report = self.launch("figs", directory, "cold", spans,
                                 ref_gap=index == 0 and not spans)
            artifact_bytes = tree_bytes(directory)[1]
            outputs = figures(directory / "figures-cold.txt")
            reports = {"cold": report}
            reruns = 1 if spans else WORKLOADS[self.workload]["reruns"]
            for n in range(reruns):
                label = f"rerun{n}"
                rerun = reports[label] = self.launch(
                    "figs", directory, label, spans)
                rerun["checks"]["rerun renders the same figures"] = (
                    figures(directory / f"figures-{label}.txt") == outputs)
            rerun_s = statistics.median(
                r["sweep_s"] for label, r in reports.items()
                if label != "cold")
        return {
            "setup": [r["setup_s"] for r in reports.values()],
            "sweep_s": report["sweep_s"],
            "rerun_s": rerun_s,
            "cpu_s": report["cpu_s"],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports.values()),
            "artifact_bytes": artifact_bytes,
            "checks": [ok for r in reports.values()
                       for ok in r["checks"].values()],
            "failed": [f"cycle {index} {label}: {name}"
                       for label, r in reports.items()
                       for name, ok in r["checks"].items() if not ok],
            "paper_gap": report["paper_gap"],
            "ref_gap": report.get("ref_gap"),
            "sim": report["sim"],
            "outputs": outputs,
            "directory": directory,
            "events": [e for r in reports.values()
                       for e in r.get("events", [])],
            "unwrapped": sorted({t for r in reports.values()
                                 for t in r.get("spans_missing", [])}),
        }


def _kill_group(proc) -> bool:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def figures(path: Path) -> bytes:
    """Rendered figures with the per-experiment timing lines removed."""
    return _TIMING_LINE.sub(b"", path.read_bytes())


def tree_bytes(path: Path) -> tuple:
    """(files, bytes) under ``path`` (0, 0 when it does not exist)."""
    files = size = 0
    for parent, _dirs, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(parent, name))
    return files, size


def host_ticks():
    """(steal, total) CPU ticks from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def spread(values) -> float:
    """(max - min) / median of one run's per-cycle values."""
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def timed_run(runner: Runner, seconds: int) -> tuple:
    """Cycles until ``seconds`` are spent; end-to-end metrics."""
    start = time.monotonic()
    ticks0 = host_ticks()
    cycles, durations = [], []
    while True:
        began = time.monotonic()
        cycles.append(runner.cycle(len(cycles)))
        durations.append(time.monotonic() - began)
        shutil.rmtree(cycles[-1]["directory"])
        if (time.monotonic() - start + statistics.median(durations)
                > seconds):
            break
    ticks1 = host_ticks()
    checks = [ok for c in cycles for ok in c["checks"]]
    failed = [name for c in cycles for name in c["failed"]]
    repeat = {"paper_gap", "sim", "outputs"}
    for key in sorted(repeat):
        same = all(c[key] == cycles[0][key] for c in cycles)
        checks.append(same)
        if not same:
            failed.append(f"{key} repeats exactly across cycles")
    ref_gap = cycles[0]["ref_gap"]
    if WORKLOADS[runner.workload]["kind"] == "vec":
        check = runner.launch("check", runner.run_dir / "check", "check")
        checks += list(check["checks"].values())
        failed += [n for n, ok in check["checks"].items() if not ok]
        ref_gap = check["ref_gap"]

    def median(key):
        return statistics.median(c[key] for c in cycles)

    metrics = {
        "setup_s": statistics.median(s for c in cycles for s in c["setup"]),
        "sweep_s": median("sweep_s"),
        "cpu_s": median("cpu_s"),
        "rerun_s": median("rerun_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "ok_frac": (len(checks) - len(failed)) / len(checks),
        "paper_gap": cycles[0]["paper_gap"],
        "ref_gap": ref_gap,
        "artifact_bytes": median("artifact_bytes"),
    }
    notes = [f"cycles: {len(cycles)} in {time.monotonic() - start:.1f}s"
             f" (window {seconds}s)"]
    for key in ("sweep_s", "rerun_s", "cpu_s"):
        values = [c[key] for c in cycles]
        notes.append(f"{key} per cycle: "
                     + " ".join(f"{v:.3f}" for v in values)
                     + f"  spread {spread(values):.1%}")
    setups = [s for c in cycles for s in c["setup"]]
    notes.append("setup_s samples: " + " ".join(f"{v:.3f}" for v in setups)
                 + f"  spread {spread(setups):.1%}")
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        notes.append(f"host steal time: "
                     f"{(ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]):.2%}"
                     " of CPU time over the window")
    notes.append(f"load average: {os.getloadavg()[0]:.2f}")
    return metrics, len(checks), failed, notes


def traced_run(runner: Runner) -> tuple:
    """One untraced pass, one traced cycle; per-layer metrics."""
    kind = WORKLOADS[runner.workload]["kind"]
    untraced_dir = runner.run_dir / "untraced"
    if kind == "vec":
        untraced = runner.launch("vec", untraced_dir, "sweep")
        untraced_out = untraced["digest"]
    else:
        untraced = runner.launch("figs", untraced_dir, "cold")
        untraced_out = figures(untraced_dir / "figures-cold.txt")
    traced = runner.cycle(0, spans=True)
    events = traced["events"]
    metrics = layer_metrics(events)
    rerun = layer_metrics([e for e in events
                           if e["args"]["phase"].startswith("rerun")])
    metrics["runner.rerun_cells_simulated"] = rerun["runner.cells_simulated"]
    metrics["store.rerun_hit_frac"] = rerun["store.hit_frac"]
    directory = traced["directory"]
    metrics["store.bytes"] = tree_bytes(directory / "store")[1]
    metrics["journal.bytes"] = tree_bytes(directory / "journal")[1]
    files, size = (sum(x) for x in zip(tree_bytes(directory / "telemetry"),
                                       tree_bytes(directory / "registry")))
    metrics["telemetry.files"] = files
    metrics["telemetry.bytes"] = size
    metrics.update(traced["sim"])
    metrics["span_overhead_frac"] = (traced["sweep_s"] / untraced["sweep_s"]
                                     - 1)
    identical = traced["outputs"] == untraced_out
    checks = traced["checks"] + [identical]
    failed = traced["failed"] + (
        [] if identical else ["traced run renders the same outputs"])

    OUT.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_path = OUT / "traces" / f"{runner.workload}-seed{runner.seed}.json"
    trace_path.write_text(json.dumps({"traceEvents": events,
                                      "displayTimeUnit": "ms"}))
    notes = [f"spans: {len(events)} written to "
             f"{trace_path.relative_to(ROOT)}",
             f"untraced sweep {untraced['sweep_s']:.3f}s, "
             f"traced {traced['sweep_s']:.3f}s"]
    if traced["unwrapped"]:
        notes.append("not in this program, so not traced: "
                     + ", ".join(traced["unwrapped"]))
    return metrics, len(checks), failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so running passes are killed and the
    # run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("reports", "logs"):
        (run_dir / sub).mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir,
                    time.monotonic() + RUN_LIMIT_S)
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced_run(runner)
            units = PER_LAYER
        else:
            metrics, attempted, failed, notes = timed_run(runner,
                                                          args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}")
    for note in notes:
        print(f"  {note}")
    for name in failed:
        print(f"  CHECK FAILED: {name}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
