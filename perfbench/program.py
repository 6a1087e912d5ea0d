"""One program process of the benchmark; ``run.py`` launches it.

    python perfbench/program.py WORKLOAD PHASE --seed N --dir DIR
        --report FILE --t0 T [--label LABEL] [--spans FILE] [--ref-gap]

Phases:

* ``figs``: one ``repro.experiments.cli.main`` invocation of a
  ``figs-*`` workload in DIR (a cold pass, or a rerun after it).
* ``vec``: one ``engine-vectorized`` cycle in DIR: set-up generates and
  caches the traces; the ``sweep`` pass reloads them and simulates every
  vectorized protocol; the ``rerun`` pass repeats that on the same
  context, whose traces are still in memory.
* ``check``: the equivalence gate's cells checked against the scalar
  engine (outside the timed region).

Set-up runs from ``--t0``, the launcher's ``time.monotonic()`` just
before it spawned this process, to the first timed cell, so it covers
interpreter start and imports.  The report is one JSON object in FILE.
With ``--spans`` the process wraps the program's layers in spans
(``spans.py``) and writes them to that file at its end.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import json
import math
import resource
import time
from pathlib import Path

from spans import CONSUMED_FIELDS, Spans, cpu_seconds, install

#: Capacity scale of every workload (the CLI's default, pinned here).
SCALE = 1 / 16

#: The sensitivity sweeps' workload subset (``benchmarks/conftest.py``).
SWEEP_SUBSET = ("CoMD", "namd2.10", "snap", "RNN_FW", "mst", "GoogLeNet")

#: Every experiment of ``all`` except fig7, whose detailed engine
#: ignores ``--ops-scale``.
DURABLE_EXPERIMENTS = (
    "fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "granularity", "scaleout", "mca", "singlegpu", "placement",
    "downgrade", "faults", "table1", "table2", "table3", "hwcost",
)

#: figs-durable's persistent state: CLI flag -> subdirectory of DIR.
DURABLE_DIRS = {
    "--trace-cache": "traces", "--store": "store", "--journal": "journal",
    "--telemetry": "telemetry", "--registry": "registry",
}

WORKLOADS = {
    "figs-cold": {"kind": "figs", "ops_scale": 0.03, "reruns": 1,
                  "experiments": ("fig8", "fig9", "fig10", "fig11")},
    "figs-durable": {"kind": "figs", "ops_scale": 0.02, "reruns": 3,
                     "experiments": DURABLE_EXPERIMENTS,
                     "workloads": SWEEP_SUBSET, "jobs": 2,
                     "durable": True},
    "engine-vectorized": {"kind": "vec", "ops_scale": 0.1},
}

#: The paper's Fig 8 headline: HMG over NH-SW, HMG over NHCC, and
#: HMG's share of idealized caching.
PAPER_HEADLINE = (0.26, 0.18, 0.97)

def figs_argv(spec: dict, seed: int, directory: Path) -> list:
    argv = [*spec["experiments"], "--scale", repr(SCALE),
            "--ops-scale", repr(spec["ops_scale"]), "--seed", str(seed)]
    if "workloads" in spec:
        argv += ["--workloads", *spec["workloads"]]
    if "jobs" in spec:
        argv += ["--jobs", str(spec["jobs"])]
    if spec.get("durable"):
        for flag, sub in DURABLE_DIRS.items():
            argv += [flag, str(directory / sub)]
    return argv


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


class FirstCall:
    """Time and CPU at the first call of any of ``names`` on ``cls``;
    puts the original methods back once it has fired."""

    def __init__(self, cls, names):
        self.at = None
        self.cpu = None
        originals = {n: inspect.getattr_static(cls, n) for n in names}

        def marker(fn):
            @functools.wraps(fn)
            def first(*args, **kwargs):
                if self.at is None:
                    self.at = time.monotonic()
                    self.cpu = cpu_seconds()
                    for name, original in originals.items():
                        setattr(cls, name, original)
                return fn(*args, **kwargs)

            return first

        for name, original in originals.items():
            setattr(cls, name, marker(original))


def record_instances(cls) -> list:
    """Every ``cls`` constructed from now on, in construction order."""
    created = []
    init = cls.__init__

    @functools.wraps(init)
    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    cls.__init__ = recording_init
    return created


def count_calls(cls, name: str) -> list:
    """A one-element list counting calls of ``cls.name``."""
    count = [0]
    fn = getattr(cls, name)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    setattr(cls, name, counted)
    return count


def headline_gap(geomeans: dict) -> float:
    """Mean |measured - paper| / paper over Fig 8's headline ratios."""
    measured = (geomeans["hmg"] / geomeans["sw"] - 1,
                geomeans["hmg"] / geomeans["nhcc"] - 1,
                geomeans["hmg"] / geomeans["ideal"])
    return sum(abs(m - p) / p
               for m, p in zip(measured, PAPER_HEADLINE)) / 3


def fig8_order(geomeans: dict) -> bool:
    """Fig 8's orderings: SW < HMG <= Ideal (1% slack), NHCC < HMG."""
    gm = geomeans
    return gm["sw"] < gm["hmg"] <= gm["ideal"] * 1.01 \
        and gm["nhcc"] < gm["hmg"]


def field_gap(scalar, vectorized) -> float:
    """Largest |vectorized - scalar| / |scalar| over consumed fields."""
    from repro.engine.equivalence import result_fields

    ref, got = result_fields(scalar), result_fields(vectorized)
    return max((abs(got[f] - ref[f]) / abs(ref[f])
                for f in CONSUMED_FIELDS if ref[f]), default=0.0)


def sim_metrics(results) -> dict:
    """Simulated statistics over a grid of results (deterministic)."""
    from repro.engine.equivalence import result_fields

    fields = [result_fields(r) for r in results]

    def total(name):
        return sum(f[name] for f in fields)

    return {
        "sim.cycles_geomean": math.exp(
            sum(math.log(f["cycles"]) for f in fields) / len(fields)),
        "sim.l2_hit_frac": 1 - total("l2.misses") / total("l2.accesses"),
        "sim.link_bytes": total("link_bytes"),
        "sim.dram_bytes": total("dram_bytes"),
        "sim.lines_inv_per_store": (total("lines_inv_by_store")
                                    / total("stores_on_shared")),
    }


def digest(results: dict) -> str:
    """Hash of every gated field of every result (wall time excluded)."""
    from repro.engine.equivalence import result_fields

    blob = json.dumps([[list(key), result_fields(r)]
                       for key, r in sorted(results.items())],
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------

def run_figs(spec: dict, opts, spans) -> dict:
    from repro.core.registry import FIGURE8_PROTOCOLS
    from repro.engine import simulator
    from repro.experiments import cli
    from repro.experiments.runner import ExperimentContext
    from repro.trace.generator import WorkloadSpec

    contexts = record_instances(ExperimentContext)
    generated = count_calls(WorkloadSpec, "generate")
    if spans is not None:
        install(spans)
        spans.phase = opts.label
        spans.recording = True
    first = FirstCall(ExperimentContext, ("run_many", "run", "trace"))
    argv = figs_argv(spec, opts.seed, opts.dir)
    with open(opts.dir / f"figures-{opts.label}.txt", "w") as out, \
            contextlib.redirect_stdout(out):
        if spans is not None:
            rc = spans.span(f"pass.{opts.label}", "bench", cli.main, argv)
        else:
            rc = cli.main(argv)
    end, cpu_end, rss = time.monotonic(), cpu_seconds(), peak_rss_mb()
    if spans is not None:
        spans.recording = False

    main = contexts[0]
    protocols = ("noremote", *FIGURE8_PROTOCOLS)
    cells = [(w, p) for w in main.workloads for p in protocols]
    grid = dict(zip(cells, main.run_many(cells)))  # in-memory memo hits
    complete = all(r is not None for r in grid.values()) and not any(
        ctx.failed_cells for ctx in contexts)
    geomeans = main.speedup_table(FIGURE8_PROTOCOLS).geomeans()
    checks = {
        "every experiment ran": rc == 0,
        "every requested cell completed": complete,
        "Fig 8 orderings hold": complete and fig8_order(geomeans),
    }
    store = main.store.stats() if main.store is not None else None
    if spec.get("durable") and opts.label == "cold":
        checks["cold pass simulated and stored every cell"] = (
            store["hits"] == 0 and store["puts"] == store["misses"] > 0)
    elif spec.get("durable"):
        checks["warm pass replayed every stored cell"] = (
            store["puts"] == store["misses"] == 0 and store["hits"] > 0)
    else:
        checks["every trace was generated"] = (
            main.store is None and main.trace_cache is None
            and generated[0] == len(main.workloads))

    ref_gap = None
    if opts.ref_gap:
        ref_gap = 0.0
        for (workload, protocol), scalar in grid.items():
            vectorized = simulator.simulate(
                main.trace(workload), main.cfg, protocol=protocol,
                engine="vectorized", workload_name=workload)
            ref_gap = max(ref_gap, field_gap(scalar, vectorized))
    return {
        "setup_s": first.at - opts.t0,
        "sweep_s": end - first.at,
        "cpu_s": cpu_end - first.cpu,
        "peak_rss_mb": rss,
        "checks": checks,
        "paper_gap": headline_gap(geomeans) if complete else 0.0,
        "ref_gap": ref_gap,
        "sim": sim_metrics(grid.values()) if complete else {},
    }


def run_vec(spec: dict, opts, spans) -> dict:
    from repro.analysis.metrics import SpeedupTable, normalized_speedups
    from repro.config import SystemConfig
    from repro.core.registry import FIGURE8_PROTOCOLS
    from repro.engine import simulator
    from repro.engine.vectorized import VECTORIZED_PROTOCOLS
    from repro.experiments.runner import ExperimentContext

    if spans is not None:
        install(spans)
        spans.phase = "setup"
        spans.recording = True
    cfg = SystemConfig.paper_scaled(SCALE)
    protocols = sorted(VECTORIZED_PROTOCOLS)

    def context():
        return ExperimentContext(cfg, seed=opts.seed,
                                 ops_scale=spec["ops_scale"],
                                 trace_cache=str(opts.dir / "traces"))

    ctx = context()
    for workload in ctx.workloads:
        ctx.trace(workload)  # generate and cache
    ready = time.monotonic()

    def grid_pass(ctx):
        results = {}
        for workload in ctx.workloads:
            trace = ctx.trace(workload)
            for protocol in protocols:
                results[(workload, protocol)] = simulator.simulate(
                    trace, cfg, protocol=protocol, engine="vectorized",
                    workload_name=workload)
        return results

    # The sweep reloads every trace from the cache; the rerun repeats it
    # on the same context, whose traces (with their decoded columns and
    # prepared geometry) are still in memory.
    ctx = context()
    passes = {}
    for label in ("sweep", "rerun"):
        start, cpu = time.monotonic(), cpu_seconds()
        if spans is not None:
            spans.phase = label
            results = spans.span(f"pass.{label}", "bench", grid_pass,
                                 ctx)
        else:
            results = grid_pass(ctx)
        passes[label] = {"wall": time.monotonic() - start,
                         "cpu": cpu_seconds() - cpu, "results": results}
    rss = peak_rss_mb()
    if spans is not None:
        spans.recording = False

    results = passes["sweep"]["results"]
    table = SpeedupTable(FIGURE8_PROTOCOLS)
    for workload in ctx.workloads:
        table.add(workload, normalized_speedups(
            {p: results[(workload, p)]
             for p in ("noremote", *FIGURE8_PROTOCOLS)}))
    geomeans = table.geomeans()
    sweep_digest = digest(results)
    checks = {
        "every cell ran on the vectorized engine": all(
            r.engine_used == "vectorized" for r in results.values()),
        "Fig 8 orderings hold": fig8_order(geomeans),
        "rerun repeats the sweep exactly":
            digest(passes["rerun"]["results"]) == sweep_digest,
    }
    return {
        "setup_s": ready - opts.t0,
        "sweep_s": passes["sweep"]["wall"],
        "rerun_s": passes["rerun"]["wall"],
        "cpu_s": passes["sweep"]["cpu"],
        "peak_rss_mb": rss,
        "checks": checks,
        "paper_gap": headline_gap(geomeans),
        "sim": sim_metrics([results[(w, p)] for w in ctx.workloads
                            for p in ("noremote", *FIGURE8_PROTOCOLS)]),
        "digest": sweep_digest,
    }


def run_check(spec: dict, opts, spans) -> dict:
    """The equivalence gate's grid, as ``tools/check_equivalence.py``
    defines it, checked cell by cell against the scalar engine."""
    from repro.config import SystemConfig
    from repro.engine import equivalence as eq
    from repro.trace.workloads import WORKLOADS as TRACES

    cfg = SystemConfig.paper_scaled(eq.GRID_SCALE)
    checks = {}
    ref_gap = 0.0
    for workload in eq.GRID_WORKLOADS:
        trace = TRACES[workload].generate(cfg, seed=eq.GRID_SEED,
                                          ops_scale=eq.GRID_OPS_SCALE)
        for protocol in eq.GRID_PROTOCOLS:
            scalar, vectorized, mismatches = eq.check_cell(
                cfg, trace, protocol, workload_name=workload)
            checks[f"{workload}/{protocol} within equivalence bounds"] = \
                not mismatches
            ref_gap = max(ref_gap, field_gap(scalar, vectorized))
    return {"checks": checks, "ref_gap": ref_gap}


PHASES = {"figs": run_figs, "vec": run_vec, "check": run_check}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--label", default="cold")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--ref-gap", action="store_true",
                        help="also run the figure's Fig 8 cells on the "
                             "vectorized engine and report ref_gap")
    opts = parser.parse_args(argv)
    spans = Spans() if opts.spans is not None else None
    report = PHASES[opts.phase](WORKLOADS[opts.workload], opts, spans)
    if spans is not None:
        report["spans_missing"] = spans.missing
        spans.write(opts.spans)
    opts.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
