"""Cross-run aggregation: manifests + perf sidecars -> regression view.

The sweep CLI leaves one deterministic ``<slug>.metrics.json`` manifest
and one wall-clock ``<slug>.perf.json`` sidecar per cell, plus a
``run.json`` index, under every ``--telemetry`` directory.  This module
reads those artifacts *back* — tolerantly, run directories may be
mid-write — and aggregates them across runs into the view the
observability service (:mod:`repro.telemetry.serve`) renders:

* per-run summaries (cells, workloads, protocols, failures),
* engine throughput per run (``sum ops / sum wall_seconds`` over the
  cells that actually simulated — store replays carry
  ``wall_seconds == 0`` and are excluded),
* per-protocol geomean speedups vs the ``noremote`` baseline, grouped
  exactly the way the paper's fig 8 normalizes (same workload, config
  fingerprint, placement, and fault plan),
* drift of both across runs against the committed ``BENCH_perf.json``
  baseline and its ``--record`` history — the ``check_perf`` gate
  rendered over time.

Everything here is pure functions over JSON so the HTTP service and
the offline ``store``/CLI tools share one code path.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.metrics import geomean

#: Fractional drop that flags a regression; mirrors the default
#: ``tools/check_perf.py --tolerance``.
DEFAULT_TOLERANCE = 0.30


def _read_json(path: Path):
    """Parse one JSON file; ``None`` on absence or mid-write garbage."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None


# ----------------------------------------------------------------------
# Run directories
# ----------------------------------------------------------------------


def load_run(run_dir) -> dict:
    """Load one telemetry run directory into a plain dict.

    Works on a sweep ``--telemetry`` directory (``run.json`` +
    ``<slug>.metrics.json`` manifests) and on an ``observe`` out dir
    (bare ``metrics.json``); returns ``None`` when the directory holds
    neither.  Cells whose manifest or sidecar is missing or torn are
    skipped — an in-flight sweep is a legitimate input.
    """
    root = Path(run_dir)
    if not root.is_dir():
        return None
    index = _read_json(root / "run.json")
    manifest_paths = sorted(root.glob("*.metrics.json"))
    single = root / "metrics.json"
    if not manifest_paths and single.exists():
        manifest_paths = [single]
    if index is None and not manifest_paths:
        return None

    cells = []
    for path in manifest_paths:
        manifest = _read_json(path)
        if not isinstance(manifest, dict) or "cell" not in manifest:
            continue
        slug = path.name[:-len(".metrics.json")] \
            if path.name != "metrics.json" else path.stem
        perf = _read_json(path.with_name(
            path.name.replace("metrics.json", "perf.json"))) or {}
        cell = manifest["cell"]
        plan = cell.get("fault_plan") or {}
        cells.append({
            "slug": slug,
            "workload": cell.get("workload"),
            "protocol": cell.get("protocol"),
            "placement": cell.get("placement"),
            "config_fingerprint": cell.get("config_fingerprint"),
            "fault_plan": plan.get("name"),
            "plan_fingerprint": plan.get("fingerprint", ""),
            "cycles": manifest.get("time", {}).get("cycles"),
            "bottleneck": manifest.get("time", {})
                                  .get("bottleneck", {}).get("resource"),
            "ops": manifest.get("work", {}).get("ops"),
            "wall_seconds": perf.get("wall_seconds"),
            "ops_per_second": perf.get("ops_per_second"),
            "has_intervals": (root / "intervals.jsonl").exists()
            and path.name == "metrics.json",
        })

    failed = _read_json(root / "failed_cells.json") or []
    # The fabric's deterministic counters and its host-dependent ones
    # (``fabric.perf.json``) are shown as one record.
    fabric = {**(_read_json(root / "fabric.json") or {}),
              **(_read_json(root / "fabric.perf.json") or {})} or None
    run = {
        "dir": str(root),
        "experiments": (index or {}).get("experiments", []),
        "settings": (index or {}).get("settings", {}),
        "indexed_cells": (index or {}).get("cells", []),
        "complete": index is not None,
        "cells": cells,
        "failed_cells": failed,
        "fabric": fabric,
        "engine_ops_per_second": engine_ops_per_second(cells),
        "geomean_speedups": geomean_speedups(cells),
    }
    return run


def engine_ops_per_second(cells) -> float:
    """Run-level engine throughput from the perf sidecars.

    ``sum(ops) / sum(wall_seconds)`` over cells that spent engine time;
    store replays (``wall_seconds == 0``) and torn sidecars contribute
    nothing.  ``None`` when no cell simulated.
    """
    ops = 0
    wall = 0.0
    for cell in cells:
        if cell.get("wall_seconds") and cell.get("ops"):
            ops += cell["ops"]
            wall += cell["wall_seconds"]
    return ops / wall if wall > 0 else None


def geomean_speedups(cells) -> dict:
    """Per-protocol geomean speedup vs ``noremote``, fig 8 style.

    Cells group by (workload, config fingerprint, placement, fault
    plan); within a group every protocol normalizes to the group's
    ``noremote`` cycles.  Groups without a baseline, and zero-cycle
    cells, are skipped.
    """
    groups: dict = {}
    for cell in cells:
        if not cell.get("cycles"):
            continue
        key = (cell.get("workload"), cell.get("config_fingerprint"),
               cell.get("placement"), cell.get("plan_fingerprint"))
        groups.setdefault(key, {})[cell.get("protocol")] = cell["cycles"]
    speedups: dict = {}
    for group in groups.values():
        base = group.get("noremote")
        if not base:
            continue
        for protocol, cycles in group.items():
            if protocol == "noremote" or not cycles:
                continue
            speedups.setdefault(protocol, []).append(base / cycles)
    return {protocol: geomean(values)
            for protocol, values in sorted(speedups.items())}


def run_summary(run: dict) -> dict:
    """Compact per-run record for the ``/runs`` endpoint."""
    cells = run["cells"]
    return {
        "dir": run["dir"],
        "experiments": run["experiments"],
        "complete": run["complete"],
        "cells": len(cells),
        "failed_cells": len(run["failed_cells"]),
        "workloads": sorted({c["workload"] for c in cells
                             if c["workload"]}),
        "protocols": sorted({c["protocol"] for c in cells
                             if c["protocol"]}),
        "engine_ops_per_second": run["engine_ops_per_second"],
        "geomean_speedups": run["geomean_speedups"],
        "fabric": run["fabric"],
    }


# ----------------------------------------------------------------------
# Bench baseline + regression view
# ----------------------------------------------------------------------


def load_bench(path) -> dict:
    """``BENCH_perf.json`` reduced to what the dashboard plots."""
    bench = _read_json(path) if path else None
    if not isinstance(bench, dict):
        return None
    return {
        "path": str(path),
        "baseline": bench.get("baseline", {}).get("ops_per_second"),
        "latest": bench.get("latest", {}).get("ops_per_second"),
        "history": bench.get("history", []),
    }


def regression_view(runs, bench: dict,
                    tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """The cross-run drift view: check_perf's gate, rendered over time.

    ``runs`` is a list of :func:`load_run` dicts in discovery order.
    Flags two independent regressions:

    * **perf**: a run whose engine ops/sec sits more than ``tolerance``
      below the committed bench baseline (exactly the CI gate), and
    * **speedup drift**: a protocol whose geomean speedup in the newest
      run moved more than ``tolerance`` relative to the earliest run
      that measured it — simulated results are deterministic, so drift
      across runs means the *code* changed the physics.
    """
    baseline = (bench or {}).get("baseline")
    floor = baseline * (1.0 - tolerance) if baseline else None
    perf_rows = []
    for run in runs:
        ops = run["engine_ops_per_second"]
        flagged = bool(floor and ops is not None and ops < floor)
        perf_rows.append({
            "dir": run["dir"],
            "engine_ops_per_second": ops,
            "vs_baseline": (ops / baseline) if ops and baseline else None,
            "flagged": flagged,
        })

    drift: dict = {}
    for run in runs:
        for protocol, value in run["geomean_speedups"].items():
            entry = drift.setdefault(protocol, {
                "first": value, "first_dir": run["dir"],
                "last": value, "last_dir": run["dir"],
            })
            entry["last"] = value
            entry["last_dir"] = run["dir"]
    for entry in drift.values():
        change = entry["last"] / entry["first"] - 1.0 \
            if entry["first"] else None
        entry["change"] = change
        entry["flagged"] = bool(change is not None
                                and abs(change) > tolerance)

    return {
        "bench": bench,
        "tolerance": tolerance,
        "floor": floor,
        "runs": perf_rows,
        "speedup_drift": dict(sorted(drift.items())),
        "flagged": sorted(
            [row["dir"] for row in perf_rows if row["flagged"]]
            + [p for p, e in drift.items() if e["flagged"]]
        ),
    }


# ----------------------------------------------------------------------
# Result digests (store query API)
# ----------------------------------------------------------------------


def result_digest(result) -> dict:
    """JSON-able summary of one stored :class:`SimResult`.

    The store pickles full results; queries answer with this digest so
    the HTTP API and the ``store get`` CLI never ship pickles.
    """
    name, index, cycles = result.resources.bottleneck()
    return {
        "workload": result.workload_name,
        "protocol": result.protocol_name,
        "platform": {
            "num_gpus": result.cfg.num_gpus,
            "gpms_per_gpu": result.cfg.gpms_per_gpu,
        },
        "cycles": result.cycles,
        "seconds": result.seconds,
        "bottleneck": {"resource": name, "index": index,
                       "cycles": cycles},
        "ops": result.ops,
        "l1_hit_rate": result.l1_stats.hit_rate,
        "l2_hit_rate": result.l2_stats.hit_rate,
        "dram_bytes": result.dram_bytes,
        "inter_gpu_bytes": result.inter_gpu_bytes,
        "inv_messages": result.stats.inv_messages,
        "inv_bytes": result.stats.inv_bytes,
        "degradation": (result.degradation.as_dict()
                        if result.degradation is not None else None),
    }
