"""Per-cell run manifests (``<slug>.metrics.json``) and perf sidecars.

Every sweep cell run under ``--telemetry DIR`` leaves a manifest: a
deterministic JSON digest of the cell's identity (workload, protocol,
config fingerprint, placement, fault plan) and its results (cycles,
bottleneck, hit rates, traffic, degradation counters).  Manifests are
written by the *parent* process in request order regardless of
``--jobs``, and contain no wall-clock fields, so a serial and a
parallel sweep produce byte-identical files — the property CI diffs.

Host-performance numbers (``SimResult.wall_seconds`` /
``ops_per_second``) are inherently nondeterministic, so they live in a
``<slug>.perf.json`` sidecar next to each manifest: the perf
trajectory is captured per cell without poisoning the deterministic
artifact set.  A cell rolled up from a base cell's result rather than
simulated (:func:`repro.engine.stats.derive`) spent no loop time; its
sidecar names the base's slug under ``derived_from`` instead.

Every file here goes through :func:`write_json`, which stores one
canonical form, ``json.dumps(payload, sort_keys=True)`` plus a newline,
and leaves a file that already holds those bytes untouched.  A rerun
replayed from the results store therefore rewrites only the sidecars
of the cells the previous run simulated or derived (a replay's sidecar
records ``wall_seconds`` 0.0), and the rerun after it rewrites nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.applog import holds

# NOTE: annotations below reference repro.engine.stats.SimResult, but the
# import stays out of module scope — the engines import
# repro.core.protocol, which imports this package for NULL_TRACER.

#: Manifest format version; bump on any key change.
SCHEMA = 1


def _cell(workload: str, protocol: str, cfg, placement: str, fault_plan,
          seed=None, ops_scale=None, engine="throughput") -> dict:
    """A manifest's ``cell`` record: the cell's identity.  Its slug is
    a projection of it (:func:`_slug`), so writing a cell's artifacts
    fingerprints its config once."""
    from repro.experiments.parallel import (config_fingerprint,
                                            plan_fingerprint)

    return {
        "workload": workload,
        "protocol": protocol,
        "engine": engine,
        "placement": placement,
        "config_fingerprint": config_fingerprint(cfg),
        "fault_plan": (
            {"name": fault_plan.name,
             "fingerprint": plan_fingerprint(fault_plan)}
            if fault_plan is not None else None
        ),
        "seed": seed,
        "ops_scale": ops_scale,
    }


def _slug(cell: dict) -> str:
    """The slug of a manifest's ``cell`` record."""
    parts = [cell["workload"], cell["protocol"],
             cell["config_fingerprint"][:8], cell["placement"]]
    plan = cell["fault_plan"]
    if plan is not None:
        parts.append(f"{plan['name']}-{plan['fingerprint'][:8]}")
    return "-".join(p.replace("/", "_") for p in parts)


def cell_slug(workload: str, protocol: str, cfg, placement: str,
              fault_plan=None) -> str:
    """Filesystem-safe unique name for one sweep cell."""
    return _slug(_cell(workload, protocol, cfg, placement, fault_plan))


def cell_manifest(result: SimResult, *, workload: str, protocol: str,
                  cfg, placement: str = "first_touch", fault_plan=None,
                  seed: int = None, ops_scale: float = None,
                  engine: str = "throughput") -> dict:
    """Deterministic digest of one completed cell."""
    name, index, cycles = result.resources.bottleneck()
    return {
        "schema": SCHEMA,
        "cell": _cell(workload, protocol, cfg, placement, fault_plan,
                      seed, ops_scale, engine),
        "platform": {
            "num_gpus": cfg.num_gpus,
            "gpms_per_gpu": cfg.gpms_per_gpu,
        },
        "time": {
            "cycles": result.cycles,
            "seconds": result.seconds,
            "bottleneck": {"resource": name, "index": index,
                           "cycles": cycles},
            "resource_maxima": result.resources.class_maxima(),
        },
        "work": {
            "ops": result.ops,
            "l1": {"hits": result.l1_stats.hits,
                   "misses": result.l1_stats.misses,
                   "hit_rate": result.l1_stats.hit_rate},
            "l2": {"hits": result.l2_stats.hits,
                   "misses": result.l2_stats.misses,
                   "hit_rate": result.l2_stats.hit_rate},
        },
        "traffic": {
            "dram_bytes": result.dram_bytes,
            "inter_gpu_bytes": result.inter_gpu_bytes,
            "link_bytes": [list(pair) for pair in result.link_bytes],
            "xbar_bytes": list(result.xbar_bytes),
            "messages": {
                mtype.name: {
                    "count": result.stats.msg_counts.get(mtype, 0),
                    "bytes": result.stats.msg_bytes.get(mtype, 0),
                }
                for mtype in sorted(result.stats.msg_counts)
            },
            "inv_messages": result.stats.inv_messages,
            "inv_bytes": result.stats.inv_bytes,
        },
        "degradation": (result.degradation.as_dict()
                        if result.degradation is not None else None),
    }


def perf_sidecar(result: SimResult, derived_from: str = None) -> dict:
    """Host-performance record (nondeterministic by nature), or the
    slug of the base cell a derived cell was rolled up from."""
    if derived_from is not None:
        return {"schema": SCHEMA, "derived_from": derived_from}
    return {
        "schema": SCHEMA,
        "wall_seconds": result.wall_seconds,
        "ops_per_second": result.ops_per_second,
    }


def write_json(path, payload) -> None:
    """Write ``payload`` in the canonical form: compact sorted-key JSON
    from the C encoder, ``json.dumps(payload, sort_keys=True)``, plus a
    newline.

    Writes only when the bytes change: a file that already holds them
    is left untouched, so a warm rerun re-records nothing.  The check
    is one read and one bytes comparison.  It is exact, because equal
    content has one canonical form, and type-exact, because the form
    tells ``1`` from ``1.0``.  An absent, torn or invalid file is
    written, and so is a file holding equal content in another form.
    """
    data = (json.dumps(payload, sort_keys=True) + "\n").encode()
    if not holds(path, data):
        Path(path).write_bytes(data)


def write_cell_artifacts(out_dir, result: SimResult, *, workload: str,
                         protocol: str, cfg, placement: str,
                         fault_plan=None, seed: int = None,
                         ops_scale: float = None,
                         engine: str = "throughput",
                         derived_from: str = None) -> str:
    """Write ``<slug>.metrics.json`` + ``<slug>.perf.json``; returns slug."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = cell_manifest(
        result, workload=workload, protocol=protocol, cfg=cfg,
        placement=placement, fault_plan=fault_plan, seed=seed,
        ops_scale=ops_scale, engine=engine,
    )
    slug = _slug(manifest["cell"])
    write_json(out / f"{slug}.metrics.json", manifest)
    write_json(out / f"{slug}.perf.json",
               perf_sidecar(result, derived_from))
    return slug


def write_run_manifest(out_dir, *, experiments, settings: dict,
                       cells: list) -> None:
    """Sweep-level index: which experiments ran, with what settings,
    and which cell manifests they produced.  Deliberately excludes
    wall-clock times and the job count so serial and parallel runs of
    the same sweep write identical bytes.  Creates ``out_dir`` when no
    cell manifest did (a sweep whose cells all ran in sub-contexts)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "run.json", {
        "schema": SCHEMA,
        "experiments": list(experiments),
        "settings": settings,
        "cells": list(cells),
    })
