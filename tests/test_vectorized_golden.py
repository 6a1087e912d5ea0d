"""Vectorized-engine results match recorded golden digests, exactly.

``tests/data/vectorized_digests.json`` holds, for each cell below, the
sha256 of every :class:`~repro.engine.stats.SimResult` field except
``wall_seconds``: cycles, the per-GPM/per-GPU resource vectors, every
protocol counter (``msg_counts`` and ``msg_bytes`` included), both
cache-stat blocks, DRAM/link/crossbar bytes and the degradation
counters.  Floats are hashed through ``repr`` (round-trip exact), so a
refactor of the engine that moves any value by one ulp fails here.

The cells are every workload x ``VECTORIZED_PROTOCOLS`` at two points
(the equivalence gate's 1/16 scale, and a 1/64-scale seed-3 trace where
capacity evictions dominate), plus CoMD and mst under ``interleave``
placement and under the ``lossy`` fault plan.  A second test checks
that what the engine memoizes on a trace object (prepared columns, L1
replays) never leaks from one config into another.

Regenerate the file only for an intended change to the engine's
results::

    PYTHONPATH=src python tests/test_vectorized_golden.py --write
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.engine.simulator import simulate
from repro.engine.vectorized import VECTORIZED_PROTOCOLS
from repro.faults import FAULT_PLANS
from repro.trace.workloads import FIGURE_ORDER, WORKLOADS

DATA = Path(__file__).with_name("data") / "vectorized_digests.json"

PROTOCOLS = sorted(VECTORIZED_PROTOCOLS)

#: (point id, scale denominator, seed, ops_scale).
POINTS = [("x16-s1-o0.1", 16, 1, 0.1), ("x64-s3-o0.05", 64, 3, 0.05)]

#: Extra (variant id, workload, placement, fault plan) cells at x16.
VARIANTS = [(f"{w}-{tag}", w, placement, plan)
            for w in ("CoMD", "mst")
            for tag, placement, plan in (("interleave", "interleave", None),
                                         ("lossy", "first_touch", "lossy"))]


def canonical(value):
    """JSON-able, order-stable form of a result field (floats via repr,
    enum keys by name, dataclasses as field dicts)."""
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return sorted((canonical(k), canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    return value


def digest(result) -> str:
    fields = {f.name: canonical(getattr(result, f.name))
              for f in dataclasses.fields(result)
              if f.name != "wall_seconds"}
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_cell(trace, cfg, protocol, workload, placement="first_touch",
             plan=None) -> str:
    fault_plan = FAULT_PLANS[plan](0) if plan else None
    return digest(simulate(trace, cfg, protocol=protocol, engine="vectorized",
                           placement=placement, workload_name=workload,
                           fault_plan=fault_plan))


def generate(workload: str) -> dict:
    out = {}
    for pid, denom, seed, ops_scale in POINTS:
        cfg = SystemConfig.paper_scaled(1 / denom)
        trace = WORKLOADS[workload].generate(cfg, seed=seed,
                                             ops_scale=ops_scale)
        for protocol in PROTOCOLS:
            out[f"{workload}/{pid}/{protocol}"] = run_cell(
                trace, cfg, protocol, workload)
        if pid != POINTS[0][0]:
            continue
        for vid, w, placement, plan in VARIANTS:
            if w != workload:
                continue
            for protocol in PROTOCOLS:
                out[f"{workload}/{pid}/{vid}/{protocol}"] = run_cell(
                    trace, cfg, protocol, workload, placement, plan)
    return out


def _slow_hops(cfg):
    return cfg.replace(latency=dataclasses.replace(
        cfg.latency, inter_gpm_hop=1000, inter_gpu_hop=4000))


def _small_l1(cfg):
    return cfg.replace(l1_bytes_per_sm=cfg.l1_bytes_per_sm // 4)


def _fewer_l1_ways(cfg):
    return cfg.replace(l1_ways=cfg.l1_ways // 2)


@pytest.mark.parametrize("variant,workload,protocol", [
    (_slow_hops, "mst", "nhcc"), (_slow_hops, "bfs", "gpuvi"),
    (_small_l1, "CoMD", "sw"), (_small_l1, "CoMD", "noremote"),
    (_small_l1, "mst", "ideal"), (_fewer_l1_ways, "CoMD", "hmg"),
])
def test_memoized_columns_follow_the_config(variant, workload, protocol):
    """One trace object simulated under two configs gives, for each, what
    a freshly generated trace gives: the prepared columns and the L1
    replay memoized on the trace are keyed by every config field they
    read (hop latencies, L1 capacity and ways, and the L1 class of
    each protocol)."""
    base = SystemConfig.paper_scaled(1 / 16)
    other = variant(base)

    def trace():
        return WORKLOADS[workload].generate(base, seed=1, ops_scale=0.1)

    shared = trace()
    reused = [run_cell(shared, cfg, protocol, workload)
              for cfg in (base, other)]
    fresh = [run_cell(trace(), cfg, protocol, workload)
             for cfg in (base, other)]
    assert reused == fresh


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("workload", FIGURE_ORDER)
def test_vectorized_results_match_golden_digests(golden, workload):
    got = generate(workload)
    assert set(got) == {cid for cid in golden
                        if cid.startswith(f"{workload}/")}
    bad = [cid for cid, value in got.items() if value != golden[cid]]
    assert not bad, bad


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    table = {}
    for name in FIGURE_ORDER:
        table.update(generate(name))
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DATA}")
