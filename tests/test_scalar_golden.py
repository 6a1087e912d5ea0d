"""Scalar-engine results match recorded golden digests, exactly.

``tests/data/scalar_digests.json`` holds, for each cell below, the
sha256 of every :class:`~repro.engine.stats.SimResult` field except
``wall_seconds`` (the digest of ``test_vectorized_golden``), so a
refactor of the throughput engine or of the roll-up it shares with the
vectorized engine that moves any value by one ulp fails here.

The cells are every workload x the seven registry protocols at 1/16
scale, seed 1, ops-scale 0.03, plus CoMD and mst under ``interleave``
placement, under each built-in fault plan, and at 100 and 400 GB/s
inter-GPU bandwidth.

Regenerate the file only for an intended change to the engine's
results::

    PYTHONPATH=src python -m tests.test_scalar_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.core.registry import PROTOCOLS as REGISTRY
from repro.engine.simulator import simulate
from repro.faults import FAULT_PLANS
from repro.trace.workloads import FIGURE_ORDER, WORKLOADS
from tests.test_vectorized_golden import digest

DATA = Path(__file__).with_name("data") / "scalar_digests.json"

PROTOCOLS = sorted(REGISTRY)

#: (point id, scale denominator, seed, ops_scale).
POINT = ("x16-s1-o0.03", 16, 1, 0.03)

#: Extra (variant id, placement, fault plan, inter-GPU GB/s) cells.
VARIANTS = ([("interleave", "interleave", None, None)]
            + [(plan, "first_touch", plan, None) for plan in FAULT_PLANS]
            + [(f"bw{bw}", "first_touch", None, bw) for bw in (100, 400)])

#: Workloads that also run every variant.
VARIANT_WORKLOADS = ("CoMD", "mst")


def generate(workload: str) -> dict:
    pid, denom, seed, ops_scale = POINT
    cfg = SystemConfig.paper_scaled(1 / denom)
    trace = WORKLOADS[workload].generate(cfg, seed=seed,
                                         ops_scale=ops_scale)
    cells = [(f"{workload}/{pid}", cfg, "first_touch", None)]
    if workload in VARIANT_WORKLOADS:
        for vid, placement, plan, bw in VARIANTS:
            run_cfg = (cfg if bw is None
                       else cfg.replace(inter_gpu_bw_gbps=float(bw)))
            cells.append((f"{workload}/{pid}/{vid}", run_cfg, placement,
                          FAULT_PLANS[plan](0) if plan else None))
    out = {}
    for prefix, run_cfg, placement, plan in cells:
        for protocol in PROTOCOLS:
            out[f"{prefix}/{protocol}"] = digest(simulate(
                trace, run_cfg, protocol=protocol, placement=placement,
                workload_name=workload, fault_plan=plan))
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("workload", FIGURE_ORDER)
def test_scalar_results_match_golden_digests(golden, workload):
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
