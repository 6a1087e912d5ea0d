"""Generated traces match recorded golden digests, byte for byte.

``tests/data/trace_digests.json`` holds, for each case below, the
sha256 of the trace's packed op payload (``BatchTrace.to_payload``)
plus its length, footprint, kernel count and meta.  Any change to trace
generation that moves a single op, field or boundary marker fails here.

Regenerate the file only for an intended change to the traces::

    PYTHONPATH=src python tests/test_trace_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.trace.batch import as_batch
from repro.trace.workloads import FIGURE_ORDER, WORKLOADS

DATA = Path(__file__).with_name("data") / "trace_digests.json"


def cases(workload: str) -> list:
    """(case id, cfg, seed, ops_scale) for one workload: every GPU count
    at seed 1, a longer seed-3 trace on two capacity scales, and the
    directory-entry granularities the sharing patterns align to."""
    small = SystemConfig.paper_scaled(1 / 64)
    out = [(f"g{gpus}-s1-o0.02", small.replace(num_gpus=gpus), 1, 0.02)
           for gpus in (1, 2, 4, 8)]
    out += [(f"x{denom}-s3-o0.1", SystemConfig.paper_scaled(1 / denom), 3,
             0.1) for denom in (16, 64)]
    out += [(f"e{lines}-s1-o0.02", small.replace(dir_lines_per_entry=lines),
             1, 0.02) for lines in (1, 8)]
    return [(f"{workload}/{cid}", cfg, seed, ops_scale)
            for cid, cfg, seed, ops_scale in out]


def digest(trace) -> dict:
    return {
        "sha256": hashlib.sha256(as_batch(trace).to_payload()).hexdigest(),
        "len": len(trace),
        "footprint_bytes": trace.footprint_bytes,
        "kernels": trace.kernels,
        "meta": trace.meta,
    }


def generate(workload: str) -> dict:
    return {
        cid: digest(WORKLOADS[workload].generate(cfg, seed=seed,
                                                 ops_scale=ops_scale))
        for cid, cfg, seed, ops_scale in cases(workload)
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("workload", FIGURE_ORDER)
def test_generated_traces_match_golden_digests(golden, workload):
    got = generate(workload)
    assert set(got) == {cid for cid in golden
                        if cid.startswith(f"{workload}/")}
    for cid, value in got.items():
        assert value == golden[cid], cid


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    table = {}
    for name in FIGURE_ORDER:
        table.update(generate(name))
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DATA}")
