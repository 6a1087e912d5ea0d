"""Sweep cells that differ from a completed cell only in inter-GPU
bandwidth or fault plan are rolled up from it, not re-simulated.

:func:`repro.engine.stats.derive` must equal ``simulate`` in every
``SimResult`` field but ``wall_seconds``, for bases from both throughput
engines; the runner must derive exactly when a completed base with no
fault plan (or a no-op one) shares the cell's twin or the store holds
the twin, and must never build a twin for cells the store replays.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.core.registry import PROTOCOLS
from repro.engine import stats
from repro.engine.simulator import simulate
from repro.experiments import runner
from repro.experiments.faults import faults
from repro.experiments.figures import fig8, fig12
from repro.faults import FAULT_PLANS, make_fault_plan
from repro.trace.workloads import WORKLOADS
from tests.test_vectorized_golden import digest

CFG = SystemConfig.paper_scaled(1 / 16)

#: (variant id, inter-GPU GB/s, fault plan name) cells derived from a
#: 200 GB/s base with no plan.
VARIANTS = ([(f"bw{bw}", bw, None) for bw in (100, 300, 400)]
            + [(plan, 200, plan) for plan in FAULT_PLANS])


@pytest.fixture(scope="module")
def traces() -> dict:
    return {w: WORKLOADS[w].generate(CFG, seed=1, ops_scale=0.03)
            for w in ("CoMD", "mst")}


@pytest.mark.parametrize("engine", ["throughput", "vectorized"])
@pytest.mark.parametrize("workload", ["CoMD", "mst"])
def test_derive_equals_simulate(traces, workload, engine):
    trace = traces[workload]
    bad = []
    for protocol in sorted(PROTOCOLS):
        base = simulate(trace, CFG, protocol=protocol, engine=engine,
                        workload_name=workload)
        assert base.engine_used == engine
        for vid, bw, plan_name in VARIANTS:
            cfg = CFG.replace(inter_gpu_bw_gbps=float(bw))
            plan = make_fault_plan(plan_name) if plan_name else None
            want = simulate(trace, cfg, protocol=protocol, engine=engine,
                            workload_name=workload, fault_plan=plan)
            if digest(stats.derive(base, cfg, plan)) != digest(want):
                bad.append(f"{protocol}/{vid}")
    assert not bad, bad


def test_derive_from_a_noop_plan_base(traces):
    base = simulate(traces["mst"], CFG, protocol="hmg",
                    workload_name="mst", fault_plan=make_fault_plan("none"))
    cfg = CFG.replace(inter_gpu_bw_gbps=100.0)
    lossy = make_fault_plan("lossy")
    want = simulate(traces["mst"], cfg, protocol="hmg", workload_name="mst",
                    fault_plan=lossy)
    derived = stats.derive(base, cfg, lossy)
    assert digest(derived) == digest(want)
    assert derived.wall_seconds == 0.0


def test_derive_refuses_what_the_loop_reads(traces):
    base = simulate(traces["CoMD"], CFG, protocol="hmg",
                    workload_name="CoMD")
    with pytest.raises(ValueError, match="roll-up fields"):
        stats.derive(base, CFG.replace(l2_bytes_per_gpu=2
                                       * CFG.l2_bytes_per_gpu))
    base.engine_used = "detailed"
    with pytest.raises(ValueError, match="detailed"):
        stats.derive(base, CFG)


# ----------------------------------------------------------------------
# The runner's base rule
# ----------------------------------------------------------------------

def _context(**kwargs) -> runner.ExperimentContext:
    return runner.ExperimentContext(SystemConfig.paper_scaled(1 / 64),
                                    seed=1, ops_scale=0.05,
                                    workloads=["CoMD", "mst"], **kwargs)


@pytest.fixture()
def simulated(monkeypatch) -> list:
    """The run config of every cell the runner simulates in process."""
    calls = []

    def counting(trace, cfg, **kwargs):
        calls.append(cfg)
        return simulate(trace, cfg, **kwargs)

    monkeypatch.setattr(runner, "simulate", counting)
    return calls


def test_fig12_and_faults_after_fig8_simulate_nothing(simulated):
    ctx = _context()
    fig8(ctx)
    assert len(simulated) == 12
    fig12(ctx)
    faults(ctx)
    assert len(simulated) == 12


def test_a_stored_twin_is_a_base_in_the_next_run(tmp_path, simulated):
    """fig8 stores the default-bandwidth, no-plan twin of every fig12
    and faults cell, so a second run on the store simulates nothing
    and prints what a run without a store prints."""
    fig8(_context(store=str(tmp_path / "store")))
    assert len(simulated) == 12
    simulated.clear()
    warm = _context(store=str(tmp_path / "store"))
    texts = [str(fig12(warm)), str(faults(warm))]
    assert simulated == []
    fresh = _context()
    assert texts == [str(fig12(fresh)), str(faults(fresh))]


def test_a_twin_lookup_counts_nothing(tmp_path):
    """A cold run stores every cell it misses, though its first fig12
    point also looks up its twin in the store, and misses."""
    ctx = _context(store=str(tmp_path / "store"))
    fig12(ctx)
    faults(ctx)
    stats = ctx.store.stats()
    assert stats["hits"] == 0
    assert stats["puts"] == stats["misses"] == 48 + 32


def test_fig12_simulates_only_its_first_point(simulated):
    fig12(_context())
    assert [cfg.inter_gpu_bw_gbps for cfg in simulated] == [100.0] * 12


def test_a_lossy_context_plan_derives_nothing(simulated, monkeypatch):
    derived = []
    monkeypatch.setattr(runner, "derive",
                        lambda *args: derived.append(args))
    fig12(_context(fault_plan=make_fault_plan("lossy")))
    assert derived == []
    assert len(simulated) == 4 * 12


def test_a_noop_context_plan_still_derives(simulated):
    fig12(_context(fault_plan=make_fault_plan("none")))
    assert len(simulated) == 12


def test_store_replay_builds_no_twin(tmp_path, simulated, monkeypatch):
    cold = _context(store=str(tmp_path / "store"))
    fig12(cold)
    faults(cold)
    assert cold.store.stats()["puts"] == 48 + 32
    keys = []
    real = stats.functional_config
    monkeypatch.setattr(stats, "functional_config",
                        lambda *args: keys.append(args) or real(*args))
    simulated.clear()
    warm = _context(store=str(tmp_path / "store"))
    fig12(warm)
    faults(warm)
    assert keys == [] and simulated == []
    assert warm.store.stats()["hits"] == 48 + 32


def test_derived_cells_are_recorded_like_simulated_ones(tmp_path):
    ctx = _context(telemetry_dir=str(tmp_path))
    ctx.run("CoMD", "hmg")
    ctx.run("CoMD", "hmg",
            cfg=ctx.cfg.replace(inter_gpu_bw_gbps=400.0))
    assert len(ctx.manifests_written) == 2
    base, derived = ctx.manifests_written
    sidecar = json.loads((tmp_path / f"{derived}.perf.json").read_text())
    assert sidecar == {"schema": 1, "derived_from": base}
    assert "wall_seconds" in json.loads(
        (tmp_path / f"{base}.perf.json").read_text())
    assert (tmp_path / f"{derived}.metrics.json").exists()
