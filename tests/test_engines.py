"""Timing engines: throughput accounting, detailed replay, results."""

import time

import pytest

from repro.config import SystemConfig
from repro.core.types import MsgType, NodeId
from repro.engine.simulator import compare, simulate, speedups
from repro.engine.stats import ResourceTimes
from repro.engine.throughput import ThroughputSink
from repro.trace.batch import BatchTrace
from repro.trace.generator import WorkloadSpec
from repro.trace.workloads import WORKLOADS
from tests.conftest import N00, N10, ld, st


@pytest.fixture(scope="module")
def cfg():
    return SystemConfig.paper_scaled(1 / 64)


@pytest.fixture(scope="module")
def trace(cfg):
    return list(WORKLOADS["RNN_FW"].generate(cfg, seed=1, ops_scale=0.05))


class TestThroughputSink:
    def test_intra_gpu_hits_xbar_only(self):
        sink = ThroughputSink(4)
        sink.send(MsgType.LOAD_REQ, NodeId(0, 0), NodeId(0, 1), 0, 100)
        assert sink.xbar_bytes == [100, 0, 0, 0]
        assert sum(sink.link_out_bytes) == 0

    def test_inter_gpu_hits_both_links(self):
        sink = ThroughputSink(4)
        sink.send(MsgType.DATA_RESP, NodeId(0, 0), NodeId(2, 1), 0, 144)
        assert sink.xbar_bytes == [144, 0, 144, 0]
        assert sink.link_out_bytes == [144, 0, 0, 0]
        assert sink.link_in_bytes == [0, 0, 144, 0]

    def test_self_send_ignored(self):
        sink = ThroughputSink(4)
        sink.send(MsgType.LOAD_REQ, NodeId(0, 0), NodeId(0, 0), 0, 100)
        assert sum(sink.xbar_bytes) == 0


class TestResourceTimes:
    def test_bottleneck(self):
        rt = ResourceTimes(issue=[1, 2], l2=[0], dram=[5], xbar=[3],
                           link=[4])
        assert rt.bottleneck() == ("dram", 0, 5)
        assert rt.max_cycles == 5

    def test_total_cycles_overlap(self):
        rt = ResourceTimes(issue=[10], l2=[2], dram=[4], xbar=[0],
                           link=[8])
        assert rt.total_cycles(0.0) == 10
        assert rt.total_cycles(0.25) == pytest.approx(10 + 0.25 * 14)

    def test_class_maxima(self):
        rt = ResourceTimes(issue=[1, 7], l2=[2], dram=[3], xbar=[4],
                           link=[5])
        assert rt.class_maxima()["issue"] == 7


class TestSimulate:
    def test_result_fields(self, cfg, trace):
        r = simulate(trace, cfg, protocol="hmg", workload_name="t")
        assert r.protocol_name == "hmg"
        assert r.cycles > 0
        assert r.ops == len(trace)
        assert r.seconds > 0
        assert 0 <= r.l2_stats.hit_rate <= 1
        assert r.bottleneck
        assert "t" in r.summary()

    def test_deterministic(self, cfg, trace):
        a = simulate(trace, cfg, protocol="hmg")
        b = simulate(trace, cfg, protocol="hmg")
        assert a.cycles == b.cycles
        assert a.stats.msg_bytes == b.stats.msg_bytes

    def test_unknown_engine(self, cfg, trace):
        with pytest.raises(ValueError):
            simulate(trace, cfg, protocol="hmg", engine="magic")

    def test_compare_and_speedups(self, cfg, trace):
        results = compare(trace, cfg, ["noremote", "sw", "hmg"])
        sp = speedups(results)
        assert set(sp) == {"sw", "hmg"}
        assert all(v > 0 for v in sp.values())

    def test_speedups_requires_baseline(self, cfg, trace):
        results = compare(trace, cfg, ["sw", "hmg"])
        with pytest.raises(KeyError):
            speedups(results)

    def test_inv_bandwidth_zero_for_sw(self, cfg, trace):
        r = simulate(trace, cfg, protocol="sw")
        assert r.inv_bandwidth_gbps == 0.0

    def test_hmg_beats_baseline_on_sharing_workload(self, cfg, trace):
        results = compare(trace, cfg, ["noremote", "hmg"])
        assert speedups(results)["hmg"] > 1.0

    def test_wall_seconds_excludes_building_ops(self, cfg, monkeypatch):
        """A column-form trace builds its MemOps before the loop's clock
        starts, so wall_seconds stays loop-only on the first run."""
        generated = WORKLOADS["CoMD"].generate(cfg, seed=1, ops_scale=0.02)
        to_ops = BatchTrace.to_ops

        def slow_to_ops(batch):
            time.sleep(0.5)
            return to_ops(batch)

        monkeypatch.setattr(BatchTrace, "to_ops", slow_to_ops)
        start = time.perf_counter()
        r = simulate(generated, cfg, protocol="hmg")
        assert time.perf_counter() - start >= 0.5
        assert r.ops == len(generated)
        assert r.wall_seconds < 0.5


class TestDetailedEngine:
    def test_runs_and_reports(self, cfg, trace):
        r = simulate(trace, cfg, protocol="hmg", engine="detailed")
        assert r.cycles > 0
        assert r.ops == len(trace)
        assert r.inter_gpu_bytes > 0

    def test_deterministic(self, cfg, trace):
        a = simulate(trace, cfg, protocol="sw", engine="detailed")
        b = simulate(trace, cfg, protocol="sw", engine="detailed")
        assert a.cycles == b.cycles

    def test_caching_wins_on_long_kernels(self, cfg):
        """With long kernels (bandwidth-dominated), the detailed engine
        agrees with the throughput engine that caching beats the
        no-remote-caching baseline."""
        spec = WorkloadSpec(
            name="m", abbrev="m", suite="micro", footprint_mb=1,
            pattern="dense_ml", kernels=2, ops_per_gpm_per_kernel=2000,
            params={"remote_frac": 0.3, "reuse": 4, "hier_frac": 0.9,
                    "act_mult": 0.4, "cold_frac": 0.0},
        )
        trace = list(spec.generate(cfg, seed=1))
        base = simulate(trace, cfg, protocol="noremote", engine="detailed")
        hmg = simulate(trace, cfg, protocol="hmg", engine="detailed")
        assert base.cycles > hmg.cycles

    def test_boundary_rendezvous(self, cfg):
        """Kernel boundaries synchronize the GPMs: no GPM's issue clock
        may end a whole kernel ahead of the others."""
        trace = list(WORKLOADS["CoMD"].generate(cfg, seed=1,
                                                ops_scale=0.05))
        r = simulate(trace, cfg, protocol="sw", engine="detailed")
        assert r.cycles > 0  # completed without deadlock
