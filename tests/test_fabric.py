"""Sweep fabric: crash recovery, timeouts, retries, graceful gaps."""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.experiments import cli
from repro.experiments.fabric import FabricStats, retry_delay
from repro.experiments.parallel import Cell, cell_fingerprint
from repro.experiments.runner import ExperimentContext
from repro.faults.chaos import ChaosError, ChaosPlan, ChaosSpec

CFG = SystemConfig.paper_scaled(1 / 64)
QUICK = dict(seed=1, ops_scale=0.05)
WORKLOADS = ["CoMD", "mst"]
PROTOCOLS = ["sw", "hmg"]


def _fingerprint(workload, protocol):
    return cell_fingerprint(Cell(workload, protocol, CFG))


class TargetedChaos(ChaosPlan):
    """Attack named cells with a fixed mode; picklable for workers.

    ``attempts`` bounds how many attempts get attacked (None = all —
    a permanent failure the fabric must give up on gracefully).
    """

    def __init__(self, victims, attack, attempts=1):
        ChaosPlan.__init__(self, ChaosSpec(hang_seconds=30.0), seed=0)
        self.victims = frozenset(victims)
        self.attack = attack
        self.attempts = attempts

    def decide(self, fingerprint, attempt):
        if fingerprint not in self.victims:
            return None
        if self.attempts is not None and attempt > self.attempts:
            return None
        return self.attack


def _sweep(jobs, chaos=None, **kwargs):
    ctx = ExperimentContext(CFG, workloads=WORKLOADS, jobs=jobs,
                            **QUICK, **kwargs)
    if chaos is not None:
        ctx._executor.chaos = chaos
    table = ctx.speedup_table(PROTOCOLS)
    return table, ctx


class TestRetryDelay:
    def test_deterministic_and_exponential(self):
        d1 = retry_delay(1, "abcd", 1, 0.5)
        assert d1 == retry_delay(1, "abcd", 1, 0.5)
        assert retry_delay(2, "abcd", 1, 0.5) != d1
        assert retry_delay(1, "efgh", 1, 0.5) != d1
        for attempt in (1, 2, 3):
            base = 0.5 * 2 ** (attempt - 1)
            d = retry_delay(1, "abcd", attempt, 0.5)
            assert 0.5 * base <= d <= 1.5 * base


class TestChaosPlan:
    def test_decisions_are_pure(self):
        spec = ChaosSpec(kill_fraction=0.3, hang_fraction=0.3,
                         error_fraction=0.3)
        a = ChaosPlan(spec, seed=9)
        b = ChaosPlan(spec, seed=9)
        decisions = [a.decide(f"cell{i}", 1) for i in range(50)]
        assert decisions == [b.decide(f"cell{i}", 1) for i in range(50)]
        assert len(set(decisions)) == 4  # all three attacks + None

    def test_attacks_bounded_per_cell(self):
        plan = ChaosPlan(ChaosSpec(error_fraction=1.0), seed=1)
        assert plan.decide("x", 1) == "error"
        assert plan.decide("x", 2) is None  # retry is always clean

    def test_apply_raises_transient_error(self):
        plan = ChaosPlan(ChaosSpec(error_fraction=1.0), seed=1)
        with pytest.raises(ChaosError):
            plan.apply("x", 1)
        plan.apply("x", 2)  # past the attack budget: clean


class TestCrashRecovery:
    def test_sigkill_recovery_byte_identical(self, tmp_path, manifests):
        reference, serial = _sweep(1, telemetry_dir=tmp_path / "serial")

        chaos = TargetedChaos(
            [_fingerprint("CoMD", "hmg"), _fingerprint("mst", "sw")],
            "kill",
        )
        recovered, ctx = _sweep(3, chaos=chaos,
                                telemetry_dir=tmp_path / "chaos")

        assert recovered.rows == reference.rows
        assert not ctx.failed_cells
        stats = ctx._executor.fabric_stats
        assert stats.worker_deaths >= 2
        assert stats.respawns >= 2
        assert stats.retries >= 2
        assert serial.manifests_written
        assert (manifests(ctx, tmp_path / "chaos")
                == manifests(serial, tmp_path / "serial"))

    def test_hung_cell_timeout_recovery(self):
        reference, _ = _sweep(1)
        chaos = TargetedChaos([_fingerprint("CoMD", "hmg")], "hang")
        recovered, ctx = _sweep(2, chaos=chaos, cell_timeout=2.0)
        assert recovered.rows == reference.rows
        assert not ctx.failed_cells
        stats = ctx._executor.fabric_stats
        assert stats.timeouts >= 1
        assert stats.retries >= 1

    def test_transient_error_retried(self):
        reference, _ = _sweep(1)
        chaos = TargetedChaos([_fingerprint("mst", "hmg")], "error")
        recovered, ctx = _sweep(2, chaos=chaos)
        assert recovered.rows == reference.rows
        assert not ctx.failed_cells
        assert ctx._executor.fabric_stats.retries >= 1


class TestGracefulDegradation:
    def test_permanent_failure_renders_gap(self):
        chaos = TargetedChaos([_fingerprint("CoMD", "hmg")], "error",
                              attempts=None)
        table, ctx = _sweep(2, chaos=chaos, max_retries=1)
        assert table.rows["CoMD"]["hmg"] is None
        assert table.rows["CoMD"]["sw"] is not None
        assert table.rows["mst"]["hmg"] is not None
        assert table.gaps() == 1
        # Geomeans exclude the gap instead of crashing.
        assert table.geomeans()["hmg"] is not None
        assert len(ctx.failed_cells) == 1
        record = ctx.failed_cells[0]
        assert record["workload"] == "CoMD"
        assert record["protocol"] == "hmg"
        assert record["attempts"] == 2  # first try + max_retries
        assert "ChaosError" in record["error"]

    def test_gap_rendered_as_dashes(self):
        from repro.analysis.report import format_speedup_table
        from repro.experiments.runner import PROTOCOL_LABELS

        chaos = TargetedChaos([_fingerprint("CoMD", "hmg")], "error",
                              attempts=None)
        table, _ = _sweep(2, chaos=chaos, max_retries=0)
        text = format_speedup_table(table, PROTOCOL_LABELS)
        assert "--" in text
        assert "failed permanently" in text

    def test_failed_baseline_gaps_whole_row(self):
        chaos = TargetedChaos([_fingerprint("CoMD", "noremote")],
                              "error", attempts=None)
        table, ctx = _sweep(2, chaos=chaos, max_retries=0)
        assert all(v is None for v in table.rows["CoMD"].values())
        assert all(v is not None for v in table.rows["mst"].values())

    def test_failed_cells_are_not_stored(self, tmp_path):
        """A gap is never stored, so the next run over the same store
        replays every other cell and retries the gap."""
        chaos = TargetedChaos([_fingerprint("mst", "sw")], "error",
                              attempts=None)
        table, ctx = _sweep(2, chaos=chaos, max_retries=0,
                            store=tmp_path / "s")
        assert table.rows["mst"]["sw"] is None
        cells = len(WORKLOADS) * (1 + len(PROTOCOLS))
        assert ctx.store.puts == cells - 1
        ctx.store.close()
        retried, ctx = _sweep(1, store=tmp_path / "s")
        assert retried.rows["mst"]["sw"] is not None
        assert ctx.store.hits == cells - 1
        assert ctx.store.puts == 1


class TestCliIntegration:
    ARGS = ["fig8", "--scale", str(1 / 64), "--ops-scale", "0.05",
            "--workloads", *WORKLOADS]

    def test_fabric_flags_accepted(self, capsys):
        code = cli.main([*self.ARGS, "--jobs", "2", "--cell-timeout",
                         "60", "--max-retries", "1"])
        assert code == 0
        assert "GeoMean" in capsys.readouterr().out

    def test_store_flag_round_trip(self, tmp_path, capsys):
        args = [*self.ARGS, "--store", str(tmp_path / "s"),
                "--registry", str(tmp_path / "reg")]
        assert cli.main(args) == 0
        cold = capsys.readouterr()
        assert cli.main(args) == 0
        warm = capsys.readouterr()
        assert "0 replayed" in cold.err
        assert "newly stored" in cold.err
        assert "0 newly stored" in warm.err
        table = [ln for ln in cold.out.splitlines() if "GeoMean" in ln]
        assert table and table == [
            ln for ln in warm.out.splitlines() if "GeoMean" in ln
        ]

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        from repro.experiments.registry import EXPERIMENTS

        def interrupted(_ctx):
            raise KeyboardInterrupt

        monkeypatch.setitem(EXPERIMENTS, "fig8", interrupted)
        assert cli.main(self.ARGS) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_failed_cells_exit_code_and_manifest(self, tmp_path,
                                                 monkeypatch, capsys):
        # Force every parallel cell to fail permanently: chaos attacks
        # all attempts and no retries are allowed.
        original_init = ExperimentContext.__init__

        def chaotic_init(self, *a, **kw):
            original_init(self, *a, **kw)
            self._executor.chaos = TargetedChaos(
                [_fingerprint("CoMD", "hmg")], "error", attempts=None)
            self._executor.max_retries = 0

        monkeypatch.setattr(ExperimentContext, "__init__", chaotic_init)
        code = cli.main([*self.ARGS, "--jobs", "2", "--telemetry",
                         str(tmp_path / "t"),
                         "--registry", str(tmp_path / "reg")])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed permanently" in err
        manifest = json.loads(
            (tmp_path / "t" / "failed_cells.json").read_text()
        )
        assert manifest[0]["workload"] == "CoMD"
        assert manifest[0]["protocol"] == "hmg"
        fabric = json.loads((tmp_path / "t" / "fabric.json").read_text())
        assert fabric["failed"] == 1
        assert "steals" not in fabric
        from repro.telemetry.session import RunRegistry

        runs = RunRegistry(tmp_path / "reg").runs()
        assert runs and runs[-1]["info"]["status"] == "failed"

    def test_clean_run_removes_stale_sidecars(self, tmp_path, capsys):
        """The fabric and failed-cell sidecars describe the run that
        wrote the directory last: a clean serial run removes what an
        earlier run left there."""
        from repro.telemetry.aggregate import load_run, run_summary

        tel = tmp_path / "t"
        tel.mkdir()
        stale = {
            "failed_cells.json": [{"workload": "CoMD", "protocol": "hmg",
                                   "error": "boom", "attempts": 3}],
            "fabric.json": {"cells": 14, "completed": 13, "failed": 1},
            "fabric.perf.json": {"steals": 4, "reassigned": 0,
                                 "heartbeats": 9},
        }
        for name, payload in stale.items():
            (tel / name).write_text(json.dumps(payload))
        assert cli.main([*self.ARGS, "--telemetry", str(tel),
                         "--no-registry"]) == 0
        capsys.readouterr()
        assert not [name for name in stale if (tel / name).exists()]
        summary = run_summary(load_run(tel))
        assert summary["failed_cells"] == 0
        assert summary["fabric"] is None

    def test_identical_parallel_runs_leave_identical_telemetry(
            self, tmp_path, capsys):
        """Only the perf sidecars may differ between two identical
        ``--jobs 2`` runs; the dashboard still sees every fabric
        counter."""
        from repro.telemetry.aggregate import load_run

        trees = []
        for label in ("a", "b"):
            assert cli.main([*self.ARGS, "--jobs", "2", "--telemetry",
                             str(tmp_path / label), "--no-registry"]) == 0
            trees.append({path.name: path.read_bytes() for path in
                          sorted((tmp_path / label).iterdir())
                          if not path.name.endswith(".perf.json")})
        capsys.readouterr()
        assert trees[0] == trees[1]
        fabric = json.loads(trees[0]["fabric.json"])
        assert fabric["cells"] > 1
        assert not set(fabric) & set(FabricStats.HOST_COUNTERS)
        merged = load_run(tmp_path / "a")["fabric"]
        assert set(merged) == set(FabricStats().as_dict())
