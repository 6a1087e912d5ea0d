"""Replayable repro files: the one format shared by the model checker,
the fuzzer, and the runtime sanitizer's violation dumps."""

import pickle

import pytest

from repro.config import SystemConfig
from repro.core.hmg import HMGProtocol
from repro.core.sanitizer import CoherenceViolation
from repro.experiments.runner import ExperimentContext
from repro.verify import reprofile
from repro.verify.model import CheckOptions, Geometry, check
from repro.verify.programs import build


@pytest.fixture(scope="module")
def cfg():
    return SystemConfig.paper_scaled(1.0 / 64)


@pytest.fixture()
def counterexample():
    """A real shrunk counterexample from the mutated checker."""
    geometry = Geometry(2, 2)
    options = CheckOptions(mutate="drop_peer_fanout")
    program, homes = build("mp", geometry)
    result = check("hmg", geometry, program, homes, options,
                   program_name="mp")
    assert not result.ok
    return geometry, options, result.violations[0]


class TestScheduleRepro:
    def test_round_trip_reproduces(self, tmp_path, counterexample):
        geometry, options, violation = counterexample
        payload = reprofile.schedule_repro(
            protocol="hmg", geometry=geometry, program="mp",
            options=options, schedule=violation.schedule,
            violation=violation,
        )
        path = reprofile.dump(
            payload, tmp_path / (reprofile.repro_name(payload) + ".json")
        )
        outcome = reprofile.run(path)
        assert outcome["kind"] == "schedule"
        assert outcome["reproduced"]
        assert outcome["observed"] == violation.invariant

    def test_name_is_descriptive(self, counterexample):
        geometry, options, violation = counterexample
        payload = reprofile.schedule_repro(
            protocol="hmg", geometry=geometry, program="mp",
            options=options, schedule=violation.schedule,
            violation=violation,
        )
        name = reprofile.repro_name(payload)
        assert name.startswith("schedule_hmg_2x2_mp_")
        assert violation.invariant in name

    def test_schedule_without_mutation_does_not_reproduce(
            self, tmp_path, counterexample):
        geometry, options, violation = counterexample
        payload = reprofile.schedule_repro(
            protocol="hmg", geometry=geometry, program="mp",
            options=CheckOptions(), schedule=violation.schedule,
            violation=violation,
        )
        outcome = reprofile.run(payload)
        assert not outcome["reproduced"]


class TestTraceRepro:
    def test_config_repr_round_trip(self, cfg):
        assert reprofile.config_from_repr(repr(cfg)) == cfg

    def test_config_repr_rejects_code(self):
        with pytest.raises(Exception):
            reprofile.config_from_repr("__import__('os').getcwd()")

    def test_healthy_trace_repro_reports_unreproduced(self, tmp_path,
                                                      cfg):
        violation = CoherenceViolation("directory-coverage", "synthetic")
        payload = reprofile.trace_repro(
            workload="RNN_FW", protocol="hmg", cfg=cfg, seed=1,
            ops_scale=0.03, placement="first_touch",
            engine="throughput", fault_plan=None, violation=violation,
        )
        path = reprofile.dump(
            payload, tmp_path / (reprofile.repro_name(payload) + ".json")
        )
        outcome = reprofile.run(path)
        assert outcome["kind"] == "trace"
        assert not outcome["reproduced"]
        assert outcome["expected"] == "directory-coverage"

    def test_load_validates_format(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError, match="not a hmg-repro"):
            reprofile.load(bad)


class TestViolationTransport:
    """CoherenceViolation must survive the worker->parent pickle hop
    with its repro tagging intact."""

    def test_pickle_round_trip(self):
        v = CoherenceViolation("swmr-at-scope", "two writers", op=None,
                               op_index=17)
        v.cell_info = {"workload": "CoMD", "protocol": "hmg"}
        v2 = pickle.loads(pickle.dumps(v))
        assert v2.invariant == "swmr-at-scope"
        assert v2.op_index == 17
        assert v2.cell_info == v.cell_info
        assert "two writers" in str(v2)


def _worker_raises_in(tripped):
    """A stand-in for ``SweepExecutor.run`` whose worker trips the
    sanitizer in ``tripped`` and tags the violation as
    ``parallel.run_cell`` does."""

    def run(cells):
        v = CoherenceViolation("swmr-at-scope", "stub")
        v.cell_info = {"workload": tripped.workload,
                       "protocol": tripped.protocol,
                       "placement": tripped.placement,
                       "fingerprint": tripped.fingerprint}
        raise v

    return run


class TestRunnerReproDir:
    def test_serial_violation_dumps_repro(self, tmp_path, cfg,
                                          monkeypatch):
        monkeypatch.setattr(HMGProtocol, "_inv_sharers",
                            lambda self, *a, **k: None)
        ctx = ExperimentContext(cfg, seed=1, ops_scale=0.03,
                                sanitize=True, repro_dir=str(tmp_path))
        with pytest.raises(CoherenceViolation) as excinfo:
            ctx.run("CoMD", "hmg")
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 1
        payload = reprofile.load(files[0])
        assert payload["kind"] == "trace"
        assert payload["workload"] == "CoMD"
        assert payload["protocol"] == "hmg"
        assert excinfo.value.cell_info["repro"] == str(files[0])

    def test_sweep_variant_repro_replays_the_sweep_trace(self, tmp_path,
                                                         monkeypatch):
        """fig13's 2x-L2 cell simulates the trace generated against the
        base config; its repro regenerates that trace, while a payload
        without a trace config falls back to the run config's trace."""
        monkeypatch.setattr(HMGProtocol, "_inv_sharers",
                            lambda self, *a, **k: None)
        base = SystemConfig.paper_scaled(1.0 / 64)
        ctx = ExperimentContext(base, seed=1, ops_scale=0.05,
                                sanitize=True, repro_dir=str(tmp_path))
        with pytest.raises(CoherenceViolation):
            ctx.run("CoMD", "hmg", cfg=base.replace(
                l2_bytes_per_gpu=2 * base.l2_bytes_per_gpu))
        payload = reprofile.load(next(tmp_path.glob("*.json")))
        assert len(ctx.trace("CoMD")) == 6208
        assert len(reprofile.replay_trace(payload)) == 6208
        del payload["trace_config"]
        assert len(reprofile.replay_trace(payload)) == 6224

    def test_parallel_branch_dumps_tagged_cell(self, tmp_path, cfg):
        ctx = ExperimentContext(cfg, seed=1, ops_scale=0.03,
                                sanitize=True, repro_dir=str(tmp_path),
                                jobs=2)

        ctx._executor.run = _worker_raises_in(ctx.cell("CoMD", "hmg"))
        with pytest.raises(CoherenceViolation):
            ctx.run_many([("CoMD", "nhcc"), ("CoMD", "hmg")])
        files = sorted(tmp_path.glob("*.json"))
        assert [f.name for f in files] == \
            ["trace_CoMD_hmg_throughput_swmr-at-scope.json"]

    def test_parallel_branch_dumps_the_cell_that_tripped(self, tmp_path,
                                                         cfg):
        """Cells that differ only in placement are told apart: the
        repro names the placement of the cell the worker tagged."""
        ctx = ExperimentContext(cfg, seed=1, ops_scale=0.03,
                                sanitize=True, repro_dir=str(tmp_path),
                                jobs=2)
        ctx._executor.run = _worker_raises_in(
            ctx.cell("CoMD", "hmg", placement="round_robin"))
        with pytest.raises(CoherenceViolation):
            ctx.run_many([("CoMD", "hmg", None, "first_touch"),
                          ("CoMD", "hmg", None, "round_robin")])
        (path,) = tmp_path.glob("*.json")
        assert reprofile.load(path)["placement"] == "round_robin"

    def test_no_repro_dir_still_raises(self, cfg, monkeypatch):
        monkeypatch.setattr(HMGProtocol, "_inv_sharers",
                            lambda self, *a, **k: None)
        ctx = ExperimentContext(cfg, seed=1, ops_scale=0.03,
                                sanitize=True)
        with pytest.raises(CoherenceViolation):
            ctx.run("CoMD", "hmg")


class TestCli:
    def test_verify_dispatch_from_experiments_cli(self, capsys):
        from repro.experiments.cli import main

        assert main(["verify", "check", "--protocol", "hmg",
                     "--geometry", "1x2", "--program", "mp"]) == 0
        out = capsys.readouterr().out
        assert "0 failing" in out

    def test_repro_run_exit_codes(self, tmp_path, counterexample):
        from repro.verify.cli import main

        geometry, options, violation = counterexample
        payload = reprofile.schedule_repro(
            protocol="hmg", geometry=geometry, program="mp",
            options=options, schedule=violation.schedule,
            violation=violation,
        )
        path = reprofile.dump(payload, tmp_path / "ce.json")
        assert main(["repro", "run", str(path)]) == 0
        # The same schedule without the mutation does not reproduce.
        payload["options"]["mutate"] = None
        stale = reprofile.dump(payload, tmp_path / "stale.json")
        assert main(["repro", "run", str(stale)]) == 1
