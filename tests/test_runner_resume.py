"""Crash-safe runner: journaling, --resume replay, timeouts, retries."""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.engine.simulator import simulate
from repro.experiments import cli, runner
from repro.experiments.journal import RunJournal
from repro.experiments.runner import ExperimentContext, ExperimentResult


CFG = SystemConfig.paper_scaled(1 / 64)
QUICK = dict(seed=1, ops_scale=0.05, workloads=["RNN_FW", "CoMD"])


def _cli(tmp_path, *extra):
    """Common fast CLI argument set pointing at a tmp journal."""
    return ["--scale", str(1 / 64), "--ops-scale", "0.05",
            "--workloads", "RNN_FW", "CoMD",
            "--journal", str(tmp_path / "journal"), *extra]


def _simulated(monkeypatch, interrupt_after=None):
    """Record the (workload, protocol) of every cell the runner
    simulates; with ``interrupt_after``, Ctrl-C the run as the next
    cell starts."""
    calls = []

    def recording(trace, cfg, **kwargs):
        if len(calls) == interrupt_after:
            raise KeyboardInterrupt
        calls.append((kwargs["workload_name"], kwargs["protocol"]))
        return simulate(trace, cfg, **kwargs)

    monkeypatch.setattr(runner, "simulate", recording)
    return calls


def _figures(out):
    """Printed output minus the wall-clock trailers."""
    return [line for line in out.splitlines()
            if not (line.startswith("[") and line.endswith("]"))]


class TestJournal:
    def test_context_mismatch_blocks_reuse(self, tmp_path):
        a = RunJournal(tmp_path / "j", context_key={"seed": 1})
        assert a.compatible
        a.record_experiment(ExperimentResult("probe", "Probe", "text"))
        assert a.completed("probe")["text"] == "text"
        b = RunJournal(tmp_path / "j", context_key={"seed": 2})
        assert not b.compatible
        assert b.completed("probe") is None


class TestResume:
    def test_interrupted_sweep_replays_identically(self, tmp_path,
                                                   capsys):
        args = _cli(tmp_path, "table1", "hwcost")
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        # A second invocation with --resume must replay, not re-run.
        assert cli.main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "[table1: cached from journal]" in second
        assert "[hwcost: cached from journal]" in second
        # The replayed tables are byte-identical to the original output.
        for line in first.splitlines():
            if line.startswith("[") and line.endswith("]"):
                continue  # timing footers differ by design
            assert line in second

    def test_partial_journal_runs_only_missing(self, tmp_path, capsys):
        assert cli.main(_cli(tmp_path, "hwcost")) == 0
        capsys.readouterr()
        assert cli.main(_cli(tmp_path, "hwcost", "table1",
                             "--resume")) == 0
        out = capsys.readouterr().out
        assert "[hwcost: cached from journal]" in out
        assert "[table1: cached from journal]" not in out  # fresh run

    def test_resume_under_different_settings_reruns(self, tmp_path,
                                                    capsys):
        assert cli.main(_cli(tmp_path, "hwcost")) == 0
        capsys.readouterr()
        args = ["--scale", str(1 / 64), "--ops-scale", "0.1",
                "--workloads", "RNN_FW", "CoMD",
                "--journal", str(tmp_path / "journal"),
                "hwcost", "--resume"]
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        assert "cached from journal" not in captured.out
        assert "different settings" in captured.err

    def test_journal_resumes_after_a_run_under_other_settings(
            self, tmp_path, capsys):
        """A journal used once under other settings resumes under the
        settings of its latest run: it records them in meta.json."""
        assert cli.main(_cli(tmp_path, "hwcost", "--seed", "1")) == 0
        assert "different settings" not in capsys.readouterr().err
        assert cli.main(_cli(tmp_path, "hwcost", "--seed", "2")) == 0
        assert "different settings" in capsys.readouterr().err
        meta = json.loads((tmp_path / "journal" / "meta.json").read_text())
        assert meta["seed"] == 2
        assert cli.main(_cli(tmp_path, "hwcost", "--seed", "2",
                             "--resume")) == 0
        captured = capsys.readouterr()
        assert "[hwcost: cached from journal]" in captured.out
        assert "different settings" not in captured.err


class TestJournalStore:
    """Without ``--store``, ``--journal DIR`` keeps the results store in
    ``DIR/store``: cells replay across experiments and across an
    interrupted run."""

    ARGS = ["--scale", str(1 / 64), "--ops-scale", "0.05",
            "--workloads", "RNN_FW", "CoMD"]

    def test_second_experiment_replays_the_first_ones_cells(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["fig9", *self.ARGS]) == 0
        fresh = capsys.readouterr().out
        assert cli.main(["fig8", *self.ARGS, "--journal", "J"]) == 0
        capsys.readouterr()
        calls = _simulated(monkeypatch)
        assert cli.main(["fig9", *self.ARGS, "--journal", "J"]) == 0
        captured = capsys.readouterr()
        assert calls == []
        assert _figures(captured.out) == _figures(fresh)
        assert ", 0 newly stored" in captured.err
        # Nothing outside the journal: no registry, no other store.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["J"]
        assert sorted(p.name for p in (tmp_path / "J").iterdir()) == [
            "meta.json", "results", "store"]

    def test_interrupted_experiment_resumes_cell_by_cell(
            self, tmp_path, capsys, monkeypatch):
        everything = _simulated(monkeypatch)
        assert cli.main(["fig8", *self.ARGS]) == 0
        fresh = capsys.readouterr().out
        args = ["fig8", *self.ARGS, "--journal", str(tmp_path / "J")]
        done = _simulated(monkeypatch, interrupt_after=3)
        assert cli.main(args) == 130
        capsys.readouterr()
        assert len(done) == 3
        rest = _simulated(monkeypatch)
        assert cli.main([*args, "--resume"]) == 0
        out = capsys.readouterr().out
        assert not set(done) & set(rest)
        assert sorted(done + rest) == sorted(everything)
        assert _figures(out) == _figures(fresh)


class TestCLIErrors:
    def test_unknown_id_exits_2_and_lists_valid(self, capsys):
        assert cli.main(["no-such-experiment"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment(s): no-such-experiment" in err
        assert "table1" in err and "faults" in err

    def test_failures_are_collected_not_fatal(self, tmp_path, capsys,
                                              monkeypatch):
        def boom(ctx):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(cli.EXPERIMENTS, "hwcost", boom)
        code = cli.main(_cli(tmp_path, "hwcost", "table1",
                             "--retries", "0"))
        assert code == 1
        captured = capsys.readouterr()
        assert "hwcost FAILED" in captured.err
        assert "1 of 2 experiment(s) failed" in captured.err
        assert "Table I" in captured.out  # table1 still ran and printed


class TestTimeoutsAndRetries:
    def test_timeout_raises_experiment_timeout(self):
        def sleepy(ctx):
            import time
            time.sleep(5)

        with pytest.raises(cli.ExperimentTimeout, match="probe"):
            cli.run_with_retries(sleepy, None, "probe", timeout=0.05,
                                 retries=0)

    def test_transient_failure_retries_with_backoff(self):
        attempts = []
        pauses = []

        def flaky(ctx):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "ok"

        result = cli.run_with_retries(flaky, None, "probe", retries=3,
                                      backoff=1.0, sleep=pauses.append)
        assert result == "ok"
        assert len(attempts) == 3
        assert pauses == [1.0, 2.0]  # exponential backoff

    def test_retries_exhausted_reraises(self):
        def always_down(ctx):
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError, match="permanent"):
            cli.run_with_retries(always_down, None, "probe", retries=2,
                                 sleep=lambda _s: None)

    def test_keyboard_interrupt_is_never_retried(self):
        calls = []

        def interrupted(ctx):
            calls.append(1)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cli.run_with_retries(interrupted, None, "probe", retries=5,
                                 sleep=lambda _s: None)
        assert len(calls) == 1


class TestFaultsExperiment:
    def test_quick_run_is_deterministic(self, tmp_path, capsys):
        args = ["faults", "--scale", str(1 / 64), "--ops-scale", "0.05",
                "--workloads", "RNN_FW", "CoMD"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        strip = [ln for ln in first.splitlines()
                 if not (ln.startswith("[") and ln.endswith("]"))]
        for line in strip:
            assert line in second

    def test_series_covers_all_arms(self):
        from repro.experiments.faults import faults
        ctx = ExperimentContext(CFG, **QUICK)
        result = faults(ctx)
        arms = ["none", "degraded", "flaky", "lossy"]
        assert result.data["plans"] == arms
        for protocol in ("nhcc", "hmg", "ideal"):
            assert set(result.data["series"][protocol]) == set(arms)
            for value in result.data["series"][protocol].values():
                assert value > 0
        # The lossy arm reports recovery counters alongside speedups.
        assert result.data["degradation"]["lossy"]["retries"] > 0
