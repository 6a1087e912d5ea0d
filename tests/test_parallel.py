"""Parallel sweep executor: determinism, dedup, CLI integration."""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.experiments import cli
from repro.experiments.parallel import (
    Cell,
    cell_key,
    config_fingerprint,
    plan_fingerprint,
)
from repro.experiments.runner import ExperimentContext
from repro.faults.plan import FaultPlan, LinkFaultSpec

CFG = SystemConfig.paper_scaled(1 / 64)
QUICK = dict(seed=1, ops_scale=0.05)
WORKLOADS = ["CoMD", "mst"]
PROTOCOLS = ["sw", "nhcc", "hmg"]

PLAN = FaultPlan(
    "degraded-link",
    link_faults=[LinkFaultSpec(target="link", period=2000.0,
                               duration=500.0, bandwidth_factor=0.5)],
    seed=7,
)


def _table(ctx, fault_plan=None):
    return ctx.speedup_table(PROTOCOLS, fault_plan=fault_plan)


class TestCellKeys:
    def test_key_is_stable_and_discriminating(self):
        k = cell_key("CoMD", "hmg", CFG, "first_touch", None)
        assert k == cell_key("CoMD", "hmg", CFG, "first_touch", None)
        assert k != cell_key("CoMD", "sw", CFG, "first_touch", None)
        assert k != cell_key("mst", "hmg", CFG, "first_touch", None)
        assert k != cell_key("CoMD", "hmg", CFG, "round_robin", None)
        assert k != cell_key("CoMD", "hmg", CFG, "first_touch", PLAN)
        other = SystemConfig.paper_scaled(1 / 32)
        assert k != cell_key("CoMD", "hmg", other, "first_touch", None)

    def test_config_fingerprint_sees_latencies(self):
        from repro.config import LatencyConfig

        slow = CFG.replace(latency=LatencyConfig(dram_access=999))
        assert config_fingerprint(slow) != config_fingerprint(CFG)

    def test_one_hash_per_config_object(self, monkeypatch, tmp_path):
        import hashlib
        from types import SimpleNamespace

        from repro.experiments import parallel
        from repro.telemetry.manifest import (cell_manifest, cell_slug,
                                              write_cell_artifacts)

        result = ExperimentContext(CFG, workloads=WORKLOADS,
                                   **QUICK).run("CoMD", "hmg")
        hashed = []

        def sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(parallel, "hashlib",
                            SimpleNamespace(sha256=sha256))
        cfg = CFG.replace(inter_gpu_bw_gbps=CFG.inter_gpu_bw_gbps)
        fp = config_fingerprint(cfg)
        cell_key("CoMD", "hmg", cfg, "first_touch", None)
        slug = cell_slug("CoMD", "hmg", cfg, "first_touch")
        manifest = cell_manifest(result, workload="CoMD", protocol="hmg",
                                 cfg=cfg)
        assert write_cell_artifacts(tmp_path, result, workload="CoMD",
                                    protocol="hmg", cfg=cfg,
                                    placement="first_touch") == slug
        assert manifest["cell"]["config_fingerprint"] == fp
        assert hashed == [repr(cfg).encode()]
        # Another object equal by value is hashed for itself.
        assert config_fingerprint(CFG.replace()) == fp
        assert len(hashed) == 2

    def test_equal_configs_keep_their_own_fingerprints(self):
        """``repr`` tells 100 from 100.0, so equal configs can hash
        apart; which one is fingerprinted first must not matter."""
        base = SystemConfig.paper_scaled(1 / 16)
        expected = {int: "79ae4fcf", float: "742c3e46"}
        for order in ((100, 100.0), (100.0, 100)):
            cfgs = [base.replace(inter_gpu_bw_gbps=bw) for bw in order]
            assert cfgs[0] == cfgs[1]
            for bw, cfg in zip(order, cfgs):
                assert config_fingerprint(cfg).startswith(
                    expected[type(bw)]), bw

    def test_fingerprint_stays_out_of_the_pickle(self):
        import pickle

        cfg = CFG.replace(inter_gpu_bw_gbps=CFG.inter_gpu_bw_gbps)
        before = pickle.dumps(cfg)
        config_fingerprint(cfg)
        assert pickle.dumps(cfg) == before
        copy = pickle.loads(before)
        assert config_fingerprint(copy) == config_fingerprint(cfg)

    def test_plan_fingerprint(self):
        assert plan_fingerprint(None) == ""
        assert plan_fingerprint(PLAN) == plan_fingerprint(PLAN)
        reseeded = FaultPlan(PLAN.name, PLAN.link_faults, seed=8)
        assert plan_fingerprint(reseeded) != plan_fingerprint(PLAN)


class TestDeterminism:
    def test_parallel_table_matches_serial(self):
        serial = ExperimentContext(CFG, workloads=WORKLOADS, **QUICK)
        parallel = ExperimentContext(CFG, workloads=WORKLOADS, jobs=4,
                                     **QUICK)
        assert _table(serial).rows == _table(parallel).rows

    def test_parallel_matches_serial_under_fault_plan(self):
        serial = ExperimentContext(CFG, workloads=WORKLOADS, **QUICK)
        parallel = ExperimentContext(CFG, workloads=WORKLOADS, jobs=4,
                                     **QUICK)
        assert _table(serial, PLAN).rows == _table(parallel, PLAN).rows

    def test_parallel_manifests_match_serial(self, tmp_path, manifests):
        tables, written = {}, {}
        for label, jobs in (("serial", 1), ("parallel", 3)):
            ctx = ExperimentContext(CFG, workloads=WORKLOADS, jobs=jobs,
                                    telemetry_dir=tmp_path / label,
                                    **QUICK)
            tables[label] = _table(ctx)
            written[label] = manifests(ctx, tmp_path / label)
        assert written["serial"][0]
        assert written["serial"] == written["parallel"]
        assert tables["serial"].rows == tables["parallel"].rows

    def test_parallel_with_trace_cache_matches(self, tmp_path):
        serial = ExperimentContext(CFG, workloads=WORKLOADS, **QUICK)
        parallel = ExperimentContext(CFG, workloads=WORKLOADS, jobs=4,
                                     trace_cache=tmp_path / "tc", **QUICK)
        assert _table(serial).rows == _table(parallel).rows


class TestDedup:
    def test_baseline_simulated_once_per_workload(self):
        ctx = ExperimentContext(CFG, workloads=WORKLOADS, **QUICK)
        _table(ctx)
        # Grid: 2 workloads x (noremote + 3 protocols) = 8 unique cells,
        # even though speedups() asks for the baseline in every column.
        assert len(ctx._results) == len(WORKLOADS) * (len(PROTOCOLS) + 1)

    def test_repeated_run_reuses_result(self):
        ctx = ExperimentContext(CFG, workloads=WORKLOADS, **QUICK)
        first = ctx.run("CoMD", "hmg")
        assert ctx.run("CoMD", "hmg") is first

    def test_per_workload_results_reuse_table_cells(self):
        ctx = ExperimentContext(CFG, workloads=WORKLOADS, **QUICK)
        _table(ctx)
        cells_before = dict(ctx._results)
        results = ctx.per_workload_results("hmg")
        assert ctx._results == cells_before  # nothing re-simulated
        assert set(results) == set(WORKLOADS)

    def test_run_many_dedups_requests(self):
        ctx = ExperimentContext(CFG, workloads=WORKLOADS, jobs=2, **QUICK)
        results = ctx.run_many([("CoMD", "hmg"), ("CoMD", "hmg"),
                                ("mst", "sw")])
        assert len(results) == 3
        assert results[0] is results[1]
        assert ctx._executor.cells_run == 2


class TestWorkerPlumbing:
    def test_cell_is_picklable(self):
        import pickle

        cell = Cell("CoMD", "hmg", CFG, "first_touch", PLAN)
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.workload == "CoMD"
        assert clone.cfg == CFG
        assert clone.fault_plan.name == PLAN.name

    def test_run_cell_matches_context_run(self):
        from repro.experiments.parallel import run_cell

        direct = run_cell((Cell("CoMD", "hmg", CFG), 1, 0.05, False,
                           None))
        via_ctx = ExperimentContext(CFG, **QUICK).run("CoMD", "hmg")
        assert direct.cycles == via_ctx.cycles
        assert direct.ops == via_ctx.ops


class TestCli:
    def _run(self, tmp_path, capsys, *extra):
        args = ["fig8", "--scale", str(1 / 64), "--ops-scale", "0.05",
                "--workloads", *WORKLOADS,
                "--journal", str(tmp_path / f"j{len(extra)}"), *extra]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        # Drop the wall-clock trailer, nondeterministic by nature.
        return "\n".join(line for line in out.splitlines()
                         if not line.startswith("[fig8:"))

    def test_jobs_flag_output_identical(self, tmp_path, capsys):
        serial = self._run(tmp_path, capsys)
        parallel = self._run(tmp_path, capsys, "--jobs", "4")
        assert serial == parallel

    def test_resume_replays_parallel_run(self, tmp_path, capsys):
        journal = str(tmp_path / "resume")
        args = ["fig8", "--scale", str(1 / 64), "--ops-scale", "0.05",
                "--workloads", *WORKLOADS, "--journal", journal,
                "--jobs", "3"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main([*args, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "cached from journal" in second
        # The replayed table text matches the live parallel run's.
        table_lines = [ln for ln in first.splitlines() if "|" in ln]
        for line in table_lines:
            assert line in second

    def test_trace_cache_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "traces"
        out = self._run(tmp_path, capsys, "--trace-cache",
                        str(cache_dir), "--jobs", "2")
        assert list(cache_dir.glob("*.trc"))
        assert out  # ran to completion


class TestSweepVariants:
    """Sweeps whose variants change a field trace generation reads
    (fig13: L2 size; granularity: lines per directory entry) must
    simulate the base config's traces under ``--jobs`` too."""

    SWEEPS = ("fig13", "granularity")

    def _run(self, root, capsys, *extra):
        args = [*self.SWEEPS, "--scale", str(1 / 64), "--ops-scale",
                "0.05", "--workloads", *WORKLOADS, "--journal",
                str(root / "journal"), "--telemetry", str(root / "tel"),
                "--no-registry", *extra]
        assert cli.main(args) == 0
        out = "\n".join(
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith(tuple(f"[{s}:" for s in self.SWEEPS)))
        results = {}
        for path in sorted((root / "journal" / "results").glob("*.json")):
            results[path.name] = json.loads(path.read_text())
        tel = root / "tel"
        telemetry = {path.name: path.read_bytes() for path in
                     [tel / "run.json", *sorted(tel.glob("*.metrics.json"))]}
        return out, telemetry, results

    def test_jobs_and_trace_cache_do_not_change_output(self, tmp_path,
                                                       capsys):
        serial = self._run(tmp_path / "serial", capsys)
        assert set(serial[2]) == {f"{s}.json" for s in self.SWEEPS}
        assert "run.json" in serial[1] and len(serial[1]) > 1
        for label, extra in (
                ("jobs", ["--jobs", "2"]),
                ("cached", ["--trace-cache", str(tmp_path / "tc1")]),
                ("cached-jobs", ["--jobs", "2", "--trace-cache",
                                 str(tmp_path / "tc2")])):
            assert self._run(tmp_path / label, capsys, *extra) == serial, \
                label
        # Workers cached the base config's traces, no variant's.
        from repro.trace.cache import TraceCache

        cache = TraceCache(tmp_path / "tc2")
        assert {p.name for p in cache.root.glob("*.trc")} <= {
            cache.path(w, CFG, 1, 0.05).name for w in WORKLOADS}


class TestSubExperiments:
    """``singlegpu``, ``scaleout`` and ``mca`` simulate on traces of
    other GPU counts through :meth:`ExperimentContext.derive`, which
    keeps every sweep service."""

    SUBS = ("singlegpu", "scaleout", "mca")

    def test_derive_shares_services_and_keeps_identity(self, tmp_path):
        ctx = ExperimentContext(CFG, workloads=WORKLOADS, sanitize=True,
                                fault_plan=PLAN, jobs=2,
                                store=tmp_path / "s", **QUICK)
        one = ctx.derive(CFG.replace(num_gpus=1))
        assert one.services is ctx.services
        assert one.cfg.num_gpus == 1 and ctx.cfg.num_gpus == 4
        assert (one.seed, one.ops_scale, one.workloads, one.fault_plan,
                one.sanitize) == (ctx.seed, ctx.ops_scale, ctx.workloads,
                                  ctx.fault_plan, ctx.sanitize)
        assert one.store is ctx.store and one._executor is ctx._executor

    def test_memo_names_the_trace_config(self):
        """One run config simulated on two traces is two cells."""
        ctx = ExperimentContext(CFG, workloads=WORKLOADS, **QUICK)
        big = ctx.derive(CFG.replace(l2_bytes_per_gpu=4
                                     * CFG.l2_bytes_per_gpu))
        base = ctx.run("CoMD", "hmg")
        other = big.run("CoMD", "hmg", cfg=CFG)
        assert other is not base
        assert other.ops == len(big.trace("CoMD")) != base.ops
        assert big.run("CoMD", "hmg", cfg=CFG) is other

    def _cli(self, root, capsys, *extra):
        args = [*self.SUBS, "--scale", str(1 / 64), "--ops-scale", "0.05",
                "--workloads", *WORKLOADS, "--telemetry", str(root),
                "--no-registry", *extra]
        assert cli.main(args) == 0
        return "\n".join(
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith(tuple(f"[{s}:" for s in self.SUBS)))

    def test_jobs_output_and_manifests_identical(self, tmp_path, capsys):
        serial = self._cli(tmp_path / "serial", capsys)
        parallel = self._cli(tmp_path / "jobs", capsys, "--jobs", "2",
                             "--trace-cache", str(tmp_path / "tc"))
        assert serial == parallel
        # The cells went through the worker pool...
        assert (tmp_path / "jobs" / "fabric.json").exists()
        # ...and left the same manifests as the serial run.
        run = json.loads((tmp_path / "serial" / "run.json").read_text())
        assert run["cells"]
        names = sorted(p.name for p in
                       (tmp_path / "serial").glob("*.metrics.json"))
        assert len(names) == len(run["cells"])
        for name in ["run.json", *names]:
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "jobs" / name).read_bytes(), name

    def test_sanitize_reaches_their_cells(self, monkeypatch, capsys):
        from repro.experiments import runner

        sanitized = []
        real = runner.simulate

        def recording(trace, cfg, **kwargs):
            sanitized.append((cfg.num_gpus, kwargs["sanitize"]))
            return real(trace, cfg, **kwargs)

        monkeypatch.setattr(runner, "simulate", recording)
        assert cli.main(["scaleout", "--sanitize", "--scale", str(1 / 64),
                         "--ops-scale", "0.05", "--workloads", "CoMD"]) == 0
        capsys.readouterr()
        assert {gpus for gpus, _ in sanitized} == {1, 2, 4, 8}
        assert all(flag is True for _, flag in sanitized)


class TestManifestContents:
    def test_fault_plan_cells_are_labelled(self, tmp_path):
        ctx = ExperimentContext(CFG, workloads=WORKLOADS, jobs=2,
                                telemetry_dir=tmp_path, fault_plan=PLAN,
                                **QUICK)
        ctx.run_many([("CoMD", "hmg"), ("mst", "sw")])
        records = [json.loads((tmp_path / f"{slug}.metrics.json")
                              .read_text())["cell"]
                   for slug in ctx.manifests_written]
        assert [r["fault_plan"]["name"] for r in records] == [PLAN.name] * 2
