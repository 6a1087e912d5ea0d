"""Parallel sweep executor: determinism, dedup, CLI integration."""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.experiments import cli
from repro.experiments.parallel import (
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
        from repro.telemetry.manifest import (cell_manifest, cell_record,
                                              write_cell_artifacts)

        ctx = ExperimentContext(CFG, workloads=WORKLOADS, **QUICK)
        result = ctx.run("CoMD", "hmg")
        hashed = []

        def sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(parallel, "hashlib",
                            SimpleNamespace(sha256=sha256))
        cfg = CFG.replace(inter_gpu_bw_gbps=CFG.inter_gpu_bw_gbps)
        fp = config_fingerprint(cfg)
        cell = ctx.cell("CoMD", "hmg", cfg)
        assert cell.key[0] == cell_key("CoMD", "hmg", cfg, "first_touch",
                                       None)
        record, slug = cell_record(**cell.identity())
        manifest = cell_manifest(result, record)
        assert write_cell_artifacts(tmp_path, result,
                                    **cell.identity()) == slug
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

        cell = ExperimentContext(CFG, **QUICK).cell("CoMD", "hmg",
                                                    fault_plan=PLAN)
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.workload == "CoMD"
        assert clone.cfg == CFG
        assert clone.fault_plan.name == PLAN.name
        assert clone.key == cell.key

    def test_cell_pickles_only_its_fields(self, tmp_path):
        """The keys computed on a cell stay out of its pickle, so every
        lease frame carries only what a worker reads."""
        import pickle

        ctx = ExperimentContext(CFG, store=tmp_path / "s", **QUICK)
        cell = ctx.cell("CoMD", "hmg")
        fresh = pickle.dumps((ctx.cell("CoMD", "hmg"), None))
        keys = (cell.key, cell.fingerprint, cell.twin.key, cell.store_key)
        assert pickle.dumps((cell, None)) == fresh
        clone = pickle.loads(pickle.dumps(cell))
        assert (clone.key, clone.fingerprint, clone.twin.key,
                clone.store_key) == keys

    def test_run_cell_matches_context_run(self, monkeypatch):
        from repro.experiments import parallel
        from repro.experiments.parallel import run_cell

        # A worker's trace memo, not this process's.
        monkeypatch.setattr(parallel, "_worker_traces", {})
        ctx = ExperimentContext(CFG, **QUICK)
        direct = run_cell((ctx.cell("CoMD", "hmg"), None))
        via_ctx = ctx.run("CoMD", "hmg")
        assert direct.cycles == via_ctx.cycles
        assert direct.ops == via_ctx.ops

    def test_a_lone_cell_leaves_workers_the_trace_cache(self, tmp_path,
                                                        monkeypatch):
        """A one-cell batch under ``jobs > 1`` simulates on the
        context's trace memo, so workers forked later still read and
        fill the trace cache for its workload."""
        from repro.experiments import parallel
        from repro.trace.cache import TraceCache

        monkeypatch.setattr(parallel, "_worker_traces", {})
        ExperimentContext(CFG, jobs=2, **QUICK).run_many([("mst", "hmg")])
        assert parallel._worker_traces == {}
        cache = TraceCache(tmp_path / "tc")
        ExperimentContext(CFG, jobs=2, trace_cache=cache, **QUICK).run_many(
            [(workload, protocol) for workload in ("mst", "CoMD")
             for protocol in ("hmg", "sw")])
        assert {p.name for p in cache.root.glob("*.trc")} == {
            cache.path(w, CFG, 1, 0.05).name for w in ("mst", "CoMD")}


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

    def test_manifest_names_the_trace_geometry(self, tmp_path):
        """One run config simulated on two traces leaves two manifests,
        each naming the trace geometry it simulated."""
        from repro.trace.cache import geometry_fingerprint

        ctx = ExperimentContext(CFG, workloads=WORKLOADS,
                                telemetry_dir=tmp_path, **QUICK)
        big_cfg = CFG.replace(l2_bytes_per_gpu=4 * CFG.l2_bytes_per_gpu)
        results = [ctx.run("CoMD", "hmg"),
                   ctx.derive(big_cfg).run("CoMD", "hmg", cfg=CFG)]
        written = ctx.manifests_written
        assert len(written) == len(set(written)) == 2
        manifests = [json.loads((tmp_path / f"{slug}.metrics.json")
                                .read_text()) for slug in written]
        assert [m["cell"]["trace"] for m in manifests] == [
            geometry_fingerprint(CFG), geometry_fingerprint(big_cfg)]
        assert [m["work"]["ops"] for m in manifests] == \
            [r.ops for r in results]
        assert results[0].ops != results[1].ops

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


#: A sweep subprocess whose every cell hangs in its workers; it prints
#: each worker's pid as the worker is forked.
_HANGING_SWEEP = """
import time
from repro.config import SystemConfig
from repro.experiments import parallel
from repro.experiments.fabric import FabricCoordinator
from repro.experiments.runner import ExperimentContext

spawn = FabricCoordinator._spawn

def announce(self, name):
    spawn(self, name)
    print(self._workers[name].process.pid, flush=True)

FabricCoordinator._spawn = announce
parallel.run_cell = lambda payload: time.sleep(600)
ctx = ExperimentContext(SystemConfig.paper_scaled(1 / 64), jobs=2,
                        seed=1, ops_scale=0.05)
ctx.run_many([("CoMD", "sw"), ("CoMD", "hmg")])
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


class TestWorkerLifetime:
    """Local workers live for the sweep: forked at its first batch,
    dismissed when it closes, never left behind."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        from repro.experiments.fabric import FabricCoordinator

        names = []
        spawn = FabricCoordinator._spawn

        def counting(coordinator, name):
            names.append(name)
            spawn(coordinator, name)

        monkeypatch.setattr(FabricCoordinator, "_spawn", counting)
        return names

    def test_one_spawn_per_worker_per_sweep(self, spawned):
        import multiprocessing

        ctx = ExperimentContext(CFG, workloads=WORKLOADS, jobs=2, **QUICK)
        for workload in WORKLOADS:  # two batches
            ctx.run_many([(workload, "sw"), (workload, "hmg")])
        assert spawned == ["local-0", "local-1"]
        assert ctx._executor.fabric_stats.cells == 4
        ctx.close()
        assert multiprocessing.active_children() == []
        # A closed context stays usable and forks afresh.
        ctx.run_many([("CoMD", "nhcc"), ("mst", "nhcc")])
        assert len(spawned) == 4
        ctx.close()
        assert multiprocessing.active_children() == []

    def test_warm_replay_spawns_none(self, spawned, tmp_path):
        grid = [(w, p) for w in WORKLOADS for p in PROTOCOLS]
        ExperimentContext(CFG, store=tmp_path / "s", **QUICK).run_many(grid)
        warm = ExperimentContext(CFG, jobs=2, store=tmp_path / "s",
                                 **QUICK)
        warm.run_many(grid)
        assert warm.store.hits == len(grid)
        assert spawned == []

    def test_collected_executor_dismisses_its_workers(self):
        import gc

        ctx = ExperimentContext(CFG, jobs=2, **QUICK)
        ctx.run_many([("CoMD", "sw"), ("CoMD", "hmg")])
        processes = [w.process for w in
                     ctx._executor.coordinator()._workers.values()]
        assert len(processes) == 2
        del ctx
        gc.collect()
        assert not any(process.is_alive() for process in processes)

    def test_cli_leaves_no_child_process(self, capsys):
        import multiprocessing

        assert cli.main(["fig8", "--scale", str(1 / 64), "--ops-scale",
                         "0.05", "--workloads", *WORKLOADS, "--jobs", "2",
                         "--no-registry"]) == 0
        capsys.readouterr()
        assert multiprocessing.active_children() == []

    def test_sigkilled_sweep_leaves_no_worker(self):
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen([sys.executable, "-c", _HANGING_SWEEP],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        pids = []
        try:
            pids = [int(proc.stdout.readline()) for _ in range(2)]
            time.sleep(0.5)  # mid-batch: each worker holds a lease
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10
            while any(_alive(pid) for pid in pids):
                assert time.monotonic() < deadline, \
                    "workers outlived their sweep"
                time.sleep(0.1)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
