"""Run registry, cross-run aggregation, and store query helpers."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.config import SystemConfig
from repro.experiments.runner import ExperimentContext
from repro.telemetry.aggregate import (engine_ops_per_second,
                                       geomean_speedups, load_bench,
                                       load_run, regression_view,
                                       result_digest)
from repro.telemetry.manifest import write_run_manifest
from repro.telemetry.session import RunRegistry

CFG = SystemConfig.paper_scaled(1 / 64)
QUICK = dict(seed=1, ops_scale=0.05)


def _sweep(tmp_path, label="tel", store=None):
    """One tiny real sweep with telemetry manifests."""
    out = tmp_path / label
    ctx = ExperimentContext(CFG, workloads=["CoMD", "mst"],
                            telemetry_dir=out, store=store, **QUICK)
    ctx.run_many([
        (workload, protocol)
        for workload in ["CoMD", "mst"]
        for protocol in ["noremote", "hmg"]
    ])
    if ctx.store is not None:
        ctx.store.close()
    write_run_manifest(out, experiments=["fig8"], settings={},
                       cells=ctx.manifests_written)
    return out, ctx


def _fake_run(root: Path, *, ops_per_second: float,
              hmg_cycles: float) -> Path:
    """Hand-written manifests: a run with a controllable perf number
    and a controllable hmg-vs-noremote speedup."""
    root.mkdir(parents=True, exist_ok=True)
    ops = 100_000
    for protocol, cycles in (("noremote", 100.0), ("hmg", hmg_cycles)):
        slug = f"w-{protocol}-feedface-first_touch"
        (root / f"{slug}.metrics.json").write_text(json.dumps({
            "schema": 1,
            "cell": {"workload": "w", "protocol": protocol,
                     "placement": "first_touch",
                     "config_fingerprint": "feedface",
                     "fault_plan": None},
            "time": {"cycles": cycles,
                     "bottleneck": {"resource": "l2"}},
            "work": {"ops": ops},
        }))
        (root / f"{slug}.perf.json").write_text(json.dumps({
            "schema": 1,
            "wall_seconds": ops / ops_per_second,
            "ops_per_second": ops_per_second,
        }))
    (root / "run.json").write_text(json.dumps({
        "schema": 1, "experiments": ["fig8"], "settings": {},
        "cells": [],
    }))
    return root


class TestRunRegistry:
    def test_round_trip_and_last_writer_wins(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        registry.register_run(tmp_path / "tel", experiments=["fig8"],
                              status="running")
        registry.register_store(tmp_path / "store")
        registry.register_run(tmp_path / "tel", experiments=["fig8"],
                              status="completed", cells=14)
        entries = registry.entries()
        assert [e["kind"] for e in entries] == ["run", "store"]
        run = entries[0]
        assert run["info"]["status"] == "completed"
        assert run["info"]["cells"] == 14
        assert run["dir"] == str((tmp_path / "tel").resolve())

    def test_corrupt_lines_warn_and_skip(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "reg")
        registry.register_observe(tmp_path / "obs", slug="cell-a")
        with open(registry.path, "ab") as fh:
            fh.write(b'{"v": 1, "crc": 1, "record": {"kind": "run", '
                     b'"dir": "/nope"}}\n')
            fh.write(b"torn garbage\n")
        entries = registry.entries()
        assert len(entries) == 1
        assert entries[0]["info"]["slug"] == "cell-a"
        assert "2 corrupt record(s)" in capsys.readouterr().err

    def test_fresh_registry_is_empty(self, tmp_path):
        assert RunRegistry(tmp_path / "reg").entries() == []


class TestLoadRun:
    def test_real_sweep_round_trips(self, tmp_path):
        out, ctx = _sweep(tmp_path)
        run = load_run(out)
        assert run["complete"]
        assert run["experiments"] == ["fig8"]
        assert len(run["cells"]) == 4
        assert {c["protocol"] for c in run["cells"]} == \
            {"noremote", "hmg"}
        assert run["engine_ops_per_second"] > 0
        assert set(run["geomean_speedups"]) == {"hmg"}
        assert run["geomean_speedups"]["hmg"] > 0

    def test_missing_dir_and_empty_dir(self, tmp_path):
        assert load_run(tmp_path / "nope") is None
        (tmp_path / "empty").mkdir()
        assert load_run(tmp_path / "empty") is None

    def test_torn_manifest_skipped(self, tmp_path):
        out, _ = _sweep(tmp_path)
        torn = next(iter(out.glob("*.metrics.json")))
        torn.write_text('{"cell": {"workload"')  # mid-write crash
        run = load_run(out)
        assert len(run["cells"]) == 3

    def test_store_replays_excluded_from_throughput(self):
        cells = [
            {"ops": 100, "wall_seconds": 0.0},   # store replay
            {"ops": 100, "wall_seconds": 0.001},
        ]
        assert engine_ops_per_second(cells) == 100 / 0.001
        assert engine_ops_per_second([cells[0]]) is None

    def test_geomean_needs_noremote_baseline(self):
        base = {"workload": "w", "config_fingerprint": "f",
                "placement": "p", "plan_fingerprint": ""}
        assert geomean_speedups([
            dict(base, protocol="hmg", cycles=50.0),
        ]) == {}
        speedups = geomean_speedups([
            dict(base, protocol="noremote", cycles=100.0),
            dict(base, protocol="hmg", cycles=50.0),
        ])
        assert speedups == {"hmg": 2.0}

    def test_geomean_groups_by_trace_geometry(self, tmp_path):
        """Two noremote/hmg pairs that differ only in the trace geometry
        they simulated are two speedups, not one."""
        for trace, hmg_cycles in (("t1", 50.0), ("t2", 25.0)):
            for protocol, cycles in (("noremote", 100.0),
                                     ("hmg", hmg_cycles)):
                slug = f"w-{protocol}-{trace}-first_touch"
                (tmp_path / f"{slug}.metrics.json").write_text(json.dumps({
                    "schema": 1,
                    "cell": {"workload": "w", "protocol": protocol,
                             "placement": "first_touch",
                             "config_fingerprint": "feedface",
                             "trace": trace, "fault_plan": None},
                    "time": {"cycles": cycles},
                }))
        run = load_run(tmp_path)
        assert sorted(c["trace"] for c in run["cells"]) == \
            ["t1", "t1", "t2", "t2"]
        assert abs(run["geomean_speedups"]["hmg"] - 8 ** 0.5) < 1e-12


class TestRegressionView:
    def _bench(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({
            "baseline": {"ops_per_second": 100_000},
            "latest": {"ops_per_second": 110_000},
            "history": [{"ops_per_second": 90_000,
                         "recorded": "2026-08-01"}],
        }))
        return path

    def test_flags_synthetic_thirty_percent_drop(self, tmp_path):
        bench = load_bench(self._bench(tmp_path))
        runs = [load_run(_fake_run(tmp_path / "a",
                                   ops_per_second=100_000,
                                   hmg_cycles=50.0)),
                load_run(_fake_run(tmp_path / "b",
                                   ops_per_second=60_000,
                                   hmg_cycles=80.0))]
        view = regression_view(runs, bench, tolerance=0.30)
        assert view["floor"] == 70_000
        assert [row["flagged"] for row in view["runs"]] == [False, True]
        # hmg geomean fell 2.0 -> 1.25: -37.5% drift, past tolerance.
        drift = view["speedup_drift"]["hmg"]
        assert drift["first"] == 2.0
        assert drift["last"] == 1.25
        assert drift["flagged"]
        assert str(tmp_path / "b") in view["flagged"]
        assert "hmg" in view["flagged"]

    def test_steady_runs_not_flagged(self, tmp_path):
        bench = load_bench(self._bench(tmp_path))
        runs = [load_run(_fake_run(tmp_path / "a",
                                   ops_per_second=95_000,
                                   hmg_cycles=50.0)),
                load_run(_fake_run(tmp_path / "b",
                                   ops_per_second=105_000,
                                   hmg_cycles=52.0))]
        view = regression_view(runs, bench, tolerance=0.30)
        assert view["flagged"] == []

    def test_no_bench_degrades_gracefully(self, tmp_path):
        run = load_run(_fake_run(tmp_path / "a",
                                 ops_per_second=100_000,
                                 hmg_cycles=50.0))
        view = regression_view([run], None)
        assert view["floor"] is None
        assert not view["runs"][0]["flagged"]


class TestStoreQueries:
    def test_records_and_summary_without_unpickling(self, tmp_path):
        store_dir = tmp_path / "store"
        _sweep(tmp_path, store=store_dir)
        from repro.experiments.store import ResultStore

        store = ResultStore(store_dir)
        summary = store.summary()
        store.close()
        assert summary["records"] == 4
        assert summary["corrupt_records"] == 0
        assert summary["by_protocol"] == {"hmg": 2, "noremote": 2}
        assert summary["by_workload"] == {"CoMD": 2, "mst": 2}
        assert all(len(m["key"]) == 64 for m in summary["cells"])

    def test_result_digest_matches_result(self, tmp_path):
        store_dir = tmp_path / "store"
        _, ctx = _sweep(tmp_path, store=store_dir)
        result = ctx.run("mst", "hmg")
        digest = json.loads(json.dumps(result_digest(result)))
        assert digest["workload"] == "mst"
        assert digest["protocol"] == "hmg"
        assert digest["cycles"] == result.cycles
        assert digest["platform"]["num_gpus"] == 4

    def test_store_cli_scan_and_get(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        _sweep(tmp_path, store=store_dir)
        from repro.experiments import cli

        rc = cli.main(["store", "scan", "--store", str(store_dir),
                       "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 4
        key = summary["cells"][0]["key"]
        rc = cli.main(["store", "get", key, "--store", str(store_dir)])
        assert rc == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["cycles"] > 0
        assert cli.main(["store", "get", "0" * 64,
                         "--store", str(store_dir)]) == 1
        assert cli.main(["store", "get", "--store",
                         str(store_dir)]) == 2


class TestCheckPerfHistory:
    def _module(self):
        path = Path(__file__).resolve().parent.parent / "tools" \
            / "check_perf.py"
        spec = importlib.util.spec_from_file_location("check_perf",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_append_history(self):
        check_perf = self._module()
        bench = {"baseline": {"ops_per_second": 100}}
        entry = check_perf.append_history(
            bench, 123456.7, passes=3, commit="abc1234",
            recorded="2026-08-08")
        assert bench["history"] == [entry]
        assert entry == {"ops_per_second": 123457, "engine": "scalar",
                         "passes": 3, "recorded": "2026-08-08",
                         "commit": "abc1234"}
        check_perf.append_history(bench, 200000, passes=1,
                                  engine="vectorized",
                                  recorded="2026-08-09")
        assert len(bench["history"]) == 2
        assert "commit" not in bench["history"][1]
        assert bench["history"][1]["engine"] == "vectorized"

    def test_committed_bench_has_history(self):
        bench = json.loads(
            (Path(__file__).resolve().parent.parent
             / "BENCH_perf.json").read_text())
        history = bench["history"]
        assert len(history) >= 2
        assert all(h["ops_per_second"] > 0 for h in history)
        # The scalar trajectory ends at the recovered post-PR-6
        # measurement; entries without an engine tag predate the
        # vectorized engine and are scalar.
        scalar = [h for h in history
                  if h.get("engine", "scalar") == "scalar"]
        assert scalar[-1]["ops_per_second"] == \
            bench["latest"]["ops_per_second"]
        # The vectorized trajectory starts at its committed baseline and
        # ends at the latest recorded measurement.
        vectorized = [h for h in history
                      if h.get("engine") == "vectorized"]
        assert vectorized, "vectorized baseline point missing"
        assert vectorized[0]["ops_per_second"] == \
            bench["baseline_vectorized"]["ops_per_second"]
        assert vectorized[-1]["ops_per_second"] == \
            bench["latest_vectorized"]["ops_per_second"]
