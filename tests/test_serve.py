"""Observability service: SSE streams, regression view, store API,
and the regression gate that reads it."""

from __future__ import annotations

import importlib.util
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.experiments.runner import ExperimentContext
from repro.telemetry import serve
from repro.telemetry.session import RunRegistry

CFG = SystemConfig.paper_scaled(1 / 64)
QUICK = dict(seed=1, ops_scale=0.05)


def _make_server(tmp_path, **overrides):
    argv = ["--port", "0", "--registry", str(tmp_path / "reg"),
            "--poll", "0.05"]
    for flag, value in overrides.items():
        values = value if isinstance(value, (list, tuple)) else [value]
        for v in values:  # repeat the flag: append-style options
            argv.extend([f"--{flag.replace('_', '-')}", str(v)])
    args = serve.build_parser().parse_args(argv)
    if "bench" not in overrides:
        args.bench = None  # keep the repo's committed bench out
        server = serve.create_server(args)
        server.observatory.bench_path = None
        return server
    return serve.create_server(args)


@pytest.fixture
def service(tmp_path):
    """A running server + its base URL; shuts down after the test."""
    server = _make_server(tmp_path)
    rc: list = []
    thread = threading.Thread(target=lambda: rc.append(
        serve.run(server)), daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield server, f"http://{host}:{port}"
    server.shutdown()
    thread.join(timeout=10)
    assert rc == [0], "graceful shutdown must exit 0"


def _get_json(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _read_sse(url, want_events, timeout=10.0):
    """Read an SSE stream until ``want_events`` of interest arrive."""
    events = []
    deadline = time.monotonic() + timeout
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        event = None
        while len(events) < want_events \
                and time.monotonic() < deadline:
            line = resp.readline().decode()
            if line.startswith("event:"):
                event = line.split(":", 1)[1].strip()
            elif line.startswith("data:") and event is not None:
                events.append((event,
                               json.loads(line.split(":", 1)[1])))
                event = None
    return events


def _sweep(tmp_path, registry, label="tel", store=None):
    out = tmp_path / label
    ctx = ExperimentContext(CFG, workloads=["CoMD"], telemetry_dir=out,
                            store=store, **QUICK)
    ctx.run_many([("CoMD", p) for p in ("noremote", "hmg")])
    if ctx.store is not None:
        ctx.store.close()
    registry.register_run(out, experiments=["fig8"],
                          status="completed",
                          cells=len(ctx.manifests_written))
    return out, ctx


class TestEndpoints:
    def test_health_and_dashboard(self, service):
        _, url = service
        status, body = _get_json(f"{url}/healthz")
        assert status == 200
        assert body["ok"] is True
        from repro import __version__

        assert body["version"] == __version__
        assert body["uptime_seconds"] >= 0
        assert body["registry"].endswith("reg")
        with urllib.request.urlopen(url + "/", timeout=10) as resp:
            html = resp.read().decode()
        assert resp.status == 200
        assert "<title>HMG repro" in html
        assert "/events" in html and "/regressions" in html

    def test_unknown_route_404s(self, service):
        _, url = service
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/nope", timeout=10)
        assert err.value.code == 404

    def test_runs_lists_registered_sweep(self, service, tmp_path):
        server, url = service
        registry = RunRegistry(tmp_path / "reg")
        out, _ = _sweep(tmp_path, registry)
        status, payload = _get_json(f"{url}/runs")
        assert status == 200
        assert len(payload["runs"]) == 1
        run = payload["runs"][0]
        assert run["dir"] == str(out.resolve())
        assert run["status"] == "completed"
        assert run["cells"] == 2
        assert run["protocols"] == ["hmg", "noremote"]
        assert run["engine_ops_per_second"] > 0

    def test_regressions_flags_synthetic_drop(self, service, tmp_path):
        server, url = service
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(
            {"baseline": {"ops_per_second": 10_000_000_000}}))
        server.observatory.bench_path = bench
        registry = RunRegistry(tmp_path / "reg")
        _sweep(tmp_path, registry)  # real ops/sec << 10G baseline
        status, view = _get_json(f"{url}/regressions")
        assert status == 200
        assert view["bench"]["baseline"] == 10_000_000_000
        assert view["runs"][0]["flagged"] is True
        assert view["flagged"]

    def test_store_round_trip(self, service, tmp_path):
        server, url = service
        registry = RunRegistry(tmp_path / "reg")
        store_dir = tmp_path / "store"
        _sweep(tmp_path, registry, store=store_dir)
        registry.register_store(store_dir)
        status, scan = _get_json(f"{url}/store/scan")
        assert status == 200
        assert scan["records"] == 2
        key = next(m["key"] for m in scan["stores"][0]["cells"]
                   if m["protocol"] == "hmg")
        status, cell = _get_json(f"{url}/store/cell/{key}")
        assert status == 200
        assert cell["result"]["workload"] == "CoMD"
        assert cell["result"]["protocol"] == "hmg"
        assert cell["result"]["cycles"] > 0
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/store/cell/{'0' * 64}",
                                   timeout=10)
        assert err.value.code == 404


class TestSSE:
    def test_intervals_stream_from_live_fake_sweep(self, service,
                                                   tmp_path):
        """A fake in-flight observe capture: rows appended while the
        client is connected must arrive as SSE interval events."""
        _, url = service
        capture = tmp_path / "capture"
        capture.mkdir()
        path = capture / "intervals.jsonl"
        rows = [{"index": i, "t0": i * 10.0, "t1": (i + 1) * 10.0,
                 "unit": "cycles", "counters": {"n": i}, "gauges": {}}
                for i in range(4)]
        path.write_text(json.dumps(rows[0]) + "\n")
        RunRegistry(tmp_path / "reg").register_observe(
            capture, slug="fake-cell")

        def writer():
            for row in rows[1:]:
                time.sleep(0.15)
                with open(path, "a") as fh:
                    fh.write(json.dumps(row) + "\n")

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        events = _read_sse(f"{url}/cells/fake-cell/intervals", 5)
        thread.join()
        assert events[0][0] == "cell"
        assert events[0][1]["slug"] == "fake-cell"
        intervals = [data for kind, data in events
                     if kind == "interval"]
        assert intervals == rows, \
            "every appended window must stream in order"

    def test_intervals_no_follow_ends_stream(self, service, tmp_path):
        _, url = service
        capture = tmp_path / "capture"
        capture.mkdir()
        (capture / "intervals.jsonl").write_text(
            json.dumps({"index": 0}) + "\n")
        RunRegistry(tmp_path / "reg").register_observe(
            capture, slug="one-shot")
        events = _read_sse(
            f"{url}/cells/one-shot/intervals?follow=0", 3)
        assert [kind for kind, _ in events] == \
            ["cell", "interval", "end"]

    def test_intervals_unknown_cell_404s(self, service):
        _, url = service
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/cells/ghost/intervals",
                                   timeout=10)
        assert err.value.code == 404

    def test_events_stream_sees_new_cells(self, service, tmp_path):
        """/events notices a sweep that starts after the connection."""
        _, url = service
        registry = RunRegistry(tmp_path / "reg")
        collected: list = []

        def reader():
            collected.extend(_read_sse(f"{url}/events", 4))

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.2)  # connection is up, snapshot consumed
        _sweep(tmp_path, registry)
        thread.join(timeout=15)
        kinds = [kind for kind, _ in collected]
        assert kinds[0] == "snapshot"
        assert "run" in kinds
        slugs = [data["slug"] for kind, data in collected
                 if kind == "cell"]
        assert any("CoMD-noremote" in s for s in slugs)


def _post_ingest(url):
    """POST a metric batch at ``/ingest``; returns the HTTP status."""
    body = json.dumps({"v": 1, "run": "r1", "source": "test", "records": [
        {"metric": "cell.ops_per_second", "value": 1e6}]}).encode()
    request = urllib.request.Request(
        f"{url}/ingest", data=body, method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status
    except urllib.error.HTTPError as err:
        return err.code


def _tree(root):
    return sorted((str(p), p.read_bytes() if p.is_file() else None)
                  for p in root.rglob("*")) if root.exists() else []


class TestReadOnly:
    def test_post_ingest_gets_no_2xx_and_writes_nothing(self, service,
                                                        tmp_path):
        _, url = service
        RunRegistry(tmp_path / "reg").register_run(tmp_path / "run")
        before = _tree(tmp_path / "reg")
        assert not 200 <= _post_ingest(url) < 300
        assert _tree(tmp_path / "reg") == before


def _gate(argv, capsys):
    """Run ``tools/regression_gate.py`` in-process: (exit code, output)."""
    path = Path(__file__).resolve().parent.parent / "tools" \
        / "regression_gate.py"
    spec = importlib.util.spec_from_file_location("regression_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv), capsys.readouterr()


class TestRegressionGate:
    def test_passes_on_a_run_with_simulated_cells(self, service,
                                                  tmp_path, capsys):
        _, url = service
        _sweep(tmp_path, RunRegistry(tmp_path / "reg"))
        code, out = _gate(["--url", url, "--require-metrics"], capsys)
        assert code == 0, out.out
        assert "PASS" in out.out

    def test_require_metrics_fails_without_run_throughput(
            self, service, tmp_path, capsys):
        """Replayed cells report no engine throughput, and a pushed
        sample cannot stand in for it: the gate fails."""
        _, url = service
        registry = RunRegistry(tmp_path / "reg")
        _sweep(tmp_path, RunRegistry(tmp_path / "cold-reg"), label="cold",
               store=tmp_path / "s")
        _sweep(tmp_path, registry, label="warm", store=tmp_path / "s")
        _post_ingest(url)
        code, out = _gate(["--url", url, "--require-metrics"], capsys)
        assert code == 1, out.out
        assert "FAIL" in out.out
        assert _gate(["--url", url], capsys)[0] == 0

    def test_unreachable_service_exits_2(self, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        code, out = _gate(["--url", f"http://127.0.0.1:{port}",
                           "--timeout", "2"], capsys)
        assert code == 2
        assert "cannot query" in out.err


class TestShutdown:
    def test_graceful_shutdown_flushes_and_exits_zero(self, tmp_path):
        server = _make_server(tmp_path)
        rc: list = []
        thread = threading.Thread(
            target=lambda: rc.append(serve.run(server)), daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        _get_json(f"http://{host}:{port}/healthz")
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert rc == [0]
        assert server.shutting_down

    def test_shutdown_ends_open_sse_stream(self, tmp_path):
        server = _make_server(tmp_path)
        threading.Thread(target=lambda: serve.run(server),
                         daemon=True).start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}/events"
        holder: dict = {}

        def reader():
            resp = urllib.request.urlopen(url, timeout=10)
            holder["lines"] = []
            while True:
                line = resp.readline()
                if not line:
                    break
                holder["lines"].append(line.decode())

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.3)
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive(), \
            "shutdown must end in-flight streams"
        assert any("server shutdown" in line
                   for line in holder["lines"])
