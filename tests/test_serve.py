"""Observability service: SSE streams, regression view, store API."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

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
        assert body["auth_required"] is False
        assert body["ingest"]["batches"] == 0
        with urllib.request.urlopen(url + "/", timeout=10) as resp:
            html = resp.read().decode()
        assert resp.status == 200
        assert "<title>HMG repro" in html
        assert "/events" in html and "/regressions" in html
        assert "/metrics/query" in html, \
            "dashboard must render the pushed-metrics panel"

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


def _post_json(url, payload, token=None):
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST")
    if token:
        request.add_header("Authorization", f"Bearer {token}")
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _batch(records, run="r1", namespace=None):
    payload = {"v": 1, "run": run, "source": "test", "records": records}
    if namespace is not None:
        payload["namespace"] = namespace
    return payload


class TestIngest:
    def test_ingest_rolls_up_and_queries(self, service):
        _, url = service
        status, reply = _post_json(f"{url}/ingest", _batch([
            {"metric": "cell.ops_per_second", "value": 100.0,
             "labels": {"workload": "CoMD"}, "t": 1.0},
            {"metric": "cell.ops_per_second", "value": 300.0,
             "labels": {"workload": "CoMD"}, "t": 2.0},
        ]))
        assert (status, reply["accepted"], reply["rejected"]) \
            == (200, 2, 0)
        status, query = _get_json(
            f"{url}/metrics/query?metric=cell.ops_per_second")
        assert status == 200 and query["count"] == 1
        series = query["series"][0]
        assert series["namespace"] == "default"
        assert series["count"] == 2
        assert (series["min"], series["max"], series["last"]) \
            == (100.0, 300.0, 300.0)
        assert series["windows"][0]["sum"] == 400.0

    def test_window_records_expand_per_counter(self, service):
        _, url = service
        _post_json(f"{url}/ingest", _batch([
            {"metric": "cell", "kind": "window", "t0": 0.0,
             "t1": 500.0, "unit": "cycles",
             "counters": {"ops": 50, "l2_misses": 7},
             "labels": {"workload": "CoMD", "protocol": "hmg"},
             "t": 1.0},
        ]))
        status, query = _get_json(f"{url}/metrics/query?metric=cell")
        metrics = {s["metric"] for s in query["series"]}
        assert {"cell.ops", "cell.l2_misses", "cell.span"} <= metrics

    def test_invalid_records_counted_not_fatal(self, service):
        _, url = service
        status, reply = _post_json(f"{url}/ingest", _batch([
            {"metric": "ok", "value": 1.0, "t": 1.0},
            {"metric": "bad", "value": None},
            {"value": 2.0},
        ]))
        assert status == 200
        assert reply["accepted"] == 1 and reply["rejected"] == 2
        assert reply["errors"]
        _, health = _get_json(f"{url}/healthz")
        assert health["ingest"]["rejected"] == 2

    def test_structurally_bad_batch_400s(self, service):
        _, url = service
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(f"{url}/ingest", {"records": []})
        assert err.value.code == 400

    def test_prometheus_exposition(self, service):
        _, url = service
        _post_json(f"{url}/ingest", _batch([
            {"metric": "store.hit", "kind": "counter", "value": 1,
             "t": 1.0},
            {"metric": "store.hit", "kind": "counter", "value": 1,
             "t": 2.0},
        ]))
        with urllib.request.urlopen(f"{url}/metrics",
                                    timeout=10) as resp:
            text = resp.read().decode()
        assert resp.headers["Content-Type"].startswith("text/plain")
        assert "# TYPE repro_store_hit_total counter" in text
        assert 'repro_store_hit_total{namespace="default",run="r1"} '\
               "2.0" in text
        assert "repro_ingest_batches 1" in text

    def test_events_stream_carries_metrics(self, service):
        _, url = service
        collected: list = []

        def reader():
            collected.extend(_read_sse(f"{url}/events", 2))

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.3)
        _post_json(f"{url}/ingest", _batch([
            {"metric": "cell.ops_per_second", "value": 5.0, "t": 1.0},
        ]))
        thread.join(timeout=15)
        by_kind = dict(collected)
        assert "metrics" in by_kind
        assert by_kind["metrics"]["run"] == "r1"
        assert by_kind["metrics"]["metrics"] \
            == ["cell.ops_per_second"]

    def test_metrics_log_survives_restart(self, service, tmp_path):
        server, url = service
        _post_json(f"{url}/ingest", _batch([
            {"metric": "cell.ops_per_second", "value": 9.0, "t": 1.0},
        ]))
        reborn = _make_server(tmp_path)
        try:
            assert reborn.observatory.metrics.stats()["records"] == 1
        finally:
            reborn.server_close()


class TestAuth:
    @pytest.fixture
    def secured(self, tmp_path):
        server = _make_server(tmp_path,
                              serve_token=["ci=supersecret", "barekey"])
        rc: list = []
        thread = threading.Thread(target=lambda: rc.append(
            serve.run(server)), daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield server, f"http://{host}:{port}"
        server.shutdown()
        thread.join(timeout=10)

    def test_unauthenticated_post_rejected_and_counted(self, secured):
        _, url = secured
        for token in (None, "wrong"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post_json(f"{url}/ingest", _batch([
                    {"metric": "x", "value": 1.0, "t": 1.0},
                ]), token=token)
            assert err.value.code == 401
        _, health = _get_json(f"{url}/healthz")
        assert health["auth_required"] is True
        assert health["ingest"]["unauthorized"] == 2

    def test_token_namespace_overrides_claim(self, secured):
        _, url = secured
        status, _reply = _post_json(
            f"{url}/ingest",
            _batch([{"metric": "x", "value": 1.0, "t": 1.0}],
                   namespace="spoofed"),
            token="supersecret")
        assert status == 200
        _, query = _get_json(f"{url}/metrics/query?metric=x")
        assert [s["namespace"] for s in query["series"]] == ["ci"]

    def test_bare_token_derives_namespace(self, secured):
        _, url = secured
        from repro.telemetry.metrics import derive_namespace

        _post_json(f"{url}/ingest",
                   _batch([{"metric": "y", "value": 1.0, "t": 1.0}]),
                   token="barekey")
        _, query = _get_json(f"{url}/metrics/query?metric=y")
        assert [s["namespace"] for s in query["series"]] \
            == [derive_namespace("barekey")]

    def test_reads_stay_open(self, secured):
        _, url = secured
        status, _body = _get_json(f"{url}/regressions")
        assert status == 200


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
