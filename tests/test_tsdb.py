"""Collector-side time series: durable log, rollups, exposition."""

from __future__ import annotations

import json
import math

import pytest

from repro.telemetry.metrics import METRICS_SCHEMA
from repro.telemetry.tsdb import DEFAULT_NAMESPACE, MetricsStore, Series


def _store(tmp_path, **kwargs) -> MetricsStore:
    return MetricsStore(tmp_path / "metrics.jsonl", **kwargs)


def _batch(records, run="r1", namespace=None):
    payload = {"v": METRICS_SCHEMA, "run": run, "source": "test",
               "records": records}
    if namespace is not None:
        payload["namespace"] = namespace
    return payload


def _point(metric="m", value=1.0, t=1.0, **extra):
    return {"metric": metric, "value": value, "t": t, **extra}


class TestSeries:
    def test_totals_and_windows(self):
        s = Series("ns", "run", "m", (), "gauge")
        for value, t in ((10.0, 1.0), (30.0, 5.0), (20.0, 12.0)):
            s.add(value, t, window=10.0, ring=4)
        d = s.as_dict()
        assert (d["count"], d["sum"]) == (3, 60.0)
        assert (d["min"], d["max"], d["last"]) == (10.0, 30.0, 20.0)
        assert (d["first_t"], d["last_t"]) == (1.0, 12.0)
        assert [w["t0"] for w in d["windows"]] == [0.0, 10.0]
        assert d["windows"][0]["sum"] == 40.0
        assert d["windows"][1]["last"] == 20.0

    def test_ring_trims_oldest_window(self):
        s = Series("ns", "run", "m", (), "gauge")
        for i in range(6):
            s.add(1.0, i * 10.0, window=10.0, ring=3)
        assert [w["t0"] for w in s.windows] == [30.0, 40.0, 50.0]
        assert s.count == 6  # totals keep the full history

    def test_out_of_order_point_lands_in_newest_window(self):
        s = Series("ns", "run", "m", (), "gauge")
        s.add(1.0, 25.0, window=10.0, ring=4)
        s.add(2.0, 3.0, window=10.0, ring=4)  # older than the bucket
        assert [w["t0"] for w in s.windows] == [20.0]
        assert s.windows[0]["count"] == 2


class TestIngest:
    def test_accepts_and_rolls_up(self, tmp_path):
        store = _store(tmp_path)
        reply = store.ingest(_batch([_point(value=2.0),
                                     _point(value=4.0, t=3.0)]))
        assert reply == {"accepted": 2, "rejected": 0, "errors": []}
        series = store.query()["series"]
        assert len(series) == 1
        assert series[0]["namespace"] == DEFAULT_NAMESPACE
        assert series[0]["sum"] == 6.0

    def test_rejects_invalid_records_keeps_valid(self, tmp_path):
        store = _store(tmp_path)
        reply = store.ingest(_batch([
            _point(),
            {"metric": "m", "value": math.nan},
            {"metric": "", "value": 1.0},
            {"metric": "m", "kind": "window", "t0": 2.0, "t1": 1.0,
             "unit": "cycles", "counters": {"x": 1}},
        ]))
        assert (reply["accepted"], reply["rejected"]) == (1, 3)
        assert len(reply["errors"]) == 3
        assert store.stats()["rejected"] == 3

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"v": 999, "run": "r", "records": []},
        {"v": METRICS_SCHEMA, "records": []},          # no run
        {"v": METRICS_SCHEMA, "run": "r", "records": {}},
    ])
    def test_structurally_bad_batches_raise(self, tmp_path, payload):
        with pytest.raises(ValueError):
            _store(tmp_path).ingest(payload)

    def test_batch_size_cap(self, tmp_path):
        store = _store(tmp_path, max_batch_records=2)
        with pytest.raises(ValueError):
            store.ingest(_batch([_point(t=float(i)) for i in range(3)]))

    def test_window_record_expands_per_counter(self, tmp_path):
        store = _store(tmp_path)
        store.ingest(_batch([{
            "metric": "cell", "kind": "window", "t0": 0.0, "t1": 100.0,
            "unit": "cycles", "counters": {"ops": 7, "l1_hits": 3},
            "labels": {"workload": "mst"}, "t": 1.0,
        }]))
        by_metric = {s["metric"]: s for s in store.query()["series"]}
        assert set(by_metric) == {"cell.span", "cell.ops",
                                  "cell.l1_hits"}
        assert by_metric["cell.span"]["last"] == 100.0
        assert by_metric["cell.ops"]["kind"] == "counter"
        assert by_metric["cell.ops"]["labels"] == {"workload": "mst"}

    def test_namespace_argument_beats_client_claim(self, tmp_path):
        store = _store(tmp_path)
        store.ingest(_batch([_point()], namespace="claimed"),
                     namespace="token-says")
        store.ingest(_batch([_point(metric="n")], namespace="claimed"))
        spaces = {s["metric"]: s["namespace"]
                  for s in store.query()["series"]}
        assert spaces == {"m": "token-says", "n": "claimed"}

    def test_series_cap_counts_drops(self, tmp_path):
        store = _store(tmp_path, max_series=2)
        store.ingest(_batch([_point(metric=f"m{i}") for i in range(4)]))
        assert store.stats()["series"] == 2
        assert store.stats()["series_dropped"] == 2


class TestDurability:
    def test_replay_rebuilds_rollups(self, tmp_path):
        store = _store(tmp_path)
        store.ingest(_batch([_point(value=5.0),
                             _point(metric="x", value=7.0, t=2.0)]))
        reborn = _store(tmp_path)
        assert reborn.query() == store.query()
        assert reborn.stats()["records"] == 2

    def test_corrupt_lines_warn_and_skip(self, tmp_path, capsys):
        store = _store(tmp_path)
        store.ingest(_batch([_point()]))
        log = tmp_path / "metrics.jsonl"
        good = log.read_text()
        flipped = json.loads(good)
        flipped["crc"] ^= 1
        log.write_text("junk\n" + json.dumps(flipped) + "\n" + good)
        reborn = _store(tmp_path)
        assert reborn.stats()["records"] == 1
        assert reborn.stats()["corrupt_log_lines"] == 2
        assert "skipped 2 corrupt" in capsys.readouterr().err

    def test_no_log_path_is_memory_only(self, tmp_path):
        store = MetricsStore(None)
        store.ingest(_batch([_point()]))
        assert store.stats()["log"] is None
        assert store.query()["count"] == 1


class TestQuery:
    @pytest.fixture
    def store(self, tmp_path):
        store = _store(tmp_path)
        store.ingest(_batch([_point(metric="cell.ops"),
                             _point(metric="cell.ops_per_second"),
                             _point(metric="fabric.leases")], run="a"))
        store.ingest(_batch([_point(metric="cell.ops")], run="b"),
                     namespace="other")
        return store

    def test_filter_by_metric_prefix(self, store):
        result = store.query(metric="cell")
        assert {s["metric"] for s in result["series"]} \
            == {"cell.ops", "cell.ops_per_second"}
        assert result["count"] == 3  # cell.ops in both namespaces

    def test_exact_metric_does_not_prefix_match(self, store):
        metrics = {s["metric"]
                   for s in store.query(metric="cell.ops")["series"]}
        assert metrics == {"cell.ops"}

    def test_filter_by_namespace_and_run(self, store):
        result = store.query(namespace="other", run="b")
        assert [s["run"] for s in result["series"]] == ["b"]
        assert store.query(namespace="other", run="a")["count"] == 0

    def test_output_sorted_and_stable(self, store):
        series = store.query()["series"]
        keys = [(s["namespace"], s["run"], s["metric"]) for s in series]
        assert keys == sorted(keys)


class TestPrometheus:
    def test_counters_gauges_and_self_stats(self, tmp_path):
        store = _store(tmp_path)
        store.ingest(_batch([
            _point(metric="store.hit", kind="counter", value=1),
            _point(metric="store.hit", kind="counter", value=1, t=2.0),
            _point(metric="cell.ops_per_second", value=123.5,
                   labels={"workload": "mst"}),
        ]))
        text = store.prometheus_text()
        assert "# TYPE repro_store_hit_total counter" in text
        assert 'repro_store_hit_total{namespace="default",run="r1"}' \
               " 2.0" in text
        assert "# TYPE repro_cell_ops_per_second gauge" in text
        assert 'workload="mst"' in text
        assert "repro_cell_ops_per_second_min{" in text
        assert "repro_ingest_records 3" in text

    def test_names_and_label_values_sanitized(self, tmp_path):
        store = _store(tmp_path)
        store.ingest(_batch([
            _point(metric="weird.metric-name",
                   labels={"path": 'a"b\\c'}),
        ]))
        text = store.prometheus_text()
        assert "repro_weird_metric_name{" in text
        assert 'path="a\\"b\\\\c"' in text


class TestEvents:
    def test_cursor_semantics(self, tmp_path):
        store = _store(tmp_path)
        cursor, events = store.events_since(0)
        assert (cursor, events) == (0, [])
        store.ingest(_batch([_point()]))
        cursor, events = store.events_since(cursor)
        assert len(events) == 1
        assert events[0]["metrics"] == ["m"]
        assert store.events_since(cursor) == (cursor, [])

    def test_ring_bounds_event_history(self, tmp_path):
        store = _store(tmp_path, event_buffer=2)
        for i in range(5):
            store.ingest(_batch([_point(metric=f"m{i}")]))
        cursor, events = store.events_since(0)
        assert cursor == 5
        assert [e["metrics"] for e in events] == [["m3"], ["m4"]]

    def test_replay_does_not_publish_events(self, tmp_path):
        store = _store(tmp_path)
        store.ingest(_batch([_point()]))
        reborn = _store(tmp_path)
        assert reborn.events_since(0) == (0, [])
