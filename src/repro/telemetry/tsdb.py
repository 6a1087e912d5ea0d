"""Collector-side time series: durable metrics log + in-memory rollups.

The ingestion half of the push pipeline (:mod:`repro.telemetry.metrics`
is the client half).  A :class:`MetricsStore` accepts validated record
batches from ``/ingest``, appends each as one record to
``metrics.jsonl``, an :class:`~repro.applog.AppendLog` under the
durability contract of DESIGN.md §13, and folds every point into
in-memory rollups:

* one **series** per (namespace × run × metric × label set), capped to
  bound a misbehaving client's cardinality,
* per series, a **ring buffer** of fixed-width time windows, each
  holding ``{t0, count, sum, min, max, last}`` — enough for rate,
  average, and envelope queries without retaining raw points,
* running **totals** per series (count/sum/min/max/last/first_t/last_t).

Windows that fall off the ring are gone from memory but not from the
log, which a fresh store replays on construction — restart-safe without
any flush discipline beyond the append itself.

Reads are served three ways: ``/metrics/query`` JSON (the rollups,
filterable by namespace/run/metric), Prometheus-style ``/metrics``
exposition text (totals only — the format has no window concept), and a
bounded event buffer that the ``/events`` SSE stream drains so the
dashboard sees pushes live.  All mutation happens under one lock;
handlers run on ThreadingHTTPServer threads.
"""

from __future__ import annotations

import math
import re
import threading
import time
from pathlib import Path

from repro.applog import AppendLog
from repro.telemetry.metrics import (METRICS_SCHEMA, expand_record,
                                     validate_record)

#: Log file name inside the registry directory.
METRICS_LOG = "metrics.jsonl"

#: Namespace applied when no token table is configured and the client
#: did not ask for one.
DEFAULT_NAMESPACE = "default"

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _checked(record: dict):
    """``record`` if it is a metrics-log record of the current schema."""
    if record.get("v") == METRICS_SCHEMA \
            and isinstance(record.get("namespace"), str) \
            and isinstance(record.get("batch"), dict):
        return record
    return None


def _prom_name(metric: str) -> str:
    name = _PROM_SANITIZE.sub("_", metric)
    return name if not name[:1].isdigit() else "_" + name


def _prom_escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


class Series:
    """Rollups for one (namespace, run, metric, labels) series."""

    __slots__ = ("namespace", "run", "metric", "labels", "kind",
                 "count", "sum", "min", "max", "last", "first_t",
                 "last_t", "windows")

    def __init__(self, namespace, run, metric, labels, kind):
        self.namespace = namespace
        self.run = run
        self.metric = metric
        self.labels = labels  # tuple of (key, value) pairs, sorted
        self.kind = kind
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = None
        self.first_t = None
        self.last_t = None
        self.windows: list = []  # ring of {"t0",count,sum,min,max,last}

    def add(self, value: float, t: float, *, window: float,
            ring: int) -> None:
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.last = value
        if self.first_t is None:
            self.first_t = t
        self.last_t = t
        t0 = math.floor(t / window) * window
        bucket = self.windows[-1] if self.windows else None
        if bucket is None or bucket["t0"] != t0:
            # Out-of-order points land in the newest bucket rather
            # than reopening an old one: rollups stay append-only.
            if bucket is not None and t0 < bucket["t0"]:
                t0 = bucket["t0"]
            else:
                bucket = {"t0": t0, "count": 0, "sum": 0.0,
                          "min": math.inf, "max": -math.inf,
                          "last": None}
                self.windows.append(bucket)
                if len(self.windows) > ring:
                    del self.windows[:len(self.windows) - ring]
        bucket["count"] += 1
        bucket["sum"] += value
        bucket["min"] = min(bucket["min"], value)
        bucket["max"] = max(bucket["max"], value)
        bucket["last"] = value

    def as_dict(self) -> dict:
        return {
            "namespace": self.namespace,
            "run": self.run,
            "metric": self.metric,
            "labels": dict(self.labels),
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "last": self.last,
            "first_t": self.first_t,
            "last_t": self.last_t,
            "windows": [dict(w) for w in self.windows],
        }


class MetricsStore:
    """Durable, rolled-up destination for pushed metric batches."""

    def __init__(self, log_path, *, window: float = 10.0,
                 windows_per_series: int = 64, max_series: int = 4096,
                 max_batch_records: int = 4096, event_buffer: int = 256,
                 replay: bool = True):
        self.log_path = Path(log_path) if log_path else None
        self._log = AppendLog(self.log_path) if log_path else None
        self.window = window
        self.windows_per_series = max(1, int(windows_per_series))
        self.max_series = max(1, int(max_series))
        self.max_batch_records = max_batch_records
        self._lock = threading.Lock()
        self._series: dict = {}  # key tuple -> Series
        # Bounded event ring for SSE fan-out: (seq, event dict).
        self._events: list = []
        self._event_seq = 0
        self._event_buffer = max(1, int(event_buffer))
        # Ingest accounting (exposed at /healthz and /metrics).
        self.batches = 0
        self.records = 0
        self.rejected = 0
        self.unauthorized = 0
        self.series_dropped = 0
        if replay and self._log is not None:
            for record in self._log.read(_checked):
                self._fold_batch(record["namespace"], record["batch"],
                                 publish=False)

    @property
    def corrupt_log_lines(self) -> int:
        """Bad lines the replay of ``metrics.jsonl`` skipped."""
        return self._log.corrupt if self._log is not None else 0

    # -- ingestion -----------------------------------------------------

    def ingest(self, payload, *, namespace: str = None) -> dict:
        """Accept one POSTed batch.  ``namespace`` is what the token
        table resolved (auth wins over anything the client claimed);
        ``None`` falls back to the client's claim, then the default.

        Returns ``{"accepted", "rejected", "errors"}`` — the client
        folds ``rejected`` into its own accounting.  Raises only
        ``ValueError`` for a structurally unusable payload (the caller
        maps that to HTTP 400).
        """
        if not isinstance(payload, dict) \
                or payload.get("v") != METRICS_SCHEMA:
            raise ValueError("bad batch: missing or unknown schema "
                             "version")
        records = payload.get("records")
        if not isinstance(records, list) \
                or len(records) > self.max_batch_records:
            raise ValueError("bad batch: records must be a list of "
                             f"<= {self.max_batch_records}")
        run = payload.get("run")
        if not isinstance(run, str) or not run:
            raise ValueError("bad batch: missing run")
        if namespace is None:
            claimed = payload.get("namespace")
            namespace = claimed if isinstance(claimed, str) and claimed \
                else DEFAULT_NAMESPACE
        accepted, errors = [], []
        for record in records:
            error = validate_record(record)
            if error is None:
                accepted.append(record)
            elif len(errors) < 8:
                errors.append(error)
        rejected = len(records) - len(accepted)
        batch = {
            "run": run,
            "source": str(payload.get("source", "")),
            "received": time.time(),
            "records": accepted,
        }
        with self._lock:
            self.batches += 1
            self.rejected += rejected
            # A batch is durable and rolled up before its 200 goes out.
            if self._log is not None:
                self.log_path.parent.mkdir(parents=True, exist_ok=True)
                self._log.append({"v": METRICS_SCHEMA,
                                  "namespace": namespace, "batch": batch})
            self._fold_batch(namespace, batch)
        return {"accepted": len(accepted), "rejected": rejected,
                "errors": errors}

    def _fold_batch(self, namespace: str, batch: dict,
                    publish: bool = True) -> None:
        run = batch["run"]
        received = batch.get("received")
        for record in batch["records"]:
            for point in expand_record(record):
                self._fold_point(namespace, run, point, received)
        if publish and batch["records"]:
            self._publish_event({
                "namespace": namespace,
                "run": run,
                "source": batch.get("source", ""),
                "records": len(batch["records"]),
                "metrics": sorted({r["metric"]
                                   for r in batch["records"]})[:8],
            })

    def _fold_point(self, namespace, run, point, received) -> None:
        labels = tuple(sorted(
            (str(k), str(v)) for k, v in point.get("labels", {}).items()
        ))
        key = (namespace, run, point["metric"], labels)
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                self.series_dropped += 1
                return
            series = Series(namespace, run, point["metric"], labels,
                            point.get("kind", "gauge"))
            self._series[key] = series
        t = point.get("t")
        if t is None:
            t = received if received is not None else time.time()
        series.add(float(point["value"]), float(t),
                   window=self.window, ring=self.windows_per_series)
        self.records += 1

    def _publish_event(self, event: dict) -> None:
        self._event_seq += 1
        self._events.append((self._event_seq, event))
        if len(self._events) > self._event_buffer:
            del self._events[:len(self._events) - self._event_buffer]

    # -- reads ---------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "batches": self.batches,
                "records": self.records,
                "rejected": self.rejected,
                "unauthorized": self.unauthorized,
                "series": len(self._series),
                "series_dropped": self.series_dropped,
                "corrupt_log_lines": self.corrupt_log_lines,
                "log": str(self.log_path) if self.log_path else None,
            }

    def query(self, *, namespace: str = None, run: str = None,
              metric: str = None) -> dict:
        """Rollup view, filterable.  ``metric`` matches exactly or as a
        dotted prefix (``cell`` matches ``cell.ops``)."""
        with self._lock:
            series = list(self._series.values())
        out = []
        for s in series:
            if namespace is not None and s.namespace != namespace:
                continue
            if run is not None and s.run != run:
                continue
            if metric is not None and s.metric != metric \
                    and not s.metric.startswith(metric + "."):
                continue
            out.append(s.as_dict())
        out.sort(key=lambda d: (d["namespace"], d["run"], d["metric"],
                                sorted(d["labels"].items())))
        return {"series": out, "count": len(out)}

    def prometheus_text(self) -> str:
        """Prometheus exposition of series totals.  Counters export
        their running sum as ``<name>_total``; gauges export their last
        value; both get ``_count``-free envelopes via ``_min``/``_max``
        only where a scraper can use them (gauges)."""
        with self._lock:
            series = sorted(self._series.values(),
                            key=lambda s: (s.metric, s.namespace,
                                           s.run, s.labels))
            stats = {
                "batches": self.batches,
                "records": self.records,
                "rejected": self.rejected,
                "unauthorized": self.unauthorized,
                "series": len(self._series),
            }
        lines = []
        for name, value in sorted(stats.items()):
            prom = f"repro_ingest_{name}"
            lines.append(f"# TYPE {prom} counter"
                         if name != "series" else
                         f"# TYPE {prom} gauge")
            lines.append(f"{prom} {value}")
        seen_types: set = set()
        for s in series:
            base = "repro_" + _prom_name(s.metric)
            label_str = ",".join(
                [f'namespace="{_prom_escape(s.namespace)}"',
                 f'run="{_prom_escape(s.run)}"'] +
                [f'{_prom_name(k)}="{_prom_escape(v)}"'
                 for k, v in s.labels])
            if s.kind == "counter":
                name = base + "_total"
                if name not in seen_types:
                    seen_types.add(name)
                    lines.append(f"# TYPE {name} counter")
                lines.append(f"{name}{{{label_str}}} {s.sum}")
            else:
                if base not in seen_types:
                    seen_types.add(base)
                    lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base}{{{label_str}}} {s.last}")
                lines.append(f"{base}_min{{{label_str}}} {s.min}")
                lines.append(f"{base}_max{{{label_str}}} {s.max}")
        return "\n".join(lines) + "\n"

    def events_since(self, cursor: int):
        """(new_cursor, events) — the SSE stream polls this.  A cursor
        older than the ring start silently skips to what remains."""
        with self._lock:
            events = [e for seq, e in self._events if seq > cursor]
            return self._event_seq, events
