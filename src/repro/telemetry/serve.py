"""``python -m repro.experiments observe --serve`` — observability service.

A long-running, stdlib-only, read-only HTTP service over the telemetry
substrate: it discovers run/telemetry/store directories through the
:class:`~repro.telemetry.session.RunRegistry` (which the sweep CLI
registers into the moment a sweep starts), tails their artifacts, and
answers three kinds of questions without ever re-simulating:

* **What is running right now?**  ``/events`` is a Server-Sent-Events
  stream of registry and manifest activity (new runs, per-cell
  completions, fabric/failed-cell sidecars appearing);
  ``/cells/<slug>/intervals`` streams an observe capture's
  IntervalSampler windows as they are written.
* **Did anything regress?**  ``/runs`` and ``/regressions`` aggregate
  per-cell manifests + perf sidecars across every discovered run into
  the cross-run drift view (:mod:`repro.telemetry.aggregate`): engine
  ops/sec vs the committed ``BENCH_perf.json`` baseline — the
  ``check_perf`` gate over time — and per-protocol geomean-speedup
  drift.  ``/`` renders it as a self-contained HTML dashboard.
* **What did cell X produce?**  ``/store/scan`` and
  ``/store/cell/<key>`` expose the content-addressed
  :class:`~repro.experiments.store.ResultStore` as a query API (the
  same code path as ``python -m repro.experiments store``).

Every answer is read from files the sweeps already write — manifests,
perf sidecars, ``fabric*.json``, the store's shards and the registry's
``fleet`` records — so the service accepts GET requests only and holds
no state of its own.

SSE framing: each event is ``event: <type>`` + ``data: <one JSON
line>`` + blank line; comment lines (``: tick``) are keepalives.
Shutdown is graceful: SIGINT/SIGTERM (or ``server.shutdown()``) stops
the accept loop, in-flight streams notice ``shutting_down`` within one
poll interval, and ``main`` returns 0.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse

from repro import __version__
from repro.telemetry.aggregate import (DEFAULT_TOLERANCE, load_bench,
                                       load_run, regression_view,
                                       result_digest, run_summary)
from repro.telemetry.session import DEFAULT_REGISTRY, RunRegistry


def _find_bench() -> Path:
    """Locate ``BENCH_perf.json``: cwd upwards, then the source tree."""
    for base in [Path.cwd(), *Path.cwd().parents]:
        candidate = base / "BENCH_perf.json"
        if candidate.exists():
            return candidate
    candidate = Path(__file__).resolve().parents[3] / "BENCH_perf.json"
    return candidate if candidate.exists() else None


class Observatory:
    """Discovery + aggregation state shared by every handler thread.

    Stateless per request by design — every query re-reads the registry
    and the artifact files, so a sweep that starts after the service
    does is visible on the next poll, and no cache can go stale.
    """

    def __init__(self, registry_dir=DEFAULT_REGISTRY, run_dirs=(),
                 store_dirs=(), bench_path=None,
                 tolerance: float = DEFAULT_TOLERANCE,
                 poll: float = 0.5):
        self.registry_dir = Path(registry_dir) if registry_dir else None
        self.extra_run_dirs = [Path(d) for d in run_dirs]
        self.extra_store_dirs = [Path(d) for d in store_dirs]
        self.bench_path = bench_path
        self.tolerance = tolerance
        self.poll = poll
        self.started = time.time()

    # -- discovery -----------------------------------------------------

    def registry_entries(self) -> list:
        if self.registry_dir is None or not self.registry_dir.is_dir():
            return []
        return RunRegistry(self.registry_dir).entries()

    def _dirs(self, kinds) -> list:
        seen: dict = {}
        for entry in self.registry_entries():
            if entry["kind"] in kinds:
                seen.setdefault(entry["dir"], entry)
        return list(seen.items())

    def run_dirs(self) -> list:
        """Ordered unique run directories (registry + explicit)."""
        dirs = [Path(d) for d, _ in self._dirs(("run", "observe"))]
        for extra in self.extra_run_dirs:
            if extra not in dirs:
                dirs.append(extra)
        return [d for d in dirs if d.is_dir()]

    def store_dirs(self) -> list:
        dirs = [Path(d) for d, _ in self._dirs(("store",))]
        for extra in self.extra_store_dirs:
            if extra not in dirs:
                dirs.append(extra)
        return [d for d in dirs if d.is_dir()]

    def runs(self) -> list:
        runs = []
        for directory in self.run_dirs():
            run = load_run(directory)
            if run is not None:
                runs.append(run)
        return runs

    # -- endpoint payloads ---------------------------------------------

    def runs_payload(self) -> dict:
        entries = self.registry_entries()
        status = {e["dir"]: e.get("info", {}).get("status")
                  for e in entries if e["kind"] == "run"}
        summaries = []
        for run in self.runs():
            summary = run_summary(run)
            summary["status"] = status.get(run["dir"])
            summaries.append(summary)
        return {
            "registry": str(self.registry_dir)
            if self.registry_dir else None,
            "runs": summaries,
            "stores": [str(d) for d in self.store_dirs()],
        }

    def regressions_payload(self) -> dict:
        return regression_view(self.runs(),
                               load_bench(self.bench_path),
                               tolerance=self.tolerance)

    def fleet_payload(self) -> dict:
        """Distributed-sweep fleets the registry knows about: worker
        liveness and lease state, as last published by each ``--listen``
        coordinator (kind="fleet" records)."""
        fleets = []
        for entry in self.registry_entries():
            if entry["kind"] != "fleet":
                continue
            info = entry.get("info", {})
            fleets.append({
                "dir": entry["dir"],
                "registered": entry.get("registered"),
                "status": info.get("status"),
                "coordinator": info.get("coordinator"),
                "workers": info.get("workers", []),
                "leases": info.get("leases"),
                "stats": info.get("stats"),
            })
        return {"fleets": fleets}

    def healthz_payload(self) -> dict:
        return {
            "ok": True,
            "version": __version__,
            "uptime_seconds": round(time.time() - self.started, 3),
            "registry": str(self.registry_dir)
            if self.registry_dir else None,
        }

    def store_scan_payload(self) -> dict:
        from repro.experiments.store import ResultStore

        stores = []
        for directory in self.store_dirs():
            store = ResultStore(directory)
            try:
                stores.append(store.summary())
            finally:
                store.close()
        return {
            "stores": stores,
            "records": sum(s["records"] for s in stores),
            "corrupt_records": sum(s["corrupt_records"]
                                   for s in stores),
        }

    def store_cell_payload(self, key: str) -> dict:
        from repro.experiments.store import ResultStore

        for directory in self.store_dirs():
            store = ResultStore(directory)
            try:
                result = store.get(key)
            finally:
                store.close()
            if result is not None:
                return {"key": key, "store": str(directory),
                        "result": result_digest(result)}
        return None

    def intervals_path(self, slug: str) -> Path:
        """The intervals.jsonl behind ``/cells/<slug>/intervals``.

        Matches registered observe captures by exact slug, then by slug
        prefix (slugs embed hex digests callers may truncate),
        then any run directory holding ``<slug>.intervals.jsonl``.
        """
        observes = [e for e in self.registry_entries()
                    if e["kind"] == "observe"]
        for exact in (True, False):
            for entry in observes:
                known = entry.get("info", {}).get("slug") or ""
                match = known == slug if exact \
                    else known.startswith(slug)
                path = Path(entry["dir"]) / "intervals.jsonl"
                if match and slug and path.exists():
                    return path
        for directory in self.run_dirs():
            path = directory / f"{slug}.intervals.jsonl"
            if path.exists():
                return path
        return None

    def close(self) -> None:
        pass  # no persistent handles; symmetric with main()'s flush


class ObservatoryServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, observatory: Observatory,
                 quiet: bool = True):
        super().__init__(address, ObservatoryHandler)
        self.observatory = observatory
        self.quiet = quiet
        #: Streaming handlers poll this to end gracefully.
        self.shutting_down = False


class ObservatoryHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-observe/1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, fmt, *args):
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _send_json(self, payload, status: int = 200) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True)
                + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Access-Control-Allow-Origin", "*")
        self.end_headers()
        self.wfile.write(body)

    def _send_html(self, html: str) -> None:
        body = html.encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _start_sse(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.send_header("Access-Control-Allow-Origin", "*")
        self.end_headers()

    def _sse(self, event: str, data) -> None:
        frame = f"event: {event}\ndata: {json.dumps(data, sort_keys=True)}\n\n"
        self.wfile.write(frame.encode())
        self.wfile.flush()

    def _sse_keepalive(self) -> None:
        self.wfile.write(b": tick\n\n")
        self.wfile.flush()

    # -- routing -------------------------------------------------------

    def do_GET(self):
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = dict(
            pair.split("=", 1) if "=" in pair else (pair, "")
            for pair in url.query.split("&") if pair
        )
        obs = self.server.observatory
        try:
            if not parts:
                return self._send_html(DASHBOARD_HTML)
            if parts == ["healthz"]:
                return self._send_json(obs.healthz_payload())
            if parts == ["runs"]:
                return self._send_json(obs.runs_payload())
            if parts == ["regressions"]:
                return self._send_json(obs.regressions_payload())
            if parts == ["fleet"]:
                return self._send_json(obs.fleet_payload())
            if parts == ["store", "scan"]:
                return self._send_json(obs.store_scan_payload())
            if len(parts) == 3 and parts[:2] == ["store", "cell"]:
                payload = obs.store_cell_payload(parts[2])
                if payload is None:
                    return self._send_json(
                        {"error": f"no record under key {parts[2]}"},
                        status=404)
                return self._send_json(payload)
            if parts == ["events"]:
                return self._stream_events()
            if len(parts) == 3 and parts[0] == "cells" \
                    and parts[2] == "intervals":
                return self._stream_intervals(parts[1], query)
            return self._send_json(
                {"error": f"no route for {url.path}"}, status=404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to salvage

    # -- SSE streams ---------------------------------------------------

    def _stream_intervals(self, slug: str, query: dict) -> None:
        """Tail one capture's interval JSONL as SSE, window by window."""
        obs = self.server.observatory
        path = obs.intervals_path(slug)
        if path is None:
            return self._send_json(
                {"error": f"no intervals for cell {slug}"}, status=404)
        follow = query.get("follow", "1") not in ("0", "false")
        self._start_sse()
        self._sse("cell", {"slug": slug, "path": str(path)})
        offset = 0
        buffered = b""
        while True:
            with open(path, "rb") as fh:
                fh.seek(offset)
                chunk = fh.read()
            offset += len(chunk)
            buffered += chunk
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                if line.strip():
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail; retry on next growth
                    self._sse("interval", row)
            if not follow:
                self._sse("end", {"rows": True})
                return
            if self.server.shutting_down:
                self._sse("end", {"reason": "server shutdown"})
                return
            self._sse_keepalive()
            time.sleep(obs.poll)

    def _stream_events(self) -> None:
        """Registry-wide activity stream: runs, cells, sidecars."""
        obs = self.server.observatory
        self._start_sse()
        known_runs: set = set()
        known_cells: dict = {}
        known_sidecars: set = set()
        payload = obs.runs_payload()
        self._sse("snapshot", {
            "runs": len(payload["runs"]),
            "stores": len(payload["stores"]),
        })
        while True:
            for directory in obs.run_dirs():
                name = str(directory)
                if name not in known_runs:
                    known_runs.add(name)
                    known_cells[name] = set()
                    self._sse("run", {"dir": name})
                seen = known_cells[name]
                for manifest in sorted(directory.glob("*.metrics.json")):
                    slug = manifest.name[:-len(".metrics.json")]
                    if slug not in seen:
                        seen.add(slug)
                        self._sse("cell", {"dir": name, "slug": slug})
                for sidecar in ("fabric.json", "failed_cells.json",
                                "run.json"):
                    path = directory / sidecar
                    if path.exists() and str(path) not in known_sidecars:
                        known_sidecars.add(str(path))
                        self._sse("sidecar",
                                  {"dir": name, "file": sidecar})
            if self.server.shutting_down:
                self._sse("end", {"reason": "server shutdown"})
                return
            self._sse_keepalive()
            time.sleep(obs.poll)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments observe --serve",
        description="Live observability service: SSE streaming of "
                    "in-flight sweeps, cross-run regression dashboard, "
                    "and results-store query API.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765,
                        help="listen port (default 8765; 0 picks a "
                             "free port and prints it)")
    parser.add_argument("--registry", default=DEFAULT_REGISTRY,
                        metavar="DIR",
                        help="run registry to discover sweeps from "
                             f"(default {DEFAULT_REGISTRY})")
    parser.add_argument("--runs", nargs="*", default=[], metavar="DIR",
                        help="extra telemetry run directories to index")
    parser.add_argument("--store", nargs="*", default=[], metavar="DIR",
                        help="extra results-store directories to serve")
    parser.add_argument("--bench", default=None, metavar="FILE",
                        help="BENCH_perf.json for regression baselines "
                             "(default: auto-discover)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="fractional drop that flags a regression "
                             "(default 0.30, matching check_perf)")
    parser.add_argument("--poll", type=float, default=0.5,
                        metavar="SECONDS",
                        help="SSE tail/poll interval (default 0.5)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    return parser


def create_server(args) -> ObservatoryServer:
    bench = Path(args.bench) if args.bench else _find_bench()
    observatory = Observatory(
        registry_dir=args.registry, run_dirs=args.runs,
        store_dirs=args.store, bench_path=bench,
        tolerance=args.tolerance, poll=args.poll,
    )
    return ObservatoryServer((args.host, args.port), observatory,
                             quiet=not args.verbose)


def run(server: ObservatoryServer) -> int:
    """Serve until interrupted or ``server.shutdown()``; returns 0.

    The flush path is unconditional: streams are told to end
    (``shutting_down``), the listening socket closes, and the
    observatory releases anything it holds — so a Ctrl-C mid-stream
    still exits 0 with every connection accounted for.
    """
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutting_down = True
        server.server_close()
        server.observatory.close()
        print("observability service: shut down cleanly",
              file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    server = create_server(args)
    host, port = server.server_address[:2]
    print(f"observability service on http://{host}:{port}/ "
          f"(registry {args.registry}; Ctrl-C to stop)",
          file=sys.stderr)
    if threading.current_thread() is threading.main_thread():
        def _terminate(_signum, _frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _terminate)
    return run(server)


# ----------------------------------------------------------------------
# Dashboard (self-contained; fetches the JSON endpoints above)
# ----------------------------------------------------------------------

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>HMG repro — observability</title>
<meta name="viewport" content="width=device-width, initial-scale=1">
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --grid: #e3e2de; --series-1: #2a78d6;
  --status-good: #008300; --status-bad: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #383835;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #3d3c39; --series-1: #3987e5;
    --status-good: #35b158; --status-bad: #e66767;
  }
}
body { margin: 0; }
.viz-root {
  font: 14px/1.45 system-ui, sans-serif;
  background: var(--surface-1); color: var(--text-primary);
  min-height: 100vh; padding: 24px;
}
h1 { font-size: 19px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile {
  background: var(--surface-2); border-radius: 8px;
  padding: 12px 16px; min-width: 150px;
}
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; width: 100%; max-width: 980px; }
th, td {
  text-align: left; padding: 5px 10px;
  border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums;
}
th { color: var(--text-secondary); font-weight: 500; font-size: 12px; }
td.num, th.num { text-align: right; }
.flag { color: var(--status-bad); font-weight: 600; }
.ok { color: var(--status-good); }
svg text { fill: var(--text-secondary); font-size: 11px; }
.chart-wrap { max-width: 760px; }
#events {
  max-width: 980px; max-height: 200px; overflow-y: auto;
  background: var(--surface-2); border-radius: 8px; padding: 8px 12px;
  font-family: ui-monospace, monospace; font-size: 12px;
  color: var(--text-secondary);
}
#tip {
  position: fixed; pointer-events: none; display: none;
  background: var(--surface-2); color: var(--text-primary);
  border: 1px solid var(--grid); border-radius: 6px;
  padding: 4px 8px; font-size: 12px;
}
</style>
</head>
<body>
<div class="viz-root">
<h1>HMG reproduction — live observability</h1>
<p class="sub">Engine throughput vs the committed baseline, cross-run
geomean-speedup drift, and in-flight sweep activity.</p>
<div class="tiles" id="tiles"></div>
<h2>Engine throughput history <span class="sub">(ops/sec,
BENCH_perf.json history + discovered runs)</span></h2>
<div class="chart-wrap"><svg id="perf" width="760" height="240"
  role="img" aria-label="ops per second over time"></svg></div>
<h2>Runs</h2>
<table id="runs"><thead><tr>
  <th>run directory</th><th>status</th><th class="num">cells</th>
  <th class="num">failed</th><th class="num">ops/sec</th>
  <th class="num">vs baseline</th><th>gate</th>
</tr></thead><tbody></tbody></table>
<h2>Fleet <span class="sub">(distributed sweep workers and lease
state, as last published by each --listen coordinator)</span></h2>
<table id="fleet"><thead><tr>
  <th>sweep</th><th>coordinator</th><th>worker</th><th>state</th>
  <th class="num">cells done</th><th class="num">silent (s)</th>
  <th class="num">leases out</th><th class="num">reclaimed</th>
</tr></thead><tbody></tbody></table>
<h2>Lease health <span class="sub">(coordinator counters: every
lease, reclaim cause, retry, and rejected frame)</span></h2>
<table id="lease-health"><thead><tr>
  <th>sweep</th><th class="num">leases</th><th class="num">reclaims</th>
  <th class="num">eof</th><th class="num">heartbeat</th>
  <th class="num">deadline</th><th class="num">retries</th>
  <th class="num">stale</th><th class="num">auth rej</th>
  <th class="num">byes</th>
</tr></thead><tbody></tbody></table>
<h2>Geomean-speedup drift <span class="sub">(per protocol, newest run
vs earliest; simulated results are deterministic, so drift means the
code changed the physics)</span></h2>
<table id="drift"><thead><tr>
  <th>protocol</th><th class="num">first</th><th class="num">latest</th>
  <th class="num">change</th><th>gate</th>
</tr></thead><tbody></tbody></table>
<h2>Live events</h2>
<div id="events"></div>
<div id="tip"></div>
</div>
<script>
"use strict";
const fmt = (x, d=0) => x == null ? "—"
  : Number(x).toLocaleString("en-US", {maximumFractionDigits: d});
const pct = x => x == null ? "—" : (100 * x).toFixed(0) + "%";
const css = name =>
  getComputedStyle(document.querySelector(".viz-root"))
    .getPropertyValue(name).trim();

function tile(k, v) {
  return `<div class="tile"><div class="v">${v}</div>` +
         `<div class="k">${k}</div></div>`;
}

function gateCell(flagged) {
  return flagged ? '<span class="flag">&#9888; FLAGGED</span>'
                 : '<span class="ok">&#10003; ok</span>';
}

function drawPerf(reg) {
  const svg = document.getElementById("perf");
  const bench = reg.bench || {};
  const pts = [];
  (bench.history || []).forEach((h, i) => {
    if (h.ops_per_second)
      pts.push({x: i, y: h.ops_per_second,
                label: h.recorded || h.commit || ("#" + i),
                note: h.note || ""});
  });
  (reg.runs || []).forEach(r => {
    if (r.engine_ops_per_second)
      pts.push({x: pts.length, y: r.engine_ops_per_second,
                label: r.dir.split("/").pop(), note: "run", run: true});
  });
  if (!pts.length) { svg.outerHTML = "<p class='sub'>no perf history yet " +
    "(run tools/check_perf.py --record)</p>"; return; }
  const W = 760, H = 240, L = 70, R = 12, T = 14, B = 34;
  const ys = pts.map(p => p.y).concat(
    bench.baseline ? [bench.baseline, reg.floor] : []);
  const ymax = Math.max(...ys) * 1.08, ymin = 0;
  const X = i => L + (W - L - R) * (pts.length < 2 ? 0.5
    : i / (pts.length - 1));
  const Y = v => T + (H - T - B) * (1 - (v - ymin) / (ymax - ymin));
  let s = "";
  for (let g = 0; g <= 4; g++) {
    const v = ymin + (ymax - ymin) * g / 4, y = Y(v);
    s += `<line x1="${L}" x2="${W - R}" y1="${y}" y2="${y}"
      stroke="${css("--grid")}" stroke-width="1"/>`;
    s += `<text x="${L - 6}" y="${y + 4}" text-anchor="end">` +
         `${fmt(v / 1000)}k</text>`;
  }
  if (bench.baseline) {
    const y = Y(bench.baseline);
    s += `<line x1="${L}" x2="${W - R}" y1="${y}" y2="${y}"
      stroke="${css("--text-secondary")}" stroke-width="1"
      stroke-dasharray="5 4"/>`;
    s += `<text x="${W - R}" y="${y - 5}" text-anchor="end">baseline ` +
         `${fmt(bench.baseline / 1000)}k (gate floor ` +
         `${fmt(reg.floor / 1000)}k)</text>`;
  }
  const line = pts.map((p, i) =>
    `${i ? "L" : "M"}${X(p.x).toFixed(1)},${Y(p.y).toFixed(1)}`).join("");
  s += `<path d="${line}" fill="none" stroke="${css("--series-1")}"
    stroke-width="2" stroke-linejoin="round"/>`;
  pts.forEach(p => {
    s += `<circle cx="${X(p.x)}" cy="${Y(p.y)}" r="4"
      fill="${css("--series-1")}" stroke="${css("--surface-1")}"
      stroke-width="2" data-tip="${p.label}: ${fmt(p.y)} ops/sec ` +
      `${p.note}"/>`;
    s += `<text x="${X(p.x)}" y="${H - B + 16}" text-anchor="middle">` +
         `${p.label}</text>`;
  });
  svg.innerHTML = s;
  const tip = document.getElementById("tip");
  svg.addEventListener("mousemove", ev => {
    const target = ev.target.closest("[data-tip]");
    if (!target) { tip.style.display = "none"; return; }
    tip.textContent = target.dataset.tip;
    tip.style.display = "block";
    tip.style.left = (ev.clientX + 12) + "px";
    tip.style.top = (ev.clientY - 10) + "px";
  });
  svg.addEventListener("mouseleave",
    () => tip.style.display = "none");
}

// Registry-derived strings (worker names especially are self-reported
// by remote hosts over the wire) must never reach innerHTML raw.
const esc = s => String(s).replace(/[&<>"']/g, c => ({
  "&": "&amp;", "<": "&lt;", ">": "&gt;",
  '"': "&quot;", "'": "&#39;"}[c]));

async function refresh() {
  const [runs, reg, store, fleet] = await Promise.all([
    fetch("/runs").then(r => r.json()),
    fetch("/regressions").then(r => r.json()),
    fetch("/store/scan").then(r => r.json()),
    fetch("/fleet").then(r => r.json()),
  ]);
  const bench = reg.bench || {};
  document.getElementById("tiles").innerHTML =
    tile("latest ops/sec", fmt(bench.latest)) +
    tile("committed baseline", fmt(bench.baseline)) +
    tile("runs discovered", fmt(runs.runs.length)) +
    tile("store records", fmt(store.records)) +
    tile("regressions flagged",
         `${reg.flagged.length ? "&#9888; " : ""}${reg.flagged.length}`);
  const byDir = {};
  reg.runs.forEach(r => byDir[r.dir] = r);
  document.querySelector("#runs tbody").innerHTML =
    runs.runs.map(r => {
      const p = byDir[r.dir] || {};
      return `<tr><td>${esc(r.dir)}</td><td>${r.status || (r.complete
        ? "completed" : "in flight")}</td>` +
        `<td class="num">${fmt(r.cells)}</td>` +
        `<td class="num">${fmt(r.failed_cells)}</td>` +
        `<td class="num">${fmt(r.engine_ops_per_second)}</td>` +
        `<td class="num">${pct(p.vs_baseline)}</td>` +
        `<td>${gateCell(p.flagged)}</td></tr>`;
    }).join("") || "<tr><td colspan=7>no runs registered yet — " +
      "sweep with --telemetry DIR</td></tr>";
  document.querySelector("#fleet tbody").innerHTML =
    (fleet.fleets || []).flatMap(f => {
      const coord = f.coordinator ? f.coordinator.addr : "—";
      const leases = f.leases || {};
      const rows = (f.workers && f.workers.length ? f.workers
        : [{name: "(no workers yet)", state: f.status}]);
      return rows.map(w =>
        `<tr><td>${esc(f.dir)}</td><td>${esc(coord)}</td>` +
        `<td>${esc(w.name)}</td>` +
        `<td>${esc(w.state || "—")}</td>` +
        `<td class="num">${fmt(w.cells_done)}</td>` +
        `<td class="num">${w.silence_s == null ? "—" : w.silence_s}</td>` +
        `<td class="num">${fmt(leases.outstanding)}</td>` +
        `<td class="num">${fmt(leases.reclaimed)}</td></tr>`);
    }).join("") || "<tr><td colspan=8>no distributed fleets " +
      "registered — sweep with --listen HOST:PORT</td></tr>";
  document.querySelector("#lease-health tbody").innerHTML =
    (fleet.fleets || []).filter(f => f.stats).map(f => {
      const s = f.stats;
      return `<tr><td>${esc(f.dir)}</td>` +
        `<td class="num">${fmt(s.leases_issued)}</td>` +
        `<td class="num">${fmt(s.reclaims)}</td>` +
        `<td class="num">${fmt(s.reclaims_eof)}</td>` +
        `<td class="num">${fmt(s.reclaims_heartbeat)}</td>` +
        `<td class="num">${fmt(s.reclaims_deadline)}</td>` +
        `<td class="num">${fmt(s.retries)}</td>` +
        `<td class="num">${fmt(s.stale_frames)}</td>` +
        `<td class="num">${fmt(s.auth_rejected)}</td>` +
        `<td class="num">${fmt(s.worker_byes)}</td></tr>`;
    }).join("") || "<tr><td colspan=10>no coordinator stats yet</td></tr>";
  document.querySelector("#drift tbody").innerHTML =
    Object.entries(reg.speedup_drift || {}).map(([proto, d]) =>
      `<tr><td>${proto}</td><td class="num">${d.first.toFixed(3)}</td>` +
      `<td class="num">${d.last.toFixed(3)}</td>` +
      `<td class="num">${pct(d.change)}</td>` +
      `<td>${gateCell(d.flagged)}</td></tr>`
    ).join("") || "<tr><td colspan=5>no speedup data yet</td></tr>";
  drawPerf(reg);
}

function follow() {
  const log = document.getElementById("events");
  const source = new EventSource("/events");
  for (const kind of ["snapshot", "run", "cell", "sidecar", "end"]) {
    source.addEventListener(kind, ev => {
      const line = document.createElement("div");
      line.textContent = `${new Date().toLocaleTimeString()} ` +
        `${kind} ${ev.data}`;
      log.prepend(line);
      while (log.childElementCount > 50) log.lastChild.remove();
      if (kind === "cell" || kind === "sidecar") refresh();
    });
  }
}

refresh().then(follow).catch(err => {
  document.getElementById("events").textContent = "error: " + err;
});
setInterval(refresh, 10000);
</script>
</body>
</html>
"""


if __name__ == "__main__":
    raise SystemExit(main())
