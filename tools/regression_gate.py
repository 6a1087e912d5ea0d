#!/usr/bin/env python3
"""CI regression gate over the live observability service.

Queries a running ``observe --serve`` instance's ``/regressions`` — the
cross-run drift view (the ``check_perf`` gate rendered over time), read
from every discovered run's manifests and perf sidecars — and emits a
GitHub-status-style summary: markdown on stdout, outcome as the exit
code.  This closes the "wire /regressions history into PR
review" loop: paste the markdown into a PR comment or a
``$GITHUB_STEP_SUMMARY``, gate the job on the exit code.

Exit codes:

* 0 — PASS: no flagged perf regressions, no flagged speedup drift
  (and, with ``--require-metrics``, at least one run reporting engine
  throughput).
* 1 — FAIL: at least one flagged regression (or, under
  ``--require-metrics``, no run reporting engine throughput: an empty
  view must not pass).
* 2 — the service is unreachable or answered garbage.

Stdlib only, like everything else in this repo.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request


def fetch_json(url: str, timeout: float):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


def _pct(value) -> str:
    return "—" if value is None else f"{100 * value:+.1f}%"


def _num(value) -> str:
    return "—" if value is None else f"{value:,.0f}"


def render_markdown(reg: dict, *, require_metrics: bool) -> tuple:
    """(markdown, ok) for one gate evaluation."""
    flagged = list(reg.get("flagged", []))
    runs = reg.get("runs", [])
    missing_metrics = require_metrics and not any(
        row.get("engine_ops_per_second") for row in runs)
    ok = not flagged and not missing_metrics

    lines = []
    status = "✅ PASS" if ok else "❌ FAIL"
    lines.append(f"## Regression gate — {status}")
    lines.append("")
    bench = reg.get("bench") or {}
    baseline = bench.get("baseline")
    tolerance = reg.get("tolerance")
    if baseline:
        lines.append(
            f"Baseline {baseline:,.0f} ops/sec, gate floor "
            f"{reg.get('floor'):,.0f} (tolerance "
            f"{100 * tolerance:.0f}%).")
    else:
        lines.append("No committed baseline (BENCH_perf.json) — the "
                     "perf half of the gate is advisory.")
    lines.append("")

    lines.append("### Engine throughput vs baseline")
    lines.append("")
    if runs:
        lines.append("| run | ops/sec | vs baseline | gate |")
        lines.append("|---|---:|---:|---|")
        for row in runs:
            gate = "⚠️ flagged" if row.get("flagged") else "ok"
            lines.append(
                f"| `{row['dir']}` "
                f"| {_num(row.get('engine_ops_per_second'))} "
                f"| {_pct((row.get('vs_baseline') or 1) - 1 if row.get('vs_baseline') is not None else None)} "
                f"| {gate} |")
    else:
        lines.append("_No runs discovered (sweep with --telemetry "
                     "DIR to populate)._")
    if missing_metrics:
        lines.append("")
        lines.append("_⚠️ --require-metrics set but no run reports "
                     "engine ops/sec (did any sweep simulate a cell "
                     "under --telemetry?)._")
    lines.append("")

    lines.append("### Geomean-speedup drift")
    lines.append("")
    drift = reg.get("speedup_drift", {})
    if drift:
        lines.append("| protocol | first | latest | change | gate |")
        lines.append("|---|---:|---:|---:|---|")
        for protocol, entry in sorted(drift.items()):
            gate = "⚠️ flagged" if entry.get("flagged") else "ok"
            lines.append(
                f"| {protocol} | {entry['first']:.3f} "
                f"| {entry['last']:.3f} | {_pct(entry.get('change'))} "
                f"| {gate} |")
    else:
        lines.append("_No speedup data yet._")
    lines.append("")

    if flagged:
        lines.append(f"**Flagged:** {', '.join(f'`{f}`' for f in flagged)}")
        lines.append("")
    return "\n".join(lines), ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/regression_gate.py",
        description="Query a live observe --serve instance and emit a "
                    "GitHub-status-style regression summary (markdown "
                    "to stdout, pass/fail as the exit code).",
    )
    parser.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL "
                             "(default http://127.0.0.1:8765)")
    parser.add_argument("--require-metrics", action="store_true",
                        help="fail the gate when no discovered run "
                             "reports engine ops/sec")
    parser.add_argument("--timeout", type=float, default=10.0)
    args = parser.parse_args(argv)

    base = args.url.rstrip("/")
    try:
        reg = fetch_json(f"{base}/regressions", args.timeout)
    except (urllib.error.URLError, OSError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"regression gate: cannot query {base}: {exc}",
              file=sys.stderr)
        return 2

    markdown, ok = render_markdown(reg,
                                   require_metrics=args.require_metrics)
    print(markdown)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
