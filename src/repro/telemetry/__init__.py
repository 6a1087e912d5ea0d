"""Telemetry subsystem: event tracing, interval metrics, run manifests.

Three layers, all off by default with a zero-overhead contract
(enforced by ``tools/check_perf.py``):

* :mod:`~repro.telemetry.tracer` — structured event tracing
  (:class:`Tracer` / :data:`NULL_TRACER` / :class:`ChromeTracer`),
  exported as Chrome trace-event JSON for Perfetto.
* :mod:`~repro.telemetry.interval` — :class:`IntervalSampler`, binning
  counters into fixed windows as deterministic JSONL time series.
* :mod:`~repro.telemetry.manifest` — per-cell ``metrics.json``
  manifests (deterministic) plus ``perf.json`` sidecars (wall clock),
  written by sweeps under ``--telemetry DIR``.

:class:`TelemetrySession` bundles the collectors for one run;
``python -m repro.experiments observe`` records a single cell with all
of them and renders a markdown report.
"""

from repro.telemetry.interval import IntervalSampler, read_jsonl
from repro.telemetry.manifest import (
    cell_manifest,
    cell_record,
    perf_sidecar,
    write_cell_artifacts,
    write_json,
    write_run_manifest,
)
from repro.telemetry.progress import SweepProgress
from repro.telemetry.tracer import (
    NULL_TRACER,
    ChromeTracer,
    NullTracer,
    Tracer,
)

_SESSION_EXPORTS = (
    "TallyingSink",
    "TelemetrySession",
    "make_detailed_snapshot",
    "make_throughput_snapshot",
)


def __getattr__(name):
    # ``session`` pulls in the engines, which import
    # ``repro.core.protocol``, which imports this package for
    # NULL_TRACER — so the session layer loads lazily to keep the
    # import graph acyclic.
    if name in _SESSION_EXPORTS:
        from repro.telemetry import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChromeTracer",
    "IntervalSampler",
    "NULL_TRACER",
    "NullTracer",
    "SweepProgress",
    "TallyingSink",
    "TelemetrySession",
    "Tracer",
    "cell_manifest",
    "cell_record",
    "make_detailed_snapshot",
    "make_throughput_snapshot",
    "perf_sidecar",
    "read_jsonl",
    "write_cell_artifacts",
    "write_json",
    "write_run_manifest",
]
