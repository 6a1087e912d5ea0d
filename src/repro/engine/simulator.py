"""Top-level simulation entry points.

Typical use::

    from repro import SystemConfig, simulate
    from repro.trace.workloads import WORKLOADS

    cfg = SystemConfig.paper_scaled()
    trace = WORKLOADS["mst"].generate(cfg, seed=1)
    result = simulate(trace, cfg, protocol="hmg")
    print(result.summary())

Two opt-in robustness layers thread through here:

* ``fault_plan`` — a :class:`repro.faults.FaultPlan` degrading the
  interconnect (bandwidth windows, outages, message jitter);
* ``sanitize`` / ``sanitizer`` — a
  :class:`repro.core.sanitizer.CoherenceSanitizer` validating the
  DESIGN.md §6 invariants while the run executes.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import SystemConfig
from repro.core.registry import make_protocol
from repro.engine.stats import SimResult
from repro.engine.throughput import ThroughputEngine, ThroughputSink

ENGINES = ("throughput", "vectorized", "detailed")

#: Fallback reasons already warned about (once per process per reason:
#: a sweep that falls back on every cell complains once, not per cell).
_FALLBACK_WARNED: set = set()


def _warn_fallback(reason: str) -> None:
    if reason in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(reason)
    import sys

    print(f"simulate: engine='vectorized' falling back to the scalar "
          f"throughput engine ({reason}); results are identical but "
          f"slower — manifests record engine_used='throughput'",
          file=sys.stderr)


def simulate(trace, cfg: SystemConfig, protocol: str = "hmg",
             engine: str = "throughput", placement: str = "first_touch",
             workload_name: str = "trace", fault_plan=None,
             sanitize: bool = False, sanitizer=None,
             telemetry=None) -> SimResult:
    """Run one trace under one protocol and return its :class:`SimResult`.

    ``trace`` must be re-iterable (a list, or a
    :class:`repro.trace.stream.Trace`) if you plan to reuse it across
    protocols; a single run only needs one pass.

    ``sanitize=True`` builds a default
    :class:`~repro.core.sanitizer.CoherenceSanitizer`; pass your own
    via ``sanitizer`` to control sampling or inspect its counters
    afterwards.

    ``telemetry`` is an optional
    :class:`repro.telemetry.TelemetrySession` collecting trace events,
    interval samples and message tallies while the run executes.  The
    default ``None`` keeps both engines on their uninstrumented hot
    paths.
    """
    if sanitizer is None and sanitize:
        from repro.core.sanitizer import CoherenceSanitizer

        sanitizer = CoherenceSanitizer()
    if engine == "vectorized":
        from repro.engine.vectorized import (
            VECTORIZED_PROTOCOLS,
            VectorizedThroughputEngine,
        )

        # The batch engine has no per-op hook to hang a sanitizer or
        # tracer on, and only models the registry protocols it was
        # differentially validated against — anything else falls back
        # to the scalar reference engine rather than failing.
        if (sanitizer is None and telemetry is None
                and protocol in VECTORIZED_PROTOCOLS):
            result = VectorizedThroughputEngine(
                cfg, fault_plan=fault_plan
            ).run(
                protocol, trace, workload_name=workload_name,
                placement=placement
            )
            result.engine_used = "vectorized"
            return result
        if protocol not in VECTORIZED_PROTOCOLS:
            _warn_fallback(f"protocol {protocol!r} has no vectorized "
                           "twin")
        elif sanitizer is not None:
            _warn_fallback("sanitizer attached (no per-op hook in the "
                           "batch engine)")
        else:
            _warn_fallback("telemetry attached (no per-op hook in the "
                           "batch engine)")
        engine = "throughput"
    if engine == "throughput":
        if telemetry is not None:
            from repro.telemetry.session import TallyingSink

            sink = TallyingSink(cfg.num_gpus, telemetry)
        else:
            sink = ThroughputSink(cfg.num_gpus)
        proto = make_protocol(protocol, cfg, sink=sink, placement=placement)
        result = ThroughputEngine(cfg, fault_plan=fault_plan).run(
            proto, trace, workload_name=workload_name, sanitizer=sanitizer,
            telemetry=telemetry
        )
        result.engine_used = "throughput"
        return result
    if engine == "detailed":
        from repro.engine.detailed import DetailedEngine

        result = DetailedEngine(cfg, fault_plan=fault_plan).simulate(
            trace, protocol, placement=placement,
            workload_name=workload_name, sanitizer=sanitizer,
            telemetry=telemetry
        )
        result.engine_used = "detailed"
        return result
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def compare(trace, cfg: SystemConfig, protocols: Sequence[str],
            engine: str = "throughput", placement: str = "first_touch",
            workload_name: str = "trace", fault_plan=None,
            sanitize: bool = False) -> dict:
    """Run the same trace under several protocols.

    Returns ``{protocol_name: SimResult}``.  A one-shot iterator is
    collected once so every protocol sees the identical op sequence; a
    :class:`~repro.trace.stream.Trace` is passed through as it is, so a
    vectorized run reads its columns without building any ``MemOp``.
    """
    from repro.trace.stream import replayable

    trace = replayable(trace)
    return {
        name: simulate(trace, cfg, protocol=name, engine=engine,
                       placement=placement, workload_name=workload_name,
                       fault_plan=fault_plan, sanitize=sanitize)
        for name in protocols
    }


def speedups(results: dict, baseline: str = "noremote") -> dict:
    """Normalized speedups of each result over the baseline protocol."""
    if baseline not in results:
        raise KeyError(f"baseline {baseline!r} missing from results")
    base = results[baseline]
    return {
        name: result.speedup_over(base)
        for name, result in results.items()
        if name != baseline
    }
