"""Replayable repro files — one format for every violation source.

Whether a violation comes from the model checker's BFS, the fuzzer's
shrunk schedule, or the runtime sanitizer tripping inside a timing
simulation, it is dumped in the same JSON envelope::

    {"format": "hmg-repro", "version": 1, "kind": "schedule"|"trace", ...}

* ``schedule`` repros carry an abstract-machine configuration
  (protocol, geometry, program, checker options) plus the action
  schedule; replaying re-executes it step by step through
  :func:`repro.verify.model.replay`.
* ``trace`` repros carry everything a sanitized simulation needs to be
  re-run (workload, seed, ops scale, protocol, placement, engine,
  fault plan, config, and the config the cell's trace was generated
  against, which a sweep variant's cell does not share with its run
  config) — each config as its deterministic ``repr``, rebuilt with
  :func:`config_from_repr`.

``run(path)`` replays either kind and reports whether the recorded
violation reproduces, making every dump a self-contained regression
test (``python -m repro.experiments verify repro run <file>``).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

FORMAT = "hmg-repro"
VERSION = 1


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def schedule_repro(*, protocol: str, geometry, program: str, options,
                   schedule, violation) -> dict:
    """Envelope for a model-checker or fuzzer counterexample."""
    return {
        "format": FORMAT,
        "version": VERSION,
        "kind": "schedule",
        "protocol": protocol,
        "geometry": str(geometry),
        "program": program,
        "options": asdict(options),
        "schedule": [list(a) for a in schedule],
        "violation": {
            "invariant": violation.invariant,
            "detail": violation.detail,
        },
    }


def trace_repro(*, workload: str, protocol: str, cfg, seed: int,
                ops_scale: float, placement: str = "first_touch",
                engine: str = "throughput", fault_plan=None,
                violation=None, trace_cfg=None) -> dict:
    """Envelope for a runtime sanitizer violation inside a timing run.

    ``cfg`` is the platform the run simulated; ``trace_cfg`` the config
    its trace was generated against (``None``: ``cfg``).
    """
    plan = None
    if fault_plan is not None:
        plan = {"name": fault_plan.name, "seed": fault_plan.seed}
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "kind": "trace",
        "workload": workload,
        "protocol": protocol,
        "placement": placement,
        "engine": engine,
        "seed": seed,
        "ops_scale": ops_scale,
        "fault_plan": plan,
        "config": repr(cfg),
        "trace_config": repr(trace_cfg if trace_cfg is not None else cfg),
        "violation": None,
    }
    if violation is not None:
        payload["violation"] = {
            "invariant": violation.invariant,
            "detail": violation.detail,
            "op_index": getattr(violation, "op_index", None),
            "line": getattr(violation, "line", None),
        }
    return payload


def config_from_repr(text: str):
    """Rebuild a :class:`~repro.config.SystemConfig` from its repr.

    ``SystemConfig`` is a frozen dataclass tree whose repr is
    deterministic and total (the parallel executor already fingerprints
    on it), so evaluating it against exactly the dataclass namespace is
    a faithful inverse.
    """
    from repro.config import (
        LatencyConfig,
        MessageSizeConfig,
        SystemConfig,
        TimingConfig,
    )

    namespace = {
        "SystemConfig": SystemConfig,
        "LatencyConfig": LatencyConfig,
        "MessageSizeConfig": MessageSizeConfig,
        "TimingConfig": TimingConfig,
    }
    return eval(text, {"__builtins__": {}}, namespace)


# ----------------------------------------------------------------------
# I/O
# ----------------------------------------------------------------------


def dump(repro: dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(repro, indent=2, sort_keys=True) + "\n")
    return path


def load(path) -> dict:
    repro = json.loads(Path(path).read_text())
    if repro.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} file")
    if repro.get("version") != VERSION:
        raise ValueError(
            f"{path}: unsupported version {repro.get('version')!r}"
        )
    if repro.get("kind") not in ("schedule", "trace"):
        raise ValueError(f"{path}: unknown kind {repro.get('kind')!r}")
    return repro


def repro_name(repro: dict) -> str:
    """Deterministic filename stem for a repro payload."""
    v = repro.get("violation") or {}
    inv = (v.get("invariant") or "violation").replace(" ", "-")
    if repro["kind"] == "schedule":
        return (f"schedule_{repro['protocol']}_{repro['geometry']}_"
                f"{repro['program']}_{inv}")
    return (f"trace_{repro['workload']}_{repro['protocol']}_"
            f"{repro['engine']}_{inv}")


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


def run(source) -> dict:
    """Replay a repro (path or loaded dict).

    Returns ``{"kind", "reproduced", "expected", "observed", "detail"}``
    where ``reproduced`` means a violation occurred and (when the file
    recorded one) its invariant matches.
    """
    repro = load(source) if not isinstance(source, dict) else source
    if repro["kind"] == "schedule":
        return _run_schedule(repro)
    return _run_trace(repro)


def _run_schedule(repro: dict) -> dict:
    from repro.verify.model import CheckOptions, Geometry, Machine, replay
    from repro.verify.programs import build

    options = CheckOptions(**repro["options"])
    geometry = Geometry.parse(repro["geometry"])
    program, homes = build(repro["program"], geometry)
    machine = Machine(repro["protocol"], geometry, program, homes,
                      options)
    outcome = replay(machine, repro["schedule"])
    expected = (repro.get("violation") or {}).get("invariant")
    if not outcome.ok:
        return {
            "kind": "schedule", "reproduced": False,
            "expected": expected, "observed": None,
            "detail": f"schedule not replayable: step "
                      f"{outcome.failed_at} was not enabled",
        }
    observed = outcome.violation.invariant if outcome.violation else None
    reproduced = observed is not None and \
        (expected is None or observed == expected)
    detail = (outcome.violation.detail if outcome.violation
              else "no violation on replay")
    return {"kind": "schedule", "reproduced": reproduced,
            "expected": expected, "observed": observed, "detail": detail}


def replay_trace(repro: dict):
    """The trace a trace-kind repro replays: its workload generated
    against the recorded trace config (payloads written before that
    field existed fall back to the run config)."""
    from repro.trace.workloads import WORKLOADS

    trace_cfg = config_from_repr(repro.get("trace_config",
                                           repro["config"]))
    return WORKLOADS[repro["workload"]].generate(
        trace_cfg, seed=repro["seed"], ops_scale=repro["ops_scale"]
    )


def _run_trace(repro: dict) -> dict:
    from repro.core.sanitizer import CoherenceViolation
    from repro.engine.simulator import simulate

    cfg = config_from_repr(repro["config"])
    trace = replay_trace(repro)
    plan = None
    if repro.get("fault_plan"):
        from repro.faults import make_fault_plan

        plan = make_fault_plan(repro["fault_plan"]["name"],
                               seed=repro["fault_plan"]["seed"])
    expected = (repro.get("violation") or {}).get("invariant")
    try:
        simulate(trace, cfg, protocol=repro["protocol"],
                 engine=repro["engine"], placement=repro["placement"],
                 workload_name=repro["workload"], fault_plan=plan,
                 sanitize=True)
    except CoherenceViolation as violation:
        observed = violation.invariant
        reproduced = expected is None or observed == expected
        return {"kind": "trace", "reproduced": reproduced,
                "expected": expected, "observed": observed,
                "detail": violation.detail}
    return {"kind": "trace", "reproduced": False,
            "expected": expected, "observed": None,
            "detail": "no violation on replay"}
