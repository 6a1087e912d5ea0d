"""Spans around the program's layer boundaries, for traced runs only.

The benchmark records spans from its own files: :func:`install` wraps
public functions of each layer (``trace``, ``engine``, ``runner``,
``fabric``, ``store``, ``journal``, ``telemetry``, ``analysis``) and
every call becomes one span with its start, end, parent span and, where
the call names a cell, the cell's fingerprint as the shared id.  Spans
stay in memory; each process writes them once, at its end, as Chrome
trace-event JSON, and :func:`layer_metrics` derives the per-layer
metrics from the merged events.

Fabric workers are forked, so spans inside them never reach the parent.
The parent-side ``SweepExecutor.run`` span records what the program
already returns instead: each cell's ``SimResult.wall_seconds`` and
the batch's ``FabricStats``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import resource
import sys
import threading
import time

#: Fields a figure consumes from a ``SimResult`` (``ref_gap``).
CONSUMED_FIELDS = ("cycles", "link_bytes", "dram_bytes",
                   "lines_inv_by_store", "lines_inv_by_dir_evict")


def cpu_seconds() -> float:
    """User + sys CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Spans:
    """In-memory span recorder (one per process)."""

    def __init__(self):
        self.events: list = []
        self.recording = False
        #: Label stored on every span (the pass it belongs to).
        self.phase = ""
        #: ``module.qualname`` targets this build of the program lacks.
        self.missing: list = []
        self._local = threading.local()
        self._store_cells: dict = {}  # store key -> cell id
        #: (workload, protocol, config fp, plan fp) -> cell ids; the
        #: journal's record_cell carries no placement.
        self._journal_cells: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span that :func:`install` did not create
        (the benchmark's own pass boundaries)."""
        return self._call(name, layer, None, fn, args, kwargs)

    def _call(self, name, layer, hooks, fn, args, kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        event = {
            "name": name, "cat": layer, "ph": "X",
            "pid": os.getpid(), "tid": threading.get_ident(),
            "args": {"id": len(self.events), "phase": self.phase,
                     "parent": stack[-1]["args"]["id"] if stack else None},
        }
        self.events.append(event)
        bound = None
        if hooks is not None:
            bound = hooks.bind(args, kwargs)
            hooks.enter(self, event["args"], bound)
        stack.append(event)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            event["ts"] = start / 1000.0
            event["dur"] = (end - start) / 1000.0
        if hooks is not None:
            hooks.leave(self, event["args"], bound, result)
        return result

    def wrap(self, fn, name: str, layer: str, hooks=None):
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return spans._call(name, layer, hooks, fn, args, kwargs)

        return wrapper

    def write(self, path) -> None:
        """Write every span once, as Chrome trace-event JSON."""
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, fh)


# ----------------------------------------------------------------------
# What each span records beyond its timing
# ----------------------------------------------------------------------

class Hooks:
    """Per-target argument binding plus enter/leave recorders."""

    def __init__(self, fn, enter=None, leave=None):
        self._sig = inspect.signature(fn)
        self._enter = enter
        self._leave = leave

    def bind(self, args, kwargs) -> dict:
        bound = self._sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def enter(self, spans, record, bound):
        if self._enter is not None:
            self._enter(spans, record, bound)

    def leave(self, spans, record, bound, result):
        if self._leave is not None:
            self._leave(spans, record, bound, result)


def _register(spans, key: tuple) -> str:
    """``parallel.cell_fingerprint`` of a ``parallel.cell_key`` tuple,
    remembered for journal spans."""
    workload, protocol, config_fp, _placement, plan_fp, _sanitize = key
    cell = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
    spans._journal_cells.setdefault(
        (workload, protocol, config_fp, plan_fp), set()).add(cell)
    return cell


def _cell_id(spans, workload, protocol, cfg, placement, plan,
             sanitize=False) -> str:
    from repro.experiments.parallel import cell_key

    return _register(spans, cell_key(workload, protocol, cfg, placement,
                                     plan, sanitize))


def _result_fields(record, result) -> None:
    record["engine"] = getattr(result, "engine_used", "") or "throughput"
    record["ops"] = result.ops
    record["loop_s"] = result.wall_seconds


def _leave_generate(spans, record, bound, result):
    record["ops"] = len(result)


def _leave_simulate(spans, record, bound, result):
    record["cell"] = _cell_id(
        spans, bound["workload_name"], bound["protocol"], bound["cfg"],
        bound["placement"], bound["fault_plan"],
        bound["sanitize"] or bound["sanitizer"] is not None)
    _result_fields(record, result)


def _leave_run_many(spans, record, bound, result):
    record["requested"] = len(result)


def _enter_executor(spans, record, bound):
    executor = bound["self"]
    stats = executor.fabric_stats
    record["_cpu0"] = cpu_seconds()
    record["_stats0"] = stats.as_dict() if stats is not None else {}


def _leave_executor(spans, record, bound, result):
    executor = bound["self"]
    cpu0 = record.pop("_cpu0")
    before = record.pop("_stats0")
    record["cpu_s"] = cpu_seconds() - cpu0
    record["cells"] = len(result)
    record["fabric"] = (not executor.distributed and executor.jobs > 1
                        and len(result) > 1)
    record["workers"] = (min(executor.jobs, len(result))
                         if record["fabric"] else 0)
    stats = executor.fabric_stats
    after = stats.as_dict() if stats is not None else {}
    for name in ("cells", "retries", "respawns"):
        record[f"stats_{name}"] = after.get(name, 0) - before.get(name, 0)
    done = [r for r in result if r is not None]
    record["results"] = [
        {"engine": getattr(r, "engine_used", "") or "throughput",
         "ops": r.ops, "loop_s": r.wall_seconds}
        for r in done
    ]


def _leave_store_key(spans, record, bound, result):
    spans._store_cells[result] = _register(spans, bound["cell_key"])


def _leave_store_get(spans, record, bound, result):
    record["cell"] = spans._store_cells.get(bound["key"], "")
    record["hit"] = result is not None


def _leave_store_put(spans, record, bound, result):
    record["cell"] = spans._store_cells.get(bound["key"], "")


def _leave_record_cell(spans, record, bound, result):
    from repro.experiments.parallel import (config_fingerprint,
                                            plan_fingerprint)

    cells = spans._journal_cells.get(
        (bound["workload"], bound["protocol"],
         config_fingerprint(bound["cfg"]),
         plan_fingerprint(bound["fault_plan"])), ())
    # Cells differing only in placement share one journal identity.
    record["cell"] = next(iter(cells)) if len(cells) == 1 else ""


def _leave_artifacts(spans, record, bound, result):
    record["cell"] = _cell_id(
        spans, bound["workload"], bound["protocol"], bound["cfg"],
        bound["placement"], bound["fault_plan"])


#: (module, qualname, layer, span name, enter, leave).  A span name of
#: ``None`` records through the hooks without emitting a span.
TARGETS = (
    ("repro.trace.generator", "WorkloadSpec.generate", "trace",
     "trace.generate", None, _leave_generate),
    ("repro.experiments.runner", "ExperimentContext.trace", "trace",
     "trace.get", None, None),
    ("repro.trace.cache", "TraceCache.load", "trace", "trace.load",
     None, None),
    ("repro.trace.batch", "BatchTrace.from_payload", "trace",
     "trace.decode", None, None),
    ("repro.trace.batch", "BatchTrace.from_ops", "trace", "trace.decode",
     None, None),
    ("repro.trace.batch", "as_batch", "trace", "trace.as_batch",
     None, None),
    ("repro.engine.simulator", "simulate", "engine", "engine.simulate",
     None, _leave_simulate),
    ("repro.experiments.runner", "ExperimentContext.run_many", "runner",
     "runner.run_many", None, _leave_run_many),
    ("repro.experiments.runner", "ExperimentContext.run", "runner",
     "runner.run", None, None),
    ("repro.experiments.parallel", "SweepExecutor.run", "fabric",
     "fabric.run", _enter_executor, _leave_executor),
    ("repro.experiments.store", "store_key", "store", None,
     None, _leave_store_key),
    ("repro.experiments.store", "ResultStore.get", "store", "store.get",
     None, _leave_store_get),
    ("repro.experiments.store", "ResultStore.put", "store", "store.put",
     None, _leave_store_put),
    ("repro.experiments.journal", "RunJournal.record_cell", "journal",
     "journal.record_cell", None, _leave_record_cell),
    ("repro.telemetry.manifest", "write_cell_artifacts", "telemetry",
     "telemetry.write_cell_artifacts", None, _leave_artifacts),
    ("repro.telemetry.manifest", "write_run_manifest", "telemetry",
     "telemetry.write_run_manifest", None, None),
    ("repro.analysis.report", "format_table", "analysis",
     "analysis.format_table", None, None),
    ("repro.analysis.report", "format_speedup_table", "analysis",
     "analysis.format_speedup_table", None, None),
    ("repro.analysis.report", "format_bars", "analysis",
     "analysis.format_bars", None, None),
    ("repro.analysis.report", "format_sweep", "analysis",
     "analysis.format_sweep", None, None),
    ("repro.analysis.metrics", "normalized_speedups", "analysis",
     "analysis.normalized_speedups", None, None),
    ("repro.analysis.locality", "analyze_locality", "analysis",
     "analysis.analyze_locality", None, None),
)


def _hook_only(spans, hooks, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if spans.recording:
            hooks.leave(spans, {}, hooks.bind(args, kwargs), result)
        return result

    return wrapper


def install(spans: Spans) -> None:
    """Wrap every target in :data:`TARGETS` that this program has.

    Methods are replaced on their class.  A module-level function is
    replaced in every loaded module that imported it by name, so import
    the program's modules before calling this.
    """
    for module, qualname, layer, name, enter, leave in TARGETS:
        try:
            owner = importlib.import_module(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            spans.missing.append(f"{module}.{qualname}")
            continue
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        hooks = (Hooks(fn, enter, leave)
                 if enter is not None or leave is not None else None)
        wrapped = (spans.wrap(fn, name, layer, hooks) if name is not None
                   else _hook_only(spans, hooks, fn))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrapped))
        elif inspect.isclass(owner):
            setattr(owner, attr, wrapped)
        else:
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None) or {}
                for key, value in list(namespace.items()):
                    if value is fn:
                        setattr(loaded, key, wrapped)


# ----------------------------------------------------------------------
# Per-layer metrics from merged events
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(events: list) -> dict:
    """Per-layer metrics (name -> value) over ``events``.

    Times are host seconds.  Self time is a span's duration minus the
    durations of its direct children (spans nest within one thread).
    """
    by_id = {(e["pid"], e["args"]["id"]): e for e in events}
    child_s: dict = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent is not None:
            key = (e["pid"], parent)
            child_s[key] = child_s.get(key, 0.0) + e["dur"] / 1e6

    def total(name):
        return sum(e["dur"] for e in events if e["name"] == name) / 1e6

    def self_s(pred):
        return sum(e["dur"] / 1e6 - child_s.get((e["pid"], e["args"]["id"]),
                                                0.0)
                   for e in events if pred(e))

    def under_runner(e):
        parent = e["args"]["parent"]
        while parent is not None:
            up = by_id[(e["pid"], parent)]
            if up["cat"] == "runner":
                return True
            parent = up["args"]["parent"]
        return False

    # Engine runs: in-process simulate spans plus fabric-returned cells.
    runs = []  # (engine, ops, loop seconds, span seconds or None, runner)
    for e in events:
        a = e["args"]
        if e["name"] == "engine.simulate":
            runs.append((a["engine"], a["ops"], a["loop_s"],
                         e["dur"] / 1e6, under_runner(e)))
        elif e["name"] == "fabric.run" and a["fabric"]:
            # In-process batches already appear as simulate spans.
            runs.extend((r["engine"], r["ops"], r["loop_s"], None, True)
                        for r in a["results"])

    def engine(kind):
        sel = [r for r in runs if r[0] == kind]
        loop = sum(r[2] for r in sel)
        ops = sum(r[1] for r in sel)
        spent = sum(r[3] if r[3] is not None else r[2] for r in sel)
        return sel, loop, ops, spent

    scalar, scalar_loop, scalar_ops, scalar_s = engine("throughput")
    _, vec_loop, vec_ops, vec_s = engine("vectorized")

    requested = 0
    for e in events:
        if e["name"] == "runner.run_many":
            requested += e["args"]["requested"]
        elif e["name"] == "runner.run" and not under_runner(e):
            requested += 1
    simulated = sum(1 for r in runs if r[4])
    gets = [e for e in events if e["name"] == "store.get"]
    hits = sum(1 for e in gets if e["args"]["hit"])
    batches = [e for e in events
               if e["name"] == "fabric.run" and e["args"]["fabric"]]
    gens = [e for e in events if e["name"] == "trace.generate"]
    return {
        "trace.gen_s": total("trace.generate"),
        "trace.gen_ops": sum(e["args"]["ops"] for e in gens),
        "trace.load_s": self_s(lambda e: e["name"] == "trace.load"),
        "trace.decode_s": total("trace.decode"),
        "engine.scalar_s": scalar_s,
        "engine.scalar_cells": len(scalar),
        "engine.scalar_loop_ops_per_s": _ratio(scalar_ops, scalar_loop),
        "engine.vec_s": vec_s,
        "engine.vec_loop_s": vec_loop,
        "engine.vec_prep_s": vec_s - vec_loop,
        "engine.vec_loop_ops_per_s": _ratio(vec_ops, vec_loop),
        "runner.cells_requested": requested,
        "runner.cells_simulated": simulated,
        "runner.reuse_frac": _ratio(requested - simulated, requested),
        "runner.self_s": self_s(lambda e: e["cat"] == "runner"),
        "fabric.batches": len(batches),
        "fabric.workers_spawned": sum(e["args"]["workers"]
                                      + e["args"]["stats_respawns"]
                                      for e in batches),
        "fabric.dispatch_s": sum(
            max(0.0, e["dur"] / 1e6
                - sum(r["loop_s"] for r in e["args"]["results"])
                / e["args"]["workers"])
            for e in batches),
        "fabric.cpu_overhead_s": sum(
            e["args"]["cpu_s"]
            - sum(r["loop_s"] for r in e["args"]["results"])
            for e in batches),
        "fabric.retry_frac": _ratio(
            sum(e["args"]["stats_retries"] for e in batches),
            sum(e["args"]["stats_cells"] for e in batches)),
        "store.get_s": total("store.get"),
        "store.put_s": total("store.put"),
        "store.hit_frac": _ratio(hits, hits + simulated),
        "journal.append_s": total("journal.record_cell"),
        "telemetry.manifest_s": (total("telemetry.write_cell_artifacts")
                                 + total("telemetry.write_run_manifest")),
        "analysis.self_s": self_s(lambda e: e["cat"] == "analysis"),
    }
