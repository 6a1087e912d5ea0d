"""Experiment harness shared by every figure/table driver.

An :class:`ExperimentContext` fixes the platform configuration, random
seed and trace-length scale; drivers use it to run workloads under
protocol sets and collect normalized speedups.  Traces are generated
once per workload and cached (optionally on disk, via ``trace_cache``),
and every completed simulation is memoized under its cell fingerprint —
a figure that normalizes five protocols against the same baseline
simulates that baseline once, and a sweep that revisits a cell pays
nothing.  A missing cell that differs from a completed one only in
its inter-GPU bandwidth or fault plan is rolled up from that cell's
result instead of simulated (:func:`repro.engine.stats.derive`).  With
``jobs > 1``, the cells left to simulate fan out across worker
processes with deterministic, serial-identical results (see
:mod:`repro.experiments.parallel`).  A driver that needs traces
generated against another platform (one GPU, eight GPUs) asks for
:meth:`ExperimentContext.derive`, which keeps every one of these
services.  A completed cell is recorded in two places, both written by
the parent in request order: the results store (``store``) and its
manifest with a perf sidecar (``telemetry_dir``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.analysis.metrics import SpeedupTable, normalized_speedups
from repro.core.registry import PROTOCOLS
from repro.core.sanitizer import CoherenceViolation
from repro.engine.simulator import simulate
from repro.engine.stats import derive, functional_config
from repro.experiments.parallel import Cell, SweepExecutor, cell_key
from repro.trace.cache import geometry_fingerprint
from repro.trace.stream import Trace
from repro.trace.workloads import FIGURE_ORDER, WORKLOADS

#: Display labels for figure columns, in the paper's legend wording.
PROTOCOL_LABELS = {name: cls.label for name, cls in PROTOCOLS.items()}


def _engine_of(result) -> str:
    """The engine that produced ``result`` (a sweep's cells all run on
    ``simulate``'s default, the scalar throughput engine)."""
    return getattr(result, "engine_used", "") or "throughput"


def _functional_key(cell: Cell, key: tuple) -> tuple:
    """``cell``'s memo key ``key`` with the roll-up-only config fields
    normalized and the fault plan dropped: cells that share it run the
    same per-op loop (DESIGN §10)."""
    trace_fp, (*_, sanitize) = key
    return (trace_fp,
            cell_key(cell.workload, cell.protocol,
                     functional_config(cell.cfg), cell.placement, None,
                     sanitize))


@dataclass
class ExperimentResult:
    """One experiment's output: human-readable text + structured data."""

    id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        bar = "=" * max(len(self.title), 8)
        return f"{self.title}\n{bar}\n{self.text}"


@dataclass(eq=False)
class SweepServices:
    """Everything one sweep's contexts share, by reference.

    A context and every context derived from it
    (:meth:`ExperimentContext.derive`) hold the same services object, so
    a cell any of them asks for is dispatched on the same workers,
    memoized, stored and indexed once.
    """

    #: Sweep fan-out (``--jobs`` / ``--listen``).
    executor: SweepExecutor
    #: Optional :class:`repro.experiments.store.ResultStore`:
    #: completed cells persist across runs/branches, and a sweep
    #: revisiting a stored cell replays it without an engine.
    store: object = None
    #: Optional :class:`repro.trace.cache.TraceCache`, shared by the
    #: parent and the workers.
    trace_cache: object = None
    #: Directory receiving each completed cell's manifest + sidecar.
    telemetry_dir: object = None
    #: Directory receiving a replayable repro of any sanitizer trip.
    repro_dir: object = None
    #: Draw a live stderr line while sweep batches execute.
    progress: bool = False
    #: ``(workload, geometry fingerprint, seed, ops_scale)`` -> Trace.
    traces: dict = field(default_factory=dict)
    #: ``(geometry fingerprint, cell key)`` -> SimResult, or None for a
    #: permanently failed cell.  The fingerprint names the config the
    #: cell's trace was generated against.
    results: dict = field(default_factory=dict)
    #: Cells that failed permanently (exhausted fabric retries):
    #: manifest dicts, in completion order.  Figures render these as
    #: gaps instead of the sweep aborting.
    failed_cells: list = field(default_factory=list)
    #: Manifest slugs written under ``telemetry_dir``, in completion
    #: order (the run-level manifest indexes these).
    manifests_written: list = field(default_factory=list)
    manifest_slugs: set = field(default_factory=set)
    #: ``(cell, memo key, result)`` of every completed cell, in
    #: completion order: what :meth:`ExperimentContext._base` indexes,
    #: in one record, so clearing the ``results`` memo cannot strand it.
    completed: list = field(default_factory=list)
    #: Functional key -> ``(cell, result)`` of the first completed cell
    #: a missing cell with that key can be derived from; it indexes
    #: ``completed[:indexed]`` (see :meth:`ExperimentContext._base`).
    bases: dict = field(default_factory=dict)
    indexed: int = 0


class ExperimentContext:
    """A sweep's identity plus the services it shares.

    The identity is ``cfg`` (the platform the drivers simulate, and the
    config every trace is generated against), ``seed``, ``ops_scale``,
    ``workloads``, ``fault_plan`` (a default
    :class:`repro.faults.FaultPlan` for every run; drivers may override
    per call) and ``sanitize`` (run the coherence sanitizer inside every
    simulation).

    The other keyword arguments build the :class:`SweepServices`:
    ``jobs`` sets the worker-process count for sweep fan-out (1 =
    serial, the default); ``trace_cache`` names a directory for the
    persistent binary trace cache shared by parent and workers;
    ``repro_dir`` names a directory where any sanitizer violation is
    dumped as a replayable repro file (:mod:`repro.verify.reprofile`)
    before the exception propagates; ``telemetry_dir`` names a directory
    where every completed cell leaves a ``<slug>.metrics.json`` manifest
    + ``<slug>.perf.json`` sidecar (:mod:`repro.telemetry.manifest`) —
    manifests are written here in the parent, in completion order, so
    serial and parallel sweeps produce byte-identical files;
    ``progress`` draws a live stderr line while sweep batches execute;
    ``store`` names a results store directory (or passes a
    :class:`~repro.experiments.store.ResultStore`); the rest are the
    fabric's knobs (:class:`~repro.experiments.parallel.SweepExecutor`).
    """

    def __init__(self, cfg: SystemConfig = None, seed: int = 1,
                 ops_scale: float = 1.0, workloads=None,
                 fault_plan=None, sanitize: bool = False,
                 jobs: int = 1, trace_cache=None, repro_dir=None,
                 telemetry_dir=None, progress: bool = False,
                 store=None, cell_timeout: float = 0.0,
                 max_retries: int = 2, retry_backoff: float = 0.5,
                 listen=None, lease_ttl: float = 30.0,
                 lease_size: int = 1, min_workers: int = 1,
                 fleet_registry=None, fleet_dir=None,
                 fabric_authkey=None,
                 insecure_fabric: bool = False):
        self.cfg = cfg if cfg is not None else SystemConfig.paper_scaled()
        self.seed = seed
        self.ops_scale = ops_scale
        self.workloads = list(workloads) if workloads else list(FIGURE_ORDER)
        self.fault_plan = fault_plan
        self.sanitize = sanitize
        #: Fingerprint of the trace-generation fields of ``cfg``,
        #: computed once: it names this context's traces in both keys.
        self._trace_fp = geometry_fingerprint(self.cfg)
        if trace_cache is not None and not hasattr(trace_cache, "load"):
            from repro.trace.cache import TraceCache

            trace_cache = TraceCache(trace_cache)
        if store is not None and not hasattr(store, "get"):
            from repro.experiments.store import ResultStore

            store = ResultStore(store)
        executor = SweepExecutor(
            jobs=max(1, int(jobs)), seed=seed, ops_scale=ops_scale,
            sanitize=sanitize,
            trace_cache_dir=(str(trace_cache.root)
                             if trace_cache is not None else None),
            cell_timeout=cell_timeout, max_retries=max_retries,
            retry_backoff=retry_backoff,
            listen=listen, lease_ttl=lease_ttl, lease_size=lease_size,
            min_workers=min_workers, fleet_registry=fleet_registry,
            fleet_dir=fleet_dir, authkey=fabric_authkey,
            allow_unauthenticated=insecure_fabric,
        )
        self.services = SweepServices(
            executor=executor, store=store, trace_cache=trace_cache,
            telemetry_dir=telemetry_dir, repro_dir=repro_dir,
            progress=progress,
        )

    def derive(self, cfg: SystemConfig) -> "ExperimentContext":
        """A context whose traces are generated against ``cfg``.

        It keeps this context's seed, ops-scale, workloads, fault plan
        and sanitize flag, and shares its :attr:`services` by
        reference: the workers, the store, the telemetry index, the
        trace cache and both memos.
        """
        derived = copy.copy(self)
        derived.cfg = cfg
        derived._trace_fp = geometry_fingerprint(cfg)
        return derived

    # Read-only views of the shared services (the CLI, tools and tests
    # read these).
    store = property(lambda self: self.services.store)
    trace_cache = property(lambda self: self.services.trace_cache)
    failed_cells = property(lambda self: self.services.failed_cells)
    manifests_written = property(
        lambda self: self.services.manifests_written)
    _executor = property(lambda self: self.services.executor)
    _results = property(lambda self: self.services.results)

    def close(self) -> None:
        """Release executor resources (dismisses a distributed fleet)."""
        self.services.executor.close()

    def trace(self, workload: str) -> Trace:
        """Generate (or fetch the cached) trace for a workload.

        Traces depend only on the context's base config (line/page
        geometry and the reference cache sizes the generators scale
        against), so sensitivity sweeps can reuse them across platform
        variants; parallel workers are handed the same base config.
        The :class:`Trace` itself is memoized, so the columns a
        vectorized run builds are built once per workload.
        """
        key = (workload, self._trace_fp, self.seed, self.ops_scale)
        traces = self.services.traces
        if key not in traces:
            cache = self.services.trace_cache
            if cache is not None:
                traces[key] = cache.get_or_generate(
                    workload, self.cfg, self.seed, self.ops_scale
                )
            else:
                traces[key] = WORKLOADS[workload].generate(
                    self.cfg, seed=self.seed, ops_scale=self.ops_scale
                )
        return traces[key]

    # ------------------------------------------------------------------
    # Cell execution (memoized; optionally parallel)
    # ------------------------------------------------------------------

    def _cell(self, workload: str, protocol: str, cfg: SystemConfig,
              placement: str, fault_plan) -> Cell:
        plan = fault_plan if fault_plan is not None else self.fault_plan
        run_cfg = cfg if cfg is not None else self.cfg
        return Cell(workload, protocol, run_cfg, placement, plan,
                    trace_cfg=self.cfg)

    def _key(self, cell: Cell) -> tuple:
        """Memo key: the trace config's fingerprint and the cell key."""
        return (self._trace_fp,
                cell_key(cell.workload, cell.protocol, cell.cfg,
                         cell.placement, cell.fault_plan, self.sanitize))

    def _store_key(self, key: tuple) -> str:
        from repro.experiments.store import store_key

        trace_fp, cell = key
        return store_key(cell, self.seed, self.ops_scale, trace=trace_fp)

    def _store_get(self, key: tuple):
        """The persisted result for a cell, if a store is attached."""
        store = self.services.store
        if store is None:
            return None
        return store.get(self._store_key(key))

    def _base(self, cell: Cell, key: tuple):
        """``(cell, result)`` of a completed cell that ``cell`` can be
        derived from, or None.

        A base shares ``cell``'s functional key, ran on the scalar
        engine every sweep cell runs on, and had no fault plan or a
        no-op one.  Called only on a memo-and-store miss: the index
        catches up with the cells completed since the previous miss, so
        a sweep replayed from the store computes no functional key.
        """
        services = self.services
        for done, done_key, result in services.completed[services.indexed:]:
            plan = done.fault_plan
            if ((plan is None or plan.is_noop)
                    and _engine_of(result) == "throughput"):
                services.bases.setdefault(_functional_key(done, done_key),
                                          (done, result))
        services.indexed = len(services.completed)
        return services.bases.get(_functional_key(cell, key))

    def _complete(self, cell: Cell, key: tuple, result,
                  from_store: bool = False, derived_from: Cell = None
                  ) -> None:
        """Memoize, store and manifest one completed cell;
        ``derived_from`` is the base a derived cell was rolled up from."""
        services = self.services
        services.results[key] = result
        services.completed.append((cell, key, result))
        if services.store is not None and not from_store:
            services.store.put(self._store_key(key), result,
                               workload=cell.workload,
                               protocol=cell.protocol)
        if services.telemetry_dir is not None:
            from repro.telemetry.manifest import (cell_slug,
                                                  write_cell_artifacts)

            base_slug = None
            if derived_from is not None:
                base_slug = cell_slug(
                    derived_from.workload, derived_from.protocol,
                    derived_from.cfg, derived_from.placement,
                    derived_from.fault_plan)
            slug = write_cell_artifacts(
                services.telemetry_dir, result,
                workload=cell.workload, protocol=cell.protocol,
                cfg=cell.cfg, placement=cell.placement,
                fault_plan=cell.fault_plan, seed=self.seed,
                ops_scale=self.ops_scale, engine=_engine_of(result),
                derived_from=base_slug,
            )
            if slug not in services.manifest_slugs:
                services.manifest_slugs.add(slug)
                services.manifests_written.append(slug)

    def _complete_failure(self, cell: Cell, key: tuple,
                          failure) -> None:
        """Record a permanently failed cell: the sweep keeps going and
        every downstream table renders this cell as a gap."""
        services = self.services
        services.results[key] = None
        services.failed_cells.append({
            "workload": cell.workload,
            "protocol": cell.protocol,
            "placement": cell.placement,
            "fault_plan": getattr(cell.fault_plan, "name", None),
            "fingerprint": failure.fingerprint,
            "attempts": failure.attempts,
            "error": failure.error,
        })

    def _dump_violation(self, cell: Cell, violation) -> None:
        """Write a replayable trace-kind repro for a sanitizer trip."""
        repro_dir = self.services.repro_dir
        if repro_dir is None:
            return
        from pathlib import Path

        from repro.verify import reprofile

        payload = reprofile.trace_repro(
            workload=cell.workload, protocol=cell.protocol,
            cfg=cell.cfg, seed=self.seed, ops_scale=self.ops_scale,
            placement=cell.placement, engine="throughput",
            fault_plan=cell.fault_plan, violation=violation,
            trace_cfg=cell.trace_cfg,
        )
        path = Path(repro_dir) / (
            reprofile.repro_name(payload) + ".json"
        )
        reprofile.dump(payload, path)
        violation.cell_info = {
            "workload": cell.workload, "protocol": cell.protocol,
            "repro": str(path),
        }

    def _simulate(self, cell: Cell, key: tuple):
        """Simulate one cell in this process and complete it."""
        try:
            result = simulate(
                self.trace(cell.workload),
                cell.cfg,
                protocol=cell.protocol,
                placement=cell.placement,
                workload_name=cell.workload,
                fault_plan=cell.fault_plan,
                sanitize=self.sanitize,
            )
        except CoherenceViolation as violation:
            self._dump_violation(cell, violation)
            raise
        self._complete(cell, key, result)
        return result

    def run(self, workload: str, protocol: str,
            cfg: SystemConfig = None, placement: str = "first_touch",
            fault_plan=None):
        """Simulate one workload under one protocol (throughput engine).

        Results are memoized by cell fingerprint: asking for the same
        cell again — the baseline of every normalized figure, a repeated
        sweep point — returns the completed result without re-simulating.
        A cell a completed base can be derived from (:meth:`_base`) is
        rolled up from it instead.
        """
        cell = self._cell(workload, protocol, cfg, placement, fault_plan)
        key = self._key(cell)
        results = self.services.results
        if key in results:  # may be None: a permanently failed cell
            return results[key]
        stored = self._store_get(key)
        if stored is not None:
            self._complete(cell, key, stored, from_store=True)
            return stored
        base = self._base(cell, key)
        if base is not None:
            result = derive(base[1], cell.cfg, cell.fault_plan)
            self._complete(cell, key, result, derived_from=base[0])
            return result
        return self._simulate(cell, key)

    def run_many(self, requests):
        """Simulate a batch of cells, fanning out across ``jobs``
        worker processes; returns results in request order.

        ``requests`` is an iterable of ``(workload, protocol)`` pairs or
        ``(workload, protocol, cfg, placement, fault_plan)`` tuples
        (missing trailing elements take the context defaults).  Repeated
        and already-memoized cells are simulated at most once.  Workers
        only compute — the parent memoizes, stores and manifests every
        fresh cell in request order, so a parallel run's manifests and
        tables are byte-identical to a serial run's.  Cells a base
        completed before this call can be derived from (:meth:`_base`)
        are rolled up from it and never dispatched.
        """
        cells = []
        for req in requests:
            req = tuple(req)
            workload, protocol = req[0], req[1]
            cfg = req[2] if len(req) > 2 else None
            placement = req[3] if len(req) > 3 else "first_touch"
            plan = req[4] if len(req) > 4 else None
            cells.append(self._cell(workload, protocol, cfg, placement,
                                    plan))
        keys = [self._key(cell) for cell in cells]
        services = self.services
        executor = services.executor

        fresh: list = []  # (cell, key) in first-appearance order
        seen = set(services.results)
        for cell, key in zip(cells, keys):
            if key not in seen:
                seen.add(key)
                fresh.append((cell, key))

        progress = None
        if services.progress and fresh:
            from repro.telemetry.progress import SweepProgress

            progress = SweepProgress(len(fresh))

        # Cells already persisted in the results store replay without
        # an engine (the cross-run analogue of the in-process memo), and
        # cells a completed base rolls up to are derived; only the
        # remaining frontier is simulated.
        prefetched: dict = {}
        replayed: set = set()  # keys satisfied by the store
        derived_from: dict = {}  # key -> base cell, for derived keys
        to_run: list = []  # (cell, key) needing simulation
        for cell, key in fresh:
            stored = self._store_get(key)
            if stored is not None:
                prefetched[key] = stored
                replayed.add(key)
            else:
                base = self._base(cell, key)
                if base is None:
                    to_run.append((cell, key))
                    continue
                prefetched[key] = derive(base[1], cell.cfg,
                                         cell.fault_plan)
                derived_from[key] = base[0]
            if progress is not None:
                progress.update(prefetched[key])

        if to_run:
            if executor.jobs > 1 or executor.distributed:
                # The kwarg is only passed when live progress is on, so
                # tests (and subclasses) stubbing ``executor.run(cells)``
                # keep working.
                kwargs = {} if progress is None else {"progress": progress}
                failures_before = len(executor.failed)
                try:
                    results = executor.run(
                        [cell for cell, _ in to_run], **kwargs
                    )
                except CoherenceViolation as violation:
                    # The worker tagged the violation with its cell
                    # (see parallel.run_cell); dump a repro here in the
                    # parent, where repro_dir lives.
                    info = violation.cell_info or {}
                    for cell, _key in to_run:
                        if (cell.workload == info.get("workload")
                                and cell.protocol == info.get("protocol")):
                            self._dump_violation(cell, violation)
                            break
                    raise
                failures = {
                    id(cell): failure
                    for cell, failure in
                    executor.failed[failures_before:]
                }
                for (cell, key), result in zip(to_run, results):
                    if result is None:
                        self._complete_failure(cell, key,
                                               failures[id(cell)])
                    else:
                        prefetched[key] = result

        # Complete every fresh cell in request order — store
        # replays, derived cells, parallel completions and serial runs
        # all land in the same deterministic sequence.
        for cell, key in fresh:
            if key in prefetched:
                self._complete(cell, key, prefetched[key],
                               from_store=key in replayed,
                               derived_from=derived_from.get(key))
            elif key not in services.results:  # serial: simulate it now
                self._simulate(cell, key)
                if progress is not None:
                    progress.update(services.results[key])
        if progress is not None:
            progress.close()
        return [services.results[key] for key in keys]

    # ------------------------------------------------------------------
    # Driver helpers
    # ------------------------------------------------------------------

    def speedups(self, workload: str, protocols,
                 cfg: SystemConfig = None,
                 placement: str = "first_touch",
                 fault_plan=None) -> dict:
        """Normalized speedups of ``protocols`` over no-remote-caching."""
        names = ["noremote", *protocols]
        results = dict(zip(names, self.run_many(
            [(workload, name, cfg, placement, fault_plan)
             for name in names]
        )))
        return normalized_speedups(results)

    def speedup_table(self, protocols, cfg: SystemConfig = None,
                      placement: str = "first_touch",
                      fault_plan=None) -> SpeedupTable:
        """Fig 2/8-shaped table over this context's workload list."""
        # Fan the whole grid out at once (one batch parallelizes far
        # better than per-workload batches); the per-workload speedups()
        # calls below then assemble from the memo.
        self.run_many([
            (workload, name, cfg, placement, fault_plan)
            for workload in self.workloads
            for name in ["noremote", *protocols]
        ])
        table = SpeedupTable(list(protocols))
        for workload in self.workloads:
            table.add(workload,
                      self.speedups(workload, protocols, cfg=cfg,
                                    placement=placement,
                                    fault_plan=fault_plan))
        return table

    def per_workload_results(self, protocol: str,
                             cfg: SystemConfig = None) -> dict:
        """{workload: SimResult} under one protocol (for Figs 9-11)."""
        return dict(zip(self.workloads, self.run_many(
            [(workload, protocol, cfg) for workload in self.workloads]
        )))
