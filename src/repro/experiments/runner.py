"""Experiment harness shared by every figure/table driver.

An :class:`ExperimentContext` fixes the platform configuration, random
seed and trace-length scale; drivers use it to run workloads under
protocol sets and collect normalized speedups.  Traces are generated
once per workload and cached (optionally on disk, via ``trace_cache``),
and every completed simulation is memoized under its cell key —
a figure that normalizes five protocols against the same baseline
simulates that baseline once, and a sweep that revisits a cell pays
nothing.  A missing cell that differs from a completed or stored one
only in its inter-GPU bandwidth or fault plan is rolled up from that
cell's result instead of simulated (:func:`repro.engine.stats.derive`).
Every key the context uses — memo, store, derivation twin, manifest
slug, fabric fingerprint — is a projection of one
:class:`~repro.experiments.parallel.Cell`, built by
:meth:`ExperimentContext.cell`.  With
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
from repro.engine.stats import derive
from repro.experiments.parallel import Cell, SweepExecutor, trace_of
from repro.trace.stream import Trace
from repro.trace.workloads import FIGURE_ORDER

#: Display labels for figure columns, in the paper's legend wording.
PROTOCOL_LABELS = {name: cls.label for name, cls in PROTOCOLS.items()}


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
    #: The parent's trace memo (:func:`~repro.experiments.parallel.trace_of`).
    traces: dict = field(default_factory=dict)
    #: :attr:`Cell.key <repro.experiments.parallel.Cell.key>` ->
    #: SimResult, or None for a permanently failed cell.
    results: dict = field(default_factory=dict)
    #: Cells that failed permanently (exhausted fabric retries):
    #: manifest dicts, in completion order.  Figures render these as
    #: gaps instead of the sweep aborting.
    failed_cells: list = field(default_factory=list)
    #: Manifest slugs written under ``telemetry_dir``, in completion
    #: order (the run-level manifest indexes these).
    manifests_written: list = field(default_factory=list)
    #: ``(cell, result)`` of every completed cell, in completion order:
    #: what :meth:`ExperimentContext._base` indexes, in one record, so
    #: clearing the ``results`` memo cannot strand it.
    completed: list = field(default_factory=list)
    #: Twin key -> ``(cell, result)`` of the first completed cell, or
    #: the stored twin, that a missing cell with that twin can be
    #: derived from; it indexes ``completed[:indexed]`` (see
    #: :meth:`ExperimentContext._base`).
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
        if trace_cache is not None and not hasattr(trace_cache, "load"):
            from repro.trace.cache import TraceCache

            trace_cache = TraceCache(trace_cache)
        if store is not None and not hasattr(store, "get"):
            from repro.experiments.store import ResultStore

            store = ResultStore(store)
        executor = SweepExecutor(
            jobs=max(1, int(jobs)), seed=seed,
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
        return trace_of(self.services.traces, self.services.trace_cache,
                        workload, self.cfg, self.seed, self.ops_scale)

    # ------------------------------------------------------------------
    # Cell execution (memoized; optionally parallel)
    # ------------------------------------------------------------------

    def cell(self, workload: str, protocol: str, cfg: SystemConfig = None,
             placement: str = "first_touch", fault_plan=None) -> Cell:
        """The cell this context simulates for one request: on the
        context's traces, seed, ops-scale and sanitize flag, by default
        on its config and fault plan, on the scalar throughput engine."""
        return Cell(workload, protocol, self.cfg if cfg is None else cfg,
                    self.cfg, placement,
                    self.fault_plan if fault_plan is None else fault_plan,
                    self.seed, self.ops_scale, self.sanitize)

    def _store_get(self, cell: Cell):
        """The persisted result for a cell, if a store is attached."""
        store = self.services.store
        if store is None:
            return None
        return store.get(cell.store_key)

    def _base(self, cell: Cell):
        """``(cell, result)`` of a cell that ``cell`` can be derived
        from, or None.

        A base shares ``cell``'s twin (:attr:`Cell.twin
        <repro.experiments.parallel.Cell.twin>`) and is a completed
        scalar cell with no fault plan or a no-op one, or else the twin
        itself, found in the store without counting a hit or a miss.
        Called only on a memo-and-store miss: the index catches up with
        the cells completed since the previous miss, so a sweep replayed
        from the store builds no twin.
        """
        services = self.services
        for done, result in services.completed[services.indexed:]:
            plan = done.fault_plan
            if ((plan is None or plan.is_noop)
                    and done.engine == "throughput"):
                services.bases.setdefault(done.twin.key, (done, result))
        services.indexed = len(services.completed)
        twin = cell.twin
        base = services.bases.get(twin.key)
        if (base is None and services.store is not None
                and twin.key != cell.key):
            stored = services.store.peek(twin.store_key)
            if stored is not None:
                base = services.bases[twin.key] = (twin, stored)
        return base

    def _complete(self, cell: Cell, result, from_store: bool = False,
                  derived_from: Cell = None) -> None:
        """Memoize, store and manifest one completed cell;
        ``derived_from`` is the base a derived cell was rolled up from."""
        services = self.services
        services.results[cell.key] = result
        services.completed.append((cell, result))
        if services.store is not None and not from_store:
            services.store.put(cell.store_key, result,
                               workload=cell.workload,
                               protocol=cell.protocol)
        if services.telemetry_dir is not None:
            from repro.telemetry.manifest import (cell_record,
                                                  write_cell_artifacts)

            base_slug = None
            if derived_from is not None:
                base_slug = cell_record(**derived_from.identity())[1]
            services.manifests_written.append(write_cell_artifacts(
                services.telemetry_dir, result, **cell.identity(),
                derived_from=base_slug,
            ))

    def _complete_failure(self, cell: Cell, failure) -> None:
        """Record a permanently failed cell: the sweep keeps going and
        every downstream table renders this cell as a gap."""
        services = self.services
        services.results[cell.key] = None
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
            cfg=cell.cfg, seed=cell.seed, ops_scale=cell.ops_scale,
            placement=cell.placement, engine=cell.engine,
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

    def _simulate(self, cell: Cell):
        """Simulate one cell in this process and complete it."""
        try:
            result = simulate(
                self.trace(cell.workload),
                cell.cfg,
                protocol=cell.protocol,
                engine=cell.engine,
                placement=cell.placement,
                workload_name=cell.workload,
                fault_plan=cell.fault_plan,
                sanitize=cell.sanitize,
            )
        except CoherenceViolation as violation:
            self._dump_violation(cell, violation)
            raise
        self._complete(cell, result)
        return result

    def run(self, workload: str, protocol: str,
            cfg: SystemConfig = None, placement: str = "first_touch",
            fault_plan=None):
        """Simulate one workload under one protocol (throughput engine).

        Results are memoized by cell key: asking for the same
        cell again — the baseline of every normalized figure, a repeated
        sweep point — returns the completed result without re-simulating.
        A cell a completed base can be derived from (:meth:`_base`) is
        rolled up from it instead.
        """
        cell = self.cell(workload, protocol, cfg, placement, fault_plan)
        results = self.services.results
        if cell.key in results:  # may be None: a permanently failed cell
            return results[cell.key]
        stored = self._store_get(cell)
        if stored is not None:
            self._complete(cell, stored, from_store=True)
            return stored
        base = self._base(cell)
        if base is not None:
            result = derive(base[1], cell.cfg, cell.fault_plan)
            self._complete(cell, result, derived_from=base[0])
            return result
        return self._simulate(cell)

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
        completed before this call, or a stored twin, can be derived
        from (:meth:`_base`) are rolled up from it and never
        dispatched.  A lone cell left to simulate runs in this process,
        on the context's own trace memo, unless a fleet serves the
        sweep (``listen``).
        """
        cells = [self.cell(*request) for request in requests]
        services = self.services
        executor = services.executor

        fresh: list = []  # cells in first-appearance order
        seen = set(services.results)
        for cell in cells:
            if cell.key not in seen:
                seen.add(cell.key)
                fresh.append(cell)

        progress = None
        if services.progress and fresh:
            from repro.telemetry.progress import SweepProgress

            progress = SweepProgress(len(fresh))

        # Cells already persisted in the results store replay without
        # an engine (the cross-run analogue of the in-process memo), and
        # cells a base rolls up to are derived; only the remaining
        # frontier is simulated.
        prefetched: dict = {}  # cell key -> result
        replayed: set = set()  # keys satisfied by the store
        derived_from: dict = {}  # key -> base cell, for derived keys
        to_run: list = []  # cells needing simulation
        for cell in fresh:
            stored = self._store_get(cell)
            if stored is not None:
                prefetched[cell.key] = stored
                replayed.add(cell.key)
            else:
                base = self._base(cell)
                if base is None:
                    to_run.append(cell)
                    continue
                prefetched[cell.key] = derive(base[1], cell.cfg,
                                              cell.fault_plan)
                derived_from[cell.key] = base[0]
            if progress is not None:
                progress.update(prefetched[cell.key])

        if ((executor.jobs > 1 and len(to_run) > 1)
                or (executor.distributed and to_run)):
            # The kwarg is only passed when live progress is on, so
            # tests (and subclasses) stubbing ``executor.run(cells)``
            # keep working.
            kwargs = {} if progress is None else {"progress": progress}
            failures_before = len(executor.failed)
            try:
                results = executor.run(to_run, **kwargs)
            except CoherenceViolation as violation:
                # The worker tagged the violation with its cell's
                # fingerprint (see parallel.run_cell); dump a repro
                # here in the parent, where repro_dir lives.
                tripped = (violation.cell_info or {}).get("fingerprint")
                for cell in to_run:
                    if cell.fingerprint == tripped:
                        self._dump_violation(cell, violation)
                        break
                raise
            failures = {
                id(cell): failure
                for cell, failure in executor.failed[failures_before:]
            }
            for cell, result in zip(to_run, results):
                if result is None:
                    self._complete_failure(cell, failures[id(cell)])
                else:
                    prefetched[cell.key] = result

        # Complete every fresh cell in request order — store
        # replays, derived cells, parallel completions and in-process
        # runs all land in the same deterministic sequence.
        for cell in fresh:
            if cell.key in prefetched:
                self._complete(cell, prefetched[cell.key],
                               from_store=cell.key in replayed,
                               derived_from=derived_from.get(cell.key))
            elif cell.key not in services.results:  # simulate it here
                self._simulate(cell)
                if progress is not None:
                    progress.update(services.results[cell.key])
        if progress is not None:
            progress.close()
        return [services.results[cell.key] for cell in cells]

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
