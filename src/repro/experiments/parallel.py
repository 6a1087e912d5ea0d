"""Parallel sweep execution for the experiment harness.

A sweep decomposes into independent *cells* — one (workload, protocol,
config, placement, fault-plan) simulation each.  Cells share no mutable
state (the engine builds a fresh protocol instance per run), so they
parallelize embarrassingly across worker processes.

Design constraints, in priority order:

1. **Determinism.**  ``--jobs 4`` must produce byte-identical output to
   a serial run.  Workers therefore only *compute*: every
   :class:`~repro.engine.stats.SimResult` travels back to the parent,
   which completes cells (store, manifests) in submission order and
   assembles every table itself.  ``wall_seconds`` is the lone
   nondeterministic field and is excluded from manifests, store
   records and experiment data by construction.
2. **No duplicate work.**  A :class:`Cell` is the sweep's one name for
   a simulation, and every key the sweep uses is a projection of it;
   the parent deduplicates on :attr:`Cell.key` before dispatch, and
   :class:`~repro.experiments.runner.ExperimentContext` memoizes results
   under the same key, so e.g. the ``noremote`` baseline a figure
   normalizes against is simulated once per (workload, config), not
   once per protocol column.
3. **Cheap workers.**  Workers regenerate (or, with a trace cache
   directory, deserialize) traces on first use and memoize them per
   process; a worker simulating 7 protocols of one workload pays for
   its trace once.  Each cell names the config its trace is generated
   against (its context's base config, never a sweep variant's), so a
   variant simulates the same trace serially and in parallel.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Optional

from repro.config import SystemConfig
from repro.trace.cache import TraceCache, geometry_fingerprint
from repro.trace.workloads import WORKLOADS

# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

#: ``(id(cfg), fn)`` -> (weak reference to ``cfg``, ``fn(cfg)``).
_by_config: dict = {}


def _forget(key: tuple, ref) -> None:
    if _by_config.get(key, (None,))[0] is ref:
        del _by_config[key]


def _per_config(cfg: SystemConfig, fn):
    """``fn(cfg)``, computed once per config object.

    The cache is keyed by object identity, not by value: configs equal
    by value can still hash apart (``repr`` tells
    ``inter_gpu_bw_gbps=100`` from ``100.0``), so a value-keyed cache
    would make a fingerprint depend on which equal config was seen
    first.  It lives outside the object, so a config pickles to the
    same bytes before and after it is fingerprinted, and an entry goes
    when its config does.
    """
    key = (id(cfg), fn)
    entry = _by_config.get(key)
    if entry is not None and entry[0]() is cfg:
        return entry[1]
    value = fn(cfg)
    _by_config[key] = (weakref.ref(cfg, functools.partial(_forget, key)),
                       value)
    return value


def _repr_digest(cfg: SystemConfig) -> str:
    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]


def config_fingerprint(cfg: SystemConfig) -> str:
    """Hash of *every* config field, once per config object.

    Unlike the trace cache's geometry fingerprint, simulation results
    depend on the whole platform description (latencies, bandwidths,
    message sizes...), so the cell memo must key on all of it.
    ``SystemConfig`` is a frozen dataclass tree whose ``repr`` is
    deterministic and total.
    """
    return _per_config(cfg, _repr_digest)


def plan_fingerprint(plan) -> str:
    """Stable fingerprint of a fault plan (empty string for none).

    ``FaultPlan`` derives every fault window and jitter value
    deterministically from its specs and seed, so its ``repr`` — which
    includes both — identifies its effect on a run.
    """
    if plan is None:
        return ""
    jitter = getattr(plan, "message_jitter", None)
    loss = getattr(plan, "message_loss", None)
    return hashlib.sha256(
        f"{plan.name}|{plan.seed}|{plan.link_faults!r}|{jitter!r}|{loss!r}"
        .encode()
    ).hexdigest()[:16]


def cell_key(workload: str, protocol: str, cfg: SystemConfig,
             placement: str, fault_plan, sanitize: bool = False) -> tuple:
    """The run half of a cell's identity: what it simulates on which
    platform, without the trace it simulates (:attr:`Cell.key`)."""
    return (workload, protocol, config_fingerprint(cfg), placement,
            plan_fingerprint(fault_plan), bool(sanitize))


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One requested simulation, built by
    :meth:`repro.experiments.runner.ExperimentContext.cell`: the sweep's
    only name for it.  ``cfg`` is the platform it simulates and
    ``trace_cfg`` the config its trace is generated against.  Every key
    is a projection of the cell, kept on the instance once computed,
    never in a value-keyed cache (equal configs can fingerprint apart).
    """

    workload: str
    protocol: str
    cfg: SystemConfig
    trace_cfg: SystemConfig
    placement: str
    fault_plan: object
    seed: int
    ops_scale: float
    sanitize: bool
    engine: str = "throughput"

    @functools.cached_property
    def geometry(self) -> str:
        """The trace geometry: ``trace_cfg``'s
        :func:`~repro.trace.cache.geometry_fingerprint`."""
        return _per_config(self.trace_cfg, geometry_fingerprint)

    @functools.cached_property
    def key(self) -> tuple:
        """Memo key: every field, configs and plan as fingerprints."""
        return (cell_key(self.workload, self.protocol, self.cfg,
                         self.placement, self.fault_plan, self.sanitize),
                self.geometry, self.seed, self.ops_scale, self.engine)

    @functools.cached_property
    def fingerprint(self) -> str:
        """Compact hash of :attr:`key`: the fabric's name for the cell
        (partitioning, leases, chaos targeting, retry seeding and
        ``failed_cells.json``)."""
        return hashlib.sha256(repr(self.key).encode()).hexdigest()[:16]

    @functools.cached_property
    def store_key(self) -> str:
        """Content address of the cell's result in a results store."""
        from repro.experiments.store import store_key

        run, trace, seed, ops_scale, engine = self.key
        return store_key(run, seed, ops_scale, trace=trace, engine=engine)

    @functools.cached_property
    def twin(self) -> "Cell":
        """The cell whose result this one can be derived from (DESIGN
        §10): this cell at ``functional_config(cfg)``, with no fault
        plan, on the scalar engine."""
        from repro.engine.stats import functional_config

        return dataclasses.replace(
            self, cfg=_per_config(self.cfg, functional_config),
            fault_plan=None, engine="throughput")

    def identity(self) -> dict:
        """The keyword arguments a manifest names this cell by
        (:func:`repro.telemetry.manifest.cell_record`)."""
        return {"workload": self.workload, "protocol": self.protocol,
                "cfg": self.cfg, "placement": self.placement,
                "fault_plan": self.fault_plan, "trace": self.geometry,
                "seed": self.seed, "ops_scale": self.ops_scale,
                "engine": self.engine}


def trace_of(traces: dict, cache, workload: str, cfg: SystemConfig,
             seed: int, ops_scale: float):
    """The trace of ``workload`` generated against ``cfg``, from the
    process's trace memo ``traces``; a miss loads it from ``cache`` (a
    :class:`~repro.trace.cache.TraceCache`, its directory, or None) or
    generates it."""
    key = (workload, _per_config(cfg, geometry_fingerprint), seed,
           ops_scale)
    trace = traces.get(key)
    if trace is None:
        if cache is None:
            trace = WORKLOADS[workload].generate(cfg, seed=seed,
                                                 ops_scale=ops_scale)
        else:
            if isinstance(cache, str):
                cache = TraceCache(cache)
            trace = cache.get_or_generate(workload, cfg, seed, ops_scale)
        traces[key] = trace
    return trace


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: The worker process's trace memo (see :func:`trace_of`): each worker
#: pays trace acquisition once per workload, however many cells it
#: simulates.
_worker_traces: dict = {}


def run_cell(payload):
    """Simulate one cell in a worker process.

    ``payload`` is ``(cell, cache_dir)``; module-level so it pickles by
    reference under the default start methods.
    """
    cell, cache_dir = payload
    from repro.core.sanitizer import CoherenceViolation
    from repro.engine.simulator import simulate

    trace = trace_of(_worker_traces, cache_dir, cell.workload,
                     cell.trace_cfg, cell.seed, cell.ops_scale)
    try:
        return simulate(
            trace,
            cell.cfg,
            protocol=cell.protocol,
            engine=cell.engine,
            placement=cell.placement,
            workload_name=cell.workload,
            fault_plan=cell.fault_plan,
            sanitize=cell.sanitize,
        )
    except CoherenceViolation as violation:
        # Tag the violation with its cell before it pickles back to the
        # parent, which owns repro-file dumping.
        violation.cell_info = {
            "workload": cell.workload,
            "protocol": cell.protocol,
            "placement": cell.placement,
            "fingerprint": cell.fingerprint,
        }
        raise


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class SweepExecutor:
    """Maps unique cells onto the sweep fabric, in deterministic order.

    The executor owns no state between calls beyond its settings and
    counters; the caller
    (:class:`~repro.experiments.runner.ExperimentContext`) holds the
    result memo, the results store, and the manifests, and simulates a
    lone cell itself.  Cells run on the fault-tolerant scheduler of
    :mod:`repro.experiments.fabric` — per-cell timeouts, bounded seeded
    retries, heartbeat-driven work stealing — or, under ``--listen``, on
    the lease coordinator; a cell that exhausts its retries comes back
    as ``None`` with a :class:`~repro.experiments.fabric.FailedCell`
    record in :attr:`failed` instead of aborting the sweep.
    """

    jobs: int = 1
    seed: int = 1
    trace_cache_dir: Optional[str] = None
    #: Fabric policy knobs (``--cell-timeout`` / ``--max-retries``).
    cell_timeout: float = 0.0
    max_retries: int = 2
    retry_backoff: float = 0.5
    heartbeat_interval: float = 0.25
    #: ``HOST:PORT`` to serve a distributed fleet from (``--listen``).
    #: When set, cells run on remote workers via the lease coordinator
    #: of :mod:`repro.experiments.fabric_net` instead of local
    #: processes; ``jobs`` is ignored.
    listen: Optional[str] = None
    #: Distributed-fabric policy knobs (``--lease-ttl`` etc.).
    lease_ttl: float = 30.0
    lease_size: int = 1
    min_workers: int = 1
    #: Shared secret for the fabric's HMAC handshake; binding a
    #: non-loopback --listen without one requires the explicit
    #: ``allow_unauthenticated`` (``--insecure-fabric``) opt-in.
    authkey: Optional[bytes] = None
    allow_unauthenticated: bool = False
    #: Run registry + directory for fleet liveness records
    #: (``observe --serve`` reads these back at ``/fleet``).
    fleet_registry: object = None
    fleet_dir: Optional[str] = None
    #: Optional :class:`repro.faults.chaos.ChaosPlan` shipped into the
    #: workers (the chaos harness's hook; None in normal operation).
    chaos: object = None
    #: Optional telemetry tracer receiving fabric events.
    tracer: object = None
    #: Cells simulated through this executor (observability/testing).
    cells_run: int = field(default=0, compare=False)
    #: ``(cell, FailedCell)`` pairs from every batch so far.
    failed: list = field(default_factory=list, compare=False)
    #: Aggregated :class:`~repro.experiments.fabric.FabricStats` over
    #: every parallel batch (None until the fabric first runs).
    fabric_stats: object = field(default=None, compare=False)
    #: Lazily-created persistent lease coordinator (distributed mode).
    _coordinator: object = field(default=None, compare=False, repr=False)

    @property
    def distributed(self) -> bool:
        return self.listen is not None

    def coordinator(self):
        """The persistent lease coordinator (created on first use so a
        fully-memoized sweep never binds a socket)."""
        if self._coordinator is None:
            from repro.experiments.fabric_net import (
                NetFabricCoordinator,
                parse_address,
            )

            self._coordinator = NetFabricCoordinator(
                parse_address(self.listen),
                seed=self.seed,
                lease_ttl=self.lease_ttl,
                lease_size=self.lease_size,
                max_retries=self.max_retries,
                retry_backoff=self.retry_backoff,
                heartbeat_interval=self.heartbeat_interval,
                min_workers=self.min_workers,
                registry=self.fleet_registry,
                fleet_dir=self.fleet_dir,
                tracer=self.tracer,
                authkey=self.authkey,
                allow_unauthenticated=self.allow_unauthenticated,
            )
            import sys

            print("fabric-net: coordinating on %s:%d"
                  % self._coordinator.address, file=sys.stderr)
        return self._coordinator

    def close(self) -> None:
        """Dismiss the distributed fleet, if one was ever convened."""
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def run(self, cells, progress=None):
        """Simulate ``cells`` (already deduplicated by the caller);
        returns results in input order (``None`` for cells that failed
        permanently — see :attr:`failed`).

        ``progress`` is an optional
        :class:`repro.telemetry.progress.SweepProgress`; it is updated
        as cells *finish* (any order) while results are still returned
        — and therefore stored and written as manifests — in
        submission order, keeping parallel output byte-identical to
        serial.
        """
        cells = list(cells)
        self.cells_run += len(cells)
        tasks = [((cell, self.trace_cache_dir), cell.fingerprint)
                 for cell in cells]
        on_result = None
        if progress is not None:
            on_result = lambda _index, result: progress.update(result)  # noqa: E731
        if self.distributed:
            return self._run_distributed(cells, tasks, on_result)

        from repro.experiments.fabric import FabricScheduler, FabricStats

        scheduler = FabricScheduler(
            min(self.jobs, len(cells)),
            seed=self.seed,
            cell_timeout=self.cell_timeout,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            heartbeat_interval=self.heartbeat_interval,
            chaos=self.chaos,
            tracer=self.tracer,
        )
        results = scheduler.run(tasks, on_result=on_result)
        if self.fabric_stats is None:
            self.fabric_stats = FabricStats()
        self.fabric_stats.merge(scheduler.stats)
        for failure in scheduler.failed:
            self.failed.append((cells[failure.index], failure))
        return results

    def _run_distributed(self, cells, tasks, on_result):
        """One batch on the lease coordinator (``--listen`` mode)."""
        from repro.experiments.fabric_net import NetFabricStats

        coordinator = self.coordinator()
        base_failed = len(coordinator.failed)
        results = coordinator.run(tasks, on_result=on_result)
        # The coordinator persists across batches and accumulates its
        # own counters, so expose its stats object directly.
        if not isinstance(self.fabric_stats, NetFabricStats):
            self.fabric_stats = coordinator.stats
        for failure in coordinator.failed[base_failed:]:
            self.failed.append((cells[failure.index], failure))
        return results
