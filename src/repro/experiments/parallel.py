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
2. **No duplicate work.**  Cell keys (:func:`cell_key`) are stable
   fingerprints; the parent deduplicates before dispatch, and
   :class:`~repro.experiments.runner.ExperimentContext` memoizes results
   under the same keys, so e.g. the ``noremote`` baseline a figure
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

import functools
import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Optional

from repro.config import SystemConfig

# ----------------------------------------------------------------------
# Cell descriptions and fingerprints
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One simulation the sweep needs: fully self-describing, picklable.

    ``cfg`` is the platform the cell is simulated on; ``trace_cfg`` is
    the config its trace is generated against (``None``: ``cfg``).
    """

    workload: str
    protocol: str
    cfg: SystemConfig
    placement: str = "first_touch"
    fault_plan: object = None
    trace_cfg: Optional[SystemConfig] = None


#: ``id(cfg)`` -> (weak reference to ``cfg``, its fingerprint).
_config_fingerprints: dict = {}


def _forget_config(key: int, ref) -> None:
    if _config_fingerprints.get(key, (None,))[0] is ref:
        del _config_fingerprints[key]


def config_fingerprint(cfg: SystemConfig) -> str:
    """Hash of *every* config field.

    Unlike the trace cache's geometry fingerprint, simulation results
    depend on the whole platform description (latencies, bandwidths,
    message sizes...), so the cell memo must key on all of it.
    ``SystemConfig`` is a frozen dataclass tree whose ``repr`` is
    deterministic and total.

    Each config object is hashed once.  The cache is keyed by object
    identity, not by value: configs equal by value can still hash apart
    (``repr`` tells ``inter_gpu_bw_gbps=100`` from ``100.0``), so a
    value-keyed cache would make a fingerprint depend on which equal
    config was seen first.  It lives outside the object, so a config
    pickles to the same bytes before and after it is fingerprinted,
    and an entry goes when its config does.
    """
    key = id(cfg)
    entry = _config_fingerprints.get(key)
    if entry is not None and entry[0]() is cfg:
        return entry[1]
    fingerprint = hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]
    ref = weakref.ref(cfg, functools.partial(_forget_config, key))
    _config_fingerprints[key] = (ref, fingerprint)
    return fingerprint


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
    """Memoization key under which a cell's result is stored."""
    return (workload, protocol, config_fingerprint(cfg), placement,
            plan_fingerprint(fault_plan), bool(sanitize))


def cell_fingerprint(cell: "Cell", sanitize: bool = False) -> str:
    """Compact stable fingerprint of one cell (fabric partitioning,
    chaos targeting, and retry-schedule seeding all key on this)."""
    key = cell_key(cell.workload, cell.protocol, cell.cfg,
                   cell.placement, cell.fault_plan, sanitize)
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process trace memo: (workload, geometry fp, seed, ops_scale) ->
#: Trace.  Lives in the worker process; each worker pays trace
#: acquisition once per workload, however many cells it simulates.
_worker_traces: dict = {}


def _worker_trace(workload: str, cfg: SystemConfig, seed: int,
                  ops_scale: float, cache_dir: Optional[str]):
    from repro.trace.cache import TraceCache, geometry_fingerprint

    key = (workload, geometry_fingerprint(cfg), seed, ops_scale)
    trace = _worker_traces.get(key)
    if trace is None:
        if cache_dir is not None:
            trace = TraceCache(cache_dir).get_or_generate(
                workload, cfg, seed, ops_scale
            )
        else:
            from repro.trace.workloads import WORKLOADS

            trace = WORKLOADS[workload].generate(cfg, seed=seed,
                                                 ops_scale=ops_scale)
        _worker_traces[key] = trace
    return trace


def run_cell(payload):
    """Simulate one cell in a worker process.

    ``payload`` is ``(cell, seed, ops_scale, sanitize, cache_dir)``;
    module-level so it pickles by reference under the default start
    methods.
    """
    cell, seed, ops_scale, sanitize, cache_dir = payload
    from repro.core.sanitizer import CoherenceViolation
    from repro.engine.simulator import simulate

    trace_cfg = cell.trace_cfg if cell.trace_cfg is not None else cell.cfg
    trace = _worker_trace(cell.workload, trace_cfg, seed, ops_scale,
                          cache_dir)
    try:
        return simulate(
            trace,
            cell.cfg,
            protocol=cell.protocol,
            placement=cell.placement,
            workload_name=cell.workload,
            fault_plan=cell.fault_plan,
            sanitize=sanitize,
        )
    except CoherenceViolation as violation:
        # Tag the violation with its cell before it pickles back to the
        # parent, which owns repro-file dumping.
        violation.cell_info = {
            "workload": cell.workload,
            "protocol": cell.protocol,
            "placement": cell.placement,
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
    result memo, the results store, and the manifests.  With ``jobs > 1``
    cells run on the fault-tolerant scheduler of
    :mod:`repro.experiments.fabric` — per-cell timeouts, bounded seeded
    retries, heartbeat-driven work stealing — and a cell that exhausts
    its retries comes back as ``None`` with a
    :class:`~repro.experiments.fabric.FailedCell` record in
    :attr:`failed` instead of aborting the sweep.
    """

    jobs: int = 1
    seed: int = 1
    ops_scale: float = 1.0
    sanitize: bool = False
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
        payloads = [
            (cell, self.seed, self.ops_scale, self.sanitize,
             self.trace_cache_dir)
            for cell in cells
        ]
        if self.distributed and cells:
            return self._run_distributed(cells, payloads, progress)
        if self.jobs <= 1 or len(cells) <= 1:
            results = []
            for p in payloads:
                result = run_cell(p)
                if progress is not None:
                    progress.update(result)
                results.append(result)
            return results

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
        tasks = [
            (payload, cell_fingerprint(cell, self.sanitize))
            for payload, cell in zip(payloads, cells)
        ]
        on_result = None
        if progress is not None:
            on_result = lambda _index, result: progress.update(result)  # noqa: E731
        results = scheduler.run(tasks, on_result=on_result)
        if self.fabric_stats is None:
            self.fabric_stats = FabricStats()
        self.fabric_stats.merge(scheduler.stats)
        for failure in scheduler.failed:
            self.failed.append((cells[failure.index], failure))
        return results

    def _run_distributed(self, cells, payloads, progress):
        """One batch on the lease coordinator (``--listen`` mode)."""
        from repro.experiments.fabric_net import NetFabricStats

        coordinator = self.coordinator()
        tasks = [
            (payload, cell_fingerprint(cell, self.sanitize))
            for payload, cell in zip(payloads, cells)
        ]
        on_result = None
        if progress is not None:
            on_result = lambda _index, result: progress.update(result)  # noqa: E731
        base_failed = len(coordinator.failed)
        results = coordinator.run(tasks, on_result=on_result)
        # The coordinator persists across batches and accumulates its
        # own counters, so expose its stats object directly.
        if not isinstance(self.fabric_stats, NetFabricStats):
            self.fabric_stats = coordinator.stats
        for failure in coordinator.failed[base_failed:]:
            self.failed.append((cells[failure.index], failure))
        return results
