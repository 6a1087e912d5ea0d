"""One run's telemetry collectors, bundled for the engines.

A :class:`TelemetrySession` is what threads through
:func:`repro.engine.simulator.simulate` — it carries an optional
:class:`~repro.telemetry.tracer.ChromeTracer`, an optional
:class:`~repro.telemetry.interval.IntervalSampler`, and the
message-type x scope tally both engines feed.  ``None`` anywhere means
that collector is off; a ``None`` session means telemetry is off
entirely and the engines run their uninstrumented hot loops.

A :class:`RunRegistry` is the cross-run session object: a durable
index of every telemetry run directory, results store, and observe
capture produced on this host, which the sweep CLI registers into the
moment a sweep *starts* and the observability service
(``observe --serve``) discovers from.  It is an
:class:`~repro.applog.AppendLog` under the durability contract of
DESIGN.md §13; the last record per directory wins.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.applog import AppendLog
from repro.core.protocol import TrafficSink
from repro.engine.throughput import ThroughputSink
from repro.telemetry.interval import IntervalSampler
from repro.telemetry.tracer import NULL_TRACER, ChromeTracer, Tracer

#: Registry directory used when the CLI is not told otherwise (the
#: sibling of the journal's ``.repro-journal`` convention).
DEFAULT_REGISTRY = ".repro-registry"

#: Registry record schema; bump on any incompatible change (old lines
#: then parse as corrupt and are skipped).
REGISTRY_SCHEMA = 1


def _checked(record: dict):
    """``record`` if it is a registry record of the current schema."""
    if record.get("v") == REGISTRY_SCHEMA and "kind" in record \
            and "dir" in record:
        return record
    return None


def _latest(records) -> list:
    """The last record per ``(kind, dir)``, at its first record's place."""
    merged: dict = {}
    for record in records:
        merged[(record["kind"], record["dir"])] = record
    return list(merged.values())


class RunRegistry:
    """Durable index of run/telemetry/store directories on this host.

    One JSONL file (``registry.jsonl``) of records, each describing a
    directory of artifacts: a sweep's ``--telemetry`` output
    (``kind="run"``), a ``--store`` results store (``kind="store"``),
    or a single-cell ``observe`` capture (``kind="observe"``).
    Registration is idempotent per ``(kind, dir)``: re-registering a
    directory appends a fresh record that supersedes the old one, which
    is how a sweep flips its own status from ``running`` to
    ``completed`` without rewriting history.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "registry.jsonl"
        self._log = AppendLog(self.path)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def register(self, kind: str, directory, **info) -> dict:
        """Append one record; returns the record dict."""
        record = {
            "v": REGISTRY_SCHEMA,
            "kind": kind,
            "dir": str(Path(directory).resolve()),
            "registered": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "pid": os.getpid(),
            "info": {k: v for k, v in info.items() if v is not None},
        }
        self._log.append(record)
        return record

    def register_run(self, directory, *, experiments=None, settings=None,
                     status: str = "running", cells: int = None) -> dict:
        """Register a sweep's ``--telemetry`` directory.

        Called once with ``status="running"`` before the first cell
        simulates (so a live service sees the sweep immediately) and
        again at exit with the final status and cell count.
        """
        return self.register("run", directory,
                             experiments=list(experiments or []),
                             settings=settings, status=status,
                             cells=cells)

    def register_store(self, directory) -> dict:
        """Register a ``--store`` results-store directory."""
        return self.register("store", directory)

    def register_observe(self, directory, *, slug: str = None,
                         cell: dict = None) -> dict:
        """Register one ``observe`` capture (has ``intervals.jsonl``)."""
        return self.register("observe", directory, slug=slug, cell=cell)

    def register_fleet(self, directory, *, coordinator: dict = None,
                       status: str = "running", workers=None,
                       leases: dict = None, stats: dict = None) -> dict:
        """Register a distributed sweep fleet's liveness snapshot.

        The fabric-net coordinator republishes this periodically (and on
        membership changes), so ``observe --serve`` can render worker
        liveness and lease state at ``/fleet`` while a multi-host sweep
        runs.  Keyed on the sweep's telemetry directory like every
        other record; last writer wins.
        """
        return self.register("fleet", directory, coordinator=coordinator,
                             status=status, workers=list(workers or []),
                             leases=leases, stats=stats)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def entries(self) -> list:
        """Every registered directory, deduped by ``(kind, dir)``.

        First-registration order is preserved; the *latest* record for
        a directory wins (so ``info.status`` reflects the last update).
        Corrupt lines warn and are skipped, never raised.
        """
        return _latest(self._log.read(_checked))

    def _kind(self, kind: str) -> list:
        return [r for r in self.entries() if r["kind"] == kind]

    def runs(self) -> list:
        return self._kind("run")

    def stores(self) -> list:
        return self._kind("store")

    def observations(self) -> list:
        return self._kind("observe")

    def fleets(self) -> list:
        return self._kind("fleet")

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def prune(self, *, drop_missing: bool = False,
              older_than_days: float = None,
              dry_run: bool = False) -> dict:
        """Compact ``registry.jsonl`` to its live records.

        The registry is append-only — every status flip appends a
        superseding record — so a long-lived registry accretes history
        it never reads (only the last record per ``(kind, dir)`` ever
        wins).  Pruning rewrites the file to exactly those winning
        records, optionally also dropping entries whose directory no
        longer exists (``drop_missing``) or whose last registration is
        older than ``older_than_days``.

        The rewrite is :meth:`~repro.applog.AppendLog.compact`: a crash
        mid-prune leaves either the old file or the new one, readers
        always see a complete file, and a registration that arrives
        meanwhile survives.  Returns a stats dict: intact records
        before, kept/superseded/dropped counts, and bytes before/after.
        """
        cutoff = None
        if older_than_days is not None:
            cutoff = time.strftime(
                "%Y-%m-%dT%H:%M:%S",
                time.localtime(time.time() - older_than_days * 86400),
            )
        stats: dict = {}

        def keep(records: list) -> list:
            live = _latest(r for r in records if _checked(r))
            kept = [r for r in live
                    if not (drop_missing and not os.path.isdir(r["dir"]))
                    and not (cutoff is not None
                             and r["registered"] < cutoff)]
            size = self.path.stat().st_size if self.path.exists() else 0
            stats.update(records_before=len(records), kept=len(kept),
                         superseded=len(records) - len(live),
                         dropped=len(live) - len(kept),
                         bytes_before=size, bytes_after=size)
            return kept

        if dry_run:
            keep(self._log.read())
        else:
            self._log.compact(keep)
            stats["bytes_after"] = self.path.stat().st_size
        return stats


class TelemetrySession:
    """Collectors for one simulation run."""

    def __init__(self, tracer: Tracer = None,
                 sampler: IntervalSampler = None):
        self.tracer = tracer
        self.sampler = sampler
        #: Cumulative "MSGTYPE.scope" -> message count, fed by the
        #: engines (the protocols do not know the scope of the op that
        #: triggered a message; the engines do).
        self.msg_scope_counts: dict = {}

    @classmethod
    def recording(cls, cfg, interval: float = None,
                  time_unit: str = "cycles") -> "TelemetrySession":
        """Full recording session: Chrome tracer + interval sampler.

        ``interval`` defaults to 10 000 cycles (detailed engine) or
        2 048 ops (throughput engine's analytic phases).
        """
        if interval is None:
            interval = 10_000.0 if time_unit == "cycles" else 2_048.0
        return cls(
            tracer=ChromeTracer(cfg.gpms_per_gpu, cfg.num_gpus,
                                time_label=time_unit),
            sampler=IntervalSampler(interval, time_unit=time_unit),
        )

    @property
    def active_tracer(self) -> Tracer:
        """The tracer to install on a protocol (never ``None``)."""
        return self.tracer if self.tracer is not None else NULL_TRACER

    def tally(self, mtype, scope, count: int = 1) -> None:
        """Count ``count`` messages under their type and triggering-op
        scope."""
        key = f"{mtype.name}.{scope.name.lower()}" if scope is not None \
            else mtype.name
        counts = self.msg_scope_counts
        counts[key] = counts.get(key, 0) + count


class TallyingSink(ThroughputSink):
    """ThroughputSink that also feeds a telemetry session.

    Built by :func:`repro.engine.simulator.simulate` instead of the
    plain sink when a session is attached, so the uninstrumented path
    never pays for the tally.  The engine sets ``scope`` to the current
    op's scope before processing it.
    """

    def __init__(self, num_gpus: int, session: TelemetrySession):
        super().__init__(num_gpus)
        self.session = session
        self.tracer = session.active_tracer
        self.scope = None

    def send(self, mtype, src, dst, line, size_bytes):
        ThroughputSink.send(self, mtype, src, dst, line, size_bytes)
        self.session.tally(mtype, self.scope)
        tracer = self.tracer
        if tracer.enabled:
            # The throughput engine has no delivery times; messages
            # appear as zero-duration slices at the op-index clock.
            tracer.message(mtype, src, dst, size_bytes,
                           tracer.now, tracer.now, scope=self.scope)

    def charge(self, plan):
        """A tracing session sees the plan message by message; without
        a tracer, the plan's byte totals and per-type counts go in
        whole (the same tallies, keys first counted in the same
        order)."""
        if self.tracer.enabled:
            TrafficSink.charge(self, plan)
            return
        ThroughputSink.charge(self, plan)
        for mtype, count, _nbytes in plan.totals:
            self.session.tally(mtype, self.scope, count)


# ----------------------------------------------------------------------
# Snapshot builders (what the interval sampler bins)
# ----------------------------------------------------------------------


def _cache_counters(proto) -> dict:
    l1_hits = l1_misses = 0
    for slices in proto.l1:
        for sl in slices:
            l1_hits += sl.stats.hits
            l1_misses += sl.stats.misses
    l2_hits = l2_misses = 0
    for l2 in proto.l2:
        l2_hits += l2.stats.hits
        l2_misses += l2.stats.misses
    return {
        "l1_hits": l1_hits, "l1_misses": l1_misses,
        "l2_hits": l2_hits, "l2_misses": l2_misses,
    }


def _gauges(proto) -> dict:
    gauges = {}
    if proto.has_directory:
        gauges["dir_entries"] = [len(d) for d in proto.dirs]
    return gauges


def make_detailed_snapshot(proto, network, session: TelemetrySession,
                           degradation=None):
    """Snapshot closure for the detailed engine: exact per-link counters."""

    def snapshot():
        counters = _cache_counters(proto)
        counters.update(network.telemetry_counters())
        counters["dram_bytes"] = [d.stats.total_bytes for d in proto.dram]
        counters["messages"] = dict(session.msg_scope_counts)
        if degradation is not None:
            counters["retries"] = degradation.retries
            counters["dropped_messages"] = degradation.dropped_messages
        return counters, _gauges(proto)

    return snapshot


def make_throughput_snapshot(proto, sink: ThroughputSink,
                             session: TelemetrySession):
    """Snapshot closure for the throughput engine: analytic per-phase
    byte totals (the engine has no clock, so phases are op-count bins)."""

    def snapshot():
        counters = _cache_counters(proto)
        counters["link_out_bytes"] = list(sink.link_out_bytes)
        counters["link_in_bytes"] = list(sink.link_in_bytes)
        counters["xbar_bytes"] = list(sink.xbar_bytes)
        counters["dram_bytes"] = [d.stats.total_bytes for d in proto.dram]
        counters["messages"] = dict(session.msg_scope_counts)
        return counters, _gauges(proto)

    return snapshot
