"""Fault-tolerant sweep fabric: the scheduler under ``--jobs N``.

``repro.experiments.parallel`` used to map cells straight onto a
:class:`~concurrent.futures.ProcessPoolExecutor`; one worker SIGKILLed
mid-cell, one hung simulation, or one transient exception lost or
wedged the whole sweep.  This module extends the repo's
determinism-plus-recovery contract — the one the engines already honor
for dropped messages — one level up, to the orchestration layer:

* **Partitioned dispatch + work stealing.**  Cells are partitioned
  onto worker slots by their fingerprints (stable across runs); an
  idle worker whose own queue drains steals from the richest remaining
  queue, and cells owned by dead or straggling workers are reassigned.
* **Heartbeats.**  Each worker runs a heartbeat thread; the scheduler
  treats a silent-but-alive worker as a straggler and dispatches a
  speculative duplicate of its cell to an idle worker (first result
  wins — cells are deterministic, so either copy is byte-identical).
* **Timeouts + seeded backoff retries.**  A cell exceeding
  ``cell_timeout`` gets its worker killed and is retried; transient
  exceptions and worker deaths likewise consume one of
  ``max_retries`` bounded attempts, spaced by a deterministic
  exponential-backoff schedule seeded per (cell fingerprint, attempt).
* **Graceful degradation.**  A cell that exhausts its retries becomes
  an explicit :class:`FailedCell` — the sweep completes, tables render
  the gap, and the failure manifest says exactly what is missing —
  instead of aborting the run.

:class:`~repro.core.sanitizer.CoherenceViolation` is the exception to
the retry rule: it is a deterministic property of the cell, so it
aborts the sweep immediately, exactly as the plain pool did.

Workers talk to the scheduler over one duplex pipe each (no shared
queues), so a SIGKILL can corrupt nothing but its own pipe — the
resulting EOF doubles as the fastest death detector.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(*parts: int) -> int:
    """Stable splitmix64-style hash (same family the fault plans use)."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = (h ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
        h ^= h >> 31
    return h


def retry_delay(seed: int, fingerprint: str, attempt: int,
                backoff: float) -> float:
    """Deterministic exponential-backoff delay before retry ``attempt``.

    ``backoff * 2**(attempt-1)``, jittered to 50–150% by a hash of
    (seed, fingerprint, attempt) so retry storms across cells decorrelate
    while any given cell's schedule replays exactly.
    """
    base = backoff * (2 ** max(attempt - 1, 0))
    h = _mix(seed, zlib.crc32(fingerprint.encode()), attempt)
    return base * (0.5 + (h & 0xFFFFFFFF) / 4294967296.0)


class FabricError(RuntimeError):
    """A cell failed permanently (carried inside :class:`FailedCell`)."""


@dataclass
class FailedCell:
    """One cell the fabric gave up on after exhausting its retries."""

    index: int  # position in the submitted batch
    fingerprint: str
    attempts: int
    error: str  # repr of the last failure

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "fingerprint": self.fingerprint,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class FabricStats:
    """Scheduler-level counters for one batch (telemetry material)."""

    cells: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0  # re-executions past each cell's first attempt
    steals: int = 0  # cells taken from another worker's queue
    reassigned: int = 0  # cells requeued off dead/straggling workers
    timeouts: int = 0  # cells whose worker was killed for overrunning
    worker_deaths: int = 0  # worker processes that died mid-cell
    respawns: int = 0  # replacement workers launched
    heartbeats: int = 0  # heartbeat messages received

    #: Counters that vary between identical runs with scheduling
    #: timing; ``--telemetry`` keeps them in ``fabric.perf.json``.
    HOST_COUNTERS = ("steals", "reassigned", "heartbeats")

    def as_dict(self) -> dict:
        return {
            "cells": self.cells,
            "completed": self.completed,
            "failed": self.failed,
            "retries": self.retries,
            "steals": self.steals,
            "reassigned": self.reassigned,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "heartbeats": self.heartbeats,
        }

    def merge(self, other: "FabricStats") -> None:
        for key, value in other.as_dict().items():
            setattr(self, key, getattr(self, key) + value)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _fabric_worker(conn, worker_id: int, heartbeat_interval: float,
                   chaos=None) -> None:
    """Worker loop: receive tasks, simulate, report, heartbeat.

    Runs in a child process.  A background thread heartbeats while a
    cell simulates (the GIL switches threads every few ms even inside
    the pure-Python engine loop, so beats keep flowing).  ``chaos`` is
    an optional :class:`repro.faults.chaos.ChaosPlan` consulted before
    each attempt — the seeded adversary the chaos harness injects.
    """
    from repro.experiments.parallel import run_cell

    send_lock = threading.Lock()
    current: dict = {"task": None}
    stop = threading.Event()

    def _send(msg) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                os._exit(1)  # parent is gone; nothing left to do

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            task_id = current["task"]
            if task_id is not None:
                _send(("heartbeat", worker_id, task_id))

    threading.Thread(target=_beat, daemon=True).start()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            stop.set()
            _send(("bye", worker_id))
            return
        _kind, task_id, attempt, payload, fingerprint = msg
        current["task"] = task_id
        _send(("start", worker_id, task_id, attempt))
        try:
            if chaos is not None:
                chaos.apply(fingerprint, attempt)
            result = run_cell(payload)
        except BaseException as exc:  # reported, never fatal here
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = pickle.dumps(
                    FabricError(f"{type(exc).__name__}: {exc}")
                )
            current["task"] = None
            _send(("error", worker_id, task_id, attempt, blob))
        else:
            current["task"] = None
            _send(("done", worker_id, task_id, attempt, result))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side handle on one worker slot."""

    slot: int
    process: mp.Process
    conn: object
    busy_task: int = None  # task id currently executing, if any
    busy_attempt: int = 0
    started_at: float = 0.0  # monotonic time the current cell started
    last_seen: float = field(default_factory=time.monotonic)

    @property
    def idle(self) -> bool:
        return self.busy_task is None and self.process.is_alive()


@dataclass
class _Task:
    """Parent-side state of one submitted cell."""

    index: int
    payload: object
    fingerprint: str
    attempts: int = 0  # attempts started
    completed: bool = False
    result: object = None
    error: str = None
    not_before: float = 0.0  # monotonic eligibility time (backoff)
    queued: bool = False  # sitting in some pending deque
    stolen: bool = False  # a speculative duplicate was dispatched


class FabricScheduler:
    """Maps one batch of cells onto a self-healing worker pool.

    The pool lives for one :meth:`run` call (mirroring the executor it
    replaced).  Results come back in submission order; failed cells
    yield ``None`` alongside a :class:`FailedCell` record.
    """

    def __init__(self, jobs: int, *, seed: int = 1,
                 cell_timeout: float = 0.0, max_retries: int = 2,
                 retry_backoff: float = 0.5,
                 heartbeat_interval: float = 0.25,
                 straggler_grace: float = None, chaos=None,
                 tracer=None):
        self.jobs = max(2, int(jobs))
        self.seed = seed
        self.cell_timeout = cell_timeout
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff = retry_backoff
        self.heartbeat_interval = heartbeat_interval
        #: Silence (no message of any kind) after which a live worker
        #: counts as a straggler and its cell is speculatively stolen.
        self.straggler_grace = (
            straggler_grace if straggler_grace is not None
            else max(8 * heartbeat_interval, 2.0)
        )
        self.chaos = chaos
        self.tracer = tracer
        self.stats = FabricStats()
        self.failed: list = []
        self._workers: dict = {}  # slot -> _Worker
        self._pending: list = []  # slot -> deque of task ids

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = mp.Pipe()
        process = mp.Process(
            target=_fabric_worker,
            args=(child_conn, slot, self.heartbeat_interval, self.chaos),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(slot=slot, process=process, conn=parent_conn)
        self._workers[slot] = worker
        return worker

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead/killed worker in its slot."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        self._spawn(worker.slot)
        self.stats.respawns += 1

    def _shutdown(self) -> None:
        for worker in self._workers.values():
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers.values():
            worker.process.join(timeout=max(deadline - time.monotonic(),
                                            0.1))
        for worker in self._workers.values():
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _trace(self, kind: str, **args) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.fabric(kind, args)

    def _home_slot(self, fingerprint: str) -> int:
        return zlib.crc32(fingerprint.encode()) % self.jobs

    def _requeue(self, task: _Task, *, delay: float = 0.0,
                 front: bool = False) -> None:
        """Put a task (back) on its home slot's pending deque."""
        task.not_before = time.monotonic() + delay
        if not task.queued:
            task.queued = True
            queue = self._pending[self._home_slot(task.fingerprint)]
            if front:
                queue.appendleft(task.index)
            else:
                queue.append(task.index)

    def _next_task(self, slot: int, tasks: list) -> _Task:
        """Pop the next runnable task for a worker slot, stealing from
        the richest other queue when its own is dry."""
        now = time.monotonic()

        def pop_from(queue: deque, stealing: bool) -> _Task:
            for _ in range(len(queue)):
                task = tasks[queue.popleft()]
                if task.completed:
                    task.queued = False
                    continue
                if task.not_before > now:
                    queue.append(task.index)  # not eligible yet
                    continue
                task.queued = False
                if stealing:
                    self.stats.steals += 1
                    self._trace("steal", cell=task.fingerprint,
                                to_slot=slot)
                return task
            return None

        task = pop_from(self._pending[slot], stealing=False)
        if task is not None:
            return task
        richest = max(
            (q for i, q in enumerate(self._pending) if i != slot),
            key=len, default=None,
        )
        if richest:
            return pop_from(richest, stealing=True)
        return None

    def _dispatch(self, tasks: list) -> None:
        for worker in self._workers.values():
            if not worker.idle:
                continue
            task = self._next_task(worker.slot, tasks)
            if task is None:
                continue
            task.attempts += 1
            if task.attempts > 1:
                self.stats.retries += 1
                self._trace("retry", cell=task.fingerprint,
                            attempt=task.attempts)
            worker.busy_task = task.index
            worker.busy_attempt = task.attempts
            worker.started_at = time.monotonic()
            worker.last_seen = worker.started_at
            try:
                worker.conn.send(("task", task.index, task.attempts,
                                  task.payload, task.fingerprint))
            except (BrokenPipeError, OSError):
                # Found out the hard way that the worker is gone.
                self._on_worker_death(worker, tasks)

    def _attempts_left(self, task: _Task) -> bool:
        return task.attempts < self.max_retries + 1

    def _give_up(self, task: _Task, reason: str) -> None:
        task.completed = True
        task.error = reason
        self.stats.failed += 1
        self.failed.append(FailedCell(
            index=task.index, fingerprint=task.fingerprint,
            attempts=task.attempts, error=reason,
        ))
        self._trace("failed", cell=task.fingerprint,
                    attempts=task.attempts)

    def _retry_or_fail(self, task: _Task, reason: str) -> None:
        if task.completed:
            return  # a duplicate already finished it
        if self._attempts_left(task):
            delay = retry_delay(self.seed, task.fingerprint,
                                task.attempts, self.retry_backoff)
            self._requeue(task, delay=delay)
        else:
            self._give_up(task, reason)

    def _on_worker_death(self, worker: _Worker, tasks: list) -> None:
        """A worker died (EOF / failed send): reassign its cell."""
        self.stats.worker_deaths += 1
        task_id = worker.busy_task
        if task_id is not None:
            worker.busy_task = None
            task = tasks[task_id]
            self.stats.reassigned += 1
            self._trace("reassign", cell=task.fingerprint,
                        cause="worker-death", slot=worker.slot)
            self._retry_or_fail(
                task, f"worker {worker.slot} died mid-cell"
            )
        self._respawn(worker)

    def _on_timeout(self, worker: _Worker, tasks: list) -> None:
        """A cell overran ``cell_timeout``: kill the worker, retry."""
        self.stats.timeouts += 1
        task = tasks[worker.busy_task]
        worker.busy_task = None
        self.stats.reassigned += 1
        self._trace("timeout", cell=task.fingerprint, slot=worker.slot)
        worker.process.kill()
        self._respawn(worker)
        self._retry_or_fail(
            task,
            f"cell exceeded {self.cell_timeout:g}s timeout "
            f"(attempt {task.attempts})",
        )

    def _on_straggler(self, worker: _Worker, tasks: list) -> None:
        """A live worker went silent: speculatively steal its cell."""
        task = tasks[worker.busy_task]
        if task.completed or task.stolen or not self._attempts_left(task):
            return
        task.stolen = True
        self.stats.reassigned += 1
        self._trace("straggler-steal", cell=task.fingerprint,
                    slot=worker.slot)
        self._requeue(task, front=True)

    # ------------------------------------------------------------------

    def _handle_message(self, worker: _Worker, msg, tasks: list,
                        on_result) -> None:
        worker.last_seen = time.monotonic()
        kind = msg[0]
        if kind == "heartbeat":
            self.stats.heartbeats += 1
            return
        if kind == "start" or kind == "bye":
            return
        task = tasks[msg[2]]
        if kind == "done":
            _kind, _wid, _task_id, _attempt, result = msg
            if worker.busy_task == task.index:
                worker.busy_task = None
            if not task.completed:
                task.completed = True
                task.result = result
                self.stats.completed += 1
                if on_result is not None:
                    on_result(task.index, result)
            return
        if kind == "error":
            _kind, _wid, _task_id, _attempt, blob = msg
            if worker.busy_task == task.index:
                worker.busy_task = None
            try:
                exc = pickle.loads(blob)
            except Exception:
                exc = FabricError("undecodable worker exception")
            from repro.core.sanitizer import CoherenceViolation

            if isinstance(exc, CoherenceViolation):
                raise exc  # deterministic: retrying cannot help
            self._retry_or_fail(
                task, f"{type(exc).__name__}: {exc}"
            )

    def run(self, tasks_in, on_result=None):
        """Execute ``tasks_in`` — a list of ``(payload, fingerprint)``
        pairs — and return results in submission order (``None`` for
        cells recorded in :attr:`failed`).

        ``on_result(index, result)`` fires as cells complete, in
        completion order (progress displays); result *collection* stays
        in submission order for deterministic downstream output.
        """
        tasks = [
            _Task(index=i, payload=payload, fingerprint=fingerprint)
            for i, (payload, fingerprint) in enumerate(tasks_in)
        ]
        self.stats.cells += len(tasks)
        nworkers = min(self.jobs, max(len(tasks), 1))
        self.jobs = nworkers
        self._pending = [deque() for _ in range(nworkers)]
        for task in tasks:
            self._requeue(task)
        try:
            for slot in range(nworkers):
                self._spawn(slot)
            self._loop(tasks, on_result)
        except KeyboardInterrupt:
            # Graceful Ctrl-C: stop dispatching, give in-flight cells a
            # moment to land (their results still reach on_result), then
            # let the interrupt propagate to the CLI for flush + exit.
            self._drain(tasks, on_result)
            raise
        finally:
            self._shutdown()
        return [task.result for task in tasks]

    def _drain(self, tasks: list, on_result,
               grace: float = 5.0) -> None:
        """Collect results from cells already executing; no new work."""
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            busy = {
                worker.conn: worker
                for worker in self._workers.values()
                if worker.busy_task is not None
                and worker.process.is_alive()
            }
            if not busy:
                return
            try:
                ready = conn_wait(list(busy), timeout=0.25)
                for conn in ready:
                    worker = busy[conn]
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        worker.busy_task = None
                        continue
                    self._handle_message(worker, msg, tasks, on_result)
            except (KeyboardInterrupt, OSError):
                return  # second Ctrl-C (or pipe teardown): stop now

    def _loop(self, tasks: list, on_result) -> None:
        tick = max(self.heartbeat_interval / 2, 0.05)
        while any(not t.completed for t in tasks):
            self._dispatch(tasks)
            conns = {
                worker.conn: worker
                for worker in self._workers.values()
                if worker.process.is_alive() or worker.busy_task is not None
            }
            for conn in conn_wait(list(conns), timeout=tick):
                worker = conns[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._on_worker_death(worker, tasks)
                    continue
                self._handle_message(worker, msg, tasks, on_result)
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if worker.busy_task is None:
                    continue
                if not worker.process.is_alive():
                    self._on_worker_death(worker, tasks)
                elif (self.cell_timeout > 0
                        and now - worker.started_at > self.cell_timeout):
                    self._on_timeout(worker, tasks)
                elif now - worker.last_seen > self.straggler_grace:
                    self._on_straggler(worker, tasks)
