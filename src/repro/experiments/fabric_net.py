"""Distributed sweep fabric: lease-based TCP coordinator + workers.

:mod:`repro.experiments.fabric` heals a *single-host* worker pool; this
module extends the same determinism-plus-recovery contract across
hosts.  A sweep started with ``--listen HOST:PORT`` runs a coordinator
that partitions cell fingerprints into **leases** and hands them to
remote workers started with::

    python -m repro.experiments worker --connect HOST:PORT

The design mirrors the paper's own hierarchy argument: slow or
unreliable inter-domain links must never compromise correctness, only
latency.  Concretely:

* **Leases, not assignments.**  A lease is a small batch of cells with
  a seeded deadline (``lease_ttl`` jittered per (seed, fingerprint,
  attempt), so reclaim storms decorrelate while any given cell's
  schedule replays exactly).  A lease is *reclaimed* — its unfinished
  cells go back on the front of the pending queue — when its worker's
  socket EOFs, when the worker misses heartbeats, or when the deadline
  passes.  Reclaimed cells consume bounded retry attempts exactly like
  the local fabric; exhausting them yields an explicit
  :class:`~repro.experiments.fabric.FailedCell` gap.
* **CRC'd frames.**  Every message crosses the wire as a
  length-prefixed frame carrying a CRC32 of its payload.  A corrupt
  frame poisons only its connection: the coordinator drops the link,
  reclaims the worker's lease, and the worker reconnects fresh.
* **Idempotent results.**  Cells are deterministic, so a duplicate
  result — a reclaimed lease finishing late, a chaos adversary
  double-delivering a frame, a worker reconnecting and replaying —
  is byte-identical to the first.  The coordinator keeps the first
  result per cell and counts the rest; the content-addressed results
  store downstream is last-writer-wins on identical blobs.  Final
  tables are therefore byte-identical to a serial run regardless of
  worker count, kills, or partitions.
* **Fleet visibility.**  When a run registry is attached the
  coordinator periodically publishes worker liveness and lease state
  (``kind="fleet"``), which ``observe --serve`` exposes at ``/fleet``.

The wire format is pickle over TCP, so anyone who can speak to the
socket can execute code in the peer (the same trust model as
``multiprocessing``).  Two guards keep that model honest:

* **HMAC handshake.**  With ``authkey`` set on both sides, every
  connection starts with a challenge-response (HMAC-SHA256 over a
  random nonce, like ``multiprocessing.connection``) *before the
  first pickled frame is parsed*; a peer that fails it is dropped.
* **Loopback by default.**  A coordinator refuses to bind a
  non-loopback address without an ``authkey`` unless
  ``allow_unauthenticated=True`` (CLI: ``--insecure-fabric``) opts in
  explicitly.
"""

from __future__ import annotations

import hmac
import ipaddress
import os
import pickle
import selectors
import socket
import struct
import sys
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.experiments.fabric import FailedCell, _mix, retry_delay
from repro.faults.plan import _unit

#: Frame header: magic, payload length, payload CRC32.
_HEADER = struct.Struct("!4sII")
_MAGIC = b"RFN1"

#: Refuse absurd frames early (a corrupt length would otherwise make
#: the reader wait forever for bytes that never come).
MAX_FRAME = 256 * 1024 * 1024

#: Auth handshake: the coordinator opens with ``RFNA`` + 32 random
#: bytes; the worker answers with HMAC-SHA256(authkey, challenge) and
#: receives the fixed welcome.  All raw bytes — no pickle is parsed
#: from an unauthenticated peer.
_AUTH_MAGIC = b"RFNA"
_AUTH_NONCE = 32
_AUTH_DIGEST = 32  # sha256
_WELCOME = b"RFN-WELCOME."


class FrameError(RuntimeError):
    """A frame failed its magic/length/CRC check (connection poison)."""


class AuthRequired(FrameError):
    """The peer opened with an auth challenge we have no key for."""


def parse_address(spec: str) -> tuple:
    """``HOST:PORT`` -> ``(host, port)``; bare ``:PORT``/``PORT`` bind
    localhost.  Port 0 asks the kernel for a free port."""
    text = str(spec).strip()
    host, _, port = text.rpartition(":")
    if not host:
        host = "127.0.0.1"
    return host, int(port or 0)


def _as_authkey(key):
    """Normalise an authkey to bytes (None stays None)."""
    if key is None:
        return None
    if isinstance(key, str):
        key = key.encode()
    if not key:
        return None
    return bytes(key)


def _is_loopback(host: str) -> bool:
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False  # a hostname or wildcard: assume reachable


def check_listen_security(listen, authkey, allow_unauthenticated):
    """Refuse a non-loopback bind with no authkey unless explicitly
    opted in — the wire format is pickle, so an open port is remote
    code execution for anyone who can reach it."""
    host = listen[0] if not isinstance(listen, str) \
        else parse_address(listen)[0]
    if _as_authkey(authkey) is not None or allow_unauthenticated:
        return
    if not _is_loopback(host):
        raise ValueError(
            f"refusing to listen on non-loopback {host!r} without "
            "authentication: the wire format is pickle, so an open "
            "port grants code execution.  Set an authkey "
            "(--fabric-authkey / REPRO_FABRIC_AUTHKEY) or opt in "
            "explicitly with --insecure-fabric."
        )


def encode_frame(message) -> bytes:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


class FrameBuffer:
    """Incremental frame parser over a byte stream.

    Feed raw socket bytes in; iterate complete, CRC-verified messages
    out.  Any integrity violation raises :class:`FrameError` — the
    caller must treat the whole connection as poisoned (there is no
    way to resynchronise a pickled stream mid-garbage).
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def __iter__(self):
        while True:
            if len(self._buf) < _HEADER.size:
                return
            magic, length, crc = _HEADER.unpack_from(self._buf)
            if magic != _MAGIC or length > MAX_FRAME:
                raise FrameError(f"bad frame header ({magic!r}, {length})")
            end = _HEADER.size + length
            if len(self._buf) < end:
                return
            payload = bytes(self._buf[_HEADER.size:end])
            del self._buf[:end]
            if zlib.crc32(payload) != crc:
                raise FrameError("frame CRC mismatch")
            try:
                yield pickle.loads(payload)
            except Exception as exc:
                raise FrameError(f"undecodable frame: {exc}")


@dataclass
class NetFabricStats:
    """Coordinator-level counters (telemetry sidecar material)."""

    cells: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0  # dispatches past each cell's first attempt
    leases_issued: int = 0
    reclaims: int = 0  # leases torn back from workers, any cause
    reclaims_eof: int = 0  # ... because the socket died
    reclaims_heartbeat: int = 0  # ... because heartbeats went silent
    reclaims_deadline: int = 0  # ... because the lease expired
    reclaims_admin: int = 0  # ... administrative (replaced / bye)
    duplicate_results: int = 0  # late/extra frames for finished cells
    stale_frames: int = 0  # frames for a cell not in the current batch
    worker_connects: int = 0
    worker_eofs: int = 0  # sockets that genuinely died underneath us
    worker_replaced: int = 0  # superseded by a reconnect reusing a name
    worker_byes: int = 0  # orderly departures on the stop broadcast
    frames_rejected: int = 0  # connections dropped for bad frames
    auth_rejected: int = 0  # connections that failed the HMAC handshake

    #: Counters that vary between identical runs with fleet timing (all
    #: but the cell outcomes); ``--telemetry`` keeps them in
    #: ``fabric.perf.json``.
    HOST_COUNTERS = (
        "retries", "leases_issued", "reclaims", "reclaims_eof",
        "reclaims_heartbeat", "reclaims_deadline", "reclaims_admin",
        "duplicate_results", "stale_frames", "worker_connects",
        "worker_eofs", "worker_replaced", "worker_byes",
        "frames_rejected", "auth_rejected",
    )

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    def merge(self, other: "NetFabricStats") -> None:
        for key, value in other.as_dict().items():
            setattr(self, key, getattr(self, key) + value)


@dataclass
class _NetTask:
    """Coordinator-side state of one submitted cell."""

    index: int
    payload: object
    fingerprint: str
    attempts: int = 0
    completed: bool = False
    result: object = None
    error: str = None
    not_before: float = 0.0
    queued: bool = False


@dataclass
class _NetWorker:
    """One connected worker."""

    name: str
    sock: socket.socket
    frames: FrameBuffer
    last_seen: float = field(default_factory=time.monotonic)
    lease: int = None  # active lease id, if any
    cells_done: int = 0
    dead: bool = False
    #: Hello received; only greeted workers receive leases (a lease
    #: must record the worker's final name, or it can never settle).
    greeted: bool = False
    #: HMAC handshake passed (immediately True when the coordinator
    #: has no authkey).  Nothing a pre-auth peer sends is ever parsed
    #: as a frame.
    authed: bool = False
    challenge: bytes = None
    auth_buf: bytearray = field(default_factory=bytearray)

    def fresh(self, now: float, timeout: float) -> bool:
        return not self.dead and now - self.last_seen <= timeout


@dataclass
class _Lease:
    """One outstanding lease: cells granted to one worker."""

    id: int
    worker: str
    remaining: set  # task indexes not yet resulted/errored
    deadline: float
    attempt: int  # attempt number of the lease's first cell


def lease_ttl_for(seed: int, fingerprint: str, attempt: int,
                  base_ttl: float, cells: int = 1) -> float:
    """Seeded lease deadline: ``base_ttl`` stretched to 100-150% by a
    hash of (seed, fingerprint, attempt), scaled by the cell count.
    Deterministic per cell so a replayed schedule reclaims at the same
    relative moments; jittered so simultaneous leases don't all expire
    in one reclaim storm."""
    jitter = 1.0 + 0.5 * _unit(
        _mix(seed, zlib.crc32(fingerprint.encode()), attempt)
    )
    return base_ttl * jitter * max(cells, 1)


class NetFabricCoordinator:
    """Maps sweep batches onto a fleet of TCP workers.

    Unlike the per-batch :class:`~repro.experiments.fabric.FabricScheduler`,
    a coordinator is *persistent*: it keeps its listening socket and its
    connected workers across :meth:`run` calls (one sweep issues several
    batches), and :meth:`close` dismisses the fleet.
    """

    def __init__(self, listen=("127.0.0.1", 0), *, seed: int = 1,
                 lease_ttl: float = 30.0, lease_size: int = 1,
                 max_retries: int = 2, retry_backoff: float = 0.5,
                 heartbeat_interval: float = 0.25,
                 heartbeat_timeout: float = None, min_workers: int = 1,
                 registry=None, fleet_dir=None, tracer=None,
                 authkey=None, allow_unauthenticated: bool = False):
        self.authkey = _as_authkey(authkey)
        check_listen_security(listen, self.authkey, allow_unauthenticated)
        self.seed = seed
        self.lease_ttl = lease_ttl
        self.lease_size = max(1, int(lease_size))
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff = retry_backoff
        self.heartbeat_interval = heartbeat_interval
        #: Silence after which a worker's lease is reclaimed (the
        #: worker itself stays connected; only EOF removes it).
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else max(8 * heartbeat_interval, 2.0)
        )
        self.min_workers = max(0, int(min_workers))
        self.registry = registry
        self.fleet_dir = fleet_dir
        self.tracer = tracer
        self.stats = NetFabricStats()
        self.failed: list = []
        self._workers: dict = {}  # name -> _NetWorker
        self._leases: dict = {}  # lease id -> _Lease
        self._lease_counter = 0
        self._min_seen = False
        self._fleet_published = 0.0
        self._waiting_note = 0.0
        self._selector = selectors.DefaultSelector()
        self._listener = socket.create_server(
            tuple(listen), backlog=16, reuse_port=False
        )
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ,
                                ("accept", None))

    @property
    def address(self) -> tuple:
        """(host, port) the coordinator actually listens on."""
        return self._listener.getsockname()[:2]

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _trace(self, kind: str, **args) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.fabric(kind, args)

    def _send(self, worker: _NetWorker, message) -> bool:
        """Best-effort frame send; a failed send marks the worker dead
        (the reclaim sweep picks its lease up)."""
        try:
            worker.sock.sendall(encode_frame(message))
            return True
        except OSError:
            self._drop_worker(worker, cause="send-failed")
            return False

    def _accept(self) -> None:
        try:
            conn, addr = self._listener.accept()
        except OSError:
            return
        conn.setblocking(False)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Anonymous until its hello frame names it.
        worker = _NetWorker(name=f"<{addr[0]}:{addr[1]}>", sock=conn,
                            frames=FrameBuffer())
        self._workers[worker.name] = worker
        self._selector.register(conn, selectors.EVENT_READ,
                                ("worker", worker))
        if self.authkey is None:
            worker.authed = True
        else:
            worker.challenge = _AUTH_MAGIC + os.urandom(_AUTH_NONCE)
            try:
                conn.sendall(worker.challenge)
            except OSError:
                self._drop_worker(worker, cause="send-failed")

    #: Drop causes that mean the socket genuinely died underneath us;
    #: everything else is a replacement or an administrative departure
    #: and is counted separately so chaos analysis can tell them apart.
    _EOF_CAUSES = frozenset(
        {"eof", "recv-error", "send-failed", "bad-frame"}
    )

    def _drop_worker(self, worker: _NetWorker, cause: str) -> None:
        """Remove a dead connection and reclaim anything it held."""
        if worker.dead:
            return
        worker.dead = True
        if cause in self._EOF_CAUSES:
            self.stats.worker_eofs += 1
        elif cause == "replaced":
            self.stats.worker_replaced += 1
        elif cause == "bye":
            self.stats.worker_byes += 1
        self._trace("worker-lost", name=worker.name, cause=cause)
        try:
            self._selector.unregister(worker.sock)
        except (KeyError, ValueError):
            pass
        try:
            worker.sock.close()
        except OSError:
            pass
        self._workers.pop(worker.name, None)
        if worker.lease is not None:
            self._reclaim(worker.lease, cause=cause)

    # ------------------------------------------------------------------
    # Lease lifecycle
    # ------------------------------------------------------------------

    def _requeue(self, task: _NetTask, *, delay: float = 0.0,
                 front: bool = False) -> None:
        task.not_before = time.monotonic() + delay
        if not task.queued and not task.completed:
            task.queued = True
            if front:
                self._pending.appendleft(task.index)
            else:
                self._pending.append(task.index)

    def _give_up(self, task: _NetTask, reason: str) -> None:
        task.completed = True
        task.error = reason
        self.stats.failed += 1
        self.failed.append(FailedCell(
            index=task.index, fingerprint=task.fingerprint,
            attempts=task.attempts, error=reason,
        ))
        self._trace("failed", cell=task.fingerprint, attempts=task.attempts)

    def _retry_or_fail(self, task: _NetTask, reason: str) -> None:
        if task.completed:
            return  # a duplicate execution already finished it
        if task.attempts < self.max_retries + 1:
            self._requeue(task, delay=retry_delay(
                self.seed, task.fingerprint, task.attempts,
                self.retry_backoff), front=True)
        else:
            self._give_up(task, reason)

    #: Reclaim-cause stat buckets: socket-death causes fold into
    #: ``reclaims_eof``, administrative drops into ``reclaims_admin``;
    #: traces keep the precise cause string.
    _RECLAIM_BUCKETS = {
        "heartbeat": "reclaims_heartbeat",
        "deadline": "reclaims_deadline",
        "replaced": "reclaims_admin",
        "bye": "reclaims_admin",
    }

    def _reclaim(self, lease_id: int, cause: str) -> None:
        """Tear a lease back: unfinished cells retry (or fail), the
        worker slot frees, late results remain acceptable."""
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return
        self.stats.reclaims += 1
        bucket = self._RECLAIM_BUCKETS.get(cause, "reclaims_eof")
        setattr(self.stats, bucket, getattr(self.stats, bucket) + 1)
        worker = self._workers.get(lease.worker)
        if worker is not None and worker.lease == lease_id:
            worker.lease = None
        for index in sorted(lease.remaining):
            task = self._tasks[index]
            self._trace("reclaim", cell=task.fingerprint, cause=cause,
                        worker=lease.worker)
            self._retry_or_fail(
                task,
                f"lease {lease_id} on {lease.worker} reclaimed ({cause}) "
                f"after attempt {task.attempts}",
            )

    def _next_cells(self) -> list:
        """Up to ``lease_size`` runnable tasks off the pending queue."""
        now = time.monotonic()
        cells = []
        for _ in range(len(self._pending)):
            if len(cells) >= self.lease_size:
                break
            task = self._tasks[self._pending.popleft()]
            if task.completed:
                task.queued = False
                continue
            if task.not_before > now:
                self._pending.append(task.index)
                continue
            task.queued = False
            cells.append(task)
        return cells

    def _dispatch(self) -> None:
        now = time.monotonic()
        live = [w for w in self._workers.values()
                if w.greeted and w.fresh(now, self.heartbeat_timeout)]
        if not self._min_seen:
            if len(live) < self.min_workers:
                return
            self._min_seen = True
        for worker in live:
            if worker.lease is not None or not self._pending:
                continue
            cells = self._next_cells()
            if not cells:
                continue
            for task in cells:
                task.attempts += 1
                if task.attempts > 1:
                    self.stats.retries += 1
                    self._trace("retry", cell=task.fingerprint,
                                attempt=task.attempts)
            first = cells[0]
            ttl = lease_ttl_for(self.seed, first.fingerprint,
                                first.attempts, self.lease_ttl,
                                cells=len(cells))
            self._lease_counter += 1
            lease = _Lease(
                id=self._lease_counter, worker=worker.name,
                remaining={t.index for t in cells},
                deadline=now + ttl, attempt=first.attempts,
            )
            message = ("lease", lease.id, [
                (t.index, t.payload, t.fingerprint, t.attempts)
                for t in cells
            ], ttl)
            if self._send(worker, message):
                worker.lease = lease.id
                self._leases[lease.id] = lease
                self.stats.leases_issued += 1
                self._trace("lease", id=lease.id, worker=worker.name,
                            cells=[t.fingerprint for t in cells])
            else:
                for task in cells:  # send failed; attempts roll back
                    task.attempts -= 1
                    self._requeue(task, front=True)

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------

    def _read_worker(self, worker: _NetWorker, on_result) -> None:
        try:
            data = worker.sock.recv(1 << 20)
        except BlockingIOError:
            return
        except OSError:
            self._drop_worker(worker, cause="recv-error")
            return
        if not data:
            self._drop_worker(worker, cause="eof")
            return
        worker.last_seen = time.monotonic()
        if not worker.authed:
            data = self._advance_auth(worker, data)
            if data is None:
                return
        worker.frames.feed(data)
        try:
            for message in worker.frames:
                self._handle(worker, message, on_result)
        except FrameError as exc:
            self.stats.frames_rejected += 1
            print(f"fabric-net: dropping {worker.name}: {exc}",
                  file=sys.stderr)
            self._drop_worker(worker, cause="bad-frame")

    def _advance_auth(self, worker: _NetWorker, data: bytes):
        """Consume handshake bytes; returns any surplus past the
        digest once authenticated, else None (more bytes needed, or
        the worker was dropped).  No pickle is touched before this
        passes."""
        worker.auth_buf.extend(data)
        if len(worker.auth_buf) < _AUTH_DIGEST:
            return None
        digest = bytes(worker.auth_buf[:_AUTH_DIGEST])
        surplus = bytes(worker.auth_buf[_AUTH_DIGEST:])
        worker.auth_buf.clear()
        expected = hmac.new(self.authkey, worker.challenge,
                            "sha256").digest()
        if not hmac.compare_digest(digest, expected):
            self.stats.auth_rejected += 1
            print(f"fabric-net: rejecting {worker.name}: "
                  "failed authentication", file=sys.stderr)
            self._drop_worker(worker, cause="auth-failed")
            return None
        try:
            worker.sock.sendall(_WELCOME)
        except OSError:
            self._drop_worker(worker, cause="send-failed")
            return None
        worker.authed = True
        return surplus

    def _handle(self, worker: _NetWorker, message, on_result) -> None:
        kind = message[0]
        if kind == "hello":
            _kind, name = message[:2]
            if name != worker.name:
                self._workers.pop(worker.name, None)
                old = self._workers.pop(name, None)
                if old is not None and old is not worker:
                    # A reconnecting worker supersedes its stale
                    # connection (its lease reclaims via the drop).
                    self._drop_worker(old, cause="replaced")
                for lease in self._leases.values():
                    if lease.worker == worker.name:
                        lease.worker = name
                worker.name = name
                self._workers[name] = worker
            worker.greeted = True
            self.stats.worker_connects += 1
            self._trace("worker-join", name=worker.name)
            return
        if kind == "heartbeat":
            return  # last_seen already refreshed by _read_worker
        if kind == "bye":
            self._drop_worker(worker, cause="bye")
            return
        if kind == "result":
            _kind, lease_id, index, fingerprint, result = message
            task = self._task_for(worker, index, fingerprint)
            if task is None:
                return
            self._finish(worker, lease_id, task, result=result,
                         on_result=on_result)
            return
        if kind == "error":
            _kind, lease_id, index, fingerprint, blob = message
            task = self._task_for(worker, index, fingerprint)
            if task is None:
                return  # stale: never unpickle an out-of-batch blob
            try:
                exc = pickle.loads(blob)
            except Exception:
                exc = RuntimeError("undecodable worker exception")
            from repro.core.sanitizer import CoherenceViolation

            if isinstance(exc, CoherenceViolation):
                raise exc  # deterministic: no retry can help
            self._settle_lease(worker, lease_id, index)
            self._retry_or_fail(task, f"{type(exc).__name__}: {exc}")

    def _task_for(self, worker: _NetWorker, index, fingerprint):
        """The current batch's task for a frame, or None for a *stale*
        frame.  The coordinator persists across batches, so a frame
        from a reclaimed worker (frozen, black-holed, slow) can arrive
        after :meth:`run` moved on; its index would silently resolve
        to a different cell in the new batch.  The echoed fingerprint
        is the identity check that makes that impossible."""
        tasks = getattr(self, "_tasks", [])
        if isinstance(index, int) and 0 <= index < len(tasks) \
                and tasks[index].fingerprint == fingerprint:
            return tasks[index]
        self.stats.stale_frames += 1
        self._trace("stale-frame", worker=worker.name, cell=fingerprint)
        return None

    def _settle_lease(self, worker: _NetWorker, lease_id: int,
                      index: int) -> None:
        """Mark one lease cell answered; free the worker when the whole
        lease is in.  Late frames for reclaimed leases settle nothing
        (the lease is gone) but are otherwise welcome."""
        lease = self._leases.get(lease_id)
        if lease is None:
            return
        lease.remaining.discard(index)
        if not lease.remaining:
            del self._leases[lease_id]
            owner = self._workers.get(lease.worker)
            if owner is not None and owner.lease == lease_id:
                owner.lease = None

    def _finish(self, worker: _NetWorker, lease_id: int, task: _NetTask,
                result, on_result) -> None:
        self._settle_lease(worker, lease_id, task.index)
        if task.completed:
            # A reclaimed lease delivered late, or a chaos adversary
            # double-sent the frame.  Cells are deterministic, so the
            # payload is byte-identical — count it and move on.
            self.stats.duplicate_results += 1
            self._trace("duplicate", cell=task.fingerprint,
                        worker=worker.name)
            return
        task.completed = True
        task.result = result
        worker.cells_done += 1
        self.stats.completed += 1
        self._trace("done", cell=task.fingerprint, worker=worker.name)
        if on_result is not None:
            on_result(task.index, result)

    # ------------------------------------------------------------------
    # Fleet publication
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Point-in-time copy of every coordinator counter
        (:class:`NetFabricStats`) plus fleet size — the
        process-private counters, exposed.  Published with every fleet
        record, so ``observe --serve`` renders lease health at
        ``/fleet``."""
        snapshot = self.stats.as_dict()
        snapshot["workers_connected"] = len(self._workers)
        snapshot["leases_outstanding"] = len(self._leases)
        return snapshot

    def fleet_snapshot(self, status: str = "running") -> dict:
        now = time.monotonic()
        tasks = getattr(self, "_tasks", [])
        return {
            "coordinator": {
                "addr": "%s:%d" % self.address,
                "pid": os.getpid(),
            },
            "status": status,
            "workers": [
                {
                    "name": w.name,
                    "state": ("leased" if w.lease is not None else
                              "idle" if w.fresh(now, self.heartbeat_timeout)
                              else "silent"),
                    "cells_done": w.cells_done,
                    "silence_s": round(now - w.last_seen, 2),
                }
                for w in self._workers.values()
            ],
            "leases": {
                "outstanding": len(self._leases),
                "pending": sum(1 for t in tasks
                               if not t.completed and t.queued),
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "reclaimed": self.stats.reclaims,
                "duplicates": self.stats.duplicate_results,
            },
            "stats": self.stats_snapshot(),
        }

    def _publish_fleet(self, status: str = "running",
                       force: bool = False) -> None:
        if self.registry is None or self.fleet_dir is None:
            return
        now = time.monotonic()
        if not force and now - self._fleet_published < 2.0:
            return
        self._fleet_published = now
        try:
            self.registry.register_fleet(
                self.fleet_dir, **self.fleet_snapshot(status))
        except OSError as exc:
            print(f"fabric-net: fleet registration failed: {exc}",
                  file=sys.stderr)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def run(self, tasks_in, on_result=None):
        """Execute ``tasks_in`` — ``(payload, fingerprint)`` pairs — on
        the fleet; returns results in submission order (``None`` for
        cells recorded in :attr:`failed`)."""
        # A persistent coordinator can carry leases from an aborted
        # batch (e.g. a CoherenceViolation propagated out of the loop
        # with cells still in flight).  Their index sets point into the
        # *old* task list, so they are discarded — not retried — before
        # the new batch begins; any late frames for them bounce off the
        # fingerprint check in _task_for.
        for lease in self._leases.values():
            self._trace("lease-discarded", id=lease.id,
                        worker=lease.worker)
        self._leases.clear()
        for worker in self._workers.values():
            worker.lease = None
        self._tasks = [
            _NetTask(index=i, payload=payload, fingerprint=fingerprint)
            for i, (payload, fingerprint) in enumerate(tasks_in)
        ]
        self.stats.cells += len(self._tasks)
        self._pending = deque()
        for task in self._tasks:
            self._requeue(task)
        try:
            self._loop(on_result)
        except KeyboardInterrupt:
            # Graceful interrupt: no new leases, give in-flight cells a
            # moment to land (results still reach on_result), then let
            # the interrupt propagate to the CLI for flush + exit.
            self._drain(on_result)
            raise
        self._publish_fleet(force=True)
        return [task.result for task in self._tasks]

    def _loop(self, on_result) -> None:
        tick = max(self.heartbeat_interval / 2, 0.05)
        while any(not t.completed for t in self._tasks):
            self._dispatch()
            for key, _events in self._selector.select(timeout=tick):
                what, worker = key.data
                if what == "accept":
                    self._accept()
                else:
                    self._read_worker(worker, on_result)
            now = time.monotonic()
            # Heartbeat silence reclaims the lease but keeps the
            # connection: a frozen or black-holed worker may thaw and
            # deliver late (idempotent), then rejoin the fleet.
            for worker in list(self._workers.values()):
                if (worker.lease is not None
                        and not worker.fresh(now, self.heartbeat_timeout)):
                    self._reclaim(worker.lease, cause="heartbeat")
            for lease in list(self._leases.values()):
                if now > lease.deadline:
                    self._reclaim(lease.id, cause="deadline")
            self._publish_fleet()
            if self._pending and not self._workers \
                    and now - self._waiting_note > 10.0:
                self._waiting_note = now
                remaining = sum(1 for t in self._tasks if not t.completed)
                print(f"fabric-net: waiting for workers on "
                      f"{'%s:%d' % self.address} "
                      f"({remaining} cell(s) pending)", file=sys.stderr)

    def _drain(self, on_result, grace: float = 5.0) -> None:
        """Collect frames already in flight; issue no new leases."""
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline and self._leases:
            try:
                for key, _events in self._selector.select(timeout=0.25):
                    what, worker = key.data
                    if what == "worker":
                        self._read_worker(worker, on_result)
            except (KeyboardInterrupt, OSError):
                return  # second interrupt: stop immediately

    def close(self) -> None:
        """Dismiss the fleet and release the listening socket."""
        for worker in list(self._workers.values()):
            if worker.authed:
                self._send(worker, ("stop",))
        self._publish_fleet(status="completed", force=True)
        for worker in list(self._workers.values()):
            try:
                self._selector.unregister(worker.sock)
            except (KeyError, ValueError):
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        self._workers.clear()
        self._leases.clear()
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _SeverConnection(Exception):
    """Chaos attack: abandon the socket mid-lease and reconnect."""


def _recv_frame(sock: socket.socket):
    """Blocking read of one frame; None on orderly EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    magic, length, crc = _HEADER.unpack(header)
    if magic == _AUTH_MAGIC:
        raise AuthRequired("coordinator requires authentication "
                           "(set --authkey / REPRO_FABRIC_AUTHKEY)")
    if magic != _MAGIC or length > MAX_FRAME:
        raise FrameError(f"bad frame header ({magic!r}, {length})")
    payload = _recv_exact(sock, length)
    if payload is None or zlib.crc32(payload) != crc:
        raise FrameError("truncated or corrupt frame")
    return pickle.loads(payload)


def _recv_exact(sock: socket.socket, n: int):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def _authenticate(sock: socket.socket, authkey: bytes) -> None:
    """Client half of the HMAC handshake; raises FrameError on any
    deviation (a misconfigured key never self-heals, so callers should
    give up rather than reconnect)."""
    try:
        challenge = _recv_exact(sock, len(_AUTH_MAGIC) + _AUTH_NONCE)
    except OSError as exc:
        raise FrameError(f"no auth challenge from coordinator: {exc}")
    if challenge is None or not challenge.startswith(_AUTH_MAGIC):
        raise FrameError("coordinator did not offer an auth challenge "
                         "(is its authkey set?)")
    sock.sendall(hmac.new(authkey, challenge, "sha256").digest())
    try:
        welcome = _recv_exact(sock, len(_WELCOME))
    except OSError as exc:
        raise FrameError(f"auth handshake interrupted: {exc}")
    if welcome != _WELCOME:
        raise FrameError("coordinator rejected authentication "
                         "(authkey mismatch?)")


class FabricWorker:
    """One remote worker process: connect, lease, simulate, report."""

    def __init__(self, connect, *, name: str = None, trace_cache=None,
                 chaos=None, heartbeat_interval: float = 0.25,
                 reconnect_delay: float = 1.0, max_reconnects: int = 8,
                 authkey=None):
        self.addr = (tuple(connect) if not isinstance(connect, str)
                     else parse_address(connect))
        self.authkey = _as_authkey(authkey)
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.trace_cache = trace_cache
        self.chaos = chaos
        self.heartbeat_interval = heartbeat_interval
        self.reconnect_delay = reconnect_delay
        self.max_reconnects = max_reconnects
        self.cells_done = 0
        self._mute = threading.Event()  # black-hole: suppress all sends
        self._stop = threading.Event()
        self._send_lock = threading.Lock()
        self._sock = None
        self._lease_id = None

    # -- sending -------------------------------------------------------

    def _send(self, message) -> None:
        if self._mute.is_set():
            return  # black-holed: the frame simply never leaves
        with self._send_lock:
            sock = self._sock
            if sock is None:
                raise OSError("not connected")
            sock.sendall(encode_frame(message))

    def _beat(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self._send(("heartbeat", self._lease_id))
            except OSError:
                pass  # reconnect loop owns recovery

    # -- chaos hooks ---------------------------------------------------

    def _attacks(self, fingerprint: str, attempt: int) -> frozenset:
        if self.chaos is None:
            return frozenset()
        decided = self.chaos.decide(fingerprint, attempt)
        if not decided:
            return frozenset()
        if isinstance(decided, str):
            return frozenset((decided,))
        return frozenset(decided)

    def _pre_attack(self, attacks: frozenset) -> None:
        import signal as _signal

        if "kill" in attacks:
            os.kill(os.getpid(), _signal.SIGKILL)
        if "freeze" in attacks:
            # Stopped cold until something external SIGCONTs us; the
            # coordinator reclaims our lease on heartbeat silence and,
            # if thawed, our late result is an idempotent duplicate.
            os.kill(os.getpid(), _signal.SIGSTOP)
        if "sever" in attacks:
            raise _SeverConnection()

    # -- cell execution ------------------------------------------------

    def _run_lease(self, lease_id: int, cells, ttl: float) -> None:
        from repro.experiments.parallel import run_cell

        self._lease_id = lease_id
        try:
            for index, payload, fingerprint, attempt in cells:
                attacks = self._attacks(fingerprint, attempt)
                self._pre_attack(attacks)
                if "blackhole" in attacks:
                    # Go dark mid-lease: no heartbeats, no frames, for
                    # one (jittered) lease period — the coordinator
                    # must reclaim and re-dispatch.
                    self._mute.set()
                if self.trace_cache is not None:
                    # The cache directory is the payload's last
                    # element (see parallel.run_cell).
                    payload = (*payload[:-1], str(self.trace_cache))
                try:
                    result = run_cell(payload)
                except _SeverConnection:
                    raise
                except BaseException as exc:
                    try:
                        blob = pickle.dumps(exc)
                    except Exception:
                        blob = pickle.dumps(
                            RuntimeError(f"{type(exc).__name__}: {exc}")
                        )
                    self._emerge(ttl)
                    self._send(("error", lease_id, index, fingerprint,
                                blob))
                    continue
                self._emerge(ttl)
                # Result frames echo the fingerprint: the coordinator
                # uses it to reject frames that straddle a batch
                # boundary (this worker may have been reclaimed and
                # the sweep moved on while we were computing).
                self._send(("result", lease_id, index, fingerprint,
                            result))
                if "dup" in attacks:
                    self._send(("result", lease_id, index, fingerprint,
                                result))
                self.cells_done += 1
        finally:
            self._lease_id = None

    def _emerge(self, ttl: float) -> None:
        """End a black-hole: sleep out the silence, then resume sends."""
        if not self._mute.is_set():
            return
        silence = getattr(self.chaos, "blackhole_seconds", None)
        time.sleep(silence if silence is not None else ttl)
        self._mute.clear()

    # -- connection loop -----------------------------------------------

    def _serve(self, sock: socket.socket) -> str:
        """Serve one connection; returns 'stop', 'eof', or 'sever'.
        Raises FrameError if the coordinator refuses authentication."""
        if self.authkey is not None:
            _authenticate(sock, self.authkey)
        sock.settimeout(None)
        self._sock = sock
        self._send(("hello", self.name))
        while True:
            try:
                message = _recv_frame(sock)
            except AuthRequired:
                raise  # configuration, not weather: abort in run()
            except (FrameError, OSError):
                return "eof"
            if message is None:
                return "eof"
            kind = message[0]
            if kind == "stop":
                try:
                    self._send(("bye",))
                except OSError:
                    pass
                return "stop"
            if kind == "lease":
                _kind, lease_id, cells, ttl = message
                try:
                    self._run_lease(lease_id, cells, ttl)
                except _SeverConnection:
                    self._mute.clear()
                    return "sever"

    def run(self) -> int:
        """Worker main loop: (re)connect and serve until stopped."""
        threading.Thread(target=self._beat, daemon=True).start()
        failures = 0
        try:
            while True:
                try:
                    sock = socket.create_connection(self.addr, timeout=10.0)
                except OSError:
                    failures += 1
                    if failures > self.max_reconnects:
                        print(f"worker {self.name}: coordinator "
                              f"{'%s:%d' % self.addr} unreachable; "
                              f"giving up", file=sys.stderr)
                        return 3
                    time.sleep(self.reconnect_delay
                               * min(2 ** (failures - 1), 8))
                    continue
                failures = 0
                # The connect timeout stays armed through the auth
                # handshake (a keyless coordinator never sends a
                # challenge; waiting forever helps nobody).
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                try:
                    outcome = self._serve(sock)
                except FrameError as exc:
                    # Authentication refused: a key mismatch is
                    # configuration, not weather — do not retry.
                    print(f"worker {self.name}: {exc}", file=sys.stderr)
                    return 4
                except OSError:
                    outcome = "eof"
                finally:
                    self._sock = None
                    try:
                        sock.close()
                    except OSError:
                        pass
                if outcome == "stop":
                    return 0
                # EOF or sever: pause briefly, then reconnect fresh —
                # any lease we abandoned is the coordinator's to
                # reclaim, and re-running it elsewhere is idempotent.
                time.sleep(self.reconnect_delay)
        finally:
            self._stop.set()


# ----------------------------------------------------------------------
# ``python -m repro.experiments worker`` CLI
# ----------------------------------------------------------------------


def build_worker_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments worker",
        description="Join a distributed sweep as a remote worker: "
                    "connect to a coordinator started with "
                    "--listen HOST:PORT, execute leased cells, stream "
                    "results back as CRC'd frames.  Trust model: "
                    "pickle over TCP — only connect to coordinators "
                    "you control, and share an authkey for anything "
                    "beyond loopback.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    parser.add_argument("--authkey", default=None, metavar="KEY",
                        help="shared secret for the HMAC handshake "
                             "(default: $REPRO_FABRIC_AUTHKEY); must "
                             "match the coordinator's --fabric-authkey")
    parser.add_argument("--name", default=None,
                        help="worker name in the fleet roster "
                             "(default host:pid)")
    parser.add_argument("--trace-cache", default=None, metavar="DIR",
                        help="local trace-cache directory overriding "
                             "the coordinator's path (remote hosts do "
                             "not share its filesystem)")
    parser.add_argument("--heartbeat-interval", type=float, default=0.25,
                        metavar="SECONDS")
    parser.add_argument("--reconnect-delay", type=float, default=1.0,
                        metavar="SECONDS")
    parser.add_argument("--max-reconnects", type=int, default=8,
                        help="consecutive failed connects before "
                             "giving up (default 8)")
    parser.add_argument("--chaos-spec", default=None, metavar="JSON",
                        help="seeded HostChaosSpec JSON (testing: the "
                             "worker attacks itself deterministically)")
    parser.add_argument("--chaos-seed", type=int, default=1)
    parser.add_argument("--chaos-once", default=None, metavar="KINDS",
                        help="comma-joined attacks applied to the first "
                             "leased cell only (kill, freeze, sever, "
                             "blackhole, dup)")
    parser.add_argument("--blackhole-seconds", type=float, default=None,
                        metavar="SECONDS",
                        help="silence duration for blackhole attacks "
                             "(default: one lease period)")
    return parser


def worker_cli(argv=None) -> int:
    args = build_worker_parser().parse_args(argv)
    chaos = None
    if args.chaos_spec is not None:
        from repro.faults.chaos import host_chaos_from_json

        chaos = host_chaos_from_json(args.chaos_spec,
                                     seed=args.chaos_seed)
    elif args.chaos_once is not None:
        from repro.faults.chaos import OneShotHostChaos

        chaos = OneShotHostChaos(
            args.chaos_once.split(","),
            blackhole_seconds=args.blackhole_seconds,
        )
    worker = FabricWorker(
        args.connect, name=args.name, trace_cache=args.trace_cache,
        chaos=chaos, heartbeat_interval=args.heartbeat_interval,
        reconnect_delay=args.reconnect_delay,
        max_reconnects=args.max_reconnects,
        authkey=args.authkey or os.environ.get("REPRO_FABRIC_AUTHKEY"),
    )
    print(f"worker {worker.name}: connecting to "
          f"{'%s:%d' % worker.addr}", file=sys.stderr)
    return worker.run()
