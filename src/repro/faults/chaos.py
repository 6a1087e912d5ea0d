"""Seeded chaos adversary for the sweep fabric.

Where :mod:`repro.faults.plan` degrades the *simulated* interconnect,
this module degrades the *host-level orchestration*: a
:class:`ChaosPlan` rides into each fabric worker and, deterministically
per (cell fingerprint, attempt), SIGKILLs the worker mid-cell, hangs it
past the scheduler's cell timeout, or raises a transient exception —
the three failure modes the fabric's heartbeats, timeouts and retries
must absorb.  :func:`truncate_tail` is the fourth adversary: a
crash-mid-write torn record in an append-only log (a results-store
shard or the run registry).

Like the fault plans, a chaos plan is a pure function of
``(spec, seed)``: the same plan attacks the same cells on the same
attempts every run, which is what lets the chaos harness assert that a
disturbed sweep's recovered output is byte-identical to an undisturbed
serial run.

Attacks only fire on attempts below ``attacks_per_cell`` (default 1),
so every attacked cell recovers on retry — the adversary is bounded by
construction, mirroring the bounded message-loss recovery contract the
engines follow.

:class:`HostChaosPlan` and :class:`OneShotHostChaos` extend the same
scheme to *distributed* fleets (:mod:`repro.experiments.fabric_net`):
SIGKILL a remote worker, SIGSTOP-freeze it, sever its socket
mid-lease, black-hole its outbound frames for a lease period, or
duplicate-deliver a result frame — the failure modes the lease
coordinator's reclaim/idempotency machinery must absorb.
"""

from __future__ import annotations

import os
import signal
import time
import zlib
from dataclasses import dataclass

from repro.faults.plan import _mix, _unit


class ChaosError(RuntimeError):
    """The transient exception a chaos plan injects (retryable)."""


@dataclass(frozen=True)
class ChaosSpec:
    """Attack mix: per-cell probabilities of each failure mode.

    The three fractions partition [0, 1): a per-(cell, attempt) hash
    draws one uniform value and the sub-interval it lands in picks the
    attack (or none).  ``hang_seconds`` should exceed the fabric's
    ``cell_timeout`` so a hang exercises the kill-and-retry path
    rather than resolving on its own.
    """

    kill_fraction: float = 0.0
    hang_fraction: float = 0.0
    error_fraction: float = 0.0
    hang_seconds: float = 60.0
    #: Attempts (0-based) that may be attacked; retries past this are
    #: always clean, bounding every cell's recovery.
    attacks_per_cell: int = 1

    def __post_init__(self):
        total = self.kill_fraction + self.hang_fraction + self.error_fraction
        if not 0.0 <= total <= 1.0:
            raise ValueError("attack fractions must sum to at most 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if self.attacks_per_cell < 0:
            raise ValueError("attacks_per_cell must be non-negative")


class ChaosPlan:
    """Deterministic adversary consulted by fabric workers.

    Picklable (it crosses into worker processes at spawn time) and
    stateless: every decision derives from ``(seed, fingerprint,
    attempt)``.
    """

    def __init__(self, spec: ChaosSpec, seed: int = 1):
        self.spec = spec
        self.seed = seed

    def decide(self, fingerprint: str, attempt: int):
        """The attack for this (cell, attempt): ``'kill'``, ``'hang'``,
        ``'error'``, or None.  ``attempt`` is 1-based (fabric attempt
        numbering); attacks fire while ``attempt <= attacks_per_cell``.
        """
        spec = self.spec
        if attempt > spec.attacks_per_cell:
            return None
        u = _unit(_mix(self.seed, zlib.crc32(fingerprint.encode()),
                       attempt))
        if u < spec.kill_fraction:
            return "kill"
        if u < spec.kill_fraction + spec.hang_fraction:
            return "hang"
        if u < (spec.kill_fraction + spec.hang_fraction
                + spec.error_fraction):
            return "error"
        return None

    def apply(self, fingerprint: str, attempt: int) -> None:
        """Execute the decided attack inside a worker process."""
        attack = self.decide(fingerprint, attempt)
        if attack is None:
            return
        if attack == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if attack == "hang":
            time.sleep(self.spec.hang_seconds)
            return  # a generous cell timeout may still let this finish
        raise ChaosError(
            f"injected transient failure (cell {fingerprint}, "
            f"attempt {attempt})"
        )

    def planned_attacks(self, fingerprints) -> dict:
        """{fingerprint: attack} over first attempts — for harness
        reporting and for tests that want a guaranteed victim."""
        attacks = {}
        for fp in fingerprints:
            attack = self.decide(fp, 1)
            if attack is not None:
                attacks[fp] = attack
        return attacks


#: Host-level attack kinds understood by fabric-net workers.
HOST_ATTACKS = ("kill", "freeze", "sever", "blackhole", "dup")


@dataclass(frozen=True)
class HostChaosSpec:
    """Attack mix for *distributed* workers (fabric_net fleets).

    Same partition-of-[0,1) scheme as :class:`ChaosSpec`, but the
    attacks target the coordinator/worker plumbing rather than the cell
    computation:

    * ``kill`` — SIGKILL the whole worker process mid-lease;
    * ``freeze`` — SIGSTOP it (heartbeats stop; something external
      must SIGCONT or reap it);
    * ``sever`` — close the worker's socket mid-lease and reconnect;
    * ``blackhole`` — keep computing but suppress every outbound frame
      (heartbeats included) for ``blackhole_seconds``;
    * ``dup`` — deliver the cell's result frame twice.
    """

    kill_fraction: float = 0.0
    freeze_fraction: float = 0.0
    sever_fraction: float = 0.0
    blackhole_fraction: float = 0.0
    dup_fraction: float = 0.0
    #: How long a black-holed worker stays silent; should exceed the
    #: coordinator's heartbeat timeout so the lease really reclaims.
    blackhole_seconds: float = 5.0
    attacks_per_cell: int = 1

    def __post_init__(self):
        total = (self.kill_fraction + self.freeze_fraction
                 + self.sever_fraction + self.blackhole_fraction
                 + self.dup_fraction)
        if not 0.0 <= total <= 1.0:
            raise ValueError("attack fractions must sum to at most 1")
        if self.blackhole_seconds <= 0:
            raise ValueError("blackhole_seconds must be positive")
        if self.attacks_per_cell < 0:
            raise ValueError("attacks_per_cell must be non-negative")


class HostChaosPlan:
    """Deterministic host-level adversary for fabric-net workers.

    Mirrors :class:`ChaosPlan`: stateless, picklable, every decision a
    pure function of ``(seed, fingerprint, attempt)``.  Workers consult
    :meth:`decide` before running each leased cell.
    """

    def __init__(self, spec: HostChaosSpec, seed: int = 1):
        self.spec = spec
        self.seed = seed

    @property
    def blackhole_seconds(self) -> float:
        return self.spec.blackhole_seconds

    def decide(self, fingerprint: str, attempt: int):
        """The attack set for this (cell, attempt) — a frozenset of
        :data:`HOST_ATTACKS` members (empty when clean)."""
        spec = self.spec
        if attempt > spec.attacks_per_cell:
            return frozenset()
        u = _unit(_mix(self.seed, zlib.crc32(fingerprint.encode()),
                       attempt))
        edge = 0.0
        for kind in HOST_ATTACKS:
            edge += getattr(spec, f"{kind}_fraction")
            if u < edge:
                return frozenset((kind,))
        return frozenset()

    def planned_attacks(self, fingerprints) -> dict:
        """{fingerprint: attack} over first attempts."""
        attacks = {}
        for fp in fingerprints:
            decided = self.decide(fp, 1)
            if decided:
                attacks[fp] = next(iter(decided))
        return attacks


class OneShotHostChaos:
    """Targeted adversary: attack the *first* leased cell, then behave.

    Used by the distributed chaos gate to stage precise scenarios
    ("worker 1 dies, worker 2 dies, worker 3 goes dark") without
    depending on which cells land where.  Not seeded — the victim is
    whatever cell the coordinator leases to this worker first.
    """

    def __init__(self, attacks, blackhole_seconds: float = None):
        attacks = [a.strip() for a in attacks if a and a.strip()]
        unknown = set(attacks) - set(HOST_ATTACKS)
        if unknown:
            raise ValueError(f"unknown host attacks: {sorted(unknown)}")
        self.attacks = frozenset(attacks)
        self.blackhole_seconds = blackhole_seconds
        self._fired = False

    def decide(self, fingerprint: str, attempt: int):
        if self._fired:
            return frozenset()
        self._fired = True
        return self.attacks


def host_chaos_from_json(text: str, seed: int = 1) -> HostChaosPlan:
    """Build a :class:`HostChaosPlan` from a JSON object of
    :class:`HostChaosSpec` field overrides (the worker CLI's
    ``--chaos-spec``)."""
    import json

    fields = json.loads(text)
    if not isinstance(fields, dict):
        raise ValueError("--chaos-spec must be a JSON object")
    return HostChaosPlan(HostChaosSpec(**fields), seed=seed)


def truncate_tail(path, nbytes: int = 7) -> int:
    """Chop ``nbytes`` off the end of a file — a crash mid-write.

    Returns the new size.  Truncating an append-only JSONL log
    mid-record is exactly the torn-line state its tolerant reader must
    warn about and recover from.
    """
    size = os.path.getsize(path)
    new_size = max(size - nbytes, 0)
    with open(path, "rb+") as fh:
        fh.truncate(new_size)
    return new_size
