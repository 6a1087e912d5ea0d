"""Seeded chaos adversary for the sweep fabric.

Where :mod:`repro.faults.plan` degrades the *simulated* interconnect,
this module degrades the *host-level orchestration*: a
:class:`ChaosPlan` rides into each fabric worker
(:mod:`repro.experiments.fabric`) and, deterministically per (cell
fingerprint, attempt), attacks it.  Four attacks hit the worker's
process or its computation:

* ``kill`` — SIGKILL the worker mid-cell;
* ``hang`` — sleep ``hang_seconds`` before the cell (past the
  ``--cell-timeout`` deadline);
* ``error`` — raise a transient :class:`ChaosError`;
* ``freeze`` — SIGSTOP the worker (heartbeats stop; something external
  must SIGCONT or reap it).

Three hit its connection to the coordinator:

* ``sever`` — abandon the socket mid-lease (a remote worker
  reconnects; a local one exits and is respawned);
* ``blackhole`` — keep computing but suppress every outbound frame,
  heartbeats included, for ``blackhole_seconds``;
* ``dup`` — deliver the cell's result frame twice.

:func:`truncate_tail` is one more adversary: a crash-mid-write torn
record in an append-only log (a results-store shard or the run
registry).

Like the fault plans, a chaos plan is a pure function of
``(spec, seed)``: the same plan attacks the same cells on the same
attempts every run, which is what lets the chaos gate assert that a
disturbed sweep's recovered output is byte-identical to an undisturbed
serial run.  Attacks only fire on attempts up to ``attacks_per_cell``
(default 1), so every attacked cell recovers on retry — the adversary
is bounded by construction, mirroring the bounded message-loss recovery
contract the engines follow.

The module lives beside the fabric, outside the simulator sources the
results store fingerprints (:data:`repro.experiments.store.SOURCE_PARTS`):
it attacks the orchestration, never a simulated result.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.experiments.fabric import cell_draw

#: Every attack a fabric worker understands, in the order their
#: fractions partition [0, 1).
ATTACKS = ("kill", "hang", "error", "freeze", "sever", "blackhole", "dup")


class ChaosError(RuntimeError):
    """The transient exception a chaos plan injects (retryable)."""


@dataclass(frozen=True)
class ChaosSpec:
    """Attack mix: per-cell probabilities of each attack.

    The fractions partition [0, 1): a per-(cell, attempt) hash draws
    one uniform value and the sub-interval it lands in picks the attack
    (or none).  ``hang_seconds`` should exceed the fabric's cell timeout
    so a hang exercises the kill-and-retry path rather than resolving on
    its own; ``blackhole_seconds`` should exceed the coordinator's
    heartbeat timeout so a black-holed cell really is re-queued.
    """

    kill_fraction: float = 0.0
    hang_fraction: float = 0.0
    error_fraction: float = 0.0
    freeze_fraction: float = 0.0
    sever_fraction: float = 0.0
    blackhole_fraction: float = 0.0
    dup_fraction: float = 0.0
    hang_seconds: float = 60.0
    blackhole_seconds: float = 5.0
    #: Attempts (1-based) that may be attacked; retries past this are
    #: always clean, bounding every cell's recovery.
    attacks_per_cell: int = 1

    def __post_init__(self):
        total = sum(getattr(self, f"{kind}_fraction") for kind in ATTACKS)
        if not 0.0 <= total <= 1.0:
            raise ValueError("attack fractions must sum to at most 1")
        if self.hang_seconds <= 0 or self.blackhole_seconds <= 0:
            raise ValueError("hang_seconds and blackhole_seconds must be "
                             "positive")
        if self.attacks_per_cell < 0:
            raise ValueError("attacks_per_cell must be non-negative")


class ChaosPlan:
    """Deterministic adversary consulted by fabric workers.

    Picklable (it crosses into worker processes) and stateless: every
    decision derives from ``(seed, fingerprint, attempt)``.
    """

    def __init__(self, spec: ChaosSpec, seed: int = 1):
        self.spec = spec
        self.seed = seed

    def decide(self, fingerprint: str, attempt: int) -> frozenset:
        """The attack set for this (cell, attempt): a frozenset of
        :data:`ATTACKS` members, empty when clean.  ``attempt`` is
        1-based, as the fabric numbers attempts."""
        spec = self.spec
        if attempt > spec.attacks_per_cell:
            return frozenset()
        u = cell_draw(self.seed, fingerprint, attempt)
        edge = 0.0
        for kind in ATTACKS:
            edge += getattr(spec, f"{kind}_fraction")
            if u < edge:
                return frozenset((kind,))
        return frozenset()

    def apply(self, fingerprint: str, attempt: int) -> frozenset:
        """Carry out this (cell, attempt)'s process attacks inside a
        worker — SIGKILL or SIGSTOP it, hang it, raise
        :class:`ChaosError` — and return the decided set, whose
        connection attacks (sever, blackhole, dup) the worker carries
        out itself."""
        attacks = self.decide(fingerprint, attempt)
        if "kill" in attacks:
            os.kill(os.getpid(), signal.SIGKILL)
        if "freeze" in attacks:
            os.kill(os.getpid(), signal.SIGSTOP)
        if "hang" in attacks:
            time.sleep(self.spec.hang_seconds)
        if "error" in attacks:
            raise ChaosError(
                f"injected transient failure (cell {fingerprint}, "
                f"attempt {attempt})"
            )
        return attacks

    def planned_attacks(self, fingerprints) -> dict:
        """{fingerprint: attack} over first attempts — for harness
        reporting and for tests that want a guaranteed victim."""
        attacks = {}
        for fp in fingerprints:
            decided = self.decide(fp, 1)
            if decided:
                attacks[fp] = next(iter(decided))
        return attacks


class OneShotHostChaos(ChaosPlan):
    """Targeted adversary: attack the *first* leased cell, then behave.

    Used by the chaos gate to stage precise fleet scenarios ("worker 1
    dies, worker 2 goes dark") without depending on which cells land
    where.  Not seeded — the victim is whatever cell the coordinator
    leases to this worker first.
    """

    def __init__(self, attacks, blackhole_seconds: float = None):
        attacks = [a.strip() for a in attacks if a and a.strip()]
        unknown = set(attacks) - set(ATTACKS)
        if unknown:
            raise ValueError(f"unknown attacks: {sorted(unknown)}")
        spec = (ChaosSpec() if blackhole_seconds is None
                else ChaosSpec(blackhole_seconds=blackhole_seconds))
        super().__init__(spec, seed=0)
        self.attacks = frozenset(attacks)
        self._fired = False

    def decide(self, fingerprint: str, attempt: int) -> frozenset:
        if self._fired:
            return frozenset()
        self._fired = True
        return self.attacks


def chaos_from_json(text: str, seed: int = 1) -> ChaosPlan:
    """Build a :class:`ChaosPlan` from a JSON object of
    :class:`ChaosSpec` field overrides (the worker CLI's
    ``--chaos-spec``)."""
    import json

    fields = json.loads(text)
    if not isinstance(fields, dict):
        raise ValueError("--chaos-spec must be a JSON object")
    return ChaosPlan(ChaosSpec(**fields), seed=seed)


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
