"""Fundamental vocabulary of the coherence model.

Scopes follow NVIDIA PTX terminology (``.cta``, ``.gpu``, ``.sys``); the
HRF equivalents are work-group, device and system.  Memory operations are
the trace-level events the simulator consumes; message types are the
on-wire coherence traffic the protocols emit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional


class Scope(enum.IntEnum):
    """Synchronization scope of a memory operation.

    Ordering is meaningful: a wider scope includes every narrower one.
    """

    CTA = 0
    GPU = 1
    SYS = 2

    @property
    def ptx_name(self) -> str:
        return "." + self.name.lower()

    def includes(self, other: "Scope") -> bool:
        """True if this scope subsumes ``other``."""
        return self >= other


#: ``Scope`` members as module globals, for the protocols' per-op scope
#: tests: on Python 3.11 reading a member off an enum class goes through
#: ``EnumType.__getattr__``'s attribute hook, about 140 ns a read
#: against 10 ns for a global.
CTA, GPU, SYS = Scope.CTA, Scope.GPU, Scope.SYS


class OpType(enum.IntEnum):
    """Kind of a trace memory operation."""

    LOAD = 0
    STORE = 1
    ATOMIC = 2
    #: Load-acquire: performs scope-appropriate invalidation first.
    ACQUIRE = 3
    #: Store-release: flushes/fences pending writes for the scope.
    RELEASE = 4
    #: Kernel boundary marker — an implicit .sys (or configured scope)
    #: release at the end of a kernel plus acquire at the start of the
    #: dependent one, following bulk-synchronous practice.
    KERNEL_BOUNDARY = 5

    @property
    def is_read(self) -> bool:
        return self in (OpType.LOAD, OpType.ACQUIRE)

    @property
    def is_write(self) -> bool:
        return self in (OpType.STORE, OpType.ATOMIC, OpType.RELEASE)

    @property
    def is_synchronizing(self) -> bool:
        return self in (OpType.ACQUIRE, OpType.RELEASE, OpType.KERNEL_BOUNDARY)


class MsgType(enum.IntEnum):
    """On-wire coherence message classes.

    Byte sizes for each class come from
    :class:`repro.config.MessageSizeConfig`.
    """

    LOAD_REQ = 0
    STORE_REQ = 1  # write-through data travelling toward a home node
    ATOMIC_REQ = 2
    DATA_RESP = 3  # cache-line fill response
    ATOMIC_RESP = 4
    INVALIDATION = 5
    RELEASE_FENCE = 6
    RELEASE_ACK = 7
    DOWNGRADE = 8
    WRITEBACK = 9
    #: Invalidation acknowledgment — only multi-copy-atomic protocols
    #: (GPU-VI) send these; NHCC/HMG never do (Section IV).
    INV_ACK = 10

    @property
    def carries_data(self) -> bool:
        return self in (
            MsgType.STORE_REQ,
            MsgType.DATA_RESP,
            MsgType.WRITEBACK,
            MsgType.ATOMIC_REQ,
        )


#: ``MsgType`` members as module globals, for the protocols' ``send``
#: call sites (the same enum attribute hook as :data:`CTA`).
LOAD_REQ = MsgType.LOAD_REQ
STORE_REQ = MsgType.STORE_REQ
ATOMIC_REQ = MsgType.ATOMIC_REQ
DATA_RESP = MsgType.DATA_RESP
ATOMIC_RESP = MsgType.ATOMIC_RESP
INVALIDATION = MsgType.INVALIDATION
RELEASE_FENCE = MsgType.RELEASE_FENCE
RELEASE_ACK = MsgType.RELEASE_ACK
DOWNGRADE = MsgType.DOWNGRADE
WRITEBACK = MsgType.WRITEBACK
INV_ACK = MsgType.INV_ACK


class NodeId(NamedTuple):
    """Identifies one GPM: ``(gpu, gpm)``.

    ``gpm`` is the index *within* the GPU, not a flat index.

    A :class:`~typing.NamedTuple` rather than a dataclass: node ids are
    compared, hashed and unpacked millions of times per simulated run,
    and the tuple machinery does all three in C.  Ordering (by
    ``(gpu, gpm)``) and immutability match the previous frozen
    dataclass semantics.
    """

    gpu: int
    gpm: int

    def flat(self, gpms_per_gpu: int) -> int:
        """Flatten to a single integer id (used by non-hierarchical
        protocols, which view the system as one big GPU)."""
        return self.gpu * gpms_per_gpu + self.gpm

    @staticmethod
    def from_flat(flat: int, gpms_per_gpu: int) -> "NodeId":
        """Inverse of :meth:`flat`."""
        return NodeId(flat // gpms_per_gpu, flat % gpms_per_gpu)

    def same_gpu(self, other: "NodeId") -> bool:
        """True when both GPMs live in the same GPU package."""
        return self.gpu == other.gpu

    def __str__(self) -> str:
        return f"GPU{self.gpu}:GPM{self.gpm}"


class MemOp:
    """One trace-level memory operation.

    ``address`` is a byte address; accesses are modelled at cache-line
    granularity, so the simulator only ever looks at the containing line.

    A ``__slots__`` class rather than a dataclass: every simulated op
    reads these attributes several times on the protocol hot path, and
    slot descriptors are the cheapest attribute access CPython offers.
    Instances are immutable (like the previous frozen dataclass) and
    compare/hash by value.
    """

    __slots__ = ("op", "address", "node", "cta", "scope", "size")

    #: Field order, mirroring the positional constructor signature.
    _fields = ("op", "address", "node", "cta", "scope", "size")

    def __init__(self, op: OpType, address: int, node: NodeId,
                 cta: int = 0, scope: Scope = Scope.CTA, size: int = 4):
        if address < 0:
            raise ValueError("address must be non-negative")
        if size <= 0:
            raise ValueError("size must be positive")
        s = object.__setattr__
        s(self, "op", op)
        s(self, "address", address)
        s(self, "node", node)
        s(self, "cta", cta)
        s(self, "scope", scope)
        s(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError(f"MemOp is immutable (tried to set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"MemOp is immutable (tried to delete {name!r})")

    def _key(self) -> tuple:
        return (self.op, self.address, self.node, self.cta, self.scope,
                self.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemOp):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"MemOp(op={self.op!r}, address={self.address!r}, "
                f"node={self.node!r}, cta={self.cta!r}, "
                f"scope={self.scope!r}, size={self.size!r})")

    def __reduce__(self):
        return (MemOp, self._key())

    def with_scope(self, scope: Scope) -> "MemOp":
        """Copy of this op with a different synchronization scope."""
        return MemOp(self.op, self.address, self.node, self.cta, scope, self.size)


@dataclass(frozen=True)
class Message:
    """One coherence message traversing the interconnect."""

    mtype: MsgType
    src: NodeId
    dst: NodeId
    address: Optional[int] = None
    size_bytes: int = 0

    @property
    def crosses_gpu(self) -> bool:
        return self.src.gpu != self.dst.gpu

    def __str__(self) -> str:
        where = f"0x{self.address:x}" if self.address is not None else "-"
        return f"{self.mtype.name} {self.src}->{self.dst} {where} ({self.size_bytes}B)"


class DirState(enum.IntEnum):
    """Stable coherence-directory states.  NHCC/HMG use exactly two;
    there are no transient states (Section IV)."""

    INVALID = 0
    VALID = 1
