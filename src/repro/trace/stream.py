"""Trace containers.

A :class:`Trace` is a replayable sequence of :class:`~repro.core.types.MemOp`
plus metadata about the workload that produced it.  Traces model the
machine-wide interleaving of all GPMs' memory operations: per-GPM
streams are merged round-robin (:func:`interleave_order`), which
approximates the GPMs executing concurrently at equal rates (all
micro-scheduling is abstracted by the timing engines anyway).

A trace holds its ops in one of two forms.  Generated traces and traces
loaded from the binary trace cache start as
:class:`~repro.trace.batch.BatchTrace` columns, which is all the
vectorized engine reads.  Their ``MemOp`` list is built once, on the
first access to :attr:`Trace.ops`, iteration or indexing; the columns
are then released (``as_batch`` rebuilds them if a vectorized engine
asks later).  Hand-built traces start as a ``MemOp`` list.  ``len()``
never builds either form.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.core.types import MemOp, OpType


class OpSummary:
    """A trace's op tallies: ops per kind (in first-occurrence order,
    as a protocol counting op by op inserts them) and per issuing node.

    Both depend only on the trace, so the throughput engine adds them
    to a protocol once per run (``CoherenceProtocol.count_ops``) and a
    :class:`Trace` takes them once (:meth:`Trace.op_summary`).
    """

    __slots__ = ("kinds", "nodes")

    def __init__(self):
        #: OpType -> ops of that kind.
        self.kinds: dict = {}
        #: NodeId -> ops that node issues.
        self.nodes: dict = {}

    @classmethod
    def of(cls, ops) -> "OpSummary":
        """Tally a re-iterable op sequence."""
        summary = cls()
        summary.kinds = dict(Counter(map(attrgetter("op"), ops)))
        summary.nodes = dict(Counter(map(attrgetter("node"), ops)))
        return summary

    def counting(self, ops) -> Iterator[MemOp]:
        """Yield ``ops`` (a one-shot iterator), tallying each one."""
        kinds, nodes = self.kinds, self.nodes
        for op in ops:
            kinds[op.op] = kinds.get(op.op, 0) + 1
            nodes[op.node] = nodes.get(op.node, 0) + 1
            yield op

    @property
    def total(self) -> int:
        return sum(self.kinds.values())


class Trace:
    """A named, replayable op sequence.

    Built from ``ops`` (a ``MemOp`` list) or from ``batch`` (columns);
    see the module docstring.
    """

    def __init__(self, name: str, ops: list = None,
                 footprint_bytes: int = 0, kernels: int = 0,
                 meta: dict = None, batch=None):
        if ops is None and batch is None:
            raise ValueError("a trace needs ops or columns")
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.kernels = kernels
        self.meta = {} if meta is None else meta
        self._ops = ops
        #: Columnar form (:class:`repro.trace.batch.BatchTrace`): given
        #: by the generator or the cache loader, or memoized by
        #: ``as_batch()``.
        self._batch = batch
        self._summary = None

    @property
    def ops(self) -> list:
        """The ``MemOp`` list, built from the columns on first use.

        Building it releases the columns, so a trace never holds both
        forms unless a vectorized engine asks for the columns again.
        """
        if self._ops is None:
            self._ops = self._batch.to_ops()
            self._batch = None
        return self._ops

    def op_summary(self) -> OpSummary:
        """The ops' :class:`OpSummary`, taken on first use."""
        if self._summary is None:
            self._summary = OpSummary.of(self.ops)
        return self._summary

    def __iter__(self) -> Iterator[MemOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        if self._ops is None:
            return len(self._batch)
        return len(self._ops)

    def __getitem__(self, index):
        return self.ops[index]

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self)} ops)"

    @property
    def loads(self) -> int:
        return sum(1 for op in self.ops if op.op == OpType.LOAD)

    @property
    def stores(self) -> int:
        return sum(1 for op in self.ops if op.op == OpType.STORE)

    @property
    def synchronizing_ops(self) -> int:
        return sum(1 for op in self.ops if op.op.is_synchronizing)

    def scoped_op_counts(self) -> dict:
        """Histogram of (op type, scope) pairs."""
        counts: dict = {}
        for op in self.ops:
            key = (op.op, op.scope)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def nodes(self) -> set:
        """The set of GPMs that issue at least one op."""
        return {op.node for op in self.ops}

    def describe(self) -> str:
        """One-line summary: ops, mix, kernels, footprint."""
        return (
            f"Trace {self.name!r}: {len(self)} ops "
            f"({self.loads} loads, {self.stores} stores, "
            f"{self.synchronizing_ops} sync), "
            f"{self.kernels} kernels, "
            f"footprint {self.footprint_bytes / (1 << 20):.1f} MiB"
        )


def interleave_order(lengths: Sequence[int], chunk: int = 4) -> np.ndarray:
    """Round-robin merge order of per-GPM streams, ``chunk`` ops at a time.

    ``lengths`` are the streams' op counts; the result indexes into the
    streams' concatenation.  Ops are ordered by round (``pos // chunk``),
    then stream, then position ``pos`` within the stream, so each
    stream's own program order stays intact (which the coherence
    protocols rely on) while the GPMs progress at similar rates.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    lengths = np.asarray(lengths, dtype=np.int64)
    stream = np.repeat(np.arange(lengths.size), lengths)
    pos = np.arange(stream.size) - np.repeat(np.cumsum(lengths) - lengths,
                                             lengths)
    # lexsort is stable and the concatenation is already in position
    # order within each stream, so (round, stream) keys suffice.
    return np.lexsort((stream, pos // chunk))


def interleave(streams: Sequence[Sequence[MemOp]],
               chunk: int = 4) -> list:
    """Merge per-GPM op streams in :func:`interleave_order`."""
    ops = [op for stream in streams for op in stream]
    order = interleave_order([len(stream) for stream in streams], chunk)
    return [ops[i] for i in order.tolist()]


def replayable(trace):
    """``trace`` itself, unless it is a one-shot iterator (such as
    :func:`repro.trace.io.iter_trace_ops`), whose ops are collected into
    a list so they can be replayed more than once."""
    return list(trace) if isinstance(trace, Iterator) else trace
