"""Columnar (numpy) batch trace representation.

The scalar engines iterate a trace as a list of
:class:`~repro.core.types.MemOp` objects — one Python object per op,
one attribute dereference per field read.  The vectorized throughput
engine (:mod:`repro.engine.vectorized`) instead consumes the whole
trace as a handful of numpy arrays, one per field, and classifies ops
with array predicates.

:class:`BatchTrace` holds exactly the raw trace columns, and
:data:`OP_DTYPE` is the one definition of the packed op format the
binary trace cache (:mod:`repro.trace.cache`) stores: 18 bytes per op,
(op, address, gpu, gpm, cta, scope, size).  :meth:`to_payload` packs
the columns into it with one ``tobytes()``; :meth:`from_payload`
decodes a cached trace back into columns with a single
``np.frombuffer`` and seven column copies.  Trace generation
(:mod:`repro.trace.generator`) writes these columns directly, so a
generated or cached trace exists as columns only; :meth:`to_ops` builds
its ``MemOp`` list when a scalar engine first iterates it
(:class:`repro.trace.stream.Trace` calls it lazily and then releases the
columns).  :meth:`from_ops` goes the other way, for traces that exist
only as op lists: hand-built ones, text-format ones, and traces whose
columns were released when their ops were built.

Engine-derived columns (line indices, home mappings, epoch segment
boundaries) are *not* stored here: they depend on the platform
geometry and placement policy, and are cached per ``(geometry,
placement)`` by the vectorized engine via the :attr:`prepared` dict.
"""

from __future__ import annotations

import numpy as np

#: Packed little-endian layout of one op: kind u8, address u64, gpu u8,
#: gpm u8, cta u16, scope u8, size u32 (18 bytes, no padding).
OP_DTYPE = np.dtype({
    "names": ["op", "address", "gpu", "gpm", "cta", "scope", "size"],
    "formats": ["u1", "<u8", "u1", "u1", "<u2", "u1", "<u4"],
    "offsets": [0, 1, 9, 10, 11, 13, 14],
    "itemsize": 18,
})


#: Ops :meth:`BatchTrace.to_ops` converts per step.
_TO_OPS_CHUNK = 512


class BatchTrace:
    """One trace as columnar numpy arrays (see module docstring)."""

    __slots__ = ("kind", "address", "gpu", "gpm", "cta", "scope", "size",
                 "prepared")

    def __init__(self, kind, address, gpu, gpm, cta, scope, size):
        self.kind = kind          # uint8, OpType values
        self.address = address    # uint64 byte addresses
        self.gpu = gpu            # int64
        self.gpm = gpm            # int64
        self.cta = cta            # int64
        self.scope = scope        # uint8, Scope values
        self.size = size          # int64
        #: Cache of engine-prepared derived columns, keyed by
        #: ``(geometry fingerprint, placement)``.
        self.prepared: dict = {}

    def __len__(self) -> int:
        return int(self.kind.size)

    # ------------------------------------------------------------------

    @classmethod
    def from_payload(cls, payload: bytes, count: int = None) -> "BatchTrace":
        """Decode the trace cache's packed op payload directly.

        ``payload`` is the raw bytes between the JSON header and the CRC
        trailer of a ``.trc`` file (``count * 18`` bytes).  Columns are
        copied out of the structured view so the result does not alias
        the (possibly memory-mapped) input buffer.
        """
        raw = np.frombuffer(payload, dtype=OP_DTYPE, count=-1 if count is None
                            else count)
        return cls(
            kind=raw["op"].copy(),
            address=raw["address"].copy(),
            gpu=raw["gpu"].astype(np.int64),
            gpm=raw["gpm"].astype(np.int64),
            cta=raw["cta"].astype(np.int64),
            scope=raw["scope"].copy(),
            size=raw["size"].astype(np.int64),
        )

    def to_payload(self) -> bytes:
        """Pack the columns into :data:`OP_DTYPE` records.

        Raises ``ValueError`` when a value does not fit its field, so a
        trace is never stored silently truncated.
        """
        packed = np.empty(len(self), dtype=OP_DTYPE)
        columns = (self.kind, self.address, self.gpu, self.gpm, self.cta,
                   self.scope, self.size)
        for name, column in zip(OP_DTYPE.names, columns):
            limits = np.iinfo(OP_DTYPE[name])
            if column.size and (column.min() < limits.min
                                or column.max() > limits.max):
                raise ValueError(
                    f"op field {name!r} outside the packed format's "
                    f"range [{limits.min}, {limits.max}]"
                )
            packed[name] = column
        return packed.tobytes()

    @classmethod
    def from_ops(cls, ops) -> "BatchTrace":
        """Build columns from a sequence of :class:`MemOp` (fallback for
        traces that never went through the binary cache)."""
        n = len(ops)
        kind = np.fromiter((int(op.op) for op in ops), np.uint8, count=n)
        address = np.fromiter((op.address for op in ops), np.uint64, count=n)
        gpu = np.fromiter((op.node.gpu for op in ops), np.int64, count=n)
        gpm = np.fromiter((op.node.gpm for op in ops), np.int64, count=n)
        cta = np.fromiter((op.cta for op in ops), np.int64, count=n)
        scope = np.fromiter((int(op.scope) for op in ops), np.uint8, count=n)
        size = np.fromiter((op.size for op in ops), np.int64, count=n)
        return cls(kind, address, gpu, gpm, cta, scope, size)

    def to_ops(self) -> list:
        """One :class:`MemOp` per op, in trace order.

        Enum members come from lookup tables and every op of one GPM
        shares a single :class:`NodeId`, so the only per-op Python work
        is the ``MemOp`` constructor itself.  Kinds and scopes must be
        valid enum values (the trace cache checks them on load).

        The list is allocated once at full length and filled 512 ops
        at a time, so the per-field temporaries stay small and do not
        fragment the heap under the long-lived op list (a scalar sweep
        keeps every trace's ops).
        """
        from repro.core.types import MemOp, NodeId, OpType, Scope

        def table(values):
            lookup = np.empty(max(values) + 1, dtype=object)
            for value in values:
                lookup[value] = value
            return lookup

        flat = self.gpu * 256 + self.gpm
        gpms, which = np.unique(flat, return_inverse=True)
        nodes = np.empty(gpms.size, dtype=object)
        for i, f in enumerate(gpms.tolist()):
            nodes[i] = NodeId(f >> 8, f & 0xFF)
        ops = [None] * len(self)
        kinds, scopes = table(list(OpType)), table(list(Scope))
        for start in range(0, len(self), _TO_OPS_CHUNK):
            part = slice(start, start + _TO_OPS_CHUNK)
            ops[part] = list(map(
                MemOp,
                kinds[self.kind[part]].tolist(),
                self.address[part].tolist(),
                nodes[which[part]].tolist(),
                self.cta[part].tolist(),
                scopes[self.scope[part]].tolist(),
                self.size[part].tolist(),
            ))
        return ops


def as_batch(trace) -> BatchTrace:
    """Columnar view of ``trace``, memoized on the trace object.

    Accepts a :class:`BatchTrace` (returned as-is), a
    :class:`repro.trace.stream.Trace` (columns cached on the instance —
    generated traces and traces loaded from the binary cache are columns
    from the start), or any sequence of :class:`MemOp`.
    """
    if isinstance(trace, BatchTrace):
        return trace
    cached = getattr(trace, "_batch", None)
    if cached is not None:
        return cached
    batch = BatchTrace.from_ops(
        trace.ops if hasattr(trace, "ops") else list(trace)
    )
    try:
        trace._batch = batch
    except (AttributeError, TypeError):
        pass  # plain lists/tuples can't memoize; caller keeps the ref
    return batch
