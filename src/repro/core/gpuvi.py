"""GPU-VI — the prior-work hardware baseline (Singh et al., HPCA 2013).

GPU-VI predates scoped memory models and enforces
**multi-copy-atomicity** (Section III-B): a store to a shared line may
not complete until every sharer has acknowledged its invalidation.  The
real protocol hides part of that latency behind transient states (3 in
the L1 and 12 in the L2, 65 extra transitions); in a multi-GPU machine
the round trips it must hide are an order of magnitude longer, which is
precisely the pressure HMG sidesteps by dropping the requirement.

This model extends NHCC (the two share the VI state machine and home
node organization) with the MCA costs the paper calls out:

* every invalidation is acknowledged (``INV_ACK`` traffic), and
* a store that invalidates sharers is *exposed* for the full
  requester -> home -> farthest-sharer -> home -> requester round trip,
  discounted by the same latency-tolerance factor as other exposed ops
  (standing in for the transient-state machinery's partial hiding).

Used as Fig 2's non-hierarchical hardware protocol and by the ``mca``
experiment, which measures what multi-copy-atomicity costs as the
machine grows.
"""

from __future__ import annotations

from repro.core.directory import DirectoryEntry, Sharer
from repro.core.nhcc import NHCCProtocol
from repro.core.protocol import AccessOutcome
from repro.core.types import INV_ACK, MemOp, NodeId


class GPUVIProtocol(NHCCProtocol):
    """Flat VI coherence with multi-copy-atomic write semantics."""

    name = "gpuvi"
    label = "GPU-VI (multi-copy-atomic)"
    has_directory = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Exposed ack round-trip latency accrued by the op in flight.
        self._pending_ack_latency = 0.0

    # ------------------------------------------------------------------

    def _inv_sharers(self, home: NodeId, entry: DirectoryEntry,
                     keep: Sharer = None, cause: str = "store") -> int:
        """As NHCC, but every invalidation is acknowledged and the
        farthest acknowledgment round trip is charged to the op."""
        dropped = super()._inv_sharers(home, entry, keep=keep, cause=cause)
        farthest = 0.0
        for sharer in sorted(entry.sharers):
            if keep is not None and sharer == keep:
                continue
            target = self._node_of_sharer(sharer)
            if target == home:
                continue
            self.send(INV_ACK, target, home)
            farthest = max(farthest, float(self.rtt(home, target)))
        self._pending_ack_latency = max(self._pending_ack_latency,
                                        farthest)
        if self._tracing and farthest:
            # Multi-copy-atomicity made visible: the store at ``home``
            # cannot complete until this ack round trip closes.
            self.tracer.instant("mca_ack_wait", home,
                                {"farthest_rtt": farthest, "cause": cause})
        return dropped

    def _take_ack_latency(self) -> float:
        latency, self._pending_ack_latency = self._pending_ack_latency, 0.0
        return latency

    # ------------------------------------------------------------------

    def _store(self, op: MemOp) -> AccessOutcome:
        self._pending_ack_latency = 0.0
        out = super()._store(op)
        ack = self._take_ack_latency()
        if ack:
            # Multi-copy-atomicity: the write completes only after all
            # acks arrive.  Only the acknowledgment wait is exposed —
            # the write-through itself remains fire-and-forget — and
            # the transient-state machinery hides most of it.
            hidden = ack / self.cfg.timing.mca_transient_hiding
            return AccessOutcome(out.version, hidden, exposed=True,
                                 hit_level=out.hit_level)
        return out

    def _atomic(self, op: MemOp) -> AccessOutcome:
        self._pending_ack_latency = 0.0
        out = super()._atomic(op)
        ack = self._take_ack_latency()
        if ack:
            hidden = ack / self.cfg.timing.mca_transient_hiding
            out.latency += hidden
            out.exposed = True
        return out
