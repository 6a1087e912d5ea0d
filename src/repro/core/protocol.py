"""Protocol framework shared by every coherence scheme.

A :class:`CoherenceProtocol` owns the *functional* state of the machine:
L1 slices, L2 partitions, DRAM partitions, the page table, and (for the
hardware protocols) coherence directories.  Processing a trace op
mutates that state, pushes the generated coherence traffic into a
:class:`TrafficSink`, and returns a compact :class:`AccessOutcome` that
the timing engines consume.

Keeping traffic emission behind a sink interface lets the throughput
engine aggregate bytes-per-resource with no per-message allocation,
while the detailed engine can materialize real messages and schedule
them through link queues.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.core.directory import CoherenceDirectory
from repro.core.types import (
    CTA, SYS, WRITEBACK, MemOp, MsgType, NodeId, OpType, Scope,
)
from repro.memsys.address import AddressMap
from repro.memsys.cache import CacheLine, SetAssociativeCache
from repro.memsys.dram import DramPartition
from repro.memsys.page_table import PageTable, make_placement
from repro.telemetry.tracer import NULL_TRACER


class MessagePlan:
    """A fixed message sequence, built once and charged as a unit.

    A release fence issued by one (node, scope) sends the same messages
    every time (:meth:`CoherenceProtocol._release_fence`), so the
    protocol builds its plan on the first such fence and charges it on
    every later one.  ``messages`` holds ``(mtype, src, dst, line,
    size_bytes)`` tuples in send order, ``totals`` the ``(mtype, count,
    bytes)`` of each type in first-send order, and ``latency`` the
    farthest acknowledgment round trip the issuer waits for.
    """

    __slots__ = ("messages", "totals", "latency")

    def __init__(self, messages, latency: float):
        self.messages = tuple(messages)
        totals: dict = {}
        for mtype, _src, _dst, _line, size in self.messages:
            count, nbytes = totals.get(mtype, (0, 0))
            totals[mtype] = (count + 1, nbytes + size)
        self.totals = tuple((mtype, count, nbytes)
                            for mtype, (count, nbytes) in totals.items())
        self.latency = latency


class TrafficSink(abc.ABC):
    """Receives every coherence message the protocol emits."""

    @abc.abstractmethod
    def send(self, mtype: MsgType, src: NodeId, dst: NodeId,
             line: int, size_bytes: int) -> None:
        """One message of ``size_bytes`` from ``src`` to ``dst``."""

    def charge(self, plan: MessagePlan) -> None:
        """Every message of ``plan``, in order.  Sinks that only
        aggregate bytes override this with precomputed totals."""
        send = self.send
        for message in plan.messages:
            send(*message)


class NullSink(TrafficSink):
    """Discards traffic — for purely functional tests."""

    def send(self, mtype, src, dst, line, size_bytes):
        pass


class RecordingSink(TrafficSink):
    """Keeps every message — for protocol unit tests."""

    def __init__(self):
        self.messages = []

    def send(self, mtype, src, dst, line, size_bytes):
        from repro.core.types import Message

        self.messages.append(
            Message(mtype, src, dst, address=line, size_bytes=size_bytes)
        )

    def of_type(self, mtype: MsgType):
        """All recorded messages of one type."""
        return [m for m in self.messages if m.mtype == mtype]

    def clear(self):
        """Drop all recorded messages."""
        self.messages.clear()


class AccessOutcome:
    """Result of one processed trace operation.

    The protocols build one per op; the load paths pass every field
    positionally, since keyword arguments double the construction cost.
    """

    __slots__ = ("version", "latency", "exposed", "hit_level")

    def __init__(self, version: int = 0, latency: float = 0.0,
                 exposed: bool = False, hit_level: str = "none"):
        #: Functional version of the data a load observed (0 for writes).
        self.version = version
        #: Unloaded critical-path latency of the op, in cycles.
        self.latency = latency
        #: True when the latency is exposed to the pipeline (sync ops).
        self.exposed = exposed
        #: Where a load was satisfied: l1, local_l2, gpu_home, sys_home,
        #: dram — or 'none' for non-loads.
        self.hit_level = hit_level

    def __repr__(self):
        return (f"AccessOutcome(v{self.version}, {self.latency:.0f}cy, "
                f"{self.hit_level}{', exposed' if self.exposed else ''})")


#: Header-only requests, sized by their payload.
_REQUESTS = frozenset((MsgType.LOAD_REQ, MsgType.ATOMIC_REQ,
                       MsgType.STORE_REQ))

#: The :class:`ProtocolStats` counter each op kind also bumps.
_KIND_COUNTERS = {
    OpType.LOAD: "loads",
    OpType.STORE: "stores",
    OpType.ATOMIC: "atomics",
    OpType.ACQUIRE: "acquires",
    OpType.RELEASE: "releases",
    OpType.KERNEL_BOUNDARY: "kernel_boundaries",
}


@dataclass(slots=True)
class ProtocolStats:
    """Coherence-event counters, aggregated over a whole run."""

    op_counts: dict = field(default_factory=dict)  # OpType -> int
    msg_counts: dict = field(default_factory=dict)  # MsgType -> int
    msg_bytes: dict = field(default_factory=dict)  # MsgType -> int

    loads: int = 0
    remote_gpu_loads: int = 0  # loads whose system home is a peer GPU
    stores: int = 0
    #: Stores that found at least one other sharer in a directory.
    stores_on_shared: int = 0
    #: Cache lines actually dropped from caches due to store-triggered
    #: invalidations (Fig 9 numerator).
    lines_inv_by_store: int = 0
    #: Directory entry evictions that had sharers (Fig 10 denominator).
    dir_evictions: int = 0
    #: Lines dropped due to directory-eviction invalidations (Fig 10).
    lines_inv_by_dir_evict: int = 0
    #: Lines dropped by software bulk (acquire-time) invalidations.
    lines_inv_by_acquire: int = 0
    acquires: int = 0
    releases: int = 0
    kernel_boundaries: int = 0
    atomics: int = 0

    def count_ops(self, kinds: dict) -> None:
        """Add ``{OpType: ops}`` tallies to the op counters."""
        counts = self.op_counts
        for kind, n in kinds.items():
            counts[kind] = counts.get(kind, 0) + n
            counter = _KIND_COUNTERS[kind]
            setattr(self, counter, getattr(self, counter) + n)

    @property
    def inv_messages(self) -> int:
        return self.msg_counts.get(MsgType.INVALIDATION, 0)

    @property
    def inv_bytes(self) -> int:
        return self.msg_bytes.get(MsgType.INVALIDATION, 0)

    @property
    def total_message_bytes(self) -> int:
        return sum(self.msg_bytes.values())

    @property
    def lines_inv_per_shared_store(self) -> float:
        """Fig 9 metric."""
        if not self.stores_on_shared:
            return 0.0
        return self.lines_inv_by_store / self.stores_on_shared

    @property
    def lines_inv_per_dir_eviction(self) -> float:
        """Fig 10 metric."""
        if not self.dir_evictions:
            return 0.0
        return self.lines_inv_by_dir_evict / self.dir_evictions


class CoherenceProtocol(abc.ABC):
    """Functional model of one coherence scheme over the whole machine.

    Subclasses implement the per-op-type flows; this base provides the
    machine structure, address/home mapping, message emission, L1
    handling, and the version clock used for value tracking.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: Human-readable label used in figures.
    label = "Abstract"
    #: Whether this protocol maintains coherence directories.
    has_directory = False

    def __init__(self, cfg: SystemConfig, sink: TrafficSink = None,
                 placement: str = "first_touch"):
        self.cfg = cfg
        self.sink = sink if sink is not None else NullSink()
        #: Telemetry event sink (:mod:`repro.telemetry.tracer`).  The
        #: default is the shared no-op tracer; install a recording one
        #: with :meth:`set_tracer`.  Hot-path instrumentation sites
        #: guard on the cached ``_tracing`` bool — one attribute load
        #: and branch per potential event, nothing else, when off.
        self.tracer = NULL_TRACER
        self._tracing = False
        self.amap = AddressMap.from_config(cfg)
        self.page_table = PageTable(
            cfg.page_size,
            make_placement(placement, cfg.num_gpus, cfg.gpms_per_gpu),
        )
        self.stats = ProtocolStats()
        self._next_version = 1
        # Hot-path constants and memos.  Home mapping is a pure function
        # of the line (after the page's first touch pins its owner), so
        # both lookups are memoized per protocol instance; the message
        # size table flattens the per-class if-chain into dict lookups.
        self._gpms_per_gpu = cfg.gpms_per_gpu
        self._sys_home_memo: dict = {}
        self._homes_memo: dict = {}
        #: ``(node, scope)`` -> the :class:`MessagePlan` of its release
        #: fence (see :meth:`_release_fence`).
        self._fence_plans: dict = {}
        self._lat = cfg.latency
        self._l1_hit_lat = float(cfg.latency.l1_hit)
        self._l2_hit_lat = float(cfg.latency.l2_hit)
        self._line_size = cfg.line_size
        self._line_bits = self.amap.line_bits
        sizes = cfg.message_sizes
        data_size = sizes.data_payload_extra + cfg.line_size
        self._req_header = sizes.request_header
        self._fixed_msg_size = {
            MsgType.DATA_RESP: data_size,
            MsgType.WRITEBACK: data_size,
            MsgType.ATOMIC_RESP: sizes.request_header,
            MsgType.INVALIDATION: sizes.invalidation,
            MsgType.RELEASE_FENCE: sizes.release_fence,
            MsgType.RELEASE_ACK: sizes.acknowledgment,
            MsgType.INV_ACK: sizes.acknowledgment,
            MsgType.DOWNGRADE: sizes.downgrade,
        }

        n = cfg.total_gpms
        self.l2: list[SetAssociativeCache] = [
            self._make_l2(i) for i in range(n)
        ]
        self.l1: list[list[SetAssociativeCache]] = [
            [
                SetAssociativeCache(
                    cfg.l1_bytes_per_slice, cfg.line_size, cfg.l1_ways,
                    name=f"l1[{i}][{s}]",
                )
                for s in range(cfg.l1_slices_per_gpm)
            ]
            for i in range(n)
        ]
        self.dram: list[DramPartition] = [
            DramPartition(cfg.line_size, name=f"dram[{i}]") for i in range(n)
        ]
        self.dirs: list[CoherenceDirectory] = (
            [
                CoherenceDirectory(
                    cfg.dir_entries_per_gpm, cfg.dir_ways, name=f"dir[{i}]"
                )
                for i in range(n)
            ]
            if self.has_directory
            else []
        )
        #: Per-GPM count of ops issued (throughput engine input).
        self.ops_per_gpm = [0] * n
        #: Per-GPM L2 data-bank bytes moved (throughput engine input).
        self.l2_bytes_per_gpm = [0.0] * n
        #: Per-GPM count of whole-cache bulk invalidations (timing cost).
        self.bulk_invs_per_gpm = [0] * n

    def set_tracer(self, tracer) -> None:
        """Install a telemetry tracer and refresh the hot-path guard.

        ``_tracing`` caches ``tracer.enabled`` so instrumentation sites
        branch on one bool attribute instead of dereferencing the
        tracer first — the difference compiles telemetry out of the
        per-op loop when the null tracer is active.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled

    def _make_l2(self, flat_index: int) -> SetAssociativeCache:
        return SetAssociativeCache(
            self.cfg.l2_bytes_per_gpm, self.cfg.line_size, self.cfg.l2_ways,
            name=f"l2[{flat_index}]",
        )

    # ------------------------------------------------------------------
    # Identity / mapping helpers
    # ------------------------------------------------------------------

    def flat(self, node: NodeId) -> int:
        """Flatten a (gpu, gpm) id to a machine-wide index."""
        return node.gpu * self._gpms_per_gpu + node.gpm

    def node(self, flat_index: int) -> NodeId:
        """Inverse of :meth:`flat`."""
        return NodeId.from_flat(flat_index, self.cfg.gpms_per_gpu)

    def all_nodes(self):
        """Every GPM of the machine, in flat order."""
        for i in range(self.cfg.total_gpms):
            yield self.node(i)

    def sys_home(self, line: int, toucher: NodeId) -> NodeId:
        """System home node of a line: the GPM whose DRAM holds its page
        (placing the page first-touch if untouched).

        Memoized per line: once the containing page is placed, the home
        never changes under any placement policy, and this lookup sits
        on the per-op hot path of every protocol.
        """
        try:
            return self._sys_home_memo[line]
        except KeyError:
            page = self.amap.page_of_line(line)
            home = self.page_table.owner_of_page(page, toucher)
            self._sys_home_memo[line] = home
            return home

    def gpu_home(self, line: int, gpu: int, syshome: NodeId) -> NodeId:
        """GPU home node for a line within ``gpu`` (Section V-A): the
        system home itself inside the owning GPU, a hash-designated GPM
        elsewhere."""
        return self.amap.gpu_home(line, gpu, syshome)

    def homes(self, line: int, node: NodeId) -> tuple:
        """(gpu_home, sys_home) for a line as seen from ``node``.

        Memoized per ``(line, gpu)``: both homes are stable once the
        page is placed, and the pair is recomputed for every load and
        store the protocols process.
        """
        key = (line, node.gpu)
        try:
            return self._homes_memo[key]
        except KeyError:
            syshome = self.sys_home(line, node)
            pair = (self.amap.gpu_home(line, node.gpu, syshome), syshome)
            self._homes_memo[key] = pair
            return pair

    def l1_slice(self, op: MemOp) -> SetAssociativeCache:
        """The L1 slice an op's CTA maps to."""
        node = op.node
        slices = self.l1[node.gpu * self._gpms_per_gpu + node.gpm]
        return slices[op.cta % len(slices)]

    # ------------------------------------------------------------------
    # Latency helpers
    # ------------------------------------------------------------------

    def hop_latency(self, src: NodeId, dst: NodeId) -> int:
        """One-way network latency between two GPMs."""
        if src == dst:
            return 0
        if src.gpu == dst.gpu:
            return self._lat.inter_gpm_hop
        return self._lat.inter_gpu_hop

    def rtt(self, src: NodeId, dst: NodeId) -> int:
        """Unloaded round-trip latency between two GPMs."""
        return 2 * self.hop_latency(src, dst)

    # ------------------------------------------------------------------
    # Message / accounting helpers
    # ------------------------------------------------------------------

    def _msg_size(self, mtype: MsgType, payload: int = 0) -> int:
        size = self._fixed_msg_size.get(mtype)
        if size is not None:
            return size
        if mtype in _REQUESTS:
            return self._req_header + payload
        raise ValueError(f"unknown message type {mtype}")

    def _message(self, mtype: MsgType, src: NodeId, dst: NodeId) -> tuple:
        """One line-less, payload-free message (a fence or its ack) as a
        :class:`MessagePlan` entry."""
        return (mtype, src, dst, 0, self._msg_size(mtype))

    def _charge(self, plan: MessagePlan) -> float:
        """Emit every message of ``plan``: account the per-type totals
        (what :meth:`send` would add message by message) and hand the
        plan to the sink.  Returns the plan's latency."""
        stats = self.stats
        counts = stats.msg_counts
        sizes = stats.msg_bytes
        for mtype, count, nbytes in plan.totals:
            counts[mtype] = counts.get(mtype, 0) + count
            sizes[mtype] = sizes.get(mtype, 0) + nbytes
        self.sink.charge(plan)
        return plan.latency

    def _release_fence(self, node: NodeId, scope: Scope) -> float:
        """Send the release fence ``node`` issues at ``scope`` and
        collect its acknowledgments; returns the farthest ack round
        trip.  The messages depend only on ``(node, scope)``, so the
        plan is built once (:meth:`_fence_plan`) and charged after."""
        key = (node, scope)
        plan = self._fence_plans.get(key)
        if plan is None:
            plan = self._fence_plans[key] = self._fence_plan(node, scope)
        return self._charge(plan)

    def _fence_plan(self, node: NodeId, scope: Scope) -> MessagePlan:
        """The messages and latency of one release fence (protocols
        that send fences override this)."""
        raise NotImplementedError(f"{self.name} sends no release fences")

    def send(self, mtype: MsgType, src: NodeId, dst: NodeId,
             line: int = 0, payload: int = 0) -> None:
        """Emit one message: account it and hand it to the sink."""
        size = self._fixed_msg_size.get(mtype)
        if size is None:
            size = self._msg_size(mtype, payload)
        stats = self.stats
        try:
            stats.msg_counts[mtype] += 1
        except KeyError:
            stats.msg_counts[mtype] = 1
        try:
            stats.msg_bytes[mtype] += size
        except KeyError:
            stats.msg_bytes[mtype] = size
        self.sink.send(mtype, src, dst, line, size)

    def _l2_touch(self, node: NodeId, nbytes: int) -> None:
        self.l2_bytes_per_gpm[node.gpu * self._gpms_per_gpu + node.gpm] += (
            nbytes
        )

    def _new_version(self) -> int:
        v = self._next_version
        self._next_version += 1
        return v

    def _home_store(self, home: NodeId, line: int, version: int,
                    payload: int) -> None:
        """Apply a store at its home node.

        The home L2 keeps the line dirty (it is the last level before
        DRAM); DRAM is updated when the dirty line is evicted, as a
        memory-side cache would, rather than on every write-through.
        """
        l2 = self.l2[self.flat(home)]
        self._l2_touch(home, payload)
        victim = l2.write(line, version, dirty=True, remote=False)
        self._handle_l2_victim(home, victim)

    # ------------------------------------------------------------------
    # L2 victim handling (shared)
    # ------------------------------------------------------------------

    def _handle_l2_victim(self, node: NodeId, victim: CacheLine) -> None:
        """Default victim policy: silent clean eviction; dirty lines are
        written back to the home node.  Subclasses with directories add
        downgrade handling."""
        if victim is None:
            return
        if self._tracing:
            self.tracer.evict("l2", node, victim.line, victim.dirty)
        if victim.dirty:
            home = self.sys_home(victim.line, node)
            if home != node:
                self.send(WRITEBACK, node, home, victim.line)
            self.dram[self.flat(home)].write(victim.line, victim.version)

    # ------------------------------------------------------------------
    # Op processing
    # ------------------------------------------------------------------

    def handlers(self) -> tuple:
        """The per-kind op handlers, indexed by :class:`OpType` value.

        The throughput engine dispatches straight to these and adds the
        trace's op tallies once (:meth:`count_ops`) instead of counting
        op by op as :meth:`process` does.
        """
        return (self._load, self._store, self._atomic, self._acquire,
                self._release, self._kernel_boundary)

    def count_ops(self, summary) -> None:
        """Add a trace's op tallies (a
        :class:`repro.trace.stream.OpSummary`): what :meth:`process`
        counts op by op."""
        self.stats.count_ops(summary.kinds)
        ops_per_gpm = self.ops_per_gpm
        gpms_per_gpu = self._gpms_per_gpu
        for node, n in summary.nodes.items():
            ops_per_gpm[node.gpu * gpms_per_gpu + node.gpm] += n

    def process(self, op: MemOp) -> AccessOutcome:
        """Run one trace operation through the protocol, counting it."""
        kind = op.op
        node = op.node
        stats = self.stats
        counts = stats.op_counts
        try:
            counts[kind] += 1
        except KeyError:
            counts[kind] = 1
        self.ops_per_gpm[node.gpu * self._gpms_per_gpu + node.gpm] += 1
        # Identity comparison is safe (enum members are singletons) and
        # the branches are ordered by trace frequency.
        if kind is OpType.LOAD:
            stats.loads += 1
            return self._load(op)
        if kind is OpType.STORE:
            stats.stores += 1
            return self._store(op)
        if kind is OpType.ATOMIC:
            stats.atomics += 1
            return self._atomic(op)
        if kind is OpType.ACQUIRE:
            stats.acquires += 1
            return self._acquire(op)
        if kind is OpType.RELEASE:
            stats.releases += 1
            return self._release(op)
        if kind is OpType.KERNEL_BOUNDARY:
            stats.kernel_boundaries += 1
            return self._kernel_boundary(op)
        raise ValueError(f"unknown op type {op.op}")

    @abc.abstractmethod
    def _load(self, op: MemOp) -> AccessOutcome: ...

    @abc.abstractmethod
    def _store(self, op: MemOp) -> AccessOutcome: ...

    @abc.abstractmethod
    def _atomic(self, op: MemOp) -> AccessOutcome: ...

    @abc.abstractmethod
    def _acquire(self, op: MemOp) -> AccessOutcome: ...

    @abc.abstractmethod
    def _release(self, op: MemOp) -> AccessOutcome: ...

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        """Implicit .sys release + acquire for one GPM (bulk-synchronous
        kernel dependency).  Subclasses refine the invalidation part."""
        rel = self._release(op.with_scope(SYS))
        acq = self._acquire(op.with_scope(SYS))
        return AccessOutcome(
            latency=rel.latency + acq.latency, exposed=True
        )

    # ------------------------------------------------------------------
    # Shared flow fragments
    # ------------------------------------------------------------------

    def _l1_load(self, op: MemOp, line: int):
        """Probe the issuing L1 slice; scoped (> .cta) loads must miss."""
        if op.scope > CTA:
            return None
        node = op.node
        slices = self.l1[node.gpu * self._gpms_per_gpu + node.gpm]
        return slices[op.cta % len(slices)].lookup(line)

    def _l1_fill(self, op: MemOp, line: int, version: int,
                 remote: bool) -> None:
        node = op.node
        slices = self.l1[node.gpu * self._gpms_per_gpu + node.gpm]
        slices[op.cta % len(slices)].fill(line, version, False, remote)
        if self._tracing:
            self.tracer.fill("l1", node, line)

    def _l1_store(self, op: MemOp, line: int, version: int,
                  remote: bool) -> None:
        """Write-through store: the L1 keeps the written data."""
        node = op.node
        slices = self.l1[node.gpu * self._gpms_per_gpu + node.gpm]
        slices[op.cta % len(slices)].write(line, version, False, remote)

    def _invalidate_l1s(self, node: NodeId, slice_index: int = None) -> int:
        """Flash-invalidate L1 slice(s) of a GPM (acquire semantics)."""
        flat = self.flat(node)
        slices = self.l1[flat]
        targets = slices if slice_index is None else [slices[slice_index]]
        dropped = 0
        for sl in targets:
            dropped += len(sl.invalidate_all())
        self.bulk_invs_per_gpm[flat] += len(targets)
        if self._tracing:
            self.tracer.bulk_invalidate(node, "l1", dropped)
        return dropped

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------

    def l2_of(self, node: NodeId) -> SetAssociativeCache:
        """A GPM's L2 partition (test/introspection helper)."""
        return self.l2[self.flat(node)]

    def dram_of(self, node: NodeId) -> DramPartition:
        """A GPM's DRAM partition (test/introspection helper)."""
        return self.dram[self.flat(node)]

    def dir_of(self, node: NodeId) -> CoherenceDirectory:
        """A GPM's coherence directory (hardware protocols only)."""
        if not self.has_directory:
            raise AttributeError(f"{self.name} has no coherence directory")
        return self.dirs[self.flat(node)]

    def caches_holding(self, line: int) -> list[NodeId]:
        """All GPMs whose L2 currently holds a valid copy of ``line``."""
        return [
            self.node(i)
            for i, l2 in enumerate(self.l2)
            if l2.peek(line) is not None
        ]
