"""NHCC — the non-hierarchical hardware coherence protocol (Section IV).

NHCC treats the whole machine as one flat collection of GPMs: each line
has a single home node (the system home), whose directory tracks every
sharing GPM by flat index.  The protocol follows Table I exactly:

* two stable states (Valid / absent-as-Invalid), no transient states;
* invalidations carry no acknowledgments;
* acknowledgments exist only for release fences;
* the directory is allocated by remote loads/stores and torn down by
  local stores and capacity evictions.
"""

from __future__ import annotations

from repro.core.directory import DirectoryEntry, Sharer
from repro.core.protocol import (AccessOutcome, CoherenceProtocol,
                                 MessagePlan)
from repro.core.types import (
    ATOMIC_REQ, ATOMIC_RESP, CTA, DATA_RESP, DOWNGRADE, INVALIDATION,
    LOAD_REQ, RELEASE_ACK, RELEASE_FENCE, STORE_REQ, SYS, MemOp, NodeId,
    Scope,
)


class NHCCProtocol(CoherenceProtocol):
    """Flat (non-hierarchical) hardware VI-like coherence."""

    name = "nhcc"
    label = "Non-Hierarchical HW Coherence"
    has_directory = True

    # ------------------------------------------------------------------
    # Directory helpers (flat sharer ids)
    # ------------------------------------------------------------------

    def _sharer_of(self, node: NodeId) -> Sharer:
        return Sharer.gpm(self.flat(node))

    def _node_of_sharer(self, sharer: Sharer) -> NodeId:
        return self.node(sharer.index)

    def _drop_sector_lines(self, node: NodeId, sector: int) -> int:
        """Invalidate every line of a sector in a GPM's L2."""
        l2 = self.l2[self.flat(node)]
        dropped = 0
        for line in self.amap.lines_in_sector(sector):
            if l2.invalidate(line) is not None:
                dropped += 1
        return dropped

    def _inv_sharers(self, home: NodeId, entry: DirectoryEntry,
                     keep: Sharer = None, cause: str = "store") -> int:
        """Send invalidations to every sharer except ``keep``.

        Invalidations propagate in the background with no acks
        (Section IV); functionally they take effect immediately.
        Returns the number of cache lines actually dropped.
        """
        dropped = 0
        fanned = 0
        for sharer in sorted(entry.sharers):
            if keep is not None and sharer == keep:
                continue
            target = self._node_of_sharer(sharer)
            if target == home:
                continue
            self.send(INVALIDATION, home, target, entry.sector)
            dropped += self._drop_sector_lines(target, entry.sector)
            fanned += 1
        if cause == "store":
            self.stats.lines_inv_by_store += dropped
        else:
            self.stats.lines_inv_by_dir_evict += dropped
        if self._tracing and fanned:
            self.tracer.fanout(home, fanned, dropped, cause)
        return dropped

    def _dir_allocate(self, home: NodeId, sector: int) -> DirectoryEntry:
        """Allocate (or touch) a directory entry, handling the Table I
        "Replace Dir Entry" transition for the displaced victim."""
        directory = self.dirs[self.flat(home)]
        entry, victim = directory.allocate(sector)
        if victim is not None and victim.sharers:
            self.stats.dir_evictions += 1
            self._inv_sharers(home, victim, cause="evict")
        return entry

    def _handle_l2_victim(self, node: NodeId, victim) -> None:
        super()._handle_l2_victim(node, victim)
        if victim is None or victim.dirty:
            return
        if self.cfg.downgrade_on_clean_eviction and victim.remote:
            home = self.sys_home(victim.line, node)
            if home == node:
                return
            self.send(DOWNGRADE, node, home, victim.line)
            entry = self.dirs[self.flat(home)].lookup(
                self.amap.sector_of_line(victim.line), touch=False
            )
            if entry is not None:
                still_held = any(
                    self.l2[self.flat(node)].peek(ln) is not None
                    for ln in self.amap.lines_in_sector(entry.sector)
                )
                if not still_held:
                    entry.discard(self._sharer_of(node))

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def _load(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        home = self.sys_home(line, op.node)
        lat = self._lat
        latency = self._l1_hit_lat

        if op.scope is CTA:
            node = op.node
            slices = self.l1[node.gpu * self._gpms_per_gpu + node.gpm]
            hit = slices[op.cta % len(slices)].lookup(line)
            if hit is not None:
                return AccessOutcome(hit.version, latency, False, "l1")

        node = op.node
        nflat = node.gpu * self._gpms_per_gpu + node.gpm
        local = self.l2[nflat]
        self.l2_bytes_per_gpm[nflat] += self._line_size
        latency += self._l2_hit_lat
        # Scoped (> .cta) loads must miss everywhere but the home node,
        # which is the flat protocol's only coherence point.
        may_hit_local = op.scope == CTA or op.node == home
        entry = local.lookup(line) if may_hit_local else None
        if not may_hit_local:
            local.stats.misses += 1
        if entry is not None:
            self._l1_fill(op, line, entry.version, remote=home != op.node)
            return AccessOutcome(entry.version, latency, False, "local_l2")

        if op.node == home:
            version = self.dram[self.flat(home)].read(line)
            latency += lat.dram_access
            victim = local.fill(line, version, remote=False)
            self._handle_l2_victim(op.node, victim)
            self._l1_fill(op, line, version, remote=False)
            return AccessOutcome(version, latency, False, "dram")

        # Remote request to the home node.
        if home.gpu != op.node.gpu:
            self.stats.remote_gpu_loads += 1
        self.send(LOAD_REQ, op.node, home, line)
        latency += 2 * self.hop_latency(op.node, home)
        home_l2 = self.l2[self.flat(home)]
        self._l2_touch(home, self._line_size)
        latency += self._l2_hit_lat
        home_entry = home_l2.lookup(line)
        if home_entry is None:
            version = self.dram[self.flat(home)].read(line)
            latency += lat.dram_access
            victim = home_l2.fill(line, version, remote=False)
            self._handle_l2_victim(home, victim)
            level = "dram"
        else:
            version = home_entry.version
            level = "home_l2"

        # Table I: remote load — add sender to sharers, -> V.
        entry = self._dir_allocate(home, self.amap.sector_of_line(line))
        entry.add(self._sharer_of(op.node))

        self.send(DATA_RESP, home, op.node, line)
        victim = local.fill(line, version, remote=True)
        self._handle_l2_victim(op.node, victim)
        self._l2_touch(op.node, self._line_size)
        self._l1_fill(op, line, version, remote=True)
        return AccessOutcome(version, latency, False, level)

    # ------------------------------------------------------------------
    # Stores and atomics
    # ------------------------------------------------------------------

    def _store(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        home = self.sys_home(line, op.node)
        version = self._new_version()
        lat = self._lat
        latency = self._l1_hit_lat

        self._l1_store(op, line, version, remote=home != op.node)
        node = op.node
        nflat = node.gpu * self._gpms_per_gpu + node.gpm
        local = self.l2[nflat]
        self.l2_bytes_per_gpm[nflat] += min(op.size, self._line_size)
        victim = local.write(line, version, dirty=op.node == home,
                             remote=home != op.node)
        self._handle_l2_victim(op.node, victim)
        latency += self._l2_hit_lat

        sector = self.amap.sector_of_line(line)
        directory = self.dirs[self.flat(home)]
        if op.node == home:
            # Table I, local store in V: inv all sharers, -> I.
            entry = directory.lookup(sector, touch=False)
            if entry is not None:
                if entry.sharers:
                    self.stats.stores_on_shared += 1
                    self._inv_sharers(home, entry, cause="store")
                directory.invalidate(sector)
        else:
            # Write-through travels to the home node.
            payload = min(op.size, self._line_size)
            self.send(STORE_REQ, op.node, home, line, payload=payload)
            latency += self.hop_latency(op.node, home)
            self._home_store(home, line, version, payload)
            # Table I, remote store: add sender, inv other sharers.
            entry = self._dir_allocate(home, sector)
            me = self._sharer_of(op.node)
            if entry.others(me):
                self.stats.stores_on_shared += 1
                self._inv_sharers(home, entry, keep=me, cause="store")
            entry.sharers = {me}
        return AccessOutcome(0, latency)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        if op.scope == CTA:
            # .cta-scope synchronization is performed in the L1.
            version = self._new_version()
            self._l1_store(op, line, version, remote=False)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        # .gpu and .sys atomics both execute at the flat home node.
        home = self.sys_home(line, op.node)
        version = self._new_version()
        latency = self._l2_hit_lat
        sector = self.amap.sector_of_line(line)
        if op.node != home:
            self.send(ATOMIC_REQ, op.node, home, line, payload=16)
            latency += self.rtt(op.node, home)
        self._home_store(home, line, version, self._line_size)
        directory = self.dirs[self.flat(home)]
        if op.node == home:
            entry = directory.lookup(sector, touch=False)
            if entry is not None:
                if entry.sharers:
                    self.stats.stores_on_shared += 1
                    self._inv_sharers(home, entry, cause="store")
                directory.invalidate(sector)
        else:
            entry = self._dir_allocate(home, sector)
            me = self._sharer_of(op.node)
            if entry.others(me):
                self.stats.stores_on_shared += 1
                self._inv_sharers(home, entry, keep=me, cause="store")
            entry.sharers = {me}
            self.send(ATOMIC_RESP, home, op.node, line)
            # The result is cached by the requester as a store would be.
            victim = self.l2[self.flat(op.node)].write(
                line, version, remote=True
            )
            self._handle_l2_victim(op.node, victim)
            self._l2_touch(op.node, self._line_size)
        return AccessOutcome(version, latency, exposed=False)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == CTA:
            # Satisfied within the SM's L1 — no action needed.
            out = self._load(op)
            out.exposed = True
            return out
        # Acquires > .cta invalidate the local L1 and nothing more:
        # all L2 levels are hardware-coherent (Section IV, "Acquire").
        slices = self.l1[self.flat(op.node)]
        slice_index = op.cta % len(slices)
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, slice_index
        )
        out = self._load(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _fence_plan(self, node: NodeId, scope: Scope) -> MessagePlan:
        """Propagate a release fence to every remote L2 and collect the
        acknowledgments (Section IV, "Release"); the flat protocol
        fences the whole machine at either scope."""
        messages = []
        farthest = 0
        for other in self.all_nodes():
            if other == node:
                continue
            messages.append(self._message(RELEASE_FENCE, node, other))
            messages.append(self._message(RELEASE_ACK, other, node))
            farthest = max(farthest, self.rtt(node, other))
        return MessagePlan(messages, float(farthest))

    def _release(self, op: MemOp) -> AccessOutcome:
        out = self._store(op)
        if op.scope == CTA:
            out.exposed = True
            return out
        fence_latency = self._release_fence(op.node, op.scope)
        return AccessOutcome(0, out.latency + fence_latency, exposed=True)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        # Implicit .sys release + acquire: flush fence plus full L1
        # invalidation; the hardware-coherent L2s are left intact.
        fence_latency = self._release_fence(op.node, SYS)
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(op.node)
        latency = fence_latency + self.cfg.timing.bulk_invalidate_cycles
        return AccessOutcome(0, latency, exposed=True)
