"""HMG — hierarchical multi-GPU hardware coherence (Section V).

HMG layers NHCC twice.  Within each GPU, a *GPU home node* per address
keeps the GPU's GPMs coherent; across GPUs, the *system home node* (the
GPU home node inside the page-owning GPU) keeps the GPUs coherent,
tracking peer GPUs only at GPU granularity.  Invalidations fan out
hierarchically: an invalidation arriving at a GPU home node is forwarded
to that GPU's GPM sharers (the single extra transition in Table I).

Requests and write-throughs route local L2 -> GPU home -> system home;
only the GPU identifier crosses the inter-GPU network, never the
requesting GPM's identity.
"""

from __future__ import annotations

from repro.core.directory import DirectoryEntry, Sharer
from repro.core.protocol import (AccessOutcome, CoherenceProtocol,
                                 MessagePlan)
from repro.core.types import (
    ATOMIC_RESP, CTA, DATA_RESP, GPU, INVALIDATION, LOAD_REQ, RELEASE_ACK,
    RELEASE_FENCE, STORE_REQ, SYS, MemOp, NodeId, Scope,
)


class HMGProtocol(CoherenceProtocol):
    """Two-layer hierarchical hardware coherence."""

    name = "hmg"
    label = "HMG Coherence"
    has_directory = True

    # ------------------------------------------------------------------
    # Invalidation machinery
    # ------------------------------------------------------------------

    def _drop_sector_lines(self, node: NodeId, sector: int) -> int:
        l2 = self.l2[self.flat(node)]
        dropped = 0
        for line in self.amap.lines_in_sector(sector):
            if l2.invalidate(line) is not None:
                dropped += 1
        return dropped

    def _inv_gpu_sharer(self, home: NodeId, gpu: int, sector: int) -> int:
        """Invalidate a peer GPU: send one invalidation to its GPU home
        node, which drops its own copy and forwards to its GPM sharers
        (Table I, the HMG-only transition)."""
        ghome = NodeId(gpu, self.amap.home_gpm_of_sector(sector))
        self.send(INVALIDATION, home, ghome, sector)
        dropped = self._drop_sector_lines(ghome, sector)
        directory = self.dirs[self.flat(ghome)]
        entry = directory.lookup(sector, touch=False)
        if entry is not None:
            forwarded = 0
            for sharer in sorted(entry.sharers):
                # Entries at a non-owner GPU home only track local GPMs.
                target = NodeId(gpu, sharer.index)
                self.send(INVALIDATION, ghome, target, sector)
                dropped += self._drop_sector_lines(target, sector)
                forwarded += 1
            directory.invalidate(sector)
            if self._tracing and forwarded:
                # Table I's HMG-only transition: the peer GPU home
                # forwards an arriving invalidation to its GPM sharers.
                self.tracer.fanout(ghome, forwarded, dropped, "forward")
        return dropped

    def _inv_sharers(self, home: NodeId, entry: DirectoryEntry,
                     keep: Sharer = None, cause: str = "store") -> int:
        """Hierarchically invalidate every sharer except ``keep``."""
        dropped = 0
        fanned = 0
        for sharer in sorted(entry.sharers):
            if keep is not None and sharer == keep:
                continue
            if sharer.is_gpm:
                target = NodeId(home.gpu, sharer.index)
                if target == home:
                    continue
                self.send(INVALIDATION, home, target, entry.sector)
                dropped += self._drop_sector_lines(target, entry.sector)
                fanned += 1
            else:
                dropped += self._inv_gpu_sharer(home, sharer.index,
                                                entry.sector)
                fanned += 1
        if cause == "store":
            self.stats.lines_inv_by_store += dropped
        else:
            self.stats.lines_inv_by_dir_evict += dropped
        if self._tracing and fanned:
            self.tracer.fanout(home, fanned, dropped, cause)
        return dropped

    def _dir_allocate(self, home: NodeId, sector: int) -> DirectoryEntry:
        directory = self.dirs[self.flat(home)]
        entry, victim = directory.allocate(sector)
        if victim is not None and victim.sharers:
            self.stats.dir_evictions += 1
            self._inv_sharers(home, victim, cause="evict")
        return entry

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------

    def _may_hit(self, cache_node: NodeId, op: MemOp, ghome: NodeId,
                 syshome: NodeId) -> bool:
        """Scope-dependent hit permission (Section V-B, "Loads")."""
        if op.scope == CTA:
            return True
        if op.scope == GPU:
            return cache_node in (ghome, syshome)
        return cache_node == syshome

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def _load(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        ghome, syshome = self.homes(line, op.node)
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
        if self._may_hit(op.node, op, ghome, syshome):
            entry = local.lookup(line)
        else:
            entry = None
            local.stats.misses += 1
        if entry is not None:
            self._l1_fill(op, line, entry.version, remote=op.node != syshome)
            level = ("sys_home" if op.node == syshome
                     else "gpu_home" if op.node == ghome else "local_l2")
            return AccessOutcome(entry.version, latency, False, level)

        if op.node == syshome:
            # Local miss at the system home itself: straight to DRAM.
            version = self.dram[self.flat(syshome)].read(line)
            latency += lat.dram_access
            victim = local.fill(line, version, remote=False)
            self._handle_l2_victim(op.node, victim)
            self._l1_fill(op, line, version, remote=False)
            return AccessOutcome(version, latency, False, "dram")

        # Miss: climb the hierarchy — GPU home first (if we are not it).
        version = None
        level = "dram"
        sector = self.amap.sector_of_line(line)
        if op.node != ghome:
            self.send(LOAD_REQ, op.node, ghome, line)
            latency += 2 * self.hop_latency(op.node, ghome)
            self._l2_touch(ghome, self._line_size)
            latency += self._l2_hit_lat
            ghome_l2 = self.l2[self.flat(ghome)]
            if self._may_hit(ghome, op, ghome, syshome):
                gentry = ghome_l2.lookup(line)
            else:
                gentry = None
                ghome_l2.stats.misses += 1
            if gentry is not None:
                version = gentry.version
                level = "gpu_home" if ghome != syshome else "sys_home"
            # The GPU home tracks the requesting GPM either way — on a
            # forwarded miss it will cache the response too.
            dentry = self._dir_allocate(ghome, sector)
            dentry.add(Sharer.gpm(op.node.gpm))

        if version is None and ghome != syshome:
            # Forward to the system home; only the GPU id crosses.
            self.stats.remote_gpu_loads += 1
            src = ghome
            self.send(LOAD_REQ, src, syshome, line)
            latency += 2 * self.hop_latency(src, syshome)
            self._l2_touch(syshome, self._line_size)
            latency += self._l2_hit_lat
            sentry = self.l2[self.flat(syshome)].lookup(line)
            if sentry is not None:
                version = sentry.version
                level = "sys_home"
            else:
                version = self.dram[self.flat(syshome)].read(line)
                latency += lat.dram_access
                svictim = self.l2[self.flat(syshome)].fill(
                    line, version, remote=False
                )
                self._handle_l2_victim(syshome, svictim)
            dentry = self._dir_allocate(syshome, sector)
            dentry.add(Sharer.gpu(op.node.gpu))
            self.send(DATA_RESP, syshome, src, line)
            # Response fills the GPU home on its way back (Fig 6b).
            if op.node != ghome:
                gvictim = self.l2[self.flat(ghome)].fill(
                    line, version, remote=True
                )
                self._handle_l2_victim(ghome, gvictim)
                self._l2_touch(ghome, self._line_size)
        elif version is None:
            # Owning GPU, requester is not the home: the home L2 missed,
            # so the home fetches from its DRAM and keeps a copy.
            version = self.dram[self.flat(syshome)].read(line)
            latency += lat.dram_access
            svictim = self.l2[self.flat(syshome)].fill(
                line, version, remote=False
            )
            self._handle_l2_victim(syshome, svictim)

        if op.node != ghome:
            self.send(DATA_RESP, ghome, op.node, line)

        victim = local.fill(line, version, remote=True)
        self._handle_l2_victim(op.node, victim)
        self._l1_fill(op, line, version, remote=True)
        return AccessOutcome(version, latency, False, level)

    # ------------------------------------------------------------------
    # Stores and atomics
    # ------------------------------------------------------------------

    def _store_at_gpu_home(self, requester: NodeId, ghome: NodeId,
                           sector: int, is_sys_home: bool,
                           version: int) -> None:
        """Apply the Table I transition at a GPU home node."""
        directory = self.dirs[self.flat(ghome)]
        if requester == ghome:
            # Local store: inv all sharers, -> I.
            entry = directory.lookup(sector, touch=False)
            if entry is not None:
                if entry.sharers:
                    self.stats.stores_on_shared += 1
                    self._inv_sharers(ghome, entry, cause="store")
                directory.invalidate(sector)
            return
        # Remote store: add sender, inv other sharers, stay V.
        if requester.gpu == ghome.gpu:
            me = Sharer.gpm(requester.gpm)
        else:
            me = Sharer.gpu(requester.gpu)
        entry = self._dir_allocate(ghome, sector)
        if entry.others(me):
            self.stats.stores_on_shared += 1
            self._inv_sharers(ghome, entry, keep=me, cause="store")
        entry.sharers = {me}

    def _store(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        ghome, syshome = self.homes(line, op.node)
        version = self._new_version()
        lat = self._lat
        payload = min(op.size, self._line_size)
        latency = self._l1_hit_lat

        self._l1_store(op, line, version, remote=op.node != syshome)
        node = op.node
        nflat = node.gpu * self._gpms_per_gpu + node.gpm
        local = self.l2[nflat]
        self.l2_bytes_per_gpm[nflat] += payload
        victim = local.write(line, version, remote=op.node != syshome)
        self._handle_l2_victim(op.node, victim)
        latency += self._l2_hit_lat
        sector = self.amap.sector_of_line(line)

        # Layer 1: the GPU home node of the issuing GPU.
        if op.node != ghome:
            self.send(STORE_REQ, op.node, ghome, line,
                      payload=payload)
            latency += self.hop_latency(op.node, ghome)
            gl2 = self.l2[self.flat(ghome)]
            self._l2_touch(ghome, payload)
            gvictim = gl2.write(line, version, remote=ghome != syshome)
            self._handle_l2_victim(ghome, gvictim)
        self._store_at_gpu_home(op.node, ghome, sector,
                                is_sys_home=ghome == syshome,
                                version=version)

        # Layer 2: the system home node, if it lives on another GPU.
        if ghome != syshome:
            self.send(STORE_REQ, ghome, syshome, line,
                      payload=payload)
            latency += self.hop_latency(ghome, syshome)
            self._home_store(syshome, line, version, payload)
            # Only the GPU identifier crosses the inter-GPU network.
            self._store_at_gpu_home(op.node, syshome, sector,
                                    is_sys_home=True, version=version)
        else:
            # The GPU home is the system home: its copy is the
            # authoritative one (dirty; written back on eviction).
            target = self.l2[self.flat(syshome)].peek(line)
            if target is not None:
                target.dirty = True
        return AccessOutcome(0, latency)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        if op.scope == CTA:
            version = self._new_version()
            self._l1_store(op, line, version, remote=False)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        ghome, syshome = self.homes(line, op.node)
        # The atomic executes at the home node for its scope and is then
        # written through to subsequent levels like a store.
        target = ghome if op.scope == GPU else syshome
        out = self._store(op)
        if op.node != target:
            self.send(ATOMIC_RESP, target, op.node, line)
        latency = self._l2_hit_lat + self.rtt(op.node, target)
        return AccessOutcome(self._next_version - 1, latency, exposed=False)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == CTA:
            out = self._load(op)
            out.exposed = True
            return out
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
        """Scoped release fence.

        A .gpu release only drains within the issuing GPU — it "need not
        flush all write-back operations across the inter-GPU network"
        (Section V-B).  A .sys release fans out hierarchically.
        """
        message = self._message
        messages = []
        farthest = 0
        for gpm in range(self.cfg.gpms_per_gpu):
            other = NodeId(node.gpu, gpm)
            if other == node:
                continue
            messages.append(message(RELEASE_FENCE, node, other))
            messages.append(message(RELEASE_ACK, other, node))
            farthest = max(farthest, self.rtt(node, other))
        if scope == SYS:
            for gpu in range(self.cfg.num_gpus):
                if gpu == node.gpu:
                    continue
                peer = NodeId(gpu, node.gpm)
                messages.append(message(RELEASE_FENCE, node, peer))
                farthest = max(farthest, self.rtt(node, peer))
                # The peer GPU home fences its own GPMs before acking.
                for gpm in range(self.cfg.gpms_per_gpu):
                    inner = NodeId(gpu, gpm)
                    if inner == peer:
                        continue
                    messages.append(message(RELEASE_FENCE, peer, inner))
                    messages.append(message(RELEASE_ACK, inner, peer))
                messages.append(message(RELEASE_ACK, peer, node))
        return MessagePlan(messages, float(farthest))

    def _release(self, op: MemOp) -> AccessOutcome:
        out = self._store(op)
        if op.scope == CTA:
            out.exposed = True
            return out
        fence_latency = self._release_fence(op.node, op.scope)
        return AccessOutcome(0, out.latency + fence_latency, exposed=True)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        fence_latency = self._release_fence(op.node, SYS)
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(op.node)
        latency = fence_latency + self.cfg.timing.bulk_invalidate_cycles
        return AccessOutcome(0, latency, exposed=True)
