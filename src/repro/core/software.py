"""Software coherence protocols (the paper's two SW baselines).

Both variants are "conventional software coherence with scopes and
bulk invalidation of caches" (Section VI): there is no directory and no
invalidation traffic; instead, load-acquires flash-invalidate every
possibly-stale line between the issuing SM and the home node for the
scope in question, and store-releases stall until pending write-throughs
drain.

* :class:`NonHierarchicalSWProtocol` treats the machine as one flat GPU
  of ``N x M`` GPMs.  Any L2 may cache any data; a ``>= .gpu``-scoped
  acquire invalidates the issuing SM's L1 plus every remotely-homed line
  in the GPM-local L2 (".sys-scoped loads need not invalidate L2 caches
  in other GPMs of the same GPU" — Section VI).
* :class:`HierarchicalSWProtocol` additionally routes requests through
  the per-GPU home node so intra-GPU locality is captured; ``.gpu``
  acquires invalidate only lines whose GPU home is another GPM, and
  ``.sys`` acquires invalidate peer-GPU-homed lines in *all* L2 caches
  of the issuing GPU.
"""

from __future__ import annotations

from repro.core.protocol import AccessOutcome, CoherenceProtocol
from repro.core.types import (
    ATOMIC_REQ, ATOMIC_RESP, CTA, DATA_RESP, GPU, LOAD_REQ, STORE_REQ, SYS,
    MemOp, NodeId,
)


class _SoftwareProtocolBase(CoherenceProtocol):
    """Machinery shared by both software variants."""

    has_directory = False

    # -- bulk invalidation ------------------------------------------------

    def _bulk_invalidate_l2(self, node: NodeId, predicate=None) -> int:
        """Flash-invalidate matching lines in one GPM's L2; no
        ``predicate`` drops every remotely-homed line."""
        l2 = self.l2[self.flat(node)]
        dropped = (l2.invalidate_remote() if predicate is None
                   else l2.invalidate_where(predicate))
        self.bulk_invs_per_gpm[self.flat(node)] += 1
        self.stats.lines_inv_by_acquire += len(dropped)
        if self._tracing:
            self.tracer.bulk_invalidate(node, "l2", len(dropped))
        return len(dropped)

    # -- releases ----------------------------------------------------------

    def _release_stall(self, op: MemOp) -> float:
        """Cycles a release stalls waiting for write-throughs to drain.

        Software releases carry no fence messages; the issuing L2 simply
        waits until the home node for the scope has acknowledged all
        pending writes (Section VI: "Store-release operations stall
        subsequent operations until the home node for the scope in
        question clears all pending writes").
        """
        raise NotImplementedError

    def _release(self, op: MemOp) -> AccessOutcome:
        out = self._store(op)
        if op.scope == CTA:
            out.exposed = True
            return out
        return AccessOutcome(0, out.latency + self._release_stall(op),
                             exposed=True)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        stall = self._release_stall(op.with_scope(SYS))
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(op.node)
        # A .sys boundary drops every remotely-homed line of the L2: the
        # flat protocol's acquire action, and hsw's .sys sweep of the
        # issuing GPM (see HierarchicalSWProtocol._acquire).
        self._bulk_invalidate_l2(op.node)
        latency = stall + self.cfg.timing.bulk_invalidate_cycles
        return AccessOutcome(0, latency, exposed=True)


class NonHierarchicalSWProtocol(_SoftwareProtocolBase):
    """Flat scoped software coherence over N x M GPMs."""

    name = "sw"
    label = "Non-Hierarchical SW Coherence"

    # -- loads ---------------------------------------------------------

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
        may_hit_local = op.scope == CTA or op.node == home
        entry = local.lookup(line) if may_hit_local else None
        if not may_hit_local:
            local.stats.misses += 1
        if entry is not None:
            self._l1_fill(op, line, entry.version, remote=home != op.node)
            return AccessOutcome(entry.version, latency, False,
                                 "local_l2")

        if op.node == home:
            version = self.dram[self.flat(home)].read(line)
            latency += lat.dram_access
            victim = local.fill(line, version, remote=False)
            self._handle_l2_victim(op.node, victim)
            self._l1_fill(op, line, version, remote=False)
            return AccessOutcome(version, latency, False, "dram")

        if home.gpu != op.node.gpu:
            self.stats.remote_gpu_loads += 1
        self.send(LOAD_REQ, op.node, home, line)
        latency += 2 * self.hop_latency(op.node, home)
        home_l2 = self.l2[self.flat(home)]
        self._l2_touch(home, self._line_size)
        latency += self._l2_hit_lat
        hentry = home_l2.lookup(line)
        if hentry is None:
            version = self.dram[self.flat(home)].read(line)
            latency += lat.dram_access
            hvictim = home_l2.fill(line, version, remote=False)
            self._handle_l2_victim(home, hvictim)
            level = "dram"
        else:
            version = hentry.version
            level = "home_l2"
        self.send(DATA_RESP, home, op.node, line)
        victim = local.fill(line, version, remote=True)
        self._handle_l2_victim(op.node, victim)
        self._l1_fill(op, line, version, remote=True)
        return AccessOutcome(version, latency, False, level)

    # -- stores ----------------------------------------------------------

    def _store(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        home = self.sys_home(line, op.node)
        version = self._new_version()
        payload = min(op.size, self._line_size)
        lat = self._lat
        latency = self._l1_hit_lat + self._l2_hit_lat

        self._l1_store(op, line, version, remote=home != op.node)
        node = op.node
        nflat = node.gpu * self._gpms_per_gpu + node.gpm
        local = self.l2[nflat]
        self.l2_bytes_per_gpm[nflat] += payload
        victim = local.write(line, version, dirty=op.node == home,
                             remote=home != op.node)
        self._handle_l2_victim(op.node, victim)

        if op.node != home:
            self.send(STORE_REQ, op.node, home, line, payload=payload)
            latency += self.hop_latency(op.node, home)
            self._home_store(home, line, version, payload)
        return AccessOutcome(0, latency)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        if op.scope == CTA:
            version = self._new_version()
            self._l1_store(op, line, version, remote=False)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        # Flat software coherence performs every scoped atomic at the
        # system home node — it has no closer coherence point.
        home = self.sys_home(line, op.node)
        version = self._new_version()
        latency = self._l2_hit_lat
        if op.node != home:
            self.send(ATOMIC_REQ, op.node, home, line, payload=16)
            self.send(ATOMIC_RESP, home, op.node, line)
            latency += self.rtt(op.node, home)
        self._home_store(home, line, version, self._line_size)
        return AccessOutcome(version, latency, exposed=False)

    # -- synchronization ----------------------------------------------

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == CTA:
            out = self._load(op)
            out.exposed = True
            return out
        slices = self.l1[self.flat(op.node)]
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, op.cta % len(slices)
        )
        # Bulk-invalidate every remotely-homed line in the local L2 —
        # the same action for .gpu and .sys in the flat protocol.
        self._bulk_invalidate_l2(op.node)
        out = self._load(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _release_stall(self, op: MemOp) -> float:
        # Flat view: pending writes may target any GPM in the system.
        if self.cfg.num_gpus > 1:
            return 2.0 * self.cfg.latency.inter_gpu_hop
        return 2.0 * self.cfg.latency.inter_gpm_hop


class HierarchicalSWProtocol(_SoftwareProtocolBase):
    """Scoped software coherence with hierarchical request routing."""

    name = "hsw"
    label = "Hierarchical SW Coherence"

    def _may_hit(self, cache_node: NodeId, op: MemOp, ghome: NodeId,
                 syshome: NodeId) -> bool:
        if op.scope == CTA:
            return True
        if op.scope == GPU:
            return cache_node in (ghome, syshome)
        return cache_node == syshome

    # -- loads ---------------------------------------------------------

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
            return AccessOutcome(entry.version, latency, False,
                                 "local_l2")

        if op.node == syshome:
            version = self.dram[self.flat(syshome)].read(line)
            latency += lat.dram_access
            victim = local.fill(line, version, remote=False)
            self._handle_l2_victim(op.node, victim)
            self._l1_fill(op, line, version, remote=False)
            return AccessOutcome(version, latency, False, "dram")

        version = None
        level = "dram"
        if op.node != ghome:
            self.send(LOAD_REQ, op.node, ghome, line)
            latency += 2 * self.hop_latency(op.node, ghome)
            self._l2_touch(ghome, self._line_size)
            latency += self._l2_hit_lat
            gl2 = self.l2[self.flat(ghome)]
            if self._may_hit(ghome, op, ghome, syshome):
                gentry = gl2.lookup(line)
            else:
                gentry = None
                gl2.stats.misses += 1
            if gentry is not None:
                version = gentry.version
                level = "gpu_home" if ghome != syshome else "sys_home"

        if version is None and ghome != syshome:
            self.stats.remote_gpu_loads += 1
            self.send(LOAD_REQ, ghome, syshome, line)
            latency += 2 * self.hop_latency(ghome, syshome)
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
            self.send(DATA_RESP, syshome, ghome, line)
            if op.node != ghome:
                gvictim = self.l2[self.flat(ghome)].fill(
                    line, version, remote=True
                )
                self._handle_l2_victim(ghome, gvictim)
                self._l2_touch(ghome, self._line_size)
        elif version is None:
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

    # -- stores ----------------------------------------------------------

    def _store(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        ghome, syshome = self.homes(line, op.node)
        version = self._new_version()
        payload = min(op.size, self._line_size)
        lat = self._lat
        latency = self._l1_hit_lat + self._l2_hit_lat

        self._l1_store(op, line, version, remote=op.node != syshome)
        node = op.node
        nflat = node.gpu * self._gpms_per_gpu + node.gpm
        local = self.l2[nflat]
        self.l2_bytes_per_gpm[nflat] += payload
        victim = local.write(line, version, dirty=op.node == syshome,
                             remote=op.node != syshome)
        self._handle_l2_victim(op.node, victim)

        if op.node != ghome:
            self.send(STORE_REQ, op.node, ghome, line, payload=payload)
            latency += self.hop_latency(op.node, ghome)
            gl2 = self.l2[self.flat(ghome)]
            self._l2_touch(ghome, payload)
            gvictim = gl2.write(line, version, dirty=ghome == syshome,
                                remote=ghome != syshome)
            self._handle_l2_victim(ghome, gvictim)
        if ghome != syshome:
            self.send(STORE_REQ, ghome, syshome, line, payload=payload)
            latency += self.hop_latency(ghome, syshome)
            self._home_store(syshome, line, version, payload)
        return AccessOutcome(0, latency)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        if op.scope == CTA:
            version = self._new_version()
            self._l1_store(op, line, version, remote=False)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        ghome, syshome = self.homes(line, op.node)
        # Hierarchical software coherence performs the atomic at the
        # home node for its scope: the GPU home is the .gpu coherence
        # point because all stores write through it.
        target = ghome if op.scope == GPU else syshome
        out = self._store(op)
        if op.node != target:
            self.send(ATOMIC_RESP, target, op.node, line)
        latency = self._l2_hit_lat + self.rtt(op.node, target)
        return AccessOutcome(self._next_version - 1, latency, exposed=False)

    # -- synchronization ----------------------------------------------

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == CTA:
            out = self._load(op)
            out.exposed = True
            return out
        slices = self.l1[self.flat(op.node)]
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, op.cta % len(slices)
        )
        node = op.node
        if op.scope == GPU:
            # Drop lines whose GPU home is another GPM of this GPU.
            self._bulk_invalidate_l2(node, self._stale_at_gpu_scope(node))
        else:
            # .sys: drop peer-GPU-homed lines in every L2 of this GPU,
            # plus (in the issuing GPM) lines GPU-homed elsewhere.
            # Inside the owning GPU the GPU home is the system home, so
            # the issuer drops exactly the lines homed at another GPM:
            # the ones this protocol's fills mark remote.
            for other_gpm in range(self.cfg.gpms_per_gpu):
                target = NodeId(node.gpu, other_gpm)
                self._bulk_invalidate_l2(
                    target, None if target == node
                    else self._stale_at_sys_scope(target))
        out = self._load(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _release_stall(self, op: MemOp) -> float:
        if op.scope == GPU or self.cfg.num_gpus == 1:
            return 2.0 * self.cfg.latency.inter_gpm_hop
        return 2.0 * self.cfg.latency.inter_gpu_hop

    # Bulk-invalidation predicates.  Each tests every resident line of
    # one L2, so it reads the homes() memo directly: it already holds
    # (GPU home, system home) per (line, GPU).  A line a peer GPU's
    # request left at its system home may be missing from the memo
    # under this GPU; homes() fills that in.

    def _stale_at_gpu_scope(self, node: NodeId):
        """A .gpu acquire at ``node`` drops lines GPU-homed elsewhere."""
        memo, gpu, homes = self._homes_memo, node.gpu, self.homes

        def stale(entry):
            pair = memo.get((entry.line, gpu)) or homes(entry.line, node)
            return pair[0] != node

        return stale

    def _stale_at_sys_scope(self, node: NodeId):
        """A .sys acquire by another GPM of ``node``'s GPU drops
        ``node``'s peer-GPU-homed lines."""
        memo, gpu, homes = self._homes_memo, node.gpu, self.homes

        def stale(entry):
            pair = memo.get((entry.line, gpu)) or homes(entry.line, node)
            return pair[1].gpu != gpu

        return stale
