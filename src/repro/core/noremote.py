"""Normalization baseline: no caching of remote-GPU data.

This is the configuration every figure normalizes against ("a 4-GPU
system that disallows caching of remote GPU data", Fig 8).  Lines homed
on a peer GPU are never cached in the local GPU's L1s or L2s — every
access to them crosses the inter-GPU network to the system home, which
may serve it from its own L2.  Data homed *within* the GPU is cached
normally and kept correct by flat software coherence (bulk invalidation
of intra-GPU remote lines at synchronization points).
"""

from __future__ import annotations

from repro.core.protocol import AccessOutcome, CoherenceProtocol
from repro.core.types import (
    ATOMIC_REQ, ATOMIC_RESP, CTA, DATA_RESP, LOAD_REQ, STORE_REQ, MemOp,
    NodeId,
)


class NoRemoteCachingProtocol(CoherenceProtocol):
    """Remote-GPU data is never cached — the paper's baseline."""

    name = "noremote"
    label = "No Remote Caching (baseline)"
    has_directory = False

    def _cacheable(self, home: NodeId, node: NodeId) -> bool:
        """Only data homed within the accessing GPU may be cached."""
        return home.gpu == node.gpu

    # ------------------------------------------------------------------

    def _load(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        home = self.sys_home(line, op.node)
        cacheable = self._cacheable(home, op.node)
        lat = self._lat
        latency = self._l1_hit_lat

        if cacheable and op.scope is CTA:
            node = op.node
            slices = self.l1[node.gpu * self._gpms_per_gpu + node.gpm]
            hit = slices[op.cta % len(slices)].lookup(line)
            if hit is not None:
                return AccessOutcome(hit.version, latency, False, "l1")

        node = op.node
        nflat = node.gpu * self._gpms_per_gpu + node.gpm
        local = self.l2[nflat]
        may_hit_local = cacheable and (
            op.scope == CTA or node == home
        )
        if may_hit_local:
            self.l2_bytes_per_gpm[nflat] += self._line_size
            latency += self._l2_hit_lat
            entry = local.lookup(line)
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
        if cacheable:
            victim = local.fill(line, version, remote=True)
            self._handle_l2_victim(op.node, victim)
            self._l2_touch(op.node, self._line_size)
            self._l1_fill(op, line, version, remote=True)
        return AccessOutcome(version, latency, False, level)

    def _store(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        home = self.sys_home(line, op.node)
        cacheable = self._cacheable(home, op.node)
        version = self._new_version()
        payload = min(op.size, self._line_size)
        lat = self._lat
        latency = self._l1_hit_lat

        if cacheable:
            self._l1_store(op, line, version, remote=home != op.node)
            nflat = op.node.gpu * self._gpms_per_gpu + op.node.gpm
            local = self.l2[nflat]
            self.l2_bytes_per_gpm[nflat] += payload
            victim = local.write(line, version, dirty=op.node == home,
                                 remote=home != op.node)
            self._handle_l2_victim(op.node, victim)
            latency += self._l2_hit_lat

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
        home = self.sys_home(line, op.node)
        version = self._new_version()
        latency = self._l2_hit_lat
        if op.node != home:
            self.send(ATOMIC_REQ, op.node, home, line, payload=16)
            self.send(ATOMIC_RESP, home, op.node, line)
            latency += self.rtt(op.node, home)
        self._home_store(home, line, version, self._line_size)
        return AccessOutcome(version, latency, exposed=False)

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == CTA:
            out = self._load(op)
            out.exposed = True
            return out
        slices = self.l1[self.flat(op.node)]
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, op.cta % len(slices)
        )
        self._drop_remote_l2(op.node)
        out = self._load(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _drop_remote_l2(self, node: NodeId) -> None:
        """Drop intra-GPU remote lines from a GPM's L2 (software
        coherence within the GPU)."""
        flat = self.flat(node)
        self.stats.lines_inv_by_acquire += len(
            self.l2[flat].invalidate_remote())
        self.bulk_invs_per_gpm[flat] += 1

    def _release(self, op: MemOp) -> AccessOutcome:
        out = self._store(op)
        if op.scope == CTA:
            out.exposed = True
            return out
        if self.cfg.num_gpus > 1:
            stall = 2.0 * self.cfg.latency.inter_gpu_hop
        else:
            stall = 2.0 * self.cfg.latency.inter_gpm_hop
        return AccessOutcome(0, out.latency + stall, exposed=True)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        if self.cfg.num_gpus > 1:
            stall = 2.0 * self.cfg.latency.inter_gpu_hop
        else:
            stall = 2.0 * self.cfg.latency.inter_gpm_hop
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(op.node)
        self._drop_remote_l2(op.node)
        latency = stall + self.cfg.timing.bulk_invalidate_cycles
        return AccessOutcome(0, latency, exposed=True)
