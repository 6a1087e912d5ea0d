"""Idealized caching without coherence enforcement.

The paper's loose performance upper bound: data is cached hierarchically
exactly as under HMG, but coherence is *free* — a store instantly and
silently removes every other cached copy (no invalidation messages, no
directory, no acknowledgments), loads may hit in any cache regardless of
scope, and synchronization costs nothing beyond kernel-launch
serialization.  The bound therefore still pays the fundamental data
movement (freshly-produced data must still travel), but none of the
protocol overhead; HMG's "97% of ideal" claim is measured against
exactly this definition.
"""

from __future__ import annotations

from repro.core.protocol import AccessOutcome, CoherenceProtocol
from repro.core.types import CTA, DATA_RESP, LOAD_REQ, STORE_REQ, MemOp, NodeId


class IdealProtocol(CoherenceProtocol):
    """Hierarchical caching with zero coherence overhead."""

    name = "ideal"
    label = "Idealized Caching w/o Coherence"
    has_directory = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Conservative copy index for _magic_invalidate: line -> set of
        # caches that *may* hold it.  Every fill path below registers
        # the target cache; silent evictions leave stale entries behind,
        # which is safe because invalidating an absent line is a free
        # no-op (no state change, no counters).  The alternative —
        # sweeping all L2s and L1 slices on every store — dominated the
        # profile at scale.
        self._copies: dict[int, set] = {}

    def _track(self, cache, line: int) -> None:
        copies = self._copies.get(line)
        if copies is None:
            self._copies[line] = {cache}
        else:
            copies.add(cache)

    def _l1_fill(self, op, line, version, remote):
        sl = self.l1_slice(op)
        sl.fill(line, version, False, remote)
        self._track(sl, line)

    def _l1_store(self, op, line, version, remote):
        sl = self.l1_slice(op)
        sl.write(line, version, False, remote)
        self._track(sl, line)

    def _home_store(self, home: NodeId, line: int, version: int,
                    payload: int) -> None:
        super()._home_store(home, line, version, payload)
        self._track(self.l2[self.flat(home)], line)

    def _magic_invalidate(self, line: int) -> None:
        """Drop every cached copy of a line, for free: no messages, no
        latency, no directory state.  Runs before the store's own fills
        so the writer's path ends up holding only the fresh version."""
        copies = self._copies.pop(line, None)
        if copies:
            for cache in copies:
                cache.invalidate(line)

    def _load(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        ghome, syshome = self.homes(line, op.node)
        lat = self._lat
        latency = self._l1_hit_lat

        # Scope never forces a miss in the idealized model.
        node = op.node
        slices = self.l1[node.gpu * self._gpms_per_gpu + node.gpm]
        hit = slices[op.cta % len(slices)].lookup(line)
        if hit is not None:
            return AccessOutcome(hit.version, latency, False, "l1")

        nflat = node.gpu * self._gpms_per_gpu + node.gpm
        local = self.l2[nflat]
        self.l2_bytes_per_gpm[nflat] += self._line_size
        latency += self._l2_hit_lat
        entry = local.lookup(line)
        if entry is not None:
            self._l1_fill(op, line, entry.version, remote=op.node != syshome)
            return AccessOutcome(entry.version, latency, False, "local_l2")

        if op.node == syshome:
            version = self.dram[self.flat(syshome)].read(line)
            latency += lat.dram_access
            victim = local.fill(line, version, remote=False)
            self._track(local, line)
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
            gentry = self.l2[self.flat(ghome)].lookup(line)
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
                sl2 = self.l2[self.flat(syshome)]
                svictim = sl2.fill(line, version, remote=False)
                self._track(sl2, line)
                self._handle_l2_victim(syshome, svictim)
            self.send(DATA_RESP, syshome, ghome, line)
            if op.node != ghome:
                gl2 = self.l2[self.flat(ghome)]
                gvictim = gl2.fill(line, version, remote=True)
                self._track(gl2, line)
                self._handle_l2_victim(ghome, gvictim)
                self._l2_touch(ghome, self._line_size)
        elif version is None:
            version = self.dram[self.flat(syshome)].read(line)
            latency += lat.dram_access
            sl2 = self.l2[self.flat(syshome)]
            svictim = sl2.fill(line, version, remote=False)
            self._track(sl2, line)
            self._handle_l2_victim(syshome, svictim)

        if op.node != ghome:
            self.send(DATA_RESP, ghome, op.node, line)
        victim = local.fill(line, version, remote=True)
        self._track(local, line)
        self._handle_l2_victim(op.node, victim)
        self._l1_fill(op, line, version, remote=True)
        return AccessOutcome(version, latency, False, level)

    def _store(self, op: MemOp) -> AccessOutcome:
        line = op.address >> self._line_bits
        ghome, syshome = self.homes(line, op.node)
        version = self._new_version()
        payload = min(op.size, self._line_size)
        lat = self._lat
        latency = self._l1_hit_lat + self._l2_hit_lat

        # Free, instant coherence: every stale copy vanishes first.
        self._magic_invalidate(line)
        self._l1_store(op, line, version, remote=op.node != syshome)
        node = op.node
        nflat = node.gpu * self._gpms_per_gpu + node.gpm
        local = self.l2[nflat]
        self.l2_bytes_per_gpm[nflat] += payload
        victim = local.write(line, version, dirty=op.node == syshome,
                             remote=op.node != syshome)
        self._track(local, line)
        self._handle_l2_victim(op.node, victim)

        if op.node != ghome:
            self.send(STORE_REQ, op.node, ghome, line, payload=payload)
            gl2 = self.l2[self.flat(ghome)]
            gvictim = gl2.write(
                line, version, dirty=ghome == syshome,
                remote=ghome != syshome,
            )
            self._track(gl2, line)
            self._handle_l2_victim(ghome, gvictim)
            self._l2_touch(ghome, payload)
        if ghome != syshome:
            self.send(STORE_REQ, ghome, syshome, line, payload=payload)
            self._home_store(syshome, line, version, payload)
        return AccessOutcome(0, latency)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        # Atomics execute at the nearest cached copy — free coherence
        # means no round trip is ever exposed.
        out = self._store(op)
        return AccessOutcome(self._next_version - 1, out.latency,
                             exposed=False)

    def _acquire(self, op: MemOp) -> AccessOutcome:
        # No invalidation, no forced misses: an acquire is a plain load.
        return self._load(op.with_scope(CTA))

    def _release(self, op: MemOp) -> AccessOutcome:
        return self._store(op)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        # Kernel-launch serialization is not a coherence cost: the ideal
        # model pays the same drain round trip as every other protocol
        # (but performs no invalidation and sends no fences).
        if self.cfg.num_gpus > 1:
            stall = 2.0 * self.cfg.latency.inter_gpu_hop
        else:
            stall = 2.0 * self.cfg.latency.inter_gpm_hop
        return AccessOutcome(0, stall, exposed=True)
