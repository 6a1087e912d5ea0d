"""Vectorized batch throughput engine: numpy epoch accounting.

Drop-in alternative to :class:`repro.engine.throughput.ThroughputEngine`
that charges the same resource model (``ResourceTimes`` → overlap-taxed
cycle count) from columnar numpy arrays instead of a per-op Python
dispatch loop.  The scalar engine remains the reference semantics;
``simulate(engine="vectorized")`` (or the default auto dispatch) uses
this path when no sanitizer/tracer is attached.

Accounting splits into two tiers (DESIGN §15):

* **Exact** — everything derivable from the trace and the address map
  alone: op/kind counts, per-GPM issue ops, bulk-invalidate charges,
  store/atomic/release/fence message traffic and latencies, exposed
  synchronization stalls (except the load part of acquires), page
  placement, home mapping, hop classes.  These match the scalar engine
  bit-for-bit (modulo float summation order).
* **Epoch-approximate** — everything that depends on cache/directory
  *state*: load hit levels (and therefore DRAM traffic, LOAD_REQ /
  DATA_RESP messages, L2 byte movement for loads), cache-stat counters
  and directory fan-outs.  The trace is cut into epochs at kernel
  boundary waves (subdivided to a maximum span); within an epoch a
  probe hits when its line was resident at epoch start or any earlier
  same-epoch access left it resident, and capacity/invalidation events
  are folded in at epoch ends.  The differential gate
  (:mod:`repro.engine.equivalence`) bounds the resulting drift per
  field.

No epoch step sorts a whole table or scans the trace: the state tables
(:class:`repro.engine.vec_state.Table`) merge incrementally, and
everything that depends on the trace alone (flash and sweep
last-positions, the directory update order, the L1's in-epoch repeats)
is computed once per run.  The L1 model reads and writes only its own
table, and sw, hsw, nhcc, gpuvi and hmg drive it with the same events
and flashes, so it is replayed once per (prepared trace, L1 geometry,
L1 class) and memoized next to the prepared columns
(:func:`_l1_replay`); noremote and ideal are classes of their own.
Every protocol then runs only its L2 and directory epochs over the
replay's surviving loads.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import batchmap
from repro.core.protocol import ProtocolStats
from repro.core.types import MsgType, OpType, Scope
from repro.engine import vec_state as vs
from repro.engine.stats import SimResult, roll_up
from repro.memsys.cache import CacheStats
from repro.trace.batch import as_batch

#: Registry protocols the vectorized engine can account for.  Anything
#: else (plugin protocols, detailed-engine-only models) falls back to
#: the scalar reference path in ``simulate()``.
VECTORIZED_PROTOCOLS = frozenset(
    {"noremote", "sw", "hsw", "nhcc", "gpuvi", "hmg", "ideal"}
)

_LOAD = int(OpType.LOAD)
_STORE = int(OpType.STORE)
_ATOMIC = int(OpType.ATOMIC)
_ACQUIRE = int(OpType.ACQUIRE)
_RELEASE = int(OpType.RELEASE)
_KB = int(OpType.KERNEL_BOUNDARY)
_CTA = int(Scope.CTA)
_GPU = int(Scope.GPU)
_SYS = int(Scope.SYS)


def _bc(n, idx, weights=None):
    """bincount with a fixed output length."""
    return np.bincount(idx, weights=weights, minlength=n)


class _Traffic:
    """Vectorized twin of ``Protocol.send`` + ``ThroughputSink``:
    message count/byte tallies plus crossbar/link routing."""

    __slots__ = ("counts", "bytes", "xbar", "link_out", "link_in", "gpms")

    def __init__(self, num_gpus: int, gpms_per_gpu: int):
        self.counts = {}
        self.bytes = {}
        self.xbar = np.zeros(num_gpus, np.int64)
        self.link_out = np.zeros(num_gpus, np.int64)
        self.link_in = np.zeros(num_gpus, np.int64)
        self.gpms = gpms_per_gpu

    def _tally(self, mtype, count, nbytes):
        if count:
            self.counts[mtype] = self.counts.get(mtype, 0) + int(count)
            self.bytes[mtype] = self.bytes.get(mtype, 0) + int(nbytes)

    def send(self, mtype, src_flat, dst_flat, size=None, sizes=None,
             counts=None):
        """Emit messages between (src, dst) pairs: one of ``size`` bytes
        per pair, one of ``sizes[i]`` bytes, or (with ``counts``)
        ``counts[i]`` identical messages of ``size`` bytes.  Like the
        scalar engine, messages are tallied even when src == dst, but
        only src != dst traffic occupies the crossbar/links."""
        n = src_flat.size
        if n == 0:
            return
        if counts is not None:
            sizes = counts * size
            self._tally(mtype, int(counts.sum()), int(sizes.sum()))
        elif sizes is None:
            self._tally(mtype, n, n * size)
        else:
            self._tally(mtype, n, int(sizes.sum()))
        moving = src_flat != dst_flat
        if not moving.any():
            return
        src = src_flat[moving]
        dst = dst_flat[moving]
        w = None if sizes is None else sizes[moving]
        sg = src // self.gpms
        dg = dst // self.gpms
        ng = self.xbar.size
        if w is None:
            self.xbar += _bc(ng, sg) * size
            cross = sg != dg
            if cross.any():
                self.xbar += _bc(ng, dg[cross]) * size
                self.link_out += _bc(ng, sg[cross]) * size
                self.link_in += _bc(ng, dg[cross]) * size
        else:
            self.xbar += _bc(ng, sg, w).astype(np.int64)
            cross = sg != dg
            if cross.any():
                wc = w[cross]
                self.xbar += _bc(ng, dg[cross], wc).astype(np.int64)
                self.link_out += _bc(ng, sg[cross], wc).astype(np.int64)
                self.link_in += _bc(ng, dg[cross], wc).astype(np.int64)


class _Prep:
    """Per-(geometry, placement) derived columns of one trace, plus the
    memoized L1 replays over them (``l1``, see :func:`_l1_replay`)."""

    __slots__ = (
        "n", "line", "sector", "sh", "gh", "pay", "sl", "sc", "kind",
        "size", "hop_nh", "cuts", "byk", "upages", "owners", "l1",
    )


def _prepare(batch, cfg, placement: str,
             cta_atomics_place: bool = False) -> _Prep:
    """Build (and memoize on the batch) the engine's derived columns:
    line/sector indices, page placement, system/GPU homes, hop classes,
    L1 slice units, per-kind index lists and epoch cuts.

    ``cta_atomics_place`` mirrors a scalar subtlety: every protocol
    except ``ideal`` satisfies CTA-scope atomics entirely in the L1 and
    never consults the page table, so under first-touch placement such
    an atomic must not place its page; ``ideal`` routes atomics through
    its store path and does.

    The memo key names every ``cfg`` field read here, the hop
    latencies behind ``hop_nh`` included."""
    amap_key = (cfg.line_size, cfg.dir_lines_per_entry, cfg.page_size,
                cfg.num_gpus, cfg.gpms_per_gpu, cfg.l1_slices_per_gpm,
                cfg.latency.inter_gpm_hop, cfg.latency.inter_gpu_hop,
                placement, cta_atomics_place)
    hit = batch.prepared.get(amap_key)
    if hit is not None:
        return hit
    p = _Prep()
    G = cfg.gpms_per_gpu
    line_bits = cfg.line_size.bit_length() - 1
    p.kind = batch.kind.astype(np.int64)
    p.sc = batch.scope.astype(np.int64)
    p.size = batch.size
    p.n = batch.gpu * G + batch.gpm
    p.line = batchmap.lines_of(batch.address, line_bits)
    page = batchmap.pages_of_lines(p.line, cfg.lines_per_page)
    p.sector = batchmap.sectors_of_lines(p.line, cfg.dir_lines_per_entry)
    eligible = p.kind != _KB
    if not cta_atomics_place:
        eligible &= ~((p.kind == _ATOMIC) & (p.sc == _CTA))
    p.upages, p.owners = batchmap.placement_owners(
        placement, page, p.n, p.kind, _KB, cfg.num_gpus, G,
        eligible=eligible,
    )
    p.sh = batchmap.owners_of_pages(p.upages, p.owners, page)
    home_gpm = batchmap.home_gpm_of_sectors(p.sector, G)
    p.gh = np.where(p.sh // G == batch.gpu, p.sh, batch.gpu * G + home_gpm)
    p.pay = np.minimum(p.size, cfg.line_size)
    p.sl = p.n * cfg.l1_slices_per_gpm + batch.cta % cfg.l1_slices_per_gpm
    same_gpu = p.n // G == p.sh // G
    p.hop_nh = np.where(
        p.n == p.sh, 0,
        np.where(same_gpu, cfg.latency.inter_gpm_hop,
                 cfg.latency.inter_gpu_hop),
    )
    p.byk = {k: np.flatnonzero(p.kind == k)
             for k in (_LOAD, _STORE, _ATOMIC, _ACQUIRE, _RELEASE, _KB)}
    p.cuts = vs.epoch_bounds(p.byk[_KB], len(batch))
    p.l1 = {}
    batch.prepared[amap_key] = p
    return p


class _Run:
    """Mutable accumulators for one vectorized run."""

    def __init__(self, cfg):
        T = cfg.total_gpms
        self.traffic = _Traffic(cfg.num_gpus, cfg.gpms_per_gpu)
        self.l2_bytes = np.zeros(T, np.int64)
        self.dram_reads = np.zeros(T, np.int64)
        self.dram_writes = np.zeros(T, np.int64)
        self.stall = np.zeros(T, np.float64)
        self.bulk_invs = np.zeros(T, np.int64)
        self.stats = ProtocolStats()
        # Aggregate cache-stat counters (SimResult only ever exposes the
        # merged CacheStats, so per-unit splits are not materialized).
        self.l1 = dict.fromkeys(
            ("hits", "misses", "fills", "evictions", "invalidated_lines",
             "bulk_invalidations"), 0)
        self.l2c = dict.fromkeys(
            ("hits", "misses", "fills", "evictions", "dirty_evictions",
             "invalidated_lines", "bulk_invalidations"), 0)


def _pairs(src, dst_base, width, stride=1):
    """Every (src[i], dst_base[i] + j * stride) pair for j in
    range(width), with the index i of each pair's source."""
    i = np.repeat(np.arange(src.size), width)
    step = np.tile(np.arange(width) * stride, src.size)
    return i, src[i], dst_base[i] + step


def _fence_nhcc(r, cfg, per_src):
    """NHCC/GPU-VI release fences: each source GPM ``s`` sends
    ``per_src[s]`` RELEASE_FENCE + RELEASE_ACK pairs to every other
    GPM.  Returns the farthest ack round trip (the fence latency)."""
    T, G = cfg.total_gpms, cfg.gpms_per_gpu
    srcs = np.flatnonzero(per_src)
    _, s, t = _pairs(srcs, np.zeros(srcs.size, np.int64), T)
    keep = s != t
    s, t = s[keep], t[keep]
    counts = per_src[s]
    sizes = cfg.message_sizes
    r.traffic.send(MsgType.RELEASE_FENCE, s, t, sizes.release_fence,
                   counts=counts)
    r.traffic.send(MsgType.RELEASE_ACK, t, s, sizes.acknowledgment,
                   counts=counts)
    rtts = [0]
    if G > 1:
        rtts.append(2 * cfg.latency.inter_gpm_hop)
    if cfg.num_gpus > 1:
        rtts.append(2 * cfg.latency.inter_gpu_hop)
    return float(max(rtts))


def _fence_hmg(r, cfg, per_src, sys_scope):
    """HMG hierarchical release fences from each source GPM ``s``,
    ``per_src[s]`` times: intra-GPU FENCE/ACK pairs; .sys adds the
    peer-GPU fan-out (one FENCE/ACK per peer GPU, each peer running
    its own inner pairs).  Returns the fence latency."""
    G = cfg.gpms_per_gpu
    sizes = cfg.message_sizes
    srcs = np.flatnonzero(per_src)
    # (fence source, fence target, count); each ACK flows back.
    _, s, t = _pairs(srcs, (srcs // G) * G, G)
    keep = s != t
    legs = [(s[keep], t[keep], per_src[s[keep]])]
    farthest = 2 * cfg.latency.inter_gpm_hop if G > 1 else 0
    if sys_scope:
        _, s, peer = _pairs(srcs, srcs % G, cfg.num_gpus, stride=G)
        keep = peer // G != s // G
        s, peer = s[keep], peer[keep]
        counts = per_src[s]
        legs.append((s, peer, counts))
        if cfg.num_gpus > 1:
            farthest = max(farthest, 2 * cfg.latency.inter_gpu_hop)
        j, p, inner = _pairs(peer, (peer // G) * G, G)
        keep = inner != p
        legs.append((p[keep], inner[keep], counts[j[keep]]))
    src, dst, counts = (np.concatenate(col) for col in zip(*legs))
    r.traffic.send(MsgType.RELEASE_FENCE, src, dst, sizes.release_fence,
                   counts=counts)
    r.traffic.send(MsgType.RELEASE_ACK, dst, src, sizes.acknowledgment,
                   counts=counts)
    return float(farthest)


def _store_latency(name, cfg, p, idx):
    """Unloaded store latency per op (exact for every protocol; only
    GPU-VI replaces it with the hidden-ack term, handled separately)."""
    lat = cfg.latency
    base = float(lat.l1_hit + lat.l2_hit)
    n, sh, gh = p.n[idx], p.sh[idx], p.gh[idx]
    if name == "ideal":
        return np.full(idx.size, base, np.float64)
    if name in ("hsw", "hmg"):
        return (base + (n != gh) * float(lat.inter_gpm_hop)
                + (gh != sh) * float(lat.inter_gpu_hop))
    if name == "noremote":
        cacheable = n // cfg.gpms_per_gpu == sh // cfg.gpms_per_gpu
        return (float(lat.l1_hit) + cacheable * float(lat.l2_hit)
                + (n != sh) * p.hop_nh[idx].astype(np.float64))
    # sw / nhcc / gpuvi: flat home, one-way hop when remote.
    return base + (n != sh) * p.hop_nh[idx].astype(np.float64)


def _static_charges(cfg, p, name, r):
    """Everything state-independent: store/atomic/release/fence/KB
    messages, byte movement, bulk-invalidate charges and exposed
    stalls.  Loads (and the load half of acquires) are the epoch
    loop's job."""
    lat, sizes, timing = cfg.latency, cfg.message_sizes, cfg.timing
    T, G = cfg.total_gpms, cfg.gpms_per_gpu
    tol = timing.latency_tolerance
    tr = r.traffic
    hdr = sizes.request_header
    data_size = sizes.data_payload_extra + cfg.line_size
    multi_gpu = cfg.num_gpus > 1
    sys_fence = float(2 * (lat.inter_gpu_hop if multi_gpu
                           else lat.inter_gpm_hop))
    binv = float(timing.bulk_invalidate_cycles)

    st = p.byk[_STORE]
    at = p.byk[_ATOMIC]
    rl = p.byk[_RELEASE]
    kb = p.byk[_KB]
    at_cta = at[p.sc[at] == _CTA]
    at_scoped = at[p.sc[at] != _CTA]
    rl_cta = rl[p.sc[rl] == _CTA]
    rl_scoped = rl[p.sc[rl] != _CTA]

    def store_traffic(idx):
        """STORE_REQ chains + store-path L2 byte movement for stores,
        scoped atomics (hier/ideal) and the store half of releases."""
        if idx.size == 0:
            return
        n, sh, gh = p.n[idx], p.sh[idx], p.gh[idx]
        pay = p.pay[idx]
        if name in ("hsw", "hmg", "ideal"):
            r.l2_bytes += _bc(T, n, pay).astype(np.int64)
            m1 = n != gh
            tr.send(MsgType.STORE_REQ, n[m1], gh[m1], sizes=hdr + pay[m1])
            r.l2_bytes += _bc(T, gh[m1], pay[m1]).astype(np.int64)
            m2 = gh != sh
            tr.send(MsgType.STORE_REQ, gh[m2], sh[m2], sizes=hdr + pay[m2])
            r.l2_bytes += _bc(T, sh[m2], pay[m2]).astype(np.int64)
        elif name == "noremote":
            cacheable = n // G == sh // G
            r.l2_bytes += _bc(T, n[cacheable], pay[cacheable]).astype(
                np.int64)
            m = n != sh
            tr.send(MsgType.STORE_REQ, n[m], sh[m], sizes=hdr + pay[m])
            r.l2_bytes += _bc(T, sh[m], pay[m]).astype(np.int64)
        else:  # sw / nhcc / gpuvi
            r.l2_bytes += _bc(T, n, pay).astype(np.int64)
            m = n != sh
            tr.send(MsgType.STORE_REQ, n[m], sh[m], sizes=hdr + pay[m])
            r.l2_bytes += _bc(T, sh[m], pay[m]).astype(np.int64)

    store_traffic(st)
    store_traffic(rl)  # every release performs its store first

    # -- atomics -------------------------------------------------------
    if name in ("hsw", "hmg"):
        store_traffic(at_scoped)
        n, sh, gh = p.n[at_scoped], p.sh[at_scoped], p.gh[at_scoped]
        target = np.where(p.sc[at_scoped] == _GPU, gh, sh)
        m = n != target
        tr.send(MsgType.ATOMIC_RESP, target[m], n[m], size=hdr)
    elif name == "ideal":
        store_traffic(at)  # ideal atomics run the full store at any scope
    elif at_scoped.size:
        # Flat protocols: request/response to the system home; the home
        # applies a full-line store.  NHCC additionally caches the
        # response locally (one extra line of L2 movement).
        n, sh = p.n[at_scoped], p.sh[at_scoped]
        m = n != sh
        tr.send(MsgType.ATOMIC_REQ, n[m], sh[m], size=hdr + 16)
        tr.send(MsgType.ATOMIC_RESP, sh[m], n[m], size=hdr)
        r.l2_bytes += _bc(T, sh) * cfg.line_size
        if name in ("nhcc", "gpuvi"):
            r.l2_bytes += _bc(T, n[m]) * cfg.line_size

    # CTA atomics are satisfied in the L1 and expose their latency.
    if name != "ideal" and at_cta.size:
        r.stall += _bc(T, p.n[at_cta]) * (float(lat.l1_hit) / tol)

    # -- releases ------------------------------------------------------
    if name != "ideal":
        if rl_cta.size:
            r.stall += _bc(T, p.n[rl_cta],
                           _store_latency(name, cfg, p, rl_cta)) / tol
        if rl_scoped.size:
            store_lat = _store_latency(name, cfg, p, rl_scoped)
            if name in ("nhcc", "gpuvi"):
                fence = _fence_nhcc(r, cfg, _bc(T, p.n[rl_scoped]))
                r.stall += _bc(T, p.n[rl_scoped], store_lat + fence) / tol
            elif name == "hmg":
                for scope, mask in ((_GPU, p.sc[rl_scoped] == _GPU),
                                    (_SYS, p.sc[rl_scoped] == _SYS)):
                    sel = rl_scoped[mask]
                    if sel.size == 0:
                        continue
                    fence = _fence_hmg(r, cfg, _bc(T, p.n[sel]),
                                       scope == _SYS)
                    r.stall += _bc(T, p.n[sel],
                                   _store_latency(name, cfg, p, sel)
                                   + fence) / tol
            elif name == "hsw":
                stall_c = np.where(
                    (p.sc[rl_scoped] == _GPU) | (not multi_gpu),
                    float(2 * lat.inter_gpm_hop), float(2 * lat.inter_gpu_hop))
                r.stall += _bc(T, p.n[rl_scoped], store_lat + stall_c) / tol
            else:  # sw / noremote: flat drain to the farthest GPM
                r.stall += _bc(T, p.n[rl_scoped],
                               store_lat + sys_fence) / tol

    # -- kernel boundaries ---------------------------------------------
    if kb.size:
        nkb = p.n[kb]
        if name in ("nhcc", "gpuvi", "hmg"):
            per_src = _bc(T, nkb)
            fence = (_fence_hmg(r, cfg, per_src, True) if name == "hmg"
                     else _fence_nhcc(r, cfg, per_src))
            r.stall += _bc(T, nkb) * ((fence + binv) / tol)
            r.bulk_invs += _bc(T, nkb) * cfg.l1_slices_per_gpm
            r.l1["bulk_invalidations"] += kb.size * cfg.l1_slices_per_gpm
        elif name == "ideal":
            r.stall += _bc(T, nkb) * (sys_fence / tol)
        else:  # sw / hsw / noremote: drain + L1 flash + own-L2 sweep
            r.stall += _bc(T, nkb) * ((sys_fence + binv) / tol)
            r.bulk_invs += _bc(T, nkb) * (cfg.l1_slices_per_gpm + 1)
            r.l1["bulk_invalidations"] += kb.size * cfg.l1_slices_per_gpm
            r.l2c["bulk_invalidations"] += kb.size

    # -- acquires (flash part; the load part is epoch work) ------------
    aq = p.byk[_ACQUIRE]
    aq_scoped = aq[p.sc[aq] != _CTA] if name != "ideal" else aq[:0]
    if aq_scoped.size:
        naq = p.n[aq_scoped]
        r.l1["bulk_invalidations"] += aq_scoped.size
        if name in ("sw", "noremote"):
            r.bulk_invs += _bc(T, naq) * 2  # L1 slice + own-L2 sweep
            r.l2c["bulk_invalidations"] += aq_scoped.size
        elif name == "hsw":
            gpu_scope = p.sc[aq_scoped] == _GPU
            r.bulk_invs += _bc(T, naq[gpu_scope]) * 2
            r.l2c["bulk_invalidations"] += int(gpu_scope.sum())
            sys_sel = naq[~gpu_scope]
            if sys_sel.size:
                # .sys sweeps every L2 of the issuing GPU.
                r.bulk_invs += _bc(T, sys_sel)  # the L1 slice flash
                gpu0 = (sys_sel // G) * G
                for m in range(G):
                    r.bulk_invs += _bc(T, gpu0 + m)
                r.l2c["bulk_invalidations"] += sys_sel.size * G
        else:  # nhcc / gpuvi / hmg flash only the issuing L1 slice
            r.bulk_invs += _bc(T, naq)

    # -- per-kind op counters (all exact) ------------------------------
    s = r.stats
    s.loads = int(p.byk[_LOAD].size)
    s.stores = int(st.size)
    s.atomics = int(at.size)
    s.acquires = int(aq.size)
    s.releases = int(rl.size)
    s.kernel_boundaries = int(kb.size)
    for kind, count in (
        (OpType.LOAD, s.loads), (OpType.STORE, s.stores),
        (OpType.ATOMIC, s.atomics), (OpType.ACQUIRE, s.acquires),
        (OpType.RELEASE, s.releases), (OpType.KERNEL_BOUNDARY,
                                       s.kernel_boundaries),
    ):
        if count:
            s.op_counts[kind] = count


# ---------------------------------------------------------------------------
# Epoch machinery
# ---------------------------------------------------------------------------

def _or_key_reduce(keys, vals):
    """(sorted unique keys, OR of vals per key)."""
    order = np.argsort(keys)
    k, v = keys[order], vals[order]
    first = np.empty(k.size, bool)
    first[0] = True
    first[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(first)
    return k[starts], np.bitwise_or.reduceat(v, starts)


def _lookup_val(sorted_keys, vals, query):
    """Payload of each query key in a sorted table (0 when absent)."""
    out = np.zeros(query.size, np.int64)
    idx, hit = vs.locate(sorted_keys, query)
    out[hit] = vals[idx[hit]]
    return out


def _stale(pos, owner, units, last):
    """Mask of table entries touched before the last event of their
    owner (a unit or a line) in the sorted ``units`` / ``last`` pair."""
    idx, found = vs.locate(units, owner)
    return found & (pos < last[idx])


def _set_bits(masks, width, shift=0):
    """(event index, bit - shift) of every set bit of ``masks`` in
    ``[shift, shift + width)``."""
    bits = (masks[:, None] >> (np.arange(width) + shift)) & 1
    return np.nonzero(bits)


def _set_of(set_fn, sets):
    """A table's ``set_of``: key -> combined (unit, set) id."""
    return lambda keys: (vs.units_of(keys) * sets
                         + set_fn(vs.items_of(keys), sets))


def _epoch_spans(*ends):
    """Per epoch, one ``slice`` into each event stream, given every
    stream's per-epoch end offsets."""
    starts = (0,) * len(ends)
    for row in zip(*(np.asarray(e).tolist() for e in ends)):
        yield tuple(slice(a, b) for a, b in zip(starts, row))
        starts = row


class _L1Replay:
    """One L1 replay over a prepared trace: the load-class ops that
    continue to the L2 (``alive``, one sorted index array cut per epoch
    by ``off``), the L1 counters and the L1 share of
    ``lines_inv_by_acquire``."""

    __slots__ = ("alive", "off", "counts", "inv_by_acquire")


def _l1_replay(cfg, p, name) -> _L1Replay:
    """Replay the L1 slices over the whole trace, epoch by epoch, once
    per (prepared trace, L1 geometry, L1 class), memoized in ``p.l1``.

    sw, hsw, nhcc, gpuvi and hmg probe only CTA-scoped loads and flash
    on scoped acquires and kernel boundaries, so they share one replay;
    noremote (L1 caching of GPU-local data only) and ideal (every load
    probes; stores wipe other copies for free) are classes of their
    own.  The L1 reads and writes nothing but its own table, so the
    replay runs ahead of every protocol's L2 epochs."""
    cls = name if name in ("ideal", "noremote") else "scoped"
    key = (cfg.l1_bytes_per_slice, cfg.l1_ways, cls)
    hit = p.l1.get(key)
    if hit is not None:
        return hit
    G, cuts = cfg.gpms_per_gpu, p.cuts
    kind, sc, n = p.kind, p.sc, p.n
    lm = (kind == _LOAD) | (kind == _ACQUIRE)
    stm = (kind == _STORE) | (kind == _RELEASE)
    atm = kind == _ATOMIC
    cta = sc == _CTA

    # L1 residency events (loads fill on the way back; stores and CTA
    # atomics write through the L1) and probe gating.
    if cls == "ideal":
        probe, gate, l1st = lm, lm, stm | atm
    elif cls == "noremote":
        cacheable = n // G == p.sh // G
        probe = lm & cta & cacheable
        gate = lm & cacheable
        l1st = (stm & cacheable) | (atm & cta)
    else:
        probe, gate, l1st = lm & cta, lm, stm | (atm & cta)
    idx = np.flatnonzero(gate | l1st)
    keys = vs.make_keys(p.sl[idx], p.line[idx])
    probe = probe[idx]
    # Same-epoch repeats for the whole trace in one sort.
    prior = vs.has_prior(keys, idx, np.searchsorted(cuts, idx, "right"))

    # Software L1 slice flashes (ideal has none); ideal's oracle
    # instead wipes every other copy of each stored line.
    if cls == "ideal":
        mi = np.flatnonzero(stm | atm)
        flash, magic = None, vs.EpochLast(cuts, p.line[mi], mi)
    else:
        aqs = p.byk[_ACQUIRE]
        aqs = aqs[sc[aqs] != _CTA]
        kb = p.byk[_KB]
        S = cfg.l1_slices_per_gpm
        kb_slices = (n[kb][:, None] * S + np.arange(S)).ravel()
        flash = vs.EpochLast(cuts, np.concatenate([p.sl[aqs], kb_slices]),
                             np.concatenate([aqs, np.repeat(kb, S)]))
        magic = None

    sets = cfg.l1_bytes_per_slice // cfg.line_size // cfg.l1_ways
    tab = vs.Table(_set_of(batchmap.cache_set_of, sets), cfg.l1_ways)
    c = dict.fromkeys(("hits", "misses", "fills", "evictions",
                       "invalidated_lines"), 0)
    inv_by_acquire = 0
    l1hit = np.zeros(kind.size, bool)
    for e, (ev,) in enumerate(_epoch_spans(np.searchsorted(idx, cuts))):
        if ev.stop > ev.start:
            ekeys, eidx, eprobe = keys[ev], idx[ev], probe[ev]
            resident = vs.member(tab.keys, ekeys) | prior[ev]
            phit = resident[eprobe]
            hits = int(np.count_nonzero(phit))
            c["hits"] += hits
            c["misses"] += int(phit.size) - hits
            l1hit[eidx[eprobe][phit]] = True
            c["fills"] += int(np.count_nonzero(tab.merge(ekeys, eidx)))
        c["evictions"] += int(tab.capacity_evict()[0].size)
        if flash is not None:
            units, last = flash.epoch(e)
            if units.size and tab.keys.size:
                cnt = tab.drop(_stale(tab.pos, vs.units_of(tab.keys),
                                      units, last))
                c["invalidated_lines"] += cnt
                inv_by_acquire += cnt
        if magic is not None:
            lines, last = magic.epoch(e)
            if lines.size and tab.keys.size:
                c["invalidated_lines"] += tab.drop(_stale(
                    tab.pos, vs.items_of(tab.keys), lines, last))

    out = _L1Replay()
    alive = np.flatnonzero(lm & ~l1hit)
    # Half the memo's footprint: op positions fit 32 bits in practice.
    out.alive = alive.astype(np.int32) if kind.size < 2**31 else alive
    out.off = np.concatenate([[0], np.searchsorted(out.alive, cuts)])
    out.counts = c
    out.inv_by_acquire = inv_by_acquire
    p.l1[key] = out
    return out


class _EpochSim:
    """State-dependent accounting: the trace is replayed epoch by epoch
    over global sorted-key tables (one per structure class), behind the
    memoized L1 replay."""

    def __init__(self, cfg, p, name, r):
        self.cfg, self.p, self.name, self.r = cfg, p, name, r
        self.T, self.G = cfg.total_gpms, cfg.gpms_per_gpu
        self.LS = cfg.line_size
        self.SPL = cfg.dir_lines_per_entry
        l2_sets = cfg.l2_bytes_per_gpm // self.LS // cfg.l2_ways
        dir_sets = cfg.dir_entries_per_gpm // cfg.dir_ways
        self.hier = name in ("hsw", "hmg", "ideal")
        self.has_dir = name in ("nhcc", "gpuvi", "hmg")
        self.l2_tab = vs.Table(_set_of(batchmap.cache_set_of, l2_sets),
                               cfg.l2_ways)
        self.dir_tab = vs.Table(_set_of(batchmap.dir_set_of, dir_sets),
                                cfg.dir_ways)

        kind, sc, n = p.kind, p.sc, p.n
        stm = (kind == _STORE) | (kind == _RELEASE)
        atm = kind == _ATOMIC
        cta = sc == _CTA
        at_sc = atm & ~cta
        cacheable = (n // self.G) == (p.sh // self.G)
        self.cacheable = cacheable

        # Store-path L2 residency events, tagged dirty at the system
        # home (the only unit the scalar protocols ever dirty).
        units, lines, poss, dirt = [], [], [], []

        def add_st(mask, unit_arr):
            idx = np.flatnonzero(mask)
            units.append(unit_arr[idx])
            lines.append(p.line[idx])
            poss.append(idx)
            dirt.append((unit_arr[idx] == p.sh[idx]).astype(np.int64))

        if self.hier:
            ops2 = stm | (atm if name == "ideal" else at_sc)
            add_st(ops2, n)
            add_st(ops2 & (n != p.gh), p.gh)
            add_st(ops2 & (p.gh != p.sh), p.sh)
        elif name == "noremote":
            add_st(stm & cacheable, n)
            add_st(stm & (n != p.sh), p.sh)
            add_st(at_sc, p.sh)
        else:  # sw / nhcc / gpuvi
            add_st(stm, n)
            add_st(stm & (n != p.sh), p.sh)
            add_st(at_sc, p.sh)
            if name in ("nhcc", "gpuvi"):
                add_st(at_sc & (n != p.sh), n)
        sp = np.concatenate(poss)
        order = np.argsort(sp, kind="stable")
        su = np.concatenate(units)[order]
        self.st_pos = sp[order]
        self.st_keys = vs.make_keys(su, np.concatenate(lines)[order])
        self.st_val = np.concatenate(dirt)[order]

        # Directory update events: one per store-path op per tier.
        if self.has_dir:
            ops_u = stm | at_sc
            if name == "hmg":
                i1 = np.flatnonzero(ops_u)
                i2 = np.flatnonzero(ops_u & (p.gh != p.sh))
                uk = np.concatenate([
                    vs.make_keys(p.gh[i1], p.sector[i1]),
                    vs.make_keys(p.sh[i2], p.sector[i2]),
                ])
                me = np.concatenate([
                    np.where(n[i1] == p.gh[i1], 0,
                             np.int64(1) << (n[i1] % self.G)),
                    np.int64(1) << (32 + n[i2] // self.G),
                ])
                hl = np.concatenate([
                    n[i1] == p.gh[i1], np.zeros(i2.size, bool)])
                upos = np.concatenate([i1, i2])
            else:
                i1 = np.flatnonzero(ops_u)
                uk = vs.make_keys(p.sh[i1], p.sector[i1])
                me = np.where(n[i1] == p.sh[i1], 0, np.int64(1) << n[i1])
                hl = n[i1] == p.sh[i1]
                upos = i1
            # Replay order: by epoch, then sector, then position.
            ep = np.searchsorted(p.cuts, upos, side="right")
            order = np.lexsort((upos, uk, ep))
            self.up_ends = np.searchsorted(ep[order], np.arange(p.cuts.size),
                                           side="right")
            self.up_pos = upos[order]
            self.up_key, self.up_me, self.up_hl = (
                uk[order], me[order], hl[order])
            src = self.up_pos  # op index == event position
            self.up_kind = kind[src]
            self.up_n = n[src]
            self.up_hop = p.hop_nh[src].astype(np.float64)

        # Predicate-classed L2 sweeps, applied position-aware at epoch
        # ends: class -> per-epoch (unit, last sweep position) tables.
        aqs = p.byk[_ACQUIRE]
        aqs = aqs[sc[aqs] != _CTA]
        kb = p.byk[_KB]
        sweeps = {}
        if name in ("sw", "noremote"):
            both = np.concatenate([aqs, kb])
            sweeps[0] = (p.n[both], both)
        elif name == "hsw":
            aq_gpu = aqs[sc[aqs] == _GPU]
            aq_sys = aqs[sc[aqs] == _SYS]
            sweeps[1] = (p.n[aq_gpu], aq_gpu)
            self_ev = np.concatenate([aq_sys, kb])
            sweeps[2] = (p.n[self_ev], self_ev)
            if aq_sys.size:
                # .sys acquires also sweep the *other* GPMs of the GPU.
                tgt = ((p.n[aq_sys] // self.G)[:, None] * self.G
                       + np.arange(self.G))
                keep = tgt != p.n[aq_sys][:, None]
                sweeps[3] = (tgt[keep], np.repeat(aq_sys, self.G - 1))
        self.sweeps = {cls: vs.EpochLast(p.cuts, unit, pos)
                       for cls, (unit, pos) in sweeps.items()}

        # Ideal's oracle invalidation: every store wipes all other
        # copies of its line machine-wide, at zero cost.
        self.magic = None
        if name == "ideal":
            mi = np.flatnonzero(stm | atm)
            self.magic = vs.EpochLast(p.cuts, p.line[mi], mi)

    # -- per-epoch passes ----------------------------------------------

    def run(self):
        p = self.p
        l1 = _l1_replay(self.cfg, p, self.name)
        for counter, value in l1.counts.items():
            self.r.l1[counter] += value
        self.r.stats.lines_inv_by_acquire += l1.inv_by_acquire
        spans = _epoch_spans(
            l1.off[1:], np.searchsorted(self.st_pos, p.cuts),
            np.searchsorted(p.byk[_ACQUIRE], p.cuts),
            self.up_ends if self.has_dir else p.cuts)
        for e, (ld, st, aq, up) in enumerate(spans):
            ev_keys, ev_pos, ev_val, adds = self._l2_pass(
                l1.alive[ld], st, p.byk[_ACQUIRE][aq])
            was_new = self.l2_tab.merge(ev_keys, ev_pos, ev_val)
            self.r.l2c["fills"] += int(np.count_nonzero(was_new))
            if self.has_dir:
                self._dir_pass(up, adds)
            # Capacity first: the scalar engines evict continuously, so
            # by the time an epoch-ending flash lands only the surviving
            # working set is resident to be invalidated.
            self._capacity()
            self._sweeps(e)
            self._magic(e)

    def _l2_pass(self, al, st, aq):
        """Chase the epoch's surviving loads (positions ``al``, from the
        L1 replay) down the cache/home hierarchy; ``st`` slices the
        epoch's store-path events and ``aq`` lists its acquires.

        Returns the epoch's combined L2 residency events (store-path
        plus load fills) and the directory sharer-registration adds.
        """
        cfg, p, name, r = self.cfg, self.p, self.name, self.r
        T, G, LS = self.T, self.G, self.LS
        tr = r.traffic
        hdr = cfg.message_sizes.request_header
        data_size = cfg.message_sizes.data_payload_extra + LS
        l2h, dramlat = float(cfg.latency.l2_hit), float(cfg.latency.dram_access)
        hop_gpm = 2.0 * cfg.latency.inter_gpm_hop
        hop_gpu = 2.0 * cfg.latency.inter_gpu_hop

        # Membership against table state + all earlier epoch events; the
        # probes join the stream (they leave the line resident either
        # way).
        stream = vs.EpochStream(self.l2_tab.keys, self.st_keys[st],
                                self.st_pos[st], self.st_val[st])
        probe = stream.probe
        adds = []

        n, line, sh, gh = p.n[al], p.line[al], p.sh[al], p.gh[al]
        sc = p.sc[al]
        lat = np.full(al.size, float(cfg.latency.l1_hit))

        # -- local stage ----------------------------------------------
        if name == "noremote":
            locm = self.cacheable[al]
            may = locm & ((sc == _CTA) | (n == sh))
            res = np.zeros(al.size, bool)
            if locm.any():
                res[locm] = probe(vs.make_keys(n[locm], line[locm]), al[locm])
            lhit = may & res
            r.l2_bytes += _bc(T, n[may]) * LS
            lat[may] += l2h
            r.l2c["hits"] += int(np.count_nonzero(lhit))
            r.l2c["misses"] += int(np.count_nonzero(may) -
                                   np.count_nonzero(lhit))
        else:
            if name in ("sw", "nhcc", "gpuvi"):
                may = (sc == _CTA) | (n == sh)
            elif name == "ideal":
                may = np.ones(al.size, bool)
            else:  # hsw / hmg scope gating
                may = ((sc == _CTA)
                       | ((sc == _GPU) & ((n == gh) | (n == sh)))
                       | ((sc == _SYS) & (n == sh)))
            res = probe(vs.make_keys(n, line), al)
            lhit = may & res
            r.l2_bytes += _bc(T, n) * LS
            lat += l2h
            r.l2c["hits"] += int(np.count_nonzero(lhit))
            r.l2c["misses"] += int(al.size - np.count_nonzero(lhit))

        miss = ~lhit
        m0 = miss & (n == sh)
        r.dram_reads += _bc(T, n[m0]) * LS
        lat[m0] += dramlat

        if not self.hier:
            rm = np.flatnonzero(miss & (n != sh))
            if rm.size:
                nr, shr, liner = n[rm], sh[rm], line[rm]
                r.stats.remote_gpu_loads += int(np.count_nonzero(
                    nr // G != shr // G))
                tr.send(MsgType.LOAD_REQ, nr, shr, size=hdr)
                r.l2_bytes += _bc(T, shr) * LS
                lat[rm] += 2.0 * p.hop_nh[al[rm]].astype(np.float64) + l2h
                hh = probe(vs.make_keys(shr, liner), al[rm])
                r.l2c["hits"] += int(np.count_nonzero(hh))
                r.l2c["misses"] += int(hh.size - np.count_nonzero(hh))
                hm = ~hh
                r.dram_reads += _bc(T, shr[hm]) * LS
                lat[rm[hm]] += dramlat
                tr.send(MsgType.DATA_RESP, shr, nr, size=data_size)
                if name in ("nhcc", "gpuvi"):
                    r.l2_bytes += _bc(T, nr) * LS
                    adds.append((vs.make_keys(shr, p.sector[al[rm]]),
                                 np.int64(1) << nr, al[rm]))
                elif name == "noremote":
                    cr = nr // G == shr // G
                    r.l2_bytes += _bc(T, nr[cr]) * LS
        else:
            t1m = miss & (n != sh) & (n != gh)
            t1 = np.flatnonzero(t1m)
            t1hit = np.zeros(al.size, bool)
            if t1.size:
                nt, gt = n[t1], gh[t1]
                tr.send(MsgType.LOAD_REQ, nt, gt, size=hdr)
                r.l2_bytes += _bc(T, gt) * LS
                lat[t1] += hop_gpm + l2h
                ghit = probe(vs.make_keys(gt, line[t1]), al[t1])
                if name != "ideal":
                    # Non-ideal .sys loads never hit a non-home GPU copy.
                    ghit &= ~((sc[t1] == _SYS) & (gt != sh[t1]))
                r.l2c["hits"] += int(np.count_nonzero(ghit))
                r.l2c["misses"] += int(ghit.size - np.count_nonzero(ghit))
                t1hit[t1[ghit]] = True
                if name == "hmg":
                    adds.append((vs.make_keys(gt, p.sector[al[t1]]),
                                 np.int64(1) << (nt % G), al[t1]))
            t2 = np.flatnonzero(miss & (n != sh) & (gh != sh)
                                & ((n == gh) | (t1m & ~t1hit)))
            if t2.size:
                gt2, st2 = gh[t2], sh[t2]
                r.stats.remote_gpu_loads += t2.size
                tr.send(MsgType.LOAD_REQ, gt2, st2, size=hdr)
                r.l2_bytes += _bc(T, st2) * LS
                lat[t2] += hop_gpu + l2h
                shit = probe(vs.make_keys(st2, line[t2]), al[t2])
                r.l2c["hits"] += int(np.count_nonzero(shit))
                r.l2c["misses"] += int(shit.size - np.count_nonzero(shit))
                sm = ~shit
                r.dram_reads += _bc(T, st2[sm]) * LS
                lat[t2[sm]] += dramlat
                tr.send(MsgType.DATA_RESP, st2, gt2, size=data_size)
                mg = n[t2] != gt2
                r.l2_bytes += _bc(T, gt2[mg]) * LS
                if name == "hmg":
                    adds.append((vs.make_keys(st2, p.sector[al[t2]]),
                                 np.int64(1) << (32 + n[t2] // G), al[t2]))
            m3 = t1m & ~t1hit & (gh == sh)
            r.dram_reads += _bc(T, sh[m3]) * LS
            lat[m3] += dramlat
            if t1.size:
                tr.send(MsgType.DATA_RESP, gh[t1], n[t1], size=data_size)

        # Acquires expose their load latency (+ the flash charge when
        # scoped); plain loads never stall the issue pipeline.
        if name != "ideal" and aq.size:
            lat_aq = np.full(aq.size, float(cfg.latency.l1_hit))
            at, chased = vs.locate(al, aq)  # acquires that missed the L1
            lat_aq[chased] = lat[at[chased]]
            extra = ((p.sc[aq] != _CTA)
                     * float(cfg.timing.bulk_invalidate_cycles))
            r.stall += _bc(T, p.n[aq], (lat_aq + extra)
                           / cfg.timing.latency_tolerance)
        return (*stream.events(), adds)

    # -- directory pass ------------------------------------------------

    def _dir_pass(self, up, adds):
        """Replay the epoch's sharer registrations (from remote loads)
        and store-side ownership updates against the directory table.

        Within an epoch the first update of a sector sees the start
        state plus every epoch registration at once; later updates of
        the same sector see the previous update's owner (the ping-pong
        approximation of DESIGN §15).
        """
        cfg, r = self.cfg, self.r
        if adds:
            ak = np.concatenate([k for k, _, _ in adds])
            av = np.concatenate([v for _, v, _ in adds])
            apos = np.concatenate([q for _, _, q in adds])
            aku, avu = _or_key_reduce(ak, av)
        else:
            ak = av = apos = aku = avu = np.empty(0, np.int64)
        prov = None
        if self.name == "hmg":
            pk = np.concatenate([self.dir_tab.keys, aku])
            pv = np.concatenate([self.dir_tab.val, avu])
            prov = _or_key_reduce(pk, pv) if pk.size else (pk, pv)

        removed = []
        if up.stop > up.start:
            ku, qu = self.up_key[up], self.up_pos[up]
            me_o, hl_o = self.up_me[up], self.up_hl[up]
            first = np.empty(ku.size, bool)
            first[0] = True
            first[1:] = ku[1:] != ku[:-1]
            start_val = _lookup_val(self.dir_tab.keys, self.dir_tab.val, ku)
            epoch_adds = _lookup_val(aku, avu, ku)
            cur_after = np.where(hl_o, 0, me_o)
            prev_after = np.empty_like(cur_after)
            prev_after[0] = 0
            prev_after[1:] = cur_after[:-1]
            cur_before = np.where(first, start_val | epoch_adds, prev_after)
            others = cur_before & ~me_o
            shared = others != 0
            r.stats.stores_on_shared += int(np.count_nonzero(shared))
            acks = self._fanout(ku[shared], others[shared], "store",
                                prov, removed)
            if self.name == "gpuvi" and acks is not None and acks.size:
                self._gpuvi_stalls(up, shared, acks)
            # Fold the epoch's end state back into the table: the last
            # update of each sector owns it (home-local stores remove
            # the entry outright).
            last = np.empty(ku.size, bool)
            last[:-1] = first[1:]
            last[-1] = True
            end = last & ~hl_o
            self.dir_tab.drop_keys(ku)
            if end.any():
                ak = np.concatenate([ak, ku[end]])
                apos = np.concatenate([apos, qu[end]])
                av = np.concatenate([av, me_o[end]])
        if removed:
            self.dir_tab.drop_keys(np.concatenate(removed))
            removed = []
        if ak.size:
            self.dir_tab.merge(ak, apos, av)
        # Directory capacity: evicted entries with sharers fan out
        # invalidations exactly like stores (Fig 10's traffic source).
        vk, vv = self.dir_tab.capacity_evict()
        live = vv != 0
        if live.any():
            r.stats.dir_evictions += int(np.count_nonzero(live))
            self._fanout(vk[live], vv[live], "evict", prov, removed)
            if removed:
                self.dir_tab.drop_keys(np.unique(np.concatenate(removed)))

    def _sector_keys(self, target_units, sects):
        """L2 table keys of every line of ``sects`` at the targets."""
        SPL = self.SPL
        lines = (sects[:, None] * SPL + np.arange(SPL)).ravel()
        units = np.repeat(target_units, SPL)
        return vs.make_keys(units, lines)

    def _fanout(self, keys, masks, cause, prov, removed):
        """Deliver invalidations for each (directory key, sharer mask)
        event: every set bit becomes one (event, target) pair in a
        single broadcast.  Returns per-event farthest-ack latencies
        for GPU-VI."""
        cfg, r = self.cfg, self.r
        G = self.G
        tr = r.traffic
        inv_sz = cfg.message_sizes.invalidation
        units = vs.units_of(keys)
        sects = vs.items_of(keys)
        victims = []
        acks = None
        if self.name in ("nhcc", "gpuvi"):
            ev, tgt = _set_bits(masks, self.T)
            keep = tgt != units[ev]
            ev, tgt = ev[keep], tgt[keep]
            src = units[ev]
            tr.send(MsgType.INVALIDATION, src, tgt, size=inv_sz)
            victims.append(self._sector_keys(tgt, sects[ev]))
            if self.name == "gpuvi":
                acks = np.zeros(keys.size, np.float64)
                tr.send(MsgType.INV_ACK, tgt, src,
                        size=cfg.message_sizes.acknowledgment)
                rtt = np.where(src // G == tgt // G,
                               2.0 * cfg.latency.inter_gpm_hop,
                               2.0 * cfg.latency.inter_gpu_hop)
                np.maximum.at(acks, ev, rtt)
        else:  # hmg
            ev, bit = _set_bits(masks, G)
            tgt = (units[ev] // G) * G + bit
            keep = tgt != units[ev]
            ev, tgt = ev[keep], tgt[keep]
            tr.send(MsgType.INVALIDATION, units[ev], tgt, size=inv_sz)
            victims.append(self._sector_keys(tgt, sects[ev]))
            ev, gpu = _set_bits(masks, cfg.num_gpus, shift=32)
            if ev.size:
                ssel = sects[ev]
                peer = gpu * G + batchmap.home_gpm_of_sectors(ssel, G)
                tr.send(MsgType.INVALIDATION, units[ev], peer, size=inv_sz)
                victims.append(self._sector_keys(peer, ssel))
                # The peer GPU home forwards to its own GPM sharers and
                # drops its directory entry (Table I's HMG transition).
                pk = vs.make_keys(peer, ssel)
                j, m = _set_bits(_lookup_val(prov[0], prov[1], pk), G)
                inner = gpu[j] * G + m
                fwd = inner != peer[j]
                j, inner = j[fwd], inner[fwd]
                tr.send(MsgType.INVALIDATION, peer[j], inner, size=inv_sz)
                victims.append(self._sector_keys(inner, ssel[j]))
                removed.append(pk)
        dropped = self.l2_tab.drop_keys(np.concatenate(victims))
        if cause == "store":
            r.stats.lines_inv_by_store += dropped
        else:
            r.stats.lines_inv_by_dir_evict += dropped
        r.l2c["invalidated_lines"] += dropped
        return acks

    def _gpuvi_stalls(self, up, shared, acks):
        """Multi-copy-atomic exposure: ops whose store fanned out
        invalidations stall for the farthest ack round trip (hidden by
        the transient-state factor).  Releases already charged their
        unloaded store latency in the static pass; the ack wait
        replaces it."""
        cfg, r = self.cfg, self.r
        hidden = acks / cfg.timing.mca_transient_hiding
        k = self.up_kind[up][shared]
        n = self.up_n[up][shared]
        hop = self.up_hop[up][shared]
        base = float(cfg.latency.l1_hit + cfg.latency.l2_hit)
        stall = np.where(
            k == _STORE, hidden,
            np.where(k == _ATOMIC,
                     float(cfg.latency.l2_hit) + 2.0 * hop + hidden,
                     hidden - (base + hop)))
        r.stall += _bc(self.T, n, stall / cfg.timing.latency_tolerance)

    # -- epoch-end state folding ---------------------------------------

    def _sweeps(self, e):
        """Apply epoch ``e``'s predicate-classed L2 sweeps position-aware:
        an entry survives a sweep when it was (re)touched after the last
        sweep of its unit."""
        tab = self.l2_tab
        events = [(cls, *last.epoch(e)) for cls, last in self.sweeps.items()]
        events = [ev for ev in events if ev[1].size]
        if not (events and tab.keys.size):
            return
        G = self.G
        tunit = vs.units_of(tab.keys)
        tline = vs.items_of(tab.keys)
        tsh = batchmap.owners_of_pages(
            self.p.upages, self.p.owners, tline // self.cfg.lines_per_page)
        if self.name == "hsw":
            tsect = tline // self.SPL
            gpu_home = np.where(tsh // G == tunit // G, tsh,
                                (tunit // G) * G
                                + batchmap.home_gpm_of_sectors(tsect, G))
            preds = {1: gpu_home != tunit,
                     2: (tsh // G != tunit // G) | (gpu_home != tunit),
                     3: tsh // G != tunit // G}
        else:
            preds = {0: tsh != tunit}
        drop = np.zeros(tab.keys.size, bool)
        for cls, units, last in events:
            drop |= _stale(tab.pos, tunit, units, last) & preds[cls]
        cnt = tab.drop(drop)
        self.r.l2c["invalidated_lines"] += cnt
        self.r.stats.lines_inv_by_acquire += cnt

    def _magic(self, e):
        """Ideal's oracle: a store wipes every other copy of its line,
        machine-wide, for free (the L1 share lives in the replay)."""
        if self.magic is None or not self.l2_tab.keys.size:
            return
        lines, last = self.magic.epoch(e)
        if lines.size:
            tab = self.l2_tab
            self.r.l2c["invalidated_lines"] += tab.drop(_stale(
                tab.pos, vs.items_of(tab.keys), lines, last))

    def _capacity(self):
        """Epoch-end L2 capacity enforcement: LRU within each set, dirty
        victims write back to their own DRAM partition."""
        r = self.r
        vk, vv = self.l2_tab.capacity_evict()
        r.l2c["evictions"] += int(vk.size)
        dirty = (vv & 1) != 0
        if dirty.any():
            r.l2c["dirty_evictions"] += int(np.count_nonzero(dirty))
            r.dram_writes += _bc(self.T, vs.units_of(vk[dirty])) * self.LS


# ---------------------------------------------------------------------------
# Engine front-end
# ---------------------------------------------------------------------------

class VectorizedThroughputEngine:
    """Batch twin of :class:`repro.engine.throughput.ThroughputEngine`.

    Consumes a :class:`repro.trace.batch.BatchTrace` (decoded straight
    from the binary trace cache when available) and produces a
    :class:`SimResult` with the same shape and resource model as the
    scalar engine; :mod:`repro.engine.equivalence` bounds the drift of
    every field.
    """

    name = "vectorized"

    def __init__(self, cfg, fault_plan=None):
        self.cfg = cfg
        self.fault_plan = fault_plan

    def run(self, protocol_name: str, trace, workload_name: str = "trace",
            placement: str = "first_touch") -> SimResult:
        if protocol_name not in VECTORIZED_PROTOCOLS:
            raise ValueError(
                f"protocol {protocol_name!r} has no vectorized model; "
                "use the scalar throughput engine"
            )
        cfg = self.cfg
        batch = as_batch(trace)
        p = _prepare(batch, cfg, placement,
                     cta_atomics_place=protocol_name == "ideal")
        r = _Run(cfg)
        # The wall timer covers the accounting passes only (the scalar
        # engine likewise times just its per-op loop); trace decode and
        # geometry prep are memoized on the batch across runs.  The L1
        # replay is memoized too, so the first protocol of each L1 class
        # on a trace pays for it.
        start = time.perf_counter()
        _static_charges(cfg, p, protocol_name, r)
        _EpochSim(cfg, p, protocol_name, r).run()
        wall_seconds = time.perf_counter() - start

        T = cfg.total_gpms
        ops_per_gpm = _bc(T, p.n)
        issue = (ops_per_gpm / cfg.timing.issue_rate_per_gpm
                 + r.stall
                 + r.bulk_invs * cfg.timing.bulk_invalidate_cycles)
        l2 = (r.l2_bytes / cfg.timing.l2_bytes_per_cycle).tolist()
        dram = ((r.dram_reads + r.dram_writes)
                / cfg.dram_bytes_per_cycle_per_gpm).tolist()
        link_bytes = [(int(r.traffic.link_out[g]), int(r.traffic.link_in[g]))
                      for g in range(cfg.num_gpus)]
        xbar_bytes = [int(x) for x in r.traffic.xbar]
        stats = r.stats
        stats.msg_counts = dict(r.traffic.counts)
        stats.msg_bytes = dict(r.traffic.bytes)
        resources, cycles, degradation = roll_up(
            cfg, self.fault_plan, issue=issue.tolist(), l2=l2, dram=dram,
            xbar_bytes=xbar_bytes, link_bytes=link_bytes,
            msg_counts=stats.msg_counts)
        return SimResult(
            protocol_name=protocol_name,
            workload_name=workload_name,
            cfg=cfg,
            cycles=cycles,
            resources=resources,
            stats=stats,
            l1_stats=CacheStats(**r.l1),
            l2_stats=CacheStats(**r.l2c),
            dram_bytes=int(r.dram_reads.sum() + r.dram_writes.sum()),
            ops=len(batch),
            link_bytes=link_bytes,
            xbar_bytes=xbar_bytes,
            wall_seconds=wall_seconds,
            degradation=degradation,
        )
